"""Command-line interface: subcommands, exit codes, determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import genfilter as gf
from genfilter.cli import main


LBDP_PARAMS = {"birth_rate": 1.2, "death_rate": 0.4, "sampling_rate": 0.8, "n0": 2}


def write_config(tmp_path, name="run.json", **overrides):
    config = {
        "schema_version": 1,
        "seed": 11,
        "model": {"name": "lbdp", "params": dict(LBDP_PARAMS)},
        "simulate": {"horizon": 2.0},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def simulated(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "sim"
    assert run("simulate", "--config", config, "--out", out) == 0
    return out


# ---------------------------------------------------------------------------
# simulate / prune


def test_simulate_writes_all_outputs(tmp_path):
    out = simulated(tmp_path)
    for name in ("trajectory.csv", "trajectory.json", "genealogy_full.json",
                 "genealogy_visible.json", "genealogy_visible.nwk"):
        assert (out / name).exists(), name
    meta = json.loads((out / "trajectory.json").read_text())
    assert meta["provenance"]["seed"] == 11
    assert meta["provenance"]["tool"] == f"genfilter {gf.__version__}"
    header = (out / "trajectory.csv").read_text().splitlines()
    assert header[0] == "time,event_name,aux"
    # the rendered forest parses back with the same structure
    v = gf.read_genealogy(out / "genealogy_visible.json")
    parsed = gf.from_newick((out / "genealogy_visible.nwk").read_text())
    assert len(parsed.nodes) == len(v.nodes)


VISIBLE = ("genealogy_visible.json", "genealogy_visible.nwk")

# command -> (config sections beside the simulated inputs, the files it writes)
RERUN = {
    "simulate": ({}, ("trajectory.csv", "trajectory.json", "genealogy_full.json", *VISIBLE)),
    "prune": ({}, VISIBLE),
    "exact": ({}, ("result.json",)),
    "filter": ({"filter": {"n_particles": 200}}, ("diagnostics.csv", "result.json")),
    "oracle": ({"oracle": {"n_max": 40}}, ("result.json",)),
    "profile": ({"oracle": {"n_max": 40},
                 "profile": {"parameter": "birth_rate", "values": [1.0, 1.5], "n_particles": 50,
                             "n_reps": 2, "include_oracle": True}}, ("profile.csv",)),
}


@pytest.mark.parametrize("command, seeded", [
    *((command, True) for command in RERUN),
    *((command, False) for command in ("simulate", "prune", "exact", "oracle")),
])
def test_rerun_is_byte_identical(tmp_path, command, seeded):
    """Two runs of one config write the same files, byte for byte.

    Unseeded, a command that draws nothing records its seed as null, and
    `simulate` records the seed it drew: given as ``--seed``, it writes the
    same files again.
    """
    sim = simulated(tmp_path)
    genealogy = "genealogy_full.json" if command == "prune" else VISIBLE[0]
    inputs = {"trajectory": str(sim / "trajectory"), "genealogy": str(sim / genealogy)}
    sections, files = RERUN[command]
    config = write_config(tmp_path, name="rerun.json", inputs=inputs, **sections)
    if not seeded:
        config.write_text(json.dumps({k: v for k, v in json.loads(config.read_text()).items()
                                      if k != "seed"}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(command, "--config", config, "--out", a) == 0
    again = []
    if not seeded:
        stamped = next(name for name in files if name.endswith(".json"))
        seed = json.loads((a / stamped).read_text())["provenance"]["seed"]
        if command == "simulate":
            assert isinstance(seed, int) and seed >= 0
            again = ["--seed", seed]
        else:
            assert seed is None
    assert run(command, "--config", config, "--out", b, *again) == 0
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir()) == \
        sorted(files)
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_prune_matches_simulate_output(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="prune.json",
                          inputs={"genealogy": str(out / "genealogy_full.json")})
    pruned = tmp_path / "pruned"
    assert run("prune", "--config", config, "--out", pruned) == 0
    # identical content; provenance differs because the configs differ
    a = json.loads((pruned / "genealogy_visible.json").read_text())
    b = json.loads((out / "genealogy_visible.json").read_text())
    assert a["nodes"] == b["nodes"]
    assert a["time"] == b["time"]
    assert (pruned / "genealogy_visible.nwk").read_bytes() == \
        (out / "genealogy_visible.nwk").read_bytes()


# ---------------------------------------------------------------------------
# filter


def test_filter_single_rep(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="filter.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")},
                          filter={"n_particles": 300})
    res_dir = tmp_path / "fit"
    assert run("filter", "--config", config, "--out", res_dir) == 0
    result = json.loads((res_dir / "result.json").read_text())
    assert result["n_particles"] == 300
    assert result["n_reps"] == 1
    assert isinstance(result["loglik"], float)
    assert result["collapsed"] is False
    assert result["provenance"]["seed"] == 11
    lines = (res_dir / "diagnostics.csv").read_text().splitlines()
    assert lines[3] == "time,kind,log_mean_weight,ess,resampled"
    assert len(lines) > 4


def test_filter_replicates(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="filter.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")},
                          filter={"n_particles": 200, "n_reps": 6})
    res_dir = tmp_path / "fit"
    assert run("filter", "--config", config, "--out", res_dir) == 0
    result = json.loads((res_dir / "result.json").read_text())
    assert result["n_reps"] == 6
    assert len(result["estimates"]) == 6
    assert result["collapse_count"] == 0
    assert result["se"] > 0
    vals = np.array(result["estimates"], dtype=float)
    assert np.isclose(result["mean"], vals.mean())
    # diagnostics.csv comes from replicate 0 of the same seed stream
    spec = gf.build_model("lbdp", LBDP_PARAMS)
    v = gf.read_genealogy(out / "genealogy_visible.json")
    rep0 = np.random.default_rng(np.random.SeedSequence(11).spawn(6)[0])
    want = gf.smc_loglik(spec, v, gf.FilterConfig(200, seed=11), rng=rep0)
    assert result["estimates"][0] == want.loglik
    want.diagnostics.to_csv(tmp_path / "want.csv")
    got = (res_dir / "diagnostics.csv").read_text().splitlines()
    assert [ln for ln in got if not ln.startswith("#")] == \
        (tmp_path / "want.csv").read_text().splitlines()


def test_filter_seed_flag_overrides_config(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="filter.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")},
                          filter={"n_particles": 200})
    a, b = tmp_path / "fa", tmp_path / "fb"
    assert run("filter", "--config", config, "--out", a) == 0
    assert run("filter", "--config", config, "--out", b, "--seed", 99) == 0
    ra = json.loads((a / "result.json").read_text())
    rb = json.loads((b / "result.json").read_text())
    assert rb["provenance"]["seed"] == 99
    assert ra["loglik"] != rb["loglik"]


# ---------------------------------------------------------------------------
# oracle / exact


def test_oracle_matches_library_call(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="oracle.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")},
                          oracle={"n_max": 80, "tol": 1e-8})
    res_dir = tmp_path / "oracle"
    assert run("oracle", "--config", config, "--out", res_dir) == 0
    result = json.loads((res_dir / "result.json").read_text())
    assert result["n_states"] == 81
    assert result["boundary_flux"] < 1e-6

    spec = gf.build_model("lbdp", LBDP_PARAMS)
    v = gf.read_genealogy(out / "genealogy_visible.json")
    want = gf.oracle_loglik(spec, v, gf.lbdp_truncation(gf.LBDPParams(**LBDP_PARAMS), 80))
    assert result["loglik"] == pytest.approx(want, rel=1e-12)


def test_oracle_requires_n_max_for_lbdp(tmp_path, capsys):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="oracle.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")})
    assert run("oracle", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.oracle.n_max" in capsys.readouterr().err


SIR_PARAMS = {"transmission_rate": 0.1, "recovery_rate": 0.3, "sampling_rate": 0.5,
              "s0": 8, "i0": 3}


@pytest.mark.parametrize("command, section", [
    ("oracle", {}),
    ("profile", {"profile": {"parameter": "transmission_rate", "values": [0.1],
                             "n_particles": 20, "include_oracle": True}}),
], ids=["oracle", "profile"])
def test_oracle_refuses_n_max_for_a_model_that_does_not_read_it(tmp_path, capsys, command,
                                                                section):
    # sir's truncation is its whole simplex, so n_max 5 was ignored without a word
    model = {"name": "sir", "params": SIR_PARAMS}
    sim = write_config(tmp_path, name="sim.json", model=model)
    assert run("simulate", "--config", sim, "--out", tmp_path / "sim") == 0
    config = write_config(tmp_path, name="n_max.json", model=model, oracle={"n_max": 5},
                          inputs={"genealogy": str(tmp_path / "sim" / VISIBLE[0])}, **section)
    assert run(command, "--config", config, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == \
        "error: config.oracle.n_max is read for model lbdp only, not 'sir'\n"
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command", ["oracle", "profile"])
def test_oracle_takes_a_whole_float_count(tmp_path, command):
    # the spec reads "s0": 8.0 as 8, and so must the truncation: the files
    # then differ only in the config's digest
    model = {"name": "sir", "params": SIR_PARAMS}
    sim = write_config(tmp_path, name="sim.json", model=model)
    assert run("simulate", "--config", sim, "--out", tmp_path / "sim") == 0
    written = []
    for s0 in (8, 8.0):
        profile = {"profile": {"parameter": "s0", "values": [s0], "n_particles": 20,
                               "include_oracle": True}} if command == "profile" else {}
        config = write_config(tmp_path, model={"name": "sir", "params": {**SIR_PARAMS, "s0": s0}},
                              inputs={"genealogy": str(tmp_path / "sim" / VISIBLE[0])}, **profile)
        out = tmp_path / f"{command}-{s0}"
        assert run(command, "--config", config, "--out", out) == 0
        text = (out / ("result.json" if command == "oracle" else "profile.csv")).read_text()
        written.append([line for line in text.splitlines() if "config_sha256" not in line])
    assert written[0] == written[1]


def test_oracle_rejects_tied_event_times(tmp_path, capsys):
    # both leaves at t=0.7: each needs the lineage count the other leaves behind
    path = gf.write_genealogy(tmp_path / "tied.json",
                              gf.from_newick("((r1:0.5,r2:0.5):0.2);"))
    config = write_config(tmp_path, name="oracle.json", inputs={"genealogy": str(path)},
                          oracle={"n_max": 30})
    assert run("oracle", "--config", config, "--out", tmp_path / "o") == 1
    assert "share time" in capsys.readouterr().err


@pytest.mark.parametrize("newick", ["(r0:0);", "((r0:0.5,r1:0.4):0);"])
def test_event_at_time_zero_is_rejected_by_every_route(tmp_path, capsys, newick):
    # only a root (a node holding its own green ball) may sit at t = 0; every
    # route must reject a leaf or a coalescence there, not weigh it its own way
    params = {"birth_rate": 1.0, "death_rate": 0.5, "sampling_rate": 0.8, "n0": 2}
    spec = gf.lbdp_spec(gf.LBDPParams(**params))
    v = replace(gf.from_newick(newick), time=1.0)
    assert any("cannot precede the process" in p for p in gf.validate_genealogy(v))
    with pytest.raises(gf.GenealogyError, match="t=0.0 cannot precede the process"):
        gf.smc_loglik(spec, v, gf.FilterConfig(50, seed=1))
    with pytest.raises(gf.GenealogyError, match="t=0.0 cannot precede the process"):
        gf.oracle_loglik(spec, v, gf.lbdp_truncation(gf.LBDPParams(**params), 20))
    h = gf.History(1.0, (2, 0), ((0.4, 2), (0.5, 2)))
    with pytest.raises(gf.GenealogyError, match="t=0.0 cannot precede the process"):
        gf.loglik_events(spec, h, v)
    path = gf.write_genealogy(tmp_path / "zero.json", v)
    config = write_config(tmp_path, name="filter.json", inputs={"genealogy": str(path)},
                          model={"name": "lbdp", "params": params},
                          filter={"n_particles": 50})
    assert run("filter", "--config", config, "--out", tmp_path / "f") == 1
    assert "cannot precede the process" in capsys.readouterr().err


def test_exact_rejects_a_history_file(tmp_path, capsys):
    # a trajectory header of any kind but "jumps" is a malformed input
    out = simulated(tmp_path)
    head = out / "trajectory.json"
    head.write_text(json.dumps({**json.loads(head.read_text()), "kind": "history"}))
    config = write_config(tmp_path, name="exact.json",
                          inputs={"trajectory": str(out / "trajectory")})
    assert run("exact", "--config", config, "--out", tmp_path / "exact") == 2
    assert "config.inputs.trajectory: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("model,x0,message", [
    ("lbdp", [2.5, 0], "is not a list of finite whole numbers"),
    ("lbdp", [2], "1-wide x0 do not fit model 'lbdp'"),
    ("sir", None, "do not fit model 'sir'"),
])
def test_exact_rejects_a_trajectory_that_does_not_fit_the_model(tmp_path, capsys, model, x0,
                                                                 message):
    # a whole x0 of the wrong width, or a sirs trajectory (its waning channel
    # has no index under sir), ended in a traceback; x0 2.5 was read as 2
    if model == "sir":
        sirs = {"transmission_rate": 0.1, "recovery_rate": 0.3, "sampling_rate": 0.5,
                "waning_rate": 2.0, "s0": 8, "i0": 3}
        params = {k: v for k, v in sirs.items() if k != "waning_rate"}
        sim = write_config(tmp_path, name="sirs.json", model={"name": "sirs", "params": sirs})
        assert run("simulate", "--config", sim, "--out", tmp_path / "sim") == 0
        traj = tmp_path / "sim" / "trajectory"
        assert "waning" in traj.with_suffix(".csv").read_text()
    else:
        params, traj = LBDP_PARAMS, simulated(tmp_path) / "trajectory"
        head = traj.with_suffix(".json")
        head.write_text(json.dumps({**json.loads(head.read_text()), "x0": x0}))
    config = write_config(tmp_path, name="exact.json", model={"name": model, "params": params},
                          inputs={"trajectory": str(traj)})
    assert run("exact", "--config", config, "--out", tmp_path / "exact") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.inputs.trajectory: ") and message in err


def test_exact_routes_agree(tmp_path):
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="exact.json",
                          inputs={"trajectory": str(out / "trajectory")})
    res_dir = tmp_path / "exact"
    assert run("exact", "--config", config, "--out", res_dir) == 0
    result = json.loads((res_dir / "result.json").read_text())
    assert result["difference"] <= 1e-9

    spec = gf.build_model("lbdp", LBDP_PARAMS)
    traj, _ = gf.read_trajectory(out / "trajectory")
    assert result["loglik_lineages"] == pytest.approx(
        gf.loglik_lineages(spec, traj), rel=1e-12)


# ---------------------------------------------------------------------------
# profile


def test_profile_writes_csv(tmp_path):
    out = simulated(tmp_path)
    config = write_config(
        tmp_path, name="profile.json",
        inputs={"genealogy": str(out / "genealogy_visible.json")},
        profile={"parameter": "birth_rate", "values": [1.0, 1.5],
                 "n_particles": 150, "n_reps": 2,
                 "include_oracle": True},
        oracle={"n_max": 60})
    res_dir = tmp_path / "prof"
    assert run("profile", "--config", config, "--out", res_dir) == 0
    lines = (res_dir / "profile.csv").read_text().splitlines()
    assert lines[3] == "value,mean,se,n_particles,n_reps,collapsed,oracle"
    assert len(lines) == 6
    for line, value in zip(lines[4:], (1.0, 1.5)):
        cells = line.split(",")
        assert float(cells[0]) == value
        assert cells[3] == "150"
        # the noisy estimate tracks the deterministic one
        assert abs(float(cells[1]) - float(cells[6])) < 2.0


def test_profile_reads_its_truncation_from_the_oracle_section(tmp_path, capsys):
    # the oracle settings have one home: n_max in the profile section is an unknown key
    out = simulated(tmp_path)
    config = write_config(
        tmp_path, name="profile.json",
        inputs={"genealogy": str(out / "genealogy_visible.json")},
        profile={"parameter": "birth_rate", "values": [1.0], "n_particles": 20,
                 "include_oracle": True, "n_max": 60})
    assert run("profile", "--config", config, "--out", tmp_path / "prof") == 2
    err = capsys.readouterr().err
    assert "config.profile:" in err and "'n_max'" in err


def test_profile_rejects_unknown_parameter(tmp_path, capsys):
    out = simulated(tmp_path)
    config = write_config(
        tmp_path, name="profile.json",
        inputs={"genealogy": str(out / "genealogy_visible.json")},
        profile={"parameter": "slope", "values": [1.0]})
    assert run("profile", "--config", config, "--out", tmp_path / "p") == 2
    assert "slope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_rejects_unknown_top_level_key(tmp_path, capsys):
    config = write_config(tmp_path, extra={"a": 1})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    assert "extra" in capsys.readouterr().err


def test_rejects_bad_nested_key_with_path(tmp_path, capsys):
    config = write_config(tmp_path, filter={"particles": 5})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.filter" in capsys.readouterr().err


def test_rejects_wrong_schema_version(tmp_path, capsys):
    config = write_config(tmp_path, schema_version=2)
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.schema_version" in capsys.readouterr().err


def test_rejects_unknown_model_name(tmp_path, capsys):
    config = write_config(tmp_path, model={"name": "seir", "params": {}})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.model.name" in capsys.readouterr().err


def test_rejects_bad_model_params(tmp_path, capsys):
    config = write_config(tmp_path, model={"name": "lbdp", "params": {"n0": 1}})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.model.params" in capsys.readouterr().err


@pytest.mark.parametrize("section, field", [
    ({"filter": {"n_particles": 200.0}}, "config.filter.n_particles"),
    ({"filter": {"n_particles": 200, "n_reps": 2.0}}, "config.filter.n_reps"),
    ({"seed": 11.0}, "config.seed"),
    ({"simulate": {"horizon": 2.0, "max_jumps": 50.0}}, "config.simulate.max_jumps"),
    ({"oracle": {"n_max": 30.0}}, "config.oracle.n_max"),
], ids=["n_particles", "n_reps", "seed", "max_jumps", "n_max"])
def test_integer_fields_take_json_integers_only(tmp_path, capsys, section, field):
    # JSON Schema's "integer" also takes 200.0; the filter then failed with a TypeError
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="filter.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")}, **section)
    assert run("filter", "--config", config, "--out", tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert f"error: {field}: " in err and "is not of type 'integer'" in err


@pytest.mark.parametrize("command, section, where", [
    ("filter", {"filter": {"n_particles": 20, "weighting": "rejection"}}, "config.filter"),
    ("profile", {"profile": {"parameter": "birth_rate", "values": [1.0],
                             "weighting": "analytic-survival"}}, "config.profile"),
], ids=["filter", "profile"])
def test_a_weighting_key_is_a_config_error(tmp_path, capsys, command, section, where):
    # the filter has one law between events, so a config that names a
    # weighting asks for something no run gives, and writes nothing
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="weighting.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")}, **section)
    assert run(command, "--config", config, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and "'weighting' was unexpected" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_a_negative_seed_flag_is_a_config_error(tmp_path, capsys, command):
    # config.seed must be at least 0 and the flag went unchecked: simulate
    # died in a ValueError traceback, oracle recorded the seed -3
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="seed.json", oracle={"n_max": 20},
                          inputs={"genealogy": str(out / VISIBLE[0])})
    assert run(command, "--config", config, "--out", tmp_path / "o", "--seed", -3) == 2
    assert capsys.readouterr().err == "error: --seed: -3 is less than the minimum of 0\n"
    assert not (tmp_path / "o").exists()


def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run("simulate", "--config", write_config(tmp_path), "--out", taken) == 2
    assert capsys.readouterr().err.startswith(f"error: --out: cannot make directory {taken}: ")


def test_missing_input_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("filter", "--config", config, "--out", tmp_path / "o") == 2
    assert "config.inputs.genealogy" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run("simulate", "--config", path, "--out", tmp_path / "o") == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_runtime_failure_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, simulate={"horizon": 50.0, "max_jumps": 3},
                          model={"name": "lbdp",
                                 "params": {"birth_rate": 5.0, "death_rate": 0.0,
                                            "sampling_rate": 0.0, "n0": 2}})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 1
    assert "error:" in capsys.readouterr().err


NOT_A_GENEALOGY = {"time": 1.0, "nodes": [
    {"name": 0, "time": 0.0, "pocket": [{"color": "green", "name": 0}]}]}


@pytest.mark.parametrize("command,key,content,code", [
    ("filter", "genealogy", None, 2),
    ("filter", "genealogy", "{nope", 1),
    ("oracle", "genealogy", json.dumps({"time": 1.0}), 1),
    ("prune", "genealogy", json.dumps(NOT_A_GENEALOGY), 1),
    ("exact", "trajectory", None, 2),
    ("exact", "trajectory", "time,event,aux\n", 2),
    ("exact", "trajectory", "time,event_name,aux\n0.5,birth,0\n5.0,birth,0\n", 2),
    ("exact", "trajectory", "time,event_name,aux\n0.6,birth,0\n0.4,birth,0\n", 2),
])
def test_bad_input_file_is_a_named_error(tmp_path, command, key, content, code):
    """Unreadable paths are config errors; malformed content fails the run; no traceback."""
    target = tmp_path / "input"
    if content is not None and key == "genealogy":
        target.write_text(content)
    elif content is not None:
        target.with_suffix(".json").write_text(json.dumps(
            {"kind": "jumps", "events": ["birth", "death", "sampling"], "x0": [1, 0],
             "t_end": 1.0}))
        target.with_suffix(".csv").write_text(content)
    config = write_config(tmp_path, name="bad.json", inputs={key: str(target)},
                          oracle={"n_max": 20})
    proc = subprocess.run([sys.executable, "-m", "genfilter", command, "--config", str(config),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == code, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert f"config.inputs.{key}" in proc.stderr


@pytest.mark.parametrize("where", ["node", "genealogy"])
def test_prune_rejects_a_time_at_nan(tmp_path, capsys, where):
    # the genealogy file is JSON with the literal NaN; prune must not write it back
    out = simulated(tmp_path)
    obj = json.loads((out / "genealogy_full.json").read_text())
    if where == "node":
        obj["nodes"][-1]["time"] = math.nan
    else:
        obj["time"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    config = write_config(tmp_path, name="prune.json", inputs={"genealogy": str(path)})
    assert run("prune", "--config", config, "--out", tmp_path / "pruned") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.inputs.genealogy: ") and "time is NaN" in err
    assert not (tmp_path / "pruned" / "genealogy_visible.json").exists()


@pytest.mark.parametrize("command", ["prune", "filter", "oracle"])
@pytest.mark.parametrize("time", [-1.0, math.inf])
def test_a_genealogy_time_that_is_infinite_or_below_0_is_an_error(tmp_path, capsys, command,
                                                                  time):
    # json reads the literal Infinity; before, oracle overflowed on it with a
    # traceback and every command weighed an empty genealogy at -1 as 0.0
    obj = json.loads((simulated(tmp_path) / "genealogy_visible.json").read_text())
    obj["time"] = time
    if time < 0:
        obj["nodes"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    config = write_config(tmp_path, name="bad_time.json", inputs={"genealogy": str(path)},
                          oracle={"n_max": 20}, filter={"n_particles": 20})
    assert run(command, "--config", config, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err == (f"error: config.inputs.genealogy: genealogy time {time} "
                   "is infinite or below 0\n")
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("field,bad", [("times", math.nan), ("times", math.inf),
                                       ("values", math.nan)])
def test_non_finite_piecewise_rate_is_a_config_error(tmp_path, field, bad):
    """json reads NaN and Infinity; a step-function rate must reject them, not crash."""
    beta = {"times": [0.5], "values": [0.04, 0.02]}
    beta[field][0] = bad
    config = write_config(tmp_path, model={"name": "sir", "params": {
        "transmission_rate": beta, "recovery_rate": 1.0, "sampling_rate": 1.0,
        "s0": 20, "i0": 2}})
    proc = subprocess.run([sys.executable, "-m", "genfilter", "simulate", "--config", str(config),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=checkout_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "config.model.params" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key,bad", [("transmission_rate", math.nan),
                                     ("transmission_rate", math.inf),
                                     ("recovery_rate", math.nan),
                                     ("recovery_rate", -math.inf)])
def test_non_finite_scalar_rate_is_a_config_error(tmp_path, key, bad):
    params = {"transmission_rate": 0.04, "recovery_rate": 1.0, "sampling_rate": 1.0,
              "s0": 20, "i0": 2}
    params[key] = bad
    config = write_config(tmp_path, model={"name": "sir", "params": params})
    proc = subprocess.run([sys.executable, "-m", "genfilter", "simulate", "--config", str(config),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=checkout_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "config.model.params" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, bad, message", [
    ("transmission_rate", {"values": [0.05]}, "exactly the keys 'times' and 'values'"),
    ("transmission_rate", {"times": 3, "values": [0.05, 0.02]}, "sequences of numbers, got 3"),
    ("recovery_rate", [0.8], "rates must be numbers, got [0.8]"),
    ("recovery_rate", {"a": 1}, "rates must be numbers, got {'a': 1}"),
], ids=["no-times", "scalar-times", "list-rate", "mapping-rate"])
def test_malformed_model_parameter_is_a_config_error(tmp_path, capsys, key, bad, message):
    # each of these used to end in a KeyError or TypeError traceback
    params = {"transmission_rate": 0.04, "recovery_rate": 1.0, "sampling_rate": 1.0,
              "s0": 20, "i0": 2, key: bad}
    config = write_config(tmp_path, model={"name": "sir", "params": params})
    assert run("simulate", "--config", config, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.model.params: ") and message in err


@pytest.mark.parametrize("command,section,where,literal", [
    ("oracle", {"oracle": {"n_max": 20, "tol": math.nan}}, "config.oracle.tol", "NaN"),
    ("oracle", {"oracle": {"n_max": 20, "tol": math.inf}}, "config.oracle.tol", "Infinity"),
    ("filter", {"filter": {"n_particles": 20, "ess_threshold": math.nan}},
     "config.filter.ess_threshold", "NaN"),
])
def test_non_finite_json_number_is_a_config_error(tmp_path, capsys, command, section, where,
                                                   literal):
    """json reads NaN and Infinity; every one is a config error naming its key."""
    out = simulated(tmp_path)
    config = write_config(tmp_path, name="nan.json",
                          inputs={"genealogy": str(out / "genealogy_visible.json")}, **section)
    assert literal in config.read_text()
    assert run(command, "--config", config, "--out", tmp_path / "o") == 2
    assert f"error: {where}: {literal} is not allowed" in capsys.readouterr().err


def test_relative_input_resolves_against_config_dir(tmp_path):
    out = simulated(tmp_path)
    nested = tmp_path / "cfg"
    nested.mkdir()
    (nested / "v.json").write_bytes((out / "genealogy_visible.json").read_bytes())
    config = write_config(nested, name="run.json",
                          inputs={"genealogy": "v.json"},
                          filter={"n_particles": 100})
    assert run("filter", "--config", config, "--out", tmp_path / "o") == 0


# ---------------------------------------------------------------------------
# console entry point


def entry_point_target(pyproject):
    """``(module, function)`` named by ``genfilter`` in ``[project.scripts]``.

    A line scan rather than ``tomllib``, which Python 3.10 lacks.
    """
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            match = re.fullmatch(r'genfilter\s*=\s*"([\w.]+):(\w+)"', line)
            if match:
                return match.groups()
    pytest.fail(f"no genfilter entry in [project.scripts] of {pyproject}")


def checkout_env():
    """The environment with the imported package's source root first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(gf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_integrate_unloaded():
    # RK45 and quad are imported where they are used, so neither the package
    # nor its command line pays for scipy.integrate on import
    code = ("import sys, genfilter, genfilter.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env(), check=True)
    assert proc.stdout.strip() == "[]"


def console_script():
    """Command prefix and environment that start the ``genfilter`` console script.

    An installed script on PATH runs as is.  Otherwise the declared target
    runs in a fresh interpreter the way the generated wrapper calls it, on
    the same sources this process imported.
    """
    script = shutil.which("genfilter")
    if script:
        return [script], None
    module, func = entry_point_target(Path(__file__).resolve().parents[1] / "pyproject.toml")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], checkout_env()


def test_console_script_end_to_end(tmp_path):
    command, env = console_script()
    config = write_config(tmp_path)
    out = tmp_path / "sim"
    proc = subprocess.run([*command, "simulate", "--config", str(config),
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").exists()
    version = subprocess.run([*command, "--version"], capture_output=True, text=True,
                             env=env)
    assert version.stdout.strip() == f"genfilter {gf.__version__}"
    module = subprocess.run([sys.executable, "-m", "genfilter", "--version"],
                            capture_output=True, text=True, env=checkout_env())
    assert module.stdout.strip() == f"genfilter {gf.__version__}", module.stderr
