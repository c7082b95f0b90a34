"""Command-line interface.

All subcommands take a JSON config file plus a few overriding flags and
write their results into an output directory.  `main` does the work they
share: it loads the config, resolves the seed, makes ``--out``, writes
``result.json`` (a command's result plus provenance) and prints the
command's summary line.  Each ``cmd_*`` computes and writes only its own
further files.

Runs are deterministic for a fixed seed: reruns produce byte-identical
outputs, so no timestamps are written.  Provenance (tool version, config
digest, effective seed) goes into every JSON output.  ``simulate``, ``filter``
and ``profile`` draw random numbers and take a fresh seed when neither
``--seed`` nor ``config.seed`` gives one; ``prune``, ``exact`` and
``oracle`` draw none and record the seed as given, or null, so their
unseeded reruns are byte-identical too.

Exit codes: 0 on success (a -inf log likelihood is still a success), 2 for
config errors, a negative ``--seed`` and an ``--out`` that cannot be made
a directory among them, 1 for runtime failures in simulation or inference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .exact import ExactError, loglik_events, loglik_lineages
from .filtering import (RESAMPLING_METHODS, FilterConfig, FilterError, boundary_flux,
                        oracle_loglik, replicate_loglik, smc_loglik)
from .genealogy import (GenealogyError, NewickError, build_genealogy, prune,
                        read_genealogy, to_newick, validate_genealogy, write_genealogy)
from .models import MODELS, TRUNCATIONS, model_params
from .population import (DEFAULT_MAX_JUMPS, IntegrationError, SimulationError, _write_csv,
                         _write_json, _write_text, read_trajectory, simulate, to_history,
                         write_trajectory)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


_FILTER_PROPS = {
    "n_particles": {"type": "integer", "minimum": 1},
    "n_reps": {"type": "integer", "minimum": 1},
    "ess_threshold": {"type": "number", "minimum": 0, "maximum": 1},
    "resampling": {"enum": list(RESAMPLING_METHODS)},
}

_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "model"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "model": {
            "type": "object",
            "required": ["name", "params"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": sorted(MODELS)},
                "params": {"type": "object"},
                "mu": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "inputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectory": {"type": "string"},
                "genealogy": {"type": "string"},
            },
        },
        "simulate": {
            "type": "object",
            "required": ["horizon"],
            "additionalProperties": False,
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "max_jumps": {"type": "integer", "minimum": 1},
            },
        },
        "filter": {
            "type": "object",
            "additionalProperties": False,
            "properties": dict(_FILTER_PROPS),
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "n_max": {"type": "integer", "minimum": 0},
            },
        },
        "profile": {
            "type": "object",
            "required": ["parameter", "values"],
            "additionalProperties": False,
            "properties": {
                "parameter": {"type": "string"},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "include_oracle": {"type": "boolean"},
                **_FILTER_PROPS,
            },
        },
    },
}


# JSON integers only: Draft 2020-12's "integer" also takes a float with no fraction, such as 2.0
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)))


def _non_finite(obj, where: str):
    """``(path, value)`` of the first NaN or infinity in parsed JSON ``obj``, else None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return where, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _non_finite(value, f"{where}.{key}")
        if found:
            return found
    return None


def load_config(path) -> dict:
    """The validated config at ``path``.

    JSON's NaN, Infinity and -Infinity, and a number too large for a float,
    are a ConfigError naming where they stand, before the schema is read.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    bad = _non_finite(config, "config")
    if bad:
        raise ConfigError(f"{bad[0]}: {json.dumps(bad[1])} is not allowed; "
                          f"config numbers must be finite")
    errors = sorted(_VALIDATOR(_SCHEMA).iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = ".".join(str(p) for p in err.absolute_path)
        where = f"config.{where}" if where else "config"
        raise ConfigError(f"{where}: {err.message}")
    config["_sha256"] = hashlib.sha256(raw.encode()).hexdigest()
    config["_dir"] = path.parent
    return config


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isfinite(val):
            return val
        return "-inf" if val < 0 else ("inf" if val > 0 else "nan")
    return obj


def _build_model(config, params=None, where: str = "config.model.params"):
    """The model's params dataclass and spec; ``params`` replaces the config's mapping."""
    model = config["model"]
    try:
        obj = model_params(model["name"], model["params"] if params is None else params)
        return obj, MODELS[model["name"]][1](obj, mu=model.get("mu", 1.0))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_input(config, key: str, reader):
    """``reader(path)`` on ``config.inputs.<key>``, resolved against the config's directory.

    A missing key, a path that cannot be read, and content ``reader``
    rejects with KeyError, TypeError or ValueError are config errors.
    """
    inputs = config.get("inputs", {})
    if key not in inputs:
        raise ConfigError(f"config.inputs.{key} is required for this command")
    path = config["_dir"] / inputs[key]
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"config.inputs.{key}: cannot read {path}: "
                          f"{exc.strerror or exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config.inputs.{key}: malformed {path}: {exc}") from None


def _read_genealogy(config):
    """The input genealogy; malformed or structurally invalid content is a GenealogyError."""
    g = _read_input(config, "genealogy", read_genealogy)
    problems = validate_genealogy(g)
    if problems:
        raise GenealogyError(f"config.inputs.genealogy: {problems[0]}")
    return g


def _filter_config(section: dict, seed: int) -> FilterConfig:
    """The filter settings the section gives; `FilterConfig` supplies the rest."""
    keys = ("n_particles", "ess_threshold", "resampling")
    return FilterConfig(seed=seed, **{k: section[k] for k in keys if k in section})


def _truncation(config):
    """``params -> truncation`` of the config's model.

    ``config.oracle.n_max`` sizes lbdp's truncation, which requires it; the
    other models truncate to their own bounded state space, so for them the
    key is a config error rather than a setting no run reads.
    """
    name, n_max = config["model"]["name"], config.get("oracle", {}).get("n_max")
    if n_max is None and name == "lbdp":
        raise ConfigError("config.oracle.n_max is required for model lbdp")
    if n_max is not None and name != "lbdp":
        raise ConfigError(f"config.oracle.n_max is read for model lbdp only, not {name!r}")
    return lambda params: TRUNCATIONS[name](params, n_max)


def _write_visible(out: Path, visible, prov: dict) -> None:
    """``genealogy_visible.json`` and, atomically, ``genealogy_visible.nwk``."""
    write_genealogy(out / "genealogy_visible.json", visible, provenance=prov)
    _write_text(out / "genealogy_visible.nwk", to_newick(visible))


def cmd_simulate(config, seed, prov: dict, out: Path):
    if "simulate" not in config:
        raise ConfigError("config.simulate is required for this command")
    _, spec = _build_model(config)
    horizon = config["simulate"]["horizon"]
    traj = simulate(spec, horizon, np.random.default_rng(seed),
                    max_jumps=config["simulate"].get("max_jumps", DEFAULT_MAX_JUMPS))
    write_trajectory(out / "trajectory", spec, traj, seed=seed, provenance=prov)
    g, _ = build_genealogy(spec, traj)
    write_genealogy(out / "genealogy_full.json", g, provenance=prov)
    _write_visible(out, prune(g), prov)
    return None, f"simulated {len(traj.jumps)} jumps over [0, {horizon}]"


def cmd_prune(config, seed, prov: dict, out: Path):
    _write_visible(out, prune(_read_genealogy(config)), prov)
    return None, "pruned genealogy"


def cmd_filter(config, seed, prov: dict, out: Path):
    _, spec = _build_model(config)
    section = config.get("filter", {})
    fc = _filter_config(section, seed)
    v = _read_genealogy(config)
    n_reps = section.get("n_reps", 1)
    result = {"n_particles": fc.n_particles, "n_reps": n_reps}
    if n_reps == 1:
        res = smc_loglik(spec, v, fc)
        diagnostics, shown = res.diagnostics, res.loglik
        result.update(loglik=res.loglik, collapsed=diagnostics.collapsed,
                      resample_count=diagnostics.resample_count)
    else:
        rep = replicate_loglik(spec, v, fc, n_reps)
        diagnostics, shown = rep.diagnostics, rep.mean
        result.update(mean=rep.mean, se=rep.se, estimates=list(rep.estimates),
                      collapse_count=rep.collapse_count)
    diagnostics.to_csv(out / "diagnostics.csv", provenance=prov)
    return result, f"filter loglik {shown} ({fc.n_particles} particles, {n_reps} reps)"


def cmd_oracle(config, seed, prov: dict, out: Path):
    params, spec = _build_model(config)
    v = _read_genealogy(config)
    tol = config.get("oracle", {}).get("tol", 1e-8)
    loglik, grid = oracle_loglik(spec, v, _truncation(config)(params), tol=tol, return_grid=True)
    result = {"loglik": loglik, "tol": tol, "n_states": int(len(grid.states)),
              "boundary_flux": boundary_flux(spec, grid)}
    return result, f"oracle loglik {loglik} ({len(grid.states)} states)"


def cmd_exact(config, seed, prov: dict, out: Path):
    _, spec = _build_model(config)
    traj, header = _read_input(config, "trajectory", read_trajectory)
    names = [ev.name for ev in spec.events]
    if header["events"] != names or len(traj.x0) != spec.d:
        raise ConfigError(f"config.inputs.trajectory: events {header['events']} and a "
                          f"{len(traj.x0)}-wide x0 do not fit model {spec.name!r}, "
                          f"whose events are {names} on {spec.d}-wide states")
    by_lineage = loglik_lineages(spec, traj)
    g, _ = build_genealogy(spec, traj)
    visible = prune(g)
    by_events = loglik_events(spec, to_history(traj), visible)
    diff = abs(by_lineage - by_events) if math.isfinite(by_lineage) and \
        math.isfinite(by_events) else (0.0 if by_lineage == by_events else math.inf)
    result = {"loglik_lineages": by_lineage, "loglik_events": by_events, "difference": diff}
    return result, f"exact loglik {by_lineage} (routes differ by {diff})"


def cmd_profile(config, seed, prov: dict, out: Path):
    if "profile" not in config:
        raise ConfigError("config.profile is required for this command")
    section = config["profile"]
    model = config["model"]
    name = model["name"]
    param = section["parameter"]
    if param not in MODELS[name][0].__dataclass_fields__:
        raise ConfigError(f"config.profile.parameter: model {name!r} has no "
                          f"parameter {param!r}")
    v = _read_genealogy(config)
    values = section["values"]
    include_oracle = section.get("include_oracle", False)
    truncation = _truncation(config) if include_oracle else None
    sub_seeds = np.random.SeedSequence(seed).generate_state(len(values), dtype=np.uint64)
    n_reps = section.get("n_reps", 1)
    rows = []
    for value, sub in zip(values, sub_seeds):
        params, spec = _build_model(config, {**model["params"], param: value},
                                    where="config.profile.values")
        fc = _filter_config(section, int(sub))
        rep = replicate_loglik(spec, v, fc, n_reps)
        cells = [value, rep.mean, rep.se, fc.n_particles, n_reps, rep.collapse_count]
        if include_oracle:
            cells.append(oracle_loglik(spec, v, truncation(params),
                                       tol=config.get("oracle", {}).get("tol", 1e-8)))
        rows.append(",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in cells))
    header = "value,mean,se,n_particles,n_reps,collapsed" + (",oracle" if include_oracle else "")
    _write_csv(out / "profile.csv", header, rows, prov)
    return None, f"profiled {param} at {len(values)} values"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfilter",
        description="Simulate partially observed population processes and "
                    "compute genealogy likelihoods.")
    parser.add_argument("--version", action="version", version=f"genfilter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": (cmd_simulate, "simulate a trajectory and its genealogies"),
        "prune": (cmd_prune, "reduce a full genealogy to its visible part"),
        "filter": (cmd_filter, "particle-filter log likelihood of a genealogy"),
        "oracle": (cmd_oracle, "deterministic truncated-grid log likelihood"),
        "exact": (cmd_exact, "closed-form likelihood routes for a full trajectory"),
        "profile": (cmd_profile, "likelihood profile over one model parameter"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: {args.seed} is less than the minimum of 0")
        seed = args.seed if args.seed is not None else config.get("seed")
        # only the commands that draw random numbers need a seed when none is given
        if seed is None and args.command in ("simulate", "filter", "profile"):
            seed = int(np.random.SeedSequence().entropy) % (2 ** 63)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot make directory {out}: {exc.strerror}") from None
        prov = {"tool": f"genfilter {__version__}", "config_sha256": config["_sha256"],
                "seed": seed}
        result, message = args.func(config, seed, prov, out)
        if result is not None:
            _write_json(out / "result.json", _jsonable({**result, "provenance": prov}))
        print(f"{message} -> {out}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, IntegrationError, GenealogyError, NewickError,
            FilterError, ExactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
