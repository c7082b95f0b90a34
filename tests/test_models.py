"""Bundled model builders and the model registry."""

import math
import re

import numpy as np
import pytest

import genfilter as gf


def simplex(total):
    return [(s, i, total - s - i, 0)
            for s in range(total + 1) for i in range(total - s + 1)]


# ---------------------------------------------------------------------------
# Piecewise-constant rates


def test_piecewise_constant_is_right_continuous():
    pc = gf.PiecewiseConstant((1.0, 2.0), (0.5, 2.0, 0.25))
    assert pc(0.0) == 0.5
    assert pc(0.999) == 0.5
    assert pc(1.0) == 2.0
    assert pc(1.999) == 2.0
    assert pc(2.0) == 0.25
    assert pc(10.0) == 0.25


def test_piecewise_constant_validation():
    with pytest.raises(ValueError, match="one more value"):
        gf.PiecewiseConstant((1.0,), (0.5,))
    with pytest.raises(ValueError, match="increasing"):
        gf.PiecewiseConstant((2.0, 1.0), (0.5, 1.0, 2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        gf.PiecewiseConstant((1.0,), (0.5, -1.0))
    for times, values in (((math.nan,), (0.5, 1.0)), ((math.inf,), (0.5, 1.0)),
                          ((1.0,), (0.5, math.nan)), ((1.0,), (math.inf, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            gf.PiecewiseConstant(times, values)


def test_piecewise_constant_to_dict():
    pc = gf.PiecewiseConstant((1.0,), (0.5, 2.0))
    assert pc.to_dict() == {"times": [1.0], "values": [0.5, 2.0]}


# ---------------------------------------------------------------------------
# Channel tables


def test_lbdp_channels():
    spec = gf.lbdp_spec(gf.LBDPParams(1.2, 0.7, 0.4, 3))
    assert spec.name == "lbdp"
    assert [e.name for e in spec.events] == ["birth", "death", "sampling"]
    assert spec.displacements.tolist() == [[1, 0], [-1, 0], [0, 1]]
    assert [e.is_birth for e in spec.events] == [True, False, False]
    assert [e.is_death for e in spec.events] == [False, True, False]
    assert [e.is_sample for e in spec.events] == [False, False, True]
    x = np.array([7, 0])
    assert spec.rate(0, 0.0, x) == pytest.approx(1.2 * 7)
    assert spec.rate(1, 0.0, x) == pytest.approx(0.7 * 7)
    assert spec.rate(2, 0.0, x) == pytest.approx(0.4 * 7)
    assert spec.focal(x) == 7
    assert spec.active_dims == (0,)
    assert not spec.any_time_dependent


def test_sir_channels():
    spec = gf.sir_spec(gf.SIRParams(0.3, 0.8, 0.5, 5, 4, 2))
    x = np.array([5, 4, 2, 0])
    assert spec.rate(0, 0.0, x) == pytest.approx(0.3 * 5 * 4)
    assert spec.rate(1, 0.0, x) == pytest.approx(0.8 * 4)
    assert spec.rate(2, 0.0, x) == pytest.approx(0.5 * 4)
    assert spec.focal(x) == 4
    # infection and recovery shuffle individuals between compartments
    assert spec.displacements[:, :3].sum(axis=1).tolist() == [0, 0, 0]
    assert spec.active_dims == (0, 1, 2)


def test_sirs_waning_channel_is_unmarked():
    spec = gf.sirs_spec(gf.SIRSParams(0.3, 0.8, 0.5, 0.2, 5, 4, 2))
    ev = spec.events[3]
    assert ev.name == "waning"
    assert ev.displacement == (1, 0, -1, 0)
    assert not (ev.is_birth or ev.is_death or ev.is_sample)
    assert spec.rate(3, 0.0, np.array([5, 4, 2, 0])) == pytest.approx(0.2 * 2)


def test_s2ir_channels():
    spec = gf.s2ir_spec(gf.S2IRParams(0.4, 0.1, 0.8, 0.5, 3, 2, 1))
    x = np.array([3, 2, 5, 0])
    assert spec.rate(0, 0.0, x) == pytest.approx(0.4 * 3 * 5)
    assert spec.rate(1, 0.0, x) == pytest.approx(0.1 * 2 * 5)
    assert spec.rate(2, 0.0, x) == pytest.approx(0.8 * 5)
    assert spec.rate(3, 0.0, x) == pytest.approx(0.5 * 5)
    assert spec.focal(x) == 5
    assert [e.is_birth for e in spec.events] == [True, True, False, False]
    assert spec.active_dims == (0, 1, 2)


def test_negative_rates_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        gf.lbdp_spec(gf.LBDPParams(-1.0, 0.5, 0.2, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        gf.sir_spec(gf.SIRParams(0.3, -0.8, 0.5, 5, 4))
    with pytest.raises(ValueError, match="n0"):
        gf.lbdp_spec(gf.LBDPParams(1.0, 0.5, 0.2, -2))
    with pytest.raises(ValueError, match="i0"):
        gf.sir_spec(gf.SIRParams(0.3, 0.8, 0.5, 5, 2.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rates_rejected(bad):
    builders = [
        lambda r: gf.lbdp_spec(gf.LBDPParams(1.0, r, 0.2, 1)),
        lambda r: gf.sir_spec(gf.SIRParams(r, 0.8, 0.5, 5, 4)),
        lambda r: gf.sir_spec(gf.SIRParams(0.3, 0.8, r, 5, 4)),
        lambda r: gf.sirs_spec(gf.SIRSParams(0.3, 0.8, 0.5, r, 5, 4)),
        lambda r: gf.s2ir_spec(gf.S2IRParams(0.3, r, 0.7, 0.6, 3, 2, 2)),
        lambda r: gf.build_model("sir", {"transmission_rate": r, "recovery_rate": 1.0,
                                         "sampling_rate": 1.0, "s0": 5, "i0": 1}),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="finite"):
            build(bad)


@pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
def test_a_base_rate_outside_0_to_inf_is_rejected(mu):
    # NaN is not <= 0 either, so only a range check rejects it
    with pytest.raises(ValueError, match=f"mu must be positive and finite, got {mu}"):
        gf.lbdp_spec(gf.LBDPParams(1.0, 0.5, 0.5, 2), mu=mu)


# ---------------------------------------------------------------------------
# Marker consistency probed over state grids


def test_validate_model_passes_for_all_builders():
    cases = [
        (gf.lbdp_spec(gf.LBDPParams(1.2, 0.7, 0.4, 3)),
         [(n, 0) for n in range(6)]),
        (gf.sir_spec(gf.SIRParams(0.3, 0.8, 0.5, 5, 4)), simplex(5)),
        (gf.sirs_spec(gf.SIRSParams(0.3, 0.8, 0.5, 0.2, 5, 4)), simplex(5)),
        (gf.s2ir_spec(gf.S2IRParams(0.4, 0.1, 0.8, 0.5, 2, 2, 1)),
         gf.s2ir_truncation(gf.S2IRParams(0.4, 0.1, 0.8, 0.5, 2, 2, 1))),
    ]
    for spec, states in cases:
        report = gf.validate_model(spec, states)
        assert report.ok, report.violations
        assert report.probed == len(states)


def test_validate_model_flags_focal_size_mismatch():
    spec = gf.ModelSpec(
        name="broken",
        d=1,
        events=(gf.EventType("sampling", (1,), is_sample=True),),
        rates=(lambda t, x: 1.0,),
        init_sample=lambda rng, n: np.ones((n, 1), dtype=np.int64),
        init_pmf=lambda x: 1.0,
        focal_size=lambda x: x[..., 0],
    )
    report = gf.validate_model(spec, [(1,)])
    assert not report.ok
    assert "focal size changes by 1" in report.violations[0]


# ---------------------------------------------------------------------------
# Simulation-level invariants


def test_sirs_conserves_population():
    params = gf.SIRSParams(0.4, 0.6, 0.3, 0.5, 6, 3, 1)
    spec = gf.sirs_spec(params)
    rng = np.random.default_rng(31)
    for _ in range(50):
        traj = gf.simulate(spec, 2.0, rng)
        x = np.asarray(traj.x0, dtype=np.int64).copy()
        samples = 0
        for j in traj.jumps:
            x += spec.displacements[j.event]
            assert (x >= 0).all()
            assert x[:3].sum() == 10
            samples += spec.events[j.event].is_sample
        assert x[3] == samples


# ---------------------------------------------------------------------------
# Time-varying transmission plumbing


def test_time_dependent_sir_bound():
    beta = gf.PiecewiseConstant((1.0,), (0.4, 1.5))
    spec = gf.sir_spec(gf.SIRParams(beta, 0.8, 0.5, 5, 4))
    assert spec.any_time_dependent
    # a step function is constant between its breakpoints: no bound needed
    assert spec.rate_bounds == (None, None, None)
    assert not spec.varies_within_epochs
    assert spec.rate_breakpoints == (1.0,)
    x = np.array([5, 4, 0, 0])
    # within an epoch the rate at its start bounds a channel without a bound
    assert spec.rate_bound(0, 0.0, 1.0, x) == pytest.approx(0.4 * 20)
    assert spec.rate_bound(0, 1.0, 2.0, x) == pytest.approx(1.5 * 20)
    assert spec.rate_bound(1, 0.0, 2.0, x) == pytest.approx(0.8 * 4)
    assert spec.rate(0, 0.5, x) == pytest.approx(0.4 * 20)
    assert spec.rate(0, 1.5, x) == pytest.approx(1.5 * 20)


# ---------------------------------------------------------------------------
# Lumping: two susceptible classes with equal transmissibility


def test_s2ir_with_equal_rates_lumps_to_sir():
    sir_params = gf.SIRParams(0.35, 0.6, 0.7, 4, 2)
    spec = gf.sir_spec(sir_params)
    rng = np.random.default_rng(32)
    while True:
        traj = gf.simulate(spec, 1.5, rng)
        k = sum(1 for j in traj.jumps if spec.events[j.event].is_sample)
        if 2 <= k <= 5:
            break
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    want = gf.oracle_loglik(spec, v, gf.sir_truncation(sir_params))

    split = gf.S2IRParams(0.35, 0.35, 0.6, 0.7, 1, 3, 2)
    got = gf.oracle_loglik(gf.s2ir_spec(split), v, gf.s2ir_truncation(split))
    assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# Registry


def test_registry_contents():
    assert set(gf.MODELS) == {"lbdp", "sir", "sirs", "s2ir"}
    for name, (cls, builder) in gf.MODELS.items():
        assert builder.__name__ == f"{name}_spec"


def test_build_model_from_mapping():
    spec = gf.build_model("lbdp", {"birth_rate": 1.0, "death_rate": 0.5,
                                   "sampling_rate": 0.2, "n0": 2}, mu=2.0)
    assert spec.name == "lbdp"
    assert spec.mu == 2.0
    assert spec.params["n0"] == 2
    # a count written as a whole float is still taken
    spec = gf.build_model("sir", {**SIR_MAPPING, "s0": 20.0, "i0": 2.0})
    assert spec.params["s0"] == 20 and type(spec.params["i0"]) is int

    spec = gf.build_model("sir", {
        "transmission_rate": {"times": [1.0], "values": [0.9, 0.3]},
        "recovery_rate": 0.5, "sampling_rate": 0.6, "s0": 6, "i0": 2})
    assert spec.any_time_dependent
    assert spec.params["transmission_rate"] == {"times": [1.0], "values": [0.9, 0.3]}


SIR_MAPPING = {"transmission_rate": 0.05, "recovery_rate": 0.8, "sampling_rate": 0.5,
               "s0": 20, "i0": 2}


@pytest.mark.parametrize("key, bad, message", [
    ("transmission_rate", True, "rates must be numbers, got True"),
    ("transmission_rate", "0.05", "rates must be numbers, got '0.05'"),
    ("i0", True, "i0 must be a nonnegative integer, got True"),
    ("transmission_rate", {"times": "12", "values": [0.1, 0.2, 0.3]},
     "must be sequences of numbers, got '12'"),
], ids=["bool-rate", "string-rate", "bool-count", "string-breakpoints"])
def test_a_parameter_that_is_not_a_number_is_rejected(key, bad, message):
    # float() and int() would take each of these: True as 1, "0.05" as 0.05, "12" as (1, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        gf.build_model("sir", {**SIR_MAPPING, key: bad})


def test_build_model_errors():
    with pytest.raises(ValueError, match="unknown model"):
        gf.build_model("seir", {})
    with pytest.raises(ValueError, match=r"unknown parameters \['n', 'rate'\]"):
        gf.build_model("lbdp", {"birth_rate": 1.0, "death_rate": 0.5,
                                "sampling_rate": 0.2, "n0": 1,
                                "rate": 3, "n": 4})
    with pytest.raises(ValueError, match="lbdp"):
        gf.build_model("lbdp", {"birth_rate": 1.0})


# ---------------------------------------------------------------------------
# Truncation builders


def test_lbdp_truncation():
    assert gf.lbdp_truncation(gf.LBDPParams(1.0, 0.5, 0.2, 1), 5) == [
        (n, 0) for n in range(6)]


def test_sir_truncation_covers_simplex():
    params = gf.SIRParams(0.3, 0.8, 0.5, 2, 1, 1)
    states = gf.sir_truncation(params)
    assert len(states) == len(set(states)) == 15
    assert all(s + i + r == 4 and min(s, i, r) >= 0 for s, i, r, _ in states)
    assert (2, 1, 1, 0) in states
    assert gf.sirs_truncation is gf.sir_truncation


def test_s2ir_truncation_bounds():
    params = gf.S2IRParams(0.4, 0.1, 0.8, 0.5, 2, 1, 1)
    states = gf.s2ir_truncation(params)
    assert len(states) == len(set(states))
    assert (2, 1, 1, 0) in states
    for s1, s2, i, g in states:
        assert 0 <= s1 <= 2 and 0 <= s2 <= 1 and g == 0
        assert 0 <= i <= 1 + (2 - s1) + (1 - s2)
