"""Particle filter and truncated-grid oracle."""

import math
import re
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.sparse import coo_matrix, csc_matrix, diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import logsumexp

import genfilter as gf
from genfilter.filtering import RESAMPLING_METHODS, FilterConfig, FilterError
from stochastic import z_verdict


def lbdp(lam, delta, psi, n0, mu=1.0):
    return gf.lbdp_spec(gf.LBDPParams(lam, delta, psi, n0), mu=mu)


def sir(beta, gamma, psi, s0, i0, mu=1.0):
    return gf.sir_spec(gf.SIRParams(beta, gamma, psi, s0, i0), mu=mu)


def bounded_sampling(spec):
    """``spec`` with each sampling channel bounded by its own constant rate.

    The filter then thins the channel on the clock, where no candidate is
    rejected, and a sample kills the particle; the law is unchanged.
    """
    bounds = [(lambda t0, t1, x, f=f: float(f(t0, x))) if sampled else None
              for f, sampled in zip(spec.rates, spec.sample_mask)]
    return gf.ModelSpec(f"{spec.name}-bounded-sampling", spec.d, spec.events, spec.rates,
                        spec.init_sample, spec.init_pmf, spec.focal_dim, mu=spec.mu,
                        rate_bounds=bounds, rate_breakpoints=spec.rate_breakpoints,
                        bookkeeping_dims=spec.bookkeeping_dims)


def empty_visible(t_end):
    return gf.prune(replace(gf.new_genealogy(1), time=t_end))


def two_leaf_visible():
    # two roots, each sampled once; both individuals outlive the horizon
    g = gf.new_genealogy(2)
    g = gf.apply_sample(g, 0, 0.5)
    g = gf.apply_sample(g, 1, 0.6)
    return gf.prune(replace(g, time=1.0))


def direct_chain_visible():
    # one root sampled twice; second sample descends from the first
    g = gf.new_genealogy(1)
    g = gf.apply_sample(g, 0, 0.3)
    g = gf.apply_sample(g, 0, 0.7)
    return gf.prune(replace(g, time=1.0))


def coalescence_visible():
    # one root, a birth, then one sample on each branch
    g = gf.new_genealogy(1)
    g = gf.apply_birth(g, 0, 0.2)
    g = gf.apply_sample(g, 0, 0.4)
    g = gf.apply_sample(g, 1, 0.6)
    return gf.prune(replace(g, time=1.0))


def simulate_with_samples(spec, horizon, seed, lo, hi):
    rng = np.random.default_rng(seed)
    while True:
        traj = gf.simulate(spec, horizon, rng)
        k = sum(1 for j in traj.jumps if spec.events[j.event].is_sample)
        if lo <= k <= hi:
            return traj


# ---------------------------------------------------------------------------
# Configuration and schedule


@pytest.mark.parametrize("n_particles", [0, 200.0, True, "5"])
def test_filter_config_rejects_a_bad_n_particles(n_particles):
    with pytest.raises(ValueError, match="n_particles must be an integer of at least 1"):
        FilterConfig(n_particles)


def test_filter_config_validation():
    with pytest.raises(ValueError, match="n_particles"):
        FilterConfig(0)
    with pytest.raises(ValueError, match="ess_threshold"):
        FilterConfig(10, ess_threshold=1.5)
    with pytest.raises(ValueError, match="resampling"):
        FilterConfig(10, resampling="stratified")


def test_event_schedule_kinds():
    assert gf.event_schedule(empty_visible(2.0)) == ()
    assert gf.event_schedule(two_leaf_visible()) == ((0.5, "leaf"), (0.6, "leaf"))
    assert gf.event_schedule(direct_chain_visible()) == (
        (0.3, "direct"), (0.7, "leaf"))
    assert gf.event_schedule(coalescence_visible()) == (
        (0.2, "coalescence"), (0.4, "leaf"), (0.6, "leaf"))


def test_event_schedule_rejects_unpruned():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.5)
    with pytest.raises(gf.GenealogyError, match="prune"):
        gf.event_schedule(replace(g, time=1.0))


def visible_from(*nodes, time=1.0):
    """A genealogy from (name, time, ((color, ball name), ...)) triples."""
    return gf.Genealogy(time, tuple(gf.Node(name, t, frozenset(gf.Ball(c, b) for c, b in pocket))
                                    for name, t, pocket in nodes))


@pytest.mark.parametrize("nodes, message", [
    ([(0, 0.0, (("green", 0), ("blue", 0)))], "root must be green-green"),
    ([(0, 0.5, (("green", 0), ("green", 1))), (1, 0.7, (("red", 0), ("blue", 0)))],
     "root must be green-green"),
    ([(0, 0.0, (("green", 0), ("green", 1))), (1, 0.6, (("green", 2), ("green", 3))),
      (2, 0.8, (("red", 0), ("blue", 0))), (3, 0.7, (("red", 1), ("blue", 1)))],
     "comes after one at t=0.8"),
    # two leaves under one lineage: node 2 hangs from no node, which the
    # schedule's parent-link check names before the count goes below zero
    ([(0, 0.0, (("green", 0), ("green", 1))), (1, 0.5, (("red", 0), ("blue", 0))),
      (2, 0.6, (("red", 1), ("blue", 1)))], "node 2: its green ball exists nowhere")],
    ids=["root-not-green-green", "late-root", "out-of-order", "lineage-count-below-zero"])
def test_schedule_faults_are_named_errors_on_both_routes(nodes, message):
    # the routes take their lineage counts from the schedule, which must
    # therefore refuse every genealogy it could count wrongly
    spec = lbdp(1.0, 0.5, 0.6, 1)
    v = visible_from(*nodes)
    with pytest.raises(gf.GenealogyError, match=message):
        gf.smc_loglik(spec, v, FilterConfig(10, seed=1))
    with pytest.raises(gf.GenealogyError, match=message):
        gf.oracle_loglik(spec, v, [(n, 0) for n in range(8)])


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_an_init_sample_draw_that_is_not_whole_is_a_model_error(bad):
    # a draw of 2.5 was floored to 2, so simulate and the filter started from
    # a state the initial law never gives; whole floats still read as integers
    base = lbdp(1.0, 0.5, 0.2, 3)

    def spec_drawing(first):
        return gf.ModelSpec("float-start", base.d, base.events, base.rates,
                            lambda rng, n: np.tile([first, 0.0], (n, 1)), base.init_pmf,
                            base.focal_dim, bookkeeping_dims=(1,))
    assert gf.simulate(spec_drawing(3.0), 0.5, np.random.default_rng(1)).x0 == (3, 0)
    spec = spec_drawing(bad)
    message = re.escape(f"init_sample: state row 0 {[bad, 0.0]}: an entry is not a finite "
                        f"whole number")
    with pytest.raises(gf.SimulationError, match=message):
        gf.simulate(spec, 0.5, np.random.default_rng(1))
    with pytest.raises(gf.SimulationError, match=message):
        gf.smc_loglik(spec, two_leaf_visible(), gf.FilterConfig(20, seed=1))


def test_init_ensemble_projects_bookkeeping():
    rng = np.random.default_rng(0)
    ens = gf.init_ensemble(lbdp(1.0, 0.5, 0.2, 3), 50, rng)
    assert ens.states.shape == (50, 1)
    assert (ens.states == 3).all()
    assert (ens.log_weights == 0.0).all()

    ens = gf.init_ensemble(sir(0.1, 0.5, 0.2, 9, 2), 20, rng)
    assert ens.states.shape == (20, 3)
    assert (ens.states == np.array([9, 2, 0])).all()


def test_initial_law_is_drawn_in_one_batch():
    base = lbdp(1.0, 0.5, 0.2, 3)
    calls = []

    def init_sample(rng, n):
        calls.append(n)
        return np.column_stack([rng.poisson(4.0, n), np.zeros(n, dtype=np.int64)])
    spec = gf.ModelSpec("poisson-start", base.d, base.events, base.rates, init_sample,
                        base.init_pmf, base.focal_dim, bookkeeping_dims=(1,))
    ens = gf.init_ensemble(spec, 2000, np.random.default_rng(0))
    assert calls == [2000]
    assert ens.states.shape == (2000, 1)
    assert abs(ens.states.mean() - 4.0) < 4 * math.sqrt(4.0 / 2000)
    # simulate draws a batch of one and starts from its row
    traj = gf.simulate(spec, 0.5, np.random.default_rng(1))
    assert traj.x0 == (int(np.random.default_rng(1).poisson(4.0, 1)[0]), 0)

    flat = gf.ModelSpec("flat", base.d, base.events, base.rates,
                        lambda rng, n: np.zeros(2 * n, dtype=np.int64),
                        base.init_pmf, base.focal_dim, bookkeeping_dims=(1,))
    with pytest.raises(gf.SimulationError, match=r"shape \(20,\), expected \(10, 2\)"):
        gf.init_ensemble(flat, 10, np.random.default_rng(0))
    with pytest.raises(gf.SimulationError, match=r"shape \(2,\), expected \(1, 2\)"):
        gf.simulate(flat, 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Interval propagation


def test_propagate_survival_weight_exact():
    # no birth or death, so the only weight is the sampling survival factor
    spec = lbdp(0.0, 0.0, 0.7, 2)
    ens = gf.init_ensemble(spec, 64, np.random.default_rng(1))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.4,
                                np.random.default_rng(2))
    assert (out.states == 2).all()
    assert np.allclose(out.log_weights, -0.7 * 2 * 0.4, rtol=0, atol=1e-12)


def test_propagate_kills_what_a_bounded_sampling_channel_samples():
    # the lone channel samples at psi (1 + 0.5 sin 2 pi t) n, bounded by 1.5 psi n:
    # it is thinned on the clock, so a particle survives [0, 0.4] unweighted
    # with probability exp(-integral of the rate)
    psi, n0, horizon = 0.7, 2, 0.4
    base = lbdp(0.0, 0.0, psi, n0)
    rates = (*base.rates[:2],
             lambda t, x: psi * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * x[..., 0])
    bounds = (None, None, lambda t0, t1, x: 1.5 * psi * float(x[..., 0]))
    spec = gf.ModelSpec("lbdp-sin-sampling", base.d, base.events, rates, base.init_sample,
                        base.init_pmf, base.focal_dim, rate_bounds=bounds,
                        bookkeeping_dims=base.bookkeeping_dims)
    n = 4000
    ens = gf.init_ensemble(spec, n, np.random.default_rng(3))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, horizon,
                                np.random.default_rng(4))
    alive = np.isfinite(out.log_weights)
    assert (out.log_weights[alive] == 0.0).all() and (out.states == n0).all()
    p = math.exp(-psi * n0 * (horizon + 0.5 * (1.0 - math.cos(2 * math.pi * horizon))
                              / (2 * math.pi)))
    assert abs(alive.mean() - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_propagate_kills_deaths_below_lineage_count():
    # two tracked lineages, so any death of two individuals is incompatible
    spec = lbdp(0.0, 0.5, 0.0, 2)
    n = 4000
    ens = gf.init_ensemble(spec, n, np.random.default_rng(5))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.5,
                                np.random.default_rng(6))
    alive = np.isfinite(out.log_weights)
    assert (out.states[alive] == 2).all()
    assert (out.log_weights[alive] == 0.0).all()
    p = math.exp(-0.5 * 2 * 0.5)
    assert abs(alive.mean() - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_propagate_zeroes_particles_that_start_below_the_lineage_count():
    # one infected against two tracked lineages: every particle is dead on
    # entry, whether or not an unmarked waning jump fires in the stretch
    spec = gf.sirs_spec(gf.SIRSParams(0.0, 0.0, 0.0, 1.0, 3, 1, 4))
    ens = gf.init_ensemble(spec, 200, np.random.default_rng(9))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.4,
                                np.random.default_rng(10))
    assert (out.log_weights == -np.inf).all()
    assert (out.states == ens.states).all()


def test_propagate_reweights_hidden_births():
    # every simulated birth pays the chance it was not a tracked coalescence
    spec = lbdp(1.0, 0.0, 0.0, 2)
    ens = gf.init_ensemble(spec, 500, np.random.default_rng(7))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.3,
                                np.random.default_rng(8))
    for size, logw in zip(out.states[:, 0], out.log_weights):
        want = sum(math.log(1.0 - 1.0 / (m * (m - 1) / 2.0))
                   for m in range(3, int(size) + 1))
        assert logw == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_a_total_rate_of_negative_zero_fires_nothing(bounded):
    # rate_matrix and rate_bound accept -0.0; a clock whose total is -0.0 must
    # not jump at t = -inf, and a jump off n = 3 would meet a negative rate,
    # which raises; bounded, every channel is thinned on a clock of -0.0 bounds
    base = lbdp(0.0, 0.0, 0.0, 3)
    bounds = [lambda t0, t1, x: np.where(x[..., 0] == 3, -0.0, -1.0)] * base.n_events
    spec = gf.ModelSpec("negative-zero", base.d, base.events,
                        [lambda t, x: np.where(x[..., 0] == 3, -0.0, -1.0)] * base.n_events,
                        base.init_sample,
                        base.init_pmf, base.focal_dim, rate_bounds=bounds if bounded else None,
                        bookkeeping_dims=base.bookkeeping_dims)
    ens = gf.init_ensemble(spec, 50, np.random.default_rng(1))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.4,
                                np.random.default_rng(2))
    assert (out.states == ens.states).all() and (out.log_weights == 0.0).all()


@pytest.mark.parametrize("sampling", ["off-clock", "bounded"])
def test_propagate_epoch_touches_only_live_unfinished_particles(sampling):
    # a recovery at i = ell = 2 is fatal; a third of the particles start dead,
    # and the second block starts with few live ones, so it empties first
    spec = sir(0.3, 0.5, 0.3, 8, 3)
    if sampling == "bounded":
        spec = bounded_sampling(spec)
    rng = np.random.default_rng(1)
    n = 300
    states = np.column_stack([rng.integers(4, 9, 2 * n), rng.integers(2, 5, 2 * n),
                              np.zeros(2 * n, int)])
    logw = np.where(rng.random(2 * n) < 1 / 3, -np.inf, rng.normal(size=2 * n))
    logw[n + 10:] = -np.inf
    dead0, states0 = ~np.isfinite(logw), states.copy()
    rngs = [np.random.default_rng(2), np.random.default_rng(3)]
    rounds = []  # per round: rows the rates were read for, live mask, states, due blocks

    def generator_states():
        return [r.bit_generator.state["state"]["state"] for r in rngs]
    drawn = [generator_states()]  # generator states after each round's draws

    def due():
        """Particles that must read rates now; checks that the dead stayed put."""
        live = np.isfinite(logw)
        if not rounds:
            return live
        _, was_live, was, _ = rounds[-1]
        assert (states[~was_live] == was[~was_live]).all()
        assert (logw[~was_live] == -np.inf).all()
        # a particle reads rates again exactly when it jumped last round and is
        # still live; with sampling off the clock or fatal, a live jumper has moved
        return (states != was).any(axis=1) & live

    def rate_matrix(t, rows):
        mask = due()
        assert len(rows) == mask.sum()
        blocks = mask.reshape(2, n).any(axis=1)
        now = generator_states()
        # a block draws this round exactly when it has a particle due
        assert [a != b for a, b in zip(now, drawn[-1])] == blocks.tolist()
        drawn.append(now)
        rounds.append((len(rows), np.isfinite(logw), states.copy(), blocks))
        return gf.ModelSpec.rate_matrix(spec, t, rows)
    spec.rate_matrix = rate_matrix
    gf.filtering._propagate_epoch(spec, states, logw, 0.0, 1.0, 2, rngs)
    assert not due().any()
    assert generator_states() == drawn[-1]
    sizes = [r[0] for r in rounds]
    assert sizes[0] == 2 * n - dead0.sum() and len(sizes) > 3 and sizes[-1] < sizes[0] / 4
    assert 0 < np.isfinite(logw).sum() < sizes[0]
    assert (states[dead0] == states0[dead0]).all()
    # the second block runs out while the first still draws
    assert any(first and not second for first, second in (r[3] for r in rounds))


def test_propagate_interval_validates():
    spec = lbdp(1.0, 0.5, 0.2, 2)
    ens = gf.init_ensemble(spec, 4, np.random.default_rng(9))
    with pytest.raises(ValueError, match="t1"):
        gf.propagate_interval(spec, ens, two_leaf_visible(), 0.5, 0.1,
                              np.random.default_rng(9))


def unpruned():
    return replace(gf.apply_sample(gf.new_genealogy(2), 0, 0.5), time=1.0)


@pytest.mark.parametrize("call, v, args, message", [
    (gf.propagate_interval, unpruned, (0.0, 0.4), "extant individual; prune"),
    (gf.event_update, unpruned, (0.5, "leaf"), "extant individual; prune"),
    (gf.propagate_interval, two_leaf_visible, (0.0, 0.55), r"t=0.5 lies inside \(0.0, 0.55\)"),
    (gf.propagate_interval, two_leaf_visible, (0.4, 1.0), r"t=0.5 lies inside \(0.4, 1.0\)"),
    (gf.event_update, two_leaf_visible, (0.5 + 1e-3, "leaf"), "no leaf event at t=0.501"),
    (gf.event_update, two_leaf_visible, (0.5, "direct"), "no direct event at t=0.5")],
    ids=["propagate-unpruned", "event-unpruned", "event-inside", "events-inside",
         "off-schedule-time", "off-schedule-kind"])
def test_per_phase_calls_reject_what_the_schedule_does_not_give(call, v, args, message):
    # the per-phase calls read LineageFunction, so they refuse the genealogies
    # smc_loglik refuses, a stretch that crosses an event and an event the
    # schedule does not have
    spec = lbdp(1.0, 0.5, 0.2, 2)
    ens = gf.init_ensemble(spec, 8, np.random.default_rng(9))
    with pytest.raises(gf.GenealogyError, match=message):
        call(spec, ens, v(), *args, np.random.default_rng(9))


# ---------------------------------------------------------------------------
# Event updates


def test_event_update_coalescence_factor():
    # birth rate 1.5n against choose(n+1, 2) destination pairs
    spec = lbdp(1.5, 0.3, 0.6, 1)
    ens = gf.Ensemble(np.array([[2], [1], [0]], dtype=np.int64), np.zeros(3))
    out = gf.event_update(spec, ens, coalescence_visible(), 0.2, "coalescence",
                          np.random.default_rng(10))
    assert out.states[:2].tolist() == [[3], [2]]
    assert out.log_weights[0] == pytest.approx(0.0, abs=1e-15)
    assert out.log_weights[1] == pytest.approx(math.log(1.5), abs=1e-15)
    assert out.log_weights[2] == -math.inf
    assert out.states[2].tolist() == [0]


def test_event_update_direct_factor():
    # sampling rate psi*i against i equally likely carriers
    spec = sir(0.5, 0.4, 1.0, 5, 4)
    ens = gf.Ensemble(np.array([[5, 4, 0]], dtype=np.int64), np.zeros(1))
    out = gf.event_update(spec, ens, direct_chain_visible(), 0.3, "direct",
                          np.random.default_rng(11))
    assert out.states.tolist() == [[5, 4, 0]]
    assert out.log_weights[0] == pytest.approx(0.0, abs=1e-15)


def test_event_update_leaf_factor():
    # one lineage still open after the leaf: the sample must avoid it
    spec = sir(0.5, 0.4, 1.0, 5, 4)
    ens = gf.Ensemble(np.array([[5, 4, 0]], dtype=np.int64), np.zeros(1))
    out = gf.event_update(spec, ens, two_leaf_visible(), 0.5, "leaf",
                          np.random.default_rng(12))
    assert out.log_weights[0] == pytest.approx(math.log(4 * (1 - 1 / 4)), abs=1e-14)

    # no lineage open afterwards: only the rate-over-mu factor remains
    ens = gf.Ensemble(np.array([[5, 4, 0]], dtype=np.int64), np.zeros(1))
    out = gf.event_update(spec, ens, two_leaf_visible(), 0.6, "leaf",
                          np.random.default_rng(13))
    assert out.log_weights[0] == pytest.approx(math.log(4.0), abs=1e-14)


def test_event_update_keeps_dead_particles_dead():
    spec = lbdp(1.5, 0.3, 0.6, 1)
    ens = gf.Ensemble(np.array([[4], [4]], dtype=np.int64),
                      np.array([0.0, -np.inf]))
    out = gf.event_update(spec, ens, coalescence_visible(), 0.2, "coalescence",
                          np.random.default_rng(14))
    assert out.log_weights[1] == -math.inf
    assert out.states[1].tolist() == [4]


# ---------------------------------------------------------------------------
# Full filter runs


def test_smc_empty_schedule_is_certain():
    spec = lbdp(0.9, 0.4, 0.0, 1)
    res = gf.smc_loglik(spec, empty_visible(2.0), FilterConfig(200, seed=15))
    assert res.loglik == 0.0
    assert res.diagnostics.events == []
    assert not res.diagnostics.collapsed


def test_smc_pure_sampling_has_zero_variance():
    # with no birth or death every particle carries the exact likelihood
    psi, horizon = 0.8, 2.0
    spec = lbdp(0.0, 0.0, psi, 1)
    traj = simulate_with_samples(spec, horizon, 16, 2, 8)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    k = len([n for n in v.nodes if n.time > 0])
    want = k * math.log(psi) - psi * horizon
    for seed in (17, 18):
        res = gf.smc_loglik(spec, v, FilterConfig(32, seed=seed))
        assert res.loglik == pytest.approx(want, abs=1e-10)
        assert not res.diagnostics.collapsed


@pytest.mark.parametrize("sampling", ["off-clock", "bounded"])
def test_smc_seed_determinism(sampling):
    spec = lbdp(1.4, 0.5, 0.9, 1)
    if sampling == "bounded":
        spec = bounded_sampling(spec)
    traj = simulate_with_samples(spec, 2.0, 19, 2, 10)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    a = gf.smc_loglik(spec, v, FilterConfig(300, seed=7))
    b = gf.smc_loglik(spec, v, FilterConfig(300, seed=7))
    c = gf.smc_loglik(spec, v, FilterConfig(300, seed=8))
    assert math.isfinite(a.loglik) and a.loglik == b.loglik
    assert a.diagnostics.events == b.diagnostics.events
    assert a.loglik != c.loglik


@lru_cache(maxsize=1)
def lbdp_case():
    params = gf.LBDPParams(1.5, 0.8, 1.0, 1)
    spec = gf.lbdp_spec(params)
    traj = simulate_with_samples(spec, 2.5, 20, 3, 8)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    exact = gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, 120))
    return spec, v, exact


def assert_matches(rep, exact, alpha):
    """No replicate collapsed, and the estimates pass `z_verdict` against ``exact``."""
    assert rep.collapse_count == 0
    verdict = z_verdict([(rep.estimates, exact)], alpha)
    assert verdict.ok, verdict


# Each check's false-alarm rate is at most that of a bound of k standard errors
# on its n replicates, P(|t| > k) on n - 1 degrees of freedom; for the three
# below, 0.005 <= P(|t_15| > 3) = 0.009.
def test_smc_matches_oracle():
    spec, v, exact = lbdp_case()
    assert_matches(gf.replicate_loglik(spec, v, FilterConfig(2000, seed=21), 16), exact, 0.005)


def test_smc_bounded_sampling_matches_oracle():
    # the same law with sampling on the clock: samples kill instead of weighting
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(bounded_sampling(spec), v, FilterConfig(4000, seed=22), 16)
    assert_matches(rep, exact, 0.005)


def test_smc_multinomial_resampling_matches_oracle():
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(spec, v, FilterConfig(2000, seed=23, resampling="multinomial"), 16)
    assert_matches(rep, exact, 0.005)


def test_smc_likelihood_estimates_are_unbiased():
    # the unnormalized filter estimates the likelihood itself without bias,
    # so the mean of exp(loglik) over many replicates brackets the oracle
    # (rate 0.002 <= P(|t_239| > 3) = 0.003)
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(spec, v, FilterConfig(300, seed=29), 240)
    assert rep.collapse_count == 0
    verdict = z_verdict([(np.exp(rep.estimates), math.exp(exact))], 0.002, log_of_unbiased=False)
    assert verdict.ok, verdict


def test_smc_impossible_genealogy_collapses():
    # no birth channel mass, so a coalescence cannot be explained
    spec = lbdp(0.0, 0.3, 0.6, 1)
    v = coalescence_visible()
    res = gf.smc_loglik(spec, v, FilterConfig(100, seed=24))
    assert res.loglik == -math.inf
    assert res.diagnostics.collapsed
    assert res.diagnostics.collapse_time == 0.2
    assert gf.oracle_loglik(spec, v, [(n, 0) for n in range(4)]) == -math.inf


def test_replicate_loglik_records_collapses():
    spec = lbdp(0.0, 0.3, 0.6, 1)
    rep = gf.replicate_loglik(spec, coalescence_visible(),
                              FilterConfig(50, seed=25), 5)
    assert rep.mean == -math.inf
    assert rep.collapse_count == 5
    assert math.isnan(rep.se)
    assert rep.estimates == (-math.inf,) * 5


@pytest.mark.parametrize("n_reps", [0, -1, 2.0, True])
def test_replicate_loglik_rejects_a_bad_n_reps(n_reps):
    spec, v, _ = lbdp_case()
    with pytest.raises(ValueError, match="n_reps must be an integer of at least 1"):
        gf.replicate_loglik(spec, v, FilterConfig(10, seed=1), n_reps)


def assert_runs_are_sequential_runs(spec, v, config, n_reps):
    """Each run of one batched ensemble, and each replicate, equals its own run alone."""
    seeds = np.random.SeedSequence(config.seed).spawn(n_reps)
    alone = [gf.smc_loglik(spec, v, config, rng=np.random.default_rng(s)) for s in seeds]
    batched = gf.filtering._run_filters(spec, v, config,
                                        [np.random.default_rng(s) for s in seeds])
    assert [r.loglik for r in batched] == [r.loglik for r in alone]
    assert [r.diagnostics for r in batched] == [r.diagnostics for r in alone]
    rep = gf.replicate_loglik(spec, v, config, n_reps)
    assert rep.estimates == tuple(r.loglik for r in alone)
    assert rep.diagnostics == alone[0].diagnostics
    return rep


def bit_identity_case(name):
    if name == "constant":
        spec, v, _ = lbdp_case()
        return spec, v
    if name == "piecewise":
        return piecewise_sir((0.4, 1.1), (0.9, 0.3, 0.6))[1], piecewise_visible()
    if name == "bounded-infection":
        return sinusoidal_sir(0.5), piecewise_visible()
    if name == "two-birth-channels":  # a coalescence draws which channel fired
        return gf.s2ir_spec(gf.S2IRParams(0.5, 0.4, 0.5, 0.6, 3, 3, 2)), piecewise_visible()
    return sinusoidal_sir(0.5, "sampling"), coalescence_visible()


BIT_IDENTITY_CASES = ["constant", "piecewise", "bounded-infection", "bounded-sampling",
                      "two-birth-channels"]


# at the default threshold replicates resample at different events; at 1.0
# every replicate resamples at every event
@pytest.mark.parametrize("case", BIT_IDENTITY_CASES)
@pytest.mark.parametrize("resampling", RESAMPLING_METHODS)
@pytest.mark.parametrize("ess_threshold", [0.5, 1.0])
def test_replicates_are_bit_identical_to_sequential_runs(ess_threshold, resampling, case):
    spec, v = bit_identity_case(case)
    config = FilterConfig(60, seed=43, ess_threshold=ess_threshold, resampling=resampling)
    rep = assert_runs_are_sequential_runs(spec, v, config, 3)
    assert rep.collapse_count < 3


@pytest.mark.parametrize("case", ["constant", "bounded-infection", "bounded-sampling",
                                  "two-birth-channels"])
def test_collapsed_replicates_drop_out_of_the_ensemble(case):
    # two particles: the first seed from 3 on at which some of six replicates
    # collapse and the rest go on; in every case at least 29 of seeds 3..42
    # do, so at that rate all 20 miss about once in 1e11
    spec, v = bit_identity_case(case)
    config = next((c for c in (FilterConfig(2, seed=seed) for seed in range(3, 23))
                   if 0 < gf.replicate_loglik(spec, v, c, 6).collapse_count < 6), None)
    assert config is not None, "no seed in 3..22 gives some collapsed replicates and some not"
    rep = assert_runs_are_sequential_runs(spec, v, config, 6)
    assert 0 < rep.collapse_count < 6


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), n_reps=st.integers(1, 4),
       case=st.sampled_from(BIT_IDENTITY_CASES))
def test_replicates_match_sequential_runs_for_any_seed(seed, n, n_reps, case):
    spec, v = bit_identity_case(case)
    assert_runs_are_sequential_runs(spec, v, FilterConfig(n, seed=seed), n_reps)


def test_smc_resamples_on_threshold():
    spec, v, _ = lbdp_case()
    res = gf.smc_loglik(spec, v, FilterConfig(200, seed=26, ess_threshold=1.0))
    n_events = len(gf.event_schedule(v))
    assert len(res.diagnostics.events) == n_events
    assert res.diagnostics.resample_count == n_events
    assert all(row.resampled for row in res.diagnostics.events)
    assert all(0 < row.ess <= 200 for row in res.diagnostics.events)

    lazy = gf.smc_loglik(spec, v, FilterConfig(200, seed=26, ess_threshold=0.0))
    assert lazy.diagnostics.resample_count == 0


def test_diagnostics_csv(tmp_path):
    spec, v, _ = lbdp_case()
    res = gf.smc_loglik(spec, v, FilterConfig(100, seed=27))
    path = res.diagnostics.to_csv(tmp_path / "diag.csv", {"seed": 27})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed: 27"
    assert lines[1] == "time,kind,log_mean_weight,ess,resampled"
    assert len(lines) == 2 + len(res.diagnostics.events)
    time, kind, lmw, ess, resampled = lines[2].split(",")
    assert kind in {"coalescence", "direct", "leaf"}
    assert math.isfinite(float(lmw))
    assert float(time) == res.diagnostics.events[0].time
    assert resampled in {"0", "1"}


# ---------------------------------------------------------------------------
# Grid oracle


def test_oracle_no_samples_conserves_mass():
    spec = lbdp(0.8, 0.3, 0.0, 2)
    ll, grid = gf.oracle_loglik(spec, empty_visible(1.2),
                                gf.lbdp_truncation(gf.LBDPParams(0.8, 0.3, 0.0, 2), 150),
                                return_grid=True)
    assert abs(ll) < 1e-6
    assert grid.time == 1.2
    assert grid.weights.sum() == pytest.approx(math.exp(ll), rel=1e-12)
    assert gf.boundary_flux(spec, grid, t=1.2) < 1e-8


def test_oracle_pure_sampling_anchor():
    psi = 0.8
    spec = lbdp(0.0, 0.0, psi, 1)
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.6)
    v = gf.prune(replace(g, time=1.5))
    ll = gf.oracle_loglik(spec, v, [(1, 0)])
    assert ll == pytest.approx(math.log(psi) - psi * 1.5, abs=1e-7)

    ll2 = gf.oracle_loglik(spec, direct_chain_visible(), [(1, 0)])
    assert ll2 == pytest.approx(2 * math.log(psi) - psi * 1.0, abs=1e-7)


def test_oracle_rejects_infeasible_initial_condition():
    # two lineages at time zero need at least two individuals
    spec = lbdp(0.0, 0.0, 0.5, 1)
    assert gf.oracle_loglik(spec, two_leaf_visible(), [(1, 0)]) == -math.inf


@lru_cache(maxsize=None)
def sir100_visible(horizon):
    """First draw of population-100 SIR from seed 101: 26 samples by T=2, 70 by T=3."""
    params = gf.SIRParams(0.04, 1.0, 1.0, 97, 3)
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, horizon, np.random.default_rng(101))
    return params, spec, gf.prune(gf.build_genealogy(spec, traj)[0])


def test_oracle_keeps_its_scale_on_a_long_genealogy():
    # 107 events take the likelihood to about e^-54, far below the integrator's
    # absolute tolerance, so the grid weights must be renormalised as they go
    params, spec, v = sir100_visible(3.0)
    ll = gf.oracle_loglik(spec, v, gf.sir_truncation(params))
    # RK45 per epoch at tol 1e-11 gave -54.12752829, and scipy's expm_multiply
    # per event-free interval agrees with that to 1e-9
    assert ll == pytest.approx(-54.127528294, abs=1e-9)
    # rate 0.005 <= P(|t_7| > 4) = 0.0052
    assert_matches(gf.replicate_loglik(spec, v, FilterConfig(2000, seed=3), 8), ll, 0.005)


def test_oracle_converges_in_tol_on_a_medium_genealogy():
    params, spec, v = sir100_visible(2.0)
    truncation = gf.sir_truncation(params)
    coarse = gf.oracle_loglik(spec, v, truncation, tol=1e-8)
    fine = gf.oracle_loglik(spec, v, truncation, tol=1e-11)
    assert abs(coarse - fine) < 1e-6


@pytest.mark.parametrize("leak,raises", [(1e-6, True), (1e-10, False)])
def test_oracle_rejects_negative_mass_beyond_tolerance(monkeypatch, leak, raises):
    spec = lbdp(0.5, 0.3, 0.6, 2)
    truncation = gf.lbdp_truncation(gf.LBDPParams(0.5, 0.3, 0.6, 2), 30)
    integrate = gf.filtering._integrate_epochs

    def leaky(*args):
        out = integrate(*args)
        out[0] -= leak
        return out
    monkeypatch.setattr(gf.filtering, "_integrate_epochs", leaky)
    if raises:
        with pytest.raises(gf.IntegrationError, match=r"on \[0.0, 0.5\] is negative"):
            gf.oracle_loglik(spec, two_leaf_visible(), truncation)
    else:
        assert math.isfinite(gf.oracle_loglik(spec, two_leaf_visible(), truncation))


def hand_grid(states, weights, t=0.0):
    """A `WeightGrid` built by hand from state rows and their weights, in any order."""
    states = np.asarray(states, dtype=np.int64)
    lattice = gf.StateLattice(states, states.shape[1])
    w = np.zeros(lattice.size)
    w[lattice.rows(states)] = weights
    return gf.WeightGrid(lattice, w, t)


def test_boundary_flux_of_a_hand_built_grid():
    spec = lbdp(0.8, 0.3, 0.5, 1)
    # sampling only moves the bookkeeping coordinate, so it never leaves
    assert gf.boundary_flux(spec, hand_grid([(1,)], [1.0])) == pytest.approx(1.1)
    # death from 2 lands on 1, inside the set; birth from 1 lands on 2
    flux = gf.boundary_flux(spec, hand_grid([(1,), (2,)], [0.5, 0.5]))
    assert flux == pytest.approx(0.5 * 0.3 + 0.5 * 1.6)


@pytest.mark.parametrize("beta, want", [(0.04, 2.6168559104199276),
                                        ("piecewise", 1.3274653344538954)])
def test_boundary_flux_is_one_value_on_every_path(beta, want):
    # infections leave the s >= 85 band of the SIR-100 simplex; the oracle's
    # grid and a grid built by hand from its states and weights, in either
    # order, give one float (RK45 at tol 1e-12 gives 2.616855910419997 and
    # 1.32746533445387); without t the rates are read at the grid's time,
    # not at 0, where the piecewise beta is twice as large
    params, _, v = sir100_visible(1.0)
    if beta == "piecewise":
        beta = gf.PiecewiseConstant((0.5,), (0.04, 0.02))
    spec = gf.sir_spec(replace(params, transmission_rate=beta))
    band = [x for x in gf.sir_truncation(params) if x[0] >= 85]
    _, grid = gf.oracle_loglik(spec, v, band, return_grid=True)
    assert [f.name for f in fields(gf.WeightGrid)] == ["lattice", "weights", "time", "log_scale"]
    assert grid.states is grid.lattice.states and grid.time == v.time
    by_hand = hand_grid(grid.states, grid.weights, grid.time)
    reversed_grid = hand_grid(grid.states[::-1], grid.weights[::-1], grid.time)
    flux = [gf.boundary_flux(spec, w, t=v.time) for w in (grid, by_hand, reversed_grid)]
    assert flux + [gf.boundary_flux(spec, grid)] == [want] * 4


@pytest.mark.parametrize("shape", ["narrow", "wide", "ragged", "narrow-array", "wide-array"])
def test_oracle_names_the_width_of_a_malformed_truncation(shape):
    # SIR states are 4 wide; a 3-wide and a 5-wide row hold 8 entries between
    # them, so reading the rows flat without a width check would re-pair them
    params = gf.SIRParams(0.9, 0.5, 0.6, 6, 2)
    spec = gf.sir_spec(params)
    rows = gf.sir_truncation(params)
    bad = {"narrow": [x[:3] for x in rows], "wide": [x + (0,) for x in rows],
           "ragged": rows[:-2] + [rows[-2][:3], rows[-1] + (0,)]}
    bad["narrow-array"], bad["wide-array"] = np.array(bad["narrow"]), np.array(bad["wide"])
    with pytest.raises(ValueError, match=f"states are not all of length {spec.d}"):
        gf.oracle_loglik(spec, coalescence_visible(), bad[shape])


@pytest.mark.parametrize("array", [False, True], ids=["rows", "array"])
@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
def test_oracle_names_a_truncation_row_that_is_not_whole(bad, array):
    # a row (7.5, 0) was read as (7, 0), and the oracle gave a value for a
    # state the model never gives; whole floats still read as their integers
    params = gf.LBDPParams(1.0, 0.5, 0.8, 2)
    spec, v = gf.lbdp_spec(params), two_leaf_visible()
    rows = [(float(n), 0.0) for n in range(41)]
    assert gf.oracle_loglik(spec, v, rows) == gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, 40))
    rows[7] = (7 + bad, 0.0)
    with pytest.raises(ValueError, match=re.escape(f"state row 7 {[7 + bad, 0.0]}: an entry is "
                                                   f"not a finite whole number")):
        gf.oracle_loglik(spec, v, np.array(rows) if array else rows)


def test_oracle_reads_a_state_listed_twice_once():
    # listing the start state (2, 0) twice added its initial mass twice, which
    # put the value exactly log 2 too high
    params = gf.LBDPParams(1.0, 0.5, 0.8, 2)
    spec = gf.lbdp_spec(params)
    v = gf.prune(gf.build_genealogy(spec, gf.simulate(spec, 1.0, np.random.default_rng(3)))[0])
    rows = gf.lbdp_truncation(params, 40)
    want = gf.oracle_loglik(spec, v, rows)
    assert want == pytest.approx(-1.4088590597728734, abs=1e-9)
    for listed in (rows + [(2, 0)], np.array([(2, 0)] + rows), rows + rows):
        assert gf.oracle_loglik(spec, v, listed) == want


def test_oracle_takes_an_array_truncation_as_it_is():
    params = gf.SIRParams(0.9, 0.5, 0.6, 6, 2)
    spec, v = gf.sir_spec(params), coalescence_visible()
    rows = gf.sir_truncation(params)
    assert gf.oracle_loglik(spec, v, np.array(rows)) == gf.oracle_loglik(spec, v, rows)
    for empty in ([], np.empty((0, spec.d), dtype=np.int64)):
        with pytest.raises(ValueError, match="empty truncation"):
            gf.oracle_loglik(spec, v, empty)


def test_tied_event_times_are_rejected():
    # two leaves at t=0.7 would both be weighted with the count left after both
    spec = sir(0.5, 1.0, 1.0, 6, 3)
    truncation = gf.sir_truncation(gf.SIRParams(0.5, 1.0, 1.0, 6, 3))
    tied = gf.from_newick("((r1:0.5,r2:0.5):0.2);")
    assert gf.validate_genealogy(tied) == []
    with pytest.raises(gf.GenealogyError, match="share time 0.7"):
        gf.smc_loglik(spec, tied, FilterConfig(50, seed=1))
    with pytest.raises(gf.GenealogyError, match="share time 0.7"):
        gf.oracle_loglik(spec, tied, truncation)
    apart = gf.from_newick("((r1:0.5,r2:0.5000001):0.2);")
    assert math.isfinite(gf.oracle_loglik(spec, apart, truncation))


def test_a_node_after_the_observation_time_is_rejected_by_every_route():
    # a sample at 0.6 in a genealogy observed up to 0.3: no route may weigh it
    spec = lbdp(1.0, 0.5, 0.8, 1)
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.6)
    v = replace(gf.prune(replace(g, time=1.5)), time=0.3)
    match = "node 1: time 0.6 exceeds genealogy time 0.3"
    assert gf.validate_genealogy(v) == [match]
    with pytest.raises(gf.GenealogyError, match=match):
        gf.event_schedule(v)
    with pytest.raises(gf.GenealogyError, match=match):
        gf.smc_loglik(spec, v, FilterConfig(50, seed=1))
    with pytest.raises(gf.GenealogyError, match=match):
        gf.oracle_loglik(spec, v, gf.lbdp_truncation(gf.LBDPParams(1.0, 0.5, 0.8, 1), 20))
    with pytest.raises(gf.GenealogyError, match=match):
        gf.loglik_events(spec, gf.History(1.5, (1, 0), ((0.6, 2),)), v)
    ens = gf.init_ensemble(spec, 10, np.random.default_rng(2))
    with pytest.raises(gf.GenealogyError, match=match):
        gf.propagate_interval(spec, ens, v, 0.0, 0.3, np.random.default_rng(3))
    with pytest.raises(gf.GenealogyError, match=match):
        gf.event_update(spec, ens, v, 0.6, "leaf", np.random.default_rng(3))
    # observed at 1.5, the same genealogy is valid on every route
    assert math.isfinite(gf.oracle_loglik(spec, replace(v, time=1.5),
                                          gf.lbdp_truncation(gf.LBDPParams(1.0, 0.5, 0.8, 1), 20)))
    # a sample at NaN fails validate_genealogy, and no route may weigh it either
    at_nan = replace(v, time=1.5, nodes=(v.nodes[0], v.nodes[1]._replace(time=math.nan)))
    assert gf.validate_genealogy(at_nan) == ["node 1: time is NaN"]
    with pytest.raises(gf.GenealogyError, match="node 1: time is NaN"):
        gf.smc_loglik(spec, at_nan, FilterConfig(50, seed=1))


@pytest.mark.parametrize("time, empty", [(-1.0, True), (math.inf, False), (math.inf, True),
                                         (-math.inf, True)])
def test_a_genealogy_observed_at_an_infinite_or_negative_time_is_rejected_by_every_route(
        time, empty):
    # before, Genealogy(-1.0, ()) weighed 0.0 on every route and an infinite
    # time overflowed the grid
    params = gf.LBDPParams(1.0, 0.5, 0.8, 1)
    spec = gf.lbdp_spec(params)
    v = empty_visible(1.5) if empty else gf.prune(replace(
        gf.apply_sample(gf.new_genealogy(1), 0, 0.6), time=1.5))
    bad = replace(v, time=time, nodes=() if time < 0 else v.nodes)
    match = f"genealogy time {time} is infinite or below 0"
    assert gf.validate_genealogy(bad) == [match]
    ens = gf.init_ensemble(spec, 10, np.random.default_rng(2))
    routes = (gf.event_schedule, gf.LineageFunction, gf.to_newick, gf.embedded_chain, gf.prune,
              lambda g: gf.smc_loglik(spec, g, FilterConfig(50, seed=1)),
              lambda g: gf.oracle_loglik(spec, g, gf.lbdp_truncation(params, 20)),
              lambda g: gf.loglik_events(spec, gf.History(1.5, (1, 0), ()), g),
              lambda g: gf.propagate_interval(spec, ens, g, 0.0, 0.3, np.random.default_rng(3)))
    for route in routes:
        with pytest.raises(gf.GenealogyError, match=match):
            route(bad)
    assert math.isfinite(gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, 20)))


@pytest.mark.parametrize("n_max", [3, 4])
def test_oracle_rejects_a_truncation_without_initial_mass(n_max):
    # lbdp starts at n = 5: states up to n_max < 5 carry none of its mass
    params = gf.LBDPParams(1.0, 0.5, 0.8, 5)
    spec, v = gf.lbdp_spec(params), two_leaf_visible()
    with pytest.raises(FilterError, match="none of the initial distribution's mass"):
        gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, n_max))
    assert math.isfinite(gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, 30)))


def test_negative_rate_is_a_model_error():
    # the death rate 0.5 n - 0.75 turns negative once a death takes n from 2 to 1
    base = lbdp(0.0, 1.0, 0.5, 2)
    spec = gf.ModelSpec("leaky", 2, base.events,
                        (base.rates[0], lambda t, x: 0.5 * x[..., 0] - 0.75, base.rates[2]),
                        base.init_sample, base.init_pmf, base.focal_dim,
                        bookkeeping_dims=(1,))
    with pytest.raises(gf.SimulationError, match="'death' has rate -0.25"):
        gf.simulate(spec, 100.0, np.random.default_rng(3))
    with pytest.raises(gf.SimulationError, match="'death' has rate -0.25"):
        gf.smc_loglik(spec, empty_visible(20.0), FilterConfig(50, seed=4))
    with pytest.raises(gf.SimulationError, match="'death' has rate -0.25"):
        gf.oracle_loglik(spec, empty_visible(1.0), [(1, 0), (2, 0)])


# ---------------------------------------------------------------------------
# Time-varying rates


def test_smc_time_dependent_sir_matches_oracle():
    beta = gf.PiecewiseConstant((1.0,), (0.9, 0.3))
    params = gf.SIRParams(beta, 0.5, 0.6, 6, 2)
    spec = gf.sir_spec(params)
    traj = simulate_with_samples(spec, 2.0, 28, 2, 6)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    exact = gf.oracle_loglik(spec, v, gf.sir_truncation(params))
    # rate 0.01 <= P(|t_11| > 3) = 0.012
    assert_matches(gf.replicate_loglik(spec, v, FilterConfig(1500, seed=29), 12), exact, 0.01)


# ---------------------------------------------------------------------------
# Piecewise-constant rates: one constant-rate epoch at a time


def piecewise_sir(times, values):
    params = gf.SIRParams(gf.PiecewiseConstant(times, values), 0.5, 0.6, 6, 2)
    return params, gf.sir_spec(params)


def declared_continuous(spec):
    """The same rates declared as varying continuously: a bound on infection, no breakpoints."""
    beta_max = max(spec.params["transmission_rate"]["values"])
    bound = lambda t0, t1, x: beta_max * float(x[..., 0] * x[..., 1])
    return gf.ModelSpec(spec.name, spec.d, spec.events, spec.rates, spec.init_sample,
                        spec.init_pmf, spec.focal_dim, mu=spec.mu,
                        rate_bounds=(bound, None, None),
                        bookkeeping_dims=spec.bookkeeping_dims)


@lru_cache(maxsize=None)
def piecewise_visible():
    spec = sir(0.9, 0.5, 0.6, 6, 2)
    traj = simulate_with_samples(spec, 2.0, 28, 2, 6)
    return gf.prune(gf.build_genealogy(spec, traj)[0])


def awkward_breakpoints(v):
    """Breakpoints at the first event time, at the horizon and past it, and
    two inside the longest event-free stretch, which is returned as well."""
    times = [e for e, _ in gf.event_schedule(v)]
    a, b = max(zip([0.0, *times], [*times, v.time]), key=lambda ab: ab[1] - ab[0])
    inside = (a + (b - a) / 3, a + 2 * (b - a) / 3)
    return tuple(sorted({times[0], *inside, v.time, v.time + 1.0})), [a, *inside, b]


def spy_on_steps(monkeypatch):
    """Record the intervals `_propagate_epoch` and the oracle's steps run; forbid thinning.

    Every oracle step goes to ``steps["oracle"]``; one taken by `integrate_linear`
    (RK45) also goes to ``steps["rk45"]``.  A `_uniformized` step starts where
    its generator was built.
    """
    steps = {"filter": [], "oracle": [], "rk45": []}
    epoch, linear = gf.filtering._propagate_epoch, gf.population.integrate_linear
    generator, exact = gf.filtering._interval_generator, gf.population._uniformized
    built = []

    def propagate_epoch(spec, states, logw, t0, t1, *rest):
        steps["filter"].append((t0, t1))
        return epoch(spec, states, logw, t0, t1, *rest)

    def integrate_linear(rhs, w, t0, t1, tol):
        steps["oracle"].append((t0, t1))
        steps["rk45"].append((t0, t1))
        return linear(rhs, w, t0, t1, tol)

    def interval_generator(spec, lattice, t, *rest):
        built.append(t)
        return generator(spec, lattice, t, *rest)

    def uniformized(A, w, dt, tol):
        steps["oracle"].append((built[-1], built[-1] + dt))
        return exact(A, w, dt, tol)

    def thinning(*args):
        raise AssertionError("piecewise-constant rates entered the thinning path")
    monkeypatch.setattr(gf.filtering, "_propagate_epoch", propagate_epoch)
    monkeypatch.setattr(gf.population, "integrate_linear", integrate_linear)
    monkeypatch.setattr(gf.filtering, "_interval_generator", interval_generator)
    monkeypatch.setattr(gf.population, "_uniformized", uniformized)
    monkeypatch.setattr(gf.ModelSpec, "rate_bound", thinning)
    return steps


def test_piecewise_epochs_tile_the_schedule(monkeypatch):
    v = piecewise_visible()
    breaks, stretch = awkward_breakpoints(v)
    params, spec = piecewise_sir(breaks, tuple(0.3 + 0.2 * i for i in range(len(breaks) + 1)))
    steps = spy_on_steps(monkeypatch)
    times = [e for e, _ in gf.event_schedule(v)]
    assert times[0] in spec.rate_breakpoints
    cuts = sorted({0.0, *times, v.time, *(p for p in breaks if p < v.time)})
    want = list(zip(cuts[:-1], cuts[1:]))

    res = gf.smc_loglik(spec, v, FilterConfig(200, seed=3))
    assert math.isfinite(res.loglik)
    assert steps["filter"] == want
    assert math.isfinite(gf.oracle_loglik(spec, v, gf.sir_truncation(params)))
    assert steps["oracle"] == want
    assert steps["rk45"] == []

    steps["filter"].clear()
    ens = gf.init_ensemble(spec, 50, np.random.default_rng(5))
    gf.propagate_interval(spec, ens, v, stretch[0], stretch[-1], np.random.default_rng(6))
    assert steps["filter"] == list(zip(stretch[:-1], stretch[1:]))


def test_piecewise_oracle_matches_continuous_declaration():
    v = piecewise_visible()
    first = gf.event_schedule(v)[0][0]
    params, spec = piecewise_sir((0.4, first), (0.9, 0.3, 0.6))
    truncation = gf.sir_truncation(params)
    continuous = declared_continuous(spec)
    assert continuous.varies_within_epochs and not spec.varies_within_epochs
    by_epoch = gf.oracle_loglik(spec, v, truncation, tol=1e-11)
    rebuilt = gf.oracle_loglik(continuous, v, truncation, tol=1e-11)
    assert abs(by_epoch - rebuilt) < 1e-7


def test_oracle_takes_rk45_only_where_a_channel_has_a_bound(monkeypatch):
    v = piecewise_visible()
    params, spec = piecewise_sir((0.4, 1.1), (0.9, 0.3, 0.6))
    truncation = gf.sir_truncation(params)
    steps = spy_on_steps(monkeypatch)
    gf.oracle_loglik(spec, v, truncation)
    assert steps["oracle"] and steps["rk45"] == []
    steps["oracle"].clear()
    gf.oracle_loglik(declared_continuous(spec), v, truncation)
    assert steps["oracle"] and steps["rk45"] == steps["oracle"]


def test_piecewise_smc_is_deterministic_for_a_seed():
    v = piecewise_visible()
    for spec in (piecewise_sir((0.4, 1.1), (0.9, 0.3, 0.6))[1], sinusoidal_sir(0.5)):
        a = gf.smc_loglik(spec, v, FilterConfig(300, seed=12))
        b = gf.smc_loglik(spec, v, FilterConfig(300, seed=12))
        assert a.loglik == b.loglik
        assert a.diagnostics.ess_trace == b.diagnostics.ess_trace


def test_smc_two_breakpoint_sirs_matches_oracle():
    beta = gf.PiecewiseConstant((0.5, 1.2), (0.9, 0.25, 0.6))
    params = gf.SIRSParams(beta, 0.5, 0.6, 0.8, 6, 2)
    spec = gf.sirs_spec(params)
    traj = simulate_with_samples(spec, 2.0, 31, 2, 6)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    exact = gf.oracle_loglik(spec, v, gf.sirs_truncation(params))
    rep = gf.replicate_loglik(spec, v, FilterConfig(1500, seed=37), 12)
    assert_matches(rep, exact, 0.01)  # <= P(|t_11| > 3) = 0.012


# ---------------------------------------------------------------------------
# Continuously varying rates: a channel with a bound is thinned


def sinusoidal_sir(breakpoint=None, channel="infection"):
    """SIR(beta 0.9, gamma 0.5, psi 0.6) whose infection or sampling rate is
    multiplied by 1 + 0.5 sin 2 pi t and bounded by 1.5 times the constant rate.

    A ``breakpoint`` scales that channel's rate by 0.4 from there on, and the
    bound with it.
    """
    base = sir(0.9, 0.5, 0.6, 6, 2)
    k = [ev.name for ev in base.events].index(channel)
    constant = base.rates[k]
    cut = math.inf if breakpoint is None else breakpoint

    def level(t):
        return 1.0 if t < cut else 0.4

    def rate(t, x):
        return level(t) * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * constant(t, x)

    def bound(t0, t1, x):
        return 1.5 * level(t0) * float(constant(t0, x))
    rates, bounds = list(base.rates), [None] * base.n_events
    rates[k], bounds[k] = rate, bound
    return gf.ModelSpec(f"sir-sin-{channel}", base.d, base.events, rates,
                        base.init_sample, base.init_pmf, base.focal_dim,
                        rate_bounds=bounds,
                        rate_breakpoints=() if breakpoint is None else (breakpoint,),
                        bookkeeping_dims=base.bookkeeping_dims)


# the infection cases keep their ids ("None", "0.5")
@pytest.mark.parametrize("breakpoint, channel", [
    (None, "infection"), (0.5, "infection"), (None, "sampling"), (0.5, "sampling")],
    ids=["None", "0.5", "None-sampling", "0.5-sampling"])
def test_thinning_filter_matches_oracle(monkeypatch, breakpoint, channel):
    spec = sinusoidal_sir(breakpoint, channel)
    assert spec.varies_within_epochs
    v = coalescence_visible()
    exact = gf.oracle_loglik(spec, v, gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2)))
    steps = []
    epoch = gf.filtering._propagate_epoch

    def propagate_epoch(spec, states, logw, t0, t1, *rest):
        steps.append((t0, t1))
        return epoch(spec, states, logw, t0, t1, *rest)
    monkeypatch.setattr(gf.filtering, "_propagate_epoch", propagate_epoch)
    rep = gf.replicate_loglik(spec, v, FilterConfig(300, seed=41), 10)
    assert_matches(rep, exact, 0.01)  # <= P(|t_9| > 3) = 0.015
    assert steps
    if breakpoint is not None:
        assert not any(a < breakpoint < b for a, b in steps)
        assert any(b == breakpoint for a, b in steps)


def test_sir100_seed101_values_are_pinned():
    # the routes without a random stream: any change to their arithmetic moves
    # one of these; a change that claims bit-identity must leave them equal
    params = gf.SIRParams(0.04, 1.0, 1.0, 97, 3)
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, 1.0, np.random.default_rng(101))
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert (len(traj.jumps), len(gf.event_schedule(v))) == (26, 8)
    varying = gf.sir_spec(replace(params, transmission_rate=gf.PiecewiseConstant(
        (0.5,), (0.04, 0.02))))

    loglik, grid = gf.oracle_loglik(spec, v, gf.sir_truncation(params), return_grid=True)
    # RK45 at tol 1e-12 gives 0.2930492140330583, log scale 1.437719515271477
    assert (loglik, grid.log_scale) == (0.2930492140329062, 1.4377195152714266)
    # the full simplex is closed under every displacement, so no flux leaves it
    assert gf.boundary_flux(spec, grid, t=v.time) == 0.0
    # the epoch path: one uniformization step per epoch on each side of t=0.5;
    # RK45 at tol 1e-12 gives -0.2745236725987974, log scale 0.4446123078641644
    loglik, grid = gf.oracle_loglik(varying, v, gf.sir_truncation(params), return_grid=True)
    assert (loglik, grid.log_scale) == (-0.2745236725990504, 0.4446123078639428)
    assert gf.boundary_flux(varying, grid, t=v.time) == 0.0
    assert gf.loglik_events(spec, gf.to_history(traj), v) == -10.778129199009985


# the filter on the seed-101 genealogy, as (beta, seed, particles, replicates):
# constant beta, and the piecewise beta's epoch path
SIR100_FILTER_RUNS = [
    (0.04, 7, 2000, 150),
    (gf.PiecewiseConstant((0.5,), (0.04, 0.02)), 3, 1000, 300),
]


def test_sir100_seed101_filter_matches_the_oracle():
    # one verdict at false-alarm rate 0.001 over the two runs; the replicate
    # counts let it fail when every stretch's log mean weight is off by 0.002
    params, _, v = sir100_visible(1.0)
    groups = []
    for beta, seed, n, reps in SIR100_FILTER_RUNS:
        spec = gf.sir_spec(replace(params, transmission_rate=beta))
        exact = gf.oracle_loglik(spec, v, gf.sir_truncation(params))
        rep = gf.replicate_loglik(spec, v, FilterConfig(n, seed=seed), reps)
        groups.append((rep.estimates, exact))
    verdict = z_verdict(groups, alpha=0.001)
    assert verdict.ok, verdict


def expected_jumps(spec, v, truncation):
    """Mean jump count of one particle of a filter that never resamples.

    For a spec without rate bounds, on a truncation closed under its
    displacements.  Between events the particle's law follows the kernel's
    dynamics: every channel at its rate but the sampling channels, which are
    off the clock, and a jump that kills (a death below the lineage count)
    counts but moves no mass.  At an event the particle moves by a channel
    drawn in proportion to its weight terms, and dies where they sum to 0.
    """
    full = np.asarray(truncation)
    active = full[:, :len(spec.active_dims)]
    lattice = gf.StateLattice(active, active.shape[1])
    q = np.zeros(lattice.size)
    np.add.at(q, lattice.rows(active), spec.init_pmf(full))
    size, n = lattice.states[:, spec.focal_dim], lattice.size
    jumps = 0.0
    for t, e, ell, kind, ell_post in gf.filtering._stretches(v):
        q[size < ell] = 0.0
        for a, b in spec.epochs(t, e):
            rates = spec.rate_matrix(a, lattice.states)
            rates[:, spec.sample_mask] = 0.0
            # the law with the expected jump count as one more coordinate
            rows, cols = [np.full(n, n), np.arange(n)], [np.arange(n)] * 2
            vals = [rates.sum(axis=1), -rates.sum(axis=1)]
            for k in np.flatnonzero(~spec.sample_mask):
                src, dst = lattice.transition(spec.active_displacements[k])
                keep = size[dst] >= ell
                rows.append(dst[keep])
                cols.append(src[keep])
                vals.append(rates[src[keep], k])
            gen = csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n + 1, n + 1))
            out = expm_multiply(gen * (b - a), np.append(q, 0.0))
            q, jumps = out[:n], jumps + out[n]
        if kind is None:
            return jumps
        channels, terms = gf.filtering._event_terms(spec, lattice.states, e, kind, ell_post)
        total = terms.sum(axis=1)
        moved = np.zeros(n)
        for j, k in enumerate(channels):
            src, dst = lattice.transition(spec.active_displacements[k])
            live = total[src] > 0
            np.add.at(moved, dst[live], q[src[live]] * terms[src[live], j] / total[src[live]])
        q = moved


def test_sir100_seed101_jumps_match_the_grid():
    # the kernel's work: with no resampling the particles are independent, so
    # a run's jump count has mean n_particles times `expected_jumps`; one
    # verdict at false-alarm rate 0.001
    params, spec, v = sir100_visible(1.0)
    n, reps = 2000, 20
    config = FilterConfig(n, seed=7, ess_threshold=0.0)
    seeds = np.random.SeedSequence(config.seed).spawn(reps)
    runs = gf.filtering._run_filters(spec, v, config, [np.random.default_rng(s) for s in seeds])
    assert not any(r.diagnostics.resample_count for r in runs)
    mean = expected_jumps(spec, v, gf.sir_truncation(params))
    verdict = z_verdict([([r.diagnostics.jumps for r in runs], n * mean)], alpha=0.001,
                        log_of_unbiased=False)
    assert verdict.ok, verdict


def branch_oracle(case):
    """The oracle's log likelihood of `bit_identity_case` ``case``."""
    spec, v = bit_identity_case(case)
    if case == "constant":
        return lbdp_case()[2]
    if case == "two-birth-channels":
        params = gf.S2IRParams(0.5, 0.4, 0.5, 0.6, 3, 3, 2)
        return gf.oracle_loglik(spec, v, gf.s2ir_truncation(params))
    return gf.oracle_loglik(spec, v, gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2)))


# each branch of `_propagate_epoch`, and the replicate driver under
# multinomial resampling, as (case, resampling, seed, particles, replicates);
# the cheap branches carry the replicates that let the pooled check see a
# bias of 0.002 per stretch
KERNEL_BRANCH_RUNS = [
    ("constant", "systematic", 17, 2000, 300),
    ("bounded-infection", "systematic", 17, 500, 10),
    ("bounded-sampling", "systematic", 17, 500, 20),
    ("two-birth-channels", "systematic", 17, 2000, 300),
    ("two-birth-channels", "multinomial", 19, 2000, 300),
]


def test_kernel_branches_match_the_oracle():
    # one verdict at false-alarm rate 0.001 over every branch
    groups = []
    for case, resampling, seed, n, reps in KERNEL_BRANCH_RUNS:
        spec, v = bit_identity_case(case)
        config = FilterConfig(n, seed=seed, resampling=resampling)
        groups.append((gf.replicate_loglik(spec, v, config, reps).estimates, branch_oracle(case)))
    verdict = z_verdict(groups, alpha=0.001)
    assert verdict.ok, verdict


class CountingRng:
    """Block ``r``'s generator, logging the size of each draw before drawing it."""

    def __init__(self, r, seed, log):
        self.r, self.rng, self.log = r, np.random.default_rng(seed), log

    def standard_exponential(self, out):
        self.log.append(("wait", self.r, len(out)))
        return self.rng.standard_exponential(out=out)

    def random(self, out):
        self.log.append(("uniform", self.r, len(out)))
        return self.rng.random(out=out)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("bounded", [False, True], ids=["constant", "thinned"])
def test_each_round_draws_only_for_the_particles_still_moving(monkeypatch, bounded, blocks):
    # birth, death and sampling from 5 across [0, 3] at lineage count 1, the
    # death thinned at 0.8 n (1 + 0.5 sin 2 pi t) against 1.2 n; block 1 has
    # 20 live particles and block 2 none
    base = lbdp(0.6, 0.8, 0.3, 5)
    rates, bounds = list(base.rates), [None] * base.n_events
    if bounded:
        rates[1] = lambda t, x: 0.8 * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * x[..., 0]
        bounds[1] = lambda t0, t1, x: 1.2 * float(x[..., 0])
    spec = gf.ModelSpec("lbdp-thinned-death", base.d, base.events, rates, base.init_sample,
                        base.init_pmf, base.focal_dim, rate_bounds=bounds,
                        bookkeeping_dims=base.bookkeeping_dims)
    log = []
    read = gf.ModelSpec.rate_matrix

    def rate_matrix(self, t, states):
        log.append(("read", None, len(states)))  # once per round, for the whole index set
        return read(self, t, states)
    monkeypatch.setattr(gf.ModelSpec, "rate_matrix", rate_matrix)
    n = 100
    states = gf.init_ensemble(spec, blocks * n, np.random.default_rng(0)).states
    logw = np.zeros(blocks * n)
    logw[n + 20:] = -np.inf

    def draws_per_round(block_states, block_logw, rs):
        log.clear()
        out = gf.filtering._propagate_epoch(spec, block_states.copy(), block_logw.copy(), 0.0, 3.0,
                                            1, [CountingRng(r, 10 + r, log) for r in rs])
        rounds, drawn = [], []
        for kind, r, m in log:
            if kind == "read":
                rounds.append((drawn, m))
                drawn = []
            else:
                drawn.append((kind, r, m))
        assert not drawn
        return rounds, out

    rounds, (both, _, tally) = draws_per_round(states, logw, range(blocks))
    # the first round's set is every live particle
    assert [(r, m) for _, r, m in rounds[0][0][::2]] == [(0, n), (1, 20)][:min(blocks, 2)]
    for drawn, in_set in rounds:
        # each block with particles in the set draws that many waits, then as many uniforms
        waits, uniforms = drawn[::2], drawn[1::2]
        assert [k for k, _, _ in waits] == ["wait"] * len(waits)
        assert [(r, m) for _, r, m in uniforms] == [(r, m) for _, r, m in waits]
        assert [r for _, r, _ in waits] == sorted({r for _, r, _ in waits})
        assert min(m for _, _, m in waits) > 0 and sum(m for _, _, m in waits) == in_set
    for r in range(blocks):
        # block r alone reads rates for as many particles as it drew for in the ensemble
        block = slice(r * n, (r + 1) * n)
        alone, (solo, _, _) = draws_per_round(states[block], logw[block], [r])
        assert [m for _, m in alone] == [m for drawn, _ in rounds for k, b, m in drawn
                                         if (k, b) == ("wait", r)]
        assert len(alone) == tally[0, r] and (solo == both[block]).all()
    assert len(rounds) == tally[0].max() > 0
    assert tally[0, 2:].tolist() == [0] * (blocks - 2)  # a block with none live never draws


@pytest.mark.parametrize("bounded", [False, True], ids=["constant", "thinned"])
def test_rounds_and_jumps_count_the_kernel_work(monkeypatch, bounded):
    # pure death from 5, at rate 0.8 n, or thinned at 0.8 n (1 + 0.5 sin 2 pi t)
    # against 1.2 n: every accepted jump is a death, and a rejection is none
    base = lbdp(0.0, 0.8, 0.0, 5)
    rates, bounds = list(base.rates), [None] * base.n_events
    if bounded:
        rates[1] = lambda t, x: 0.8 * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * x[..., 0]
        bounds[1] = lambda t0, t1, x: 1.2 * float(x[..., 0])
    spec = gf.ModelSpec("pure-death", base.d, base.events, rates, base.init_sample,
                        base.init_pmf, base.focal_dim, rate_bounds=bounds,
                        bookkeeping_dims=base.bookkeeping_dims)
    reads = []
    read = gf.ModelSpec.rate_matrix

    def rate_matrix(self, t, states):
        reads.append(len(states))
        return read(self, t, states)
    monkeypatch.setattr(gf.ModelSpec, "rate_matrix", rate_matrix)
    n = 200
    states = gf.init_ensemble(spec, 2 * n, np.random.default_rng(0)).states
    logw = np.zeros(2 * n)
    logw[n + 20:] = -np.inf  # the second block has 20 live particles
    seeds = [1, 2]
    both, _, tally = gf.filtering._propagate_epoch(
        spec, states.copy(), logw.copy(), 0.0, 3.0, 0, [np.random.default_rng(s) for s in seeds])
    assert len(reads) == tally[0].max()
    deaths = (5 - both[:, 0]).reshape(2, n).sum(axis=1)
    assert tally[1].tolist() == deaths.tolist() and deaths.min() > 0
    for r, seed in enumerate(seeds):
        reads.clear()
        block = slice(r * n, (r + 1) * n)
        alone, _, solo = gf.filtering._propagate_epoch(
            spec, states[block].copy(), logw[block].copy(), 0.0, 3.0, 0,
            [np.random.default_rng(seed)])
        assert (alone == both[block]).all()
        assert solo.ravel().tolist() == [len(reads), tally[1, r]] == [tally[0, r], deaths[r]]
    # five deaths and the wait past t1 take six rounds; rejected candidates take more
    assert (tally[0].max() > 6) == bounded


@settings(max_examples=150, deadline=None, database=None)
@given(a=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40),
                elements=st.one_of(st.sampled_from([-math.inf, -1.5, 0.0, 3.25]),
                                   st.floats(-800.0, 800.0))),
       dead=st.lists(st.booleans(), max_size=40))
def test_logsumexp_is_scipys_bit_for_bit(a, dead):
    # ties at the maximum come from the sampled values, -inf rows from ``dead``
    a[np.flatnonzero(dead[:len(a)])] = -math.inf
    for got, want in [(gf.filtering._logsumexp(a, axis=1), logsumexp(a, axis=1)),
                      (gf.filtering._logsumexp(a[0]), logsumexp(a[0]))]:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("beta, reference", [
    (0.04, 0.2930492140330583),
    (gf.PiecewiseConstant((0.5,), (0.04, 0.02)), -0.2745236725987975)],
    ids=["constant", "piecewise"])
def test_oracle_at_default_tol_matches_rk45_at_tol_1e_12(beta, reference):
    # the references are the oracle with every epoch integrated by RK45
    # (`integrate_linear`) at tol 1e-12; at tol 1e-8 RK45 was 1.4e-9 away
    params = gf.SIRParams(beta, 1.0, 1.0, 97, 3)
    spec = gf.sir_spec(params)
    _, _, v = sir100_visible(1.0)
    loglik = gf.oracle_loglik(spec, v, gf.sir_truncation(params))
    assert abs(loglik - reference) < 1e-10


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_oracle_rejects_a_bad_tol(tol):
    spec = lbdp(0.5, 0.3, 0.6, 2)
    truncation = gf.lbdp_truncation(gf.LBDPParams(0.5, 0.3, 0.6, 2), 30)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        gf.oracle_loglik(spec, two_leaf_visible(), truncation, tol=tol)


def test_oracle_rejects_an_init_pmf_that_does_not_broadcast():
    base = lbdp(0.5, 0.3, 0.6, 2)
    scalar = gf.ModelSpec("scalar-pmf", 2, base.events, base.rates, base.init_sample,
                          lambda x: 1.0 if np.array_equal(x, [2, 0]) else 0.0,
                          base.focal_dim, bookkeeping_dims=(1,))
    truncation = gf.lbdp_truncation(gf.LBDPParams(0.5, 0.3, 0.6, 2), 30)
    with pytest.raises(gf.SimulationError, match=r"init_pmf gave shape \(\) for 31 states"):
        gf.oracle_loglik(scalar, two_leaf_visible(), truncation)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_oracle_rejects_a_negative_or_non_finite_init_pmf(bad):
    base = lbdp(0.5, 0.3, 0.6, 2)
    spec = gf.ModelSpec("bad-pmf", 2, base.events, base.rates, base.init_sample,
                        lambda x: np.where(x[..., 0] == 3, bad, 1.0 * (x[..., 0] == 2)),
                        base.focal_dim, bookkeeping_dims=(1,))
    truncation = gf.lbdp_truncation(gf.LBDPParams(0.5, 0.3, 0.6, 2), 30)
    with pytest.raises(gf.SimulationError, match=rf"init_pmf gave {bad} at state \(3, 0\)"):
        gf.oracle_loglik(spec, two_leaf_visible(), truncation)


# ---------------------------------------------------------------------------
# The generator's one assembly path against an entry-by-entry reference


def coo_generator(lattice, displacements, rates, inflow_scale=None):
    """Reference assembly: channel entries as COO summed into CSR, plus the outflow diagonal."""
    rows, cols, data = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for k, disp in enumerate(displacements):
        if inflow_scale is not None and not inflow_scale[:, k].any():
            continue
        src, dst = lattice.transition(disp)
        rows.append(dst)
        cols.append(src)
        data.append(rates[src, k] if inflow_scale is None
                    else rates[src, k] * inflow_scale[dst, k])
    A = coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(lattice.size, lattice.size)).tocsr()
    return A + diags(-rates.sum(axis=1))


def coo_interval_generator(spec, lattice, t, ell):
    size = lattice.states[:, spec.focal_dim]
    hidden = gf.hidden_birth_factor(size, ell)[:, None]
    scale = np.where(spec.birth_mask, hidden, 1.0) * (size >= ell)[:, None]
    scale[:, spec.sample_mask] = 0.0
    return coo_generator(lattice, spec.active_displacements,
                         spec.rate_matrix(t, lattice.states), scale)


def assert_same_operator(got, want, rng):
    """Equal entries bit for bit (a stored zero equals a missing entry), equal products."""
    n = want.shape[0]
    csr = got.tocsr()
    assert csr.has_canonical_format and csr.indices.dtype == np.int32
    stored = csr.tocoo()
    assert (stored.row == stored.col).sum() == n  # every diagonal entry is stored
    assert (csr.toarray() + 0.0).tobytes() == (want.toarray() + 0.0).tobytes()
    if isinstance(got, gf.population.Generator):  # the pattern names each row's diagonal cell
        diagonal = got.pattern.diagonal
        assert np.array_equal(csr.indices[diagonal], np.arange(n))
        assert np.array_equal(np.searchsorted(csr.indptr, diagonal, side="right") - 1, np.arange(n))
    w = rng.random(n)
    assert (got @ w).tobytes() == (want @ w).tobytes()


def grid_cases():
    s2ir = gf.S2IRParams(0.3, 0.2, 0.5, 0.4, 3, 2, 2)
    sirs = gf.SIRSParams(0.5, 0.4, 0.3, 0.7, 4, 2)
    lb = gf.LBDPParams(0.9, 0.4, 0.3, 2)
    _, piecewise = piecewise_sir((0.4, 1.1), (0.9, 0.3, 0.6))
    return [(sir(0.9, 0.5, 0.6, 6, 2), gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2))),
            (sir(0.9, 0.5, 0.6, 3, 1), gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 3, 1))),
            (piecewise, gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2))),
            (sinusoidal_sir(0.5), gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2))),
            (sinusoidal_sir(None, "sampling"), gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2))),
            (gf.s2ir_spec(s2ir), gf.s2ir_truncation(s2ir)),
            (gf.sirs_spec(sirs), gf.sirs_truncation(sirs)),
            (gf.lbdp_spec(lb), gf.lbdp_truncation(lb, 25))]


def test_interval_generator_matches_the_coo_reference():
    rng = np.random.default_rng(8)
    for spec, truncation in grid_cases():
        full = np.array(truncation)
        lattice = gf.StateLattice(full[:, :len(spec.active_dims)], len(spec.active_dims))
        # above the largest focal size, every channel's scale is all zero
        top = int(lattice.states[:, spec.focal_dim].max())
        for t in (0.0, 0.3, 0.75, 1.2):
            for ell in (*range(4), top, top + 1):
                assert_same_operator(gf.filtering._interval_generator(spec, lattice, t, ell),
                                     coo_interval_generator(spec, lattice, t, ell), rng)
        full_lattice = gf.StateLattice(full, spec.d)
        assert_same_operator(gf.forward_generator(spec, full_lattice, 0.3),
                             coo_generator(full_lattice, spec.displacements,
                                           spec.rate_matrix(0.3, full_lattice.states)), rng)


def test_a_generator_and_its_step_reject_a_vector_that_does_not_fit():
    for spec, truncation in grid_cases():
        full = np.array(truncation)
        lattice = gf.StateLattice(full[:, :len(spec.active_dims)], len(spec.active_dims))
        G = gf.filtering._interval_generator(spec, lattice, 0.3, 1)
        for bad in (np.ones(lattice.size + 1), np.ones((lattice.size, 1))):
            with pytest.raises(ValueError, match="does not fit a generator"):
                G @ bad
            with pytest.raises(ValueError, match="does not fit a generator"):
                gf.population._uniformized(G, bad, 0.05, 1e-8)


def test_generator_sums_entries_that_share_a_cell_in_channel_order():
    # channel 1 stays in place and channels 2 and 3 share a displacement, so
    # their entries meet in one cell; channel 4's scale is all zero
    rng = np.random.default_rng(9)
    lattice = gf.StateLattice([(i, j) for i in range(6) for j in range(4)], 2)
    moves = np.array([(1, 0), (0, 0), (0, 1), (0, 1), (-1, 0)])
    rates = rng.exponential(size=(lattice.size, 5)) * (rng.random((lattice.size, 5)) < 0.8)
    scale = rng.random((lattice.size, 5)) * (rng.random((lattice.size, 5)) < 0.7)
    scale[:, 4] = 0.0
    for inflow_scale in (scale, None):
        assert_same_operator(gf.population._generator(lattice, moves, rates, inflow_scale),
                             coo_generator(lattice, moves, rates, inflow_scale), rng)


def test_oracle_assembles_the_pattern_once_per_call(monkeypatch):
    built = []
    assemble = gf.population._assemble_pattern

    def counting(size, moves):
        built.append(size)
        return assemble(size, moves)
    monkeypatch.setattr(gf.population, "_assemble_pattern", counting)
    params, spec, v = sir100_visible(1.0)
    for _ in range(2):
        assert gf.oracle_loglik(spec, v, gf.sir_truncation(params)) == 0.2930492140329062
    assert built == [5151, 5151]
    # a bounded channel refills the data at every RK45 evaluation, from one pattern
    built.clear()
    gf.oracle_loglik(sinusoidal_sir(0.5), piecewise_visible(),
                     gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2)))
    assert built == [45]


def test_one_lattice_holds_one_pattern_at_every_lineage_count():
    # a channel scaled to zero, as sampling is between events and every
    # channel is above the largest focal size, keeps its cells as zeros
    spec = sir(0.9, 0.5, 0.6, 6, 2)
    full = np.array(gf.sir_truncation(gf.SIRParams(0.9, 0.5, 0.6, 6, 2)))
    lattice = gf.StateLattice(full[:, :len(spec.active_dims)], len(spec.active_dims))
    top = int(lattice.states[:, spec.focal_dim].max())
    for ell in (*range(4), top, top + 1):
        gf.filtering._interval_generator(spec, lattice, 0.3, ell)
        assert len(lattice._patterns) == 1
    _, grid = gf.oracle_loglik(spec, piecewise_visible(), full, return_grid=True)
    assert len(grid.lattice._patterns) == 1
