"""Particle filter and truncated-grid oracle."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import logsumexp

import genfilter as gf
from genfilter.filtering import RESAMPLING_METHODS, WEIGHTING_MODES, FilterConfig, FilterError


def lbdp(lam, delta, psi, n0, mu=1.0):
    return gf.lbdp_spec(gf.LBDPParams(lam, delta, psi, n0), mu=mu)


def sir(beta, gamma, psi, s0, i0, mu=1.0):
    return gf.sir_spec(gf.SIRParams(beta, gamma, psi, s0, i0), mu=mu)


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
    with pytest.raises(ValueError, match="weighting"):
        FilterConfig(10, weighting="bootstrap")


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
    ([(0, 0.0, (("green", 0), ("green", 1))), (1, 0.5, (("red", 0), ("blue", 0))),
      (2, 0.6, (("red", 1), ("blue", 1)))], "negative lineage count")],
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
                        base.init_pmf, base.focal_size, bookkeeping_dims=(1,))
    ens = gf.init_ensemble(spec, 2000, np.random.default_rng(0))
    assert calls == [2000]
    assert ens.states.shape == (2000, 1)
    assert abs(ens.states.mean() - 4.0) < 4 * math.sqrt(4.0 / 2000)
    # simulate draws a batch of one and starts from its row
    traj = gf.simulate(spec, 0.5, np.random.default_rng(1))
    assert traj.x0 == (int(np.random.default_rng(1).poisson(4.0, 1)[0]), 0)

    flat = gf.ModelSpec("flat", base.d, base.events, base.rates,
                        lambda rng, n: np.zeros(2 * n, dtype=np.int64),
                        base.init_pmf, base.focal_size, bookkeeping_dims=(1,))
    with pytest.raises(FilterError, match=r"shape \(20,\), expected \(10, 2\)"):
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


def test_propagate_rejection_mode_kills_sampled():
    spec = lbdp(0.0, 0.0, 0.7, 2)
    n = 4000
    ens = gf.init_ensemble(spec, n, np.random.default_rng(3))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.4,
                                np.random.default_rng(4), weighting="rejection")
    alive = np.isfinite(out.log_weights)
    assert (out.log_weights[alive] == 0.0).all()
    p = math.exp(-0.7 * 2 * 0.4)
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


@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_a_total_rate_of_negative_zero_fires_nothing(weighting):
    # rate_matrix accepts -0.0; a clock whose total is -0.0 must not jump at t = -inf,
    # and a jump off n = 3 would meet a negative rate, which raises
    base = lbdp(0.0, 0.0, 0.0, 3)
    spec = gf.ModelSpec("negative-zero", base.d, base.events,
                        [lambda t, x: np.where(x[..., 0] == 3, -0.0, -1.0)] * base.n_events,
                        base.init_sample,
                        base.init_pmf, base.focal_size, bookkeeping_dims=base.bookkeeping_dims)
    ens = gf.init_ensemble(spec, 50, np.random.default_rng(1))
    out = gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.4,
                                np.random.default_rng(2), weighting)
    assert (out.states == ens.states).all() and (out.log_weights == 0.0).all()


@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_propagate_epoch_touches_only_live_unfinished_particles(weighting):
    # a recovery at i = ell = 2 is fatal; a third of the particles start dead,
    # and the second block starts with few live ones, so it empties first
    spec = sir(0.3, 0.5, 0.3, 8, 3)
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
        # still live; with sampling off or fatal, a live jumper has moved
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
    gf.filtering._propagate_epoch(spec, states, logw, 0.0, 1.0, 2, rngs,
                                  weighting == "analytic-survival")
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
    with pytest.raises(ValueError, match="weighting"):
        gf.propagate_interval(spec, ens, two_leaf_visible(), 0.0, 0.1,
                              np.random.default_rng(9), weighting="exact")
    with pytest.raises(ValueError, match="t1"):
        gf.propagate_interval(spec, ens, two_leaf_visible(), 0.5, 0.1,
                              np.random.default_rng(9))


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


@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_smc_seed_determinism(weighting):
    spec = lbdp(1.4, 0.5, 0.9, 1)
    traj = simulate_with_samples(spec, 2.0, 19, 2, 10)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    a = gf.smc_loglik(spec, v, FilterConfig(300, seed=7, weighting=weighting))
    b = gf.smc_loglik(spec, v, FilterConfig(300, seed=7, weighting=weighting))
    c = gf.smc_loglik(spec, v, FilterConfig(300, seed=8, weighting=weighting))
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


def test_smc_matches_oracle():
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(spec, v, FilterConfig(2000, seed=21), 16)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se


def test_smc_rejection_mode_matches_oracle():
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(
        spec, v, FilterConfig(4000, seed=22, weighting="rejection"), 16)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se


def test_smc_multinomial_resampling_matches_oracle():
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(
        spec, v, FilterConfig(2000, seed=23, resampling="multinomial"), 16)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se


def test_smc_likelihood_estimates_are_unbiased():
    # the unnormalized filter estimates the likelihood itself without bias,
    # so the mean of exp(loglik) over many replicates brackets the oracle
    spec, v, exact = lbdp_case()
    rep = gf.replicate_loglik(spec, v, FilterConfig(300, seed=29), 240)
    assert rep.collapse_count == 0
    liks = np.exp(np.array(rep.estimates))
    se = liks.std(ddof=1) / math.sqrt(len(liks))
    assert abs(liks.mean() - math.exp(exact)) <= 3 * se


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


@pytest.mark.parametrize("case", BIT_IDENTITY_CASES)
@pytest.mark.parametrize("resampling", RESAMPLING_METHODS)
@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_replicates_are_bit_identical_to_sequential_runs(weighting, resampling, case):
    spec, v = bit_identity_case(case)
    config = FilterConfig(60, seed=43, weighting=weighting, resampling=resampling)
    rep = assert_runs_are_sequential_runs(spec, v, config, 3)
    assert rep.collapse_count < 3


@pytest.mark.parametrize("case", ["constant", "bounded-infection", "two-birth-channels"])
def test_collapsed_replicates_drop_out_of_the_ensemble(case):
    # seven particles under rejection: some replicates collapse, the rest go on
    spec, v = bit_identity_case(case)
    rep = assert_runs_are_sequential_runs(
        spec, v, FilterConfig(7, seed=3, weighting="rejection"), 6)
    assert 0 < rep.collapse_count < 6


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), n_reps=st.integers(1, 4),
       weighting=st.sampled_from(WEIGHTING_MODES),
       case=st.sampled_from(BIT_IDENTITY_CASES))
def test_replicates_match_sequential_runs_for_any_seed(seed, n, n_reps, weighting, case):
    spec, v = bit_identity_case(case)
    assert_runs_are_sequential_runs(spec, v, FilterConfig(n, seed=seed, weighting=weighting),
                                    n_reps)


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
    rep = gf.replicate_loglik(spec, v, FilterConfig(2000, seed=3), 8)
    assert rep.collapse_count == 0
    assert abs(rep.mean - ll) <= 4 * rep.se


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
    integrate = gf.filtering.integrate_epochs

    def leaky(*args):
        out = integrate(*args)
        out[0] -= leak
        return out
    monkeypatch.setattr(gf.filtering, "integrate_epochs", leaky)
    if raises:
        with pytest.raises(gf.IntegrationError, match=r"on \[0.0, 0.5\] is negative"):
            gf.oracle_loglik(spec, two_leaf_visible(), truncation)
    else:
        assert math.isfinite(gf.oracle_loglik(spec, two_leaf_visible(), truncation))


def test_boundary_flux_from_dict():
    spec = lbdp(0.8, 0.3, 0.5, 1)
    # sampling only moves the bookkeeping coordinate, so it never leaves
    assert gf.boundary_flux(spec, {(1,): 1.0}) == pytest.approx(1.1)
    # death from 2 lands on 1, inside the set; birth from 1 lands on 2
    flux = gf.boundary_flux(spec, {(1,): 0.5, (2,): 0.5})
    assert flux == pytest.approx(0.5 * 0.3 + 0.5 * 1.6)


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


def test_negative_rate_is_a_model_error():
    # the death rate 0.5 n - 0.75 turns negative once a death takes n from 2 to 1
    base = lbdp(0.0, 1.0, 0.5, 2)
    spec = gf.ModelSpec("leaky", 2, base.events,
                        (base.rates[0], lambda t, x: 0.5 * x[..., 0] - 0.75, base.rates[2]),
                        base.init_sample, base.init_pmf, base.focal_size,
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
    rep = gf.replicate_loglik(spec, v, FilterConfig(1500, seed=29), 12)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se


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
                        spec.init_pmf, spec.focal_size, mu=spec.mu,
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
    for weighting in WEIGHTING_MODES:
        gf.propagate_interval(spec, ens, v, stretch[0], stretch[-1],
                              np.random.default_rng(6), weighting)
    assert steps["filter"] == 2 * list(zip(stretch[:-1], stretch[1:]))


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


@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_smc_two_breakpoint_sirs_matches_oracle(weighting):
    beta = gf.PiecewiseConstant((0.5, 1.2), (0.9, 0.25, 0.6))
    params = gf.SIRSParams(beta, 0.5, 0.6, 0.8, 6, 2)
    spec = gf.sirs_spec(params)
    traj = simulate_with_samples(spec, 2.0, 31, 2, 6)
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    exact = gf.oracle_loglik(spec, v, gf.sirs_truncation(params))
    rep = gf.replicate_loglik(spec, v, FilterConfig(1500, seed=37, weighting=weighting), 12)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se


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
                        base.init_sample, base.init_pmf, base.focal_size,
                        rate_bounds=bounds,
                        rate_breakpoints=() if breakpoint is None else (breakpoint,),
                        bookkeeping_dims=base.bookkeeping_dims)


# the infection cases keep their ids ("None", "0.5")
@pytest.mark.parametrize("breakpoint, channel", [
    (None, "infection"), (0.5, "infection"), (None, "sampling"), (0.5, "sampling")],
    ids=["None", "0.5", "None-sampling", "0.5-sampling"])
@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
def test_thinning_filter_matches_oracle(monkeypatch, weighting, breakpoint, channel):
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
    rep = gf.replicate_loglik(spec, v, FilterConfig(300, seed=41, weighting=weighting), 10)
    assert rep.collapse_count == 0
    assert abs(rep.mean - exact) <= 3 * rep.se
    assert steps
    if breakpoint is not None:
        assert not any(a < breakpoint < b for a, b in steps)
        assert any(b == breakpoint for a, b in steps)


def test_bounded_sampling_pays_its_integral_once_per_dwell(monkeypatch):
    # the lone sampling channel runs at psi (1 + 0.5 sin 2 pi t) n; a thinned
    # birth channel at rate 0 rejects every candidate, so no particle moves
    # and each one's dwell is the whole epoch, however many rounds it takes
    psi, n0, horizon = 0.6, 3, 1.7
    base = lbdp(0.0, 0.0, psi, n0)
    rates = (lambda t, x: 0.0 * x[..., 0], base.rates[1],
             lambda t, x: psi * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * x[..., 0])
    bounds = (lambda t0, t1, x: 2.0 * float(x[..., 0]), None,
              lambda t0, t1, x: 1.5 * psi * float(x[..., 0]))
    spec = gf.ModelSpec("lbdp-sin-sampling", base.d, base.events, rates, base.init_sample,
                        base.init_pmf, base.focal_size, rate_bounds=bounds,
                        bookkeeping_dims=base.bookkeeping_dims)
    calls = []
    integral = gf.filtering._rate_integral

    def rate_integral(*args, **kwargs):
        calls.append(args)
        return integral(*args, **kwargs)
    monkeypatch.setattr(gf.filtering, "_rate_integral", rate_integral)
    ens = gf.init_ensemble(spec, 20, np.random.default_rng(44))
    out = gf.propagate_interval(spec, ens, empty_visible(horizon), 0.0, horizon,
                                np.random.default_rng(45))
    want = -psi * n0 * (horizon + 0.5 * (1.0 - math.cos(2 * math.pi * horizon)) / (2 * math.pi))
    assert (out.states == ens.states).all()
    assert np.abs(out.log_weights - want).max() < 1e-9
    assert len(calls) == 20


def test_sir100_seed101_values_are_pinned():
    # any change to a route's arithmetic or random stream moves one of these;
    # a change that claims bit-identity must leave every one of them equal
    params = gf.SIRParams(0.04, 1.0, 1.0, 97, 3)
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, 1.0, np.random.default_rng(101))
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert (len(traj.jumps), len(gf.event_schedule(v))) == (26, 8)

    res = gf.smc_loglik(spec, v, FilterConfig(2000, seed=7))
    assert (res.loglik, res.diagnostics.resample_count) == (0.3552963536435785, 2)
    res = gf.smc_loglik(spec, v, FilterConfig(2000, seed=7, weighting="rejection"))
    assert (res.loglik, res.diagnostics.resample_count) == (0.48873938631071034, 6)
    varying = gf.sir_spec(replace(params, transmission_rate=gf.PiecewiseConstant(
        (0.5,), (0.04, 0.02))))
    assert gf.smc_loglik(varying, v, FilterConfig(1000, seed=3)).loglik == -0.28228013829960386

    loglik, grid = gf.oracle_loglik(spec, v, gf.sir_truncation(params), return_grid=True)
    # RK45 at tol 1e-12 gives 0.2930492140330583, log scale 1.437719515271477
    assert (loglik, grid.log_scale) == (0.29304921403290485, 1.4377195152714253)
    assert gf.loglik_events(spec, gf.to_history(traj), v) == -10.778129199009985


def test_sir100_seed101_rounds_and_jumps_are_pinned():
    # the kernel's work: any change to the stream or to how rounds are formed moves these
    _, spec, v = sir100_visible(1.0)
    for weighting, want in [("analytic-survival", (168, 73402)), ("rejection", (128, 46258))]:
        d = gf.smc_loglik(spec, v, FilterConfig(2000, seed=7, weighting=weighting)).diagnostics
        assert (d.rounds, d.jumps) == want


# loglik and resample count of one run through each branch of `_propagate_epoch`:
# a change to a branch's arithmetic or draws moves one of them
KERNEL_BRANCH_PINS = {
    ("constant", "analytic-survival"): (-4.714708510836912, 2),
    ("constant", "rejection"): (-4.829146271262544, 3),
    ("bounded-infection", "analytic-survival"): (-6.254882387001657, 1),
    ("bounded-infection", "rejection"): (-7.055957500004559, 2),
    ("bounded-sampling", "analytic-survival"): (-0.7262464535393667, 0),
    ("bounded-sampling", "rejection"): (-0.8483144077528921, 2),
    ("two-birth-channels", "analytic-survival"): (-4.605046056165328, 1),
    ("two-birth-channels", "rejection"): (-4.778195904110257, 2),
}


@pytest.mark.parametrize("case, weighting", sorted(KERNEL_BRANCH_PINS))
def test_kernel_branches_are_pinned(case, weighting):
    spec, v = bit_identity_case(case)
    res = gf.smc_loglik(spec, v, FilterConfig(200, seed=17, weighting=weighting))
    assert (res.loglik, res.diagnostics.resample_count) == KERNEL_BRANCH_PINS[case, weighting]


def test_replicate_estimates_are_pinned():
    spec, v = bit_identity_case("two-birth-channels")
    rep = gf.replicate_loglik(spec, v, FilterConfig(200, seed=19, resampling="multinomial"), 3)
    assert rep.estimates == (-4.214200564296141, -4.354270730083583, -4.27479881351288)
    assert (rep.collapse_count, rep.diagnostics.resample_count) == (0, 1)


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
                        base.init_pmf, base.focal_size, rate_bounds=bounds,
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
        spec, states.copy(), logw.copy(), 0.0, 3.0, 0, [np.random.default_rng(s) for s in seeds],
        True)
    assert len(reads) == tally[0].max()
    deaths = (5 - both[:, 0]).reshape(2, n).sum(axis=1)
    assert tally[1].tolist() == deaths.tolist() and deaths.min() > 0
    for r, seed in enumerate(seeds):
        reads.clear()
        block = slice(r * n, (r + 1) * n)
        alone, _, solo = gf.filtering._propagate_epoch(
            spec, states[block].copy(), logw[block].copy(), 0.0, 3.0, 0,
            [np.random.default_rng(seed)], True)
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
                          base.focal_size, bookkeeping_dims=(1,))
    truncation = gf.lbdp_truncation(gf.LBDPParams(0.5, 0.3, 0.6, 2), 30)
    with pytest.raises(FilterError, match=r"init_pmf gave shape \(\) for 31 states"):
        gf.oracle_loglik(scalar, two_leaf_visible(), truncation)
