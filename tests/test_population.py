"""Simulation, path densities, and the master-equation integrator."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.linalg import expm
from scipy.sparse import _sparsetools, hstack, identity

import genfilter as gf
from genfilter.population import (Jump, JumpSequence, History, SimulationError,
                                  _rate_integral, _uniformized, state_at, to_history,
                                  history_log_density, jump_log_density)


def lbdp(lam, delta, psi, n0, mu=1.0):
    return gf.lbdp_spec(gf.LBDPParams(lam, delta, psi, n0), mu=mu)


def make_spec(events, rates, x0, focal_dim, d=None, **kw):
    x0 = np.asarray(x0, dtype=np.int64)
    d = len(x0) if d is None else d

    def init_sample(rng, n):
        return np.tile(x0, (n, 1))

    def init_pmf(x):
        return (np.asarray(x) == x0).all(axis=-1).astype(float)

    return gf.ModelSpec("adhoc", d, events, rates, init_sample, init_pmf,
                        focal_dim, **kw)


# ---------------------------------------------------------------------------
# Model construction


def test_model_spec_rejects_a_birth_that_leaves_the_focal_coordinate():
    # the "birth" moves coordinate 1, not the focal coordinate 0, which breaks
    # the member-numbering convention
    with pytest.raises(ValueError, match="event 'bad_birth': focal size changes by 0, "
                                         "markers require 1"):
        make_spec(
            (gf.EventType("bad_birth", (0, 1), is_birth=True),),
            (lambda t, x: 1.0 + 0.0 * x[..., 0],),
            (3, 0),
            0)


def test_event_type_rejects_conflicting_markers():
    with pytest.raises(ValueError):
        gf.EventType("both", (1,), is_birth=True, is_death=True)
    with pytest.raises(ValueError):
        gf.EventType("both", (1,), is_sample=True, is_birth=True)


def test_modelspec_rejects_duplicate_displacements():
    with pytest.raises(ValueError, match="duplicate displacement"):
        make_spec(
            (gf.EventType("a", (0, 1)), gf.EventType("b", (0, 1))),
            (lambda t, x: 1.0, lambda t, x: 2.0),
            (0, 0),
            0)


def test_modelspec_rejects_interior_bookkeeping():
    with pytest.raises(ValueError, match="trailing block"):
        make_spec(
            (gf.EventType("a", (1, 0, 0)),),
            (lambda t, x: 1.0,),
            (0, 0, 0),
            0,
            bookkeeping_dims=(1,))


# ---------------------------------------------------------------------------
# Simulation


def test_simulate_zero_rates_produces_no_jumps():
    spec = lbdp(0.0, 0.0, 0.0, 3)
    traj = gf.simulate(spec, 5.0, np.random.default_rng(0))
    assert traj.jumps == ()
    assert traj.t_end == 5.0
    assert traj.x0 == (3, 0)


def test_simulate_pure_death_single_individual():
    spec = lbdp(0.0, 2.0, 0.0, 1)
    rng = np.random.default_rng(1)
    times = []
    for _ in range(4000):
        traj = gf.simulate(spec, 50.0, rng)
        assert len(traj.jumps) == 1
        assert spec.events[traj.jumps[0].event].name == "death"
        times.append(traj.jumps[0].time)
    # exponential(rate 2) mean is 0.5 with sd 0.5
    assert abs(np.mean(times) - 0.5) < 4 * 0.5 / math.sqrt(len(times))


def test_simulate_is_deterministic_for_a_seed():
    spec = lbdp(1.2, 0.7, 0.4, 3)
    a = gf.simulate(spec, 4.0, np.random.default_rng(123))
    b = gf.simulate(spec, 4.0, np.random.default_rng(123))
    assert a == b


@pytest.mark.parametrize("params, horizon, seed, n_jumps, n_samples, last", [
    (gf.SIRParams(0.0025, 1, 0.3, 990, 10), 4.0, 5, 1298, 151,
     Jump(3.9900670720022506, 1, 85)),
    (gf.SIRParams(0.04, 1, 1, 97, 3), 1.0, 101, 26, 5, Jump(0.9989372771039068, 1, 9)),
], ids=["sir1000-seed5", "sir100-seed101"])
def test_simulate_stream_is_pinned_without_bounds(params, horizon, seed, n_jumps,
                                                  n_samples, last):
    # the benchmark's population-1000 and population-100 fixtures are these draws
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, horizon, np.random.default_rng(seed))
    assert len(traj.jumps) == n_jumps
    assert sum(spec.events[j.event].is_sample for j in traj.jumps) == n_samples
    assert traj.jumps[-1] == last


def test_simulate_marked_aux_lies_in_focal_range():
    spec = lbdp(1.0, 0.5, 0.7, 4)
    rng = np.random.default_rng(7)
    for _ in range(40):
        traj = gf.simulate(spec, 2.0, rng)
        x = np.asarray(traj.x0, dtype=np.int64)
        for j in traj.jumps:
            if spec.events[j.event].is_marked:
                assert 0 <= j.aux < x[spec.focal_dim]
            else:
                assert j.aux == 0
            x = x + spec.displacements[j.event]


def test_simulate_jump_cap_raises():
    spec = lbdp(5.0, 0.0, 0.0, 5)
    with pytest.raises(SimulationError):
        gf.simulate(spec, 50.0, np.random.default_rng(2), max_jumps=20)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_simulate_rejects_a_negative_or_nan_horizon(horizon):
    # an infinite one too: the trajectory readers (state_at,
    # history_log_density, loglik_lineages) reject it
    spec = lbdp(0.0, 0.5, 0.5, 2)
    with pytest.raises(ValueError, match=f"horizon must be nonnegative and finite, got {horizon}"):
        gf.simulate(spec, horizon, np.random.default_rng(1))
    assert gf.simulate(spec, 0.0, np.random.default_rng(1)).jumps == ()


def test_state_at_matches_prefix_sums():
    spec = lbdp(1.5, 0.9, 0.6, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        traj = gf.simulate(spec, 3.0, rng)
        probes = rng.uniform(0.0, 3.0, size=8)
        for t in probes:
            expect = np.asarray(traj.x0, dtype=np.int64)
            for j in traj.jumps:
                if j.time <= t:
                    expect = expect + spec.displacements[j.event]
            assert np.array_equal(state_at(spec, traj, t), expect)
        for j in traj.jumps:
            before = state_at(spec, traj, np.nextafter(j.time, -np.inf))
            after = state_at(spec, traj, j.time)
            assert np.array_equal(after - before, spec.displacements[j.event])


# ---------------------------------------------------------------------------
# Path densities


def test_history_density_zero_jump_matches_survival():
    delta = 0.7
    horizon = 1.3
    spec = lbdp(0.0, delta, 0.0, 1)
    h = History(horizon, (1, 0), ())
    # probability of the empty path = density times the Poisson weight
    prob = math.exp(history_log_density(spec, h)) * math.exp(-spec.mu * horizon)
    assert abs(prob - math.exp(-delta * horizon)) < 1e-12


@pytest.mark.parametrize("mu", [1.0, 2.3])
def test_history_density_one_jump_quadrature_is_mu_invariant(mu):
    delta = 0.7
    horizon = 1.3
    spec = lbdp(0.0, delta, 0.0, 1, mu=mu)
    death = next(k for k, ev in enumerate(spec.events) if ev.name == "death")

    def integrand(t):
        h = History(horizon, (1, 0), ((t, death),))
        return math.exp(history_log_density(spec, h)) * mu * math.exp(-mu * horizon)

    val, _ = quad(integrand, 0.0, horizon, epsabs=1e-12, epsrel=1e-10)
    assert abs(val - (1.0 - math.exp(-delta * horizon))) < 1e-9


def test_history_density_two_jump_quadrature_matches_kfe():
    # a model hard-capped at two jumps so the path integral is finite-order:
    # coordinate 1 counts jumps and gates the rates, and the focal
    # coordinate 2 holds one individual that no channel moves
    lam, delta = 0.9, 0.6
    horizon = 0.8
    events = (gf.EventType("up", (1, 1, 0)), gf.EventType("down", (-1, 1, 0)))
    rates = (lambda t, x: lam * x[..., 0] * (x[..., 1] < 2),
             lambda t, x: delta * x[..., 0] * (x[..., 1] < 2))
    spec = make_spec(events, rates, (1, 0, 1), 2)
    trunc = [(n, c, 1) for n in range(4) for c in range(3)]
    pmf = gf.kfe_integrate(spec, trunc, {(1, 0, 1): 1.0}, 0.0, horizon, tol=1e-10)
    assert abs(sum(pmf.values()) - 1.0) < 1e-8

    def prob_path(ks):
        def dens(*times):
            h = History(horizon, (1, 0, 1), tuple(zip(times, ks)))
            return math.exp(history_log_density(spec, h)) \
                * spec.mu ** len(ks) * math.exp(-spec.mu * horizon)
        if not ks:
            return dens()
        if len(ks) == 1:
            return quad(dens, 0, horizon, epsabs=1e-12)[0]
        return dblquad(lambda t2, t1: dens(t1, t2),
                       0, horizon, lambda t1: t1, horizon, epsabs=1e-12)[0]

    by_path = {
        (1, 0, 1): prob_path(()),
        (2, 1, 1): prob_path((0,)),
        (0, 1, 1): prob_path((1,)),
        (3, 2, 1): prob_path((0, 0)),
        (1, 2, 1): prob_path((0, 1)) + prob_path((1, 0)),
    }
    for state, expect in by_path.items():
        assert abs(pmf[state] - expect) < 1e-7, state


def test_jump_density_sums_to_history_density():
    spec = lbdp(1.1, 0.6, 0.8, 2)
    rng = np.random.default_rng(5)
    import itertools
    checked = 0
    while checked < 10:
        traj = gf.simulate(spec, 1.2, rng)
        if not 1 <= len(traj.jumps) <= 6:
            continue
        marked = [i for i, j in enumerate(traj.jumps)
                  if spec.events[j.event].is_marked]
        sizes = [state_at(spec, traj, np.nextafter(traj.jumps[i].time, -np.inf))[spec.focal_dim]
                 for i in marked]
        total = 0.0
        for combo in itertools.product(*[range(s) for s in sizes]):
            jumps = list(traj.jumps)
            for i, a in zip(marked, combo):
                jumps[i] = Jump(jumps[i].time, jumps[i].event, a)
            total += math.exp(jump_log_density(
                spec, JumpSequence(traj.x0, tuple(jumps), traj.t_end)))
        expect = math.exp(history_log_density(spec, to_history(traj)))
        assert abs(total - expect) <= 1e-12 * max(expect, 1.0)
        checked += 1


def test_jump_density_rejects_bad_aux():
    spec = lbdp(0.0, 1.0, 0.0, 2)
    death = 1
    traj = JumpSequence((2, 0), (Jump(0.5, death, 5),), 1.0)
    assert jump_log_density(spec, traj) == -math.inf
    # unmarked events must carry aux 0
    events = (gf.EventType("tick", (0, 1)),)
    spec2 = make_spec(events, (lambda t, x: 1.0 + 0 * x[..., 0],), (1, 0),
                      0)
    bad = JumpSequence((1, 0), (Jump(0.5, 0, 1),), 1.0)
    assert jump_log_density(spec2, bad) == -math.inf


def test_history_density_rejects_disordered_times():
    spec = lbdp(1.0, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        history_log_density(spec, History(1.0, (2, 0), ((0.8, 0), (0.3, 1))))
    with pytest.raises(ValueError):
        history_log_density(spec, History(1.0, (2, 0), ((1.5, 0),)))


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf, -math.inf])
def test_history_readers_reject_a_horizon_that_is_not_finite_or_is_below_0(horizon):
    # before, an empty history weighed -1.0 at horizon -1 and NaN at NaN or inf
    spec = lbdp(1.0, 0.5, 0.5, 2)
    h = History(horizon, (2, 0), ())
    match = f"history horizon {horizon} is not finite or is below 0"
    with pytest.raises(ValueError, match=match):
        history_log_density(spec, h)
    with pytest.raises(ValueError, match=match):
        gf.loglik_events(spec, h, gf.prune(gf.new_genealogy(2)))
    assert history_log_density(spec, History(0.0, (2, 0), ())) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_history_density_rejects_a_negative_or_non_finite_init_pmf(bad):
    # the same defect the oracle names, on the single-state read
    base = lbdp(1.0, 0.5, 0.5, 2)
    spec = gf.ModelSpec("bad-pmf", 2, base.events, base.rates, base.init_sample,
                        lambda x: np.full(x.shape[:-1], bad), base.focal_dim,
                        bookkeeping_dims=(1,))
    with pytest.raises(SimulationError, match=rf"init_pmf gave {bad} at state \(2, 0\)"):
        history_log_density(spec, History(1.0, (2, 0), ((0.5, 0),)))


def test_state_at_reads_a_trajectory_like_a_history():
    spec = lbdp(1.0, 0.5, 0.5, 2)
    birth = 0
    traj = JumpSequence((2, 0), (Jump(0.5, birth), Jump(1.5, birth)), 1.0)
    with pytest.raises(ValueError, match=r"event time 1.5 is outside \(0, 1.0\] or unordered"):
        state_at(spec, traj, 0.7)
    unordered = JumpSequence((2, 0), (Jump(0.5, birth), Jump(0.3, birth)), 1.0)
    with pytest.raises(ValueError, match="event time 0.3 is outside"):
        state_at(spec, unordered, 0.7)


@pytest.mark.parametrize("x0", [(2.5, 0), (2,), (2, 0, 0), (math.nan, 0)])
def test_every_path_reader_names_an_x0_that_is_not_a_state(x0):
    # lbdp states are 2 wide and whole; casting (2.5, 0) to int gave the (2, 0)
    # value, and (2,) gave -inf or an unnamed numpy error
    spec = lbdp(1.0, 0.5, 0.5, 2)
    traj = JumpSequence(x0, (Jump(0.5, 0),), 1.0)
    h = to_history(traj)
    readers = [lambda: history_log_density(spec, h), lambda: jump_log_density(spec, traj),
               lambda: state_at(spec, traj, 0.7), lambda: gf.loglik_lineages(spec, traj),
               lambda: gf.loglik_events(spec, h, gf.prune(gf.new_genealogy(2)))]
    for read in readers:
        with pytest.raises(ValueError, match=r"x0 .* is not a state of 2 finite whole numbers"):
            read()


def test_history_density_zero_rate_event_is_impossible():
    spec = lbdp(0.0, 1.0, 0.0, 1)
    birth = 0
    h = History(1.0, (1, 0), ((0.5, birth),))
    assert history_log_density(spec, h) == -math.inf


def leaky_death_spec():
    # the death rate 0.5 n - 0.75 turns negative once a death takes n from 2 to 1
    base = lbdp(0.0, 1.0, 0.5, 2)
    return gf.ModelSpec("leaky", 2, base.events,
                        (base.rates[0], lambda t, x: 0.5 * x[..., 0] - 0.75, base.rates[2]),
                        base.init_sample, base.init_pmf, base.focal_dim,
                        bookkeeping_dims=(1,))


def test_history_density_rejects_negative_rates():
    spec = leaky_death_spec()
    h = History(5.0, (2, 0), ((0.5, 1),))
    with pytest.raises(SimulationError, match="'death' has rate -0.25 at t=0.5 in state \\(1, 0\\)"):
        history_log_density(spec, h)
    with pytest.raises(SimulationError, match="'death' has rate -0.25"):
        _rate_integral(spec, (1, 0), 0.5, 5.0)


# ---------------------------------------------------------------------------
# Master equation


@settings(max_examples=60, deadline=None, database=None)
@given(states=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1),
       probes=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5))))
def test_state_lattice_rows_match_a_dict_of_tuples(states, probes):
    # duplicates collapse to one row; rows keep lexicographic order, and a
    # probe off the lattice, in its bounding box or outside it, maps to -1
    lattice = gf.StateLattice(states, 2)
    ordered = sorted(set(states))
    reference = {s: i for i, s in enumerate(ordered)}
    assert lattice.states.tolist() == [list(s) for s in ordered]
    queries = states + probes
    assert lattice.rows(queries).tolist() == [reference.get(s, -1) for s in queries]
    assert [lattice.row_of(s) for s in queries] == [reference.get(s) for s in queries]
    for disp in ((1, 0), (0, -1), (2, -2)):
        src, dst = lattice.transition(disp)
        want = [(i, reference[(a + disp[0], b + disp[1])]) for i, (a, b) in enumerate(ordered)
                if (a + disp[0], b + disp[1]) in reference]
        assert list(zip(src.tolist(), dst.tolist())) == want


def test_state_lattice_of_shuffled_duplicates_is_that_of_sorted_unique_rows():
    rng = np.random.default_rng(21)
    unique = [(a, b, c) for a in range(-2, 5) for b in range(3) for c in range(-1, 4)
              if (a + b + c) % 3]
    rows = [unique[i] for i in rng.permutation(np.repeat(np.arange(len(unique)), 3))]
    want = gf.StateLattice(unique, 3)
    probes = rng.integers(-4, 7, size=(200, 3))
    for states in (rows, np.array(rows)):
        lattice = gf.StateLattice(states, 3)
        assert lattice.size == len(unique)
        assert lattice.states.tolist() == [list(s) for s in unique]
        assert np.array_equal(lattice.rows(states), want.rows(states))
        assert np.array_equal(lattice.rows(probes), want.rows(probes))
        assert lattice.rows(unique).tolist() == list(range(len(unique)))


def test_kfe_pure_death_survival_probability():
    delta = 0.9
    spec = lbdp(0.0, delta, 0.0, 1)
    pmf = gf.kfe_integrate(spec, [(0, 0), (1, 0)], {(1, 0): 1.0}, 0.0, 2.0)
    assert abs(pmf[(1, 0)] - math.exp(-2.0 * delta)) < 1e-8
    assert abs(sum(pmf.values()) - 1.0) < 1e-8


def random_generator(rng, n, leak):
    """Dense n-state generator: nonnegative off-diagonals, columns summing to -leak."""
    A = rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(A, 0.0)
    A -= np.diag(A.sum(axis=0) + leak)
    return A


def as_generator(A):
    """Dense square ``A`` as a `Generator`, entry for entry: one channel on
    its nonzero cells off the diagonal, and the diagonal."""
    dst, src = np.nonzero((A != 0.0) & ~np.eye(len(A), dtype=bool))
    p = gf.population._assemble_pattern(len(A), [(src, dst)])
    data = np.bincount(p.cell, weights=np.concatenate([A[dst, src], np.diag(A)]),
                       minlength=len(p.indices))
    return gf.population.Generator(p, data)


@pytest.mark.parametrize("dt", [0.01, 0.7, 4.0])
def test_uniformized_matches_expm_on_a_dense_generator(dt):
    rng = np.random.default_rng(17)
    A = random_generator(rng, 6, rng.random(6))
    w = rng.random(6)
    got = _uniformized(as_generator(A), w, dt, 1e-8)
    want = expm(dt * A) @ w
    assert np.abs(got - want).max() < 1e-13
    assert (got >= 0.0).all()


def test_uniformized_splits_a_long_step():
    # lam * dt = 1200 is cut into three substeps of mean 400; in one step
    # exp(-1200) would underflow to 0 and so would the result
    A = np.array([[-2.0, 1.0], [2.0, -1.0]])
    got = _uniformized(as_generator(A), np.array([0.3, 0.7]), 600.0, 1e-8)
    assert np.abs(got - [1 / 3, 2 / 3]).max() < 1e-13


def test_uniformized_matches_the_pure_death_law():
    # n individuals each dying at rate delta: Binomial(n, exp(-delta t)) survive
    n, delta, t = 12, 0.8, 1.3
    A = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        A[k, k] = -delta * k
        A[k - 1, k] = delta * k
    w = np.zeros(n + 1)
    w[n] = 1.0
    got = _uniformized(as_generator(A), w, t, 1e-8)
    p = math.exp(-delta * t)
    want = [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
    assert np.abs(got - want).max() < 1e-13


def reference_uniformized(A, w, dt, tol):
    """The series by Horner's rule in scipy's public operations, which
    `_uniformized` must match bit for bit.

    acc = p_K w, then acc = p_k w + P acc for k = K - 1 down to 0.  Each step
    is one product by the stacked matrix [I P] with [p_k w; acc], so that
    each row's sum starts from p_k w_i and adds P's entries in column order,
    the order of the library's kernel, which adds into a buffer holding p_k w.
    """
    diagonal = A.diagonal()
    lam = float(-diagonal.min())
    if lam <= 0.0 or dt <= 0.0:
        return w.copy()
    n_sub = math.ceil(lam * dt / 500.0)
    mean = lam * dt / n_sub
    target = tol * 1e-6 / n_sub
    P = A * (1.0 / lam)
    P.setdiag(diagonal * (1.0 / lam) + 1.0)
    stacked = hstack([identity(A.shape[0]), P], format="csr")
    for _ in range(n_sub):
        p = math.exp(-mean)
        weights = [p]
        k = 0
        while True:
            p *= mean / (k + 1)
            if k + 2 > mean and p * (k + 2) / (k + 2 - mean) <= target:
                break
            k += 1
            weights.append(p)
        acc = weights[-1] * w
        for p_k in weights[-2::-1]:
            acc = stacked @ np.concatenate([p_k * w, acc])
        w = acc
    return w


def bit_for_bit_case(seed):
    """A 40-state generator with a zeroed column, whose diagonal entry is
    zero, and a weight vector with some zeros."""
    rng = np.random.default_rng(seed)
    dense = random_generator(rng, 40, rng.random(40) * (rng.random(40) < 0.5))
    dense[:, 7] = 0.0
    return dense, rng.random(40) * (rng.random(40) < 0.8)


# lam dt of 1300 is cut into three substeps; a zeroed column's diagonal
# cell holds an explicit zero, to which both sides add 1
@pytest.mark.parametrize("mean", [0.02, 3.0, 140.0, 499.0, 1300.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_uniformized_is_the_reference_series_bit_for_bit(seed, mean):
    dense, w = bit_for_bit_case(seed)
    G = as_generator(dense)
    A = G.tocsr()
    lam = -A.diagonal().min()
    for tol in (1e-8, 1e-12):
        got = _uniformized(G, w, mean / lam, tol)
        want = reference_uniformized(A, w, mean / lam, tol)
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(A.toarray(), dense)


# the tail bound is a share of w's 1-norm, so w carries unit mass, as the
# oracle's weights do after each event
@pytest.mark.parametrize("mean", [0.02, 3.0, 140.0, 499.0, 1300.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_uniformized_matches_expm_on_the_bit_for_bit_generators(seed, mean):
    dense, w = bit_for_bit_case(seed)
    w = w / w.sum()
    dt = mean / -dense.diagonal().min()
    for tol in (1e-8, 1e-12):
        got = _uniformized(as_generator(dense), w, dt, tol)
        assert np.abs(got - expm(dt * dense) @ w).max() < 1e-13
        assert (got >= 0.0).all()


def test_uniformized_stops_at_a_tiny_tol(monkeypatch):
    # lam * dt is about 11; the Poisson weights fall below the smallest
    # double near term 314, so the series cannot run on
    rng = np.random.default_rng(5)
    A = random_generator(rng, 5, 0.0)
    G = as_generator(A)
    products = []
    matvec = _sparsetools.csr_matvec

    def counting(*args):
        products.append(1)
        return matvec(*args)
    monkeypatch.setattr(_sparsetools, "csr_matvec", counting)  # read by each call
    mean = -A.diagonal().min() * 2.0
    got = _uniformized(G, np.full(5, 0.2), 2.0, 1e-300)
    assert np.isfinite(got).all()
    assert mean < len(products) <= 320


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_integrate_linear_rejects_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        gf.integrate_linear(lambda t, w: -w, np.ones(2), 0.0, 1.0, tol)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_kfe_integrate_rejects_a_bad_tol(tol):
    spec = lbdp(0.0, 0.9, 0.0, 1)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        gf.kfe_integrate(spec, [(0, 0), (1, 0)], {(1, 0): 1.0}, 0.0, 2.0, tol=tol)


def test_kfe_integrate_rejects_a_reversed_interval():
    # constant rates take the uniformized step, not RK45, so no integrator sees the order
    spec = lbdp(0.0, 0.9, 0.0, 1)
    trunc = [(0, 0), (1, 0)]
    with pytest.raises(ValueError, match="t1 < t0"):
        gf.kfe_integrate(spec, trunc, {(1, 0): 1.0}, 1.0, 0.5)
    lattice = gf.StateLattice(trunc, spec.d)
    with pytest.raises(ValueError, match="t1 < t0"):
        gf.population._integrate_epochs(
            spec, lambda t: gf.population._generator(lattice, spec.displacements,
                                                     spec.rate_matrix(t, lattice.states)),
            np.array([0.0, 1.0]), 1.0, 0.5, 1e-8)
    assert gf.kfe_integrate(spec, trunc, {(1, 0): 1.0}, 0.5, 0.5) == {(0, 0): 0.0, (1, 0): 1.0}


def chi_square_within_4_sigma(expected, counts):
    """Pearson chi-square over buckets with expected count >= 10, the rest pooled."""
    order = np.argsort(-expected)
    chi2, used, rest_e, rest_o = 0.0, 0, 0.0, 0.0
    for idx in order:
        if expected[idx] >= 10:
            chi2 += (counts[idx] - expected[idx]) ** 2 / expected[idx]
            used += 1
        else:
            rest_e += expected[idx]
            rest_o += counts[idx]
    if rest_e > 0:
        chi2 += (rest_o - rest_e) ** 2 / rest_e
        used += 1
    df = used - 1
    # mean df, sd sqrt(2 df); allow 4 sigma
    assert chi2 < df + 4 * math.sqrt(2 * df), (chi2, df)


def test_kfe_matches_simulated_endpoint_distribution():
    spec = lbdp(0.9, 0.5, 0.0, 2)
    horizon = 1.5
    n_max = 40
    trunc = [(n, 0) for n in range(n_max + 1)]
    pmf = gf.kfe_integrate(spec, trunc, {(2, 0): 1.0}, 0.0, horizon)
    rng = np.random.default_rng(17)
    reps = 10000
    counts = np.zeros(n_max + 1)
    for _ in range(reps):
        traj = gf.simulate(spec, horizon, rng)
        n = int(state_at(spec, traj, horizon)[0])
        counts[min(n, n_max)] += 1
    expected = np.array([pmf[(n, 0)] for n in range(n_max + 1)]) * reps
    chi_square_within_4_sigma(expected, counts)


def simulated_law_matches_kfe(spec, trunc, x0, horizon, seed, reps=6000):
    """Chi-square of simulated states at ``horizon`` against `kfe_integrate` on ``trunc``."""
    pmf = gf.kfe_integrate(spec, trunc, {x0: 1.0}, 0.0, horizon, tol=1e-10)
    index = {s: i for i, s in enumerate(trunc)}
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(trunc))
    for _ in range(reps):
        traj = gf.simulate(spec, horizon, rng)
        counts[index[tuple(int(v) for v in state_at(spec, traj, horizon))]] += 1
    expected = np.array([pmf[s] for s in trunc]) * reps
    chi_square_within_4_sigma(expected, counts)


def test_per_epoch_simulation_matches_kfe_on_two_breakpoint_sirs():
    # exponential clocks restart at each breakpoint of beta; the law at the
    # horizon must still solve the master equation epoch by epoch
    beta = gf.PiecewiseConstant((0.5, 1.2), (0.9, 0.25, 0.6))
    params = gf.SIRSParams(beta, 0.5, 0.0, 0.8, 6, 2)
    spec = gf.sirs_spec(params)
    assert spec.rate_breakpoints == (0.5, 1.2) and not spec.varies_within_epochs
    simulated_law_matches_kfe(spec, gf.sirs_truncation(params), (6, 2, 0, 0), 2.0, 43)


def test_thinned_simulation_matches_kfe_beside_an_unbounded_channel():
    # one uniform both accepts a candidate against the bounded death and
    # picks between it and the unbounded tick
    _, spec = piecewise_death_spec(bounded=True)
    assert spec.bound_mask.tolist() == [True, False]
    trunc = [(n, ticks) for n in (0, 1) for ticks in range(13)]
    simulated_law_matches_kfe(spec, trunc, (1, 0), 1.4, 47)


def test_kfe_time_dependent_survival():
    # one-channel pure death with a piecewise rate; survival is
    # exp(-integral of the rate)
    delta = gf.PiecewiseConstant(times=(0.6,), values=(2.0, 0.3))
    events = (gf.EventType("death", (-1,), is_death=True),)
    spec = make_spec(events, (lambda t, x: delta(t) * x[..., 0],), (1,),
                     0,
                     rate_bounds=(lambda t0, t1, x: max(delta.values) * float(x[..., 0]),),
                     rate_breakpoints=delta.times)
    horizon = 1.4
    integral = 2.0 * 0.6 + 0.3 * (horizon - 0.6)
    pmf = gf.kfe_integrate(spec, [(0,), (1,)], {(1,): 1.0}, 0.0, horizon, tol=1e-10)
    assert abs(pmf[(1,)] - math.exp(-integral)) < 1e-8
    # thinning-based simulation agrees on the survival fraction
    rng = np.random.default_rng(23)
    reps = 20000
    survived = sum(len(gf.simulate(spec, horizon, rng).jumps) == 0
                   for _ in range(reps))
    p = math.exp(-integral)
    sd = math.sqrt(p * (1 - p) / reps)
    assert abs(survived / reps - p) < 4 * sd
    # the history density integrates the rate across the breakpoint exactly
    h = History(horizon, (1,), ())
    prob = math.exp(history_log_density(spec, h)) * math.exp(-spec.mu * horizon)
    assert abs(prob - p) < 1e-12


def piecewise_death_spec(bounded=False):
    """A step-function death rate; ``bounded`` declares it continuous by giving a bound."""
    delta = gf.PiecewiseConstant(times=(0.6, 0.9), values=(2.0, 0.3, 1.1))
    events = (gf.EventType("death", (-1, 0), is_death=True), gf.EventType("tick", (0, 1)))
    bound = lambda t0, t1, x: max(delta.values) * float(x[..., 0])
    return delta, make_spec(
        events, (lambda t, x: delta(t) * x[..., 0], lambda t, x: 0.25 + 0.0 * x[..., 0]),
        (1, 0), 0,
        rate_bounds=(bound if bounded else None, None), rate_breakpoints=delta.times)


def test_epochs_cut_at_breakpoints_strictly_inside():
    _, spec = piecewise_death_spec()
    assert spec.epochs(0.0, 2.0) == [(0.0, 0.6), (0.6, 0.9), (0.9, 2.0)]
    assert spec.epochs(0.6, 0.9) == [(0.6, 0.9)]
    assert spec.epochs(0.7, 0.9) == [(0.7, 0.9)]
    assert spec.epochs(0.0, 0.5) == [(0.0, 0.5)]
    assert spec.epochs(1.0, 3.0) == [(1.0, 3.0)]
    assert spec.varies_within_epochs is False
    assert piecewise_death_spec(bounded=True)[1].varies_within_epochs is True
    assert lbdp(1.0, 1.0, 1.0, 2).epochs(0.0, 1.0) == [(0.0, 1.0)]


def test_rate_integral_is_exact_on_piecewise_rates():
    delta, spec = piecewise_death_spec()
    x = (3, 0)
    want = 3 * (2.0 * 0.6 + 0.3 * 0.3 + 1.1 * (1.7 - 0.9)) + 0.25 * (1.7 - 0.1) - 3 * 2.0 * 0.1
    assert abs(_rate_integral(spec, x, 0.1, 1.7) - want) <= 1e-14 * want
    assert abs(_rate_integral(spec, x, 0.1, 1.7, channels=[1]) - 0.25 * 1.6) <= 1e-15
    # the same rates declared continuous go through quadrature and agree
    _, continuous = piecewise_death_spec(bounded=True)
    assert _rate_integral(continuous, x, 0.1, 1.7) == pytest.approx(want, rel=1e-9)


def test_kfe_and_history_density_on_declared_piecewise_rates():
    _, spec = piecewise_death_spec()
    horizon = 1.4
    integral = 2.0 * 0.6 + 0.3 * 0.3 + 1.1 * (horizon - 0.9)
    survival = integral + 0.25 * horizon
    # ticks leave the truncation, so (1, 0) keeps the mass of no event at all
    pmf = gf.kfe_integrate(spec, [(0, 0), (1, 0)], {(1, 0): 1.0}, 0.0, horizon, tol=1e-10)
    assert abs(pmf[(1, 0)] - math.exp(-survival)) < 1e-8
    h = History(horizon, (1, 0), ())
    assert abs(history_log_density(spec, h) - (spec.mu * horizon - survival)) < 1e-14


def per_event_history_log_density(spec, h):
    """`history_log_density` as it was first written: scalar rate reads, one event at a time."""
    x = np.asarray(h.x0, dtype=np.int64)
    p0 = float(spec.init_pmf(x))
    if p0 <= 0.0:
        return -math.inf
    logp = math.log(p0)
    survival = 0.0
    t_prev = 0.0
    for t, k in h.events:
        if not 0.0 < t <= h.horizon or t < t_prev:
            raise ValueError(f"event time {t} is outside (0, {h.horizon}] or unordered")
        survival += _rate_integral(spec, x, t_prev, t)
        r = spec.rate(k, t, x)
        if r <= 0.0:
            return -math.inf
        logp += math.log(r / spec.mu)
        x = x + spec.displacements[k]
        t_prev = t
    survival += _rate_integral(spec, x, t_prev, h.horizon)
    return logp + spec.mu * h.horizon - survival


def density_outcome(fn, spec, h):
    try:
        return fn(spec, h)
    except SimulationError as err:
        return str(err)


def assert_density_matches_reference(spec, h):
    want = density_outcome(per_event_history_log_density, spec, h)
    got = density_outcome(history_log_density, spec, h)
    if isinstance(want, str) or want == -math.inf:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def stepped_sir(s0=20, i0=3):
    beta = gf.PiecewiseConstant(times=(0.5, 1.0), values=(0.1, 0.04, 0.15))
    return gf.sir_spec(gf.SIRParams(beta, 0.8, 0.9, s0=s0, i0=i0))


# (spec, x0, horizon): constant rates, steps, a bounded channel, negative rates
DENSITY_MODELS = {
    "lbdp": lambda: (lbdp(1.2, 0.6, 0.9, 3), (3, 0), 1.5),
    "sir-steps": lambda: (stepped_sir(), (20, 3, 0, 0), 1.5),
    "death-steps": lambda: (piecewise_death_spec()[1], (3, 0), 1.4),
    "death-bounded": lambda: (piecewise_death_spec(bounded=True)[1], (3, 0), 1.4),
    "leaky": lambda: (leaky_death_spec(), (2, 0), 1.0),
}


@settings(max_examples=80, deadline=None, database=None)
@given(model=st.sampled_from(sorted(DENSITY_MODELS)), data=st.data())
def test_history_density_matches_per_event_reference(model, data):
    # random histories, possible or not: jumps at breakpoints, tied jumps,
    # jumps at the horizon, zero-rate jumps and states with negative rates
    spec, x0, horizon = DENSITY_MODELS[model]()
    time = st.one_of(st.floats(0.0, horizon, exclude_min=True),
                     st.sampled_from([*spec.rate_breakpoints, horizon]))
    events = data.draw(st.lists(st.tuples(time, st.integers(0, spec.n_events - 1)),
                                max_size=12))
    assert_density_matches_reference(spec, History(horizon, x0, tuple(sorted(events))))


@pytest.mark.parametrize("spec,horizon,seed", [
    (gf.sir_spec(gf.SIRParams(0.0025, 1.0, 0.3, 990, 10)), 4.0, 5),
    (stepped_sir(s0=97), 1.5, 11),
], ids=["sir1000", "sir-steps"])
def test_history_density_matches_per_event_reference_on_simulated_histories(spec, horizon, seed):
    h = to_history(gf.simulate(spec, horizon, np.random.default_rng(seed)))
    assert len(h.events) >= 100
    assert_density_matches_reference(spec, h)


def test_history_density_reads_rates_once_per_epoch(monkeypatch):
    spec = stepped_sir(s0=97)
    h = to_history(gf.simulate(spec, 1.5, np.random.default_rng(11)))
    calls = {"rate_matrix": 0, "rate": 0}
    rate_matrix, rate = gf.ModelSpec.rate_matrix, gf.ModelSpec.rate

    def counting_rate_matrix(self, t, states):
        calls["rate_matrix"] += 1
        return rate_matrix(self, t, states)

    def counting_rate(self, k, t, x):
        calls["rate"] += 1
        return rate(self, k, t, x)
    monkeypatch.setattr(gf.ModelSpec, "rate_matrix", counting_rate_matrix)
    monkeypatch.setattr(gf.ModelSpec, "rate", counting_rate)
    assert math.isfinite(history_log_density(spec, h))
    assert 0 < calls["rate_matrix"] <= 2 * len(spec.epochs(0.0, h.horizon))
    assert calls["rate"] == 0


def test_history_density_impossible_jump_wins_over_a_later_negative_rate():
    # the second death leaves n = -1, where every rate is negative; the death
    # into it already had rate zero
    spec = lbdp(1.0, 1.0, 0.0, 1)
    h = History(1.0, (1, 0), ((0.2, 1), (0.5, 1)))
    assert history_log_density(spec, h) == -math.inf
    assert per_event_history_log_density(spec, h) == -math.inf


def test_integrate_linear_names_the_failure_time():
    def rhs(t, w):
        return np.full_like(w, np.nan) if t > 0.5 else -w
    with pytest.raises(gf.IntegrationError, match="failed near t=0"):
        gf.integrate_linear(rhs, np.ones(2), 0.0, 1.0, 1e-6)


def test_thinning_detects_a_lying_bound():
    events = (gf.EventType("death", (-1,), is_death=True),)
    spec = make_spec(events, (lambda t, x: (2.0 + t) * x[..., 0],), (1,),
                     0,
                     rate_bounds=(lambda t0, t1, x: 0.5,))
    with pytest.raises(SimulationError, match="exceeds its bound"):
        gf.simulate(spec, 5.0, np.random.default_rng(3))
    visible = gf.prune(replace(gf.new_genealogy(1), time=5.0))
    with pytest.raises(SimulationError, match=r"exceeds its bound 0.5 on \[0.0, 5.0\]"):
        gf.smc_loglik(spec, visible, gf.FilterConfig(20, seed=3))


def test_model_spec_needs_one_bound_entry_per_event():
    events = (gf.EventType("death", (-1,), is_death=True),)
    rates = (lambda t, x: 1.0 * x[..., 0],)
    for bounds in ((), (None, None), (0.5,)):
        with pytest.raises(ValueError, match="one callable or None per event"):
            make_spec(events, rates, (1,), 0, rate_bounds=bounds)


class NoCandidates(np.random.Generator):
    """A generator that fails the test if a thinning candidate time is drawn."""

    def exponential(self, *args, **kwargs):
        raise AssertionError("a candidate time was drawn")


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_bad_rate_bound_is_a_model_error(value):
    events = (gf.EventType("death", (-1,), is_death=True),)
    spec = make_spec(events, (lambda t, x: 2.0 * x[..., 0],), (3,), 0,
                     rate_bounds=(lambda t0, t1, x: value,))
    message = rf"'death' has rate bound {value} on \[0.0, 5.0\] in state \(3,\)"
    with pytest.raises(SimulationError, match=message):
        gf.simulate(spec, 5.0, NoCandidates(np.random.PCG64(3)))
    visible = gf.prune(replace(gf.new_genealogy(1), time=5.0))
    with pytest.raises(SimulationError, match=message):
        gf.smc_loglik(spec, visible, gf.FilterConfig(20), rng=NoCandidates(np.random.PCG64(4)))


# ---------------------------------------------------------------------------
# Serialization


def test_trajectory_round_trip(tmp_path):
    spec = lbdp(1.4, 0.6, 0.9, 3)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(31))
    gf.write_trajectory(tmp_path / "run", spec, traj, seed=31,
                        provenance={"tool": "test"})
    back, head = gf.read_trajectory(tmp_path / "run")
    assert back == traj
    assert head["kind"] == "jumps"
    assert head["seed"] == 31
    assert head["provenance"] == {"tool": "test"}
    assert head["params"]["birth_rate"] == 1.4


def test_read_trajectory_rejects_a_history_file(tmp_path):
    # a trajectory file holds jumps: a header of another kind is refused even
    # when the rows would read as jumps
    spec = lbdp(1.4, 0.6, 0.9, 3)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(37))
    _, json_path = gf.write_trajectory(tmp_path / "run", spec, traj)
    json_path.write_text(json.dumps({**json.loads(json_path.read_text()), "kind": "history"}))
    with pytest.raises(ValueError, match=r"run\.json: trajectory kind 'history' is not 'jumps'"):
        gf.read_trajectory(tmp_path / "run")


@pytest.mark.parametrize("x0", [[True, 0], [1, False], "12", 5, None])
def test_read_trajectory_rejects_an_x0_that_is_not_a_list_of_numbers(tmp_path, x0):
    # a JSON true was read as 1 and "12" as (1, 2); 5 and null raised TypeError
    spec = lbdp(1.0, 1.0, 0.0, 1)
    traj = gf.simulate(spec, 0.5, np.random.default_rng(2))
    _, json_path = gf.write_trajectory(tmp_path / "run", spec, traj)
    json_path.write_text(json.dumps({**json.loads(json_path.read_text()), "x0": x0}))
    with pytest.raises(ValueError, match=r"run\.json: x0 .* is not a list of finite whole numbers"):
        gf.read_trajectory(tmp_path / "run")


def test_read_trajectory_errors_name_the_line(tmp_path):
    spec = lbdp(1.0, 1.0, 0.0, 1)
    traj = gf.simulate(spec, 0.5, np.random.default_rng(2))
    csv_path, _ = gf.write_trajectory(tmp_path / "run", spec, traj)
    text = csv_path.read_text().splitlines()
    text.append("0.25,not_an_event,0")
    csv_path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=rf"run\.csv:{len(text)}"):
        gf.read_trajectory(tmp_path / "run")


def test_written_files_are_stable(tmp_path):
    spec = lbdp(1.4, 0.6, 0.9, 3)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(41))
    a = gf.write_trajectory(tmp_path / "a", spec, traj, seed=41)
    b = gf.write_trajectory(tmp_path / "b", spec, traj, seed=41)
    assert a[0].read_text() == b[0].read_text()
    assert a[1].read_text() == b[1].read_text()
