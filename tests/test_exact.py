"""The two closed-form likelihood routes and their per-event factors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import genfilter as gf
from genfilter.exact import ExactError, q_factor
from genfilter.population import History, Jump, JumpSequence, state_at
from stochastic import z_verdict


def lbdp(lam, delta, psi, n0):
    return gf.lbdp_spec(gf.LBDPParams(lam, delta, psi, n0))


BIRTH, DEATH, SAMPLE = 0, 1, 2  # channel order in the stock models


def iter_transitions(spec, obj):
    """Yield ``(time, event, x_pre, x_post)`` along a JumpSequence or History."""
    if isinstance(obj, JumpSequence):
        events = [(j.time, j.event) for j in obj.jumps]
        x0 = obj.x0
    else:
        events = list(obj.events)
        x0 = obj.x0
    x = np.asarray(x0, dtype=np.int64).copy()
    for t, k in events:
        pre = x.copy()
        x = x + spec.displacements[k]
        yield t, k, pre, x.copy()


# ---------------------------------------------------------------------------
# q_factor unit behavior


def q(**kw):
    """`q_factor` on one (lineage, event) pair, the given fields over a neutral default."""
    base = dict(kind="other", focal=3, lineages=1, in_window=True,
                at_attachment=False, at_prior_attachment=False,
                attach_kind="root")
    base.update(kw)
    return q_factor(**base)


def test_q_factor_neutral_cases_are_one():
    assert q(in_window=False, kind="sample") == (1.0, True)
    assert q(kind="other") == (1.0, True)
    assert q(kind="birth", at_prior_attachment=True) == (1.0, True)


def test_q_factor_sample_interior():
    value, ok = q(kind="sample", focal=5, lineages=2)
    assert ok and abs(value - 2.0 / 3.0) < 1e-15


def test_q_factor_sample_at_attachment():
    value, ok = q(kind="sample", focal=5, lineages=2,
                  at_attachment=True, attach_kind="direct")
    assert ok and abs(value - 1.0 / 3.0) < 1e-15
    # a sample event cannot host a coalescence attachment
    value, ok = q(kind="sample", focal=5, lineages=2,
                  at_attachment=True, attach_kind="coalescence")
    assert (value, ok) == (0.0, False)


def test_q_factor_birth_interior_and_at_attachment():
    # I=4 after the birth, one earlier lineage crossing
    value, ok = q(kind="birth", focal=4, lineages=1)
    assert ok and abs(value - (1.0 - 1.0 / 6.0)) < 1e-15
    value, ok = q(kind="birth", focal=4, lineages=1,
                  at_attachment=True, attach_kind="coalescence")
    assert ok and abs(value - 1.0 / 6.0) < 1e-15


def test_q_factor_counting_incompatibilities():
    assert q(kind="sample", focal=2, lineages=2) == (0.0, False)
    assert q(kind="birth", focal=2, lineages=2) == (0.0, False)
    assert q(kind="birth", focal=2, lineages=2,
             at_attachment=True, attach_kind="coalescence") == (0.0, False)


def test_q_factor_on_arrays_matches_scalar_calls():
    # every combination of the arguments, which covers each branch:
    # neutral, sample and birth in the interior and at the attachment, and
    # each counting incompatibility
    combos = list(itertools.product(
        ["birth", "sample", "other"], range(5), range(4), [True, False], [True, False],
        [True, False], ["root", "coalescence", "direct"]))
    fields = ("kind", "focal", "lineages", "in_window", "at_attachment",
              "at_prior_attachment", "attach_kind")
    columns = {f: np.array(col) for f, col in zip(fields, zip(*combos))}
    values, compatible = q_factor(**columns)
    assert values.shape == compatible.shape == (len(combos),)
    for i, combo in enumerate(combos):
        value, ok = q_factor(*combo)
        assert type(value) is float and type(ok) is bool
        assert (values[i], compatible[i]) == (value, ok), combo
    assert compatible.any() and not compatible.all()
    assert {1.0, 0.0} < set(values.tolist())


# ---------------------------------------------------------------------------
# Shared event factors


def reference_factor(kind, size, ell):
    """The recursion's factors, spelt out case by case."""
    if kind == "hidden birth":
        if size < ell:
            return 0.0
        return 1.0 - math.comb(ell, 2) / math.comb(size, 2) if ell >= 2 else 1.0
    if size < max(ell, 2 if kind == "coalescence" else 1):
        return 0.0
    if kind == "coalescence":
        return 1.0 / math.comb(size, 2)
    return 1.0 / size if kind == "direct" else 1.0 - ell / size


EDGE_CASES = sorted(
    {(size, ell) for ell in range(4) for size in (ell - 1, ell, ell + 1)}
    | {(size, ell) for size in range(3) for ell in range(3)})


@pytest.mark.parametrize("kind", ["coalescence", "direct", "leaf", "hidden birth"])
@pytest.mark.parametrize("size,ell", EDGE_CASES)
def test_factor_edges(kind, size, ell):
    def factor(sizes):
        if kind == "hidden birth":
            return gf.hidden_birth_factor(sizes, ell)
        return gf.event_factor(kind, sizes, ell)

    with np.errstate(all="raise"):
        got = float(factor(size))
        batch = factor(np.array([size, size + 5, max(size - 5, 0)]))
    assert got == pytest.approx(reference_factor(kind, size, ell), rel=1e-15, abs=0)
    assert 0.0 <= got <= 1.0
    assert batch[0] == got
    assert batch[1] == pytest.approx(reference_factor(kind, size + 5, ell), rel=1e-15, abs=0)


def test_event_factor_rejects_unknown_kind():
    with pytest.raises(ValueError, match="birth"):
        gf.event_factor("birth", 3, 1)


# ---------------------------------------------------------------------------
# Whole-trajectory routes


def test_single_sample_without_births_is_certain():
    spec = lbdp(0.0, 0.0, 1.0, 1)
    traj = JumpSequence((1, 0), (Jump(0.4, SAMPLE, 0),), 1.0)
    assert gf.loglik_lineages(spec, traj) == 0.0
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert gf.loglik_events(spec, gf.to_history(traj), visible) == 0.0


def test_no_samples_gives_empty_product():
    spec = lbdp(1.0, 0.5, 0.0, 2)
    traj = gf.simulate(spec, 1.0, np.random.default_rng(0))
    assert gf.loglik_lineages(spec, traj) == 0.0


def test_routes_agree_on_random_lbdp():
    spec = lbdp(1.4, 0.7, 0.9, 2)
    rng = np.random.default_rng(51)
    done = 0
    while done < 40:
        traj = gf.simulate(spec, 2.5, rng)
        visible = gf.prune(gf.build_genealogy(spec, traj)[0])
        if not visible.nodes:
            continue
        a = gf.loglik_lineages(spec, traj)
        b = gf.loglik_events(spec, gf.to_history(traj), visible)
        assert a <= 1e-12  # a log probability
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        done += 1


def test_routes_agree_on_random_sir():
    spec = gf.sir_spec(gf.SIRParams(transmission_rate=0.12, recovery_rate=0.8,
                                    sampling_rate=0.9, s0=18, i0=3))
    rng = np.random.default_rng(52)
    done = 0
    while done < 40:
        traj = gf.simulate(spec, 3.0, rng)
        visible = gf.prune(gf.build_genealogy(spec, traj)[0])
        if not visible.nodes:
            continue
        a = gf.loglik_lineages(spec, traj)
        b = gf.loglik_events(spec, gf.to_history(traj), visible)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        done += 1


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["lbdp", "sir"]),
       rates=st.tuples(*(st.floats(0.1, 1.5),) * 3),
       size=st.integers(1, 4))
def test_routes_agree_on_random_models(seed, model, rates, size):
    if model == "lbdp":
        spec = lbdp(*rates, size)
    else:
        beta = rates[0] / 15.0
        spec = gf.sir_spec(gf.SIRParams(beta, rates[1], rates[2], s0=5 * size + 10, i0=size))
    traj = gf.simulate(spec, 1.5, np.random.default_rng(seed))
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    a = gf.loglik_lineages(spec, traj)
    b = gf.loglik_events(spec, gf.to_history(traj), visible)
    assert math.isfinite(a) and a <= 1e-12
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def mass_action(c, level, factors):
    """``c * level(t)`` times the coordinates ``factors`` of the state."""
    def rate(t, x):
        r = np.full(x.shape[:-1], c * level(t))
        for i in factors:
            r = r * x[..., i]
        return r
    return rate


@st.composite
def small_models(draw):
    """A model on 2-3 active coordinates and a trailing sampling counter, with a seed.

    Its displacements are distinct, move the focal coordinate by +1 for a
    birth, -1 for a death and 0 otherwise, and move each other coordinate
    by at most 1.  Each rate is a constant, piecewise in time or not, times
    the coordinates its channel decreases, and times the focal count for a
    marked channel, so no coordinate goes negative.
    """
    n = draw(st.integers(2, 3))
    focal = draw(st.integers(0, n - 1))
    rest = st.tuples(*[st.integers(-1, 1)] * (n - 1))

    def moves(step, lo, hi, of=rest):
        drawn = draw(st.lists(of, min_size=lo, max_size=hi, unique=True))
        return [(*r[:focal], step, *r[focal:], 0) for r in drawn]
    births, deaths = moves(1, 1, 2), moves(-1, 1, 2)
    others = moves(0, 0, 2, rest.filter(any))
    events = [*(gf.EventType(f"birth{j}", d, is_birth=True) for j, d in enumerate(births)),
              *(gf.EventType(f"death{j}", d, is_death=True) for j, d in enumerate(deaths)),
              *(gf.EventType(f"move{j}", d) for j, d in enumerate(others)),
              gf.EventType("sampling", (0,) * n + (1,), is_sample=True)]
    breaks = draw(st.sampled_from([(), (0.3,)]))
    level = gf.PiecewiseConstant(breaks, (1.0, draw(st.floats(0.2, 3.0)))) if breaks \
        else (lambda t: 1.0)
    rates = [mass_action(draw(st.floats(0.2, 1.5)), level,
                         {i for i in range(n) if ev.displacement[i] < 0 or
                          (ev.is_marked and i == focal)})
             for ev in events]
    x0 = np.array([draw(st.integers(1 if i == focal else 0, 4)) for i in range(n)] + [0])

    def init_sample(rng, size):
        return np.tile(x0, (size, 1))

    def init_pmf(x):
        return (np.asarray(x) == x0).all(axis=-1).astype(float)
    spec = gf.ModelSpec("small", n + 1, events, rates, init_sample, init_pmf, focal,
                        rate_breakpoints=breaks, bookkeeping_dims=(n,))
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, database=None)
@given(model=small_models())
def test_routes_agree_on_random_small_models(model):
    spec, seed = model
    try:
        traj = gf.simulate(spec, 2.0, np.random.default_rng(seed), max_jumps=400)
    except gf.SimulationError as err:
        assert "jump count exceeded cap" in str(err)
        assume(False)  # an outbreak too large for a quick check
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    a = gf.loglik_lineages(spec, traj)
    b = gf.loglik_events(spec, gf.to_history(traj), visible)
    assert math.isfinite(a) and a <= 1e-12
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# examples of the filter-against-oracle check, and its family-wise false-alarm
# rate, split evenly over them
SMALL_MODEL_EXAMPLES = 20
SMALL_MODEL_ALPHA = 1e-3


@settings(max_examples=SMALL_MODEL_EXAMPLES, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(model=small_models(), margin=st.integers(10, 16))
def test_filter_matches_the_oracle_on_random_small_models(model, margin):
    # the box holds every coordinate from 0 to ``margin`` above the most the
    # trajectory reached; a box that leaks is no reference and is set aside
    spec, seed = model
    try:
        traj = gf.simulate(spec, 1.0, np.random.default_rng(seed), max_jumps=200)
    except gf.SimulationError as err:
        assert "jump count exceeded cap" in str(err)
        assume(False)
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    n = len(spec.active_dims)
    steps = spec.displacements[[j.event for j in traj.jumps]].reshape(-1, spec.d)
    states = np.vstack([traj.x0, traj.x0 + np.cumsum(steps, axis=0)])
    top = states.max(axis=0)[:n] + margin
    box = [(*x, 0) for x in itertools.product(*(range(h + 1) for h in top))]
    oracle, grid = gf.oracle_loglik(spec, visible, box, return_grid=True)
    assume(gf.boundary_flux(spec, grid, t=visible.time) < 1e-6)
    estimates = gf.replicate_loglik(spec, visible, gf.FilterConfig(200, seed=seed), 40).estimates
    if np.ptp(estimates) < 1e-9:
        # no draw moves a weight, so every run is exact up to rounding
        assert np.mean(estimates) == pytest.approx(oracle, abs=1e-6)
        return
    verdict = z_verdict([(estimates, oracle)], SMALL_MODEL_ALPHA / SMALL_MODEL_EXAMPLES)
    assert verdict.ok, verdict


def per_pair_loglik_lineages(spec, traj):
    """`loglik_lineages` as one scalar `q_factor` call per (lineage, event) pair."""
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    chain = gf.embedded_chain(visible)
    if not chain:
        return 0.0

    times, kinds, focal = [], [], []
    for t, k, _, post in iter_transitions(spec, traj):
        times.append(t)
        ev = spec.events[k]
        kinds.append("birth" if ev.is_birth else "sample" if ev.is_sample else "other")
        focal.append(post[spec.focal_dim])
    times = np.asarray(times)

    total = 0.0
    for j, rec in enumerate(chain):
        a_j, s_j = rec.attach_time, rec.sample_time
        prior_attachments = {r.attach_time for r in chain[:j]}
        lo = int(np.searchsorted(times, a_j, side="left"))
        hi = int(np.searchsorted(times, s_j, side="left"))
        for k in range(lo, hi):
            t_k = float(times[k])
            crossing = sum(1 for r in chain[:j]
                           if r.attach_time <= t_k < r.sample_time)
            value, _ = q_factor(
                kind=kinds[k],
                focal=focal[k],
                lineages=crossing,
                in_window=True,
                at_attachment=(t_k == a_j),
                at_prior_attachment=(t_k in prior_attachments),
                attach_kind=rec.attach_kind,
            )
            if value <= 0.0:
                return -math.inf
            total += math.log(value)
    return total


def with_cull(spec, displacement):
    """``spec`` plus an unmarked channel that removes a focal individual.

    No valid model has one: the focal size would fall below the individuals
    the genealogy tracks, so building it raises ValueError naming the channel.
    """
    events = (*spec.events, gf.EventType("cull", displacement))
    return gf.ModelSpec(spec.name + "+cull", spec.d, events,
                        (*spec.rates, lambda t, x: 0.0 * x[..., 0]),
                        spec.init_sample, spec.init_pmf, spec.focal_dim,
                        bookkeeping_dims=spec.bookkeeping_dims)


CULL_ERROR = "event 'cull': focal size changes by -1, markers require 0"


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["lbdp", "sir"]),
       rates=st.tuples(*(st.floats(0.1, 1.5),) * 3),
       size=st.integers(1, 4),
       culls=st.integers(0, 3))
def test_lineage_route_matches_per_pair_reference(seed, model, rates, size, culls):
    if model == "lbdp":
        spec, cull = lbdp(*rates, size), (-1, 1)
    else:
        beta = rates[0] / 15.0
        spec = gf.sir_spec(gf.SIRParams(beta, rates[1], rates[2], s0=5 * size + 10, i0=size))
        cull = (0, -1, 0, 0)
    rng = np.random.default_rng(seed)
    traj = gf.simulate(spec, 1.5, rng)
    if culls:
        with pytest.raises(ValueError, match=CULL_ERROR):
            with_cull(spec, cull)
        return
    want = per_pair_loglik_lineages(spec, traj)
    got = gf.loglik_lineages(spec, traj)
    if want == -math.inf or got == -math.inf:
        assert want == got == -math.inf
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_lineage_route_reaches_minus_inf_with_the_reference():
    # the one spec that reached -inf here had a cull: an unmarked channel
    # taking an individual from the focal count, so that after it one
    # individual was counted while two lineages ran on.  It is now a fault
    # of the model, named when the spec is built.
    with pytest.raises(ValueError, match=CULL_ERROR):
        with_cull(lbdp(0.0, 0.0, 1.0, 2), (-1, 1))


def test_routes_agree_on_a_long_sir_genealogy():
    spec = gf.sir_spec(gf.SIRParams(0.0025, 1.0, 0.3, 990, 10))
    traj = gf.simulate(spec, 4.0, np.random.default_rng(5))
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert len(gf.embedded_chain(visible)) >= 150
    a = gf.loglik_lineages(spec, traj)
    b = gf.loglik_events(spec, gf.to_history(traj), visible)
    assert math.isfinite(a)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_lineage_route_calls_q_factor_once_per_lineage(monkeypatch):
    spec = gf.sir_spec(gf.SIRParams(0.12, 0.8, 0.9, s0=18, i0=3))
    traj = gf.simulate(spec, 3.0, np.random.default_rng(52))
    lineages = len(gf.embedded_chain(gf.prune(gf.build_genealogy(spec, traj)[0])))
    assert lineages >= 5
    calls = []

    def counting(*args):
        calls.append(args)
        return q_factor(*args)
    monkeypatch.setattr(gf.exact, "q_factor", counting)
    assert math.isfinite(gf.loglik_lineages(spec, traj))
    assert len(calls) == lineages


def per_event_loglik(spec, h, visible):
    """`loglik_events` as one scalar factor call per history event."""
    kinds = {t: kind for t, kind in gf.event_schedule(visible)}
    crossing = gf.LineageFunction(visible)
    total = 0.0
    for t, k, _, post in iter_transitions(spec, h):
        if t in kinds:
            factor = gf.event_factor(kinds[t], post[spec.focal_dim], crossing(t))
        elif spec.events[k].is_birth:
            factor = gf.hidden_birth_factor(post[spec.focal_dim], crossing(t))
        else:
            continue
        total += math.log(factor) if factor > 0.0 else -math.inf
    return total


def test_event_route_matches_per_event_loop():
    params = gf.SIRParams(0.0025, 1.0, 0.3, 990, 10)
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(5))
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    h = gf.to_history(traj)
    assert len(gf.event_schedule(visible)) >= 30
    want = per_event_loglik(spec, h, visible)
    assert math.isfinite(want)
    assert abs(gf.loglik_events(spec, h, visible) - want) <= 1e-12 * abs(want)


def forest_key(v):
    # initial individuals are exchangeable, so the likelihood is for the
    # forest as a multiset of trees, not for a particular root labelling
    return tuple(sorted(gf.to_newick(v).strip().split("\n")))


def test_route_matches_brute_force_enumeration():
    spec = lbdp(1.0, 0.5, 0.8, 2)
    rng = np.random.default_rng(53)
    done = 0
    while done < 8:
        traj = gf.simulate(spec, 1.6, rng)
        marked = [i for i, j in enumerate(traj.jumps)
                  if spec.events[j.event].is_marked]
        if not (1 <= len(marked) <= 6) or len(traj.jumps) > 9:
            continue
        sizes = [state_at(spec, traj, np.nextafter(traj.jumps[i].time, -np.inf))[spec.focal_dim]
                 for i in marked]
        target = forest_key(gf.prune(gf.build_genealogy(spec, traj)[0]))
        count = 0
        for combo in itertools.product(*[range(s) for s in sizes]):
            jumps = list(traj.jumps)
            for i, a in zip(marked, combo):
                jumps[i] = Jump(jumps[i].time, jumps[i].event, a)
            v2 = gf.prune(gf.build_genealogy(
                spec, JumpSequence(traj.x0, tuple(jumps), traj.t_end))[0])
            if forest_key(v2) == target:
                count += 1
        expect = count * math.exp(-sum(math.log(s) for s in sizes))
        got = math.exp(gf.loglik_lineages(spec, traj))
        assert abs(got - expect) <= 1e-12 * max(expect, 1e-12)
        done += 1


# ---------------------------------------------------------------------------
# Constructed single-pass cases


def two_leaf_visible():
    # two roots, each sampled once; both individuals outlive the horizon
    g = gf.new_genealogy(2)
    g = gf.apply_sample(g, 0, 0.5)
    g = gf.apply_sample(g, 1, 0.6)
    from dataclasses import replace
    return gf.prune(replace(g, time=1.0))


def test_event_route_hand_computed_leaf_factors():
    spec = lbdp(1.0, 0.5, 0.8, 2)
    visible = two_leaf_visible()
    base = History(1.0, (2, 0), ((0.5, SAMPLE), (0.6, SAMPLE)))
    assert abs(gf.loglik_events(spec, base, visible) - math.log(0.5)) < 1e-12


def test_unobserved_birth_in_open_windows_costs_probability():
    spec = lbdp(1.0, 0.5, 0.8, 2)
    visible = two_leaf_visible()
    base = History(1.0, (2, 0), ((0.5, SAMPLE), (0.6, SAMPLE)))
    early = History(1.0, (2, 0), ((0.2, BIRTH), (0.5, SAMPLE), (0.6, SAMPLE)))
    late = History(1.0, (2, 0), ((0.5, SAMPLE), (0.6, SAMPLE), (0.9, BIRTH)))
    base_ll = gf.loglik_events(spec, base, visible)
    early_ll = gf.loglik_events(spec, early, visible)
    late_ll = gf.loglik_events(spec, late, visible)
    # birth while two lineages are open: the pair must avoid coalescing, and
    # the first leaf now draws from three individuals instead of two
    assert abs(early_ll - math.log(4.0 / 9.0)) < 1e-12
    assert early_ll < base_ll
    # birth after every window closed costs nothing
    assert late_ll == base_ll


def test_event_route_structural_failures():
    spec = lbdp(1.0, 0.5, 0.8, 1)
    g = gf.new_genealogy(1)
    g = gf.apply_birth(g, 0, 0.3)
    g = gf.apply_sample(g, 0, 0.5)
    g = gf.apply_sample(g, 1, 0.7)
    from dataclasses import replace
    visible = gf.prune(replace(g, time=1.0))

    good = History(1.0, (1, 0), ((0.3, BIRTH), (0.5, SAMPLE), (0.7, SAMPLE)))
    assert math.isfinite(gf.loglik_events(spec, good, visible))

    with pytest.raises(ExactError, match="non-birth"):
        gf.loglik_events(spec, History(1.0, (1, 0), (
            (0.3, SAMPLE), (0.5, SAMPLE), (0.7, SAMPLE))), visible)
    with pytest.raises(ExactError, match="non-sample"):
        gf.loglik_events(spec, History(1.0, (1, 0), (
            (0.3, BIRTH), (0.5, BIRTH), (0.7, SAMPLE))), visible)
    with pytest.raises(ExactError, match="no matching genealogy node"):
        gf.loglik_events(spec, History(1.0, (1, 0), (
            (0.3, BIRTH), (0.5, SAMPLE), (0.7, SAMPLE), (0.9, SAMPLE))), visible)
    with pytest.raises(ExactError, match="absent from the history"):
        gf.loglik_events(spec, History(1.0, (1, 0), (
            (0.3, BIRTH), (0.5, SAMPLE))), visible)
    with pytest.raises(gf.GenealogyError, match="visible"):
        gf.loglik_events(spec, good, g)


@pytest.mark.parametrize("fault", ["swap", "late birth"])
def test_event_route_checks_the_history_times_as_its_density_does(fault):
    # loglik_events weighs the history at its own times, so it needs them in
    # (0, horizon] and in order, like history_log_density
    spec = lbdp(1.2, 0.6, 0.9, 2)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(3))
    h = gf.to_history(traj)
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert math.isfinite(gf.loglik_events(spec, h, visible))
    events = list(h.events)
    if fault == "swap":
        i = next(i for i in range(len(events) - 1) if events[i][1] != events[i + 1][1])
        events[i], events[i + 1] = events[i + 1], events[i]
        message = f"event time {events[i + 1][0]} is outside"
    else:
        events.append((h.horizon + 0.5, BIRTH))
        message = f"event time {h.horizon + 0.5} is outside"
    bad = History(h.horizon, h.x0, tuple(events))
    with pytest.raises(ValueError, match=message):
        gf.history_log_density(spec, bad)
    with pytest.raises(ValueError, match=message):
        gf.loglik_events(spec, bad, visible)


def test_event_route_counting_impossibility_is_minus_inf():
    # a death leaves one individual but two open lineages cross the leaf
    spec = lbdp(1.0, 0.5, 0.8, 2)
    visible = two_leaf_visible()
    h = History(1.0, (2, 0), ((0.4, DEATH), (0.5, SAMPLE), (0.6, SAMPLE)))
    assert gf.loglik_events(spec, h, visible) == -math.inf


def test_event_route_checks_structure_before_counting():
    # the death makes the leaf impossible, and the last sample has no node:
    # the structural failure wins over the -inf
    spec = lbdp(1.0, 0.5, 0.8, 2)
    h = History(1.0, (2, 0), ((0.4, DEATH), (0.5, SAMPLE), (0.6, SAMPLE), (0.8, SAMPLE)))
    with pytest.raises(ExactError, match="no matching genealogy node"):
        gf.loglik_events(spec, h, two_leaf_visible())


def test_lineage_route_counting_impossibility_is_minus_inf():
    # same situation through the lineage route: the aux choices force the
    # sampled individuals apart, but only one individual remains
    spec = lbdp(0.0, 1.0, 1.0, 2)
    traj = JumpSequence((2, 0), (
        Jump(0.4, DEATH, 1),
        Jump(0.5, SAMPLE, 0),
        Jump(0.55, SAMPLE, 0),
    ), 1.0)
    visible = gf.prune(gf.build_genealogy(spec, traj)[0])
    # both samples hit the same survivor: second lineage attaches by direct
    # descent, which is fine; check agreement instead
    a = gf.loglik_lineages(spec, traj)
    b = gf.loglik_events(spec, gf.to_history(traj), visible)
    assert abs(a - b) < 1e-12
