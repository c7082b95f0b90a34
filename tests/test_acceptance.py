"""Acceptance gate.

One test per criterion; each prints a single pass/fail line with the
measured quantity and wall-clock time, and fails if either the tolerance
or the runtime budget is exceeded.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

import genfilter as gf
from genfilter.filtering import FilterConfig
from genfilter.population import Jump, JumpSequence, state_at, to_history
from stochastic import variance_ratio_verdict, z_verdict


def announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


def count_samples(spec, traj):
    return sum(1 for j in traj.jumps if spec.events[j.event].is_sample)


def visible_of(spec, traj):
    return gf.prune(gf.build_genealogy(spec, traj)[0])


def forest_key(v):
    # roots are exchangeable initial individuals: compare forests as
    # multisets of rendered trees
    return tuple(sorted(gf.to_newick(v).strip().split("\n")))


def canonical(g):
    # node and green-ball names record the construction path's allocation
    # order; relabel both by sequence position so stepwise and one-shot
    # builds compare equal
    pos = {node.name: k for k, node in enumerate(g.nodes)}
    relabeled = tuple(
        (k, node.time, frozenset(
            (b.color, pos[b.name] if b.color == "green" else b.name)
            for b in node.pocket))
        for k, node in enumerate(g.nodes))
    return g.time, relabeled


def lbdp_desk_genealogy():
    spec = gf.lbdp_spec(gf.LBDPParams(1.5, 0.8, 1.0, 1))
    rng = np.random.default_rng(202)
    while True:
        traj = gf.simulate(spec, 2.0, rng)
        if 5 <= count_samples(spec, traj) <= 15:
            return visible_of(spec, traj)


def test_criterion_1_route_equivalence(capsys):
    start = time.time()
    spec = gf.sir_spec(gf.SIRParams(0.08, 0.7, 0.7, 27, 3))
    rng = np.random.default_rng(404)
    done, worst = 0, 0.0
    while done < 100:
        traj = gf.simulate(spec, float(rng.uniform(0.8, 2.5)), rng)
        if not 2 <= count_samples(spec, traj) <= 15:
            continue
        by_lineage = gf.loglik_lineages(spec, traj)
        by_events = gf.loglik_events(spec, to_history(traj), visible_of(spec, traj))
        assert math.isfinite(by_lineage)
        worst = max(worst, abs(by_lineage - by_events) / max(abs(by_lineage), 1e-12))
        done += 1
    elapsed = time.time() - start
    announce(capsys, "criterion 1: likelihood routes agree on 100 SIR trajectories",
             worst <= 1e-9 and elapsed < 60,
             f"max rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_brute_force_enumeration(capsys):
    start = time.time()
    rng = np.random.default_rng(505)
    done, worst = 0, 0.0
    while done < 50:
        n0 = int(rng.integers(1, 3))
        spec = gf.lbdp_spec(gf.LBDPParams(1.0, 0.5, 0.8, n0))
        traj = gf.simulate(spec, float(rng.uniform(0.8, 1.8)), rng)
        if len(traj.jumps) > 12:
            continue
        marked = [i for i, j in enumerate(traj.jumps)
                  if spec.events[j.event].is_marked]
        if not marked:
            continue
        sizes = [state_at(spec, traj, np.nextafter(traj.jumps[i].time, -np.inf))[spec.focal_dim]
                 for i in marked]
        if max(sizes) > 6 or math.prod(sizes) > 3000:
            continue
        target = forest_key(visible_of(spec, traj))
        count = 0
        for combo in itertools.product(*[range(s) for s in sizes]):
            jumps = list(traj.jumps)
            for i, a in zip(marked, combo):
                jumps[i] = Jump(jumps[i].time, jumps[i].event, a)
            v2 = visible_of(spec, JumpSequence(traj.x0, tuple(jumps), traj.t_end))
            if forest_key(v2) == target:
                count += 1
        expect = count * math.exp(-sum(math.log(s) for s in sizes))
        got = math.exp(gf.loglik_lineages(spec, traj))
        worst = max(worst, abs(got - expect) / max(expect, 1e-300))
        done += 1
    elapsed = time.time() - start
    announce(capsys, "criterion 2: exact likelihood equals aux enumeration on 50 trajectories",
             worst <= 1e-12 and elapsed < 60,
             f"max rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_analytic_anchor(capsys):
    start = time.time()
    spec = gf.lbdp_spec(gf.LBDPParams(0.0, 0.0, 1.0, 1))
    rng = np.random.default_rng(33)
    worst_oracle, worst_filter, ok = 0.0, 0.0, True
    for i in range(20):
        horizon = float(rng.uniform(0.5, 3.0))
        s1 = float(rng.uniform(0.05, horizon - 0.05))
        v = gf.prune(replace(gf.apply_sample(gf.new_genealogy(1), 0, s1),
                             time=horizon))
        anchor = math.log(1.0) - 1.0 * horizon
        worst_oracle = max(worst_oracle,
                           abs(gf.oracle_loglik(spec, v, [(1, 0)]) - anchor))
        rep = gf.replicate_loglik(spec, v, FilterConfig(10000, seed=600 + i), 4)
        err = abs(rep.mean - anchor)
        worst_filter = max(worst_filter, err)
        ok = ok and err < 1e-2 and (rep.se == 0.0 or err <= 2 * rep.se)
    elapsed = time.time() - start
    announce(capsys, "criterion 3: single-sample anchor log(psi) - psi*T over 20 cases",
             ok and worst_oracle <= 1e-8 and elapsed < 60,
             f"oracle err {worst_oracle:.2e}, filter err {worst_filter:.2e}, {elapsed:.1f}s")


def test_criterion_4_convergence_on_lambda_grid(capsys):
    start = time.time()
    v = lbdp_desk_genealogy()
    reps, groups, pairs = 12, [], []
    for i, lam in enumerate(np.linspace(0.5, 2.5, 11)):
        params = gf.LBDPParams(float(lam), 0.8, 1.0, 1)
        spec = gf.lbdp_spec(params)
        exact = gf.oracle_loglik(spec, v, gf.lbdp_truncation(params, 250))
        small = gf.replicate_loglik(spec, v, FilterConfig(500, seed=9000 + i), reps)
        big = gf.replicate_loglik(spec, v, FilterConfig(4000, seed=9100 + i), reps)
        groups += [(small.estimates, exact), (big.estimates, exact)]
        pairs.append((small.estimates, big.estimates))
    elapsed = time.time() - start
    # for an unbiased filter the 22 means sit on the oracle (worst z and
    # pooled bias), and the variance falls as 1/N, so the sd ratio at 8x the
    # particles is sqrt(8): each part fails a correct filter with probability
    # at most 0.0027, the pair at most 0.0054
    on_oracle = z_verdict(groups, alpha=0.0027)
    scaling = variance_ratio_verdict(pairs, 8.0, alpha=0.0027)
    announce(capsys, "criterion 4: filter converges on the oracle over 11 lambdas",
             on_oracle.ok and scaling.ok and elapsed < 600,
             f"{on_oracle}; {scaling}; {elapsed:.1f}s")


def test_criterion_5_normalization_without_sampling(capsys):
    start = time.time()
    params = gf.SIRParams(0.05, 0.8, 0.0, 47, 3)
    spec = gf.sir_spec(params)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(55))
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    assert len(v.nodes) == 0
    _, grid = gf.oracle_loglik(spec, v, gf.sir_truncation(params), return_grid=True)
    drift = abs(float(grid.weights.sum()) - 1.0)
    res = gf.smc_loglik(spec, v, FilterConfig(500, seed=56))
    elapsed = time.time() - start
    announce(capsys, "criterion 5: weight normalization is conserved when psi = 0",
             drift <= 1e-7 and res.loglik == 0.0 and elapsed < 30,
             f"|sum w - 1| = {drift:.2e}, filter loglik {res.loglik}, {elapsed:.1f}s")


def _check_structure(spec, traj, rng):
    # replay jump by jump; the five ordering/pocket invariants must hold at
    # every intermediate genealogy
    g = gf.new_genealogy(traj.x0[spec.focal_dim])
    assert gf.validate_genealogy(g) == []
    for j in traj.jumps:
        ev = spec.events[j.event]
        if ev.is_birth:
            g = gf.apply_birth(g, j.aux, j.time)
        elif ev.is_death:
            g = gf.apply_death(g, j.aux, j.time)
        elif ev.is_sample:
            g = gf.apply_sample(g, j.aux, j.time)
        else:
            continue
        assert gf.validate_genealogy(g) == []
    g = replace(g, time=traj.t_end)
    # a stepwise replay may allocate different node serials than the one-shot
    # build once deaths have retired recent names, so compare up to renaming
    built, inv = gf.build_genealogy(spec, traj)
    assert canonical(g) == canonical(built)
    assert gf.inventory_of(g) == inv
    assert gf.inventory_of(g) == gf.fold_inventory(spec, traj)

    v = gf.prune(g)
    assert gf.validate_genealogy(v) == []
    assert gf.prune(v) == v
    schedule = gf.event_schedule(v)  # raises unless every pocket has visible form

    # dropping the extant individuals in any order gives the same genealogy
    shuffled = g
    while True:
        blacks = gf.inventory_of(shuffled).names
        if not blacks:
            break
        shuffled = gf.apply_death(shuffled, int(rng.integers(len(blacks))),
                                  g.time)
    assert shuffled == v

    # every sample is a direct descent or a leaf, and the roots and
    # coalescences open as many lineages as the leaves close
    kinds = [kind for _, kind in schedule]
    assert [t for t, kind in schedule if kind != "coalescence"] == \
        [j.time for j in traj.jumps if spec.events[j.event].is_sample]
    assert len(v.nodes) - len(schedule) + kinds.count("coalescence") == kinds.count("leaf")

    # the open-lineage count telescopes over per-sample attachment windows
    chain = gf.embedded_chain(v)
    ell = gf.LineageFunction(v)
    probes = [0.0, v.time] + [n.time for n in v.nodes] + \
        list(rng.uniform(0.0, v.time, size=4))
    for t in probes:
        want = sum(1 for r in chain if r.attach_time <= t < r.sample_time)
        assert ell(t) == want, (t, ell(t), want)

    assert gf.genealogy_from_json(gf.genealogy_to_json(v)) == v
    if v.nodes:
        parsed = gf.from_newick(gf.to_newick(v))
        got = gf.event_schedule(parsed)
        assert [kind for _, kind in got] == kinds
        assert np.allclose([t for t, _ in got], [t for t, _ in schedule],
                           rtol=1e-12, atol=1e-12)


def test_criterion_6_structural_fuzz(capsys):
    start = time.time()
    rng = np.random.default_rng(7)
    builders = [
        lambda: gf.lbdp_spec(gf.LBDPParams(1.2, 0.6, 0.8, int(rng.integers(1, 4)))),
        lambda: gf.sir_spec(gf.SIRParams(0.25, 0.7, 0.6, 5, 2)),
        lambda: gf.sirs_spec(gf.SIRSParams(0.25, 0.7, 0.6, 0.4, 5, 2)),
        lambda: gf.s2ir_spec(gf.S2IRParams(0.3, 0.15, 0.7, 0.6, 3, 2, 2)),
    ]
    jumps = 0
    for it in range(10_000):
        spec = builders[it % len(builders)]()
        traj = gf.simulate(spec, float(rng.uniform(0.5, 2.0)), rng)
        jumps += len(traj.jumps)
        _check_structure(spec, traj, rng)
    elapsed = time.time() - start
    announce(capsys, "criterion 6: structural invariants over 10000 fuzzed trajectories",
             elapsed < 300,
             f"{jumps} jumps replayed with per-step validation, {elapsed:.1f}s")


def test_criterion_7_sir_cross_method(capsys):
    start = time.time()
    params = gf.SIRParams(0.04, 1.0, 1.0, 97, 3)
    spec = gf.sir_spec(params)
    rng = np.random.default_rng(101)
    while True:
        traj = gf.simulate(spec, 1.0, rng)
        if 3 <= count_samples(spec, traj) <= 8:
            break
    v = visible_of(spec, traj)
    exact = gf.oracle_loglik(spec, v, gf.sir_truncation(params))
    rep = gf.replicate_loglik(spec, v, FilterConfig(20000, seed=2), 20)
    verdict = z_verdict([(rep.estimates, exact)], alpha=0.01)
    elapsed = time.time() - start
    announce(capsys, "criterion 7: filter matches full-simplex oracle at population 100",
             rep.collapse_count == 0 and verdict.ok and elapsed < 900,
             f"oracle {exact:.4f}, filter {rep.mean:.4f} +- {rep.se:.4f}, {verdict}, "
             f"{elapsed:.1f}s")


def test_criterion_8_monte_carlo_rate(capsys):
    start = time.time()
    spec = gf.lbdp_spec(gf.LBDPParams(1.5, 0.8, 1.0, 1))
    v = lbdp_desk_genealogy()
    small = gf.replicate_loglik(spec, v, FilterConfig(400, seed=81), 100)
    big = gf.replicate_loglik(spec, v, FilterConfig(1600, seed=82), 100)
    # fails a correct filter with probability at most 0.015; the band
    # 1.5 <= sd ratio <= 2.5 it replaces did so with about 0.016
    scaling = variance_ratio_verdict([(small.estimates, big.estimates)], 4.0, alpha=0.015)
    elapsed = time.time() - start
    announce(capsys, "criterion 8: s.e. shrinks 2x under 4x particles",
             scaling.ok and elapsed < 300,
             f"{scaling} over 100 replicates, {elapsed:.1f}s")
