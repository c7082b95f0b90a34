"""Ball-and-pocket genealogy updates, pruning, and serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genfilter as gf
from genfilter.genealogy import (BLACK, BLUE, GREEN, RED, Ball, Genealogy,
                                 GenealogyError, Inventory, NewickError, Node,
                                 _State)


def lbdp(lam, delta, psi, n0):
    return gf.lbdp_spec(gf.LBDPParams(lam, delta, psi, n0))


def pocket_colors(n):
    return tuple(sorted(b.color for b in n.pocket))


def by_name(g):
    return {n.name: n for n in g.nodes}


# ---------------------------------------------------------------------------
# Hand-traced updates


def test_new_genealogy_roots():
    g = gf.new_genealogy(3)
    assert g.time == 0.0
    assert len(g.nodes) == 3
    for i, n in enumerate(g.nodes):
        assert n.name == i
        assert n.time == 0.0
        assert n.pocket == frozenset({Ball(GREEN, i), Ball(BLACK, i)})


def test_sample_moves_black_and_leaves_green():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 1.0)
    nodes = by_name(g)
    assert nodes[0].pocket == frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})
    assert nodes[1].pocket == frozenset({Ball(BLACK, 0), Ball(BLUE, 0)})
    assert nodes[1].time == 1.0


def test_birth_creates_sibling_blacks():
    g = gf.apply_birth(gf.new_genealogy(1), 0, 0.5)
    nodes = by_name(g)
    assert nodes[0].pocket == frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})
    assert nodes[1].pocket == frozenset({Ball(BLACK, 0), Ball(BLACK, 1)})
    assert gf.inventory_of(g).names == (0, 1)


def test_death_with_blue_mate_turns_red_in_place():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 1.0)
    g = gf.apply_death(g, 0, 1.5)
    nodes = by_name(g)
    assert nodes[1].pocket == frozenset({Ball(RED, 0), Ball(BLUE, 0)})
    assert nodes[0].pocket == frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})
    assert gf.inventory_of(g).names == ()


def test_death_undoes_a_birth():
    g0 = gf.new_genealogy(1)
    g = gf.apply_birth(g0, 0, 0.5)
    # drop the newborn (selection index 1): the parent's black comes home
    g = gf.apply_death(g, 1, 0.8)
    assert len(g.nodes) == 1
    assert g.nodes[0].pocket == g0.nodes[0].pocket
    # instead drop the parent (index 0): same pocket outcome, because only
    # the ball names distinguish the two blacks and the survivor is renumbered
    g2 = gf.apply_death(gf.apply_birth(g0, 0, 0.5), 0, 0.8)
    assert len(g2.nodes) == 1
    assert pocket_colors(g2.nodes[0]) == ("black", "green")


def test_death_of_lone_root_empties_the_genealogy():
    g = gf.apply_death(gf.new_genealogy(1), 0, 0.3)
    assert g.nodes == ()
    assert g.time == 0.3


def test_update_rejects_out_of_range_selection():
    g = gf.new_genealogy(2)
    with pytest.raises(GenealogyError, match="out of range"):
        gf.apply_birth(g, 2, 0.1)
    with pytest.raises(GenealogyError, match="out of range"):
        gf.apply_death(g, -1, 0.1)


def test_update_rejects_backward_time():
    g = gf.apply_birth(gf.new_genealogy(1), 0, 1.0)
    with pytest.raises(GenealogyError, match="precedes"):
        gf.apply_sample(g, 0, 0.5)


def test_duplicated_ball_is_rejected_on_load():
    n0 = Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(BLACK, 0)}))
    n1 = Node(1, 0.0, frozenset({Ball(GREEN, 1), Ball(BLACK, 0)}))
    with pytest.raises(GenealogyError, match="held twice"):
        gf.apply_birth(Genealogy(0.0, (n0, n1)), 0, 1.0)


# ---------------------------------------------------------------------------
# Inventory


def test_inventory_add_and_drop():
    inv = Inventory((2, 5, 9))
    assert inv.add().names == (2, 5, 9, 10)
    assert inv.drop(1).names == (2, 9)
    with pytest.raises(GenealogyError):
        inv.drop(3)
    with pytest.raises(GenealogyError):
        Inventory(()).add()


def test_blacks_track_inventory_along_trajectories():
    spec = lbdp(1.3, 0.7, 0.5, 3)
    rng = np.random.default_rng(2)
    for _ in range(60):
        traj = gf.simulate(spec, 2.0, rng)
        g, inv = gf.build_genealogy(spec, traj)
        assert inv == gf.fold_inventory(spec, traj)
        assert gf.inventory_of(g) == inv
        assert len(inv) == spec.focal(gf.state_at(spec, traj, traj.t_end))


# ---------------------------------------------------------------------------
# Pruning


def test_prune_trichotomy_and_idempotence():
    spec = lbdp(1.4, 0.6, 0.8, 2)
    rng = np.random.default_rng(3)
    for _ in range(40):
        traj = gf.simulate(spec, 2.5, rng)
        g, _ = gf.build_genealogy(spec, traj)
        v = gf.prune(g)
        assert gf.validate_genealogy(v) == []
        for n in v.nodes:
            assert pocket_colors(n) in (("green", "green"),
                                        ("blue", "green"),
                                        ("blue", "red"))
        assert gf.prune(v) == v


def test_prune_is_drop_order_insensitive():
    spec = lbdp(1.4, 0.6, 0.8, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        traj = gf.simulate(spec, 2.0, rng)
        g, _ = gf.build_genealogy(spec, traj)
        v = gf.prune(g)
        for _ in range(3):
            st = _State.from_genealogy(g)
            while st.blacks:
                st.death(int(rng.integers(len(st.blacks))), st.time)
            assert st.freeze() == v


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rates=st.tuples(*(st.floats(0.1, 1.5),) * 3),
       n0=st.integers(1, 3), data=st.data())
def test_prune_is_independent_of_the_drop_order(seed, rates, n0, data):
    spec = lbdp(*rates, n0)
    traj = gf.simulate(spec, 2.0, np.random.default_rng(seed))
    g, inv = gf.build_genealogy(spec, traj)
    extant = list(inv.names)
    dropped = g
    for name in data.draw(st.permutations(inv.names)):
        # apply_death takes the individual's rank among those still extant
        dropped = gf.apply_death(dropped, extant.index(name), g.time)
        extant.remove(name)
    assert dropped == gf.prune(g)


def test_prune_keeps_only_sample_ancestry():
    # births without any samples leave nothing visible
    spec = lbdp(1.5, 0.0, 0.0, 1)
    traj = gf.simulate(spec, 1.0, np.random.default_rng(8))
    g, _ = gf.build_genealogy(spec, traj)
    assert gf.prune(g).nodes == ()


# ---------------------------------------------------------------------------
# Event time sets and lineage counts


def test_event_times_identities_on_visible_genealogies():
    spec = lbdp(1.2, 0.6, 0.9, 2)
    rng = np.random.default_rng(9)
    for _ in range(40):
        traj = gf.simulate(spec, 2.0, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        ets = gf.event_times(v)
        assert ets.all_events == tuple(sorted(ets.internal + ets.leaf))
        assert ets.internal == tuple(sorted(ets.coalescence + ets.direct))
        assert ets.sample == tuple(sorted(ets.direct + ets.leaf))


def test_single_sample_genealogy_event_times():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.7)
    v = gf.prune(replace(g, time=2.0))
    ets = gf.event_times(v)
    assert ets.coalescence == (0.0,)
    assert ets.sample == (0.7,)
    assert ets.leaf == (0.7,)
    assert gf.lineage_count(v, 0.3) == 1
    assert gf.lineage_count(v, 0.7) == 0
    assert gf.lineage_count(v, -0.1) == 0


def test_lineage_count_matches_edge_crossing():
    # oracle: lineages at t = edges of the parent forest straddling t,
    # counting an edge as [child assignment) from parent time to child time,
    # plus red leaves still open... simpler: count paths from each sample
    # node's time upward; use the attachment-interval identity instead
    spec = lbdp(1.2, 0.6, 0.9, 2)
    rng = np.random.default_rng(13)
    for _ in range(40):
        traj = gf.simulate(spec, 2.0, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        windows = gf.attach_times(v)
        fn = gf.LineageFunction(v)
        for t in rng.uniform(-0.2, 2.2, size=12):
            expect = sum(1 for a, s in windows if a <= t < s)
            assert fn(t) == expect, (t, windows)


def test_lineage_function_at_matches_scalar_calls():
    spec = lbdp(1.2, 0.6, 0.9, 2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        traj = gf.simulate(spec, 2.0, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        fn = gf.LineageFunction(v)
        ts = np.concatenate([fn.breaks, rng.uniform(-0.2, 2.2, size=12)])
        assert fn.at(ts).tolist() == [fn(t) for t in ts]


def test_attach_times_direct_descent_chain():
    # one individual sampled twice: the second lineage attaches at the first
    # sample's node (direct descent)
    g = gf.new_genealogy(1)
    g = gf.apply_sample(g, 0, 0.4)
    g = gf.apply_sample(g, 0, 0.9)
    v = gf.prune(replace(g, time=1.5))
    chain = gf.embedded_chain(v)
    assert [r.attach_kind for r in chain] == ["root", "direct"]
    assert chain[0].attach_time == 0.0
    assert chain[0].sample_time == 0.4
    assert chain[1].attach_time == 0.4
    assert chain[1].sample_time == 0.9


def test_attach_times_coalescence():
    # birth at 0.3 splits the lineage; each side is sampled once
    g = gf.new_genealogy(1)
    g = gf.apply_birth(g, 0, 0.3)
    g = gf.apply_sample(g, 0, 0.8)
    g = gf.apply_sample(g, 1, 1.1)
    v = gf.prune(replace(g, time=1.5))
    chain = gf.embedded_chain(v)
    assert [r.attach_kind for r in chain] == ["root", "coalescence"]
    assert chain[0].attach_time == 0.0
    assert chain[1].attach_time == 0.3
    assert chain[1].sample_time == 1.1


def test_embedded_chain_rejects_unpruned_genealogies():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.4)
    with pytest.raises(GenealogyError, match="visible"):
        gf.embedded_chain(g)


# ---------------------------------------------------------------------------
# Structural validation


def test_validate_flags_bad_structures():
    ok = gf.apply_birth(gf.new_genealogy(1), 0, 0.5)
    assert gf.validate_genealogy(ok) == []

    three_balls = Genealogy(1.0, (Node(0, 0.0, frozenset(
        {Ball(GREEN, 0), Ball(BLACK, 0), Ball(BLUE, 0)})),))
    assert any("pocket holds 3" in p for p in gf.validate_genealogy(three_balls))

    repeated = Genealogy(1.0, (
        Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(BLACK, 0)})),
        Node(1, 0.5, frozenset({Ball(GREEN, 1), Ball(BLACK, 0)}))))
    assert any("appears in nodes" in p for p in gf.validate_genealogy(repeated))

    late_holder = Genealogy(1.0, (
        Node(0, 0.0, frozenset({Ball(GREEN, 1), Ball(BLACK, 0)})),
        Node(1, 0.5, frozenset({Ball(GREEN, 0), Ball(BLACK, 1)}))))
    assert any("comes later" in p for p in gf.validate_genealogy(late_holder))

    decreasing = Genealogy(1.0, (
        Node(0, 0.5, frozenset({Ball(GREEN, 0), Ball(BLACK, 0)})),
        Node(1, 0.2, frozenset({Ball(GREEN, 1), Ball(BLACK, 1)}))))
    assert any("decrease" in p for p in gf.validate_genealogy(decreasing))

    past_horizon = Genealogy(0.1, (
        Node(0, 0.5, frozenset({Ball(GREEN, 0), Ball(BLACK, 0)})),))
    assert any("exceeds" in p for p in gf.validate_genealogy(past_horizon))


# ---------------------------------------------------------------------------
# Newick


def test_to_newick_single_lineage():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.4)
    v = gf.prune(replace(g, time=1.25))
    assert gf.to_newick(v) == "(r0:0.40000000000000002);\n"


def test_to_newick_requires_visible():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.4)
    with pytest.raises(GenealogyError):
        gf.to_newick(g)


_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"


def newick_parts(text):
    import re
    skeleton = re.sub(_NUMBER, "#", text)
    numbers = [float(tok) for tok in re.findall(_NUMBER, text)]
    return skeleton, numbers


def test_newick_round_trip_preserves_shape_labels_times():
    spec = lbdp(1.4, 0.7, 0.9, 2)
    rng = np.random.default_rng(21)
    done = 0
    while done < 25:
        traj = gf.simulate(spec, 2.2, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        if not v.nodes:
            continue
        text = gf.to_newick(v)
        back = gf.from_newick(text)
        assert gf.validate_genealogy(back) == []
        # shape and labels are bit-stable; branch lengths only to rounding,
        # because reconstructed times re-associate the additions
        skel_a, num_a = newick_parts(text)
        skel_b, num_b = newick_parts(gf.to_newick(back))
        assert skel_a == skel_b
        assert np.allclose(num_a, num_b, rtol=1e-12, atol=1e-12)
        ets_a, ets_b = gf.event_times(v), gf.event_times(back)
        for a, b in zip(ets_a, ets_b):
            assert np.allclose(a, b, rtol=0, atol=1e-9)
        done += 1


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["lbdp", "sir"]),
       rates=st.tuples(*(st.floats(0.1, 1.5),) * 3),
       size=st.integers(1, 4))
def test_newick_round_trip_keeps_node_count_and_schedule(seed, model, rates, size):
    if model == "lbdp":
        spec = lbdp(*rates, size)
    else:
        spec = gf.sir_spec(gf.SIRParams(rates[0] / 15.0, rates[1], rates[2],
                                        s0=5 * size + 10, i0=size))
    traj = gf.simulate(spec, 2.0, np.random.default_rng(seed))
    v = gf.prune(gf.build_genealogy(spec, traj)[0])
    back = gf.from_newick(gf.to_newick(v))
    assert len(back.nodes) == len(v.nodes)
    want, got = gf.event_schedule(v), gf.event_schedule(back)
    assert [kind for _, kind in got] == [kind for _, kind in want]
    # branch lengths print to 17 digits; times are sums of them down the tree
    assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=1e-12, atol=1e-12)


def test_from_newick_rejects_malformed_input():
    with pytest.raises(NewickError, match="position"):
        gf.from_newick("((r0:1);")  # unbalanced
    with pytest.raises(NewickError, match="unlabeled root"):
        gf.from_newick("(r0:1,r1:2);")
    with pytest.raises(NewickError, match="unrecognized label"):
        gf.from_newick("(x7:1);")
    with pytest.raises(NewickError, match="exactly one child"):
        gf.from_newick("(b0:0.5);")
    with pytest.raises(NewickError, match="mandatory"):
        gf.from_newick("(r0);")
    with pytest.raises(NewickError, match="repeats"):
        gf.from_newick("((r0:1,r0:2):0.5);")
    with pytest.raises(NewickError, match="negative"):
        gf.from_newick("(r0:-1);")


def test_from_newick_accepts_comments_and_whitespace():
    g = gf.from_newick(" ( ( r2:1.0 [a comment] , (r1:0.25)b0:0.5 ) : 0.4 ) ;\n")
    assert gf.validate_genealogy(g) == []
    ets = gf.event_times(g)
    assert ets.sample == (0.9, 1.15, 1.4)
    assert ets.coalescence == (0.0, 0.4)


# ---------------------------------------------------------------------------
# JSON


def test_json_round_trip_exact(tmp_path):
    spec = lbdp(1.4, 0.7, 0.9, 2)
    rng = np.random.default_rng(29)
    for i in range(10):
        traj = gf.simulate(spec, 2.0, rng)
        g, _ = gf.build_genealogy(spec, traj)
        for obj in (g, gf.prune(g)):
            assert gf.genealogy_from_json(gf.genealogy_to_json(obj)) == obj
        path = tmp_path / f"g{i}.json"
        gf.write_genealogy(path, g, provenance={"seed": 29})
        assert gf.read_genealogy(path) == g


def test_genealogy_from_json_rejects_garbage():
    with pytest.raises(GenealogyError, match="malformed"):
        gf.genealogy_from_json({"nodes": [{"name": "zero"}]})
    with pytest.raises(GenealogyError, match="malformed"):
        gf.genealogy_from_json({"time": 1.0})
