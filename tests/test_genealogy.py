"""Ball-and-pocket genealogy updates, pruning, and serialization."""

import json
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    # the selection is checked before the newborn's name is read from the inventory
    with pytest.raises(GenealogyError, match="out of range"):
        gf.apply_birth(gf.new_genealogy(0), 0, 0.1)


def test_births_and_samples_split_nodes_as_traced():
    g = gf.apply_birth(gf.new_genealogy(2), 1, 0.2)
    g = gf.apply_sample(g, 0, 0.3)
    g = gf.apply_birth(g, 2, 0.5)
    g = gf.apply_sample(g, 1, 0.7)
    black, green, blue = (partial(Ball, color) for color in (BLACK, GREEN, BLUE))
    assert g == Genealogy(0.7, (
        Node(0, 0.0, frozenset({green(0), green(3)})),
        Node(1, 0.0, frozenset({green(1), green(2)})),
        Node(2, 0.2, frozenset({green(4), green(5)})),
        Node(3, 0.3, frozenset({black(0), blue(0)})),
        Node(4, 0.5, frozenset({black(2), black(3)})),
        Node(5, 0.7, frozenset({black(1), blue(1)}))))
    assert gf.inventory_of(g) == Inventory((0, 1, 2, 3))
    st = _State.from_genealogy(g)
    assert (st.blue_count, st.next_name, st.blacks) == (2, 6, [0, 1, 2, 3])


def test_update_rejects_backward_time():
    g = gf.apply_birth(gf.new_genealogy(1), 0, 1.0)
    with pytest.raises(GenealogyError, match="precedes"):
        gf.apply_sample(g, 0, 0.5)


def test_duplicated_ball_is_rejected_on_load():
    n0 = Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(BLACK, 0)}))
    n1 = Node(1, 0.0, frozenset({Ball(GREEN, 1), Ball(BLACK, 0)}))
    with pytest.raises(GenealogyError, match=r"black', name=0\) appears in nodes 0 and 1"):
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
        assert len(inv) == gf.state_at(spec, traj, traj.t_end)[spec.focal_dim]


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
# Event schedules and lineage counts


def test_event_schedule_identities_on_visible_genealogies():
    # every sample of the trajectory is a direct descent or a leaf of the
    # schedule, every coalescence is a birth, and the roots plus the
    # coalescences are as many as the leaves
    spec = lbdp(1.2, 0.6, 0.9, 2)
    rng = np.random.default_rng(9)
    for _ in range(40):
        traj = gf.simulate(spec, 2.0, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        schedule = gf.event_schedule(v)
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        samples = [j.time for j in traj.jumps if spec.events[j.event].is_sample]
        births = {j.time for j in traj.jumps if spec.events[j.event].is_birth}
        assert [t for t, kind in schedule if kind != "coalescence"] == samples
        assert {t for t, kind in schedule if kind == "coalescence"} <= births
        kinds = [kind for _, kind in schedule]
        roots = len(v.nodes) - len(schedule)
        assert roots + kinds.count("coalescence") == kinds.count("leaf")


def test_single_sample_genealogy_schedule():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.7)
    v = gf.prune(replace(g, time=2.0))
    assert gf.event_schedule(v) == ((0.7, "leaf"),)
    fn = gf.LineageFunction(v)
    assert fn(0.3) == 1
    assert fn(0.7) == 0
    assert fn(-0.1) == 0


@pytest.mark.parametrize("spec, horizon", [
    (lbdp(1.2, 0.6, 0.9, 2), 2.0),
    (gf.sir_spec(gf.SIRParams(0.06, 0.5, 0.8, 30, 3)), 2.0)], ids=["lbdp", "sir"])
def test_lineage_count_matches_edge_crossing(spec, horizon):
    # oracle: the lineages at t are the sampled lineages whose attachment
    # window [attachment, sample) holds t; the filter's stretches must carry
    # the same count from each stretch's start and just after its event
    rng = np.random.default_rng(13)
    for _ in range(40):
        traj = gf.simulate(spec, horizon, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        windows = [(r.attach_time, r.sample_time) for r in gf.embedded_chain(v)]
        fn = gf.LineageFunction(v)
        stretches = list(gf.filtering._stretches(v))
        starts = [t for t, *_ in stretches]
        for t in [*starts, *rng.uniform(-0.2, horizon + 0.2, size=12)]:
            expect = sum(1 for a, s in windows if a <= t < s)
            assert fn(t) == expect, (t, windows)
        for t, e, ell, kind, ell_post in stretches:
            assert ell == fn(t)
            assert ell_post == (None if kind is None else fn(e))


def test_lineage_function_rejects_an_unpruned_genealogy():
    g = replace(gf.apply_sample(gf.new_genealogy(1), 0, 0.7), time=2.0)
    with pytest.raises(GenealogyError, match="extant individual; prune"):
        gf.LineageFunction(g)


def test_lineage_function_at_matches_scalar_calls():
    spec = lbdp(1.2, 0.6, 0.9, 2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        traj = gf.simulate(spec, 2.0, rng)
        v = gf.prune(gf.build_genealogy(spec, traj)[0])
        fn = gf.LineageFunction(v)
        ts = np.concatenate([fn.breaks, rng.uniform(-0.2, 2.2, size=12)])
        assert fn.at(ts).tolist() == [fn(t) for t in ts]


def test_embedded_chain_direct_descent_chain():
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


def test_embedded_chain_coalescence():
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


def test_tree_readers_reject_an_unpruned_genealogy_with_one_message():
    g = gf.apply_sample(gf.new_genealogy(1), 0, 0.4)
    messages = set()
    for reader in (gf.to_newick, gf.embedded_chain, gf.event_schedule):
        with pytest.raises(GenealogyError) as err:
            reader(g)
        messages.add(str(err.value))
    assert messages == {"node 1: extant individual; prune to a visible genealogy"}


def test_tree_readers_reject_a_green_ball_that_names_no_node():
    v = Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                        Node(1, 0.5, frozenset({Ball(GREEN, 7), Ball(BLUE, 0)}))))
    for reader in (gf.to_newick, gf.embedded_chain, gf.event_schedule):
        with pytest.raises(GenealogyError, match="green ball 7 names no node"):
            reader(v)


def test_tree_readers_reject_a_node_whose_green_ball_exists_nowhere():
    # node 2 is no root and no node holds its green ball: it hangs from nothing
    v = Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                        Node(1, 0.5, frozenset({Ball(RED, 0), Ball(BLUE, 0)})),
                        Node(2, 0.8, frozenset({Ball(RED, 1), Ball(BLUE, 1)}))))
    for reader in (gf.to_newick, gf.embedded_chain, gf.event_schedule):
        with pytest.raises(GenealogyError, match="node 2: its green ball exists nowhere"):
            reader(v)


def test_every_route_rejects_a_genealogy_whose_parent_links_form_a_cycle():
    # node 1 holds green 2 and node 2 holds green 1: each is the other's parent
    v = Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 3)})),
                        Node(1, 0.5, frozenset({Ball(GREEN, 2), Ball(BLUE, 0)})),
                        Node(2, 0.6, frozenset({Ball(GREEN, 1), Ball(BLUE, 1)})),
                        Node(3, 0.7, frozenset({Ball(RED, 2), Ball(BLUE, 2)}))))
    assert any("green ball 1 is held by node 2, which comes later" in p
               for p in gf.validate_genealogy(v))
    params = gf.LBDPParams(1.2, 0.6, 0.9, 1)
    spec = gf.lbdp_spec(params)
    routes = (gf.to_newick, gf.embedded_chain, gf.event_schedule,
              partial(gf.oracle_loglik, spec, truncation=gf.lbdp_truncation(params, 30)),
              partial(gf.smc_loglik, spec, config=gf.FilterConfig(50, seed=1)))
    for route in routes:
        with pytest.raises(GenealogyError,
                           match="green ball 1 is held by node 2, which comes later"):
            route(v)


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


def _edited(g, edit, rng):
    """``g`` with one structural ``edit``, at nodes and balls ``rng`` picks."""
    nodes = list(g.nodes)
    position = {n.name: i for i, n in enumerate(nodes)}

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def put(i, pocket):
        nodes[i] = nodes[i]._replace(pocket=frozenset(pocket))

    greens = [(i, b) for i, n in enumerate(nodes) for b in sorted(n.pocket) if b.color == GREEN]
    i, j = sorted(rng.choice(len(nodes), size=2, replace=False).tolist())
    if edit == "copy a ball into a second node":
        # the copy takes the place of one of the second node's balls
        put(j, {pick(sorted(nodes[i].pocket)), pick(sorted(nodes[j].pocket))})
    elif edit == "give a node another node's name":
        nodes[j] = nodes[j]._replace(name=nodes[i].name)
    elif edit == "move a green ball to a later node":
        # swap it with a ball of a node after the one it names
        i, green = pick([(i, b) for i, b in greens if position[b.name] < len(nodes) - 1])
        j = int(rng.integers(position[green.name] + 1, len(nodes)))
        other = pick(sorted(nodes[j].pocket))
        put(i, nodes[i].pocket - {green} | {other})
        put(j, nodes[j].pocket - {other} | {green})
    elif edit == "drop a green ball":
        i, green = pick(greens)
        put(i, nodes[i].pocket - {green})
    elif edit == "move a node past the observation time":
        nodes[i] = nodes[i]._replace(time=g.time + 0.5)
    else:  # move a node before the one ahead of it
        nodes[j] = nodes[j]._replace(time=nodes[j - 1].time - 0.5)
    return replace(g, nodes=tuple(nodes))


_EDITS = ("copy a ball into a second node", "give a node another node's name",
          "move a green ball to a later node", "drop a green ball",
          "move a node past the observation time", "move a node before the one ahead of it")


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["lbdp", "sir"]),
       visible=st.booleans(), edit=st.sampled_from(_EDITS))
def test_every_reader_raises_the_first_fault_validation_lists(seed, model, visible, edit):
    # one rule set: a structural fault is the same GenealogyError on every
    # reader, whatever else the reader checks after it
    if model == "lbdp":
        params = gf.LBDPParams(1.2, 0.6, 0.9, 2)
        spec, truncation = gf.lbdp_spec(params), gf.lbdp_truncation(params, 25)
    else:
        params = gf.SIRParams(0.15, 0.5, 0.9, s0=12, i0=3)
        spec, truncation = gf.sir_spec(params), gf.sir_truncation(params)
    rng = np.random.default_rng(seed)
    g, _ = gf.build_genealogy(spec, gf.simulate(spec, 2.0, rng))
    if visible:
        g = gf.prune(g)
    assume(len(g.nodes) >= 2)
    m = _edited(g, edit, rng)
    faults = gf.validate_genealogy(m)
    assert faults
    if visible:
        readers = (gf.event_schedule, gf.to_newick, gf.embedded_chain, gf.prune,
                   partial(gf.smc_loglik, spec, config=gf.FilterConfig(20, seed=1)),
                   partial(gf.oracle_loglik, spec, truncation=truncation))
    else:
        readers = (gf.prune, partial(gf.apply_sample, n=0, t=m.time))
    for reader in readers:
        with pytest.raises(GenealogyError) as err:
            reader(m)
        assert str(err.value) == faults[0]


@pytest.mark.parametrize("v, fault", [
    # green ball 3 sits in node 1 and node 2: node 3 would hang from both
    (Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                     Node(1, 0.3, frozenset({Ball(GREEN, 2), Ball(GREEN, 3)})),
                     Node(2, 0.4, frozenset({Ball(GREEN, 4), Ball(GREEN, 3)})),
                     Node(3, 0.5, frozenset({Ball(RED, 0), Ball(BLUE, 0)})),
                     Node(4, 0.6, frozenset({Ball(RED, 1), Ball(BLUE, 1)})))),
     "ball Ball(color='green', name=3) appears in nodes 1 and 2"),
    # two nodes named 2 below the one green ball 2: to_newick would keep one
    (Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                     Node(1, 0.3, frozenset({Ball(GREEN, 2), Ball(BLUE, 0)})),
                     Node(2, 0.5, frozenset({Ball(RED, 1), Ball(BLUE, 1)})),
                     Node(2, 0.6, frozenset({Ball(RED, 2), Ball(BLUE, 2)})))),
     "node name 2 repeats")],
    ids=["ball-in-two-nodes", "repeated-name"])
def test_every_route_rejects_a_ball_in_two_nodes_and_a_repeated_name(v, fault):
    params = gf.LBDPParams(1.0, 0.5, 0.5, 1)
    spec = gf.lbdp_spec(params)
    routes = (gf.event_schedule, gf.to_newick, gf.embedded_chain, gf.prune,
              partial(gf.oracle_loglik, spec, truncation=gf.lbdp_truncation(params, 30)),
              partial(gf.smc_loglik, spec, config=gf.FilterConfig(50, seed=1)))
    assert gf.validate_genealogy(v) == [fault]
    for route in routes:
        with pytest.raises(GenealogyError, match=re.escape(fault)):
            route(v)


@pytest.mark.parametrize("where, problem", [("node", "node 1: time is NaN"),
                                             ("genealogy", "genealogy time is NaN")])
def test_validate_flags_a_time_at_nan_read_from_json(where, problem):
    # json reads the literal NaN, and every comparison with it is false
    v = gf.prune(replace(gf.apply_sample(gf.new_genealogy(1), 0, 0.5), time=1.0))
    obj = gf.genealogy_to_json(v)
    if where == "node":
        obj["nodes"][1]["time"] = math.nan
    else:
        obj["time"] = math.nan
    g = gf.genealogy_from_json(json.loads(json.dumps(obj)))
    assert gf.validate_genealogy(g) == [problem]
    assert gf.validate_genealogy(v) == []


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
        want, got = gf.event_schedule(v), gf.event_schedule(back)
        assert [kind for _, kind in got] == [kind for _, kind in want]
        assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0, atol=1e-9)
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


@pytest.mark.parametrize("root", [0.0, -0.5, -math.inf])
def test_newick_round_trip_keeps_event_times_under_a_root_before_0(root):
    # from_newick anchors every root at 0, so the root's child branch is
    # measured from 0; from the root's own time it read back shifted by -root
    # (or as inf, which no reader takes)
    v = Genealogy(1.5, (Node(0, root, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                        Node(1, 0.25, frozenset({Ball(GREEN, 2), Ball(GREEN, 3)})),
                        Node(2, 0.625, frozenset({Ball(RED, 0), Ball(BLUE, 0)})),
                        Node(3, 1.125, frozenset({Ball(RED, 1), Ball(BLUE, 1)}))))
    assert gf.validate_genealogy(v) == []
    text = gf.to_newick(v)
    assert text == "((r0:0.375,r1:0.875):0.25);\n"
    back = gf.from_newick(text)
    assert gf.event_schedule(back) == gf.event_schedule(v) == (
        (0.25, "coalescence"), (0.625, "leaf"), (1.125, "leaf"))


@pytest.mark.parametrize("text, message", [
    # the text itself: every syntax fault is named with its position
    ("((r0:1);", "position 7: expected ')' or ','"),  # unbalanced
    ("(", "position 1: expected ')' or ','"),
    ("(r0:1,", "position 6: expected ')' or ','"),
    ("(r0:1));", "position 6: expected ';' after tree"),
    ("(r0:1)", "position 6: expected ';' after tree"),  # a missing ';'
    ("(r0:1)(r1:1);", "position 6: expected ';' after tree"),
    ("(r0:1[oops);", "position 5: unterminated comment"),
    ("(r0:);", "position 4: expected a branch length"),  # a missing length
    ("(r0: ;", "position 5: expected a branch length"),
    ("(r0:x);", "position 4: expected a branch length"),  # bad lengths
    ("(r0:-);", "position 4: expected a branch length"),
    ("(r0:1e);", "position 5: expected ')' or ','"),
    ("(r0:1e999);", "position 4: branch length 1e999 overflows"),  # a length past float
    ("((r0:1) b0:1);", "position 8: expected ')' or ','"),  # a label goes right after ')'
    ("((r0:1)[c]b0:1);", "position 10: expected ')' or ','"),
    # a syntax fault anywhere comes before any fault of the tree
    ("(r0)(", "position 4: expected ';' after tree"),
    # the trees: a fault per node, the first in text order
    ("(r0:1,r1:2);", "each tree must be an unlabeled root with one child"),
    ("(r0:1)b1;", "each tree must be an unlabeled root with one child"),
    ("r0:1;", "each tree must be an unlabeled root with one child"),
    (";", "each tree must be an unlabeled root with one child"),
    ("(,);", "each tree must be an unlabeled root with one child"),
    ("();", "branch lengths are mandatory"),
    ("(r0);", "branch lengths are mandatory"),
    ("(r0:-1);", "negative branch length -1.0"),
    ("((r1:1e308)b0:1e308);", "node 'r1': time 1e+308 + 1e+308 overflows"),  # finite lengths
    ("(x7:1);", "unrecognized label 'x7'"),
    ("(b:1);", "unrecognized label 'b'"),
    ("(r:1);", "unrecognized label 'r'"),
    ("((r0:1)r1:1);", "red node r1 must be a leaf"),
    ("(b0:0.5);", "blue node b0 must have exactly one child"),
    ("((r0:1,r1:1)b2:1);", "blue node b2 must have exactly one child"),
    ("((r0:1):1);", "unlabeled internal nodes must have exactly two children"),
    ("((r0:1,r1:1,r2:1):1);", "unlabeled internal nodes must have exactly two children"),
    ("((r0:1,r0:2):0.5);", "sample label 0 repeats"),
    ("((r0:1)b0:0.5);", "sample label 0 repeats"),
    ("(r0:1);(r0:2);", "sample label 0 repeats"),
    ("((r0:1,r0:2):0.5)x;", "each tree must be an unlabeled root with one child"),
    ("(x1:1);(r0);", "unrecognized label 'x1'"),
])
def test_from_newick_names_each_fault(text, message):
    with pytest.raises(NewickError) as err:
        gf.from_newick(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["", "  \n", "[only a comment]"])
def test_from_newick_reads_no_tree_as_the_empty_genealogy(text):
    assert gf.from_newick(text) == Genealogy(0.0, ())


def test_from_newick_ignores_the_root_length():
    assert gf.from_newick("(r0:1):-3;") == gf.from_newick("(r0:1)[c];") \
        == Genealogy(1.0, (Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)})),
                           Node(1, 1.0, frozenset({Ball(RED, 0), Ball(BLUE, 0)}))))


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet="()[],:;rbx0123456789.-+e \n", max_size=40))
def test_from_newick_reads_any_text_or_names_its_fault(text):
    try:
        got = gf.from_newick(text)
    except NewickError:
        return
    assert isinstance(got, Genealogy)


def test_from_newick_accepts_comments_and_whitespace():
    g = gf.from_newick(" ( ( r2:1.0 [a comment] , (r1:0.25)b0:0.5 ) : 0.4 ) ;\n")
    assert gf.validate_genealogy(g) == []
    assert gf.event_schedule(g) == ((0.4, "coalescence"), (0.9, "direct"),
                                    (1.15, "leaf"), (1.4, "leaf"))


def caterpillar(depth):
    """A visible genealogy ``depth`` coalescences deep, each splitting off one leaf.

    Node i (1 to ``depth``) coalesces at i/1024 and leaf q ends at
    2 + q/1024, so every branch length is exact in binary; nodes are named
    in time order and blue balls in sequence order, as `from_newick` names
    them.  Its Newick form, as `to_newick` writes it, comes with it.
    """
    nodes = [Node(0, 0.0, frozenset({Ball(GREEN, 0), Ball(GREEN, 1)}))]
    for i in range(1, depth + 1):
        below = i + 1 if i < depth else 2 * depth + 1
        nodes.append(Node(i, i / 1024, frozenset({Ball(GREEN, below), Ball(GREEN, depth + i)})))
    for q in range(depth + 1):
        nodes.append(Node(depth + 1 + q, 2 + q / 1024, frozenset({Ball(RED, q), Ball(BLUE, q)})))
    leaf, step = "1.9990234375", "0.0009765625"  # 2 - 1/1024 and 1/1024
    text = ("(" * (depth + 1) + f"r{depth - 1}:{leaf},r{depth}:2):{step}"
            + "".join(f",r{q}:{leaf}):{step}" for q in range(depth - 2, -1, -1)) + ");\n")
    return Genealogy(nodes[-1].time, tuple(nodes)), text


def test_caterpillar_is_a_valid_visible_genealogy():
    v, text = caterpillar(3)
    assert gf.validate_genealogy(v) == []
    assert [kind for _, kind in gf.event_schedule(v)] == ["coalescence"] * 3 + ["leaf"] * 4
    assert text == ("((((r2:1.9990234375,r3:2):0.0009765625,r1:1.9990234375):0.0009765625,"
                    "r0:1.9990234375):0.0009765625);\n")


def test_to_newick_writes_a_genealogy_1500_levels_deep():
    v, text = caterpillar(1500)
    assert gf.to_newick(v) == text


def test_from_newick_reads_a_genealogy_1500_levels_deep():
    v, text = caterpillar(1500)
    assert gf.from_newick(text) == v


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


def _sample_json():
    v = gf.prune(replace(gf.apply_sample(gf.new_genealogy(1), 0, 0.5), time=1.0))
    return v, json.loads(json.dumps(gf.genealogy_to_json(v)))


@pytest.mark.parametrize("where, value", [
    ("node time", "0.5"), ("node time", True), ("genealogy time", "1.0"),
    ("genealogy time", False), ("node name", 0.6), ("node name", True), ("node name", "1"),
    ("ball name", 1.0), ("ball name", True)])
def test_genealogy_from_json_takes_only_json_numbers(where, value):
    # names are JSON integers and times JSON numbers; a bool is neither
    _, obj = _sample_json()
    if where == "node time":
        obj["nodes"][1]["time"] = value
    elif where == "genealogy time":
        obj["time"] = value
    elif where == "node name":
        obj["nodes"][1]["name"] = value
    else:
        obj["nodes"][1]["pocket"][0]["name"] = value
    with pytest.raises(GenealogyError, match="malformed genealogy JSON"):
        gf.genealogy_from_json(obj)


def test_genealogy_from_json_reads_an_integer_time_as_a_float():
    v, obj = _sample_json()
    obj["time"] = 1
    g = gf.genealogy_from_json(obj)
    assert g == v and type(g.time) is float


def test_genealogy_from_json_rejects_garbage():
    with pytest.raises(GenealogyError, match="malformed"):
        gf.genealogy_from_json({"nodes": [{"name": "zero"}]})
    with pytest.raises(GenealogyError, match="malformed"):
        gf.genealogy_from_json({"time": 1.0})
