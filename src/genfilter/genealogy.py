"""Genealogies induced by marked population events.

A genealogy is a time-stamped sequence of nodes, each holding a pocket of
exactly two colored balls.  Green balls encode parent-child wiring (the node
holding the green ball named j is the parent of node j; a node holding its
own green ball is a root), black balls stand for extant focal individuals,
blue balls mark sampling events, and red balls close off sampled lineages
whose individual later left the population.

Birth, sample, and death updates follow the swap discipline that keeps the
black balls in bijection with the inventory of extant individuals.  Pruning
every extant individual yields the visible genealogy: the part ancestral to
the samples, whose pockets are green-green (coalescence), green-blue (direct
descent), or red-blue (leaf).  `event_schedule`, the one classifier of its
nodes, gives every likelihood route its events, and `LineageFunction` counts
the lineages from that schedule alone.

One rule set says which node sequences are genealogies at all:
`validate_genealogy` lists its faults (a NaN, infinite or negative
observation time among them), and every reader (`event_schedule`, and
with it every likelihood route, `to_newick`, `embedded_chain`, `prune` and
the update operations) raises the first of them as a `GenealogyError`.
The schedule further rejects an unpruned genealogy, another pocket form, a
root that is not green-green at t <= 0 and tied events, and the lineage
count rejects a genealogy on which it goes negative.

`to_newick` and `from_newick` exchange visible genealogies as Newick
forests.  Each is one loop with an explicit stack, so no depth is too
deep; `from_newick` names a fault of the text by its position.

Node and green-ball names are drawn from a counter that never reuses a name,
so pockets stay well-formed under any event order; newborn black balls are
named max-existing-black + 1, which is exactly the inventory's add rule.
"""

from __future__ import annotations

import json
import math
import re
from bisect import insort
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .population import JumpSequence, ModelSpec, _write_json

GREEN = "green"
BLACK = "black"
BLUE = "blue"
RED = "red"

_COLORS = (GREEN, BLACK, BLUE, RED)
# sorted pocket colors of the three event kinds of a visible genealogy
_VISIBLE_KINDS = {(GREEN, GREEN): "coalescence", (BLUE, GREEN): "direct", (BLUE, RED): "leaf"}
# the change in the lineage count at each event kind
_LINEAGE_STEP = {"coalescence": 1, "direct": 0, "leaf": -1}


class GenealogyError(RuntimeError):
    """Raised on structurally invalid genealogies or update arguments."""


class NewickError(ValueError):
    """Raised on malformed Newick input, with a character position."""


class Ball(NamedTuple):
    color: str
    name: int


class Node(NamedTuple):
    name: int
    time: float
    pocket: frozenset


@dataclass(frozen=True)
class Genealogy:
    """An immutable node sequence with its observation time."""

    time: float
    nodes: tuple[Node, ...]


@dataclass(frozen=True)
class Inventory:
    """Sorted names of the extant focal individuals."""

    names: tuple[int, ...]

    def __len__(self):
        return len(self.names)

    def add(self) -> "Inventory":
        """New individual named one past the current maximum."""
        if not self.names:
            raise GenealogyError("cannot add to an empty inventory: no name to extend")
        return Inventory(self.names + (self.names[-1] + 1,))

    def drop(self, n: int) -> "Inventory":
        """Remove the n-th smallest name."""
        if not 0 <= n < len(self.names):
            raise GenealogyError(f"inventory drop index {n} out of range")
        return Inventory(self.names[:n] + self.names[n + 1:])


def _faults(g: Genealogy):
    """Each structural fault of ``g``, one message apiece, in sequence order.

    These are the rules every reader of a genealogy enforces: no time is
    NaN, the observation time ``g.time`` is finite and at least 0, no node
    name repeats, each pocket holds two balls, no node comes after
    ``g.time`` or before the node ahead of it, each ball has a known color
    and one node, each green ball names a node at or after its holder (so
    parents come first and the links form no cycle), each node's own green
    ball exists, and only a root (a node holding its own green ball) sits
    at t <= 0.
    """
    if math.isnan(g.time):
        yield "genealogy time is NaN"
    elif not 0 <= g.time < math.inf:
        yield f"genealogy time {g.time} is infinite or below 0"
    position: dict[int, int] = {}
    holder: dict[Ball, int] = {}  # each ball's first holder, by position
    for i, n in enumerate(g.nodes):
        position.setdefault(n.name, i)
        for b in n.pocket:
            holder.setdefault(b, i)
    last = -math.inf
    for i, n in enumerate(g.nodes):
        if position[n.name] != i:
            yield f"node name {n.name} repeats"
        if len(n.pocket) != 2:
            yield f"node {n.name}: pocket holds {len(n.pocket)} balls, not 2"
        if math.isnan(n.time):
            yield f"node {n.name}: time is NaN"
        elif n.time > g.time:
            yield f"node {n.name}: time {n.time} exceeds genealogy time {g.time}"
        elif n.time < last:
            yield f"node {n.name}: sequence times decrease, t={n.time} comes after one at t={last}"
        last = max(last, n.time)  # a NaN time leaves ``last`` as it was
        for b in sorted(n.pocket, key=repr):  # one order in every process, for any ball
            if b.color not in _COLORS:
                yield f"node {n.name}: unknown ball color {b.color!r}"
            elif holder[b] != i:
                yield f"ball {b} appears in nodes {g.nodes[holder[b]].name} and {n.name}"
            elif b.color == GREEN and b.name not in position:
                yield f"green ball {b.name} names no node"
            elif b.color == GREEN and position[b.name] < i:
                yield (f"green ball {b.name} is held by node {n.name}, "
                       "which comes later in the sequence")
        up = holder.get(Ball(GREEN, n.name))
        if up is None:
            yield f"node {n.name}: its green ball exists nowhere"
        elif n.time <= 0 and up != i:
            yield f"node {n.name}: a non-root at t={n.time} cannot precede the process"


def _raise_first_fault(g: Genealogy):
    """The first of `_faults`, if ``g`` has one, as a `GenealogyError`."""
    for fault in _faults(g):
        raise GenealogyError(fault)


def _reject_extant(n: Node):
    """A node holding a black ball belongs to a genealogy that is not yet pruned."""
    if any(b.color == BLACK for b in n.pocket):
        raise GenealogyError(f"node {n.name}: extant individual; prune to a visible genealogy")


def validate_genealogy(g: Genealogy) -> list[str]:
    """Every structural fault of ``g`` (see `_faults`); an empty list means valid.

    Every reader of a genealogy raises the first of these as a
    `GenealogyError`.  Full genealogies and tied event times are valid
    here; `event_schedule` rejects both.
    """
    return list(_faults(g))


class _State:
    """Mutable genealogy being edited; frozen into a `Genealogy` on demand.

    ``times`` keeps the nodes in sequence order, by insertion: a node is
    appended when an event makes it and unlinked in O(1) when a death
    destroys it.
    """

    __slots__ = ("time", "times", "pockets", "holder", "blacks",
                 "blue_count", "next_name")

    @classmethod
    def from_genealogy(cls, g: Genealogy) -> "_State":
        _raise_first_fault(g)
        st = cls()
        st.time = g.time
        st.times = {n.name: n.time for n in g.nodes}
        st.pockets = {n.name: set(n.pocket) for n in g.nodes}
        st.holder = {b: n.name for n in g.nodes for b in n.pocket}
        st.blacks = sorted(b.name for b in st.holder if b.color == BLACK)
        st.blue_count = max((b.name for b in st.holder if b.color == BLUE), default=-1) + 1
        st.next_name = max(st.times, default=-1) + 1
        return st

    def freeze(self) -> Genealogy:
        nodes = tuple(Node(name, t, frozenset(self.pockets[name]))
                      for name, t in self.times.items())
        return Genealogy(self.time, nodes)

    # -- update operations ---------------------------------------------

    def _check_time(self, t: float):
        last = next(reversed(self.times.values()), 0.0)
        if t < last or t < self.time:
            raise GenealogyError(f"event time {t} precedes the genealogy front")

    def _selected(self, n: int) -> tuple[Ball, int]:
        if not 0 <= n < len(self.blacks):
            raise GenealogyError(
                f"selection index {n} out of range for {len(self.blacks)} extant individuals")
        ball = Ball(BLACK, self.blacks[n])
        return ball, self.holder[ball]

    def _fresh_node(self, t: float, pocket: set) -> int:
        name = self.next_name
        self.next_name += 1
        self.times[name] = t
        self.pockets[name] = pocket
        for b in pocket:
            self.holder[b] = name
        return name

    def _split(self, black: Ball, holder: int, t: float, mate: Ball):
        """Move ``black`` from its holder into a new node at t beside ``mate``;
        the holder keeps the new node's green ball in its place."""
        green = Ball(GREEN, self.next_name)  # the name the new node takes
        self.pockets[holder].remove(black)
        self.pockets[holder].add(green)
        self.holder[green] = holder
        self._fresh_node(t, {black, mate})
        self.time = t

    def birth(self, n: int, t: float):
        """Individual n gives birth at t: new node gets the parent's black
        ball plus the newborn's, the parent's node gets the new green."""
        self._check_time(t)
        black, parent = self._selected(n)
        newborn = Ball(BLACK, self.blacks[-1] + 1)
        insort(self.blacks, newborn.name)
        self._split(black, parent, t, newborn)

    def sample(self, n: int, t: float):
        """Individual n is sampled at t: like a birth, but the new node keeps
        a blue ball instead of a newborn black."""
        self._check_time(t)
        black, holder = self._selected(n)
        blue = Ball(BLUE, self.blue_count)
        self.blue_count += 1
        self._split(black, holder, t, blue)

    def death(self, n: int, t: float):
        """Individual n leaves at t.  If its pocket mate is blue the node
        persists with a red ball; otherwise the node is unlinked and its own
        green ball returns home to be destroyed with it."""
        self._check_time(t)
        black, name = self._selected(n)
        del self.blacks[n]
        pocket = self.pockets[name]
        (mate,) = pocket - {black}
        if mate.color == BLUE:
            red = Ball(RED, mate.name)
            pocket.remove(black)
            pocket.add(red)
            del self.holder[black]
            self.holder[red] = name
        else:
            own = Ball(GREEN, name)
            keeper = self.holder[own]
            if keeper != name:
                self.pockets[keeper].remove(own)
                self.pockets[keeper].add(mate)
                self.holder[mate] = keeper
            del self.holder[black]
            del self.holder[own]
            del self.pockets[name]
            del self.times[name]
        self.time = t


def new_genealogy(n0: int) -> Genealogy:
    """n0 root nodes at time 0, each holding its own green and black ball."""
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    return Genealogy(0.0, tuple(Node(i, 0.0, frozenset({Ball(GREEN, i), Ball(BLACK, i)}))
                                 for i in range(n0)))


def apply_birth(g: Genealogy, n: int, t: float) -> Genealogy:
    st = _State.from_genealogy(g)
    st.birth(n, t)
    return st.freeze()


def apply_sample(g: Genealogy, n: int, t: float) -> Genealogy:
    st = _State.from_genealogy(g)
    st.sample(n, t)
    return st.freeze()


def apply_death(g: Genealogy, n: int, t: float) -> Genealogy:
    st = _State.from_genealogy(g)
    st.death(n, t)
    return st.freeze()


def build_genealogy(spec: ModelSpec, traj: JumpSequence) -> tuple[Genealogy, Inventory]:
    """Replay a trajectory's marked events into a genealogy.

    Returns the genealogy at the trajectory horizon together with the final
    inventory (which always equals the sorted black-ball names).
    """
    st = _State.from_genealogy(new_genealogy(int(traj.x0[spec.focal_dim])))
    for idx, j in enumerate(traj.jumps):
        ev = spec.events[j.event]
        try:
            if ev.is_birth:
                st.birth(j.aux, j.time)
            elif ev.is_death:
                st.death(j.aux, j.time)
            elif ev.is_sample:
                st.sample(j.aux, j.time)
        except GenealogyError as err:
            raise GenealogyError(f"jump {idx} ({ev.name!r} at t={j.time}): {err}") from None
    st.time = traj.t_end
    return st.freeze(), Inventory(tuple(st.blacks))


def fold_inventory(spec: ModelSpec, traj: JumpSequence) -> Inventory:
    """Fold the inventory recursion over a trajectory, bypassing genealogies."""
    inv = Inventory(tuple(range(int(traj.x0[spec.focal_dim]))))
    for j in traj.jumps:
        ev = spec.events[j.event]
        if ev.is_birth:
            inv = inv.add()
        elif ev.is_death:
            inv = inv.drop(j.aux)
    return inv


def inventory_of(g: Genealogy) -> Inventory:
    names = sorted(b.name for n in g.nodes for b in n.pocket if b.color == BLACK)
    return Inventory(tuple(names))


def prune(g: Genealogy) -> Genealogy:
    """Drop every extant individual, smallest black name first.

    The result is the visible genealogy: only structure ancestral to sampling
    events survives.  The outcome does not depend on the drop order.
    """
    st = _State.from_genealogy(g)
    while st.blacks:
        st.death(0, st.time)
    return st.freeze()


def event_schedule(v: Genealogy) -> tuple[tuple[float, str], ...]:
    """Classified event times of a visible genealogy, in sequence order.

    A fault `validate_genealogy` lists is a `GenealogyError`, the first
    one.  Root nodes (which hold their own green ball) describe the initial
    condition and are not events: each must be green-green at t <= 0, one
    lineage present from time 0 on.  Every other node is an event, so an
    unpruned genealogy and any pocket form but the three visible ones are
    rejected, and so are two events at one time: each needs the lineage
    count between them.
    """
    _raise_first_fault(v)
    out: dict[float, str] = {}
    for n in v.nodes:
        _reject_extant(n)
        colors = tuple(sorted(b.color for b in n.pocket))
        if Ball(GREEN, n.name) in n.pocket:
            if colors != (GREEN, GREEN) or n.time > 0:
                raise GenealogyError(f"node {n.name}: a root must be green-green at t <= 0")
            continue
        kind = _VISIBLE_KINDS.get(colors)
        if kind is None:
            raise GenealogyError(f"node {n.name}: pocket is not of visible-genealogy form")
        if n.time in out:
            raise GenealogyError(f"two genealogy events share time {n.time}")
        out[n.time] = kind
    return tuple(out.items())


class LineageFunction:
    """Right-continuous count of visible-genealogy lineages over time.

    The count is read from `event_schedule` alone, kept as ``schedule``:
    each root, a node the schedule leaves out, adds one lineage at its own
    time (at most 0), a coalescence adds one, a direct descent none and a
    leaf removes one.  ``breaks`` are the times where the count steps and
    ``values`` the count from each on.  A genealogy the schedule rejects,
    or on which the count goes negative, raises `GenealogyError`.
    """

    def __init__(self, v: Genealogy):
        self.schedule = event_schedule(v)
        deltas: dict[float, int] = {}
        for n in v.nodes:
            if n.time <= 0:  # the schedule has checked that exactly the roots are here
                deltas[n.time] = deltas.get(n.time, 0) + 1
        for t, kind in self.schedule:
            if _LINEAGE_STEP[kind]:
                deltas[t] = _LINEAGE_STEP[kind]
        self.breaks = np.array(sorted(deltas), dtype=float)
        self.values = np.cumsum([deltas[t] for t in sorted(deltas)], dtype=int)
        if len(self.values) and self.values.min() < 0:
            t = self.breaks[np.argmax(self.values < 0)]
            raise GenealogyError(f"leaf at t={t} leaves a negative lineage count")

    def __call__(self, t: float) -> int:
        return int(self.at(t))

    def at(self, times) -> np.ndarray:
        """The count at each of ``times`` at once."""
        counts = np.concatenate(([0], self.values))
        return counts[np.searchsorted(self.breaks, np.asarray(times, dtype=float), side="right")]


def _tree(v: Genealogy):
    """A visible genealogy's links, read from its pockets.

    Returns its nodes by name, each node's parent (the node holding its
    green ball; a root holds its own), each node's children ordered by time
    and then name, and the node of each blue ball.  A fault
    `validate_genealogy` lists, and an unpruned genealogy, are a
    `GenealogyError`.
    """
    _raise_first_fault(v)
    nodes = {n.name: n for n in v.nodes}
    parent: dict[int, int] = {}
    sample_node: dict[int, int] = {}
    for n in v.nodes:
        _reject_extant(n)
        for b in n.pocket:
            if b.color == GREEN:
                parent[b.name] = n.name
            elif b.color == BLUE:
                sample_node[b.name] = n.name
    children: dict[int, list[int]] = {name: [] for name in nodes}
    for name, up in parent.items():
        if up != name:
            children[up].append(name)
    for kids in children.values():
        kids.sort(key=lambda c: (nodes[c].time, c))
    return nodes, parent, children, sample_node


class LineageRecord(NamedTuple):
    sample_time: float
    attach_time: float
    attach_kind: str  # "root", "coalescence", or "direct"


def embedded_chain(v: Genealogy) -> tuple[LineageRecord, ...]:
    """Per-sample attachment data, in blue-ball (chronological) order.

    Each sampled lineage is walked rootward; its attachment time is where it
    first meets the sub-genealogy spanned by earlier samples, or its own root
    time if it never does.  The attachment kind records the meeting node's
    pocket type.
    """
    nodes, parent, _, sample_node = _tree(v)
    claimed: set[int] = set()
    out = []
    for q in sorted(sample_node):
        cur = sample_node[q]
        s_q = nodes[cur].time
        path = []
        while cur not in claimed:
            path.append(cur)
            if parent[cur] == cur:
                break
            cur = parent[cur]
        meet = nodes[cur]
        if cur not in claimed:
            kind = "root"
        else:
            kind = "direct" if any(b.color == BLUE for b in meet.pocket) else "coalescence"
        claimed.update(path)
        out.append(LineageRecord(s_q, meet.time, kind))
    return tuple(out)


# ---------------------------------------------------------------------------
# Newick and JSON forms.

def _node_label(n: Node) -> str:
    blue = next((b for b in n.pocket if b.color == BLUE), None)
    if blue is None:
        return ""
    if any(b.color == RED for b in n.pocket):
        return f"r{blue.name}"
    return f"b{blue.name}"


def to_newick(v: Genealogy) -> str:
    """Render a visible genealogy as a Newick forest, one tree per root.

    Red leaves are labeled ``r<q>``, blue pass-through nodes ``b<q>`` (q is
    the blue-ball name), coalescences are unlabeled; every branch carries a
    length.  The forest is newline-separated with a semicolon per tree.
    The trees are walked with an explicit stack, so any depth renders.
    A branch is measured from its parent's time or 0, whichever is later:
    `from_newick` anchors every root at 0, and only a root sits at t <= 0,
    so a root before 0 (at -inf, say) reads back at 0 with the times below
    it kept.
    """
    nodes, parent, children, _ = _tree(v)

    def below(name: int) -> list:
        """``name``'s children with commas between them, in the order the stack pops them."""
        return [item for c in reversed(children[name]) for item in (c, ",")][:-1]

    out = []
    roots = [name for name, up in parent.items() if up == name]
    for r in sorted(roots, key=lambda name: (nodes[name].time, name)):
        out.append("(")
        todo = [");\n", *below(r)]  # text to write, or a node to write next
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            n = nodes[item]
            tail = f"{_node_label(n)}:{n.time - max(nodes[parent[item]].time, 0.0):.17g}"
            if children[item]:
                out.append("(")
                todo += [")" + tail, *below(item)]
            else:
                out.append(tail)
    return "".join(out)


_LABEL = re.compile(r"[A-Za-z0-9_.\-]*")
_NUMBER = re.compile(r"[+\-]?(\d+\.?\d*|\.\d+)([eE][+\-]?\d+)?")
_SPACE = re.compile(r"(?:\s|\[[^\]]*\])*")  # whitespace and closed bracket comments


def _skip(text: str, pos: int) -> int:
    """The position past the whitespace and bracket comments at ``pos``."""
    pos = _SPACE.match(text, pos).end()
    if text.startswith("[", pos):
        raise NewickError(f"position {pos}: unterminated comment")
    return pos


def from_newick(text: str) -> Genealogy:
    """Parse a Newick forest back into a visible genealogy.

    Roots anchor at time 0 and node times accumulate down the branch lengths;
    fresh node names are assigned in time order, so event times, tree shape,
    and sample labels round-trip (names themselves are not preserved).

    One pass over the text records each node where it starts, with an
    explicit stack of open parentheses, so any depth reads; a fault of the
    text is a `NewickError` naming its position.  A second pass over the
    records, in text order, checks each tree's labels, child counts and
    lengths and gives each node its time; a sample label used twice is
    found as the nodes are named.
    """
    records = []  # per node, in text order: [parent, depth, label, length, children]
    opened = []  # the nodes whose '(' is not yet closed, innermost last
    pos = _skip(text, 0)
    while pos < len(text) or opened:  # a node starts at pos
        rid = len(records)
        records.append([opened[-1] if opened else None, len(opened), "", None, []])
        if opened:
            records[opened[-1]][4].append(rid)
        if text.startswith("(", pos):
            opened.append(rid)
            pos = _skip(text, pos + 1)
            continue
        while True:  # node rid ends here: its label and length, then a ')' ends its parent
            records[rid][2] = _LABEL.match(text, pos).group(0)
            pos = _skip(text, pos + len(records[rid][2]))
            if text.startswith(":", pos):
                pos = _skip(text, pos + 1)
                number = _NUMBER.match(text, pos)
                if number is None:
                    raise NewickError(f"position {pos}: expected a branch length")
                records[rid][3] = float(number.group(0))
                if records[rid][3] == math.inf:
                    raise NewickError(f"position {pos}: branch length {number.group(0)} overflows")
                pos = _skip(text, number.end())
            if not opened or text.startswith(",", pos):
                break
            if not text.startswith(")", pos):
                raise NewickError(f"position {pos}: expected ')' or ','")
            rid = opened.pop()
            pos += 1
        if not opened and not text.startswith(";", pos):
            raise NewickError(f"position {pos}: expected ';' after tree")
        pos = _skip(text, pos + 1)

    times, samples = [], []  # per record: its time, and its blue-ball name and colors
    for up, depth, label, length, kids in records:
        if depth == 0:
            if label != "" or len(kids) != 1:
                raise NewickError("each tree must be an unlabeled root with one child")
            times.append(0.0)
            samples.append((None, ()))
            continue
        if length is None:
            raise NewickError("branch lengths are mandatory")
        if length < 0:
            raise NewickError(f"negative branch length {length}")
        if label.startswith("r") and label[1:].isdigit():
            q, colors = int(label[1:]), (RED, BLUE)
            if kids:
                raise NewickError(f"red node r{q} must be a leaf")
        elif label.startswith("b") and label[1:].isdigit():
            q, colors = int(label[1:]), (BLUE,)
            if len(kids) != 1:
                raise NewickError(f"blue node b{q} must have exactly one child")
        elif label == "":
            q, colors = None, ()
            if len(kids) != 2:
                raise NewickError("unlabeled internal nodes must have exactly two children")
        else:
            raise NewickError(f"unrecognized label {label!r}")
        times.append(times[up] + length)
        if times[-1] == math.inf:
            raise NewickError(f"node {label!r}: time {times[up]} + {length} overflows")
        samples.append((q, colors))

    order = sorted(range(len(records)), key=lambda r: (times[r], records[r][1]))
    name_of = {rid: name for name, rid in enumerate(order)}
    seen_q = set()
    nodes = []
    for name, rid in enumerate(order):
        q, colors = samples[rid]
        if q is not None:
            if q in seen_q:
                raise NewickError(f"sample label {q} repeats")
            seen_q.add(q)
        pocket = {Ball(GREEN, name_of[kid]) for kid in records[rid][4]}
        pocket.update(Ball(color, q) for color in colors)
        if records[rid][1] == 0:  # a root holds its own green ball
            pocket.add(Ball(GREEN, name))
        nodes.append(Node(name, times[rid], frozenset(pocket)))
    time = max((n.time for n in nodes), default=0.0)
    return Genealogy(time, tuple(nodes))


def genealogy_to_json(g: Genealogy) -> dict:
    return {
        "time": g.time,
        "nodes": [
            {
                "name": n.name,
                "time": n.time,
                "pocket": [{"color": b.color, "name": b.name}
                           for b in sorted(n.pocket)],
            }
            for n in g.nodes
        ],
    }


def _json_value(value, kind: type):
    """``value`` if JSON gave it as a ``kind`` (int or float); a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise TypeError(f"{value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return value


def genealogy_from_json(obj: dict) -> Genealogy:
    """The genealogy of `genealogy_to_json`'s form: names JSON integers, times JSON numbers."""
    try:
        nodes = tuple(
            Node(_json_value(n["name"], int), float(_json_value(n["time"], float)),
                 frozenset(Ball(str(b["color"]), _json_value(b["name"], int))
                           for b in n["pocket"]))
            for n in obj["nodes"]
        )
        return Genealogy(float(_json_value(obj["time"], float)), nodes)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise GenealogyError(f"malformed genealogy JSON: {err}") from None


def write_genealogy(path, g: Genealogy, provenance=None) -> Path:
    obj = genealogy_to_json(g)
    if provenance:
        obj["provenance"] = dict(provenance)
    return _write_json(path, obj)


def read_genealogy(path) -> Genealogy:
    """Read a genealogy written by `write_genealogy`; content that is not JSON is a GenealogyError."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except ValueError as err:
        raise GenealogyError(f"{path} is not valid JSON: {err}") from None
    return genealogy_from_json(obj)
