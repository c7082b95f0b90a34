"""Markov jump population processes on the integer lattice.

A model couples a finite catalog of event channels (integer displacement plus
birth/death/sample markers) with nonnegative rate functions, an initial
distribution, and the coordinate that holds the focal subpopulation's size;
the markers are checked against that coordinate when the model is built.
This module simulates exact trajectories, evaluates trajectory log densities
against a Poisson base measure, and integrates the Kolmogorov forward
(master) equation on a finite truncation of the lattice.

Rate functions are callables ``rate(t, x)`` where ``x`` may carry leading
batch axes (shape ``(..., d)``).  Writing rates as plain numpy expressions,
as the built-in models do, lets the particle filter propagate whole ensembles
without Python-level loops; scalar use sees ``x`` of shape ``(d,)``.

Importing this module loads numpy alone.  scipy is imported inside the
functions that need it, on their first call: ``scipy.sparse`` by the grid
routes (`forward_generator`, `kfe_integrate` and the oracle's generators)
and ``scipy.integrate`` where a channel has a rate bound, by the grid's RK45
and `history_log_density`'s quadrature; `simulate` and the particle filter
thin such a channel and load neither.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

DEFAULT_MAX_JUMPS = 10_000_000


class SimulationError(RuntimeError):
    """Raised when an exact simulation cannot proceed."""


class IntegrationError(RuntimeError):
    """Raised when forward-equation integration fails."""


def ensure_rng(rng) -> np.random.Generator:
    """Coerce ``rng`` (Generator, SeedSequence, int, or None) to a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class EventType:
    """One transition channel: a displacement plus optional markers.

    Birth and death markers are mutually exclusive; a sample marker excludes
    both.  Unmarked channels move the state without touching the focal
    subpopulation's membership bookkeeping.
    """

    name: str
    displacement: tuple[int, ...]
    is_birth: bool = False
    is_death: bool = False
    is_sample: bool = False

    def __post_init__(self):
        if self.is_birth and self.is_death:
            raise ValueError(f"event {self.name!r}: birth and death markers are exclusive")
        if self.is_sample and (self.is_birth or self.is_death):
            raise ValueError(f"event {self.name!r}: sample marker excludes birth/death")

    @property
    def is_marked(self) -> bool:
        return self.is_birth or self.is_death or self.is_sample


class ModelSpec:
    """A continuous-time Markov jump process on Z^d with marked channels.

    Parameters
    ----------
    events : sequence of EventType
        The finite event catalog.  Displacements must be pairwise distinct so
        that a jump's displacement identifies its channel.
    rates : sequence of callables
        One rate per event, ``rate(t, x) -> nonnegative``, broadcasting over
        leading axes of ``x``.
    init_sample, init_pmf
        Sampler ``(rng, n) -> array of n states, shape (n, d)`` and pmf
        ``states -> probabilities`` of the initial distribution; the pmf
        broadcasts over leading axes like a rate, so the grid oracle reads
        a whole truncation in one call.  Each is called in one place,
        `_initial_states` and `_initial_mass`; a sample of another shape,
        or a pmf that does not give one nonnegative finite value per state,
        is a defect of the model and raises `SimulationError` on every route.
    focal_dim : int
        The coordinate, among the active ones, that holds the size of the
        focal subpopulation: ``x[..., focal_dim]`` of a full state or of the
        filter's projected one, since bookkeeping coordinates come last.
        Each channel's displacement there must be +1 for a birth, -1 for a
        death and 0 for every other channel; the spec checks this when it is
        built and raises ValueError naming the first channel that breaks it.
    mu : float
        Rate of the Poisson base measure used by the density functions; one
        outside (0, inf), NaN included, raises ValueError.
    rate_bounds : sequence of callables or None
        One entry per event: None for a channel whose rate is constant
        between breakpoints, or ``bound(t0, t1, x)`` dominating a rate that
        varies continuously in t, on [t0, t1] at fixed ``x``.  A bound is what
        declares a channel continuous.  Within each epoch `simulate` and the
        filter then thin that channel alone against its bound, called one
        state at a time, while every other channel runs at its rate at the
        epoch's start; the grid routes integrate such an epoch by RK45,
        refilling the generator's data at every step, and rate integrals use
        quadrature.  None means no channel has a bound.
    rate_breakpoints : tuple of float
        Times where rates may jump.  They cut every interval into epochs
        (`epochs`); every route restarts there and reads a channel without
        a bound at the epoch's start time.
    bookkeeping_dims : tuple of int
        Trailing coordinates that no rate reads and that are not the focal
        one (pure event counters).  The filter may project them out of its
        internal state.
    """

    def __init__(self, name, d, events, rates, init_sample, init_pmf, focal_dim,
                 mu=1.0, rate_bounds=None, rate_breakpoints=(),
                 bookkeeping_dims=(), params=None):
        events = tuple(events)
        if len(rates) != len(events):
            raise ValueError("need exactly one rate function per event")
        bookkeeping_dims = tuple(sorted(int(i) for i in bookkeeping_dims))
        if bookkeeping_dims and bookkeeping_dims != tuple(range(d - len(bookkeeping_dims), d)):
            raise ValueError("bookkeeping_dims must be a trailing block of coordinates")
        self.active_dims = tuple(i for i in range(d) if i not in bookkeeping_dims)
        if isinstance(focal_dim, bool) or not isinstance(focal_dim, (int, np.integer)) \
                or not 0 <= focal_dim < len(self.active_dims):
            raise ValueError(f"focal_dim must be an index among the {len(self.active_dims)} "
                             f"active coordinates, got {focal_dim!r}")
        seen = set()
        for ev in events:
            if len(ev.displacement) != d:
                raise ValueError(f"event {ev.name!r}: displacement is not length {d}")
            if ev.displacement in seen:
                raise ValueError(f"duplicate displacement {ev.displacement}")
            seen.add(ev.displacement)
            step = int(ev.is_birth) - int(ev.is_death)
            if ev.displacement[focal_dim] != step:
                raise ValueError(f"event {ev.name!r}: focal size changes by "
                                 f"{ev.displacement[focal_dim]}, markers require {step}")
        self.name = name
        self.d = int(d)
        self.events = events
        self.rates = tuple(rates)
        self.init_sample = init_sample
        self.init_pmf = init_pmf
        self.focal_dim = int(focal_dim)
        self.mu = float(mu)
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {mu}")
        self.rate_bounds = (None,) * len(events) if rate_bounds is None else tuple(rate_bounds)
        if len(self.rate_bounds) != len(events) or not all(
                b is None or callable(b) for b in self.rate_bounds):
            raise ValueError("rate_bounds must have one callable or None per event")
        self.rate_breakpoints = tuple(sorted(float(t) for t in rate_breakpoints))
        self.bookkeeping_dims = bookkeeping_dims
        self.params = dict(params or {})

        self.n_events = len(events)
        self.displacements = np.array([ev.displacement for ev in events],
                                      dtype=np.int64).reshape(self.n_events, d)
        self.active_displacements = self.displacements[:, :len(self.active_dims)]
        self.birth_mask = np.array([ev.is_birth for ev in events], dtype=bool)
        self.death_mask = np.array([ev.is_death for ev in events], dtype=bool)
        self.sample_mask = np.array([ev.is_sample for ev in events], dtype=bool)
        self.bound_mask = np.array([b is not None for b in self.rate_bounds], dtype=bool)
        self.varies_within_epochs = bool(self.bound_mask.any())
        self.any_time_dependent = bool(self.rate_breakpoints) or self.varies_within_epochs

    def __repr__(self):
        return f"ModelSpec({self.name!r}, d={self.d}, events={len(self.events)})"

    def epochs(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """[t0, t1] cut at the rate breakpoints strictly inside it, as (start, end) pairs."""
        cuts = [p for p in self.rate_breakpoints if t0 < p < t1]
        return list(zip([t0, *cuts], [*cuts, t1]))

    def rate(self, k: int, t: float, x) -> float:
        """Rate of channel ``k`` at time ``t`` in state ``x``, checked like `rate_matrix`."""
        x = np.asarray(x, dtype=np.int64)
        r = float(np.asarray(self.rates[k](t, x)))
        if not 0.0 <= r < math.inf:
            raise self._rate_error(k, f"rate {r} at t={t}", x)
        return r

    def rate_matrix(self, t: float, states) -> np.ndarray:
        """All channel rates at once; shape ``states.shape[:-1] + (n_events,)``.

        A negative or non-finite rate is a defect of the model, not a value
        to clamp: it raises `SimulationError` naming the channel, the time
        and the state.
        """
        states = np.asarray(states, dtype=np.int64)
        out = np.empty(states.shape[:-1] + (self.n_events,), dtype=float)
        for k, fn in enumerate(self.rates):
            out[..., k] = fn(t, states)
        if out.size and not (out.min() >= 0.0 and out.max() < math.inf):
            *row, k = np.argwhere(~(out >= 0.0) | np.isinf(out))[0]
            raise self._rate_error(k, f"rate {out[(*row, k)]} at t={t}", states[tuple(row)])
        return out

    def _rate_error(self, k, what, x) -> SimulationError:
        return SimulationError(f"model {self.name!r}: channel {self.events[k].name!r} has "
                               f"{what} in state {tuple(x.tolist())}")

    def rate_bound(self, k: int, t0: float, t1: float, x) -> float:
        """An upper bound for channel ``k`` on [t0, t1] at state ``x``.

        [t0, t1] lies within one epoch, so a channel without a bound is
        constant there and its rate at ``t0`` bounds it.  A supplied bound
        that is negative or not finite raises `SimulationError` naming the
        channel, the interval and the state.
        """
        if self.rate_bounds[k] is None:
            return self.rate(k, t0, x)
        x = np.asarray(x, dtype=np.int64)
        b = float(self.rate_bounds[k](t0, t1, x))
        if not 0.0 <= b < math.inf:
            raise self._rate_error(k, f"rate bound {b} on [{t0}, {t1}]", x)
        return b


@dataclass(frozen=True)
class Jump:
    """One realized event: time, channel index, auxiliary member number."""

    time: float
    event: int
    aux: int = 0


@dataclass(frozen=True)
class JumpSequence:
    """A trajectory: initial state, ordered jumps, and observation horizon."""

    x0: tuple[int, ...]
    jumps: tuple[Jump, ...]
    t_end: float


@dataclass(frozen=True)
class History:
    """A trajectory with the auxiliary numbers forgotten."""

    horizon: float
    x0: tuple[int, ...]
    events: tuple[tuple[float, int], ...]


def to_history(traj: JumpSequence) -> History:
    return History(traj.t_end, traj.x0, tuple((j.time, j.event) for j in traj.jumps))


def simulate(spec: ModelSpec, t_end: float, rng,
             max_jumps: int = DEFAULT_MAX_JUMPS) -> JumpSequence:
    """Draw an exact trajectory on [0, t_end].

    The horizon is walked one epoch (`ModelSpec.epochs`) at a time, by the
    filter kernel's rule.  A channel without a rate bound runs at its rate
    at the epoch's start; one with a bound is thinned against
    `ModelSpec.rate_bound` on [t, epoch end] (Lewis & Shedler 1979).  One
    uniform times the clock's total both accepts a candidate time (when at
    most the summed rates there, with only the bounded channels read again)
    and picks the channel.  A rejected candidate keeps its time.  Marked
    events draw an auxiliary number uniformly over the focal subpopulation
    just before the jump.  Identical (spec, seed, t_end) give identical output.
    More than ``max_jumps`` jumps raise `SimulationError`, and a ``t_end``
    that is not finite or is below 0 raises ValueError, as the readers of a
    trajectory (`state_at`, `history_log_density`) do.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {t_end}")
    rng = ensure_rng(rng)
    x = _initial_states(spec, rng, 1)[0]
    x0 = tuple(int(v) for v in x)
    bounded = np.flatnonzero(spec.bound_mask).tolist()
    jumps: list[Jump] = []
    for a, b in spec.epochs(0.0, t_end):
        t = a
        while True:
            rates = spec.rate_matrix(a, x)
            for k in bounded:
                rates[k] = spec.rate_bound(k, t, b, x)
            total = float(rates.sum())
            if total <= 0.0:
                break
            start, t = t, t + rng.exponential() / total
            if t > b:
                break
            u = rng.random() * total
            if bounded:
                for k in bounded:
                    rates[k] = spec.rate(k, t, x)
                actual = float(rates.sum())
                _check_bound(actual, total, start, b)
                if u > actual:
                    continue
            k = min(int(np.searchsorted(np.cumsum(rates), u, side="right")), spec.n_events - 1)
            ev = spec.events[k]
            if ev.is_marked:
                size = int(x[spec.focal_dim])
                if size <= 0:
                    raise SimulationError(
                        f"marked event {ev.name!r} fired at t={t} with focal size 0")
                aux = int(rng.integers(size))
            else:
                aux = 0
            x = x + spec.displacements[k]
            jumps.append(Jump(t, k, aux))
            if len(jumps) > max_jumps:
                raise SimulationError(f"jump count exceeded cap {max_jumps} before t={t_end}")
    return JumpSequence(x0, tuple(jumps), float(t_end))


def _initial_states(spec: ModelSpec, rng, n: int) -> np.ndarray:
    """``n`` states drawn by ``spec.init_sample``, as an (n, d) int64 array.

    A draw of another shape, or with an entry that is not a finite whole
    number, is a `SimulationError` naming it.
    """
    raw = np.asarray(spec.init_sample(ensure_rng(rng), n))
    if raw.shape != (n, spec.d):
        raise SimulationError(f"init_sample returned shape {raw.shape}, "
                              f"expected ({n}, {spec.d})")
    try:
        return _state_array(raw, spec.d)
    except ValueError as exc:
        raise SimulationError(f"init_sample: {exc}") from None


def _initial_mass(spec: ModelSpec, states: np.ndarray) -> np.ndarray:
    """``spec.init_pmf`` at each row of ``states``, an (n, d) array.

    A result that is not one value per state, or a value that is negative
    or not finite, is a `SimulationError` naming it.
    """
    pmf = np.asarray(spec.init_pmf(states), dtype=float)
    if pmf.shape != (len(states),):
        raise SimulationError(f"init_pmf gave shape {pmf.shape} for {len(states)} states; "
                              f"it must broadcast over leading axes like a rate")
    if not (pmf.min() >= 0.0 and pmf.max() < math.inf):
        i = np.argmax(~(pmf >= 0.0) | (pmf == math.inf))
        raise SimulationError(f"init_pmf gave {pmf[i]} at state {tuple(states[i].tolist())}; "
                              f"it must be nonnegative and finite")
    return pmf


def _check_bound(actual, bound, start, end) -> None:
    """Raise `SimulationError` if a thinning candidate's summed rate exceeds its bound.

    ``actual`` is read at the candidate, ``bound`` is what it was drawn
    against on [start, end]: scalars, or arrays with one entry per candidate.
    """
    actual, bound, start = np.atleast_1d(actual, bound, start)
    over = np.flatnonzero(actual > bound * (1.0 + 1e-12))
    if len(over):
        j = over[0]
        raise SimulationError(f"total rate {actual[j]} exceeds its bound {bound[j]} "
                              f"on [{start[j]}, {end}]")


def state_at(spec: ModelSpec, traj: JumpSequence, t: float) -> np.ndarray:
    """State at time ``t`` (right-continuous).

    The left limit at ``t`` is the state at ``np.nextafter(t, -np.inf)``.
    The trajectory is read by `_path`, like a history: an x0 that is not a
    state of the model, a horizon that is not finite or is below 0, or a
    jump outside (0, t_end] or out of order, raises ValueError.
    """
    h = to_history(traj)
    times, _, states = _path(spec, h, _x0(spec, h))
    return states[np.searchsorted(times, t, side="right")]


def _rate_integral(spec: ModelSpec, x, t0: float, t1: float, channels=None) -> float:
    """Integral of the summed rate of ``channels`` (default: all) over [t0, t1] at frozen ``x``.

    A channel without a rate bound contributes its rate at each epoch's
    start times the epoch's length; a channel with a bound varies
    continuously and is integrated by adaptive quadrature on each epoch.
    """
    if t1 <= t0:
        return 0.0
    from scipy.integrate import quad  # imported here: `import genfilter` does not load it
    x = np.asarray(x, dtype=np.int64)
    channels = range(spec.n_events) if channels is None else channels
    varying = [k for k in channels if spec.rate_bounds[k] is not None]
    steady = [k for k in channels if spec.rate_bounds[k] is None]

    def f(s):
        return sum(spec.rate(k, s, x) for k in varying)
    total = 0.0
    for a, b in spec.epochs(t0, t1):
        rate = 0.0
        for k in steady:
            rate += spec.rate(k, a, x)
        total += rate * (b - a)
        if varying:
            total += quad(f, a, b, epsabs=1e-14, epsrel=1e-9, limit=200)[0]
    return total


def _x0(spec: ModelSpec, h: History | JumpSequence) -> np.ndarray:
    """``h.x0`` as a (1, d) int64 array, read by `_state_array`.

    An x0 that is not ``spec.d`` finite whole numbers raises ValueError naming it.
    """
    try:
        return _state_array([h.x0], spec.d)
    except ValueError:
        raise ValueError(f"x0 {h.x0!r} is not a state of {spec.d} finite whole numbers") from None


def _path(spec: ModelSpec, h: History, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The event times, channels and states of ``h``.

    ``states[0]`` is ``x0``, as the caller read it with `_x0`, and
    ``states[i]`` the state after event i - 1.  A horizon that is not finite
    or is below 0, or an event time outside (0, horizon] or out of order,
    raises ValueError.
    """
    if not 0.0 <= h.horizon < math.inf:
        raise ValueError(f"history horizon {h.horizon} is not finite or is below 0")
    times = np.array([t for t, _ in h.events], dtype=float)
    ok = (times > 0.0) & (times <= h.horizon) & (np.diff(times, prepend=0.0) >= 0.0)
    if not ok.all():
        raise ValueError(f"event time {times[np.argmin(ok)]} is outside (0, {h.horizon}] "
                         f"or unordered")
    channels = np.array([k for _, k in h.events], dtype=np.int64)
    states = x0 + np.cumsum(np.vstack([np.zeros_like(x0), spec.displacements[channels]]), axis=0)
    return times, channels, states


def history_log_density(spec: ModelSpec, h: History) -> float:
    """Log density of a history against the rate-``mu`` Poisson base measure.

    Returns -inf when the initial state has zero mass or some realized event
    has zero rate at its own jump time.  The initial state is read by `_x0`
    and its mass by `_initial_mass`, before the event times are checked: an
    x0 that is not a state of the model raises ValueError naming it, a
    defect of the initial law raises `SimulationError`, as on every route,
    and a time fault raises ValueError (`_path`).  The history is read one epoch
    (`ModelSpec.epochs`) at a time: one checked `rate_matrix` call over the
    states that dwell in the epoch gives each channel without a rate bound
    its survival (rates times dwell) and each jump out of them its rate.  A
    channel with a bound is integrated by quadrature and read at the jump
    itself, as is a jump out of a state that does not dwell in the epoch (a
    tie, or a jump at a breakpoint).  When the epoch's call meets a negative
    or NaN rate, its states are read again one at a time from when each is
    entered, so the `SimulationError` names the first bad state at that
    time, unless an impossible jump comes first.
    """
    x0 = _x0(spec, h)
    p0 = float(_initial_mass(spec, x0)[0])
    if p0 <= 0.0:
        return -math.inf
    # state i holds on [starts[i], ends[i]] and is left by jump i
    times, channels, states = _path(spec, h, x0)
    starts = np.concatenate(([0.0], times))
    ends = np.append(times, h.horizon)
    bounded = np.flatnonzero(spec.bound_mask).tolist()

    def terms(t, a, b, idx, n_jumps):
        """(survival, log jump rates) on epoch [a, b] of states ``idx``, read at ``t``.

        The first ``n_jumps`` of ``idx`` are left by jumps in the epoch.
        """
        dwell = np.maximum(np.minimum(ends[idx], b) - np.maximum(starts[idx], a), 0.0)
        held = idx[dwell > 0.0]
        rates = spec.rate_matrix(t, states[held])
        survival = float(rates[:, ~spec.bound_mask].sum(axis=1) @ dwell[dwell > 0.0])
        if bounded:
            for i in held:
                survival += _rate_integral(spec, states[i], max(starts[i], a), min(ends[i], b),
                                           channels=bounded)
        jumps = idx[:n_jumps]
        k = channels[jumps]
        read = (dwell[:n_jumps] > 0.0) & ~spec.bound_mask[k]
        r = np.empty(n_jumps)
        r[read] = rates[np.searchsorted(held, jumps[read]), k[read]]
        for j in np.flatnonzero(~read):
            r[j] = spec.rate(k[j], times[jumps[j]], states[jumps[j]])
        if not (r > 0.0).all():
            return survival, -math.inf
        return survival, float(np.log(r / spec.mu).sum())

    logp = math.log(p0)
    survival = 0.0
    epochs = spec.epochs(0.0, h.horizon)
    for e, (a, b) in enumerate(epochs):
        # jumps in [a, b) belong to this epoch, and jumps at the horizon to the last
        lo = int(np.searchsorted(times, a, side="left"))
        hi = int(np.searchsorted(times, b, side="right" if e == len(epochs) - 1 else "left"))
        # the states these jumps leave, and the one entered last before b
        idx = np.arange(lo, max(int(np.searchsorted(times, b, side="left")) + 1, hi))
        try:
            parts = [terms(a, a, b, idx, hi - lo)]
        except SimulationError:
            parts = (terms(max(starts[i], a), a, b, np.array([i]), int(i < hi))
                     for i in idx)
        for dens, logr in parts:
            if logr == -math.inf:
                return -math.inf
            survival += dens
            logp += logr
    return logp + spec.mu * h.horizon - survival


def jump_log_density(spec: ModelSpec, traj: JumpSequence) -> float:
    """Log density of a full trajectory (history plus auxiliary numbers).

    Each marked event contributes ``-log I(x-)`` for the uniform member
    choice; an auxiliary number outside ``[0, I(x-))`` gives -inf, as does a
    nonzero one on an unmarked event.  ``I(x-)`` is the initial focal size
    plus the focal steps of the earlier jumps, which the spec's markers fix.
    """
    base = history_log_density(spec, to_history(traj))
    if base == -math.inf:
        return -math.inf
    channels = np.array([j.event for j in traj.jumps], dtype=np.int64)
    marked = (spec.birth_mask | spec.death_mask | spec.sample_mask)[channels]
    steps = spec.displacements[channels, spec.focal_dim]
    size = traj.x0[spec.focal_dim] + np.cumsum(steps) - steps
    aux = np.array([j.aux for j in traj.jumps], dtype=np.int64)
    if not ((aux >= 0) & (aux < np.where(marked, size, 1))).all():
        return -math.inf
    for s in size[marked]:
        base -= math.log(s)
    return base


class GeneratorPattern(NamedTuple):
    """The CSR structure of a generator on one lattice for one channel set.

    ``indptr`` and ``indices`` are canonical: one entry per cell, sorted by
    row and then column, with every diagonal cell present.  A generator's
    data is summed from its contributions: first each inflow entry, channel
    by channel, then each row's outflow.  ``rate_at`` and ``scale_at`` give
    each inflow entry its flat (src, k) and (dst, k) position in a rows x
    channels array, and ``cell`` gives each contribution, inflow entries
    then outflows, its cell; ``diagonal``, the outflows' part of ``cell``,
    gives each row its diagonal cell.  Several meet in one cell where a
    channel's displacement vanishes on the lattice or two channels share
    one there.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rate_at: np.ndarray
    scale_at: np.ndarray
    cell: np.ndarray
    diagonal: np.ndarray


class Generator(NamedTuple):
    """A sparse generator as its data on a `GeneratorPattern`: ``data[j]`` is cell j's entry.

    ``G @ w`` is the product scipy's CSR matrix `tocsr` gives, bit for bit.
    """

    pattern: GeneratorPattern
    data: np.ndarray

    def check(self, w) -> int:
        """The generator's row count; a ``w`` of another shape than (rows,) raises ValueError."""
        n = len(self.pattern.indptr) - 1
        if np.shape(w) != (n,):
            raise ValueError(f"a vector of shape {np.shape(w)} does not fit a generator of {n} rows")
        return n

    def __matmul__(self, w) -> np.ndarray:
        from scipy.sparse._sparsetools import csr_matvec  # imported here: `import genfilter` does not load it
        n = self.check(w)  # the kernel reads w by the pattern's column indices
        out = np.zeros(n)
        csr_matvec(n, n, self.pattern.indptr, self.pattern.indices, self.data, w, out)
        return out

    def tocsr(self):
        from scipy.sparse import csr_matrix  # imported here: `import genfilter` does not load it
        n = len(self.pattern.indptr) - 1
        return csr_matrix((self.data, self.pattern.indices, self.pattern.indptr), shape=(n, n))


def _state_array(states, d: int) -> np.ndarray:
    """``states`` as an (n, d) int64 array; an integer ndarray is taken as it is.

    Other input is a sequence of rows, read in one pass over their entries.
    Rows that do not all have ``d`` entries, of another width or ragged,
    raise ValueError naming ``d``, as does an array of another shape; a row
    with an entry that is not a finite whole number raises ValueError naming
    the row.
    """
    if isinstance(states, np.ndarray):
        raw = np.atleast_2d(states)
        fits = raw.ndim == 2 and raw.shape[1] == d
    else:
        rows = list(states)
        fits = set(map(len, rows)) <= {d}
        raw = np.fromiter(itertools.chain.from_iterable(rows), float,
                          len(rows) * d).reshape(len(rows), d) if fits else None
    if not fits:
        raise ValueError(f"states are not all of length {d}")
    with np.errstate(invalid="ignore"):  # a NaN or infinite entry casts to garbage, caught below
        arr = raw.astype(np.int64, copy=False)
    if raw.dtype.kind not in "iu" and not np.array_equal(arr, raw):
        i = int(np.argmin((arr == raw).all(axis=1)))
        raise ValueError(f"state row {i} {raw[i].tolist()}: an entry is not a finite whole number")
    return arr


class StateLattice:
    """Finite lattice states in lexicographic row order, with per-displacement maps.

    Rows are looked up by index in the states' bounding box (under 2**63 cells).
    ``states`` are read by `_state_array`; duplicates collapse to one row,
    and no state at all raises ValueError("empty truncation").
    """

    def __init__(self, states, d: int):
        arr = _state_array(states, d)
        if not arr.size:
            raise ValueError("empty truncation")
        self.d = d
        self._lo = arr.min(axis=0)
        self._box = tuple(arr.max(axis=0) - self._lo + 1)
        keys = np.sort(np.ravel_multi_index((arr - self._lo).T, self._box), kind="stable")
        self._keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0: the first is kept
        self.states = np.column_stack(np.unravel_index(self._keys, self._box)) + self._lo
        self.size = len(self._keys)
        self._transitions: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._patterns: dict[tuple, GeneratorPattern] = {}

    def rows(self, states) -> np.ndarray:
        """Row of each of ``states``, read by `_state_array`; -1 for a state off the lattice."""
        q = _state_array(states, self.d) - self._lo
        inside = ((q >= 0) & (q < self._box)).all(axis=1)
        keys = np.full(len(q), -1)
        keys[inside] = np.ravel_multi_index(q[inside].T, self._box)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.size - 1)
        return np.where(self._keys[pos] == keys, pos, -1)

    def row_of(self, state) -> int | None:
        row = int(self.rows([state])[0])
        return row if row >= 0 else None

    def transition(self, displacement) -> tuple[np.ndarray, np.ndarray]:
        """Rows (src, dst) for which src + displacement stays on the lattice."""
        key = tuple(int(v) for v in displacement)
        cached = self._transitions.get(key)
        if cached is not None:
            return cached
        dst = self.rows(self.states + np.asarray(key, dtype=np.int64))
        src = np.flatnonzero(dst >= 0)
        out = (src, dst[src])
        self._transitions[key] = out
        return out

    def pattern(self, displacements, channels) -> GeneratorPattern:
        """The `GeneratorPattern` of ``channels``, indices into ``displacements``.

        Built once per channel set and kept with the lattice; its flat
        positions index a rates array of one column per displacement.
        """
        key = (len(displacements), tuple((int(k), tuple(int(v) for v in displacements[k]))
                                         for k in channels))
        cached = self._patterns.get(key)
        if cached is None:
            moves = [(k, *self.transition(disp)) for k, disp in key[1]]
            cached = self._patterns[key] = _assemble_pattern(self.size, moves, key[0])
        return cached


def _assemble_pattern(size: int, moves, n_channels: int) -> GeneratorPattern:
    """`GeneratorPattern` of ``size`` rows from ``(k, src, dst)``, one per channel.

    The arrays take scipy's index dtype, int32 while every index fits, and
    are read-only, since every generator on the lattice shares them.
    """
    none = [np.empty(0, np.int64)]
    rate_at = np.concatenate([src * n_channels + k for k, src, _ in moves] + none)
    scale_at = np.concatenate([dst * n_channels + k for k, _, dst in moves] + none)
    cells, cell = np.unique(np.concatenate([dst * size + src for _, src, dst in moves]
                                           + [np.arange(size) * (size + 1)]), return_inverse=True)
    arrays = [np.searchsorted(cells, np.arange(size + 1) * size), cells % size,
              rate_at, scale_at, cell, cell[len(rate_at):]]
    index = np.int32 if max(len(cell), size * n_channels) < 2 ** 31 else np.int64
    for i, a in enumerate(arrays):
        arrays[i] = a.astype(index)
        arrays[i].flags.writeable = False
    return GeneratorPattern(*arrays)


def forward_generator(spec: ModelSpec, lattice: StateLattice, t: float):
    """Sparse master-equation generator A with (A w)(x) = sum_u inflow - outflow.

    Probability flowing to states outside the lattice is discarded, so the
    truncated solution is a lower bound on the true law.  A is a scipy CSR
    matrix, the `tocsr` of the `Generator` that `kfe_integrate` steps with.
    """
    return _generator(lattice, spec.displacements, spec.rate_matrix(t, lattice.states)).tocsr()


def _generator(lattice: StateLattice, displacements, rates, inflow_scale=None) -> Generator:
    """Generator from rows x channels ``rates``: every row loses its total rate.

    Channel k carries ``rates[src, k]`` from row src to src + its
    displacement, times ``inflow_scale[dst, k]`` when a scale is given; a
    channel whose scale is all zero adds no entries.  The structure is the
    lattice's `GeneratorPattern` for the channels that add entries; only
    the data is filled here, each cell's contributions summed from 0.0 in
    channel order and the row's outflow added last.  An entry whose value
    is zero is kept as an explicit zero.
    """
    n_channels = rates.shape[1]
    channels = [k for k in range(n_channels)
                if inflow_scale is None or inflow_scale[:, k].any()]
    p = lattice.pattern(displacements, channels)
    inflow = rates.take(p.rate_at)
    if inflow_scale is not None:
        inflow *= inflow_scale.take(p.scale_at)
    outflow = np.zeros(lattice.size)
    for k in range(n_channels):  # channel by channel, the order rates.sum(axis=1) adds in
        outflow -= rates[:, k]
    data = np.bincount(p.cell, weights=np.concatenate([inflow, outflow]),
                       minlength=len(p.indices))
    return Generator(p, data)


def _check_tol(tol) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def integrate_linear(rhs, w, t0: float, t1: float, tol: float) -> np.ndarray:
    """Advance w' = rhs(t, w) from t0 to t1 with an adaptive embedded RK pair.

    ``tol`` is the pair's relative tolerance; the absolute one is ``tol * 1e-6``.
    Only the current state is kept, not the accepted steps.
    """
    _check_tol(tol)
    if t1 < t0:
        raise ValueError("t1 < t0")
    if t1 == t0:
        return w.copy()
    from scipy.integrate import RK45  # imported here: `import genfilter` does not load it
    solver = RK45(rhs, t0, w, t1, rtol=tol, atol=tol * 1e-6)
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise IntegrationError(f"forward integration failed near t={solver.t}: {message}")
    w = solver.y
    solver.__dict__.clear()  # RK45 is in a reference cycle: free its arrays now, not at a gc pass
    return w


# exp(-500) is about 7e-218: the Poisson weights of a step stay normal doubles
_MAX_POISSON_MEAN = 500.0
# the share of tol that the uniformized series may leave out per epoch, like
# RK45's absolute tolerance of tol * 1e-6.  On the SIR-100 seed-101 oracle at
# tol 1e-8, a share of 1 left the value 1.3e-8 from its converged value, 1e-2
# left it 1.2e-10 away and 1e-6 leaves it 6e-15 away, at about equal cost.
_TAIL_SHARE = 1e-6


def _uniformized(A, w, dt: float, tol: float) -> np.ndarray:
    """exp(dt * A) @ w by uniformization (Jensen 1953; Grassmann 1977).

    ``A`` must have nonnegative off-diagonal entries and columns that sum to
    at most 0.  With lam the largest total outflow, the largest of A's
    negated diagonal entries, P = I + A / lam is then nonnegative with
    columns summing to at most 1, and exp(dt A) w = sum_k p_k P^k w with
    p_k = Poisson(k; lam dt).  The series stops at the first K whose tail,
    at most p_{K+1} (K + 2) / (K + 2 - lam dt), is within ``tol * 1e-6``:
    the mass left out is at most that share of ``w``'s 1-norm.  K is found
    from the weights alone, before any product, and the sum is taken by
    Horner's rule, acc = p_K w and then acc = p_k w + P acc for k = K - 1
    down to 0: one product per term, into a buffer that holds p_k w, as
    scipy's CSR kernel adds each row's sum to what its output holds.  Every
    term has the sign of ``w``, so a nonnegative ``w`` stays nonnegative.
    The step is cut into equal substeps only where lam dt would exceed 500,
    so that exp(-lam dt) stays far from underflow.

    ``A`` is a `Generator`, whose pattern gives each row's diagonal cell, so
    P's data is A's scaled by 1 / lam with 1 added at those cells.  Any
    other sparse matrix is first read onto a pattern of its own stored
    cells and its diagonal (`_on_pattern`), which inserts a diagonal entry
    that it does not store.
    """
    if not isinstance(A, Generator):
        A = _on_pattern(A)
    n, diagonal = A.check(w), A.pattern.diagonal
    lam = float(-A.data.take(diagonal).min())
    if lam <= 0.0 or dt <= 0.0:
        return w.copy()
    n_sub = math.ceil(lam * dt / _MAX_POISSON_MEAN)
    mean = lam * dt / n_sub
    target = tol * _TAIL_SHARE / n_sub
    from scipy.sparse._sparsetools import csr_matvec  # imported here: `import genfilter` does not load it
    data = A.data * (1.0 / lam)
    data[diagonal] += 1.0
    p = math.exp(-mean)
    weights = [p]  # p_0 .. p_K, one list for every substep
    k = 0
    while True:
        p *= mean / (k + 1)
        if k + 2 > mean and p * (k + 2) / (k + 2 - mean) <= target:
            break
        k += 1
        weights.append(p)
    indptr, indices = A.pattern.indptr, A.pattern.indices
    for _ in range(n_sub):
        acc, buf = w * weights[-1], np.empty(n)
        for p_k in weights[-2::-1]:
            np.multiply(w, p_k, out=buf)
            csr_matvec(n, n, indptr, indices, data, acc, buf)
            acc, buf = buf, acc
        w = acc
    return w


def _on_pattern(A) -> Generator:
    """A square sparse matrix as a `Generator` on its stored cells and its diagonal.

    Entries stored twice in one cell are summed; a diagonal cell that ``A``
    does not store holds 0.0.
    """
    A = A.tocoo()
    # int64: the pattern's cell keys, dst * rows + src, pass 2**31 past 46340 rows
    src, dst = A.col.astype(np.int64), A.row.astype(np.int64)
    p = _assemble_pattern(A.shape[0], [(0, src, dst)], 1)
    data = np.bincount(p.cell, weights=np.concatenate([A.data, np.zeros(A.shape[0])]),
                       minlength=len(p.indices))
    return Generator(p, data)


def integrate_epochs(spec: ModelSpec, generator, w, t0: float, t1: float,
                     tol: float) -> np.ndarray:
    """Advance w' = generator(t) @ w from t0 to t1, one epoch of ``spec`` at a time.

    ``generator(t)`` builds the sparse operator at time ``t``: nonnegative
    off the diagonal, with columns that sum to at most 0, as a forward
    generator with lost or damped inflow is.  On an epoch where no channel
    has a rate bound it is called once, at the epoch's start, and the epoch
    is one exact step, `_uniformized`, that leaves out at most ``tol * 1e-6``
    of the mass.  Where some channel has a bound the operator changes within
    the epoch; it is called at every right-hand-side evaluation of
    `integrate_linear` with relative tolerance ``tol``.  The `Generator`s
    that `_generator` builds, for `kfe_integrate` and the oracle, keep one
    sparsity pattern per lattice, so each call refills only the data of
    that pattern; any scipy sparse matrix, such as `forward_generator`'s,
    is accepted too.  ``t1 < t0`` raises ValueError, as in
    `integrate_linear`.
    """
    _check_tol(tol)
    if t1 < t0:
        raise ValueError("t1 < t0")
    for a, b in spec.epochs(t0, t1):
        if spec.varies_within_epochs:
            w = integrate_linear(lambda t, v: generator(t) @ v, w, a, b, tol)
        else:
            w = _uniformized(generator(a), w, b - a, tol)
    return w


def kfe_integrate(spec: ModelSpec, truncation, w0: Mapping, t0: float, t1: float,
                  tol: float = 1e-8) -> dict:
    """Integrate the master equation on a finite truncation.

    ``w0`` maps states (tuples) to weights; the result is a dict over the
    whole truncation.  The caller is responsible for choosing a truncation
    that loses negligible probability flux.  Each epoch of constant rates is
    one exact step that leaves out at most ``tol * 1e-6`` of the mass;
    epochs where a channel has a rate bound are integrated by RK45 with
    relative tolerance ``tol`` (`integrate_epochs`).
    """
    lattice = StateLattice(truncation, spec.d)
    w = np.zeros(lattice.size)
    rows = lattice.rows(list(w0))
    if (rows < 0).any():
        raise ValueError(f"w0 state {list(w0)[np.argmax(rows < 0)]} is outside the truncation")
    w[rows] = list(w0.values())
    w = integrate_epochs(spec, lambda t: _generator(lattice, spec.displacements,
                                                    spec.rate_matrix(t, lattice.states)),
                         w, t0, t1, tol)
    return dict(zip(map(tuple, lattice.states.tolist()), w.tolist()))


# ---------------------------------------------------------------------------
# Serialization: line-oriented CSV plus a JSON header sidecar.

def _write_text(path, text: str) -> Path:
    """Write ``text`` to a temporary file beside ``path``, then move it into place.

    Every file the package writes goes through here, so a crash leaves the
    old file or the new one, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _write_json(path, obj) -> Path:
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header: str, rows: Iterable[str], provenance=None) -> Path:
    """A ``# key: value`` line per provenance entry, then ``header``, then ``rows``."""
    lines = [f"# {key}: {val}" for key, val in (provenance or {}).items()]
    return _write_text(path, "\n".join([*lines, header, *rows]) + "\n")


def write_trajectory(base, spec: ModelSpec, traj: JumpSequence, seed=None,
                     provenance: Mapping | None = None) -> tuple[Path, Path]:
    """Write ``base.csv`` (time,event_name,aux) and ``base.json`` (header)."""
    base = Path(base)
    csv_path = _write_csv(base.with_suffix(".csv"), "time,event_name,aux",
                          (f"{j.time:.17g},{spec.events[j.event].name},{j.aux}"
                           for j in traj.jumps))
    head = {
        "kind": "jumps",
        "model": spec.name,
        "params": spec.params,
        "seed": seed,
        "x0": [int(v) for v in traj.x0],
        "t_end": traj.t_end,
        "events": [ev.name for ev in spec.events],
    }
    if provenance:
        head["provenance"] = provenance
    return csv_path, _write_json(base.with_suffix(".json"), head)


def read_trajectory(base) -> tuple[JumpSequence, dict]:
    """Read a trajectory written by `write_trajectory`: ``(JumpSequence, header)``.

    Event names are resolved through the header's catalog listing, so no
    model object is needed.  A header whose ``kind`` is not ``"jumps"``, or
    whose ``x0`` is not a list of JSON numbers that are finite and whole (a
    ``true``, a string or a bare number among what it rejects), raises
    ValueError naming it.
    """
    base = Path(base)
    head = json.loads(base.with_suffix(".json").read_text())
    if head["kind"] != "jumps":
        raise ValueError(f"{base.with_suffix('.json')}: trajectory kind {head['kind']!r} "
                         f"is not 'jumps'")
    index = {name: k for k, name in enumerate(head["events"])}
    try:
        # only a list of JSON numbers: numpy reads a bool as an int, a string by its characters
        if not isinstance(head["x0"], list) or any(type(v) not in (int, float) for v in head["x0"]):
            raise ValueError
        x0 = tuple(_state_array([head["x0"]], len(head["x0"]))[0].tolist())
    except ValueError:
        raise ValueError(f"{base.with_suffix('.json')}: x0 {head['x0']!r} is not "
                         f"a list of finite whole numbers") from None
    horizon = float(head["t_end"])
    rows = []
    text = base.with_suffix(".csv").read_text().splitlines()
    if not text or text[0] != "time,event_name,aux":
        raise ValueError(f"{base.with_suffix('.csv')}: missing trajectory CSV header")
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{base.with_suffix('.csv')}:{lineno}: expected 3 columns")
        t, name, aux = parts
        if name not in index:
            raise ValueError(f"{base.with_suffix('.csv')}:{lineno}: unknown event {name!r}")
        rows.append(Jump(float(t), index[name], int(aux)))
    return JumpSequence(x0, tuple(rows), horizon), head
