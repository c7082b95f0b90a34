"""Likelihood of a visible genealogy under partial observation.

Two routes, useful as cross-checks on each other:

* `smc_loglik` runs a particle filter over the genealogy's event times.
  Particles simulate the population process between events; at each event
  the exact channel-sum weight is applied and a channel is sampled for the
  state move.  Between events the particles follow one law, and the model
  decides how each sampling channel is paid: one without a rate bound is
  off the clock and pays its exact survival weight, one with a bound is
  thinned with the other bounded channels and kills the particle that it
  samples.
  `replicate_loglik` runs R replicates through the same driver
  (`_run_filters`) as one array of R blocks of particles, of which
  `smc_loglik` is the R = 1 case.  Each block draws from its own generator,
  and each propagation round only for its particles still moving, so every
  replicate is bit-identical to its own run.
* `oracle_loglik` evaluates the same unnormalized filtering recursion
  deterministically over a finite state truncation, which makes it an
  accuracy oracle at small scale.

Both routes weight with the same recursion as the closed form in
`genfilter.exact`: rate/mu times `event_factor` at each genealogy event,
and `hidden_birth_factor` at each birth between events.  Those factors are
written once, in `genfilter.exact`; this module only applies them, to
particles or to grid weights, and reads the between-events ones from one
table per lineage count, `_jump_factors`.  Rates over many states at once
are read through `ModelSpec.rate_matrix`, which rejects negative and
non-finite rates; the filter kernel reads a channel with a rate bound one
particle at a time, through `ModelSpec.rate_bound` and `ModelSpec.rate`.

Both routes make one walk, `_stretches`, over `genealogy.event_schedule`: a
stretch of constant lineage count, then its event.  The counts are
`genealogy.LineageFunction`'s, which reads them from the schedule itself, so
no node is classified twice.  A genealogy the schedule rejects, or on which
the count goes negative, raises its `GenealogyError` on both.  The per-phase
calls `propagate_interval` and `event_update` read the same counts and
raise it too, and also when asked to propagate across an event or to apply
an event the schedule does not have.

Both routes work one epoch at a time: each interval between genealogy
events is cut at the model's rate breakpoints.  Within an epoch a channel
without a rate bound is constant, and a channel with one varies
continuously.  Particles cross an epoch in one kernel (`_propagate_epoch`)
that draws jumps by the rule of `genfilter.population.simulate`: every
channel without a bound runs at its rate at the epoch's start, only the
channels with a bound are thinned, and they alone are read again at each
candidate time.  The oracle's generator is `forward_generator`'s assembly
with its inflow scaled per state and channel, which keeps it a
sub-generator: nonnegative off the diagonal, columns summing to at most 0.
A channel whose inflow is scaled to zero, as every sampling channel's is
between events, keeps its cells as explicit zeros, so every lineage count
steps one sparsity pattern, with each row's diagonal cell, assembled once
per oracle call with the lattice (`StateLattice.pattern`).  Each epoch only
refills its data (a `population.Generator`, no scipy matrix), once for one
exact uniformization step (`population._integrate_epochs`), which forms its
series matrix on the same pattern, or, when some channel has a bound, at
every RK45 step.  The lattice is built once per call from the
truncation, and the `WeightGrid` the oracle returns is that lattice and
its weights in row order, so `boundary_flux` on that grid reads the
transition maps the oracle built.

States with fewer focal individuals than the genealogy's lineages carry zero
weight from each stretch's start.  Coordinates declared as bookkeeping on the
model (pure event counters) are projected out of the internal state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exact import event_factor, hidden_birth_factor
from .genealogy import Genealogy, GenealogyError, LineageFunction, event_schedule
from .population import (IntegrationError, ModelSpec, StateLattice, _check_bound, _check_tol,
                         _generator, _initial_mass, _initial_states, _integrate_epochs,
                         _state_array, _write_csv, ensure_rng)

RESAMPLING_METHODS = ("systematic", "multinomial")


class FilterError(RuntimeError):
    """Raised on configuration or structural errors in the filter."""


@dataclass(frozen=True)
class FilterConfig:
    """Particle-filter settings.

    ``ess_threshold`` is the fraction of the particle count below which the
    ensemble is resampled after an event update.  ``n_particles`` must be an
    integer of at least 1 (ValueError).
    """

    n_particles: int = 1000
    seed: int | None = None
    ess_threshold: float = 0.5
    resampling: str = "systematic"

    def __post_init__(self):
        n = self.n_particles
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_particles must be an integer of at least 1, got {n!r}")
        if not 0.0 <= self.ess_threshold <= 1.0:
            raise ValueError("ess_threshold is a fraction of n_particles")
        if self.resampling not in RESAMPLING_METHODS:
            raise ValueError(f"resampling must be one of {RESAMPLING_METHODS}")


@dataclass
class Ensemble:
    """Weighted particles: integer states (projected) and log weights."""

    states: np.ndarray
    log_weights: np.ndarray


class EventDiagnostics(NamedTuple):
    time: float
    kind: str
    log_mean_weight: float
    ess: float
    resampled: bool


@dataclass
class FilterDiagnostics:
    """Per-event bookkeeping of one filter run.

    ``collapsed`` marks the point where every particle weight vanished.  For
    a genealogy the model cannot produce at all, -inf is the exact answer;
    otherwise a collapse means the particle count was insufficient.
    ``rounds`` counts the propagation rounds in which the run drew, and
    ``jumps`` the jumps its particles took between genealogy events
    (accepted thinning candidates only); neither goes into `to_csv`.
    """

    events: list[EventDiagnostics] = field(default_factory=list)
    resample_count: int = 0
    collapsed: bool = False
    collapse_time: float | None = None
    rounds: int = 0
    jumps: int = 0

    @property
    def ess_trace(self) -> list[float]:
        return [row.ess for row in self.events]

    def to_csv(self, path, provenance=None) -> Path:
        return _write_csv(path, "time,kind,log_mean_weight,ess,resampled",
                          (f"{row.time:.17g},{row.kind},{row.log_mean_weight:.17g},"
                           f"{row.ess:.17g},{int(row.resampled)}" for row in self.events),
                          provenance)


@dataclass
class SMCResult:
    loglik: float
    diagnostics: FilterDiagnostics


@dataclass
class ReplicateResult:
    """Mean and standard error over independent filter replicates.

    ``mean`` is the plain mean of the finite log-likelihood estimates and
    ``se`` its standard error.  Each estimate is the log of an unbiased
    likelihood estimate, so it sits about sigma^2 / 2 below the log
    likelihood (sigma the estimates' sd), and ``se`` does not cover that
    offset: on a small lbdp genealogy at 200 particles, 4000 replicates put
    ``mean`` 4.1 standard errors below the oracle.  Add s^2 / 2 (s the sd of
    ``estimates``) before comparing with an exact value.  ``diagnostics``
    are those of replicate 0.
    """

    mean: float
    se: float
    estimates: tuple[float, ...]
    collapse_count: int
    diagnostics: FilterDiagnostics


@dataclass
class WeightGrid:
    """Partial weights over a state lattice at a fixed time.

    ``weights[j]`` is the weight of ``lattice.states[j]``, which ``states``
    returns.  These are unnormalized filter weights, not a posterior over
    states: ``exp(log_scale) * weights.sum()`` is the likelihood accumulated
    so far.  The scale is kept apart so that the weights stay representable
    on long genealogies.  A grid from `oracle_loglik` holds the lattice the
    oracle ran on, with every transition map and generator pattern it built.
    """

    lattice: StateLattice
    weights: np.ndarray
    time: float
    log_scale: float = 0.0

    @property
    def states(self) -> np.ndarray:
        return self.lattice.states


def _stretches(v: Genealogy):
    """``(t, e, ell, kind, ell_post)`` per stretch [t, e] of ``ell`` lineages.

    Each stretch ends in an event of ``kind`` that leaves ``ell_post``
    lineages, and a last one ends at ``v.time`` with ``kind`` None.  The
    events and counts are those of `LineageFunction`.
    """
    lineages = LineageFunction(v)
    times, kinds = [e for e, _ in lineages.schedule], [k for _, k in lineages.schedule]
    ells = lineages.at([0.0, *times]).tolist()
    return zip([0.0, *times], [*times, v.time], ells, [*kinds, None], [*ells[1:], None])


def _channels(spec: ModelSpec, kind: str) -> np.ndarray:
    """Channels that can produce a genealogy event of ``kind``."""
    mask = spec.birth_mask if kind == "coalescence" else spec.sample_mask
    channels = np.flatnonzero(mask)
    if not len(channels):
        raise FilterError(f"genealogy has a {kind} event but the model has no matching channel")
    return channels


def init_ensemble(spec: ModelSpec, n: int, rng) -> Ensemble:
    """Draw ``n`` particles from the initial distribution (projected state).

    The draw is `population._initial_states`, the one `simulate` makes: a
    sample of another shape than (n, d) raises `SimulationError`.
    """
    states = _initial_states(spec, rng, n)
    return Ensemble(states[:, :len(spec.active_dims)].copy(), np.zeros(n))


def _jump_factors(spec, ell, top: int) -> np.ndarray:
    """Weight factor of a jump between genealogy events by channel k to focal size s.

    As ``factors[k, s]`` for the sizes 0..top at lineage count ``ell``: a
    birth's `hidden_birth_factor`, 0 for a sample (a sample between events
    is not in the genealogy) and 1 for any other channel, and 0 for every
    channel at a size below ``ell``, which cannot hold the lineages.  The
    filter's `_log_gains` and the oracle's `_interval_generator` both read it.
    """
    factors = np.ones((spec.n_events, top + 1))
    factors[spec.birth_mask] = hidden_birth_factor(np.arange(top + 1), ell)
    factors[spec.sample_mask] = 0.0
    factors[:, :ell] = 0.0
    return factors


def _log_gains(spec, ell, top: int) -> np.ndarray:
    """Log weight change of a jump by channel k to focal size s, as ``gains[k, s]``.

    The log of `_jump_factors` over the sizes 0..top, so a sample is fatal
    (-inf), and so is a jump to fewer focal individuals than ``ell``; only a
    sampling channel with a rate bound is on the clock to draw a sample.
    The extra last row is a rejected thinning candidate, which pays nothing.
    Focal sizes, being counts, index the columns directly.
    """
    gains = np.zeros((spec.n_events + 1, top + 1))
    with np.errstate(divide="ignore"):
        gains[:-1] = np.log(_jump_factors(spec, ell, top))
    return gains


def _cumsum_channels(rates: np.ndarray) -> np.ndarray:
    """``np.cumsum(rates, axis=0)``, by the same additions row by row, which is faster."""
    cum = rates.copy()
    for k in range(1, len(cum)):
        cum[k] += cum[k - 1]
    return cum


def _propagate_epoch(spec, states, logw, t0, t1, ell, rngs):
    """Simulation of the live particles across one epoch [t0, t1], in place.

    Works on the index set of live (finite log weight) particles that have
    not yet passed t1: only they read rates and take a candidate time, and a
    particle leaves the set when its next candidate would pass t1 or a jump
    kills it.  Their states are carried from round to round and written back
    through a view of one item per row, which scatters several times faster.

    Each round, a channel without a rate bound runs at its rate at t0 and a
    channel with one at `ModelSpec.rate_bound` on [t, t1]: the bounded
    channels are thinned (Lewis & Shedler 1979).  One cumulative sum over the
    channels gives the clock's total and, with the channel uniform u, the
    channel; a candidate is rejected, and stays in the set at its time, when
    u times the total exceeds the summed rates there, where only the bounded
    channels are read again (a rate above its bound raises `SimulationError`).
    A sampling channel without a bound is off the clock and leaves the log
    weight as its rate times each round's stretch; one with a bound is
    thinned like any other channel.  Jumps pay `_log_gains`, so an accepted
    sample kills the particle.

    The particles form one block of equal size per generator in ``rngs``.
    Each round, a block with m particles in the set draws from its own
    generator m waiting times and then m channel uniforms, and a particle
    uses the draws at its position in the set; a block with none draws
    nothing, so a block takes the draws it would take alone.
    Also returns each block's rounds and accepted jumps, shape (2, blocks).
    """
    n, rejected = len(logw) // len(rngs), spec.n_events
    thinned = np.flatnonzero(spec.bound_mask).tolist()
    off_clock = np.flatnonzero(spec.sample_mask & ~spec.bound_mask).tolist()
    moves = np.vstack([spec.active_displacements, np.zeros_like(spec.active_displacements[:1])])
    gains = np.empty((rejected + 1, 0))
    edges, rounds, jumps = np.arange(len(rngs) + 1) * n, [0] * len(rngs), [0] * len(rngs)
    idx = np.flatnonzero(np.isfinite(logw))
    waits, uniforms = np.empty(len(idx)), np.empty(len(idx))
    x, t = states[idx], np.full(len(idx), t0)
    rows = states.view(np.dtype((np.void, x.itemsize * x.shape[1])))[:, 0]
    while len(idx):
        bounds = np.searchsorted(idx, edges).tolist()
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                rngs[r].standard_exponential(out=waits[lo:hi])
                rngs[r].random(out=uniforms[lo:hi])
                rounds[r] += 1
        rates = spec.rate_matrix(t0, x).T  # channel-major: one row per channel
        g_rate = rates[off_clock].sum(axis=0)
        rates[off_clock] = 0.0
        for k in thinned:
            rates[k] = [spec.rate_bound(k, a, t1, xi) for a, xi in zip(t, x)]
        rates, cum = rates if thinned else None, _cumsum_channels(rates)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t + waits[:len(idx)] / np.abs(cum[-1])
        fired = (t_next < t1).nonzero()[0]
        # stop lives to the round's end, like the arrays freed below: freeing it
        # at once made the sir100-crosscheck workload's filter 6% slower (2 CPUs)
        stop = np.fmin(t_next, t1)
        np.subtract.at(logw, idx, g_rate * (stop - t))
        start = t
        idx, t, x, cum = idx[fired], t_next[fired], x.take(fired, axis=0), cum.take(fired, axis=1)
        u = uniforms[fired] * cum[-1]
        if thinned:
            rates = rates.take(fired, axis=1)
            for k in thinned:
                rates[k] = [spec.rate(k, a, xi) for a, xi in zip(t, x)]
            bound, cum = cum[-1], _cumsum_channels(rates)
            _check_bound(cum[-1], bound, start[fired], t1)
        # cum[k-1] < u <= cum[k] picks channel k; u above every entry is a rejection
        choice = (u > cum).sum(axis=0)
        x += moves.take(choice, axis=0)
        rows[idx] = x.view(rows.dtype)[:, 0]
        moved = np.searchsorted(idx[choice < rejected] if thinned else idx, edges).tolist()
        jumps = [j + b - a for j, a, b in zip(jumps, moved, moved[1:])]
        if (size := x[:, spec.focal_dim]).max(initial=-1) >= gains.shape[1]:
            gains = _log_gains(spec, ell, 2 * int(size.max()))
        gain = gains[choice, size]
        np.add.at(logw, idx, gain)
        if gain.min(initial=0.0) == -np.inf:
            live = (gain > -np.inf).nonzero()[0]
            idx, t, x = idx[live], t[live], x.take(live, axis=0)
        # free this round's arrays before the next round makes its own
        rates = cum = t_next = fired = stop = start = u = choice = None
        size = gain = g_rate = None
    return states, logw, np.array([rounds, jumps])


def _propagate(spec, states, logw, t0, t1, ell, rngs):
    """Advance particles across [t0, t1] one epoch at a time; also sums the epochs' tallies."""
    tally = np.zeros((2, len(rngs)), dtype=np.int64)
    for a, b in spec.epochs(t0, t1):
        states, logw, counts = _propagate_epoch(spec, states, logw, a, b, ell, rngs)
        tally += counts
    return states, logw, tally


def propagate_interval(spec: ModelSpec, particles: Ensemble, v: Genealogy,
                       t0: float, t1: float, rng) -> Ensemble:
    """Advance all particles across an event-free stretch of the genealogy.

    The lineage count, `LineageFunction`'s, is constant on such a stretch;
    every simulated birth reweights by the probability that it was not a
    coalescence of tracked lineages, and a particle whose focal size is
    below the lineage count on entry, or falls below it by any jump, is
    zeroed out, as in `smc_loglik`.  A sampling channel pays as in
    `smc_loglik`: off the clock by its survival weight without a rate bound,
    thinned and fatal when it samples with one.  A genealogy event strictly
    inside (t0, t1), or a genealogy `LineageFunction` rejects (an unpruned
    one, say), raises `GenealogyError`.
    """
    if t1 < t0:
        raise ValueError("t1 < t0")
    lineages = LineageFunction(v)
    inside = [e for e, _ in lineages.schedule if t0 < e < t1]
    if inside:
        raise GenealogyError(f"genealogy event at t={inside[0]} lies inside ({t0}, {t1}); "
                             f"propagate one stretch at a time")
    ell = lineages(t0)
    states = particles.states.copy()
    logw = particles.log_weights.copy()
    logw[states[:, spec.focal_dim] < ell] = -np.inf
    if t1 > t0:
        states, logw, _ = _propagate(spec, states, logw, t0, t1, ell, [ensure_rng(rng)])
    return Ensemble(states, logw)


def _event_terms(spec, states, e, kind, ell_post):
    """Per-state, per-channel weight contributions rate/mu * factor for one event."""
    channels = _channels(spec, kind)
    rates = spec.rate_matrix(e, states)
    terms = np.empty((len(states), len(channels)))
    for j, k in enumerate(channels):
        size = states[:, spec.focal_dim] + spec.displacements[k, spec.focal_dim]
        terms[:, j] = rates[:, k] / spec.mu * event_factor(kind, size, ell_post)
    return channels, terms


def _apply_event(spec, states, logw, e, kind, ell_post, rngs):
    """Weight and move all particles through one genealogy event, in place.

    With more than one matching channel, each block of particles draws one
    channel uniform per particle from its own generator in ``rngs``.
    """
    channels, terms = _event_terms(spec, states, e, kind, ell_post)
    total = terms.sum(axis=1)
    with np.errstate(divide="ignore"):
        logw += np.log(total)
    if len(channels) == 1:
        choice = np.zeros(len(states), dtype=np.intp)
    else:
        n = len(states) // len(rngs)
        u = np.concatenate([rng.random(n) for rng in rngs])
        cum = np.cumsum(terms, axis=1)
        choice = (u[:, None] * total[:, None] > cum).sum(axis=1)
        np.minimum(choice, len(channels) - 1, out=choice)
    moves = spec.active_displacements[channels]
    live = np.isfinite(logw)
    states[live] += moves[choice[live]]
    return states, logw


def event_update(spec: ModelSpec, particles: Ensemble, v: Genealogy,
                 e: float, kind: str, rng) -> Ensemble:
    """Apply one genealogy event to every particle.

    The weight gains the full sum over matching channels (births for a
    coalescence, sampling channels otherwise) of rate/mu times the event's
    combinatorial factor; the state move is sampled proportionally to the
    summands.  A particle with no compatible channel mass goes to -inf.
    The factor reads `LineageFunction`'s count just after ``e``.  An
    ``(e, kind)`` that is not an event of the genealogy's schedule, or a
    genealogy `LineageFunction` rejects (an unpruned one, say), raises
    `GenealogyError`.
    """
    lineages = LineageFunction(v)
    if (e, kind) not in lineages.schedule:
        raise GenealogyError(f"the genealogy has no {kind} event at t={e}")
    states, logw = _apply_event(spec, particles.states.copy(),
                                particles.log_weights.copy(), e, kind,
                                lineages(e), [ensure_rng(rng)])
    return Ensemble(states, logw)


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over ``axis``, bit for bit as `scipy.special.logsumexp` 1.17 gives it.

    The maxima are set apart: with ``s`` the sum of exp(a - max) over the
    other entries, divided by the count of maxima, the result is
    log1p(s) + log(count) + max.  A row of -inf gives -inf.
    """
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):  # -inf - -inf on a row of -inf
        rest = np.exp(np.where(at_top, -np.inf, a) - top)
    s = np.sum(rest, axis=axis, keepdims=True) / count
    out = np.where(top == -np.inf, -np.inf, np.log1p(s) + np.log(count) + top)
    return np.squeeze(out, axis=axis)[()]


def _ess(logw: np.ndarray) -> float:
    finite = logw[np.isfinite(logw)]
    if not len(finite):
        return 0.0
    w = np.exp(finite - finite.max())
    return float(w.sum() ** 2 / (w ** 2).sum())


def _resample(rng, states, logw, method):
    n = len(logw)
    shifted = logw - _logsumexp(logw)
    w = np.exp(shifted)
    w /= w.sum()
    if method == "systematic":
        positions = (rng.random() + np.arange(n)) / n
        idx = np.searchsorted(np.cumsum(w), positions, side="right")
        np.minimum(idx, n - 1, out=idx)
    else:
        idx = rng.choice(n, size=n, p=w)
    return states[idx].copy(), np.zeros(n)


def _run_filters(spec, v, config, rngs) -> list[SMCResult]:
    """One filter run per generator in ``rngs``, all advanced as one ensemble.

    Run r holds block r of the particle arrays and draws from ``rngs[r]``
    alone, so it gives the numbers it would give alone.  Each run keeps its
    own log mean weight, ESS, resampling and collapse status; a run that
    collapses leaves the arrays and draws nothing more.
    """
    n = config.n_particles
    runs = running = [SMCResult(0.0, FilterDiagnostics()) for _ in rngs]
    states = np.concatenate([init_ensemble(spec, n, rng).states for rng in rngs])
    logw = np.zeros(len(states))
    for t, e, ell, kind, ell_post in _stretches(v):
        logw[states[:, spec.focal_dim] < ell] = -np.inf
        if e > t:
            states, logw, tally = _propagate(spec, states, logw, t, e, ell, rngs)
            for run, (rounds, jumps) in zip(running, tally.T.tolist()):
                run.diagnostics.rounds += rounds
                run.diagnostics.jumps += jumps
        if kind is not None:
            states, logw = _apply_event(spec, states, logw, e, kind, ell_post, rngs)
        lmw = _logsumexp(logw.reshape(len(rngs), n), axis=1) - math.log(n)
        kept = np.isfinite(lmw)
        if not kept.all():
            for run in itertools.compress(running, ~kept):
                if kind is not None:
                    run.diagnostics.events.append(EventDiagnostics(e, kind, -math.inf, 0.0, False))
                run.loglik = -math.inf
                run.diagnostics.collapsed, run.diagnostics.collapse_time = True, e
            rows = np.repeat(kept, n)
            states, logw, lmw = states[rows], logw[rows], lmw[kept]
            running = list(itertools.compress(running, kept))
            rngs = list(itertools.compress(rngs, kept))
        for run, lmw_r in zip(running, lmw):
            run.loglik += float(lmw_r)
        if kind is None or not running:
            break
        for j, (run, rng) in enumerate(zip(running, rngs)):
            block = slice(j * n, (j + 1) * n)
            logw[block] -= lmw[j]
            ess = _ess(logw[block])
            resampled = ess < config.ess_threshold * n
            if resampled:
                states[block], logw[block] = _resample(rng, states[block], logw[block],
                                                       config.resampling)
                run.diagnostics.resample_count += 1
            run.diagnostics.events.append(EventDiagnostics(e, kind, float(lmw[j]), ess, resampled))
    return runs


def smc_loglik(spec: ModelSpec, v: Genealogy, config: FilterConfig,
               rng=None) -> SMCResult:
    """Particle-filter estimate of the log likelihood of a visible genealogy.

    Alternates interval propagation and event updates over the genealogy's
    event schedule up to its observation time.  After each event the log of
    the mean unnormalized weight is accumulated, weights are renormalized,
    and the ensemble is resampled when the effective sample size drops
    below ``ess_threshold * n_particles``.  Deterministic given the seed.
    """
    return _run_filters(spec, v, config, [ensure_rng(config.seed if rng is None else rng)])[0]


def replicate_loglik(spec: ModelSpec, v: Genealogy, config: FilterConfig,
                     n_reps: int) -> ReplicateResult:
    """Independent filter replicates with seeds derived from config.seed.

    Replicate r draws from the r-th generator spawned from the master seed,
    so results do not depend on evaluation order, and it equals
    ``smc_loglik(spec, v, config, rng=np.random.default_rng(seed_r))`` bit
    for bit.  The replicates run as one ensemble of ``n_reps * n_particles``
    particles, which pays each propagation round's fixed cost once for all
    of them; memory is that of one such run.  Collapsed replicates are
    recorded and excluded from the mean.  ``n_reps`` must be an integer of
    at least 1 (ValueError).
    """
    if isinstance(n_reps, bool) or not isinstance(n_reps, (int, np.integer)) or n_reps < 1:
        raise ValueError(f"n_reps must be an integer of at least 1, got {n_reps!r}")
    seeds = np.random.SeedSequence(config.seed).spawn(n_reps)
    runs = _run_filters(spec, v, config, [np.random.default_rng(s) for s in seeds])
    vals = np.array([r.loglik for r in runs])
    diagnostics = runs[0].diagnostics
    finite = np.isfinite(vals)
    k = int(finite.sum())
    if k == 0:
        return ReplicateResult(-math.inf, math.nan, tuple(vals), n_reps, diagnostics)
    mean = float(vals[finite].mean())
    se = float(vals[finite].std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    return ReplicateResult(mean, se, tuple(vals), n_reps - k, diagnostics)


# ---------------------------------------------------------------------------
# Deterministic truncated-grid oracle.

def _interval_generator(spec, lattice, t, ell):
    """Sparse operator for the between-events weight flow at lineage count ell.

    Each channel's inflow into a state is scaled by the `_jump_factors`
    entry at the state's focal size, so sampling channels act as pure
    killing (outflow without inflow), birth inflow is damped by the
    no-coalescence probability and inflow into a state with fewer focal
    individuals than ``ell`` is dropped.
    """
    size = lattice.states[:, spec.focal_dim]
    scale = _jump_factors(spec, ell, int(size.max())).T.take(size, axis=0)
    return _generator(lattice, spec.active_displacements,
                      spec.rate_matrix(t, lattice.states), scale)


def _grid_event_update(spec, lattice, w, e, kind, ell_post):
    channels, terms = _event_terms(spec, lattice.states, e, kind, ell_post)
    new = np.zeros_like(w)
    for j, k in enumerate(channels):
        src, dst = lattice.transition(spec.active_displacements[k])
        new[dst] += terms[src, j] * w[src]
    return new


def oracle_loglik(spec: ModelSpec, v: Genealogy, truncation, tol: float = 1e-8,
                  return_grid: bool = False):
    """Deterministic log likelihood of a visible genealogy on a truncation.

    Starts from the initial distribution restricted to the truncation,
    read by one `population._initial_mass` call over all its states, advances the
    between-events flow with `_integrate_epochs` and applies the exact event
    updates.  Each epoch of constant rates is one uniformization step whose
    series leaves out at most ``tol * 1e-6`` of the mass; an epoch where a
    channel has a rate bound is integrated by RK45 at relative tolerance
    ``tol``.  The caller asserts that the truncation loses negligible
    probability flux (`boundary_flux` helps check).  Probability on states
    with fewer focal individuals than required lineages is zeroed at the
    start of every stretch, time zero included.

    After every event update the weights are divided by their sum and the
    log of that sum is carried, as `smc_loglik` carries its log mean weight,
    so ``tol`` always applies to mass of order one.  A weight driven negative
    by more than ``tol`` times the mass it started from raises
    `IntegrationError` naming the interval.  A ``tol`` that is not positive
    and finite raises ValueError, as does a truncation whose rows do not all
    have ``spec.d`` entries or hold an entry that is not a finite whole
    number.  A state the truncation lists twice counts once.  An
    ``init_pmf`` that does not give one value per state, or gives a negative
    or non-finite one, is a defect of the model and raises `SimulationError`,
    as on every route.  A truncation that holds none of the initial mass
    raises `FilterError`: -inf is kept for an impossible genealogy.  The
    grid of ``return_grid`` is the call's lattice and final weights
    (`WeightGrid`), handed on without a copy.
    """
    _check_tol(tol)
    n_active = len(spec.active_dims)
    full = _state_array(truncation, spec.d)
    proj = StateLattice(full[:, :n_active], n_active)
    if proj.size < len(full):  # bookkeeping coordinates, or a state listed twice: read it once
        full = full[np.sort(np.unique(full, axis=0, return_index=True)[1])]
    pmf = _initial_mass(spec, full)
    if not pmf.max() > 0.0:
        raise FilterError("the truncation holds none of the initial distribution's mass")
    w = np.zeros(proj.size)
    np.add.at(w, proj.rows(full[:, :n_active]), pmf)
    size = proj.states[:, spec.focal_dim]
    log_scale = 0.0
    for t, e, ell, kind, ell_post in _stretches(v):
        w[size < ell] = 0.0
        if e > t:
            out = _integrate_epochs(spec, lambda a: _interval_generator(spec, proj, a, ell),
                                    w, t, e, tol)
            if out.min() < -tol * w.sum():
                raise IntegrationError(f"grid weight {out.min():.3g} on [{t}, {e}] is negative "
                                       f"beyond tolerance {tol} of the mass {w.sum():.3g}")
            w = out
        if kind is None:
            break
        w = _grid_event_update(spec, proj, w, e, kind, ell_post)
        total = float(w.sum())
        if total > 0.0:
            w /= total
            log_scale += math.log(total)
    total = float(w.sum())
    loglik = log_scale + math.log(total) if total > 0.0 else -math.inf
    if return_grid:
        return loglik, WeightGrid(proj, w, v.time, log_scale)
    return loglik


def boundary_flux(spec: ModelSpec, grid: WeightGrid, t: float | None = None) -> float:
    """Instantaneous probability flux out of the set of weighted states.

    The flux is mass times rate, summed over the rows each channel takes off
    the grid's lattice, with rates read at ``grid.time`` unless ``t`` is
    given; the lattice of an `oracle_loglik` grid has its transition maps
    already built.  The weights count without their ``log_scale``, so the
    flux is relative to the likelihood accumulated so far.  A large value
    relative to the integration tolerance means the truncation is too small.
    """
    lattice, w = grid.lattice, grid.weights
    rates = spec.rate_matrix(grid.time if t is None else t, lattice.states)
    flux = 0.0
    for k in range(spec.n_events):
        off = np.ones(lattice.size, dtype=bool)
        off[lattice.transition(spec.displacements[k][:lattice.d])[0]] = False
        flux += float(w[off] @ rates[off, k])
    return flux
