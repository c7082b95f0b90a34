"""Exact genealogy likelihoods along a fully observed trajectory.

Two routes to the conditional probability of a visible genealogy given the
history of population events, which must agree:

* `loglik_lineages` walks the samples in order and multiplies, for every
  (lineage, history event) pair, the probability that the event's uniform
  member choice did or did not involve that lineage (`q_factor`).  It makes
  one array evaluation per lineage, over the events in the lineage's
  window, and counts the earlier lineages crossing each event from sorted
  prefixes of their attachment and sample times;
* `loglik_events` makes a single pass over the history, contributing one
  factor per event according to how the visible genealogy classifies its
  time (coalescence, direct descent, leaf, or unobserved birth).

The per-event combinatorial factors of the likelihood recursion live here,
once: `event_factor` for the three genealogy event kinds and
`hidden_birth_factor` for a birth the genealogy does not see.
`loglik_events`, the particle filter and the grid oracle
(`genfilter.filtering`) all call them; `q_factor` is the independent
lineage-by-lineage reference they are checked against, and
`loglik_lineages` calls none of them.

`loglik_events` takes the genealogy's events and lineage counts from one
`LineageFunction`, which reads both from `event_schedule`: a fault of the
genealogy alone, such as a non-root node at t <= 0 or a lineage count that
goes negative, is the `GenealogyError` it raises, and an `ExactError` means
that the genealogy and the history do not fit each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .genealogy import Genealogy, LineageFunction, build_genealogy, embedded_chain, prune
from .population import History, JumpSequence, ModelSpec, _path, to_history


class ExactError(RuntimeError):
    """Raised when a genealogy and history are structurally inconsistent."""


def _choose2(n):
    return n * (n - 1) // 2


def event_factor(kind: str, size, ell) -> np.ndarray:
    """Combinatorial factor of one genealogy event, vectorised over ``size`` and ``ell``.

    ``size`` is the focal size and ``ell`` the lineage count just after the
    event.  A coalescence picks its pair, 1/C(size, 2); a direct descent
    picks the sampled lineage, 1/size; a leaf samples an individual off
    every tracked lineage, 1 - ell/size.  The factor is 0 when ``size`` is
    below ``ell`` or below the individuals the event itself needs (two for a
    coalescence, one for a sample).
    """
    size = np.asarray(size, dtype=float)
    # the floors only keep the discarded branch of np.where finite
    if kind == "coalescence":
        return np.where(size >= np.maximum(ell, 2), 1.0 / np.maximum(_choose2(size), 1.0), 0.0)
    if kind == "direct":
        return np.where(size >= np.maximum(ell, 1), 1.0 / np.maximum(size, 1.0), 0.0)
    if kind == "leaf":
        return np.where(size >= np.maximum(ell, 1), 1.0 - ell / np.maximum(size, 1.0), 0.0)
    raise ValueError(f"unknown genealogy event kind {kind!r}")


def hidden_birth_factor(size, ell) -> np.ndarray:
    """Probability that a birth at focal size ``size`` joined no two of ``ell`` lineages.

    1 - C(ell, 2)/C(size, 2), vectorised over ``size`` and ``ell``; 1 when fewer than
    two lineages are tracked, and 0 when ``size`` is below ``ell``.
    """
    size = np.asarray(size, dtype=float)
    return np.where(size >= ell, 1.0 - _choose2(ell) / np.maximum(_choose2(size), 1.0), 0.0)


@dataclass(frozen=True)
class QContext:
    """Everything `q_factor` needs about (lineage, history event) pairs.

    ``focal`` is the focal size just after the event; ``lineages`` counts the
    earlier samples' lineages crossing the event time.  The window is
    [attachment, sample) of the current lineage; ``at_prior_attachment``
    flags event times where an earlier lineage already attached.  Each field
    may be a scalar or an array, describing one pair or, elementwise after
    broadcasting, many pairs at once.
    """

    kind: ArrayLike            # "birth", "sample", or "other"
    focal: ArrayLike
    lineages: ArrayLike
    in_window: ArrayLike
    at_attachment: ArrayLike
    at_prior_attachment: ArrayLike
    attach_kind: ArrayLike = "root"  # of the current lineage: root/coalescence/direct


def q_factor(ctx: QContext) -> tuple[float | np.ndarray, bool | np.ndarray]:
    """Probability that a history event is consistent with a lineage.

    Returns ``(value, compatible)``; ``compatible`` is False when a counting
    denominator vanishes, meaning no assignment of the event's member choice
    can produce the genealogy (the value is then 0).  Branches are resolved
    in a fixed order, earlier sections winning.  Array fields give arrays,
    evaluated elementwise; scalar fields give a Python ``float`` and ``bool``.
    """
    kind = np.asarray(ctx.kind)
    focal = np.asarray(ctx.focal)
    lineages = np.asarray(ctx.lineages)
    at_attachment = np.asarray(ctx.at_attachment, dtype=bool)
    neutral = ~np.asarray(ctx.in_window, dtype=bool) | (kind == "other") \
        | np.asarray(ctx.at_prior_attachment, dtype=bool)
    sample = kind == "sample"
    free = focal - lineages
    pairs = _choose2(focal) - _choose2(lineages)
    # a sample picks one free individual, a birth one pair not both on lineages
    denom = np.where(sample, free, pairs)
    hosts = np.where(sample, "direct", "coalescence") == np.asarray(ctx.attach_kind)
    compatible = neutral | ((denom > 0) & (~at_attachment | hosts))
    # the floor only keeps the discarded branches of np.select finite
    floor = np.maximum(denom, 1)
    value = np.select([neutral, ~compatible, at_attachment, sample],
                      [1.0, 0.0, 1.0 / floor, 1.0 - 1.0 / floor],
                      1.0 - lineages / floor)
    if value.ndim == 0:
        return float(value), bool(compatible)
    return value, compatible


def loglik_lineages(spec: ModelSpec, traj: JumpSequence) -> float:
    """Log conditional probability of the visible genealogy, lineage by lineage.

    Builds and prunes the genealogy of ``traj``, then multiplies `q_factor`
    over every lineage and every history event in its window, one array
    evaluation per lineage and no call to `event_factor`, so it stays an
    independent check on `loglik_events`.  Earlier lineages crossing an
    event time t are counted from sorted prefixes of attachment and sample
    times, #{attach <= t} - #{sample <= t}, as none is sampled before it
    attaches.  A trajectory with no samples gives 0 (empty product).  The
    trajectory is read by `population._path` once its genealogy is built, so
    a `GenealogyError` comes before the ValueError of a time fault.
    """
    visible = prune(build_genealogy(spec, traj)[0])
    times, channels, states = _path(spec, to_history(traj))
    chain = embedded_chain(visible)
    if not chain:
        return 0.0

    focal = spec.focal_sizes(states[1:])
    kinds = np.where(spec.birth_mask[channels], "birth",
                     np.where(spec.sample_mask[channels], "sample", "other"))
    attach = np.array([r.attach_time for r in chain])
    sample = np.array([r.sample_time for r in chain])

    total = 0.0
    for j, rec in enumerate(chain):
        lo, hi = np.searchsorted(times, [rec.attach_time, rec.sample_time], side="left")
        t = times[lo:hi]
        prior = np.sort(attach[:j])
        attached = np.searchsorted(prior, t, side="right")
        q, _ = q_factor(QContext(
            kind=kinds[lo:hi],
            focal=focal[lo:hi],
            lineages=attached - np.searchsorted(np.sort(sample[:j]), t, side="right"),
            in_window=True,
            at_attachment=t == rec.attach_time,
            at_prior_attachment=attached > np.searchsorted(prior, t, side="left"),
            attach_kind=rec.attach_kind,
        ))
        if not (q > 0.0).all():
            return -math.inf
        total += float(np.log(q).sum())
    return total


def loglik_events(spec: ModelSpec, h: History, visible: Genealogy) -> float:
    """Log conditional probability of ``visible`` given the history, one pass.

    The history is read by `population._path`, as `history_log_density`
    reads it: its event times must lie in (0, horizon] in order, or the
    call raises ValueError.  Every
    genealogy event time must appear in the history with a matching
    channel kind (births for coalescences, samples for direct descents and
    leaves); a missing or mismatched time is an `ExactError`, while a
    genealogy `LineageFunction` rejects raises its `GenealogyError`.  The
    events and the lineage counts both come from that one `LineageFunction`.
    Counting incompatibilities (too few individuals for the required
    lineages) give -inf.  The pass only classifies events; each factor is
    then evaluated once, on the arrays of every event of its kind.
    """
    times, _, states = _path(spec, h)
    lineages = LineageFunction(visible)
    pending = dict(lineages.schedule)
    by_kind: dict[str, list[int]] = {"hidden birth": [], "coalescence": [],
                                     "direct": [], "leaf": []}
    for i, (t, k) in enumerate(h.events):
        ev = spec.events[k]
        kind = pending.pop(t, None)
        if kind is None:
            if ev.is_sample:
                raise ExactError(f"history sample at t={t} has no matching genealogy node")
            if ev.is_birth:
                by_kind["hidden birth"].append(i)
            continue
        if kind == "coalescence" and not ev.is_birth:
            raise ExactError(f"coalescence at t={t} matches non-birth event {ev.name!r}")
        if kind != "coalescence" and not ev.is_sample:
            what = "direct descent" if kind == "direct" else kind
            raise ExactError(f"{what} at t={t} matches non-sample event {ev.name!r}")
        by_kind[kind].append(i)
    if pending:
        t = min(pending)
        raise ExactError(f"genealogy event at t={t} is absent from the history")
    size = spec.focal_sizes(states[1:])
    ell = lineages.at(times)
    total = 0.0
    for kind, idx in by_kind.items():
        if not idx:
            continue
        if kind == "hidden birth":
            factor = hidden_birth_factor(size[idx], ell[idx])
        else:
            factor = event_factor(kind, size[idx], ell[idx])
        if not (factor > 0.0).all():
            return -math.inf
        total += float(np.log(factor).sum())
    return total
