"""Ready-made epidemic and branching models.

Every builder returns a `ModelSpec` whose last coordinates are bookkeeping
counters (cumulative sampling events, and for the epidemic models the
untracked compartments folded into conservation); the focal size is the
coordinate the marked events act on.  Rate callables accept scalar or
batched states, so the same model drives single-path simulation, the
particle filter, and the truncated-grid oracle.

The transmission rate of the epidemic models may be a `PiecewiseConstant`
function of time.  Its breakpoints become the model's rate breakpoints, and
every route (simulation, filter, grid oracle, path density) works one epoch
between breakpoints at a time, at constant rates.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .population import EventType, ModelSpec


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function on [0, inf).

    ``times`` are the ascending breakpoints; ``values`` has one more entry
    than ``times`` and gives the value on each piece, starting at t = 0.
    Each is a list, tuple or array of numbers; anything else (a string, a
    bool) is a ValueError.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        for seq in (self.times, self.values):
            if not isinstance(seq, (list, tuple, np.ndarray)):
                raise ValueError(f"breakpoints and values must be sequences of numbers, "
                                 f"got {seq!r}")
        times = tuple(_number(t, "breakpoints") for t in self.times)
        values = tuple(_number(v, "values") for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(values) != len(times) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if not all(math.isfinite(v) for v in times + values):
            raise ValueError("breakpoints and values must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in values):
            raise ValueError("values must be nonnegative")

    def __call__(self, t: float) -> float:
        return self.values[bisect_right(self.times, t)]

    def to_dict(self) -> dict:
        return {"times": list(self.times), "values": list(self.values)}


def _number(value, what: str) -> float:
    """``value`` as a float; a bool, a string or anything else that is not a real number is a
    ValueError naming ``what``, where ``float`` would take it or fail with a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be numbers, got {value!r}")
    return float(value)


def _as_rate(value) -> float | PiecewiseConstant:
    """A rate, or a step function given as a mapping with exactly the keys times and values."""
    if isinstance(value, PiecewiseConstant):
        return value
    if isinstance(value, Mapping):
        if set(value) != {"times", "values"}:
            raise ValueError(f"a piecewise rate has exactly the keys 'times' and 'values', "
                             f"got {sorted(map(str, value))}")
        return PiecewiseConstant(value["times"], value["values"])
    return _rates(value)[0]


def _rates(*values) -> list[float]:
    """``values`` as floats; a non-number (`_number`) or a negative, NaN or infinite rate is a
    ValueError."""
    out = [_number(v, "rates") for v in values]
    if not all(0.0 <= v < math.inf for v in out):
        raise ValueError(f"rates must be finite and nonnegative, got {out}")
    return out


def _check_count(name: str, value) -> int:
    """``value`` as an int; a bool, a non-number or a number that is not a nonnegative whole
    one is a ValueError.  A whole float such as 2.0 is taken."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _field_values(params) -> dict:
    """A params dataclass as a plain mapping, field by field; a `PiecewiseConstant` as its dict."""
    out = {f.name: getattr(params, f.name) for f in fields(params)}
    return {k: v.to_dict() if isinstance(v, PiecewiseConstant) else v for k, v in out.items()}


def _point_mass(x0: np.ndarray):
    x0 = np.asarray(x0, dtype=np.int64)

    def init_sample(rng, n):
        return np.tile(x0, (n, 1))

    def init_pmf(x):
        return (np.asarray(x, dtype=np.int64) == x0).all(axis=-1).astype(float)

    return init_sample, init_pmf


@dataclass(frozen=True)
class LBDPParams:
    """Linear birth-death process with sampling at rate per individual."""

    birth_rate: float
    death_rate: float
    sampling_rate: float
    n0: int


def lbdp_spec(params: LBDPParams, mu: float = 1.0) -> ModelSpec:
    """State (n, sampled): population size plus a sampling counter."""
    lam, delta, psi = _rates(params.birth_rate, params.death_rate, params.sampling_rate)
    n0 = _check_count("n0", params.n0)
    init_sample, init_pmf = _point_mass(np.array([n0, 0]))
    return ModelSpec(
        name="lbdp",
        d=2,
        events=(
            EventType("birth", (1, 0), is_birth=True),
            EventType("death", (-1, 0), is_death=True),
            EventType("sampling", (0, 1), is_sample=True),
        ),
        rates=(
            lambda t, x: lam * x[..., 0],
            lambda t, x: delta * x[..., 0],
            lambda t, x: psi * x[..., 0],
        ),
        init_sample=init_sample,
        init_pmf=init_pmf,
        focal_size=lambda x: x[..., 0],
        mu=mu,
        bookkeeping_dims=(1,),
        params=_field_values(params),
    )


def lbdp_truncation(params: LBDPParams, n_max: int) -> list[tuple[int, int]]:
    return [(n, 0) for n in range(n_max + 1)]


@dataclass(frozen=True)
class SIRParams:
    """Density-dependent SIR with per-infective sampling.

    ``transmission_rate`` multiplies s * i and may be a `PiecewiseConstant`.
    Sampling observes an infective without removing it.
    """

    transmission_rate: float | PiecewiseConstant
    recovery_rate: float
    sampling_rate: float
    s0: int
    i0: int
    r0: int = 0


def _si_product(beta: float | PiecewiseConstant):
    """Infection rate beta(t) * s * i, and the breakpoints of beta (checked by `_as_rate`)."""
    if isinstance(beta, PiecewiseConstant):
        return (lambda t, x: beta(t) * x[..., 0] * x[..., 1]), beta.times
    return (lambda t, x: beta * x[..., 0] * x[..., 1]), ()


def sir_spec(params: SIRParams, mu: float = 1.0) -> ModelSpec:
    """State (s, i, r, sampled); infection is the birth event on i."""
    return _sir_family("sir", params, mu)


def _sir_family(name: str, params, mu: float, waning=()) -> ModelSpec:
    """SIR on (s, i, r, sampled), plus waning r -> s at the one rate in ``waning`` if given."""
    beta = _as_rate(params.transmission_rate)
    gamma, psi, *sigma = _rates(params.recovery_rate, params.sampling_rate, *waning)
    s0 = _check_count("s0", params.s0)
    i0 = _check_count("i0", params.i0)
    r0 = _check_count("r0", params.r0)
    infection, breaks = _si_product(beta)
    init_sample, init_pmf = _point_mass(np.array([s0, i0, r0, 0]))
    events = [
        EventType("infection", (-1, 1, 0, 0), is_birth=True),
        EventType("recovery", (0, -1, 1, 0), is_death=True),
        EventType("sampling", (0, 0, 0, 1), is_sample=True),
    ]
    rates = [infection, lambda t, x: gamma * x[..., 1], lambda t, x: psi * x[..., 1]]
    values = _field_values(SIRParams(beta, gamma, psi, s0, i0, r0))
    if sigma:
        events.append(EventType("waning", (1, 0, -1, 0)))
        rates.append(lambda t, x: sigma[0] * x[..., 2])
        values["waning_rate"] = sigma[0]
    return ModelSpec(
        name=name,
        d=4,
        events=events,
        rates=rates,
        init_sample=init_sample,
        init_pmf=init_pmf,
        focal_size=lambda x: x[..., 1],
        mu=mu,
        rate_breakpoints=breaks,
        bookkeeping_dims=(3,),
        params=values,
    )


def sir_truncation(params: SIRParams) -> list[tuple[int, int, int, int]]:
    """All states reachable under s + i + r conservation."""
    total = params.s0 + params.i0 + params.r0
    return [(s, i, total - s - i, 0)
            for s in range(total + 1)
            for i in range(total - s + 1)]


@dataclass(frozen=True)
class SIRSParams:
    """SIR with waning immunity returning removed individuals to susceptible."""

    transmission_rate: float | PiecewiseConstant
    recovery_rate: float
    sampling_rate: float
    waning_rate: float
    s0: int
    i0: int
    r0: int = 0


def sirs_spec(params: SIRSParams, mu: float = 1.0) -> ModelSpec:
    """State (s, i, r, sampled); waning is unmarked since i is unchanged."""
    return _sir_family("sirs", params, mu, (params.waning_rate,))


sirs_truncation = sir_truncation


@dataclass(frozen=True)
class S2IRParams:
    """SIR with two susceptible classes of different transmissibility."""

    transmission_rate_1: float
    transmission_rate_2: float
    recovery_rate: float
    sampling_rate: float
    s1_0: int
    s2_0: int
    i0: int


def s2ir_spec(params: S2IRParams, mu: float = 1.0) -> ModelSpec:
    """State (s1, s2, i, sampled); recovered individuals are not tracked."""
    b1, b2, gamma, psi = _rates(params.transmission_rate_1, params.transmission_rate_2,
                                params.recovery_rate, params.sampling_rate)
    s1_0 = _check_count("s1_0", params.s1_0)
    s2_0 = _check_count("s2_0", params.s2_0)
    i0 = _check_count("i0", params.i0)
    init_sample, init_pmf = _point_mass(np.array([s1_0, s2_0, i0, 0]))
    return ModelSpec(
        name="s2ir",
        d=4,
        events=(
            EventType("infection_1", (-1, 0, 1, 0), is_birth=True),
            EventType("infection_2", (0, -1, 1, 0), is_birth=True),
            EventType("recovery", (0, 0, -1, 0), is_death=True),
            EventType("sampling", (0, 0, 0, 1), is_sample=True),
        ),
        rates=(
            lambda t, x: b1 * x[..., 0] * x[..., 2],
            lambda t, x: b2 * x[..., 1] * x[..., 2],
            lambda t, x: gamma * x[..., 2],
            lambda t, x: psi * x[..., 2],
        ),
        init_sample=init_sample,
        init_pmf=init_pmf,
        focal_size=lambda x: x[..., 2],
        mu=mu,
        bookkeeping_dims=(3,),
        params=_field_values(params),
    )


def s2ir_truncation(params: S2IRParams) -> list[tuple[int, int, int, int]]:
    out = []
    for s1 in range(params.s1_0 + 1):
        for s2 in range(params.s2_0 + 1):
            i_max = params.i0 + (params.s1_0 - s1) + (params.s2_0 - s2)
            out.extend((s1, s2, i, 0) for i in range(i_max + 1))
    return out


MODELS: dict[str, tuple[type, Callable]] = {
    "lbdp": (LBDPParams, lbdp_spec),
    "sir": (SIRParams, sir_spec),
    "sirs": (SIRSParams, sirs_spec),
    "s2ir": (S2IRParams, s2ir_spec),
}


# Grid-oracle state sets, called as ``truncation(params, n_max)``.  Only lbdp,
# whose population is unbounded, reads the cap; the epidemic models conserve
# their population and enumerate every state it allows.
TRUNCATIONS: dict[str, Callable] = {
    "lbdp": lbdp_truncation,
    "sir": lambda params, n_max: sir_truncation(params),
    "sirs": lambda params, n_max: sirs_truncation(params),
    "s2ir": lambda params, n_max: s2ir_truncation(params),
}


def build_model(name: str, params: Mapping, mu: float = 1.0) -> ModelSpec:
    """Construct a registered model from a plain parameter mapping."""
    obj = model_params(name, params)
    return MODELS[name][1](obj, mu=mu)


def model_params(name: str, params: Mapping):
    """The params dataclass of a registered model, from a plain mapping."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODELS)}")
    cls, _ = MODELS[name]
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(params) - fields
    if unknown:
        raise ValueError(f"model {name!r}: unknown parameters {sorted(unknown)}")
    kwargs = dict(params)
    if "transmission_rate" in kwargs:
        kwargs["transmission_rate"] = _as_rate(kwargs["transmission_rate"])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"model {name!r}: {exc}") from None
