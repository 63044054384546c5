"""Arithmetic on the nonnegative extended reals [0, inf].

The conventions are fixed so that value computations stay total and
deterministic even when infinities appear:

    0 / 0 = 0        0 * inf = inf * 0 = 0
    x / 0 = inf      inf - inf = inf          (x > 0)

inf / inf has no sanctioned meaning and is rejected.  NaN is
unrepresentable: every constructor and operation validates its inputs,
so a value of this type can always be compared and iterated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


class ExtRealDomainError(ValueError):
    """Raised when an operation would leave [0, inf] or is undefined."""


def _checked(value: float) -> float:
    v = float(value)
    if math.isnan(v):
        raise ExtRealDomainError("NaN is not a valid extended real")
    if v < 0.0:
        raise ExtRealDomainError(f"negative value {v!r} is not in [0, inf]")
    return v


@dataclass(frozen=True, order=True)
class ExtReal:
    """A value in [0, inf]; inf is a distinguished point, never an overflow."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _checked(self.value))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value


INFINITY = ExtReal(INF)
ZERO = ExtReal(0.0)


def _val(x) -> float:
    if isinstance(x, ExtReal):
        return x.value
    return _checked(x)


def ext_mul(a, b) -> ExtReal:
    """Product with 0 * inf = 0; otherwise the ordinary (saturating) product."""
    av, bv = _val(a), _val(b)
    if av == 0.0 or bv == 0.0:
        return ZERO
    return ExtReal(av * bv)


def ext_div(a, b) -> ExtReal:
    """Quotient with 0/0 = 0 and x/0 = inf for x > 0; inf/inf is an error."""
    av, bv = _val(a), _val(b)
    if math.isinf(av) and math.isinf(bv):
        raise ExtRealDomainError("inf / inf is undefined")
    if bv == 0.0:
        return ZERO if av == 0.0 else INFINITY
    if math.isinf(bv):
        return ZERO
    return ExtReal(av / bv)


def ext_sub_clamped(a, b) -> ExtReal:
    """Difference a - b staying within [0, inf]; inf - inf = inf.

    A finite a smaller than b (including finite a minus inf) would leave
    the domain and is rejected.
    """
    av, bv = _val(a), _val(b)
    if math.isinf(av):
        return INFINITY
    if av < bv:
        raise ExtRealDomainError(f"{av!r} - {bv!r} would leave [0, inf]")
    return ExtReal(av - bv)


def ext_exp(a) -> ExtReal:
    """e^a, with e^inf = inf.  Results beyond double range saturate to inf."""
    av = _val(a)
    if math.isinf(av):
        return INFINITY
    try:
        return ExtReal(math.exp(av))
    except OverflowError:
        return INFINITY
