"""Declared tail models for the dividend yield beyond the sampled horizon.

A finite sample can never decide whether the infinite dividend-yield sum
converges, so every analysis requires an explicit declaration of the
asymptotic class.  Each variant below states how the yield series behaves
for t > T_max and, where the class converges, how the remaining
deflated-price limit is evaluated.

Convergence semantics (yield y_t = D_t / P_t for t beyond the sample):

========================  =========================  ==============
variant                   tail yields                classification
========================  =========================  ==============
ConstantLevels(P, D>0)    constant D/P > 0           divergent
ConstantLevels(P, 0)      all zero                   convergent
ConstantYield(c)          constant c > 0             divergent
GeometricYield(a, r)      a * r^t, 0 < r < 1         convergent
PowerYield(a, p)          a * t^-p                   divergent iff p <= 1
ZeroDividends             all zero                   convergent
DeclaredDivergent         user-asserted              divergent
DeclaredConvergent(s)     user-asserted, PV tail s   convergent
========================  =========================  ==============
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import TailUnsupportedError, ValidationError

__all__ = [
    "TailClass",
    "TailModel",
    "ConstantLevels",
    "ConstantYield",
    "GeometricYield",
    "PowerYield",
    "ZeroDividends",
    "DeclaredDivergent",
    "DeclaredConvergent",
    "classify_tail",
    "geometric_tail_log_sum",
    "power_tail_log_sum",
]


def _coerce_float(obj, *names: str) -> None:
    for name in names:
        value = float(getattr(obj, name))
        if not math.isfinite(value):
            raise ValidationError(
                f"{type(obj).__name__} requires a finite {name}, got {value!r}"
            )
        object.__setattr__(obj, name, value)


class TailClass(enum.Enum):
    """Convergence class of the infinite dividend-yield sum."""

    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class ConstantLevels:
    """Price and dividend stay at fixed levels beyond the horizon."""

    price: float
    dividend: float

    def __post_init__(self):
        _coerce_float(self, "price", "dividend")
        if not self.price > 0:
            raise ValidationError("ConstantLevels requires price > 0")
        if self.dividend < 0:
            raise ValidationError("ConstantLevels requires dividend >= 0")


@dataclass(frozen=True)
class ConstantYield:
    """Dividend yield stays at a fixed positive level."""

    level: float

    def __post_init__(self):
        _coerce_float(self, "level")
        if not self.level > 0:
            raise ValidationError("ConstantYield requires level > 0")


@dataclass(frozen=True)
class GeometricYield:
    """Yield decays geometrically: y_t = coeff * ratio^t."""

    coeff: float
    ratio: float

    def __post_init__(self):
        _coerce_float(self, "coeff", "ratio")
        if not self.coeff > 0:
            raise ValidationError("GeometricYield requires coeff > 0")
        if not 0 < self.ratio < 1:
            raise ValidationError("GeometricYield requires ratio in (0, 1)")


@dataclass(frozen=True)
class PowerYield:
    """Yield decays polynomially: y_t = coeff * t^-exponent."""

    coeff: float
    exponent: float

    def __post_init__(self):
        _coerce_float(self, "coeff", "exponent")
        if not self.coeff > 0:
            raise ValidationError("PowerYield requires coeff > 0")
        if not self.exponent > 0:
            raise ValidationError("PowerYield requires exponent > 0")


@dataclass(frozen=True)
class ZeroDividends:
    """No dividends ever accrue beyond the horizon."""


@dataclass(frozen=True)
class DeclaredDivergent:
    """User asserts the yield sum diverges; no functional form given."""


@dataclass(frozen=True)
class DeclaredConvergent:
    """User asserts convergence and supplies the present value of the tail.

    ``tail_sum`` is the present value (date-0 goods) of all dividends past
    the sampled horizon, i.e. the amount added to the fundamental value.
    """

    tail_sum: float

    def __post_init__(self):
        _coerce_float(self, "tail_sum")
        if self.tail_sum < 0:
            raise ValidationError("DeclaredConvergent requires tail_sum >= 0")


TailModel = Union[
    ConstantLevels,
    ConstantYield,
    GeometricYield,
    PowerYield,
    ZeroDividends,
    DeclaredDivergent,
    DeclaredConvergent,
]


def classify_tail(tail: TailModel) -> TailClass:
    """Classify the declared tail's yield sum as convergent or divergent.

    A convergent sum is exactly the condition under which the deflated
    price has a positive limit (a bubble); divergence certifies no bubble.
    """
    if isinstance(tail, ConstantLevels):
        return TailClass.DIVERGENT if tail.dividend > 0 else TailClass.CONVERGENT
    if isinstance(tail, ConstantYield):
        return TailClass.DIVERGENT
    if isinstance(tail, GeometricYield):
        return TailClass.CONVERGENT
    if isinstance(tail, PowerYield):
        return TailClass.DIVERGENT if tail.exponent <= 1 else TailClass.CONVERGENT
    if isinstance(tail, ZeroDividends):
        return TailClass.CONVERGENT
    if isinstance(tail, DeclaredDivergent):
        return TailClass.DIVERGENT
    if isinstance(tail, DeclaredConvergent):
        return TailClass.CONVERGENT
    raise TailUnsupportedError(f"unrecognized tail model: {tail!r}")


def geometric_tail_log_sum(coeff: float, ratio: float, start: int) -> float:
    """sum_{t >= start} log1p(coeff * ratio^t), to near machine precision.

    Terms are summed directly until the geometric remainder bound drops
    below 1e-25 absolute; ``np.multiply.accumulate`` forms them with the
    roundings of a loop of ``u *= ratio``.  For ratios very close to 1
    (where millions of terms would be needed) the sum is evaluated by
    Euler-Maclaurin with a dilogarithm antiderivative instead.
    """
    decay = -math.log(ratio)
    u = coeff * math.exp(-decay * start)
    if ratio > 0.999:
        from scipy.special import spence  # imported on use: ~0.3 s at start-up

        # integral of log1p(u(t)) dt is -Li2(-u)/decay; two correction
        # terms leave an error O(decay^3), ~1e-9 relative at ratio 0.999
        # and shrinking rapidly as ratio -> 1.
        dilog = float(spence(1.0 + u))  # Li2(-u)
        return -dilog / decay + 0.5 * math.log1p(u) + (decay / 12.0) * u / (1.0 + u)
    terms = []
    cutoff = 1e-25 * (1.0 - ratio)
    # in runs of one term more than stay above the cutoff; the terms never grow
    while u > cutoff:
        count = 1 + int((math.log(u) - math.log(cutoff)) / decay)
        run = np.multiply.accumulate(np.concatenate(([u], np.full(count, ratio))))
        terms += run[run > cutoff].tolist()
        u = run[-1] * ratio
    return math.fsum(map(math.log1p, terms))


def power_tail_log_sum(coeff: float, exponent: float, start: int) -> float:
    """sum_{t >= start} log1p(coeff * t^-exponent) for exponent > 1.

    Direct summation converges far too slowly (the remainder decays like
    t^(1-p)), so after summing the head where coeff * t^-p >= 1/2 the
    remainder uses the expansion log1p(x) = sum_k (-1)^(k+1) x^k / k,
    which turns the tail into an alternating series of Hurwitz zeta
    values: sum_k (-1)^(k+1) (coeff^k / k) * zeta(k*p, t0).
    """
    if exponent <= 1:
        raise TailUnsupportedError("power tail sum diverges for exponent <= 1")
    t0 = max(start, math.ceil((2.0 * coeff) ** (1.0 / exponent)))
    capped = t0 - start > 2_000_000
    if capped:
        # every retained term is >= log(3/2); the partial sum already
        # exceeds 8e5, so its exp-complement is identically 0.0 in double
        # precision and the remainder is irrelevant
        t0 = start + 2_000_000
    head = math.fsum(
        math.log1p(coeff * float(t) ** -exponent) for t in range(start, t0)
    )
    if capped:
        return head
    from scipy.special import zeta  # imported on use: ~0.3 s at start-up

    log_coeff = math.log(coeff)
    series = 0.0
    sign = 1.0
    for k in range(1, 400):
        zk = float(zeta(k * exponent, t0))
        if zk <= 0.0:
            break
        term = sign * math.exp(k * log_coeff - math.log(k) + math.log(zk))
        series += term
        if abs(term) <= 1e-18 * max(1.0, abs(series)):
            break
        sign = -sign
    return head + series
