"""Declared tail models for the dividend yield beyond the sampled horizon.

A finite sample can never decide whether the infinite dividend-yield sum
converges, so every analysis requires an explicit declaration of the
asymptotic class.  Each kind below states how the yield series behaves
for t > T_max, the class of its yield sum, its log-yield sum from a date
on, and its per-period form (the :class:`TailModel` interface).

Convergence semantics (yield y_t = D_t / P_t for t beyond the sample):

======================  ========================  ====================  ======================
kind                    tail yields               tail_class            log_sum(start)
======================  ========================  ====================  ======================
ConstantLevels(P, D>0)  constant D/P > 0          divergent             +inf
ConstantLevels(P, 0)    all zero                  convergent            0
ConstantYield(c)        constant c > 0            divergent             +inf
GeometricYield(a, r)    a * r^t, 0 < r < 1        convergent            geometric_tail_log_sum
PowerYield(a, p)        a * t^-p                  divergent iff p <= 1  power_tail_log_sum
ZeroDividends           all zero                  convergent            0
DeclaredDivergent       user-asserted             divergent             +inf
DeclaredConvergent(s)   user-asserted, PV tail s  convergent            0 (s: present_value)
======================  ========================  ====================  ======================

A divergent power tail's ``log_sum`` is +inf, as every divergent kind's is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import TailUnsupportedError, ValidationError
from .numerics import compensated_sum

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


class TailModel:
    """A declared tail: a frozen dataclass of its parameters, to which this
    base adds no field.  ``tail_class`` is the convergence class of its
    yield sum; ``present_value`` is None unless the kind itself declares the
    date-0 present value of the dividends past the horizon.
    """

    tail_class: ClassVar[TailClass]
    present_value: ClassVar[float | None] = None

    def log_sum(self, start: int) -> float:
        """S = sum_{t >= start} log1p(y_t): +inf for a divergent tail, and 0
        where no yields follow or a present value is declared instead."""
        return math.inf if self.tail_class is TailClass.DIVERGENT else 0.0

    def per_period(self, step: float) -> TailModel:
        """This tail of a continuous yield, read per sampling period of
        ``step`` time units: period k's yield is ``step`` times the yield
        at time k * step.  Kinds with no yield to rescale return self."""
        return self


@dataclass(frozen=True)
class ConstantLevels(TailModel):
    """Price and dividend stay at fixed levels beyond the horizon."""

    price: float
    dividend: float

    def __post_init__(self):
        _coerce_float(self, "price", "dividend")
        if not self.price > 0:
            raise ValidationError("ConstantLevels requires price > 0")
        if self.dividend < 0:
            raise ValidationError("ConstantLevels requires dividend >= 0")

    @property
    def tail_class(self) -> TailClass:
        return TailClass.DIVERGENT if self.dividend > 0 else TailClass.CONVERGENT

    def per_period(self, step: float) -> TailModel:
        return ConstantLevels(self.price, self.dividend * step)


@dataclass(frozen=True)
class ConstantYield(TailModel):
    """Dividend yield stays at a fixed positive level."""

    level: float
    tail_class = TailClass.DIVERGENT

    def __post_init__(self):
        _coerce_float(self, "level")
        if not self.level > 0:
            raise ValidationError("ConstantYield requires level > 0")

    def per_period(self, step: float) -> TailModel:
        return ConstantYield(self.level * step)


@dataclass(frozen=True)
class GeometricYield(TailModel):
    """Yield decays geometrically: y_t = coeff * ratio^t."""

    coeff: float
    ratio: float
    tail_class = TailClass.CONVERGENT

    def __post_init__(self):
        _coerce_float(self, "coeff", "ratio")
        if not self.coeff > 0:
            raise ValidationError("GeometricYield requires coeff > 0")
        if not 0 < self.ratio < 1:
            raise ValidationError("GeometricYield requires ratio in (0, 1)")

    def log_sum(self, start: int) -> float:
        return geometric_tail_log_sum(self.coeff, self.ratio, start)

    def per_period(self, step: float) -> TailModel:
        return GeometricYield(self.coeff * step, self.ratio**step)


@dataclass(frozen=True)
class PowerYield(TailModel):
    """Yield decays polynomially: y_t = coeff * t^-exponent."""

    coeff: float
    exponent: float

    def __post_init__(self):
        _coerce_float(self, "coeff", "exponent")
        if not self.coeff > 0:
            raise ValidationError("PowerYield requires coeff > 0")
        if not self.exponent > 0:
            raise ValidationError("PowerYield requires exponent > 0")

    @property
    def tail_class(self) -> TailClass:
        return TailClass.DIVERGENT if self.exponent <= 1 else TailClass.CONVERGENT

    def log_sum(self, start: int) -> float:
        if self.exponent <= 1:
            return math.inf
        return power_tail_log_sum(self.coeff, self.exponent, start)

    def per_period(self, step: float) -> TailModel:
        return PowerYield(self.coeff * step ** (1.0 - self.exponent), self.exponent)


@dataclass(frozen=True)
class ZeroDividends(TailModel):
    """No dividends ever accrue beyond the horizon."""

    tail_class = TailClass.CONVERGENT


@dataclass(frozen=True)
class DeclaredDivergent(TailModel):
    """User asserts the yield sum diverges; no functional form given."""

    tail_class = TailClass.DIVERGENT


@dataclass(frozen=True)
class DeclaredConvergent(TailModel):
    """User asserts convergence and supplies the present value of the tail.

    ``tail_sum`` is the present value (date-0 goods) of all dividends past
    the sampled horizon, i.e. the amount added to the fundamental value.
    """

    tail_sum: float
    tail_class = TailClass.CONVERGENT

    def __post_init__(self):
        _coerce_float(self, "tail_sum")
        if self.tail_sum < 0:
            raise ValidationError("DeclaredConvergent requires tail_sum >= 0")

    @property
    def present_value(self) -> float:
        return self.tail_sum


def classify_tail(tail: TailModel) -> TailClass:
    """Classify the declared tail's yield sum as convergent or divergent.

    A convergent sum is exactly the condition under which the deflated
    price has a positive limit (a bubble); divergence certifies no bubble.
    """
    if not isinstance(tail, TailModel):
        raise TailUnsupportedError(f"unrecognized tail model: {tail!r}")
    return tail.tail_class


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


# a power tail's head terms are summed this many to a numpy pass, and no
# more than _POWER_HEAD_MAX of them in all
_POWER_HEAD_CHUNK = 1 << 20
_POWER_HEAD_MAX = 100_000_000


def power_tail_log_sum(coeff: float, exponent: float, start: int) -> float:
    """sum_{t >= start} log1p(coeff * t^-exponent) for exponent > 1.

    Direct summation converges far too slowly (the remainder decays like
    t^(1-p)), so after summing the head where coeff * t^-p >= 1/2 the
    remainder uses the expansion log1p(x) = sum_k (-1)^(k+1) x^k / k,
    which turns the tail into an alternating series of Hurwitz zeta
    values: sum_k (-1)^(k+1) (coeff^k / k) * zeta(k*p, t0).

    The head's terms are positive; they are formed by numpy ``log1p`` over
    an ``arange`` in chunks, and each chunk's total and then the sum of
    those totals come from ``compensated_sum``.  A head longer than
    ``_POWER_HEAD_MAX`` terms raises ``TailUnsupportedError``.
    """
    if exponent <= 1:
        raise TailUnsupportedError("power tail sum diverges for exponent <= 1")
    edge = (2.0 * coeff) ** (1.0 / exponent)  # inf where 2 * coeff overflows
    if edge - start > _POWER_HEAD_MAX:
        raise TailUnsupportedError(
            f"power-yield tail a={coeff!r}, p={exponent!r}: its yield stays at "
            f"or above 1/2 from t = {start} to t = {edge:.6g}, more than the "
            f"{_POWER_HEAD_MAX} terms its log-yield sum can add one by one"
        )
    t0 = max(start, math.ceil(edge))
    chunks = []
    for lo in range(start, t0, _POWER_HEAD_CHUNK):
        t = np.arange(lo, min(lo + _POWER_HEAD_CHUNK, t0), dtype=np.float64)
        chunks.append(compensated_sum(np.log1p(coeff * t**-exponent)))
    head = float(compensated_sum(np.array(chunks)))
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
