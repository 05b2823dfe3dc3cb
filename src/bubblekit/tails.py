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
GeometricYield(a, r)    a * r^t, 0 < r < 1        convergent            _log_sum, 6 ulps
PowerYield(a, p)        a * t^-p                  divergent iff p <= 1  _log_sum, 6 ulps
ZeroDividends           all zero                  convergent            0
DeclaredDivergent       user-asserted             divergent             +inf
DeclaredConvergent(s)   user-asserted, PV tail s  convergent            0 (s: present_value)
======================  ========================  ====================  ======================

A divergent power tail's ``log_sum`` is +inf, as every divergent kind's is.  The
geometric and power sums take one route: a head summed term by term, then a
series in the moments of the yields (:func:`_log_sum`), with no special function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ValidationError
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
        """sum_{t >= start} log1p(coeff * ratio^t) by the route of :func:`_log_sum`, with
        the moments m_k = sum_n ratio^(k n) = 1 / -expm1(k log ratio): within 6 ulps, and
        m_1 2^-1074 more where the yields from t0 on are subnormal."""
        return _log_sum(
            f"geometric-yield tail a={self.coeff!r}, rho={self.ratio!r}",
            (math.log(2.0) + math.log(self.coeff)) / -math.log(self.ratio),
            start, self.coeff, lambda t: self.ratio ** (t / 2),
            lambda t0, k: 1.0 / -np.expm1(k * math.log(self.ratio)),
        )

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
        """sum_{t >= start} log1p(coeff * t^-exponent), +inf for exponent <= 1, by the
        route of :func:`_log_sum`, with the moments of :func:`_power_moments`: within 6
        ulps, and m_1 2^-1074 more (m_1 <= 1 + t0 / (exponent - 1)) where yields from
        t0 on are subnormal."""
        p = self.exponent
        if p <= 1:
            return math.inf
        return _log_sum(
            f"power-yield tail a={self.coeff!r}, p={p!r}",
            2.0 ** (1.0 / p) * self.coeff ** (1.0 / p),  # inf past the doubles
            start, self.coeff, lambda t: t ** (-p / 2),
            lambda t0, k: _power_moments(p, t0, k),
        )

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
        raise ValidationError(f"unrecognized tail model: {tail!r}")
    return tail.tail_class


# a head's terms per numpy pass, and at most; x0 <= 1/2 puts term 60 below 2^-60 of term 1
_HEAD_CHUNK, _HEAD_MAX = 1 << 20, 100_000_000
_K = np.arange(1, 61)


def _log_sum(tail: str, edge: float, start: int, coeff: float, root, moments) -> float:
    """sum_{t >= start} log1p(y_t) for yields y_t = coeff * root(t)^2 that fall
    with t and reach 1/2 at t = ``edge``.  Each is formed as ``coeff * r * r``:
    no factor underflows before the yield does, and no exp of a log costs
    hundreds of ulps.  The head, t < t0 = max(start, ceil(edge)), is numpy
    ``log1p`` summed by ``compensated_sum`` in chunks.  The rest, yields x0 r_n
    with r_0 = 1, is sum_k (-1)^(k+1) x0^k m_k / k, m_k = sum_n r_n^k coming
    from ``moments(t0, k)``.  ``math.fsum`` adds the chunks and the series."""
    if edge - start > _HEAD_MAX:
        raise ValidationError(
            f"{tail}: its yield stays at or above 1/2 from t = {start} to t = {edge:.6g}, "
            f"more than the {_HEAD_MAX} terms its log-yield sum can add one by one"
        )

    def yields(t):
        r = root(t)
        return coeff * r * r

    t0 = max(start, math.ceil(edge))
    t0 += yields(float(t0)) > 0.5  # edge was rounded down past an integer
    parts = [
        compensated_sum(np.log1p(yields(np.arange(lo, min(lo + _HEAD_CHUNK, t0), 1.0))))
        for lo in range(start, t0, _HEAD_CHUNK)
    ]
    series = np.where(_K % 2, 1.0, -1.0) * yields(float(t0)) ** _K * moments(t0, _K) / _K
    return math.fsum([*parts, *series])


_BERNOULLI = np.array([1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510])
_BERNOULLI /= [math.factorial(2 * j) for j in range(1, 9)]


def _power_moments(exponent: float, t0: int, k: np.ndarray) -> np.ndarray:
    """m_k = t0^s zeta(s, t0) = sum_{n >= 0} f(n) for f(n) = (1 + n/t0)^-s, s = k p:
    16 terms, then f(16) (a/(s-1) + 1/2 + sum_{j=1..8} B_2j/(2j)! (s)_(2j-1) a^(1-2j)),
    a = t0 + 16 (Euler-Maclaurin, DLMF 2.10.1, 25.11.5; the rest is below 1e-20 of
    m_k), taken where f(16) > 0, so that s < 745 a / 16 keeps (s)_15 a^-15 finite."""
    with np.errstate(over="ignore"):  # s log1p(n/t0) may pass the doubles
        powers = np.exp(-np.multiply.outer(k, exponent * np.log1p(np.arange(17) / t0)))
    moments = powers[:, :16].sum(axis=1)
    live = powers[:, 16] > 0
    s, a = k[live] * exponent, t0 + 16.0
    rising = np.cumprod(s[:, None] + np.arange(15), axis=1)[:, ::2]  # (s)_1, (s)_3, ..., (s)_15
    corrections = rising * a ** -np.arange(1.0, 16.0, 2.0) @ _BERNOULLI
    moments[live] += powers[live, 16] * (a / (s - 1.0) + 0.5 + corrections)
    return moments
