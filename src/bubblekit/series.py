"""Discrete-time pricing identities: deflators, decomposition, transversality.

Everything derives from one cumulative log-yield sum of the sampled path,

    L_t = sum_{s=1..t} log1p(D_s / P_s),    L_0 = 0:

the no-arbitrage recursion q_t P_t = q_{t+1} (P_{t+1} + D_{t+1}), q_0 = 1,
gives q_t P_t = P_0 exp(-L_t), so the present value of the first T
dividends is P_0 (1 - exp(-L_T)) and the bubble is the limit
P_0 exp(-L_T - S), with S the declared tail's log-yield sum.  With strictly
positive prices a bubble exists exactly when the yield sum converges, so
the verdict is the tail class.  Staying in the log domain keeps horizons
up to 10^6 periods free of underflow and overflow.

A path is validated, and its yields D_t / P_t formed, once, when it is
built: L, the tail fit and the classifier all read that one array.

All objects are immutable and all operations are pure functions; paths and
results can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

import numpy as np

from .characterization import Classification, montrucchio_discrete
from .errors import ValidationError
from .numerics import _TINY, _log_ratio, _prefix_sums
from .tails import TailModel, classify_tail

__all__ = [
    "EPS_BUBBLE",
    "DEFAULT_TOL",
    "DiscretePath",
    "Deflators",
    "Decomposition",
    "implied_deflators",
    "no_arbitrage_residuals",
    "telescoping_gaps",
    "partial_value",
    "decompose",
]

# bubble threshold, relative to P_0: a bubble at or below it carries the
# boundary flag; chosen well above accumulated rounding
EPS_BUBBLE = 1e-9

# default relative tolerance for the no-arbitrage recursion check
DEFAULT_TOL = 1e-9

def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """Sampled price/dividend path under the ex-dividend convention.

    ``prices`` holds P_0..P_T; ``dividends`` holds D_1..D_T (no dividend
    at t = 0).  A length-(T+1) dividends array with a leading zero is also
    accepted.  ``tail`` declares how the dividend yield behaves beyond the
    sampled horizon; operations that need it refuse to run when it is
    missing.  Paths compare and hash by identity: their arrays have no
    single truth value.  Building one forms ``_yields``, D_t / P_t for t >= 1.
    """

    prices: np.ndarray
    dividends: np.ndarray
    tail: TailModel | None = None

    def __post_init__(self):
        prices = _frozen_array(self.prices, "prices")
        if prices.size < 2:
            raise ValidationError("path needs at least two price samples (T_max >= 1)")
        dividends = np.asarray(self.dividends, dtype=np.float64)
        if dividends.ndim != 1:
            raise ValidationError("dividends must be one-dimensional")
        if dividends.size == prices.size - 1:
            dividends = np.concatenate(([0.0], dividends))
        elif dividends.size == prices.size:
            if dividends[0] != 0.0:
                raise ValidationError("no dividend at t = 0 (ex-dividend convention)")
            dividends = dividends.copy()
        else:
            raise ValidationError(
                f"dividends length {dividends.size} does not match "
                f"{prices.size} price samples (expect T_max or T_max + 1 entries)"
            )
        # one reduction per bound, which NaN fails; the rule only after that
        low = prices.min()
        bounded = prices.max() < np.inf and dividends.max() < np.inf
        if not (low >= 0 and dividends.min() >= 0 and bounded):
            if not (np.isfinite(prices).all() and np.isfinite(dividends).all()):
                raise ValidationError("prices and dividends must be finite")
            raise ValidationError(
                "negative price" if (prices < 0).any() else "negative dividend"
            )
        if low == 0 and (stalled := (prices[1:] == 0) & (dividends[1:] == 0)).any():
            t = int(np.argmax(stalled)) + 1
            raise ValidationError(
                f"P_t + D_t must be positive for t >= 1 (violated at t = {t})"
            )
        # +inf past the double range, and +-inf at a zero price
        with np.errstate(divide="ignore", over="ignore"):
            yields = dividends[1:] / prices[1:]
        dividends.setflags(write=False)
        yields.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dividends", dividends)
        object.__setattr__(self, "_yields", yields)

    @property
    def horizon(self) -> int:
        """T_max: the last sampled date."""
        return self.prices.size - 1

    def with_tail(self, tail: TailModel | None) -> DiscretePath:
        """Copy of this path with a different (or cleared) declared tail.

        The copy shares this path's read-only arrays and yields, which were
        validated when it was built, and is not checked again.
        """
        path = object.__new__(type(self))
        path.__dict__.update(self.__dict__, tail=tail)
        return path


@dataclass(frozen=True, eq=False)
class Deflators:
    """Implied state prices in the log domain, normalized to q_0 = 1.

    ``log_q[t]`` may be -inf when an interior zero price drives every
    later state price to zero; it is never NaN or +inf for a valid path.
    Instances compare and hash by identity.
    """

    log_q: np.ndarray

    def __post_init__(self):
        log_q = _frozen_array(self.log_q, "log_q")
        if log_q.size < 2:
            raise ValidationError("need deflators for at least t = 0, 1")
        if log_q[0] != 0.0:
            raise ValidationError("deflators must be normalized to q_0 = 1")
        if not log_q.max() < np.inf:  # NaN too
            raise ValidationError("log deflators must not be NaN or +inf")
        object.__setattr__(self, "log_q", log_q)

    @property
    def horizon(self) -> int:
        return self.log_q.size - 1


@dataclass(frozen=True)
class Decomposition:
    """price = fundamental + bubble, with verdict and diagnostics."""

    price: float
    fundamental: float
    bubble: float
    verdict: Classification
    diagnostics: Mapping[str, Any]


def _check_same_horizon(path: DiscretePath, deflators: Deflators) -> None:
    if path.horizon != deflators.horizon:
        raise ValidationError(
            f"path horizon {path.horizon} != deflator horizon {deflators.horizon}"
        )


def _log_yield_sum(path: DiscretePath) -> np.ndarray:
    """L_t = sum_{s=1..t} log1p(D_s / P_s) for t = 0..T_max, with L_0 = 0.

    From an interior zero price on, L is +inf: that date's dividend takes
    all remaining value, so every later deflated price is exactly zero.
    Called, as every step of the pass, with floating-point errors ignored.
    """
    if path.prices[0] == 0.0:
        raise ValidationError("P_0 = 0: log deflators are undefined")
    # a price of -0.0 makes D / P = -inf, whose log1p is NaN until replaced
    steps = np.log1p(path._yields)
    # D / P past the double range, or P = 0: log1p(D / P) = log D - log P
    if not steps.max() < np.inf:
        far = np.isinf(path._yields)
        steps[far] = np.log(path.dividends[1:][far]) - np.log(path.prices[1:][far])
    log_yield = np.empty(steps.size + 1)
    log_yield[0] = 0.0
    _prefix_sums(steps, out=log_yield[1:])
    return log_yield


def _log_deflators(
    path: DiscretePath, log_yield: np.ndarray, low: float, high: float
) -> np.ndarray:
    """log q_t = log(P_0 / P_t) - L_t, or log(P_0 / D_t) - L_{t-1} where
    P_t = 0 (that date's dividend is then worth q_{t-1} P_{t-1}).

    Price ratios keep 2^k scaling of the path bit-exact.  A ratio outside
    the normal double range is taken apart in logs instead, and L below a
    log deflator's resolution (eps), which moves no q_t, is rounded away:
    a scaled subnormal dividend is inexact.  ``low`` and ``high`` are the
    least and the largest price.
    """
    prices, cum = path.prices, log_yield
    price0 = prices[0]
    if low == 0.0:
        zero = prices == 0.0
        prices = np.where(zero, path.dividends, prices)
        cum = np.where(zero, np.concatenate(([0.0], log_yield[:-1])), log_yield)
    # rounding is monotone: P_0 / P_t runs from P_0 / high to P_0 / low
    log_q = _log_ratio(
        price0, prices, low > 0.0 and price0 / high >= _TINY and price0 / low < np.inf
    )
    cum = cum + 1.0
    cum -= 1.0
    log_q -= cum
    return log_q


def _residuals(
    path: DiscretePath, log_q: np.ndarray, low: float, high: float
) -> np.ndarray:
    """The no-arbitrage residuals of :func:`no_arbitrage_residuals`, NaN
    where both sides are zero (see :func:`_without_nan`)."""
    prices, dividends = path.prices, path.dividends
    gross = prices[1:] + dividends[1:]
    top = gross.max()
    # P_{t+1} <= P_{t+1} + D_{t+1} <= top and low <= P_t <= high, and
    # rounding is monotone: the ratio runs between low / high and top / low
    log_gross = _log_ratio(gross, prices[:-1], low / high >= _TINY and top / low < np.inf)
    if not top < np.inf:  # P + D past the double range
        far = np.flatnonzero(np.isinf(gross))
        p, d, base = prices[1:][far], dividends[1:][far], prices[:-1][far]
        # halving is exact for P_t >= 2 * _TINY; the ratio of a smaller
        # P_t is far past the double range, and comes from logs
        log_gross[far] = np.where(
            base >= 2 * _TINY,
            _log_ratio(0.5 * p + 0.5 * d, 0.5 * base),
            np.logaddexp(np.log(p), np.log(d)) - np.log(base),
        )
    # a gap past the double range is an infinite residual
    residuals = log_q[1:] - log_q[:-1]
    residuals += log_gross
    np.expm1(residuals, out=residuals)
    return np.abs(residuals, out=residuals)


def _without_nan(residuals: np.ndarray) -> np.ndarray:
    # NaN (-inf + inf, or log 0 - log 0) comes only where q_t P_t and
    # q_{t+1} (P_{t+1}+D_{t+1}) are both exactly zero: no violation
    residuals[np.isnan(residuals)] = 0.0
    return residuals


class _Pass(NamedTuple):
    log_yield: np.ndarray  # L_0..L_T
    log_q: np.ndarray  # log q_0..log q_T
    residual: float  # the largest no-arbitrage residual of those deflators
    low: float  # the least price
    high: float  # the largest price


def _discrete_pass(path: DiscretePath) -> _Pass:
    """L, the implied log deflators and their largest no-arbitrage residual:
    the one pass over a path that :func:`decompose` and
    :func:`telescoping_gaps` read, called with floating-point errors
    ignored.  Each repair (an interior zero price, a yield or ``P + D``
    past the double range, a NaN residual) runs only where one reduction
    finds its case; the least and the largest price bound every price
    ratio, so the ratios need no reduction of their own."""
    log_yield = _log_yield_sum(path)
    low, high = path.prices.min(), path.prices.max()
    log_q = _log_deflators(path, log_yield, low, high)
    residuals = _residuals(path, log_q, low, high)
    residual = residuals.max()
    if math.isnan(residual):
        residual = _without_nan(residuals).max()
    return _Pass(log_yield, log_q, float(residual), low, high)


def implied_deflators(path: DiscretePath) -> Deflators:
    """Deflators of q_{t+1} = q_t P_t / (P_{t+1} + D_{t+1}), q_0 = 1, in logs.

    An interior zero price sends every later log q to -inf (those dates
    are worth nothing at date 0): exact zero contributions downstream.
    """
    with np.errstate(all="ignore"):
        log_yield = _log_yield_sum(path)
        low, high = path.prices.min(), path.prices.max()
        return Deflators(_log_deflators(path, log_yield, low, high))


def no_arbitrage_residuals(path: DiscretePath, deflators: Deflators) -> np.ndarray:
    """Per-step relative residuals of the no-arbitrage recursion.

    residual[t] = |q_{t+1}(P_{t+1}+D_{t+1}) - q_t P_t| / (q_t P_t),
    computed in the log domain so it stays meaningful where linear-domain
    deflators underflow: log(q_{t+1} / q_t) plus the log of the price
    ratio (P_{t+1}+D_{t+1}) / P_t, taken as in :func:`_log_deflators`, so
    that a 2^k scaling of the path leaves it bit-exact.  Where P + D is
    past the double range, the ratio is that of the halves.
    """
    _check_same_horizon(path, deflators)
    prices = path.prices
    with np.errstate(all="ignore"):
        residuals = _residuals(path, deflators.log_q, prices.min(), prices.max())
        return _without_nan(residuals) if math.isnan(residuals.max()) else residuals


def telescoping_gaps(path: DiscretePath) -> tuple[float, float]:
    """The telescoping present-value identity of a path, checked: the
    largest ``|1 - sum_{s<=t} q_s D_s / P_0 - q_t P_t / P_0|`` over
    t = 1..T_max, and the largest no-arbitrage residual of the implied
    deflators.  Both are 0 in exact arithmetic.

    ``q_t D_t / P_0`` and ``q_t P_t / P_0`` come from the ratios
    ``D_t / P_0`` and ``P_t / P_0``, so a path scaled by a power of two
    (subnormal values included) gives bit-identical gaps.  The deflators
    and residuals are those of :func:`decompose`'s pass.
    """
    price0 = path.prices[0]
    with np.errstate(all="ignore"):
        pass_ = _discrete_pass(path)
        log_q = pass_.log_q[1:]
        terms = _log_ratio(path.dividends[1:], price0)
        terms += log_q
        # P_t / P_0 runs from low / P_0 to high / P_0
        deflated = _log_ratio(
            path.prices[1:],
            price0,
            pass_.low / price0 >= _TINY and pass_.high / price0 < np.inf,
        )
        deflated += log_q
        gaps = _prefix_sums(np.exp(terms, out=terms))
        np.subtract(1.0, gaps, out=gaps)
        gaps -= np.exp(deflated, out=deflated)
        return float(np.abs(gaps, out=gaps).max()), pass_.residual


def partial_value(path: DiscretePath, deflators: Deflators, T: int) -> float:
    """Present value of the first T dividends: sum_{t=1..T} q_t D_t.

    Terms are formed as exp(log q_t + log D_t) (immune to intermediate
    overflow, exact zeros for zero dividends) and combined with
    compensated summation.
    """
    _check_same_horizon(path, deflators)
    if not 1 <= T <= path.horizon:
        raise ValidationError(f"T = {T} outside [1, {path.horizon}]")
    with np.errstate(divide="ignore"):
        log_terms = deflators.log_q[1 : T + 1] + np.log(path.dividends[1 : T + 1])
    return math.fsum(np.exp(log_terms))


class _Split(NamedTuple):
    fundamental: float
    bubble: float
    log_bubble: float | None
    verdict: Classification
    boundary: bool


def _split(path: DiscretePath, log_yield: np.ndarray) -> _Split:
    """Price split and verdict from L and the declared tail.

    The bubble is P_0 exp(-L_T - S), S the tail's log-yield sum from
    T + 1, less a declared tail present value: a bubble on a strictly
    positive path, flagged ``boundary`` at or below EPS_BUBBLE * P_0.
    L_T + S = +inf, from a divergent tail (S = +inf) or an interior zero
    price, exhausts the value: no bubble, with ``boundary`` flagging a
    declared tail value absorbed within the threshold.
    """
    tail = path.tail
    if tail is None:
        raise ValidationError(
            "path has no declared tail model; declare one before valuation"
        )
    classify_tail(tail)  # refuses an object that is no tail model
    price0 = float(path.prices[0])
    log_sum = float(log_yield[-1]) + tail.log_sum(path.horizon + 1)
    declared = tail.present_value
    tail_sum = 0.0 if declared is None else declared
    fundamental = price0 * -math.expm1(-log_sum) + tail_sum
    bubble = price0 * math.exp(-log_sum) - tail_sum
    threshold = EPS_BUBBLE * price0
    positive = math.isfinite(log_sum)  # not after a divergent tail or a zero price
    if bubble < -threshold or (
        positive and declared is not None and bubble <= threshold
    ):
        raise ValidationError(
            f"declared tail present value leaves a bubble of {bubble!r}: "
            "negative, or not above EPS_BUBBLE * P_0 where a convergent yield "
            "sum leaves a positive one; the declaration is inconsistent"
        )
    if not positive:
        return _Split(fundamental, 0.0, None, Classification.NO_BUBBLE, bubble != 0.0)
    log_bubble = math.log(price0) - log_sum if tail_sum == 0.0 else math.log(bubble)
    return _Split(
        fundamental, bubble, log_bubble, Classification.BUBBLE, bubble <= threshold
    )


def decompose(path: DiscretePath) -> Decomposition:
    """Full decomposition with verdict and diagnostics, all from one L.

    Present values at T/4, T/2, T are P_0 (1 - exp(-L_T)); ``log_bubble``
    is log B_0, finite for a bubble even where B_0 underflows, and None
    otherwise; ``boundary`` flags a bubble at or below EPS_BUBBLE * P_0.
    The verdict rule and the rejected declarations are those of the split
    (see the module docstring); ``classifier`` reports the yield criterion.
    """
    with np.errstate(all="ignore"):
        pass_ = _discrete_pass(path)
    log_yield = pass_.log_yield
    split = _split(path, log_yield)
    price0 = float(path.prices[0])
    h = path.horizon
    partials = tuple(
        (T, price0 * -math.expm1(-float(log_yield[T])))
        for T in sorted({max(1, h // 4), max(1, h // 2), h})
    )
    classifier = montrucchio_discrete(path) if pass_.low > 0 else None
    diagnostics: dict[str, Any] = {
        "partial_values": partials,
        "tail_contribution": split.fundamental - partials[-1][1],
        "deflated_terminal_price": price0 * math.exp(-float(log_yield[-1])),
        "log_bubble": split.log_bubble,
        "no_arbitrage_residual_max": pass_.residual,
        "boundary": split.boundary,
        "classifier": None
        if classifier is None
        else {
            "classification": classifier.classification.value,
            "tail_class": classifier.tail_class.value,
            "partial_sum": classifier.partial_sum,
            "rationale": classifier.rationale,
        },
    }
    return Decomposition(price0, split.fundamental, split.bubble, split.verdict, diagnostics)
