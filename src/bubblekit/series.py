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

All objects are immutable and all operations are pure functions; paths and
results can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .characterization import Classification, montrucchio_discrete
from .errors import (
    EmptyEnsembleError,
    HorizonMismatchError,
    OutOfRangeError,
    ValidationError,
    ZeroInitialPriceError,
)
from .numerics import compensated_cumsum
from .tails import (
    DeclaredConvergent,
    GeometricYield,
    PowerYield,
    TailClass,
    TailModel,
    classify_tail,
    geometric_tail_log_sum,
    power_tail_log_sum,
)

__all__ = [
    "EPS_BUBBLE",
    "DEFAULT_TOL",
    "DiscretePath",
    "Deflators",
    "Decomposition",
    "implied_deflators",
    "no_arbitrage_residuals",
    "check_no_arbitrage",
    "partial_value",
    "fundamental_value",
    "bubble_component",
    "tvc_holds",
    "decompose",
    "ensemble_decompose",
    "reroot",
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


@dataclass(frozen=True)
class DiscretePath:
    """Sampled price/dividend path under the ex-dividend convention.

    ``prices`` holds P_0..P_T; ``dividends`` holds D_1..D_T (no dividend
    at t = 0).  A length-(T+1) dividends array with a leading zero is also
    accepted.  ``tail`` declares how the dividend yield behaves beyond the
    sampled horizon; operations that need it refuse to run when it is
    missing.
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
        if not np.all(np.isfinite(prices)) or not np.all(np.isfinite(dividends)):
            raise ValidationError("prices and dividends must be finite")
        if np.any(prices < 0):
            raise ValidationError("negative price")
        if np.any(dividends < 0):
            raise ValidationError("negative dividend")
        stalled = (prices[1:] == 0) & (dividends[1:] == 0)
        if np.any(stalled):
            t = int(np.argmax(stalled)) + 1
            raise ValidationError(
                f"P_t + D_t must be positive for t >= 1 (violated at t = {t})"
            )
        dividends.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dividends", dividends)

    @property
    def horizon(self) -> int:
        """T_max: the last sampled date."""
        return self.prices.size - 1

    def with_tail(self, tail: TailModel | None) -> DiscretePath:
        """Copy of this path with a different (or cleared) declared tail."""
        return replace(self, tail=tail)


@dataclass(frozen=True)
class Deflators:
    """Implied state prices in the log domain, normalized to q_0 = 1.

    ``log_q[t]`` may be -inf when an interior zero price drives every
    later state price to zero; it is never NaN or +inf for a valid path.
    """

    log_q: np.ndarray

    def __post_init__(self):
        log_q = _frozen_array(self.log_q, "log_q")
        if log_q.size < 2:
            raise ValidationError("need deflators for at least t = 0, 1")
        if log_q[0] != 0.0:
            raise ValidationError("deflators must be normalized to q_0 = 1")
        if np.any(np.isnan(log_q)) or np.any(log_q == np.inf):
            raise ValidationError("log deflators must not be NaN or +inf")
        object.__setattr__(self, "log_q", log_q)

    @property
    def horizon(self) -> int:
        return self.log_q.size - 1

    @property
    def q(self) -> np.ndarray:
        """Linear-domain state prices (may underflow to 0 for display)."""
        return np.exp(self.log_q)


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
        raise HorizonMismatchError(
            f"path horizon {path.horizon} != deflator horizon {deflators.horizon}"
        )


def _log_yield_sum(path: DiscretePath) -> np.ndarray:
    """L_t = sum_{s=1..t} log1p(D_s / P_s) for t = 0..T_max, with L_0 = 0.

    From an interior zero price on, L is +inf: that date's dividend takes
    all remaining value, so every later deflated price is exactly zero.
    """
    if path.prices[0] == 0.0:
        raise ZeroInitialPriceError("P_0 = 0: log deflators are undefined")
    prices, dividends = path.prices[1:], path.dividends[1:]
    with np.errstate(divide="ignore", over="ignore"):
        yields = dividends / prices
        steps = np.log1p(yields)
        # D / P past the double range, or P = 0: log1p(D / P) = log D - log P
        far = np.isinf(yields)
        steps[far] = np.log(dividends[far]) - np.log(prices[far])
    return np.concatenate(([0.0], compensated_cumsum(steps)))


def _deflators(path: DiscretePath, log_yield: np.ndarray) -> Deflators:
    """log q_t = log(P_0 / P_t) - L_t, or log(P_0 / D_t) - L_{t-1} where
    P_t = 0 (that date's dividend is then worth q_{t-1} P_{t-1}).

    Price ratios keep 2^k scaling of the path bit-exact.  A ratio outside
    the normal double range is taken apart in logs instead, and L below a
    log deflator's resolution (eps), which moves no q_t, is rounded away:
    a scaled subnormal dividend is inexact.
    """
    prices = path.prices
    zero = prices == 0.0
    denom = np.where(zero, path.dividends, prices)
    with np.errstate(over="ignore", under="ignore"):
        ratios = prices[0] / denom
    far = (ratios < np.finfo(np.float64).tiny) | np.isinf(ratios)
    log_q = np.log(np.where(far, 1.0, ratios))
    log_q[far] = math.log(prices[0]) - np.log(denom[far])
    cum = np.where(zero, np.concatenate(([0.0], log_yield[:-1])), log_yield)
    return Deflators(log_q - ((cum + 1.0) - 1.0))


def implied_deflators(path: DiscretePath) -> Deflators:
    """Deflators of q_{t+1} = q_t P_t / (P_{t+1} + D_{t+1}), q_0 = 1, in logs.

    An interior zero price sends every later log q to -inf (those dates
    are worth nothing at date 0): exact zero contributions downstream.
    """
    return _deflators(path, _log_yield_sum(path))


def no_arbitrage_residuals(path: DiscretePath, deflators: Deflators) -> np.ndarray:
    """Per-step relative residuals of the no-arbitrage recursion.

    residual[t] = |q_{t+1}(P_{t+1}+D_{t+1}) - q_t P_t| / (q_t P_t),
    computed scale-free in the log domain so it stays meaningful where
    linear-domain deflators underflow.
    """
    _check_same_horizon(path, deflators)
    prices, dividends = path.prices, path.dividends
    with np.errstate(divide="ignore", over="ignore"):
        lhs = deflators.log_q[:-1] + np.log(prices[:-1])
        log_cum = np.log(prices[1:] + dividends[1:])
        # P + D past the double range
        far = np.isinf(log_cum)
        log_cum[far] = np.logaddexp(np.log(prices[1:][far]), np.log(dividends[1:][far]))
    rhs = deflators.log_q[1:] + log_cum
    # -inf on both sides means both values are exactly zero: no violation
    both_zero = np.isneginf(lhs) & np.isneginf(rhs)
    with np.errstate(invalid="ignore"):
        delta = rhs - lhs
        residuals = np.abs(np.expm1(delta))
    residuals[both_zero] = 0.0
    return residuals


def check_no_arbitrage(
    path: DiscretePath, deflators: Deflators, tol: float = DEFAULT_TOL
) -> bool:
    """True iff the recursion holds at every step within relative ``tol``."""
    return bool(np.all(no_arbitrage_residuals(path, deflators) <= tol))


def partial_value(path: DiscretePath, deflators: Deflators, T: int) -> float:
    """Present value of the first T dividends: sum_{t=1..T} q_t D_t.

    Terms are formed as exp(log q_t + log D_t) (immune to intermediate
    overflow, exact zeros for zero dividends) and combined with
    compensated summation.
    """
    _check_same_horizon(path, deflators)
    if not 1 <= T <= path.horizon:
        raise OutOfRangeError(f"T = {T} outside [1, {path.horizon}]")
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

    A divergent tail certifies a zero bubble.  A convergent one leaves
    P_0 exp(-L_T - S), S the analytic log-yield sum of a geometric or
    power tail (0 when no dividends follow the horizon), less a declared
    tail present value: a bubble on a strictly positive path, flagged
    ``boundary`` at or below EPS_BUBBLE * P_0.  An interior zero price
    (L_T = +inf) exhausts the value: no bubble, with ``boundary`` flagging
    a declared tail value absorbed within the threshold.
    """
    tail = path.tail
    if tail is None:
        raise ValidationError(
            "path has no declared tail model; declare one before valuation"
        )
    price0 = float(path.prices[0])
    if classify_tail(tail) is TailClass.DIVERGENT:
        return _Split(price0, 0.0, None, Classification.NO_BUBBLE, False)
    log_sum = float(log_yield[-1])
    if isinstance(tail, GeometricYield):
        log_sum += geometric_tail_log_sum(tail.coeff, tail.ratio, path.horizon + 1)
    elif isinstance(tail, PowerYield):
        log_sum += power_tail_log_sum(tail.coeff, tail.exponent, path.horizon + 1)
    tail_sum = tail.tail_sum if isinstance(tail, DeclaredConvergent) else 0.0
    fundamental = price0 * -math.expm1(-log_sum) + tail_sum
    bubble = price0 * math.exp(-log_sum) - tail_sum
    threshold = EPS_BUBBLE * price0
    positive = math.isfinite(log_sum)  # L_T = +inf after an interior zero price
    if bubble < -threshold or (
        positive and isinstance(tail, DeclaredConvergent) and bubble <= threshold
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


def _valuation(path: DiscretePath, deflators: Deflators) -> _Split:
    _check_same_horizon(path, deflators)
    return _split(path, _log_yield_sum(path))


def fundamental_value(path: DiscretePath, deflators: Deflators) -> float:
    """Present value of all dividends: sampled part plus declared tail.

    Divergent-yield tails certify a zero bubble, so the fundamental is
    P_0 exactly.  Under a convergent tail it is P_0 less the deflated-price
    limit, plus a declared-convergent tail's present value.  ``deflators``
    must be the path's own; every value comes from the path's log-yield
    sum.
    """
    return _valuation(path, deflators).fundamental


def bubble_component(path: DiscretePath, deflators: Deflators) -> float:
    """Bubble B_0 = lim q_T P_T: P_0 exp(-L_T - S) under a convergent tail."""
    return _valuation(path, deflators).bubble


def tvc_holds(path: DiscretePath, deflators: Deflators) -> bool:
    """Transversality condition: the deflated price limit vanishes.

    True exactly when the verdict is no-bubble.  With strictly positive
    prices a convergent tail leaves a positive limit, however small.
    """
    return _valuation(path, deflators).verdict is Classification.NO_BUBBLE


def decompose(path: DiscretePath) -> Decomposition:
    """Full decomposition with verdict and diagnostics, all from one L.

    Present values at T/4, T/2, T are P_0 (1 - exp(-L_T)); ``log_bubble``
    is log B_0, finite for a bubble even where B_0 underflows, and None
    otherwise; ``boundary`` flags a bubble at or below EPS_BUBBLE * P_0.
    The verdict rule and the rejected declarations are those of the split
    (see the module docstring); ``classifier`` reports the yield criterion.
    """
    log_yield = _log_yield_sum(path)
    split = _split(path, log_yield)
    price0 = float(path.prices[0])
    h = path.horizon
    partials = tuple(
        (T, price0 * -math.expm1(-float(log_yield[T])))
        for T in sorted({max(1, h // 4), max(1, h // 2), h})
    )
    classifier = montrucchio_discrete(path) if np.all(path.prices > 0) else None
    residuals = no_arbitrage_residuals(path, _deflators(path, log_yield))
    diagnostics: dict[str, Any] = {
        "partial_values": partials,
        "tail_contribution": split.fundamental - partials[-1][1],
        "deflated_terminal_price": price0 * math.exp(-float(log_yield[-1])),
        "log_bubble": split.log_bubble,
        "no_arbitrage_residual_max": float(np.max(residuals)),
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


def ensemble_decompose(decompositions: Sequence[Decomposition]) -> Decomposition:
    """Aggregate decompositions across assets (e.g. firms) by summation.

    The aggregate bubble is the sum of member bubbles, so it is zero
    exactly when every member bubble is zero; the verdict threshold is
    EPS_BUBBLE relative to the aggregate price.
    """
    if not decompositions:
        raise EmptyEnsembleError("cannot aggregate an empty ensemble")
    price = math.fsum(d.price for d in decompositions)
    fundamental = math.fsum(d.fundamental for d in decompositions)
    bubble = math.fsum(d.bubble for d in decompositions)
    threshold = EPS_BUBBLE * price
    verdict = (
        Classification.BUBBLE if bubble > threshold else Classification.NO_BUBBLE
    )
    diagnostics: dict[str, Any] = {
        "members": len(decompositions),
        "boundary": bubble != 0.0 and abs(bubble) <= threshold,
        "member_bubble_max": max(d.bubble for d in decompositions),
    }
    return Decomposition(price, fundamental, bubble, verdict, diagnostics)


def reroot(path: DiscretePath, t: int) -> DiscretePath:
    """Path re-rooted at date t, for decompositions at later dates.

    Prices and dividends from t onward are kept (the date-t dividend is
    dropped: it is the new ex-dividend date 0) and deflation restarts at
    q_t = 1, so decompose(reroot(path, t)) is the date-t decomposition.
    """
    if not 0 <= t < path.horizon:
        raise OutOfRangeError(f"re-root date {t} outside [0, {path.horizon - 1}]")
    return DiscretePath(
        prices=path.prices[t:],
        dividends=path.dividends[t + 1 :],
        tail=path.tail,
    )
