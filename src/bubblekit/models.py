"""Generators for canonical economies with known bubble verdicts.

Each generator returns a path whose declared tail matches its analytic
construction, so the full pipeline (deflators, decomposition,
classification) can be exercised against known answers:

* ``gen_money`` — a dividendless asset: any positive price is pure bubble.
* ``gen_constant`` — fixed price and positive dividend: price equals
  fundamental, no bubble.
* ``gen_gordon`` — geometric dividend growth at a fixed discount rate:
  constant yield, high price, still no bubble.
* ``gen_convergent_yield`` — geometrically vanishing dividends at unit
  price: the constructive bubble witness.
* ``gen_miao_wang`` — a continuous-time firm-value scenario whose price
  and dividend flow converge to positive constants; its "interpreted"
  bubble component never produces a rational bubble.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .continuous import ContinuousPath, CumulativeDividend
from .errors import ValidationError
from .series import DiscretePath
from .tails import ConstantLevels, ConstantYield, GeometricYield, ZeroDividends

__all__ = [
    "MAX_PERIODS",
    "MiaoWangScenario",
    "gen_money",
    "gen_constant",
    "gen_gordon",
    "gen_convergent_yield",
    "gen_miao_wang",
]

# The most periods of a discrete path, or grid steps of a continuous one, a
# generator makes: ten times the largest paths the project is sized for
# (10^6 periods or grid points).  The size is checked before any array is
# allocated, since an array too large to hold need not raise MemoryError:
# where the host overcommits memory, filling it gets the process killed.
MAX_PERIODS = 10_000_000

_LOG_MAX = math.log(sys.float_info.max)


def _check_periods(T_max: int) -> None:
    if not 1 <= T_max <= MAX_PERIODS:
        raise ValidationError(f"T_max must be in [1, {MAX_PERIODS}], got {T_max}")


def gen_money(P0: float, T_max: int) -> DiscretePath:
    """Pure-bubble asset: price P0 forever, no dividends ever."""
    if not P0 > 0:
        raise ValidationError("money needs a positive price")
    _check_periods(T_max)
    return DiscretePath(
        prices=np.full(T_max + 1, float(P0)),
        dividends=np.zeros(T_max),
        tail=ZeroDividends(),
    )


def gen_constant(P: float, D: float, T_max: int) -> DiscretePath:
    """Constant price and positive dividend; implied gross rate (P+D)/P."""
    if not (P > 0 and D > 0):
        raise ValidationError("constant path needs P > 0 and D > 0")
    _check_periods(T_max)
    return DiscretePath(
        prices=np.full(T_max + 1, float(P)),
        dividends=np.full(T_max, float(D)),
        tail=ConstantLevels(float(P), float(D)),
    )


def _zero_or_inf(values: np.ndarray) -> np.ndarray:
    """The indices of the entries of ``values`` that are 0 or inf."""
    if 0.0 < values.min() and values.max() < math.inf:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero((values == 0.0) | np.isinf(values))


def gen_gordon(D0: float, g: float, R: float, T_max: int) -> DiscretePath:
    """Growing dividends D_t = D0 g^t priced at gross discount rate R.

    P_t = D0 g^{t+1} / (R - g), so the dividend yield is the constant
    (R - g) / g however close g gets to R (a high price is not a bubble).
    """
    if not 0 < D0 < math.inf:
        raise ValidationError("gordon needs a finite D0 > 0")
    if not 1 < R < math.inf:
        raise ValidationError("gordon needs a finite gross discount rate R > 1")
    if not 0 < g < R:
        raise ValidationError("gordon needs growth 0 < g < R")
    _check_periods(T_max)
    # the largest price and dividend: at T_max when dividends grow, else
    # at t = 0 (price) and t = 1 (dividend)
    n = T_max if g > 1 else 0
    log_price = math.log(D0) + (n + 1) * math.log(g) - math.log(R - g)
    log_dividend = math.log(D0) + max(n, 1) * math.log(g)
    if max(log_price, log_dividend) > _LOG_MAX:
        raise ValidationError(
            f"gordon path overflows the double range: largest log P_t "
            f"{log_price:.6g}, largest log D_t {log_dividend:.6g}, limit {_LOG_MAX:.6g}"
        )
    t = np.arange(T_max + 1, dtype=np.float64)
    log_g = math.log(g)
    with np.errstate(over="ignore"):
        growth = g**t
        prices = D0 * g * growth
        dividends = D0 * growth[1:]
        # where g^t, D0 g or their product D0 g^(t+1) leaves the double
        # range, the entry is 0 or inf though its value may fit: it is formed
        # in logs instead, exp(log D0 + t log g ...).  A value within rounding
        # of the largest double still overflows, and DiscretePath refuses it.
        far_prices = _zero_or_inf(prices)
        far_dividends = _zero_or_inf(growth[1:])
        prices /= R - g
        log_first = math.log(D0) + log_g
        prices[far_prices] = np.exp(log_first - math.log(R - g) + far_prices * log_g)
        dividends[far_dividends] = np.exp(log_first + far_dividends * log_g)
    return DiscretePath(prices, dividends, tail=ConstantYield((R - g) / g))


def gen_convergent_yield(alpha: float, rho: float, T_max: int) -> DiscretePath:
    """Unit price with geometrically vanishing dividends alpha * rho^t.

    The yield sum converges, so a positive share of the price is bubble:
    B_0 is the infinite product of 1 / (1 + alpha rho^t).
    """
    if not 0 < alpha < math.inf:  # inf * rho^t is NaN where rho^t underflows
        raise ValidationError("convergent-yield needs a finite alpha > 0")
    if not 0 < rho < 1:
        raise ValidationError("convergent-yield needs rho in (0, 1)")
    _check_periods(T_max)
    t = np.arange(1, T_max + 1, dtype=np.float64)
    return DiscretePath(
        prices=np.ones(T_max + 1),
        dividends=alpha * rho**t,
        tail=GeometricYield(float(alpha), float(rho)),
    )


@dataclass(frozen=True)
class MiaoWangScenario:
    """Reduced-form firm-value scenario converging to a steady state.

    The steady-state stock price is ``marginal_q * capital +
    interpreted_component``; the last term is the piece the underlying
    model labels a bubble, carried here only so reports can contrast it
    with the rational bubble (which is zero whenever the steady-state
    dividend is positive).  The price and dividend flow approach their
    steady-state values exponentially at ``rate``; the transition shape
    is a modeling choice, as only the convergence itself matters for the
    verdict.  Defaults start both at half their steady-state levels.
    """

    marginal_q: float
    capital: float
    interpreted_component: float
    dividend: float
    rate: float = 1.0
    horizon: float = 100.0
    grid_step: float = 1e-3
    initial_price: float | None = None
    initial_dividend: float | None = None

    def __post_init__(self):
        if not all(v is None or math.isfinite(v) for v in astuple(self)):
            raise ValidationError("scenario parameters must be finite")
        if not (self.marginal_q > 0 and self.capital > 0):
            raise ValidationError("needs marginal_q > 0 and capital > 0")
        if self.interpreted_component < 0:
            raise ValidationError("interpreted_component must be >= 0")
        if not 0 < self.steady_price < math.inf:  # Q K may underflow or overflow
            raise ValidationError(
                "steady-state price marginal_q * capital + interpreted_component "
                f"must be positive and finite, got {self.steady_price!r}"
            )
        if not self.dividend > 0:
            raise ValidationError("steady-state dividend must be positive")
        if not (self.rate > 0 and self.horizon > 0 and self.grid_step > 0):
            raise ValidationError("rate, horizon and grid_step must be positive")
        if self.initial_price is not None and not self.initial_price > 0:
            raise ValidationError("initial_price must be positive")
        if self.initial_dividend is not None and self.initial_dividend < 0:
            raise ValidationError("initial_dividend must be >= 0")

    @property
    def steady_price(self) -> float:
        return self.marginal_q * self.capital + self.interpreted_component


def gen_miao_wang(scenario: MiaoWangScenario) -> ContinuousPath:
    """Continuous path converging to constant price and dividend flow.

    P(t) and d(t) relax exponentially to their steady-state values; the
    declared tail is the constant steady-state yield, which certifies
    no-bubble regardless of the interpreted component.
    """
    steady_price = scenario.steady_price
    p0 = scenario.initial_price
    d0 = scenario.initial_dividend
    p0 = steady_price / 2.0 if p0 is None else p0
    d0 = scenario.dividend / 2.0 if d0 is None else d0
    steps = scenario.horizon / scenario.grid_step
    if steps > MAX_PERIODS:
        raise ValidationError(
            f"horizon / grid_step is {steps:.6g} grid steps; at most {MAX_PERIODS}"
        )
    n = round(steps)
    if n < 1:
        raise ValidationError("horizon must cover at least one grid step")
    # t or rate t past the double range is inf: the relaxation has ended
    # there, exp(-inf) = 0
    with np.errstate(over="ignore"):
        t = np.arange(n + 1, dtype=np.float64) * scenario.grid_step
        relax = np.exp(-scenario.rate * t)
    prices = steady_price + (p0 - steady_price) * relax
    density = scenario.dividend + (d0 - scenario.dividend) * relax
    return ContinuousPath(
        grid_step=scenario.grid_step,
        prices=prices,
        dividends=CumulativeDividend(density=density),
        tail=ConstantYield(scenario.dividend / steady_price),
        interpreted_component=scenario.interpreted_component,
    )
