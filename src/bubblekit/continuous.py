"""Continuous-time counterpart: dividend measures and the deflated price.

A cumulative dividend process is carried as an absolutely continuous
density sampled on a uniform grid plus a list of discrete jumps; the two
parts are never mixed (jumps are handled exactly, not smeared into the
density).  The deflated price q(t) * P(t) satisfies

    -d(qP) = q dF,

which this module solves on the grid in the log domain, and the running
Stieltjes integral of dF / P drives the same yield-criterion
classification as in discrete time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characterization import Classification, Verdict
from .errors import (
    NonPositivePriceError,
    OutOfRangeError,
    StepMismatchError,
    ValidationError,
)
from .numerics import compensated_cumsum
from .series import DiscretePath
from .tails import (
    ConstantLevels,
    ConstantYield,
    GeometricYield,
    PowerYield,
    TailClass,
    TailModel,
    classify_tail,
)

__all__ = [
    "CumulativeDividend",
    "ContinuousPath",
    "integrate_dF_over_P",
    "deflated_price_identity",
    "deflated_price_profile",
    "montrucchio_continuous",
    "discretize",
]

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class CumulativeDividend:
    """Dividend measure: density samples plus discrete jumps.

    ``density`` is the absolutely continuous part d(t) sampled at the
    path's grid points; ``jumps`` is a sequence of (time, size) pairs with
    strictly increasing positive times.  The implied cumulative payout is
    weakly increasing and right-continuous by construction.
    """

    density: np.ndarray
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        density = np.asarray(self.density, dtype=np.float64)
        if density.ndim != 1 or density.size < 2:
            raise ValidationError("density needs at least two grid samples")
        if not np.all(np.isfinite(density)) or np.any(density < 0):
            raise ValidationError("density must be finite and nonnegative")
        density = density.copy()
        density.setflags(write=False)
        jumps = tuple((float(t), float(df)) for t, df in self.jumps)
        previous = 0.0
        for t, df in jumps:
            if t <= previous:
                raise ValidationError(
                    "jump times must be strictly increasing and positive "
                    "(no jump at t = 0: ex-dividend convention)"
                )
            if df < 0 or not math.isfinite(df) or not math.isfinite(t):
                raise ValidationError("jump sizes must be finite and nonnegative")
            previous = t
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "jumps", jumps)


@dataclass(frozen=True)
class ContinuousPath:
    """Strictly positive price samples plus a dividend measure on one grid.

    ``interpreted_component`` is optional reporting metadata (a price
    component some model labels a bubble); it plays no role in analysis.
    """

    grid_step: float
    prices: np.ndarray
    dividends: CumulativeDividend
    tail: TailModel | None = None
    interpreted_component: float | None = None

    def __post_init__(self):
        if not (self.grid_step > 0 and math.isfinite(self.grid_step)):
            raise ValidationError("grid_step must be positive and finite")
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size < 2:
            raise ValidationError("need at least two price samples")
        if not np.all(np.isfinite(prices)):
            raise ValidationError("prices must be finite")
        if np.any(prices <= 0):
            raise NonPositivePriceError(int(np.nonzero(prices <= 0)[0][0]))
        if self.dividends.density.size != prices.size:
            raise ValidationError(
                f"density has {self.dividends.density.size} samples but the "
                f"price grid has {prices.size}"
            )
        horizon = (prices.size - 1) * self.grid_step
        for t, _ in self.dividends.jumps:
            if t > horizon * (1 + _GRID_RTOL):
                raise ValidationError(f"jump at t = {t} lies beyond horizon {horizon}")
        prices = prices.copy()
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)

    @property
    def horizon(self) -> float:
        return (self.prices.size - 1) * self.grid_step


def _nearest_index(cpath: ContinuousPath, time: float) -> int:
    k = int(round(time / cpath.grid_step))
    return min(max(k, 0), cpath.prices.size - 1)


def _price_at_jump(cpath: ContinuousPath, t: float, side: str) -> float:
    """Grid sample used for P at a jump time (right limit by default)."""
    pos = t / cpath.grid_step
    nearest = round(pos)
    if abs(pos - nearest) <= _GRID_RTOL * max(1.0, abs(pos)):
        idx = int(nearest)
    elif side == "right":
        idx = int(math.ceil(pos))
    elif side == "left":
        idx = int(math.floor(pos))
    else:
        raise ValidationError(f"jump_price_side must be 'right' or 'left', got {side!r}")
    idx = min(max(idx, 0), cpath.prices.size - 1)
    return float(cpath.prices[idx])


def _cell_increments(cpath: ContinuousPath, values: np.ndarray) -> np.ndarray:
    """Per-cell trapezoid increments of sampled ``values`` over the grid."""
    return 0.5 * cpath.grid_step * (values[:-1] + values[1:])


def integrate_dF_over_P(
    cpath: ContinuousPath, T: float, jump_price_side: str = "right"
) -> float:
    """Stieltjes integral of dF / P over [0, T].

    The density part uses the trapezoidal rule (with a linearly
    interpolated partial cell when T is off-grid); each jump contributes
    its size divided by the grid price sample at the jump time.
    """
    horizon = cpath.horizon
    if not 0 < T <= horizon * (1 + _GRID_RTOL):
        raise OutOfRangeError(f"T = {T} outside (0, {horizon}]")
    h = cpath.grid_step
    yields = cpath.dividends.density / cpath.prices
    cells = _cell_increments(cpath, yields)
    pos = T / h
    m = min(int(math.floor(pos + _GRID_RTOL)), cells.size)
    total = math.fsum(cells[:m])
    frac = pos - m
    if frac > _GRID_RTOL and m < yields.size - 1:
        edge = yields[m] + (yields[m + 1] - yields[m]) * frac
        total += 0.5 * frac * h * (yields[m] + edge)
    for t, df in cpath.dividends.jumps:
        if t <= T * (1 + _GRID_RTOL):
            total += df / _price_at_jump(cpath, t, jump_price_side)
    return float(total)


def _jump_log_factors(
    cpath: ContinuousPath, jump_price_side: str
) -> list[tuple[float, float]]:
    """(time, log(1 - dF/P)) per jump: the exact deflated-price drop."""
    factors = []
    for t, df in cpath.dividends.jumps:
        price = _price_at_jump(cpath, t, jump_price_side)
        ratio = df / price
        if ratio >= 1.0:
            raise ValidationError(
                f"jump of {df} at t = {t} is not smaller than the price "
                f"{price} there; the deflated price would hit zero"
            )
        factors.append((t, math.log1p(-ratio)))
    return factors


def deflated_price_identity(
    cpath: ContinuousPath, T: float, jump_price_side: str = "right"
) -> tuple[float, float]:
    """Two independent evaluations of the deflated price q_T * P_T.

    ``lhs`` solves -d(qP) = q dF step by step: dividends accrue
    trapezoidally within each cell and are priced cum/ex around it,
    q_{k+1} = q_k (P_k - h d_k / 2) / (P_{k+1} + h d_{k+1} / 2).
    ``rhs`` is the one-shot exponential form P_0 * exp(-integral of the
    density yield).  Jumps multiply both sides by the exact factor
    (1 - dF/P).  Both are second-order in the grid step with different
    coefficients, so their gap is an O(h^2) discretization cross-check
    that vanishes under grid refinement.

    T is evaluated at the nearest positive grid point.
    """
    horizon = cpath.horizon
    if not 0 < T <= horizon * (1 + _GRID_RTOL):
        raise OutOfRangeError(f"T = {T} outside (0, {horizon}]")
    h = cpath.grid_step
    k = max(1, _nearest_index(cpath, T))
    t_k = k * h

    yields = cpath.dividends.density / cpath.prices
    half = 0.5 * h * yields
    if np.any(half[:k] >= 1.0):
        raise ValidationError(
            "grid step too coarse: a single cell's accrued dividend "
            "exceeds the price at its start"
        )
    steps = np.log1p(-half[:k]) - np.log1p(half[1 : k + 1])
    log_lhs = math.fsum(steps)
    log_rhs = -math.fsum(_cell_increments(cpath, yields)[:k])
    for t, log_factor in _jump_log_factors(cpath, jump_price_side):
        if t <= t_k * (1 + _GRID_RTOL):
            log_lhs += log_factor
            log_rhs += log_factor
    price0 = float(cpath.prices[0])
    return (price0 * math.exp(log_lhs), price0 * math.exp(log_rhs))


def deflated_price_profile(
    cpath: ContinuousPath, jump_price_side: str = "right"
) -> tuple[np.ndarray, np.ndarray]:
    """Both deflated-price evaluations at every grid point.

    Returns (lhs, rhs) arrays of length n + 1 (index 0 holds P_0 twice);
    see :func:`deflated_price_identity` for what the two routes are.
    """
    h = cpath.grid_step
    yields = cpath.dividends.density / cpath.prices
    half = 0.5 * h * yields
    if np.any(half[:-1] >= 1.0):
        raise ValidationError(
            "grid step too coarse: a single cell's accrued dividend "
            "exceeds the price at its start"
        )
    steps = np.log1p(-half[:-1]) - np.log1p(half[1:])
    log_lhs = np.concatenate(([0.0], compensated_cumsum(steps)))
    log_rhs = np.concatenate(
        ([0.0], -compensated_cumsum(_cell_increments(cpath, yields)))
    )
    for t, log_factor in _jump_log_factors(cpath, jump_price_side):
        start = int(math.ceil(t / h - _GRID_RTOL))
        log_lhs[start:] += log_factor
        log_rhs[start:] += log_factor
    price0 = float(cpath.prices[0])
    return price0 * np.exp(log_lhs), price0 * np.exp(log_rhs)


def montrucchio_continuous(
    cpath: ContinuousPath, jump_price_side: str = "right"
) -> Verdict:
    """Classify bubble existence from the declared continuous yield tail.

    The finite-horizon integral of dF / P is reported as evidence; as in
    discrete time, only the declared tail decides.
    """
    if cpath.tail is None:
        raise ValidationError("classification requires a declared tail model")
    if np.any(cpath.prices <= 0):
        raise NonPositivePriceError(int(np.nonzero(cpath.prices <= 0)[0][0]))
    partial = integrate_dF_over_P(cpath, cpath.horizon, jump_price_side)
    tail_class = classify_tail(cpath.tail)
    if tail_class is TailClass.CONVERGENT:
        classification = Classification.BUBBLE
        reason = "declared tail makes the yield integral converge"
    else:
        classification = Classification.NO_BUBBLE
        reason = "declared tail makes the yield integral diverge"
    rationale = (
        f"{reason} (tail={cpath.tail!r}); integral over [0, {cpath.horizon}]"
        f" = {partial!r}"
    )
    return Verdict(classification, partial, tail_class, rationale)


def _rescale_tail(tail: TailModel, step: float) -> TailModel:
    """Reinterpret a continuous yield tail per sampling period of ``step``."""
    if isinstance(tail, ConstantLevels):
        return replace(tail, dividend=tail.dividend * step)
    if isinstance(tail, ConstantYield):
        return ConstantYield(tail.level * step)
    if isinstance(tail, GeometricYield):
        return GeometricYield(tail.coeff * step, tail.ratio**step)
    if isinstance(tail, PowerYield):
        return PowerYield(tail.coeff * step ** (1.0 - tail.exponent), tail.exponent)
    return tail


def discretize(cpath: ContinuousPath, step: float) -> DiscretePath:
    """Resample to a discrete path of per-interval dividends.

    ``step`` must be an integer multiple of the grid step.  Interval k
    collects the dividend measure over ((k-1) step, k step] (jumps
    included, right-closed) and prices are sampled at interval right
    endpoints.  A trailing remainder shorter than ``step`` is dropped.
    The declared tail is carried over, rescaled to per-period yields.
    """
    ratio = step / cpath.grid_step
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > _GRID_RTOL * max(1.0, ratio):
        raise StepMismatchError(
            f"step {step} is not a positive integer multiple of the grid "
            f"step {cpath.grid_step}"
        )
    n_cells = cpath.prices.size - 1
    periods = n_cells // m
    if periods < 1:
        raise OutOfRangeError("step exceeds the sampled horizon")

    cells = _cell_increments(cpath, cpath.dividends.density)
    dividends = np.array(
        [math.fsum(cells[k * m : (k + 1) * m]) for k in range(periods)]
    )
    for t, df in cpath.dividends.jumps:
        k = math.ceil(t / step - _GRID_RTOL)  # interval ((k-1) step, k step]
        if 1 <= k <= periods:
            dividends[k - 1] += df
    prices = cpath.prices[:: m][: periods + 1]
    tail = None if cpath.tail is None else _rescale_tail(cpath.tail, step)
    return DiscretePath(prices=prices, dividends=dividends, tail=tail)
