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
from dataclasses import dataclass

import numpy as np

from .characterization import Verdict, _declared_verdict, _require_positive
from .errors import ValidationError
from .numerics import compensated_cumsum, compensated_sum
from .series import DiscretePath
from .tails import TailModel

__all__ = [
    "CumulativeDividend",
    "ContinuousPath",
    "deflated_price_profile",
    "montrucchio_continuous",
    "discretize",
]

_GRID_RTOL = 1e-9
_MAX_INTEGRAL = float(np.finfo(np.float64).max) / 2


@dataclass(frozen=True, eq=False)
class CumulativeDividend:
    """Dividend measure: density samples plus discrete jumps.

    ``density`` is the absolutely continuous part d(t) sampled at the
    path's grid points; ``jumps`` is a sequence of (time, size) pairs with
    strictly increasing positive times.  The implied cumulative payout is
    weakly increasing and right-continuous by construction.  Instances
    compare and hash by identity.
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


@dataclass(frozen=True, eq=False)
class ContinuousPath:
    """Strictly positive price samples plus a dividend measure on one grid.

    ``interpreted_component`` is optional reporting metadata (a price
    component some model labels a bubble); it plays no role in analysis.
    Instances compare and hash by identity.
    """

    grid_step: float
    prices: np.ndarray
    dividends: CumulativeDividend
    tail: TailModel | None = None
    interpreted_component: float | None = None

    def __post_init__(self):
        if not (self.grid_step > 0 and math.isfinite(self.grid_step)):
            raise ValidationError("grid_step must be positive and finite")
        if self.interpreted_component is not None and not math.isfinite(
            self.interpreted_component
        ):
            raise ValidationError("interpreted_component must be finite")
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size < 2:
            raise ValidationError("need at least two price samples")
        if not np.all(np.isfinite(prices)):
            raise ValidationError("prices must be finite")
        _require_positive(prices)
        if self.dividends.density.size != prices.size:
            raise ValidationError(
                f"density has {self.dividends.density.size} samples but the "
                f"price grid has {prices.size}"
            )
        horizon = (prices.size - 1) * self.grid_step
        if horizon == math.inf:
            raise ValidationError(
                f"{prices.size - 1} grid steps of {self.grid_step!r} pass the "
                "double range"
            )
        for t, _ in self.dividends.jumps:
            if t > horizon * (1 + _GRID_RTOL):
                raise ValidationError(f"jump at t = {t} lies beyond horizon {horizon}")
        prices = prices.copy()
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)

    @property
    def horizon(self) -> float:
        return (self.prices.size - 1) * self.grid_step


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


def _density_yields(cpath: ContinuousPath) -> np.ndarray:
    """d / P at every grid point (+inf where it overflows)."""
    with np.errstate(over="ignore"):
        return cpath.dividends.density / cpath.prices


def _cell_increments(cpath: ContinuousPath, values: np.ndarray) -> np.ndarray:
    """Per-cell trapezoid increments of sampled nonnegative ``values``.

    Raises ``ValidationError`` unless the increments and their total stay
    below half the largest double, so that every partial sum of them, and
    every half-cell ``0.5 * h * values[k]``, is finite.  A value that
    overflowed to inf is refused whatever the step: where ``0.5 * h``
    underflows to zero, its cell is ``0 * inf``, a NaN, which fails the
    check as an inf does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cells = 0.5 * cpath.grid_step * (values[:-1] + values[1:])
        total = np.sum(cells)
    if not total <= _MAX_INTEGRAL:
        raise ValidationError(
            "the dividend density is too large for the grid: its integral "
            "(or that of d/P) leaves the double range"
        )
    return cells


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


def deflated_price_profile(
    cpath: ContinuousPath, jump_price_side: str = "right"
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent evaluations of the deflated price q P at every
    grid point, as (lhs, rhs) arrays of log(q P / P_0) of length n + 1
    (0.0 at index 0 in both).  The logs stay finite where the deflated
    prices themselves underflow to zero.

    ``lhs`` solves -d(qP) = q dF step by step: dividends accrue
    trapezoidally within each cell and are priced cum/ex around it,
    q_{k+1} = q_k (P_k - h d_k / 2) / (P_{k+1} + h d_{k+1} / 2).
    ``rhs`` is the one-shot exponential form P_0 * exp(-integral of the
    density yield), whose log is minus that integral.  Jumps multiply both
    by the exact factor (1 - dF/P) from the first grid point at or after
    the jump.  Both are second-order in the grid step with different
    coefficients, so their gap is an O(h^2) discretization cross-check
    that vanishes under grid refinement.
    """
    h = cpath.grid_step
    half = _density_yields(cpath)
    cells = _cell_increments(cpath, half)
    half *= 0.5 * h  # the yields' own array, now the half-cell accruals
    if np.any(half[:-1] >= 1.0):
        raise ValidationError(
            "grid step too coarse: a single cell's accrued dividend "
            "exceeds the price at its start"
        )
    # log1p(-half[k]) - log1p(half[k + 1]), formed in place; each full-length
    # array is dropped once it has been read
    steps = np.negative(half[:-1])
    np.log1p(steps, out=steps)
    steps -= np.log1p(half[1:])
    del half
    log_lhs = np.concatenate(([0.0], compensated_cumsum(steps)))
    del steps
    log_rhs = np.concatenate(([0.0], -compensated_cumsum(cells)))
    del cells
    for t, log_factor in _jump_log_factors(cpath, jump_price_side):
        start = int(math.ceil(t / h - _GRID_RTOL))
        log_lhs[start:] += log_factor
        log_rhs[start:] += log_factor
    return log_lhs, log_rhs


def montrucchio_continuous(
    cpath: ContinuousPath, jump_price_side: str = "right"
) -> Verdict:
    """Classify bubble existence from the declared continuous yield tail.

    The Stieltjes integral of dF / P over the whole horizon is reported as
    evidence; as in discrete time, only the declared tail decides.  Its
    density part is the trapezoidal rule, whose cells, which are
    nonnegative, are totalled by one faithfully rounded
    ``compensated_sum``; each jump adds its size divided by the grid price
    sample at the jump time.  Raises ``ValidationError`` when the integral
    leaves the double range.
    """
    if cpath.tail is None:
        raise ValidationError("classification requires a declared tail model")
    cells = _cell_increments(cpath, _density_yields(cpath))
    # the cells total at most _MAX_INTEGRAL, so this sum is finite; as a
    # Python float, a jump term below that passes the double range makes
    # it inf, which the check below rejects, with no RuntimeWarning
    partial = float(compensated_sum(cells))
    for t, df in cpath.dividends.jumps:
        partial += df / _price_at_jump(cpath, t, jump_price_side)
    if not partial <= _MAX_INTEGRAL:
        raise ValidationError(
            "a dividend jump is too large for the price there: the dF / P sum "
            "leaves the double range"
        )
    return _declared_verdict(
        cpath.tail, "integral", partial, f"integral over [0, {cpath.horizon}] = {partial!r}"
    )


def discretize(cpath: ContinuousPath, step: float) -> DiscretePath:
    """Resample to a discrete path of per-interval dividends.

    ``step`` must be an integer multiple of the grid step.  Interval k
    collects the dividend measure over ((k-1) step, k step] (jumps
    included, right-closed) and prices are sampled at interval right
    endpoints.  The trapezoid cells of all intervals, which are
    nonnegative, are totalled by one ``compensated_sum`` over a (periods,
    cells per period) view, each interval faithfully rounded.  A trailing remainder shorter than
    ``step`` is dropped.  The declared tail is carried over, rescaled to
    per-period yields.
    """
    ratio = step / cpath.grid_step
    m = round(ratio) if math.isfinite(ratio) else 0  # inf and NaN are no multiple
    if m < 1 or abs(ratio - m) > _GRID_RTOL * max(1.0, ratio):
        raise ValidationError(
            f"step {step} is not a positive integer multiple of the grid "
            f"step {cpath.grid_step}"
        )
    n_cells = cpath.prices.size - 1
    periods = n_cells // m
    if periods < 1:
        raise ValidationError("step exceeds the sampled horizon")

    cells = _cell_increments(cpath, cpath.dividends.density)
    dividends = compensated_sum(cells[: periods * m].reshape(periods, m))
    for t, df in cpath.dividends.jumps:
        k = math.ceil(t / step - _GRID_RTOL)  # interval ((k-1) step, k step]
        if 1 <= k <= periods:
            dividends[k - 1] += df
    prices = cpath.prices[:: m][: periods + 1]
    tail = None if cpath.tail is None else cpath.tail.per_period(step)
    return DiscretePath(prices=prices, dividends=dividends, tail=tail)
