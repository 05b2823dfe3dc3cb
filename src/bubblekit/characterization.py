"""Bubble existence classification from the dividend-yield series.

For a strictly positive price path, a rational bubble exists exactly when
the infinite sum of dividend yields D_t / P_t converges.  A finite sample
can never decide that, so classification is driven entirely by the
declared tail model; the sampled partial sum is reported as a diagnostic
to help users sanity-check their declaration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import ValidationError
from .tails import (
    ConstantYield,
    GeometricYield,
    PowerYield,
    TailClass,
    TailModel,
    ZeroDividends,
    classify_tail,
)

if TYPE_CHECKING:
    from .series import DiscretePath

__all__ = [
    "Classification",
    "Verdict",
    "TailFit",
    "montrucchio_discrete",
    "suggest_tail",
]


class Classification(enum.Enum):
    """Verdict on the presence of a rational bubble."""

    BUBBLE = "bubble"
    NO_BUBBLE = "no-bubble"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome together with its evidence."""

    classification: Classification
    partial_sum: float | None
    tail_class: TailClass
    rationale: str


def _require_positive(prices: np.ndarray) -> None:
    """Refuse finite ``prices`` with a P_i <= 0, naming the first such i."""
    if not prices.min() > 0:
        index = int(np.flatnonzero(prices <= 0)[0])
        raise ValidationError(f"price must be strictly positive (P_{index} <= 0)")


def _yields(path: DiscretePath) -> np.ndarray:
    """The path's yields D_t / P_t for t = 1..T_max, +inf where they overflow.

    Refuses a path with a price P_t <= 0 (see :func:`_require_positive`).
    """
    _require_positive(path.prices)
    return path._yields


def _declared_verdict(
    tail: TailModel, measure: str, partial: float | None, evidence: str
) -> Verdict:
    """The verdict that ``tail`` decides: Bubble exactly when its class is
    convergent.  ``measure`` names what totals the yields ("sum" in
    discrete time, "integral" in continuous time), and ``evidence``, which
    describes the sampled ``partial`` total, ends the rationale."""
    tail_class = classify_tail(tail)
    if tail_class is TailClass.CONVERGENT:
        classification, outcome = Classification.BUBBLE, "converge"
    else:
        classification, outcome = Classification.NO_BUBBLE, "diverge"
    rationale = f"declared tail makes the yield {measure} {outcome} (tail={tail!r}); {evidence}"
    return Verdict(classification, partial, tail_class, rationale)


def montrucchio_discrete(path: DiscretePath) -> Verdict:
    """Classify bubble existence by the dividend-yield criterion.

    The verdict is Bubble exactly when the declared tail class is
    convergent; the finite partial sum never decides and appears only in
    the rationale.  It is None when it leaves the double range.
    """
    if path.tail is None:
        raise ValidationError("classification requires a declared tail model")
    yields = _yields(path)
    try:
        partial = math.fsum(memoryview(yields))
    except OverflowError:  # finite yields summing past the double range
        partial = math.inf
    if math.isfinite(partial):
        evidence = f"= {partial!r}"
    else:
        partial, evidence = None, "leaves the double range"
    return _declared_verdict(
        path.tail, "sum", partial, f"sampled partial sum over {yields.size} periods {evidence}"
    )


@dataclass(frozen=True)
class TailFit:
    """Best-fit tail suggestion with per-candidate residuals.

    Never applied automatically: analysis still requires an explicit
    declaration (or an explicit opt-in flag on the CLI).
    """

    suggestion: TailModel | None
    window: int
    candidates: dict[str, dict[str, Any]]
    note: str


# |log-yield drift per period| below this counts as "flat" and forces the
# constant-yield suggestion even if a sloped fit edges it out on RMSE
_FLAT_SLOPE = 1e-3

# the tail fit reads this trailing share of the yields (at least 8 of them)
_WINDOW_FRACTION = 0.2


def _line_fit(
    x: np.ndarray, rise: np.ndarray, rise_mean: float, y_mean: float
) -> tuple[float, float]:
    """Ordinary least-squares line y = a + b x, in closed form on centred
    data: b = sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2 and
    a = y_mean - b x_mean.  Returns (b, a).

    ``rise`` is y - y_0 and ``rise_mean`` its mean, so y - y_mean is
    rise - rise_mean and, with dx = x - x_mean, the cross sum is
    sum dx rise - rise_mean sum dx.  The second term vanishes in exact
    arithmetic; in floating point it cancels the rounding of x_mean, which
    keeps b exact to a few ulps of the data's own scale at any offset of x.
    Exactly constant y (rise 0) gives b = 0.0 exactly.

    The rises are first scaled by the power of two that brings max |rise|
    into [1/2, 1), and b scaled back, so products dx rise of subnormal
    rises do not underflow.  For normal data the scaling is exact and b
    keeps its bits.
    """
    _, exponent = math.frexp(float(np.abs(rise).max()))
    x_mean = np.add.reduce(x) / x.size  # x.mean() to the bit, with less overhead
    dx = x - x_mean
    scaled_rise = np.ldexp(rise, -exponent)
    cross = np.dot(dx, scaled_rise) - dx.sum() * math.ldexp(rise_mean, -exponent)
    slope = math.ldexp(float(cross / np.dot(dx, dx)), exponent)
    return slope, float(y_mean - slope * x_mean)


def suggest_tail(path: DiscretePath) -> TailFit:
    """Least-squares tail fit on the trailing window of the yield series.

    Fits constant, geometric, and power decay to log y_t over the last
    fifth of the sample (at least 8 points) and proposes the
    best valid candidate.  The fits are closed-form ordinary least squares
    (the mean, and a line in t or in log t).  Zero yields are excluded from
    the fits.
    """
    yields = _yields(path)
    n = yields.size
    window = min(n, max(8, math.ceil(_WINDOW_FRACTION * n)))
    t = np.arange(n - window + 1, n + 1, dtype=np.float64)
    y = yields[n - window:]
    pos = y > 0
    if not pos.any():
        return TailFit(
            suggestion=ZeroDividends(),
            window=window,
            candidates={},
            note="all yields in the fit window are zero",
        )
    if np.count_nonzero(pos) < 3:
        return TailFit(
            suggestion=None,
            window=window,
            candidates={},
            note="fewer than 3 positive yields in the fit window; no fit possible",
        )
    t, y = t[pos], y[pos]
    log_y = np.log(y)
    if not log_y.max() < np.inf:  # D / P past the double range: log D - log P
        far = np.isinf(y)
        at = t[far].astype(np.intp)
        log_y[far] = np.log(path.dividends[at]) - np.log(path.prices[at])

    def rmse(residuals: np.ndarray) -> float:
        return math.sqrt(np.add.reduce(residuals**2) / residuals.size)

    candidates: dict[str, dict[str, Any]] = {}
    mean = np.add.reduce(log_y) / log_y.size
    rise = log_y - log_y[0]
    rise_mean = np.add.reduce(rise) / rise.size
    log_t = np.log(t)
    slope, intercept = _line_fit(t, rise, rise_mean, mean)
    p_slope, p_intercept = _line_fit(log_t, rise, rise_mean, mean)
    # steep decay or huge yields: a coefficient past exp's range drops its
    # candidate
    with np.errstate(over="ignore"):
        level = float(np.exp(mean))
        g_coeff = float(np.exp(intercept))
        p_coeff = float(np.exp(p_intercept))

    if math.isfinite(level):
        candidates["constant-yield"] = {
            "model": ConstantYield(level),
            "rmse": rmse(log_y - mean),
        }

    geo_flat = abs(slope) < _FLAT_SLOPE
    if slope < 0 and math.isfinite(g_coeff) and not geo_flat:
        candidates["geometric-yield"] = {
            "model": GeometricYield(g_coeff, float(np.exp(slope))),
            "rmse": rmse(log_y - (intercept + slope * t)),
        }

    p_flat = abs(p_slope * np.log(t[-1] / t[0])) <= _FLAT_SLOPE
    if p_slope < 0 and math.isfinite(p_coeff) and not p_flat:
        candidates["power-yield"] = {
            "model": PowerYield(p_coeff, -p_slope),
            "rmse": rmse(log_y - (p_intercept + p_slope * log_t)),
        }

    if not candidates:
        return TailFit(
            suggestion=None,
            window=window,
            candidates={},
            note="every fitted coefficient leaves the double range; no fit possible",
        )
    best = min(candidates, key=lambda k: candidates[k]["rmse"])
    note = f"fit window = last {window} periods; best fit: {best}"
    if geo_flat and best == "constant-yield":
        note += " (log-yield slope is approximately zero)"
    return TailFit(
        suggestion=candidates[best]["model"],
        window=window,
        candidates=candidates,
        note=note,
    )
