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

from .errors import NonPositivePriceError, ValidationError
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
    "YieldSeries",
    "Verdict",
    "TailFit",
    "dividend_yield_series",
    "classify_tail",
    "montrucchio_discrete",
    "suggest_tail",
]


class Classification(enum.Enum):
    """Verdict on the presence of a rational bubble."""

    BUBBLE = "bubble"
    NO_BUBBLE = "no-bubble"


@dataclass(frozen=True)
class YieldSeries:
    """Sampled dividend yields y_t = D_t / P_t for t = 1..T_max."""

    values: np.ndarray
    tail: TailModel | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("yield series must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("yields must be finite and nonnegative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def partial_sum(self) -> float:
        return math.fsum(self.values)


@dataclass(frozen=True)
class Verdict:
    """Classification outcome together with its evidence."""

    classification: Classification
    partial_sum: float
    tail_class: TailClass
    rationale: str


def _require_positive_prices(path: DiscretePath) -> None:
    bad = np.nonzero(path.prices <= 0)[0]
    if bad.size:
        raise NonPositivePriceError(int(bad[0]))


def dividend_yield_series(path: DiscretePath) -> YieldSeries:
    """Elementwise yields D_t / P_t; requires P_t > 0 at every date.

    Raises NonPositivePriceError naming the first offending index.
    """
    _require_positive_prices(path)
    return YieldSeries(path.dividends[1:] / path.prices[1:], tail=path.tail)


def montrucchio_discrete(path: DiscretePath) -> Verdict:
    """Classify bubble existence by the dividend-yield criterion.

    The verdict is Bubble exactly when the declared tail class is
    convergent; the finite partial sum never decides (it is always
    finite) and appears only in the rationale.
    """
    if path.tail is None:
        raise ValidationError("classification requires a declared tail model")
    ys = dividend_yield_series(path)
    partial = ys.partial_sum
    tail_class = classify_tail(path.tail)
    if tail_class is TailClass.CONVERGENT:
        classification = Classification.BUBBLE
        reason = "declared tail makes the yield sum converge"
    else:
        classification = Classification.NO_BUBBLE
        reason = "declared tail makes the yield sum diverge"
    rationale = (
        f"{reason} (tail={path.tail!r}); "
        f"sampled partial sum over {ys.values.size} periods = {partial!r}"
    )
    return Verdict(classification, partial, tail_class, rationale)


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


def suggest_tail(path: DiscretePath, window_fraction: float = 0.2) -> TailFit:
    """Least-squares tail fit on the trailing window of the yield series.

    Fits constant, geometric, and power decay to log y_t over the last
    ``window_fraction`` of the sample (at least 8 points) and proposes the
    best valid candidate.  Zero yields are excluded from the fits.
    """
    ys = dividend_yield_series(path)
    n = ys.values.size
    window = min(n, max(8, math.ceil(window_fraction * n)))
    t = np.arange(n - window + 1, n + 1, dtype=np.float64)
    y = ys.values[n - window:]
    pos = y > 0
    if not np.any(pos):
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

    def rmse(pred: np.ndarray) -> float:
        return float(np.sqrt(np.mean((log_y - pred) ** 2)))

    candidates: dict[str, dict[str, Any]] = {}

    level = float(np.exp(log_y.mean()))
    candidates["constant-yield"] = {
        "model": ConstantYield(level),
        "rmse": rmse(np.full_like(log_y, log_y.mean())),
    }

    slope, intercept = np.polyfit(t, log_y, 1)
    geo_flat = abs(slope) < _FLAT_SLOPE
    if slope < 0 and not geo_flat:
        candidates["geometric-yield"] = {
            "model": GeometricYield(float(np.exp(intercept)), float(np.exp(slope))),
            "rmse": rmse(intercept + slope * t),
        }

    p_slope, p_intercept = np.polyfit(np.log(t), log_y, 1)
    with np.errstate(over="ignore"):  # steep decay: intercept past exp's range
        p_coeff = float(np.exp(p_intercept))
    p_flat = abs(p_slope * np.log(t[-1] / t[0])) <= _FLAT_SLOPE
    if p_slope < 0 and math.isfinite(p_coeff) and not p_flat:
        candidates["power-yield"] = {
            "model": PowerYield(p_coeff, float(-p_slope)),
            "rmse": rmse(p_intercept + p_slope * np.log(t)),
        }

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
