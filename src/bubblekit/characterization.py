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
    "Verdict",
    "TailFit",
    "classify_tail",
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


def _yields(path: DiscretePath) -> np.ndarray:
    """Yields D_t / P_t for t = 1..T_max, +inf where they overflow.

    Raises NonPositivePriceError naming the first index with P_t <= 0.
    """
    bad = np.flatnonzero(path.prices <= 0)
    if bad.size:
        raise NonPositivePriceError(int(bad[0]))
    with np.errstate(over="ignore"):
        return path.dividends[1:] / path.prices[1:]


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
        partial = math.fsum(yields)
    except OverflowError:  # finite yields summing past the double range
        partial = math.inf
    if math.isfinite(partial):
        evidence = f"= {partial!r}"
    else:
        partial, evidence = None, "leaves the double range"
    tail_class = classify_tail(path.tail)
    if tail_class is TailClass.CONVERGENT:
        classification = Classification.BUBBLE
        reason = "declared tail makes the yield sum converge"
    else:
        classification = Classification.NO_BUBBLE
        reason = "declared tail makes the yield sum diverge"
    rationale = (
        f"{reason} (tail={path.tail!r}); "
        f"sampled partial sum over {yields.size} periods {evidence}"
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
    yields = _yields(path)
    n = yields.size
    window = min(n, max(8, math.ceil(window_fraction * n)))
    t = np.arange(n - window + 1, n + 1, dtype=np.float64)
    y = yields[n - window:]
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
    far = np.isinf(y)  # D / P past the double range: log y = log D - log P
    at = t[far].astype(np.intp)
    log_y[far] = np.log(path.dividends[at]) - np.log(path.prices[at])

    def rmse(pred: np.ndarray) -> float:
        return float(np.sqrt(np.mean((log_y - pred) ** 2)))

    candidates: dict[str, dict[str, Any]] = {}
    slope, intercept = np.polyfit(t, log_y, 1)
    p_slope, p_intercept = np.polyfit(np.log(t), log_y, 1)
    # steep decay or huge yields: a coefficient past exp's range drops its
    # candidate
    with np.errstate(over="ignore"):
        level = float(np.exp(log_y.mean()))
        g_coeff = float(np.exp(intercept))
        p_coeff = float(np.exp(p_intercept))

    if math.isfinite(level):
        candidates["constant-yield"] = {
            "model": ConstantYield(level),
            "rmse": rmse(np.full_like(log_y, log_y.mean())),
        }

    geo_flat = abs(slope) < _FLAT_SLOPE
    if slope < 0 and math.isfinite(g_coeff) and not geo_flat:
        candidates["geometric-yield"] = {
            "model": GeometricYield(g_coeff, float(np.exp(slope))),
            "rmse": rmse(intercept + slope * t),
        }

    p_flat = abs(p_slope * np.log(t[-1] / t[0])) <= _FLAT_SLOPE
    if p_slope < 0 and math.isfinite(p_coeff) and not p_flat:
        candidates["power-yield"] = {
            "model": PowerYield(p_coeff, float(-p_slope)),
            "rmse": rmse(p_intercept + p_slope * np.log(t)),
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
