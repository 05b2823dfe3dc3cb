"""Low-level numeric helper: compensated prefix sums.

Deflators and present values come from one cumulative log-yield sum over
horizons up to 10^6 periods; its prefix sums must stay accurate to about
one ulp, which plain ``np.cumsum`` does not guarantee.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def compensated_cumsum(values: Iterable[float]) -> np.ndarray:
    """Running sums of ``values`` with the rounding errors added back.

    Plain ``np.cumsum`` loses ~n*eps*|sum|, which is too coarse for the
    telescoping identity at 1e-12 relative tolerance.  This is the
    two-pass compensated prefix sum (Ogita-Rump-Oishi Sum2): the running
    sums, the exact TwoSum error of each addition, and the running sum of
    those errors, which keeps each partial sum near one ulp.  Non-finite
    inputs (a +-inf log) propagate without producing NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    sums = np.cumsum(x)
    errors = np.zeros_like(sums)
    prev, cur, add = sums[:-1], sums[1:], x[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        virtual = cur - prev
        errors[1:] = (prev - (cur - virtual)) + (add - virtual)
    errors[~np.isfinite(sums)] = 0.0
    return sums + np.cumsum(errors)
