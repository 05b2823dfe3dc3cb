"""Low-level numeric helpers: compensated sums and prefix sums, and the
log of a ratio.

Deflators and present values come from one cumulative log-yield sum over
horizons up to 10^6 periods; its prefix sums must stay accurate to about
one ulp, which plain ``np.cumsum`` does not guarantee.  Continuous paths
sum up to 10^7 grid cells into one integral or into per-period
dividends; those cells are nonnegative, and ``compensated_sum`` rounds
such totals faithfully.
Both sums use the error-free TwoSum transformation (Ogita, Rump & Oishi 2005,
*Accurate sum and dot product*, SIAM J. Sci. Comput. 26) at numpy speed.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# the smallest normal double
_TINY = np.finfo(np.float64).tiny


def _two_sum_error(
    a: np.ndarray, b: np.ndarray, s: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Exact rounding errors of ``s = a + b`` (Knuth's TwoSum), written to
    ``out``, which overlaps none of the three, and returned.

    ``(a - (s - virtual)) + (b - virtual)`` with ``virtual = s - a``, the
    same operations in the same order, so the same bits; it takes one
    temporary, where the expression takes four."""
    virtual = np.subtract(s, a, out=out)
    b_error = b - virtual
    np.subtract(s, virtual, out=out)
    np.subtract(a, out, out=out)
    return np.add(out, b_error, out=out)


def _log_ratio(num, den, normal: bool = False) -> np.ndarray:
    """``log(num / den)`` elementwise, from the ratio itself where it is a
    normal double, so that a 2^k scaling of both leaves it bit-exact.  A
    ratio outside that range, or a zero or -0.0 ``den``, is taken apart in
    logs instead.  Called with floating-point errors ignored.  A caller that
    has bounded every ratio within the normal double range says so by
    ``normal``, which spares the two reductions that would look."""
    ratios = num / den
    logs = np.log(ratios)
    if not (normal or (ratios.min() >= _TINY and ratios.max() < np.inf)):  # NaN too
        num, den = np.broadcast_arrays(num, den)
        far = ~(ratios >= _TINY) | np.isinf(ratios)
        logs[far] = np.log(num[far]) - np.log(den[far])
    return logs


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
    with np.errstate(invalid="ignore", over="ignore"):
        return _prefix_sums(x)


def _prefix_sums(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`compensated_cumsum` of the float64 array ``x``, written to
    ``out`` if given, called with floating-point errors ignored."""
    sums = x.cumsum(out=out)
    errors = np.empty_like(sums)
    errors[:1] = 0.0
    _two_sum_error(sums[:-1], x[1:], sums[1:], out=errors[1:])
    if sums.size and not math.isfinite(sums[-1]):  # a non-finite sum stays non-finite
        errors[~np.isfinite(sums)] = 0.0
    sums += errors.cumsum(out=errors)
    return sums


def compensated_sum(values: np.ndarray) -> np.ndarray | np.float64:
    """Sums along the last axis, faithfully rounded for nonnegative input.

    A pairwise TwoSum cascade, one numpy pass per level: the first half
    of the axis is added to the second, an odd last element is folded
    into the last sum, and the exact error of every addition goes into a
    per-row error total.  The exact sum is the last level's sum plus all
    those errors, so the only rounding left is in totalling the errors,
    about (log2 n)^2 eps^2 sum|x|.  That is under one ulp of the sum,
    so the result is faithful, when sum|x| is within a small factor of
    |sum x|, as for nonnegative input.  Under heavy cancellation it is
    not: ``[2**60, -2**60, 1, 2**-53, 2**-53]`` sums to 1.0, though the
    exact sum 1 + 2**-52 is a double and ``fsum`` returns it.  Where it
    is faithful, the result equals ``math.fsum`` except where the exact
    sum lies within that error of a rounding midpoint:
    ``[1, 2**-53, 2**-106]`` sums to 1.0, where ``fsum`` gives
    1 + 2**-52.  An empty axis sums to 0.0; a sum that is
    not finite is returned as the plain pairwise sum, without NaN from
    the error terms.
    """
    x = np.asarray(values, dtype=np.float64)
    errors = np.zeros(x.shape[:-1])
    if x.shape[-1] == 0:
        return errors[()]
    # one scratch buffer holds each level's errors, shaped as that level
    scratch = np.empty(x.size // 2)
    with np.errstate(invalid="ignore", over="ignore"):
        while x.shape[-1] > 1:
            half = x.shape[-1] // 2
            a, b = x[..., :half], x[..., half : 2 * half]
            s = a + b
            level = scratch[: s.size].reshape(s.shape)
            errors += _two_sum_error(a, b, s, out=level).sum(axis=-1)
            if x.shape[-1] % 2:
                last, odd = s[..., -1:], x[..., -1:]
                folded = last + odd
                fold = scratch[: folded.size].reshape(folded.shape)
                errors += _two_sum_error(last, odd, folded, out=fold)[..., 0]
                s[..., -1:] = folded
            x = s
        total = x[..., 0]
        errors[~np.isfinite(total)] = 0.0
        return total + errors
