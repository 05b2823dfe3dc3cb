"""Independent oracles for expected values.

Everything here deliberately avoids the library's own code paths: high
precision arithmetic via mpmath, brute-force recursion of the deflated
price, and direct partial sums.  Tests compare bubblekit's answers
against these, never the other way around.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def product_bubble(alpha: float, rho: float, terms: int = 200, dps: int = 50) -> float:
    """High-precision prod_{s=1..terms} (1 + alpha rho^s)^-1.

    For unit price and dividends alpha * rho^t this is the deflated-price
    limit; 200 terms leave a remainder far below double precision for
    rho <= 0.9.
    """
    with mp.workdps(dps):
        prod = mp.mpf(1)
        a = mp.mpf(repr(alpha))
        r = mp.mpf(repr(rho))
        for s in range(1, terms + 1):
            prod /= 1 + a * r**s
        return float(prod)


def log_tail_sum(coeff: float, decay, start: int, dps: int = 40) -> float:
    """High-precision sum_{t >= start} log1p(coeff * decay(t)).

    Suitable for geometrically decaying terms, which mpmath's nsum
    handles robustly.
    """
    with mp.workdps(dps):
        c = mp.mpf(repr(coeff))
        total = mp.nsum(lambda t: mp.log(1 + c * decay(t)), [start, mp.inf])
        return float(total)


def log_tail_sum_power(
    coeff: float, exponent: float, start: int, head: int = 100_000
) -> float:
    """sum_{t >= start} log1p(coeff * t^-exponent) for exponent > 1.

    Direct float summation of the first ``head`` terms, then the
    remainder by Euler-Maclaurin: the integral of log1p(c t^-p) from the
    cut has the exact expansion sum_k (-1)^(k+1) (c^k / k) N^(1-pk) /
    (pk - 1) (valid since c N^-p << 1 there, and the k-ratio ~1e-6 so a
    handful of terms reach full precision; infinite-tail quadrature is
    NOT reliable for these slowly decaying integrands), plus the f/2 and
    -f'/12 endpoint corrections; the next correction is ~N^-(p+3).
    """
    cut = start + head
    head_sum = math.fsum(
        math.log1p(coeff * t**-exponent) for t in range(start, cut)
    )
    with mp.workdps(40):
        c = mp.mpf(repr(coeff))
        p = mp.mpf(repr(exponent))
        big_n = mp.mpf(cut)
        x = c * big_n**-p
        assert x < 0.5, "cut too small for the remainder expansion"
        integral = mp.mpf(0)
        for k in range(1, 200):
            term = (-1) ** (k + 1) * c**k / k * big_n ** (1 - p * k) / (p * k - 1)
            integral += term
            if abs(term) < mp.mpf(10) ** -38 * (1 + abs(integral)):
                break
        f_cut = mp.log(1 + x)
        fprime = -p * x / (big_n * (1 + x))
        return head_sum + float(integral + f_cut / 2 - fprime / 12)


def deflated_terminal_log(prices, dividends) -> float:
    """log(q_T P_T) by direct recursion: each period divides qP by 1 + y_t.

    Independent of the library's cumulative-log construction.
    """
    prices = np.asarray(prices, dtype=float)
    dividends = np.asarray(dividends, dtype=float)
    if dividends.size == prices.size:
        dividends = dividends[1:]
    log_qp = math.log(prices[0])
    for t in range(1, prices.size):
        log_qp -= math.log1p(dividends[t - 1] / prices[t])
    return log_qp


def deflated_recursion_mp(prices, dividends, at, dps: int = 50):
    """Present values and the deflated terminal price by direct recursion.

    q_{t+1} = q_t P_t / (P_{t+1} + D_{t+1}) from q_0 = 1 in ``dps``-digit
    arithmetic; returns ({T: sum_{t<=T} q_t D_t for T in at}, q_T P_T).
    Shares nothing with the library's log-yield sum.
    """
    prices = [float(p) for p in prices]
    dividends = [float(d) for d in dividends]
    if len(dividends) == len(prices) - 1:
        dividends = [0.0] + dividends
    wanted = set(at)
    present = {}
    with mp.workdps(dps):
        q = mp.mpf(1)
        pv = mp.mpf(0)
        for t in range(1, len(prices)):
            q = q * mp.mpf(prices[t - 1]) / (mp.mpf(prices[t]) + mp.mpf(dividends[t]))
            pv += q * mp.mpf(dividends[t])
            if t in wanted:
                present[t] = float(pv)
        return present, float(q * mp.mpf(prices[-1]))


def limit_is_positive(yields, flat_threshold: float = 0.1) -> bool:
    """Decide lim q_T P_T > 0 from a long sampled yield series.

    The deflated price is P_0 * exp(-sum log(1 + y_t)), monotonically
    decreasing.  Its limit is positive exactly when the log-sum
    converges, which the recursion exhibits as flattening: the increment
    contributed by the second half of the horizon is negligible.  A
    fixed-point threshold separates the families by orders of magnitude
    (divergent families keep adding >= log 2 per doubling; convergent
    ones add ~0).
    """
    yields = np.asarray(yields, dtype=float)
    half = yields.size // 2
    increment = math.fsum(np.log1p(yields[half:]))
    return increment < flat_threshold


def pseries_partial(p: float, terms: int) -> float:
    """Direct partial sum of t^-p (integral-test oracle for p-series)."""
    total = 0.0
    block = 1_000_000
    for start in range(1, terms + 1, block):
        stop = min(start + block, terms + 1)
        t = np.arange(start, stop, dtype=np.float64)
        total += float(np.sum(t**-p))
    return total
