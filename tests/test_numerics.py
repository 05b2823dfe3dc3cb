import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblekit.numerics import compensated_cumsum, compensated_sum


def neumaier_cumsum(values):
    """Reference: the element-by-element Neumaier loop."""
    out = np.empty(len(values))
    total = carry = 0.0
    for i, v in enumerate(values):
        t = total + v
        if not math.isfinite(t):
            carry = 0.0
        elif abs(total) >= abs(v):
            carry += (total - t) + v
        else:
            carry += (v - t) + total
        total = t
        out[i] = total + carry
    return out


def test_compensated_cumsum_matches_fsum_prefixes():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 500) * 10.0 ** rng.integers(-8, 8, 500)
    cums = compensated_cumsum(x)
    for k in (1, 7, 123, 499):
        exact = math.fsum(x[: k + 1])
        assert cums[k] == pytest.approx(exact, rel=1e-15, abs=1e-300)


def test_compensated_cumsum_beats_plain_cumsum():
    # alternating large/small values where naive accumulation loses digits
    x = np.tile([1e16, 1.0, -1e16, 1.0], 2000)
    exact = math.fsum(x)
    assert compensated_cumsum(x)[-1] == exact
    assert exact == 4000.0


def test_compensated_cumsum_propagates_neg_inf():
    x = np.array([1.0, -math.inf, 2.0, 3.0])
    out = compensated_cumsum(x)
    assert out[0] == 1.0
    assert np.all(np.isneginf(out[1:]))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: np.log1p(rng.uniform(0.0, 0.5, 200_000)),
        lambda rng: rng.uniform(-1, 1, 5000) * 10.0 ** rng.integers(-8, 8, 5000),
        lambda rng: np.concatenate((rng.uniform(0, 1, 50), [math.inf], np.ones(50))),
        lambda rng: np.array([]),
    ],
)
def test_compensated_cumsum_equals_the_neumaier_loop(make):
    # the same additions and error terms in the same order: bit-identical
    x = make(np.random.default_rng(11))
    assert np.array_equal(compensated_cumsum(x), neumaier_cumsum(x.tolist()))


# ---------- compensated_sum ----------


def exact_sum(values):
    """Oracle: the exact rational sum of the doubles."""
    return sum((Fraction(v) for v in values.tolist()), Fraction(0))


@st.composite
def nonnegative_rows(draw):
    """1-D or 2-D nonnegative arrays whose rows have a finite total.

    The bulk is log-uniform between drawn decades (subnormals up to
    ~1e300, divided by the row length so the total stays finite), some
    entries are zero, and a few drawn doubles are written over it.
    """
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 5000)))
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(1, 4)), n)
    lo = draw(st.integers(-330, 300))
    hi = draw(st.integers(lo, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.uniform(lo, hi, shape) / max(n, 1)
    x[rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    flat = x.reshape(-1)
    for value in draw(
        st.lists(
            st.floats(0.0, 1e300 / max(n, 1), allow_subnormal=True), max_size=8
        )
    ):
        if flat.size:
            flat[draw(st.integers(0, flat.size - 1))] = value
    return x


@settings(max_examples=150, deadline=None)
@given(nonnegative_rows())
def test_compensated_sum_is_faithfully_rounded(x):
    got = compensated_sum(x)
    assert got.shape == x.shape[:-1]
    for row, total in zip(np.atleast_2d(x), np.atleast_1d(got)):
        total = float(total)
        assert math.isfinite(total)
        assert abs(Fraction(total) - exact_sum(row)) < Fraction(math.ulp(total))


@settings(max_examples=100, deadline=None)
@given(nonnegative_rows())
@example(np.arange(2 * 4999, dtype=float).reshape(2, 4999) * 0.1)
def test_compensated_sum_of_a_2d_array_is_its_rows_sums(x):
    rows = np.atleast_2d(x)
    singles = [compensated_sum(row) for row in rows]
    assert np.array_equal(compensated_sum(rows), singles)


def test_compensated_sum_cancels_exactly():
    x = np.tile([1e16, 1.0, -1e16, 1.0], 2000)
    assert compensated_sum(x) == 4000.0
    assert compensated_sum(x.reshape(2, 4000)).tolist() == [2000.0, 2000.0]


def test_compensated_sum_of_an_empty_axis_is_zero():
    assert compensated_sum([]) == 0.0
    assert compensated_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


def test_compensated_sum_near_a_midpoint_is_faithful_not_fsum():
    # the exact sum lies 2**-106 above the midpoint of 1 and 1 + 2**-52:
    # the cascade rounds the error total 2**-53 + 2**-106 to 2**-53 and
    # lands on 1.0, the other double next to the exact sum
    x = [1.0, 2.0**-53, 2.0**-106]
    assert compensated_sum(x) == 1.0
    assert math.fsum(x) == 1.0 + 2.0**-52


def test_compensated_sum_is_not_faithful_under_heavy_cancellation():
    # the documented limit: sum|x| = 2**61 against an exact sum of
    # 1 + 2**-52, itself a double; the first level's errors 1 + 2**-53
    # round to 1.0, the folded odd error does the same again, and the last
    # level's sum is 0
    x = [2.0**60, -(2.0**60), 1.0, 2.0**-53, 2.0**-53]
    assert math.fsum(x) == 1.0 + 2.0**-52
    assert compensated_sum(x) == 1.0


def test_compensated_sum_returns_a_non_finite_total_without_nan():
    assert compensated_sum([math.inf, 1.0, 2.0]) == math.inf
    assert compensated_sum([1e308, 1e308, 1.0]) == math.inf
    assert math.isnan(compensated_sum([math.inf, -math.inf]))
