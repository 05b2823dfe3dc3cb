import math

import numpy as np
import pytest

from bubblekit.numerics import compensated_cumsum


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
