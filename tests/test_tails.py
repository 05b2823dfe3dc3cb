import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblekit import (
    ConstantLevels,
    ConstantYield,
    DeclaredConvergent,
    DeclaredDivergent,
    GeometricYield,
    PowerYield,
    TailClass,
    TailModel,
    TailUnsupportedError,
    ValidationError,
    ZeroDividends,
    classify_tail,
)
from bubblekit import tails
from bubblekit.tails import geometric_tail_log_sum, power_tail_log_sum

from oracles import geometric_head_loop, log_tail_sum, log_tail_sum_power, pseries_partial


# one instance of every kind, with each branch of its class
KINDS = [
    (ConstantLevels(100, 5), TailClass.DIVERGENT),
    (ConstantLevels(100, 0), TailClass.CONVERGENT),
    (ConstantYield(0.05), TailClass.DIVERGENT),
    (GeometricYield(0.5, 0.5), TailClass.CONVERGENT),
    (PowerYield(1, 0.5), TailClass.DIVERGENT),
    (PowerYield(1, 1), TailClass.DIVERGENT),
    (PowerYield(1, 1.5), TailClass.CONVERGENT),
    (PowerYield(1, 2), TailClass.CONVERGENT),
    (ZeroDividends(), TailClass.CONVERGENT),
    (DeclaredDivergent(), TailClass.DIVERGENT),
    (DeclaredConvergent(0.25), TailClass.CONVERGENT),
]


@pytest.mark.parametrize("tail, expected", KINDS)
def test_classify_tail(tail, expected):
    assert classify_tail(tail) is expected
    assert tail.tail_class is expected
    assert isinstance(tail, TailModel)


@pytest.mark.parametrize(
    "tail, start, expected",
    [
        (GeometricYield(0.5, 0.5), 1, lambda: log_tail_sum(0.5, lambda t: 0.5**t, 1)),
        (GeometricYield(2.0, 0.9), 11, lambda: log_tail_sum(2.0, lambda t: 0.9**t, 11)),
        (GeometricYield(0.01, 0.3), 5, lambda: log_tail_sum(0.01, lambda t: 0.3**t, 5)),
        (PowerYield(1, 2), 1, lambda: log_tail_sum_power(1.0, 2.0, 1)),
        (PowerYield(0.3, 3), 7, lambda: log_tail_sum_power(0.3, 3.0, 7)),
        (PowerYield(1, 1.1), 4, lambda: log_tail_sum_power(1.0, 1.1, 4)),
        (ConstantLevels(100, 0), 3, lambda: 0.0),
        (ZeroDividends(), 3, lambda: 0.0),
        (DeclaredConvergent(0.25), 3, lambda: 0.0),
        (ConstantLevels(100, 5), 3, lambda: math.inf),
        (ConstantYield(0.05), 3, lambda: math.inf),
        (PowerYield(1, 0.5), 3, lambda: math.inf),
        (PowerYield(1, 1), 3, lambda: math.inf),
        (DeclaredDivergent(), 3, lambda: math.inf),
    ],
)
def test_log_sum(tail, start, expected):
    got = tail.log_sum(start)
    assert got == pytest.approx(expected(), rel=1e-12)
    # the analytic sums keep the bits of the module functions
    if isinstance(tail, GeometricYield):
        assert got == geometric_tail_log_sum(tail.coeff, tail.ratio, start)
    if isinstance(tail, PowerYield) and tail.exponent > 1:
        assert got == power_tail_log_sum(tail.coeff, tail.exponent, start)


def continuous_yield(tail, t):
    """The yield at time t of ``tail`` read as a continuous yield."""
    return {
        ConstantLevels: lambda: tail.dividend / tail.price,
        ConstantYield: lambda: tail.level,
        GeometricYield: lambda: tail.coeff * tail.ratio**t,
        PowerYield: lambda: tail.coeff * t**-tail.exponent,
    }[type(tail)]()


@pytest.mark.parametrize("tail", [tail for tail, _ in KINDS], ids=repr)
@pytest.mark.parametrize("step", [0.25, 1.0, 3.0])
def test_per_period(tail, step):
    period = tail.per_period(step)
    assert type(period) is type(tail)
    assert period.tail_class is tail.tail_class
    if step == 1.0:
        assert period == tail
    if type(tail) in (ZeroDividends, DeclaredDivergent, DeclaredConvergent):
        assert period is tail
        return
    # period k's yield is step times the continuous yield at time k * step
    for k in (1, 2, 7, 40):
        assert continuous_yield(period, k) == pytest.approx(
            step * continuous_yield(tail, k * step), rel=1e-13
        )


def test_classify_tail_agrees_with_pseries_partial_sums():
    # integral-test oracle: partial sums to 1e7 terms keep growing for
    # p <= 1 (each doubling adds a bounded-away-from-zero chunk) and
    # plateau for p > 1
    for p in (0.5, 1.0, 1.5, 2.0):
        growth = pseries_partial(p, 10_000_000) - pseries_partial(p, 5_000_000)
        diverges = growth > 0.1
        assert diverges == (classify_tail(PowerYield(1, p)) is TailClass.DIVERGENT)


def test_classify_tail_rejects_unknown_objects():
    with pytest.raises(TailUnsupportedError):
        classify_tail(object())


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConstantLevels(0, 5),
        lambda: ConstantLevels(100, -1),
        lambda: ConstantYield(0),
        lambda: GeometricYield(0, 0.5),
        lambda: GeometricYield(1, 1.0),
        lambda: GeometricYield(1, 0),
        lambda: PowerYield(-1, 2),
        lambda: PowerYield(1, 0),
        lambda: DeclaredConvergent(-0.1),
    ],
)
def test_tail_parameter_validation(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "coeff, ratio, start",
    [(0.5, 0.5, 1), (0.5, 0.5, 11), (2.0, 0.9, 1), (0.01, 0.3, 5), (1.0, 0.99, 1)],
)
def test_geometric_tail_log_sum_against_mpmath(coeff, ratio, start):
    expected = log_tail_sum(coeff, lambda t, r=ratio: r**t, start)
    assert geometric_tail_log_sum(coeff, ratio, start) == pytest.approx(
        expected, rel=1e-13, abs=1e-300
    )


def test_geometric_tail_log_sum_slow_decay_branch():
    # the dilogarithm branch (ratio > 0.999) must agree with both mpmath
    # and the direct-summation branch just below the switch
    expected = log_tail_sum(0.5, lambda t: 0.9995**t, 1)
    assert geometric_tail_log_sum(0.5, 0.9995, 1) == pytest.approx(expected, rel=1e-9)
    near = geometric_tail_log_sum(0.5, 0.99899, 1)
    near_expected = log_tail_sum(0.5, lambda t: 0.99899**t, 1)
    assert near == pytest.approx(near_expected, rel=1e-12)


@pytest.mark.parametrize(
    "coeff, exponent, start",
    [(1.0, 2.0, 1), (1.0, 1.5, 1), (0.3, 3.0, 7), (5.0, 2.5, 1), (1.0, 1.1, 4)],
)
def test_power_tail_log_sum_against_quadrature(coeff, exponent, start):
    expected = log_tail_sum_power(coeff, exponent, start)
    assert power_tail_log_sum(coeff, exponent, start) == pytest.approx(
        expected, rel=1e-12
    )


# coeff t^-2 >= 1/2 up to t0 = 2,100,000: a head past the 2,000,000 terms
# after which the head was once cut, with no remainder
BIG_COEFF, BIG_T0 = 0.5 * 2_100_000.0**2, 2_100_000


@pytest.fixture(scope="module")
def big_power_oracle():
    # both cut at 2,500,000, so they share their Euler-Maclaurin remainder
    return (
        log_tail_sum_power(BIG_COEFF, 2.0, 1, head=2_500_000),
        log_tail_sum_power(BIG_COEFF, 2.0, BIG_T0, head=400_000),
    )


def test_power_tail_log_sum_sums_a_head_past_two_million_terms(big_power_oracle):
    # the sums from 1 and from t0 share their zeta-series remainder, so
    # their difference is the head alone
    full, remainder = big_power_oracle
    head = power_tail_log_sum(BIG_COEFF, 2.0, 1) - power_tail_log_sum(BIG_COEFF, 2.0, BIG_T0)
    assert head == pytest.approx(full - remainder, rel=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="the zeta series stops where zeta(2k, t0) underflows (k = 26 here), "
    "1.7e-11 of the remainder short",
)
def test_power_tail_log_sum_of_a_huge_coefficient_against_quadrature(big_power_oracle):
    full, _ = big_power_oracle
    assert power_tail_log_sum(BIG_COEFF, 2.0, 1) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("coeff", [1e12, 1e20, 1e308])
def test_power_tail_log_sum_refuses_a_head_past_its_bound(coeff):
    # coeff t^-1.5 >= 1/2 up to t = 1.6e8 and 3.4e13; 2 * 1e308 overflows
    message = re.escape(f"power-yield tail a={coeff!r}, p=1.5")
    with pytest.raises(TailUnsupportedError, match=message):
        power_tail_log_sum(coeff, 1.5, 51)


def test_power_tail_log_sum_rejects_divergent_exponent():
    with pytest.raises(TailUnsupportedError):
        power_tail_log_sum(1.0, 1.0, 1)


def test_power_tail_log_sum_huge_coefficient_is_finite():
    # absurd coefficient: the sum is astronomically large but must come
    # back finite and positive without overflow
    value = power_tail_log_sum(1e12, 2.0, 1)
    assert math.isfinite(value) and value > 1e5


@pytest.mark.parametrize(
    "make",
    [
        lambda x: ConstantLevels(x, 5),
        lambda x: ConstantLevels(100, x),
        lambda x: ConstantYield(x),
        lambda x: GeometricYield(x, 0.5),
        lambda x: GeometricYield(0.5, x),
        lambda x: PowerYield(x, 2),
        lambda x: PowerYield(1, x),
        lambda x: DeclaredConvergent(x),
    ],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected(make, value):
    with pytest.raises(ValidationError, match="finite"):
        make(value)


# ---------- the geometric head against the per-term loop ----------


class _CountingFsum:
    """``math`` for ``bubblekit.tails``, with ``fsum`` counting its terms."""

    count = None

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, terms):
        terms = list(terms)
        self.count = len(terms)
        return math.fsum(terms)


def assert_head_is_the_loop(coeff, ratio, start, monkeypatch):
    expected, count = geometric_head_loop(coeff, ratio, start)
    counting = _CountingFsum()
    with monkeypatch.context() as patch:
        patch.setattr(tails, "math", counting)
        got = geometric_tail_log_sum(coeff, ratio, start)
    assert got.hex() == expected.hex()
    assert counting.count == count
    return count


@pytest.mark.parametrize(
    "coeff, ratio, start, terms",
    [
        (1e-30, 0.5, 1, 0),  # u <= cutoff from the start: 0.0
        (0.5, 0.9, 10**9, 0),  # u underflows to 0
        (0.3, 0.75, 41, 160),
        (1.0, 0.999, 1, 64_440),
        (1e300, 0.999, 1, 754_870),  # ~770k terms at ratio 0.999
        (1e300, 1e-300, 1, 1),  # a tiny ratio and a huge coeff
        (1e300, 0.5, 900, 181),  # a large start
        (1.7e308, 0.999, 10**4, 763_813),
    ],
)
def test_geometric_head_is_the_loop_to_the_bit(coeff, ratio, start, terms, monkeypatch):
    assert assert_head_is_the_loop(coeff, ratio, start, monkeypatch) == terms


@given(
    st.floats(-300, 300),
    st.floats(1e-300, 0.99),
    st.integers(1, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_geometric_head_is_the_loop_on_draws(log_coeff, ratio, start):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_head_is_the_loop(10.0**log_coeff, ratio, start, monkeypatch)
