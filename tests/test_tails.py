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
    ValidationError,
    ZeroDividends,
    classify_tail,
)
from oracles import (
    geometric_log_sum,
    log_tail_sum,
    log_tail_sum_power,
    power_log_sum,
    pseries_partial,
)

# the bound that the docstrings of GeometricYield.log_sum and
# PowerYield.log_sum state, in ulps of the exact sum of their doubles
ULPS = 6


def geometric_sum(coeff, ratio, start):
    return GeometricYield(coeff, ratio).log_sum(start)


def power_sum(coeff, exponent, start):
    return PowerYield(coeff, exponent).log_sum(start)


def ulps(got: float, exact: float, moment: float = 0.0) -> float:
    """|got - exact| in units of the last place of ``exact``, less the
    ``moment * 2**-1074`` the bound allows for subnormal yields."""
    return max(abs(got - exact) - moment * 2**-1074, 0.0) / math.ulp(exact)


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
    assert tail.log_sum(start) == pytest.approx(expected(), rel=1e-12)


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
    thing = object()
    with pytest.raises(ValidationError, match=re.escape(f"unrecognized tail model: {thing!r}")):
        classify_tail(thing)


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
def test_geometric_log_sum_against_mpmath(coeff, ratio, start):
    expected = log_tail_sum(coeff, lambda t, r=ratio: r**t, start)
    assert geometric_sum(coeff, ratio, start) == pytest.approx(
        expected, rel=1e-13, abs=1e-300
    )


@pytest.mark.parametrize("ratio", [0.99899, 0.9995, 0.99999, 1 - 1e-7])
def test_geometric_log_sum_of_a_slow_decay(ratio):
    # a ratio near 1 takes the route of every other ratio (there was once
    # a dilogarithm branch above 0.999)
    exact = geometric_log_sum(0.5, ratio, 1)
    assert ulps(geometric_sum(0.5, ratio, 1), exact) <= ULPS


@pytest.mark.parametrize(
    "coeff, exponent, start",
    [(1.0, 2.0, 1), (1.0, 1.5, 1), (0.3, 3.0, 7), (5.0, 2.5, 1), (1.0, 1.1, 4)],
)
def test_power_log_sum_against_quadrature(coeff, exponent, start):
    expected = log_tail_sum_power(coeff, exponent, start)
    assert power_sum(coeff, exponent, start) == pytest.approx(
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


def test_power_log_sum_sums_a_head_past_two_million_terms(big_power_oracle):
    # the sums from 1 and from t0 share their series remainder, so
    # their difference is the head alone
    full, remainder = big_power_oracle
    head = power_sum(BIG_COEFF, 2.0, 1) - power_sum(BIG_COEFF, 2.0, BIG_T0)
    assert head == pytest.approx(full - remainder, rel=1e-14)


def test_power_log_sum_of_a_huge_coefficient_against_quadrature(big_power_oracle):
    # the series past t0 = 2.1e6 keeps every term that a double can hold
    full, _ = big_power_oracle
    assert power_sum(BIG_COEFF, 2.0, 1) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("coeff", [1e12, 1e20, 1e308])
def test_power_log_sum_refuses_a_head_past_its_bound(coeff):
    # coeff t^-1.5 >= 1/2 up to t = 1.6e8 and 3.4e13; 2 * 1e308 overflows
    message = re.escape(f"power-yield tail a={coeff!r}, p=1.5")
    with pytest.raises(ValidationError, match=message):
        power_sum(coeff, 1.5, 51)


def test_power_log_sum_huge_coefficient_is_finite():
    # absurd coefficient: the sum is astronomically large but must come
    # back finite and positive without overflow
    value = power_sum(1e12, 2.0, 1)
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


# ---------- the sums against the exact sums of their doubles ----------


@pytest.mark.parametrize(
    "coeff, ratio, start",
    [
        (1e-30, 0.5, 1),  # no head, a sum of 2e-30
        (0.5, 0.9, 10**9),  # every yield underflows: 0.0
        (0.3, 0.75, 41),
        (1.0, 0.999, 1),
        (1e300, 0.999, 1),  # a head of 691,122 terms
        (1e300, 1e-300, 1),  # a tiny ratio and a huge coeff
        (1e300, 0.5, 900),  # a large start
        (1.7e308, 0.999, 10**4),  # ratio^t0 is not a normal double
        (1e300, 0.5, 1030),  # no head; ratio^start is subnormal, the yield 8.7e-11
    ],
)
def test_geometric_log_sum_against_the_exact_sum(coeff, ratio, start):
    exact = geometric_log_sum(coeff, ratio, start)
    assert ulps(geometric_sum(coeff, ratio, start), exact) <= ULPS


@pytest.mark.parametrize(
    "coeff, exponent, start",
    [
        (1.0, 1e308, 1),  # the edge 2^(1/p) rounds to 1: the head is t = 1, log 2
        (0.6, 1e15, 1),  # the edge 1 + 1.8e-16 rounds to 1 too: the head is t = 1
        (1e300, 120.0, 400),  # no head; 400^-120 is subnormal, the yield 1e-12
        (1e300, 1e5, 3),  # every yield underflows: 0.0
        (1.0, 2.0, 10**9),  # a large start
        (0.3, 1.0 + 2**-40, 5),  # an exponent next to 1: a sum of 1.3e11
    ],
)
def test_power_log_sum_against_the_exact_sum(coeff, exponent, start):
    exact = power_log_sum(coeff, exponent, start)
    assert ulps(power_sum(coeff, exponent, start), exact) <= ULPS


@given(
    st.one_of(
        st.tuples(
            st.just(geometric_sum),
            st.just(geometric_log_sum),
            st.floats(-300, 300).map(lambda x: 10.0**x),
            st.floats(1e-300, 0.99),
            st.integers(1, 10**6),
        ).map(lambda d: (*d, 1 / (1 - d[3]))),
        st.tuples(
            st.just(power_sum),
            st.just(power_log_sum),
            st.floats(-6, 5).map(lambda x: 10.0**x),
            st.floats(1.01, 100.0),
            st.integers(1, 10**4),
        ).map(lambda d: (*d, 1 + (max(d[4], (2 * d[2]) ** (1 / d[3])) + 2) / (d[3] - 1))),
    )
)
@settings(max_examples=150, deadline=None)
def test_tail_log_sums_keep_their_ulp_bound_on_draws(draw):
    # the bound's slack for subnormal yields is m_1, the first moment, units of
    # 2^-1074: 1 / (1 - ratio), or at most 1 + t0 / (p - 1), t0 <= max(start, edge) + 2
    tail_sum, exact_sum, coeff, decay, start, moment = draw
    got = tail_sum(coeff, decay, start)
    assert ulps(got, exact_sum(coeff, decay, start), moment) <= ULPS
