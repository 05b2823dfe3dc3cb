"""Invariant checks driven by hypothesis over randomized paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bubblekit import (
    Classification,
    ConstantYield,
    DeclaredDivergent,
    Decomposition,
    DiscretePath,
    GeometricYield,
    ZeroDividends,
    bubble_component,
    decompose,
    ensemble_decompose,
    fundamental_value,
    implied_deflators,
    montrucchio_discrete,
    partial_value,
)
from bubblekit.numerics import compensated_cumsum

from oracles import limit_is_positive

finite_floats = dict(allow_nan=False, allow_infinity=False)


@st.composite
def positive_paths(draw, min_len=10, max_len=200, tail=None):
    """Strictly positive paths: log-uniform prices, bounded yields."""
    n = draw(st.integers(min_len, max_len))
    log_prices = draw(
        hnp.arrays(np.float64, n + 1, elements=st.floats(-3.0, 3.0, **finite_floats))
    )
    yields = draw(
        hnp.arrays(np.float64, n, elements=st.floats(0.0, 0.5, **finite_floats))
    )
    prices = 10.0**log_prices
    return DiscretePath(
        prices, yields * prices[1:], tail=tail or DeclaredDivergent()
    )


@given(positive_paths())
@settings(max_examples=60, deadline=None)
def test_telescoping_identity_at_every_horizon(path):
    deflators = implied_deflators(path)
    with np.errstate(divide="ignore"):
        terms = np.exp(deflators.log_q[1:] + np.log(path.dividends[1:]))
        deflated = np.exp(deflators.log_q + np.log(path.prices))
    partials = compensated_cumsum(terms)
    price0 = float(path.prices[0])
    residuals = np.abs(price0 - partials - deflated[1:]) / price0
    assert float(residuals.max()) <= 1e-12


@given(positive_paths())
@settings(max_examples=40, deadline=None)
def test_partial_values_monotone_and_bounded_by_price(path):
    deflators = implied_deflators(path)
    horizons = sorted({1, path.horizon // 2, path.horizon})
    values = [partial_value(path, deflators, T) for T in horizons]
    assert values == sorted(values)
    assert values[-1] <= float(path.prices[0]) * (1 + 1e-12)


@given(positive_paths(), st.integers(-20, 20))
@example(  # a subnormal dividend, which the scaling leaves inexact
    DiscretePath(np.ones(11), np.full(10, 2.22507386e-313), tail=DeclaredDivergent()), -2
)
@settings(max_examples=40, deadline=None)
def test_scale_invariance_exact_for_binary_scales(path, k):
    lam = 2.0**k
    scaled = DiscretePath(
        path.prices * lam, path.dividends[1:] * lam, tail=path.tail
    )
    base_defl = implied_deflators(path)
    scaled_defl = implied_deflators(scaled)
    assert np.array_equal(base_defl.log_q, scaled_defl.log_q)
    assert fundamental_value(scaled, scaled_defl) == lam * fundamental_value(
        path, base_defl
    )
    assert bubble_component(scaled, scaled_defl) == lam * bubble_component(
        path, base_defl
    )
    assert decompose(scaled).verdict is decompose(path).verdict


@given(positive_paths(max_len=80), st.floats(1e-3, 1e3, **finite_floats))
@settings(max_examples=30, deadline=None)
def test_scale_invariance_general(path, lam):
    scaled = DiscretePath(
        path.prices * lam, path.dividends[1:] * lam, tail=path.tail
    )
    assert np.allclose(
        implied_deflators(scaled).log_q, implied_deflators(path).log_q, atol=1e-11
    )
    v = fundamental_value(path, implied_deflators(path))
    vs = fundamental_value(scaled, implied_deflators(scaled))
    assert vs == pytest.approx(lam * v, rel=1e-11)


@given(positive_paths(tail=ZeroDividends()))
@settings(max_examples=40, deadline=None)
def test_pure_bubble_identity_is_exact(path):
    dividendless = DiscretePath(
        path.prices, np.zeros(path.horizon), tail=ZeroDividends()
    )
    deflators = implied_deflators(dividendless)
    assert fundamental_value(dividendless, deflators) == 0.0
    assert bubble_component(dividendless, deflators) == float(
        dividendless.prices[0]
    )


@given(st.lists(st.tuples(st.floats(0.1, 100), st.floats(0, 1)), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_ensemble_is_additive(members):
    parts = []
    for price, bubble_share in members:
        bubble = price * bubble_share
        verdict = (
            Classification.BUBBLE
            if bubble > 1e-9 * price
            else Classification.NO_BUBBLE
        )
        parts.append(Decomposition(price, price - bubble, bubble, verdict, {}))
    agg = ensemble_decompose(parts)
    assert agg.price == pytest.approx(math.fsum(p.price for p in parts), rel=1e-15)
    assert agg.bubble == pytest.approx(math.fsum(p.bubble for p in parts), rel=1e-15)
    assert agg.bubble >= 0.0
    if all(p.bubble == 0.0 for p in parts):
        assert agg.bubble == 0.0


@pytest.mark.parametrize(
    "make_path",
    [
        lambda: DiscretePath(
            np.ones(10_001), np.full(10_000, 0.05), tail=ConstantYield(0.05)
        ),
        lambda: DiscretePath(
            np.ones(10_001),
            0.5 * 0.5 ** np.arange(1.0, 10_001.0),
            tail=GeometricYield(0.5, 0.5),
        ),
        lambda: DiscretePath(
            np.ones(10_001), np.zeros(10_000), tail=ZeroDividends()
        ),
    ],
)
def test_verdicts_agree_with_direct_recursion(make_path):
    # two independent routes: declared-tail classification vs the
    # flattening of the directly recursed deflated price at T = 1e4
    path = make_path()
    verdict = montrucchio_discrete(path).classification
    yields = path.dividends[1:] / path.prices[1:]
    oracle_bubble = limit_is_positive(yields)
    assert (verdict is Classification.BUBBLE) == oracle_bubble
    assert decompose(path).verdict is verdict


def test_decompose_is_thread_safe_on_shared_paths():
    # pure functions over immutable inputs: concurrent analyses of the
    # same objects must agree with the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(5)
    paths = []
    for _ in range(16):
        prices = 10.0 ** rng.uniform(-1, 1, 120)
        yields = rng.uniform(0.0, 0.3, 119)
        paths.append(
            DiscretePath(prices, yields * prices[1:], tail=DeclaredDivergent())
        )
    serial = [decompose(p) for p in paths]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(decompose, paths))
    for a, b in zip(serial, parallel):
        assert (a.price, a.fundamental, a.bubble, a.verdict) == (
            b.price,
            b.fundamental,
            b.bubble,
            b.verdict,
        )


def test_log_domain_deflators_survive_million_period_horizons():
    # per-period discount ratio 0.5: the harshest end of the documented range
    prices = np.ones(1_000_001)
    dividends = np.ones(1_000_000)
    path = DiscretePath(prices, dividends, tail=ConstantYield(1.0))
    deflators = implied_deflators(path)
    assert np.isfinite(deflators.log_q).all()
    assert deflators.log_q[-1] == pytest.approx(-1_000_000 * math.log(2), rel=1e-9)
    assert fundamental_value(path, deflators) == 1.0
