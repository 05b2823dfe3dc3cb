import math

import numpy as np
import pytest

from bubblekit import (
    Classification,
    ConstantLevels,
    DeclaredConvergent,
    DeclaredDivergent,
    Deflators,
    DiscretePath,
    EmptyEnsembleError,
    GeometricYield,
    HorizonMismatchError,
    OutOfRangeError,
    PowerYield,
    ValidationError,
    ZeroDividends,
    ZeroInitialPriceError,
    bubble_component,
    check_no_arbitrage,
    decompose,
    ensemble_decompose,
    fundamental_value,
    gen_money,
    implied_deflators,
    partial_value,
    reroot,
    tvc_holds,
)

from oracles import deflated_recursion_mp, deflated_terminal_log

# frozen from the high-precision product oracle (prod over s=1..200 of
# 1/(1 + 0.5 * 0.5^s), dps=60): 0.6291336626926613965649342...
PRODUCT_BUBBLE_HALF_HALF = 0.6291336626926614


def constant_path(P=100.0, D=5.0, T=500, tail=None):
    return DiscretePath(
        prices=np.full(T + 1, P),
        dividends=np.full(T, D),
        tail=tail if tail is not None else ConstantLevels(P, D),
    )


def geometric_dividend_path(alpha=0.5, rho=0.5, T=60):
    t = np.arange(1, T + 1, dtype=float)
    return DiscretePath(
        prices=np.ones(T + 1),
        dividends=alpha * rho**t,
        tail=GeometricYield(alpha, rho),
    )


# ---------- construction ----------


def test_path_accepts_padded_and_bare_dividends():
    a = DiscretePath([1.0, 1.0], [0.5])
    b = DiscretePath([1.0, 1.0], [0.0, 0.5])
    assert np.array_equal(a.dividends, b.dividends)
    assert a.horizon == 1


def test_path_rejects_nonzero_dividend_at_origin():
    with pytest.raises(ValidationError):
        DiscretePath([1.0, 1.0], [0.3, 0.5])


@pytest.mark.parametrize(
    "prices, dividends",
    [
        ([1.0], []),
        ([1.0, -1.0], [0.5]),
        ([1.0, 1.0], [-0.5]),
        ([1.0, 0.0], [0.0]),  # P_1 + D_1 = 0
        ([1.0, np.inf], [0.5]),
    ],
)
def test_path_rejects_invalid_data(prices, dividends):
    with pytest.raises(ValidationError):
        DiscretePath(prices, dividends)


def test_path_arrays_are_read_only():
    p = constant_path(T=3)
    with pytest.raises(ValueError):
        p.prices[0] = 7.0


# ---------- implied deflators ----------


def test_implied_deflators_constant_levels_are_geometric():
    p = constant_path(T=50)
    d = implied_deflators(p)
    q = np.exp(d.log_q)
    assert q[1] == pytest.approx(0.9523809523809523, rel=1e-15)
    expected = (100.0 / 105.0) ** np.arange(51)
    assert np.allclose(q, expected, rtol=1e-13)


def test_implied_deflators_unit_price_no_dividends():
    p = gen_money(1.0, 40)
    d = implied_deflators(p)
    assert np.all(d.log_q == 0.0)


def test_implied_deflators_telescoping_product():
    p = DiscretePath([1.0, 2.0, 4.0, 8.0], np.zeros(3), tail=ZeroDividends())
    d = implied_deflators(p)
    assert np.allclose(np.exp(d.log_q), [1.0, 0.5, 0.25, 0.125], rtol=1e-15)
    assert np.allclose(np.exp(d.log_q) * p.prices, 1.0, rtol=1e-15)


def test_implied_deflators_reject_zero_initial_price():
    p = DiscretePath([0.0, 1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ZeroInitialPriceError):
        implied_deflators(p)


def test_interior_zero_price_gives_zero_later_deflators():
    p = DiscretePath([1.0, 1.0, 0.0, 1.0, 1.0], [0.2, 0.5, 0.2, 0.2])
    d = implied_deflators(p)
    assert np.isfinite(d.log_q[:3]).all()
    assert np.isneginf(d.log_q[3:]).all()


# ---------- no-arbitrage check ----------


def test_implied_deflators_always_satisfy_recursion():
    rng = np.random.default_rng(3)
    prices = 10 ** rng.uniform(-2, 2, 300)
    dividends = rng.uniform(0, 0.5, 299) * prices[1:]
    p = DiscretePath(prices, dividends, tail=DeclaredDivergent())
    assert check_no_arbitrage(p, implied_deflators(p), tol=1e-12)


def test_no_arbitrage_rejects_wrong_discount_ratio():
    p = constant_path(T=30)
    wrong = Deflators(np.concatenate(([0.0], np.log(2.0 ** -np.arange(1.0, 31.0)))))
    assert not check_no_arbitrage(p, wrong, tol=1e-9)


def test_no_arbitrage_detects_single_perturbation():
    p = constant_path(T=30)
    log_q = implied_deflators(p).log_q.copy()
    log_q[17] += math.log1p(1e-3)
    assert not check_no_arbitrage(p, Deflators(log_q), tol=1e-9)
    assert check_no_arbitrage(p, Deflators(log_q), tol=3e-3)


def test_no_arbitrage_horizon_mismatch():
    p = constant_path(T=30)
    d = implied_deflators(constant_path(T=29))
    with pytest.raises(HorizonMismatchError):
        check_no_arbitrage(p, d)


# ---------- partial and fundamental value ----------


def test_partial_value_single_term():
    p = constant_path()
    d = implied_deflators(p)
    assert partial_value(p, d, 1) == pytest.approx(5 * 100 / 105, rel=1e-14)


def test_partial_value_zero_dividends():
    p = gen_money(3.0, 100)
    d = implied_deflators(p)
    assert partial_value(p, d, 57) == 0.0


def test_partial_value_geometric_closed_form():
    p = constant_path(T=500)
    d = implied_deflators(p)
    r = 100.0 / 105.0
    closed = 100.0 * (1 - r**500)
    got = partial_value(p, d, 500)
    assert got == pytest.approx(closed, rel=1e-12)
    # P_0 - q_500 P_500 must equal the same sum to 1e-12 relative
    deflated_end = math.exp(d.log_q[-1]) * 100.0
    assert 100.0 - deflated_end == pytest.approx(got, rel=1e-12)


@pytest.mark.parametrize("T", [0, 501, -3])
def test_partial_value_out_of_range(T):
    p = constant_path(T=500)
    d = implied_deflators(p)
    with pytest.raises(OutOfRangeError):
        partial_value(p, d, T)


def test_fundamental_constant_equals_price():
    p = constant_path()
    assert fundamental_value(p, implied_deflators(p)) == 100.0


def test_fundamental_zero_dividends_is_exactly_zero():
    p = gen_money(1.0, 300)
    assert fundamental_value(p, implied_deflators(p)) == 0.0


def test_fundamental_geometric_tail_product_oracle():
    p = geometric_dividend_path()
    d = implied_deflators(p)
    assert fundamental_value(p, d) == pytest.approx(
        1.0 - PRODUCT_BUBBLE_HALF_HALF, rel=1e-12
    )
    assert bubble_component(p, d) == pytest.approx(
        PRODUCT_BUBBLE_HALF_HALF, rel=1e-12
    )


def test_bubble_does_not_depend_on_sampled_horizon():
    values = [
        bubble_component(geometric_dividend_path(T=T),
                         implied_deflators(geometric_dividend_path(T=T)))
        for T in (10, 50, 200)
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-13)
    assert values[1] == pytest.approx(values[2], rel=1e-13)


def test_fundamental_requires_declared_tail():
    p = DiscretePath([1.0, 1.0], [0.5])
    with pytest.raises(ValidationError, match="tail"):
        fundamental_value(p, implied_deflators(p))


def test_declared_convergent_tail_sum_is_added():
    p = constant_path(T=10, tail=DeclaredConvergent(0.0))
    d = implied_deflators(p)
    base = fundamental_value(p, d)
    p2 = p.with_tail(DeclaredConvergent(1.25))
    assert fundamental_value(p2, d) == pytest.approx(base + 1.25, rel=1e-15)


# ---------- bubble / tvc ----------


def test_bubble_constant_is_zero():
    p = constant_path()
    assert bubble_component(p, implied_deflators(p)) == 0.0


def test_bubble_pure_money():
    p = gen_money(1.0, 200)
    assert bubble_component(p, implied_deflators(p)) == 1.0


def test_tvc_examples():
    const = constant_path()
    money = gen_money(1.0, 200)
    geom = geometric_dividend_path()
    assert tvc_holds(const, implied_deflators(const))
    assert not tvc_holds(money, implied_deflators(money))
    assert not tvc_holds(geom, implied_deflators(geom))


def test_bubble_matches_direct_recursion_oracle():
    # direct recursion at a long horizon, independent of the tail rules
    p = geometric_dividend_path(T=2000)
    b = bubble_component(p, implied_deflators(p))
    oracle = math.exp(deflated_terminal_log(p.prices, p.dividends))
    assert b == pytest.approx(oracle, rel=1e-10)


# ---------- decompose ----------


def test_decompose_constant():
    dec = decompose(constant_path())
    assert (dec.price, dec.fundamental, dec.bubble) == (100.0, 100.0, 0.0)
    assert dec.verdict is Classification.NO_BUBBLE
    assert dec.diagnostics["classifier"]["classification"] == "no-bubble"
    assert dec.diagnostics["no_arbitrage_residual_max"] <= 1e-12


def test_decompose_money():
    dec = decompose(gen_money(1.0, 100))
    assert (dec.price, dec.fundamental, dec.bubble) == (1.0, 0.0, 1.0)
    assert dec.verdict is Classification.BUBBLE


def test_decompose_price_splits_exactly():
    dec = decompose(geometric_dividend_path())
    assert dec.fundamental + dec.bubble == pytest.approx(dec.price, rel=1e-12)
    assert dec.fundamental >= 0 and dec.bubble >= 0


def test_decompose_checkpoint_partial_sums():
    dec = decompose(constant_path(T=400))
    checkpoints = [t for t, _ in dec.diagnostics["partial_values"]]
    assert checkpoints == [100, 200, 400]
    values = [v for _, v in dec.diagnostics["partial_values"]]
    assert values == sorted(values)


def test_decompose_with_interior_zero_price_skips_classifier():
    p = DiscretePath(
        [1.0, 1.0, 0.0, 1.0, 1.0], [0.2, 0.5, 0.2, 0.2], tail=DeclaredDivergent()
    )
    dec = decompose(p)
    assert dec.diagnostics["classifier"] is None
    assert dec.verdict is Classification.NO_BUBBLE


def test_decompose_boundary_flag_on_sub_threshold_bubble():
    # classifier unavailable (interior zero price): an interior zero
    # exhausts the present value, so a tiny declared tail leaves the
    # bubble within epsilon of zero on the negative side; the verdict
    # resolves to no-bubble with the boundary diagnostic set
    p = DiscretePath([1.0, 1.0, 0.0, 1.0, 1.0], [0.2, 0.5, 0.2, 0.2])
    dec = decompose(p.with_tail(DeclaredConvergent(0.5e-9)))
    assert dec.verdict is Classification.NO_BUBBLE
    assert dec.diagnostics["boundary"] is True
    assert dec.bubble == 0.0


def test_decompose_sub_threshold_bubble_with_classifier_is_inconsistent():
    # with strictly positive prices a convergent yield sum leaves a
    # positive bubble, so a declared tail value that leaves one within
    # epsilon is an inconsistent declaration: bad input
    p = constant_path(T=10, tail=DeclaredConvergent(0.0))
    d = implied_deflators(p)
    remaining = 100.0 - partial_value(p, d, 10)
    p = p.with_tail(DeclaredConvergent(remaining - 0.5e-9 * 100.0))
    with pytest.raises(ValidationError):
        decompose(p)


def test_decompose_raises_on_route_disagreement():
    # a declared-convergent tail that absorbs the entire remaining value
    # leaves a zero bubble although the tail class is convergent (=
    # bubble): the declaration is rejected as inconsistent
    p = constant_path(T=10, tail=DeclaredConvergent(0.0))
    d = implied_deflators(p)
    remaining = 100.0 - partial_value(p, d, 10)
    p = p.with_tail(DeclaredConvergent(remaining))
    with pytest.raises(ValidationError):
        decompose(p)


def test_decompose_rejects_overlarge_declared_tail_sum():
    p = constant_path(T=10, tail=DeclaredConvergent(1000.0))
    with pytest.raises(ValidationError):
        decompose(p)


def test_decompose_matches_high_precision_recursion():
    # present values and q_T P_T against a 50-digit direct recursion
    rng = np.random.default_rng(20261018)
    for T in (10, 137, 800, 2000, 2000, 1500):
        prices = 10.0 ** rng.uniform(-3, 3, T + 1)
        yields = rng.uniform(0.0, 10 ** rng.uniform(-4, -0.3), T)
        path = DiscretePath(prices, yields * prices[1:], tail=DeclaredDivergent())
        dec = decompose(path)
        at = [t for t, _ in dec.diagnostics["partial_values"]]
        present, terminal = deflated_recursion_mp(path.prices, path.dividends, at)
        scale = 1e-12 * float(prices[0])
        for t, value in dec.diagnostics["partial_values"]:
            assert abs(value - present[t]) <= scale, (T, t)
        assert abs(dec.diagnostics["deflated_terminal_price"] - terminal) <= scale


@pytest.mark.parametrize(
    "tail", [GeometricYield(0.5, 0.5), PowerYield(1.0, 2.0), ZeroDividends()]
)
def test_convergent_tail_on_positive_path_is_a_bubble(tail):
    for yield_level, negligible in ((1e-3, False), (0.05, True), (2.0, True)):
        p = DiscretePath(np.ones(501), np.full(500, yield_level), tail=tail)
        dec = decompose(p)
        assert dec.verdict is Classification.BUBBLE
        assert not tvc_holds(p, implied_deflators(p))
        assert dec.diagnostics["boundary"] is negligible
        log_bubble = dec.diagnostics["log_bubble"]
        assert math.isfinite(log_bubble)
        assert dec.bubble == pytest.approx(math.exp(log_bubble), rel=1e-12, abs=1e-300)
    # a log-yield sum of 1000 log(3) ~ 1099: the linear bubble underflows
    p = DiscretePath(np.ones(1001), np.full(1000, 2.0), tail=tail)
    dec = decompose(p)
    assert dec.bubble == 0.0 and dec.verdict is Classification.BUBBLE
    assert dec.diagnostics["log_bubble"] <= -1000 * math.log(3.0)


def test_decompose_divergent_tail_has_no_log_bubble():
    dec = decompose(constant_path())
    assert dec.diagnostics["log_bubble"] is None
    assert dec.diagnostics["boundary"] is False


def test_interior_zero_price_keeps_no_bubble_verdict_and_tvc():
    p = DiscretePath(
        [1.0, 1.0, 0.0, 1.0, 1.0], [0.2, 0.5, 0.2, 0.2], tail=ZeroDividends()
    )
    dec = decompose(p)
    assert (dec.fundamental, dec.bubble) == (1.0, 0.0)
    assert dec.verdict is Classification.NO_BUBBLE
    assert dec.diagnostics["log_bubble"] is None
    assert tvc_holds(p, implied_deflators(p))


@pytest.mark.parametrize(
    "prices, dividends",
    [
        ([1.0, 1e-300, 1e-300], [1e10, 1e-301]),  # D_1 / P_1 past the double range
        ([1e300, 1e-10, 1e-10], [0.0, 1e-12]),  # P_0 / P_t past the double range
    ],
)
def test_deflators_stay_finite_where_ratios_overflow(prices, dividends):
    p = DiscretePath(prices, dividends, tail=DeclaredDivergent())
    d = implied_deflators(p)
    assert np.isfinite(d.log_q).all()
    assert check_no_arbitrage(p, d, tol=1e-12)
    _, terminal = deflated_recursion_mp(p.prices, p.dividends, [])
    oracle = math.log(terminal) - math.log(prices[-1])
    assert d.log_q[-1] == pytest.approx(oracle, rel=1e-12)


# ---------- ensemble ----------


def _manual_decomposition(price, fundamental, bubble):
    verdict = (
        Classification.BUBBLE if bubble > 1e-9 * price else Classification.NO_BUBBLE
    )
    from bubblekit import Decomposition

    return Decomposition(price, fundamental, bubble, verdict, {})


def test_ensemble_sums_of_zeros():
    parts = [_manual_decomposition(1.0, 1.0, 0.0)] * 3
    agg = ensemble_decompose(parts)
    assert (agg.price, agg.fundamental, agg.bubble) == (3.0, 3.0, 0.0)
    assert agg.verdict is Classification.NO_BUBBLE


def test_ensemble_additivity():
    parts = [
        _manual_decomposition(1.0, 0.9, 0.1),
        _manual_decomposition(1.0, 1.0, 0.0),
    ]
    agg = ensemble_decompose(parts)
    assert agg.bubble == pytest.approx(0.1, rel=1e-15)
    assert agg.verdict is Classification.BUBBLE


def test_ensemble_empty():
    with pytest.raises(EmptyEnsembleError):
        ensemble_decompose([])


def test_ensemble_boundary_flag():
    parts = [
        _manual_decomposition(1.0, 1.0 - 1e-12, 1e-12),
        _manual_decomposition(1.0, 1.0, 0.0),
    ]
    agg = ensemble_decompose(parts)
    assert agg.verdict is Classification.NO_BUBBLE
    assert agg.diagnostics["boundary"] is True


def test_ensemble_of_real_decompositions():
    parts = [decompose(constant_path(P=50 + i, D=2.0, T=80)) for i in range(10)]
    agg = ensemble_decompose(parts)
    assert agg.bubble == 0.0
    assert agg.verdict is Classification.NO_BUBBLE
    assert agg.price == pytest.approx(sum(50 + i for i in range(10)), rel=1e-15)


# ---------- reroot ----------


def test_reroot_constant_path_is_constant():
    p = constant_path(T=50)
    r = reroot(p, 20)
    assert r.horizon == 30
    dec = decompose(r)
    assert (dec.price, dec.fundamental, dec.bubble) == (100.0, 100.0, 0.0)


def test_reroot_drops_dividend_at_new_origin():
    p = constant_path(T=5)
    r = reroot(p, 2)
    assert r.dividends[0] == 0.0
    assert np.array_equal(r.prices, p.prices[2:])


def test_reroot_out_of_range():
    p = constant_path(T=5)
    with pytest.raises(OutOfRangeError):
        reroot(p, 5)
