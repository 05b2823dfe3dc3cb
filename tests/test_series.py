import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubblekit import (
    Classification,
    ConstantLevels,
    ConstantYield,
    DeclaredConvergent,
    DeclaredDivergent,
    Deflators,
    DiscretePath,
    GeometricYield,
    PowerYield,
    ValidationError,
    ZeroDividends,
    decompose,
    gen_convergent_yield,
    gen_money,
    implied_deflators,
    no_arbitrage_residuals,
    partial_value,
    telescoping_gaps,
)
from bubblekit.characterization import _yields
from bubblekit.series import _discrete_pass

from oracles import (
    deflated_recursion_mp,
    deflated_terminal_log,
    discrete_pass_ref,
    telescoping_gaps_ref,
)

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
        # the CSV writer relies on a path holding only finite values
        ([np.nan, 1.0], [0.5]),
        ([1.0, 1.0], [np.inf]),
        ([1.0, 1.0], [np.nan]),
    ],
)
def test_path_rejects_invalid_data(prices, dividends):
    with pytest.raises(ValidationError):
        DiscretePath(prices, dividends)


@pytest.mark.parametrize(
    "prices, dividends, message",
    [
        ([[1.0, 1.0]], [0.5], "prices must be one-dimensional"),
        ([1.0, 1.0], [[0.5]], "dividends must be one-dimensional"),
        ([1.0, 1.0, 1.0], [0.5], "dividends length 1 does not match 3"),
        ([1.0, 1.0, 0.0], [0.5, 0.0], "violated at t = 2"),
        # one reduction per bound finds a failure; the rules then run in order
        ([1.0, 1.0], [np.nan], "prices and dividends must be finite"),
        ([1.0, np.nan], [0.5], "prices and dividends must be finite"),
        ([1.0, -1.0], [np.inf], "prices and dividends must be finite"),
        ([1.0, -np.inf], [0.5], "prices and dividends must be finite"),
        ([1.0, -1.0], [-0.5], "negative price"),
        ([1.0, 1.0], [-0.5], "negative dividend"),
        ([1.0, -0.0, 0.0], [-0.0, 3.0], "P_t + D_t must be positive for t >= 1 (violated at t = 1)"),
    ],
)
def test_path_refusals_name_the_rule(prices, dividends, message):
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        DiscretePath(prices, dividends)
    assert type(info.value) is ValidationError


def test_minus_zero_prices_and_dividends_pass_the_sign_checks():
    p = DiscretePath([1.0, -0.0, 2.0], [-0.0, 3.0, -0.0])
    assert np.signbit(p.prices[1]) and np.signbit(p.dividends[2])
    # D / -0.0 is -inf; the log-yield sum takes that date apart in logs
    assert p._yields[0] == -np.inf
    dec = decompose(p.with_tail(ZeroDividends()))
    assert dec.bubble == 0.0 and dec.diagnostics["classifier"] is None


def test_path_yields_are_formed_once_and_read_only():
    prices = np.array([2.0, 1.0, 1.5, 1e-300])
    dividends = np.array([0.5, 0.25, 1e10])
    p = DiscretePath(prices, dividends)
    assert p._yields.tolist() == [0.5, 0.25 / 1.5, np.inf]
    assert not p._yields.flags.writeable
    assert _yields(p) is p._yields


def test_path_arrays_are_read_only():
    p = constant_path(T=3)
    with pytest.raises(ValueError):
        p.prices[0] = 7.0


def test_with_tail_shares_the_validated_arrays():
    p = DiscretePath([2.0, 1.0, 1.5], [0.5, 0.25])
    for tail in (ZeroDividends(), GeometricYield(0.5, 0.5), None):
        q = p.with_tail(tail)
        assert type(q) is DiscretePath and q.tail is tail
        assert q.prices is p.prices and q.dividends is p.dividends
        assert q._yields is p._yields
        assert not q.prices.flags.writeable and not q.dividends.flags.writeable
        assert q.horizon == 2 and list(q.dividends) == [0.0, 0.5, 0.25]
    assert p.tail is None
    with pytest.raises(ValueError):
        p.with_tail(ZeroDividends()).dividends[1] = 7.0


def test_path_built_directly_is_checked_and_copied():
    p = constant_path(T=3)
    q = DiscretePath(p.prices, p.dividends, tail=p.tail)
    assert q.prices is not p.prices and q.dividends is not p.dividends
    assert np.array_equal(q.prices, p.prices)
    with pytest.raises(ValidationError, match="negative price"):
        DiscretePath(-p.prices, p.dividends, tail=p.tail)


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
    with pytest.raises(ValidationError, match="^P_0 = 0: log deflators are undefined$"):
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
    assert no_arbitrage_residuals(p, implied_deflators(p)).max() <= 1e-12


def test_no_arbitrage_rejects_wrong_discount_ratio():
    p = constant_path(T=30)
    wrong = Deflators(np.concatenate(([0.0], np.log(2.0 ** -np.arange(1.0, 31.0)))))
    assert not no_arbitrage_residuals(p, wrong).max() <= 1e-9


def test_no_arbitrage_detects_single_perturbation():
    p = constant_path(T=30)
    log_q = implied_deflators(p).log_q.copy()
    log_q[17] += math.log1p(1e-3)
    assert not no_arbitrage_residuals(p, Deflators(log_q)).max() <= 1e-9
    assert no_arbitrage_residuals(p, Deflators(log_q)).max() <= 3e-3


def test_no_arbitrage_horizon_mismatch():
    p = constant_path(T=30)
    d = implied_deflators(constant_path(T=29))
    with pytest.raises(ValidationError, match="^path horizon 30 != deflator horizon 29$"):
        no_arbitrage_residuals(p, d)


NORMAL_AT_EVERY_SCALE = st.floats(1e-3, 1e3)  # stays normal times 2^k, |k| <= 1000


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(NORMAL_AT_EVERY_SCALE, st.just(0.0) | NORMAL_AT_EVERY_SCALE),
        min_size=2,
        max_size=12,
    ),
    st.integers(-1000, 1000),
)
@example([(100.0, 0.0)] + [(100.0, 5.0)] * 5, 900)
@example([(100.0, 0.0)] + [(100.0, 5.0)] * 5, -1060)  # every value an exact subnormal
# P + D past the double range at 2^0, not at 2^-2 or 2^-3
@example([(1e308, 0.0), (1e308, 1e308)], -2)
@example([(1.3e308, 0.0), (1.1e308, 0.9e308), (1.7e308, 0.4e308), (1e300, 3.0)], -3)
def test_no_arbitrage_residuals_are_scale_free(rows, k):
    def residuals(k):
        p = DiscretePath(
            [math.ldexp(price, k) for price, _ in rows],
            [math.ldexp(dividend, k) for _, dividend in rows[1:]],
        )
        return no_arbitrage_residuals(p, implied_deflators(p))

    assert residuals(k).tobytes() == residuals(0).tobytes()


def test_no_arbitrage_residuals_where_values_are_zero_or_past_the_double_range():
    p = DiscretePath([1.0, 2.0, 0.0, 0.0, 3.0], [0.5, 1.0, 1.0, 0.2])
    # from the zero price on, both sides of the recursion are exactly zero
    assert (no_arbitrage_residuals(p, implied_deflators(p))[2:] == 0.0).all()
    for prices, dividends in [
        ([1e-300, 1e300, 1.0], [1e300, 1e-300]),  # ratios past the double range
        ([1e308, 1e308, 1.0], [1e308, 1.0]),  # P + D past it, its ratio 2
        ([1.0, 1.7e308, 1.0], [1.7e308, 1.0]),  # P + D and the ratio past it
        ([math.ldexp(5, -1074), 1.7e308, 1.0], [1.7e308, 1.0]),  # P_t inexact halved
        ([1e-300, 1e300, -0.0, 1.0], [1.0, 1.0, 1.0]),  # and a price -0.0 after it
    ]:
        p = DiscretePath(prices, dividends)
        assert no_arbitrage_residuals(p, implied_deflators(p)).max() <= 1e-12


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
    with pytest.raises(ValidationError, match=re.escape(f"T = {T} outside [1, 500]")):
        partial_value(p, d, T)


def test_fundamental_constant_equals_price():
    p = constant_path()
    assert decompose(p).fundamental == 100.0


def test_fundamental_zero_dividends_is_exactly_zero():
    p = gen_money(1.0, 300)
    assert decompose(p).fundamental == 0.0


def test_fundamental_geometric_tail_product_oracle():
    p = geometric_dividend_path()
    assert decompose(p).fundamental == pytest.approx(
        1.0 - PRODUCT_BUBBLE_HALF_HALF, rel=1e-12
    )
    assert decompose(p).bubble == pytest.approx(
        PRODUCT_BUBBLE_HALF_HALF, rel=1e-12
    )


def test_bubble_does_not_depend_on_sampled_horizon():
    values = [
        decompose(geometric_dividend_path(T=T)).bubble
        for T in (10, 50, 200)
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-13)
    assert values[1] == pytest.approx(values[2], rel=1e-13)


def test_fundamental_requires_declared_tail():
    p = DiscretePath([1.0, 1.0], [0.5])
    with pytest.raises(ValidationError, match="tail"):
        decompose(p).fundamental


@pytest.mark.parametrize("tail", ["x", 0.1, ConstantYield])
def test_decompose_refuses_a_tail_that_is_no_tail_model(tail):
    # once an AttributeError (exit 1) from reading the tail's log-sum
    p = DiscretePath(np.ones(3), np.zeros(2), tail=tail)
    with pytest.raises(ValidationError, match=re.escape(f"unrecognized tail model: {tail!r}")):
        decompose(p)


def test_declared_convergent_tail_sum_is_added():
    p = constant_path(T=10, tail=DeclaredConvergent(0.0))
    base = decompose(p).fundamental
    p2 = p.with_tail(DeclaredConvergent(1.25))
    assert decompose(p2).fundamental == pytest.approx(base + 1.25, rel=1e-15)


# ---------- bubble / tvc ----------


def test_bubble_constant_is_zero():
    p = constant_path()
    assert decompose(p).bubble == 0.0


def test_bubble_pure_money():
    p = gen_money(1.0, 200)
    assert decompose(p).bubble == 1.0


def test_tvc_examples():
    const = constant_path()
    money = gen_money(1.0, 200)
    geom = geometric_dividend_path()
    assert decompose(const).verdict is Classification.NO_BUBBLE
    assert decompose(money).verdict is Classification.BUBBLE
    assert decompose(geom).verdict is Classification.BUBBLE


def test_bubble_matches_direct_recursion_oracle():
    # direct recursion at a long horizon, independent of the tail rules
    p = geometric_dividend_path(T=2000)
    b = decompose(p).bubble
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


def test_declared_zero_tail_value_on_a_sub_threshold_bubble_is_inconsistent():
    # L_T = 30 leaves a bubble of e^-30 P_0, below EPS_BUBBLE * P_0: a bubble
    # flagged boundary under zero dividends, but a declared-convergent tail
    # states a positive bubble above the threshold, even with a zero value
    p = DiscretePath(np.ones(31), np.full(30, math.e - 1.0), tail=ZeroDividends())
    dec = decompose(p)
    assert dec.verdict is Classification.BUBBLE
    assert dec.diagnostics["boundary"] is True
    with pytest.raises(ValidationError, match="inconsistent"):
        decompose(p.with_tail(DeclaredConvergent(0.0)))


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
        assert dec.verdict is Classification.BUBBLE  # the transversality condition fails
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
    assert decompose(p).verdict is Classification.NO_BUBBLE


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
    assert no_arbitrage_residuals(p, d).max() <= 1e-12
    _, terminal = deflated_recursion_mp(p.prices, p.dividends, [])
    oracle = math.log(terminal) - math.log(prices[-1])
    assert d.log_q[-1] == pytest.approx(oracle, rel=1e-12)


# ---------- the one discrete pass against the separate routes ----------

# zeros (interior zero prices, zero dividends), subnormals, the edges of
# the normal range, and values whose yield or P + D is past the double range
EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0,
     1e300, 8.98846567431158e307, 1.7976931348623157e308]
)
PASS_VALUES = st.one_of(EDGE_VALUES, st.floats(0.0, 1.7976931348623157e308), st.floats(0.5, 2.0))


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    st.lists(PASS_VALUES, min_size=2, max_size=12),
    st.one_of(st.none(), st.lists(PASS_VALUES, min_size=11, max_size=11)),
    st.sampled_from([0, 0, 0, 1, -1, 60, -60, 600, -600, 1000, -1074]),
)
@example([1.0, 0.0, 2.0, 0.0, 5.0], [0.0, 1.0, 1.0, 3.0] + [0.0] * 7, 0)  # zero prices
@example([2.0, 2.0, 2.0], None, 0)  # money: every D / P_0 takes log_ratio's repair
@example([1.0, 1e-300, 1.0], [1e300, 1.0] + [0.0] * 9, 0)  # D / P past the double range
@example([1.0, 1.7e308, 1.0], [1.7e308, 1.0] + [0.0] * 9, 0)  # P + D past it
@example([0.5, 1.0], [1.7e308] + [0.0] * 10, 0)  # (P_1 + D_1) / P_0 past it
@example([1.0, 1.7e308, 1.0], [1.7e308, 1.0] + [0.0] * 9, -1074)  # scaled to subnormals
@example([1e300, 1e-10, 1e-10], [0.0, 1e-12] + [0.0] * 9, 0)  # P_0 / P_t past it
@example([5e-324, 1e-310, 5e-324], [5e-324, 0.0] + [0.0] * 9, 0)  # subnormal path
def test_the_discrete_pass_equals_the_separate_routes_bit_for_bit(prices, dividends, k):
    # the fused pass against the routes the CSV identity and decompose's
    # residual took before it (oracles.discrete_pass_ref): L, log q, the
    # residuals and the telescoping gaps, bit for bit; dividends=None is a
    # money path, and k scales the path by 2^k
    T = len(prices) - 1
    dividends = [0.0] * T if dividends is None else dividends[:T]
    with np.errstate(over="ignore"):  # a path scaled past the double range is refused
        scaled = [np.ldexp(np.array(values, dtype=np.float64), k) for values in (prices, dividends)]
    assume(scaled[0][0] != 0.0)
    try:
        path = DiscretePath(*scaled, tail=ZeroDividends())
    except ValidationError:
        assume(False)
    log_yield, log_q, residuals = discrete_pass_ref(path)
    with np.errstate(all="ignore"):
        got = _discrete_pass(path)
    assert same_bits(got.log_yield, log_yield)
    assert same_bits(got.log_q, log_q)
    assert same_bits(got.residual, residuals.max())
    deflators = implied_deflators(path)
    assert same_bits(deflators.log_q, log_q)
    assert same_bits(no_arbitrage_residuals(path, deflators), residuals)
    assert same_bits(telescoping_gaps(path), telescoping_gaps_ref(path))
    residual = decompose(path).diagnostics["no_arbitrage_residual_max"]
    assert same_bits(residual, residuals.max())


# ---------- a bubble across assets ----------


def test_a_bubble_far_below_the_threshold_keeps_its_verdict():
    # B_0 = 4.1e-36, far below EPS_BUBBLE * P_0, is still a bubble
    dec = decompose(gen_convergent_yield(1.0, 0.99, 500))
    assert dec.verdict is Classification.BUBBLE
    assert dec.diagnostics["log_bubble"] == pytest.approx(-81.49, abs=0.01)
    assert dec.diagnostics["boundary"] is True


def test_assets_without_a_bubble_sum_to_no_bubble():
    # a bubble across assets is the sum of the assets' bubbles (Santos &
    # Woodford 1997): here each one is zero
    parts = [decompose(constant_path(P=50 + i, D=2.0, T=80)) for i in range(10)]
    assert all(d.verdict is Classification.NO_BUBBLE for d in parts)
    assert math.fsum(d.bubble for d in parts) == 0.0
    assert math.fsum(d.price for d in parts) == pytest.approx(
        sum(50 + i for i in range(10)), rel=1e-15
    )
