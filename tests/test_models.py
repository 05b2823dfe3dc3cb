import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bubblekit import (
    Classification,
    ConstantYield,
    Deflators,
    MiaoWangScenario,
    ValidationError,
    decompose,
    discretize,
    gen_constant,
    gen_convergent_yield,
    gen_gordon,
    gen_miao_wang,
    gen_money,
    implied_deflators,
    montrucchio_continuous,
    no_arbitrage_residuals,
)

from oracles import product_bubble


def small_scenario(**overrides):
    params = dict(
        marginal_q=1.0,
        capital=2.0,
        interpreted_component=0.5,
        dividend=0.2,
        horizon=50.0,
        grid_step=1e-2,
    )
    params.update(overrides)
    return MiaoWangScenario(**params)


# ---------- money ----------


@pytest.mark.parametrize("P0", [1.0, 7.0, 1e-6, 1e6])
def test_money_is_pure_bubble(P0):
    dec = decompose(gen_money(P0, 120))
    assert dec.fundamental == 0.0
    assert dec.bubble == P0
    assert dec.verdict is Classification.BUBBLE


def test_money_violates_tvc():
    p = gen_money(2.5, 80)
    assert decompose(p).verdict is Classification.BUBBLE


# ---------- constant ----------


def test_constant_decomposition_and_rate():
    p = gen_constant(100, 5, 200)
    dec = decompose(p)
    assert (dec.price, dec.fundamental, dec.bubble) == (100.0, 100.0, 0.0)
    assert dec.verdict is Classification.NO_BUBBLE
    # implied gross rate (P+D)/P shows up as the one-period deflator
    q1 = math.exp(implied_deflators(p).log_q[1])
    assert 1.0 / q1 == pytest.approx(105.0 / 100.0, rel=1e-15)


def test_constant_unit_case():
    dec = decompose(gen_constant(1, 1, 100))
    assert dec.fundamental == 1.0  # D / (R - 1) = 1 / (2 - 1)
    assert dec.verdict is Classification.NO_BUBBLE


# ---------- gordon ----------


def test_gordon_price_level_against_present_value_oracle():
    p = gen_gordon(1.0, 1.02, 1.05, 100)
    assert p.prices[0] == pytest.approx(34.0, rel=1e-12)
    # brute-force PV of 1e4 dividends at rate R
    t = np.arange(1, 10_001, dtype=float)
    pv = math.fsum(1.05**-t * 1.02**t)
    assert p.prices[0] == pytest.approx(pv, rel=1e-9)


def test_gordon_yield_is_constant_and_verdict_no_bubble():
    p = gen_gordon(1.0, 1.02, 1.05, 300)
    yields = p.dividends[1:] / p.prices[1:]
    assert np.allclose(yields, 0.03 / 1.02, rtol=1e-12)
    assert decompose(p).verdict is Classification.NO_BUBBLE


def test_gordon_near_degenerate_growth_is_still_no_bubble():
    # price blows up like 1/eps but a high price is not a bubble
    p = gen_gordon(1.0, 1.05 - 1e-7, 1.05, 50)
    assert p.prices[0] > 1e6
    assert decompose(p).verdict is Classification.NO_BUBBLE


def test_gordon_analytic_deflators_pass_no_arbitrage():
    p = gen_gordon(1.0, 1.02, 1.05, 200)
    analytic = Deflators(-np.arange(201, dtype=float) * math.log(1.05))
    assert no_arbitrage_residuals(p, analytic).max() <= 1e-9


def _gordon_direct(D0, g, R, T_max):
    """P_t = D0 g g^t / (R - g) and D_t = D0 g^t with the bare factor g^t:
    0 or inf where g^t or an intermediate product leaves the double range."""
    t = np.arange(T_max + 1, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        growth = g**t
        return D0 * g * growth / (R - g), D0 * growth[1:]


@pytest.mark.parametrize(
    "D0, g, R, T_max, reformed",
    [
        (1e-300, 2.0, 3.0, 1500, True),  # g^t is inf from t = 1024
        (1e300, 0.5, 3.0, 1500, True),  # g^t underflows to 0 from t = 1075
        (1.0, 2.0, 1e10, 1023, True),  # D0 g g^T overflows before / (R - g)
        (1.0, 1.02, 1.05, 300, False),  # nothing leaves the range
    ],
)
def test_gordon_entries_past_a_factors_range_come_from_logs(D0, g, R, T_max, reformed):
    p = gen_gordon(D0, g, R, T_max)
    assert np.all(np.isfinite(p.prices)) and np.all(p.prices > 0)
    assert np.all(np.isfinite(p.dividends[1:])) and np.all(p.dividends[1:] > 0)
    direct_prices, direct_dividends = _gordon_direct(D0, g, R, T_max)
    logs = 0
    with mp.workdps(30):
        d0, gg, rr = (mp.mpf(repr(v)) for v in (D0, g, R))
        for got, direct, scale in (
            (p.prices, direct_prices, 1 / (rr - gg)),
            (p.dividends[1:], direct_dividends, 1),
        ):
            kept = np.isfinite(direct) & (direct != 0.0)
            # every entry the bare factor gives keeps its bits
            np.testing.assert_array_equal(got[kept], direct[kept])
            for k in np.flatnonzero(~kept):
                exact = d0 * gg ** (int(k) + 1) * scale
                assert got[k] == pytest.approx(float(exact), rel=1e-12)
                logs += 1
    assert (logs > 0) is reformed


@pytest.mark.parametrize("g, R", [(1.05, 1.05), (1.2, 1.05), (1.02, 0.99)])
def test_gordon_parameter_order(g, R):
    message = "a finite gross discount rate R > 1" if R < 1 else "growth 0 < g < R"
    with pytest.raises(ValidationError, match=f"^gordon needs {message}$"):
        gen_gordon(1.0, g, R, 10)


# ---------- convergent yield ----------


def test_convergent_yield_bubble_matches_product_oracle():
    dec = decompose(gen_convergent_yield(0.5, 0.5, 80))
    assert dec.verdict is Classification.BUBBLE
    assert dec.bubble == pytest.approx(product_bubble(0.5, 0.5), rel=1e-12)


def test_convergent_yield_dividendless_limit():
    dec = decompose(gen_convergent_yield(1e-9, 0.5, 60))
    assert dec.bubble == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
def test_convergent_yield_grid_agrees_with_oracle(alpha, rho):
    dec = decompose(gen_convergent_yield(alpha, rho, 120))
    assert dec.verdict is Classification.BUBBLE
    assert dec.bubble == pytest.approx(product_bubble(alpha, rho), rel=1e-11)


def test_convergent_yield_parameter_validation():
    with pytest.raises(ValidationError):
        gen_convergent_yield(-1.0, 0.5, 10)
    with pytest.raises(ValidationError):
        gen_convergent_yield(0.5, 1.0, 10)


# ---------- miao-wang ----------


def test_miao_wang_steady_state_price():
    s = small_scenario()
    assert s.steady_price == 2.5
    cpath = gen_miao_wang(s)
    assert cpath.prices[-1] == pytest.approx(2.5, rel=1e-12)
    assert cpath.dividends.density[-1] == pytest.approx(0.2, rel=1e-12)
    assert cpath.interpreted_component == 0.5


def test_miao_wang_classifies_no_bubble_with_zero_rational_bubble():
    cpath = gen_miao_wang(small_scenario())
    assert montrucchio_continuous(cpath).classification is Classification.NO_BUBBLE
    dec = decompose(discretize(cpath, 1.0))
    assert dec.bubble == 0.0
    assert dec.verdict is Classification.NO_BUBBLE


def test_miao_wang_verdict_invariant_in_interpreted_component():
    for bmw in (0.0, 0.5, 5.0, 20.0):  # up to 10 * marginal_q * capital
        cpath = gen_miao_wang(small_scenario(interpreted_component=bmw))
        assert (
            montrucchio_continuous(cpath).classification
            is Classification.NO_BUBBLE
        )
        assert decompose(discretize(cpath, 1.0)).bubble == 0.0


def test_miao_wang_both_steady_states_price_at_fundamentals():
    with_component = gen_miao_wang(small_scenario(interpreted_component=0.5))
    without = gen_miao_wang(small_scenario(interpreted_component=0.0))
    for cpath in (with_component, without):
        dec = decompose(discretize(cpath, 1.0))
        assert dec.fundamental == dec.price


def test_miao_wang_fast_convergence_reduces_to_constant_case():
    cpath = gen_miao_wang(small_scenario(rate=200.0))
    dpath = discretize(cpath, 1.0)
    assert np.allclose(dpath.prices[1:], 2.5, rtol=1e-12)
    assert np.allclose(dpath.dividends[2:], 0.2, rtol=1e-12)
    assert decompose(dpath).verdict is Classification.NO_BUBBLE


def test_miao_wang_discretized_path_satisfies_no_arbitrage():
    cpath = gen_miao_wang(small_scenario())
    dpath = discretize(cpath, 0.5)
    assert no_arbitrage_residuals(dpath, implied_deflators(dpath)).max() <= 1e-12


def test_miao_wang_tail_is_steady_state_yield():
    cpath = gen_miao_wang(small_scenario())
    assert isinstance(cpath.tail, ConstantYield)
    assert cpath.tail.level == pytest.approx(0.08, rel=1e-12)


def test_miao_wang_custom_initial_conditions():
    s = small_scenario(initial_price=2.0, initial_dividend=0.0)
    cpath = gen_miao_wang(s)
    assert cpath.prices[0] == 2.0
    assert cpath.dividends.density[0] == 0.0


def test_miao_wang_scenario_validation():
    with pytest.raises(ValidationError):
        small_scenario(dividend=0.0)
    with pytest.raises(ValidationError):
        small_scenario(marginal_q=-1.0)
    with pytest.raises(ValidationError):
        small_scenario(interpreted_component=-0.5)
    # Q K underflows to 0 (the yield D / P was a ZeroDivisionError), or
    # overflows
    for q, k in ((5e-324, 5e-324), (1e308, 10.0)):
        with pytest.raises(ValidationError, match="steady-state price"):
            small_scenario(marginal_q=q, capital=k, interpreted_component=0.0)


def test_miao_wang_rate_times_time_past_the_double_range_has_relaxed():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cpath = gen_miao_wang(small_scenario(rate=1e308, horizon=4.0, grid_step=1.0))
    assert list(cpath.prices) == [1.25, 2.5, 2.5, 2.5, 2.5]


def test_generated_discrete_paths_satisfy_no_arbitrage():
    for p in (
        gen_money(1.0, 100),
        gen_constant(100, 5, 100),
        gen_gordon(1.0, 1.02, 1.05, 100),
        gen_convergent_yield(0.5, 0.5, 100),
    ):
        assert no_arbitrage_residuals(p, implied_deflators(p)).max() <= 1e-12


def test_hundred_firm_ensemble_has_no_aggregate_bubble():
    # a bubble across firms is the sum of the firms' bubbles (Santos &
    # Woodford 1997), and no firm has one
    rng = np.random.default_rng(11)
    parts = []
    for _ in range(100):
        s = small_scenario(
            marginal_q=float(rng.uniform(0.5, 2.0)),
            capital=float(rng.uniform(1.0, 4.0)),
            interpreted_component=float(rng.uniform(0.0, 5.0)),
            dividend=float(rng.uniform(0.1, 1.0)),
        )
        parts.append(decompose(discretize(gen_miao_wang(s), 1.0)))
    assert all(p.verdict is Classification.NO_BUBBLE for p in parts)
    assert all(p.diagnostics["log_bubble"] is None for p in parts)
    assert math.fsum(p.bubble for p in parts) == 0.0
    assert math.fsum(p.fundamental for p in parts) == pytest.approx(
        math.fsum(p.price for p in parts), rel=1e-15
    )
