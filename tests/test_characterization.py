import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblekit import (
    Classification,
    ConstantLevels,
    ConstantYield,
    DiscretePath,
    GeometricYield,
    PowerYield,
    TailClass,
    ValidationError,
    ZeroDividends,
    gen_constant,
    gen_money,
    montrucchio_discrete,
    suggest_tail,
)
from bubblekit.characterization import _line_fit, _yields

from oracles import least_squares_line


def test_yield_series_constant():
    ys = _yields(gen_constant(100, 5, 30))
    assert np.allclose(ys, 0.05, rtol=1e-15)
    assert ys.size == 30


def test_yield_series_zero_dividends():
    ys = _yields(gen_money(2.0, 10))
    assert np.all(ys == 0.0)


def test_yield_series_reports_first_bad_index():
    p = DiscretePath([1.0, 1.0, 1.0, 0.0, 1.0], [0.1, 0.1, 1.0, 0.1])
    message = re.escape("price must be strictly positive (P_3 <= 0)")
    for route in (_yields, suggest_tail):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            route(p)


def test_yield_series_partial_sum():
    v = montrucchio_discrete(gen_constant(100, 5, 40))
    assert v.partial_sum == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize(
    "prices, dividends",
    [
        ([1.0, 1e-300], [1e300]),  # D / P past the double range
        ([1.0, 1.0, 1.0], [1e308, 1e308]),  # finite yields summing past it
    ],
)
def test_partial_sum_past_the_double_range_is_none(prices, dividends):
    v = montrucchio_discrete(DiscretePath(prices, dividends, tail=ZeroDividends()))
    assert v.partial_sum is None
    assert v.classification is Classification.BUBBLE
    assert "leaves the double range" in v.rationale


def test_montrucchio_constant_no_bubble():
    v = montrucchio_discrete(gen_constant(100, 5, 50))
    assert v.classification is Classification.NO_BUBBLE
    assert v.tail_class is TailClass.DIVERGENT
    assert "diverge" in v.rationale


def test_montrucchio_money_bubble():
    v = montrucchio_discrete(gen_money(1.0, 50))
    assert v.classification is Classification.BUBBLE
    assert v.partial_sum == 0.0


def test_montrucchio_geometric_dividends_bubble():
    t = np.arange(1, 41, dtype=float)
    p = DiscretePath(
        np.ones(41), 0.5 * 0.5**t, tail=GeometricYield(0.5, 0.5)
    )
    v = montrucchio_discrete(p)
    assert v.classification is Classification.BUBBLE


def test_montrucchio_requires_tail():
    p = DiscretePath([1.0, 1.0], [0.5])
    with pytest.raises(ValidationError):
        montrucchio_discrete(p)


def test_montrucchio_verdict_is_scale_invariant():
    base = gen_constant(100, 5, 60)
    for lam in (0.001, 3.0, 1e6):
        scaled = DiscretePath(
            base.prices * lam, base.dividends[1:] * lam, tail=base.tail
        )
        assert (
            montrucchio_discrete(scaled).classification
            is montrucchio_discrete(base).classification
        )


def test_montrucchio_verdict_stable_under_consistent_extension():
    # appending periods consistent with the declared tail never flips it
    short = gen_constant(100, 5, 20)
    long = gen_constant(100, 5, 200)
    assert (
        montrucchio_discrete(short).classification
        is montrucchio_discrete(long).classification
    )
    t_short = np.arange(1, 21, dtype=float)
    t_long = np.arange(1, 201, dtype=float)
    gs = DiscretePath(np.ones(21), 0.3 * 0.6**t_short, tail=GeometricYield(0.3, 0.6))
    gl = DiscretePath(np.ones(201), 0.3 * 0.6**t_long, tail=GeometricYield(0.3, 0.6))
    assert (
        montrucchio_discrete(gs).classification
        is montrucchio_discrete(gl).classification
    )


def test_zero_yields_inside_sample_are_allowed():
    dividends = np.full(30, 5.0)
    dividends[::3] = 0.0
    p = DiscretePath(np.full(31, 100.0), dividends, tail=ConstantLevels(100, 5))
    v = montrucchio_discrete(p)
    assert v.classification is Classification.NO_BUBBLE


# ---------- tail-fit suggestion ----------


def test_suggest_constant_yield():
    fit = suggest_tail(gen_constant(100, 5, 100))
    assert isinstance(fit.suggestion, ConstantYield)
    assert fit.suggestion.level == pytest.approx(0.05, rel=1e-9)
    assert "constant-yield" in fit.candidates


def test_suggest_geometric_yield():
    t = np.arange(1, 121, dtype=float)
    p = DiscretePath(np.ones(121), 0.4 * 0.8**t)
    fit = suggest_tail(p)
    assert isinstance(fit.suggestion, GeometricYield)
    assert fit.suggestion.ratio == pytest.approx(0.8, rel=1e-6)
    assert fit.suggestion.coeff == pytest.approx(0.4, rel=1e-4)


def test_suggest_power_yield():
    t = np.arange(1, 201, dtype=float)
    p = DiscretePath(np.ones(201), t**-2.0)
    fit = suggest_tail(p)
    assert isinstance(fit.suggestion, PowerYield)
    assert fit.suggestion.exponent == pytest.approx(2.0, rel=1e-6)


def test_suggest_zero_dividends():
    fit = suggest_tail(gen_money(1.0, 50))
    assert isinstance(fit.suggestion, ZeroDividends)
    assert "zero" in fit.note


def test_suggest_reports_residuals_and_never_mutates_path():
    p = gen_constant(100, 5, 100)
    fit = suggest_tail(p)
    for entry in fit.candidates.values():
        assert entry["rmse"] >= 0.0
    assert p.tail == ConstantLevels(100, 5)  # suggestion is never applied


def test_suggest_insufficient_data():
    dividends = np.zeros(20)
    dividends[3] = 1.0  # a single positive yield, outside any fit's reach
    p = DiscretePath(np.ones(21), dividends)
    fit = suggest_tail(p)
    assert fit.suggestion is None or isinstance(fit.suggestion, ZeroDividends)


def test_suggest_huge_yields_take_logs_apart_and_drop_overflowing_fits():
    # D / P alternates between 1e600 (past the double range) and 1e300:
    # log y is log D - log P, and every fitted coefficient overflows
    dividends = [1e300 if t % 2 else 1.0 for t in range(1, 20)]
    p = DiscretePath(np.full(20, 1e-300), dividends)
    fit = suggest_tail(p)
    assert fit.suggestion is None and fit.candidates == {}
    assert "double range" in fit.note


def test_suggest_far_yield_enters_the_fit_as_its_log():
    # one yield of 1e310 (past the double range) among yields of 0.05
    prices, dividends = np.ones(21), np.full(20, 0.05)
    prices[17], dividends[16] = 1e-300, 1e10
    fit = suggest_tail(DiscretePath(prices, dividends))
    level = fit.candidates["constant-yield"]["model"].level
    expected = math.exp((7 * math.log(0.05) + 310 * math.log(10)) / 8)
    assert level == pytest.approx(expected, rel=1e-12)


# ---------- the closed-form line fit ----------


@st.composite
def line_data(draw):
    """A fit window of 3 to 2,000 dates at an offset up to 10^6, x = t or
    x = log t, and log-yields in [-700, 700]: exactly constant, exactly
    linear (dyadic steps on x = t), nearly linear, or scattered."""
    n = draw(st.integers(3, 2_000))
    offset = draw(st.integers(1, 10**6))
    t = np.arange(offset, offset + n, dtype=np.float64)
    x = draw(st.sampled_from([t, np.log(t)]))
    kind = draw(st.sampled_from(["constant", "linear", "near-linear", "scattered"]))
    y0 = draw(st.floats(-700, 700))
    if kind == "constant":
        y = np.full(n, y0)
    elif kind == "linear":
        # y0 + k 2^-30 (t - t_0), |k| <= 2^20, stays in [-700, 700]: every
        # value is exact, and so is the line
        y0 = round(min(max(y0, -698.0), 698.0) * 2**10) / 2**10
        step = draw(st.integers(-(2**20), 2**20)) / 2**30
        y = y0 + step * (t - t[0])
    elif kind == "near-linear":
        end = draw(st.floats(-700, 700))
        y = y0 + (end - y0) / (x[-1] - x[0]) * (x - x[0])
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        y = np.random.default_rng(seed).uniform(-700, 700, n)
    return x, y, kind


# a near-linear draw rising from 0 to 2.2e-309 over x = log t, t = 1105..1107:
# unscaled, every product dx * rise in the fit underflows
_x = np.log(np.arange(1105.0, 1108.0))
SUBNORMAL_RISES = (_x, 2.2e-309 / (_x[-1] - _x[0]) * (_x - _x[0]), "near-linear")

# the spacing of the subnormal doubles, 2^-1074
SUBNORMAL_SPACING = math.ldexp(1.0, -1074)

# a near-linear draw from 0 to 1e-320 over t = 10^6..10^6 + 299: the
# intercept's own rounding is ~10^5 times 1e-12 of its scale
_t = np.arange(1e6, 1e6 + 300)
SUBNORMAL_LOG_YIELDS = (_t, 1e-320 / (_t[-1] - _t[0]) * (_t - _t[0]), "near-linear")


def _fit_errors(x, y, slope, intercept, exact):
    """Slope and intercept errors against the exact line, each relative to
    the scale the data sets for it: max(|b|, spread) for the slope, with
    spread = range(y) / range(x), and for the intercept also |a|, |y_mean|
    and that slope scale times max |x| (a = y_mean - b x_mean)."""
    b, a = exact
    spread = (y.max() - y.min()) / (x.max() - x.min())
    slope_scale = max(abs(b), spread)
    intercept_scale = max(abs(a), abs(float(y.mean())), slope_scale * np.abs(x).max())
    return (
        abs(slope - b) / slope_scale if slope_scale else abs(slope - b),
        abs(intercept - a) / intercept_scale if intercept_scale else abs(intercept - a),
    )


@given(line_data())
@settings(max_examples=150, deadline=None)
@example((np.arange(999_998.0, 1_000_001.0), np.array([-700.0, 700.0, -700.0]), "scattered"))
@example((np.log(np.arange(1.0, 2_001.0)), np.full(2_000, 0.1), "constant"))
@example(SUBNORMAL_RISES)
@example(SUBNORMAL_LOG_YIELDS)
def test_line_fit_matches_the_exact_least_squares_line(data):
    x, y, kind = data
    exact = least_squares_line(x, y)
    rise = y - y[0]
    slope, intercept = _line_fit(x, rise, rise.mean(), y.mean())
    errors = _fit_errors(x, y, slope, intercept, exact)
    # log-yields this small put b, y_mean and b x_mean on the subnormal grid:
    # each rounds by up to half its spacing, and b's rounding reaches the
    # intercept times x_mean
    grid = SUBNORMAL_SPACING * (abs(float(x.mean())) + 4)
    assert errors[0] <= 1e-12, (errors, exact, slope, intercept)
    assert errors[1] <= 1e-12 or abs(intercept - exact[1]) <= grid, (
        errors, exact, slope, intercept
    )
    # no less accurate than np.polyfit, which the fit replaced: polyfit's
    # scaled Vandermonde solve loses up to ~1e-7 of the slope scale on short
    # windows far from x = 0, where centring loses nothing
    old = _fit_errors(x, y, *np.polyfit(x, y, 1), exact)
    eps = np.finfo(np.float64).eps
    assert errors[0] <= old[0] + 4 * eps
    assert errors[1] <= old[1] + 4 * eps or abs(intercept - exact[1]) <= grid
    if kind == "constant":
        assert slope == 0.0 and exact[0] == 0.0
        assert intercept == pytest.approx(y[0], rel=1e-15, abs=1e-300)


def test_suggest_tail_on_exactly_constant_log_yields_has_zero_slope():
    # yields 0.1, whose log-yield mean is inexact, and a window with a gap
    dividends = np.full(60, 0.1)
    dividends[52] = 0.0
    path = DiscretePath(np.ones(61), dividends)
    fit = suggest_tail(path)
    assert fit.suggestion.level == pytest.approx(0.1, rel=1e-15)
    assert "log-yield slope is approximately zero" in fit.note
    assert set(fit.candidates) == {"constant-yield"}
    t = np.arange(49.0, 61.0)[dividends[48:] > 0]
    log_y = np.log(dividends[t.astype(int) - 1])
    rise = log_y - log_y[0]
    for x in (t, np.log(t)):
        assert _line_fit(x, rise, rise.mean(), log_y.mean())[0] == 0.0


def test_suggest_geometric_fit_of_exact_data_is_exact():
    # alpha rho^t at unit price: the fitted ratio is rho to the last bit
    t = np.arange(1.0, 301.0)
    fit = suggest_tail(DiscretePath(np.ones(301), 0.5 * 0.55**t))
    assert fit.candidates["geometric-yield"]["model"].ratio == 0.55
    assert fit.candidates["geometric-yield"]["model"].coeff == pytest.approx(0.5, rel=1e-13)
