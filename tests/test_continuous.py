import dataclasses
import math
import re
from itertools import product

import numpy as np
import pytest

from bubblekit import (
    Classification,
    ConstantYield,
    ContinuousPath,
    CumulativeDividend,
    GeometricYield,
    TailClass,
    ValidationError,
    ZeroDividends,
    MiaoWangScenario,
    decompose,
    deflated_price_profile,
    discretize,
    gen_miao_wang,
    implied_deflators,
    montrucchio_continuous,
)


def grid_path(
    horizon,
    h,
    price_fn=lambda t: np.ones_like(t),
    density_fn=lambda t: np.zeros_like(t),
    jumps=(),
    tail=None,
):
    n = int(round(horizon / h))
    t = np.arange(n + 1, dtype=float) * h
    return ContinuousPath(
        grid_step=h,
        prices=price_fn(t),
        dividends=CumulativeDividend(density=density_fn(t), jumps=jumps),
        tail=tail,
    )


def constant_flow_path(P=100.0, D=5.0, horizon=50.0, h=1e-3):
    return grid_path(
        horizon,
        h,
        price_fn=lambda t: np.full_like(t, P),
        density_fn=lambda t: np.full_like(t, D),
        tail=ConstantYield(D / P),
    )


def exp_density_path(horizon=20.0, h=1e-3):
    return grid_path(
        horizon,
        h,
        density_fn=lambda t: np.exp(-t),
        tail=GeometricYield(1.0, math.exp(-1.0)),
    )


# ---------- construction ----------


def test_rejects_nonpositive_prices():
    # the same words as a discrete path's: one helper forms them
    message = re.escape("price must be strictly positive (P_10 <= 0)")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        grid_path(1.0, 0.1, price_fn=lambda t: 1.0 - t)


def test_rejects_jump_at_origin_and_unsorted_jumps():
    with pytest.raises(ValidationError):
        grid_path(1.0, 0.1, jumps=((0.0, 1.0),))
    with pytest.raises(ValidationError):
        grid_path(1.0, 0.1, jumps=((0.5, 1.0), (0.3, 1.0)))


def test_rejects_jump_beyond_horizon():
    with pytest.raises(ValidationError):
        grid_path(1.0, 0.1, jumps=((2.0, 1.0),))


def test_rejects_a_grid_past_the_double_range():
    # 3 * 6e307 is inf: the horizon, and every time on the grid, must be finite
    with pytest.raises(ValidationError, match="pass the double range"):
        ContinuousPath(
            grid_step=6e307,
            prices=np.ones(4),
            dividends=CumulativeDividend(density=np.ones(4)),
        )


def test_rejects_density_grid_mismatch():
    with pytest.raises(ValidationError):
        ContinuousPath(
            grid_step=0.1,
            prices=np.ones(11),
            dividends=CumulativeDividend(density=np.ones(10)),
        )


# ---------- Stieltjes integral ----------


def integral(cpath, jump_price_side="right"):
    """The dF / P integral over the path's whole horizon, as the continuous
    classifier reports it (the tail plays no part in it)."""
    tailed = dataclasses.replace(cpath, tail=ZeroDividends())
    return montrucchio_continuous(tailed, jump_price_side).partial_sum


def truncated(cpath, T):
    """``cpath`` cut at the grid point nearest to T, with the jumps up to it."""
    k = round(T / cpath.grid_step)
    return ContinuousPath(
        grid_step=cpath.grid_step,
        prices=cpath.prices[: k + 1],
        dividends=CumulativeDividend(
            cpath.dividends.density[: k + 1],
            tuple(j for j in cpath.dividends.jumps if j[0] <= k * cpath.grid_step),
        ),
    )


def test_integral_constant_flow_is_linear():
    cpath = constant_flow_path(P=100.0, D=5.0, horizon=50.0, h=1e-2)
    for T in (1.0, 10.0, 50.0):
        assert integral(truncated(cpath, T)) == pytest.approx(
            5.0 * T / 100.0, rel=1e-12
        )


def test_integral_zero_density_no_jumps():
    cpath = grid_path(10.0, 1e-2)
    assert integral(cpath) == 0.0


def test_integral_exponential_density_closed_form():
    cpath = exp_density_path()
    assert cpath.horizon == 20.0
    assert integral(cpath) == pytest.approx(1.0 - math.exp(-20.0), abs=1e-6)


def test_integral_includes_jumps_divided_by_price():
    cpath = grid_path(
        10.0,
        1e-2,
        price_fn=lambda t: np.full_like(t, 4.0),
        jumps=((2.5, 1.0), (7.0, 2.0)),
    )
    assert integral(truncated(cpath, 2.0)) == 0.0
    # a jump at the horizon counts
    assert integral(truncated(cpath, 2.5)) == pytest.approx(0.25, rel=1e-15)
    assert integral(cpath) == pytest.approx(0.75, rel=1e-15)


def test_integral_monotone_in_horizon():
    cpath = exp_density_path(horizon=5.0, h=1e-2)
    values = [integral(truncated(cpath, T)) for T in np.linspace(0.05, 5.0, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_removing_a_jump_never_increases_the_integral():
    with_jump = grid_path(10.0, 1e-2, jumps=((3.0, 0.5),))
    without = grid_path(10.0, 1e-2)
    assert integral(with_jump) >= integral(without)


def test_integral_past_the_double_range_is_rejected():
    # a jump of 1e300 at a price of 1e-300 adds 1e600 to the dF / P sum
    cpath = grid_path(
        10.0, 1.0, price_fn=lambda t: np.full_like(t, 1e-300), jumps=((3.0, 1e300),)
    )
    with pytest.raises(ValidationError, match="dF / P sum leaves the double range"):
        integral(cpath)
    assert integral(truncated(cpath, 2.0)) == 0.0  # the path before the jump


# ---------- exponential identity ----------


def profile_at(cpath, T):
    """Both deflated-price routes at the grid point nearest to T."""
    log_lhs, log_rhs = deflated_price_profile(cpath)
    lhs, rhs = cpath.prices[0] * np.exp(log_lhs), cpath.prices[0] * np.exp(log_rhs)
    k = round(T / cpath.grid_step)
    return lhs[k], rhs[k]


def test_identity_without_dividends_is_exact():
    cpath = grid_path(10.0, 1e-2, price_fn=lambda t: np.full_like(t, 3.0))
    for T in (0.5, 5.0, 10.0):
        lhs, rhs = profile_at(cpath, T)
        assert lhs == rhs == 3.0


def test_identity_constant_flow_matches_exponential_solution():
    cpath = constant_flow_path(P=10.0, D=5.0, horizon=50.0, h=1e-3)
    lhs, rhs = profile_at(cpath, 50.0)
    exact = 10.0 * math.exp(-5.0 * 50.0 / 10.0)
    assert rhs == pytest.approx(exact, rel=1e-9)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_identity_single_jump_drops_by_exact_factor():
    # a jump of P (e-1)/e makes the deflated price fall to exactly 1/e
    factor = (math.e - 1.0) / math.e
    cpath = grid_path(
        4.0,
        1e-2,
        price_fn=lambda t: np.full_like(t, 2.0),
        jumps=((1.5, 2.0 * factor),),
    )
    lhs_before, rhs_before = profile_at(cpath, 1.0)
    assert lhs_before == rhs_before == 2.0
    lhs_after, rhs_after = profile_at(cpath, 4.0)
    assert rhs_after == pytest.approx(2.0 / math.e, rel=1e-12)
    assert lhs_after == pytest.approx(2.0 / math.e, rel=1e-12)
    assert integral(cpath) == pytest.approx(factor, rel=1e-15)


def test_identity_refinement_is_second_order():
    # halving the grid step shrinks the lhs/rhs gap by ~4x
    gaps = []
    for h in (1e-3, 5e-4):
        cpath = exp_density_path(horizon=20.0, h=h)
        lhs, rhs = profile_at(cpath, 20.0)
        gaps.append(abs(lhs - rhs) / rhs)
    assert gaps[0] <= 1e-6
    assert gaps[0] / gaps[1] >= 3.5


def test_identity_rejects_jump_larger_than_price():
    cpath = grid_path(2.0, 1e-2, jumps=((1.0, 1.5),))
    with pytest.raises(ValidationError):
        deflated_price_profile(cpath)


def test_jump_price_side_flag():
    prices = lambda t: 1.0 + t  # rising price: left/right samples differ off-grid
    cpath = grid_path(2.0, 0.5, price_fn=prices, jumps=((0.75, 0.5),))
    right = integral(cpath, jump_price_side="right")
    left = integral(cpath, jump_price_side="left")
    assert right == pytest.approx(0.5 / 2.0, rel=1e-12)  # sample at t=1.0
    assert left == pytest.approx(0.5 / 1.5, rel=1e-12)  # sample at t=0.5
    with pytest.raises(ValidationError):
        integral(cpath, jump_price_side="middle")


# ---------- classification ----------


def test_montrucchio_continuous_constant_flow_no_bubble():
    v = montrucchio_continuous(constant_flow_path(horizon=10.0, h=1e-2))
    assert v.classification is Classification.NO_BUBBLE
    assert v.tail_class is TailClass.DIVERGENT


def test_montrucchio_continuous_zero_dividends_bubble():
    cpath = grid_path(10.0, 1e-2, tail=ZeroDividends())
    v = montrucchio_continuous(cpath)
    assert v.classification is Classification.BUBBLE
    assert v.partial_sum == 0.0


def test_montrucchio_continuous_exponential_density_bubble():
    cpath = exp_density_path(horizon=20.0, h=1e-3)
    v = montrucchio_continuous(cpath)
    assert v.classification is Classification.BUBBLE
    # converging integral pins the deflated-price limit near exp(-1)
    lhs, rhs = profile_at(cpath, 20.0)
    assert rhs == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert lhs > 0


def test_montrucchio_continuous_requires_tail():
    with pytest.raises(ValidationError):
        montrucchio_continuous(grid_path(1.0, 0.1))


# ---------- discretization ----------


def test_discretize_constant_flow_step_one():
    cpath = constant_flow_path(P=100.0, D=5.0, horizon=30.0, h=1e-2)
    dpath = discretize(cpath, 1.0)
    assert dpath.horizon == 30
    assert np.allclose(dpath.prices, 100.0, rtol=1e-15)
    assert np.allclose(dpath.dividends[1:], 5.0, rtol=1e-12)
    dec = decompose(dpath)
    assert dec.verdict is Classification.NO_BUBBLE


def test_discretize_places_jump_in_right_closed_interval():
    cpath = grid_path(5.0, 1e-2, jumps=((2.5, 0.7),), tail=ZeroDividends())
    dpath = discretize(cpath, 1.0)
    expected = np.zeros(6)
    expected[3] = 0.7  # interval (2, 3]
    assert np.allclose(dpath.dividends, expected, atol=1e-15)


def test_discretize_exponential_density_interval_masses():
    cpath = exp_density_path(horizon=10.0, h=1e-3)
    dpath = discretize(cpath, 0.5)
    t = np.arange(1, 21, dtype=float) * 0.5
    closed_form = np.exp(-(t - 0.5)) - np.exp(-t)
    assert np.allclose(dpath.dividends[1:], closed_form, rtol=1e-6)
    # verdicts agree across the bridge
    assert (
        decompose(dpath).verdict
        is montrucchio_continuous(cpath).classification
    )


def test_discretize_rescales_tails_per_period():
    cpath = constant_flow_path(P=100.0, D=5.0, horizon=30.0, h=1e-2)
    dpath = discretize(cpath, 2.0)
    assert isinstance(dpath.tail, ConstantYield)
    assert dpath.tail.level == pytest.approx(0.1, rel=1e-12)
    gpath = discretize(exp_density_path(horizon=10.0, h=1e-2), 0.5)
    assert isinstance(gpath.tail, GeometricYield)
    assert gpath.tail.ratio == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_discretize_step_mismatch():
    cpath = constant_flow_path(horizon=10.0, h=1e-2)
    message = "step 0.015 is not a positive integer multiple of the grid step 0.01"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        discretize(cpath, 0.015)


def test_discretize_step_beyond_horizon():
    cpath = constant_flow_path(horizon=2.0, h=1e-2)
    with pytest.raises(ValidationError, match="^step exceeds the sampled horizon$"):
        discretize(cpath, 5.0)


def trapezoid_cells(values, h):
    """Per-cell trapezoid increments, for the ``math.fsum`` references."""
    return 0.5 * h * (values[:-1] + values[1:])


def miao_wang_grid(grid_step):
    for q, k, b, d in product(
        (0.5, 1.0, 2.0), (1.0, 2.0, 4.0), (0.0, 0.5, 5.0), (0.1, 0.2, 1.0)
    ):
        yield gen_miao_wang(
            MiaoWangScenario(
                marginal_q=q,
                capital=k,
                interpreted_component=b,
                dividend=d,
                grid_step=grid_step,
            )
        )


def test_grid_sums_equal_fsum_bit_for_bit():
    # the compensated cell sums are faithfully rounded; on these paths
    # they are also the correctly rounded fsum, so reports keep their bits
    jumpy = grid_path(
        20.0,
        1e-2,
        price_fn=lambda t: 2.0 + np.sin(t),
        density_fn=lambda t: 0.3 + 0.2 * np.cos(3 * t),
        jumps=((0.25, 0.1), (7.0, 0.2), (19.95, 0.05)),
    )
    for cpath in [*miao_wang_grid(1e-2), jumpy]:
        h = cpath.grid_step
        density, prices = cpath.dividends.density, cpath.prices
        cells = trapezoid_cells(density, h)
        for step in (0.1, 1.0):
            m = round(step / h)
            periods = cells.size // m
            expected = [math.fsum(cells[k * m : (k + 1) * m]) for k in range(periods)]
            for t, df in cpath.dividends.jumps:
                expected[math.ceil(t / step - 1e-9) - 1] += df
            assert discretize(cpath, step).dividends[1:].tolist() == expected
        yield_cells = trapezoid_cells(density / prices, h)
        for T in (cpath.horizon, cpath.horizon / 2, 1.0):
            expected = math.fsum(yield_cells[: round(T / h)])
            for t, df in cpath.dividends.jumps:
                if t <= T:
                    expected += df / prices[round(t / h)]
            assert integral(truncated(cpath, T)) == expected


def test_discretize_bias_is_first_order_in_the_step():
    # the discretized log-yield sum L_T = sum log(1 + D_t / P_t) falls
    # short of the continuous Lambda(T) = integral of d / P by a gap
    # proportional to the step: P_0 exp(-L_T) is 25.6%, 2.5% and 0.25%
    # above the path's deflated price at steps 1, 0.1 and 0.01
    cpath = gen_miao_wang(
        MiaoWangScenario(marginal_q=1.0, capital=10.0, interpreted_component=5.0, dividend=1.0)
    )
    assert cpath.grid_step == 1e-3
    _, log_rhs = deflated_price_profile(cpath, "right")
    lam = -log_rhs[-1]
    gaps = []
    for step in (1.0, 0.1, 0.01):
        dpath = discretize(cpath, step)
        assert dpath.horizon * step == pytest.approx(cpath.horizon)
        log_yield_sum = math.fsum(np.log1p(dpath.dividends[1:] / dpath.prices[1:]))
        gaps.append(lam - log_yield_sum)
    assert [math.expm1(gap) for gap in gaps] == pytest.approx(
        [0.2561, 0.02463, 0.002454], rel=1e-3
    )
    assert 8 < gaps[0] / gaps[1] < 12 and 8 < gaps[1] / gaps[2] < 12


# ---------- identity semantics of the array-holding dataclasses ----------


def test_paths_compare_and_hash_by_identity():
    cpath = constant_flow_path(horizon=2.0, h=0.5)
    dpath = discretize(cpath, 1.0)
    copy = dpath.with_tail(dpath.tail)
    deflators = implied_deflators(dpath)
    twin = grid_path(2.0, 0.5, density_fn=lambda t: np.full_like(t, 5.0))
    for obj, other in [
        (dpath, copy),
        (deflators, implied_deflators(dpath)),
        (cpath, twin),
        (cpath.dividends, twin.dividends),
    ]:
        assert (obj == obj) is True
        assert (obj == other) is False and obj != other
        assert hash(obj) == hash(obj)
        assert len({obj, other}) == 2
