"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import math
import time
from itertools import product

import numpy as np

from bubblekit import (
    Classification,
    ConstantLevels,
    ConstantYield,
    DiscretePath,
    GeometricYield,
    MiaoWangScenario,
    PowerYield,
    decompose,
    deflated_price_identity,
    discretize,
    gen_miao_wang,
    gen_money,
    implied_deflators,
    montrucchio_continuous,
    montrucchio_discrete,
    suggest_tail,
)
from bubblekit.io import build_report
from bubblekit.numerics import compensated_cumsum

from oracles import limit_is_positive


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_constant_asset_replication():
    start = time.perf_counter()
    path = DiscretePath(
        np.full(501, 100.0), np.full(500, 5.0), tail=ConstantLevels(100.0, 5.0)
    )
    dec = decompose(path)
    elapsed = time.perf_counter() - start
    ok = (
        abs(dec.fundamental - 100.0) <= 1e-9 * 100.0
        and abs(dec.bubble) <= 1e-9 * 100.0
        and dec.verdict is Classification.NO_BUBBLE
        and elapsed < 0.1
    )
    _verdict(
        1,
        "constant-asset replication",
        ok,
        f"fundamental={dec.fundamental!r} bubble={dec.bubble!r} "
        f"verdict={dec.verdict.value} runtime={elapsed:.3f}s",
    )


def test_criterion_2_miao_wang_nonexistence_grid():
    start = time.perf_counter()
    grid = list(
        product((0.5, 1.0, 2.0), (1.0, 2.0, 4.0), (0.0, 0.5, 5.0), (0.1, 0.2, 1.0))
    )
    assert len(grid) == 81
    failures = []
    for marginal_q, capital, interpreted, dividend in grid:
        scenario = MiaoWangScenario(
            marginal_q=marginal_q,
            capital=capital,
            interpreted_component=interpreted,
            dividend=dividend,
        )
        cpath = gen_miao_wang(scenario)
        verdict = montrucchio_continuous(cpath)
        dpath = discretize(cpath, 1.0)
        dec = decompose(dpath)
        report = build_report(
            dec,
            dpath,
            suggest_tail(dpath),
            source_kind="continuous",
            interpreted_component=cpath.interpreted_component,
        )
        if not (
            verdict.classification is Classification.NO_BUBBLE
            and dec.verdict is Classification.NO_BUBBLE
            and abs(report["rational_bubble"]) <= 1e-9 * dec.price
            and report["interpreted_component"] == interpreted
        ):
            failures.append((marginal_q, capital, interpreted, dividend))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _verdict(
        2,
        "Miao-Wang nonexistence replication",
        ok,
        f"81 scenarios, failures={failures!r}, runtime={elapsed:.2f}s",
    )


def test_criterion_3_telescoping_identity_property():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(round(10 ** rng.uniform(1, 4)))
        prices = 10.0 ** rng.uniform(-3, 3, n + 1)
        yields = rng.uniform(0.0, 0.5, n)
        path = DiscretePath(prices, yields * prices[1:])
        deflators = implied_deflators(path)
        with np.errstate(divide="ignore"):
            terms = np.exp(deflators.log_q[1:] + np.log(path.dividends[1:]))
            deflated = np.exp(deflators.log_q + np.log(path.prices))
        partials = compensated_cumsum(terms)
        residuals = np.abs(prices[0] - partials - deflated[1:]) / prices[0]
        worst = max(worst, float(residuals.max()))
    ok = worst <= 1e-12
    _verdict(
        3,
        "telescoping identity",
        ok,
        f"1000 paths, max relative error {worst:.3e} (tolerance 1e-12)",
    )


def _identity_gap(cpath, T):
    lhs, rhs = deflated_price_identity(cpath, T)
    return abs(lhs - rhs) / rhs


def _smooth_test_paths(h):
    from bubblekit import ContinuousPath, CumulativeDividend

    def sampled(horizon, price_fn, density_fn, tail):
        t = np.arange(int(round(horizon / h)) + 1, dtype=float) * h
        return ContinuousPath(
            grid_step=h,
            prices=price_fn(t),
            dividends=CumulativeDividend(density=density_fn(t)),
            tail=tail,
        )

    constant = sampled(
        50.0,
        lambda t: np.full_like(t, 10.0),
        lambda t: np.full_like(t, 5.0),
        ConstantYield(0.5),
    )
    exponential = sampled(
        20.0,
        lambda t: np.ones_like(t),
        lambda t: np.exp(-t),
        GeometricYield(1.0, math.exp(-1.0)),
    )
    miao_wang = gen_miao_wang(
        MiaoWangScenario(
            marginal_q=1.0,
            capital=2.0,
            interpreted_component=0.5,
            dividend=0.2,
            grid_step=h,
        )
    )
    return [
        ("constant", constant, 50.0),
        ("exponential-density", exponential, 20.0),
        ("miao-wang", miao_wang, 100.0),
    ]


def test_criterion_4_exponential_identity_and_order():
    details = []
    ok = True
    coarse = _smooth_test_paths(1e-3)
    fine = _smooth_test_paths(5e-4)
    for (name, cpath, T), (_, cpath_fine, _) in zip(coarse, fine):
        gap = _identity_gap(cpath, T)
        gap_fine = _identity_gap(cpath_fine, T)
        ratio = gap / gap_fine
        details.append(f"{name}: gap={gap:.2e} refine-ratio={ratio:.2f}")
        ok = ok and gap <= 1e-6 and ratio >= 3.5
    _verdict(4, "exponential identity", ok, "; ".join(details))


def test_criterion_5_classifier_limit_equivalence():
    horizon = 10_000
    t = np.arange(1.0, horizon + 1)
    families = []
    for c in (0.01, 0.05, 0.2):
        families.append(
            (f"constant c={c}", np.full(horizon, c), ConstantYield(c))
        )
    for alpha in (0.1, 0.25, 0.5, 1.0, 2.0):
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            families.append(
                (
                    f"geometric a={alpha} r={rho}",
                    alpha * rho**t,
                    GeometricYield(alpha, rho),
                )
            )
    for p in (0.5, 1.0, 1.5, 2.0):
        families.append((f"power p={p}", t**-p, PowerYield(1.0, p)))

    disagreements = []
    for name, yields, tail in families:
        path = DiscretePath(np.ones(horizon + 1), yields, tail=tail)
        verdict = montrucchio_discrete(path).classification
        oracle_bubble = limit_is_positive(yields)
        if (verdict is Classification.BUBBLE) != oracle_bubble:
            disagreements.append(name)
        else:
            # the decomposition route must agree as well
            if decompose(path).verdict is not verdict:
                disagreements.append(name + " (decompose)")
    ok = not disagreements
    _verdict(
        5,
        "classifier/limit equivalence",
        ok,
        f"{len(families)} families, disagreements={disagreements!r}",
    )


def test_criterion_6_pure_bubble_exactness():
    results = []
    ok = True
    for price0 in (1e-6, 1.0, 1e6):
        dec = decompose(gen_money(price0, 500))
        exact = dec.fundamental == 0.0 and dec.bubble == price0
        ok = ok and exact
        results.append(f"P0={price0!r}: fundamental={dec.fundamental!r} "
                       f"bubble={dec.bubble!r}")
    _verdict(6, "pure-bubble exactness", ok, "; ".join(results))


def test_criterion_7_long_horizon_stability():
    start = time.perf_counter()
    path = DiscretePath(
        np.full(1_000_001, 100.0),
        np.full(1_000_000, 5.0),
        tail=ConstantLevels(100.0, 5.0),
    )
    deflators = implied_deflators(path)
    dec = decompose(path)
    elapsed = time.perf_counter() - start
    ok = (
        np.isfinite(deflators.log_q).all()
        and abs(dec.fundamental - 100.0) <= 1e-9 * 100.0
        and abs(dec.bubble) <= 1e-9 * 100.0
        and dec.verdict is Classification.NO_BUBBLE
        and elapsed < 2.0
    )
    _verdict(
        7,
        "long-horizon stability",
        ok,
        f"T_max=1e6 fundamental={dec.fundamental!r} bubble={dec.bubble!r} "
        f"runtime={elapsed:.2f}s log_q[-1]={deflators.log_q[-1]:.1f}",
    )
