"""Independent checks of the program's outputs.

Every expected value here is computed apart from bubblekit: closed forms of
the document families, a ``math.fsum`` recursion of the log dividend yields
``L_t = sum_{s<=t} log1p(D_s / P_s)`` (so ``q_t P_t = P_0 exp(-L_t)`` and the
present value of the first t dividends is ``P_0 (1 - exp(-L_t))``), the
telescoping property ``P_0 = PV_T + q_T P_T``, and the Miao-Wang yield
integral in closed form.  Reports must parse as strict JSON.

Each function returns one outcome per operation: ``"ok"``, ``"fault-a"`` or
``"fault-b"`` (an operation hit by a known program fault, counted as
failed), or a message saying what is wrong (the output is incorrect).
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from workloads import ContinuousDoc, DiscreteDoc, Op

OK, FAULT_A, FAULT_B = "ok", "fault-a", "fault-b"
PV_RTOL = 1e-9  # discrete present values, relative to P_0
TOL_DEFAULT = 1e-9  # the CLI's default no-arbitrage tolerance


class Mismatch(Exception):
    pass


def strict_json(text: str) -> Any:
    def reject(name: str):
        raise ValueError(f"non-finite number {name} is not JSON")

    return json.loads(text, parse_constant=reject)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(got: Any, want: float, rtol: float, atol: float, what: str) -> None:
    ok = isinstance(got, (int, float)) and not isinstance(got, bool) and math.isfinite(got)
    ok = ok and abs(got - want) <= atol + rtol * abs(want)
    expect(ok, f"{what}: got {got!r}, want {want!r}")


def checkpoints(T: int) -> list[int]:
    return sorted({max(1, T // 4), max(1, T // 2), T})


def log_yield_sums(prices: list[float], dividends: list[float], at: list[int]) -> dict[int, float]:
    """fsum of log1p(D_s / P_s), s = 1..t, for each t in ``at``."""
    P = np.asarray(prices)
    D = np.asarray(dividends)
    terms = np.log1p(D[1:] / P[1:]).tolist()
    return {t: math.fsum(terms[:t]) for t in at}


def infinite_geometric_log_sum(alpha: float, rho: float, start: int) -> float:
    """sum_{t >= start} log1p(alpha rho^t), summed until terms vanish."""
    terms, t = [], start
    while True:
        y = alpha * rho**t
        if y < 1e-30:
            return math.fsum(terms)
        terms.append(math.log1p(y))
        t += 1


# ---------- discrete analysis reports ----------


def expected_discrete(doc: DiscreteDoc) -> dict[str, Any]:
    """Verdict, fundamental, bubble and tail kind from the family's closed form."""
    P0 = doc.prices[0]
    p = doc.params
    suggested = {"constant": "constant-yield", "gordon": "constant-yield",
                 "money": "zero-dividends", "geometric": "geometric-yield"}
    declared = None if doc.embedded is None else doc.embedded.partition(":")[0]
    out = {"tail_kind": declared or suggested.get(doc.family),
           "tail_source": "embedded" if doc.embedded else "suggested"}
    T = len(doc.prices) - 1
    if doc.family in ("random", "constant", "gordon"):
        out.update(verdict="no-bubble", fundamental=P0, bubble=0.0)
    elif doc.family == "money":
        out.update(verdict="bubble", fundamental=0.0, bubble=P0)
    else:
        bubble = math.exp(-infinite_geometric_log_sum(p["alpha"], p["rho"], 1))
        out.update(verdict="bubble", fundamental=P0 - bubble, bubble=bubble)
    # closed-form present values of the first t dividends
    if doc.family == "constant":
        disc = math.log(p["P"] / (p["P"] + p["D"]))
        out["pv"] = lambda t: p["P"] * -math.expm1(t * disc)
    elif doc.family == "gordon":
        x0 = p["D0"] * p["g"] / (p["R"] - p["g"])
        out["pv"] = lambda t: x0 * -math.expm1(t * math.log(p["g"] / p["R"]))
    elif doc.family == "money":
        out["pv"] = lambda t: 0.0
    elif doc.family == "geometric":
        out["pv"] = lambda t: -math.expm1(
            -math.fsum(math.log1p(p["alpha"] * p["rho"] ** s) for s in range(1, t + 1)))
    out["T"] = T
    return out


def check_discrete_report(rep: dict[str, Any], doc: DiscreteDoc) -> None:
    exp = expected_discrete(doc)
    T = exp["T"]
    P0 = doc.prices[0]
    inp, dec, diag = rep["input"], rep["decomposition"], rep["diagnostics"]
    expect(inp["kind"] == "discrete" and inp["length"] == T + 1 and inp["horizon"] == T,
           f"input {inp!r} does not describe a {T}-period path")
    expect(inp["tail"] is not None and inp["tail"]["kind"] == exp["tail_kind"],
           f"tail {inp['tail']!r}, want kind {exp['tail_kind']}")
    expect(rep["config"]["tail_source"] == exp["tail_source"],
           f"tail_source {rep['config']['tail_source']!r}, want {exp['tail_source']}")
    expect(dec["verdict"] == exp["verdict"], f"verdict {dec['verdict']!r}, want {exp['verdict']}")
    expect(dec["price"] == P0, f"price {dec['price']!r}, want {P0!r}")
    close(dec["fundamental"], exp["fundamental"], PV_RTOL, 1e-12 * P0, "fundamental")
    close(dec["bubble"], exp["bubble"], PV_RTOL, 1e-12 * P0, "bubble")
    expect(rep["rational_bubble"] == dec["bubble"], "rational_bubble differs from the bubble")
    close(dec["fundamental"] + dec["bubble"], P0, 1e-15, 0.0, "fundamental + bubble")

    at = checkpoints(T)
    L = log_yield_sums(doc.prices, doc.dividends, at)
    got = diag["partial_values"]
    expect([row[0] for row in got] == at, f"checkpoints {[row[0] for row in got]}, want {at}")
    for t, value in got:
        close(value, P0 * -math.expm1(-L[t]), PV_RTOL, 1e-12 * P0, f"PV_{t} (log-yield recursion)")
        if "pv" in exp:
            close(value, exp["pv"](t), PV_RTOL, 1e-12 * P0, f"PV_{t} (closed form)")
    terminal = P0 * math.exp(-L[T])
    close(diag["deflated_terminal_price"], terminal, 1e-8, 1e-13 * P0, "q_T P_T")
    close(P0, got[-1][1] + diag["deflated_terminal_price"], 0.0, 1e-10 * P0,
          "telescoping P_0 = PV_T + q_T P_T")
    close(diag["tail_contribution"], dec["fundamental"] - got[-1][1], 0.0, 1e-12 * P0,
          "tail_contribution")
    residual = diag["no_arbitrage_residual_max"]
    expect(0.0 <= residual <= TOL_DEFAULT, f"no-arbitrage residual {residual!r}")
    classifier = diag["classifier"]
    expect(classifier["classification"] == exp["verdict"], "classifier disagrees with verdict")
    yields = np.asarray(doc.dividends[1:]) / np.asarray(doc.prices[1:])
    close(classifier["partial_sum"], math.fsum(yields.tolist()), 1e-12, 0.0, "yield partial sum")


def nonfinite_paths(obj: Any, prefix: str = "") -> list[str]:
    if isinstance(obj, float) and not math.isfinite(obj):
        return [prefix]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite_paths(v, f"{prefix}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite_paths(v, f"{prefix}[{i}]")]
    return []


FAULT_A_PATH = ".diagnostics.tail_fit.candidates.power-yield.model.coeff"


def check_discrete_line(line: str, doc: DiscreteDoc) -> str:
    """One analyze report line.  A report whose only defect is fault (a), an
    infinite power-yield coefficient, is a failed operation."""
    try:
        rep = strict_json(line)
        fault = None
    except ValueError:
        try:
            rep = json.loads(line)
        except ValueError as exc:
            return f"report is not JSON: {exc}"
        bad = nonfinite_paths(rep)
        if bad != [FAULT_A_PATH]:
            return f"non-finite numbers at {bad}"
        fault = FAULT_A
    try:
        check_discrete_report(rep, doc)
    except (Mismatch, KeyError, TypeError, IndexError) as exc:
        return f"{doc.path}: {type(exc).__name__}: {exc}"
    return fault or OK


# ---------- continuous analysis reports ----------


def continuous_tol(doc: ContinuousDoc) -> float:
    """Relative tolerance for trapezoid-rule quantities: O(h^2)."""
    return 100.0 * doc.grid_step**2


def price_at(doc: ContinuousDoc, t: float) -> float:
    return doc.S + (doc.p0 - doc.S) * math.exp(-doc.rate * t)


def yield_integral(doc: ContinuousDoc) -> float:
    """Closed form of int_0^H d(t)/P(t) dt plus the jumps' dF / P.

    With u = e^{-rt}: (D + a u)/(S + b u) = D/S + (a - D b/S) u/(S + b u),
    and int u/(S + b u) dt = -ln(S + b u) / (r b).
    """
    H = doc.n * doc.grid_step
    a, b, r = doc.d0 - doc.D, doc.p0 - doc.S, doc.rate
    total = doc.D / doc.S * H
    if b != 0.0:
        total += (a - doc.D * b / doc.S) / (r * b) * (
            math.log(doc.S + b) - math.log(doc.S + b * math.exp(-r * H)))
    else:
        total += a / (doc.S * r) * -math.expm1(-r * H)
    total += math.fsum(dF / price_at(doc, tj) for _, tj, dF in doc.jumps)
    return total


def discretized(doc: ContinuousDoc) -> tuple[list[float], list[float]]:
    """Unit-period prices and dividends: the density integrated exactly over
    ((k-1), k] plus the jumps inside that interval."""
    H = int(round(doc.n * doc.grid_step))
    cells = int(round(1.0 / doc.grid_step))
    a, r = doc.d0 - doc.D, doc.rate
    prices = [price_at(doc, float(k)) for k in range(H + 1)]
    dividends = [0.0] + [doc.D + a * (math.exp(-r * (k - 1)) - math.exp(-r * k)) / r
                         for k in range(1, H + 1)]
    for idx, _, dF in doc.jumps:
        dividends[-(-idx // cells)] += dF
    return prices, dividends


def check_continuous_report(rep: dict[str, Any], doc: ContinuousDoc) -> None:
    tol = continuous_tol(doc)
    inp, dec, diag = rep["input"], rep["decomposition"], rep["diagnostics"]
    P0 = price_at(doc, 0.0)
    level = doc.D / doc.S
    expect(inp["kind"] == "continuous" and inp["length"] == doc.n + 1,
           f"input {inp!r} does not describe {doc.n + 1} samples")
    close(inp["grid_step"], doc.grid_step, 1e-15, 0.0, "grid_step")
    close(inp["horizon"], doc.n * doc.grid_step, 1e-12, 0.0, "horizon")
    expect(dec["verdict"] == "no-bubble", f"verdict {dec['verdict']!r}, want no-bubble")
    expect(dec["bubble"] == 0.0 and rep["rational_bubble"] == 0.0, f"bubble {dec['bubble']!r}")
    close(dec["price"], P0, 1e-15, 0.0, "price")
    expect(dec["fundamental"] == dec["price"], "fundamental != price under a divergent tail")
    expect(rep["interpreted_component"] == doc.interpreted,
           f"interpreted_component {rep['interpreted_component']!r}, want {doc.interpreted!r}")
    cont = diag["continuous"]
    expect(cont["classification"] == "no-bubble", "continuous classification")
    expect(cont["discretize_step"] == 1.0, f"discretize_step {cont['discretize_step']!r}")
    close(cont["yield_integral"], yield_integral(doc), tol, 0.0, "yield integral (closed form)")
    # unit discretization periods: the per-period tail yield is the level
    expect(inp["tail"]["kind"] == "constant-yield", f"tail {inp['tail']!r}")
    close(inp["tail"]["level"], level, 1e-15, 0.0, "tail yield")
    H = int(round(doc.n * doc.grid_step))
    prices, dividends = discretized(doc)
    at = checkpoints(H)
    L = log_yield_sums(prices, dividends, at)
    got = diag["partial_values"]
    expect([row[0] for row in got] == at, f"checkpoints {[row[0] for row in got]}, want {at}")
    for t, value in got:
        close(value, P0 * -math.expm1(-L[t]), tol, 0.0, f"PV_{t} (log-yield recursion)")
    close(diag["deflated_terminal_price"], P0 * math.exp(-L[H]), tol, 0.0, "q_T P_T")
    close(P0, got[-1][1] + diag["deflated_terminal_price"], 0.0, 1e-12 * P0,
          "telescoping P_0 = PV_T + q_T P_T")
    residual = diag["no_arbitrage_residual_max"]
    expect(0.0 <= residual <= TOL_DEFAULT, f"no-arbitrage residual {residual!r}")


# ---------- per operation ----------


def check_analyze(op: Op, rc: int, stdout: str, stderr: str) -> list[str]:
    """One outcome per document of an analyze call."""
    n = len(op.docs)
    fault_b = all(getattr(d, "fault", None) == "b" for d in op.docs)
    if fault_b and rc == 1 and stdout == "" and "internal" in stderr:
        # the whole call ends with an internal error
        return [FAULT_B] * n
    if rc != op.expect_rc:
        return [f"exit code {rc}, want {op.expect_rc}: {stderr.strip()[:300]}"] * n
    lines = stdout.splitlines()
    if len(lines) != n:
        return [f"{len(lines)} report lines for {n} documents"] * n
    out = []
    for line, doc in zip(lines, op.docs):
        if isinstance(doc, ContinuousDoc):
            try:
                check_continuous_report(strict_json(line), doc)
                out.append(OK)
            except (ValueError, Mismatch, KeyError, TypeError, IndexError) as exc:
                out.append(f"{doc.path}: {type(exc).__name__}: {exc}")
        else:
            out.append(check_discrete_line(line, doc))
    return out


def check_identity(op: Op, rc: int, stdout: str, stderr: str) -> list[str]:
    doc = op.docs[0]
    continuous = isinstance(doc, ContinuousDoc)
    try:
        expect(rc == 0, f"exit code {rc}: {stderr.strip()[:300]}")
        res = strict_json(stdout)
        want = "deflated-price exponential" if continuous else "telescoping present-value"
        expect(res["identity"] == want, f"identity {res['identity']!r}")
        tol = 1e-6 if continuous else 1e-12
        expect(res["tol"] == tol and res["pass"] is True, f"pass {res['pass']!r} at tol {res['tol']!r}")
        gap = res["max_relative_gap"]
        expect(isinstance(gap, float) and 0.0 <= gap <= tol, f"max_relative_gap {gap!r}")
        if continuous:
            expect(0.0 <= res["at_horizon"] <= gap, f"at_horizon {res['at_horizon']!r}")
        else:
            residual = res["max_no_arbitrage_residual"]
            expect(0.0 <= residual <= TOL_DEFAULT, f"no-arbitrage residual {residual!r}")
    except (ValueError, Mismatch, KeyError, TypeError) as exc:
        return [f"{doc.path}: {type(exc).__name__}: {exc}"]
    return [OK]


def parse_spec(spec: str) -> tuple[str, dict[str, float]]:
    kind, _, text = spec.partition(":")
    params = {}
    for item in filter(None, text.split(",")):
        key, _, value = item.partition("=")
        params[key] = float(value)
    return kind, params


def check_generated_csv(gen: dict[str, Any], text: str) -> None:
    lines = text.splitlines()
    T = gen["T"]
    expect(len(lines) == T + 3, f"{len(lines)} lines for T = {T}")
    expect(lines[0].startswith("# tail: ") and lines[1] == "t,P,D", "header lines")
    kind, params = parse_spec(lines[0][len("# tail: "):])
    rows = [line.split(",") for line in lines[2:]]
    expect([int(r[0]) for r in rows] == list(range(T + 1)), "dates 0..T")
    expect(rows[0][2] == "", "no dividend at t = 0")
    P = np.array([float(r[1]) for r in rows])
    D = np.array([0.0] + [float(r[2]) for r in rows[1:]])
    t = np.arange(T + 1, dtype=np.float64)
    model = gen["model"]
    if model == "money":
        expect(kind == "zero-dividends" and not params, f"tail {kind} {params}")
        want_P, want_D = np.full(T + 1, gen["P0"]), np.zeros(T + 1)
    elif model == "constant":
        expect(kind == "constant-levels" and params == {"P": gen["P"], "D": gen["D"]},
               f"tail {kind} {params}")
        want_P, want_D = np.full(T + 1, gen["P"]), np.full(T + 1, gen["D"])
        want_D[0] = 0.0
    elif model == "gordon":
        D0, g, R = gen["D0"], gen["g"], gen["R"]
        expect(kind == "constant-yield", f"tail kind {kind}")
        close(params.get("c"), (R - g) / g, 1e-14, 0.0, "gordon tail yield")
        want_P = D0 * np.exp((t + 1) * math.log(g)) / (R - g)
        want_D = D0 * np.exp(t * math.log(g))
        want_D[0] = 0.0
    else:
        a, rho = gen["alpha"], gen["rho"]
        expect(kind == "geometric-yield" and params == {"a": a, "rho": rho}, f"tail {kind} {params}")
        want_P = np.ones(T + 1)
        want_D = a * np.exp(t * math.log(rho))
        want_D[0] = 0.0
    bad_P = np.abs(P - want_P) > 1e-12 * np.abs(want_P)
    bad_D = np.abs(D - want_D) > 1e-12 * np.abs(want_D)
    expect(not bad_P.any(), f"price differs from the formula at t = {np.argmax(bad_P)}")
    expect(not bad_D.any(), f"dividend differs from the formula at t = {np.argmax(bad_D)}")


def check_generated_json(gen: dict[str, Any], text: str) -> None:
    doc: ContinuousDoc = gen["doc"]
    obj = strict_json(text)
    expect(set(obj) == {"grid_step", "horizon", "prices", "density", "jumps", "tail",
                        "interpreted_component"}, f"keys {sorted(obj)}")
    expect(obj["grid_step"] == gen["grid_step"], f"grid_step {obj['grid_step']!r}")
    close(obj["horizon"], doc.n * doc.grid_step, 1e-12, 0.0, "horizon")
    expect(obj["jumps"] == [], "generated path has jumps")
    expect(obj["interpreted_component"] == gen["Bmw"], "interpreted_component")
    expect(obj["tail"]["kind"] == "constant-yield", f"tail {obj['tail']!r}")
    close(obj["tail"]["level"], gen["D"] / doc.S, 1e-15, 0.0, "tail yield D / (Q K + Bmw)")
    P, d = np.array(obj["prices"]), np.array(obj["density"])
    expect(P.size == doc.n + 1 and d.size == doc.n + 1, f"{P.size} samples, want {doc.n + 1}")
    decay = np.exp(-doc.rate * doc.grid_step * np.arange(doc.n + 1))
    want_P = doc.S + (doc.p0 - doc.S) * decay
    want_d = doc.D + (doc.d0 - doc.D) * decay
    bad = (np.abs(P - want_P) > 1e-12 * want_P) | (np.abs(d - want_d) > 1e-12 * want_d)
    expect(not bad.any(), f"sample {np.argmax(bad)} differs from the Miao-Wang formula")


def check_generate(op: Op, rc: int, stdout: str, stderr: str) -> list[str]:
    try:
        expect(rc == 0, f"exit code {rc}: {stderr.strip()[:300]}")
        if op.gen["model"] == "miao-wang":
            check_generated_json(op.gen, stdout)
        else:
            check_generated_csv(op.gen, stdout)
    except (ValueError, Mismatch, KeyError, TypeError, IndexError) as exc:
        return [f"generate {op.gen['model']}: {type(exc).__name__}: {exc}"]
    return [OK]


def check_op(op: Op, rc: int, stdout: str, stderr: str) -> list[str]:
    return {"analyze": check_analyze, "check": check_identity,
            "generate": check_generate}[op.kind](op, rc, stdout, stderr)
