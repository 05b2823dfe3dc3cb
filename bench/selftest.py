"""Test the benchmark's checks: real outputs pass, corrupted outputs fail.

    python3 bench/selftest.py

Builds every workload at a small size, runs its program calls in-process,
and confirms that ``checks.check_op`` accepts the real outputs (counting
the fixed fault documents of csv-batch as faults, not errors).  Then it
corrupts each kind of output (a flipped verdict, a perturbed value, an
``Infinity``, a wrong exit code) and confirms that every corruption is
rejected.  It also confirms the closed-form Miao-Wang yield integral and
the infinite geometric log-yield sum against mpmath.  Exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
from checks import FAULT_A, FAULT_B, OK, check_op  # noqa: E402
from workloads import WORKLOADS, ContinuousDoc, build  # noqa: E402

failures: list[str] = []
passed = 0


def verify(cond: bool, what: str) -> None:
    global passed
    if cond:
        passed += 1
    else:
        print("FAIL " + what)
        failures.append(what)


def call(argv: list[str]) -> tuple[int, str, str]:
    import bubblekit.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def expected_outcomes(op) -> list[str]:
    if op.kind != "analyze":
        return [OK]
    return [{"a": FAULT_A, "b": FAULT_B}.get(getattr(d, "fault", None), OK) for d in op.docs]


def edit_line(stdout: str, index: int, edit: Callable[[dict], None]) -> str:
    lines = stdout.splitlines()
    rep = json.loads(lines[index])
    edit(rep)
    lines[index] = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def setitem(path: list, value=None, shift=None) -> Callable[[dict], None]:
    """Set a report field, or move it by ``shift`` times the price (so a
    zero present value or bubble moves too)."""

    def edit(rep: dict) -> None:
        obj = rep
        for key in path[:-1]:
            obj = obj[key]
        if shift is None:
            obj[path[-1]] = value
        else:
            obj[path[-1]] += shift * rep["decomposition"]["price"]

    return edit


def flip_verdict(rep: dict) -> None:
    dec = rep["decomposition"]
    dec["verdict"] = "no-bubble" if dec["verdict"] == "bubble" else "bubble"


def report_corruptions(continuous: bool, bubble: bool) -> dict[str, Callable[[dict], None]]:
    shift = 1e-2 if continuous else 1e-6
    cases = {
        "flipped verdict": flip_verdict,
        "perturbed fundamental": setitem(["decomposition", "fundamental"], shift=shift),
        "perturbed PV_T/2": setitem(["diagnostics", "partial_values", 1, 1], shift=shift),
        "perturbed q_T P_T": setitem(["diagnostics", "deflated_terminal_price"], shift=shift),
        "Infinity residual": setitem(["diagnostics", "no_arbitrage_residual_max"], value=math.inf),
        "NaN price": setitem(["decomposition", "price"], value=math.nan),
    }
    if bubble:
        cases["perturbed bubble"] = setitem(["decomposition", "bubble"], shift=shift)
    if continuous:
        cases["perturbed yield integral"] = setitem(
            ["diagnostics", "continuous", "yield_integral"], shift=shift)
    return cases


def test_analyze(workload: str, op, rc: int, stdout: str, stderr: str) -> None:
    seen = set()
    for index, doc in enumerate(op.docs):
        continuous = isinstance(doc, ContinuousDoc)
        family = "continuous" if continuous else doc.family + (f"/fault-{doc.fault}" if doc.fault else "")
        if family in seen or getattr(doc, "fault", None) == "b":
            continue
        seen.add(family)
        bubble = not continuous and doc.family in ("money", "geometric")
        for name, edit in report_corruptions(continuous, bubble).items():
            bad = edit_line(stdout, index, edit)
            outcome = check_op(op, rc, bad, stderr)[index]
            verify(outcome not in (OK, FAULT_A, FAULT_B),
                   f"{workload} analyze {family}: {name} rejected")
    wrong_rc = 2 if rc != 2 else 0
    verify(all(o not in (OK, FAULT_A, FAULT_B) for o in check_op(op, wrong_rc, stdout, stderr)),
           f"{workload} analyze: exit code {wrong_rc} rejected")
    verify(all(o not in (OK, FAULT_A, FAULT_B) for o in check_op(op, rc, stdout + stdout, stderr)),
           f"{workload} analyze: extra report lines rejected")


def test_check(workload: str, op, rc: int, stdout: str, stderr: str) -> None:
    res = json.loads(stdout)
    tol = res["tol"]
    cases = {
        "pass flipped": dict(res, **{"pass": False}),
        "gap above tol": dict(res, max_relative_gap=10 * tol),
        "Infinity gap": dict(res, max_relative_gap=math.inf),
        "wrong identity": dict(res, identity="other"),
    }
    for name, obj in cases.items():
        outcome = check_op(op, rc, json.dumps(obj) + "\n", stderr)[0]
        verify(outcome != OK, f"{workload} check-identity: {name} rejected")
    verify(check_op(op, 1, stdout, stderr)[0] != OK, f"{workload} check-identity: exit 1 rejected")


def test_generate(workload: str, op, rc: int, stdout: str, stderr: str) -> None:
    model = op.gen["model"]
    cases = {}
    if model == "miao-wang":
        obj = json.loads(stdout)
        for key in ("prices", "density"):
            bad = dict(obj)
            bad[key] = list(obj[key])
            bad[key][len(bad[key]) // 3] *= 1 + 1e-9
            cases[f"perturbed {key} sample"] = json.dumps(bad)
        bad = dict(obj)
        bad["prices"] = list(obj["prices"])
        bad["prices"][7] = math.inf
        cases["Infinity price"] = json.dumps(bad)
        cases["wrong tail yield"] = json.dumps(dict(obj, tail={"kind": "constant-yield",
                                                               "level": obj["tail"]["level"] * 1.001}))
    else:
        lines = stdout.splitlines()
        t, price, div = lines[7].split(",")
        for name, row in (("perturbed price", f"{t},{float(price) * (1 + 1e-9)!r},{div}"),
                          ("perturbed dividend", f"{t},{price},{float(div) * (1 + 1e-9) + 1e-300!r}"),
                          ("Infinity price", f"{t},inf,{div}")):
            cases[name] = "\n".join(lines[:7] + [row] + lines[8:]) + "\n"
        cases["wrong tail"] = "\n".join(["# tail: declared-divergent"] + lines[1:]) + "\n"
        cases["missing row"] = "\n".join(lines[:-1]) + "\n"
    for name, text in cases.items():
        verify(check_op(op, rc, text, stderr)[0] != OK, f"{workload} generate {model}: {name} rejected")
    verify(check_op(op, 2, stdout, stderr)[0] != OK, f"{workload} generate {model}: exit 2 rejected")


def test_oracles(plan) -> None:
    for doc in plan.ops[0].docs:
        bare = ContinuousDoc(doc.path, doc.S, doc.p0, doc.D, doc.d0, doc.rate, doc.grid_step, doc.n)
        H = doc.n * doc.grid_step
        with mp.workdps(30):
            S, p0, D, d0, r = (mp.mpf(repr(x)) for x in (doc.S, doc.p0, doc.D, doc.d0, doc.rate))
            f = lambda t: (D + (d0 - D) * mp.exp(-r * t)) / (S + (p0 - S) * mp.exp(-r * t))  # noqa: E731
            quad = float(mp.quad(f, [0, 1, 10, H]))
        verify(abs(checks.yield_integral(bare) - quad) <= 1e-13 * quad,
               f"Miao-Wang yield integral closed form = mpmath quadrature ({quad!r})")
    for alpha, rho in ((0.3, 0.8), (0.05, 0.95), (1.0, 0.99)):
        with mp.workdps(40):
            exact = float(mp.nsum(lambda t: mp.log(1 + mp.mpf(repr(alpha)) * mp.mpf(repr(rho)) ** t),
                                  [1, mp.inf]))
        got = checks.infinite_geometric_log_sum(alpha, rho, 1)
        verify(abs(got - exact) <= 1e-14 * exact, f"geometric log-yield sum alpha={alpha} rho={rho}")


def main() -> int:
    workdir = HERE / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            plan = build(workload, 7, ROOT, workdir / workload, size="small")
            for op in plan.prepare:
                rc, out, err = call(op.argv)
                Path(ROOT / op.save).write_text(out)
            tested = set()
            for op in plan.ops:
                rc, out, err = call(op.argv)
                outcomes = check_op(op, rc, out, err)
                verify(outcomes == expected_outcomes(op),
                       f"{workload} {op.id}: real output accepted"
                       + ("" if outcomes == expected_outcomes(op) else f" {outcomes}"))
                key = (op.kind, op.gen["model"] if op.gen else None, op.group is None)
                if key in tested or op.group is None:
                    continue
                tested.add(key)
                {"analyze": test_analyze, "check": test_check,
                 "generate": test_generate}[op.kind](workload, op, rc, out, err)
            if workload == "continuous-mw":
                test_oracles(plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{passed} checks passed, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
