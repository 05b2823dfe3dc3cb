"""Benchmark of the bubblekit CLI: three workloads, checked outputs.

    python3 bench/run.py --workload csv-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The workload's inputs are made from ``--seed`` under
``bench/.work/``; a worker process (``worker.py``) makes the program's calls
for ``--seconds``; this process then checks every output against
computations made apart from the program (``checks.py``) and prints a
summary followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``analyze_s``, ``check_identity_s``, ``generate_s``, ``peak_rss_mb``; the
times scaled by the reference computation, see ``REF_S``); with
``--trace 1`` they are the per-layer self times and counts (see
``tracing.py``), and the spans are written to ``bench/.out/``.
``--workload all`` runs the three workloads one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import FAULT_A, FAULT_B, OK, check_op  # noqa: E402
from tracing import COUNTS, SPANS, span_metric  # noqa: E402
from workloads import GROUPS, WORKLOADS, build  # noqa: E402

IMPORTTIME_RUNS = 5
WORKER_TIMEOUT_S = 170
# The host's speed swings up to twofold for tens of seconds at a time, longer
# than a run, and the time of a fixed reference computation (worker.Reference)
# drifts with the program's calls.  So every time of a round is scaled by
# REF_S / (the round's median reference time): the end-to-end times read as
# seconds on a host where the reference takes REF_S.  REF_S is a fixed
# constant; it sets the scale and nothing else.
REF_S = 0.080


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(HERE)
    env["PYTHONHASHSEED"] = "0"
    # no bytecode is written anywhere, so every run compiles bubblekit's
    # sources alike (~30 ms of setup_s) whatever the caller's environment
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of bubblekit and bubblekit.tails."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import bubblekit.cli"]
    runs: dict[str, list[float]] = {"init.import_s": [], "tails.import_s": []}
    for i in range(IMPORTTIME_RUNS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        if not i:
            continue
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if m:
                cumulative[m.group(3)] = int(m.group(2)) * 1e-6
        runs["init.import_s"].append(cumulative["bubblekit"])
        runs["tails.import_s"].append(cumulative["bubblekit.tails"])
    return {k: statistics.median(v) for k, v in runs.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "bubblekit" / "cli.py").is_file():
        raise SystemExit(f"bench: no bubblekit sources under {ROOT / 'src'}")
    env = child_env()
    workdir = HERE / ".work" / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        plan = build(workload, seed, ROOT, workdir / "in")
        build_s = time.perf_counter() - t0
        if trace:
            pre = import_times(env)
        outdir = workdir / "out"
        outdir.mkdir()
        plan_json = plan.to_json()
        plan_json.update(seconds=seconds, trace=trace,
                         spans_path=str(HERE / ".out" / f"spans-{workload}-seed{seed}.jsonl"))
        (workdir / "plan.json").write_text(json.dumps(plan_json))
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(workdir / "plan.json"),
                        str(outdir)], env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        res = json.loads((outdir / "result.json").read_text())

        t0 = time.perf_counter()
        outcomes: dict[str, list[str]] = {}
        for op in plan.ops:
            w = res["warm"][op.id]
            stdout = (outdir / f"{op.id}.out").read_text()
            outcomes[op.id] = check_op(op, w["rc"], stdout, w["stderr"])
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_round = [o for ops in outcomes.values() for o in ops]
    errors = [o for o in per_round if o not in (OK, FAULT_A, FAULT_B)]
    errors += [f"output differs from the warm-up: {m}" for m in res["mismatches"]]
    n_rounds = len(res["rounds"]) + 1  # timed rounds and the warm-up
    failed_per_round = sum(o in (FAULT_A, FAULT_B) for o in per_round)
    out = {
        "workload": workload,
        "correct": not errors,
        "attempted": n_rounds * len(per_round),
        "failed": n_rounds * failed_per_round,
        "errors": errors[:10],
        "faults": {f: per_round.count(f) for f in (FAULT_A, FAULT_B)},
        "rounds": n_rounds - 1,
        "measured_s": res["measured_s"],
        "ref_ms": 1e3 * res["ref_s"],
        "build_s": build_s,
        "check_s": check_s,
    }
    rounds = res["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {k: {"value": v, "unit": "s"} for k, v in pre.items()}
        for mod, fn in SPANS:
            name = f"{mod}.{fn}"
            value = statistics.median(r["self_s"].get(name, 0.0) for r in traced)
            metrics[span_metric(name)] = {"value": value, "unit": "s"}
        for name in COUNTS:
            value = statistics.median(r["counts"].get(name, 0) for r in traced)
            metrics[name] = {"value": value, "unit": "count"}
        out["overhead_s"] = {
            g: statistics.median(r["times"][g] for r in traced)
            - statistics.median(r["times"][g] for r in plain)
            for g in GROUPS
        }
    else:
        scale = [REF_S / statistics.median(r["ref_s"]) for r in plain]
        setup = [x for r in plain for x in r["setup_s"]]
        samples = {"setup_s": [x * k for r, k in zip(plain, scale) for x in r["setup_s"]]}
        samples.update((g, [r["times"][g] * k for r, k in zip(plain, scale)]) for g in GROUPS)
        metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        out["raw_s"] = {"setup_s": statistics.median(setup)}
        out["raw_s"].update((g, statistics.median(r["times"][g] for r in plain)) for g in GROUPS)
        out["per_round"] = {g: [round(r["times"][g], 4) for r in plain] for g in GROUPS}
        out["per_round"]["setup_s"] = [round(x, 4) for x in setup]
        out["per_round"]["reference"] = [round(statistics.median(r["ref_s"]), 4) for r in plain]
    out["metrics"] = metrics
    return out


def summary(res: dict) -> str:
    lines = [
        f"workload {res['workload']}: {res['rounds']} timed rounds in {res['measured_s']:.1f} s, "
        f"reference {res['ref_ms']:.2f} ms, inputs {res['build_s']:.1f} s, "
        f"checks {res['check_s']:.1f} s",
        f"  attempted {res['attempted']}, failed {res['failed']} "
        f"(per round: fault a {res['faults'][FAULT_A]}, fault b {res['faults'][FAULT_B]}), "
        f"correct {res['correct']}",
    ]
    for name, m in res["metrics"].items():
        raw = res.get("raw_s", {}).get(name)
        seen = f"  (as timed, unscaled: {raw:.6g} s)" if raw is not None else ""
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}{seen}")
    for g, v in res.get("overhead_s", {}).items():
        lines.append(f"  tracing overhead on {g}: {v:+.4f} s")
    for g, v in res.get("per_round", {}).items():
        lines.append(f"  per round {g}: {v}")
    lines += [f"  ERROR {e}" for e in res["errors"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for res in results:
        print(summary(res), flush=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
