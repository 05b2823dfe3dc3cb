"""The process that makes the program's calls for one workload run.

Usage: python3 bench/worker.py <plan.json> <outdir>

It imports ``bubblekit.cli`` once and calls ``bubblekit.cli.main(argv)``
in-process with stdout and stderr captured.  After the prepare ops (whose
output becomes an input document) and one untimed warm-up round, it runs
timed rounds until ``seconds`` have passed.  Each round runs every op of the
plan and times a fresh interpreter importing ``bubblekit.cli``
(``setup_s``); the metric groups run in an order that rotates from round to
round, so drift on the host reaches every metric alike.  Every call is timed
after a ``gc.collect()``; the objects left by the imports and the warm-up
are frozen first (``gc.freeze``), so the collection takes microseconds.

Before the first metric group of a round and after each group, it times a
fixed reference computation that does not call bubblekit (``Reference``,
``ref_s``): the speed the host gave the process in that round, by which
``run.py`` scales the round's times.

With tracing on, rounds alternate between untraced and traced, so the
same run yields the per-layer figures and the tracing overhead.  Every
round's stdout must be byte-identical to the warm-up's.

The warm-up outputs go to ``<outdir>/<op id>.out``; timings, exit codes
and the peak RSS go to ``<outdir>/result.json``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from workloads import GROUPS

# setup_s: a fresh interpreter importing bubblekit.cli, timed once per round
# among the other commands so that it sees the same host as they do
SETUP_ARGV = [sys.executable, "-c", "import bubblekit.cli"]


class Reference:
    """Fixed work of the program's kinds that calls no bubblekit: text rows
    to floats, a JSON document, numpy passes and an interpreter loop.  The
    time it takes in a round is the speed the host gave the process then.
    Its data are megabytes, like the program's, not cache-sized: with a
    cache-sized version the program's times moved by up to 1.25 times the
    reference's relative change, with this one by 0.9 to 1.1 times."""

    def __init__(self) -> None:
        values = [math.exp(3.0 + 2.0 * math.sin(i)) for i in range(50_000)]
        self.text = "\n".join(f"{i},{v!r},{v / 50.0!r}" for i, v in enumerate(values))
        self.blob = json.dumps({"prices": values})
        self.grid = np.linspace(0.0, 1.0, 750_000)

    def time(self) -> float:
        start = perf_counter()
        total = 0.0
        for line in self.text.split("\n"):
            _, p, d = line.split(",")
            total += float(p) - float(d)
        total += sum(json.loads(self.blob)["prices"])
        for _ in range(2):
            total += float(np.cumsum(np.exp(-self.grid)).sum())
        acc = 0
        for i in range(50_000):
            acc += (i * i) % 7
        return perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak RSS.  ``VmHWM`` belongs to the address space made
    at exec; ``ru_maxrss`` would also carry the RSS of the parent at spawn."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def time_setup() -> float:
    start = perf_counter()
    # no timeout: with one, wait() polls in sleeps of up to 50 ms
    subprocess.run(SETUP_ARGV, check=True)
    return perf_counter() - start


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    outdir = Path(sys.argv[2])
    seconds, traced = plan["seconds"], plan["trace"]

    import bubblekit.cli as cli

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    for op in plan["prepare"]:
        rc, out, err = call(op["argv"])
        if rc != 0:
            sys.stderr.write(f"prepare {op['argv'][:2]} exited {rc}: {err}\n")
            return 1
        Path(op["save"]).write_text(out)

    ops = plan["ops"]
    groups = {g: [op for op in ops if op["group"] == g] for g in GROUPS}
    untimed = [op for op in ops if op["group"] is None]

    reference = Reference()
    reference.time()
    time_setup()  # untimed: loads the libraries into the page cache
    warm = {}
    for op in ops:
        rc, out, err = call(op["argv"])
        (outdir / f"{op['id']}.out").write_text(out)
        warm[op["id"]] = {"rc": rc, "sha": hashlib.sha1(out.encode()).hexdigest(), "stderr": err}
        del out

    gc.collect()
    gc.freeze()
    rounds = []  # per round: {"traced": bool, "times": {group: s}, "ref_s": [s, ...], ...}
    mismatches = []
    present = [g for g in GROUPS if groups[g]] + ["setup_s"]
    start = perf_counter()
    i = 0
    while True:
        # tracing alternates untraced/traced in pairs, the pair order alternating too
        on = bool(tracer) and (i % 2 == (i // 2) % 2)
        if on:
            tracer.install()
            first_span = len(tracer.spans)
            counts_before = tracer.counts.copy()
        round_start = perf_counter()
        shift = i % len(present)
        order = present[shift:] + present[:shift]
        times = {}
        setup = []
        refs = [reference.time()]
        bytes_out = 0
        for g in order + ["untimed"]:
            if g == "setup_s":
                setup.append(time_setup())
                refs.append(reference.time())
                continue
            total = 0.0
            for op in groups[g] if g != "untimed" else untimed:
                gc.collect()
                t0 = perf_counter()
                rc, out, _ = call(op["argv"])
                total += perf_counter() - t0
                bytes_out += len(out)
                w = warm[op["id"]]
                if rc != w["rc"] or hashlib.sha1(out.encode()).hexdigest() != w["sha"]:
                    mismatches.append(f"round {i} {'traced' if on else 'untraced'}: {op['id']}")
                del out
            if g != "untimed":
                times[g] = total
                refs.append(reference.time())
        record = {"traced": on, "times": times, "setup_s": setup, "ref_s": refs}
        if on:
            tracer.uninstall()
            record["self_s"] = tracer.self_times(first_span)
            counts = tracer.counts - counts_before
            counts["io.bytes_out"] = bytes_out
            record["counts"] = dict(counts)
        rounds.append(record)
        i += 1
        last = perf_counter() - round_start
        elapsed = perf_counter() - start
        enough = i >= 2 if tracer else i >= 1
        if enough and elapsed + last > seconds:
            break

    result = {
        "rounds": rounds,
        "warm": warm,
        "mismatches": mismatches,
        "measured_s": perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
        "ref_s": statistics.median(x for r in rounds for x in r["ref_s"]),
    }
    if tracer:
        spans_path = Path(plan["spans_path"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for name, s, e, parent in tracer.spans:
                fh.write(f'{{"name":"{name}","start":{s!r},"end":{e!r},"parent":{parent}}}\n')
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
