"""The golden corpus: CLI calls whose output is pinned byte for byte.

``tests/golden/cases.json`` names each case's input document, either the
stdout of a ``generate`` argv list or a file under ``tests/golden/inputs/``,
and any calls of its own.  Every case's document is fed on stdin to
:data:`RUNS` and to those calls, in process, through ``bubblekit.cli.main``.
``tests/golden/expected/<case>.json`` holds each call's argv, exit code,
stdout and stderr (a ``generate`` call first, where the case has one).

The expected files pin this platform's floating-point results: numpy's
``log``, ``exp`` and BLAS ``dot`` may round differently elsewhere.  A change
that moves output bytes on purpose rewrites them and names each changed key:

    PYTHONPATH=src python tests/replay.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).resolve().parent / "golden"

# the calls made on every case's document, read from stdin
RUNS = (
    ["analyze", "--tail-suggest", "--accept-suggested-tail", "-"],
    ["analyze", "--format", "text", "--accept-suggested-tail", "-"],
    ["check-identity", "-"],
)


def cases() -> dict[str, dict[str, Any]]:
    return json.loads((GOLDEN / "cases.json").read_text())


def call(argv: list[str], stdin: str = "") -> dict[str, Any]:
    """The exit code, stdout and stderr of one in-process CLI call."""
    from bubblekit.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = saved
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay(case: dict[str, Any]) -> list[dict[str, Any]]:
    """Every call of ``case``, in order, with its outcome."""
    calls = []
    if "generate" in case:
        calls.append(call(case["generate"]))
        document = calls[0]["stdout"]
    else:
        document = (GOLDEN / "inputs" / case["file"]).read_text()
    for argv in [*RUNS, *case.get("runs", [])]:
        calls.append(call(argv, document))
    return calls


def expected_path(name: str) -> Path:
    return GOLDEN / "expected" / f"{name}.json"


def rewrite() -> None:
    for name, case in cases().items():
        text = json.dumps(replay(case), indent=1, ensure_ascii=False) + "\n"
        expected_path(name).write_text(text)


if __name__ == "__main__":
    rewrite()
