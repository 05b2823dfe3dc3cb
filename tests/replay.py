"""The golden corpus: CLI calls whose output is pinned byte for byte.

``tests/golden/cases.json`` names each case's input document, either the
stdout of a ``generate`` argv list or a file under ``tests/golden/inputs/``,
and any calls of its own.  Every case's document is fed on stdin to
:data:`RUNS` and to those calls, in process, through ``bubblekit.cli.main``.
``tests/golden/expected/<case>.json`` holds each call's argv, exit code,
stdout and stderr (a ``generate`` call first, where the case has one).

The expected files pin this platform's floating-point results: numpy's
``log``, ``exp`` and BLAS ``dot`` may round differently elsewhere.  A change
that moves output bytes on purpose rewrites them and names each changed key, which ``--diff`` lists without
writing anything:

    PYTHONPATH=src python tests/replay.py          # rewrite the expected files
    PYTHONPATH=src python tests/replay.py --diff   # list what moved; exit 1 if any
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any, Iterator

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
        # decoded as it is, so a CRLF document reaches the reader with its "\r"
        document = (GOLDEN / "inputs" / case["file"]).read_bytes().decode("utf-8")
    for argv in [*RUNS, *case.get("runs", [])]:
        calls.append(call(argv, document))
    return calls


def expected_path(name: str) -> Path:
    return GOLDEN / "expected" / f"{name}.json"


def rewrite() -> None:
    for name, case in cases().items():
        text = json.dumps(replay(case), indent=1, ensure_ascii=False) + "\n"
        expected_path(name).write_text(text)


def _json_lines(text: str) -> list[Any] | None:
    """Each line of ``text`` read as JSON, or None if one is not JSON."""
    try:
        return [json.loads(line) for line in text.splitlines()]
    except ValueError:
        return None


_ABSENT = object()


def changed_keys(old: Any, new: Any, key: str = "") -> Iterator[str]:
    """The dotted keys (list items by index) whose JSON values differ, as
    written: ``1`` and ``1.0``, or ``0.0`` and ``-0.0``, differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            sub = f"{key}.{k}" if key else k
            yield from changed_keys(old.get(k, _ABSENT), new.get(k, _ABSENT), sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_keys(a, b, f"{key}.{i}" if key else str(i))
    elif old is _ABSENT or new is _ABSENT or json.dumps(old) != json.dumps(new):
        yield key or "(the whole value)"


def stream_changes(old: str, new: str) -> list[str]:
    """What differs between two outputs of a stream: the changed keys where
    both are JSON lines, one per line, else the first changed line."""
    if old == new:
        return []
    a, b = _json_lines(old), _json_lines(new)
    if a is not None and b is not None and len(a) == len(b):
        if len(a) == 1:
            return list(changed_keys(a[0], b[0]))
        return [k for i, (x, y) in enumerate(zip(a, b)) for k in changed_keys(x, y, f"[{i}]")]
    lines = zip(old.splitlines() + [None], new.splitlines() + [None])
    first = next(i for i, (x, y) in enumerate(lines, 1) if x != y)
    return [f"text from line {first}"]


def diff() -> int:
    """Replay the corpus against the expected files, writing nothing.  Print
    each call whose exit code, stdout or stderr moved, with its case, argv and
    changed keys; return 1 if any call moved, else 0."""
    moved = 0
    for name, case in cases().items():
        path = expected_path(name)
        expected = json.loads(path.read_text()) if path.exists() else []
        got = replay(case)
        if [c["argv"] for c in got] != [c["argv"] for c in expected]:
            print(f"{name}: the calls differ from {path.name}")
            moved += 1
            continue
        for g, e in zip(got, expected):
            if g == e:
                continue
            moved += 1
            print(f"{name}: {' '.join(g['argv'])}")
            if g["rc"] != e["rc"]:
                print(f"  rc: {e['rc']} -> {g['rc']}")
            for stream in ("stdout", "stderr"):
                for key in stream_changes(e[stream], g[stream]):
                    print(f"  {stream}: {key}")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite or compare the golden corpus.")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="write nothing; list each call whose output moved, exit 1 if any did",
    )
    if parser.parse_args().diff:
        sys.exit(diff())
    rewrite()
