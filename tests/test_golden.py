"""Replay of the golden corpus (see ``replay.py``): every call's exit code,
stdout and stderr must match the expected files byte for byte.

The expected files pin this platform's floating-point results (numpy's
``log``, ``exp`` and BLAS ``dot``); a change that moves output on purpose
rewrites them with ``PYTHONPATH=src python tests/replay.py``.
"""

import json

import pytest

from replay import GOLDEN, cases, expected_path, replay

CASES = cases()


def test_corpus_is_small():
    size = sum(f.stat().st_size for f in GOLDEN.rglob("*") if f.is_file())
    assert size < 200_000


def test_every_case_has_an_expected_file_and_no_other():
    pinned = {f.stem for f in (GOLDEN / "expected").glob("*.json")}
    assert pinned == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name):
    expected = json.loads(expected_path(name).read_text())
    got = replay(CASES[name])
    assert [c["argv"] for c in got] == [c["argv"] for c in expected]
    for g, e in zip(got, expected):
        assert g == e, g["argv"]
