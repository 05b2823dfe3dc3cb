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


def test_diff_lists_each_changed_key_and_writes_nothing(tmp_path, monkeypatch, capsys):
    import replay as module

    names = ["constant", "continuous-jump"]
    (tmp_path / "expected").mkdir()
    (tmp_path / "inputs").mkdir()
    (tmp_path / "cases.json").write_text(json.dumps({n: CASES[n] for n in names}))
    (tmp_path / "inputs" / "continuous-jump.json").write_text(
        (GOLDEN / "inputs" / "continuous-jump.json").read_text()
    )
    calls = json.loads(expected_path("constant").read_text())
    report = json.loads(calls[1]["stdout"])
    report["decomposition"]["bubble"] = -0.0
    report["diagnostics"]["partial_values"][0][1] += 1
    calls[1]["stdout"] = json.dumps(report) + "\n"
    calls[2]["stdout"] = calls[2]["stdout"].replace("fundamental:", "fundamental :")
    calls[3]["rc"] += 1
    (tmp_path / "expected" / "constant.json").write_text(json.dumps(calls))
    monkeypatch.setattr(module, "GOLDEN", tmp_path)
    before = sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file())

    assert module.diff() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "constant: analyze --tail-suggest --accept-suggested-tail -",
        "  stdout: decomposition.bubble",
        "  stdout: diagnostics.partial_values.0.1",
        "constant: analyze --format text --accept-suggested-tail -",
        "  stdout: text from line 4",
        "constant: check-identity -",
        f"  rc: {calls[3]['rc']} -> {calls[3]['rc'] - 1}",
        "continuous-jump: the calls differ from continuous-jump.json",
    ]
    after = sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file())
    assert after == before
