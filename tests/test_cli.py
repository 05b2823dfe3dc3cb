import ast
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bubblekit import (
    ConstantLevels,
    DiscretePath,
    ParseError,
    TailModel,
    ValidationError,
    gen_constant,
    gen_convergent_yield,
    gen_gordon,
    gen_money,
    suggest_tail,
)
from bubblekit.cli import main
from bubblekit.io import (
    parse_continuous_json,
    parse_path_csv,
    parse_scenario_json,
    parse_tail_spec,
    serialize_path_csv,
)

CONSTANT_CSV = "t,P,D\n0,100,\n1,100,5\n2,100,5\n"
NO_ARBITRAGE_REFUSAL = (
    "supplied deflators violate the no-arbitrage recursion at relative tolerance 1e-09"
)


@pytest.fixture
def one_cpu(monkeypatch):
    """``analyze`` sees one usable CPU: every document runs in this process,
    where a mock's counts are kept (a forked child's are not)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- CSV parsing ----------


def test_parse_minimal_constant_csv():
    path = parse_path_csv(CONSTANT_CSV)
    assert path.horizon == 2
    assert list(path.prices) == [100.0, 100.0, 100.0]
    assert list(path.dividends) == [0.0, 5.0, 5.0]
    assert path.tail is None


def test_parse_csv_with_tail_comment():
    text = "# tail: constant-levels:P=100,D=5\n" + CONSTANT_CSV
    path = parse_path_csv(text)
    assert path.tail == ConstantLevels(100.0, 5.0)


def test_parse_csv_crlf_and_bytes():
    raw = CONSTANT_CSV.replace("\n", "\r\n").encode("utf-8")
    path = parse_path_csv(raw)
    assert path.horizon == 2


@pytest.mark.parametrize(
    "parse, document, message",
    [
        (
            parse_path_csv,
            b"t,P,D\n0,100,\n1,100,\xff5\n",
            "invalid start byte at byte offset 19",
        ),
        (
            parse_continuous_json,
            b'{"grid_step": 1, "prices": [1.0, \xff2.0]}',
            "invalid start byte at byte offset 33",
        ),
        (
            parse_scenario_json,
            b'{"marginal_q": 1.0, "\xe2\x82": 2.0}',
            "invalid continuation byte at byte offset 21",
        ),
    ],
)
def test_bytes_that_are_not_utf8_are_a_parse_error(parse, document, message):
    with pytest.raises(ParseError) as refused:
        parse(document)
    assert str(refused.value) == f"not UTF-8: {message}"


def test_parse_csv_negative_price_names_line():
    text = "t,P,D\n0,100,\n1,100,5\n2,-1,5\n"
    with pytest.raises(ParseError, match="negative price"):
        parse_path_csv(text)
    try:
        parse_path_csv(text)
    except ParseError as exc:
        assert exc.line == 4


def test_parse_csv_rejects_decimal_comma():
    with pytest.raises(ParseError):
        parse_path_csv('t,P,D\n0,"100,5",\n1,100,5\n')


def test_parse_csv_rejects_bad_header_and_dates():
    with pytest.raises(ParseError, match="header"):
        parse_path_csv("time,price,div\n0,1,\n1,1,0\n")
    with pytest.raises(ParseError, match="dates"):
        parse_path_csv("t,P,D\n0,1,\n2,1,0\n")
    with pytest.raises(ParseError, match="t = 0"):
        parse_path_csv("t,P,D\n0,1,3\n1,1,0\n")


def test_parse_csv_consistent_supplied_deflators():
    q = (100.0 / 105.0) ** np.arange(3)
    lines = ["t,P,D,q", f"0,100,,{float(q[0])!r}"]
    lines += [f"{t},100,5,{float(q[t])!r}" for t in (1, 2)]
    path = parse_path_csv("\n".join(lines))
    assert path.horizon == 2


def test_parse_csv_inconsistent_supplied_deflators():
    q = (100.0 / 105.0) ** np.arange(3)
    q[2] *= 1.001
    lines = ["t,P,D,q", f"0,100,,{float(q[0])!r}"]
    lines += [f"{t},100,5,{float(q[t])!r}" for t in (1, 2)]
    with pytest.raises(ValidationError, match=f"^{NO_ARBITRAGE_REFUSAL}$"):
        parse_path_csv("\n".join(lines))


def test_parse_csv_rejects_unnormalized_deflators():
    text = "t,P,D,q\n0,100,,2.0\n1,100,5,1.9047619047619047\n"
    with pytest.raises(ValidationError, match="q_0 = 1"):
        parse_path_csv(text)


def test_csv_round_trip_is_lossless():
    p = gen_gordon(1.0, 1.02, 1.05, 40)
    text = serialize_path_csv(p)
    back = parse_path_csv(text)
    assert np.array_equal(back.prices, p.prices)
    assert np.array_equal(back.dividends, p.dividends)
    assert back.tail == p.tail
    assert serialize_path_csv(back) == text


# ---------- tail specs ----------


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("zero-dividends", {"kind": "zero-dividends"}),
        ("constant-levels:P=100,D=5", {"kind": "constant-levels"}),
        ("constant-yield:c=0.05", {"kind": "constant-yield"}),
        ("geometric-yield:a=0.5,rho=0.5", {"kind": "geometric-yield"}),
        ("power-yield:a=1,p=2", {"kind": "power-yield"}),
        ("declared-convergent:sum=0.25", {"kind": "declared-convergent"}),
        ("geometric-yield:coeff=0.5,ratio=0.5", {"kind": "geometric-yield"}),
    ],
)
def test_parse_tail_spec_kinds(spec, expected):
    from bubblekit.io import tail_to_json

    assert tail_to_json(parse_tail_spec(spec))["kind"] == expected["kind"]


def test_parse_tail_spec_infers_constant_levels_from_path():
    path = parse_path_csv(CONSTANT_CSV)
    last = (float(path.prices[-1]), float(path.dividends[-1]))
    tail = parse_tail_spec("constant-levels", last)
    assert tail == ConstantLevels(100.0, 5.0)
    yield_tail = parse_tail_spec("constant-yield", last)
    assert yield_tail.level == pytest.approx(0.05)


def test_parse_tail_spec_unknown_kind():
    with pytest.raises(ParseError, match="unknown tail kind"):
        parse_tail_spec("mystery-tail")


VALID_TAIL_SPECS = [
    "zero-dividends",
    "declared-divergent",
    "declared-convergent:sum=0.25",
    "constant-levels:P=100,D=5",
    "constant-levels",
    "constant-yield:c=0.05",
    "constant-yield",
    "geometric-yield:a=0.5,rho=0.5",
    "power-yield:a=1,p=2",
]
SPEC_PIECES = list(":=,.-+_ eE0159") + ["nan", "inf", "1e999", "P", "rho", "sum", "\x00"]
FINAL_SAMPLES = st.none() | st.tuples(st.floats(), st.floats())


@st.composite
def mutated_tail_specs(draw):
    spec = draw(st.sampled_from(VALID_TAIL_SPECS))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(spec)))
        piece = draw(st.sampled_from(SPEC_PIECES))
        cut = draw(st.integers(0, 3))  # characters replaced (0: an insertion)
        spec = spec[:k] + piece + spec[k + cut:]
    return spec


def parses_or_rejects(spec, last):
    try:
        tail = parse_tail_spec(spec, last)
    except ValidationError:
        return
    assert isinstance(tail, TailModel)


@given(st.text(), FINAL_SAMPLES)
@settings(max_examples=300, deadline=None)
def test_parse_tail_spec_fuzz_arbitrary_text(spec, last):
    parses_or_rejects(spec, last)


@given(mutated_tail_specs(), FINAL_SAMPLES)
@example("constant-levels", (math.nan, 1.0))
@example("constant-levels", (1.0, -math.inf))
@example("constant-yield", (1.0, math.nan))
@example("constant-yield", (1e-300, 1e300))
@example("constant-yield", (0.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_parse_tail_spec_fuzz_mutated_specs(spec, last):
    parses_or_rejects(spec, last)


# ---------- analyze ----------


def test_analyze_constant_pipe(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["generate", "constant", "--P", "100", "--D", "5", "--T", "500"]
    )
    assert code == 0
    code, out, err = run(
        capsys,
        ["analyze", "--tail", "constant-levels"],
        stdin=out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["decomposition"]["bubble"] == 0.0
    assert report["decomposition"]["fundamental"] == 100.0
    assert report["decomposition"]["verdict"] == "no-bubble"


def test_analyze_money_pipe_exits_10(capsys, monkeypatch):
    _, csv_text, _ = run(capsys, ["generate", "money", "--P0", "1"])
    code, out, _ = run(capsys, ["analyze"], stdin=csv_text, monkeypatch=monkeypatch)
    assert code == 10
    report = json.loads(out)
    assert report["decomposition"]["bubble"] == 1.0
    assert report["decomposition"]["verdict"] == "bubble"


def test_analyze_miao_wang_pipe(capsys, monkeypatch):
    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang",
            "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2",
            "--horizon", "50", "--grid-step", "0.01",
        ],
    )
    code, out, _ = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["rational_bubble"] == 0.0
    assert report["interpreted_component"] == 0.5
    assert report["input"]["kind"] == "continuous"
    assert report["diagnostics"]["continuous"]["classification"] == "no-bubble"


def test_analyze_requires_tail(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(CONSTANT_CSV)
    code, out, err = run(capsys, ["analyze", str(f)])
    assert code == 2
    assert out == ""
    assert "tail" in err


def test_analyze_tail_suggest_prints_but_still_refuses(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_constant(100, 5, 60).with_tail(None)))
    code, out, err = run(capsys, ["analyze", "--tail-suggest", str(f)])
    assert code == 2
    assert out == ""
    assert "constant-yield" in err


def test_analyze_accept_suggested_tail(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_constant(100, 5, 60).with_tail(None)))
    code, out, _ = run(capsys, ["analyze", "--accept-suggested-tail", str(f)])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["tail_source"] == "suggested"
    assert report["decomposition"]["verdict"] == "no-bubble"


def test_analyze_validation_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("t,P,D\n0,100,\n1,-5,1\n")
    code, out, err = run(capsys, ["analyze", "--tail", "zero-dividends", str(f)])
    assert code == 2
    assert "line 3" in err


def test_analyze_multiple_files_in_order(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(serialize_path_csv(gen_constant(100, 5, 40)))
    b.write_text(serialize_path_csv(gen_constant(50, 1, 40)))
    code, out, _ = run(capsys, ["analyze", str(a), str(b)])
    assert code == 0
    first, second = [json.loads(line) for line in out.splitlines()]
    assert first["decomposition"]["price"] == 100.0
    assert second["decomposition"]["price"] == 50.0


def test_analyze_horizon_truncation(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_constant(100, 5, 400)))
    code, out, _ = run(capsys, ["analyze", "--horizon", "100", str(f)])
    assert code == 0
    assert json.loads(out)["input"]["horizon"] == 100


DECLARED_CONVERGENT_CSV = (
    "# tail: declared-convergent:sum=0.1\n"
    "t,P,D\n0,1,\n1,0.9,0.01\n2,0.8,0.01\n3,0.7,0.01\n4,0.6,0.01\n"
)


@pytest.mark.parametrize("tail", [[], ["--tail", "declared-convergent:sum=0.1"]])
def test_analyze_horizon_refuses_a_declared_convergent_tail(tmp_path, capsys, tail):
    # the declared sum is the present value of the dividends after the
    # file's own horizon, so a shorter path would drop dates 3..4 from it
    f = tmp_path / "path.csv"
    f.write_text(DECLARED_CONVERGENT_CSV)
    code, out, err = run(capsys, ["analyze", "--horizon", "2", *tail, str(f)])
    assert (code, out) == (2, "")
    assert "--horizon 2" in err
    assert "after the file's own horizon 4" in err
    # at the file's own horizon: the sampled present value plus the declared one
    sampled = 1 - 1 / math.prod(1 + 0.01 / p for p in (0.9, 0.8, 0.7, 0.6))
    for horizon in ([], ["--horizon", "4"], ["--horizon", "9"]):
        code, out, _ = run(capsys, ["analyze", *horizon, *tail, str(f)])
        assert code == 10
        fundamental = json.loads(out)["decomposition"]["fundamental"]
        assert fundamental == pytest.approx(sampled + 0.1, rel=1e-14)


@pytest.mark.parametrize("horizon", ["1", "4", "100"])
def test_analyze_horizon_refuses_a_continuous_document(capsys, monkeypatch, horizon):
    # --horizon truncates discrete paths; a continuous document given it
    # once exited 0 with its whole-grid report
    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang", "--Q", "1", "--K", "10", "--Bmw", "5", "--D", "1",
            "--horizon", "4", "--grid-step", "0.1",
        ],
    )
    argv = ["analyze", "--horizon", horizon, "-"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "--horizon truncates discrete paths only" in err
    code, _, _ = run(capsys, ["analyze", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0


GORDON_DOC = ["generate", "gordon", "--D0", "1", "--g", "1.01", "--R", "1.05"]
MIAO_WANG_GAP = [
    "generate", "miao-wang", "--Q", "1", "--K", "10", "--Bmw", "5", "--D", "1",
    "--horizon", "4", "--grid-step", "0.1",
]


@pytest.mark.parametrize("step", ["0.5", "1", "7"])
@pytest.mark.parametrize("tail", [[], ["--tail", "constant-yield"]])
def test_analyze_step_refuses_a_csv(capsys, monkeypatch, step, tail):
    # --step discretizes continuous documents; a CSV given it once exited 0
    # with the same bytes as without it
    _, doc, _ = run(capsys, GORDON_DOC)
    argv = ["analyze", "--accept-suggested-tail", *tail, "-"]
    code, out, err = run(capsys, [*argv, "--step", step], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "--step discretizes continuous documents only" in err
    code, _, _ = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert code == 0


JUMP_SIDE_REFUSAL = "--jump-side picks the price at the dividend jumps of continuous documents only"


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("command", [["analyze", "--tail", "constant-yield"], ["check-identity"]])
def test_jump_side_refuses_a_csv(capsys, monkeypatch, side, command):
    # a CSV has no jumps: given the flag, both commands once exited 0 with
    # the same bytes as without it
    _, doc, _ = run(capsys, GORDON_DOC)
    argv = [*command, "--jump-side", side, "-"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert JUMP_SIDE_REFUSAL in err and len(err.splitlines()) == 1
    code, _, err = run(capsys, [*command, "-"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "--tol must be finite and >= 0"),
        (["--horizon", "0"], "--horizon must be at least 1"),
        (["--step", "1"], "--step discretizes continuous documents only"),
        ([], JUMP_SIDE_REFUSAL),
    ],
)
def test_jump_side_refusal_comes_after_the_other_flag_checks(capsys, monkeypatch, flags, message):
    _, doc, _ = run(capsys, GORDON_DOC)
    argv = ["analyze", "--tail", "constant-yield", "--jump-side", "left", *flags, "-"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert message in err
    if flags[:1] == ["--tol"]:
        argv = ["check-identity", "--jump-side", "left", *flags, "-"]
        code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert message in err


def test_jump_side_refusal_is_per_file(tmp_path, capsys):
    # in a batch, the CSV is refused and the continuous document still runs
    # with the flag; without it, a continuous report says "right"
    _, csv, _ = run(capsys, GORDON_DOC)
    _, mw, _ = run(capsys, MIAO_WANG_GAP)
    (tmp_path / "g.csv").write_text(csv)
    (tmp_path / "mw.json").write_text(mw)
    names = [str(tmp_path / "g.csv"), str(tmp_path / "mw.json")]
    code, out, err = run(
        capsys, ["analyze", "--tail", "constant-yield", "--jump-side", "left", *names]
    )
    assert code == 2
    assert err.splitlines() == [f"bubblekit: {names[0]}: {JUMP_SIDE_REFUSAL}; a CSV has no jumps"]
    assert json.loads(out)["config"]["jump_side"] == "left"
    code, out, _ = run(capsys, ["analyze", names[1]])
    assert code == 0
    assert json.loads(out)["config"]["jump_side"] == "right"


def test_analyze_text_format(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_constant(100, 5, 40)))
    code, out, _ = run(capsys, ["analyze", "--format", "text", str(f)])
    assert code == 0
    assert "verdict    : no-bubble" in out


# ---------- determinism and round-trips ----------


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_gordon(1.0, 1.02, 1.05, 120)))
    _, out1, _ = run(capsys, ["analyze", str(f)])
    _, out2, _ = run(capsys, ["analyze", str(f)])
    assert out1 == out2


def test_report_json_round_trip_is_byte_identical(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_constant(100, 5, 80)))
    _, out, _ = run(capsys, ["analyze", str(f)])
    reparsed = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert reparsed == out


def test_csv_round_trip_equals_direct_analysis(capsys, monkeypatch):
    p = gen_constant(100, 5, 60)
    text = serialize_path_csv(p)
    round_tripped = serialize_path_csv(parse_path_csv(text))
    code1, out1, _ = run(capsys, ["analyze"], stdin=text, monkeypatch=monkeypatch)
    code2, out2, _ = run(
        capsys, ["analyze"], stdin=round_tripped, monkeypatch=monkeypatch
    )
    assert (code1, out1) == (code2, out2)


# ---------- tolerance configuration ----------


def _csv_with_bad_deflators() -> str:
    q = (100.0 / 105.0) ** np.arange(4)
    q[2] *= 1.0001
    lines = ["t,P,D,q", f"0,100,,{float(q[0])!r}"]
    lines += [f"{t},100,5,{float(q[t])!r}" for t in (1, 2, 3)]
    return "\n".join(lines)


def test_env_var_tolerance_relaxes_check(capsys, monkeypatch):
    text = _csv_with_bad_deflators()
    code, _, err = run(
        capsys,
        ["analyze", "--tail", "constant-levels"],
        stdin=text,
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "no-arbitrage" in err
    monkeypatch.setenv("BUBBLEKIT_TOL", "0.01")
    code, out, _ = run(
        capsys,
        ["analyze", "--tail", "constant-levels"],
        stdin=text,
        monkeypatch=monkeypatch,
    )
    assert code == 0


@pytest.mark.parametrize("command", ["analyze", "check-identity"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_tolerance_flag_must_be_finite_and_nonnegative(capsys, monkeypatch, command, value):
    argv = [command, f"--tol={value}"] + ["--tail=constant-levels"] * (command == "analyze")
    code, out, err = run(capsys, argv, stdin=CONSTANT_CSV, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "--tol must be finite and >= 0" in err and "internal" not in err


@pytest.mark.parametrize("command", ["analyze", "check-identity"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_tolerance_env_var_must_be_finite_and_nonnegative(
    capsys, monkeypatch, command, value
):
    monkeypatch.setenv("BUBBLEKIT_TOL", value)
    argv = [command] + ["--tail=constant-levels"] * (command == "analyze")
    code, out, err = run(capsys, argv, stdin=CONSTANT_CSV, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "BUBBLEKIT_TOL must be finite and >= 0" in err and "internal" not in err


def test_tolerance_zero_is_accepted(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["analyze", "--tol=0", "--tail=constant-levels"],
        stdin=CONSTANT_CSV,
        monkeypatch=monkeypatch,
    )
    assert code == 0 and json.loads(out)["config"]["tol"] == 0.0


def test_flag_tolerance_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BUBBLEKIT_TOL", "0.01")
    code, _, err = run(
        capsys,
        ["analyze", "--tail", "constant-levels", "--tol", "1e-9"],
        stdin=_csv_with_bad_deflators(),
        monkeypatch=monkeypatch,
    )
    assert code == 2


@pytest.mark.parametrize(
    "generate, env, default",
    [
        (MIAO_WANG_GAP, "1e-9", 1e-6),  # a gap of 9.9e-7 once failed under 1e-9
        (GORDON_DOC, "0.5", 1e-12),
        (GORDON_DOC, "1e-30", 1e-12),
    ],
)
def test_env_var_tolerance_leaves_check_identity_thresholds(
    capsys, monkeypatch, generate, env, default
):
    # BUBBLEKIT_TOL is the no-arbitrage tolerance; check-identity's pass
    # threshold is --tol, else the document kind's default
    _, doc, _ = run(capsys, generate)
    monkeypatch.setenv("BUBBLEKIT_TOL", env)
    code, out, err = run(capsys, ["check-identity"], stdin=doc, monkeypatch=monkeypatch)
    result = json.loads(out)
    assert (code, result["tol"], result["pass"]) == (0, default, True), err
    argv = ["check-identity", "--tol", env]
    _, out, _ = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert json.loads(out)["tol"] == float(env)


# ---------- check-identity ----------


def test_check_identity_discrete(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text(serialize_path_csv(gen_gordon(1.0, 1.02, 1.05, 200)))
    code, out, _ = run(capsys, ["check-identity", str(f)])
    assert code == 0
    result = json.loads(out)
    assert result["pass"] is True
    assert result["max_relative_gap"] <= 1e-12


def test_check_identity_continuous(capsys, monkeypatch):
    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang",
            "--Q", "1", "--K", "2", "--Bmw", "0", "--D", "0.2",
            "--horizon", "20", "--grid-step", "0.001",
        ],
    )
    code, out, _ = run(
        capsys, ["check-identity"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def check_identity_gap(capsys, monkeypatch, rows, k):
    """The ``max_relative_gap`` of the ``(P, D)`` rows scaled by 2^k, and
    the exit code."""
    doc = "t,P,D\n" + "".join(
        f"{t},{math.ldexp(p, k)!r},{'' if t == 0 else repr(math.ldexp(d, k))}\n"
        for t, (p, d) in enumerate(rows)
    )
    code, out, err = run(capsys, ["check-identity"], stdin=doc, monkeypatch=monkeypatch)
    assert code in (0, 1), err
    return json.loads(out)["max_relative_gap"], code


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 1000)), min_size=2, max_size=12),
    st.integers(-1060, 1000),
)
@example([(100, 0)] + [(100, 5)] * 5, -1060)  # every value an exact subnormal
def test_check_identity_gap_is_scale_free(capsys, monkeypatch, rows, k):
    # integers of 10 bits stay exact at every scale 2^k here, subnormals included
    rows = [(float(p), float(d)) for p, d in rows]
    assert all(math.ldexp(math.ldexp(x, k), -k) == x for row in rows for x in row)
    assert check_identity_gap(capsys, monkeypatch, rows, k) == check_identity_gap(
        capsys, monkeypatch, rows, 0
    )


def test_check_identity_fails_on_inconsistent_deflator_column(capsys, monkeypatch):
    # telescoping residuals blow past 1e-12 when prices are corrupted
    p = gen_constant(100, 5, 50)
    prices = p.prices.copy()
    prices[20] *= 1.5
    broken = DiscretePath(prices, p.dividends[1:], tail=p.tail)
    code, out, _ = run(
        capsys,
        ["check-identity", "--tol", "1e-30"],
        stdin=serialize_path_csv(broken),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------- generate ----------


def test_generate_missing_parameter_is_validation_error(capsys):
    code, _, err = run(capsys, ["generate", "constant", "--P", "100"])
    assert code == 2
    assert "--D" in err


class NoArrays:
    """A stand-in for numpy in ``bubblekit.models``: making an array fails."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the size was checked")


MIAO_WANG = ["miao-wang", "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2"]
# D0 g^(T+1) / (R - g) passes the largest double near T = 71,000
GORDON_OVERFLOW = ["gordon", "--D0", "1", "--g", "1.01", "--R", "1.05", "--T", "1000000"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["money", "--P0", "1", "--T", "-3"], "T_max must be in [1, 10000000]"),
        (["money", "--P0", "1", "--T", "0"], "T_max must be in [1, 10000000]"),
        (["money", "--P0", "1", "--T", "100000000000"], "T_max must be in"),
        (["constant", "--P", "1", "--D", "1", "--T", "10000001"], "T_max must be in"),
        (["gordon", "--D0", "1", "--g", "1", "--R", "2", "--T", "-1"], "T_max must be in"),
        (["convergent-yield", "--alpha", "1", "--rho", "0.5", "--T", "0"], "T_max must be in"),
        (MIAO_WANG + ["--horizon", "inf"], "scenario parameters must be finite"),
        (MIAO_WANG + ["--grid-step", "nan"], "scenario parameters must be finite"),
        (MIAO_WANG + ["--rate", "inf"], "scenario parameters must be finite"),
        (MIAO_WANG + ["--grid-step", "1e-300"], "at most 10000000"),
        (MIAO_WANG + ["--horizon", "1e300", "--grid-step", "1e-300"], "at most 10000000"),
        (MIAO_WANG + ["--horizon", "10000", "--grid-step", "0.000999"], "at most 10000000"),
        (GORDON_OVERFLOW, "gordon path overflows the double range"),
    ],
)
def test_generate_refuses_sizes_and_ranges_before_any_array(
    capsys, monkeypatch, argv, message
):
    monkeypatch.setattr("bubblekit.models.np", NoArrays())
    code, out, err = run(capsys, ["generate", *argv])
    assert (code, out) == (2, "")
    assert message in err and "internal" not in err


# the log check passes the largest price by less than its rounding, so
# D0 g^2 / (R - g) overflows only when the arrays are made
GORDON_LAST_ULP = ["gordon", "--D0", "3.9948736330274917e+307", "--g", "1.5", "--R", "2", "--T", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (GORDON_OVERFLOW, "gordon path overflows the double range"),
        (GORDON_LAST_ULP, "prices and dividends must be finite"),
    ],
    ids=["past-the-range", "last-ulp"],
)
def test_generate_gordon_overflow_is_bad_input(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["generate", *argv])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("bubblekit: ") and message in err
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bubblekit.cli",
         "generate", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr


ZERO_P0_CSV = "t,P,D\n0,0,\n1,1,1\n"
# a Miao-Wang document of four grid steps of 0.5
SHORT_MIAO_WANG = [*MIAO_WANG, "--horizon", "2", "--grid-step", "0.5"]


@pytest.mark.parametrize(
    "document, argv, line",
    [
        (
            ZERO_P0_CSV,
            ["analyze", "--tail", "constant-yield:c=1", "-"],
            "-: P_0 = 0: log deflators are undefined",
        ),
        (ZERO_P0_CSV, ["check-identity", "-"], "P_0 = 0: log deflators are undefined"),
        (
            None,
            ["generate", "gordon", "--D0", "1", "--g", "2", "--R", "1.5"],
            "gordon needs growth 0 < g < R",
        ),
        (SHORT_MIAO_WANG, ["analyze", "--step", "3", "-"], "-: step exceeds the sampled horizon"),
        (
            SHORT_MIAO_WANG,
            ["analyze", "--step", "0.3", "-"],
            "-: step 0.3 is not a positive integer multiple of the grid step 0.5",
        ),
        (
            _csv_with_bad_deflators(),
            ["analyze", "--tail", "constant-levels", "-"],
            f"-: {NO_ARBITRAGE_REFUSAL}",
        ),
        (_csv_with_bad_deflators(), ["check-identity", "-"], NO_ARBITRAGE_REFUSAL),
    ],
    ids=[
        "zero-P0-analyze",
        "zero-P0-check-identity",
        "gordon-growth",
        "step-past-horizon",
        "step-off-grid",
        "no-arbitrage-analyze",
        "no-arbitrage-check-identity",
    ],
)
def test_each_refusal_is_told_apart_by_its_message(capsys, monkeypatch, document, argv, line):
    # one exception type stands for every refusal: its message is what
    # tells them apart, so each is pinned byte for byte
    if isinstance(document, list):  # the arguments that generate it
        code, document, _ = run(capsys, ["generate", *document])
        assert code == 0
    code, out, err = run(capsys, argv, stdin=document, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"bubblekit: {line}\n")


@pytest.mark.parametrize("wanted", [0, 100])
@pytest.mark.parametrize(
    "argv",
    [
        ["gordon", "--D0", "1", "--g", "1.00001", "--R", "1.05", "--T", "200000"],
        [*MIAO_WANG, "--grid-step", "0.001"],
    ],
    ids=["csv", "json"],
)
def test_generate_into_a_pipe_closed_early_exits_0_quietly(argv, wanted):
    # as `generate ... | head -c 100`: the reader has all it wants, and
    # with 0 it closes before the first write
    proc = subprocess.Popen(
        [sys.executable, "-m", "bubblekit.cli", "generate", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(wanted)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert len(head) == wanted and err == b""


@pytest.mark.parametrize(
    "argv, last_log_price",
    [
        # g^t is inf from t = 1024; the largest log price is 349.6
        (["gordon", "--D0", "1e-300", "--g", "2", "--R", "3", "--T", "1500"],
         math.log(1e-300) + 1501 * math.log(2)),
        # g^t underflows to 0 from t = 1075; every price is >= 1e-152
        (["gordon", "--D0", "1e300", "--g", "0.5", "--R", "3", "--T", "1500"],
         math.log(1e300) + 1501 * math.log(0.5) - math.log(2.5)),
    ],
    ids=["growth-overflows", "growth-underflows"],
)
def test_generate_gordon_with_a_factor_past_the_double_range(capsys, argv, last_log_price):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["generate", *argv])
    assert (code, err) == (0, "")
    path = parse_path_csv(out)
    assert path.horizon == 1500
    assert math.log(path.prices[-1]) == pytest.approx(last_log_price, rel=1e-14)
    ratios = path.dividends[1:] / path.prices[1:]
    assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0)


def test_generate_embeds_tail_comment(capsys):
    code, out, _ = run(capsys, ["generate", "money", "--P0", "1", "--T", "10"])
    assert code == 0
    assert out.startswith("# tail: zero-dividends\n")


def test_exit_code_contract_across_generators(capsys, monkeypatch):
    cases = [
        (["generate", "constant", "--P", "100", "--D", "5", "--T", "50"], 0),
        (["generate", "money", "--P0", "2", "--T", "50"], 10),
        (["generate", "gordon", "--D0", "1", "--g", "1.02", "--R", "1.05", "--T", "50"], 0),
        (["generate", "convergent-yield", "--alpha", "0.5", "--rho", "0.5", "--T", "50"], 10),
    ]
    for argv, expected in cases:
        _, doc, _ = run(capsys, argv)
        code, _, _ = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
        assert code == expected, argv


def test_generate_miao_wang_from_scenario_json(tmp_path, capsys):
    doc = {
        "marginal_q": 1.0,
        "capital": 2.0,
        "interpreted_component": 0.5,
        "dividend": 0.2,
        "horizon": 5.0,
        "grid_step": 0.01,
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["generate", "miao-wang", "--scenario", str(f)])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["interpreted_component"] == 0.5
    assert parsed["horizon"] == 5.0
    # flags override scenario fields
    code, out2, _ = run(
        capsys, ["generate", "miao-wang", "--scenario", str(f), "--Bmw", "3"]
    )
    assert json.loads(out2)["interpreted_component"] == 3.0


def test_generate_miao_wang_scenario_rejects_unknown_fields(tmp_path, capsys):
    f = tmp_path / "scenario.json"
    f.write_text('{"marginal_q": 1, "capital": 2, "bubble": 1}')
    code, _, err = run(capsys, ["generate", "miao-wang", "--scenario", str(f)])
    assert code == 2
    assert "unknown scenario fields" in err


def test_console_script_entry_point():
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "bubblekit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bubblekit 0.1.0" in proc.stdout


def test_continuous_json_round_trip(capsys, monkeypatch):
    from bubblekit.io import parse_continuous_json, serialize_continuous_json

    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang",
            "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2",
            "--horizon", "10", "--grid-step", "0.01",
        ],
    )
    cpath = parse_continuous_json(doc)
    assert serialize_continuous_json(cpath) == doc
    assert cpath.interpreted_component == 0.5
    assert cpath.tail is not None


def test_continuous_json_rejects_bad_documents():
    from bubblekit.io import parse_continuous_json

    with pytest.raises(ParseError):
        parse_continuous_json("{not json")
    with pytest.raises(ParseError, match="missing"):
        parse_continuous_json('{"grid_step": 0.1}')
    with pytest.raises(ValidationError, match="horizon"):
        parse_continuous_json(
            '{"grid_step": 0.5, "horizon": 99.0,'
            ' "prices": [1, 1, 1], "density": [0, 0, 0]}'
        )
    with pytest.raises(ParseError, match="malformed"):
        parse_continuous_json(
            '{"grid_step": 0.5, "prices": [1, 1], "density": [0, 0],'
            ' "jumps": [[1, 2]]}'
        )
    with pytest.raises(ParseError, match="malformed"):
        parse_continuous_json(
            '{"grid_step": 0.5, "prices": ["x", 1], "density": [0, 0]}'
        )


def test_inconsistent_declared_tail_exits_2(capsys, monkeypatch):
    # a declared tail absorbing exactly the remaining value leaves no
    # bubble under a convergent tail class: an inconsistent declaration
    from bubblekit import DeclaredConvergent, implied_deflators, partial_value

    p = gen_constant(100, 5, 10).with_tail(DeclaredConvergent(0.0))
    remaining = 100.0 - partial_value(p, implied_deflators(p), 10)
    code, out, err = run(
        capsys,
        ["analyze", "--tail", f"declared-convergent:sum={remaining!r}"],
        stdin=serialize_path_csv(p.with_tail(None)),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert "inconsistent" in err


def test_analyze_continuous_step_flag(capsys, monkeypatch):
    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang",
            "--Q", "1", "--K", "2", "--Bmw", "0", "--D", "0.2",
            "--horizon", "20", "--grid-step", "0.01",
        ],
    )
    code, out, _ = run(
        capsys, ["analyze", "--step", "2.0"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["step"] == 2.0
    assert report["input"]["horizon"] == 20.0
    code, _, err = run(
        capsys, ["analyze", "--step", "0.015"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 2 and "multiple" in err


@pytest.mark.parametrize(
    "grid_step, step",
    [(0.01, "inf"), (0.01, "-inf"), (0.01, "nan"), (1e-10, "1e300")],  # ratio inf
)
def test_analyze_continuous_step_must_be_a_finite_multiple(
    capsys, monkeypatch, grid_step, step
):
    doc = json.dumps(
        {
            "grid_step": grid_step,
            "prices": [1.0] * 5,
            "density": [0.1] * 5,
            "tail": {"kind": "constant-yield", "level": 0.1},
        }
    )
    code, out, err = run(capsys, ["analyze", f"--step={step}"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "multiple" in err and "internal" not in err


# ---------- strict reports and the exit-code contract ----------


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite number {name} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_steep_geometric_decay_report_is_strict_json(capsys, monkeypatch):
    # the power-law fit of a steep geometric decay has an intercept past
    # exp's range; that candidate is dropped instead of reported as Infinity
    _, doc, _ = run(
        capsys,
        ["generate", "convergent-yield", "--alpha", "0.5", "--rho", "0.3", "--T", "200"],
    )
    code, out, err = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 10
    assert err == ""
    report = strict_json(out)
    assert "power-yield" not in report["diagnostics"]["tail_fit"]["candidates"]


def test_tail_fit_runs_once_per_document(tmp_path, capsys, monkeypatch, one_cpu):
    import sys

    calls = []

    def counting(path, *args, **kwargs):
        calls.append(path.horizon)
        return suggest_tail(path, *args, **kwargs)

    # wherever a bubblekit module bound the name
    for name, module in list(sys.modules.items()):
        if name.startswith("bubblekit"):
            if getattr(module, "suggest_tail", None) is suggest_tail:
                monkeypatch.setattr(module, "suggest_tail", counting)
    files = []
    tailless, embedded = gen_constant(100, 5, 60).with_tail(None), gen_constant(50, 1, 40)
    for i, path in enumerate([tailless, embedded]):
        f = tmp_path / f"doc{i}.csv"
        f.write_text(serialize_path_csv(path))
        files.append(str(f))
    _, doc, _ = run(
        capsys,
        ["generate", "miao-wang", "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2",
         "--horizon", "10", "--grid-step", "0.01"],
    )
    (tmp_path / "mw.json").write_text(doc)
    files.append(str(tmp_path / "mw.json"))
    code, out, err = run(
        capsys, ["analyze", "--accept-suggested-tail", "--tail-suggest", *files]
    )
    assert code == 0
    assert calls == [60, 40, 10]  # the continuous path is fitted once discretized
    assert len(out.splitlines()) == 3 and len(err.splitlines()) == 3


@pytest.mark.parametrize("embedded", [True, False], ids=["tail-lines", "no-tail-lines"])
def test_each_document_is_validated_once(tmp_path, capsys, monkeypatch, embedded, one_cpu):
    # a tail from a '# tail:' line or from the fit is swapped in unchecked
    calls = []
    post_init = DiscretePath.__post_init__

    def counting(path):
        calls.append(path)
        post_init(path)

    monkeypatch.setattr(DiscretePath, "__post_init__", counting)
    paths = [gen_constant(100, 5, 30), gen_gordon(1.0, 1.02, 1.05, 25),
             gen_convergent_yield(0.5, 0.8, 40), gen_constant(50, 1, 20)]
    files = []
    for i, path in enumerate(paths):
        f = tmp_path / f"doc{i}.csv"
        f.write_text(serialize_path_csv(path if embedded else path.with_tail(None)))
        files.append(str(f))
    calls.clear()
    code, out, err = run(capsys, ["analyze", "--accept-suggested-tail", *files])
    assert code == 10 and err == ""
    assert len(out.splitlines()) == len(paths)
    assert len(calls) == len(paths)


def test_continuous_grid_cells_are_summed_twice_per_document(tmp_path, capsys, one_cpu):
    # one compensated_sum for the yield integral and one for all periods
    # of discretize, however many periods there are
    import bubblekit.continuous
    from bubblekit.numerics import compensated_sum

    calls = []

    def counting(values):
        calls.append(np.shape(values))
        return compensated_sum(values)

    files = []
    for i, (horizon, step) in enumerate([(10, 1), (30, 0.5), (2, 2)]):
        _, doc, _ = run(
            capsys,
            ["generate", "miao-wang", "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2",
             "--horizon", str(horizon), "--grid-step", "0.01"],
        )
        (tmp_path / f"mw{i}.json").write_text(doc)
        files.append(["--step", str(step), str(tmp_path / f"mw{i}.json")])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bubblekit.continuous, "compensated_sum", counting)
        for argv in files:
            assert run(capsys, ["analyze", *argv])[0] == 0
        code, out, _ = run(capsys, ["analyze", *(argv[-1] for argv in files)])
    assert code == 0 and len(out.splitlines()) == 3
    assert calls[:6] == [(1000,), (10, 100), (3000,), (60, 50), (200,), (1, 200)]
    assert len(calls) == 12


def test_continuous_json_bad_horizon_is_a_parse_error(capsys, monkeypatch):
    from bubblekit.io import parse_continuous_json

    doc = '{"grid_step": 0.5, "horizon": "abc", "prices": [1, 1, 1], "density": [0, 0, 0]}'
    with pytest.raises(ParseError, match="malformed"):
        parse_continuous_json(doc)
    code, out, err = run(
        capsys, ["analyze", "--tail", "zero-dividends"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 2 and out == "" and "internal" not in err


@pytest.mark.parametrize("row", ["1,nan,5", "1,inf,5", "1,100,nan", "1,100,-inf"])
def test_parse_csv_non_finite_values_name_line(row):
    # nan and inf are no JSON numbers: a syntax error of their row
    with pytest.raises(ParseError, match="bad number") as info:
        parse_path_csv(f"t,P,D\n0,100,\n{row}\n")
    assert info.value.line == 3


def test_a_spelling_outside_the_json_grammar_exits_2(capsys, monkeypatch):
    # float() reads 1_0 as 10; the CSV grammar refuses it
    code, out, err = run(
        capsys, ["analyze"], stdin="t,P,D\n0,100,\n1,1_0,5\n", monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert err == (
        "bubblekit: -: bad number: could not convert '1_0': "
        "not a JSON number within the double range (line 3)\n"
    )


def test_overflowing_cum_dividend_price_is_analysed_exactly(capsys, monkeypatch):
    # P_1 + D_1 overflows a double; the yield D_1 / P_1 = 1 does not
    code, out, err = run(
        capsys,
        ["analyze", "--tail", "zero-dividends"],
        stdin="t,P,D\n0,1e308,\n1,1e308,1e308\n",
        monkeypatch=monkeypatch,
    )
    assert code == 10
    assert err == ""
    report = strict_json(out)
    assert report["decomposition"]["bubble"] == pytest.approx(5e307, rel=1e-15)
    assert report["decomposition"]["fundamental"] == pytest.approx(5e307, rel=1e-15)
    assert 0.0 <= report["diagnostics"]["no_arbitrage_residual_max"] <= 1e-15


def _infinite_geometric_log_sum(alpha, rho, start):
    terms, t = [], start
    while alpha * rho**t >= 1e-30:
        terms.append(math.log1p(alpha * rho**t))
        t += 1
    return math.fsum(terms)


def test_convergent_yield_pipe_with_negligible_bubble_exits_10(capsys, monkeypatch):
    # the bubble exp(-80) is far below EPS_BUBBLE * P_0, but the yield sum
    # converges: a bubble, with its size carried in the log domain
    _, doc, _ = run(
        capsys, ["generate", "convergent-yield", "--alpha", "1", "--rho", "0.99"]
    )
    code, out, err = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 10 and err == ""
    report = strict_json(out)
    rows = [line.split(",") for line in doc.splitlines()[3:]]
    sampled = math.fsum(math.log1p(float(d) / float(p)) for _, p, d in rows)
    expected = -(sampled + _infinite_geometric_log_sum(1.0, 0.99, len(rows) + 1))
    assert report["decomposition"]["verdict"] == "bubble"
    assert report["diagnostics"]["boundary"] is True
    assert report["diagnostics"]["log_bubble"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, rho, T",
    [
        (1.2, 0.5, 50),  # total log-yield sum ~1
        (0.3, 0.9, 100),  # ~2.5
        (1.0, 0.95, 300),  # ~16
        (1.5, 0.99, 500),  # ~114
        (1.0, 0.998, 1000),  # ~410; the bubble underflows past ~745
        (0.6, 0.9995, 1000),  # ~1056, with a ratio near 1
    ],
)
def test_convergent_yield_round_trip_always_exits_10(alpha, rho, T, capsys, monkeypatch):
    _, doc, _ = run(
        capsys,
        ["generate", "convergent-yield", "--alpha", str(alpha), "--rho", str(rho),
         "--T", str(T)],
    )
    code, out, err = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 10 and err == ""
    report = strict_json(out)
    log_bubble = report["diagnostics"]["log_bubble"]
    bubble = report["decomposition"]["bubble"]
    expected = -_infinite_geometric_log_sum(alpha, rho, 1)
    assert log_bubble == pytest.approx(expected, rel=1e-9)
    assert bubble == pytest.approx(math.exp(log_bubble), rel=1e-12, abs=1e-300)
    assert report["diagnostics"]["boundary"] is (bubble <= 1e-9)


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _fresh_process(argv, stdin=""):
    """``bubblekit`` in a new interpreter, within 1 GiB and 60 s."""
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "bubblekit.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_leaves_scipy_unloaded(tmp_path):
    import subprocess
    import sys as _sys

    def probe(code):
        proc = subprocess.run(
            [_sys.executable, "-c", "import sys, bubblekit.cli\n" + code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    loaded = "sorted(m for m in sys.modules if m.split('.')[0] in {'scipy', 'orjson'})"
    assert probe(f"print({loaded})") == "[]\n"
    # importing the CLI loads neither; reading a CSV body, writing a
    # generated document and reading continuous JSON load orjson
    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    continuous = tmp_path / "c.json"
    continuous.write_text(
        '{"grid_step": 1, "prices": [1, 1], "density": [0.1, 0.1], '
        '"tail": {"kind": "constant-yield", "level": 0.1}}'
    )
    run = (
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "def run(*argv):\n"
        "    with redirect_stdout(StringIO()):\n"
        "        code = bubblekit.cli.main(list(argv))\n"
        "    print(code, 'orjson' in sys.modules)\n"
    )
    out = probe(
        run
        + f"run('analyze', '--tail', 'constant-levels', {str(doc)!r})\n"
        + f"run('analyze', {str(continuous)!r})\n"
    )
    assert out == "0 True\n0 True\n"
    # the analytic tail sums need no special-function library
    out = probe(
        run
        + f"run('analyze', '--tail', 'power-yield:a=0.5,p=1.5', {str(doc)!r})\n"
        + f"run('analyze', '--tail', 'geometric-yield:a=0.5,rho=0.9995', {str(doc)!r})\n"
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert out == "10 True\n10 True\n[]\n"
    out = probe(run + "run('generate', 'money', '--P0', '1', '--T', '2')\n")
    assert out == "0 True\n"

def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    calls = [
        ["analyze", "--tail", "constant-levels", "--format", "text", "--tol", "1e-6", str(doc)],
        ["analyze", str(doc)],
        ["check-identity", "--format", "text", str(doc)],
        ["check-identity", str(doc)],
        ["generate", "constant", "--P", "100", "--D", "5", "--T", "3"],
        ["analyze", "--tail", "constant-yield", "--horizon", "1", str(doc)],
        ["analyze", "--tail", "zero-dividends", str(doc)],
    ]
    in_process = [run(capsys, argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0, 0, 10]
    assert in_process == [_fresh_process(argv) for argv in calls]


GORDON_50 = ["gordon", "--D0", "1", "--g", "1.01", "--R", "1.05", "--T", "50"]


def test_power_tail_head_is_summed_whole(tmp_path, capsys):
    f = tmp_path / "g.csv"
    f.write_text(serialize_path_csv(gen_gordon(1.0, 1.01, 1.05, 50)))
    # a head of 7.4 million terms from t = 51, which alone sums to 9.86e6;
    # it was cut after 2 million, for a log_bubble of -5.7e6
    code, out, _ = run(capsys, ["analyze", "--tail", "power-yield:a=1e10,p=1.5", str(f)])
    assert code == 10
    assert json.loads(out)["diagnostics"]["log_bubble"] < -9.86e6


@pytest.mark.parametrize(
    "generate, tail, named",
    [
        # a head of 1.39e9 terms, which a dilogarithm once summed (exit 10)
        (
            ["convergent-yield", "--alpha", "2", "--rho", "0.999999999", "--T", "10"],
            [],
            "geometric-yield tail a=2.0, rho=0.999999999",
        ),
        # heads of 3.4e13 and 3.4e205 terms
        (GORDON_50, ["--tail", "power-yield:a=1e20,p=1.5"], "power-yield tail a=1e+20, p=1.5"),
        (GORDON_50, ["--tail", "power-yield:a=1e308,p=1.5"], "power-yield tail a=1e+308, p=1.5"),
    ],
)
def test_a_tail_whose_head_passes_its_bound_is_refused(
    generate, tail, named, capsys, monkeypatch
):
    code, document, _ = run(capsys, ["generate", *generate])
    assert code == 0
    code, out, err = run(capsys, ["analyze", *tail, "-"], document, monkeypatch)
    assert (code, out) == (2, "")
    assert named in err and "more than the 100000000 terms" in err


@pytest.mark.parametrize(
    "spec",
    ["geometric-yield:a=inf,rho=0.5", "declared-convergent:sum=nan", "power-yield:a=1,p=inf"],
)
def test_non_finite_tail_parameters_exit_2(spec):
    # in a capped process: an infinite geometric coefficient once made the
    # tail sum loop forever, growing its list of terms
    code, out, err = _fresh_process(["analyze", "--tail", spec], stdin=CONSTANT_CSV)
    assert code == 2
    assert out == ""
    assert "finite" in err


# ---------- bad bytes, non-finite JSON constants, per-file isolation ----------


def test_analyze_goes_on_after_an_internal_error(tmp_path, capsys, monkeypatch, one_cpu):
    import bubblekit.cli as cli

    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    calls = []
    real_decompose = cli.decompose

    def flaky_decompose(path):
        calls.append(path)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real_decompose(path)

    monkeypatch.setattr(cli, "decompose", flaky_decompose)
    argv = ["analyze", "--tail", "constant-levels", str(doc), str(doc), str(doc)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert len(out.splitlines()) == 2
    assert err == f"bubblekit: {doc}: internal: RuntimeError('boom')\n"


def test_internal_error_outranks_bad_input(tmp_path, capsys, monkeypatch):
    import bubblekit.cli as cli

    good, bad = tmp_path / "c.csv", tmp_path / "bad.csv"
    good.write_text(CONSTANT_CSV)
    bad.write_text("t,P,D\n0,100,\n1,-1,5\n")
    monkeypatch.setattr(cli, "decompose", lambda path: 1 / 0)
    code, out, err = run(capsys, ["analyze", "--tail", "constant-levels", str(bad), str(good)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0].startswith(f"bubblekit: {bad}: negative price")
    assert err.splitlines()[1] == f"bubblekit: {good}: internal: ZeroDivisionError('division by zero')"


def test_non_utf8_file_is_bad_input_and_the_batch_goes_on(tmp_path, capsys):
    good, bad = tmp_path / "c.csv", tmp_path / "bad.csv"
    good.write_text(CONSTANT_CSV)
    raw = b"t,P,D\n0,100,\n1,100,\xff5\n"
    bad.write_bytes(raw)
    argv = ["analyze", "--tail", "constant-levels", str(good), str(bad), str(good)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert [strict_json(line)["decomposition"]["verdict"] for line in out.splitlines()] == [
        "no-bubble",
        "no-bubble",
    ]
    offset = raw.index(b"\xff")
    assert err == f"bubblekit: {bad}: not UTF-8: invalid start byte at byte offset {offset}\n"


def test_non_utf8_stdin_is_bad_input(capsys, monkeypatch):
    # a POSIX locale gives stdin the surrogateescape handler; the raw bytes
    # are decoded strictly all the same
    raw = CONSTANT_CSV.replace("\n", "\r\n").encode() + b"3,100,\xe2\x82\n"
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, ["analyze", "--tail", "constant-levels"])
    assert code == 2
    assert out == ""
    offset = len(raw) - 3
    assert err == f"bubblekit: -: not UTF-8: invalid continuation byte at byte offset {offset}\n"
    # CRLF bytes on stdin still read as lines
    stdin = io.TextIOWrapper(io.BytesIO(raw[:offset - 6]), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, ["analyze", "--tail", "constant-levels"])
    assert (code, err) == (0, "")
    assert strict_json(out)["input"]["length"] == 3


def test_a_crlf_document_is_read_with_two_copies_at_most(tmp_path):
    # the bytes, then the decoded text with its line ends as they are:
    # never more than those two at once
    import tracemalloc

    from bubblekit.cli import _read_input

    lf = serialize_path_csv(gen_gordon(1.0, 1.0001, 1.001, 20_000))
    crlf = lf.replace("\n", "\r\n")
    doc = tmp_path / "crlf.csv"
    doc.write_bytes(crlf.encode())
    tracemalloc.start()
    try:
        text = _read_input(str(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == crlf
    assert peak < 2.1 * len(crlf)


def test_the_document_kind_is_told_past_the_blanks_lstrip_takes():
    # every character str.isspace() names is a blank before the "{" of a
    # continuous document; a zero-width space and a byte-order mark are not
    from bubblekit.cli import _is_continuous_json

    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    for c in spaces + ["\u200b", "\ufeff"]:
        for doc in (c * 3 + "{", c * 3 + "t"):
            expected = doc.lstrip().startswith("{")
            assert bool(_is_continuous_json(doc)) is expected, repr(doc)


@pytest.mark.parametrize("first", ["{", "t"])
def test_the_document_kind_is_told_without_copying_the_text(first):
    # a document that starts with blanks is not copied past them
    import tracemalloc

    from bubblekit.cli import _is_continuous_json

    doc = " " * 1_000_000 + first + "0" * 2_000_000
    tracemalloc.start()
    try:
        kind = _is_continuous_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(kind) is (first == "{")
    assert peak < 1_000_000


class Discard(io.TextIOBase):
    """A text stream that keeps only the count of what it is given."""

    length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


def test_a_long_csv_is_generated_in_under_two_documents():
    # the rows are formatted and written a piece at a time, so what is
    # held at once is the path and a piece, not the whole text
    import contextlib
    import tracemalloc

    sink = Discard()
    argv = ["generate", "gordon", "--D0", "1", "--g", "1.00001", "--R", "1.05", "--T", "150000"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.length == len(serialize_path_csv(gen_gordon(1.0, 1.00001, 1.05, 150_000)))
    assert peak < 2 * sink.length


@pytest.mark.parametrize("command", ["analyze", "check-identity"])
def test_a_crlf_document_reports_as_its_lf_form(tmp_path, capsys, command):
    lf = serialize_path_csv(gen_gordon(1.0, 1.01, 1.05, 50))
    lf = lf.replace("\n1,", "\n \t,,\n1,", 1)  # and a blank row
    outputs = []
    for name, text in (("lf.csv", lf), ("crlf.csv", lf.replace("\n", "\r\n"))):
        doc = tmp_path / name
        doc.write_bytes(text.encode())
        outputs.append(run(capsys, [command, str(doc)]))
    assert outputs[0][0] in (0, 10)
    assert outputs[0] == outputs[1]


def test_a_lone_cr_document_is_refused_as_the_library_refuses_it(tmp_path, capsys):
    # "\n" alone ends a line; a "\r" is a blank around a cell
    text = "t,P,D\r0,100,\r1,100,5\r2,100,5\r"
    with pytest.raises(ParseError) as refused:
        parse_path_csv(text)
    assert refused.value.line == 1
    doc = tmp_path / "cr.csv"
    doc.write_bytes(text.encode())
    code, out, err = run(capsys, ["analyze", "--tail", "zero-dividends", str(doc)])
    assert (code, out) == (2, "")
    assert err == f"bubblekit: {doc}: {refused.value}\n"


def test_a_header_error_quotes_80_characters_of_its_line(tmp_path, capsys):
    # with lone "\r" line ends, the header line is the whole document
    rows = "".join(f"{t},{100 + t % 7},{5 + t % 3}\r" for t in range(1, 100_001))
    doc = tmp_path / "cr.csv"
    doc.write_bytes(f"t,P,D\r0,100,\r{rows}".encode())
    code, out, err = run(capsys, ["analyze", "--tail", "constant-yield", str(doc)])
    assert (code, out) == (2, "")
    head, got = err.split(" got ")
    assert head == f"bubblekit: {doc}: expected header 't,P,D' or 't,P,D,q',"
    assert got.endswith("... (line 1)\n") and len(got) < 200
    quoted = ast.literal_eval(got[: -len("... (line 1)\n")])
    assert len(quoted) == 80 and quoted.startswith("t,P,D\r0,100,1,101,6\r2,102,7")


@pytest.mark.parametrize("command", ["check-identity", "analyze"])
def test_a_continuous_document_is_read_and_checked_in_under_two_and_a_half_texts(
    tmp_path, capsys, command
):
    # the text is dropped once parsed and the log profiles are formed in
    # place, so the peak is the read itself: the bytes and the text decoded
    # from them
    import tracemalloc

    rng = np.random.default_rng(17)
    n = 100_001
    prices = 10 + np.sin(np.arange(n) / 5_000) + rng.uniform(0, 1e-3, n)
    density = 0.5 + rng.uniform(0, 0.1, n)

    def numbers(values):  # 17 significant digits each, so the text dominates
        return ", ".join(f"{x:.16e}" for x in values)

    text = (
        f'{{"grid_step": 0.001, "prices": [{numbers(prices)}], '
        f'"density": [{numbers(density)}], '
        '"jumps": [{"t": 30.0, "dF": 0.3}, {"t": 70.0005, "dF": 0.2}], '
        '"tail": {"kind": "constant-yield", "level": 0.05}}'
    )
    doc = tmp_path / "continuous.json"
    doc.write_text(text)
    tracemalloc.start()
    try:
        code = main([command, str(doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize(
    "field, value",
    [
        ("interpreted_component", "NaN"),
        ("prices", "[1.0, Infinity]"),
        ("density", "[0.1, -Infinity]"),
        ("grid_step", "NaN"),
    ],
)
def test_non_finite_json_constants_are_bad_input(field, value, capsys, monkeypatch):
    doc = {
        "grid_step": "1.0",
        "prices": "[1.0, 1.0]",
        "density": "[0.1, 0.1]",
        "tail": '{"kind": "constant-yield", "level": 0.1}',
        "interpreted_component": "0.5",
    }

    def analyze():
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
        return run(capsys, ["analyze"], stdin=text, monkeypatch=monkeypatch)

    code, out, err = analyze()
    assert (code, err) == (0, "")
    assert strict_json(out)["interpreted_component"] == 0.5
    doc[field] = value
    code, out, err = analyze()
    assert code == 2
    assert out == ""
    name = value.strip("[]").split(", ")[-1]
    assert err == (
        f"bubblekit: -: invalid JSON: non-finite constant {name} is not allowed\n"
    )


def test_non_finite_scenario_constant_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text('{"marginal_q": 1.0, "capital": 2.0, "interpreted_component": NaN, "dividend": 0.1}')
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert code == 2
    assert out == ""
    assert err == "bubblekit: invalid JSON: non-finite constant NaN is not allowed\n"


BIG = "9" * 401  # an integer literal past the double range


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("prices", f"[1.0, {BIG}]", "invalid JSON: number is infinity when parsed as double"),
        ("grid_step", BIG, "malformed continuous path document: OverflowError"),
        ("jumps", f'[{{"t": {BIG}, "dF": 0.1}}]', "malformed continuous path document: OverflowError"),
        ("tail", f'{{"kind": "constant-yield", "level": {BIG}}}', "bad parameters for tail"),
        ("tail", '{"kind": [1], "level": 0.1}', "tail kind must be a string, got [1]"),
        ("interpreted_component", "1e400", "interpreted_component must be finite"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "check-identity"])
def test_out_of_range_numbers_and_a_list_tail_kind_are_bad_input(
    field, value, message, command, capsys, monkeypatch
):
    doc = {
        "grid_step": "1.0",
        "prices": "[1.0, 1.0]",
        "density": "[0.1, 0.1]",
        "jumps": "[]",
        "tail": '{"kind": "constant-yield", "level": 0.1}',
    }
    doc[field] = value
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
    code, out, err = run(capsys, [command], stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith(f"bubblekit: {'-: ' if command == 'analyze' else ''}{message}")
    assert err.count("\n") == 1


def test_huge_integer_scenario_field_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(f'{{"marginal_q": 1.0, "capital": {BIG}, "dividend": 0.1}}')
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == "bubblekit: bad scenario value: int too large to convert to float\n"


def test_integer_literal_past_the_digit_limit_is_bad_input(tmp_path, capsys):
    # json.loads raises a plain ValueError for an int literal int() refuses
    scenario = tmp_path / "s.json"
    scenario.write_text('{"marginal_q": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == "bubblekit: invalid JSON: an integer literal has too many digits\n"


def test_deep_scenario_nesting_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text('{"marginal_q": ' + "[" * 100_000 + "1" + "]" * 100_000 + "}")
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == "bubblekit: invalid JSON: nested too deeply\n"


BOOLEAN_FIELDS = [
    ("grid_step", "true", "malformed continuous path document: TypeError('expected a number, got true')"),
    ("prices", "[true, 1.0]", "malformed continuous path document: TypeError('expected numbers, got true or false')"),
    ("prices", "false", "malformed continuous path document: TypeError('expected numbers, got true or false')"),
    ("density", "[false, 0.1]", "malformed continuous path document: TypeError('expected numbers, got true or false')"),
    ("jumps", '[{"t": true, "dF": 0.1}]', "malformed continuous path document: TypeError('expected a number, got true')"),
    ("jumps", '[{"t": 0.5, "dF": false}]', "malformed continuous path document: TypeError('expected a number, got false')"),
    ("horizon", "true", "malformed continuous path document: TypeError('expected a number, got true')"),
    ("interpreted_component", "false", "malformed continuous path document: TypeError('expected a number, got false')"),
    ("tail", '{"kind": "constant-yield", "level": true}', "bad parameters for tail 'constant-yield': expected a number, got true"),
]


STRING_FIELDS = [
    ("grid_step", '"1.0"', """malformed continuous path document: TypeError('expected a number, got "1.0"')"""),
    ("prices", '["1.0", 1.0]', "malformed continuous path document: TypeError('expected numbers, got a string')"),
    ("prices", '[1.0, "1.0"]', "malformed continuous path document: TypeError('expected numbers, got a string')"),
    ("prices", '"1.0"', "malformed continuous path document: TypeError('expected numbers, got a string')"),
    ("density", '["0.1", 0.1]', "malformed continuous path document: TypeError('expected numbers, got a string')"),
    ("jumps", '[{"t": "0.5", "dF": 0.1}]', """malformed continuous path document: TypeError('expected a number, got "0.5"')"""),
    ("jumps", '[{"t": 0.5, "dF": "0.1"}]', """malformed continuous path document: TypeError('expected a number, got "0.1"')"""),
    ("horizon", '"1.0"', """malformed continuous path document: TypeError('expected a number, got "1.0"')"""),
    ("interpreted_component", '"0.5"', """malformed continuous path document: TypeError('expected a number, got "0.5"')"""),
    ("tail", '{"kind": "constant-yield", "level": "0.1"}', 'bad parameters for tail \'constant-yield\': expected a number, got "0.1"'),
]


@pytest.mark.parametrize("field, value, message", BOOLEAN_FIELDS)
@pytest.mark.parametrize("command", ["analyze", "check-identity"])
def test_json_booleans_are_not_numbers(field, value, message, command, capsys, monkeypatch):
    assert_field_is_bad_input(field, value, message, command, capsys, monkeypatch)


@pytest.mark.parametrize("field, value, message", STRING_FIELDS)
@pytest.mark.parametrize("command", ["analyze", "check-identity"])
def test_json_strings_are_not_numbers(field, value, message, command, capsys, monkeypatch):
    assert_field_is_bad_input(field, value, message, command, capsys, monkeypatch)


def assert_field_is_bad_input(field, value, message, command, capsys, monkeypatch):
    """A good continuous document with ``field`` set to ``value`` is bad
    input: exit 2, nothing on stdout and ``message`` on stderr."""
    doc = {
        "grid_step": "1.0",
        "horizon": "1.0",
        "prices": "[1.0, 1.0]",
        "density": "[0.1, 0.1]",
        "jumps": '[{"t": 0.5, "dF": 0.1}]',
        "tail": '{"kind": "constant-yield", "level": 0.1}',
        "interpreted_component": "0.5",
    }

    def text():
        return "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"

    code, out, err = run(capsys, [command], stdin=text(), monkeypatch=monkeypatch)
    assert code != 2, err  # the document without the boolean is good input
    doc[field] = value
    code, out, err = run(capsys, [command], stdin=text(), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"bubblekit: {'-: ' if command == 'analyze' else ''}{message}\n"


def test_a_document_of_strings_is_bad_input(capsys, monkeypatch):
    doc = (
        '{"grid_step": "1", "prices": ["1", "2"], "density": ["0.1", "0.1"], '
        '"tail": {"kind": "constant-yield", "level": "0.1"}}'
    )
    for command in ("analyze", "check-identity"):
        code, out, err = run(capsys, [command], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1


def test_a_document_of_booleans_is_bad_input(capsys, monkeypatch):
    doc = (
        '{"grid_step": true, "prices": [true, 2], "density": [false, 0.1], '
        '"tail": {"kind": "constant-yield", "level": true}}'
    )
    code, out, err = run(capsys, ["analyze"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field",
    ["marginal_q", "capital", "interpreted_component", "dividend", "rate",
     "horizon", "grid_step", "initial_price", "initial_dividend"],
)
def test_scenario_booleans_are_not_numbers(field, tmp_path, capsys):
    from dataclasses import fields

    from bubblekit import MiaoWangScenario

    assert field in [f.name for f in fields(MiaoWangScenario)]
    fields = {"marginal_q": 1.0, "capital": 2.0, "interpreted_component": 0.5, "dividend": 0.1}
    fields[field] = True
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(fields))
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == "bubblekit: bad scenario value: expected a number, got true\n"


@pytest.mark.parametrize(
    "field",
    ["marginal_q", "capital", "interpreted_component", "dividend", "rate",
     "horizon", "grid_step", "initial_price", "initial_dividend"],
)
def test_scenario_strings_are_not_numbers(field, tmp_path, capsys):
    fields = {"marginal_q": 1.0, "capital": 2.0, "interpreted_component": 0.5, "dividend": 0.1}
    fields[field] = "1.5"
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(fields))
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == 'bubblekit: bad scenario value: expected a number, got "1.5"\n'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"grid_step": 1, "prices": [1.0, 1e400], "density": [0.1, 0.1]}',
         "invalid JSON: number is infinity when parsed as double at column 34 (char 33) (line 1)"),
        ('{"grid_step": 1,\n "prices": [1.0, 2.0,]}',
         "invalid JSON: Expecting value at column 22 (char 38) (line 2)"),
        ("{", "invalid JSON: Expecting property name enclosed in double quotes at column 2 (char 1) (line 1)"),
    ],
)
def test_a_json_error_names_its_position_once(text, message, capsys, monkeypatch):
    code, out, err = run(capsys, ["analyze"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"bubblekit: -: {message}\n"


def test_a_scenario_json_error_names_its_position_once(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text('{"marginal_q": 1.0,\n\n "capital": }')
    code, out, err = run(capsys, ["generate", "miao-wang", "--scenario", str(scenario)])
    assert (code, out) == (2, "")
    assert err == "bubblekit: invalid JSON: Expecting value at column 13 (char 33) (line 3)\n"


@pytest.mark.parametrize("command", ["analyze", "check-identity"])
def test_deep_nesting_is_bad_input_in_a_fresh_process(command):
    # orjson 3.8.3 crashes the interpreter on this text; only flat arrays reach it
    doc = '{"prices":' + "[" * 200_000 + "]" * 200_000 + "}"
    code, out, err = _fresh_process([command], stdin=doc)
    assert (code, out) == (2, "")
    assert err.endswith("invalid JSON: nested too deeply\n")


def test_continuous_identity_holds_where_both_routes_underflow(tmp_path, capsys):
    # 21 jumps of 1 - 2^-53 on a unit price: each multiplies qP by 2^-53,
    # so both routes reach e^-771 and underflow to 0; in logs they agree
    jumps = [{"t": round(0.04 * k, 2), "dF": 1 - 2.0**-53} for k in range(1, 22)]
    doc = tmp_path / "underflow.json"
    doc.write_text(
        json.dumps(
            {"grid_step": 0.01, "prices": [1.0] * 101, "density": [0.0] * 101,
             "jumps": jumps, "tail": {"kind": "zero-dividends"}}
        )
    )
    code, out, err = run(capsys, ["check-identity", str(doc)])
    assert (code, err) == (0, "")
    result = strict_json(out)
    assert result["max_relative_gap"] == 0.0
    assert result["at_horizon"] == 0.0
    assert result["pass"] is True


def test_continuous_gap_past_the_double_range_is_the_largest_double(capsys, monkeypatch):
    # log lhs - log rhs is about 1e300: its expm1 overflows a double
    doc = '{"grid_step":1,"prices":[1e-300,1],"density":[0,1e300]}'
    code, out, err = run(capsys, ["check-identity"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    result = strict_json(out)
    assert result["max_relative_gap"] == result["at_horizon"] == sys.float_info.max
    assert result["pass"] is False


def test_density_past_the_double_range_is_bad_input(tmp_path, capsys):
    doc = tmp_path / "big.json"
    doc.write_text(
        json.dumps(
            {"grid_step": 1.0, "prices": [1.0] * 11, "density": [1e308] * 11,
             "tail": {"kind": "constant-yield", "level": 0.1}}
        )
    )
    for argv in (["analyze", str(doc)], ["check-identity", str(doc)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "leaves the double range" in err


# ---------- yields past the double range ----------


def test_yield_past_the_double_range_is_analysed_in_logs(tmp_path, capsys):
    # D_1 / P_1 = 1e600 overflows a double; its log, 600 ln 10, does not
    doc = tmp_path / "far.csv"
    doc.write_text("t,P,D\n0,1,\n1,1e-300,1e300\n")
    code, out, err = run(capsys, ["analyze", "--tail", "zero-dividends", str(doc)])
    assert (code, err) == (10, "")
    diag = strict_json(out)["diagnostics"]
    assert diag["log_bubble"] == pytest.approx(-600 * math.log(10), rel=1e-15)
    assert diag["boundary"] is True
    assert diag["classifier"]["partial_sum"] is None


def test_tail_suggest_on_yields_past_the_double_range(tmp_path, capsys):
    # yields alternate between 1e600 and 1e300: every fitted coefficient
    # overflows, so there is no suggestion and no Infinity
    doc = tmp_path / "far.csv"
    rows = [f"{t},1e-300,{1e300 if t % 2 else 1}" for t in range(1, 20)]
    doc.write_text("t,P,D\n0,1,\n" + "\n".join(rows) + "\n")
    argv = ["analyze", "--tail", "zero-dividends", "--tail-suggest", str(doc)]
    code, out, err = run(capsys, argv)
    assert code == 10
    fit = strict_json(err)
    assert fit["suggestion"] is None and fit["candidates"] == {}
    assert strict_json(out)["diagnostics"]["tail_fit"] == fit


def test_jump_past_the_double_range_is_bad_input(tmp_path, capsys):
    doc = tmp_path / "jump.json"
    doc.write_text(
        json.dumps(
            {"grid_step": 1.0, "prices": [1e-300] * 11, "density": [0.0] * 11,
             "jumps": [{"t": 3.0, "dF": 1e300}], "tail": {"kind": "zero-dividends"}}
        )
    )
    code, out, err = run(capsys, ["analyze", str(doc)])
    assert (code, out) == (2, "")
    assert err.endswith("the dF / P sum leaves the double range\n")


# ---------- strict JSON at every writer ----------


def test_non_finite_report_is_one_internal_line(tmp_path, capsys, monkeypatch):
    import bubblekit.cli as cli

    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    reports = []
    real_analyze_one = cli._analyze_one

    def analyze_one(name, args, tol):
        report = real_analyze_one(name, args, tol)
        reports.append(report)
        if len(reports) == 2:
            report["diagnostics"]["deflated_terminal_price"] = math.inf
        return report

    monkeypatch.setattr(cli, "_analyze_one", analyze_one)
    argv = ["analyze", "--tail", "constant-levels", str(doc), str(doc), str(doc)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert [strict_json(line)["decomposition"]["verdict"] for line in out.splitlines()] == [
        "no-bubble",
        "no-bubble",
    ]
    assert err.startswith(f"bubblekit: {doc}: internal: ValueError(")
    assert len(err.splitlines()) == 1


def test_non_finite_tail_fit_line_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import bubblekit.cli as cli

    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    monkeypatch.setattr(cli, "tail_fit_to_json", lambda fit: {"rmse": math.nan})
    argv = ["analyze", "--tail", "constant-levels", "--tail-suggest", str(doc)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"bubblekit: {doc}: internal: ValueError(")


def test_non_finite_identity_result_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import bubblekit.cli as cli

    doc = tmp_path / "c.csv"
    doc.write_text(CONSTANT_CSV)
    monkeypatch.setattr(cli, "telescoping_gaps", lambda path: (0.0, math.inf))
    code, out, err = run(capsys, ["check-identity", str(doc)])
    assert (code, out) == (1, "")
    assert err.startswith("bubblekit: internal: ValueError(")


# ---------- tail inference on continuous paths ----------


def miao_wang_document(capsys):
    _, doc, _ = run(
        capsys,
        [
            "generate", "miao-wang",
            "--Q", "1", "--K", "2", "--Bmw", "0.5", "--D", "0.2",
            "--horizon", "50", "--grid-step", "0.01",
        ],
    )
    return doc


def test_continuous_constant_yield_infers_the_final_yield(capsys, monkeypatch):
    doc = miao_wang_document(capsys)
    obj = json.loads(doc)
    argv = ["analyze", "--tail", "constant-yield"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["config"]["step"] == 1.0  # the per-period yield is the rate
    level = obj["density"][-1] / obj["prices"][-1]
    assert report["input"]["tail"] == {"kind": "constant-yield", "level": level}


def test_continuous_constant_levels_infers_the_final_sample(capsys, monkeypatch):
    doc = miao_wang_document(capsys)
    obj = json.loads(doc)
    argv = ["analyze", "--tail", "constant-levels"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["config"]["step"] == 1.0
    assert report["input"]["tail"] == {
        "kind": "constant-levels",
        "price": obj["prices"][-1],
        "dividend": obj["density"][-1],
    }


def test_continuous_constant_yield_needs_a_positive_final_density(capsys, monkeypatch):
    obj = json.loads(miao_wang_document(capsys))
    obj["density"][-1] = 0.0
    argv = ["analyze", "--tail", "constant-yield"]
    code, out, err = run(capsys, argv, stdin=json.dumps(obj), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "bubblekit: -: cannot infer a positive constant yield from the final sample\n"


def test_continuous_malformed_constant_yield_spec_is_bad_input(capsys, monkeypatch):
    doc = miao_wang_document(capsys)
    argv = ["analyze", "--tail", "constant-yield:c=x"]
    code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "bubblekit: -: bad numeric value in tail spec: 'c=x'\n"


# ---------- analyze over several CPUs ----------


def cpus(monkeypatch, n):
    """``analyze`` sees ``n`` usable CPUs; returns the list of the pids that
    ``os.fork`` gave it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forked = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forked


def batch(tmp_path, n=6):
    """``n`` files, each of a Gordon CSV of its own length."""
    files = []
    for i in range(n):
        f = tmp_path / f"doc{i}.csv"
        f.write_text(serialize_path_csv(gen_gordon(1.0, 1.01, 1.05, 20 + 10 * i)))
        files.append(str(f))
    return files


class Expired(BaseException):
    """Not an ``Exception``, so that ``main`` cannot turn it into exit 1."""


@pytest.fixture
def time_limit():
    """Fail a test that waits more than 30 s instead of hanging the suite."""
    import signal

    def expire(signum, frame):
        raise Expired("analyze did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "flags",
    [[], ["--tail-suggest", "--accept-suggested-tail"], ["--format", "text"]],
    ids=["json", "tail-suggest", "text"],
)
def test_analyze_output_does_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch, flags):
    files = batch(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("t,P,D\n0,100,\n1,-1,5\n")
    tailless = tmp_path / "tailless.csv"
    tailless.write_text(serialize_path_csv(gen_constant(100, 5, 60).with_tail(None)))
    mw = tmp_path / "mw.json"
    mw.write_text(miao_wang_document(capsys))
    money = tmp_path / "money.csv"
    money.write_text(serialize_path_csv(gen_money(1.0, 30)))
    missing = str(tmp_path / "missing.csv")
    argv = ["analyze", *flags, files[0], str(bad), str(mw), files[1], missing, "-",
            str(tailless), files[2], str(money), files[3], str(mw), files[4], files[5]]
    parent = os.getpid()

    class Stdin(io.StringIO):
        def read(self, *args):
            assert os.getpid() == parent  # only the calling process reads stdin
            return super().read(*args)

    results = []
    for n in (1, 2, 4):
        forked = cpus(monkeypatch, n)
        monkeypatch.setattr(sys, "stdin", Stdin(CONSTANT_CSV))
        results.append(run(capsys, argv))
        assert len(forked) == n - 1
        assert_no_child_left()
    assert results[0] == results[1] == results[2]
    code, out, err = results[0]
    assert code == 2  # bad input outranks money.csv's bubble
    errors = [line for line in err.splitlines() if line.startswith("bubblekit: ")]
    assert len(errors) == (3 if "--accept-suggested-tail" in flags else 4)
    if "--tail-suggest" in flags:  # and a fit line for each of the 11 parsed documents
        assert len(err.splitlines()) == 3 + 11


def test_a_child_that_dies_makes_its_share_internal_errors(
    tmp_path, capsys, monkeypatch, time_limit
):
    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    parent, analyze_one = os.getpid(), cli._analyze_one

    def dying(name, args, tol):
        if name == files[2]:
            assert os.getpid() != parent  # never end the test's own process
            os._exit(3)
        return analyze_one(name, args, tol)

    monkeypatch.setattr(cli, "_analyze_one", dying)
    forked = cpus(monkeypatch, 2)
    code, out, err = run(capsys, ["analyze", *files])
    assert len(forked) == 1
    assert code == 1
    assert len(out.splitlines()) == 2  # the calling process's share
    assert err.splitlines() == [
        f"bubblekit: {name}: internal: the process analyzing it ended with status 3"
        for name in files[2:]
    ]
    assert_no_child_left()


def test_no_child_outlives_a_closed_stdout(tmp_path, monkeypatch, time_limit):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    files = batch(tmp_path, n=4)
    forked = cpus(monkeypatch, 2)
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["analyze", *files]) == 1
    assert len(forked) == 1
    assert_no_child_left()


def test_no_child_outlives_an_interrupt(tmp_path, monkeypatch, time_limit):
    import time

    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    parent = os.getpid()

    def interrupted(name, args, tol):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a child still at work

    monkeypatch.setattr(cli, "_analyze_one", interrupted)
    forked = cpus(monkeypatch, 2)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", *files])
    assert time.perf_counter() - began < 10  # the child was stopped, not waited for
    assert len(forked) == 1
    assert_no_child_left()


def test_an_interrupt_after_a_child_is_reaped_stops_the_rest(tmp_path, monkeypatch, time_limit):
    import signal
    import time

    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    parent, analyze_one, emit = os.getpid(), cli._analyze_one, cli._emit

    def slow(name, args, tol):
        if name in files[2:]:
            time.sleep(30)  # the last two children are still at work
        return analyze_one(name, args, tol)

    emitted = []

    def interrupted(outcome):
        emitted.append(outcome)
        if len(emitted) == 2:  # the first child's document: that child is reaped
            raise KeyboardInterrupt
        return emit(outcome)

    killed = []
    kill = os.kill

    def recording(pid, sig):
        if sig == signal.SIGKILL:
            killed.append(pid)
        kill(pid, sig)

    monkeypatch.setattr(cli, "_analyze_one", slow)
    monkeypatch.setattr(cli, "_emit", interrupted)
    monkeypatch.setattr(os, "kill", recording)
    forked = cpus(monkeypatch, 4)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", *files])
    assert time.perf_counter() - began < 10
    assert len(forked) == 3
    assert killed == forked[1:]  # never the pid of the child reaped already
    assert_no_child_left()


def test_analyze_forks_no_more_processes_than_the_memory_holds(tmp_path, capsys, monkeypatch):
    import resource

    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    forked = cpus(monkeypatch, 4)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    need = own + 2 * max(os.stat(name).st_size for name in files)
    for free, processes in [(3.9 * need, 3), (1.9 * need, 1), (0, 1), (math.inf, 4)]:
        monkeypatch.setattr(cli, "_free_memory", lambda: free)
        forked.clear()
        code, out, err = run(capsys, ["analyze", *files])
        assert (code, err, len(out.splitlines())) == (0, "", 4)
        assert len(forked) == processes - 1


@pytest.mark.parametrize(
    "groups, files, free",
    [
        ("0::/\n", {}, 8 << 30),  # no controller at hand: the system's
        ("0::/a\n", {"a/memory.max": "max\n", "a/memory.current": "5\n"}, 8 << 30),
        ("0::/a\n", {"a/memory.max": "1000\n", "a/memory.current": "400\n"}, 600),
        ("4:memory:/b\n0::/\n", {"memory/b/memory.limit_in_bytes": "1000\n",
                                   "memory/b/memory.usage_in_bytes": "100\n"}, 900),
        ("3:cpu,memory:/b\n", {"memory/b/memory.limit_in_bytes": "1000\n",
                                "memory/b/memory.usage_in_bytes": "100\n"}, 900),
        ("4:pids:/b\n", {"memory/b/memory.limit_in_bytes": "1000\n",
                          "memory/b/memory.usage_in_bytes": "100\n"}, 8 << 30),
    ],
    ids=["no-controller", "v2-max", "v2-limit", "v1-limit", "v1-joint", "v1-other"],
)
def test_free_memory_is_the_tighter_of_the_system_and_the_cgroup(tmp_path, groups, files, free):
    from bubblekit.cli import _free_memory

    proc, cgroup = tmp_path / "proc", tmp_path / "cgroup"
    (proc / "self").mkdir(parents=True)
    (proc / "meminfo").write_text("MemTotal: 16777216 kB\nMemAvailable: 8388608 kB\n")
    (proc / "self" / "cgroup").write_text(groups)
    for name, text in files.items():
        (cgroup / name).parent.mkdir(parents=True, exist_ok=True)
        (cgroup / name).write_text(text)
    assert _free_memory(str(proc), str(cgroup)) == free
    assert _free_memory(str(tmp_path / "none"), str(cgroup)) == math.inf


def test_unflushed_stdout_is_written_once(tmp_path):
    files = batch(tmp_path, n=4)
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "from bubblekit.cli import main\n"
        "sys.stdout.write('before\\n')\n"
        "sys.stderr.write('no newline yet')\n"
        f"sys.exit(main(['analyze', *{files!r}]))\n"
    )
    # the streams must buffer for a child to hold a copy of their text
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before" and len(lines) == 5
    assert proc.stdout.count("before") == 1
    assert proc.stderr == "no newline yet"


@pytest.mark.parametrize("n", [1, 2])
def test_a_childs_warnings_reach_the_caller(tmp_path, monkeypatch, n):
    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    parent, analyze_one = os.getpid(), cli._analyze_one

    def warning(name, args, tol):
        if name == files[3]:
            warnings.warn(f"in a child: {os.getpid() != parent}", RuntimeWarning)
        return analyze_one(name, args, tol)

    monkeypatch.setattr(cli, "_analyze_one", warning)
    forked = cpus(monkeypatch, n)
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", *files]) == 0
    assert len(forked) == n - 1
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, f"in a child: {n > 1}")
    ]
    assert len(out.getvalue().splitlines()) == 4 and err.getvalue() == ""
    # under this suite's filter error::RuntimeWarning, the warning makes its
    # document an internal error
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["analyze", *files]) == 1
    assert len(out.getvalue().splitlines()) == 3
    assert err.getvalue() == (
        f"bubblekit: {files[3]}: internal: RuntimeWarning('in a child: {n > 1}')\n"
    )


@pytest.mark.parametrize("action", ["default", "always", "error"])
def test_warnings_on_stderr_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, action):
    # a warning shows where it was raised among its document's stderr
    # lines, and under "default" once per place, as in one process
    import bubblekit.cli as cli

    files = batch(tmp_path, n=4)
    analyze_one = cli._analyze_one

    def warning(name, args, tol):
        print(f"before {os.path.basename(name)}", file=sys.stderr)
        warnings.warn("at one place", RuntimeWarning)
        print(f"after {os.path.basename(name)}", file=sys.stderr)
        return analyze_one(name, args, tol)

    def printed(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(cli, "_analyze_one", warning)
    results = []
    for n in (1, 2, 4):
        forked = cpus(monkeypatch, n)
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        with warnings.catch_warnings():  # each run starts with fresh registries
            warnings.simplefilter(action)
            warnings.showwarning = printed  # on stderr, not in pytest's record
            results.append((main(["analyze", *files]), out.getvalue(), err.getvalue()))
        assert len(forked) == n - 1
    assert results[0] == results[1] == results[2]
    code, out, err = results[0]
    lines = err.splitlines()
    if action == "error":
        assert (code, out, len(lines)) == (1, "", 8)
    else:
        assert (code, len(out.splitlines())) == (0, 4)
        shown = 1 if action == "default" else 4
        assert len(lines) == 8 + 2 * shown
        assert lines[:4] == ["before doc0.csv", lines[1], lines[2], "after doc0.csv"]
        assert lines[1].endswith("RuntimeWarning: at one place")
