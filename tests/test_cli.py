import io
import json
import math

import numpy as np
import pytest

from bubblekit import (
    ArbitrageError,
    ConstantLevels,
    DiscretePath,
    ParseError,
    ValidationError,
    gen_constant,
    gen_gordon,
    suggest_tail,
)
from bubblekit.cli import main
from bubblekit.io import (
    parse_path_csv,
    parse_tail_spec,
    serialize_path_csv,
)

CONSTANT_CSV = "t,P,D\n0,100,\n1,100,5\n2,100,5\n"


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
    with pytest.raises(ArbitrageError):
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
    tail = parse_tail_spec("constant-levels", path)
    assert tail == ConstantLevels(100.0, 5.0)
    yield_tail = parse_tail_spec("constant-yield", path)
    assert yield_tail.level == pytest.approx(0.05)


def test_parse_tail_spec_unknown_kind():
    with pytest.raises(ParseError, match="unknown tail kind"):
        parse_tail_spec("mystery-tail")


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


def test_flag_tolerance_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BUBBLEKIT_TOL", "0.01")
    code, _, err = run(
        capsys,
        ["analyze", "--tail", "constant-levels", "--tol", "1e-9"],
        stdin=_csv_with_bad_deflators(),
        monkeypatch=monkeypatch,
    )
    assert code == 2


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


def test_tail_fit_runs_once_per_document(tmp_path, capsys, monkeypatch):
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
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_path_csv(f"t,P,D\n0,100,\n{row}\n")
    assert info.value.line == 3


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
        (0.6, 0.9995, 1000),  # ~1056, with the dilogarithm tail sum
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
