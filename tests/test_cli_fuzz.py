"""``bubblekit analyze`` and ``check-identity`` over arbitrary bytes, and
``generate`` over arbitrary flag values: the exit-code contract.

Whatever bytes ``analyze`` reads, from files or from stdin, it exits 0 (no
bubble), 10 (a bubble) or 2 (bad input); stdout is strict JSON, one report
per good document; stderr holds one line per bad document; and no
``RuntimeWarning`` is raised.  ``check-identity`` exits 0 with a passing
result, 1 with a failing one (a strict-JSON line with ``"pass": false``)
or 2 with one stderr line, never with an internal error, and raises no
``RuntimeWarning`` either.  The bytes are arbitrary, or ``generate``
outputs, CSV and continuous JSON, with a few bytes changed.  ``generate``
of a discrete model exits 0 with a CSV of T + 1 rows or 2 with one stderr
line, whatever numbers its flags hold; so does ``generate miao-wang``, with
a strict-JSON document that ``analyze`` takes.  The numeric flags of
``analyze`` (``--tol``, ``--horizon``, ``--step``) and ``check-identity``
(``--tol``) keep the same contracts whatever numbers they hold.
"""

import contextlib
import functools
import io
import json
import math
import random
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bubblekit.cli import main
from bubblekit.io import parse_path_csv
from bubblekit.models import MAX_PERIODS

from oracles import serialize_path_csv_cells
from test_cli import NoArrays

GENERATE = [
    ["constant", "--P", "100", "--D", "5", "--T", "12"],
    ["gordon", "--D0", "1", "--g", "1.01", "--R", "1.05", "--T", "12"],
    ["money", "--P0", "2", "--T", "12"],
    ["convergent-yield", "--alpha", "0.5", "--rho", "0.8", "--T", "12"],
    ["miao-wang", "--Q", "1.2", "--K", "2", "--Bmw", "0.5", "--D", "0.1",
     "--horizon", "2", "--grid-step", "0.25"],
]

# analyze flags that write nothing to stderr for a good document they
# apply to (--step: a continuous one)
FLAGS = [
    [],
    ["--tail", "constant-yield"],
    ["--tail", "zero-dividends"],
    ["--accept-suggested-tail"],
    ["--horizon", "5"],
    ["--step", "0.5", "--jump-side", "left"],
]

# bytes the document formats give meaning to, and some they do not
SPECIAL = b"0123456789.,-+eE_ \t\n\r\"#[]{}:xn\xa0\xff"


def call(argv, stdin=b"", runtime_warnings="always"):
    """``main(argv)`` with ``stdin`` as its standard input: the exit code,
    stdout, stderr and the warnings raised.  ``runtime_warnings="error"``
    raises each ``RuntimeWarning`` instead."""
    out, err = io.StringIO(), io.StringIO()
    fake_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with contextlib.ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        warnings.simplefilter(runtime_warnings, RuntimeWarning)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(mock.patch.object(sys, "stdin", fake_stdin))
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@functools.cache
def generated() -> list[bytes]:
    """The ``generate`` outputs, and the Miao-Wang one with a jump."""
    docs = []
    for argv in GENERATE:
        code, out, err, _ = call(["generate", *argv])
        assert (code, err) == (0, ""), err
        docs.append(out.encode())
    jumps = b'"jumps":[{"t":0.5,"dF":0.05},{"t":1.25,"dF":0.1}]'
    docs.append(docs[-1].replace(b'"jumps":[]', jumps))
    return docs


def strict_json(line: str):
    def reject(name):
        raise ValueError(f"non-finite number {name} is not JSON")

    return json.loads(line, parse_constant=reject)


def assert_contract(n_docs, code, out, err, caught):
    assert code in (0, 2, 10), err
    reports = out.splitlines()
    errors = err.splitlines()
    for line in reports:
        strict_json(line)
    assert len(reports) + len(errors) == n_docs, (out, err)
    assert (code == 2) == bool(errors), err
    assert all(line.startswith("bubblekit: ") for line in errors), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def mutate(doc: bytes, edits) -> bytes:
    """``doc`` with each ``(where, kind, byte)`` edit: at ``where`` (a
    fraction of the length) replace, insert or delete one byte."""
    data = bytearray(doc)
    for where, kind, byte in edits:
        k = min(int(where * len(data)), max(len(data) - 1, 0))
        if kind == "insert" or not data:
            data.insert(k, byte)
        elif kind == "replace":
            data[k] = byte
        else:
            del data[k]
    return bytes(data)


byte = st.one_of(st.sampled_from(list(SPECIAL)), st.integers(0, 255))
edit = st.tuples(
    st.floats(0, 1), st.sampled_from(["replace", "insert", "delete"]), byte
)


@st.composite
def mutated_documents(draw):
    doc = draw(st.sampled_from(generated()))
    return mutate(doc, draw(st.lists(edit, min_size=1, max_size=4)))


fuzz = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@fuzz
@given(st.binary(max_size=200), st.sampled_from(FLAGS))
def test_arbitrary_bytes_on_stdin(data, flags):
    assert_contract(1, *call(["analyze", *flags], stdin=data))


@fuzz
@given(st.lists(st.binary(max_size=200), min_size=1, max_size=3), st.sampled_from(FLAGS))
def test_arbitrary_bytes_in_files(tmp_path, docs, flags):
    names = []
    for k, data in enumerate(docs):
        path = tmp_path / f"{k}.doc"
        path.write_bytes(data)
        names.append(str(path))
    assert_contract(len(docs), *call(["analyze", *flags, *names]))


@fuzz
@given(mutated_documents(), st.sampled_from(FLAGS))
def test_mutated_generator_output_on_stdin(data, flags):
    assert_contract(1, *call(["analyze", *flags], stdin=data))


@fuzz
@given(
    st.lists(st.one_of(mutated_documents(), st.sampled_from(generated())),
             min_size=1, max_size=3),
    st.sampled_from(FLAGS),
    st.booleans(),
)
def test_mutated_generator_outputs_in_files(tmp_path, docs, flags, with_stdin):
    names = []
    for k, data in enumerate(docs):
        path = tmp_path / f"{k}.doc"
        path.write_bytes(data)
        names.append(str(path))
    stdin = b""
    if with_stdin:  # the first document once more, through stdin
        names.append("-")
        stdin = docs[0]
    n_docs = len(names)
    assert_contract(n_docs, *call(["analyze", *flags, *names], stdin=stdin))


@pytest.mark.parametrize("k", range(len(GENERATE) + 1))
def test_unmutated_generator_outputs_are_good_input(k):
    code, out, err, caught = call(["analyze"], stdin=generated()[k])
    assert_contract(1, code, out, err, caught)
    assert err == ""


def test_mutated_documents_in_a_fresh_process(tmp_path):
    rng = random.Random(0)
    docs = []
    for k in range(24):
        doc = rng.choice(generated())
        edits = [
            (rng.random(), rng.choice(["replace", "insert", "delete"]), rng.choice(SPECIAL))
            for _ in range(rng.randint(0, 3))
        ]
        docs.append(mutate(doc, edits))
    docs.append(bytes(rng.randrange(256) for _ in range(100)))
    names = []
    for k, data in enumerate(docs):
        path = tmp_path / f"{k}.doc"
        path.write_bytes(data)
        names.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bubblekit.cli",
         "analyze", *names, "-"],
        input=docs[0],
        capture_output=True,
        timeout=120,
    )
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert_contract(len(docs) + 1, proc.returncode, out, err, [])
    assert err  # some of the documents are bad
    assert out  # and some are good


def assert_identity_contract(code, out, err, caught):
    assert code in (0, 1, 2), err
    assert "internal:" not in err, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert out == "" and err.count("\n") == 1, (out, err)
        assert err.startswith("bubblekit: "), err
    else:
        assert err == "" and out.count("\n") == 1, (out, err)
        assert strict_json(out)["pass"] is (code == 0)


def check_identity(tmp_path, data, in_file):
    """``check-identity`` of ``data``, read from a file or from stdin."""
    if not in_file:
        return call(["check-identity"], stdin=data)
    path = tmp_path / "doc"
    path.write_bytes(data)
    return call(["check-identity", str(path)])


# a relative gap past the double range; prices of 100 and dividends of 5
# times 2^-1060, exact subnormals; a dividend yield past the double range
IDENTITY_EXAMPLES = [
    b'{"grid_step":1,"prices":[1e-300,1],"density":[0,1e300]}',
    b"t,P,D\n0,8.09477e-318,\n" + b"".join(b"%d,8.09477e-318,4.0474e-319\n" % t for t in range(1, 6)),
    b"t,P,D\n0,1e-300,\n1,1,1e300\n",
]


@fuzz
@given(st.binary(max_size=200), st.booleans())
def test_check_identity_of_arbitrary_bytes(tmp_path, data, in_file):
    assert_identity_contract(*check_identity(tmp_path, data, in_file))


@fuzz
@given(st.one_of(mutated_documents(), st.sampled_from(generated())), st.booleans())
@example(IDENTITY_EXAMPLES[0], False)
@example(IDENTITY_EXAMPLES[1], True)
@example(IDENTITY_EXAMPLES[2], False)
def test_check_identity_of_mutated_generator_output(tmp_path, data, in_file):
    assert_identity_contract(*check_identity(tmp_path, data, in_file))


@pytest.mark.parametrize(
    "doc, code",
    zip(IDENTITY_EXAMPLES, [1, 0, 0]),
    ids=["gap-past-double-range", "subnormal-path", "yield-past-double-range"],
)
def test_check_identity_examples(doc, code):
    result = call(["check-identity"], stdin=doc)
    assert result[0] == code, result
    assert_identity_contract(*result)


@pytest.mark.parametrize(
    "doc, code",
    [
        # D / P = 5 / -0.0 = -inf: log1p gives NaN before the zero-price rule
        ("t,P,D\n0,100,\n1,-0,5\n2,100,5\n", 0),
        ("t,P,D\n0,100,\n1,100,5\n2,-0.0,5\n", 0),
        # a supplied q off by a factor past the double range
        ("t,P,D,q\n0,100,,1\n1,5e-324,5,0.95\n2,100,5,0.9\n", 2),
    ],
)
@pytest.mark.parametrize("command", [["analyze", "--tail", "zero-dividends"], ["check-identity"]])
def test_zero_and_subnormal_prices_raise_no_warning(doc, code, command):
    result = call(command, stdin=doc.encode())
    assert result[0] == code, result[2]
    if command[0] == "analyze":
        assert_contract(1, *result)
    assert not result[3]


# the numeric flags of each discrete model
MODEL_FLAGS = {
    "money": ["P0"],
    "constant": ["P", "D"],
    "gordon": ["D0", "g", "R"],
    "convergent-yield": ["alpha", "rho"],
}
MAX = 1.7976931348623157e308
flag_values = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, MAX, 1.0]),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    st.floats(1e100, MAX),
    st.floats(-10.0, 10.0),
    st.floats(0.5, 2.0),
)
# sizes that run stay small; the two past the cap are refused unmade
periods = st.one_of(st.integers(-3, 60), st.sampled_from([MAX_PERIODS + 1, 2**63]))


@st.composite
def generate_argvs(draw):
    model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
    T = draw(periods)
    # --flag=value, so that argparse reads -inf or -1e-05 as a value
    flags = [f"--{name}={draw(flag_values)!r}" for name in MODEL_FLAGS[model]]
    return ["generate", model, f"--T={T}", *flags], T


@fuzz
@given(generate_argvs())
@example((["generate", "gordon", "--D0=1", "--g=1.01", "--R=1.05", "--T=1000000"], 10**6))
@example((["generate", "gordon", "--D0=inf", "--g=1e10", "--R=inf", "--T=3"], 3))
@example((["generate", "gordon", "--D0=5e-324", "--g=1e10", "--R=inf", "--T=40"], 40))
@example((["generate", "convergent-yield", "--alpha=inf", "--rho=1e-300", "--T=3"], 3))
def test_generate_of_any_flag_values(argv_and_T):
    argv, T = argv_and_T
    with contextlib.ExitStack() as stack:
        if not 1 <= T <= 60:  # refused before any array
            stack.enter_context(mock.patch("bubblekit.models.np", NoArrays()))
        code, out, err, _ = call(argv, runtime_warnings="error")
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
        path = parse_path_csv(out)
        assert path.horizon == T
        assert out == serialize_path_csv_cells(path)
    else:
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("bubblekit: ") and "internal" not in err, err


# the numeric flags of analyze, check-identity and generate miao-wang
small_ints = st.one_of(
    st.integers(-3, 20), st.sampled_from([-(2**63), 2**63, MAX_PERIODS + 1])
)
# the continuous documents' grid step is 0.25: some steps are its multiples
step_values = st.one_of(flag_values, st.sampled_from([0.25, 0.5, 0.75, 2.0, 2.25]))


@fuzz
@given(
    st.sampled_from(range(len(GENERATE) + 1)),
    st.one_of(st.none(), flag_values),
    st.one_of(st.none(), small_ints),
    st.one_of(st.none(), step_values),
    st.sampled_from([[], ["--accept-suggested-tail"], ["--tail", "constant-yield"]]),
)
@example(0, math.nan, None, None, [])
@example(4, None, None, 2.0 ** -1074, [])
@example(0, None, 2**63, None, [])
def test_analyze_of_any_flag_values(k, tol, horizon, step, flags):
    argv = ["analyze", *flags]
    for name, value in (("tol", tol), ("horizon", horizon), ("step", step)):
        if value is not None:
            argv.append(f"--{name}={value!r}")
    code, out, err, caught = call(argv, stdin=generated()[k], runtime_warnings="error")
    assert_contract(1, code, out, err, caught)
    assert "internal" not in err, err
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        assert code == 2 and "--tol must be finite and >= 0" in err, err
    elif horizon is not None and horizon < 1 and k < len(GENERATE) - 1:
        assert code == 2 and "--horizon must be at least 1" in err, err
    elif step is not None and k < len(GENERATE) - 1:
        assert code == 2 and "--step discretizes continuous documents only" in err, err


@fuzz
@given(
    st.sampled_from(range(len(GENERATE) + 1)),
    flag_values,
    st.sampled_from(["right", "left"]),
)
@example(0, -0.0, "right")
@example(1, 1e-12, "left")
@example(4, math.inf, "right")
def test_check_identity_of_any_tol(k, tol, side):
    argv = ["check-identity", f"--tol={tol!r}", "--jump-side", side]
    result = call(argv, stdin=generated()[k], runtime_warnings="error")
    assert_identity_contract(*result)
    code, _, err, _ = result
    if not (math.isfinite(tol) and tol >= 0):
        assert code == 2 and "--tol must be finite and >= 0" in err, err
    elif k < len(GENERATE) - 1:  # a CSV has no jumps to pick a side at
        assert code == 2 and "--jump-side picks the price" in err, err
    else:
        assert code in (0, 1), err


MIAO_WANG_FLAGS = ["Q", "K", "Bmw", "D", "rate", "initial-price", "initial-dividend"]
# mostly ordinary values, so that some drawn economies are valid
mw_values = st.one_of(flag_values, st.floats(0.1, 10.0), st.floats(0.1, 10.0))


@st.composite
def miao_wang_argvs(draw):
    """``generate miao-wang`` argv with every float flag drawn (the optional
    ones may be left out), and its grid steps horizon / grid_step: a few,
    or too many to hold."""
    argv = ["generate", "miao-wang"]
    for name in MIAO_WANG_FLAGS:
        required = name in ("Q", "K", "Bmw", "D")
        value = draw(mw_values if required else st.one_of(st.none(), mw_values))
        if value is not None:
            argv.append(f"--{name}={value!r}")
    grid_step = draw(mw_values)
    few = st.integers(1, 40).map(lambda n: n * grid_step)
    horizon = draw(st.one_of(
        flag_values,
        few,
        few,
        st.sampled_from([2 * MAX_PERIODS, 2**63, 1e300]).map(lambda n: n * grid_step),
    ))
    argv += [f"--grid-step={grid_step!r}", f"--horizon={horizon!r}"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        steps = horizon / grid_step if grid_step else math.inf
    assume(not 60 < steps <= MAX_PERIODS)  # sizes that run stay small
    return argv, steps


@fuzz
@given(miao_wang_argvs())
@example((["generate", "miao-wang", "--Q=1.0", "--K=2.0", "--Bmw=0.5", "--D=0.2",
           "--grid-step=1e-300", "--horizon=1e300"], math.inf))
@example((["generate", "miao-wang", "--Q=1e308", "--K=10.0", "--Bmw=0.5", "--D=0.2",
           "--grid-step=0.5", "--horizon=2.0"], 4.0))
@example((["generate", "miao-wang", "--Q=5e-324", "--K=5e-324", "--Bmw=-0.0",
           "--D=4.633450443753803e-309", "--grid-step=1.0", "--horizon=1.0"], 1.0))
@example((["generate", "miao-wang", "--Q=1.0", "--K=2.0", "--Bmw=0.5", "--D=0.2",
           "--rate=1e208", "--grid-step=1e+100", "--horizon=1e+100"], 1.0))
@example((["generate", "miao-wang", "--Q=1.0", "--K=2.0", "--Bmw=0.5", "--D=0.2",
           "--grid-step=5.992310449541053e+307", "--horizon=1.7976931348623157e+308"], 3.0))
@example((["generate", "miao-wang", "--Q=1.0", "--K=2.0", "--Bmw=0.5", "--D=1e308",
           "--initial-dividend=0.0", "--rate=5e-324", "--grid-step=0.5",
           "--horizon=2.0"], 4.0))
@example((["generate", "miao-wang", "--Q=2.404662500407343e-309", "--K=1e+100",
           "--Bmw=0.0", "--D=2.225073858507203e-309", "--initial-dividend=1e+100",
           "--grid-step=5e-324", "--horizon=5e-324"], 1.0))
def test_generate_miao_wang_of_any_flag_values(argv_and_steps):
    argv, steps = argv_and_steps
    with contextlib.ExitStack() as stack:
        if not steps <= 60:  # refused before any array (NaN too)
            stack.enter_context(mock.patch("bubblekit.models.np", NoArrays()))
        code, out, err, _ = call(argv, runtime_warnings="error")
    assert code in (0, 2), err
    if code == 0:
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        doc = strict_json(out)
        assert len(doc["prices"]) == len(doc["density"]) == round(steps) + 1
        assert_contract(1, *call(["analyze"], stdin=out.encode(), runtime_warnings="error"))
    else:
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("bubblekit: ") and "internal" not in err, err
