"""The continuous-JSON reader against the whole-tree ``json.loads`` reader.

``oracles.parse_continuous_json_stdlib`` turns the whole document into
Python objects, one float per number.  ``bubblekit.io.parse_continuous_json``
walks the top-level object, reads every other value through ``json``'s
decoder, and the ``prices`` / ``density`` arrays through orjson.  On
every document both must accept the same path bit for bit, or raise the
same error class, message and line.  The one deliberate difference: a
number past the double range in ``prices`` or ``density``, which
``json.loads`` reads as an infinity, is a ``ParseError`` of its own,
also in the earlier value of a name given twice, which ``json.loads``
discards.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblekit import io as bio
from bubblekit.continuous import CumulativeDividend
from bubblekit.errors import ParseError, ValidationError
from bubblekit.io import parse_continuous_json, serialize_continuous_json
from bubblekit.models import MiaoWangScenario, gen_miao_wang

from chunks import CHUNKS, chunks_of
from oracles import parse_continuous_json_stdlib

OVERFLOW = "number is infinity when parsed as double"


def outcome(parse, doc):
    try:
        cpath = parse(doc)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    fields = (cpath.grid_step, cpath.dividends.jumps, cpath.tail, cpath.interpreted_component)
    return cpath.prices.tobytes(), cpath.dividends.density.tobytes(), repr(fields)


def holds_overflow(doc):
    """Whether json.loads reads an infinity into top-level prices or density."""
    obj = json.loads(doc)
    arrays = [obj.get(key) for key in ("prices", "density")]
    return any(
        isinstance(a, list) and any(isinstance(x, float) and math.isinf(x) for x in a)
        for a in arrays
    )


def assert_same(doc, chunk=bio._CHUNK):
    with chunks_of(chunk):
        new = outcome(parse_continuous_json, doc)
    old = outcome(parse_continuous_json_stdlib, doc)
    if new[0] is ParseError and OVERFLOW in new[1]:
        assert issubclass(old[0], ValidationError) and holds_overflow(doc)
    else:
        assert new == old


# ---------- documents ----------


class Num(str):
    """A number already spelled as JSON text."""


def write(value, indent, level=0):
    """JSON text of ``value`` with ``Num`` leaves as spelled, ``indent``
    None (one line, ``", "`` and ``": "``) or a string (one item a line).
    Strings keep their characters past ASCII as they are."""
    if isinstance(value, Num):
        return value
    if not isinstance(value, (list, dict)):
        return json.dumps(value, ensure_ascii=False)
    items = [
        write(v, indent, level + 1)
        if isinstance(value, list)
        else f"{json.dumps(k, ensure_ascii=False)}: {write(v, indent, level + 1)}"
        for k, v in (enumerate(value) if isinstance(value, list) else value.items())
    ]
    ends = "[]" if isinstance(value, list) else "{}"
    if indent is None or not items:
        return ends[0] + ", ".join(items) + ends[1]
    inner = "\n" + indent * (level + 1)
    return ends[0] + inner + ("," + inner).join(items) + "\n" + indent * level + ends[1]


SPECIAL_NUMBERS = [
    "0", "-0", "0.0", "-0.0", "5e-324", "4.9e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1E+2", "1e-400", "18446744073709551617",
    "18446744073709553664", "18446744073709553665", "1180591620717411303424",
    "100000000000000000000000000000000000000", "0e400", "1.7976931348623159e308",
]


@st.composite
def spelled(draw, x: float) -> Num:
    forms = [repr(x), f"{x:.17e}", f"{x:E}", f"{x:.3f}"]
    if x == int(x):
        forms.append(str(int(x)))
    if draw(st.integers(0, 9)) == 0:
        forms = SPECIAL_NUMBERS
    return Num(draw(st.sampled_from(forms)))


STRINGS = [
    '[1, 2.5e3]', '"[4,5]"', 'x\\"[3]', '[', ']', '\\\\', '"', '[-0]" , [1]',
    "é[1]", "\u2028[2]", "[1, é]", "[2,\u2028 3]",
]
EXTRAS = [
    [[1, 2], [3.5]],
    [Num("1\r"), Num("\r2.5")],
    {"a": [1, 2], "b": {"c": [0.5, -1]}},
    [],
    [1, [2, [3]], "[4]"],
    [True, None, 1],
]


@st.composite
def documents(draw):
    n = draw(st.integers(2, 12))
    cpath = gen_miao_wang(
        MiaoWangScenario(
            marginal_q=draw(st.floats(0.5, 2.0)),
            capital=draw(st.floats(1.0, 4.0)),
            interpreted_component=draw(st.floats(0.0, 1.0)),
            dividend=draw(st.floats(0.05, 0.5)),
            horizon=n * 0.25,
            grid_step=0.25,
        )
    )
    if draw(st.booleans()):
        times = draw(st.lists(st.integers(1, n), unique=True, max_size=3))
        jumps = tuple((t * 0.25, draw(st.floats(0.0, 0.1))) for t in sorted(times))
        dividends = CumulativeDividend(cpath.dividends.density, jumps)
        cpath = dataclasses.replace(cpath, dividends=dividends)
    obj = json.loads(serialize_continuous_json(cpath))
    for key in ("prices", "density"):
        obj[key] = [draw(spelled(x)) for x in obj[key]]
        if draw(st.integers(0, 9)) == 0:
            k = draw(st.integers(0, len(obj[key]) - 1))
            obj[key][k] = Num(draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(STRINGS + ["extra", "more"]))
        obj[key] = draw(st.sampled_from(STRINGS + EXTRAS))
    if draw(st.integers(0, 9)) == 0:
        obj["tail"] = draw(st.sampled_from(EXTRAS))
    if draw(st.integers(0, 9)) == 0:
        obj["prices"] = [obj["prices"]]
    keys = draw(st.permutations(list(obj)))
    text = write({k: obj[k] for k in keys}, draw(st.sampled_from([None, "  ", "\t"])))
    return text.replace("\n", draw(st.sampled_from(["\n", "\r\n"])))


@st.composite
def mutated(draw):
    doc = list(draw(documents()))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(doc) - 1))
        byte = draw(st.sampled_from(list('[]{},:"\\ \n-+.eE019NI') + ["", "[[", "]]"]))
        doc[k] = byte if draw(st.booleans()) else doc[k] + byte
    return "".join(doc)


@settings(max_examples=300, deadline=None)
@given(documents(), CHUNKS)
def test_documents_read_like_json_loads(doc, chunk):
    assert_same(doc, chunk)


@settings(max_examples=500, deadline=None)
@given(mutated(), CHUNKS)
def test_mutated_documents_read_like_json_loads(doc, chunk):
    assert_same(doc, chunk)


@pytest.mark.parametrize(
    "array", ["[1, ,2]", "[1,,2]", "[1,2, ]", "[1,\n ,2]", "[1 ,2]", "[,1,2]", "[1,2,]", "[]"]
)
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_cuts_at_commas_read_like_json_loads(array, chunk):
    doc = '{"grid_step": 1, "density": [0, 0, 0],\n"prices": ' + array + "}"
    assert_same(doc, chunk)


def test_generated_document_reads_bit_for_bit():
    cpath = gen_miao_wang(MiaoWangScenario(1.2, 2.5, 0.4, 0.2, grid_step=0.01))
    doc = serialize_continuous_json(cpath)
    assert_same(doc)
    assert_same(doc, chunk=7)
    back = parse_continuous_json(doc)
    assert back.prices.tobytes() == cpath.prices.tobytes()
    assert back.dividends.density.tobytes() == cpath.dividends.density.tobytes()


@pytest.mark.parametrize(
    "doc, line",
    [
        ('{"prices": [1,\n2,\n1e400], "density": [0, 0, 0], "grid_step": 1}', 3),
        ('{"grid_step": 1, "density": [0, 0],\n"prices": [1, -1e400]}', 2),
        ('{"grid_step": 1, "density": [0, 0], "prices": [1e400],\n"prices": [1]}', 1),
    ],
)
def test_number_past_the_double_range_is_a_parse_error(doc, line):
    with pytest.raises(ParseError, match=OVERFLOW) as info:
        parse_continuous_json(doc)
    assert info.value.line == line


def test_other_arrays_get_their_json_loads_lists_back():
    doc = '{"a": [1, 18446744073709551617, [2.5]], "prices": [3, 4], "b": [[]]}'
    obj = bio._decode_continuous(doc)
    expected = json.loads(doc)
    assert obj["prices"].dtype == np.float64 and obj["prices"].tolist() == [3.0, 4.0]
    del obj["prices"], expected["prices"]
    assert obj == expected and type(obj["a"][1]) is int


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    doc = '{"prices": ' + "[" * 100_000 + "1" + "]" * 100_000 + "}"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_continuous_json(doc)


@pytest.mark.parametrize(
    "brackets",
    ["[" * 10**6, "[ " * 10**6, "[1 " * 10**6 + "]" * 10**6],
    ids=["unclosed", "unclosed-spaced", "closed"],
)
def test_a_million_brackets_are_a_parse_error_in_linear_time(brackets):
    doc = '{"prices": ' + brackets
    began = time.perf_counter()
    with pytest.raises(ParseError):
        parse_continuous_json(doc)
    assert time.perf_counter() - began < 2.0


VALID = '"grid_step": 1, "density": [0, 0]'


@pytest.mark.parametrize(
    "doc, chunk",
    [
        ('{"a": [1, é], "b": [\u2028 2], "c": [1,\r2]}', 1),
        ('{"a": [1, \ud800], "b": "é[1]", "c": [2]}', 2),
        ('{"prices": [1, é], "b": [\u2028 2], "density": [1,\r2], "grid_step": 1}', 1),
        ('{"prices": [1, \ud800], "b": "é[1]", "density": [2], "grid_step": 1}', 2),
    ],
)
def test_characters_past_ascii_in_arrays_read_like_json_loads(doc, chunk):
    assert_same(doc, chunk)


@pytest.mark.parametrize(
    "doc",
    [
        "{" + VALID + ', "prices": [1, 2], "prices": "12"}',
        "{" + VALID + ', "prices": "12", "prices": [1, 2]}',
        "{" + VALID + ', "prices": [1,,2], "prices": [1, 2]}',
        "{" + VALID + ', "prices": "12", "prices": [1, 1e400]}',
        '{"grid_step": 1, "prices": [1, 2], "density": [0, 0], "density": [0, 0.5]}',
        "{}",
        " \r\n{ } ",
        "\ufeff{" + VALID + ', "prices": [1, 2]}',
        "{" + VALID + ', "prices": [1, 2]} x',
        "{" + VALID + ', "prices": [1, 2]}{}',
        "{" + VALID + ', "prices": [1, 2],}',
        "{" + VALID + ', "pr\\u0069ces": [1, 2]}',
        "{" + VALID + ', "prices": [1, 2], "pr\\u0069ces": [3, 4]}',
        "{" + VALID + ', "a": {"prices": [1, 2]}}',
        "{" + VALID + ', "a": {"prices": [1], "density": [0]}, "prices": [1, 2]}',
        "[{" + VALID + ', "prices": [1, 2]}]',
        "{" + VALID + ', "prices": [1, 2',
        "{" + VALID + ', "prices" [1, 2]}',
        "{" + VALID + ' "prices": [1, 2]}',
        "{" + VALID + ", prices: [1, 2]}",
        '{"grid_step" 11, "density": [0, 0], "prices": [1, 2]}',
        '{"grid_step": 1; "density": [0, 0], "prices": [1, 2]}',
        "{" + VALID + ', "prices": [1, 2]]',
    ],
)
def test_edge_documents_read_like_json_loads(doc):
    assert_same(doc)


def test_many_short_arrays_read_about_as_fast_as_json_loads():
    doc = "{" + VALID + ', "prices": [1, 2], "a": [' + ", ".join(["[1]"] * 10**5) + "]}"

    def best(read):
        times = []
        for _ in range(3):
            began = time.perf_counter()
            read(doc)
            times.append(time.perf_counter() - began)
        return min(times)

    assert best(parse_continuous_json) <= 4 * best(json.loads)


@pytest.mark.parametrize(
    "field, value",
    [
        ("grid_step", "1"),
        ("horizon", "1"),
        ("prices", ["1", 2]),
        ("prices", [1, "2"]),
        ("prices", "1"),
        ("density", ["0.1", 0.1]),
        ("jumps", [{"t": "0.5", "dF": 0.1}]),
        ("jumps", [{"t": 0.5, "dF": "0.1"}]),
        ("interpreted_component", "0.5"),
        ("tail", {"kind": "constant-yield", "level": "0.1"}),
    ],
)
def test_strings_are_not_numbers_in_either_reader(field, value):
    obj = {"grid_step": 1, "horizon": 1, "prices": [1, 2], "density": [0.1, 0.1],
           "jumps": [{"t": 0.5, "dF": 0.1}], "interpreted_component": 0.5,
           "tail": {"kind": "constant-yield", "level": 0.1}}
    assert not isinstance(outcome(parse_continuous_json, json.dumps(obj))[0], type)
    obj[field] = value
    doc = json.dumps(obj)
    assert outcome(parse_continuous_json, doc)[0] is ParseError
    assert_same(doc)
