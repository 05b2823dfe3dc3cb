"""The array-at-a-time document writers against one-number-at-a-time ones.

``bubblekit.io.serialize_path_csv`` and ``serialize_continuous_json`` format
whole arrays with orjson; ``oracles.serialize_path_csv_repr`` and
``oracles.serialize_continuous_json_repr`` call ``float.__repr__`` once per
number.  Both must write the same lines or keys and the same doubles, and
the documents must parse back to the same arrays bit for bit.  Only the
spelling of a number may differ (``1e-7`` for ``1e-07``).  The CSV writer
must also match ``oracles.serialize_path_csv_cells``, one ``orjson.dumps``
call a number, byte for byte, wherever its pieces of rows are cut, and the
facts its byte edits rely on are pinned here.
"""

import json
import struct

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblekit import io as bio
from bubblekit.continuous import ContinuousPath, CumulativeDividend
from bubblekit.io import (
    parse_continuous_json,
    parse_path_csv,
    path_csv_pieces,
    serialize_continuous_json,
    serialize_path_csv,
)
from bubblekit.models import MAX_PERIODS
from bubblekit.series import DiscretePath
from bubblekit.tails import ConstantYield, GeometricYield, ZeroDividends

from chunks import ROWS, pieces_of
from oracles import (
    serialize_continuous_json_repr,
    serialize_path_csv_cells,
    serialize_path_csv_repr,
)

MAX = 1.7976931348623157e308
TINY = 2.2250738585072014e-308  # the least normal double

# every double a document can hold: the finite nonnegative ones and -0.0,
# with the ranges where orjson and repr spell a number differently
doubles = st.one_of(
    st.floats(0.0, MAX),
    st.floats(0.0, TINY),  # subnormals
    st.floats(1e-5, 1e-4, exclude_max=True),  # repr: 9.8e-05, orjson: 0.000098
    st.floats(1e16, MAX),  # repr: 1e+16, orjson: 1e16
    st.sampled_from([-0.0, 0.0, 5e-324, TINY, MAX, 1e-7, 1e16, 9.831352523777666e-05]),
)
positive = doubles.filter(lambda x: x > 0)
tails = st.sampled_from(
    [None, ZeroDividends(), ConstantYield(0.05), GeometricYield(1e-5, 0.9)]
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_cell(new: str, old: str) -> None:
    assert bits(float(new)) == bits(float(old)), (new, old)


@st.composite
def discrete_paths(draw):
    n = draw(st.integers(2, 30))
    prices = draw(st.lists(positive, min_size=n, max_size=n))
    dividends = draw(st.lists(doubles, min_size=n - 1, max_size=n - 1))
    return DiscretePath(prices=prices, dividends=dividends, tail=draw(tails))


@st.composite
def continuous_paths(draw):
    n = draw(st.integers(2, 30))
    grid_step = draw(st.floats(5e-324, 1e300))
    horizon = (n - 1) * grid_step
    times = draw(
        st.lists(st.floats(0.0, horizon, exclude_min=True), max_size=4, unique=True)
    )
    jumps = tuple((t, draw(doubles)) for t in sorted(times))
    interpreted = draw(
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
    )
    return ContinuousPath(
        grid_step=grid_step,
        prices=draw(st.lists(positive, min_size=n, max_size=n)),
        dividends=CumulativeDividend(
            density=draw(st.lists(doubles, min_size=n, max_size=n)), jumps=jumps
        ),
        tail=draw(tails),
        interpreted_component=interpreted,
    )


def assert_same_csv(path: DiscretePath) -> None:
    new, old = serialize_path_csv(path), serialize_path_csv_repr(path)
    new_lines, old_lines = new.splitlines(), old.splitlines()
    assert new.endswith("\n") and len(new_lines) == len(old_lines)
    head = 2 if path.tail is not None else 1
    assert new_lines[:head] == old_lines[:head]
    for new_row, old_row in zip(new_lines[head:], old_lines[head:]):
        new_cells, old_cells = new_row.split(","), old_row.split(",")
        assert new_cells[0] == old_cells[0] and len(new_cells) == 3
        assert_same_cell(new_cells[1], old_cells[1])
        if old_cells[2]:
            assert_same_cell(new_cells[2], old_cells[2])
        else:
            assert new_cells[2] == ""
    for doc in (new, old):
        parsed = parse_path_csv(doc)
        assert parsed.prices.tobytes() == path.prices.tobytes()
        assert parsed.dividends.tobytes() == path.dividends.tobytes()
        assert parsed.tail == path.tail


def same_json(new, old) -> bool:
    """Same keys and list lengths; numbers of the same bits."""
    if isinstance(old, dict):
        return (
            isinstance(new, dict)
            and list(new) == list(old)
            and all(same_json(new[k], old[k]) for k in old)
        )
    if isinstance(old, list):
        return (
            isinstance(new, list)
            and len(new) == len(old)
            and all(map(same_json, new, old))
        )
    if isinstance(old, float):
        return isinstance(new, float) and bits(new) == bits(old)
    return type(new) is type(old) and new == old


def assert_same_json(cpath: ContinuousPath) -> None:
    new, old = serialize_continuous_json(cpath), serialize_continuous_json_repr(cpath)
    assert new.endswith("\n") and new.count("\n") == 1
    assert same_json(json.loads(new), json.loads(old))
    for doc in (new, old):
        parsed = parse_continuous_json(doc)
        assert parsed.prices.tobytes() == cpath.prices.tobytes()
        density = parsed.dividends.density
        assert density.tobytes() == cpath.dividends.density.tobytes()
        jumps = [list(jump) for jump in parsed.dividends.jumps]
        assert same_json(jumps, [list(jump) for jump in cpath.dividends.jumps])
        assert bits(parsed.grid_step) == bits(cpath.grid_step)
        assert parsed.tail == cpath.tail
        assert same_json(parsed.interpreted_component, cpath.interpreted_component)


@settings(max_examples=200, deadline=None)
@given(discrete_paths())
@example(DiscretePath(prices=[1.0, MAX, 5e-324], dividends=[-0.0, 1e16]))
def test_csv_writer_matches_repr_writer(path):
    assert_same_csv(path)


def varied_path(T: int, tail=None) -> DiscretePath:
    """A path of ``T`` periods whose numbers have every length of spelling."""
    rng = np.random.default_rng(T)
    values = np.exp(rng.uniform(-745.0, 709.0, T + 1))
    return DiscretePath(prices=values, dividends=values[1:], tail=tail)


@settings(max_examples=200, deadline=None)
@given(discrete_paths(), ROWS)
@example(DiscretePath(prices=[1.0, 2.0], dividends=[-0.0, 1.0]), 1)
@example(DiscretePath(prices=[5e-324, MAX, TINY], dividends=[MAX, 5e-324]), 2)
@example(DiscretePath(prices=[MAX, 5e-324], dividends=[-0.0, TINY], tail=ZeroDividends()), 1)
@example(varied_path(9), 3)
@example(varied_path(10, tail=ConstantYield(0.05)), 2)
@example(varied_path(99), 1)
@example(varied_path(100, tail=GeometricYield(1e-5, 0.9)), 3)
@example(varied_path(999), bio._ROWS)
@example(varied_path(1000, tail=ZeroDividends()), 2)
@example(varied_path(10**4), bio._ROWS)
def test_csv_writer_matches_cell_writer_byte_for_byte(path, rows):
    with pieces_of(rows):
        assert serialize_path_csv(path) == serialize_path_csv_cells(path)


@pytest.mark.parametrize("tail", [None, GeometricYield(1e-5, 0.9)])
@pytest.mark.parametrize("rows", [1, 2, 3, bio._ROWS])
def test_csv_pieces_cut_before_at_and_after_each_boundary(rows, tail):
    # T + 1 rows at k pieces less one row, k pieces and k pieces and a row
    lengths = {2} | {k * rows + d for k in (1, 2) for d in (-1, 0, 1)}
    for n in sorted(length for length in lengths if length >= 2):
        path = varied_path(n - 1, tail=tail)
        with pieces_of(rows):
            pieces = list(path_csv_pieces(path))
            assert serialize_path_csv(path) == serialize_path_csv_cells(path)
        assert len(pieces) == -(-n // rows)
        assert all(piece.endswith("\n") for piece in pieces)


# 10^power for every power of ten up to MAX_PERIODS
@pytest.mark.parametrize("power", range(len(str(MAX_PERIODS))))
def test_orjson_spells_each_date_with_a_dot_zero(power):
    top = 10**power
    dates = [t for t in (0, 1, top - 1, top, top + 1) if t <= MAX_PERIODS]
    text = orjson.dumps(np.array(dates, dtype=np.float64), option=orjson.OPT_SERIALIZE_NUMPY)
    assert text.decode() == "[" + ",".join(f"{t}.0" for t in dates) + "]"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(doubles, st.floats(allow_nan=False, allow_infinity=False))))
def test_orjson_numbers_hold_no_comma_or_nul(values):
    text = orjson.dumps(np.array(values, dtype=np.float64), option=orjson.OPT_SERIALIZE_NUMPY)
    assert text.count(b",") == max(len(values) - 1, 0)
    assert b"\x00" not in text


@settings(max_examples=200, deadline=None)
@given(continuous_paths())
@example(
    ContinuousPath(
        grid_step=0.5,
        prices=[1.0, MAX, 5e-324],
        dividends=CumulativeDividend(
            density=[-0.0, 9.831352523777666e-05, 1e-7], jumps=((0.5, 1e16),)
        ),
        tail=ConstantYield(0.05),
        interpreted_component=-0.0,
    )
)
def test_json_writer_matches_repr_writer(cpath):
    assert_same_json(cpath)


@pytest.mark.parametrize(
    "value, new, old",
    [
        (9.831352523777666e-05, "0.00009831352523777666", "9.831352523777666e-05"),
        (1e-07, "1e-7", "1e-07"),
        (1e16, "1e16", "1e+16"),
    ],
)
def test_number_spellings(value, new, old):
    path = DiscretePath(prices=[1.0, value], dividends=[value])
    assert serialize_path_csv(path).splitlines()[-1] == f"1,{new},{new}"
    assert serialize_path_csv_repr(path).splitlines()[-1] == f"1,{old},{old}"
    cpath = ContinuousPath(
        grid_step=1.0,
        prices=[1.0, value],
        dividends=CumulativeDividend(density=[0.0, value]),
    )
    assert f'"prices":[1.0,{new}]' in serialize_continuous_json(cpath)
    assert f'"prices":[1.0,{old}]' in serialize_continuous_json_repr(cpath)


def test_large_arrays_match():
    rng = np.random.default_rng(7)
    values = np.exp(rng.uniform(-700.0, 700.0, 5000))
    path = DiscretePath(prices=values, dividends=values[1:])
    assert_same_csv(path)
