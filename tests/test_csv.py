"""The piece-wise CSV parser against the row-by-row reference.

``oracles.parse_path_csv_rows`` checks one row at a time in file order,
each number with a regex; ``bubblekit.io.parse_path_csv`` reads its rows
in place, one ``orjson.loads`` per piece of whole rows, and walks a piece
row by row only after refusing it.  On every document both must accept
the same paths bit for bit, or raise the same error class, message and
line.  The one route is checked here, with documents built to get past a
weaker check of the piece reader (blank rows, empty ``D`` cells, the
integer ``-0``, spellings ``float()`` takes and JSON does not), and with
pieces from one character up.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblekit.io
from bubblekit.errors import ParseError, ValidationError
from bubblekit.io import parse_path_csv
from bubblekit.series import DiscretePath

from chunks import CHUNKS, chunks_of
from oracles import parse_path_csv_rows


def outcome(parse, doc):
    try:
        path = parse(doc)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return path.prices.tobytes(), path.dividends.tobytes(), path.tail


def assert_same(doc, chunk=bubblekit.io._CHUNK):
    with chunks_of(chunk):
        new = outcome(parse_path_csv, doc)
    assert new == outcome(parse_path_csv_rows, doc)


def cell(draw, text: str) -> str:
    """``text`` with blanks (spaces, tabs, ``"\\r"``) around it."""
    pad = st.sampled_from(["", "", "", " ", "\t", "\r", " \t"])
    return draw(pad) + text + draw(pad)


def int_cell(draw, t: int) -> str:
    """``t`` as a JSON integer: ``-0`` for 0 too."""
    forms = [str(t)] + (["-0"] if t == 0 else [])
    return cell(draw, draw(st.sampled_from(forms)))


def float_cell(draw, x: float) -> str:
    """``x`` as a JSON number: its ``repr``, an exponent form, a fixed
    form, or an integer."""
    forms = [repr(x), f"{x:.6e}", f"{x:.3f}"]
    if x == int(x) and abs(x) < 1e6:
        forms.append(str(int(x)))
    return cell(draw, draw(st.sampled_from(forms)))


BLANK_ROWS = ["", " ", ",,", " , ,\t", ",,,,", "\t", "\r", ", ,\r"]
COMMENTS = ["# a comment", "#", "  # indented", "# tail: zero-dividends",
            "# TAIL: declared-divergent", "# tail: constant-levels"]


@st.composite
def documents(draw):
    """``(head, header, rows)`` of a valid document, rows as lists of cells.

    The cells are JSON numbers (exponents, fixed forms, integers, ``-0``)
    padded with blanks, and a zero dividend may be an empty cell; a ``q``
    column follows the recursion from the values those cells parse to.
    ``join_document`` adds blank rows and picks LF or CRLF line ends.
    """
    n = draw(st.integers(2, 25))
    prices = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    dividend = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    dividends = draw(st.lists(dividend, min_size=n, max_size=n))
    rows = []
    for t in range(n):
        if t == 0:
            d = draw(st.sampled_from(["", " ", "0", "0.0", "-0"]))
        elif dividends[t] == 0.0 and draw(st.booleans()):
            d = cell(draw, "")
        else:
            d = float_cell(draw, dividends[t])
        rows.append([int_cell(draw, t), float_cell(draw, prices[t]), d])
    header = ["t", " P", "D "]
    if draw(st.booleans()):
        header.append("q")
        with_deflators(rows)
    head = draw(st.lists(st.sampled_from(COMMENTS + ["", "  "]), max_size=3))
    return head, header, rows


def with_deflators(rows):
    """``rows`` with a ``q`` cell each, following the recursion from the
    values their cells parse to."""
    q = 1.0
    for t, row in enumerate(rows):
        if t:
            cum = float(row[1]) + (float(row[2]) if row[2].strip() else 0.0)
            q *= float(rows[t - 1][1]) / cum
        row.append(repr(q))


def plain_cell(draw, x: float) -> str:
    """``x`` as a plain JSON number, padded with spaces and tabs only."""
    forms = [repr(x)]
    if x == int(x):
        forms.append(str(int(x)))
    pad = st.sampled_from(["", "", " ", "\t", " \t"])
    return draw(pad) + draw(st.sampled_from(forms)) + draw(pad)


@st.composite
def plain_documents(draw):
    """``(head, header, rows)`` of a valid document whose rows after row 0
    hold plain JSON numbers: integer dates, ``repr`` (or integer) prices,
    dividends and deflators, padded with spaces and tabs."""
    n = draw(st.integers(2, 25))
    prices = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000).map(float))
    dividend = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.integers(0, 50).map(float))
    rows = [[draw(st.sampled_from(["0", " 0", "-0"])), plain_cell(draw, draw(prices)),
             draw(st.sampled_from(["", " ", "0", "0.0", "-0"]))]]
    for t in range(1, n):
        rows.append([plain_cell(draw, t), plain_cell(draw, draw(prices)),
                     plain_cell(draw, draw(dividend))])
    header = ["t", "P", "D"]
    if draw(st.booleans()):
        header.append("q")
        with_deflators(rows)
    head = draw(st.lists(st.sampled_from(COMMENTS + [""]), max_size=2))
    return head, header, rows


def join_document(draw, head, header, rows):
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = list(head) + [",".join(header)]
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(BLANK_ROWS), max_size=1)))
        lines.append(",".join(row))
    lines.extend(draw(st.lists(st.sampled_from(BLANK_ROWS), max_size=2)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def valid_documents(draw):
    return join_document(draw, *draw(documents()))


# the column and the replacement cells of each kind of corruption; ragged
# rows, skipped dates and a dividend at t = 0 are made apart
CORRUPTIONS = {
    "bad date": (0, ["x", "1.0", "", "1e3", "#1", "+1", "01", "1_0"]),
    "non-finite": (1, ["nan", "inf", "-inf", "1e999"]),
    "non-finite dividend": (2, ["nan", "-inf", "1e309"]),
    "negative price": (1, ["-1.5", "-1e-300"]),
    "negative dividend": (2, ["-2.5", "-0.1"]),
    "bad number": (1, ["abc", "", "1..2", "1,5", "0x10", "+5", ".5", "5.", "05", "1_0"]),
    "bad dividend": (2, ["x", "--1", "\xa05", "5\x0c"]),
    "bad or non-positive q": (3, ["0", "-1", "nan", "inf", "", "q"]),
}


@st.composite
def corrupted_documents(draw):
    head, header, rows = draw(documents())
    target = draw(st.integers(0, len(rows) - 1))  # a row that may fail twice
    for _ in range(draw(st.integers(1, 3))):
        k = target if draw(st.booleans()) else draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        kind = draw(st.sampled_from(sorted(CORRUPTIONS) + ["ragged", "skip", "t = 0"]))
        if kind == "ragged":
            rows[k] = row[:-1] if draw(st.booleans()) else row + ["1"]
        elif kind == "skip":
            row[0] = str(k + draw(st.sampled_from([1, 2, -1])))
        elif kind == "t = 0":
            if len(rows[0]) > 2:  # row 0 may have lost its D cell already
                rows[0][2] = draw(st.sampled_from(["3", "1e-300", "nan"]))
        else:
            column, cells = CORRUPTIONS[kind]
            if column < len(row):
                row[column] = draw(st.sampled_from(cells))
    return join_document(draw, head, header, rows)


def plain_mutations(k: int) -> list[tuple[int, str]]:
    """``(column, cell)`` replacements for a cell of row ``k`` of a plain
    document: spellings JSON reads apart from ``float()`` / ``int()``, or
    not at all."""
    numbers = ["-0", "-0.0", "0e0", str(2**64 - 1), str(2**64 + 1), str(10**30),
               "1e400", "5e-324", "true", "null", "[1]", "1]", "{", ""]
    dates = [f"{k}.0", f"{k}e0", f"0{k}", f"+{k}", "-0", "", "true", "[1]"]
    return (
        [(0, cell) for cell in dates]
        + [(1, cell) for cell in numbers]
        + [(2, cell) for cell in numbers + [" ", "\t"]]
        + [(3, cell) for cell in ["-0", "0e0", "true", "[1]", ""]]
    )


@st.composite
def mutated_plain_documents(draw):
    head, header, rows = draw(plain_documents())
    k = draw(st.integers(1, len(rows) - 1))
    column, cell = draw(st.sampled_from(plain_mutations(k)))
    if column < len(header):
        rows[k][column] = cell
    return join_document(draw, head, header, rows)


OTHER_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def whole_body_documents(draw):
    """A plain document joined by ``"\\n"``, with edits a weaker check of the
    whole-body reader could let past: a short row followed by a long one
    whose dates still line up (``1,5,6`` / ``2,7`` / ``3,3,8,9``), blank rows
    in the body and at its end, no final newline, another line break in
    the comments, header, row 0 or body, or a comment line after the
    header."""
    head, header, rows = draw(plain_documents())
    width = len(header)
    lines = [",".join(row) for row in rows]
    edits = draw(st.lists(
        st.sampled_from(["compensate", "blank", "break", "comment", "no newline"]),
        min_size=1, max_size=3,
    ))
    if "compensate" in edits and len(rows) > 2:
        k = draw(st.integers(1, len(rows) - 2))
        lines[k] = ",".join(rows[k][: width - 1])
        lines[k + 1] = ",".join([rows[k + 1][0]] + rows[k + 1])
    if "comment" in edits:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(COMMENTS)))
    for _ in range(edits.count("blank")):
        blank = draw(st.sampled_from(BLANK_ROWS + [" , ,", "\t,\t,"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    text = "\n".join(list(head) + [",".join(header)] + lines)
    if "break" in edits:
        at = draw(st.integers(0, len(text)))
        line_break = draw(st.sampled_from(OTHER_LINE_BREAKS))
        if draw(st.booleans()) and "\n" in text[at:]:  # in place of a "\n"
            at = text.index("\n", at)
            text = text[:at] + line_break + text[at + 1 :]
        else:
            text = text[:at] + line_break + text[at:]
    return text if "no newline" in edits else text + "\n"


def read_rows(doc):
    """The outcome of ``doc``, and the first row of each piece the reader
    refused and walked row by row."""
    with mock.patch.object(
        bubblekit.io, "_refused_piece", wraps=bubblekit.io._refused_piece
    ) as refused:
        result = outcome(parse_path_csv, doc)
    return result, [call.args[2] for call in refused.call_args_list]


def test_blank_row_chars_are_comma_and_every_space():
    """The characters of a blank row are the comma and every space of
    JSON (RFC 8259 section 2: space, tab, CR, and LF, which ends the line);
    any other space makes the row a bad one, named by its line."""
    for blank in ["", " ", "\t", "\r", ", \t\r,,"]:
        doc = f"t,P,D\n0,100,\n{blank}\n1,100,5\n"
        result, walked = read_rows(doc)
        assert isinstance(result[0], bytes) and walked == [], repr(blank)
    spaces = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    for space in sorted(spaces - set(" \t\r\n")):
        doc = f"t,P,D\n0,100,\n,{space},\n1,100,5\n"
        assert outcome(parse_path_csv, doc) == (ParseError, "bad date '' (line 3)", 3)
        assert_same(doc)


@settings(max_examples=100, deadline=None)
@given(valid_documents(), CHUNKS)
def test_valid_documents_parse_like_the_row_reader(doc, chunk):
    expected = outcome(parse_path_csv_rows, doc)
    assert isinstance(expected[0], bytes), expected
    with chunks_of(chunk):
        assert outcome(parse_path_csv, doc) == expected


@settings(max_examples=200, deadline=None)
@given(corrupted_documents(), CHUNKS)
def test_corrupted_documents_fail_like_the_row_reader(doc, chunk):
    assert_same(doc, chunk)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plain_documents_are_read_in_one_call(data):
    # one orjson call a piece, and no piece walked row by row
    doc = join_document(data.draw, *data.draw(plain_documents()))
    result, walked = read_rows(doc)
    assert isinstance(result[0], bytes), result
    assert walked == []
    assert result == outcome(parse_path_csv_rows, doc)


@pytest.mark.parametrize("blank", BLANK_ROWS)
def test_a_blank_row_before_row_0_does_not_send_the_body_through_twice(blank):
    # a blank row with the header's commas is no row 0: the piece reader
    # drops it, and walks no piece row by row
    doc = f"t,P,D\n{blank}\n0,100,0\n1,100,5\n2,100,5\n"
    result, walked = read_rows(doc)
    assert isinstance(result[0], bytes), result
    assert walked == []
    assert result == outcome(parse_path_csv_rows, doc)


@settings(max_examples=300, deadline=None)
@given(mutated_plain_documents(), CHUNKS)
def test_mutated_plain_documents_fail_like_the_row_reader(doc, chunk):
    assert_same(doc, chunk)


@settings(max_examples=300, deadline=None)
@given(whole_body_documents(), CHUNKS)
def test_whole_body_edits_read_like_the_row_reader(doc, chunk):
    assert_same(doc, chunk)


@pytest.mark.parametrize(
    "doc, line, message",
    [
        ("t,P,D\n0,100,\n1,5,6\n2,7\n3,3,8,9\n", 4, "expected 3 fields, got 2"),
        ("t,P,D,q\n0,1,,1\n1,5,6,1\n2,7,1\n3,3,8,9,1\n", 4, "expected 4 fields, got 3"),
        ("t,P,D\n0,100,\n1,100,5\n#\n2,100,5\n", 4, "expected 3 fields, got 1"),
    ],
)
def test_a_ragged_row_is_named_where_the_comma_total_matches(doc, line, message):
    assert outcome(parse_path_csv, doc) == (ParseError, f"{message} (line {line})", line)
    assert_same(doc)


@pytest.mark.parametrize("line_break", OTHER_LINE_BREAKS)
@pytest.mark.parametrize("where", ["comment", "header", "row 0", "body"])
def test_other_line_breaks_split_lines_as_splitlines_does(line_break, where):
    """The characters other than ``"\\n"`` at which ``str.splitlines``
    ends a line end none here: ``"\\r"`` is a blank around a cell, and
    each other one in the header or a row makes it a bad one, named by its
    line.  In a comment it is text."""
    lines = ["# tail: zero-dividends", "t,P,D", "0,100,", "1,100,5", "2,100,5"]
    k = {"comment": 0, "header": 1, "row 0": 2, "body": 3}[where]
    for cut in range(len(lines[k]) + 1):
        edited = lines[:k] + [lines[k][:cut] + line_break + lines[k][cut:]] + lines[k + 1 :]
        doc = "\n".join(edited) + "\n"
        assert_same(doc)
        if line_break != "\r" and where != "comment":
            result = outcome(parse_path_csv, doc)
            assert result[0] is ParseError and result[2] == k + 1, (doc, result)
    assert_same("\n".join(lines).replace("\n", line_break) + "\n")


def test_a_generated_document_is_read_without_splitlines():
    from bubblekit.io import serialize_path_csv
    from bubblekit.models import gen_gordon

    def splitlines_calls(doc):
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", None) == "splitlines":
                calls.append(arg)

        sys.setprofile(profile)
        try:
            result = outcome(parse_path_csv, doc)
        finally:
            sys.setprofile(None)
        return result, calls

    doc = serialize_path_csv(gen_gordon(1.0, 1.0001, 1.001, 10_000))
    result, calls = splitlines_calls(doc)
    assert calls == []
    assert isinstance(result[0], bytes) and len(result[0]) == 8 * 10_001
    assert result == outcome(parse_path_csv_rows, doc)
    # nor is one with a blank row in the body
    blank_result, blank_calls = splitlines_calls(doc.replace("\n5,", "\n\n5,", 1))
    assert blank_result == result and blank_calls == []


@pytest.mark.parametrize("T", [1, 300, 20_000])
def test_a_generated_document_is_read_once_a_piece(T):
    # row 0's empty D cell is filled before its read, so row 0 is read once,
    # not refused and read again: one orjson call for it and one a piece
    import orjson

    from bubblekit.io import serialize_path_csv
    from bubblekit.models import gen_gordon

    doc = serialize_path_csv(gen_gordon(1.0, 1.0001, 1.001, T))
    head = bubblekit.io._split_head(doc)
    pieces = len(list(bubblekit.io._row_pieces(doc, head.start, head.stop)))
    with mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads:
        result = outcome(parse_path_csv, doc)
    assert loads.call_count == pieces
    assert (pieces == 2) == (len(doc) < bubblekit.io._CHUNK)
    assert result == outcome(parse_path_csv_rows, doc)


def test_a_generated_document_is_read_without_copies_of_its_text():
    import tracemalloc

    from bubblekit.io import serialize_path_csv
    from bubblekit.models import gen_gordon

    doc = serialize_path_csv(gen_gordon(1.0, 1.00001, 1.00005, 150_000))
    tracemalloc.start()
    try:
        path = parse_path_csv(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.prices.size == 150_001
    assert peak < 1.5 * len(doc)


def body_pieces(doc, chunk):
    """The pieces the rows of ``doc`` are read in, ``chunk`` characters
    apiece after row 0's."""
    head = bubblekit.io._split_head(doc)
    with chunks_of(chunk):
        return [doc[a:b] for a, b in bubblekit.io._row_pieces(doc, head.start, head.stop)]


# rows 1..8 of 8 characters: at 16 characters a piece, the pieces after
# row 0's are rows 1-3, 4-6 and 7-8
CUT_ROWS = [f"{t},100,5" for t in range(1, 9)]


@pytest.mark.parametrize(
    "k, row",
    [(k, row.replace("#", str(k))) for k in (3, 4) for row in (
        "#,-1,5", "#,100,-2", "#,x,5", "#,100", "#,100,5,1", "#.0,100,5", "9,100,5",
        "#,-0,5", "#,1e999,5", "#,nan,5", "#,100,-0",
    )],
)
def test_an_edited_row_at_either_end_of_a_piece_reads_like_the_row_reader(k, row):
    rows = CUT_ROWS[: k - 1] + [row] + CUT_ROWS[k:]
    doc = "t,P,D\n0,100,\n" + "\n".join(rows) + "\n"
    row0, first, second, *_ = body_pieces(doc, 16)
    assert row0 == "0,100,"
    assert first.endswith("\n" + row) if k == 3 else second.startswith(row + "\n")
    assert_same(doc, 16)


@pytest.mark.parametrize("blank", ["", ",,", " , ,\t", " "])
def test_a_blank_row_right_after_a_cut_is_skipped(blank):
    doc = "t,P,D\n0,100,\n" + "\n".join(CUT_ROWS[:3] + [blank] + CUT_ROWS[3:]) + "\n"
    assert body_pieces(doc, 16)[2].startswith(blank + "\n4,")
    assert_same(doc, 16)
    assert isinstance(outcome(parse_path_csv, doc)[0], bytes)


def repr_document(n, minus_zero=(), column=2):
    """``n`` rows of Python ``repr`` cells whose dividends after row 0 are
    written with a two-digit negative exponent (``3e-05``), as ``repr``,
    numpy and pandas write small numbers.  The rows ``minus_zero`` hold the
    integer ``-0``, padded to the cell's length, in ``column``."""
    rows = []
    for t in range(n):
        cells = [str(t), repr(1 + t % 8 / 8), repr(float(f"{t % 9 + 1}e-05")) if t else ""]
        if t in minus_zero:
            cells[column] = "-0".ljust(len(cells[column]))
        rows.append(",".join(cells))
    return "t,P,D\n" + "\n".join(rows) + "\n"


def read_counted(doc, chunk):
    """The outcome of ``doc`` read ``chunk`` characters a piece, and the
    number of pieces, of ``orjson.loads`` calls and of searches for an
    integer ``-0``."""
    import orjson

    search = mock.Mock(wraps=bubblekit.io._INTEGER_MINUS_ZERO)
    with (
        chunks_of(chunk),
        mock.patch.object(bubblekit.io, "_INTEGER_MINUS_ZERO", search),
        mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads,
    ):
        result = outcome(parse_path_csv, doc)
    return result, len(body_pieces(doc, chunk)), loads.call_count, search.search.call_count


@pytest.mark.parametrize("chunk", [16, bubblekit.io._CHUNK])
def test_negative_exponents_send_no_piece_to_the_minus_0_search(chunk):
    # every piece after row 0's holds "-0" in its bytes and reads no zero;
    # row 0's reads its empty D cell as 0 and holds no "-0"
    doc = repr_document(6_000)
    assert doc.count("e-05") == 5_999
    result, pieces, loads, searches = read_counted(doc, chunk)
    assert isinstance(result[0], bytes), result
    assert pieces >= 3
    assert (loads, searches) == (pieces, 0)
    assert result == outcome(parse_path_csv_rows, doc)


@pytest.mark.parametrize("chunk", [16, bubblekit.io._CHUNK])
@pytest.mark.parametrize(
    "where, column", [("row 0", 2), ("a piece's last row", 1), ("a piece's last row", 2)]
)
def test_an_integer_minus_0_among_negative_exponents_is_read_again(chunk, where, column):
    # the piece holding it is read twice, the second time with the -0 made
    # -0.0, and no other piece is searched
    k = 0 if where == "row 0" else body_pieces(repr_document(6_000), chunk)[1].count("\n") + 1
    doc = repr_document(6_000, minus_zero={k}, column=column)
    if k == 0:  # row 0 is a piece of its own: give it an e-05 price
        doc = doc.replace("\n0,1.0,", "\n0,3e-05,", 1)
    row = doc.split("\n")[k + 1]
    piece = body_pieces(doc, chunk)[min(k, 1)]
    assert row.split(",")[column].strip() == "-0"
    assert piece.endswith(row) and "e-05" in piece
    result, pieces, loads, searches = read_counted(doc, chunk)
    assert isinstance(result[0], bytes), result
    assert (loads, searches) == (pieces + 1, 1)
    value = np.frombuffer(result[column - 1])[k]
    assert value == 0 and np.signbit(value)
    assert result == outcome(parse_path_csv_rows, doc)


# rows 1 to 6,999: more than one piece after row 0's at the default chunk
LONG_ROWS = [f"{t},1000,5" for t in range(1, 7_000)]
LONG = "t,P,D\n0,1000,\n" + "\n".join(LONG_ROWS) + "\n"


def placed_rows(chunk):
    """Row 0, a row in the middle of the first piece after row 0's, that
    piece's last row, and the document's last row, of ``LONG`` read
    ``chunk`` characters a piece."""
    pieces = body_pieces(LONG, chunk)
    assert len(pieces) > 2
    rows = pieces[1].count("\n") + 1
    return [0, (rows + 1) // 2, rows, len(LONG_ROWS)]


@pytest.mark.parametrize("chunk", [16, bubblekit.io._CHUNK])
@pytest.mark.parametrize("price", ['"10"', "[10]", "true", "\x0b000", "\xe9000"])
def test_a_character_outside_the_cells_is_refused_wherever_it_falls(price, chunk):
    # a price of as many characters, so the pieces are cut where they were;
    # the first three are JSON values that are no number
    for k in placed_rows(chunk):
        doc = LONG.replace(f"\n{k},1000,", f"\n{k},{price},", 1)
        assert doc != LONG
        assert list(map(len, body_pieces(doc, chunk))) == list(map(len, body_pieces(LONG, chunk)))
        result = outcome(parse_path_csv, doc)
        assert result[0] is ParseError and result[2] == k + 2, (k, result)
        assert_same(doc, chunk)


@pytest.mark.parametrize("chunk", [16, bubblekit.io._CHUNK])
@pytest.mark.parametrize("date", ["3.0", "3e0", "30e-1", "18446744073709551616"])
def test_a_date_json_reads_as_a_float_is_refused_in_a_long_document(date, chunk):
    doc = LONG.replace("\n3,1000,", f"\n{date},1000,", 1)
    result = outcome(parse_path_csv, doc)
    assert result[0] is ParseError and result[2] == 5, result
    assert_same(doc, chunk)


PLAIN = "t,P,D,q\n0,100,,1\n1,100,5,0.9523809523809523\n2, 100 ,\t5.0,0.9070294784580498\n"


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("column, cell", plain_mutations(1))
def test_each_plain_mutation_reads_like_the_row_reader(column, cell, k):
    rows = [line.split(",") for line in PLAIN.splitlines()]
    for width in (3, 4):
        mutated = [row[:width] for row in rows]
        if column < width:
            mutated[1 + k][column] = cell.replace("1", str(k)) if column == 0 else cell
        assert_same("\n".join(map(",".join, mutated)) + "\n")


@pytest.mark.parametrize(
    "cell, reads, price",
    [
        ("5", [], 5.0),
        ("-0", [], -0.0),  # orjson reads the int -0 as +0; the reader makes it -0.0
        ("-0.0", [], -0.0),
        ("-0e0", [], -0.0),
        (str(2**64 - 1), [], float(2**64)),
        (str(2**64 + 1), [], float(2**64)),
        ("5e-324", [], 5e-324),
        ("1e-400", [], 0.0),
    ],
)
def test_price_cell_route_and_value(cell, reads, price):
    # every JSON number is read by the piece reader, with no piece walked
    for doc in (
        f"t,P,D\n0,100,\n1,{cell},5\n2,100,5\n",
        f"t,P,D\r\n0,100,\r\n1, {cell}\t,5\r\n2,100,5\r\n",
    ):
        result, walked = read_rows(doc)
        assert walked == reads
        assert np.frombuffer(result[0])[1].hex() == price.hex()
        assert result == outcome(parse_path_csv_rows, doc)


@pytest.mark.parametrize("date", ["1.0", "1e0", "1E0", "1.5", "true", "-0", "01", "+1"])
def test_dates_json_reads_as_numbers_are_read_by_int(date):
    # a date is a JSON integer equal to its row's index, and nothing else:
    # each of these is refused, and only the piece holding it is walked
    doc = f"t,P,D\n0,100,\n{date},100,5\n2,100,5\n"
    result, walked = read_rows(doc)
    assert walked == [1]
    assert result[0] is ParseError and result[2] == 3
    assert result == outcome(parse_path_csv_rows, doc)


def test_a_date_of_minus_0_is_row_0():
    doc = "t,P,D\n-0,100,\n1,100,5\n"
    result, walked = read_rows(doc)
    assert isinstance(result[0], bytes) and walked == []
    assert result == outcome(parse_path_csv_rows, doc)


def refusal(cell):
    return f"bad number: could not convert {cell!r}: not a JSON number within the double range"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,+5,5", refusal("+5")),
        ("1,.5,5", refusal(".5")),
        ("1,5.,5", refusal("5.")),
        ("1,05,5", refusal("05")),
        ("1,1_0,5", refusal("1_0")),  # float() reads 10
        ("1,100,\xa05", refusal("\xa05")),  # a no-break space is no blank
        ("1,nan,5", refusal("nan")),
        ("1,100,inf", refusal("inf")),
        ("1,-inf,5", refusal("-inf")),
        ("1,1e999,5", refusal("1e999")),
        ("1,100,5\x0c2,100,5", "expected 3 fields, got 5"),  # \x0c ends no line
        ("01,100,5", "bad date '01'"),
        ("+1,100,5", "bad date '+1'"),
        ("1.0,100,5", "bad date '1.0'"),
    ],
)
def test_spellings_outside_the_json_grammar_are_refused(row, message):
    doc = f"t,P,D\n0,100,\n{row}\n"
    assert outcome(parse_path_csv, doc) == (ParseError, f"{message} (line 3)", 3)
    assert_same(doc)


@pytest.mark.parametrize("empty", [1, 3])
def test_a_parser_that_skips_empty_cells_cannot_misalign_columns(empty):
    # orjson rejects "1,,2"; were it to skip the empty cell instead, the
    # value count would no longer match the rows
    import orjson

    loads = orjson.loads
    rows = [f"{t},100,{'' if t <= empty else 5}" for t in range(1, 5)]
    doc = "t,P,D\n0,100,\n" + "\n".join(rows) + "\n"
    with mock.patch.object(orjson, "loads", lambda text: loads(text.replace(b",,", b","))):
        result, walked = read_rows(doc)
    # the value count refuses the misaligned read; the empty cells are
    # then filled and the piece read again
    assert walked == []
    assert result == outcome(parse_path_csv_rows, doc)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789,.-+e_ \t\n\rnaifx#", max_size=80), CHUNKS)
def test_arbitrary_bodies_fail_like_the_row_reader(body, chunk):
    assert_same("t,P,D\n0,100,\n" + body, chunk)


@pytest.mark.parametrize(
    "doc, line, message",
    [
        ("t,P,D\n0,100,\n\n1,-1,5\n", 4, "negative price"),
        ("t,P,D\n , ,\n0,100,\n,,\n1,100,5\n2,100\n", 6, "expected 3 fields, got 2"),
        ("t,P,D\n0,100,\nx,100,5\n2,100\n", 3, "bad date 'x'"),
        ("t,P,D\n0,100,\n2,100,5\n3,100\n", 3, "dates must increase by 1 from 0; expected 1, got 2"),
        ("t,P,D\n0,100,\n1,x,5\n1_5,100\n", 3, refusal("x")),
        ("t,P,D\n0,100,\n1,nan,-1\n", 3, refusal("nan")),
        ("t,P,D\n0,100,\n1,-inf,5\n", 3, refusal("-inf")),
        ("t,P,D\n0,100,\n1,x,y\n", 3, refusal("x")),
        ("t,P,D\n0,100,\n1,100,y\n2,x,5\n", 3, refusal("y")),
        ('t,P,D\n0,100,\n1,100\n2,"1",5\n', 3, "expected 3 fields, got 2"),
        ("t,P,D\n0,100,3\n1,-100,5\n", 2, "no dividend at t = 0 (ex-dividend convention)"),
        ("t,P,D,q\n0,100,,1\n\n1,100,5,0\n", 4, "supplied deflators must be positive"),
        ("t,P,D,q\n0,100,,1\n1,100,x,q\n", 3, refusal("x")),
        # a stalled row is named before a later row that breaks a rule
        ("t,P,D\n0,100,\n1,0,0\n2,-1,5\n", 3, "P_t + D_t must be positive for t >= 1"),
        ("t,P,D\n0,100,\n1,0,0\n2,100,nan\n", 3, "P_t + D_t must be positive for t >= 1"),
        ("t,P,D,q\n0,100,,1\n1,0,0,0.5\n2,100,5,0\n", 3, "P_t + D_t must be positive for t >= 1"),
        # a NaN dividend alone, bare and padded
        ("t,P,D\n0,100,\n1,100,5\n2,100,nan\n", 4, refusal("nan")),
        ("t,P,D\n0,100,\n1,100,5\n2,100,NaN \n", 4, refusal("NaN")),
        # a non-positive or non-finite q, and rules in row order
        ("t,P,D,q\n0,100,,1\n1,100,5,-0.5\n", 3, "supplied deflators must be positive"),
        ("t,P,D,q\n0,100,,1\n1,100,5,-0.0\n", 3, "supplied deflators must be positive"),
        ("t,P,D,q\n0,100,,1\n1,100,5,nan\n", 3, refusal("nan")),
        ("t,P,D,q\n0,100,,1\n1,100,5,inf\n", 3, refusal("inf")),
        ("t,P,D,q\n0,100,,0\n", 2, "supplied deflators must be positive"),
        ("t,P,D,q\n0,100,,1\n1,100,5,0\n2,-1,5,1\n", 3, "supplied deflators must be positive"),
        ("t,P,D,q\n0,100,,1\n1,-1,5,1\n2,100,5,0\n", 3, "negative price"),
        ("t,P,D,q\n0,100,,1\n1,100,-5,0\n", 3, "negative dividend"),
        # a rule of row 0 comes before the need for a row 1
        ("t,P,D\n0,100,3\n", 2, "no dividend at t = 0 (ex-dividend convention)"),
        ("t,P,D\n0,-100,\n", 2, "negative price"),
    ],
)
def test_first_bad_row_is_reported(doc, line, message):
    with pytest.raises(ParseError) as info:
        parse_path_csv(doc)
    assert info.value.line == line
    assert str(info.value) == f"{message} (line {line})"
    assert_same(doc)


@pytest.mark.parametrize(
    "doc, line",
    [
        ('t,P,D\n0,"100",\n1,100,5\n', 2),
        ('t,P,D\n0,100,\n\n1,100,"5"\n', 4),
        ('t,P,D\n0,100,\n1,100,5\n2,100,5"\n', 4),
        ('t,P,D\n0,100,\n1,"1,5",5\n2,100\n', 3),
    ],
)
def test_quoted_cells_are_rejected(doc, line):
    with pytest.raises(ParseError, match="quoted") as info:
        parse_path_csv(doc)
    assert info.value.line == line


def test_valid_document_arrays_are_exact():
    doc = (
        "# tail: zero-dividends\r\nt,P,D\r\n 0 ,10.5,\r\n\r\n,,\r\n1,1e2, 0.25 \r\n"
        "2,-0,3\t\r\n3,1E-1,-0\r\n4,7,  \r\n"
    )
    path = parse_path_csv(doc)
    assert path.prices.tolist() == [10.5, 100.0, 0.0, 0.1, 7.0]
    assert path.dividends.tolist() == [0.0, 0.25, 3.0, 0.0, 0.0]
    assert np.signbit(path.prices[2]) and np.signbit(path.dividends[3])
    assert not np.signbit(path.dividends[4])
    assert_same(doc)


# ---------- value rules: checked once as the path is built ----------


STALLED = "P_t + D_t must be positive for t >= 1"


@pytest.mark.parametrize(
    "doc, t",
    [
        ("t,P,D\n0,100,\n1,0,0\n2,100,5\n", 1),
        ("t,P,D\n0,100,\n1,100,5\n2,-0.0,\n3,100,5\n", 2),
        ("t,P,D\n0,100,\n1,0,3\n2,0,0\n", 2),
        ("t,P,D\n0,100,\n1, 0 ,-0.0\n", 1),  # padded cells
        ("t,P,D,q\n0,100,,1\n1,0,0,0.5\n", 1),
    ],
)
def test_a_stalled_row_is_refused_without_a_line(doc, t):
    # the reader names the stalled row's line (these documents have no
    # comment or blank line); the path's own check, for a caller that builds
    # it directly, names the date and no line
    with pytest.raises(ParseError) as info:
        parse_path_csv(doc)
    assert info.value.line == t + 2
    assert str(info.value) == f"{STALLED} (line {t + 2})"
    assert_same(doc)
    rows = [row.split(",") for row in doc.splitlines()[1:]]
    prices = [float(row[1]) for row in rows]
    dividends = [float(row[2] or 0) for row in rows]
    with pytest.raises(ValidationError) as info:
        DiscretePath(prices=prices, dividends=dividends)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{STALLED} (violated at t = {t})"


def test_a_path_of_row_0_alone_is_refused_without_a_line():
    for doc in ("t,P,D\n0,100,\n", "t,P,D,q\n0,100,,1\n"):
        with pytest.raises(ParseError) as info:
            parse_path_csv(doc)
        assert info.value.line is None
        assert str(info.value) == "need at least dates 0 and 1"
        assert_same(doc)


def test_minus_zero_prices_and_dividends_are_zeros():
    doc = "t,P,D\n0,100,\n1,-0.0,30\n2,50,-0.0\n3,50,5\n"
    path = parse_path_csv(doc)
    assert path.prices.tolist() == [100.0, 0.0, 50.0, 50.0]
    assert np.signbit(path.prices[1]) and np.signbit(path.dividends[2])
    assert_same(doc)
