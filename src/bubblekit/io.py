"""Path ingestion, tail spec grammar, and report assembly.

Discrete paths travel as CSV (``t,P,D`` with an optional ``q`` column of
externally supplied deflators, which are checked against the recursion
before acceptance); continuous paths travel as JSON because CSV cannot
cleanly carry jump measures.  Generated CSV embeds its tail declaration in
a leading ``# tail: <spec>`` comment so piped analyses need no flag.

Reports are plain dicts with stable keys; JSON rendering uses sorted keys
and shortest round-trip float representation, so identical inputs produce
byte-identical documents and serialize/parse/serialize is the identity.
Generated path documents are written the same way, but through orjson,
which formats a whole numpy array in one call.  A CSV document is written
a piece of ``_ROWS`` rows at a time (:func:`path_csv_pieces`): each
piece's rows go out as one flat array whose bytes are then turned into
lines in place, so no string is made per row or number, and ``generate``
holds no more than a piece's text at once.  The readers parse number
arrays through orjson too, in place and one piece of about ``_CHUNK``
characters at a time (:func:`_pieces`): a CSV document's rows, whose
cells are JSON numbers, a piece of whole rows at a time by one route,
continuous JSON's ``prices`` and ``density`` a piece of whole numbers at a
time.  So neither reader copies a whole array's text, and the Python
numbers of one piece at most exist at once: a generated CSV document is
read in less memory than its text.  A CSV piece is checked in one pass
before orjson sees it (one ``bytes.translate`` deletes the characters of
numbers and blanks, and what is left must be the header's separators),
and the integer ``-0``, which orjson reads as ``+0``, is looked for only
in a piece that reads a zero value.  The continuous reader walks the one
top-level object it expects, reads every other value with ``json``'s own
decoder, and steps over those two arrays with C-level string calls
(``find``, ``bytes.translate``), so no Python code steps through their
numbers.  orjson is imported on first use, so importing the CLI does not
load it.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import fields as dataclass_fields
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from typing import Any, Iterator, NamedTuple, NoReturn

import numpy as np

from . import __version__
from .characterization import TailFit
from .continuous import ContinuousPath, CumulativeDividend
from .errors import ParseError, ValidationError
from .models import MiaoWangScenario
from .series import (
    DEFAULT_TOL,
    EPS_BUBBLE,
    Decomposition,
    Deflators,
    DiscretePath,
    no_arbitrage_residuals,
)
from .tails import (
    ConstantLevels,
    ConstantYield,
    DeclaredConvergent,
    DeclaredDivergent,
    GeometricYield,
    PowerYield,
    TailModel,
    ZeroDividends,
)

__all__ = [
    "parse_tail_spec",
    "format_tail_spec",
    "tail_to_json",
    "tail_from_json",
    "parse_path_csv",
    "serialize_path_csv",
    "parse_continuous_json",
    "serialize_continuous_json",
    "build_report",
    "render_report",
    "tail_fit_to_json",
]

_TAIL_KINDS: dict[str, type] = {
    "constant-levels": ConstantLevels,
    "constant-yield": ConstantYield,
    "geometric-yield": GeometricYield,
    "power-yield": PowerYield,
    "zero-dividends": ZeroDividends,
    "declared-divergent": DeclaredDivergent,
    "declared-convergent": DeclaredConvergent,
}
_KIND_OF = {cls: kind for kind, cls in _TAIL_KINDS.items()}

# short parameter aliases accepted in CLI tail specs
_TAIL_ALIASES = {
    "P": "price",
    "D": "dividend",
    "c": "level",
    "a": "coeff",
    "rho": "ratio",
    "p": "exponent",
    "sum": "tail_sum",
}


def _kind_of(tail: TailModel) -> str:
    if type(tail) not in _KIND_OF:
        raise ValidationError(f"unrecognized tail model: {tail!r}")
    return _KIND_OF[type(tail)]


def tail_to_json(tail: TailModel) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": _kind_of(tail)}
    for f in dataclass_fields(tail):
        out[f.name] = getattr(tail, f.name)
    return out


def tail_from_json(obj: dict[str, Any]) -> TailModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"tail object needs a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise ParseError(f"tail kind must be a string, got {kind!r}")
    cls = _TAIL_KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown tail kind {kind!r}")
    try:
        params = {k: _json_number(v) for k, v in obj.items() if k != "kind"}
        return cls(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad parameters for tail {kind!r}: {exc}") from None


def format_tail_spec(tail: TailModel) -> str:
    """Canonical one-line spec string, e.g. ``constant-levels:P=100,D=5``."""
    kind = _kind_of(tail)
    names = {v: k for k, v in _TAIL_ALIASES.items()}
    params = [
        f"{names.get(f.name, f.name)}={getattr(tail, f.name)!r}"
        for f in dataclass_fields(tail)
    ]
    return kind if not params else f"{kind}:{','.join(params)}"


def parse_tail_spec(spec: str, last: tuple[float, float] | None = None) -> TailModel:
    """Parse ``kind[:key=value,...]`` into a tail model.

    Bare ``constant-levels`` and ``constant-yield`` infer their parameters
    from ``last``, the path's final ``(price, dividend)`` sample (for a
    continuous path, the last price and density samples): they continue
    at the levels / the yield observed there.  All other kinds with
    parameters require them.
    """
    kind, _, params_text = spec.strip().partition(":")
    kind = kind.strip()
    cls = _TAIL_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(_TAIL_KINDS))
        raise ParseError(f"unknown tail kind {kind!r} (known: {known})")
    params: dict[str, float] = {}
    if params_text:
        for item in params_text.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ParseError(f"expected key=value in tail spec, got {item!r}")
            key = key.strip()
            key = _TAIL_ALIASES.get(key, key)
            try:
                params[key] = float(value)
            except ValueError:
                raise ParseError(f"bad numeric value in tail spec: {item!r}") from None
    if not params and cls in (ConstantLevels, ConstantYield):
        if last is None:
            raise ParseError(
                f"tail {kind!r} needs parameters (or a final sample to infer them)"
            )
        last_price, last_dividend = last
        if cls is ConstantLevels:
            params = {"price": last_price, "dividend": last_dividend}
        else:
            if last_price <= 0 or last_dividend <= 0:
                raise ValidationError(
                    "cannot infer a positive constant yield from the final sample"
                )
            params = {"level": last_dividend / last_price}
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParseError(f"bad parameters for tail {kind!r}: {exc}") from None


def utf8_text(data: str | bytes) -> str:
    """``data`` itself, or its bytes decoded as UTF-8; bytes that are not
    UTF-8 are a ``ParseError`` naming the first bad byte's offset."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8: {exc.reason} at byte offset {exc.start}"
        ) from None


# ---------- discrete CSV ----------

_CSV_HEADER = ("t", "P", "D")

# The blanks around a cell.  A row of nothing but blanks and commas is
# skipped.
_BLANKS = " \t\r"


def parse_path_csv(
    data: str | bytes, tol: float = DEFAULT_TOL
) -> DiscretePath:
    """Parse and validate a ``t,P,D[,q]`` document.

    Rows must carry strictly increasing integer dates starting at 0, with
    an empty or zero dividend at t = 0.  A leading ``# tail: <spec>``
    comment declares the tail.  A supplied ``q`` column must be positive,
    normalized to q_0 = 1, and satisfy the no-arbitrage recursion within
    ``tol`` or the document is rejected.

    One grammar, RFC 4180 without quoting and with RFC 8259 numbers: a
    line ends at ``"\\n"``; a cell is a JSON number, with spaces, tabs and
    ``"\\r"`` around it blank; a date is a JSON integer equal to its row's
    index; an empty or blank ``D`` cell is 0, and the integer ``-0`` in a
    ``P``, ``D`` or ``q`` cell is ``-0.0``.  Comment (``#``) and blank lines
    may come before the header, and a row of blanks and commas is skipped
    (line numbers still count it).  Anything else is a ``ParseError`` naming
    the line of the first bad row: the first check of :func:`_row_error` it
    fails, or the first rule of :func:`_broken_rule` it breaks, which is
    looked for only after the ``DiscretePath`` refuses the columns.

    Only the comment lines and the header are split off one at a time.
    The rows are read in place by :func:`_body_columns`, one piece of
    whole rows of about ``_CHUNK`` characters at a time, each by one
    orjson call, so the reader's memory is bounded by its output and its
    tables rather than by copies of the text: less than the text's length
    for a generated document.
    """
    data = utf8_text(data)
    head = _split_head(data)
    columns, bad = _body_columns(data, head.start, head.stop, head.width)
    prices, dividends, *deflators = columns
    path = None
    if bad is None:
        try:
            path = DiscretePath(prices=prices, dividends=dividends)
        except ValidationError:
            pass  # its first bad row is named below
    if path is None or (deflators and deflators[0].min() <= 0):
        rule = _broken_rule(columns)
        if rule is not None:
            k, message = rule
            bad = _row_line(data, head.start, k), message
        if bad is None:
            # a row's rule names every other refusal of the path
            raise ParseError("need at least dates 0 and 1")
        line, message = bad
        raise ParseError(message, line=head.body_start + 2 + line)
    if head.tail_spec is not None:
        last = (float(path.prices[-1]), float(path.dividends[-1]))
        path = path.with_tail(parse_tail_spec(head.tail_spec, last))
    if deflators:
        if abs(float(deflators[0][0]) - 1.0) > 1e-12:
            raise ValidationError("supplied deflators must be normalized to q_0 = 1")
        supplied = Deflators(np.concatenate(([0.0], np.log(deflators[0][1:]))))
        if not no_arbitrage_residuals(path, supplied).max() <= tol:
            raise ValidationError(
                "supplied deflators violate the no-arbitrage recursion "
                f"at relative tolerance {tol!r}"
            )
    return path


class _Head(NamedTuple):
    """A document split after its header (see :func:`_split_head`)."""

    tail_spec: str | None
    body_start: int  # the number of comment and blank lines before the header
    start: int  # the rows, separated by "\n", are data[start:stop]
    stop: int
    width: int  # 3 or 4, for a t,P,D or t,P,D,q header


def _split_head(data: str) -> _Head:
    """``data`` split at ``"\\n"`` into its comment lines, header and rows.

    Only the lines up to the header are split off; the rows are the rest of
    the text, up to the end of the last that is not blank.  They are not
    copied: their offsets in ``data`` are returned.  A document with no
    header, or a bad one, is a ``ParseError``.
    """
    start = body_start = 0
    tail_spec = None
    while True:
        end = data.find("\n", start)
        end = len(data) if end < 0 else end
        line = data[start:end].strip(_BLANKS)
        if line and not line.startswith("#"):
            break
        if line.lower().startswith("# tail:"):
            tail_spec = line[len("# tail:") :].strip()
        if end == len(data):
            raise ParseError("empty document", line=1)
        body_start += 1
        start = end + 1
    header = tuple(cell.strip(_BLANKS) for cell in data[start:end].split(","))
    if header not in (_CSV_HEADER, _CSV_HEADER + ("q",)):
        got = ",".join(header)
        more = "..." if len(got) > 80 else ""  # a line may be the whole document
        raise ParseError(
            f"expected header 't,P,D' or 't,P,D,q', got {got[:80]!r}{more}",
            line=body_start + 1,
        )
    start = min(end + 1, len(data))
    stop = len(data)
    while stop > start and data[stop - 1] in _BLANKS + ",\n":
        stop -= 1
    stop = data.find("\n", stop)
    return _Head(tail_spec, body_start, start, len(data) if stop < 0 else stop, len(header))


def _broken_rule(columns: list[np.ndarray]) -> tuple[int, str] | None:
    """``(k, message)`` for the first row ``k`` that breaks a value rule, and
    the first rule it breaks, or None: nonnegative prices and dividends, no
    dividend at t = 0, a positive ``P_t + D_t`` for t >= 1, and a positive
    ``q``.  (orjson reads no number past the double range, so every value
    is finite.)"""
    prices, dividends, *deflators = columns
    dates = np.arange(prices.size)
    rules = [
        (prices < 0, "negative price"),
        (dividends < 0, "negative dividend"),
        (
            (dividends != 0) & (dates == 0),
            "no dividend at t = 0 (ex-dividend convention)",
        ),
        (
            (prices == 0) & (dividends == 0) & (dates > 0),
            "P_t + D_t must be positive for t >= 1",
        ),
    ]
    if deflators:
        rules.append((deflators[0] <= 0, "supplied deflators must be positive"))
    broken = reduce(operator.or_, [mask for mask, _ in rules])
    if not broken.any():
        return None
    k = int(np.argmax(broken))
    return k, next(message for mask, message in rules if mask[k])


def _row_line(data: str, start: int, k: int) -> int:
    """The line of row ``k`` of the rows at ``data[start:]``, counted from
    their first line: ``k`` and the blank rows before it.  Only a refused
    document is split into lines."""
    rows = data[start:].split("\n")
    kept = compress(count(), map(str.strip, rows, repeat(_BLANKS + ",")))
    return next(islice(kept, k, None))


# characters of text read by one orjson call, or checked by the continuous
# reader's step over an array, at a time
_CHUNK = 1 << 16


def _pieces(data: str, start: int, stop: int, sep: str) -> Iterator[tuple[int, int]]:
    """The ``(first, cut)`` spans that cut ``data[start:stop]`` into pieces,
    in order: each cut is at the first ``sep`` at or after ``_CHUNK``
    characters into a piece, and that ``sep`` is in neither piece.  The
    last piece runs to ``stop``."""
    while (cut := data.find(sep, start + _CHUNK, stop)) >= 0:
        yield start, cut
        start = cut + 1
    yield start, stop


def _body_columns(
    data: str, start: int, stop: int, width: int
) -> tuple[list[np.ndarray], tuple[int, str] | None]:
    """The ``P``, ``D`` and, for ``width`` 4, ``q`` columns of the
    ``"\\n"``-separated rows ``data[start:stop]``, up to the first bad one,
    and None or ``(line, message)`` naming that row's line, counted from
    the first, and the first check of :func:`_row_error` it fails.

    The rows are read in place, one piece at a time, each by
    :func:`_read_piece` (see :func:`_row_pieces`): first the first line
    alone, row 0, whose empty ``D`` cell in every generated document is
    filled in a piece of one row, then pieces of whole rows cut at the
    first ``"\\n"`` at or after ``_CHUNK`` characters.  So no copy of the
    whole text is made, and the Python numbers of one piece at most exist
    at once.  Every check is local to a row and each cut falls at the end
    of one, so the rows pass exactly when each piece does.  Only a refused
    piece is walked row by row, to find its first bad row.
    """
    tables = []
    index = 0  # the rows read so far
    bad = None
    for first, cut in _row_pieces(data, start, stop):
        text = data[first:cut]
        table = _read_piece(text, width, index)
        if table is None:
            good, line, message = _refused_piece(text, width, index)
            tables += good
            bad = data.count("\n", start, first) + line, message
            break
        tables.append(table)
        index += len(table)
    tables = tables or [np.empty((0, width))]
    return [np.concatenate([table[:, j] for table in tables]) for j in range(1, width)], bad


def _row_pieces(data: str, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The ``(first, cut)`` spans of the pieces the rows ``data[start:stop]``
    are read in: the first line alone, then the pieces :func:`_pieces`
    cuts at ``"\\n"``."""
    cut = data.find("\n", start, stop)
    if cut < 0:
        return iter([(start, stop)])
    return chain([(start, cut)], _pieces(data, cut + 1, stop, "\n"))


# The characters of cells: those of JSON numbers and blanks.  Deleting them
# from a piece leaves its commas and newlines in order, the field count of
# every row, and any other character, with no string per row.
_CELL_CHARS = b"0123456789eE+-." + _BLANKS.encode()

# An integer -0, which orjson reads as +0, and one in a cell after a row's
# first, which the reader makes -0.0.  They are looked for only in a piece
# that reads a zero P, D or q value and whose bytes hold "-0": the bytes
# alone would not do, for a negative exponent such as 1.5e-05 holds "-0"
# too.  (The search also finds the exponent of 1e-0, which only costs a
# second read.)
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.eE0-9])")
_CELL_MINUS_ZERO = re.compile(rb"(,[ \t\r]*-0)(?![.eE0-9])")

# A row's empty D cell, its third: the row up to its second comma, then
# only blanks up to the next comma or the end of the row.
_EMPTY_D = re.compile(rb"(?m)^([^,\n]*,[^,\n]*,)(?=[ \t\r]*(?:,|$))")


def _read_piece(text: str, width: int, index: int) -> np.ndarray | None:
    """The float64 table, one row of ``width`` values a row, of the rows in
    ``text``, the first of them row ``index``, or None where one of them is
    bad.

    One ``orjson.loads`` reads the rows joined by commas, once
    :func:`_piece_table` has checked their bytes.  A cell JSON cannot
    spell, an empty ``D`` cell or a blank row, makes that read fail; only
    then, and only where a search of the bytes finds an empty cell, the
    blank rows are dropped, each empty ``D`` cell is made 0, and the piece
    is read again.  Row 0's ``D`` cell, empty in every generated document,
    is made 0 before the first read: a read that the fill lets pass is the
    one the second read would make.
    """
    if not text.isascii():
        return None
    raw = text.encode()
    first = _EMPTY_D.sub(rb"\g<1>0", raw, 1) if index == 0 else raw
    table = _piece_table(first, width, index)
    if table is None:
        # an empty cell: with blanks deleted, two separators side by side,
        # or one at either end (a blank row makes one too)
        cells = raw.translate(None, _BLANKS.encode())
        if (
            b",," in cells or b",\n" in cells or b"\n," in cells or b"\n\n" in cells
            or cells[:1] in b",\n" or cells[-1:] in b",\n"
        ):
            rows = [row for row in raw.split(b"\n") if row.strip(b", \t\r")]
            table = _piece_table(_EMPTY_D.sub(rb"\g<1>0", b"\n".join(rows)), width, index)
    return table


def _piece_table(raw: bytes, width: int, index: int) -> np.ndarray | None:
    """The table of the rows in ``raw``, as :func:`_read_piece` reads them,
    with no blank row or empty cell, or None.

    One pass checks the bytes before orjson sees them: with the
    ``_CELL_CHARS`` deleted, what is left must be the header's separators,
    ``width - 1`` commas a row and a ``"\\n"`` between rows, which proves
    both the characters and the field counts.  So orjson reads ints and
    floats only, and the dates must be ints counting up from ``index``.
    A piece that reads a zero ``P``, ``D`` or ``q`` value is searched for
    an integer ``-0`` (see ``_INTEGER_MINUS_ZERO``), and read again with
    each one made ``-0.0`` if it holds one.
    """
    if not raw:
        return np.empty((0, width))
    separators = raw.translate(None, _CELL_CHARS)
    rows = (len(separators) + 1) // width
    commas = b"," * (width - 1)
    if separators != (commas + b"\n") * (rows - 1) + commas:
        return None
    table = _loads_table(raw, rows, width, index)
    if (
        table is not None and not table[:, 1:].all()
        and b"-0" in raw and _INTEGER_MINUS_ZERO.search(raw)
    ):
        table = _loads_table(_CELL_MINUS_ZERO.sub(rb"\1.0", raw), rows, width, index)
    return table


def _loads_table(raw: bytes, rows: int, width: int, index: int) -> np.ndarray | None:
    """The ``rows`` by ``width`` table of the checked bytes ``raw`` read by
    one ``orjson.loads``, or None where they are no such table of numbers
    with dates counting up from ``index``."""
    import orjson

    try:
        values = orjson.loads(b"[" + raw.replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    # the values are ints and floats, so the dates sum to an int exactly
    # when each is one
    if len(values) != rows * width or type(sum(values[::width])) is not int:
        return None
    table = np.array(values, dtype=np.float64).reshape(rows, width)
    if np.count_nonzero(table[:, 0] != np.arange(index, index + rows)):
        return None
    return table


def _refused_piece(
    text: str, width: int, index: int
) -> tuple[list[np.ndarray], int, str]:
    """The tables of the rows of a piece :func:`_read_piece` refused, read
    one row at a time up to the first bad one; that row's line in the
    piece; and the first check it fails."""
    tables = []
    for line, row in enumerate(text.split("\n")):
        table = _read_piece(row, width, index)
        if table is None:
            return tables, line, _row_error(row, width, index)
        tables.append(table)
        index += len(table)
    raise AssertionError("a piece was refused but none of its rows")


def _row_error(row: str, width: int, index: int) -> str:
    """The first check that ``row``, which :func:`_read_piece` refused as
    row ``index``, fails: quoting, field count, date syntax, date sequence
    and number syntax, in that order."""
    if '"' in row:
        return "quoted cells are not supported"
    cells = [cell.strip(_BLANKS) for cell in row.split(",")]
    if len(cells) != width:
        return f"expected {width} fields, got {len(cells)}"
    date = _number(cells[0])
    if date is None or not cells[0].lstrip("-").isdigit():
        return f"bad date {cells[0]!r}"
    if date != index:
        return f"dates must increase by 1 from 0; expected {index}, got {cells[0]}"
    for j, cell in enumerate(cells[1:], 1):
        if _number(cell) is None and (cell or j != 2):
            return (
                f"bad number: could not convert {cell!r}: "
                "not a JSON number within the double range"
            )
    raise AssertionError(f"row {row!r} was refused but passes every check")


def _number(cell: str) -> int | float | None:
    """The number orjson reads from ``cell``, or None where it is no JSON
    number or lies past the double range."""
    import orjson

    try:
        value = orjson.loads(cell)
    except orjson.JSONDecodeError:
        return None
    return value if type(value) in (int, float) else None


def serialize_path_csv(path: DiscretePath) -> str:
    """The ``t,P,D`` document of ``path``, its tail in a ``# tail:`` line.

    Each number is the shortest decimal that reads back to the same double,
    spelled as orjson writes it (``1e-7``, ``0.00001``, ``1e16``).  The
    document is the pieces of :func:`path_csv_pieces` joined.
    """
    return "".join(path_csv_pieces(path))


_ROWS = 1 << 14  # rows per piece of a written CSV document: about 0.7 MB


def path_csv_pieces(path: DiscretePath) -> Iterator[str]:
    """The text of :func:`serialize_path_csv`, ``_ROWS`` rows at a time; the
    head lines go out with the first piece.

    The rows ``(t, P_t, D_t)`` of a piece go through one orjson call as one
    flat float64 array, ``[0.0,P_0,D_0,1.0,P_1,D_1,...]``, and the text is
    then edited in place as bytes: every third comma and the closing ``]``
    become line ends, and a NUL goes over the opening ``[``, over the ``.0``
    of each date and, in the first piece, over row 0's dividend, which one
    ``translate`` then deletes.  No object is made per row or cell, and no
    more than a piece's text is held at once.  This relies on three facts:
    orjson spells each integer-valued double below 1e16 as ``t.0``
    (``MAX_PERIODS`` is far below that), no number contains a comma or a
    NUL, and a path holds only finite values.
    """
    import orjson

    head = b"t,P,D\n"
    if path.tail is not None:
        head = f"# tail: {format_tail_spec(path.tail)}\n".encode() + head
    n = path.horizon + 1
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        rows = np.empty((stop - start, 3))
        rows[:, 0] = np.arange(start, stop)
        rows[:, 1] = path.prices[start:stop]
        rows[:, 2] = path.dividends[start:stop]
        piece = bytearray(head)
        piece += orjson.dumps(rows.reshape(-1), option=orjson.OPT_SERIALIZE_NUMPY)
        chars = np.frombuffer(piece, dtype=np.uint8, offset=len(head))
        commas = np.flatnonzero(chars == ord(","))
        chars[commas[2::3]] = ord("\n")
        chars[-1] = ord("\n")  # the closing ]
        dates = commas[0::3]
        for filled in (0, dates - 1, dates - 2):
            chars[filled] = 0
        if start == 0:  # row 0's dividend, up to its line end
            chars[commas[1] + 1 : commas[2] if stop > 1 else -1] = 0
        yield piece.translate(None, b"\x00").decode()
        head = b""


# ---------- continuous JSON ----------


def _reject_constant(name: str) -> NoReturn:
    """``parse_constant`` hook: RFC 8259 has no NaN or Infinity."""
    raise ParseError(f"invalid JSON: non-finite constant {name} is not allowed")


def _json_number(value: Any) -> float:
    """``float(value)``, but JSON strings, ``true`` and ``false`` are not
    numbers."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _json_numbers(value: Any) -> np.ndarray:
    """``np.asarray(value, float64)``, but JSON strings, ``true`` and
    ``false`` are not numbers, alone or in a list."""
    for item in value if isinstance(value, list) else (value,):
        if isinstance(item, bool):
            raise TypeError("expected numbers, got true or false")
        if isinstance(item, str):
            raise TypeError("expected numbers, got a string")
    return np.asarray(value, dtype=np.float64)


def _json_error(exc: json.JSONDecodeError) -> ParseError:
    """The ParseError of a JSON syntax error: its reason, column and char
    offset, and (appended by ParseError) its line."""
    return ParseError(
        f"invalid JSON: {exc.msg} at column {exc.colno} (char {exc.pos})",
        line=exc.lineno,
    )


def _json_loads(text: str) -> Any:
    """``json.loads(text)`` without NaN or Infinity; any rejection is a ParseError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _json_error(exc) from None
    except ValueError:  # int() refuses a literal past its digit limit
        raise ParseError("invalid JSON: an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


# What a flat number array holds between its brackets: number characters,
# commas and JSON whitespace.
_NUMBER_ARRAY_CHARS = b"0123456789eE+-., \t\n\r"

# the one reader of every value the continuous reader does not read as float64
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# the JSON whitespace at a position of a text
_BLANK = json.decoder.WHITESPACE.match


def _number_characters_only(data: str, start: int, stop: int) -> bool:
    """Whether ``data[start:stop]`` holds only ``_NUMBER_ARRAY_CHARS``,
    looked at ``_CHUNK`` characters at a time (ASCII first, since a lone
    surrogate cannot be encoded)."""
    for first in range(start, stop, _CHUNK):
        window = data[first : min(first + _CHUNK, stop)]
        if not window.isascii() or window.encode().translate(None, _NUMBER_ARRAY_CHARS):
            return False
    return True


def _float_array(data: str, start: int, stop: int) -> np.ndarray:
    """The float64 values of the flat number array ``data[start:stop]``.

    orjson reads the text a chunk at a time, cut at commas about ``_CHUNK``
    characters apart (see :func:`_pieces`), so the Python floats of one
    chunk at most exist at once.  A decode error carries its offset in
    ``data``.
    """
    import orjson

    parts = []
    for first, cut in _pieces(data, start + 1, stop - 1, ","):
        try:
            numbers = orjson.loads(f"[{data[first:cut]}]")
        except orjson.JSONDecodeError as exc:
            raise json.JSONDecodeError(exc.msg, data, first - 1 + exc.pos) from None
        if not numbers and first > start + 1:  # nothing between two commas
            raise json.JSONDecodeError("Expecting value", data, first)
        parts.append(np.array(numbers, dtype=np.float64))
    return np.concatenate(parts)


def _walk_object(data: str, pos: int) -> dict[str, Any]:
    """The object that opens at ``data[pos]`` and ends the document.

    A flat number array (``[``, only ``_NUMBER_ARRAY_CHARS``, the first
    ``]``) of ``prices`` or ``density`` is read into float64 in place; every
    other value by one ``raw_decode``.  Of two equal names the last is
    kept, as by ``json.loads``.  Text that is no such object is a
    ``JSONDecodeError``.
    """
    members: dict[str, Any] = {}
    pos = _BLANK(data, pos + 1).end()
    sep, pos = ("}", pos + 1) if data.startswith("}", pos) else (",", pos)
    while sep == ",":
        if not data.startswith('"', pos):
            raise json.JSONDecodeError("Expecting property name", data, pos)
        key, pos = json.decoder.scanstring(data, pos + 1)
        pos = _BLANK(data, pos).end()
        if not data.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", data, pos)
        pos = _BLANK(data, pos + 1).end()
        floats = key in ("prices", "density") and data.startswith("[", pos)
        close = data.find("]", pos) if floats else -1
        if close >= 0 and _number_characters_only(data, pos + 1, close):
            members[key], pos = _float_array(data, pos, close + 1), close + 1
        else:
            members[key], pos = _DECODER.raw_decode(data, pos)
        pos = _BLANK(data, pos).end()
        sep = data[pos : pos + 1]
        if sep not in (",", "}"):
            raise json.JSONDecodeError("Expecting ',' delimiter", data, pos)
        pos = _BLANK(data, pos + 1).end()
    if _BLANK(data, pos).end() < len(data):
        raise json.JSONDecodeError("Extra data", data, pos)
    return members


def _decode_continuous(data: str) -> Any:
    """``json.loads(data)``, but a top-level ``prices`` or ``density`` array
    comes back as float64, never held as a list of Python floats.

    A document that opens with ``{`` is walked as the one object it must
    be (:func:`_walk_object`): each member's value is read by one
    ``raw_decode``, but a flat number array of ``prices`` or ``density`` is
    stepped over by ``str.find`` and ``bytes.translate`` and read by orjson
    straight into float64.  Any other document is read whole by
    ``json.loads``.

    A number past the double range in those two arrays is a ParseError,
    where ``json.loads`` reads it as an infinity; so is one in an earlier
    value of a name given twice, which ``json.loads`` discards.  Every
    other rejection is named by ``json.loads`` on the whole text: the same
    message and line as reading the document with it alone.  Only the
    nesting limit differs a little: each value is decoded on its own, a
    level below the whole text, so a document nested just under
    ``json.loads``' limit may be read here.
    """
    pos = _BLANK(data).end()
    if not data.startswith("{", pos):
        return _json_loads(data)
    try:
        return _walk_object(data, pos)
    except (ValueError, RecursionError, ParseError) as exc:
        _json_loads(data)  # the document's first error
        # else orjson rejected a number past the double range
        raise _json_error(exc) from None


def parse_scenario_json(data: str | bytes) -> dict[str, float]:
    """Scenario parameters as a JSON object keyed by field name.

    Returns the raw keyword mapping (callers may still override single
    fields before constructing the scenario).
    """
    data = utf8_text(data)
    obj = _json_loads(data)
    if not isinstance(obj, dict):
        raise ParseError("scenario document must be a JSON object")
    known = {f.name for f in dataclass_fields(MiaoWangScenario)}
    unknown = set(obj) - known
    if unknown:
        raise ParseError(
            f"unknown scenario fields {sorted(unknown)!r} (known: {sorted(known)!r})"
        )
    try:
        return {k: _json_number(v) for k, v in obj.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad scenario value: {exc}") from None


def parse_continuous_json(data: str | bytes) -> ContinuousPath:
    data = utf8_text(data)
    obj = _decode_continuous(data)
    if not isinstance(obj, dict):
        raise ParseError("continuous path document must be a JSON object")
    for key in ("grid_step", "prices", "density"):
        if key not in obj:
            raise ParseError(f"continuous path document missing {key!r}")
    try:
        jumps = tuple(
            (_json_number(j["t"]), _json_number(j["dF"])) for j in obj.get("jumps", ())
        )
        grid_step = _json_number(obj["grid_step"])
        prices = _json_numbers(obj["prices"])
        density = _json_numbers(obj["density"])
        interpreted = obj.get("interpreted_component")
        interpreted = None if interpreted is None else _json_number(interpreted)
        declared_horizon = obj.get("horizon")
        declared_horizon = (
            None if declared_horizon is None else _json_number(declared_horizon)
        )
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ParseError(f"malformed continuous path document: {exc!r}") from None
    tail_obj = obj.get("tail")
    tail = None if tail_obj is None else tail_from_json(tail_obj)
    cpath = ContinuousPath(
        grid_step=grid_step,
        prices=prices,
        dividends=CumulativeDividend(density=density, jumps=jumps),
        tail=tail,
        interpreted_component=interpreted,
    )
    if declared_horizon is not None and not math.isclose(
        declared_horizon, cpath.horizon, rel_tol=1e-9, abs_tol=1e-12
    ):
        raise ValidationError(
            f"declared horizon {declared_horizon} does not match the grid "
            f"({cpath.horizon})"
        )
    return cpath


def serialize_continuous_json(cpath: ContinuousPath) -> str:
    """The JSON document of ``cpath``: sorted keys, no spaces, one line.

    Numbers are written as by :func:`serialize_path_csv`.
    """
    import orjson

    obj: dict[str, Any] = {
        "grid_step": cpath.grid_step,
        "horizon": cpath.horizon,
        "prices": cpath.prices,
        "density": cpath.dividends.density,
        "jumps": [{"t": t, "dF": df} for t, df in cpath.dividends.jumps],
        "tail": None if cpath.tail is None else tail_to_json(cpath.tail),
    }
    if cpath.interpreted_component is not None:
        obj["interpreted_component"] = cpath.interpreted_component
    options = (
        orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    )
    return orjson.dumps(obj, option=options).decode()


# ---------- reports ----------


def tail_fit_to_json(fit: TailFit) -> dict[str, Any]:
    return {
        "suggestion": None if fit.suggestion is None else tail_to_json(fit.suggestion),
        "window": fit.window,
        "note": fit.note,
        "candidates": {
            name: {"model": tail_to_json(entry["model"]), "rmse": entry["rmse"]}
            for name, entry in fit.candidates.items()
        },
    }


def build_report(
    decomposition: Decomposition,
    path: DiscretePath,
    tail_fit: TailFit | None,
    *,
    tol: float = DEFAULT_TOL,
    source_kind: str = "discrete",
    tail_source: str = "declared",
    interpreted_component: float | None = None,
    continuous_diagnostics: dict[str, Any] | None = None,
    config_extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the machine-readable analysis report.

    The verdict in the report is exactly the decomposition's verdict, and
    ``tail_fit`` is the path's tail suggestion (None when no fit is
    possible).  The optional ``interpreted_component`` (a component some
    model labels a bubble) is echoed verbatim next to the measured
    rational bubble so the two can be contrasted.
    """
    diag = dict(decomposition.diagnostics)
    diag["partial_values"] = [[t, v] for t, v in diag.get("partial_values", ())]
    diag["tail_fit"] = None if tail_fit is None else tail_fit_to_json(tail_fit)
    if continuous_diagnostics:
        diag["continuous"] = continuous_diagnostics
    config: dict[str, Any] = {
        "eps_bubble": EPS_BUBBLE,
        "tol": tol,
        "tail_source": tail_source,
    }
    if config_extra:
        config.update(config_extra)
    return {
        "input": {
            "kind": source_kind,
            "length": path.horizon + 1,
            "horizon": path.horizon,
            "tail": None if path.tail is None else tail_to_json(path.tail),
        },
        "decomposition": {
            "price": decomposition.price,
            "fundamental": decomposition.fundamental,
            "bubble": decomposition.bubble,
            "verdict": decomposition.verdict.value,
        },
        "diagnostics": diag,
        "rational_bubble": decomposition.bubble,
        "interpreted_component": interpreted_component,
        "version": __version__,
        "config": config,
    }


def render_report(report: dict[str, Any], fmt: str = "json") -> str:
    """Render a report deterministically as JSON (default) or text."""
    if fmt == "json":
        return (
            json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n"
        )
    if fmt != "text":
        raise ValidationError(f"unknown format {fmt!r}")
    dec = report["decomposition"]
    inp = report["input"]
    lines = [
        f"bubblekit {report['version']} analysis",
        f"  input      : {inp['kind']} path, {inp['length']} samples, "
        f"tail = {inp['tail']}",
        f"  price      : {dec['price']!r}",
        f"  fundamental: {dec['fundamental']!r}",
        f"  bubble     : {dec['bubble']!r}",
        f"  verdict    : {dec['verdict']}",
    ]
    if report.get("interpreted_component") is not None:
        lines.append(
            f"  interpreted component (not a rational bubble): "
            f"{report['interpreted_component']!r}"
        )
    diag = report["diagnostics"]
    lines.append(
        f"  max no-arbitrage residual: {diag['no_arbitrage_residual_max']!r}"
    )
    for t, value in diag["partial_values"]:
        lines.append(f"  present value of dividends 1..{t}: {value!r}")
    return "\n".join(lines) + "\n"
