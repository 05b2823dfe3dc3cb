"""Independent oracles for expected values.

Everything here deliberately avoids the library's own code paths: high
precision arithmetic via mpmath, brute-force recursion of the deflated
price, direct partial sums, a row-by-row CSV reader that checks each
number with a regex, a continuous-JSON reader that builds the whole
``json.loads`` tree, and document writers that format one number at a
time, with ``float.__repr__`` or with one ``orjson.dumps`` call a number.
Tests compare bubblekit's answers against these, never the other way
around.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

import mpmath as mp
import numpy as np
import orjson

from bubblekit.errors import ParseError, ValidationError
from bubblekit.continuous import ContinuousPath, CumulativeDividend
from bubblekit.io import (
    _reject_constant,
    format_tail_spec,
    parse_tail_spec,
    tail_from_json,
    tail_to_json,
)
from bubblekit.series import (
    DEFAULT_TOL,
    Deflators,
    DiscretePath,
    no_arbitrage_residuals,
)


def product_bubble(alpha: float, rho: float, terms: int = 200, dps: int = 50) -> float:
    """High-precision prod_{s=1..terms} (1 + alpha rho^s)^-1.

    For unit price and dividends alpha * rho^t this is the deflated-price
    limit; 200 terms leave a remainder far below double precision for
    rho <= 0.9.
    """
    with mp.workdps(dps):
        prod = mp.mpf(1)
        a = mp.mpf(repr(alpha))
        r = mp.mpf(repr(rho))
        for s in range(1, terms + 1):
            prod /= 1 + a * r**s
        return float(prod)


def log_tail_sum(coeff: float, decay, start: int, dps: int = 40) -> float:
    """High-precision sum_{t >= start} log1p(coeff * decay(t)).

    Suitable for fast geometric decay only: mpmath's ``nsum`` extrapolates
    from the first terms and is unreliable when the decay is slow.  At
    ``coeff = 3.0``, ratio 0.999, ``start = 1`` it is 2.5 times off the
    exact sum, which :func:`geometric_log_sum` gives.
    """
    with mp.workdps(dps):
        c = mp.mpf(repr(coeff))
        total = mp.nsum(lambda t: mp.log(1 + c * decay(t)), [start, mp.inf])
        return float(total)


# a head of at least this many terms is summed in doubles
_LONG_HEAD = 100_000


def _log_sum(exact, double, start: int, t0: int, moment) -> float:
    """sum_{t >= start} log1p(y_t) at mpmath's working precision, for
    yields y_t = ``exact(t)`` that fall to x0 <= 1/2 at t0 and to x0 r_n
    at t0 + n.

    The head t = start..t0-1 is summed term by term in mpmath, or, where
    it has 10^5 terms or more, as the ``math.fsum`` of ``math.log1p`` of
    the double yields ``double(t)``.  The rest is the series
    sum_k (-1)^(k+1) x0^k m_k / k, m_k = ``moment(k)`` = sum_n r_n^k,
    taken until a term is below 10^-dps of the total.
    """
    if t0 - start >= _LONG_HEAD:
        total = mp.mpf(math.fsum(math.log1p(double(t)) for t in range(start, t0)))
    else:
        total = mp.fsum(mp.log1p(exact(t)) for t in range(start, t0))
    x0 = exact(t0)
    for k in range(1, 1000):
        term = (-1) ** (k + 1) * x0**k * moment(k) / k
        total += term
        if abs(term) <= mp.eps * abs(total):
            return float(total)
    raise AssertionError("the series did not converge")


def geometric_log_sum(coeff: float, ratio: float, start: int, dps: int = 40) -> float:
    """sum_{t >= start} log1p(coeff * ratio^t) at ``dps`` digits, for the
    doubles ``coeff`` and ``ratio`` as given.

    The head, the dates whose yield is at least 1/2, is summed term by
    term; a head of 10^5 terms or more is the ``math.fsum`` of
    ``math.log1p(coeff * math.pow(ratio, t))``.  From the first yield x0
    below 1/2 on, the sum is the series of :func:`_log_sum` with the
    closed-form moments m_k = 1 / (1 - ratio^k).
    """
    with mp.workdps(dps):
        c, r = mp.mpf(coeff), mp.mpf(ratio)
        t0 = max(start, int(mp.floor(mp.log(2 * c) / -mp.log(r))) + 1)
        return _log_sum(
            lambda t: c * r**t,
            lambda t: coeff * math.pow(ratio, t),
            start,
            t0,
            lambda k: 1 / (1 - r**k),
        )


def power_moment(s, t0: int):
    """sum_{n >= 0} (1 + n/t0)^-s for s > 1 at mpmath's working precision.

    Terms are summed directly until the rest, at most f(n) (t0 + n)/(s - 1),
    is below 10^-dps of the sum, or until t0 + n reaches 2 (s + 40).  From
    a = t0 + n the rest is f(n) (a/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_(2j-1)
    a^(1-2j)) (Euler-Maclaurin, DLMF 2.10.1), whose terms then fall by a
    factor of about 40 each; they are added until one is below 10^-dps.
    ``mpmath.zeta(s, t0)`` cannot stand in: its error bound is absolute,
    so it loses the relative digits of a value far below 1.
    """
    total, n = mp.mpf(0), 0
    while t0 + n < 2 * (s + 40):
        f = (1 + mp.mpf(n) / t0) ** -s
        total += f
        if f * (t0 + n) / (s - 1) <= mp.eps * total:
            return total
        n += 1
    a = mp.mpf(t0 + n)
    rest = a / (s - 1) + mp.mpf(1) / 2
    for j in range(1, 1000):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1) * a ** (1 - 2 * j)
        rest += term
        if abs(term) <= mp.eps * rest:
            return total + (a / t0) ** -s * rest
    raise AssertionError("the Euler-Maclaurin series did not converge")


def power_log_sum(coeff: float, exponent: float, start: int, dps: int = 40) -> float:
    """sum_{t >= start} log1p(coeff * t^-exponent) for exponent > 1 at
    ``dps`` digits, for the doubles ``coeff`` and ``exponent`` as given.

    The head, the dates whose yield is at least 1/2, is summed term by
    term; a head of 10^5 terms or more is the ``math.fsum`` of
    ``math.log1p(coeff * t ** -exponent)``.  From t0, the first date whose
    yield x0 is below 1/2, the sum is the series of :func:`_log_sum` with
    the moments m_k = t0^(k p) zeta(k p, t0) of :func:`power_moment`.
    """
    with mp.workdps(dps):
        c, p = mp.mpf(coeff), mp.mpf(exponent)
        t0 = max(start, int(mp.floor((2 * c) ** (1 / p))) + 1)
        return _log_sum(
            lambda t: c * mp.mpf(t) ** -p,
            lambda t: coeff * float(t) ** -exponent,
            start,
            t0,
            lambda k: power_moment(k * p, t0),
        )


def log_tail_sum_power(
    coeff: float, exponent: float, start: int, head: int = 100_000
) -> float:
    """sum_{t >= start} log1p(coeff * t^-exponent) for exponent > 1.

    Direct float summation of the first ``head`` terms, then the
    remainder by Euler-Maclaurin: the integral of log1p(c t^-p) from the
    cut has the exact expansion sum_k (-1)^(k+1) (c^k / k) N^(1-pk) /
    (pk - 1) (valid since c N^-p << 1 there, and the k-ratio ~1e-6 so a
    handful of terms reach full precision; infinite-tail quadrature is
    NOT reliable for these slowly decaying integrands), plus the f/2 and
    -f'/12 endpoint corrections; the next correction is ~N^-(p+3).
    """
    cut = start + head
    head_sum = math.fsum(
        math.log1p(coeff * t**-exponent) for t in range(start, cut)
    )
    with mp.workdps(40):
        c = mp.mpf(repr(coeff))
        p = mp.mpf(repr(exponent))
        big_n = mp.mpf(cut)
        x = c * big_n**-p
        assert x < 0.5, "cut too small for the remainder expansion"
        integral = mp.mpf(0)
        for k in range(1, 200):
            term = (-1) ** (k + 1) * c**k / k * big_n ** (1 - p * k) / (p * k - 1)
            integral += term
            if abs(term) < mp.mpf(10) ** -38 * (1 + abs(integral)):
                break
        f_cut = mp.log(1 + x)
        fprime = -p * x / (big_n * (1 + x))
        return head_sum + float(integral + f_cut / 2 - fprime / 12)


def least_squares_line(x, y, dps: int = 50) -> tuple[float, float]:
    """Exact least-squares line y = a + b x through the given doubles.

    The sums are taken in ``dps``-digit arithmetic from the doubles as
    given (the rounding of x and y is the data, not an error), and only
    the result is rounded: returns (b, a).
    """
    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in x]
        ys = [mp.mpf(float(v)) for v in y]
        x_mean = mp.fsum(xs) / len(xs)
        y_mean = mp.fsum(ys) / len(ys)
        sxy = mp.fsum((u - x_mean) * (v - y_mean) for u, v in zip(xs, ys))
        sxx = mp.fsum((u - x_mean) ** 2 for u in xs)
        slope = sxy / sxx
        return float(slope), float(y_mean - slope * x_mean)


def deflated_terminal_log(prices, dividends) -> float:
    """log(q_T P_T) by direct recursion: each period divides qP by 1 + y_t.

    Independent of the library's cumulative-log construction.
    """
    prices = np.asarray(prices, dtype=float)
    dividends = np.asarray(dividends, dtype=float)
    if dividends.size == prices.size:
        dividends = dividends[1:]
    log_qp = math.log(prices[0])
    for t in range(1, prices.size):
        log_qp -= math.log1p(dividends[t - 1] / prices[t])
    return log_qp


def deflated_recursion_mp(prices, dividends, at, dps: int = 50):
    """Present values and the deflated terminal price by direct recursion.

    q_{t+1} = q_t P_t / (P_{t+1} + D_{t+1}) from q_0 = 1 in ``dps``-digit
    arithmetic; returns ({T: sum_{t<=T} q_t D_t for T in at}, q_T P_T).
    Shares nothing with the library's log-yield sum.
    """
    prices = [float(p) for p in prices]
    dividends = [float(d) for d in dividends]
    if len(dividends) == len(prices) - 1:
        dividends = [0.0] + dividends
    wanted = set(at)
    present = {}
    with mp.workdps(dps):
        q = mp.mpf(1)
        pv = mp.mpf(0)
        for t in range(1, len(prices)):
            q = q * mp.mpf(prices[t - 1]) / (mp.mpf(prices[t]) + mp.mpf(dividends[t]))
            pv += q * mp.mpf(dividends[t])
            if t in wanted:
                present[t] = float(pv)
        return present, float(q * mp.mpf(prices[-1]))


def limit_is_positive(yields, flat_threshold: float = 0.1) -> bool:
    """Decide lim q_T P_T > 0 from a long sampled yield series.

    The deflated price is P_0 * exp(-sum log(1 + y_t)), monotonically
    decreasing.  Its limit is positive exactly when the log-sum
    converges, which the recursion exhibits as flattening: the increment
    contributed by the second half of the horizon is negligible.  A
    fixed-point threshold separates the families by orders of magnitude
    (divergent families keep adding >= log 2 per doubling; convergent
    ones add ~0).
    """
    yields = np.asarray(yields, dtype=float)
    half = yields.size // 2
    increment = math.fsum(np.log1p(yields[half:]))
    return increment < flat_threshold


def pseries_partial(p: float, terms: int) -> float:
    """Direct partial sum of t^-p (integral-test oracle for p-series)."""
    total = 0.0
    block = 1_000_000
    for start in range(1, terms + 1, block):
        stop = min(start + block, terms + 1)
        t = np.arange(start, stop, dtype=np.float64)
        total += float(np.sum(t**-p))
    return total


# RFC 8259 section 6: a JSON number, and a JSON integer
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_JSON_INTEGER = re.compile(r"-?(?:0|[1-9][0-9]*)")


def parse_path_csv_rows(data, tol: float = DEFAULT_TOL):
    """``bubblekit.io.parse_path_csv`` as a row-by-row loop.

    The reference the piece-wise parser is compared with: it makes every
    check one row at a time, in file order, and reads each cell on its
    own, checking its syntax with an RFC 8259 regex and reading its value
    with ``float()``.  It builds its result and errors from the library's
    types.

    Lines end at ``"\\n"``; spaces, tabs and ``"\\r"`` around a cell are
    blank.  Rows must carry JSON integer dates counting up from 0, with an
    empty or zero dividend at t = 0; an empty ``D`` cell is 0, and a row of
    blanks and commas is skipped.  A leading ``# tail: <spec>`` comment
    declares the tail.  A supplied ``q`` column must be positive,
    normalized to q_0 = 1, and satisfy the no-arbitrage recursion within
    ``tol`` or the document is rejected.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    blanks = " \t\r"
    tail_spec: str | None = None
    lines = data.split("\n")
    body_start = 0
    for line in lines:
        stripped = line.strip(blanks)
        if not stripped or stripped.startswith("#"):
            if stripped.lower().startswith("# tail:"):
                tail_spec = stripped[len("# tail:") :].strip()
            body_start += 1
        else:
            break
    if body_start == len(lines):
        raise ParseError("empty document", line=1)
    line0 = body_start + 1
    header = tuple(h.strip(blanks) for h in lines[body_start].split(","))
    if header != ("t", "P", "D") and header != ("t", "P", "D") + ("q",):
        got = ",".join(header)
        raise ParseError(
            f"expected header 't,P,D' or 't,P,D,q', got {got[:80]!r}"
            + ("..." if len(got) > 80 else ""),
            line=line0,
        )
    has_q = len(header) == 4

    def number(cell: str, line: int) -> float:
        value = float(cell) if _JSON_NUMBER.fullmatch(cell) else math.nan
        if not math.isfinite(value):
            raise ParseError(
                f"bad number: could not convert {cell!r}: "
                "not a JSON number within the double range",
                line=line,
            )
        return value

    times: list[int] = []
    prices: list[float] = []
    dividends: list[float] = []
    deflator_values: list[float] = []
    for offset, text in enumerate(lines[body_start + 1 :]):
        line = line0 + 1 + offset
        if not text.strip(blanks + ","):
            continue
        if '"' in text:
            raise ParseError("quoted cells are not supported", line=line)
        row = [cell.strip(blanks) for cell in text.split(",")]
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=line
            )
        if not _JSON_INTEGER.fullmatch(row[0]):
            raise ParseError(f"bad date {row[0]!r}", line=line)
        t = int(row[0])
        expected = times[-1] + 1 if times else 0
        if t != expected:
            raise ParseError(
                f"dates must increase by 1 from 0; expected {expected}, got {row[0]}",
                line=line,
            )
        price = number(row[1], line)
        dividend = 0.0 if row[2] == "" else number(row[2], line)
        deflator = number(row[3], line) if has_q else 0.0
        if price < 0:
            raise ParseError("negative price", line=line)
        if dividend < 0:
            raise ParseError("negative dividend", line=line)
        if t == 0 and dividend != 0.0:
            raise ParseError(
                "no dividend at t = 0 (ex-dividend convention)", line=line
            )
        if t > 0 and price == 0 and dividend == 0:
            raise ParseError("P_t + D_t must be positive for t >= 1", line=line)
        if has_q and deflator <= 0:
            raise ParseError("supplied deflators must be positive", line=line)
        times.append(t)
        prices.append(price)
        dividends.append(dividend)
        if has_q:
            deflator_values.append(deflator)

    if len(times) < 2:
        raise ParseError("need at least dates 0 and 1")
    path = DiscretePath(prices=np.array(prices), dividends=np.array(dividends))
    if tail_spec is not None:
        last = (float(path.prices[-1]), float(path.dividends[-1]))
        path = path.with_tail(parse_tail_spec(tail_spec, last))
    if has_q:
        if abs(deflator_values[0] - 1.0) > 1e-12:
            raise ValidationError("supplied deflators must be normalized to q_0 = 1")
        supplied = Deflators(
            np.concatenate(([0.0], np.log(np.array(deflator_values[1:]))))
        )
        if not no_arbitrage_residuals(path, supplied).max() <= tol:
            raise ValidationError(
                "supplied deflators violate the no-arbitrage recursion "
                f"at relative tolerance {tol!r}"
            )
    return path


def serialize_path_csv_repr(path: DiscretePath) -> str:
    """``bubblekit.io.serialize_path_csv`` one row and one ``repr`` at a time.

    The reference the array writer is compared with: same lines and the
    same doubles, spelled by ``float.__repr__`` (``1e-07``, ``1e+16``).
    """
    lines = []
    if path.tail is not None:
        lines.append(f"# tail: {format_tail_spec(path.tail)}")
    lines.append("t,P,D")
    lines.append(f"0,{float(path.prices[0])!r},")
    for t in range(1, path.horizon + 1):
        lines.append(f"{t},{float(path.prices[t])!r},{float(path.dividends[t])!r}")
    return "\n".join(lines) + "\n"


def serialize_path_csv_cells(path: DiscretePath) -> str:
    """``bubblekit.io.serialize_path_csv`` one row and one number at a time.

    The byte-exact reference for the array writer: each number is spelled
    by its own ``orjson.dumps(float(x))`` call, each date by ``str``.
    """
    def cell(x) -> str:
        return orjson.dumps(float(x)).decode()

    lines = []
    if path.tail is not None:
        lines.append(f"# tail: {format_tail_spec(path.tail)}")
    lines.append("t,P,D")
    lines.append(f"0,{cell(path.prices[0])},")
    for t in range(1, path.horizon + 1):
        lines.append(f"{t},{cell(path.prices[t])},{cell(path.dividends[t])}")
    return "\n".join(lines) + "\n"


def serialize_continuous_json_repr(cpath: ContinuousPath) -> str:
    """``bubblekit.io.serialize_continuous_json`` through ``json.dumps``.

    The reference the array writer is compared with: same keys and the
    same doubles, spelled by ``float.__repr__``.
    """
    obj: dict[str, Any] = {
        "grid_step": cpath.grid_step,
        "horizon": cpath.horizon,
        "prices": cpath.prices.tolist(),
        "density": cpath.dividends.density.tolist(),
        "jumps": [{"t": t, "dF": df} for t, df in cpath.dividends.jumps],
        "tail": None if cpath.tail is None else tail_to_json(cpath.tail),
    }
    if cpath.interpreted_component is not None:
        obj["interpreted_component"] = cpath.interpreted_component
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_continuous_json_stdlib(data: str | bytes) -> ContinuousPath:
    """``bubblekit.io.parse_continuous_json`` through ``json.loads`` alone.

    The reference the object-walking reader is compared with: the
    whole document becomes a tree of Python objects, one float per number,
    before numpy copies the arrays out of it.  Like the library it names a
    syntax error's reason, column and char offset, and its line once, and
    rejects JSON strings, ``true`` and ``false`` where a number belongs.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg} at column {exc.colno} (char {exc.pos})",
            line=exc.lineno,
        ) from None
    if not isinstance(obj, dict):
        raise ParseError("continuous path document must be a JSON object")

    def number(value):
        if value is True or value is False or type(value) is str:
            raise TypeError(f"expected a number, got {json.dumps(value)}")
        return float(value)

    def numbers(value):
        for item in value if type(value) is list else [value]:
            if item is True or item is False:
                raise TypeError("expected numbers, got true or false")
            if type(item) is str:
                raise TypeError("expected numbers, got a string")
        return np.array(value, dtype=np.float64)

    for key in ("grid_step", "prices", "density"):
        if key not in obj:
            raise ParseError(f"continuous path document missing {key!r}")
    try:
        jumps = tuple(
            (number(j["t"]), number(j["dF"])) for j in obj.get("jumps", ())
        )
        grid_step = number(obj["grid_step"])
        prices = numbers(obj["prices"])
        density = numbers(obj["density"])
        interpreted = obj.get("interpreted_component")
        interpreted = None if interpreted is None else number(interpreted)
        declared_horizon = obj.get("horizon")
        declared_horizon = None if declared_horizon is None else number(declared_horizon)
    except (TypeError, ValueError, KeyError) as exc:
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


# ---------- the discrete pass, as it was computed before it was fused ----------
#
# The CSV identity arithmetic and decompose's residual route as separate
# functions, each holding its own np.errstate: log_ratio, the Sum2 prefix
# sum, L, the log deflators and the no-arbitrage residuals.  The library's
# one fused pass must give the same bits.

_TINY = np.finfo(np.float64).tiny


def _two_sum_error_ref(a, b, s):
    virtual = s - a
    return (a - (s - virtual)) + (b - virtual)


def log_ratio_ref(num, den) -> np.ndarray:
    """log(num / den) from the ratio where it is a normal double, else in logs."""
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        ratios = num / den
        logs = np.log(ratios)
        if not (ratios.min() >= _TINY and ratios.max() < np.inf):
            num, den = np.broadcast_arrays(num, den)
            far = ~(ratios >= _TINY) | np.isinf(ratios)
            logs[far] = np.log(num[far]) - np.log(den[far])
    return logs


def compensated_cumsum_ref(values) -> np.ndarray:
    """Sum2 prefix sums: running sums plus the running sum of TwoSum errors."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = x.cumsum()
        errors = np.zeros_like(sums)
        errors[1:] = _two_sum_error_ref(sums[:-1], x[1:], sums[1:])
    if not np.isfinite(sums[-1:]).all():
        errors[~np.isfinite(sums)] = 0.0
    return sums + errors.cumsum()


def log_yield_sum_ref(prices, dividends) -> np.ndarray:
    """L_0..L_T; ``dividends`` holds D_0..D_T."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yields = dividends[1:] / prices[1:]
        steps = np.log1p(yields)
        if not steps.max() < np.inf:
            far = np.isinf(yields)
            steps[far] = np.log(dividends[1:][far]) - np.log(prices[1:][far])
    return np.concatenate(([0.0], compensated_cumsum_ref(steps)))


def log_deflators_ref(prices, dividends, log_yield) -> np.ndarray:
    cum = log_yield
    if prices.min() == 0.0:
        zero = prices == 0.0
        prices = np.where(zero, dividends, prices)
        cum = np.where(zero, np.concatenate(([0.0], log_yield[:-1])), log_yield)
    with np.errstate(over="ignore", invalid="ignore"):
        return log_ratio_ref(prices[0], prices) - ((cum + 1.0) - 1.0)


def residuals_ref(prices, dividends, log_q) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gross = prices[1:] + dividends[1:]
        log_gross = log_ratio_ref(gross, prices[:-1])
        if np.isinf(gross.max()):
            far = np.flatnonzero(np.isinf(gross))
            p, d, base = prices[1:][far], dividends[1:][far], prices[:-1][far]
            log_gross[far] = np.where(
                base >= 2 * _TINY,
                log_ratio_ref(0.5 * p + 0.5 * d, 0.5 * base),
                np.logaddexp(np.log(p), np.log(d)) - np.log(base),
            )
        residuals = np.abs(np.expm1((log_q[1:] - log_q[:-1]) + log_gross))
    if np.isnan(residuals.max()):
        residuals[np.isnan(residuals)] = 0.0
    return residuals


def discrete_pass_ref(path: DiscretePath):
    """(L, log q, residuals) of ``path``, each by its own route."""
    prices, dividends = path.prices, path.dividends
    log_yield = log_yield_sum_ref(prices, dividends)
    log_q = log_deflators_ref(prices, dividends, log_yield)
    return log_yield, log_q, residuals_ref(prices, dividends, log_q)


def telescoping_gaps_ref(path: DiscretePath) -> tuple[float, float]:
    """``check-identity``'s CSV result: the largest telescoping gap and the
    largest no-arbitrage residual."""
    _, log_q, residuals = discrete_pass_ref(path)
    price0 = float(path.prices[0])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(log_q[1:] + log_ratio_ref(path.dividends[1:], price0))
        deflated = np.exp(log_q + log_ratio_ref(path.prices, price0))
        partials = compensated_cumsum_ref(terms)
        gaps = np.abs(1.0 - partials - deflated[1:])
    return float(np.max(gaps)), float(np.max(residuals))
