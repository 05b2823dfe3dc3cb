"""Path ingestion, tail spec grammar, and report assembly.

Discrete paths travel as CSV (``t,P,D`` with an optional ``q`` column of
externally supplied deflators, which are checked against the recursion
before acceptance); continuous paths travel as JSON because CSV cannot
cleanly carry jump measures.  Generated CSV embeds its tail declaration in
a leading ``# tail: <spec>`` comment so piped analyses need no flag.

Reports are plain dicts with stable keys; JSON rendering uses sorted keys
and shortest round-trip float representation, so identical inputs produce
byte-identical documents and serialize/parse/serialize is the identity.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import fields as dataclass_fields
from typing import Any

import numpy as np

from . import __version__
from .characterization import TailFit
from .continuous import ContinuousPath, CumulativeDividend
from .errors import ArbitrageError, ParseError, ValidationError
from .series import (
    DEFAULT_TOL,
    EPS_BUBBLE,
    Decomposition,
    Deflators,
    DiscretePath,
    check_no_arbitrage,
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
    for kind, cls in _TAIL_KINDS.items():
        if type(tail) is cls:
            return kind
    raise ValidationError(f"unrecognized tail model: {tail!r}")


def tail_to_json(tail: TailModel) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": _kind_of(tail)}
    for f in dataclass_fields(tail):
        out[f.name] = getattr(tail, f.name)
    return out


def tail_from_json(obj: dict[str, Any]) -> TailModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"tail object needs a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    cls = _TAIL_KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown tail kind {kind!r}")
    try:
        params = {k: float(v) for k, v in obj.items() if k != "kind"}
        return cls(**params)
    except (TypeError, ValueError) as exc:
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


def parse_tail_spec(spec: str, path: DiscretePath | None = None) -> TailModel:
    """Parse ``kind[:key=value,...]`` into a tail model.

    Bare ``constant-levels`` and ``constant-yield`` infer their parameters
    from the final sample of ``path`` (continue at the levels / the yield
    observed there); all other kinds with parameters require them.
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
        if path is None:
            raise ParseError(
                f"tail {kind!r} needs parameters (or a path to infer them from)"
            )
        last_price = float(path.prices[-1])
        last_dividend = float(path.dividends[-1])
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


# ---------- discrete CSV ----------

_CSV_HEADER = ("t", "P", "D")


def parse_path_csv(
    data: str | bytes, tol: float = DEFAULT_TOL
) -> DiscretePath:
    """Parse and validate a ``t,P,D[,q]`` document.

    Rows must carry strictly increasing integer dates starting at 0, with
    an empty or zero dividend at t = 0.  A leading ``# tail: <spec>``
    comment declares the tail.  A supplied ``q`` column must be positive,
    normalized to q_0 = 1, and satisfy the no-arbitrage recursion within
    ``tol`` or the document is rejected.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    tail_spec: str | None = None
    lines = data.splitlines()
    body_start = 0
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            if stripped.lower().startswith("# tail:"):
                tail_spec = stripped[len("# tail:") :].strip()
            body_start += 1
        else:
            break
    reader = csv.reader(_io.StringIO("\n".join(lines[body_start:])))
    rows = list(reader)
    if not rows:
        raise ParseError("empty document", line=1)
    line0 = body_start + 1
    header = tuple(h.strip() for h in rows[0])
    if header != _CSV_HEADER and header != _CSV_HEADER + ("q",):
        raise ParseError(
            f"expected header 't,P,D' or 't,P,D,q', got {','.join(header)!r}",
            line=line0,
        )
    has_q = len(header) == 4

    times: list[int] = []
    prices: list[float] = []
    dividends: list[float] = []
    deflator_values: list[float] = []
    for offset, row in enumerate(rows[1:]):
        line = line0 + 1 + offset
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=line
            )
        try:
            t = int(row[0])
        except ValueError:
            raise ParseError(f"bad date {row[0]!r}", line=line) from None
        expected = times[-1] + 1 if times else 0
        if t != expected:
            raise ParseError(
                f"dates must increase by 1 from 0; expected {expected}, got {t}",
                line=line,
            )
        try:
            price = float(row[1])
            dividend = 0.0 if row[2].strip() == "" else float(row[2])
            deflator = float(row[3]) if has_q else 0.0
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line=line) from None
        if not (math.isfinite(price) and math.isfinite(dividend)):
            raise ParseError("non-finite price or dividend", line=line)
        if price < 0:
            raise ParseError("negative price", line=line)
        if dividend < 0:
            raise ParseError("negative dividend", line=line)
        if t == 0 and dividend != 0.0:
            raise ParseError(
                "no dividend at t = 0 (ex-dividend convention)", line=line
            )
        if has_q and (not math.isfinite(deflator) or deflator <= 0):
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
        path = path.with_tail(parse_tail_spec(tail_spec, path))
    if has_q:
        if abs(deflator_values[0] - 1.0) > 1e-12:
            raise ValidationError("supplied deflators must be normalized to q_0 = 1")
        supplied = Deflators(
            np.concatenate(([0.0], np.log(np.array(deflator_values[1:]))))
        )
        if not check_no_arbitrage(path, supplied, tol):
            raise ArbitrageError(
                "supplied deflators violate the no-arbitrage recursion "
                f"at relative tolerance {tol!r}"
            )
    return path


def serialize_path_csv(path: DiscretePath) -> str:
    lines = []
    if path.tail is not None:
        lines.append(f"# tail: {format_tail_spec(path.tail)}")
    lines.append("t,P,D")
    lines.append(f"0,{float(path.prices[0])!r},")
    for t in range(1, path.horizon + 1):
        lines.append(f"{t},{float(path.prices[t])!r},{float(path.dividends[t])!r}")
    return "\n".join(lines) + "\n"


# ---------- continuous JSON ----------


_SCENARIO_FIELDS = {
    "marginal_q",
    "capital",
    "interpreted_component",
    "dividend",
    "rate",
    "horizon",
    "grid_step",
    "initial_price",
    "initial_dividend",
}


def parse_scenario_json(data: str | bytes) -> dict[str, float]:
    """Scenario parameters as a JSON object keyed by field name.

    Returns the raw keyword mapping (callers may still override single
    fields before constructing the scenario).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("scenario document must be a JSON object")
    unknown = set(obj) - _SCENARIO_FIELDS
    if unknown:
        raise ParseError(
            f"unknown scenario fields {sorted(unknown)!r} "
            f"(known: {sorted(_SCENARIO_FIELDS)!r})"
        )
    try:
        return {k: float(v) for k, v in obj.items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad scenario value: {exc}") from None


def parse_continuous_json(data: str | bytes) -> ContinuousPath:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("continuous path document must be a JSON object")
    for key in ("grid_step", "prices", "density"):
        if key not in obj:
            raise ParseError(f"continuous path document missing {key!r}")
    try:
        jumps = tuple(
            (float(j["t"]), float(j["dF"])) for j in obj.get("jumps", ())
        )
        grid_step = float(obj["grid_step"])
        prices = np.array(obj["prices"], dtype=np.float64)
        density = np.array(obj["density"], dtype=np.float64)
        interpreted = obj.get("interpreted_component")
        interpreted = None if interpreted is None else float(interpreted)
        declared_horizon = obj.get("horizon")
        declared_horizon = None if declared_horizon is None else float(declared_horizon)
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


def serialize_continuous_json(cpath: ContinuousPath) -> str:
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
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
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
