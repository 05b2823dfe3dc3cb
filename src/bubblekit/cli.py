"""Command-line front end: generate, analyze, check-identity.

Verdicts are scriptable through exit codes: 0 means no bubble, 10 means a
bubble was found, 2 marks an input/validation problem, 1 an internal
error.  ``analyze`` reads discrete CSV or continuous JSON documents
(``-`` or no file reads stdin) and emits one machine-readable report per
input, in input order.  The environment variable ``BUBBLEKIT_TOL``
overrides the default no-arbitrage tolerance (1e-9); an explicit ``--tol``
takes precedence over it.  It leaves ``check-identity``'s pass thresholds
alone: those come from ``--tol`` or the document kind's default.
``check-identity`` computes no identity itself: a CSV's gaps come from
``telescoping_gaps`` and a continuous document's from
``deflated_price_profile``.  ``--jump-side`` picks the price at a
continuous document's dividend jumps; it has no default, a continuous
document resolves its absence to ``right``, and a CSV, which has no
jumps, refuses it (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__, models
from .characterization import Classification, TailFit, suggest_tail
from .continuous import (
    ContinuousPath,
    deflated_price_profile,
    discretize,
    montrucchio_continuous,
)
from .errors import ValidationError
from .io import (
    build_report,
    parse_continuous_json,
    parse_path_csv,
    parse_scenario_json,
    parse_tail_spec,
    path_csv_pieces,
    render_report,
    serialize_continuous_json,
    tail_fit_to_json,
    utf8_text,
)
from .models import MiaoWangScenario, gen_miao_wang
from .series import DEFAULT_TOL, DiscretePath, decompose, telescoping_gaps

EXIT_NO_BUBBLE = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_BUBBLE = 10

ENV_TOL = "BUBBLEKIT_TOL"

# check-identity writes a relative gap past the double range as this
_LARGEST_DOUBLE = sys.float_info.max

# generate's discrete models: the ``models`` generator, looked up when
# called, and the flags it takes before --T, in order
_DISCRETE_MODELS = {
    "money": ("gen_money", ("P0",)),
    "constant": ("gen_constant", ("P", "D")),
    "gordon": ("gen_gordon", ("D0", "g", "R")),
    "convergent-yield": ("gen_convergent_yield", ("alpha", "rho")),
}


def _resolve_tol(flag_value: float | None) -> float:
    """The no-arbitrage tolerance of ``--tol``, else of ``BUBBLEKIT_TOL``,
    else ``DEFAULT_TOL``; one that is not finite and >= 0 is a ValidationError."""
    source, tol = "--tol", flag_value
    if tol is None:
        source, env = ENV_TOL, os.environ.get(ENV_TOL)
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise ValidationError(f"bad {ENV_TOL} value {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"{source} must be finite and >= 0, got {tol!r}")
    return tol


def _read_input(name: str) -> str:
    """The UTF-8 text of file ``name`` (``-`` reads stdin), line ends as
    they are; bytes that are not UTF-8 are a ``ParseError``.

    The bytes are dropped once decoded, so the text is the one copy of the
    document that the parse sees."""
    if name == "-":
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:  # a text stream put in place of stdin
            return sys.stdin.read()
        raw = stdin.read()
    else:
        try:
            with open(name, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {name!r}: {exc}") from None
    # not parse_*(raw): the bytes would be held through the whole parse
    text = utf8_text(raw)
    del raw
    return text


# A document is continuous JSON when its first character past its leading
# blanks (those ``str.lstrip`` takes) is "{", and a CSV otherwise.  The
# blanks are matched in place: stripped, a document that starts with one
# would be copied whole.
_is_continuous_json = re.compile(r"\s*\{").match


def _truncate(path: DiscretePath, horizon: int) -> DiscretePath:
    if horizon < 1:
        raise ValidationError("--horizon must be at least 1")
    if horizon >= path.horizon:
        return path
    return DiscretePath(
        prices=path.prices[: horizon + 1],
        dividends=path.dividends[1 : horizon + 1],
        tail=path.tail,
    )


def _default_continuous_step(cpath: ContinuousPath) -> float:
    # about one time unit per period, always a whole number of grid cells
    cells = max(1, round(min(1.0, cpath.horizon) / cpath.grid_step))
    return cells * cpath.grid_step


def _analyze_one(name: str, args: argparse.Namespace, tol: float) -> dict[str, Any]:
    # the text is dropped once parsed: the analysis needs only the path
    data = _read_input(name)
    if _is_continuous_json(data):
        cpath = parse_continuous_json(data)
        del data
        return _analyze_continuous(cpath, args, tol)
    path = parse_path_csv(data, tol)
    del data
    return _analyze_discrete(path, args, tol)


def _tail_fit(path: DiscretePath, args: argparse.Namespace) -> tuple[TailFit | None, str]:
    """The path's tail fit (None if there is none) and its note or the
    reason; printed to stderr under --tail-suggest."""
    try:
        fit = suggest_tail(path)
    except ValidationError as exc:
        if args.tail_suggest:
            print(f"bubblekit: tail fit unavailable: {exc}", file=sys.stderr)
        return None, str(exc)
    if args.tail_suggest:
        line = json.dumps(tail_fit_to_json(fit), sort_keys=True, allow_nan=False)
        print(line, file=sys.stderr)
    return fit, fit.note


def _require_tail(
    path: DiscretePath, args: argparse.Namespace, fit: TailFit | None, note: str
) -> tuple[DiscretePath, str]:
    if args.tail is not None:
        last = (float(path.prices[-1]), float(path.dividends[-1]))
        return path.with_tail(parse_tail_spec(args.tail, last)), "flag"
    if path.tail is not None:
        return path, "embedded"
    if args.accept_suggested_tail:
        if fit is None or fit.suggestion is None:
            raise ValidationError(f"no usable tail suggestion: {note}")
        return path.with_tail(fit.suggestion), "suggested"
    raise ValidationError(
        "no tail declared: pass --tail <spec> (or --accept-suggested-tail "
        "to adopt the --tail-suggest fit); analysis never guesses whether "
        "the dividend-yield sum converges"
    )


def _analyze_discrete(
    path: DiscretePath, args: argparse.Namespace, tol: float
) -> dict[str, Any]:
    horizon = path.horizon
    if args.horizon is not None:
        path = _truncate(path, args.horizon)
    if args.step is not None:
        raise ValidationError(
            "--step discretizes continuous documents only; a CSV is analyzed "
            "period by period"
        )
    _refuse_jump_side(args)
    fit, note = _tail_fit(path, args)
    path, tail_source = _require_tail(path, args, fit, note)
    if path.horizon < horizon and path.tail.present_value is not None:
        raise ValidationError(
            f"--horizon {path.horizon} cuts the path short of its horizon "
            f"{horizon}, but a declared-convergent tail's sum is the present "
            f"value of the dividends after the file's own horizon {horizon}: "
            "drop --horizon or declare another tail kind"
        )
    result = decompose(path)
    return build_report(
        result,
        path,
        fit,
        tol=tol,
        source_kind="discrete",
        tail_source=tail_source,
    )


def _refuse_jump_side(args: argparse.Namespace) -> None:
    if args.jump_side is not None:
        raise ValidationError(
            "--jump-side picks the price at the dividend jumps of continuous "
            "documents only; a CSV has no jumps"
        )


def _analyze_continuous(
    cpath: ContinuousPath, args: argparse.Namespace, tol: float
) -> dict[str, Any]:
    if args.horizon is not None:
        raise ValidationError(
            "--horizon truncates discrete paths only; a continuous document "
            "is analyzed over its whole grid"
        )
    tail_source = "embedded"
    if args.tail is not None:
        last = (float(cpath.prices[-1]), float(cpath.dividends.density[-1]))
        cpath = dataclasses.replace(cpath, tail=parse_tail_spec(args.tail, last))
        tail_source = "flag"
    if cpath.tail is None:
        raise ValidationError(
            "no tail declared for continuous path: pass --tail <spec> or "
            "embed one in the document"
        )
    step = args.step if args.step is not None else _default_continuous_step(cpath)
    jump_side = args.jump_side or "right"
    verdict = montrucchio_continuous(cpath, jump_side)
    path = discretize(cpath, step)
    fit, _ = _tail_fit(path, args)
    result = decompose(path)
    report = build_report(
        result,
        path,
        fit,
        tol=tol,
        source_kind="continuous",
        tail_source=tail_source,
        interpreted_component=cpath.interpreted_component,
        continuous_diagnostics={
            "yield_integral": verdict.partial_sum,
            "classification": verdict.classification.value,
            "discretize_step": step,
        },
        config_extra={"step": step, "jump_side": jump_side},
    )
    report["input"].update(
        {
            "length": int(cpath.prices.size),
            "horizon": cpath.horizon,
            "grid_step": cpath.grid_step,
        }
    )
    return report


def _cmd_analyze(args: argparse.Namespace) -> int:
    """One report per file, in order; a file that fails is named on stderr
    and the rest still run.  The exit code is the gravest outcome: 1 (an
    internal error) before 2 (bad input) before 10 (a bubble)."""
    tol = _resolve_tol(args.tol)
    had_internal_error = False
    had_validation_error = False
    saw_bubble = False
    for name in args.files or ["-"]:
        try:
            report = _analyze_one(name, args, tol)
            rendered = render_report(report, args.format)
        except ValidationError as exc:
            print(f"bubblekit: {name}: {exc}", file=sys.stderr)
            had_validation_error = True
            continue
        except Exception as exc:  # a bug: report it and go on with the batch
            print(f"bubblekit: {name}: internal: {exc!r}", file=sys.stderr)
            had_internal_error = True
            continue
        sys.stdout.write(rendered)
        if report["decomposition"]["verdict"] == Classification.BUBBLE.value:
            saw_bubble = True
    if had_internal_error:
        return EXIT_INTERNAL
    if had_validation_error:
        return EXIT_VALIDATION
    return EXIT_BUBBLE if saw_bubble else EXIT_NO_BUBBLE


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model in _DISCRETE_MODELS:
        generator, flags = _DISCRETE_MODELS[args.model]
        missing = [flag for flag in flags if getattr(args, flag) is None]
        if missing:
            names = ", ".join(f"--{flag}" for flag in missing)
            raise ValidationError(f"generate {args.model} requires {names}")
        values = [getattr(args, flag) for flag in flags]
        path = getattr(models, generator)(*values, args.T)
        return _write_document(path_csv_pieces(path))
    params: dict[str, Any] = {}
    if args.scenario is not None:
        params.update(parse_scenario_json(_read_input(args.scenario)))
    flag_fields = {
        "marginal_q": args.Q,
        "capital": args.K,
        "interpreted_component": args.Bmw,
        "dividend": args.D,
        "rate": args.rate,
        "horizon": args.horizon,
        "grid_step": args.grid_step,
        "initial_price": args.initial_price,
        "initial_dividend": args.initial_dividend,
    }
    params.update({k: v for k, v in flag_fields.items() if v is not None})
    missing = [
        field.name
        for field in dataclasses.fields(MiaoWangScenario)
        if field.default is dataclasses.MISSING and field.name not in params
    ]
    if missing:
        raise ValidationError(
            "generate miao-wang requires --Q, --K, --Bmw and --D "
            f"(or a --scenario document); missing: {missing}"
        )
    return _write_document(
        [serialize_continuous_json(gen_miao_wang(MiaoWangScenario(**params)))]
    )


def _write_document(pieces: Iterable[str]) -> int:
    """Write a generated document to stdout.  A reader that closes the pipe
    early, as ``head`` does, has taken all it wants: the rest is dropped and
    the exit is 0, with nothing on stderr."""
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's buffer is flushed again at exit: let it go to devnull
        # (the "Note on SIGPIPE" of Python's signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_NO_BUBBLE


def _cmd_check_identity(args: argparse.Namespace) -> int:
    # the pass threshold is --tol or the document kind's default, never BUBBLEKIT_TOL
    data = _read_input(args.file)
    if _is_continuous_json(data):
        tol = 1e-6 if args.tol is None else _resolve_tol(args.tol)
        cpath = parse_continuous_json(data)
        del data
        # |lhs / rhs - 1| from the logs, which stay finite where qP underflows,
        # formed in the lhs array
        gap, log_rhs = deflated_price_profile(cpath, args.jump_side or "right")
        with np.errstate(over="ignore"):
            gap -= log_rhs
            del log_rhs
            np.expm1(gap, out=gap)
            np.abs(gap, out=gap)
        result = {
            "identity": "deflated-price exponential",
            "max_relative_gap": min(float(np.max(gap)), _LARGEST_DOUBLE),
            "at_horizon": min(float(gap[-1]), _LARGEST_DOUBLE),
            "tol": tol,
        }
    else:
        tol = 1e-12 if args.tol is None else _resolve_tol(args.tol)
        _refuse_jump_side(args)
        path = parse_path_csv(data, _resolve_tol(None))
        del data
        gap, residual = telescoping_gaps(path)
        result = {
            "identity": "telescoping present-value",
            "max_relative_gap": gap,
            "max_no_arbitrage_residual": residual,
            "tol": tol,
        }
    passed = result["max_relative_gap"] <= tol
    result["pass"] = passed
    if args.format == "json":
        rendered = json.dumps(
            result, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        sys.stdout.write(rendered + "\n")
    else:
        for key in sorted(result):
            sys.stdout.write(f"{key}: {result[key]!r}\n")
    return EXIT_NO_BUBBLE if passed else EXIT_INTERNAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="bubblekit",
        description="Price-path decomposition and rational-bubble analysis",
    )
    parser.add_argument("--version", action="version", version=f"bubblekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="decompose and classify paths")
    analyze.add_argument("files", nargs="*", help="CSV/JSON documents ('-' = stdin)")
    analyze.add_argument("--tail", help="tail spec, e.g. constant-levels:P=100,D=5")
    analyze.add_argument(
        "--tail-suggest",
        action="store_true",
        help="print the best-fit tail suggestion (analysis still needs a declaration)",
    )
    analyze.add_argument(
        "--accept-suggested-tail",
        action="store_true",
        help="adopt the best-fit tail suggestion as the declaration",
    )
    analyze.add_argument("--tol", type=float, help="no-arbitrage relative tolerance")
    analyze.add_argument("--horizon", type=int, help="truncate discrete paths to T_max = N")
    analyze.add_argument(
        "--step", type=float, help="discretization step for continuous inputs"
    )
    analyze.add_argument(
        "--jump-side",
        choices=("right", "left"),
        help="price sample used at the dividend jumps of a continuous document "
        "(default right); refused for a CSV",
    )
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate", help="emit a canonical economy's path")
    generate.add_argument(
        "model",
        choices=(*_DISCRETE_MODELS, "miao-wang"),
    )
    generate.add_argument("--T", type=int, default=500, help="discrete horizon T_max")
    generate.add_argument("--P0", type=float, help="money: price level")
    generate.add_argument("--P", type=float, help="constant: price")
    generate.add_argument("--D", type=float, help="constant dividend / miao-wang flow")
    generate.add_argument("--D0", type=float, help="gordon: initial dividend")
    generate.add_argument("--g", type=float, help="gordon: gross dividend growth")
    generate.add_argument("--R", type=float, help="gordon: gross discount rate")
    generate.add_argument("--alpha", type=float, help="convergent-yield: scale")
    generate.add_argument("--rho", type=float, help="convergent-yield: decay ratio")
    generate.add_argument("--Q", type=float, help="miao-wang: marginal value of capital")
    generate.add_argument("--K", type=float, help="miao-wang: capital stock")
    generate.add_argument(
        "--Bmw", type=float, help="miao-wang: interpreted bubble component"
    )
    generate.add_argument("--rate", type=float, help="miao-wang: convergence rate")
    generate.add_argument("--horizon", type=float, help="miao-wang: time horizon")
    generate.add_argument("--grid-step", type=float, help="miao-wang: grid step")
    generate.add_argument("--initial-price", type=float, help="miao-wang: P(0)")
    generate.add_argument("--initial-dividend", type=float, help="miao-wang: d(0)")
    generate.add_argument(
        "--scenario",
        help="miao-wang: JSON scenario document ('-' = stdin); flags override",
    )
    generate.set_defaults(func=_cmd_generate)

    check = sub.add_parser(
        "check-identity",
        help="verify the telescoping / exponential pricing identity of a document",
    )
    check.add_argument("file", nargs="?", default="-")
    check.add_argument("--tol", type=float, help="pass/fail threshold")
    check.add_argument(
        "--jump-side",
        choices=("right", "left"),
        help="as for analyze: continuous documents only (default right)",
    )
    check.add_argument("--format", choices=("json", "text"), default="json")
    check.set_defaults(func=_cmd_check_identity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"bubblekit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_INTERNAL
    except Exception as exc:  # the exit-code contract: never leak a traceback
        print(f"bubblekit: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
