"""Command-line front end: generate, analyze, check-identity.

Verdicts are scriptable through exit codes: 0 means no bubble, 10 means a
bubble was found, 2 marks an input/validation problem, 1 an internal
error.  ``analyze`` reads discrete CSV or continuous JSON documents
(``-`` or no file reads stdin) and emits one machine-readable report per
input, in input order.  The environment variable ``BUBBLEKIT_TOL``
overrides the default relative tolerance; explicit ``--tol`` flags take
precedence over it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .characterization import Classification, TailFit, suggest_tail
from .continuous import (
    ContinuousPath,
    deflated_price_profile,
    discretize,
    montrucchio_continuous,
)
from .errors import ParseError, ValidationError
from .io import (
    build_report,
    parse_continuous_json,
    parse_path_csv,
    parse_scenario_json,
    parse_tail_spec,
    render_report,
    serialize_continuous_json,
    serialize_path_csv,
    tail_fit_to_json,
)
from .models import (
    MiaoWangScenario,
    gen_constant,
    gen_convergent_yield,
    gen_gordon,
    gen_miao_wang,
    gen_money,
)
from .numerics import compensated_cumsum
from .series import (
    DEFAULT_TOL,
    DiscretePath,
    decompose,
    implied_deflators,
    no_arbitrage_residuals,
)
from .tails import ConstantYield

EXIT_NO_BUBBLE = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_BUBBLE = 10

ENV_TOL = "BUBBLEKIT_TOL"


def _resolve_tol(flag_value: float | None, fallback: float = DEFAULT_TOL) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise ValidationError(f"bad {ENV_TOL} value {env!r}") from None
    return fallback


def _read_input(name: str) -> str:
    if name == "-":
        return sys.stdin.read()
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {name!r}: {exc}") from None


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


def _resolve_continuous_tail(spec: str, cpath: ContinuousPath):
    """Tail spec for a continuous path; bare constant-yield infers from
    the final density/price sample."""
    try:
        return parse_tail_spec(spec)
    except ParseError:
        kind = spec.strip().partition(":")[0].strip()
        if kind == "constant-yield":
            level = float(cpath.dividends.density[-1]) / float(cpath.prices[-1])
            if level <= 0:
                raise ValidationError(
                    "cannot infer a positive constant yield from the final sample"
                ) from None
            return ConstantYield(level)
        raise


def _default_continuous_step(cpath: ContinuousPath) -> float:
    # about one time unit per period, always a whole number of grid cells
    cells = max(1, round(min(1.0, cpath.horizon) / cpath.grid_step))
    return cells * cpath.grid_step


def _analyze_one(name: str, args: argparse.Namespace, tol: float) -> dict[str, Any]:
    data = _read_input(name)
    if data.lstrip().startswith("{"):
        return _analyze_continuous(data, args, tol)
    return _analyze_discrete(data, args, tol)


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
        print(json.dumps(tail_fit_to_json(fit), sort_keys=True), file=sys.stderr)
    return fit, fit.note


def _require_tail(
    path: DiscretePath, args: argparse.Namespace, fit: TailFit | None, note: str
) -> tuple[DiscretePath, str]:
    if args.tail is not None:
        return path.with_tail(parse_tail_spec(args.tail, path)), "flag"
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


def _analyze_discrete(data: str, args: argparse.Namespace, tol: float) -> dict[str, Any]:
    path = parse_path_csv(data, tol)
    if args.horizon is not None:
        path = _truncate(path, args.horizon)
    fit, note = _tail_fit(path, args)
    path, tail_source = _require_tail(path, args, fit, note)
    result = decompose(path)
    return build_report(
        result,
        path,
        fit,
        tol=tol,
        source_kind="discrete",
        tail_source=tail_source,
    )


def _analyze_continuous(data: str, args: argparse.Namespace, tol: float) -> dict[str, Any]:
    cpath = parse_continuous_json(data)
    tail_source = "embedded"
    if args.tail is not None:
        cpath = dataclasses.replace(
            cpath, tail=_resolve_continuous_tail(args.tail, cpath)
        )
        tail_source = "flag"
    if cpath.tail is None:
        raise ValidationError(
            "no tail declared for continuous path: pass --tail <spec> or "
            "embed one in the document"
        )
    step = args.step if args.step is not None else _default_continuous_step(cpath)
    verdict = montrucchio_continuous(cpath, args.jump_side)
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
        config_extra={"step": step, "jump_side": args.jump_side},
    )
    report["input"].update(
        {
            "kind": "continuous",
            "length": int(cpath.prices.size),
            "horizon": cpath.horizon,
            "grid_step": cpath.grid_step,
        }
    )
    return report


def _cmd_analyze(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args.tol)
    had_validation_error = False
    saw_bubble = False
    for name in args.files or ["-"]:
        try:
            report = _analyze_one(name, args, tol)
        except ValidationError as exc:
            print(f"bubblekit: {name}: {exc}", file=sys.stderr)
            had_validation_error = True
            continue
        sys.stdout.write(render_report(report, args.format))
        if report["decomposition"]["verdict"] == Classification.BUBBLE.value:
            saw_bubble = True
    if had_validation_error:
        return EXIT_VALIDATION
    return EXIT_BUBBLE if saw_bubble else EXIT_NO_BUBBLE


def _cmd_generate(args: argparse.Namespace) -> int:
    def need(*names: str) -> list[float]:
        missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
        if missing:
            flags = ", ".join(f"--{n}" for n in missing)
            raise ValidationError(f"generate {args.model} requires {flags}")
        return [getattr(args, n.replace("-", "_")) for n in names]

    if args.model == "money":
        (p0,) = need("P0")
        sys.stdout.write(serialize_path_csv(gen_money(p0, args.T)))
    elif args.model == "constant":
        p, d = need("P", "D")
        sys.stdout.write(serialize_path_csv(gen_constant(p, d, args.T)))
    elif args.model == "gordon":
        d0, g, r = need("D0", "g", "R")
        sys.stdout.write(serialize_path_csv(gen_gordon(d0, g, r, args.T)))
    elif args.model == "convergent-yield":
        alpha, rho = need("alpha", "rho")
        sys.stdout.write(serialize_path_csv(gen_convergent_yield(alpha, rho, args.T)))
    elif args.model == "miao-wang":
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
            name
            for name in ("marginal_q", "capital", "interpreted_component", "dividend")
            if name not in params
        ]
        if missing:
            raise ValidationError(
                "generate miao-wang requires --Q, --K, --Bmw and --D "
                f"(or a --scenario document); missing: {missing}"
            )
        sys.stdout.write(
            serialize_continuous_json(gen_miao_wang(MiaoWangScenario(**params)))
        )
    else:  # argparse choices make this unreachable
        raise ValidationError(f"unknown model {args.model!r}")
    return EXIT_NO_BUBBLE


def _cmd_check_identity(args: argparse.Namespace) -> int:
    data = _read_input(args.file)
    if data.lstrip().startswith("{"):
        tol = _resolve_tol(args.tol, fallback=1e-6)
        cpath = parse_continuous_json(data)
        lhs, rhs = deflated_price_profile(cpath, args.jump_side)
        gap = np.abs(lhs - rhs) / rhs
        result = {
            "identity": "deflated-price exponential",
            "max_relative_gap": float(np.max(gap)),
            "at_horizon": float(gap[-1]),
            "tol": tol,
        }
    else:
        tol = _resolve_tol(args.tol, fallback=1e-12)
        path = parse_path_csv(data, _resolve_tol(None))
        deflators = implied_deflators(path)
        with np.errstate(divide="ignore"):
            terms = np.exp(deflators.log_q[1:] + np.log(path.dividends[1:]))
            deflated = np.exp(deflators.log_q + np.log(path.prices))
        partials = compensated_cumsum(terms)
        price0 = float(path.prices[0])
        residuals = np.abs(price0 - partials - deflated[1:]) / price0
        result = {
            "identity": "telescoping present-value",
            "max_relative_gap": float(np.max(residuals)),
            "max_no_arbitrage_residual": float(
                np.max(no_arbitrage_residuals(path, deflators))
            ),
            "tol": tol,
        }
    passed = result["max_relative_gap"] <= tol
    result["pass"] = passed
    if args.format == "json":
        sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for key in sorted(result):
            sys.stdout.write(f"{key}: {result[key]!r}\n")
    return EXIT_NO_BUBBLE if passed else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
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
        default="right",
        help="price sample used at dividend jump times",
    )
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate", help="emit a canonical economy's path")
    generate.add_argument(
        "model",
        choices=("money", "constant", "gordon", "convergent-yield", "miao-wang"),
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
        "--jump-side", choices=("right", "left"), default="right"
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
