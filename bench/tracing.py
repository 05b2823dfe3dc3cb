"""Spans and counts around calls into bubblekit's layers.

``Tracer.install`` wraps the public functions listed in ``SPANS``.  ``cli``
and ``series`` bind names with ``from ... import``, so a wrapper replaces
every module global of the ``bubblekit`` package that refers to the wrapped
function, which is where callers look the name up.  ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) are kept in memory; the
per-layer figure of a span name is its self time: duration minus the
durations of its child spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

# (module, function) pairs wrapped in spans; the metric is "<module>.<function>_s"
SPANS = (
    ("cli", "main"),
    ("io", "parse_path_csv"),
    ("io", "serialize_path_csv"),
    ("io", "parse_continuous_json"),
    ("io", "serialize_continuous_json"),
    ("io", "build_report"),
    ("io", "render_report"),
    ("io", "parse_tail_spec"),
    ("series", "implied_deflators"),
    ("series", "decompose"),
    ("series", "partial_value"),
    ("series", "no_arbitrage_residuals"),
    ("numerics", "compensated_cumsum"),
    ("characterization", "suggest_tail"),
    ("characterization", "montrucchio_discrete"),
    ("continuous", "discretize"),
    ("continuous", "montrucchio_continuous"),
    ("continuous", "deflated_price_profile"),
    ("models", "gen_gordon"),
    ("models", "gen_miao_wang"),
)

COUNTS = (
    "io.rows_parsed",
    "io.bytes_in",
    "io.bytes_out",
    "cli.documents",
    "series.discrete_path_constructions",
    "series.partial_value_calls",
    "numerics.compensated_cumsum_elements",
    "characterization.suggest_tail_calls",
)


def span_metric(name: str) -> str:
    return "cli.main_self_s" if name == "cli.main" else f"{name}_s"


def _count(counts: Counter, name: str, args: tuple, result: Any) -> None:
    if name == "io.parse_path_csv":
        counts["io.rows_parsed"] += result.horizon + 1
    if name in ("io.parse_path_csv", "io.parse_continuous_json"):
        counts["cli.documents"] += 1
        counts["io.bytes_in"] += len(args[0])  # documents are ASCII
    elif name == "series.partial_value":
        counts["series.partial_value_calls"] += 1
    elif name == "numerics.compensated_cumsum":
        counts["numerics.compensated_cumsum_elements"] += len(args[0])
    elif name == "characterization.suggest_tail":
        counts["characterization.suggest_tail_calls"] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "bubblekit" or k.startswith("bubblekit.")]
        for mod_name, fn_name in SPANS:
            original = getattr(sys.modules[f"bubblekit.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        path_cls = sys.modules["bubblekit.series"].DiscretePath
        post_init = path_cls.__post_init__

        def counted_post_init(obj):
            self.counts["series.discrete_path_constructions"] += 1
            post_init(obj)

        self._patches.append((path_cls, "__post_init__", post_init))
        path_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans[first:]."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans[first:]):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals
