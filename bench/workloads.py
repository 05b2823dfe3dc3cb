"""Seeded inputs for the three benchmark workloads, and what to expect of them.

``build`` writes a workload's documents into a work directory and returns a
``Plan``: the CLI calls (``Op``) that make one round of the workload, each
carrying what ``checks`` needs to judge its output.  Expectations are the
parameters of closed-form families, never a stored copy of an earlier run.

Only the documents a workload analyses depend on ``--seed``.  The documents
that reproduce the two program faults kept in ``csv-batch`` are fixed, so
the share of failed operations is the same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

WORKLOADS = ("csv-long", "csv-batch", "continuous-mw")

# metric an op's time is added to; None marks an op that runs every round
# but is left out of every metric
GROUPS = ("analyze_s", "check_identity_s", "generate_s")

# csv-batch: per family, documents where the suggested power-yield tail
# overflows exp() and the report carries "coeff":Infinity (fault a) ...
FAULT_A_DOCS = ((0.3, 200), (0.3, 300), (0.4, 250), (0.4, 300),
                (0.45, 250), (0.45, 300), (0.5, 300), (0.55, 300))
FAULT_A_ALPHA = 0.5
# ... and generator-format convergent-yield documents whose bubble falls
# below EPS_BUBBLE * P_0, which analyze rejects with exit 1 (fault b)
FAULT_B_DOCS = ((1.0, 0.99, 500), (0.25, 0.99, 200), (0.5, 0.99, 1000), (2.0, 0.95, 400))

SIZES = {
    # csv-long periods; csv-batch documents and generate calls; continuous grid step
    "full": {"long_T": 150_000, "batch_docs": 600, "batch_gens": 120, "grid_step": 4e-4},
    "small": {"long_T": 2_000, "batch_docs": 24, "batch_gens": 8, "grid_step": 1e-3},
}
HORIZON = 100  # continuous horizon in time units; the default of generate miao-wang


@dataclass
class DiscreteDoc:
    """A discrete CSV document and the closed-form family it was drawn from."""

    path: str
    family: str  # constant | gordon | money | geometric | random
    params: dict[str, float]
    prices: list[float]
    dividends: list[float]  # D_0 = 0 first
    embedded: str | None  # the '# tail:' spec, or None
    fault: str | None = None  # "a" | "b" for the fixed fault documents


@dataclass
class ContinuousDoc:
    """A Miao-Wang style continuous document: P and d relax exponentially
    from (p0, d0) to (S, D) at ``rate``; jumps are (grid index, t, dF)."""

    path: str
    S: float
    p0: float
    D: float
    d0: float
    rate: float
    grid_step: float
    n: int
    jumps: list[tuple[int, float, float]] = field(default_factory=list)
    interpreted: float | None = None


@dataclass
class Op:
    id: str
    kind: str  # analyze | check | generate
    group: str | None
    argv: list[str]
    docs: list[Any] = field(default_factory=list)  # analyze: one per file; check: one
    gen: dict[str, Any] | None = None  # generate: model and parameters
    expect_rc: int = 0
    save: str | None = None  # prepare ops: file the output is written to


@dataclass
class Plan:
    workload: str
    ops: list[Op]
    prepare: list[Op] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        def one(op: Op) -> dict[str, Any]:
            return {"id": op.id, "group": op.group, "argv": op.argv, "save": op.save}

        return {
            "workload": self.workload,
            "prepare": [one(op) for op in self.prepare],
            "ops": [one(op) for op in self.ops],
        }


def _r(x: float) -> str:
    return repr(float(x))


def write_csv(path: Path, prices: list[float], dividends: list[float], tail: str | None) -> None:
    lines = [f"# tail: {tail}"] if tail else []
    lines.append("t,P,D")
    lines.append(f"0,{prices[0]!r},")
    lines.extend(f"{t},{prices[t]!r},{dividends[t]!r}" for t in range(1, len(prices)))
    path.write_text("\n".join(lines) + "\n")


def family_path(family: str, params: dict[str, float], T: int) -> tuple[list[float], list[float], str]:
    """Prices, dividends (D_0 = 0) and tail spec of one closed-form family."""
    if family == "constant":
        P, D = params["P"], params["D"]
        return [P] * (T + 1), [0.0] + [D] * T, f"constant-levels:P={P!r},D={D!r}"
    if family == "gordon":
        D0, g, R = params["D0"], params["g"], params["R"]
        prices = [D0 * g ** (t + 1) / (R - g) for t in range(T + 1)]
        dividends = [0.0] + [D0 * g**t for t in range(1, T + 1)]
        return prices, dividends, f"constant-yield:c={(R - g) / g!r}"
    if family == "money":
        P = params["P"]
        return [P] * (T + 1), [0.0] * (T + 1), "zero-dividends"
    if family == "geometric":
        a, rho = params["alpha"], params["rho"]
        dividends = [0.0] + [a * rho**t for t in range(1, T + 1)]
        return [1.0] * (T + 1), dividends, f"geometric-yield:a={a!r},rho={rho!r}"
    raise ValueError(f"unknown family {family!r}")


def draw_family(family: str, rng: np.random.Generator) -> dict[str, float]:
    """Seeded parameters, in ranges where every document analyses cleanly."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if family == "constant":
        P = u(10.0, 200.0)
        return {"P": P, "D": P * u(0.005, 0.1)}
    if family == "gordon":
        g = u(1.0, 1.03)
        return {"D0": u(0.5, 2.0), "g": g, "R": g + u(0.01, 0.08)}
    if family == "money":
        return {"P": u(0.5, 100.0)}
    # rho >= 0.75 keeps the power-yield fit intercept below ~360 (exp
    # overflows past 709, fault a) and alpha * rho / (1 - rho) <= 9.5
    # keeps the bubble above EPS_BUBBLE * P_0 (fault b); the fixed fault
    # documents cover both faults on purpose
    return {"alpha": u(0.05, 0.5), "rho": u(0.75, 0.95)}


FAMILIES = ("constant", "gordon", "money", "geometric")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def build(workload: str, seed: int, root: Path, workdir: Path, size: str = "full") -> Plan:
    """Write the workload's inputs under ``workdir`` and return its plan.

    Paths in the plan are relative to ``root``, the directory the program
    calls run in.
    """
    sizes = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, workload)
    rel = lambda p: str(p.relative_to(root))  # noqa: E731
    if workload == "csv-long":
        return _build_long(rng, sizes, workdir, rel)
    if workload == "csv-batch":
        return _build_batch(rng, sizes, workdir, rel)
    if workload == "continuous-mw":
        return _build_continuous(rng, sizes, workdir, rel)
    raise ValueError(f"unknown workload {workload!r}")


def _build_long(rng, sizes, workdir, rel) -> Plan:
    T = sizes["long_T"]
    p0 = float(rng.uniform(20.0, 200.0))
    steps = rng.normal(0.0, 0.01, T)
    prices = (p0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))).tolist()
    yields = rng.uniform(1e-5, 1e-4, T + 1)
    dividends = [0.0] + [prices[t] * float(yields[t]) for t in range(1, T + 1)]
    path = workdir / "long.csv"
    write_csv(path, prices, dividends, "declared-divergent")
    doc = DiscreteDoc(rel(path), "random", {}, prices, dividends, "declared-divergent")
    g = float(rng.uniform(1.000001, 1.00001))
    gen = {"model": "gordon", "T": T, "D0": float(rng.uniform(0.5, 2.0)), "g": g,
           "R": g + float(rng.uniform(1e-5, 1e-4))}
    return Plan("csv-long", [
        Op("analyze", "analyze", "analyze_s", ["analyze", doc.path], docs=[doc]),
        Op("check", "check", "check_identity_s", ["check-identity", doc.path], docs=[doc]),
        Op("generate", "generate", "generate_s", generate_argv(gen), gen=gen),
    ])


def generate_argv(gen: dict[str, Any]) -> list[str]:
    model = gen["model"]
    flags = {
        "money": ("P0",),
        "constant": ("P", "D"),
        "gordon": ("D0", "g", "R"),
        "convergent-yield": ("alpha", "rho"),
    }[model]
    argv = ["generate", model, "--T", str(gen["T"])]
    for name in flags:
        argv += [f"--{name}", _r(gen[name])]
    return argv


def batch_length(i: int) -> int:
    """Periods of the i-th batch document, 20 to 300.  It does not depend on
    the seed, so every seed does the same amount of work."""
    return 20 + (i * 97) % 281


def _build_batch(rng, sizes, workdir, rel) -> Plan:
    docs: list[DiscreteDoc] = []
    for i in range(sizes["batch_docs"]):
        family = FAMILIES[i % 4]
        params = draw_family(family, rng)
        T = batch_length(i)
        prices, dividends, spec = family_path(family, params, T)
        embedded = spec if (i // 4) % 2 == 0 else None
        path = workdir / f"doc{i:04d}.csv"
        write_csv(path, prices, dividends, embedded)
        docs.append(DiscreteDoc(rel(path), family, params, prices, dividends, embedded))
    for j, (rho, T) in enumerate(FAULT_A_DOCS):
        params = {"alpha": FAULT_A_ALPHA, "rho": rho}
        prices, dividends, spec = family_path("geometric", params, T)
        embedded = spec if j % 2 == 0 else None
        path = workdir / f"fault-a{j}.csv"
        write_csv(path, prices, dividends, embedded)
        docs.append(DiscreteDoc(rel(path), "geometric", params, prices, dividends, embedded, "a"))
    analyze_argv = ["analyze", "--accept-suggested-tail"] + [d.path for d in docs]
    ops = [Op("analyze", "analyze", "analyze_s", analyze_argv, docs=docs, expect_rc=10)]
    ops += [Op(f"check{i:04d}", "check", "check_identity_s", ["check-identity", d.path], docs=[d])
            for i, d in enumerate(docs)]
    models = ("money", "constant", "gordon", "convergent-yield")
    for i in range(sizes["batch_gens"]):
        model = models[i % 4]
        family = {"convergent-yield": "geometric"}.get(model, model)
        params = draw_family(family, rng)
        gen = {"model": model, "T": batch_length(i)}
        if model == "money":
            gen["P0"] = params["P"]
        else:
            gen.update(params)
        ops.append(Op(f"gen{i:03d}", "generate", "generate_s", generate_argv(gen), gen=gen))
    for j, (alpha, rho, T) in enumerate(FAULT_B_DOCS):
        params = {"alpha": alpha, "rho": rho}
        prices, dividends, spec = family_path("geometric", params, T)
        path = workdir / f"fault-b{j}.csv"
        write_csv(path, prices, dividends, spec)
        doc = DiscreteDoc(rel(path), "geometric", params, prices, dividends, spec, "b")
        # one call per document: an internal error ends a multi-file call
        ops.append(Op(f"fault-b{j}", "analyze", None,
                      ["analyze", "--accept-suggested-tail", doc.path], docs=[doc], expect_rc=10))
    return Plan("csv-batch", ops)


def relaxation(S: float, p0: float, rate: float, t: np.ndarray) -> np.ndarray:
    return S + (p0 - S) * np.exp(-rate * t)


def _build_continuous(rng, sizes, workdir, rel) -> Plan:
    h = sizes["grid_step"]
    n = int(round(HORIZON / h))
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    # document A: emitted by `generate miao-wang` in the prepare step
    Q, K, Bmw, D, rate = u(0.5, 2.0), u(1.0, 4.0), u(0.0, 1.0), u(0.05, 0.5), u(0.5, 2.0)
    S = Q * K + Bmw
    gen = {"model": "miao-wang", "Q": Q, "K": K, "Bmw": Bmw, "D": D, "rate": rate, "grid_step": h}
    path_a = workdir / "mw-generated.json"
    doc_a = ContinuousDoc(rel(path_a), S, S / 2.0, D, D / 2.0, rate, h, n, interpreted=Bmw)
    gen_argv = ["generate", "miao-wang", "--Q", _r(Q), "--K", _r(K), "--Bmw", _r(Bmw),
                "--D", _r(D), "--rate", _r(rate), "--grid-step", _r(h)]
    # document B: written here, with dividend jumps, one per quarter of the grid
    S2, D2, rate2 = u(1.0, 5.0), u(0.05, 0.5), u(0.5, 2.0)
    p02, d02 = S2 * u(0.3, 0.9), D2 * u(0.2, 1.5)
    t = np.arange(n + 1, dtype=np.float64) * h
    prices = relaxation(S2, p02, rate2, t)
    density = relaxation(D2, d02, rate2, t)
    jumps = []
    for q in range(4):
        lo, hi = q * n // 4 + n // 100, (q + 1) * n // 4 - n // 100
        k = int(rng.integers(lo, hi))
        jumps.append((k, k * h, float(prices[k]) * u(0.005, 0.05)))
    path_b = workdir / "mw-jumps.json"
    obj = {
        "grid_step": h,
        "horizon": n * h,
        "prices": prices.tolist(),
        "density": density.tolist(),
        "jumps": [{"t": tj, "dF": dF} for _, tj, dF in jumps],
        "tail": {"kind": "constant-yield", "level": D2 / S2},
    }
    path_b.write_text(json.dumps(obj) + "\n")
    doc_b = ContinuousDoc(rel(path_b), S2, p02, D2, d02, rate2, h, n, jumps=jumps)
    docs = [doc_a, doc_b]
    prepare = [Op("prepare", "generate", None, gen_argv, gen=gen, save=doc_a.path)]
    ops = [
        Op("analyze", "analyze", "analyze_s", ["analyze", doc_a.path, doc_b.path], docs=docs),
        Op("check-a", "check", "check_identity_s", ["check-identity", doc_a.path], docs=[doc_a]),
        Op("check-b", "check", "check_identity_s", ["check-identity", doc_b.path], docs=[doc_b]),
        Op("generate", "generate", "generate_s", gen_argv, gen=dict(gen, doc=doc_a)),
    ]
    return Plan("continuous-mw", ops, prepare)

