"""bubblekit: deterministic asset-pricing decomposition and bubble tests.

Splits a sampled price/dividend path into fundamental value plus rational
bubble under the no-arbitrage recursion, checks the transversality
condition, and classifies bubble existence by the dividend-yield
criterion, in both discrete and continuous time.  Ships generators for
canonical economies and a CLI (``bubblekit``) for CSV/JSON batch analysis.
"""

__version__ = "0.1.0"

from .characterization import (
    Classification,
    TailFit,
    Verdict,
    montrucchio_discrete,
    suggest_tail,
)
from .continuous import (
    ContinuousPath,
    CumulativeDividend,
    deflated_price_profile,
    discretize,
    montrucchio_continuous,
)
from .errors import (
    ArbitrageError,
    BubblekitError,
    HorizonMismatchError,
    NonPositivePriceError,
    OutOfRangeError,
    ParameterOrderError,
    ParseError,
    StepMismatchError,
    TailUnsupportedError,
    ValidationError,
    ZeroInitialPriceError,
)
from .models import (
    MiaoWangScenario,
    gen_constant,
    gen_convergent_yield,
    gen_gordon,
    gen_miao_wang,
    gen_money,
)
from .series import (
    DEFAULT_TOL,
    EPS_BUBBLE,
    Decomposition,
    Deflators,
    DiscretePath,
    decompose,
    implied_deflators,
    no_arbitrage_residuals,
    partial_value,
)
from .tails import (
    ConstantLevels,
    ConstantYield,
    DeclaredConvergent,
    DeclaredDivergent,
    GeometricYield,
    PowerYield,
    TailClass,
    TailModel,
    ZeroDividends,
    classify_tail,
)

__all__ = [
    "__version__",
    # series
    "DEFAULT_TOL",
    "EPS_BUBBLE",
    "DiscretePath",
    "Deflators",
    "Decomposition",
    "implied_deflators",
    "no_arbitrage_residuals",
    "partial_value",
    "decompose",
    # characterization
    "Classification",
    "Verdict",
    "TailFit",
    "montrucchio_discrete",
    "suggest_tail",
    # tails
    "TailClass",
    "TailModel",
    "ConstantLevels",
    "ConstantYield",
    "GeometricYield",
    "PowerYield",
    "ZeroDividends",
    "DeclaredDivergent",
    "DeclaredConvergent",
    "classify_tail",
    # continuous
    "CumulativeDividend",
    "ContinuousPath",
    "deflated_price_profile",
    "montrucchio_continuous",
    "discretize",
    # models
    "MiaoWangScenario",
    "gen_money",
    "gen_constant",
    "gen_gordon",
    "gen_convergent_yield",
    "gen_miao_wang",
    # errors
    "BubblekitError",
    "ValidationError",
    "ZeroInitialPriceError",
    "HorizonMismatchError",
    "OutOfRangeError",
    "TailUnsupportedError",
    "NonPositivePriceError",
    "ParameterOrderError",
    "StepMismatchError",
    "ParseError",
    "ArbitrageError",
]
