"""bubblekit: deterministic asset-pricing decomposition and bubble tests.

Splits a sampled price/dividend path into fundamental value plus rational
bubble under the no-arbitrage recursion, checks the transversality
condition, and classifies bubble existence by the dividend-yield
criterion, in both discrete and continuous time.  Ships generators for
canonical economies and a CLI (``bubblekit``) for CSV/JSON batch analysis.

The package exports each module's ``__all__``: that list is where a public
name is declared, and the only place.
"""

__version__ = "0.1.0"

from . import characterization, continuous, errors, models, series, tails
from .characterization import *
from .continuous import *
from .errors import *
from .models import *
from .series import *
from .tails import *

__all__ = ["__version__"] + [
    name
    for module in (series, characterization, tails, continuous, models, errors)
    for name in module.__all__
]
