"""Exception hierarchy for bubblekit.

Everything raised by the library derives from :class:`BubblekitError`.
:class:`ValidationError` and its subclasses signal bad inputs (the CLI maps
them to exit code 2).
"""

from __future__ import annotations

__all__ = [
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


class BubblekitError(Exception):
    """Base class for all bubblekit errors."""


class ValidationError(BubblekitError):
    """An input violates a documented invariant or precondition."""


class ZeroInitialPriceError(ValidationError):
    """P_0 = 0: deflator construction is degenerate (log undefined)."""


class HorizonMismatchError(ValidationError):
    """A path and a deflator sequence do not share the same horizon."""


class OutOfRangeError(ValidationError):
    """A requested horizon or time lies outside the sampled range."""


class TailUnsupportedError(ValidationError):
    """The tail model admits no present-value evaluation rule."""


class NonPositivePriceError(ValidationError):
    """A strictly positive price path is required but P_t <= 0 somewhere."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"price must be strictly positive (P_{index} <= 0)")


class ParameterOrderError(ValidationError):
    """Model parameters violate a required ordering (e.g. growth >= discount)."""


class StepMismatchError(ValidationError):
    """A resampling step is not an integer multiple of the grid step."""


class ParseError(ValidationError):
    """Malformed input document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class ArbitrageError(ValidationError):
    """Externally supplied deflators fail the no-arbitrage recursion check."""
