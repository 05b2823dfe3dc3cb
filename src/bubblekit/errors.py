"""The library's two exception types, one per exit code of the CLI.

Every refusal of bad input raises :class:`ValidationError`, which the CLI
maps to exit code 2; its message is what tells one refusal from another.
:class:`ParseError` is the ``ValidationError`` of a malformed document: it
carries the document's 1-based ``line`` when one is to blame, and names it
in its message.
"""

from __future__ import annotations

__all__ = ["ValidationError", "ParseError"]


class ValidationError(Exception):
    """An input violates a documented invariant or precondition."""


class ParseError(ValidationError):
    """Malformed input document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
