"""Error types and source locations for the Indus language toolchain.

Every front-end error (lexing, parsing, type checking) carries a
:class:`SourceSpan` so that diagnostics can point at the offending text,
mirroring the error reporting a production compiler would provide.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceSpan(NamedTuple):
    """A half-open region of source text, used for diagnostics.

    Lines and columns are 1-based, matching how editors display positions.
    A tuple, like :class:`~repro.indus.tokens.Token`: every token has one.
    """

    line: int = 0
    column: int = 0
    end_line: int = 0
    end_column: int = 0

    def __str__(self) -> str:
        if self.line == 0:
            return "<unknown>"
        return f"{self.line}:{self.column}"

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Return the smallest span covering both ``self`` and ``other``."""
        if self.line == 0:
            return other
        if other.line == 0:
            return self
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column), (other.end_line, other.end_column))
        return SourceSpan(start[0], start[1], end[0], end[1])


UNKNOWN_SPAN = SourceSpan()


class IndusError(Exception):
    """Base class for all errors raised by the Indus toolchain."""

    def __init__(self, message: str, span: SourceSpan = UNKNOWN_SPAN):
        super().__init__(f"{span}: {message}" if span.line else message)
        self.message = message
        self.span = span


class LexError(IndusError):
    """Raised when the lexer encounters malformed input."""


class ParseError(IndusError):
    """Raised when the parser cannot build an AST from the token stream."""


class IndusTypeError(IndusError):
    """Raised by the type checker (prefixed so as not to shadow the
    builtin :class:`TypeError`)."""


class EvalError(IndusError):
    """Raised by the reference interpreter on a runtime fault.

    A well-typed Indus program should never raise this; it guards against
    host-side misuse (e.g. binding a header variable to a wrong-width value).
    """


class CompileError(IndusError):
    """Raised by the Indus-to-P4 compiler when a construct cannot be lowered."""
