"""Token definitions for the Indus lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Union

from .errors import SourceSpan


class TokenKind(enum.Enum):
    # Literals and identifiers
    IDENT = "identifier"
    INT = "integer literal"
    TRUE = "true"
    FALSE = "false"

    # Keywords — declarations and modifiers
    TELE = "tele"
    SENSOR = "sensor"
    CONTROL = "control"
    HEADER = "header"
    LOCAL = "local"

    # Keywords — types
    BIT = "bit"
    BOOL = "bool"
    SET = "set"
    DICT = "dict"

    # Keywords — statements
    IF = "if"
    ELSIF = "elsif"
    ELSE = "else"
    FOR = "for"
    IN = "in"
    PASS = "pass"
    REJECT = "reject"
    REPORT = "report"

    # Punctuation
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    AT = "@"

    # Operators
    ASSIGN = "="
    PLUS = "+"
    PLUS_ASSIGN = "+="
    MINUS = "-"
    MINUS_ASSIGN = "-="
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    TILDE = "~"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    NOT = "!"
    AND = "&&"
    OR = "||"

    EOF = "end of input"


KEYWORDS = {
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "tele": TokenKind.TELE,
    "sensor": TokenKind.SENSOR,
    "control": TokenKind.CONTROL,
    "header": TokenKind.HEADER,
    "local": TokenKind.LOCAL,
    "bit": TokenKind.BIT,
    "bool": TokenKind.BOOL,
    "set": TokenKind.SET,
    "dict": TokenKind.DICT,
    "if": TokenKind.IF,
    "elsif": TokenKind.ELSIF,
    "else": TokenKind.ELSE,
    "for": TokenKind.FOR,
    "in": TokenKind.IN,
    "pass": TokenKind.PASS,
    "reject": TokenKind.REJECT,
    "report": TokenKind.REPORT,
}


class Token(NamedTuple):
    """A single lexical token with its source span (a tuple: the lexer
    builds one per token, and a frozen dataclass costs several times as
    much to construct)."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: Union[int, None] = None  # populated for INT tokens

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
