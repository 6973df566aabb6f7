"""Lexer for the Indus language: one compiled regular expression.

The lexer converts Indus source text into a list of :class:`Token` values.
It supports C-style block comments (``/* ... */``), line comments
(``// ...``), decimal, hexadecimal (``0x``) and binary (``0b``) integer
literals, and the full operator set from Figure 4 of the paper plus the
prototype extensions (``+=``, ``-=``, ``%``, shifts).

The lexical grammar is ASCII: an identifier is ``[A-Za-z_][A-Za-z0-9_]*``
and any character no rule accepts raises :class:`LexError` at its own
line and column.  Every alternative of the master pattern but the line
comment is one named group; ``finditer`` walks the source with a
catch-all last alternative, so consecutive matches tile it, and the
line and the offset it starts at advance only as whitespace and block
comments pass a newline.
"""

from __future__ import annotations

import re
import string
from typing import List

from .errors import LexError, SourceSpan
from .tokens import KEYWORDS, Token, TokenKind

#: Punctuation and operators by their text (every kind whose value is
#: not a word).
_OPERATORS = {kind.value: kind for kind in TokenKind
              if not kind.value[0].isalpha()}

# Alternatives are tried in order, so two-character operators come
# before their one-character prefixes (maximal munch) and a terminated
# block comment before the bare opener that reports it unterminated.
_SCAN = re.compile(
    r"(?P<space>[ \t\r\n]+)|//[^\n]*|(?P<comment>/\*.*?\*/)|(?P<open>/\*)"
    r"|(?P<int>0[xX][0-9a-fA-F_]*|0[bB][01_]*|\d[\d_]*)"
    r"|(?P<word>[A-Za-z_]\w*)"
    "|(?P<op>" + "|".join(map(re.escape, sorted(_OPERATORS, key=len,
                                                  reverse=True))) + ")"
    r"|(?P<bad>.)",
    re.ASCII | re.DOTALL)

_BASES = {"0x": 16, "0b": 2}
_LETTERS = frozenset(string.ascii_letters)


def _integer(source: str, text: str, end: int, span: SourceSpan) -> int:
    """The value of literal ``text`` (ending at offset ``end``): it
    needs a digit after its prefix and no letter right after it."""
    base = _BASES.get(text[:2].lower(), 10)
    body = (text if base == 10 else text[2:]).replace("_", "")
    if not body:
        raise LexError(f"malformed integer literal {text!r}", span)
    if source[end:end + 1] in _LETTERS:
        raise LexError(
            f"invalid character {source[end]!r} after integer literal", span)
    return int(body, base)


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line, start = 1, 0  # the current line and the offset it starts at
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        if group == "space" or group == "comment":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                start = match.start() + text.rindex("\n") + 1
            continue
        if group is None:  # a line comment
            continue
        text = match.group()
        begin, end = match.span()
        span = SourceSpan(line, begin - start + 1, line, end - start + 1)
        if group == "word":
            append(Token(KEYWORDS.get(text, TokenKind.IDENT), text, span))
        elif group == "op":
            append(Token(_OPERATORS[text], text, span))
        elif group == "int":
            append(Token(TokenKind.INT, text, span,
                         _integer(source, text, end, span)))
        elif group == "open":  # the span runs to the end of the input
            raise LexError("unterminated block comment", span._replace(
                end_line=line + source.count("\n", begin),
                end_column=len(source) - source.rfind("\n")))
        else:
            raise LexError(f"unexpected character {text!r}", span)
    column = len(source) - start + 1
    append(Token(TokenKind.EOF, "", SourceSpan(line, column, line, column)))
    return tokens
