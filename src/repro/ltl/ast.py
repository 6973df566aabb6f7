"""LTLf (linear temporal logic over finite traces) — syntax and parser.

Core connectives follow Figure 5 of the paper: atoms, negation,
conjunction, next (``X``), and until (``U``).  The usual derived forms
are provided as constructors that expand into the core (disjunction,
implication, eventually ``F``, always ``G``, weak next, release).

Concrete syntax accepted by :func:`parse_formula`::

    G !(a & X (F a))        # no topological loop through a
    a U (b & X c)
    true, false             # constants
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class Formula:
    """Base class for LTLf formulas (immutable)."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Next(Formula):
    """Strong next: requires a successor event."""

    operand: Formula

    def __str__(self) -> str:
        return f"X({self.operand})"


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


# --------------------------------------------------------------------------
# Derived forms (expanded into the core)
# --------------------------------------------------------------------------

def Or(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return Or(Not(left), right)


def Eventually(operand: Formula) -> Formula:  # noqa: N802
    """F φ  ≡  true U φ"""
    return Until(TrueF(), operand)


def Always(operand: Formula) -> Formula:  # noqa: N802
    """G φ  ≡  ¬F¬φ"""
    return Not(Eventually(Not(operand)))


def WeakNext(operand: Formula) -> Formula:  # noqa: N802
    """Weak next: holds at the last event (no successor required)."""
    return Not(Next(Not(operand)))


def atoms_of(formula: Formula) -> List[str]:
    """Atom names appearing in a formula, in first-occurrence order."""
    out: List[str] = []
    work = [formula]
    while work:
        f = work.pop()
        if isinstance(f, Atom):
            if f.name not in out:
                out.append(f.name)
        elif isinstance(f, (Not, Next)):
            work.append(f.operand)
        elif isinstance(f, (And, Until)):
            work += (f.right, f.left)
    return out


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class LtlParseError(ValueError):
    pass


class _FormulaParser:
    """Precedence: unary (! X F G) > U > & > | > ->  (U right-assoc)."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens: List[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif text.startswith("->", i):
                tokens.append("->")
                i += 2
            elif ch in "!&|()":
                tokens.append(ch)
                i += 1
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise LtlParseError(f"unexpected character {ch!r}")
        tokens.append("<eof>")
        return tokens

    def _peek(self) -> str:
        return self.tokens[self.pos]

    def _next(self) -> str:
        token = self.tokens[self.pos]
        if token != "<eof>":
            self.pos += 1
        return token

    def parse(self) -> Formula:
        formula = self._implies()
        if self._peek() != "<eof>":
            raise LtlParseError(f"unexpected token {self._peek()!r}")
        return formula

    def _implies(self) -> Formula:
        left = self._or()
        if self._peek() == "->":
            self._next()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self._peek() == "|":
            self._next()
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._until()
        while self._peek() == "&":
            self._next()
            left = And(left, self._until())
        return left

    def _until(self) -> Formula:
        left = self._unary()
        if self._peek() == "U":
            self._next()
            return Until(left, self._until())
        return left

    def _unary(self) -> Formula:
        token = self._peek()
        if token == "!":
            self._next()
            return Not(self._unary())
        if token == "X":
            self._next()
            return Next(self._unary())
        if token == "F":
            self._next()
            return Eventually(self._unary())
        if token == "G":
            self._next()
            return Always(self._unary())
        if token == "WX":
            self._next()
            return WeakNext(self._unary())
        if token == "(":
            self._next()
            inner = self._implies()
            if self._next() != ")":
                raise LtlParseError("missing ')'")
            return inner
        if token == "true":
            self._next()
            return TrueF()
        if token == "false":
            self._next()
            return FalseF()
        if token not in ("<eof>", ")", "&", "|", "U", "->"):
            self._next()
            return Atom(token)
        raise LtlParseError(f"expected a formula, found {token!r}")


def parse_formula(text: str) -> Formula:
    """Parse an LTLf formula from text."""
    return _FormulaParser(text).parse()
