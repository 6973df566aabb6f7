"""First-order translation of LTLf (Figure 5, bottom).

De Giacomo & Vardi's translation maps an LTLf formula to a first-order
formula over finite index sequences::

    [A]x          = A(x)
    [!phi]x       = ![phi]x
    [phi & psi]x  = [phi]x & [psi]x
    [X phi]x      = exists y. succ(x, y) & [phi]y
    [phi U psi]x  = exists y. x <= y <= last & [psi]y &
                    forall z. x <= z < y -> [phi]z

This module represents that FO fragment explicitly and evaluates it over
a finite interpretation, providing the middle leg of Theorem 3.1's
three-way equivalence (LTLf semantics == FO semantics == compiled-Indus
verdict), which the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set

from .ast import And, Atom, FalseF, Formula, Next, Not, TrueF, Until


class FOFormula:
    """Base class for first-order formulas over trace indices."""


@dataclass(frozen=True)
class FOAtom(FOFormula):
    """A(x) — atom ``name`` holds at the event index bound to ``var``."""

    name: str
    var: str


@dataclass(frozen=True)
class FOTrue(FOFormula):
    pass


@dataclass(frozen=True)
class FOFalse(FOFormula):
    pass


@dataclass(frozen=True)
class FONot(FOFormula):
    operand: FOFormula


@dataclass(frozen=True)
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOSucc(FOFormula):
    """succ(x, y): y = x + 1 within the trace."""

    x: str
    y: str


@dataclass(frozen=True)
class FOLe(FOFormula):
    """x <= y over indices."""

    x: str
    y: str


@dataclass(frozen=True)
class FOLt(FOFormula):
    x: str
    y: str


@dataclass(frozen=True)
class FOExists(FOFormula):
    var: str
    body: FOFormula


@dataclass(frozen=True)
class FOForAll(FOFormula):
    var: str
    body: FOFormula


def fo_or(a: FOFormula, b: FOFormula) -> FOFormula:
    return FONot(FOAnd(FONot(a), FONot(b)))


def fo_implies(a: FOFormula, b: FOFormula) -> FOFormula:
    return fo_or(FONot(a), b)


class _Translator:
    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def translate(self, formula: Formula, var: str) -> FOFormula:
        if isinstance(formula, TrueF):
            return FOTrue()
        if isinstance(formula, FalseF):
            return FOFalse()
        if isinstance(formula, Atom):
            return FOAtom(formula.name, var)
        if isinstance(formula, Not):
            return FONot(self.translate(formula.operand, var))
        if isinstance(formula, And):
            return FOAnd(self.translate(formula.left, var),
                         self.translate(formula.right, var))
        if isinstance(formula, Next):
            y = self.fresh()
            return FOExists(y, FOAnd(FOSucc(var, y),
                                     self.translate(formula.operand, y)))
        if isinstance(formula, Until):
            y = self.fresh()
            z = self.fresh()
            within = FOAnd(FOLe(var, y),
                           self.translate(formula.right, y))
            before = FOForAll(z, fo_implies(
                FOAnd(FOLe(var, z), FOLt(z, y)),
                self.translate(formula.left, z),
            ))
            return FOExists(y, FOAnd(within, before))
        raise TypeError(f"unknown formula {type(formula).__name__}")


def to_first_order(formula: Formula, var: str = "x") -> FOFormula:
    """Translate an LTLf formula to first-order logic (Figure 5)."""
    return _Translator().translate(formula, var)


def evaluate_fo(formula: FOFormula, trace: Sequence[Set[str]],
                assignment: Dict[str, int]) -> bool:
    """Evaluate an FO formula over a finite trace interpretation."""
    n = len(trace)
    if isinstance(formula, FOTrue):
        return True
    if isinstance(formula, FOFalse):
        return False
    if isinstance(formula, FOAtom):
        return formula.name in trace[assignment[formula.var]]
    if isinstance(formula, FONot):
        return not evaluate_fo(formula.operand, trace, assignment)
    if isinstance(formula, FOAnd):
        return (evaluate_fo(formula.left, trace, assignment)
                and evaluate_fo(formula.right, trace, assignment))
    if isinstance(formula, FOSucc):
        return assignment[formula.y] == assignment[formula.x] + 1
    if isinstance(formula, FOLe):
        return assignment[formula.x] <= assignment[formula.y]
    if isinstance(formula, FOLt):
        return assignment[formula.x] < assignment[formula.y]
    if isinstance(formula, FOExists):
        return any(
            evaluate_fo(formula.body, trace, {**assignment, formula.var: i})
            for i in range(n)
        )
    if isinstance(formula, FOForAll):
        return all(
            evaluate_fo(formula.body, trace, {**assignment, formula.var: i})
            for i in range(n)
        )
    raise TypeError(f"unknown FO formula {type(formula).__name__}")


def fo_holds(formula: Formula, trace: Sequence[Set[str]]) -> bool:
    """Theorem 3.1, leg two: evaluate via the first-order translation
    with the start variable bound to index 0."""
    if not trace:
        raise ValueError("FO semantics need a non-empty trace")
    fo = to_first_order(formula, "x")
    return evaluate_fo(fo, [set(e) for e in trace], {"x": 0})
