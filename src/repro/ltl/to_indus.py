"""The Theorem 3.1 construction: compile any LTLf formula to an Indus
program.

The telemetry block populates an array ``T`` with the increasing index
sequence plus one boolean array per atomic predicate; the checker block
evaluates the first-order translation of the formula over those arrays
using for-loops (existentials become loops that OR into an accumulator,
exactly as in Section 3.3's example).  The packet is rejected iff the
formula does not hold on its trace.

Atoms are read from per-hop boolean header variables named
``atom_<name>``, which the hop context (or the forwarding program's
bindings) supplies.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..indus import HopContext, Monitor, check, parse
from ..indus.typechecker import CheckedProgram
from .ast import (And, Atom, FalseF, Formula, Next, Not, TrueF, Until,
                  atoms_of)

DEFAULT_MAX_TRACE = 8


class _IndusEmitter:
    """Generates Indus source text for one formula."""

    def __init__(self, formula: Formula, max_trace: int):
        self.formula = formula
        self.max_trace = max_trace
        self.atoms = atoms_of(formula)
        self.locals: List[str] = []
        self.counter = 0

    def fresh_bool(self) -> str:
        self.counter += 1
        name = f"r{self.counter}"
        self.locals.append(name)
        return name

    def fresh_loop_var(self) -> str:
        self.counter += 1
        return f"i{self.counter}"

    # -- formula emission ----------------------------------------------------

    def emit(self, formula: Formula, index_expr: str,
             out: List[str], depth: int) -> str:
        """Emit statements computing ``formula`` at ``index_expr``;
        returns the local holding the result."""
        pad = "  " * depth
        result = self.fresh_bool()
        if isinstance(formula, TrueF):
            out.append(f"{pad}{result} = true;")
            return result
        if isinstance(formula, FalseF):
            out.append(f"{pad}{result} = false;")
            return result
        if isinstance(formula, Atom):
            out.append(f"{pad}{result} = A_{formula.name}[{index_expr}];")
            return result
        if isinstance(formula, Not):
            inner = self.emit(formula.operand, index_expr, out, depth)
            out.append(f"{pad}{result} = !{inner};")
            return result
        if isinstance(formula, And):
            left = self.emit(formula.left, index_expr, out, depth)
            right = self.emit(formula.right, index_expr, out, depth)
            out.append(f"{pad}{result} = {left} && {right};")
            return result
        if isinstance(formula, Next):
            # exists y. succ(x, y) & phi(y)  —  y is x+1 if in range.
            out.append(f"{pad}{result} = false;")
            out.append(f"{pad}if ({index_expr} + 1 < length(T)) {{")
            inner = self.emit(formula.operand, f"{index_expr} + 1",
                              out, depth + 1)
            out.append(f"{pad}  {result} = {inner};")
            out.append(f"{pad}}}")
            return result
        if isinstance(formula, Until):
            # exists y >= x: phi2(y) & forall z in [x, y): phi1(z)
            y = self.fresh_loop_var()
            out.append(f"{pad}{result} = false;")
            out.append(f"{pad}for ({y} in T) {{")
            inner_pad = pad + "  "
            out.append(f"{inner_pad}if ({y} >= {index_expr}) {{")
            right = self.emit(formula.right, y, out, depth + 2)
            all_before = self.fresh_bool()
            out.append(f"{inner_pad}  {all_before} = true;")
            z = self.fresh_loop_var()
            out.append(f"{inner_pad}  for ({z} in T) {{")
            out.append(f"{inner_pad}    if ({z} >= {index_expr} && "
                       f"{z} < {y}) {{")
            left = self.emit(formula.left, z, out, depth + 4)
            out.append(f"{inner_pad}      {all_before} = "
                       f"{all_before} && {left};")
            out.append(f"{inner_pad}    }}")
            out.append(f"{inner_pad}  }}")
            out.append(f"{inner_pad}  {result} = {result} || "
                       f"({right} && {all_before});")
            out.append(f"{inner_pad}}}")
            out.append(f"{pad}}}")
            return result
        raise TypeError(f"unknown formula {type(formula).__name__}")

    # -- program assembly --------------------------------------------------------

    def program_source(self) -> str:
        check_body: List[str] = []
        result = self.emit(self.formula, "0", check_body, 1)
        lines: List[str] = [
            "/* Generated from LTLf formula via the Theorem 3.1 "
            "construction */",
            f"tele bit<32>[{self.max_trace}] T;",
        ]
        for atom in self.atoms:
            lines.append(f"tele bool[{self.max_trace}] A_{atom};")
            lines.append(f"header bool atom_{atom} @ meta.atom_{atom};")
        for name in self.locals:
            lines.append(f"local bool {name} = false;")
        lines.append("{ }")
        lines.append("{")
        lines.append("  T.push(length(T));")
        for atom in self.atoms:
            lines.append(f"  A_{atom}.push(atom_{atom});")
        lines.append("}")
        lines.append("{")
        lines.extend(check_body)
        lines.append(f"  if (!{result}) {{")
        lines.append("    reject;")
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def ltl_to_indus_source(formula: Formula,
                        max_trace: int = DEFAULT_MAX_TRACE) -> str:
    """Indus source text of the monitor for ``formula``."""
    return _IndusEmitter(formula, max_trace).program_source()


def ltl_to_indus(formula: Formula,
                 max_trace: int = DEFAULT_MAX_TRACE) -> CheckedProgram:
    """Parse + type-check the generated monitor."""
    return check(parse(ltl_to_indus_source(formula, max_trace)))


def monitor_accepts(formula: Formula, trace: Sequence[Set[str]],
                    max_trace: int = DEFAULT_MAX_TRACE) -> bool:
    """Theorem 3.1, leg three: run the generated Indus monitor over the
    trace (via the reference interpreter) and return its verdict.

    The packet is *accepted* (not rejected) iff the formula holds.
    """
    if not trace:
        raise ValueError("traces must be non-empty")
    if len(trace) > max_trace:
        raise ValueError(f"trace longer than the monitor's capacity "
                         f"({len(trace)} > {max_trace})")
    checked = ltl_to_indus(formula, max_trace)
    monitor = Monitor(checked)
    atoms = atoms_of(formula)
    state = monitor.new_state()
    for i, event in enumerate(trace):
        ctx = HopContext(
            headers={f"atom_{a}": (a in event) for a in atoms},
            first_hop=(i == 0),
            last_hop=(i == len(trace) - 1),
            hop_count=i,
        )
        monitor.run_hop(state, ctx)
    return not state.rejected
