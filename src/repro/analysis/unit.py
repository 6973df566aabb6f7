"""The :class:`AnalysisUnit`: everything a pass needs about one checker.

A unit wraps one :class:`~repro.compiler.lower.CompiledChecker`
(whose ``fragments()`` are the blocks lint findings are attributed to)
with:

* the four :class:`PlacementView` linearizations a switch can run;
* each statement's shallow :class:`~repro.p4.ir.Effect`
  (:meth:`AnalysisUnit.effect`);
* the standalone linked program (checker + minimal L2 forwarding), which
  supplies the parser graph and the field-width map.

The checker IR is loop-free and structured, so a pass that needs
ordering walks a view's ``stmts`` with :func:`repro.p4.ir.bodies`: no
graph is built.  The width map is cached per unit; build a fresh unit
after mutating the compiled checker.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..compiler.linker import (LAST_HOP, PER_HOP, placement,
                               standalone_program)
from ..compiler.lower import CompiledChecker
from ..net.topology import CORE, EDGE
from ..p4 import ir


class PlacementView(NamedTuple):
    """One (role, check-mode) linearization of a compiled checker.

    ``stmts`` is the ingress+egress pipeline body a switch of ``role``
    executes under ``check_mode``: :func:`repro.compiler.linker.placement`'s
    phases concatenated, so the statements are the compiled fragments'
    own objects, and the guards around them the ones the linker places.
    """

    name: str
    role: str
    check_mode: str
    stmts: List[ir.P4Stmt]


def checker_placements(compiled: CompiledChecker) -> List[PlacementView]:
    """The four placements a compiled checker can execute in.

    A statement is dead only if it is dead in *every* placement that
    contains it — the lint passes quantify over this list rather than
    assuming a particular deployment.
    """
    return [PlacementView(f"{role}-{mode}", role, mode,
                          placement(compiled, role, mode).stmts())
            for role in (EDGE, CORE) for mode in (LAST_HOP, PER_HOP)]


class AnalysisUnit:
    """One compiled checker prepared for the lint passes."""

    def __init__(self, compiled: CompiledChecker):
        self.compiled = compiled
        #: The checker linked into a minimal forwarding program — parser
        #: and header-width context (placement analyses use the shared
        #: fragment statements, not this copy).
        self.program = standalone_program(compiled)
        self.placements: List[PlacementView] = checker_placements(compiled)
        self._widths: Optional[Dict[str, int]] = None

    # -- structure -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.compiled.name

    def effect(self, stmt: ir.P4Stmt) -> ir.Effect:
        """``stmt``'s shallow effect (a nested body's statements have
        their own): an apply's is :func:`repro.p4.ir.apply_effect` under
        its table's declared default, every other statement's what
        :func:`repro.p4.ir.stmt_effect` declares."""
        if isinstance(stmt, ir.ApplyTable):
            table = self.compiled.tables[stmt.table]
            return ir.apply_effect(table, self.compiled.actions,
                                   table.default_action)
        return ir.stmt_effect(stmt)

    # -- context -------------------------------------------------------

    def field_widths(self) -> Dict[str, int]:
        """Declared width of every addressable field: the linked
        program's (:meth:`~repro.p4.ir.P4Program.fields`), the checker's
        own metadata declarations taking precedence."""
        if self._widths is None:
            widths = self.program.fields()
            widths.update((f"meta.{name}", width)
                          for name, width in self.compiled.metadata)
            self._widths = widths
        return self._widths

    def register_occurrences(self
                             ) -> Dict[str, Dict[str, List[ir.P4Stmt]]]:
        """Per register: the ``RegisterRead``/``RegisterWrite``
        statements referencing it, across fragments and action bodies,
        keyed by the fragment (or ``action:<name>``) they live in."""
        occ: Dict[str, Dict[str, List[ir.P4Stmt]]] = {
            reg.name: {} for reg in self.compiled.registers}

        def note(register: str, where: str, stmt: ir.P4Stmt) -> None:
            occ.setdefault(register, {}).setdefault(where, []).append(stmt)

        for where, stmt in self.compiled.statements():
            if isinstance(stmt, (ir.RegisterRead, ir.RegisterWrite)):
                note(stmt.register, where, stmt)
        return occ

    def applied_tables(self) -> Dict[str, List[Tuple[str, ir.ApplyTable]]]:
        """table name -> [(fragment label, apply statement)] over every
        fragment and action body."""
        applies: Dict[str, List[Tuple[str, ir.ApplyTable]]] = {}
        for where, stmt in self.compiled.statements():
            if isinstance(stmt, ir.ApplyTable):
                applies.setdefault(stmt.table, []).append((where, stmt))
        return applies


__all__ = ["AnalysisUnit", "PlacementView", "checker_placements"]
