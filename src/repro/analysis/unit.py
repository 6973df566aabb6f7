"""The :class:`AnalysisUnit`: everything a pass needs about one checker.

A unit wraps one :class:`~repro.compiler.lower.CompiledChecker`
(whose ``fragments()`` are the blocks lint findings are attributed to)
with:

* the four :class:`~repro.analysis.cfg.PlacementView` linearizations and
  their per-node :class:`~repro.p4.ir.Effect`;
* lazily solved liveness and reaching-definitions facts per placement;
* the standalone linked program (checker + minimal L2 forwarding), which
  supplies the parser graph and the field-width map.

Facts are cached per unit; build a fresh unit after mutating the
compiled checker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..compiler.lower import CompiledChecker
from ..p4 import ir
from .cfg import PlacementView, checker_placements
from .dataflow import cfg_effects, liveness, reaching_definitions


class AnalysisUnit:
    """One compiled checker prepared for the lint passes."""

    def __init__(self, compiled: CompiledChecker,
                 program: Optional[ir.P4Program] = None):
        self.compiled = compiled
        if program is None:
            from ..compiler.linker import standalone_program
            program = standalone_program(compiled)
        #: The checker linked into a minimal forwarding program — parser
        #: and header-width context (placement analyses use the shared
        #: fragment statements, not this copy).
        self.program = program
        self.placements: List[PlacementView] = checker_placements(compiled)
        self._effects: Dict[int, Dict[int, ir.Effect]] = {}
        self._liveness: Dict[int, Tuple[Dict[int, FrozenSet[str]],
                                        Dict[int, FrozenSet[str]]]] = {}
        self._reaching: Dict[int, Dict[int, Dict[str, FrozenSet[int]]]] = {}
        self._widths: Optional[Dict[str, int]] = None

    # -- structure -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.compiled.name

    # -- solved facts (cached per placement) ---------------------------

    def effects(self, view: PlacementView) -> Dict[int, ir.Effect]:
        key = id(view)
        if key not in self._effects:
            self._effects[key] = cfg_effects(
                view.cfg, self.compiled.tables, self.compiled.actions)
        return self._effects[key]

    def liveness(self, view: PlacementView
                 ) -> Tuple[Dict[int, FrozenSet[str]],
                            Dict[int, FrozenSet[str]]]:
        key = id(view)
        if key not in self._liveness:
            self._liveness[key] = liveness(view.cfg, self.effects(view))
        return self._liveness[key]

    def reaching(self, view: PlacementView
                 ) -> Dict[int, Dict[str, FrozenSet[int]]]:
        key = id(view)
        if key not in self._reaching:
            fields = [f"meta.{name}" for name, _ in self.compiled.metadata]
            self._reaching[key] = reaching_definitions(
                view.cfg, self.effects(view), fields)
        return self._reaching[key]

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


__all__ = ["AnalysisUnit"]
