"""IH001 — uninitialized header/metadata field read.

Metadata half: a read of a ``meta.*`` field that no statement before it
writes, on any path, in every placement the read executes in — the read
always observes the zero-initialized value.  One forward walk per
placement carries the fields that may have been written so far; after a
statement with arms it is the union of what each arm's walk returns (an
empty arm falls through).  Table applies count as writes of whatever
their actions write, so a field a table action *might* load is not
flagged; this keeps the rule quiet on the intentional read-the-default
patterns the compiler emits (first/last-hop marks) while still catching
fields nothing can ever write.  A field read unwritten in several places
is reported once, at its first read in placement walk order.

Header half: a read of ``hdr.<bind>.<field>`` where ``bind`` is neither
extracted by any parser state nor ever made valid with ``SetValid`` —
the read unconditionally yields 0 on this substrate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ...p4 import ir
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit

RULE = "IH001"


def _managed_fields(unit: AnalysisUnit) -> Set[str]:
    """Compiler-managed hop-protocol fields whose zero default is read
    by design (the per-hop reject gate, hop marks, control values) —
    never IH001 candidates."""
    c = unit.compiled
    managed = {c.first_hop_meta, c.last_hop_meta, c.reject_meta,
               c.switch_id_meta}
    managed.update(name for name, _ in c.metadata
                   if name.startswith(c.meta_prefix + "ctrlval"))
    return {f"meta.{name}" for name in managed}


def _walk(unit: AnalysisUnit, stmts: Sequence[ir.P4Stmt],
          written: FrozenSet[str],
          reads: List[Tuple[str, ir.P4Stmt, bool]]) -> FrozenSet[str]:
    """Walk ``stmts`` forward from ``written`` (the fields some path may
    have written so far), appending ``(field, stmt, written before)``
    for every read in walk order; returns the fields written after."""
    for stmt in stmts:
        effect = unit.effect(stmt)
        reads.extend((use, stmt, use in written) for use in effect.uses)
        written = written.union(effect.defs)
        arms = ir.bodies(stmt)
        if arms:
            written = frozenset().union(
                *(_walk(unit, arm, written, reads) for arm in arms))
    return written


def uninit_read(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    managed = _managed_fields(unit)
    tracked = {f"meta.{name}" for name, _ in unit.compiled.metadata}

    # --- metadata: one forward walk per placement ----------------------
    # (field, stmt) is flagged if every placement containing the read
    # has it unwritten before it; keys keep walk order.
    verdict: Dict[Tuple[str, int], Tuple[ir.P4Stmt, bool]] = {}
    for view in unit.placements:
        reads: List[Tuple[str, ir.P4Stmt, bool]] = []
        _walk(unit, view.stmts, frozenset(), reads)
        for use, stmt, written in reads:
            if use not in tracked or use in managed:
                continue
            key = (use, id(stmt))
            unwritten = verdict.get(key, (stmt, True))[1] and not written
            verdict[key] = (stmt, unwritten)
    first: Dict[str, ir.P4Stmt] = {}
    for (use, _), (stmt, unwritten) in verdict.items():
        if unwritten:
            first.setdefault(use, stmt)
    for use, stmt in first.items():
        diags.append(Diagnostic(
            rule=RULE, severity=Severity.ERROR,
            message=f"read of metadata field {use!r} which no execution "
                    f"path ever writes (always the entry value 0)",
            span=stmt.span, path=use,
            hint="initialize the field before reading it, or delete the "
                 "read if the zero default is intended"))

    # --- headers: binds that can never be valid -----------------------
    known_binds = set(unit.program.bind_types())
    fragment_stmts = [(label, stmt) for label, stmts
                      in unit.compiled.fragments().items()
                      for stmt in ir.walk_stmts(stmts)]
    made_valid = {stmt.header for _, stmt in fragment_stmts
                  if isinstance(stmt, ir.SetValid)}
    reported: Set[str] = set()
    for label, stmt in fragment_stmts:
        uses: Set[str] = set()
        for expr in ir.stmt_exprs(stmt):
            uses |= ir.expr_reads(expr)
        for use in sorted(uses):
            if not use.startswith("hdr.") or use.endswith(".$valid"):
                continue
            bind = use.split(".")[1]
            if bind in known_binds or bind in made_valid or bind in reported:
                continue
            reported.add(bind)
            diags.append(Diagnostic(
                rule=RULE, severity=Severity.WARNING,
                message=f"read of {use!r}: header {bind!r} is never "
                        f"parsed and never made valid, so the read "
                        f"always yields 0",
                span=stmt.span, path=use, block=label,
                hint="bind the checker to a header the forwarding "
                     "program parses, or SetValid the header first"))
    return diags
