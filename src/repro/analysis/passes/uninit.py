"""IH001 — uninitialized header/metadata field read.

Metadata half: a read whose *only* reaching definition (over every
placement the statement executes in) is the synthetic pipeline-entry
:data:`~repro.analysis.dataflow.UNINIT` site — no execution path ever
wrote the field, so the read always observes the zero-initialized
value.  Table applies count as (may-)definitions, so a field a table
action *might* load is not flagged; this keeps the rule quiet on the
intentional read-the-default patterns the compiler emits (first/last-hop
marks) while still catching fields nothing can ever write.

Header half: a read of ``hdr.<bind>.<field>`` where ``bind`` is neither
extracted by any parser state nor ever made valid with ``SetValid`` —
the read unconditionally yields 0 on this substrate.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ...p4 import ir
from ..dataflow import UNINIT
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit
from . import lint_pass

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


@lint_pass(RULE)
def uninit_read(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    seen: Set[tuple] = set()
    managed = _managed_fields(unit)

    # --- metadata: reaching definitions per placement -----------------
    # (field, stmt) is flagged if every placement containing the read
    # sees only the UNINIT definition.
    verdict: Dict[tuple, bool] = {}
    stmt_of: Dict[tuple, ir.P4Stmt] = {}
    for view in unit.placements:
        effects = unit.effects(view)
        reaching = unit.reaching(view)
        for node in view.cfg.nodes:
            if node.stmt is None:
                continue
            for use in effects[node.index].uses:
                if use in managed:
                    continue
                sites = reaching[node.index].get(use)
                if sites is None:      # not a tracked metadata field
                    continue
                key = (use, id(node.stmt))
                stmt_of[key] = node.stmt
                only_uninit = sites == frozenset({UNINIT})
                verdict[key] = verdict.get(key, True) and only_uninit
    for (use, _), always_uninit in sorted(
            verdict.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if not always_uninit:
            continue
        stmt = stmt_of[(use, _)]
        dedup = (use,)
        if dedup in seen:
            continue
        seen.add(dedup)
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
    for label, stmt in fragment_stmts:
        uses: Set[str] = set()
        for expr in ir.stmt_exprs(stmt):
            uses |= ir.expr_reads(expr)
        for use in sorted(uses):
            if not use.startswith("hdr.") or use.endswith(".$valid"):
                continue
            bind = use.split(".")[1]
            if bind in known_binds or bind in made_valid:
                continue
            if ("hdr", bind) in seen:
                continue
            seen.add(("hdr", bind))
            diags.append(Diagnostic(
                rule=RULE, severity=Severity.WARNING,
                message=f"read of {use!r}: header {bind!r} is never "
                        f"parsed and never made valid, so the read "
                        f"always yields 0",
                span=stmt.span, path=use, block=label,
                hint="bind the checker to a header the forwarding "
                     "program parses, or SetValid the header first"))
    return diags
