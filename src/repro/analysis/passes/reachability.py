"""IH003 — statement after an unconditional drop; IH007 — dead table.

``MarkToDrop`` on this substrate (as on bmv2) only sets the drop flag;
execution continues to the end of the block, so trailing statements are
not literally unreachable — register writes and digests still land.
That is precisely why IH003 is a *lint* finding and never a deletion:
the packet-visible work after the drop is wasted, and stateful work
after the drop is more often an ordering accident than intent.

IH007 flags tables the compiled checker declares but never applies from
any fragment or action body — dead configuration surface that still
costs match-action stages in the Tofino resource model.
"""

from __future__ import annotations

from typing import List, Sequence

from ...p4 import ir
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit


def _drop_sites(stmts: Sequence[ir.P4Stmt]):
    """Yield ``(drop stmt, trailing stmts)`` for every ``MarkToDrop``
    followed by more statements in the same body list, recursively."""
    for i, stmt in enumerate(stmts):
        if isinstance(stmt, ir.MarkToDrop) and i + 1 < len(stmts):
            yield stmt, stmts[i + 1:]
        for body in ir.bodies(stmt):
            yield from _drop_sites(body)


def after_drop(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    def scan(label: str, stmts: Sequence[ir.P4Stmt]) -> None:
        for drop, trailing in _drop_sites(stmts):
            nxt = trailing[0]
            what = (f"table apply of {nxt.table!r}"
                    if isinstance(nxt, ir.ApplyTable)
                    else f"{len(trailing)} statement(s)")
            span = nxt.span if nxt.span.line else drop.span
            diags.append(Diagnostic(
                rule="IH003", severity=Severity.WARNING,
                message=f"{what} after an unconditional drop in the "
                        f"same block; the packet is already marked to "
                        f"drop, so packet-visible effects are wasted "
                        f"(stateful effects still execute)",
                span=span, block=label,
                hint="move the work before the drop, or guard it on "
                     "the drop condition's complement"))

    for label, stmts in unit.compiled.fragments().items():
        scan(label, stmts)
    for name, action in unit.compiled.actions.items():
        scan(f"action:{name}", action.body)
    return diags


def dead_table(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    applied = unit.applied_tables()
    for name in unit.compiled.tables:
        if name in applied:
            continue
        diags.append(Diagnostic(
            rule="IH007", severity=Severity.WARNING,
            message=f"table {name!r} is declared but never applied by "
                    f"any pipeline fragment or action",
            path=name,
            hint="apply the table or delete it"))
    return diags
