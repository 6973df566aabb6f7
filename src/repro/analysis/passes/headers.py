"""IH005 — table key referencing a possibly-invalid header.

A match key of the form ``hdr.<bind>.<field>`` reads a header that may
not be valid at apply time unless one of three things guarantees it:

* the parser extracts ``bind`` on **every** start→accept path
  (:func:`always_extracted`);
* an earlier ``SetValid`` in the same straight-line context;
* an enclosing ``if`` whose condition carries a positive
  ``hdr.<bind>.isValid()`` conjunct.

The walk runs over the four placement views (so the validity guards the
linker synthesizes around telemetry/checker fragments count) plus raw
action bodies (which get no such guard).  Reading an invalid header
yields 0 on this substrate rather than trapping, so the finding is a
warning: the match silently degrades to matching on zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...p4 import ir
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit


def always_extracted(parser: ir.ParserSpec) -> Set[str]:
    """Header binds extracted on *every* path from the start state to
    ``accept`` — the binds a table key may reference without a validity
    guard.  Stack extracts are excluded (their depth is data-dependent).
    Computed as a forward must-analysis over the parse graph, which
    (unlike control code) may loop, so it iterates to a fixpoint."""
    states = {s.name: s for s in parser.states}
    if parser.start not in states:
        return set()

    def state_binds(state: ir.ParserState) -> Set[str]:
        return {ex.bind for ex in state.extracts
                if isinstance(ex, ir.Extract)}

    # must_in[state] = intersection over predecessors of must_out;
    # union lattice complement, so iterate to a fixpoint from TOP.
    all_binds: Set[str] = set()
    for s in parser.states:
        all_binds |= state_binds(s)
    must_in: Dict[str, Set[str]] = {name: set(all_binds) for name in states}
    must_in[parser.start] = set()
    accept_in: Optional[Set[str]] = None
    changed = True
    while changed:
        changed = False
        accept_in = None
        for name, state in states.items():
            out = must_in[name] | state_binds(state)
            for tr in state.transitions:
                target = tr.next_state
                if target == ir.ACCEPT or target == ir.REJECT_STATE:
                    if target == ir.ACCEPT:
                        accept_in = (set(out) if accept_in is None
                                     else accept_in & out)
                    continue
                if target in states and not must_in[target] <= out:
                    narrowed = must_in[target] & out
                    if narrowed != must_in[target]:
                        must_in[target] = narrowed
                        changed = True
    return accept_in if accept_in is not None else set()


def _valid_conjuncts(cond: ir.P4Expr) -> Set[str]:
    """Headers positively asserted valid by top-level ``&&`` conjuncts."""
    out: Set[str] = set()
    work = [cond]
    while work:
        expr = work.pop()
        if isinstance(expr, ir.BinExpr) and expr.op == "&&":
            work += (expr.right, expr.left)
        elif isinstance(expr, ir.ValidRef):
            out.add(expr.header)
    return out


class _KeyScan:
    """One unit's IH005 walk: the findings, in scan order, each
    (table, header) pair reported once."""

    def __init__(self, tables: Dict[str, ir.Table]):
        self.tables = tables
        self.seen: Set[Tuple[str, str]] = set()
        self.diags: List[Diagnostic] = []

    def scan(self, stmts: Sequence[ir.P4Stmt], ctx: Set[str],
             block: str) -> None:
        ctx = set(ctx)
        for stmt in stmts:
            if isinstance(stmt, ir.SetValid):
                ctx.add(stmt.header)
            elif isinstance(stmt, ir.SetInvalid):
                ctx.discard(stmt.header)
            elif isinstance(stmt, ir.IfStmt):
                self.scan(stmt.then_body,
                          ctx | _valid_conjuncts(stmt.cond), block)
                self.scan(stmt.else_body, ctx, block)
            elif isinstance(stmt, ir.ApplyTable):
                self.check_apply(stmt, ctx, block)
                self.scan(stmt.hit_body, ctx, block)
                self.scan(stmt.miss_body, ctx, block)

    def check_apply(self, site: ir.ApplyTable, ctx: Set[str],
                    block: str) -> None:
        table = self.tables.get(site.table)
        if table is None:
            return
        for key in table.keys:
            if not key.path.startswith("hdr."):
                continue
            bind = key.path.split(".")[1]
            if bind in ctx or (site.table, bind) in self.seen:
                continue
            self.seen.add((site.table, bind))
            self.diags.append(Diagnostic(
                rule="IH005", severity=Severity.WARNING,
                message=f"table {site.table!r} matches on {key.path!r} but "
                        f"header {bind!r} may be invalid here; the key "
                        f"silently reads 0 when it is",
                span=site.span, path=key.path, block=block,
                hint=f"guard the apply with hdr.{bind}.isValid(), or key "
                     f"on metadata copied out under a validity check"))


def possibly_invalid_key(unit: AnalysisUnit) -> List[Diagnostic]:
    must_valid = always_extracted(unit.program.parser)
    walk = _KeyScan(unit.compiled.tables)
    for view in unit.placements:
        walk.scan(view.stmts, must_valid, view.name)
    for name, action in unit.compiled.actions.items():
        walk.scan(action.body, must_valid, f"action:{name}")
    return walk.diags
