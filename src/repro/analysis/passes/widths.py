"""IH006 — width truncation in assignments and arithmetic.

Two shapes are flagged, both warnings (the bmv2 reference semantics
mask deterministically, so truncation is well-defined — just usually
unintended):

* an ``AssignStmt`` whose value is provably wider than the declared
  width of the destination field;
* an arithmetic/bitwise ``BinExpr`` whose declared result width is
  narrower than its widest operand — the interpreter masks the result
  to ``expr.width`` bits, silently discarding high bits.

Width inference is conservative: constants contribute the minimal
width of their *value* (``Const(1, 32)`` flowing into a 1-bit field is
not a truncation), field references their declared width, comparisons
and logical operators 1 bit, masked arithmetic its declared result
width (the mask guarantees the fit), ``min``/``max`` the wider operand.
Unknown widths (action parameters, undeclared paths) disable the check
for that expression rather than guessing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...p4 import ir
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit


def expr_width(expr: ir.P4Expr,
               widths: Dict[str, int]) -> Optional[int]:
    """Inferred value width of ``expr``; ``None`` when unknown."""
    if isinstance(expr, ir.Const):
        return max(1, expr.value.bit_length())
    if isinstance(expr, ir.FieldRef):
        return widths.get(expr.path)
    if isinstance(expr, ir.ValidRef):
        return 1
    if isinstance(expr, (ir.UnExpr, ir.BinExpr)):
        width = ir.result_width(expr)
        if width is not None:
            return width
        # min/max: unmasked, bounded by the wider operand.
        left = expr_width(expr.left, widths)
        right = expr_width(expr.right, widths)
        if left is None or right is None:
            return None
        return max(left, right)
    return None


def width_truncation(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    widths = unit.field_widths()
    seen: Set[Tuple] = set()

    def emit(key: Tuple, diag: Diagnostic) -> None:
        if key in seen:
            return
        seen.add(key)
        diags.append(diag)

    def check_expr(expr: ir.P4Expr, block: str,
                   fallback: ir.P4Stmt) -> None:
        for node in ir.walk_exprs(expr):
            op = (ir.BINARY_OPS.get(node.op)
                  if isinstance(node, ir.BinExpr) else None)
            if op is None or op.result != ir.MASKED:
                continue
            left = expr_width(node.left, widths)
            right = expr_width(node.right, widths)
            if left is None or right is None:
                continue
            operand_width = max(left, right)
            if node.width >= operand_width:
                continue
            span = node.span if node.span.line else fallback.span
            emit((block, node.op, node.width, operand_width,
                  span.line, span.column), Diagnostic(
                rule="IH006", severity=Severity.WARNING,
                message=f"{node.width}-bit {node.op!r} over "
                        f"{operand_width}-bit operand(s); the result "
                        f"is masked to {node.width} bits, discarding "
                        f"high bits",
                span=span, block=block,
                hint=f"widen the expression to {operand_width} bits "
                     f"or mask the operands explicitly"))

    def check_stmt(stmt: ir.P4Stmt, block: str) -> None:
        for expr in ir.stmt_exprs(stmt):
            check_expr(expr, block, stmt)
        if isinstance(stmt, ir.AssignStmt):
            dest_width = widths.get(stmt.dest)
            value_width = expr_width(stmt.value, widths)
            if (dest_width is not None and value_width is not None
                    and value_width > dest_width):
                emit((block, stmt.dest, dest_width, value_width,
                      stmt.span.line, stmt.span.column), Diagnostic(
                    rule="IH006", severity=Severity.WARNING,
                    message=f"assignment truncates a {value_width}-bit "
                            f"value into the {dest_width}-bit field "
                            f"{stmt.dest!r}",
                    span=stmt.span, path=stmt.dest, block=block,
                    hint=f"declare {stmt.dest!r} at least "
                         f"{value_width} bits wide, or reduce the "
                         f"value's range first"))

    for where, stmt in unit.compiled.statements():
        check_stmt(stmt, where)
    return diags
