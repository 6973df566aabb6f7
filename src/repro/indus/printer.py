"""Pretty-printer for Indus ASTs.

Renders a parsed program back to canonical Indus source.  The printer
round-trips: ``parse(format_program(parse(src))) == parse(src)`` (AST
``==`` ignores source spans and inferred types), which the test suite
checks for every bundled property and for fuzz-generated programs.
"""

from __future__ import annotations

from typing import List

from . import ast
from .types import Type

# Precedence levels, for minimal parentheses, are the operator rows' own;
# ``in`` sits with the comparisons and an atom binds tighter than all.
_IN_LEVEL = ast.BinaryOp.EQ.level
_ATOM_LEVEL = ast.UnaryOp.NOT.level + 1


def format_type(ty: Type) -> str:
    return str(ty)


def format_expr(expr: ast.Expr, parent_level: int = 0) -> str:
    text, level = _expr(expr)
    if level < parent_level:
        return f"({text})"
    return text


def _expr(expr: ast.Expr):
    if isinstance(expr, ast.IntLit):
        return str(expr.value), _ATOM_LEVEL
    if isinstance(expr, ast.BoolLit):
        return ("true" if expr.value else "false"), _ATOM_LEVEL
    if isinstance(expr, ast.Var):
        return expr.name, _ATOM_LEVEL
    if isinstance(expr, ast.TupleExpr):
        inner = ", ".join(format_expr(item) for item in expr.items)
        return f"({inner})", _ATOM_LEVEL
    if isinstance(expr, ast.Unary):
        operand = format_expr(expr.operand, expr.op.level)
        return f"{expr.op.value}{operand}", expr.op.level
    if isinstance(expr, ast.Binary):
        level = expr.op.level
        left = format_expr(expr.left, level)
        # Right operand needs a strictly higher level to preserve
        # left-associativity on reparse.
        right = format_expr(expr.right, level + 1)
        return f"{left} {expr.op.value} {right}", level
    if isinstance(expr, ast.Index):
        base = format_expr(expr.base, _ATOM_LEVEL)
        return f"{base}[{format_expr(expr.index)}]", _ATOM_LEVEL
    if isinstance(expr, ast.InExpr):
        item = format_expr(expr.item, _IN_LEVEL + 1)
        container = format_expr(expr.container, _IN_LEVEL + 1)
        return f"{item} in {container}", _IN_LEVEL
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.func}({args})", _ATOM_LEVEL
    raise TypeError(f"cannot format {type(expr).__name__}")


def _format_stmt(stmt: ast.Stmt, depth: int, out: List[str]) -> None:
    pad = "  " * depth
    if isinstance(stmt, ast.Pass):
        out.append(f"{pad}pass;")
    elif isinstance(stmt, ast.Reject):
        out.append(f"{pad}reject;")
    elif isinstance(stmt, ast.Report):
        if stmt.payload is None:
            out.append(f"{pad}report;")
        else:
            out.append(f"{pad}report({format_expr(stmt.payload)});")
    elif isinstance(stmt, ast.Assign):
        out.append(f"{pad}{format_expr(stmt.target)} = "
                   f"{format_expr(stmt.value)};")
    elif isinstance(stmt, ast.AugAssign):
        out.append(f"{pad}{format_expr(stmt.target)} {stmt.op.value}= "
                   f"{format_expr(stmt.value)};")
    elif isinstance(stmt, ast.Push):
        out.append(f"{pad}{format_expr(stmt.target)}.push("
                   f"{format_expr(stmt.value)});")
    elif isinstance(stmt, ast.If):
        keyword = "if"
        for cond, body in stmt.arms:
            out.append(f"{pad}{keyword} ({format_expr(cond)}) {{")
            for inner in body:
                _format_stmt(inner, depth + 1, out)
            out.append(f"{pad}}}")
            keyword = "elsif"
        if stmt.orelse:
            out.append(f"{pad}else {{")
            for inner in stmt.orelse:
                _format_stmt(inner, depth + 1, out)
            out.append(f"{pad}}}")
    elif isinstance(stmt, ast.For):
        names = ", ".join(stmt.names)
        iters = ", ".join(format_expr(it) for it in stmt.iterables)
        out.append(f"{pad}for ({names} in {iters}) {{")
        for inner in stmt.body:
            _format_stmt(inner, depth + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"cannot format {type(stmt).__name__}")


def format_decl(decl: ast.Decl) -> str:
    text = f"{decl.kind.value} {format_type(decl.ty)} {decl.name}"
    if decl.init is not None:
        text += f" = {format_expr(decl.init)}"
    if decl.annotation is not None:
        text += f" @ {decl.annotation}"
    return text + ";"


def format_program(program: ast.Program) -> str:
    """Render a program to canonical Indus source text."""
    lines: List[str] = [format_decl(d) for d in program.decls]
    if lines:
        lines.append("")
    for _, stmts in program.blocks:
        lines.append("{")
        for stmt in stmts:
            _format_stmt(stmt, 1, lines)
        lines.append("}")
    return "\n".join(lines) + "\n"

