"""Render the P4 IR to P4-16 (v1model-style) source text.

The rendered text is what Table 1's "P4 Output" lines-of-code column
counts.  Rendering is faithful to the IR the behavioral model executes:
same headers, same tables, same statement structure.
"""

from __future__ import annotations

from typing import List

from . import ir


class _Writer:
    def __init__(self):
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        if text:
            self.lines.append("    " * self.depth + text)
        else:
            self.lines.append("")

    def open(self, text: str) -> None:
        self.line(text + " {")
        self.depth += 1

    def close(self, suffix: str = "") -> None:
        self.depth -= 1
        self.line("}" + suffix)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _type_name(width: int) -> str:
    return "bool" if width == 1 else f"bit<{width}>"


def format_expr(expr: ir.P4Expr) -> str:
    if isinstance(expr, ir.Const):
        return str(expr.value) if expr.width >= 32 else f"{expr.width}w{expr.value}"
    if isinstance(expr, ir.FieldRef):
        return expr.path
    if isinstance(expr, ir.ValidRef):
        return f"hdr.{expr.header}.isValid()"
    if isinstance(expr, ir.UnExpr) and expr.op in ir.UNARY_OPS:
        return ir.UNARY_OPS[expr.op].p4.format(o=format_expr(expr.operand))
    if isinstance(expr, ir.BinExpr) and expr.op in ir.BINARY_OPS:
        return ir.BINARY_OPS[expr.op].p4.format(l=format_expr(expr.left),
                                                r=format_expr(expr.right))
    raise ValueError(f"cannot format {expr!r}")


def _format_stmts(w: _Writer, stmts: List[ir.P4Stmt]) -> None:
    for stmt in stmts:
        _format_stmt(w, stmt)


def _format_stmt(w: _Writer, stmt: ir.P4Stmt) -> None:
    if isinstance(stmt, ir.AssignStmt):
        w.line(f"{stmt.dest} = {format_expr(stmt.value)};")
    elif isinstance(stmt, ir.IfStmt):
        w.open(f"if ({format_expr(stmt.cond)})")
        _format_stmts(w, stmt.then_body)
        if stmt.else_body:
            w.close(" else {")
            w.depth += 1
            _format_stmts(w, stmt.else_body)
            w.close()
        else:
            w.close()
    elif isinstance(stmt, ir.ApplyTable):
        if stmt.hit_body or stmt.miss_body:
            w.open(f"if ({stmt.table}.apply().hit)")
            _format_stmts(w, stmt.hit_body)
            if stmt.miss_body:
                w.close(" else {")
                w.depth += 1
                _format_stmts(w, stmt.miss_body)
                w.close()
            else:
                w.close()
        else:
            w.line(f"{stmt.table}.apply();")
    elif isinstance(stmt, ir.RegisterRead):
        w.line(f"{stmt.register}.read({stmt.dest}, "
               f"{format_expr(stmt.index)});")
    elif isinstance(stmt, ir.RegisterWrite):
        w.line(f"{stmt.register}.write({format_expr(stmt.index)}, "
               f"{format_expr(stmt.value)});")
    elif isinstance(stmt, ir.Digest):
        fields = ", ".join(format_expr(e) for e in stmt.fields)
        w.line(f"digest<{stmt.name}_t>(1, {{ {fields} }});")
    elif isinstance(stmt, ir.SetValid):
        w.line(f"hdr.{stmt.header}.setValid();")
    elif isinstance(stmt, ir.SetInvalid):
        w.line(f"hdr.{stmt.header}.setInvalid();")
    elif isinstance(stmt, ir.MarkToDrop):
        w.line("mark_to_drop(standard_metadata);")
    elif isinstance(stmt, ir.PopSourceRoute):
        w.line("pop_source_route();")
    elif isinstance(stmt, ir.ExternCall):
        operands = list(stmt.dests) + [format_expr(e) for e in stmt.args]
        w.line(f"{stmt.name}({', '.join(operands)});")
    else:
        raise ValueError(f"cannot format {stmt!r}")


def render(program: ir.P4Program) -> str:
    """Render ``program`` to P4-16 source text."""
    w = _Writer()
    w.line(f"// Program: {program.name} (generated)")
    w.line("#include <core.p4>")
    w.line("#include <v1model.p4>")
    w.line()

    # Header type definitions.
    for htype in program.header_types():
        w.open(f"header {htype.name}_t")
        for fdef in htype.fields:
            w.line(f"bit<{fdef.width}> {fdef.name};")
        w.close()
        w.line()

    # The headers struct, following deparse order.
    binds = program.bind_types()
    w.open("struct headers_t")
    order = program.emit_order or list(binds)
    for bind in order:
        htype = binds.get(bind)
        if htype is not None:
            w.line(f"{htype.name}_t {bind};")
    w.close()
    w.line()

    # User metadata.
    w.open("struct metadata_t")
    for name, width in program.metadata:
        w.line(f"{_type_name(width)} {name};")
    w.close()
    w.line()

    _render_parser(w, program)
    _render_pipeline(w, program, "Ingress", program.ingress)
    _render_pipeline(w, program, "Egress", program.egress)
    _render_deparser(w, program)
    return w.render()


def _render_parser(w: _Writer, program: ir.P4Program) -> None:
    w.open(f"parser {program.name}Parser(packet_in pkt, out headers_t hdr, "
           "inout metadata_t meta, inout standard_metadata_t standard_metadata)")
    for state in program.parser.states:
        w.open(f"state {state.name}" if state.name != program.parser.start
               else "state start")
        for ex in state.extracts:
            if isinstance(ex, ir.Extract):
                w.line(f"pkt.extract(hdr.{ex.bind});")
            else:
                w.line(f"pkt.extract(hdr.{ex.bind}.next);  "
                       f"// stack, max depth {ex.max_depth}")
        keyed = [t for t in state.transitions if t.field_path is not None]
        default = next((t for t in state.transitions if t.field_path is None),
                       None)
        if keyed:
            w.open(f"transition select({keyed[0].field_path})")
            for tr in keyed:
                w.line(f"{tr.value}: {tr.next_state};")
            w.line(f"default: {default.next_state if default else 'accept'};")
            w.close()
        else:
            w.line(f"transition {default.next_state if default else 'accept'};")
        w.close()
    w.close()
    w.line()


def _render_pipeline(w: _Writer, program: ir.P4Program, stage: str,
                     body: List[ir.P4Stmt]) -> None:
    w.open(f"control {program.name}{stage}(inout headers_t hdr, "
           "inout metadata_t meta, "
           "inout standard_metadata_t standard_metadata)")
    # Registers are instantiated in the control that uses them; we declare
    # all of them in ingress for simplicity of the rendered text.
    if stage == "Ingress":
        for reg in program.registers:
            w.line(f"register<bit<{reg.width}>>({reg.size}) {reg.name};")
        if program.registers:
            w.line()
    used_tables = {
        s.table for s in ir.walk_stmts(body) if isinstance(s, ir.ApplyTable)
    }
    used_actions = set()
    for tname in sorted(used_tables):
        table = program.tables[tname]
        used_actions.update(ir.apply_actions(table, program.actions,
                                             table.default_action))
    for aname in sorted(used_actions):
        action = program.actions[aname]
        params = ", ".join(f"bit<{width}> {pname}"
                           for pname, width in action.params)
        w.open(f"action {aname}({params})")
        _format_stmts(w, _strip_param_prefix(action.body))
        w.close()
        w.line()
    for tname in sorted(used_tables):
        table = program.tables[tname]
        w.open(f"table {tname}")
        w.open("key =")
        for key in table.keys:
            w.line(f"{key.path}: {key.kind.value};")
        w.close()
        w.open("actions =")
        for aname in ir.table_actions(table, program.actions):
            w.line(f"{aname};")
        w.close()
        if table.default_action:
            dname, dargs = table.default_action
            rendered = ", ".join(str(a) for a in dargs)
            w.line(f"default_action = {dname}({rendered});")
        w.line(f"size = {table.size};")
        w.close()
        w.line()
    w.open("apply")
    _format_stmts(w, body)
    w.close()
    w.close()
    w.line()


def _strip_param_prefix(stmts: List[ir.P4Stmt]) -> List[ir.P4Stmt]:
    """Render ``param.x`` as plain ``x`` inside action bodies, in every
    expression of every statement (a private copy: bodies are shared)."""

    def strip(ref: ir.FieldRef) -> ir.FieldRef:
        if ref.path.startswith("param."):
            return ir.FieldRef(ref.path[len("param."):])
        return ref

    body = ir.clone_stmts(stmts)
    for stmt in ir.walk_stmts(body):
        ir.map_exprs(stmt, lambda expr: ir.map_fields(expr, strip))
    return body


def _render_deparser(w: _Writer, program: ir.P4Program) -> None:
    w.open(f"control {program.name}Deparser(packet_out pkt, in headers_t hdr)")
    w.open("apply")
    for bind in (program.emit_order or list(program.bind_types())):
        w.line(f"pkt.emit(hdr.{bind});")
    w.close()
    w.close()


def count_loc(text: str) -> int:
    """Count non-blank, non-comment-only lines (the paper's LoC metric)."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count
