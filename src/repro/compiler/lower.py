"""Lowering (code generation): Indus programs to P4 IR.

Implements the translation strategies of Section 4.1:

* ``header`` variables — resolved through their ``@`` annotation or a
  binding map supplied at compile time (the forwarding program's names);
* ``tele`` variables — fields of the generated Hydra telemetry header;
* ``sensor`` variables — P4 registers, read/written via scratch metadata;
* ``control`` variables — match-action tables.  Scalars get a table whose
  default action loads the value at pipeline start; dictionary (and set)
  lookups get a fresh table placed immediately before the statement that
  contains the lookup;
* lists and loops — arrays are unrolled into per-slot fields (the header
  stack view) and ``for`` loops into guarded straight-line code; the
  ``in`` operator expands to a validity-guarded comparison chain.

Every generated artifact (telemetry header, metadata fields, tables,
actions, digests) is namespaced per checker, so multiple compiled
checkers can be linked into the same forwarding program — the "all
checkers enabled" configuration of the paper's Figure 12.  Each checker
in a multi-checker deployment gets its own telemetry header and
EtherType; the headers chain via their ``next_eth_type`` fields.

The output is a :class:`CompiledChecker` whose statement blocks the
linker places into a forwarding program (init at the top of ingress on
first-hop switches, telemetry in egress everywhere, checker at the end
of egress on last-hop switches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..indus import ast
from ..indus.errors import CompileError, SourceSpan
from ..indus.interp import _eval_const
from ..indus.parser import parse
from ..indus.typechecker import CheckedProgram, check
from ..indus.types import (ArrayType, BitType, BoolType, DictType, SetType,
                           TupleType, width_of)
from ..net.packet import ETH_TYPE_HYDRA
from ..p4 import ir
from .layout import (HOP_COUNT_FIELD, HydraLayout, NEXT_ETH_TYPE_FIELD,
                     build_layout, scalar_width)

# Header variables without an explicit annotation fall back to these
# bindings (names the paper's examples use), which any forwarding
# program written against our substrate satisfies.
DEFAULT_BINDINGS: Dict[str, str] = {
    "in_port": "standard_metadata.ingress_port",
    "ingress_port": "standard_metadata.ingress_port",
    "eg_port": "standard_metadata.egress_port",
    "egress_port": "standard_metadata.egress_port",
    "ipv4_src": "hdr.ipv4.src_addr",
    "ipv4_dst": "hdr.ipv4.dst_addr",
    "ipv4_proto": "hdr.ipv4.protocol",
    "ipv4_ttl": "hdr.ipv4.ttl",
    "vlan_id": "hdr.vlan.vid",
    "udp_sport": "hdr.udp.src_port",
    "udp_dport": "hdr.udp.dst_port",
    "tcp_sport": "hdr.tcp.src_port",
    "tcp_dport": "hdr.tcp.dst_port",
}

# Annotations of the form "<bind>_is_valid" read header validity.
VALID_SUFFIX = "_is_valid"


def _tag_expr(expr: ir.P4Expr, span: SourceSpan) -> ir.P4Expr:
    """Stamp provenance onto a lowered expression (frozen dataclass, so
    the write reaches around immutability).  Only fills in unknown spans:
    sub-expressions tagged during their own translation keep the more
    precise location."""
    if span.line and not expr.span.line:
        object.__setattr__(expr, "span", span)
    return expr


def _tag_stmt(stmt: ir.P4Stmt, span: SourceSpan) -> ir.P4Stmt:
    """Stamp provenance onto a lowered statement and its nested bodies.
    Statements already tagged (from a deeper translation) are left
    alone, so the innermost Indus statement wins."""
    if not span.line:
        return stmt
    if not stmt.span.line:
        stmt.span = span
    for body in ir.bodies(stmt):
        for inner in body:
            _tag_stmt(inner, span)
    return stmt


@dataclass
class ReportSite:
    """One report statement in the source: its digest layout."""

    site_id: int
    block: str
    field_widths: List[int] = field(default_factory=list)
    has_payload: bool = False


@dataclass
class CompiledChecker:
    """The compiler's output for one Indus program.

    All generated names derive from ``namespace`` (empty for a single
    checker), so several checkers can coexist in one linked program.
    """

    name: str
    checked: CheckedProgram
    layout: HydraLayout
    namespace: str = ""
    eth_type: int = ETH_TYPE_HYDRA
    metadata: List[Tuple[str, int]] = field(default_factory=list)
    registers: List[ir.RegisterDef] = field(default_factory=list)
    actions: Dict[str, ir.Action] = field(default_factory=dict)
    tables: Dict[str, ir.Table] = field(default_factory=dict)
    # Pipeline fragments, in placement order.
    ingress_prologue: List[ir.P4Stmt] = field(default_factory=list)
    init_stmts: List[ir.P4Stmt] = field(default_factory=list)
    egress_prologue: List[ir.P4Stmt] = field(default_factory=list)
    tele_stmts: List[ir.P4Stmt] = field(default_factory=list)
    check_stmts: List[ir.P4Stmt] = field(default_factory=list)
    strip_stmts: List[ir.P4Stmt] = field(default_factory=list)
    # Control-variable routing for the deployment runtime:
    #   indus name -> generated table names (a dict/set may have several
    #   lookup-site tables; scalars have one per pipeline).
    control_tables: Dict[str, List[str]] = field(default_factory=dict)
    control_value_widths: Dict[str, List[int]] = field(default_factory=dict)
    report_sites: Dict[int, ReportSite] = field(default_factory=dict)

    # -- derived names -------------------------------------------------------

    @property
    def meta_prefix(self) -> str:
        return f"ih_{self.namespace}_" if self.namespace else "ih_"

    @property
    def hydra_name(self) -> str:
        return self.layout.header.name

    @property
    def first_hop_meta(self) -> str:
        return self.meta_prefix + "first_hop"

    @property
    def last_hop_meta(self) -> str:
        return self.meta_prefix + "last_hop"

    @property
    def reject_meta(self) -> str:
        return self.meta_prefix + "reject"

    @property
    def switch_id_meta(self) -> str:
        return self.meta_prefix + "switch_id"

    @property
    def inject_table(self) -> str:
        return self.meta_prefix + "inject_tbl"

    @property
    def strip_table(self) -> str:
        return self.meta_prefix + "strip_tbl"

    @property
    def switch_id_table(self) -> str:
        return self.meta_prefix + "switch_id_tbl"

    @property
    def report_digest(self) -> str:
        return self.meta_prefix + "report"

    @property
    def mark_first_action(self) -> str:
        return self.meta_prefix + "mark_first_hop"

    @property
    def mark_last_action(self) -> str:
        return self.meta_prefix + "mark_last_hop"

    @property
    def set_switch_id_action(self) -> str:
        return self.meta_prefix + "set_switch_id"

    @property
    def hydra_header(self):
        return self.layout.header

    # -- shape ---------------------------------------------------------------

    def fragments(self) -> Dict[str, List[ir.P4Stmt]]:
        """Fragment label -> its statement list, in placement order (the
        blocks lint findings are attributed to)."""
        return {"ingress_prologue": self.ingress_prologue,
                "init": self.init_stmts,
                "egress_prologue": self.egress_prologue,
                "telemetry": self.tele_stmts,
                "checker": self.check_stmts,
                "strip": self.strip_stmts}

    def statements(self) -> Iterator[Tuple[str, ir.P4Stmt]]:
        """``(where, stmt)`` over every fragment and action body, nested
        statements included; ``where`` is the fragment label or
        ``action:<name>``."""
        for label, stmts in self.fragments().items():
            for stmt in ir.walk_stmts(stmts):
                yield label, stmt
        for name, action in self.actions.items():
            for stmt in ir.walk_stmts(action.body):
                yield f"action:{name}", stmt

    def dict_hit_action(self, control_name: str, table_name: str) -> str:
        site = table_name.rsplit("tbl", 1)[-1]
        return f"{self.meta_prefix}{control_name}_set{site}"

    def set_hit_action(self, control_name: str, table_name: str) -> str:
        site = table_name.rsplit("tbl", 1)[-1]
        return f"{self.meta_prefix}{control_name}_hit{site}"

    def scalar_load_action(self, control_name: str, table_name: str) -> str:
        pipe = table_name.rsplit("_", 1)[-1]
        return f"{self.meta_prefix}load_{control_name}_{pipe}"


class IndusCompiler:
    """Translate one checked Indus program into a :class:`CompiledChecker`."""

    def __init__(self, checked: CheckedProgram, name: str = "checker",
                 bindings: Optional[Dict[str, str]] = None,
                 namespace: str = "", eth_type: int = ETH_TYPE_HYDRA):
        self.checked = checked
        self.program = checked.program
        self.name = name
        self.bindings = dict(DEFAULT_BINDINGS)
        self.bindings.update(bindings or {})
        header_name = f"hydra_{namespace}" if namespace else "hydra"
        self.layout = build_layout(checked, header_name=header_name)
        self.out = CompiledChecker(name=name, checked=checked,
                                   layout=self.layout, namespace=namespace,
                                   eth_type=eth_type)
        self.p = self.out.meta_prefix  # prefix for all generated names
        self._meta_fields: Dict[str, int] = {}
        self._loop_env: Dict[str, ir.P4Expr] = {}
        self._site_counter = 0
        self._report_counter = 0
        self._current_block = ""
        # Statement buffer the expression translator appends preludes to.
        self._pending: List[ir.P4Stmt] = []

    # ==================================================================
    # Entry point
    # ==================================================================

    def compile(self) -> CompiledChecker:
        self._declare_core_metadata()
        self._declare_sensors()
        self._declare_scalar_controls()
        self._build_hop_tables()

        self._current_block = "init"
        # Both the header injection and the translated init block run
        # only on the packet's first hop into the network.
        init_body = self._inject_body() + \
            self._translate_body(self.program.init_block)
        self.out.init_stmts = [ir.IfStmt(
            cond=ir.BinExpr("==", ir.FieldRef(f"meta.{self.out.first_hop_meta}"),
                            ir.Const(1, 1)),
            then_body=init_body,
        )]
        self._current_block = "telemetry"
        tele = self._translate_body(self.program.tele_block)
        if self.layout.uses_hop_count:
            hop = f"hdr.{self.out.hydra_name}.{HOP_COUNT_FIELD}"
            tele.insert(0, ir.AssignStmt(
                hop, ir.BinExpr("+", ir.FieldRef(hop), ir.Const(1, 8), 8)))
        self.out.tele_stmts = tele
        self._current_block = "checker"
        self.out.check_stmts = self._translate_body(self.program.check_block)
        self.out.strip_stmts = self._strip_stmts()

        self.out.metadata = list(self._meta_fields.items())
        return self.out

    # ==================================================================
    # Declarations
    # ==================================================================

    def _meta(self, name: str, width: int) -> str:
        """Allocate (or reuse) a metadata scratch field; returns its path."""
        existing = self._meta_fields.get(name)
        if existing is not None and existing != width:
            raise CompileError(
                f"metadata field {name!r} redeclared with width {width} "
                f"(was {existing})"
            )
        self._meta_fields[name] = width
        return f"meta.{name}"

    def _declare_core_metadata(self) -> None:
        self._meta(self.out.first_hop_meta, 1)
        self._meta(self.out.last_hop_meta, 1)
        self._meta(self.out.reject_meta, 1)
        if "switch_id" in self.checked.used_builtins:
            self._meta(self.out.switch_id_meta, 32)

    def _declare_sensors(self) -> None:
        for decl in self.program.decls_of_kind(ast.VarKind.SENSOR):
            if isinstance(decl.ty, (BitType, BoolType)):
                width = scalar_width(decl.ty)
                self.out.registers.append(
                    ir.RegisterDef(f"{self.p}reg_{decl.name}", width, 1)
                )
                self._meta(f"{self.p}sens_{decl.name}", width)
            elif isinstance(decl.ty, ArrayType) and \
                    isinstance(decl.ty.element, (BitType, BoolType)):
                # Sensor arrays: one register bank for the slots plus a
                # one-cell register holding the push cursor.
                elem_width = scalar_width(decl.ty.element)
                self.out.registers.append(
                    ir.RegisterDef(f"{self.p}reg_{decl.name}", elem_width,
                                   decl.ty.capacity)
                )
                self.out.registers.append(
                    ir.RegisterDef(f"{self.p}reg_{decl.name}_cnt", 8, 1)
                )
            else:
                raise CompileError(
                    f"sensor {decl.name!r}: only scalars and arrays of "
                    "scalars map to registers",
                    decl.span,
                )

    def _sensor_array_decl(self, name: str):
        """The declaration of a sensor array, or None."""
        decl = self.program.decl(name)
        if decl is not None and decl.kind is ast.VarKind.SENSOR and \
                isinstance(decl.ty, ArrayType):
            return decl
        return None

    def _sensor_count_read(self, name: str) -> ir.P4Expr:
        """Read a sensor array's cursor into fresh scratch metadata."""
        self._site_counter += 1
        scratch = self._meta(f"{self.p}scnt_{name}_{self._site_counter}", 8)
        self._pending.append(ir.RegisterRead(
            scratch, f"{self.p}reg_{name}_cnt", ir.Const(0, 32)))
        return ir.FieldRef(scratch)

    def _declare_scalar_controls(self) -> None:
        """Scalar control variables: one value-loading table per pipeline.

        Per the paper, a non-dictionary control variable is initialized by
        the default action of a table executed at the start of the
        pipeline.  The value lands in metadata, so both ingress and egress
        blocks need their own loader table.
        """
        for decl in self.program.decls_of_kind(ast.VarKind.CONTROL):
            if isinstance(decl.ty, (DictType, SetType)):
                self.out.control_tables.setdefault(decl.name, [])
                continue
            width = scalar_width(decl.ty)
            meta_path = self._meta(f"{self.p}ctrlval_{decl.name}", width)
            tables = []
            for pipe in ("ig", "eg"):
                action = ir.Action(
                    name=f"{self.p}load_{decl.name}_{pipe}",
                    params=[("value", width)],
                    body=[ir.AssignStmt(meta_path, ir.FieldRef("param.value"))],
                )
                self.out.actions[action.name] = action
                table = ir.Table(
                    name=f"{self.p}ctrl_{decl.name}_{pipe}",
                    keys=[],
                    actions=[action.name],
                    default_action=(action.name, [0]),
                    size=1,
                )
                self.out.tables[table.name] = table
                tables.append(table.name)
            self.out.control_tables[decl.name] = tables
            self.out.control_value_widths[decl.name] = [width]
            self.out.ingress_prologue.append(ir.ApplyTable(tables[0]))
            self.out.egress_prologue.append(ir.ApplyTable(tables[1]))

    def _build_hop_tables(self) -> None:
        """First/last-hop detection + switch id tables (edge switches)."""
        mark_first = ir.Action(
            name=self.out.mark_first_action, params=[],
            body=[ir.AssignStmt(f"meta.{self.out.first_hop_meta}",
                                ir.Const(1, 1))],
        )
        mark_last = ir.Action(
            name=self.out.mark_last_action, params=[],
            body=[ir.AssignStmt(f"meta.{self.out.last_hop_meta}",
                                ir.Const(1, 1))],
        )
        self.out.actions[mark_first.name] = mark_first
        self.out.actions[mark_last.name] = mark_last
        self.out.tables[self.out.inject_table] = ir.Table(
            name=self.out.inject_table,
            keys=[ir.TableKey("standard_metadata.ingress_port",
                              ir.MatchKind.EXACT)],
            actions=[mark_first.name],
            default_action=None,
            size=64,
        )
        self.out.tables[self.out.strip_table] = ir.Table(
            name=self.out.strip_table,
            keys=[ir.TableKey("standard_metadata.egress_port",
                              ir.MatchKind.EXACT)],
            actions=[mark_last.name],
            default_action=None,
            size=64,
        )
        self.out.ingress_prologue.append(ir.ApplyTable(self.out.inject_table))
        self.out.egress_prologue.append(ir.ApplyTable(self.out.strip_table))
        if "switch_id" in self.checked.used_builtins:
            set_id = ir.Action(
                name=self.out.set_switch_id_action, params=[("value", 32)],
                body=[ir.AssignStmt(f"meta.{self.out.switch_id_meta}",
                                    ir.FieldRef("param.value"))],
            )
            self.out.actions[set_id.name] = set_id
            self.out.tables[self.out.switch_id_table] = ir.Table(
                name=self.out.switch_id_table, keys=[], actions=[set_id.name],
                default_action=(set_id.name, [0]), size=1,
            )
            self.out.ingress_prologue.append(
                ir.ApplyTable(self.out.switch_id_table))
            self.out.egress_prologue.append(
                ir.ApplyTable(self.out.switch_id_table))

    # ==================================================================
    # Inject / strip
    # ==================================================================

    def _inject_body(self) -> List[ir.P4Stmt]:
        """First hop: make the hydra header valid and set tele defaults."""
        hydra = self.out.hydra_name
        body: List[ir.P4Stmt] = [
            ir.SetValid(hydra),
            ir.AssignStmt(f"hdr.{hydra}.{NEXT_ETH_TYPE_FIELD}",
                          ir.FieldRef("hdr.ethernet.eth_type")),
            ir.AssignStmt("hdr.ethernet.eth_type",
                          ir.Const(self.out.eth_type, 16)),
        ]
        if self.layout.uses_hop_count:
            body.append(ir.AssignStmt(f"hdr.{hydra}.{HOP_COUNT_FIELD}",
                                      ir.Const(0, 8)))
        for decl in self.program.decls_of_kind(ast.VarKind.TELE):
            if isinstance(decl.ty, (BitType, BoolType)):
                value = 0
                if decl.init is not None:
                    value = int(_eval_const(decl.init))
                width = scalar_width(decl.ty)
                body.append(ir.AssignStmt(
                    self.layout.field_path(decl.name),
                    ir.Const(value & ((1 << width) - 1), width),
                ))
            elif isinstance(decl.ty, ArrayType):
                entry = self.layout.array(decl.name)
                body.append(ir.AssignStmt(
                    self.layout.count_path(decl.name), ir.Const(0, 8)))
                for i in range(entry.capacity):
                    body.append(ir.AssignStmt(
                        self.layout.valid_path(decl.name, i), ir.Const(0, 1)))
                    body.append(ir.AssignStmt(
                        self.layout.slot_path(decl.name, i),
                        ir.Const(0, entry.elem_width)))
        return body

    def _strip_stmts(self) -> List[ir.P4Stmt]:
        """Last hop: restore the EtherType, drop the telemetry header,
        and enforce the reject verdict."""
        hydra = self.out.hydra_name
        return [
            ir.AssignStmt("hdr.ethernet.eth_type",
                          ir.FieldRef(f"hdr.{hydra}.{NEXT_ETH_TYPE_FIELD}")),
            ir.SetInvalid(hydra),
            ir.IfStmt(
                cond=ir.BinExpr("==",
                                ir.FieldRef(f"meta.{self.out.reject_meta}"),
                                ir.Const(1, 1)),
                then_body=[ir.MarkToDrop()],
            ),
        ]

    # ==================================================================
    # Statement translation
    # ==================================================================

    def _translate_body(self, stmts: List[ast.Stmt]) -> List[ir.P4Stmt]:
        out: List[ir.P4Stmt] = []
        for stmt in stmts:
            saved_pending = self._pending
            self._pending = []
            translated = self._stmt(stmt)
            # Table applies / register reads required by this statement's
            # expressions land immediately before it (Section 4.1); they
            # inherit the statement's source span.
            for emitted in self._pending:
                _tag_stmt(emitted, stmt.span)
            for emitted in translated:
                _tag_stmt(emitted, stmt.span)
            out.extend(self._pending)
            out.extend(translated)
            self._pending = saved_pending
        return out

    def _stmt(self, stmt: ast.Stmt) -> List[ir.P4Stmt]:
        if isinstance(stmt, ast.Pass):
            return []
        if isinstance(stmt, ast.Reject):
            return [ir.AssignStmt(f"meta.{self.out.reject_meta}",
                                  ir.Const(1, 1))]
        if isinstance(stmt, ast.Report):
            return self._stmt_report(stmt)
        if isinstance(stmt, ast.Assign):
            return self._stmt_assign(stmt.target, self._expr(stmt.value))
        if isinstance(stmt, ast.AugAssign):
            current = self._expr(stmt.target)
            value = ir.BinExpr(stmt.op.value, current, self._expr(stmt.value),
                               width_of(stmt.target.ty))
            return self._stmt_assign(stmt.target, value)
        if isinstance(stmt, ast.Push):
            return self._stmt_push(stmt)
        if isinstance(stmt, ast.If):
            return self._stmt_if(stmt)
        if isinstance(stmt, ast.For):
            return self._stmt_for(stmt)
        raise CompileError(f"cannot compile {type(stmt).__name__}", stmt.span)

    def _stmt_report(self, stmt: ast.Report) -> List[ir.P4Stmt]:
        self._report_counter += 1
        site = ReportSite(site_id=self._report_counter,
                          block=self._current_block)
        fields: List[ir.P4Expr] = [ir.Const(site.site_id, 32)]
        if stmt.payload is not None:
            site.has_payload = True
            for expr, width in self._flatten(stmt.payload):
                fields.append(expr)
                site.field_widths.append(width)
        self.out.report_sites[site.site_id] = site
        return [ir.Digest(self.out.report_digest, fields)]

    def _flatten(self, expr: ast.Expr) -> List[Tuple[ir.P4Expr, int]]:
        """Flatten a (possibly tuple) expression into scalar P4 exprs."""
        if isinstance(expr, ast.TupleExpr):
            out: List[Tuple[ir.P4Expr, int]] = []
            for item in expr.items:
                out.extend(self._flatten(item))
            return out
        ty = expr.ty
        if isinstance(ty, TupleType):
            raise CompileError(
                "tuple-valued variables cannot be flattened for reporting",
                expr.span,
            )
        width = scalar_width(ty) if ty is not None else 32
        return [(self._expr(expr), width)]

    def _stmt_assign(self, target: ast.Expr,
                     value: ir.P4Expr) -> List[ir.P4Stmt]:
        if isinstance(target, ast.Var):
            return self._assign_var(target.name, value)
        if isinstance(target, ast.Index):
            return self._assign_slot(target, value)
        raise CompileError("invalid assignment target", target.span)

    def _assign_var(self, name: str, value: ir.P4Expr) -> List[ir.P4Stmt]:
        decl = self.program.decl(name)
        if decl is None:
            raise CompileError(f"undeclared variable {name!r}")
        if decl.kind is ast.VarKind.TELE:
            return [ir.AssignStmt(self.layout.field_path(name), value)]
        if decl.kind is ast.VarKind.LOCAL:
            width = scalar_width(decl.ty)
            path = self._meta(f"{self.p}loc_{name}", width)
            return [ir.AssignStmt(path, value)]
        if decl.kind is ast.VarKind.SENSOR:
            scratch = f"meta.{self.p}sens_{name}"
            return [
                ir.AssignStmt(scratch, value),
                ir.RegisterWrite(f"{self.p}reg_{name}", ir.Const(0, 32),
                                 ir.FieldRef(scratch)),
            ]
        raise CompileError(f"{decl.kind.value} variable {name!r} is read-only")

    def _assign_slot(self, target: ast.Index,
                     value: ir.P4Expr) -> List[ir.P4Stmt]:
        if not isinstance(target.base, ast.Var):
            raise CompileError("nested array targets are not supported",
                               target.span)
        name = target.base.name
        sensor_decl = self._sensor_array_decl(name)
        if sensor_decl is not None:
            capacity = sensor_decl.ty.capacity
            index = self._expr(target.index)
            count = self._sensor_count_read(name)
            new_count = ir.BinExpr(
                "max", count, ir.BinExpr("+", index, ir.Const(1, 8), 8), 8)
            return [ir.IfStmt(
                cond=ir.BinExpr("<", index, ir.Const(capacity, 32)),
                then_body=[
                    ir.RegisterWrite(f"{self.p}reg_{name}", index, value),
                    ir.RegisterWrite(f"{self.p}reg_{name}_cnt",
                                     ir.Const(0, 32), new_count),
                ],
            )]
        decl = self.program.decl(name)
        if decl is None or decl.kind is not ast.VarKind.TELE or \
                not isinstance(decl.ty, ArrayType):
            raise CompileError(
                "indexed assignment requires a tele or sensor array",
                target.span,
            )
        entry = self.layout.array(name)
        count = ir.FieldRef(self.layout.count_path(name))
        if isinstance(target.index, ast.IntLit):
            i = target.index.value
            if i >= entry.capacity:
                return []  # out-of-range writes are dropped
            return [
                ir.AssignStmt(self.layout.slot_path(name, i), value),
                ir.AssignStmt(self.layout.valid_path(name, i), ir.Const(1, 1)),
                ir.AssignStmt(self.layout.count_path(name),
                              ir.BinExpr("max", count, ir.Const(i + 1, 8), 8)),
            ]
        index = self._expr(target.index)
        out: List[ir.P4Stmt] = []
        for i in range(entry.capacity):
            out.append(ir.IfStmt(
                cond=ir.BinExpr("==", index, ir.Const(i, 32)),
                then_body=[
                    ir.AssignStmt(self.layout.slot_path(name, i), value),
                    ir.AssignStmt(self.layout.valid_path(name, i),
                                  ir.Const(1, 1)),
                    ir.AssignStmt(self.layout.count_path(name),
                                  ir.BinExpr("max", count,
                                             ir.Const(i + 1, 8), 8)),
                ],
            ))
        return out

    def _stmt_push(self, stmt: ast.Push) -> List[ir.P4Stmt]:
        if not isinstance(stmt.target, ast.Var):
            raise CompileError("push target must be a named array",
                               stmt.span)
        name = stmt.target.name
        sensor_decl = self._sensor_array_decl(name)
        if sensor_decl is not None:
            return self._sensor_push(name, sensor_decl, stmt)
        decl = self.program.decl(name)
        if decl is None or decl.kind is not ast.VarKind.TELE:
            raise CompileError(
                "push is only supported on tele and sensor arrays by the "
                "P4 backend",
                stmt.span,
            )
        entry = self.layout.array(name)
        value = self._expr(stmt.value)
        count_path = self.layout.count_path(name)
        # Unrolled saturating append: an if/elsif chain over the cursor.
        chain: List[ir.P4Stmt] = []
        for i in reversed(range(entry.capacity)):
            inner: List[ir.P4Stmt] = [
                ir.AssignStmt(self.layout.slot_path(name, i), value),
                ir.AssignStmt(self.layout.valid_path(name, i), ir.Const(1, 1)),
                ir.AssignStmt(count_path, ir.Const(i + 1, 8)),
            ]
            chain = [ir.IfStmt(
                cond=ir.BinExpr("==", ir.FieldRef(count_path),
                                ir.Const(i, 8)),
                then_body=inner,
                else_body=chain,
            )]
        return chain

    def _sensor_push(self, name: str, decl: ast.Decl,
                     stmt: ast.Push) -> List[ir.P4Stmt]:
        """Saturating append to a sensor array's register bank."""
        capacity = decl.ty.capacity
        value = self._expr(stmt.value)
        count = self._sensor_count_read(name)
        bump = ir.BinExpr("+", count, ir.Const(1, 8), 8)
        return [ir.IfStmt(
            cond=ir.BinExpr("<", count, ir.Const(capacity, 8)),
            then_body=[
                ir.RegisterWrite(f"{self.p}reg_{name}", count, value),
                ir.RegisterWrite(f"{self.p}reg_{name}_cnt",
                                 ir.Const(0, 32), bump),
            ],
        )]

    def _stmt_if(self, stmt: ast.If) -> List[ir.P4Stmt]:
        result: List[ir.P4Stmt] = []
        tip = result
        for cond, body in stmt.arms:
            cond_expr = self._expr(cond)
            node = ir.IfStmt(cond=cond_expr,
                             then_body=self._translate_body(body))
            tip.append(node)
            tip = node.else_body
        for translated in self._translate_body(stmt.orelse):
            tip.append(translated)
        return result

    def _stmt_for(self, stmt: ast.For) -> List[ir.P4Stmt]:
        arrays: List[str] = []
        kinds: List[str] = []  # "tele" or "sensor"
        capacity: Optional[int] = None
        for iterable in stmt.iterables:
            if not isinstance(iterable, ast.Var):
                raise CompileError(
                    "for loops over expressions are not supported by the "
                    "P4 backend; iterate over a named array",
                    iterable.span,
                )
            name = iterable.name
            sensor_decl = self._sensor_array_decl(name)
            if sensor_decl is not None:
                arrays.append(name)
                kinds.append("sensor")
                capacity = sensor_decl.ty.capacity
                continue
            decl = self.program.decl(name)
            if decl is None or not isinstance(decl.ty, ArrayType) or \
                    decl.kind is not ast.VarKind.TELE:
                raise CompileError(
                    "for loops can only iterate over tele and sensor "
                    "arrays in the P4 backend",
                    iterable.span,
                )
            arrays.append(name)
            kinds.append("tele")
            capacity = self.layout.array(name).capacity
        assert capacity is not None
        # Cursor reads for sensor arrays happen once, before the
        # unrolled iterations.
        counts: Dict[str, ir.P4Expr] = {}
        for name, kind in zip(arrays, kinds):
            if kind == "sensor" and name not in counts:
                counts[name] = self._sensor_count_read(name)
        out: List[ir.P4Stmt] = []
        for i in range(capacity):
            guard: Optional[ir.P4Expr] = None
            slot_refs: Dict[str, ir.P4Expr] = {}
            prelude: List[ir.P4Stmt] = []
            for name, kind in zip(arrays, kinds):
                if kind == "tele":
                    term: ir.P4Expr = ir.BinExpr(
                        "==", ir.FieldRef(self.layout.valid_path(name, i)),
                        ir.Const(1, 1),
                    )
                    slot_refs[name] = ir.FieldRef(
                        self.layout.slot_path(name, i))
                else:
                    term = ir.BinExpr("<", ir.Const(i, 8), counts[name])
                    decl = self._sensor_array_decl(name)
                    elem_width = scalar_width(decl.ty.element)
                    self._site_counter += 1
                    scratch = self._meta(
                        f"{self.p}sarr_{name}_{self._site_counter}",
                        elem_width)
                    prelude.append(ir.RegisterRead(
                        scratch, f"{self.p}reg_{name}", ir.Const(i, 32)))
                    slot_refs[name] = ir.FieldRef(scratch)
                guard = term if guard is None else \
                    ir.BinExpr("&&", guard, term)
            saved = dict(self._loop_env)
            for var_name, array_name in zip(stmt.names, arrays):
                self._loop_env[var_name] = slot_refs[array_name]
            try:
                body = self._translate_body(stmt.body)
            finally:
                self._loop_env = saved
            assert guard is not None
            out.append(ir.IfStmt(cond=guard, then_body=prelude + body))
        return out

    # ==================================================================
    # Expression translation
    # ==================================================================

    def _expr(self, expr: ast.Expr) -> ir.P4Expr:
        return _tag_expr(self._expr_lowered(expr), expr.span)

    def _expr_lowered(self, expr: ast.Expr) -> ir.P4Expr:
        if isinstance(expr, ast.IntLit):
            return ir.Const(expr.value, width_of(expr.ty))
        if isinstance(expr, ast.BoolLit):
            return ir.Const(1 if expr.value else 0, 1)
        if isinstance(expr, ast.Var):
            return self._expr_var(expr)
        if isinstance(expr, ast.Unary):
            op = expr.op.value
            width = width_of(expr.ty)
            operand = self._expr(expr.operand)
            if op == "-":
                return ir.BinExpr("-", ir.Const(0, width), operand, width)
            if op == "~":
                return ir.UnExpr(op, operand, width)
            return ir.UnExpr(op, operand)  # '!' is width-free (boolean)
        if isinstance(expr, ast.Binary):
            return self._expr_binary(expr)
        if isinstance(expr, ast.Index):
            return self._expr_index(expr)
        if isinstance(expr, ast.InExpr):
            return self._expr_in(expr)
        if isinstance(expr, ast.Call):
            return self._expr_call(expr)
        if isinstance(expr, ast.TupleExpr):
            raise CompileError(
                "tuple expressions are only allowed as dictionary keys and "
                "report payloads",
                expr.span,
            )
        raise CompileError(f"cannot compile {type(expr).__name__}", expr.span)

    def _expr_var(self, expr: ast.Var) -> ir.P4Expr:
        name = expr.name
        if name in self._loop_env:
            return self._loop_env[name]
        decl = self.program.decl(name)
        if decl is None:
            return self._expr_builtin(name, expr)
        kind = decl.kind
        if kind is ast.VarKind.TELE:
            if isinstance(decl.ty, ArrayType):
                raise CompileError(
                    f"array {name!r} cannot be used as a scalar", expr.span
                )
            return ir.FieldRef(self.layout.field_path(name))
        if kind is ast.VarKind.LOCAL:
            width = scalar_width(decl.ty)
            return ir.FieldRef(self._meta(f"{self.p}loc_{name}", width))
        if kind is ast.VarKind.SENSOR:
            scratch = f"meta.{self.p}sens_{name}"
            self._pending.append(
                ir.RegisterRead(scratch, f"{self.p}reg_{name}",
                                ir.Const(0, 32))
            )
            return ir.FieldRef(scratch)
        if kind is ast.VarKind.CONTROL:
            if isinstance(decl.ty, (DictType, SetType)):
                raise CompileError(
                    f"control {name!r} must be used via lookup or 'in'",
                    expr.span,
                )
            return ir.FieldRef(f"meta.{self.p}ctrlval_{name}")
        if kind is ast.VarKind.HEADER:
            return self._expr_header(decl, expr)
        raise CompileError(f"cannot read {name!r}", expr.span)

    def _expr_builtin(self, name: str, expr: ast.Expr) -> ir.P4Expr:
        if name == "first_hop":
            return ir.BinExpr("==",
                              ir.FieldRef(f"meta.{self.out.first_hop_meta}"),
                              ir.Const(1, 1))
        if name == "last_hop":
            return ir.BinExpr("==",
                              ir.FieldRef(f"meta.{self.out.last_hop_meta}"),
                              ir.Const(1, 1))
        if name == "packet_length":
            return ir.FieldRef("standard_metadata.packet_length")
        if name == "hop_count":
            return ir.FieldRef(f"hdr.{self.out.hydra_name}.{HOP_COUNT_FIELD}")
        if name == "switch_id":
            return ir.FieldRef(f"meta.{self.out.switch_id_meta}")
        raise CompileError(f"undeclared variable {name!r}", expr.span)

    def _expr_header(self, decl: ast.Decl, expr: ast.Var) -> ir.P4Expr:
        binding = decl.annotation or self.bindings.get(decl.name)
        if binding is None:
            raise CompileError(
                f"header variable {decl.name!r} has no @ annotation and no "
                "default binding; supply one via the compiler's bindings map",
                expr.span,
            )
        # "<bind>_is_valid" exposes header validity as a bool.
        if binding.endswith(VALID_SUFFIX):
            return ir.ValidRef(binding[: -len(VALID_SUFFIX)])
        if not binding.startswith(("hdr.", "meta.", "standard_metadata.")):
            binding = "hdr." + binding
        return ir.FieldRef(binding)

    def _expr_binary(self, expr: ast.Binary) -> ir.P4Expr:
        op = expr.op
        left_ty = expr.left.ty
        # Tuple equality flattens into a conjunction.
        if op in (ast.BinaryOp.EQ, ast.BinaryOp.NEQ) and \
                isinstance(left_ty, TupleType):
            lefts = self._flatten(expr.left)
            rights = self._flatten(expr.right)
            conj: Optional[ir.P4Expr] = None
            for (le, _), (re, _) in zip(lefts, rights):
                term = ir.BinExpr("==", le, re)
                conj = term if conj is None else ir.BinExpr("&&", conj, term)
            assert conj is not None
            return ir.UnExpr("!", conj) if op is ast.BinaryOp.NEQ else conj
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        return ir.BinExpr(op.value, left, right, width_of(expr.ty))

    def _expr_index(self, expr: ast.Index) -> ir.P4Expr:
        base_ty = expr.base.ty
        if isinstance(base_ty, DictType):
            return self._dict_lookup(expr)
        if isinstance(base_ty, ArrayType):
            return self._array_read(expr)
        raise CompileError(f"cannot index {base_ty}", expr.span)

    def _array_read(self, expr: ast.Index) -> ir.P4Expr:
        if not isinstance(expr.base, ast.Var):
            raise CompileError("nested array reads are not supported",
                               expr.span)
        name = expr.base.name
        sensor_decl = self._sensor_array_decl(name)
        if sensor_decl is not None:
            # Registers support dynamic indexing natively.
            elem_width = scalar_width(sensor_decl.ty.element)
            self._site_counter += 1
            scratch = self._meta(
                f"{self.p}sarr_{name}_{self._site_counter}", elem_width)
            self._pending.append(ir.RegisterRead(
                scratch, f"{self.p}reg_{name}", self._expr(expr.index)))
            return ir.FieldRef(scratch)
        entry = self.layout.array(name)
        if isinstance(expr.index, ast.IntLit):
            i = expr.index.value
            if i >= entry.capacity:
                return ir.Const(0, entry.elem_width)
            return ir.FieldRef(self.layout.slot_path(name, i))
        # Dynamic index: select into a scratch field with an if-chain.
        self._site_counter += 1
        scratch = self._meta(f"{self.p}arr_{self._site_counter}",
                             entry.elem_width)
        index = self._expr(expr.index)
        self._pending.append(ir.AssignStmt(scratch,
                                           ir.Const(0, entry.elem_width)))
        for i in range(entry.capacity):
            self._pending.append(ir.IfStmt(
                cond=ir.BinExpr("==", index, ir.Const(i, 32)),
                then_body=[ir.AssignStmt(
                    scratch, ir.FieldRef(self.layout.slot_path(name, i)))],
            ))
        return ir.FieldRef(scratch)

    def _expr_in(self, expr: ast.InExpr) -> ir.P4Expr:
        container_ty = expr.container.ty
        if isinstance(container_ty, SetType) and \
                isinstance(expr.container, ast.Var) and \
                self._is_control(expr.container.name):
            return self._set_membership(expr)
        if isinstance(container_ty, ArrayType) and \
                isinstance(expr.container, ast.Var) and \
                self._sensor_array_decl(expr.container.name) is not None:
            return self._sensor_in(expr)
        if isinstance(container_ty, ArrayType) and \
                isinstance(expr.container, ast.Var):
            name = expr.container.name
            entry = self.layout.array(name)
            item = self._expr(expr.item)
            result: Optional[ir.P4Expr] = None
            for i in range(entry.capacity):
                term = ir.BinExpr(
                    "&&",
                    ir.BinExpr("==",
                               ir.FieldRef(self.layout.valid_path(name, i)),
                               ir.Const(1, 1)),
                    ir.BinExpr("==", item,
                               ir.FieldRef(self.layout.slot_path(name, i))),
                )
                result = term if result is None else \
                    ir.BinExpr("||", result, term)
            return result if result is not None else ir.Const(0, 1)
        raise CompileError(
            "'in' is supported over control sets and tele arrays", expr.span
        )

    def _sensor_in(self, expr: ast.InExpr) -> ir.P4Expr:
        """Membership over a sensor array: per-slot register reads
        guarded by the push cursor."""
        assert isinstance(expr.container, ast.Var)
        name = expr.container.name
        decl = self._sensor_array_decl(name)
        assert decl is not None
        elem_width = scalar_width(decl.ty.element)
        item = self._expr(expr.item)
        count = self._sensor_count_read(name)
        result: Optional[ir.P4Expr] = None
        for i in range(decl.ty.capacity):
            self._site_counter += 1
            scratch = self._meta(
                f"{self.p}sarr_{name}_{self._site_counter}", elem_width)
            self._pending.append(ir.RegisterRead(
                scratch, f"{self.p}reg_{name}", ir.Const(i, 32)))
            term = ir.BinExpr(
                "&&",
                ir.BinExpr("<", ir.Const(i, 8), count),
                ir.BinExpr("==", item, ir.FieldRef(scratch)),
            )
            result = term if result is None else \
                ir.BinExpr("||", result, term)
        return result if result is not None else ir.Const(0, 1)

    def _is_control(self, name: str) -> bool:
        decl = self.program.decl(name)
        return decl is not None and decl.kind is ast.VarKind.CONTROL

    def _expr_call(self, expr: ast.Call) -> ir.P4Expr:
        if expr.func == "abs":
            arg = expr.args[0]
            width = width_of(arg.ty)
            if isinstance(arg, ast.Binary) and arg.op is ast.BinaryOp.SUB:
                return ir.BinExpr("absdiff", self._expr(arg.left),
                                  self._expr(arg.right), width)
            return ir.BinExpr("absdiff", self._expr(arg),
                              ir.Const(0, width), width)
        if expr.func == "length":
            target = expr.args[0]
            if isinstance(target, ast.Var):
                if target.name in self.layout.arrays:
                    return ir.FieldRef(self.layout.count_path(target.name))
                if self._sensor_array_decl(target.name) is not None:
                    return self._sensor_count_read(target.name)
            raise CompileError("length() requires a tele or sensor array",
                               expr.span)
        if expr.func in ("max", "min"):
            return ir.BinExpr(expr.func, self._expr(expr.args[0]),
                              self._expr(expr.args[1]), width_of(expr.ty))
        raise CompileError(f"unknown function {expr.func!r}", expr.span)

    # ==================================================================
    # Control dictionary / set lookups
    # ==================================================================

    def _key_parts(self, key: ast.Expr) -> List[Tuple[ast.Expr, int]]:
        if isinstance(key, ast.TupleExpr):
            parts: List[Tuple[ast.Expr, int]] = []
            for item in key.items:
                parts.extend(self._key_parts(item))
            return parts
        width = scalar_width(key.ty) if key.ty is not None else 32
        return [(key, width)]

    def _dict_lookup(self, expr: ast.Index) -> ir.P4Expr:
        """A dictionary lookup becomes a fresh match-action table applied
        immediately before the statement containing the lookup."""
        assert isinstance(expr.base, ast.Var)
        name = expr.base.name
        decl = self.program.decl(name)
        assert decl is not None and isinstance(decl.ty, DictType)
        value_width = scalar_width(decl.ty.value)
        self._site_counter += 1
        site = self._site_counter
        value_meta = self._meta(f"{self.p}{name}_v{site}", value_width)
        key_paths: List[str] = []
        for i, (part, width) in enumerate(self._key_parts(expr.index)):
            key_meta = self._meta(f"{self.p}{name}_k{site}_{i}", width)
            self._pending.append(ir.AssignStmt(key_meta, self._expr(part)))
            key_paths.append(key_meta)
        hit = ir.Action(
            name=f"{self.p}{name}_set{site}", params=[("value", value_width)],
            body=[ir.AssignStmt(value_meta, ir.FieldRef("param.value"))],
        )
        miss = ir.Action(
            name=f"{self.p}{name}_miss{site}", params=[],
            body=[ir.AssignStmt(value_meta, ir.Const(0, value_width))],
        )
        self.out.actions[hit.name] = hit
        self.out.actions[miss.name] = miss
        # Range matching lets the control plane install wildcard, prefix,
        # and port-range entries (exact lookups install [v, v] ranges),
        # which the Aether filtering rules require.
        table = ir.Table(
            name=f"{self.p}{name}_tbl{site}",
            keys=[ir.TableKey(path, ir.MatchKind.RANGE) for path in key_paths],
            actions=[hit.name],
            default_action=(miss.name, []),
            size=1024,
        )
        self.out.tables[table.name] = table
        self.out.control_tables.setdefault(name, []).append(table.name)
        self.out.control_value_widths[name] = [value_width]
        self._pending.append(ir.ApplyTable(table.name))
        return ir.FieldRef(value_meta)

    def _set_membership(self, expr: ast.InExpr) -> ir.P4Expr:
        assert isinstance(expr.container, ast.Var)
        name = expr.container.name
        self._site_counter += 1
        site = self._site_counter
        flag_meta = self._meta(f"{self.p}{name}_m{site}", 1)
        key_paths: List[str] = []
        for i, (part, width) in enumerate(self._key_parts(expr.item)):
            key_meta = self._meta(f"{self.p}{name}_k{site}_{i}", width)
            self._pending.append(ir.AssignStmt(key_meta, self._expr(part)))
            key_paths.append(key_meta)
        hit = ir.Action(
            name=f"{self.p}{name}_hit{site}", params=[],
            body=[ir.AssignStmt(flag_meta, ir.Const(1, 1))],
        )
        miss = ir.Action(
            name=f"{self.p}{name}_nohit{site}", params=[],
            body=[ir.AssignStmt(flag_meta, ir.Const(0, 1))],
        )
        self.out.actions[hit.name] = hit
        self.out.actions[miss.name] = miss
        table = ir.Table(
            name=f"{self.p}{name}_tbl{site}",
            keys=[ir.TableKey(path, ir.MatchKind.RANGE) for path in key_paths],
            actions=[hit.name],
            default_action=(miss.name, []),
            size=1024,
        )
        self.out.tables[table.name] = table
        self.out.control_tables.setdefault(name, []).append(table.name)
        self.out.control_value_widths[name] = []
        self._pending.append(ir.ApplyTable(table.name))
        return ir.BinExpr("==", ir.FieldRef(flag_meta), ir.Const(1, 1))


def compile_program(source_or_checked, name: str = "checker",
                    bindings: Optional[Dict[str, str]] = None,
                    namespace: str = "",
                    eth_type: int = ETH_TYPE_HYDRA) -> CompiledChecker:
    """Compile Indus source text (or an already-checked program) to P4 IR."""
    if isinstance(source_or_checked, str):
        checked = check(parse(source_or_checked))
    elif isinstance(source_or_checked, CheckedProgram):
        checked = source_or_checked
    else:
        raise TypeError("expected Indus source text or a CheckedProgram")
    return IndusCompiler(checked, name=name, bindings=bindings,
                         namespace=namespace, eth_type=eth_type).compile()
