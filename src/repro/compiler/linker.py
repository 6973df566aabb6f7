"""Linking: merge compiled Indus checkers with a forwarding P4 program.

Per Section 4.2 of the paper: the init block goes at the beginning of the
ingress pipeline on first-hop switches, the telemetry block into the
egress pipeline on every switch, and the checker block at the end of the
egress pipeline on last-hop switches.  Edge switches run all three
blocks; non-edge (core) switches run only the telemetry block.

Multiple checkers can be linked into one program (the "all checkers"
configuration of Figure 12).  Each checker owns a telemetry header with
its own EtherType; on the wire the headers chain:

    ethernet(ET_1) / hydra_1(next=ET_2) / ... / hydra_n(next=orig) / ...

Injection at the first hop therefore runs the checkers' init fragments
in *reverse* order (each saves the current EtherType into its header and
claims the Ethernet EtherType), while stripping at the last hop runs in
*forward* order (each restores the EtherType it saved).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Union

from ..indus.errors import CompileError
from ..net.topology import CORE, EDGE
from ..p4 import ir
from .codegen import CompiledChecker
from .layout import NEXT_ETH_TYPE_FIELD


# Checking placement (Section 4.3): the paper's implementation checks
# at the last hop; per-hop checking — proposed as future work — runs the
# checker block at every hop so violations are caught (and packets
# dropped) inside the network core rather than at the edge.
LAST_HOP = "last_hop"
PER_HOP = "per_hop"


def link(forwarding: ir.P4Program,
         compiled: Union[CompiledChecker, Sequence[CompiledChecker]],
         role: str = EDGE, check_mode: str = LAST_HOP) -> ir.P4Program:
    """Link one or more compiled checkers into ``forwarding`` for a
    switch of ``role``.  Returns a new program; inputs are unmodified.

    ``check_mode`` selects last-hop checking (the paper's default) or
    per-hop checking (its Section 4.3 extension).  Under per-hop
    checking every switch evaluates the checker block after its
    telemetry block and enforces ``reject`` immediately; the telemetry
    header is still stripped only at the last hop.  Note per-hop
    checking changes the observable semantics of programs whose checker
    reads last-hop-only state (e.g. the egress port of the final
    switch); it is sound for checkers over accumulated telemetry, like
    the loop and valley-free properties.
    """
    if role not in (EDGE, CORE):
        raise CompileError(f"unknown switch role {role!r}")
    if check_mode not in (LAST_HOP, PER_HOP):
        raise CompileError(f"unknown check mode {check_mode!r}")
    compileds: List[CompiledChecker] = (
        [compiled] if isinstance(compiled, CompiledChecker) else list(compiled)
    )
    if not compileds:
        raise CompileError("link requires at least one compiled checker")
    _check_distinct(compileds)

    program = _clone(forwarding)
    names = "+".join(c.name for c in compileds)
    program.name = f"{forwarding.name}_{names}"

    _redirect_ethertype_writes(program, compileds)
    for c in compileds:
        _merge_decls(program, c)
    # Parser: extend innermost-first so each outer header's dispatch
    # covers the inner headers' EtherTypes.
    for c in reversed(compileds):
        _extend_parser(program, c)

    if role == EDGE:
        ingress_fragments: List[ir.P4Stmt] = []
        for c in compileds:
            ingress_fragments.extend(ir.clone_stmts(c.ingress_prologue))
        # Injection in reverse order builds the header chain correctly.
        for c in reversed(compileds):
            ingress_fragments.extend(ir.clone_stmts(c.init_stmts))
        program.ingress = ingress_fragments + program.ingress

        egress_fragments: List[ir.P4Stmt] = []
        for c in compileds:
            egress_fragments.extend(ir.clone_stmts(c.egress_prologue))
        for c in compileds:
            egress_fragments.append(ir.IfStmt(
                cond=ir.ValidRef(c.hydra_name),
                then_body=ir.clone_stmts(c.tele_stmts),
            ))
        if check_mode == PER_HOP:
            for c in compileds:
                egress_fragments.append(ir.IfStmt(
                    cond=ir.ValidRef(c.hydra_name),
                    then_body=(ir.clone_stmts(c.check_stmts)
                               + _enforce_reject(c)),
                ))
        # Last-hop checks (skipped per checker under per-hop mode), then
        # strips in forward (outer-to-inner) order so each restores the
        # EtherType it saved.
        for c in compileds:
            is_last = ir.BinExpr("==", ir.FieldRef(f"meta.{c.last_hop_meta}"),
                                 ir.Const(1, 1))
            body: List[ir.P4Stmt] = []
            if check_mode == LAST_HOP:
                body.extend(ir.clone_stmts(c.check_stmts))
            body.extend(ir.clone_stmts(c.strip_stmts))
            egress_fragments.append(ir.IfStmt(
                cond=ir.BinExpr("&&", ir.ValidRef(c.hydra_name), is_last),
                then_body=body,
            ))
        program.egress = program.egress + egress_fragments
    else:
        # Core switches: telemetry only (plus the prologue that loads the
        # scalar control values telemetry may read), and — under per-hop
        # checking — the checker block with immediate enforcement.
        egress_fragments = []
        for c in compileds:
            prologue = [s for s in c.egress_prologue
                        if not (isinstance(s, ir.ApplyTable)
                                and s.table == c.inject_table)]
            egress_fragments.extend(ir.clone_stmts(prologue))
        for c in compileds:
            egress_fragments.append(ir.IfStmt(
                cond=ir.ValidRef(c.hydra_name),
                then_body=ir.clone_stmts(c.tele_stmts),
            ))
        if check_mode == PER_HOP:
            for c in compileds:
                egress_fragments.append(ir.IfStmt(
                    cond=ir.ValidRef(c.hydra_name),
                    then_body=(ir.clone_stmts(c.check_stmts)
                               + _enforce_reject(c)),
                ))
        program.egress = program.egress + egress_fragments
    return program


def _enforce_reject(compiled: CompiledChecker) -> List[ir.P4Stmt]:
    """Drop immediately when the reject flag is set (per-hop mode)."""
    return [ir.IfStmt(
        cond=ir.BinExpr("==", ir.FieldRef(f"meta.{compiled.reject_meta}"),
                        ir.Const(1, 1)),
        then_body=[ir.MarkToDrop()],
    )]


def _check_distinct(compileds: List[CompiledChecker]) -> None:
    namespaces = [c.namespace for c in compileds]
    eth_types = [c.eth_type for c in compileds]
    if len(compileds) > 1:
        if len(set(namespaces)) != len(namespaces):
            raise CompileError(
                "multi-checker linking requires each checker to be "
                "compiled with a distinct namespace"
            )
        if len(set(eth_types)) != len(eth_types):
            raise CompileError(
                "multi-checker linking requires each checker to be "
                "compiled with a distinct telemetry EtherType"
            )


def _clone(program: ir.P4Program) -> ir.P4Program:
    """A structural copy: everything linking (or a later in-place pass
    over the result) mutates is private — statement nodes, bodies,
    tables, actions, parser states and their lists.  Expressions, table
    keys, transitions, extracts, header types and register defs are
    shared: nothing edits one in place (:func:`ir.clone_stmts`)."""
    parser = program.parser
    return ir.P4Program(
        name=program.name,
        parser=ir.ParserSpec(
            states=[replace(state, extracts=list(state.extracts),
                            transitions=list(state.transitions))
                    for state in parser.states],
            start=parser.start),
        metadata=list(program.metadata),
        registers=list(program.registers),
        actions={name: _clone_action(action)
                 for name, action in program.actions.items()},
        tables={name: _clone_table(table)
                for name, table in program.tables.items()},
        ingress=ir.clone_stmts(program.ingress),
        egress=ir.clone_stmts(program.egress),
        emit_order=list(program.emit_order),
    )


def _clone_action(action: ir.Action) -> ir.Action:
    return replace(action, params=list(action.params),
                   body=ir.clone_stmts(action.body))


def _clone_table(table: ir.Table) -> ir.Table:
    default = table.default_action
    return replace(
        table, keys=list(table.keys), actions=list(table.actions),
        default_action=(None if default is None
                        else (default[0], list(default[1]))))


def _redirect_ethertype_writes(program: ir.P4Program,
                               compileds: List[CompiledChecker]) -> None:
    """Keep the telemetry linkage intact when forwarding rewrites EtherType.

    While telemetry headers are on the packet, ``hdr.ethernet.eth_type``
    holds the outermost telemetry EtherType and the original value lives
    in the *innermost* header's ``next_eth_type`` (restored at strip
    time).  A forwarding program that rewrites the EtherType — e.g.
    source routing restoring IPv4 after the last pop — must write
    through to that field whenever telemetry is present.  The linker
    applies this rewrite mechanically, preserving source-level
    independence between forwarding and checking code.
    """
    ether = "hdr.ethernet.eth_type"
    innermost = compileds[-1]
    next_path = f"hdr.{innermost.hydra_name}.{NEXT_ETH_TYPE_FIELD}"

    def fix_body(body: List[ir.P4Stmt]) -> List[ir.P4Stmt]:
        out: List[ir.P4Stmt] = []
        for stmt in body:
            if isinstance(stmt, ir.AssignStmt) and stmt.dest == ether:
                out.append(ir.IfStmt(
                    cond=ir.ValidRef(innermost.hydra_name),
                    then_body=[ir.AssignStmt(next_path, stmt.value)],
                    else_body=[stmt],
                ))
            elif isinstance(stmt, ir.IfStmt):
                out.append(ir.IfStmt(stmt.cond, fix_body(stmt.then_body),
                                     fix_body(stmt.else_body)))
            elif isinstance(stmt, ir.ApplyTable):
                out.append(ir.ApplyTable(stmt.table, fix_body(stmt.hit_body),
                                         fix_body(stmt.miss_body)))
            else:
                out.append(stmt)
        return out

    program.ingress = fix_body(program.ingress)
    program.egress = fix_body(program.egress)
    for action in program.actions.values():  # private since _clone
        action.body = fix_body(action.body)


def _merge_decls(program: ir.P4Program, compiled: CompiledChecker) -> None:
    existing_meta = {name for name, _ in program.metadata}
    for name, width in compiled.metadata:
        if name in existing_meta:
            raise CompileError(
                f"metadata field {name!r} collides with the forwarding program"
            )
        program.metadata.append((name, width))
    existing_regs = {reg.name for reg in program.registers}
    for reg in compiled.registers:
        if reg.name in existing_regs:
            raise CompileError(f"register {reg.name!r} collides")
        program.registers.append(reg)
    for name, action in compiled.actions.items():
        if name in program.actions:
            raise CompileError(f"action {name!r} collides")
        program.actions[name] = _clone_action(action)
    for name, table in compiled.tables.items():
        if name in program.tables:
            raise CompileError(f"table {name!r} collides")
        program.tables[name] = _clone_table(table)


def _extend_parser(program: ir.P4Program, compiled: CompiledChecker) -> None:
    """Teach the parser to extract this telemetry header after Ethernet."""
    parser = program.parser
    ether_state: Optional[ir.ParserState] = None
    for state in parser.states:
        for extract in state.extracts:
            if isinstance(extract, ir.Extract) and extract.bind == "ethernet":
                ether_state = state
                break
        if ether_state is not None:
            break
    if ether_state is None:
        raise CompileError(
            "forwarding program has no Ethernet parser state to extend"
        )
    parse_state_name = f"{compiled.meta_prefix}parse_{compiled.hydra_name}"
    # The hydra state re-dispatches on the preserved EtherType using the
    # same transitions the Ethernet state currently has (which, when
    # extending innermost-first, already include inner telemetry headers).
    hydra_transitions: List[ir.Transition] = []
    for tr in ether_state.transitions:
        if tr.field_path is None:
            hydra_transitions.append(ir.Transition(tr.next_state))
        else:
            hydra_transitions.append(ir.Transition(
                tr.next_state,
                field_path=f"hdr.{compiled.hydra_name}.{NEXT_ETH_TYPE_FIELD}",
                value=tr.value,
            ))
    hydra_state = ir.ParserState(
        name=parse_state_name,
        extracts=[ir.Extract(compiled.hydra_name, compiled.hydra_header)],
        transitions=hydra_transitions,
    )
    ether_state.transitions.insert(0, ir.Transition(
        parse_state_name,
        field_path="hdr.ethernet.eth_type",
        value=compiled.eth_type,
    ))
    parser.states.append(hydra_state)
    if "ethernet" in program.emit_order:
        index = program.emit_order.index("ethernet")
        program.emit_order.insert(index + 1, compiled.hydra_name)
    else:
        program.emit_order.insert(0, compiled.hydra_name)


def standalone_program(compiled: Union[CompiledChecker,
                                       Sequence[CompiledChecker]],
                       name: Optional[str] = None) -> ir.P4Program:
    """Wrap compiled checker(s) into a minimal port-forwarding program.

    Used for unit-testing checker semantics in isolation and for the
    generated-LoC measurements of Table 1.
    """
    from ..p4.programs import l2_port_forwarding

    base = l2_port_forwarding(name or "standalone")
    return link(base, compiled, role=EDGE)
