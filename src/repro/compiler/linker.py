"""Linking: merge compiled Indus checkers with a forwarding P4 program.

Per Section 4.2 of the paper: the init block goes at the beginning of the
ingress pipeline on first-hop switches, the telemetry block into the
egress pipeline on every switch, and the checker block at the end of the
egress pipeline on last-hop switches.  Edge switches run all three
blocks; non-edge (core) switches run only the telemetry block.
:func:`placement` decides this once, for one checker on one switch:
:func:`link` clones what it returns into the forwarding program, and
the analysis views (:func:`repro.analysis.unit.checker_placements`)
read it as is.

Multiple checkers can be linked into one program (the "all checkers"
configuration of Figure 12).  Each checker owns a telemetry header with
its own EtherType; on the wire the headers chain:

    ethernet(ET_1) / hydra_1(next=ET_2) / ... / hydra_n(next=orig) / ...

:func:`link` lays the checkers out phase-major: each phase of every
checker before the next phase of any.  Injection at the first hop runs
the checkers' init fragments in *reverse* order (each saves the current
EtherType into its header and claims the Ethernet EtherType), while
stripping at the last hop runs in *forward* order (each restores the
EtherType it saved).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Optional, Sequence, Union

from ..indus.errors import CompileError
from ..net.topology import CORE, EDGE
from ..p4 import ir
from .layout import NEXT_ETH_TYPE_FIELD
from .lower import CompiledChecker


# Checking placement (Section 4.3): the paper's implementation checks
# at the last hop; per-hop checking — proposed as future work — runs the
# checker block at every hop so violations are caught (and packets
# dropped) inside the network core rather than at the edge.
LAST_HOP = "last_hop"
PER_HOP = "per_hop"


class Placement(NamedTuple):
    """One checker's statements on one switch, phase by phase in
    pipeline order: the first two phases run at the start of ingress,
    the other four at the end of egress.  Each list holds the compiled
    fragments' own statement objects (and the guards placing them);
    :func:`link` clones them, the analysis views do not."""

    ingress_prologue: List[ir.P4Stmt]
    init: List[ir.P4Stmt]
    egress_prologue: List[ir.P4Stmt]
    telemetry: List[ir.P4Stmt]
    per_hop_check: List[ir.P4Stmt]
    last_hop: List[ir.P4Stmt]

    def stmts(self) -> List[ir.P4Stmt]:
        """The phases concatenated: the pipeline a single-checker
        switch runs around its forwarding code."""
        return [stmt for phase in self for stmt in phase]


def placement(compiled: CompiledChecker, role: str = EDGE,
              check_mode: str = LAST_HOP) -> Placement:
    """Where Section 4.2 puts ``compiled`` on a switch of ``role``.

    Edge switches run the prologues and init in ingress, then
    telemetry, the checker and the strip in egress.  Core switches run
    telemetry only, after the egress prologue (the scalar control
    values telemetry may read, the strip probe, the switch id).
    Telemetry and checks are guarded on the telemetry header being
    valid, and the last-hop check and strip on the last-hop flag too.
    Under per-hop checking (Section 4.3) every switch runs the checker
    block after its telemetry block and drops on ``reject`` at once;
    the header is still stripped only at the last hop.
    """
    if role not in (EDGE, CORE):
        raise CompileError(f"unknown switch role {role!r}")
    if check_mode not in (LAST_HOP, PER_HOP):
        raise CompileError(f"unknown check mode {check_mode!r}")
    edge = role == EDGE
    valid = ir.ValidRef(compiled.hydra_name)

    def flag(meta: str) -> ir.BinExpr:
        return ir.BinExpr("==", ir.FieldRef(f"meta.{meta}"), ir.Const(1, 1))

    per_hop: List[ir.P4Stmt] = []
    if check_mode == PER_HOP:
        drop = ir.IfStmt(cond=flag(compiled.reject_meta),
                         then_body=[ir.MarkToDrop()])
        per_hop.append(ir.IfStmt(
            cond=valid, then_body=list(compiled.check_stmts) + [drop]))
    last_hop: List[ir.P4Stmt] = []
    if edge:
        checks = list(compiled.check_stmts) if check_mode == LAST_HOP else []
        last_hop.append(ir.IfStmt(
            cond=ir.BinExpr("&&", valid, flag(compiled.last_hop_meta)),
            then_body=checks + list(compiled.strip_stmts)))
    return Placement(
        ingress_prologue=list(compiled.ingress_prologue) if edge else [],
        init=list(compiled.init_stmts) if edge else [],
        egress_prologue=list(compiled.egress_prologue),
        telemetry=[ir.IfStmt(cond=valid, then_body=list(compiled.tele_stmts))],
        per_hop_check=per_hop,
        last_hop=last_hop,
    )


def link(forwarding: ir.P4Program,
         compiled: Union[CompiledChecker, Sequence[CompiledChecker]],
         role: str = EDGE, check_mode: str = LAST_HOP) -> ir.P4Program:
    """Link one or more compiled checkers into ``forwarding`` for a
    switch of ``role``.  Returns a new program; inputs are unmodified.

    ``check_mode`` selects last-hop checking (the paper's default) or
    per-hop checking (its Section 4.3 extension); :func:`placement`
    says what each checker contributes.  Note per-hop checking changes
    the observable semantics of programs whose checker reads
    last-hop-only state (e.g. the egress port of the final switch); it
    is sound for checkers over accumulated telemetry, like the loop and
    valley-free properties.
    """
    compileds: List[CompiledChecker] = (
        [compiled] if isinstance(compiled, CompiledChecker) else list(compiled)
    )
    if not compileds:
        raise CompileError("link requires at least one compiled checker")
    placements = [placement(c, role, check_mode) for c in compileds]
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

    # Phase-major across checkers.  Injection runs in reverse order to
    # build the header chain; the strips run forward (outer to inner)
    # so each restores the EtherType it saved.
    def across(phase: str, order: Sequence[Placement] = placements
               ) -> List[ir.P4Stmt]:
        return [s for p in order for s in getattr(p, phase)]

    program.ingress = (ir.clone_stmts(across("ingress_prologue")
                                      + across("init", placements[::-1]))
                       + program.ingress)
    program.egress = program.egress + ir.clone_stmts(
        [s for phase in Placement._fields[2:] for s in across(phase)])
    return program


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

    work = list(ir.program_bodies(program))  # private since _clone
    while work:
        body = work.pop()
        for i, stmt in enumerate(body):
            if isinstance(stmt, ir.AssignStmt) and stmt.dest == ether:
                body[i] = ir.IfStmt(
                    cond=ir.ValidRef(innermost.hydra_name),
                    then_body=[ir.AssignStmt(next_path, stmt.value)],
                    else_body=[stmt],
                )
            work.extend(ir.bodies(stmt))


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
