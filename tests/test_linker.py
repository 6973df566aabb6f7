"""Linker tests: parser extension, declaration merging, role pruning,
EtherType write redirection, and multi-checker chaining."""

from dataclasses import replace

import pytest

from repro.compiler import compile_program, link, standalone_program
from repro.compiler.linker import LAST_HOP, PER_HOP, placement
from repro.indus.errors import CompileError
from repro.net.packet import (ETH_TYPE_HYDRA, ETH_TYPE_IPV4, ip,
                              make_source_routed, make_udp)
from repro.net.topology import CORE, EDGE
from repro.p4 import ir
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding, source_routing

SIMPLE = "tele bit<8> x = 1;\n{ } { } { }"


def test_linked_parser_recognizes_hydra_ethertype():
    compiled = compile_program(SIMPLE)
    program = link(l2_port_forwarding(), compiled, role=EDGE)
    start = program.parser.state("start")
    first = start.transitions[0]
    assert first.value == ETH_TYPE_HYDRA
    hydra_state = program.parser.state(first.next_state)
    assert hydra_state.extracts[0].bind == "hydra"


def test_hydra_state_re_dispatches_on_next_eth_type():
    compiled = compile_program(SIMPLE)
    program = link(l2_port_forwarding(), compiled, role=EDGE)
    hydra_state = program.parser.state(
        program.parser.state("start").transitions[0].next_state)
    values = {t.value for t in hydra_state.transitions
              if t.field_path is not None}
    assert ETH_TYPE_IPV4 in values
    assert all(t.field_path == "hdr.hydra.next_eth_type"
               for t in hydra_state.transitions if t.field_path)


def test_emit_order_places_hydra_after_ethernet():
    compiled = compile_program(SIMPLE)
    program = link(l2_port_forwarding(), compiled, role=EDGE)
    order = program.emit_order
    assert order.index("hydra") == order.index("ethernet") + 1


def mutable_nodes(graph):
    """``id -> (what, object)`` for everything in a program (or compiled
    checker) that linking or a later in-place pass may mutate: statement
    nodes, every list, tables, actions, parser states.  Frozen
    expressions and header types are deliberately left out: links share
    them."""
    found = {}

    def note(obj, what):
        found[id(obj)] = (what, obj)

    def body(stmts, where):
        note(stmts, f"{where}: body")
        for stmt in stmts:
            note(stmt, f"{where}: {type(stmt).__name__}")
            for name, value in vars(stmt).items():
                if name in ("then_body", "else_body", "hit_body",
                            "miss_body"):
                    body(value, where)
                elif isinstance(value, list):
                    note(value, f"{where}: {type(stmt).__name__}.{name}")

    if isinstance(graph, ir.P4Program):
        body(graph.ingress, "ingress")
        body(graph.egress, "egress")
        note(graph.parser, "parser")
        note(graph.parser.states, "parser.states")
        for state in graph.parser.states:
            note(state, f"state {state.name}")
            note(state.extracts, f"state {state.name}.extracts")
            note(state.transitions, f"state {state.name}.transitions")
        note(graph.emit_order, "emit_order")
    else:
        for label, stmts in graph.fragments().items():
            body(stmts, label)
    for attr in ("metadata", "registers", "actions", "tables"):
        note(getattr(graph, attr), attr)
    for name, action in graph.actions.items():
        note(action, f"action {name}")
        note(action.params, f"action {name}.params")
        body(action.body, f"action {name}")
    for name, table in graph.tables.items():
        note(table, f"table {name}")
        note(table.keys, f"table {name}.keys")
        note(table.actions, f"table {name}.actions")
        if table.default_action is not None:
            note(table.default_action[1], f"table {name} default args")
    return found


def snapshot(graph):
    if isinstance(graph, ir.P4Program):
        return repr(graph)
    return repr([*graph.fragments().values()]
                + [getattr(graph, attr) for attr in
                   ("metadata", "registers", "actions", "tables")])


def edit_in_place(program):
    """An in-place pass over one linked program:
    every statement list (nested bodies and action bodies included)
    gains a drop, and every expression a statement holds is rebuilt.
    Returns the statements whose expressions were replaced."""
    lists = ir.program_bodies(program)
    rebuilt = 0
    for stmts in ir.program_bodies(program):
        for stmt in ir.walk_stmts(stmts):
            rebuilt += ir.map_exprs(
                stmt, lambda expr: ir.BinExpr("|", expr, ir.Const(0, 1)))
            lists.extend(ir.bodies(stmt))
    for stmts in lists:
        stmts.append(ir.MarkToDrop())
    return rebuilt


def _single_checker():
    # Source routing rewrites the EtherType inside an action, so the
    # linker's write redirection edits forwarding action bodies too.
    from repro.properties import load_source
    return source_routing(), [compile_program(load_source("multi_tenancy"))]


def _paper_suite():
    from repro.aether.upf import upf_program
    from repro.experiments.fig12 import ALL_CHECKERS
    from repro.properties import compile_suite
    return upf_program("fabric_upf"), compile_suite(ALL_CHECKERS)


@pytest.mark.parametrize("inputs", [_single_checker, _paper_suite],
                         ids=["single-checker", "paper-suite"])
def test_links_alias_no_mutable_state(inputs):
    """The linker clones structurally instead of deep-copying: what
    that must still guarantee is that the forwarding program, the
    compiled checkers and every link made from them can each be edited
    in place without any other noticing."""
    forwarding, compileds = inputs()
    sources = [forwarding] + list(compileds)
    links = [link(forwarding, compileds, role=role)
             for role in (EDGE, CORE, EDGE, CORE)]
    graphs = sources + links
    before = [snapshot(graph) for graph in graphs]
    owner = {}
    for i, graph in enumerate(graphs):
        for key, (what, _obj) in mutable_nodes(graph).items():
            assert key not in owner, (
                f"graph {i} shares {what} with graph {owner[key][0]} "
                f"({owner[key][1]})")
            owner[key] = (i, what)
    assert snapshot(links[0]) == snapshot(links[2])
    assert snapshot(links[1]) == snapshot(links[3])

    # An in-place pass over one link ...
    edge = links[0]
    assert edit_in_place(edge) > 0
    assert snapshot(edge) != before[graphs.index(edge)]
    # ... and the parser/table/action edits a further link would make
    # on another.
    core = links[1]
    start = core.parser.state(core.parser.start)
    start.transitions.insert(0, ir.Transition(ir.ACCEPT))
    start.extracts.append(start.extracts[0])
    core.parser.states.append(ir.ParserState("extra"))
    core.emit_order.append("extra")
    core.metadata.append(("extra", 1))
    for table in core.tables.values():
        table.keys.append(ir.TableKey("meta.extra"))
        table.actions.append("extra")
        if table.default_action is not None:
            table.default_action[1].append(1)
    for action in core.actions.values():
        action.params.append(("extra", 1))
        action.body.append(ir.MarkToDrop())
    for graph, was in zip(graphs, before):
        if graph is not edge and graph is not core:
            assert snapshot(graph) == was
    # An in-place field rename over each compiled checker: its links
    # share its expressions, so the rename rebuilds them, not edits them.
    def rename(ref):
        return (replace(ref, path=ref.path + "_renamed")
                if ref.path.startswith("meta.") else ref)

    renamed = sum(ir.map_exprs(stmt, lambda expr: ir.map_fields(expr, rename))
                  for compiled in compileds
                  for _, stmt in compiled.statements())
    assert renamed > 0
    for graph, was in zip(graphs, before):
        if isinstance(graph, ir.P4Program) and graph not in (edge, core):
            assert snapshot(graph) == was


def test_core_role_has_no_init_or_checker():
    compiled = compile_program("{ } { } { reject; }")
    edge = link(l2_port_forwarding(), compiled, role=EDGE)
    core = link(l2_port_forwarding(), compiled, role=CORE)
    assert len(core.ingress) < len(edge.ingress)
    # Core switches never evaluate the reject verdict.
    edge_text = repr(edge.egress)
    core_text = repr(core.egress)
    assert compiled.reject_meta in edge_text
    assert compiled.reject_meta not in core_text


@pytest.mark.parametrize("role", [EDGE, CORE])
@pytest.mark.parametrize("mode", [LAST_HOP, PER_HOP])
def test_link_lays_out_the_placements_phase_major(role, mode):
    """Each phase of every checker before the next phase of any, init
    in reverse; the linked statements are clones of the placements'."""
    a = compile_program("tele bit<8> x = 1;\n{ } { x = x + 1; } { reject; }",
                        name="a", namespace="a", eth_type=0x88B5)
    b = compile_program("tele bit<8> y = 2;\n{ } { y = y + 1; } { }",
                        name="b", namespace="b", eth_type=0x88B6)
    forwarding = l2_port_forwarding()
    program = link(forwarding, [a, b], role=role, check_mode=mode)
    pa, pb = placement(a, role, mode), placement(b, role, mode)
    ingress = (pa.ingress_prologue + pb.ingress_prologue
               + pb.init + pa.init)
    egress = [s for phase in zip(pa[2:], pb[2:]) for p in phase for s in p]
    assert program.ingress == ingress + forwarding.ingress
    assert program.egress == forwarding.egress + egress
    assert not {id(s) for s in ir.walk_stmts(program.egress)} & {
        id(s) for s in ir.walk_stmts(egress)}
    if role == CORE:
        assert not pa.init and not pa.last_hop
    assert bool(pa.per_hop_check) == (mode == PER_HOP)


def test_unknown_role_rejected():
    compiled = compile_program(SIMPLE)
    with pytest.raises(CompileError):
        link(l2_port_forwarding(), compiled, role="weird")


def test_metadata_collision_detected():
    compiled = compile_program(SIMPLE)
    forwarding = l2_port_forwarding()
    forwarding.metadata.append((compiled.first_hop_meta, 1))
    with pytest.raises(CompileError):
        link(forwarding, compiled, role=EDGE)


def test_forwarding_without_ethernet_rejected():
    compiled = compile_program(SIMPLE)
    program = ir.P4Program(name="weird")
    with pytest.raises(CompileError):
        link(program, compiled, role=EDGE)


def test_ethertype_write_redirected_through_hydra():
    """Source routing's final pop rewrites the EtherType; with telemetry
    on the packet, the write must land in hydra.next_eth_type so the
    strip at the last hop restores IPv4 (not the stale saved type)."""
    compiled = compile_program(SIMPLE)
    program = link(source_routing(), compiled, role=EDGE)
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry(compiled.inject_table, [1], compiled.mark_first_action)
    sw.insert_entry(compiled.strip_table, [4], compiled.mark_last_action)
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    packet = make_source_routed([4], inner)
    port, out = sw.process(packet, 1)[0]
    assert port == 4
    assert out.find("ethernet").get("eth_type") == ETH_TYPE_IPV4
    assert out.find("hydra") is None


def test_multi_checker_requires_distinct_namespaces():
    a = compile_program(SIMPLE, name="a")
    b = compile_program(SIMPLE, name="b")
    with pytest.raises(CompileError):
        link(l2_port_forwarding(), [a, b], role=EDGE)


def test_multi_checker_requires_distinct_ethertypes():
    a = compile_program(SIMPLE, name="a", namespace="a")
    b = compile_program(SIMPLE, name="b", namespace="b")  # same 0x88B5
    with pytest.raises(CompileError):
        link(l2_port_forwarding(), [a, b], role=EDGE)


def test_multi_checker_chain_round_trip():
    a = compile_program("tele bit<8> x = 1;\n{ } { } { }",
                        name="a", namespace="a", eth_type=0x88B5)
    b = compile_program("tele bit<8> y = 2;\n{ } { } { }",
                        name="b", namespace="b", eth_type=0x88B6)
    program = link(l2_port_forwarding(), [a, b], role=EDGE)
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    for c in (a, b):
        sw.insert_entry(c.inject_table, [1], c.mark_first_action)
        sw.insert_entry(c.strip_table, [2], c.mark_last_action)
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    out = sw.process(packet, 1)
    names = [h.name for h in out[0][1].headers]
    assert names == ["ethernet", "ipv4", "udp"]
    assert out[0][1].find("ethernet").get("eth_type") == ETH_TYPE_IPV4


def test_multi_checker_reject_from_either_drops():
    a = compile_program("{ } { } { }", name="a", namespace="a",
                        eth_type=0x88B5)
    b = compile_program("{ } { } { reject; }", name="b", namespace="b",
                        eth_type=0x88B6)
    program = link(l2_port_forwarding(), [a, b], role=EDGE)
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    for c in (a, b):
        sw.insert_entry(c.inject_table, [1], c.mark_first_action)
        sw.insert_entry(c.strip_table, [2], c.mark_last_action)
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    assert sw.process(packet, 1) == []


def test_standalone_program_is_runnable():
    compiled = compile_program(SIMPLE)
    program = standalone_program(compiled)
    sw = Bmv2Switch(program)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    # Without inject entries the packet passes through unmonitored.
    assert len(sw.process(packet, 1)) == 1
