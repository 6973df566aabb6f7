"""Properties of the generated pipeline: the extern contract, header
ownership (no write-through) and the one-pass parser.

The codegen engine shares every ``Header`` with its input until the
first write and walks the parse graph once, where the interpreter
deep-copies the packet and re-dispatches per state.  These tests pin
the two to the same observable behaviour on exactly the inputs where
the shortcuts could show: a packet object processed twice and
interleaved with another, header stacks that are truncated, over-long,
out of order or carry unknown select values, a cyclic parse graph, a
header stack, and an extern whose declaration is wrong.
"""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aether.upf import upf_program
from repro.compiler import compile_program, standalone_program
from repro.experiments.fig12 import (ALL_CHECKERS, configure_checker_controls,
                                     install_fabric_routes)
from repro.net.packet import (ETHERNET, Header, HeaderType, Packet, ip,
                              make_gtpu_encapsulated, make_source_routed,
                              make_tcp, make_udp)
from repro.net.topology import Endpoint, leaf_spine
from repro.p4 import ENGINES, ir
from repro.p4.bmv2 import Bmv2Switch, P4RuntimeError
from repro.p4.programs import (ecmp_fabric, l2_port_forwarding,
                               source_routing, vlan_l2_forwarding)
from repro.properties import PROPERTIES, compile_suite, load_source
from repro.runtime.deployment import HydraDeployment
from tests.test_engine_differential import serialize_outputs
from tests.test_packet import output_fields


def snapshot(packet):
    """Everything a pipeline could write through to, bit for bit, plus
    the identity of the header objects."""
    return ([(id(h), h.htype.name, h.valid, dict(h.values))
             for h in packet.headers], packet.payload_len, dict(packet.meta))


def shared_blanks(switch):
    return [value for name, value in switch._engine._globals.items()
            if name.startswith("SH")]


def assert_blanks_untouched(switch):
    blanks = shared_blanks(switch)
    assert blanks
    for blank in blanks:
        assert blank.valid is False
        assert not any(blank.values.values()), blank


@pytest.fixture(scope="module")
def fabrics():
    """The paper's deployment (fabric-upf + all 11 Table-1 checkers),
    once per engine from one compile."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    compiled = compile_suite(ALL_CHECKERS)
    out = {}
    for engine in ENGINES:
        forwarding = {name: upf_program(f"fabric_upf_{name}")
                      for name in topology.switches}
        deployment = HydraDeployment(topology, compiled, forwarding,
                                     engine=engine)
        install_fabric_routes(topology, deployment.switches)
        configure_checker_controls(deployment, topology)
        out[engine] = deployment
    return topology, out


# ---------------------------------------------------------------------------
# Externs: value-in/value-out, declared footprint
# ---------------------------------------------------------------------------

def extern_program(fn, args=(), dests=("meta.out",)):
    program = ir.P4Program(
        name="ext",
        parser=ir.ParserSpec(states=[ir.ParserState(
            "start", extracts=[ir.Extract("ethernet", ETHERNET)])]),
        metadata=[("out", 9), ("wide", 32)],
        emit_order=["ethernet"])
    program.ingress = [
        ir.ExternCall("probe", fn, args=list(args), dests=list(dests)),
        ir.AssignStmt("standard_metadata.egress_spec",
                      ir.FieldRef("meta.out")),
    ]
    return program


def ether_packet(eth_type=0x0800):
    return Packet(headers=[ETHERNET(dst_addr=1, src_addr=2,
                                    eth_type=eth_type)], payload_len=10)


def test_extern_results_are_written_with_the_dest_masks():
    program = extern_program(
        lambda eth, port: (eth + 0x10000, port | 0x200),
        args=[ir.FieldRef("hdr.ethernet.eth_type"),
              ir.FieldRef("standard_metadata.ingress_port")],
        dests=["hdr.ethernet.eth_type", "meta.out"])
    packet = ether_packet(0x1234)
    before = snapshot(packet)
    outs = [Bmv2Switch(program, engine=engine).process(packet, 5)
            for engine in ENGINES]
    assert serialize_outputs(outs[0]) == serialize_outputs(outs[1])
    (port, out), = outs[1]
    assert port == 5                        # 0x205 masked to 9 bits
    assert out.headers[0].get("eth_type") == 0x1234  # 0x11234 masked to 16
    assert snapshot(packet) == before


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dest", [
    "meta.nope", "hdr.ghost.eth_type", "hdr.ethernet.nope",
    "standard_metadata.egress_spec", "param.port", "out", 7])
def test_extern_bad_dest_fails_when_the_switch_is_built(engine, dest):
    program = extern_program(lambda: 1, dests=[dest])
    with pytest.raises(P4RuntimeError, match=r"extern 'probe'.*dest"):
        Bmv2Switch(program, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("arg", [
    ir.FieldRef("meta.nope"), ir.FieldRef("hdr.ghost.f"),
    ir.FieldRef("hdr.ethernet.nope"), ir.FieldRef("bogus"),
    ir.ValidRef("ghost"), "meta.out",
    ir.BinExpr("+", ir.Const(1, 8), ir.FieldRef("meta.nope"), 8)])
def test_extern_malformed_arg_fails_when_the_switch_is_built(engine, arg):
    program = extern_program(lambda value: 1, args=[arg])
    with pytest.raises(P4RuntimeError, match=r"extern 'probe'.*argument"):
        Bmv2Switch(program, engine=engine)


@pytest.mark.parametrize("fn, dests", [
    (lambda: (1, 2), ["meta.out"]),
    (lambda: 1, ["meta.out", "meta.wide"]),
    (lambda: (), ["meta.out"]),
])
def test_extern_wrong_arity_raises_the_same_error_under_both_engines(
        fn, dests):
    messages = []
    for engine in ENGINES:
        switch = Bmv2Switch(extern_program(fn, dests=dests), engine=engine)
        with pytest.raises(P4RuntimeError, match="extern 'probe'") as info:
            switch.process(ether_packet(), 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_the_two_ecmp_hashes_are_functions_of_their_arguments():
    """Bit-identical to the hashes the context-reading externs computed
    (pinned values: ECMP choices must not move)."""
    from repro.aether.upf import _upf_ecmp_hash
    from repro.p4.programs import _ecmp_hash

    # Values computed with the context-reading externs of the parent.
    assert _upf_ecmp_hash(ip(10, 0, 2, 1), ip(10, 0, 1, 1), 4000, 17, 2) \
        == 1
    assert _upf_ecmp_hash(1, 2, 3, 4, 0) == 0  # width 0 hashes as 1
    assert _upf_ecmp_hash(1, 2, 3, 4, 7) == 2
    assert _ecmp_hash(1, 2, 17, 1, 1000, 7, 2000, 8, 4) == 3   # udp ports
    assert _ecmp_hash(1, 2, 6, 0, 7, 1000, 8, 2000, 5) == 0    # tcp ports


# ---------------------------------------------------------------------------
# Ownership: a bind's Header is shared until its first write
# ---------------------------------------------------------------------------

def run_interleaved(switches, first, second, port):
    """``first`` twice, ``second``, ``first`` again on every switch.
    Inputs stay bit-identical and the same objects, every engine gives
    the anchor's outputs, and no output changes once it was handed out.
    Returns the codegen outputs for ``first`` and ``second``."""
    before = snapshot(first), snapshot(second)
    handed_out = []
    latest = {}
    for packet in (first, first, second, first):
        outs = [sw.process(packet, port) for sw in switches]
        want = serialize_outputs(outs[0])
        for sw, out in zip(switches[1:], outs[1:]):
            assert serialize_outputs(out) == want, sw.engine
        handed_out.extend((out, want) for out in outs[1:])
        latest[id(packet)] = outs[-1]
        assert (snapshot(first), snapshot(second)) == before
    for out, want in handed_out:
        assert serialize_outputs(out) == want
    for sw in switches[1:]:
        assert_blanks_untouched(sw)
    return latest[id(first)], latest[id(second)]


def checker_sources():
    """Every bundled checker and every ``examples/*.indus`` file."""
    sources = [(name, load_source(name)) for name in sorted(PROPERTIES)]
    examples = Path(__file__).resolve().parent.parent / "examples"
    sources += [(path.name, path.read_text())
                for path in sorted(examples.glob("*.indus"))]
    return [pytest.param(name, source, id=name) for name, source in sources]


@pytest.mark.parametrize("name, source", checker_sources())
def test_corpus_programs_never_write_through(name, source):
    """Each checker as first hop (telemetry injected), mid-path
    (telemetry carried and updated) and last hop (checked, stripped):
    its generated source builds, and agrees with the reference."""
    compiled = compile_program(source, name=name)
    program = standalone_program(compiled)
    first = make_udp(ip(10, 0, 0, 1), ip(10, 0, 1, 2), 4000, 53, ttl=9)
    second = make_tcp(ip(10, 1, 0, 7), ip(10, 0, 0, 1), 80, 4000, ttl=3)
    for role in ("first", "mid", "last"):
        switches = []
        for engine in ENGINES:
            sw = Bmv2Switch(program, name=role, switch_id=3, engine=engine)
            sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
            if role == "first":
                sw.insert_entry(compiled.inject_table, [1],
                                compiled.mark_first_action)
            if role == "last":
                sw.insert_entry(compiled.strip_table, [2],
                                compiled.mark_last_action)
            switches.append(sw)
        carried = run_interleaved(switches, first, second, port=1)
        if not all(carried):
            break  # the checker rejected: nothing travels on
        ((_, first),), ((_, second),) = carried
    else:
        assert len(first.headers) == 3  # telemetry stripped again


def test_all_checkers_fabric_never_writes_through(fabrics):
    """First hop, mid-path and last hop of h1 -> h3, and a GTP-U packet
    through the same leaf, on the paper's deployment."""
    topology, deployments = fabrics
    hosts = topology.hosts
    first = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9)
    second = make_gtpu_encapsulated(
        hosts["h1"].ipv4, hosts["h3"].ipv4, 77,
        make_tcp(ip(172, 16, 0, 9), ip(8, 8, 8, 8), 5000, 443))
    end = topology.host_attachment("h1")
    while end.node not in hosts:
        switches = [deployments[engine].switches[end.node]
                    for engine in ENGINES]
        outputs, others = run_interleaved(switches, first, second, end.port)
        (port, first), = outputs
        if others:
            second = others[0][1]
        end = topology.link_at(end.node, port).other(
            Endpoint(end.node, port))
    assert end.node == "h3"


def test_all_checkers_fabric_source_keeps_its_shape(fabrics):
    """What the engine promises of the paper deployment's generated
    modules: one function, no per-packet header allocation, a loop-free
    parser, no boxed header write, every index search in the miss arm
    of a memo probe — and one build per switch, every control value set
    since being a rebind."""
    _, deployments = fabrics
    for name, switch in deployments["codegen"].switches.items():
        source = switch._engine.source
        lines = source.splitlines()
        defs = [line for line in lines if line.startswith("def ")]
        assert defs == ["def _process(packet, ingress_port):"], name
        for banned in ("_blank(", "while True", ".copy()", "_os("):
            assert banned not in source, (name, banned)
        searches = [i for i, line in enumerate(lines) if ".lookup(" in line]
        assert len(searches) == (11 if name.startswith("leaf") else 7), name
        for i in searches:
            assert lines[i - 1].strip().endswith("is _MISS:"), lines[i - 1]
            assert lines[i - 2].strip().endswith(".get(_k, _MISS)")
        # Hit-or-miss is a local only where a hit/miss body reads it
        # (test_a_hit_flag_exists_only_where_something_reads_it): none
        # of the checkers' applies has one.
        assert not re.search(r"_h\d+ = ", source), name
        # A dispatch reads the entry: arms compare its action's name and
        # load its args only where the action has parameters.
        actions = switch.program.actions
        arms = [(i, m) for i, line in enumerate(lines) for m in
                [re.match(r" *(?:el)?if _a(\d+) == '(\w+)':$", line)] if m]
        # ...and nothing else (an integer id, say) is ever compared.
        assert 0 < len(arms) == len(re.findall(r"_a\d+ == ", source)), name
        loads = [i for i, line in enumerate(lines)
                 if re.match(r" *_aa\d+ = ", line)]
        assert loads == [i + 1 for i, arm in arms
                         if actions[arm[2]].params], name
        for i, arm in arms:
            if i + 1 in loads:
                assert lines[i + 1].strip() == (
                    f"_aa{arm[1]} = _b{arm[1]}.args"), lines[i + 1]
        counts = switch.engine_counts()
        assert counts["builds"] == {"initial": 1}, (name, counts)
        assert counts["rebinds"] > 0, (name, counts)


def test_a_hit_flag_exists_only_where_something_reads_it():
    """An apply with a hit or miss body keeps ``_h<site>`` and branches
    on it after the dispatch (a miss runs the default action, then the
    miss body); a plain apply only tests its entry for ``None``.  The
    instrumented build counts by outcome at every site, so it keeps the
    flag everywhere.  Both engines agree throughout."""
    from repro.obs import Observability
    program = ir.P4Program(
        name="hm",
        parser=ir.ParserSpec(states=[ir.ParserState(
            "start", extracts=[ir.Extract("ethernet", ETHERNET)])]),
        metadata=[("seen", 9)], emit_order=["ethernet"])
    program.add_action(ir.Action("set_seen", params=[("v", 9)], body=[
        ir.AssignStmt("meta.seen", ir.FieldRef("param.v"))]))
    key = [ir.TableKey("hdr.ethernet.eth_type", ir.MatchKind.EXACT)]
    for table in ("plain", "branched", "hit_only"):
        program.add_table(ir.Table(table, keys=key, actions=["set_seen"]))

    def out(base):
        return [ir.AssignStmt("standard_metadata.egress_spec", ir.BinExpr(
            "+", ir.FieldRef("meta.seen"), ir.Const(base, 9), 9))]

    program.ingress = [
        ir.ApplyTable("plain"),
        ir.ApplyTable("branched", hit_body=out(100), miss_body=out(200)),
        ir.ApplyTable("hit_only", hit_body=out(300))]
    switches = {engine: Bmv2Switch(program, engine=engine)
                for engine in ENGINES}

    def configure(switch):
        switch.insert_entry("plain", [0x0800], "set_seen", [1])
        switch.insert_entry("branched", [0x0800], "set_seen", [2])
        switch.insert_entry("hit_only", [0x86DD], "set_seen", [3])
        switch.set_default_action("branched", "set_seen", [7])

    for switch in switches.values():
        configure(switch)

    def ports():
        got = [[switch.process(ether_packet(eth), 1)[0][0]
                for eth in (0x0800, 0x0806, 0x86DD)]
               for switch in switches.values()]
        assert got[0] == got[1]
        return got[0]

    assert ports() == [102, 207, 303]
    source = switches["codegen"]._engine.source
    assert re.findall(r"_h\d+ = |if _h\d+:", source) == [
        "_h1 = ", "if _h1:", "_h2 = ", "if _h2:"]
    switches["codegen"] = Bmv2Switch(program, engine="codegen",
                                     obs=Observability.enabled())
    configure(switches["codegen"])
    assert ports() == [102, 207, 303]
    source = switches["codegen"]._engine.source
    assert re.findall(r"_h\d+ = ", source) == ["_h0 = ", "_h1 = ", "_h2 = "]


def test_a_hop_pays_for_what_it_changes(fabrics, monkeypatch):
    """Exact counts for one warmed h1 -> h3 packet over the paper's
    three hops: generated code never calls ``Header.copy`` (a write is
    an inline dict copy, an owned header is boxed once at the deparser,
    ``setInvalid`` is free) and the engines evaluate ``Packet.length``
    once — only load_balance's uplink branch on the first hop reads it."""
    topology, deployments = fabrics
    hosts = topology.hosts
    first = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9)
    calls = {"copy": 0, "length": 0}
    copy, length = Header.copy, Packet.length.fget

    def walk():
        packet, end, hops = first, topology.host_attachment("h1"), 0
        while end.node not in hosts:
            switch = deployments["codegen"].switches[end.node]
            (port, packet), = switch.process(packet, end.port)
            end = topology.link_at(end.node, port).other(
                Endpoint(end.node, port))
            hops += 1
        return hops

    walk()  # warm: memos filled, firewall state programmed
    monkeypatch.setattr(Header, "copy", lambda self: (
        calls.__setitem__("copy", calls["copy"] + 1), copy(self))[1])
    monkeypatch.setattr(Packet, "length", property(lambda self: (
        calls.__setitem__("length", calls["length"] + 1), length(self))[1]))
    assert walk() == 3
    assert calls == {"copy": 0, "length": 1}


def test_a_warm_lookup_memo_searches_nothing(fabrics, monkeypatch):
    """Every non-exact apply of a warmed h1 -> h3 packet is one probe
    of its index's memo: a second identical packet fills nothing and
    never enters ``_TableIndex.lookup``.  Withdrawing
    ``vlan_configured[0]`` (the benchmark's negative control) empties
    exactly the memo of the one table it writes, on the switches that
    had filled it, and the next packet is reported — under both
    engines, which go through every step together."""
    from repro.p4.tableindex import _TableIndex
    topology, deployments = fabrics
    hosts = topology.hosts
    first = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9)
    searched = []
    lookup = _TableIndex.lookup
    monkeypatch.setattr(_TableIndex, "lookup", lambda self, key: (
        searched.append(self.name), lookup(self, key))[1])

    def walk():
        """Hops the packet survived, per engine."""
        hops = {}
        for engine in ENGINES:
            packet, end, hops[engine] = first, topology.host_attachment("h1"), 0
            while end.node not in hosts:
                switch = deployments[engine].switches[end.node]
                outputs = switch.process(packet, end.port)
                if not outputs:
                    break
                (port, packet), = outputs
                end = topology.peer(end.node, port)
                hops[engine] += 1
        return hops

    def memo_counts(count):
        return {(name, table): counts[count]
                for name, switch in deployments["codegen"].switches.items()
                for table, counts in switch.index_counts().items()}

    def reported():
        return [len(deployments[engine].reports) for engine in ENGINES]

    try:
        walk()  # warm
        fills, clears = memo_counts("memo_fills"), memo_counts("memo_clears")
        before = reported()
        del searched[:]
        assert walk() == {engine: 3 for engine in ENGINES}
        assert searched == [] and memo_counts("memo_fills") == fills
        assert reported() == before
        table = "ih_vlan_isolation_vlan_configured_tbl1"
        warm = {name for name, switch
                in deployments["codegen"].switches.items()
                if switch._engine.tables[table].memo}
        assert warm == {"leaf1", "spine1", "leaf2"}
        for deployment in deployments.values():
            deployment.dict_remove("vlan_configured", 0)
        assert {key: n - clears[key] for key, n
                in memo_counts("memo_clears").items() if n != clears[key]
                } == {(name, table): 1 for name in warm}
        assert len(set(walk().values())) == 1
        # One search per hop (the last one rejects the packet), each
        # memoising the miss where the hit was.
        assert searched == [table] * 3
        after = reported()
        assert after[0] == after[1] > before[0]
    finally:
        # The fixture is the module's: leave it as configured.
        for deployment in deployments.values():
            deployment.dict_put("vlan_configured", 0, True)


def test_source_route_pop_owns_the_slots_it_rewrites():
    program = source_routing()
    switches = [Bmv2Switch(program, engine=engine) for engine in ENGINES]
    inner = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1, 2)
    first = make_source_routed([2, 3, 4], inner)
    second = make_source_routed([7], inner)
    run_interleaved(switches, first, second, port=1)
    source = switches[1]._engine.source
    assert ".copy()" not in source and "dict(_nx)" in source


def campus_slice(topology):
    """The head of ``fabric_checked``'s replay: the campus trace
    re-addressed h1 -> h3 (~100 packets)."""
    from repro.experiments.throughput import ReplayFeed
    from repro.workloads.campus import CampusTraceGenerator
    hosts = topology.hosts
    feed = ReplayFeed(CampusTraceGenerator(seed=5, reuse_packets=True),
                      src_ip=hosts["h1"].ipv4, dst_ip=hosts["h3"].ipv4,
                      rate_pps=100_000.0, duration_s=0.001)
    return [packet for _, packet in feed.emissions()]


def locals_at_return(code, call):
    """``call()``, and the locals of the last frame running ``code`` as
    it returned."""
    seen = {}

    def on_return(frame, event, arg):
        if event == "return":
            seen.clear()
            seen.update(frame.f_locals)

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False
        return on_return

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, seen


def binds_of(frame):
    """``{index: {"h", "hv", "v", "o"}}``: each bind's four locals."""
    binds = {}
    for name, value in frame.items():
        m = re.fullmatch(r"(hv|h|v|o)(\d+)(?:_\w*)?", name)
        if m:
            binds.setdefault(int(m[2]), {})[m[1]] = value
    return binds


def test_the_deparser_boxes_exactly_the_owned_binds(fabrics):
    """The inline box keeps the ownership contract on a campus slice
    through the all-checkers leaf1, spine and leaf2 pipelines, read off
    ``_process``'s frame as it returns: an owned bind goes out as a
    fresh valid ``Header`` over the frame's own dict (neither the input
    header's nor a shared blank's), an untouched one as the input
    header itself, nothing else is emitted but the unparsed tail, and
    the interpreter emits the same fields."""
    topology, deployments = fabrics
    hosts = topology.hosts
    tally = {"owned": 0, "untouched": 0}
    for packet in campus_slice(topology):
        end = topology.host_attachment("h1")
        while end.node not in hosts:
            switch = deployments["codegen"].switches[end.node]
            want = deployments["interp"].switches[end.node].process(
                packet, end.port)
            outputs, frame = locals_at_return(
                switch._engine._run.__code__,
                lambda: switch.process(packet, end.port))
            assert output_fields(outputs) == output_fields(want)
            (port, out), = outputs
            inputs = {id(h) for h in packet.headers}
            foreign = ({id(h.values) for h in packet.headers}
                       | {id(b.values) for b in shared_blanks(switch)})
            emitted = {id(h) for h in out.headers}
            for h in out.headers:
                assert type(h) is Header and h.valid is True, end.node
            boxes = set()
            for bind in binds_of(frame).values():
                if not bind["v"]:
                    continue
                header = bind["h"]
                assert id(header) in emitted
                if bind["o"]:
                    assert id(header) not in inputs, end.node
                    assert header.values is bind["hv"]
                    assert id(header.values) not in foreign, end.node
                    boxes.add(id(header))
                    tally["owned"] += 1
                else:
                    assert id(header) in inputs, end.node
                    tally["untouched"] += 1
            assert emitted <= inputs | boxes
            packet = out
            end = topology.peer(end.node, port)
        assert end.node == "h3"
    assert tally["owned"] and tally["untouched"], tally
    for name, switch in deployments["codegen"].switches.items():
        source = switch._engine.source
        assert "_box" not in source and "__setattr__" not in source, name
        assert " = _HNEW(_HDR); " in source, name


# ---------------------------------------------------------------------------
# Header life-cycles: validity, values and identity through a pipeline
# ---------------------------------------------------------------------------

LIFE = {bind: HeaderType(f"life_{bind}", [("f", 8), ("g", 16)])
        for bind in "abc"}

_binds = st.sampled_from("abc")
_fields = st.sampled_from(("f", "g"))
_metas = st.sampled_from(("m0", "m1"))
_leaf = st.one_of(
    st.tuples(st.just("valid"), _binds),
    st.tuples(st.just("invalid"), _binds),
    st.tuples(st.just("write"), _binds, _fields, st.one_of(
        st.integers(0, 3), st.tuples(_binds, _fields), _metas)),
    st.tuples(st.just("read"), _metas, _binds, _fields))
#: Op lists; ``("if", bind, then, else)`` branches on ``isValid``.
_block = st.recursive(
    st.lists(_leaf, max_size=4),
    lambda inner: st.lists(st.one_of(_leaf, st.tuples(
        st.just("if"), _binds, inner, inner)), max_size=4),
    max_leaves=10)
#: (ingress ops, where ``("apply",)`` applies the table; the body of
#: its hit action; the body of its default action).
_life_scripts = st.tuples(
    st.lists(st.one_of(_block.map(lambda ops: ("if", "a", ops, ops)),
                       _leaf, st.just(("apply",))), max_size=6),
    _block, _block)
#: Per header of the stack a, b, c: (carried valid?, f, g); a shorter
#: list lacks the rest.
_life_stacks = st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                                  st.integers(0, 3)), max_size=3)


def life_stmts(ops):
    out = []
    for op in ops:
        if op[0] == "valid":
            out.append(ir.SetValid(op[1]))
        elif op[0] == "invalid":
            out.append(ir.SetInvalid(op[1]))
        elif op[0] == "write":
            src = op[3]
            value = (ir.Const(src, 16) if isinstance(src, int)
                     else ir.FieldRef(f"meta.{src}") if isinstance(src, str)
                     else ir.FieldRef(f"hdr.{src[0]}.{src[1]}"))
            out.append(ir.AssignStmt(f"hdr.{op[1]}.{op[2]}", value))
        elif op[0] == "read":
            out.append(ir.AssignStmt(f"meta.{op[1]}",
                                     ir.FieldRef(f"hdr.{op[2]}.{op[3]}")))
        elif op[0] == "if":
            out.append(ir.IfStmt(ir.ValidRef(op[1]), life_stmts(op[2]),
                                 life_stmts(op[3])))
        else:
            out.append(ir.ApplyTable("t"))
    return out


def life_program(script):
    """The script over the stack a, b, c (one parser state, so a
    missing header rejects with the earlier ones bound); what metadata
    and validity came to goes out as a digest, and ``m1 == 2`` drops."""
    body, hit, miss = script
    program = ir.P4Program(
        name="life",
        parser=ir.ParserSpec(states=[ir.ParserState("start", extracts=[
            ir.Extract(bind, LIFE[bind]) for bind in "abc"])]),
        metadata=[("m0", 16), ("m1", 16)], emit_order=list("abc"))
    program.add_action(ir.Action("on_hit", body=life_stmts(hit)))
    program.add_action(ir.Action("on_miss", body=life_stmts(miss)))
    program.add_table(ir.Table(
        "t", keys=[ir.TableKey("hdr.a.f", ir.MatchKind.EXACT)],
        actions=["on_hit", "on_miss"], default_action=("on_miss", [])))
    program.ingress = life_stmts(body) + [
        ir.Digest("state", [ir.FieldRef("meta.m0"), ir.FieldRef("meta.m1")]
                  + [ir.ValidRef(bind) for bind in "abc"]),
        ir.AssignStmt("standard_metadata.egress_spec", ir.Const(1, 9)),
        ir.IfStmt(ir.BinExpr("==", ir.FieldRef("meta.m1"), ir.Const(2, 16),
                             1), [ir.MarkToDrop()])]
    return program


def touched_binds(switch, packet):
    """Run ``packet`` through the reference engine; its outputs and the
    binds whose fields it wrote or that it (re)validated."""
    from repro.p4.bmv2 import PacketContext
    touched = set()
    write, run = PacketContext.write, Bmv2Switch._exec

    def spy_write(ctx, path, value):
        if path.startswith("hdr."):
            touched.add(path.split(".")[1])
        write(ctx, path, value)

    def spy_exec(self, stmt, ctx):
        if isinstance(stmt, ir.SetValid):
            touched.add(stmt.header)
        run(self, stmt, ctx)

    PacketContext.write, Bmv2Switch._exec = spy_write, spy_exec
    try:
        return switch.process(packet, 1), touched
    finally:
        PacketContext.write, Bmv2Switch._exec = write, run


@settings(max_examples=200, deadline=None)
@given(script=_life_scripts, stacks=st.lists(_life_stacks, min_size=1,
                                             max_size=4))
# setInvalid -> setValid with no write in between: the values persist.
@example(script=([("invalid", "a"), ("valid", "a"), ("invalid", "b"),
                  ("read", "m0", "b", "g"), ("valid", "b")], [], []),
         stacks=[[(True, 1, 2), (True, 3, 3)], [(False, 1, 2)], []])
# setInvalid of a header the frame already wrote, in an action arm, and
# its values read back after a later setValid; c revalidated untouched.
@example(script=([("write", "a", "g", 3), ("apply",), ("valid", "a"),
                  ("read", "m1", "a", "g"), ("invalid", "c"),
                  ("if", "c", [], [("valid", "c")])],
                 [("invalid", "a")], [("write", "b", "f", ("a", "g"))]),
         stacks=[[(True, 1, 0), (True, 0, 0), (True, 2, 2)],
                 [(True, 0, 0), (False, 0, 1), (False, 2, 2)]])
# Found by this test: a metadata store before an apply whose arms may
# leave the field alone (a miss; a branching action) was taken for dead.
@example(script=([("valid", "a"), ("read", "m0", "a", "f"), ("apply",)],
                 [("read", "m0", "a", "f")],
                 [("if", "a", [], [("read", "m0", "a", "f")])]),
         stacks=[[(False, 2, 0)]])
def test_header_life_cycles_agree_and_share_by_identity(script, stacks):
    """Random setValid / setInvalid / field write / field read /
    isValid-branch programs, an apply whose arms do the same, over
    stacks that lack a header, carry it, or carry it *invalid*: the
    engines agree on wire bytes, digests and drop; the input is never
    written through; and the codegen engine hands an untouched header
    on as the very object it was given, a written or (re)validated one
    as a fresh object that is never the shared blank."""
    program = life_program(script)
    switches = [Bmv2Switch(program, engine=engine) for engine in ENGINES]
    for sw in switches:
        sw.insert_entry("t", [1], "on_hit")
    for stack in stacks:
        packet = Packet(headers=[LIFE[bind](f=f, g=g) for bind, (_, f, g)
                                 in zip("abc", stack)], payload_len=5)
        for header, (valid, _, _) in zip(packet.headers, stack):
            header.valid = valid
        before = snapshot(packet), repr(packet)
        want, touched = touched_binds(switches[0], packet)
        got = switches[1].process(packet, 1)
        assert serialize_outputs(got) == serialize_outputs(want)
        assert switches[1].digests == switches[0].digests
        assert (snapshot(packet), repr(packet)) == before
        assert_blanks_untouched(switches[1])
        given_ = {h.htype: h for h in packet.headers}
        for _, out in got:
            for header in out.headers:
                bind = header.htype.name[-1]
                assert (header is given_.get(header.htype)) == (
                    bind not in touched), (bind, touched)
                assert all(header is not blank
                           for blank in shared_blanks(switches[1]))


# ---------------------------------------------------------------------------
# Parser equivalence (the two engines accept, reject and extract alike)
# ---------------------------------------------------------------------------

ALIEN = HeaderType("alien", [("x", 8)])


def parse_probe(parser):
    """``parser`` in front of a pipeline that forwards everything: the
    output is exactly the valid binds, in bind order, plus the tail."""
    return ir.P4Program(
        name="probe", parser=parser,
        ingress=[ir.AssignStmt("standard_metadata.egress_spec",
                               ir.Const(1, 9))])


def select_values(parser):
    values = {tr.value for state in parser.states
              for tr in state.transitions if tr.value is not None}
    return sorted(values)


def draw_stack(data, parser):
    """A header stack the parser accepts along some drawn path, then
    damaged: truncated, extended, reordered, a header doubled, a select
    field or a validity bit changed."""
    by_name = {state.name: state for state in parser.states}
    pool = [ex.htype for state in parser.states for ex in state.extracts]
    pool.append(ALIEN)
    headers = []
    name = parser.start
    for _ in range(24):
        state = by_name.get(name)
        if state is None:
            break
        made = {}
        for ex in state.extracts:
            if isinstance(ex, ir.Extract):
                made[ex.bind] = ex.htype()
                headers.append(made[ex.bind])
            else:
                depth = data.draw(st.integers(0, ex.max_depth + 2))
                closed = data.draw(st.booleans())
                for i in range(depth):
                    last = closed and i == depth - 1
                    headers.append(ex.htype(**{ex.loop_field: int(last)}))
        if not state.transitions:
            break
        tr = data.draw(st.sampled_from(state.transitions))
        if tr.field_path is not None:
            _, bind, fname = tr.field_path.split(".")
            if bind in made:
                made[bind].set(fname, tr.value)
        name = tr.next_state
    values = select_values(parser) + [0, 1, 0xFFFF]
    for op in data.draw(st.lists(st.sampled_from(
            ["truncate", "extend", "swap", "double", "select", "invalid"]),
            max_size=3)):
        if op == "extend":
            headers.extend(data.draw(st.sampled_from(pool))() for _ in
                           range(data.draw(st.integers(1, 3))))
        if not headers:
            continue
        at = data.draw(st.integers(0, len(headers) - 1))
        if op == "truncate":
            del headers[at:]
        elif op == "swap":
            other = data.draw(st.integers(0, len(headers) - 1))
            headers[at], headers[other] = headers[other], headers[at]
        elif op == "double":
            headers.insert(at, headers[at].copy())
        elif op == "select":
            fname = data.draw(st.sampled_from(
                [f.name for f in headers[at].htype.fields]))
            headers[at].set(fname, data.draw(st.sampled_from(values)))
        elif op == "invalid":
            headers[at].valid = False
    return Packet(headers=headers, payload_len=20)


def assert_engines_agree(switches, packet, port=1):
    before = snapshot(packet)
    results = []
    for sw in switches:
        try:
            results.append(serialize_outputs(sw.process(packet, port)))
        except P4RuntimeError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    assert snapshot(packet) == before


PARSERS = {
    "ipv4": lambda: l2_port_forwarding().parser,
    "vlan": lambda: vlan_l2_forwarding().parser,
    "ecmp": lambda: ecmp_fabric().parser,
    "source_routing": lambda: source_routing().parser,
    "upf": lambda: upf_program().parser,
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_program_parsers_extract_alike(name, data):
    parser = PARSERS[name]()
    switches = [Bmv2Switch(parse_probe(parser), engine=engine)
                for engine in ENGINES]
    assert_engines_agree(switches, draw_stack(data, parser))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_all_checkers_parser_extracts_and_forwards_alike(fabrics, data):
    """The UPF + 11-checker parser on damaged stacks: first through a
    forward-everything probe (which binds are valid, their values, the
    tail), then through the deployed leaf (drop or forward)."""
    _, deployments = fabrics
    leaves = [deployments[engine].switches["leaf1"] for engine in ENGINES]
    parser = leaves[0].program.parser
    probes = [Bmv2Switch(parse_probe(parser), engine=engine)
              for engine in ENGINES]
    packet = draw_stack(data, parser)
    assert_engines_agree(probes, packet)
    assert_engines_agree(leaves, packet, port=1)
    assert "while True" not in leaves[1]._engine.source


X = HeaderType("x", [("next", 8)])
Y = HeaderType("y", [("next", 8)])


def cyclic_program():
    """x* (y x*)*: ``next == 1`` loops on x, ``next == 2`` goes to y,
    which falls forward to x again — one self edge, one back edge."""
    return parse_probe(ir.ParserSpec(states=[
        ir.ParserState("start", extracts=[ir.Extract("x", X)], transitions=[
            ir.Transition("start", "hdr.x.next", 1),
            ir.Transition("more", "hdr.x.next", 2)]),
        ir.ParserState("more", extracts=[ir.Extract("y", Y)], transitions=[
            ir.Transition("start")]),
    ]))


@pytest.mark.parametrize("visits, terminates", [(64, True), (65, False)])
@pytest.mark.parametrize("shape", ["self_loop", "two_states"])
def test_cyclic_parse_graph_keeps_the_64_visit_guard(shape, visits,
                                                     terminates):
    if shape == "self_loop":
        headers = [X(next=1) for _ in range(visits - 1)] + [X(next=0)]
    else:  # x y x y ... x: forward edge and back edge, a visit a header
        pairs = (visits - 1) // 2
        headers = [X(next=2), Y()] * pairs
        headers += [X(next=1)] * (visits - 2 * pairs - 1) + [X(next=0)]
    packet = Packet(headers=headers, payload_len=0)
    program = cyclic_program()
    for engine in ENGINES:
        switch = Bmv2Switch(program, engine=engine)
        if terminates:
            (_, out), = switch.process(packet, 1)
            # Each bind keeps the last header extracted into it; nothing
            # is left for the tail.
            assert len(out.headers) == (1 if shape == "self_loop" else 2)
        else:
            with pytest.raises(P4RuntimeError,
                               match="parser did not terminate"):
                switch.process(packet, 1)
    assert "while True" in switch._engine.source


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cyclic_parser_extracts_alike(data):
    program = cyclic_program()
    switches = [Bmv2Switch(program, engine=engine) for engine in ENGINES]
    assert_engines_agree(switches, draw_stack(data, program.parser))


@pytest.mark.parametrize("hops", [1, 2, 8, 9, 11])
def test_header_stack_extracts_alike(hops):
    """ExtractStack (source routing): up to, at and past max depth."""
    program = source_routing()
    inner = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1, 2)
    packet = make_source_routed(list(range(1, hops + 1)), inner)
    switches = [Bmv2Switch(program, engine=engine) for engine in ENGINES]
    for _ in range(hops + 1):
        assert_engines_agree(switches, packet)
        outputs = switches[0].process(packet, 1)
        if not outputs:
            break
        (_, packet), = outputs
