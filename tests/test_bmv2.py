"""Behavioral model tests: parsing, pipeline execution, tables,
registers, digests, header stacks, and the control API."""

import pytest

from repro.aether.upf import upf_program
from repro.net.packet import (ETH_TYPE_IPV4, ETH_TYPE_VLAN, ETHERNET, IPV4,
                              VLAN, ip, make_source_routed, make_udp)
from repro.p4 import ENGINES, ir, programs
from repro.p4.bmv2 import Bmv2Switch, P4RuntimeError
from repro.p4.programs import (ecmp_fabric, ipv4_lpm_forwarding,
                               l2_port_forwarding, source_routing,
                               vlan_l2_forwarding)


def l2_switch():
    sw = Bmv2Switch(l2_port_forwarding(), name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry("fwd_table", [2], "fwd_set_egress", [1])
    return sw


def test_l2_forwarding_by_ingress_port():
    sw = l2_switch()
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    out = sw.process(packet, 1)
    assert len(out) == 1 and out[0][0] == 2
    out = sw.process(packet, 2)
    assert out[0][0] == 1


def test_default_action_drops_unknown_port():
    sw = l2_switch()
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    assert sw.process(packet, 9) == []
    assert sw.packets_dropped == 1


def test_processing_does_not_mutate_input_packet():
    sw = Bmv2Switch(ipv4_lpm_forwarding(), name="s1")
    sw.insert_entry("ipv4_lpm", [(ip(2, 2, 2, 2), 32)], "ipv4_forward",
                    [0xAABB, 3])
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, ttl=64)
    out = sw.process(packet, 1)
    assert packet.find("ipv4").get("ttl") == 64     # original untouched
    assert out[0][1].find("ipv4").get("ttl") == 63  # output decremented


def _vlan_tagged():
    packet = make_udp(1, 2, 3, 4)
    packet.insert_after("ethernet", VLAN(vid=42, eth_type=ETH_TYPE_IPV4))
    packet.find("ethernet").set("eth_type", ETH_TYPE_VLAN)
    return packet


#: Program -> (its entries, a packet it forwards): every program in
#: ``repro.p4.programs``, and the Aether fabric-upf baseline.
FORWARDED = {
    "l2_port_forwarding": (
        [("fwd_table", [1], "fwd_set_egress", [2])],
        lambda: make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)),
    "vlan_l2_forwarding": (
        [("fwd_table", [1], "fwd_set_egress", [2])], _vlan_tagged),
    "ipv4_lpm_forwarding": (
        [("ipv4_lpm", [(ip(2, 2, 2, 2), 32)], "ipv4_forward", [0xAABB, 3])],
        lambda: make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)),
    "source_routing": (
        [], lambda: make_source_routed(
            [4, 7], make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2))),
    "ecmp_fabric": (
        [("routes", [(0, 0)], "route_ecmp", [2]),
         ("ecmp_table", [0], "ecmp_set_port", [3]),
         ("ecmp_table", [1], "ecmp_set_port", [4])],
        lambda: make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)),
    "upf_program": (
        [("upf_routes", [(ip(2, 2, 2, 2), 32)], "upf_route", [2])],
        lambda: make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)),
}


def test_forwarded_cases_cover_every_bundled_program():
    assert {name for name, value in vars(programs).items()
            if callable(value) and not name.startswith("_")
            and value.__module__ == programs.__name__} \
        == FORWARDED.keys() - {"upf_program"}


@pytest.mark.parametrize("name", sorted(FORWARDED))
def test_interp_outputs_share_no_header_with_the_input(name):
    """The reference engine is the plain reading of the IR: it copies
    the packet it is handed, so no output shares a ``Header`` with the
    input, whether or not the program writes one."""
    build = upf_program if name == "upf_program" else getattr(programs, name)
    entries, make_packet = FORWARDED[name]
    sw = Bmv2Switch(build(), name="s1", engine="interp")
    for entry in entries:
        sw.insert_entry(*entry)
    packet = make_packet()
    outputs = sw.process(packet, 1)
    assert outputs
    inputs = {id(header) for header in packet.headers}
    for _, out in outputs:
        assert not inputs & {id(header) for header in out.headers}


def test_lpm_longest_prefix_wins():
    sw = Bmv2Switch(ipv4_lpm_forwarding(), name="s1")
    sw.insert_entry("ipv4_lpm", [(ip(10, 0, 0, 0), 8)], "ipv4_forward",
                    [1, 1])
    sw.insert_entry("ipv4_lpm", [(ip(10, 0, 1, 0), 24)], "ipv4_forward",
                    [2, 2])
    packet = make_udp(ip(9, 9, 9, 9), ip(10, 0, 1, 5), 1, 2)
    assert sw.process(packet, 1)[0][0] == 2
    packet = make_udp(ip(9, 9, 9, 9), ip(10, 0, 9, 5), 1, 2)
    assert sw.process(packet, 1)[0][0] == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_an_lpm_key_on_a_field_not_32_bits_wide_is_refused(engine):
    """Both engines mask LPM keys at 32 bits: on a 16-bit key a
    ``(0x1234, 16)`` entry would forward dst port 0x9999."""
    program = programs.l2_port_forwarding()
    program.tables["fwd_table"].keys = [
        ir.TableKey("hdr.udp.dst_port", ir.MatchKind.LPM)]
    with pytest.raises(P4RuntimeError, match="'hdr.udp.dst_port' is 16 bits"):
        Bmv2Switch(program, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec", [(ip(10, 0, 0, 0), 40), (ip(10, 0, 0, 0), -1),
                                  (1 << 32, 8), (-1, 8), 5,
                                  (ip(10, 0, 0, 0), 8.0)],
                         ids=["plen40", "plen-1", "prefix2**32", "prefix-1",
                              "not-a-pair", "float-plen"])
def test_an_lpm_spec_outside_32_bits_installs_nothing(engine, spec):
    sw = Bmv2Switch(ipv4_lpm_forwarding(), name="s1", engine=engine)
    good = ([(ip(10, 0, 0, 0), 8)], "ipv4_forward", [1, 1], 0)
    bad = ([spec], "ipv4_forward", [2, 2], 0)
    with pytest.raises(P4RuntimeError, match="LPM spec"):
        sw.insert_entries("ipv4_lpm", [good, bad])
    assert sw.entries["ipv4_lpm"] == []
    packet = make_udp(ip(9, 9, 9, 9), ip(10, 0, 1, 5), 1, 2)
    assert sw.process(packet, 1) == []  # the default drops it
    sw.insert_entries("ipv4_lpm", [good])
    assert sw.process(packet, 1)[0][0] == 1


def test_range_priority_higher_wins():
    program = ir.P4Program(name="p", parser=ir.ParserSpec(states=[
        ir.ParserState("start", [ir.Extract("ethernet", ETHERNET)],
                       [ir.Transition(ir.ACCEPT)]),
    ]))
    program.emit_order = ["ethernet"]
    program.add_action(ir.Action("set_port", [("port", 9)], [
        ir.AssignStmt("standard_metadata.egress_spec",
                      ir.FieldRef("param.port"))]))
    program.add_table(ir.Table(
        "t", [ir.TableKey("standard_metadata.ingress_port",
                          ir.MatchKind.RANGE)],
        actions=["set_port"]))
    program.ingress = [ir.ApplyTable("t")]
    sw = Bmv2Switch(program)
    sw.insert_entry("t", [(0, 100)], "set_port", [1], priority=1)
    sw.insert_entry("t", [(5, 10)], "set_port", [2], priority=10)
    packet = make_udp(1, 2, 3, 4)
    assert sw.process(packet, 7)[0][0] == 2   # higher priority
    assert sw.process(packet, 50)[0][0] == 1  # only the wide entry


def test_non_ipv4_dropped_by_lpm_program():
    sw = Bmv2Switch(ipv4_lpm_forwarding(), name="s1")
    packet = make_udp(1, 2, 3, 4)
    packet.find("ethernet").set("eth_type", 0x9999)
    packet.remove("ipv4")
    assert sw.process(packet, 1) == []


def test_source_routing_pops_and_forwards():
    sw = Bmv2Switch(source_routing(), name="s1")
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    packet = make_source_routed([4, 7], inner)
    port, out = sw.process(packet, 1)[0]
    assert port == 4
    entries = out.find_all("srcRoute")
    assert [e.values for e in entries] == [{"bos": 1, "port": 7}]


def test_source_routing_restores_ethertype_on_last_pop():
    sw = Bmv2Switch(source_routing(), name="s1")
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    packet = make_source_routed([4], inner)
    port, out = sw.process(packet, 1)[0]
    assert port == 4
    assert out.find_all("srcRoute") == []
    assert out.find("ethernet").get("eth_type") == ETH_TYPE_IPV4


def test_source_routing_drops_without_stack():
    sw = Bmv2Switch(source_routing(), name="s1")
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    assert sw.process(packet, 1) == []


def test_ecmp_spreads_flows():
    sw = Bmv2Switch(ecmp_fabric(), name="leaf")
    sw.insert_entry("routes", [(0, 0)], "route_ecmp", [2])
    sw.insert_entry("ecmp_table", [0], "ecmp_set_port", [3])
    sw.insert_entry("ecmp_table", [1], "ecmp_set_port", [4])
    ports = set()
    for sport in range(40):
        packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), sport, 80)
        ports.add(sw.process(packet, 1)[0][0])
    assert ports == {3, 4}


def test_ecmp_is_per_flow_deterministic():
    sw = Bmv2Switch(ecmp_fabric(), name="leaf")
    sw.insert_entry("routes", [(0, 0)], "route_ecmp", [2])
    sw.insert_entry("ecmp_table", [0], "ecmp_set_port", [3])
    sw.insert_entry("ecmp_table", [1], "ecmp_set_port", [4])
    first = [sw.process(make_udp(1, 2, 1000, 80), 1)[0][0]
             for _ in range(5)]
    assert len(set(first)) == 1


def test_vlan_parsing():
    from repro.net.packet import ETH_TYPE_VLAN, VLAN

    sw = Bmv2Switch(vlan_l2_forwarding(), name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    packet = make_udp(1, 2, 3, 4)
    ether = packet.find("ethernet")
    vlan = VLAN(vid=42, eth_type=ETH_TYPE_IPV4)
    packet.insert_after("ethernet", vlan)
    ether.set("eth_type", ETH_TYPE_VLAN)
    out = sw.process(packet, 1)
    assert out[0][1].find("vlan").get("vid") == 42


# ---------------------------------------------------------------------------
# Registers and digests
# ---------------------------------------------------------------------------

def register_program():
    program = ir.P4Program(name="regs", parser=ir.ParserSpec(states=[
        ir.ParserState("start", [ir.Extract("ethernet", ETHERNET)],
                       [ir.Transition(ir.ACCEPT)]),
    ]))
    program.emit_order = ["ethernet"]
    program.add_register(ir.RegisterDef("counter", 32, 4))
    program.metadata = [("scratch", 32)]
    program.ingress = [
        ir.RegisterRead("meta.scratch", "counter", ir.Const(1, 32)),
        ir.AssignStmt("meta.scratch",
                      ir.BinExpr("+", ir.FieldRef("meta.scratch"),
                                 ir.Const(1, 32), 32)),
        ir.RegisterWrite("counter", ir.Const(1, 32),
                         ir.FieldRef("meta.scratch")),
        ir.Digest("count_report", [ir.FieldRef("meta.scratch")]),
        ir.AssignStmt("standard_metadata.egress_spec", ir.Const(2, 9)),
    ]
    return program


def test_register_read_modify_write_persists():
    sw = Bmv2Switch(register_program())
    packet = make_udp(1, 2, 3, 4)
    for expected in (1, 2, 3):
        sw.process(packet, 1)
        assert sw.register_read("counter", 1) == expected
    assert sw.register_read("counter", 0) == 0  # untouched index


def test_register_out_of_range_reads_zero_and_drops_writes():
    program = register_program()
    program.ingress[0] = ir.RegisterRead("meta.scratch", "counter",
                                         ir.Const(99, 32))
    program.ingress[2] = ir.RegisterWrite("counter", ir.Const(99, 32),
                                          ir.Const(5, 32))
    sw = Bmv2Switch(program)
    sw.process(make_udp(1, 2, 3, 4), 1)
    assert all(v == 0 for v in sw.registers["counter"])


def test_digest_listeners_and_log():
    sw = Bmv2Switch(register_program(), name="sw7")
    seen = []
    sw.on_digest(seen.append)
    sw.process(make_udp(1, 2, 3, 4), 1)
    assert len(sw.digests) == 1
    assert seen[0].name == "count_report"
    assert seen[0].values == [1]
    assert seen[0].switch_name == "sw7"


def test_register_write_masks_to_width():
    program = register_program()
    program.registers[0] = ir.RegisterDef("counter", 8, 4)
    sw = Bmv2Switch(program)
    sw.register_write("counter", 0, 0x1FF)
    assert sw.register_read("counter", 0) == 0xFF


# ---------------------------------------------------------------------------
# Control API validation
# ---------------------------------------------------------------------------

def test_insert_into_unknown_table_rejected():
    sw = l2_switch()
    with pytest.raises(P4RuntimeError):
        sw.insert_entry("ghost", [1], "fwd_set_egress", [2])


def test_wrong_action_arity_rejected():
    sw = Bmv2Switch(l2_port_forwarding())
    with pytest.raises(P4RuntimeError):
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2, 3])


def test_wrong_match_arity_rejected():
    sw = Bmv2Switch(l2_port_forwarding())
    with pytest.raises(P4RuntimeError):
        sw.insert_entry("fwd_table", [1, 2], "fwd_set_egress", [2])


def test_unknown_action_rejected():
    sw = Bmv2Switch(l2_port_forwarding())
    with pytest.raises(P4RuntimeError):
        sw.insert_entry("fwd_table", [1], "ghost_action", [])


def test_delete_entry():
    sw = l2_switch()
    entry = sw.entries["fwd_table"][0]
    sw.delete_entry("fwd_table", entry)
    with pytest.raises(P4RuntimeError):
        sw.delete_entry("fwd_table", entry)


@pytest.mark.parametrize("engine", ENGINES)
def test_delete_entries_removes_one_installed_copy_per_mention(engine):
    """An object installed twice is removed once per mention, the
    remaining copy still matches, and a batch naming an object more times
    than it is installed is refused whole."""
    sw = Bmv2Switch(upf_program("fabric_upf"), engine=engine)
    route = ir.TableEntry([(0, 0)], "upf_route", [2])
    other = ir.TableEntry([(ip(10, 0, 0, 0), 8)], "upf_route", [3])
    sw.insert_entries("upf_routes", [route, other, route])
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    assert [port for port, _ in sw.process(packet, 1)] == [2]

    sw.delete_entries("upf_routes", [route])
    assert sw.entries["upf_routes"] == [other, route]
    assert sw.entries["upf_routes"][1] is route
    assert [port for port, _ in sw.process(packet, 1)] == [2]

    for batch in ([route, route], [other, route, route]):
        with pytest.raises(P4RuntimeError, match="entry not installed"):
            sw.delete_entries("upf_routes", batch)
        assert sw.entries["upf_routes"] == [other, route]
    assert [port for port, _ in sw.process(packet, 1)] == [2]

    sw.delete_entries("upf_routes", [route])
    assert sw.entries["upf_routes"] == [other]
    assert sw.process(packet, 1) == []


def test_clear_table():
    sw = l2_switch()
    sw.clear_table("fwd_table")
    assert sw.entries["fwd_table"] == []


def test_reading_invalid_header_yields_zero():
    # A packet without IPv4 parsed: reads of hdr.ipv4.* are 0 (bmv2-like).
    program = l2_port_forwarding()
    program.ingress.append(ir.AssignStmt(
        "standard_metadata.egress_spec",
        ir.BinExpr("+", ir.FieldRef("hdr.ipv4.ttl"), ir.Const(2, 9), 9)))
    sw = Bmv2Switch(program)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [7])
    packet = make_udp(1, 2, 3, 4)
    packet.find("ethernet").set("eth_type", 0x9999)
    packet.remove("ipv4")
    packet.remove("udp")
    assert sw.process(packet, 1)[0][0] == 2  # 0 + 2


def test_unparsed_tail_is_preserved():
    """Headers beyond the parse graph travel opaquely and re-emit."""
    sw = l2_switch()
    inner = make_udp(1, 2, 3, 4)
    packet = make_source_routed([9], inner)  # srcRoute unknown to l2fwd
    out = sw.process(packet, 1)
    names = [h.name for h in out[0][1].headers]
    assert "srcRoute" in names


def test_parser_cycle_guard():
    """A malformed parse graph that never reaches accept is detected
    rather than looping forever."""
    program = ir.P4Program(name="cyclic", parser=ir.ParserSpec(states=[
        ir.ParserState("start", [], [ir.Transition("start")]),
    ]))
    sw = Bmv2Switch(program)
    with pytest.raises(P4RuntimeError):
        sw.process(make_udp(1, 2, 3, 4), 1)


def test_parse_reject_leaves_headers_in_tail():
    """A packet the parse graph cannot consume keeps all its headers as
    opaque tail and is still forwarded by port-based logic."""
    program = l2_port_forwarding()
    # Force the parser to expect IPv4 immediately (no Ethernet state).
    program.parser = ir.ParserSpec(states=[
        ir.ParserState("start", [ir.Extract("ipv4", IPV4)],
                       [ir.Transition(ir.ACCEPT)]),
    ])
    program.emit_order = ["ipv4"]
    sw = Bmv2Switch(program)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    out = sw.process(packet, 1)
    names = [h.name for h in out[0][1].headers]
    assert names == ["ethernet", "ipv4", "udp"]  # tail preserved intact


def test_egress_spec_drop_port():
    from repro.p4.bmv2 import DROP_PORT

    program = l2_port_forwarding()
    sw = Bmv2Switch(program)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [DROP_PORT])
    assert sw.process(make_udp(1, 2, 3, 4), 1) == []


def test_action_params_scoped_per_invocation():
    """Nested action invocations restore the caller's parameters."""
    program = l2_port_forwarding()
    sw = Bmv2Switch(program)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [5])
    sw.insert_entry("fwd_table", [2], "fwd_set_egress", [6])
    assert sw.process(make_udp(1, 2, 3, 4), 1)[0][0] == 5
    assert sw.process(make_udp(1, 2, 3, 4), 2)[0][0] == 6
