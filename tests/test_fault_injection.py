"""Fault-injection tests: the paper's motivating claim is that runtime
verification catches what static checking cannot — control-plane bugs
that install wrong entries, data-plane/hardware faults that corrupt
state, and forwarding-code bugs.  Each test injects such a fault into
an otherwise healthy deployment and asserts the relevant Hydra checker
catches it (while a healthy control run stays quiet)."""

import pytest

from repro.compiler import compile_program
from repro.net.packet import ip, make_udp
from repro.net.topology import leaf_spine, single_switch
from repro.p4 import ir
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding
from repro.properties import compile_property
from repro.runtime.deployment import HydraDeployment


def l2_map(topology):
    return {name: l2_port_forwarding(f"l2_{name}") for name in topology.switches}


def build_line_fabric(compiled):
    """h1 - leaf1 - spine1 - leaf2 - h3 static path, plus the reverse."""
    topology = leaf_spine(2, 2, 2)
    deployment = HydraDeployment(topology, compiled, l2_map(topology))
    switches = deployment.switches
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    switches["leaf2"].insert_entry("fwd_table", [3], "fwd_set_egress", [1])
    return topology, deployment


def send_h1_h3(topology, deployment):
    network = deployment.network
    packet = make_udp(topology.hosts["h1"].ipv4, topology.hosts["h3"].ipv4,
                      1000, 2000)
    dest = network.host("h3")
    before = dest.rx_count
    network.host("h1").send(packet)
    network.run()
    return dest.rx_count > before


def test_misdelivery_caught_by_egress_port_validity():
    """A bit-flipped forwarding entry sends traffic out the wrong port;
    the egress-port-validity checker rejects it at the edge."""
    compiled = compile_property("egress_port_validity")
    topology, deployment = build_line_fabric(compiled)
    for switch in topology.switches:
        for port in topology.ports_of(switch):
            deployment.set_add("allowed_ports", port, switch=switch)
    assert send_h1_h3(topology, deployment)  # healthy

    # Hardware fault: the installed egress port flips 1 -> 2 on leaf2
    # (delivering h3's traffic to h4's port, a tenant violation).
    leaf2 = deployment.switches["leaf2"]
    entry = leaf2.entries["fwd_table"][0]
    leaf2.delete_entry("fwd_table", entry)
    leaf2.insert_entry("fwd_table", [3], "fwd_set_egress", [2])
    # Narrow leaf2's allowed set to the correct port only.
    deployment.set_remove("allowed_ports", 2, switch="leaf2")
    delivered = send_h1_h3(topology, deployment)
    assert not delivered or deployment.reports
    assert any(r.checker == "egress_port_validity"
               for r in deployment.reports)


def test_forwarding_loop_killed_by_per_hop_loop_checker():
    """A control-plane bug installs a route that bounces the packet
    between leaf1 and spine1 forever.  This is exactly the case where
    Section 4.3's per-hop checking matters: a looping packet never
    egresses an edge port, so a last-hop checker can never enforce its
    verdict — but a per-hop checker drops it on the second visit."""
    compiled = compile_property("loops")
    topology = leaf_spine(2, 2, 2)
    deployment = HydraDeployment(topology, compiled, l2_map(topology),
                                 check_mode="per_hop")
    switches = deployment.switches
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    # BUG: spine1 reflects traffic back down to leaf1...
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [1])
    # ...and leaf1 sends it up again.
    switches["leaf1"].insert_entry("fwd_table", [3], "fwd_set_egress", [3])
    network = deployment.network
    packet = make_udp(topology.hosts["h1"].ipv4, topology.hosts["h3"].ipv4,
                      1, 2)
    network.host("h1").send(packet)
    network.run(until=0.05)
    # Dropped on leaf1's second visit: never delivered, the network
    # quiesced (no infinite circulation), and the report names leaf1.
    assert network.packets_delivered == 0
    assert network.sim.pending == 0
    assert network.packets_lost == 1
    assert deployment.reports
    assert deployment.reports[0].switch_name == "leaf1"


def test_vlan_rewrite_fault_caught():
    """A buggy switch action rewrites the VLAN id mid-path; the VLAN
    isolation checker rejects the packet and reports both tags."""
    from repro.net.packet import ETH_TYPE_VLAN, ETH_TYPE_IPV4, VLAN
    from repro.p4.programs import vlan_l2_forwarding

    compiled = compile_property("vlan_isolation")
    topology = leaf_spine(2, 2, 2)
    forwarding = {name: vlan_l2_forwarding(f"v_{name}")
                  for name in topology.switches}
    # Inject the fault into spine1's forwarding action: it clobbers the
    # VLAN id (e.g. a bad rewrite rule or a bit flip on the bus).
    forwarding["spine1"].actions["fwd_set_egress"].body.append(
        ir.AssignStmt("hdr.vlan.vid", ir.Const(999, 12)))
    deployment = HydraDeployment(topology, compiled, forwarding)
    deployment.dict_put("vlan_configured", 10, True)
    deployment.dict_put("vlan_configured", 999, True)
    switches = deployment.switches
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    switches["leaf2"].insert_entry("fwd_table", [3], "fwd_set_egress", [1])

    packet = make_udp(topology.hosts["h1"].ipv4, topology.hosts["h3"].ipv4,
                      1, 2)
    ether = packet.find("ethernet")
    packet.insert_after("ethernet", VLAN(vid=10, eth_type=ETH_TYPE_IPV4))
    ether.set("eth_type", ETH_TYPE_VLAN)
    network = deployment.network
    network.host("h1").send(packet)
    network.run()
    assert network.host("h3").rx_count == 0  # rejected at the edge
    assert deployment.reports
    assert deployment.reports[0].payload == (10, 999)


def test_waypoint_bypass_caught():
    """A 'fast path' bug skips the firewall waypoint: leaf1 delivers
    cross-leaf traffic directly via spine2 which is not the designated
    waypoint; the waypointing checker rejects at the edge."""
    compiled = compile_property("waypointing")
    topology = leaf_spine(2, 2, 2)
    deployment = HydraDeployment(topology, compiled, l2_map(topology))
    # spine1 is the security waypoint.
    for name, spec in topology.switches.items():
        deployment.set_control("is_waypoint", name == "spine1", switch=name)
    switches = deployment.switches
    # Correct path via spine1:
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    switches["leaf2"].insert_entry("fwd_table", [3], "fwd_set_egress", [1])
    topo_hosts = topology.hosts
    assert send_h1_h3(topology, deployment)

    # BUG: reroute around the waypoint via spine2.
    leaf1 = switches["leaf1"]
    leaf1.clear_table("fwd_table")
    leaf1.insert_entry("fwd_table", [1], "fwd_set_egress", [4])
    switches["spine2"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    switches["leaf2"].insert_entry("fwd_table", [4], "fwd_set_egress", [1])
    assert not send_h1_h3(topology, deployment)
    assert any(r.checker == "waypointing" for r in deployment.reports)


def test_control_plane_install_error_caught_by_multi_tenancy():
    """The control plane fat-fingers a tenant binding (port mapped to
    the wrong tenant); the very first cross-port packet is rejected."""
    compiled = compile_property("multi_tenancy")
    topology = single_switch(2)
    deployment = HydraDeployment(topology, compiled, l2_map(topology))
    sw = deployment.switches["s1"]
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    deployment.dict_put("tenants", 1, 7)
    deployment.dict_put("tenants", 2, 7)
    assert send_h1_h3_single(topology, deployment)

    # Fat-finger: port 2 rebound to tenant 9.
    deployment.dict_put("tenants", 2, 9)
    assert not send_h1_h3_single(topology, deployment)


def send_h1_h3_single(topology, deployment):
    network = deployment.network
    packet = make_udp(topology.hosts["h1"].ipv4, topology.hosts["h2"].ipv4,
                      1, 2)
    dest = network.host("h2")
    before = dest.rx_count
    network.host("h1").send(packet)
    network.run()
    return dest.rx_count > before


def test_checker_independence_from_forwarding_bug():
    """The independence argument (Section 2): a bug in the forwarding
    code does not disable the checker, because the checker's state and
    tables are disjoint.  Here the forwarding action scribbles over its
    own metadata; the checker still fires."""
    source = ("header bit<16> dport @ udp.dst_port;\n"
              "{ } { } { if (dport == 81) { reject; } }")
    compiled = compile_program(source, name="guard")
    base = l2_port_forwarding()
    # Forwarding bug: clobber its own egress choice after the table.
    base.ingress.append(ir.AssignStmt("standard_metadata.egress_spec",
                                      ir.Const(2, 9)))
    from repro.compiler import link

    program = link(base, compiled, role="edge")
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [7])
    sw.insert_entry(compiled.inject_table, [1], compiled.mark_first_action)
    sw.insert_entry(compiled.strip_table, [2], compiled.mark_last_action)
    ok = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 80)
    bad = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 81)
    assert len(sw.process(ok, 1)) == 1
    assert sw.process(bad, 1) == []
