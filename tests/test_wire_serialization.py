"""Wire-serialization fidelity: with ``serialize_on_wire=True`` every
packet is rebuilt from its bit representation at each link, so the
telemetry header (and everything else) must carry its complete state on
the wire.  The case studies must behave identically in this mode."""

import pytest

from repro.net.packet import make_udp, ip
from repro.net.simulator import Network
from repro.net.topology import single_switch
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding, source_routing
from repro.properties import compile_property
from repro.runtime.deployment import HydraDeployment


def test_plain_forwarding_survives_wire_roundtrip():
    topo = single_switch(2)
    bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1")
    bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    network = Network(topo, {"s1": bmv2}, serialize_on_wire=True)
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                      1234, 80, payload_len=99)
    network.host("h1").send(packet)
    network.run()
    (when, received), = network.host("h2").received
    assert received.find("udp").get("src_port") == 1234
    assert received.payload_len == 99
    assert received.packet_id == packet.packet_id


def test_valley_free_case_study_on_the_wire():
    """Section 5.1 verdicts are identical when telemetry travels as
    bits: valid paths pass, valleys are dropped at the edge."""
    from repro.net.topology import leaf_spine
    from repro.net.packet import make_source_routed

    topology = leaf_spine(2, 2, 2)
    compiled = compile_property("valley_free")
    forwarding = {name: source_routing(f"sr_{name}")
                  for name in topology.switches}
    deployment = HydraDeployment(topology, compiled, forwarding,
                                 serialize_on_wire=True)
    for name, spec in topology.switches.items():
        deployment.set_control("is_spine_switch", spec.is_spine,
                               switch=name)

    def send(ports):
        src = topology.hosts["h1"].ipv4
        dst = topology.hosts["h3"].ipv4
        packet = make_source_routed(
            ports, make_udp(src, dst, 1, 2))
        dest = deployment.network.host("h3")
        before = dest.rx_count
        deployment.network.host("h1").send(packet)
        deployment.network.run()
        return dest.rx_count > before

    good = topology.ports_path(["leaf1", "spine1", "leaf2", "h3"])
    valley = topology.ports_path(
        ["leaf1", "spine1", "leaf2", "spine1", "leaf2", "h3"])
    assert send(good)
    assert not send(valley)


def test_telemetry_array_state_survives_the_wire():
    """The loop checker's path array (slots + validity bits + cursor)
    works bit-identically across serialized links."""
    from repro.net.topology import leaf_spine

    topology = leaf_spine(2, 2, 2)
    compiled = compile_property("loops")
    forwarding = {name: l2_port_forwarding(f"l2_{name}")
                  for name in topology.switches}
    deployment = HydraDeployment(topology, compiled, forwarding,
                                 serialize_on_wire=True)
    switches = deployment.switches
    # Static path with a loop: leaf1 -> spine1 -> leaf1 (revisit!) ...
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [1])
    switches["leaf1"].insert_entry("fwd_table", [3], "fwd_set_egress", [2])
    packet = make_udp(topology.hosts["h1"].ipv4,
                      topology.hosts["h2"].ipv4, 5, 6)
    network = deployment.network
    network.host("h1").send(packet)
    network.run()
    # The revisit is recorded in serialized telemetry and rejected at
    # the edge (leaf1's port 2 toward h2 is an edge port).
    assert network.host("h2").rx_count == 0
    assert network.packets_lost == 1


def test_wire_mode_off_and_on_agree():
    """Same scenario, both modes: identical delivery outcome."""
    results = []
    for wire in (False, True):
        topo = single_switch(2)
        compiled = compile_property("multi_tenancy")
        deployment = HydraDeployment(topo, compiled,
                                     {"s1": l2_port_forwarding()},
                                     serialize_on_wire=wire)
        sw = deployment.switches["s1"]
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        deployment.dict_put("tenants", 1, 5)
        deployment.dict_put("tenants", 2, 9)  # cross-tenant!
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                          1, 2)
        deployment.network.host("h1").send(packet)
        deployment.network.run()
        results.append(deployment.network.host("h2").rx_count)
    assert results[0] == results[1] == 0
