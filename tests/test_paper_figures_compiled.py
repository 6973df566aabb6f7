"""The verbatim paper-figure programs, end to end through the COMPILED
pipeline (the interpreter-level checks live in test_properties.py).

Notably includes the literal Figure 2 program, whose two 15-slot
bit<32> arrays produce a 1022-bit telemetry header and deeply unrolled
loops — the heaviest program the compiler faces."""

import pytest

from repro.net.packet import make_udp
from repro.net.topology import single_switch, leaf_spine
from repro.p4.fabric import install_leaf_spine_routes
from repro.p4.programs import ecmp_fabric, l2_port_forwarding
from repro.p4.bmv2 import Bmv2Switch
from repro.net.simulator import Network
from repro.properties import compile_property
from repro.runtime.deployment import HydraDeployment


def test_figure2_arrays_compile_and_report_imbalance():
    topology = single_switch(2)
    compiled = compile_property("load_balance_arrays")
    assert compiled.hydra_header.width_bits >= 1000  # the heavy header
    deployment = HydraDeployment(topology, compiled,
                                 {"s1": l2_port_forwarding()})
    sw = deployment.switches["s1"]
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    deployment.set_control("left_port", 2)
    deployment.set_control("right_port", 3)
    deployment.dict_put("is_uplink", 2, True)
    deployment.dict_put("is_uplink", 3, True)
    deployment.set_control("thresh", 100)
    network = deployment.network
    h1, h2 = topology.hosts["h1"].ipv4, topology.hosts["h2"].ipv4
    # One 500-byte packet out the left uplink: |500 - 0| > 100.
    network.host("h1").send(make_udp(h1, h2, 1, 2, payload_len=500))
    network.run()
    assert deployment.reports, "imbalance must be reported at the edge"
    # The report came from the checker block iterating the arrays.
    assert deployment.reports[0].block == "checker"


def test_figure2_arrays_balanced_traffic_is_quiet():
    topology = single_switch(2)
    compiled = compile_property("load_balance_arrays")
    deployment = HydraDeployment(topology, compiled,
                                 {"s1": l2_port_forwarding()})
    sw = deployment.switches["s1"]
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry("fwd_table", [2], "fwd_set_egress", [1])
    deployment.set_control("left_port", 1)
    deployment.set_control("right_port", 2)
    deployment.dict_put("is_uplink", 1, True)
    deployment.dict_put("is_uplink", 2, True)
    deployment.set_control("thresh", 1000)
    network = deployment.network
    h1, h2 = topology.hosts["h1"].ipv4, topology.hosts["h2"].ipv4
    # Alternate directions: the two uplink counters track each other.
    for i in range(4):
        src_host = "h1" if i % 2 == 0 else "h2"
        src, dst = (h1, h2) if i % 2 == 0 else (h2, h1)
        network.host(src_host).send(make_udp(src, dst, 1, 2,
                                             payload_len=200))
        network.run()
    assert not deployment.reports


def test_figure1_multitenancy_compiled_end_to_end():
    topology = single_switch(3)
    compiled = compile_property("multi_tenancy")
    deployment = HydraDeployment(topology, compiled,
                                 {"s1": l2_port_forwarding()})
    sw = deployment.switches["s1"]
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    deployment.dict_put("tenants", 1, 7)
    deployment.dict_put("tenants", 2, 7)
    deployment.dict_put("tenants", 3, 8)
    network = deployment.network
    h = topology.hosts
    network.host("h1").send(make_udp(h["h1"].ipv4, h["h2"].ipv4, 1, 2))
    network.run()
    assert network.host("h2").rx_count == 1  # same tenant
    sw.clear_table("fwd_table")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    network.host("h1").send(make_udp(h["h1"].ipv4, h["h3"].ipv4, 1, 2))
    network.run()
    assert network.host("h3").rx_count == 0  # cross-tenant rejected


def test_ecmp_fabric_with_route_installer():
    """The generic leaf-spine route installer drives the ecmp_fabric
    forwarding program across the whole topology (no checker)."""
    topology = leaf_spine(2, 2, 2)
    switches = {name: Bmv2Switch(ecmp_fabric(f"f_{name}"), name=name)
                for name in topology.switches}
    install_leaf_spine_routes(topology, switches)
    network = Network(topology, switches)
    h = topology.hosts
    # Cross-fabric flows spread over both spines but all deliver.
    for sport in range(12):
        network.host("h1").send(make_udp(h["h1"].ipv4, h["h3"].ipv4,
                                         20000 + sport, 80))
    network.run()
    assert network.host("h3").rx_count == 12
    spine_bytes = [network.switch(s).bytes_forwarded
                   for s in ("spine1", "spine2")]
    assert all(b > 0 for b in spine_bytes)  # ECMP used both spines


def test_ecmp_fabric_ttl_decrements_along_path():
    topology = leaf_spine(2, 2, 2)
    switches = {name: Bmv2Switch(ecmp_fabric(f"f_{name}"), name=name)
                for name in topology.switches}
    install_leaf_spine_routes(topology, switches)
    network = Network(topology, switches)
    h = topology.hosts
    received = []
    network.host("h3").add_rx_callback(lambda t, p: received.append(p))
    network.host("h1").send(make_udp(h["h1"].ipv4, h["h3"].ipv4, 1, 2,
                                     ttl=64))
    network.run()
    assert received[0].find("ipv4").get("ttl") == 61  # three routed hops
