"""Topology graph and builder tests."""

import pytest

from repro.net.simulator import Network
from repro.net.topology import (CORE, EDGE, Endpoint, Topology, fat_tree,
                                leaf_spine, linear, single_switch)
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding


def test_leaf_spine_shape():
    topo = leaf_spine(2, 2, 2)
    assert sorted(topo.switches) == ["leaf1", "leaf2", "spine1", "spine2"]
    assert sorted(topo.hosts) == ["h1", "h2", "h3", "h4"]
    assert topo.switches["leaf1"].role == EDGE
    assert topo.switches["spine1"].role == CORE
    assert topo.switches["spine1"].is_spine
    assert topo.switches["leaf1"].is_leaf


def test_leaf_spine_port_conventions():
    topo = leaf_spine(2, 2, 2)
    # Hosts on ports 1..H; spines on H+1..; spine port i faces leaf i.
    assert topo.peer("leaf1", 1) == Endpoint("h1", 0)
    assert topo.peer("leaf1", 3) == Endpoint("spine1", 1)
    assert topo.peer("leaf1", 4) == Endpoint("spine2", 1)
    assert topo.peer("spine1", 2) == Endpoint("leaf2", 3)


def test_leaf_spine_host_addresses():
    topo = leaf_spine(2, 2, 2)
    assert topo.hosts["h1"].ipv4 == (10 << 24) | (1 << 8) | 1
    assert topo.hosts["h3"].ipv4 == (10 << 24) | (2 << 8) | 3


def test_edge_ports_are_host_facing():
    topo = leaf_spine(2, 2, 2)
    assert sorted(topo.switches["leaf1"].edge_ports) == [1, 2]
    assert topo.switches["spine1"].edge_ports == []


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_switch("s1")
    with pytest.raises(ValueError):
        topo.add_switch("s1")
    with pytest.raises(ValueError):
        topo.add_host("s1")


def test_double_wiring_a_port_rejected():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("s1", 1, "h1", 0)
    with pytest.raises(ValueError):
        topo.add_link("s1", 1, "h2", 0)


def test_link_to_unknown_node_rejected():
    topo = Topology()
    topo.add_switch("s1")
    with pytest.raises(ValueError):
        topo.add_link("s1", 1, "ghost", 0)


def test_port_toward_and_ports_path():
    topo = leaf_spine(2, 2, 2)
    assert topo.port_toward("leaf1", "spine1") == 3
    assert topo.port_toward("spine1", "leaf2") == 2
    ports = topo.ports_path(["leaf1", "spine1", "leaf2", "h3"])
    assert ports == [3, 2, 1]


def test_port_toward_unlinked_raises():
    topo = leaf_spine(2, 2, 2)
    with pytest.raises(ValueError):
        topo.port_toward("leaf1", "leaf2")  # leaves are not adjacent


def test_host_attachment():
    topo = leaf_spine(2, 2, 2)
    assert topo.host_attachment("h3") == Endpoint("leaf2", 1)
    with pytest.raises(ValueError):
        topo.host_attachment("ghost")
    topo.add_host("lonely")
    with pytest.raises(ValueError):
        topo.host_attachment("lonely")
    # A host wired twice is attached by its first link, whichever of
    # its ports that is; a host need not sit on its port 0.
    topo.add_host("twice")
    topo.add_link("twice", 1, "leaf1", 7)
    topo.add_link("leaf2", 7, "twice", 0)
    topo.add_host("high")
    topo.add_link("leaf2", 8, "high", 5)
    assert topo.host_attachment("twice") == Endpoint("leaf1", 7)
    assert topo.host_attachment("high") == Endpoint("leaf2", 8)
    # The batched walk's wire table sends every host out of that link
    # (a host's row is keyed on port 0) and delivers to its real port.
    network = Network(topo, {name: Bmv2Switch(l2_port_forwarding(), name=name)
                             for name in topo.switches})
    network._wire_rows()
    rows = network._wire
    assert ("lonely", 0) not in rows
    for host in topo.hosts:
        if host != "lonely":
            attach = topo.host_attachment(host)
            assert rows[host, 0][4:6] == (attach.node, attach.port), host
            assert rows[host, 0][2] is network.hosts[host]
    assert rows["leaf2", 7][7] == Endpoint("twice", 0)
    assert rows["leaf2", 8][7] == Endpoint("high", 5)
    assert rows["leaf1", 3][7] is None  # toward spine1: no delivery


def test_switch_ids_unique():
    topo = leaf_spine(3, 2, 1)
    ids = [s.switch_id for s in topo.switches.values()]
    assert len(set(ids)) == len(ids)


def test_single_switch_builder():
    topo = single_switch(3)
    assert list(topo.switches) == ["s1"]
    assert len(topo.hosts) == 3
    assert sorted(topo.switches["s1"].edge_ports) == [1, 2, 3]


def test_linear_builder_roles():
    topo = linear(4, hosts_per_end=1)
    assert topo.switches["s1"].role == EDGE
    assert topo.switches["s2"].role == CORE
    assert topo.switches["s3"].role == CORE
    assert topo.switches["s4"].role == EDGE
    # Chain connectivity: s1 -> s2 -> s3 -> s4.
    assert topo.port_toward("s1", "s2") == 10
    assert topo.port_toward("s2", "s1") == 11


def test_fat_tree_shape():
    topo = fat_tree(4)
    cores = [n for n in topo.switches if n.startswith("core")]
    aggs = [n for n in topo.switches if n.startswith("agg")]
    edges = [n for n in topo.switches if n.startswith("edge")]
    assert len(cores) == 4     # (k/2)^2
    assert len(aggs) == 8      # k pods x k/2
    assert len(edges) == 8
    assert len(topo.hosts) == 16


def test_fat_tree_odd_arity_rejected():
    with pytest.raises(ValueError):
        fat_tree(3)
