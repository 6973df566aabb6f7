"""Case study 1 (Section 5.1): valley-free source routing.

Reproduces the paper's experiment: on the Figure 8 leaf-spine network
running source routing, Hydra allows *all* valley-free paths between
hosts and drops *any* packet following an errant path injected by the
buggy sender script."""

import pytest

from repro.runtime.scenarios import SourceRoutingTestbed


@pytest.fixture(scope="module")
def testbed():
    return SourceRoutingTestbed()


def test_all_valley_free_paths_delivered(testbed):
    # One valley-free path per spine of the 2x2 fabric.
    assert len(testbed.valley_free_node_paths("h1", "h3")) == 2
    for src, dst in (("h1", "h3"), ("h1", "h4"), ("h2", "h3")):
        for path in testbed.valley_free_node_paths(src, dst):
            ports = testbed.route_for(path, dst)
            result = testbed.send(src, dst, ports)
            assert result.delivered, f"valley-free path blocked: {path}"


def test_same_leaf_path_delivered(testbed):
    ports = testbed.route_for(["leaf1"], "h2")
    assert testbed.send("h1", "h2", ports).delivered


def test_every_errant_valley_path_dropped(testbed):
    for path in testbed.valley_node_paths("h1", "h3"):
        ports = testbed.route_for(path, "h3")
        result = testbed.send("h1", "h3", ports)
        assert not result.delivered, f"valley path leaked: {path}"


def test_buggy_sender_extra_hops_dropped(testbed):
    """The injected bug: the sender script appends invalid extra hops."""
    base = testbed.valley_free_node_paths("h1", "h3")[0]
    ports = testbed.buggy_sender_route(base, "h3")
    assert not testbed.send("h1", "h3", ports).delivered


def test_checker_is_independent_of_forwarding(testbed):
    """The same source-routed packet without the second spine detour is
    fine — the checker reacts to the path, not to source routing."""
    base = testbed.valley_free_node_paths("h1", "h3")[1]
    ports = testbed.route_for(base, "h3")
    assert testbed.send("h1", "h3", ports).delivered


def test_telemetry_stripped_before_delivery(testbed):
    path = testbed.valley_free_node_paths("h1", "h3")[0]
    ports = testbed.route_for(path, "h3")
    host = testbed.network.host("h3")
    host.received.clear()
    host.rx_callbacks.clear()
    testbed.send("h1", "h3", ports)
    _, packet = host.received[-1]
    names = [h.name for h in packet.headers]
    assert all(not n.startswith("hydra") for n in names)
    assert packet.find("ethernet").get("eth_type") == 0x0800


def test_valley_free_holds_on_wider_fabric():
    wide = SourceRoutingTestbed(num_leaves=3, num_spines=2,
                                hosts_per_leaf=1)
    good = wide.valley_free_node_paths("h1", "h3")[0]
    assert wide.send("h1", "h3", wide.route_for(good, "h3")).delivered
    bad = ["leaf1", "spine1", "leaf2", "spine2", "leaf3"]
    assert not wide.send("h1", "h3", wide.route_for(bad, "h3")).delivered
