"""Unit tests for the Aether substrate: portal rules, ONOS table
management, the mobile core's per-client PFCP-style behaviour, and the
UPF pipeline itself."""

import pytest

from repro.aether import (ALLOW, DENY, FilterRule, OnosController,
                          OperatorPortal, upf_program)
from repro.aether.upf import DIRECTION_DOWNLINK, DIRECTION_UPLINK
from repro.net.packet import (IP_PROTO_TCP, IP_PROTO_UDP, ip,
                              make_gtpu_encapsulated, make_udp)
from repro.p4.bmv2 import Bmv2Switch


# ---------------------------------------------------------------------------
# Portal / rules
# ---------------------------------------------------------------------------

def test_rule_prefix_matching():
    rule = FilterRule(priority=1, ip_prefix=(ip(10, 0, 1, 0), 24),
                      action=ALLOW)
    assert rule.matches(ip(10, 0, 1, 7), IP_PROTO_UDP, 80)
    assert not rule.matches(ip(10, 0, 2, 7), IP_PROTO_UDP, 80)


def test_rule_any_fields():
    rule = FilterRule(priority=1, action=DENY)
    assert rule.matches(ip(1, 2, 3, 4), IP_PROTO_TCP, 12345)
    assert rule.addr_range() == (0, 0xFFFFFFFF)
    assert rule.proto_range() == (0, 0xFF)


def test_rule_port_range():
    rule = FilterRule(priority=1, l4_port=(81, 82), action=ALLOW)
    assert rule.matches(0, 17, 81) and rule.matches(0, 17, 82)
    assert not rule.matches(0, 17, 83)


def test_rule_validation():
    with pytest.raises(ValueError):
        FilterRule(priority=1, action="maybe")
    with pytest.raises(ValueError):
        FilterRule(priority=1, l4_port=(10, 5))


@pytest.mark.parametrize("fields, error", [
    # A /40 once passed the constructor and provision_slice, then made
    # the next attach_many raise mid-install ("negative shift count"),
    # after ONOS had interned its pattern and taken an app id.
    ({"ip_prefix": (ip(10, 0, 0, 1), 40)}, "prefix"),
    ({"ip_prefix": (ip(10, 0, 0, 1), -1)}, "prefix"),
    ({"ip_prefix": (1 << 33, 32)}, "prefix"),  # was silently 0.0.0.0/32
    ({"ip_prefix": (-1, 0)}, "prefix"),
    ({"proto": 300}, "protocol"),  # no 8-bit protocol could match it
    ({"proto": -1}, "protocol"),
    ({"l4_port": (0, 70000)}, "port"),  # wider than its 16-bit key
    ({"l4_port": (-1, 80)}, "port"),
], ids=["prefix-len-40", "prefix-len-negative", "addr-33-bits",
        "addr-negative", "proto-300", "proto-negative", "port-70000",
        "port-negative"])
def test_rule_refuses_what_its_keys_cannot_hold(fields, error):
    with pytest.raises(ValueError, match=error):
        FilterRule(priority=20, action=ALLOW, **fields)


def test_rule_accepts_the_edges_of_its_keys():
    for edge in (0, 0xFF):
        FilterRule(priority=1, proto=edge)
    for prefix in ((0, 0), (0xFFFFFFFF, 32)):
        FilterRule(priority=1, ip_prefix=prefix)
    for ports in ((0, 0), (0xFFFF, 0xFFFF)):
        FilterRule(priority=1, l4_port=ports)


def test_slice_decide_priority_order():
    portal = OperatorPortal()
    portal.create_slice("s", [
        FilterRule(priority=10, action=DENY),
        FilterRule(priority=20, proto=IP_PROTO_UDP, l4_port=(81, 81),
                   action=ALLOW),
    ])
    config = portal.slices["s"]
    assert config.decide(ip(1, 1, 1, 1), IP_PROTO_UDP, 81) == ALLOW
    assert config.decide(ip(1, 1, 1, 1), IP_PROTO_UDP, 80) == DENY
    assert config.decide(ip(1, 1, 1, 1), IP_PROTO_TCP, 81) == DENY


def test_portal_membership():
    portal = OperatorPortal()
    portal.create_slice("a")
    portal.create_slice("b")
    portal.add_member("a", "imsi-1")
    assert portal.slice_of("imsi-1") == "a"
    with pytest.raises(ValueError):
        portal.add_member("b", "imsi-1")  # already in a slice
    with pytest.raises(ValueError):
        portal.create_slice("a")
    with pytest.raises(ValueError):
        portal.rules_for("imsi-unknown")


# ---------------------------------------------------------------------------
# ONOS controller
# ---------------------------------------------------------------------------

def onos_with_switch():
    sw = Bmv2Switch(upf_program(), name="leaf1")
    return OnosController({"leaf1": sw}), sw


def test_attach_installs_sessions_and_terminations():
    onos, sw = onos_with_switch()
    rules = [FilterRule(priority=10, action=DENY),
             FilterRule(priority=20, l4_port=(81, 81), action=ALLOW)]
    record = onos.handle_attach("imsi-1", "s", ip(172, 16, 0, 1),
                                100, 1100, rules)
    assert record.client_id == 1
    assert len(sw.entries["uplink_sessions"]) == 1
    assert len(sw.entries["downlink_sessions"]) == 1
    assert len(sw.entries["applications"]) == 2
    assert len(sw.entries["terminations"]) == 2


def test_identical_rules_share_app_entries():
    onos, sw = onos_with_switch()
    rules = [FilterRule(priority=10, action=DENY)]
    onos.handle_attach("imsi-1", "s", 1, 100, 1100, list(rules))
    onos.handle_attach("imsi-2", "s", 2, 101, 1101, list(rules))
    assert len(sw.entries["applications"]) == 1  # shared
    assert len(sw.entries["terminations"]) == 2  # per client


def test_edited_rules_allocate_new_app_ids():
    onos, sw = onos_with_switch()
    onos.handle_attach("imsi-1", "s", 1, 100, 1100,
                       [FilterRule(priority=20, l4_port=(81, 81),
                                   action=ALLOW)])
    onos.handle_attach("imsi-2", "s", 2, 101, 1101,
                       [FilterRule(priority=25, l4_port=(81, 82),
                                   action=ALLOW)])
    assert len(sw.entries["applications"]) == 2
    assert onos.client("imsi-1").app_ids != onos.client("imsi-2").app_ids


def test_double_attach_rejected():
    onos, _ = onos_with_switch()
    onos.handle_attach("imsi-1", "s", 1, 100, 1100, [])
    with pytest.raises(ValueError):
        onos.handle_attach("imsi-1", "s", 1, 102, 1102, [])


# ---------------------------------------------------------------------------
# UPF pipeline
# ---------------------------------------------------------------------------

def upf_switch():
    sw = Bmv2Switch(upf_program(), name="leaf1")
    sw.insert_entry("upf_routes", [(0, 0)], "upf_route", [2])
    return sw


def uplink_packet(teid=100, dport=81, proto="udp"):
    inner = make_udp(ip(172, 16, 0, 1), ip(10, 0, 1, 2), 40000, dport)
    return make_gtpu_encapsulated(ip(192, 168, 0, 1), ip(192, 168, 0, 9),
                                  teid, inner)


def test_uplink_decapsulation():
    sw = upf_switch()
    sw.insert_entry("uplink_sessions", [100], "set_session_uplink", [1, 1])
    sw.insert_entry("applications",
                    [(0, 0xFF), (0, 0xFFFFFFFF), (0, 0xFFFF), (0, 0xFF)],
                    "set_app_id", [1], priority=1)
    sw.insert_entry("terminations", [1, 1], "term_forward")
    out = sw.process(uplink_packet(), 1)
    assert len(out) == 1
    names = [h.name for h in out[0][1].headers]
    assert "gtpu" not in names          # decapsulated
    assert names.count("ipv4") == 1     # outer stripped


def test_unknown_teid_is_transit_traffic():
    """GTP-U with an unknown TEID is not UPF traffic: it transits the
    fabric unfiltered (direction stays 0)."""
    sw = upf_switch()
    out = sw.process(uplink_packet(teid=999), 1)
    assert len(out) == 1
    assert out[0][1].find("gtpu") is not None  # untouched


def test_terminations_default_drop_sets_flag_then_drops():
    sw = upf_switch()
    sw.insert_entry("uplink_sessions", [100], "set_session_uplink", [1, 1])
    sw.insert_entry("applications",
                    [(0, 0xFF), (0, 0xFFFFFFFF), (0, 0xFFFF), (0, 0xFF)],
                    "set_app_id", [3], priority=1)
    # No terminations entry for (1, 3): default drop.
    assert sw.process(uplink_packet(), 1) == []


def test_applications_priority_reclassifies():
    sw = upf_switch()
    sw.insert_entry("uplink_sessions", [100], "set_session_uplink", [1, 1])
    sw.insert_entry("applications",
                    [(0, 0xFF), (0, 0xFFFFFFFF), (81, 81), (17, 17)],
                    "set_app_id", [2], priority=20)
    sw.insert_entry("applications",
                    [(0, 0xFF), (0, 0xFFFFFFFF), (81, 82), (17, 17)],
                    "set_app_id", [3], priority=25)
    sw.insert_entry("terminations", [1, 2], "term_forward")
    # Higher-priority entry assigns app 3, which has no termination.
    assert sw.process(uplink_packet(dport=81), 1) == []


def test_downlink_encapsulation():
    sw = upf_switch()
    sw.insert_entry("downlink_sessions", [ip(172, 16, 0, 1)],
                    "set_session_downlink", [1, 1, 1100])
    sw.insert_entry("applications",
                    [(0, 0xFF), (0, 0xFFFFFFFF), (0, 0xFFFF), (0, 0xFF)],
                    "set_app_id", [1], priority=1)
    sw.insert_entry("terminations", [1, 1], "term_forward")
    packet = make_udp(ip(10, 0, 1, 2), ip(172, 16, 0, 1), 81, 40000)
    out = sw.process(packet, 2)
    assert len(out) == 1
    result = out[0][1]
    gtpu = result.find("gtpu")
    assert gtpu is not None and gtpu.get("teid") == 1100
    # Inner copy preserves the original addressing.
    inner = result.find("ipv4", nth=1)
    assert inner.get("dst_addr") == ip(172, 16, 0, 1)


def test_plain_ipv4_transit_is_routed():
    sw = upf_switch()
    packet = make_udp(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1, 2)
    out = sw.process(packet, 3)
    assert out[0][0] == 2  # default route


def test_upf_ecmp_spreads():
    sw = Bmv2Switch(upf_program(), name="leaf1")
    sw.insert_entry("upf_routes", [(0, 0)], "upf_route_ecmp", [2])
    sw.insert_entry("upf_ecmp_table", [0], "upf_ecmp_port", [3])
    sw.insert_entry("upf_ecmp_table", [1], "upf_ecmp_port", [4])
    ports = {sw.process(make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), s, 80),
                        1)[0][0]
             for s in range(40)}
    assert ports == {3, 4}


# ---------------------------------------------------------------------------
# Detach
# ---------------------------------------------------------------------------

def test_detach_removes_client_state():
    onos, sw = onos_with_switch()
    rules = [FilterRule(priority=10, action=DENY)]
    onos.handle_attach("imsi-1", "s", ip(172, 16, 0, 1), 100, 1100, rules)
    onos.handle_attach("imsi-2", "s", ip(172, 16, 0, 2), 101, 1101,
                       list(rules))
    onos.handle_detach("imsi-1")
    assert len(sw.entries["uplink_sessions"]) == 1
    assert len(sw.entries["downlink_sessions"]) == 1
    # Only client 2's termination remains; shared app entry stays.
    assert len(sw.entries["terminations"]) == 1
    assert len(sw.entries["applications"]) == 1
    with pytest.raises(ValueError):
        onos.handle_detach("imsi-1")


def test_detached_client_traffic_becomes_transit():
    """After detach the old TEID is unknown: GTP-U traffic is no longer
    terminated (it transits opaquely) — the realistic state the UPF is
    left in, visible to operators via Hydra's unknown-direction path."""
    from repro.aether import AetherTestbed

    tb = AetherTestbed()
    tb.provision_slice("s", [FilterRule(priority=10, action=ALLOW)])
    tb.portal.add_member("s", "imsi-1")
    tb.attach("imsi-1", 1)
    server = ip(10, 0, 1, 2)
    assert tb.send_uplink("imsi-1", server, 80).delivered
    record = tb.onos.client("imsi-1")
    teid = record.uplink_teid
    tb.detach("imsi-1")
    # Same tunnel, now unknown: the GTP packet transits unfiltered
    # toward its outer destination (the UPF N3 address), not the app.
    from repro.net.packet import make_udp, make_gtpu_encapsulated
    from repro.aether.testbed import N3_CELL, N3_UPF, CELL_HOST

    inner = make_udp(ip(172, 16, 0, 1), server, 40000, 80)
    packet = make_gtpu_encapsulated(N3_CELL, N3_UPF, teid, inner)
    network = tb.network
    before = network.host("h2").rx_count
    network.host(CELL_HOST).send(packet)
    network.run()
    assert network.host("h2").rx_count == before  # no longer delivered
