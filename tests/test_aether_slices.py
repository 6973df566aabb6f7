"""The paper's two-slice Aether scenario (Section 5.2's motivating
setup): camera-slice clients may reach the video-analysis edge app but
not the Internet; phone-slice clients have the opposite permissions.
Both the enforcement and Hydra's verdict-consistency are checked."""

import pytest

from repro.aether import ALLOW, AetherTestbed, DENY, FilterRule
from repro.net.packet import IP_PROTO_UDP

VIDEO_PORT = 81


@pytest.fixture()
def testbed():
    tb = AetherTestbed()
    server = tb.topology.hosts["h2"].ipv4       # edge app (on leaf1)
    internet = tb.topology.hosts["h3"].ipv4     # "the Internet" (leaf2)
    # Camera slice: deny-all, allow the video app.
    tb.provision_slice("camera", [
        FilterRule(priority=10, action=DENY),
        FilterRule(priority=20, ip_prefix=(server, 32),
                   proto=IP_PROTO_UDP, l4_port=(VIDEO_PORT, VIDEO_PORT),
                   action=ALLOW),
    ])
    # Phone slice: deny the video app, allow everything else (Internet).
    tb.provision_slice("phone", [
        FilterRule(priority=10, action=ALLOW),
        FilterRule(priority=20, ip_prefix=(server, 32),
                   proto=IP_PROTO_UDP, l4_port=(VIDEO_PORT, VIDEO_PORT),
                   action=DENY),
    ])
    tb.portal.add_member("camera", "cam-1")
    tb.portal.add_member("phone", "phone-1")
    tb.attach("cam-1", 1)
    tb.attach("phone-1", 2)
    return tb, server, internet


def test_camera_reaches_video_app(testbed):
    tb, server, internet = testbed
    result = tb.send_uplink("cam-1", server, VIDEO_PORT)
    assert result.delivered
    assert not result.new_reports


def test_camera_cannot_reach_internet(testbed):
    tb, server, internet = testbed
    result = tb.send_uplink("cam-1", internet, 443)
    assert not result.delivered
    assert not result.new_reports  # deny + drop: consistent, silent


def test_phone_reaches_internet(testbed):
    tb, server, internet = testbed
    result = tb.send_uplink("phone-1", internet, 443)
    assert result.delivered
    assert not result.new_reports


def test_phone_cannot_reach_video_app(testbed):
    tb, server, internet = testbed
    result = tb.send_uplink("phone-1", server, VIDEO_PORT)
    assert not result.delivered
    assert not result.new_reports


def test_slices_share_nothing_but_apps_table_space(testbed):
    """Each slice allocates its own app ids — entries are shared within
    a slice, never across slices."""
    tb, _, _ = testbed
    cam = tb.onos.client("cam-1")
    phone = tb.onos.client("phone-1")
    assert not set(cam.app_ids) & set(phone.app_ids)


def test_hydra_catches_wrong_slice_enforcement(testbed):
    """Inject a controller bug: the phone client's deny termination for
    the video app is flipped to forward.  The data plane now lets phone
    traffic into the video slice — and Hydra reports the deny/forwarded
    inconsistency (the exfiltration case of the paper's conclusion)."""
    tb, server, internet = testbed
    phone = tb.onos.client("phone-1")
    deny_app = phone.app_ids[1]  # the video-app deny rule
    for bmv2 in tb.onos.upf_switches.values():
        for entry in list(bmv2.entries["terminations"]):
            if entry.match == (phone.client_id, deny_app):
                bmv2.delete_entry("terminations", entry)
        bmv2.insert_entry("terminations", [phone.client_id, deny_app],
                          "term_forward")
    result = tb.send_uplink("phone-1", server, VIDEO_PORT)
    # Hydra rejects the packet that policy says to deny...
    assert not result.delivered
    # ...and reports the violation with the flow identity.
    assert result.new_reports
    ue, proto, app, port, action = result.new_reports[0].payload
    assert port == VIDEO_PORT
    assert action == 1  # policy: deny
