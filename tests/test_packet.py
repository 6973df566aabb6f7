"""Packet and header codec tests."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.aether.upf import upf_program
from repro.net.packet import (ETH_TYPE_IPV4, ETH_TYPE_SRCROUTE, ETHERNET,
                              GTPU, Header, HeaderType, IPV4, Packet,
                              SOURCE_ROUTE, UDP, format_ip, ip,
                              make_gtpu_encapsulated, make_source_routed,
                              make_tcp, make_udp)
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import source_routing


def test_header_type_widths():
    assert ETHERNET.width_bits == 112
    assert ETHERNET.width_bytes == 14
    assert IPV4.width_bits == 160
    assert UDP.width_bits == 64
    assert GTPU.width_bytes == 8
    assert SOURCE_ROUTE.width_bits == 16


def test_duplicate_field_names_rejected():
    with pytest.raises(ValueError):
        HeaderType("bad", [("x", 8), ("x", 8)])


def test_field_values_masked_to_width():
    header = IPV4(ttl=300)
    assert header.get("ttl") == 300 & 0xFF
    header.set("ttl", 0x1FF)
    assert header.get("ttl") == 0xFF


def test_header_attribute_access():
    """A field is read with ``get`` (or ``values``) and written with
    ``set``; it is not an attribute of the header."""
    header = UDP(src_port=1234)
    assert header.get("src_port") == header.values["src_port"] == 1234
    header.set("dst_port", 80)
    assert header.get("dst_port") == 80
    with pytest.raises(AttributeError):
        _ = header.src_port


def test_unknown_attribute_raises():
    """A misspelled field write fails loudly, and leaves the values as
    they were: an attribute store has no slot to go to."""
    header = IPV4(ttl=64)
    for name in ("tll", "ttl"):
        with pytest.raises(AttributeError):
            setattr(header, name, 1)
    assert header.values == IPV4(ttl=64).values
    with pytest.raises(AttributeError):
        _ = header.nonexistent
    with pytest.raises(KeyError):
        header.set("nonexistent", 1)


def test_a_header_is_a_plain_record():
    """No attribute hook: the slots keep CPython's specialised access
    and ``copy`` restores them."""
    for hook in ("__getattr__", "__getattribute__", "__setattr__"):
        assert hook not in vars(Header), hook


def test_header_bits_roundtrip():
    header = IPV4(version=4, ihl=5, ttl=64, protocol=17,
                  src_addr=ip(10, 0, 0, 1), dst_addr=ip(10, 0, 0, 2))
    bits, width = header.to_bits()
    assert width == IPV4.width_bits
    restored = Header.from_bits(IPV4, bits)
    assert restored.values == header.values


@given(st.integers(min_value=0, max_value=2**48 - 1),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_ethernet_bits_roundtrip(mac, ethertype):
    header = ETHERNET(dst_addr=mac, src_addr=mac ^ 0xFFFF,
                      eth_type=ethertype)
    bits, width = header.to_bits()
    assert Header.from_bits(ETHERNET, bits).values == header.values


def test_header_type_identity_survives_deepcopy():
    assert copy.deepcopy(ETHERNET) is ETHERNET
    assert copy.copy(IPV4) is IPV4


def test_packet_length_counts_valid_headers_and_payload():
    packet = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1, 2,
                      payload_len=100)
    assert packet.length == 14 + 20 + 8 + 100
    packet.headers[2].valid = False
    assert packet.length == 14 + 20 + 100


def test_packet_find_and_nth():
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    packet = make_gtpu_encapsulated(ip(9, 9, 9, 9), ip(8, 8, 8, 8), 55, inner)
    assert packet.find("ipv4").get("dst_addr") == ip(8, 8, 8, 8)
    assert packet.find("ipv4", nth=1).get("dst_addr") == ip(2, 2, 2, 2)
    assert len(packet.find_all("udp")) == 2


def test_packet_insert_and_remove():
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    extra = SOURCE_ROUTE(bos=1, port=3)
    packet.insert_after("ethernet", extra)
    assert packet.headers[1].name == "srcRoute"
    removed = packet.remove("srcRoute")
    assert removed is extra
    assert packet.remove("srcRoute") is None


def test_packet_copy_is_deep_for_headers():
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    clone = packet.copy()
    clone.find("ipv4").set("ttl", 1)
    assert packet.find("ipv4").get("ttl") == 64
    assert clone.packet_id == packet.packet_id


def test_make_source_routed_stack_order():
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    packet = make_source_routed([3, 2, 1], inner)
    assert packet.find("ethernet").get("eth_type") == ETH_TYPE_SRCROUTE
    entries = packet.find_all("srcRoute")
    assert [e.get("port") for e in entries] == [3, 2, 1]
    assert [e.get("bos") for e in entries] == [0, 0, 1]


def test_make_source_routed_requires_hops():
    inner = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    with pytest.raises(ValueError):
        make_source_routed([], inner)


def test_gtpu_encapsulation_structure():
    inner = make_udp(ip(172, 16, 0, 1), ip(10, 0, 1, 2), 1000, 81,
                     payload_len=50)
    packet = make_gtpu_encapsulated(ip(192, 168, 0, 1), ip(192, 168, 0, 2),
                                    777, inner)
    names = [h.name for h in packet.headers]
    assert names == ["ethernet", "ipv4", "udp", "gtpu", "ipv4", "udp"]
    assert packet.find("gtpu").get("teid") == 777
    assert packet.find("udp").get("dst_port") == 2152
    # Inner payload length preserved.
    assert packet.payload_len == 50


def test_make_tcp():
    packet = make_tcp(ip(1, 2, 3, 4), ip(5, 6, 7, 8), 80, 443)
    assert packet.find("tcp").get("src_port") == 80
    assert packet.find("ipv4").get("protocol") == 6


def test_ip_helpers():
    assert ip(10, 0, 1, 2) == (10 << 24) | (1 << 8) | 2
    assert format_ip(ip(10, 0, 1, 2)) == "10.0.1.2"


def output_fields(outputs):
    return [(port, [(h.htype, h.valid, h.values) for h in out.headers],
             out.payload_len, out.packet_id, out.meta)
            for port, out in outputs]


def test_a_deep_copy_shares_types_and_nothing_else():
    """``copy.deepcopy`` of a packet copies every header's values and
    keeps every header type by identity, and a codegen switch cannot
    tell the copy from the original.

    Pickling is out of scope: ``HeaderType`` pickles by value, so an
    unpickled header's ``htype`` is a new object, and both engines'
    parsers (which extract on ``htype is HT``) would reject the packet.
    """
    upf = Bmv2Switch(upf_program(), name="upf")
    upf.insert_entry("upf_routes", [(0, 0)], "upf_route", [2])
    upf.insert_entry("uplink_sessions", [100], "set_session_uplink", [1, 1])
    upf.insert_entry("applications",
                     [(0, 0xFF), (0, 0xFFFFFFFF), (0, 0xFFFF), (0, 0xFF)],
                     "set_app_id", [1], priority=1)
    upf.insert_entry("terminations", [1, 1], "term_forward")
    inner = make_udp(ip(172, 16, 0, 1), ip(10, 0, 1, 2), 40000, 81)
    cases = [
        (make_gtpu_encapsulated(ip(192, 168, 0, 1), ip(192, 168, 0, 9),
                                100, inner), upf),
        (make_source_routed([4, 7], inner), Bmv2Switch(source_routing())),
    ]
    for packet, switch in cases:
        clone = copy.deepcopy(packet)
        assert ([h.values for h in clone.headers]
                == [h.values for h in packet.headers])
        assert all(c.htype is h.htype
                   for c, h in zip(clone.headers, packet.headers, strict=True))
        assert not ({id(h.values) for h in clone.headers}
                    & {id(h.values) for h in packet.headers})
        shallow = copy.copy(packet.headers[0])
        assert shallow.values is packet.headers[0].values
        outputs = [switch.process(p, 1) for p in (packet, clone)]
        assert outputs[0]
        assert output_fields(outputs[0]) == output_fields(outputs[1])


def test_packet_ids_are_unique():
    a = make_udp(1, 2, 3, 4)
    b = make_udp(1, 2, 3, 4)
    assert a.packet_id != b.packet_id
