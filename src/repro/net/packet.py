"""Packets and protocol headers for the network substrate.

A :class:`Packet` is an ordered stack of :class:`Header` instances plus an
opaque payload length.  Header *types* declare named fixed-width fields
(like P4 header definitions); header *instances* hold field values and a
validity bit.  The Hydra telemetry header generated by the Indus compiler
is just another :class:`HeaderType`, created at compile time from the
program's tele variables.

A field has one way in: ``header.get(name)`` (or ``header.values[name]``)
reads it, ``header.set(name, value)`` writes it masked to its width.
:class:`Header` defines no ``__getattr__``/``__setattr__`` hook for
``header.ttl``-style access, on purpose: a class with such a hook gets
CPython's generic attribute slots, so every ``htype``/``values``/``valid``
access in both engines' parsers and deparsers and in
:attr:`Packet.length` would lose its specialised slot access; and
``copy.copy``/``copy.deepcopy``, which restore slots with ``setattr``,
work only without one.

Wire formats: headers serialize to bytes big-endian field-by-field, which
gives honest packet lengths for the latency/throughput models and lets
tests round-trip packets through links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FieldDef:
    """A fixed-width header field."""

    name: str
    width: int  # bits

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")


class HeaderType:
    """A named header layout (ordered fixed-width fields)."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, int]]):
        self.name = name
        self.fields: List[FieldDef] = [FieldDef(n, w) for n, w in fields]
        self._index = {f.name: f for f in self.fields}
        if len(self._index) != len(self.fields):
            raise ValueError(f"duplicate field names in header {name!r}")
        # The layout is immutable, so the widths are computed once, as
        # plain attributes: the byte width is read once per header on
        # the per-packet length hot path.
        self.width_bits = sum(f.width for f in self.fields)
        self.width_bytes = (self.width_bits + 7) // 8

    def field(self, name: str) -> FieldDef:
        return self._index[name]

    def has_field(self, name: str) -> bool:
        return name in self._index

    # Header types are immutable and compared by identity (the parser
    # checks ``htype is expected``), so copying must preserve identity.
    def __copy__(self) -> "HeaderType":
        return self

    def __deepcopy__(self, memo) -> "HeaderType":
        return self

    def __call__(self, **values: int) -> "Header":
        return Header(self, **values)

    def __repr__(self) -> str:
        return f"HeaderType({self.name!r}, {self.width_bits} bits)"


class Header:
    """An instance of a header type with concrete field values: a plain
    slotted record, its fields read with :meth:`get` and written with
    :meth:`set`."""

    __slots__ = ("htype", "values", "valid")

    def __init__(self, htype: HeaderType, **values: int):
        self.htype = htype
        self.values = {f.name: 0 for f in htype.fields}
        self.valid = True
        for name, value in values.items():
            self.set(name, value)

    @property
    def name(self) -> str:
        return self.htype.name

    def get(self, field_name: str) -> int:
        return self.values[field_name]

    def set(self, field_name: str, value: int) -> None:
        fdef = self.htype.field(field_name)
        self.values[field_name] = int(value) & ((1 << fdef.width) - 1)

    def copy(self) -> "Header":
        # Hot path (every switch hop copies every header): bypass
        # __init__'s field-template walk and clone the value dict directly.
        clone = Header.__new__(Header)
        clone.htype = self.htype
        clone.values = dict(self.values)
        clone.valid = self.valid
        return clone

    def to_bits(self) -> Tuple[int, int]:
        acc = 0
        for fdef in self.htype.fields:
            acc = (acc << fdef.width) | self.values[fdef.name]
        return acc, self.htype.width_bits

    @classmethod
    def from_bits(cls, htype: HeaderType, bits: int) -> "Header":
        header = cls(htype)
        remaining = htype.width_bits
        for fdef in htype.fields:
            remaining -= fdef.width
            header.values[fdef.name] = (bits >> remaining) & ((1 << fdef.width) - 1)
        return header

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.values.items())
        return f"{self.htype.name}({inner})"


# ---------------------------------------------------------------------------
# Standard header types
# ---------------------------------------------------------------------------

ETHERNET = HeaderType("ethernet", [
    ("dst_addr", 48), ("src_addr", 48), ("eth_type", 16),
])

VLAN = HeaderType("vlan", [
    ("pcp", 3), ("dei", 1), ("vid", 12), ("eth_type", 16),
])

IPV4 = HeaderType("ipv4", [
    ("version", 4), ("ihl", 4), ("dscp", 6), ("ecn", 2), ("total_len", 16),
    ("identification", 16), ("flags", 3), ("frag_offset", 13), ("ttl", 8),
    ("protocol", 8), ("hdr_checksum", 16), ("src_addr", 32), ("dst_addr", 32),
])

UDP = HeaderType("udp", [
    ("src_port", 16), ("dst_port", 16), ("length", 16), ("checksum", 16),
])

TCP = HeaderType("tcp", [
    ("src_port", 16), ("dst_port", 16), ("seq_no", 32), ("ack_no", 32),
    ("data_offset", 4), ("reserved", 4), ("flags", 8), ("window", 16),
    ("checksum", 16), ("urgent_ptr", 16),
])

# GTP-U encapsulation header (simplified 3GPP TS 29.281 mandatory part).
GTPU = HeaderType("gtpu", [
    ("version", 3), ("pt", 1), ("spare", 1), ("ex_flag", 1), ("seq_flag", 1),
    ("npdu_flag", 1), ("msgtype", 8), ("msglen", 16), ("teid", 32),
])

# One source-routing stack entry, as in the P4 tutorial's source routing
# exercise: a bottom-of-stack bit plus the egress port for this hop.
SOURCE_ROUTE = HeaderType("srcRoute", [
    ("bos", 1), ("port", 15),
])

# EtherType values used across the substrate.
ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_VLAN = 0x8100
ETH_TYPE_SRCROUTE = 0x1234   # P4 tutorial convention
ETH_TYPE_HYDRA = 0x88B5      # IEEE local-experimental; carries Hydra telemetry

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17
IP_PROTO_ICMP = 1
UDP_PORT_GTPU = 2152


_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A packet: a header stack plus opaque payload length (bytes).

    ``meta`` carries host/test-side annotations (flow ids, timestamps); it
    is *not* visible to switch pipelines — pipelines see only headers.
    """

    headers: List[Header] = field(default_factory=list)
    payload_len: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- header-stack manipulation ------------------------------------------

    def find(self, name: str, nth: int = 0) -> Optional[Header]:
        """The nth header instance named ``name``, or None."""
        seen = 0
        for header in self.headers:
            if header.name == name:
                if seen == nth:
                    return header
                seen += 1
        return None

    def find_all(self, name: str) -> List[Header]:
        return [h for h in self.headers if h.name == name]

    def has(self, name: str) -> bool:
        return self.find(name) is not None

    def index_of(self, name: str) -> int:
        for i, header in enumerate(self.headers):
            if header.name == name:
                return i
        return -1

    def insert_after(self, anchor: str, header: Header) -> None:
        index = self.index_of(anchor)
        if index < 0:
            raise ValueError(f"no header named {anchor!r} to insert after")
        self.headers.insert(index + 1, header)

    def remove(self, name: str) -> Optional[Header]:
        index = self.index_of(name)
        if index < 0:
            return None
        return self.headers.pop(index)

    # -- size ------------------------------------------------------------------

    @property
    def header_bytes(self) -> int:
        total = 0
        for header in self.headers:
            if header.valid:
                total += header.htype.width_bytes
        return total

    @property
    def length(self) -> int:
        """Total on-wire length in bytes."""
        return self.header_bytes + self.payload_len

    # -- copying ------------------------------------------------------------------

    def copy(self) -> "Packet":
        return Packet(
            headers=[h.copy() for h in self.headers],
            payload_len=self.payload_len,
            packet_id=self.packet_id,
            meta=dict(self.meta),
        )

    def __getstate__(self) -> Dict[str, Any]:
        """The packet's value, for ``copy.copy``, ``copy.deepcopy`` and
        pickle: its fields, without the transit record a batched
        network may have memoized on it (``_ff``).  The record belongs
        to this template object and names hosts and switches of the
        network that made it; a copy starts without one."""
        state = self.__dict__.copy()
        state.pop("_ff", None)
        return state

    @classmethod
    def shell(cls, headers: List[Header], payload_len: int,
              packet_id: int, meta: Dict[str, Any]) -> "Packet":
        """Assemble a packet from pre-built parts without the dataclass
        constructor.  Takes ownership of ``headers``/``meta`` and does
        not consume a fresh ``packet_id`` — for hot paths (per-delivery
        shells in the batched replay) where every field is already
        known and the id must echo an existing packet's."""
        pkt = cls.__new__(cls)
        pkt.headers = headers
        pkt.payload_len = payload_len
        pkt.packet_id = packet_id
        pkt.meta = meta
        return pkt

    def __repr__(self) -> str:
        names = "/".join(h.name for h in self.headers)
        return f"Packet#{self.packet_id}[{names}+{self.payload_len}B]"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def make_udp(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
             payload_len: int = 64, ttl: int = 64,
             src_mac: int = 0x020000000001,
             dst_mac: int = 0x020000000002) -> Packet:
    """Ethernet/IPv4/UDP packet."""
    return Packet(headers=[
        ETHERNET(dst_addr=dst_mac, src_addr=src_mac, eth_type=ETH_TYPE_IPV4),
        IPV4(version=4, ihl=5, ttl=ttl, protocol=IP_PROTO_UDP,
             src_addr=src_ip, dst_addr=dst_ip,
             total_len=20 + 8 + payload_len),
        UDP(src_port=src_port, dst_port=dst_port, length=8 + payload_len),
    ], payload_len=payload_len)


def make_tcp(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
             payload_len: int = 64, ttl: int = 64) -> Packet:
    """Ethernet/IPv4/TCP packet."""
    return Packet(headers=[
        ETHERNET(dst_addr=0x020000000002, src_addr=0x020000000001,
                 eth_type=ETH_TYPE_IPV4),
        IPV4(version=4, ihl=5, ttl=ttl, protocol=IP_PROTO_TCP,
             src_addr=src_ip, dst_addr=dst_ip,
             total_len=20 + 20 + payload_len),
        TCP(src_port=src_port, dst_port=dst_port),
    ], payload_len=payload_len)


def make_source_routed(ports: Iterable[int], inner: Packet) -> Packet:
    """Prefix ``inner`` with a source-route stack visiting ``ports``.

    The outer EtherType becomes the source-routing type; the original
    EtherType is restored by the last hop when it pops the final entry.
    """
    packet = inner.copy()
    ether = packet.find("ethernet")
    if ether is None:
        raise ValueError("source routing requires an Ethernet header")
    original_type = ether.get("eth_type")
    ether.set("eth_type", ETH_TYPE_SRCROUTE)
    packet.meta["sr_original_eth_type"] = original_type
    entries = list(ports)
    if not entries:
        raise ValueError("source route must contain at least one hop")
    stack = []
    for i, port in enumerate(entries):
        stack.append(SOURCE_ROUTE(bos=1 if i == len(entries) - 1 else 0,
                                  port=port))
    # Insert the stack right after Ethernet, first hop on top.
    index = packet.index_of("ethernet") + 1
    for offset, entry in enumerate(stack):
        packet.headers.insert(index + offset, entry)
    return packet


def make_gtpu_encapsulated(outer_src: int, outer_dst: int, teid: int,
                           inner: Packet) -> Packet:
    """Wrap ``inner``'s IP payload in GTP-U (outer Eth/IPv4/UDP/GTP-U).

    Used by the Aether substrate for uplink packets arriving from small
    cells: the switch performing the UPF function decapsulates these.
    """
    inner_ip = inner.find("ipv4")
    if inner_ip is None:
        raise ValueError("GTP-U encapsulation requires an inner IPv4 packet")
    inner_headers = [h.copy() for h in inner.headers if h.name != "ethernet"]
    inner_bytes = sum(h.htype.width_bytes for h in inner_headers) + inner.payload_len
    outer = Packet(headers=[
        ETHERNET(dst_addr=0x02AA00000001, src_addr=0x02AA00000002,
                 eth_type=ETH_TYPE_IPV4),
        IPV4(version=4, ihl=5, ttl=64, protocol=IP_PROTO_UDP,
             src_addr=outer_src, dst_addr=outer_dst,
             total_len=20 + 8 + GTPU.width_bytes + inner_bytes),
        UDP(src_port=UDP_PORT_GTPU, dst_port=UDP_PORT_GTPU,
            length=8 + GTPU.width_bytes + inner_bytes),
        GTPU(version=1, pt=1, msgtype=255, msglen=inner_bytes, teid=teid),
    ], payload_len=inner.payload_len)
    outer.headers.extend(inner_headers)
    outer.meta.update(inner.meta)
    return outer


def ip(a: int, b: int, c: int, d: int) -> int:
    """Dotted-quad helper: ``ip(10, 0, 1, 1)``."""
    return (a << 24) | (b << 16) | (c << 8) | d


def format_ip(addr: int) -> str:
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))
