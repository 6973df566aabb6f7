"""Synthetic campus-traffic generation.

Stands in for the Princeton P4Campus mirror (two tapped /16 subnets,
~350K packets/s after anonymization).  The generator produces a
flow-structured, heavy-tailed packet stream with an IMIX-like size
distribution, deterministic under a seed, which the throughput
microbenchmark replays toward leaf1 exactly as the paper replays the
mirrored trace.

A trace is a stream of **draws**, not of packets: a draw is ``(flow,
wire size)`` — which live :class:`Flow` sends next, and the IMIX size it
sends — and :meth:`CampusTraceGenerator.draws` is the one RNG loop that
makes them.  :meth:`~CampusTraceGenerator.timed_draws` runs the one
exponential arrival clock over it for as long as it stays inside
``duration_s``; ``packets()`` / ``timed_packets()`` map a draw to a
:class:`Packet`, and a consumer that wants only sizes and flow ids (the
replay feed) reads the draws and builds none.  Nothing is kept per
draw: paper-rate traces (hundreds of thousands of packets per simulated
second) are never materialized, a reused template lives on its flow and
dies with it, and an unlucky inter-arrival tail can never exhaust a
pre-sized stream early (which used to silently under-offer load).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..net.packet import (ETHERNET, IP_PROTO_TCP, IP_PROTO_UDP, IPV4, TCP,
                          UDP, Packet, ip, make_tcp, make_udp)

# The two tapped campus subnets (stand-ins for the paper's two /16s).
CAMPUS_SUBNET_A = ip(128, 112, 0, 0)   # /16
CAMPUS_SUBNET_B = ip(140, 180, 0, 0)   # /16

# IMIX-ish packet sizes and weights.
_PACKET_SIZES = (64, 576, 1500)
_SIZE_WEIGHTS = (0.55, 0.25, 0.20)
# Pre-accumulated weights so the hot path can use bisect directly; the
# expressions mirror random.choices (cum_weights via accumulate, then
# bisect(cum, random() * (cum[-1] + 0.0), 0, n - 1)) so the draws are
# bit-identical to the historical rng.choices call for any seed.
_SIZE_CUM = tuple(accumulate(_SIZE_WEIGHTS))
_SIZE_TOTAL = _SIZE_CUM[-1] + 0.0
_SIZE_HI = len(_PACKET_SIZES) - 1
# On-wire header stack of a generated packet, by IP protocol.
_HEADER_BYTES = {
    proto: ETHERNET.width_bytes + IPV4.width_bytes + l4.width_bytes
    for proto, l4 in ((IP_PROTO_TCP, TCP), (IP_PROTO_UDP, UDP))}


def payload_len(size: int) -> int:
    """Payload bytes of a drawn wire size: what an Ethernet/IPv4/TCP
    stack leaves of it (a UDP packet of the same draw is shorter)."""
    return max(0, size - _HEADER_BYTES[IP_PROTO_TCP])


@dataclass
class Flow:
    """One generated flow: a 5-tuple (also as the tuple ``flow_id``),
    remaining packets, and — in reuse mode — its template per size."""

    src: int
    dst: int
    sport: int
    dport: int
    proto: int
    remaining: int
    flow_id: tuple
    templates: Dict[int, Packet] = field(default_factory=dict)


@dataclass
class TraceStats:
    packets: int = 0
    bytes: int = 0
    tcp_packets: int = 0
    udp_packets: int = 0
    flows: int = 0


class CampusTraceGenerator:
    """Deterministic synthetic campus trace.

    Flow sizes follow a bounded Pareto (heavy tail); 80% of flows are
    TCP.  Sources come from the two campus /16s, destinations from a
    synthetic "rest of the Internet" pool.

    With ``reuse_packets=True`` the generator hands out one shared
    :class:`Packet` template per (flow, size) pair instead of building
    a fresh packet each draw — the RNG sequence (and therefore the
    trace) is unchanged, but consumers must treat packets as immutable
    templates (the batched replay path does; it never mutates its
    inputs).

    ``stats`` counts what ``packets()`` and the ``timed_*`` streams
    emit; a draw the arrival clock turns away is not counted.
    """

    def __init__(self, seed: int = 2023, mean_flow_packets: float = 12.0,
                 max_flow_packets: int = 10_000,
                 reuse_packets: bool = False):
        self.rng = random.Random(seed)
        self.mean_flow_packets = mean_flow_packets
        self.max_flow_packets = max_flow_packets
        self.reuse_packets = reuse_packets
        self.stats = TraceStats()

    def _new_flow(self) -> Flow:
        rng = self.rng
        subnet = CAMPUS_SUBNET_A if rng.random() < 0.5 else CAMPUS_SUBNET_B
        src = subnet | rng.randrange(1, 1 << 16)
        dst = ip(93, 184, 0, 0) | rng.randrange(1, 1 << 16)
        proto = IP_PROTO_TCP if rng.random() < 0.8 else IP_PROTO_UDP
        sport = rng.randrange(1024, 65535)
        dport = rng.choice((80, 443, 53, 123, 8080, 3478))
        # Bounded Pareto flow length, shape ~1.2 (heavy tail).
        size = int(rng.paretovariate(1.2))
        size = max(1, min(size, self.max_flow_packets))
        self.stats.flows += 1
        return Flow(src, dst, sport, dport, proto, size,
                    (src, dst, sport, dport, proto))

    def _packet_for(self, flow: Flow, size: int) -> Packet:
        packet = flow.templates.get(size)   # always empty unless reusing
        if packet is None:
            make = make_tcp if flow.proto == IP_PROTO_TCP else make_udp
            packet = make(flow.src, flow.dst, flow.sport, flow.dport,
                          payload_len=payload_len(size))
            packet.meta["flow_id"] = flow.flow_id
            if self.reuse_packets:
                flow.templates[size] = packet
        return packet

    def _count(self, flow: Flow, size: int) -> None:
        stats = self.stats
        if flow.proto == IP_PROTO_TCP:
            stats.tcp_packets += 1
        else:
            stats.udp_packets += 1
        stats.packets += 1
        stats.bytes += _HEADER_BYTES[flow.proto] + payload_len(size)

    def draws(self, concurrent_flows: int = 64
              ) -> Iterator[Tuple[Flow, int]]:
        """The trace: an unbounded stream of ``(flow, wire size)`` draws
        interleaving ``concurrent_flows`` live flows.  The only RNG loop;
        counts nothing (its consumer decides what is emitted)."""
        rng = self.rng
        active: List[Flow] = [self._new_flow()
                              for _ in range(concurrent_flows)]
        while True:
            index = rng.randrange(len(active))
            flow = active[index]
            yield flow, _PACKET_SIZES[bisect_right(
                _SIZE_CUM, rng.random() * _SIZE_TOTAL, 0, _SIZE_HI)]
            flow.remaining -= 1
            if flow.remaining <= 0:
                active[index] = self._new_flow()

    def timed_draws(self, rate_pps: float, duration_s: float,
                    concurrent_flows: int = 64
                    ) -> Iterator[Tuple[float, Flow, int]]:
        """``(timestamp, flow, wire size)`` with exponential
        inter-arrivals at an average of ``rate_pps`` per second.

        The draw stream is unbounded, so the trace always covers the
        full ``duration_s`` no matter how the inter-arrival draws fall;
        the draw that lands past it is dropped uncounted.
        """
        now = 0.0
        expovariate = self.rng.expovariate
        for flow, size in self.draws(concurrent_flows):
            now += expovariate(rate_pps)
            if now > duration_s:
                return
            self._count(flow, size)
            yield now, flow, size

    def packets(self, count: Optional[int] = None,
                concurrent_flows: int = 64) -> Iterator[Packet]:
        """Yield ``count`` packets (unbounded when ``count=None``),
        interleaving concurrent flows."""
        for flow, size in islice(self.draws(concurrent_flows), count):
            self._count(flow, size)
            yield self._packet_for(flow, size)

    def timed_packets(self, rate_pps: float, duration_s: float,
                      concurrent_flows: int = 64
                      ) -> Iterator[Tuple[float, Packet]]:
        """:meth:`timed_draws`, each draw mapped to its packet."""
        for when, flow, size in self.timed_draws(rate_pps, duration_s,
                                                 concurrent_flows):
            yield when, self._packet_for(flow, size)
