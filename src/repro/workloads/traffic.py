"""Traffic processes for the Figure 12 experiment: an iperf3-style UDP
load generator (one lazy template source per direction, see
``Network.attach_source``) and a fast-ping RTT probe.

A process whose bound method sits in a host's ``rx_callbacks`` is owned
by that host, so it reaches the network (or host) it talks to weakly:
a strong reference would make every finished network cyclic garbage.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import List, Tuple

from ..net.packet import Packet, make_udp
from ..net.simulator import Network

ECHO_PORT = 7        # the classic echo service
LOAD_PORT = 5201     # iperf3's default


class UdpLoadGenerator:
    """Bidirectional UDP load between two hosts (iperf3 stand-in).

    Sends fixed-size datagrams at an average of ``rate_bps`` in each
    direction; inter-packet gaps are jittered (exponential) so queues
    see bursts rather than a perfectly paced stream.  Each direction is
    one lazy source of one template packet: nothing is built per
    datagram and the scheduler holds one pending event per direction.
    """

    def __init__(self, network: Network, host_a: str, host_b: str,
                 rate_bps: float, packet_len: int = 1400,
                 seed: int = 7, jitter: bool = True,
                 burst_size: int = 8):
        if not (0 < rate_bps < float("inf") and packet_len > 0):
            raise ValueError(f"rate_bps must be finite and > 0, packet_len "
                             f"> 0, got {rate_bps} and {packet_len}")
        self.network = network
        self.host_a = host_a
        self.host_b = host_b
        self.rate_bps = rate_bps
        self.packet_len = packet_len
        self.rng = random.Random(seed)
        self.jitter = jitter
        # Real traffic is bursty (TCP windows, application batching):
        # packets leave back-to-back in trains of up to ``burst_size``
        # with exponential gaps between trains, which is what makes
        # queueing delay — and therefore RTT — noisy.
        self.burst_size = max(1, burst_size)
        self.packets_sent = 0

    def schedule(self, duration_s: float) -> int:
        """Attach the whole load; returns packet count.

        Each direction (a->b, then b->a, both from ``self.rng``) draws
        its source port and every burst up front, then sends one
        template packet at each drawn time through
        ``Network.attach_source``: ``sim.now`` plus the drawn offset,
        the time ``Host.send(delay=offset)`` would give.
        """
        network = self.network
        hosts = network.topology.hosts
        start = network.sim.now
        gap = (self.packet_len * 8) / self.rate_bps
        count = 0
        for src, dst in ((self.host_a, self.host_b),
                         (self.host_b, self.host_a)):
            sport = self.rng.randrange(30000, 60000)
            template = make_udp(hosts[src].ipv4, hosts[dst].ipv4, sport,
                                LOAD_PORT, payload_len=self.packet_len)
            # A list, built now: a lazy generator would read ``template``
            # after the loop moved on to the other direction.
            emissions: List[Tuple[float, Packet]] = []
            now = 0.0
            while now <= duration_s:
                if self.jitter:
                    burst = self.rng.randint(1, self.burst_size)
                    delta = self.rng.expovariate(1.0 / (gap * burst))
                else:
                    burst = 1
                    delta = gap
                now += delta
                if now > duration_s:
                    break
                emissions += [(start + now, template)] * burst
            network.attach_source(src, emissions)
            count += len(emissions)
        self.packets_sent = count
        return count


@dataclass
class RttSample:
    send_time: float
    rtt_s: float
    seq: int


class EchoResponder:
    """Replies to echo requests by swapping addresses and ports."""

    def __init__(self, network: Network, host: str):
        self.host = host
        self.replies = 0
        sink = network.host(host)
        self._host = weakref.ref(sink)
        sink.add_rx_callback(self._on_packet)

    def _on_packet(self, now: float, packet: Packet) -> None:
        udp = packet.find("udp")
        ipv4 = packet.find("ipv4")
        if udp is None or ipv4 is None or udp.get("dst_port") != ECHO_PORT:
            return
        reply = make_udp(ipv4.get("dst_addr"), ipv4.get("src_addr"),
                         ECHO_PORT, udp.get("src_port"),
                         payload_len=packet.payload_len)
        reply.meta["echo_seq"] = packet.meta.get("echo_seq")
        self.replies += 1
        self._host().send(reply)


class Pinger:
    """Sends an echo request every ``interval_s`` and records RTTs."""

    def __init__(self, network: Network, src_host: str, dst_host: str,
                 interval_s: float = 0.2, payload_len: int = 56):
        self._network = weakref.ref(network)
        self.src_host = src_host
        self.dst_host = dst_host
        self.interval_s = interval_s
        self.payload_len = payload_len
        self.samples: List[RttSample] = []
        self._sent: dict = {}
        self._seq = 0
        network.host(src_host).add_rx_callback(self._on_packet)

    def schedule(self, duration_s: float) -> int:
        """Schedule pings for the whole experiment; returns count."""
        network = self._network()
        src = network.topology.hosts[self.src_host]
        dst = network.topology.hosts[self.dst_host]
        # Multiply rather than accumulate so float drift cannot drop the
        # final tick.
        total = int(round(duration_s / self.interval_s))
        for k in range(1, total + 1):
            when = k * self.interval_s
            self._seq += 1
            seq = self._seq
            packet = make_udp(src.ipv4, dst.ipv4, 40000 + (seq % 1000),
                              ECHO_PORT, payload_len=self.payload_len)
            packet.meta["echo_seq"] = seq

            def send(pkt: Packet = packet, s: int = seq) -> None:
                self._sent[s] = network.sim.now
                network.transmit_from_host(self.src_host, pkt)

            network.sim.schedule(when, send)
        return total

    def _on_packet(self, now: float, packet: Packet) -> None:
        seq = packet.meta.get("echo_seq")
        udp = packet.find("udp")
        if seq is None or udp is None or udp.get("src_port") != ECHO_PORT:
            return
        sent_at = self._sent.pop(seq, None)
        if sent_at is None:
            return
        self.samples.append(RttSample(send_time=sent_at,
                                      rtt_s=now - sent_at, seq=seq))

    @property
    def rtts_ms(self) -> List[float]:
        return [s.rtt_s * 1e3 for s in self.samples]

    def series(self) -> List[Tuple[float, float]]:
        """(send time s, RTT ms) pairs — the Figure 12a series."""
        return [(s.send_time, s.rtt_s * 1e3) for s in self.samples]
