"""Throughput microbenchmark (Section 6.2 text): replayed campus-style
traffic toward leaf1, delivered throughput compared with and without
Hydra — the paper found parity (~20 Gb/s in both configurations, limited
by the replay source rather than the switch).

In our substrate the replay drives the same leaf-spine fabric as
Figure 12.  Delivered goodput is measured at the sink hosts; the
checkers add only telemetry bytes inside the fabric (stripped before
delivery), so goodput parity is the expected result.

The replay is fully lazy: the campus trace is anonymized and
re-addressed one draw at a time through ``Network.attach_source``, so
paper-rate offered loads (350K+ pps) never materialize the whole trace
as pre-scheduled ``Host.send`` events.  Each campus flow maps to one
UDP template packet (stable source port per flow, sizes preserved),
which is what lets the batched network fast-forward repeat emissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..net.packet import Packet, make_udp
from ..workloads.anonymizer import PrefixPreservingAnonymizer
from ..workloads.campus import CampusTraceGenerator, payload_len
from .fig12 import Fig12Config, build_fabric


@dataclass
class ThroughputResult:
    label: str
    offered_packets: int
    delivered_packets: int
    delivered_bytes: int
    duration_s: float

    @property
    def goodput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.duration_s

    @property
    def delivery_ratio(self) -> float:
        if not self.offered_packets:
            return 0.0
        return self.delivered_packets / self.offered_packets


class ReplayFeed:
    """Lazily anonymize + re-address a campus trace onto the fabric.

    The paper's pipeline: tapped traffic passes a line-rate
    prefix-preserving anonymizer before replay.  We apply the same
    sanitization, then re-address onto our fabric endpoints, keeping
    packet sizes — the property that matters for throughput.  Each
    campus flow gets a stable source port (hashed onto 1000 ports, like
    the original replay's port cycling) and one shared template packet
    per (port, size), counted as it is offered.  The feed reads the
    trace's draws — ``(when, flow, wire size)`` — so these templates
    are the only packets a replay ever builds.
    """

    def __init__(self, generator: CampusTraceGenerator, src_ip: int,
                 dst_ip: int, rate_pps: float, duration_s: float):
        self._generator = generator
        self._anonymizer = PrefixPreservingAnonymizer()
        self._src_ip = src_ip
        self._dst_ip = dst_ip
        self._rate_pps = rate_pps
        self._duration_s = duration_s
        self._templates: dict = {}
        self._flow_ports: dict = {}
        self.offered = 0
        self.offered_bytes = 0

    def emissions(self) -> Iterator[Tuple[float, Packet]]:
        timed = self._generator.timed_draws(self._rate_pps,
                                            self._duration_s)
        templates = self._templates
        flow_ports = self._flow_ports
        anonymize = self._anonymizer.anonymize_ipv4
        for when, flow, size in timed:
            flow_id = flow.flow_id
            sport = flow_ports.get(flow_id)
            if sport is None:
                # The ONTAS step: build the flow's prefix-preserving
                # address mapping once (the anonymizer keeps the trie),
                # then re-address onto the fabric endpoints.
                anonymize(flow.src)
                anonymize(flow.dst)
                sport = 20000 + len(flow_ports) % 1000
                flow_ports[flow_id] = sport
            # Templates dedup on wire content, not flow identity: the
            # port cycling folds the flow universe onto 1000 source
            # ports, so two flows sharing a port slot and size replay
            # byte-identical packets — one template serves both, which
            # bounds the template (and transit-record) population.
            key = (sport, size)
            entry = templates.get(key)
            if entry is None:
                packet = make_udp(self._src_ip, self._dst_ip, sport, 5201,
                                  payload_len=payload_len(size))
                entry = (packet, packet.length)
                templates[key] = entry
            self.offered += 1
            self.offered_bytes += entry[1]
            yield when, entry[0]


def run_replay(checkers: Optional[List[str]], label: str,
               rate_pps: float = 20_000, duration_s: float = 0.1,
               seed: int = 5, engine: str = "codegen",
               batched: bool = False) -> ThroughputResult:
    """Replay a synthetic campus trace from h1 toward h3 (cross-fabric).

    ``batched=True`` runs the same replay through the network's batch
    hot loop; delivery counts, bytes, and timestamps are identical to
    the event-per-packet path by construction.
    """
    config = Fig12Config(link_bandwidth_bps=10e9, engine=engine,
                         batched=batched)
    network, _ = build_fabric(checkers, config)
    generator = CampusTraceGenerator(seed=seed, reuse_packets=True)
    feed = ReplayFeed(generator,
                      src_ip=network.topology.hosts["h1"].ipv4,
                      dst_ip=network.topology.hosts["h3"].ipv4,
                      rate_pps=rate_pps, duration_s=duration_s)
    network.attach_source("h1", feed.emissions())
    sink = network.host("h3")
    network.run()
    # The sink counts deliveries, bytes and the last delivery time
    # itself; ``received`` is only a window on the most recent ones (and
    # stays empty when rx callbacks consume the packets).
    last_arrival = (sink.last_rx_time
                    if sink.last_rx_time is not None else duration_s)
    return ThroughputResult(
        label=label,
        offered_packets=feed.offered,
        delivered_packets=sink.rx_count,
        delivered_bytes=sink.rx_bytes,
        duration_s=max(last_arrival, duration_s),
    )
