"""Event-driven packet-level network simulator.

The simulator stands in for the paper's Mininet and hardware testbeds.
It moves packets between hosts and switches over links with propagation
latency, serialization delay, and FIFO output queues; switches run P4 IR
pipelines via :class:`~repro.p4.bmv2.Bmv2Switch`.

The latency model mirrors how a hardware pipeline behaves: per-switch
processing delay is ``stages * stage_delay`` — *independent of which
program runs as long as the stage count is unchanged* — plus store-and-
forward serialization of the actual packet bytes.  Hydra's telemetry
header therefore costs only its extra serialization bytes, which is why
Figure 12 finds no significant RTT difference.

Two execution modes share one timing model:

* **event mode** (default) — one scheduler event per enqueue / arrival /
  forward, exactly the historical behaviour.  It is the reference every
  equivalence test compares batched mode against, so it stays a
  separate, plain implementation (``_send_over``/``_arrive``/
  ``_forward``) rather than a setting of the batched loop;
* **batched mode** (``Network(batched=True)``) — the hot loop for
  paper-rate replay, in two tiers.  Every packet walks its whole path
  eagerly inside one event under the *horizon invariant* (every eagerly
  executed step must predate the next pending scheduler event, else the
  walk parks itself as a continuation event); on a stateless fabric a
  walk also memoizes its transit record on the template packet, and
  repeat emissions of that template fast-forward through the record
  without running a pipeline.  See ``docs/INTERNALS.md`` §5 for the
  invariants.

The scheduler itself (:class:`Simulator`) is one binary heap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

from ..obs import NULL_OBS, Observability
from ..p4.bmv2 import (DEFAULT_LOG_CAPACITY, Bmv2Switch, BoundedLog,
                       drop_reason)
from .fastforward import stateless_program
from .packet import Packet
from .topology import Endpoint, Link, Topology

DEFAULT_STAGE_DELAY_S = 40e-9     # per-pipeline-stage latency
DEFAULT_STAGES = 12               # the Aether fabric-upf baseline

#: Transit-cache generations for every :class:`Network` in the process.
#: A template packet carries its memo (``packet._ff``) from network to
#: network, so a generation must never repeat across networks: drawing
#: them all from one counter keeps the memo check a single int compare.
_GENERATIONS = itertools.count(1)


def _noop() -> None:
    """Sentinel event body: marks a virtual time the batched drain
    already executed work at, so the clock ends where event mode's."""


class Simulator:
    """A discrete-event scheduler: one heap of ``(time, seq, callback)``.

    Events run in ascending ``(time, seq)`` order, so simultaneous
    events run in scheduling order.
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: The ``until`` bound of the innermost :meth:`run` call — the
        #: batched network consults it so eager walks never execute
        #: simulated work past the caller's stop time.
        self.run_until: Optional[float] = None
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> None:
        """Schedule at an absolute simulated time.

        Times at or before ``now`` are legal and fire next, ordered by
        ``(time, seq)`` like every other event — the batched network
        uses this for continuation events anchored to virtual times.
        """
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def peek_next_time(self) -> Optional[float]:
        """Earliest pending event time, or None — the batched network's
        *horizon*: eager work strictly before it cannot be observed by,
        or observe, anything still in the queue."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order; with ``until``, only those at or before
        it, and leave the clock at ``until``, which may not precede
        ``now``."""
        if until is not None and until < self.now:
            raise ValueError(f"cannot run back to {until!r}: "
                             f"the clock is at {self.now!r}")
        prev_until = self.run_until
        self.run_until = until
        heap = self._heap
        try:
            while heap and (until is None or heap[0][0] <= until):
                self.now, _, callback = heapq.heappop(heap)
                callback()
            if until is not None:
                self.now = until
        finally:
            self.run_until = prev_until

    @property
    def pending(self) -> int:
        return len(self._heap)


class Host:
    """A host endpoint: sends packets, delivers receptions to callbacks.

    When no callback is registered, receptions go to ``received``, a
    ``BoundedLog``: the last ``DEFAULT_LOG_CAPACITY`` ``(time, packet)``
    deliveries and a ``total``.  A consumer that wants every packet adds
    a callback: each gets every packet and filters for what it cares about.

    ``tx_count`` counts packets that actually started serializing onto
    the wire; a send still scheduled (``send`` with a future delay) is not.
    """

    def __init__(self, name: str, network: "Network"):
        self.name = name
        self.network = network
        self.received: BoundedLog = BoundedLog(
            on_evict=network._evict_counter("received", name))
        self.rx_callbacks: List[Callable[[float, Packet], None]] = []
        self.tx_count = 0
        self.rx_count = 0
        self.rx_bytes = 0
        #: Simulated time of the most recent delivery to this host —
        #: survives rx callbacks consuming the packet, unlike
        #: ``received`` (which callbacks bypass).
        self.last_rx_time: Optional[float] = None
        # NIC serialization queue: time at which the host's (single)
        # uplink finishes its current transmission — hosts get the same
        # FIFO treatment as switch output ports, so injecting above link
        # bandwidth queues instead of overlapping on the wire.
        self.nic_busy_until = 0.0

    def add_rx_callback(self,
                        callback: Callable[[float, Packet], None]) -> None:
        self.rx_callbacks.append(callback)

    def send(self, packet: Packet, delay: float = 0.0) -> None:
        """Transmit toward the attached switch after ``delay`` seconds."""
        self.network.sim.schedule(
            delay, lambda: self.network.transmit_from_host(self.name, packet)
        )

    def deliver(self, packet: Packet, length: Optional[int] = None) -> None:
        self.rx_count += 1
        self.rx_bytes += packet.length if length is None else length
        now = self.network.sim.now
        self.last_rx_time = now
        if self.rx_callbacks:
            for callback in self.rx_callbacks:
                callback(now, packet)
        else:
            self.received.append((now, packet))


class SwitchDevice:
    """A switch in the simulation: a Bmv2 pipeline plus timing state."""

    def __init__(self, name: str, bmv2: Bmv2Switch, stages: int = DEFAULT_STAGES):
        self.name = name
        self.bmv2 = bmv2
        self.stages = stages
        # Per output port: time at which the port finishes its current
        # transmission (FIFO serialization queue).
        self.port_busy_until: Dict[int, float] = {}
        self.bytes_forwarded = 0

    @property
    def processing_delay_s(self) -> float:
        return self.stages * DEFAULT_STAGE_DELAY_S


class _LazySource:
    """A lazily-consumed ``(time, packet)`` emission stream for a host.

    Emission times must be non-decreasing (``ValueError`` at the pull
    that breaks it: deliveries made stand, nothing later is sent).  The
    network pulls one emission at a time, so paper-rate traces are
    never materialized.
    """

    __slots__ = ("host", "_iter", "head")

    def __init__(self, host: str, emissions: Iterable[Tuple[float, Packet]]):
        self.host = host
        self._iter: Iterator[Tuple[float, Packet]] = iter(emissions)
        self.head: Optional[Tuple[float, Packet]] = next(self._iter, None)

    def pop(self) -> Tuple[float, Packet]:
        """Take the head and pull the next emission.  A pull that raises
        (or breaks the order) ends the source: the taken head is not
        sent and ``head`` stays None, so nothing resumes it."""
        head = self.head
        self.head = None
        pulled = next(self._iter, None)
        if pulled is not None and pulled[0] < head[0]:
            raise self.unordered(pulled[0], head[0])
        self.head = pulled
        return head

    def unordered(self, when: float, prev: float) -> ValueError:
        return ValueError(f"source on {self.host!r}: emission at {when!r} "
                          f"follows one at {prev!r}")


#: The source of a drain that has only parked replays to finish.
_EXHAUSTED = _LazySource("", ())


class HopRecord(NamedTuple):
    """One pipeline run, as :meth:`Network.record_hops` keeps it.

    Assembled at the call site from what the engine already returns:
    ``packet`` is the engine's argument, the pre-pipeline packet (both
    engines only read it), ``outputs`` its result, ``digests`` how many
    digests the run raised.
    """

    t: float                           # sim time the pipeline ran
    switch: str
    ingress_port: int
    packet: Packet
    outputs: List[Tuple[int, Packet]]  # empty: dropped
    digests: int

    @property
    def drop_reason(self) -> Optional[str]:
        """None if the packet left the pipeline, else its drop label."""
        return None if self.outputs else drop_reason(self.packet)


class Network:
    """Hosts + switches wired per a :class:`Topology`, with a scheduler.

    With ``serialize_on_wire=True`` every packet is serialized to bits
    and re-parsed at each link traversal, proving that the header codecs
    carry the complete state — no information rides along in Python
    object identity.  (Host-side ``meta`` annotations survive: they
    stand in for payload contents, which this substrate models only as
    lengths.)

    With ``batched=True`` the network runs the batch hot loop (eager
    path walks, plus flow fast-forwarding where every switch program
    is stateless) with timing identical to event mode; a live tracer
    still disables the eager machinery (trace consumers want one event
    per hop) and falls back to event mode transparently.

    :meth:`record_hops` keeps a :class:`HopRecord` per pipeline run on
    ``hops``; both modes record the same hops (batched mode does not
    fast-forward flows while recording).

    Every NIC and output-port FIFO is unbounded (a backlog waits); the
    network-layer drop is ``no_route``.  A live tracer reads the clock
    of the network built or run last.
    """

    def __init__(self, topology: Topology,
                 switch_programs: Dict[str, Bmv2Switch],
                 stage_counts: Optional[Dict[str, int]] = None,
                 serialize_on_wire: bool = False,
                 obs: Optional[Observability] = None,
                 batched: bool = False):
        self.topology = topology
        self.serialize_on_wire = serialize_on_wire
        self.sim = Simulator()
        self.obs = obs if obs is not None else NULL_OBS
        self._trace = self.obs.tracer.live
        self._metrics = self.obs.registry.live
        if self._trace:
            self.obs.tracer.clock = self._clock = lambda: self.sim.now
        if self._metrics:
            reg = self.obs.registry
            self._m_qdrops = reg.counter(
                "queue_drops_total",
                "packets dropped by the network layer",
                labels=("node", "reason"))
            self._m_delivered = reg.counter(
                "packets_delivered_total", "packets delivered to hosts",
                labels=("host",))
            self._g_simtime = reg.gauge(
                "sim_time_seconds", "current simulator time")
        self.hosts: Dict[str, Host] = {
            name: Host(name, self) for name in topology.hosts
        }
        self.switches: Dict[str, SwitchDevice] = {}
        stage_counts = stage_counts or {}
        for name in topology.switches:
            if name not in switch_programs:
                raise ValueError(f"no P4 program bound for switch {name!r}")
            self.switches[name] = SwitchDevice(
                name, switch_programs[name],
                stages=stage_counts.get(name, DEFAULT_STAGES),
            )
        self.packets_delivered = 0
        self.packets_lost = 0
        #: The recent :class:`HopRecord`s; None until :meth:`record_hops`.
        self.hops: Optional[BoundedLog] = None
        # -- batched-mode state --------------------------------------------
        #: Whether the eager machinery runs at all (see class docstring).
        self._eager = batched and not self._trace
        # Redrawn on every control-plane change; template memos,
        # in-flight recordings and parked replays from an older
        # generation are discarded.
        self._cache_gen = next(_GENERATIONS)
        self._stateless: Optional[bool] = None  # computed lazily
        #: The eager walk's wire table (see :meth:`_wire_rows`) and the
        #: ``len(topology.links)`` it was derived from.
        self._wire: Dict[Tuple[str, int], tuple] = {}
        self._wired = 0
        if self._eager:
            for device in self.switches.values():
                device.bmv2.on_config_change(self._on_switch_config)

    def _evict_counter(self, log: str, node: str) -> Optional[Callable]:
        """A ring's ``on_evict``: no callback without a live registry."""
        if not self._metrics:
            return None
        return lambda count: self.obs.registry.counter(
            "log_evictions_total", "entries evicted from bounded ring logs",
            labels=("log", "node")).labels(log, node).inc(count)

    def record_hops(self) -> BoundedLog:
        """Keep a :class:`HopRecord` per pipeline run from now on: the
        recent ones on ``self.hops`` (returned).  While it is attached,
        flow fast-forwarding declines (a replay skips pipeline runs), so
        batched mode walks every packet."""
        self.hops = BoundedLog(DEFAULT_LOG_CAPACITY)
        # Replays already in flight go stale, so they re-walk and record.
        self._cache_gen = next(_GENERATIONS)
        return self.hops

    def _process_recorded(self, device: SwitchDevice, packet: Packet,
                          port: int, t: float) -> List[Tuple[int, Packet]]:
        """``device``'s pipeline run at ``t``, with its hop recorded."""
        hops = self.hops
        digests = device.bmv2.digests
        before = digests.total
        outputs = device.bmv2.process(packet, port)
        hops.append(HopRecord(t, device.name, port, packet, outputs,
                              digests.total - before))
        return outputs

    # -- transmission ------------------------------------------------------------

    def transmit_from_host(self, host_name: str, packet: Packet) -> None:
        if self._eager:
            self._walk_from_host(host_name, packet, self.sim.now)
            return
        attach = self.topology.host_attachment(host_name)
        link = self.topology.link_at(attach.node, attach.port)
        assert link is not None
        self._send_over(link, link.other(attach), packet)

    def _send_over(self, link: Link, src: Endpoint, packet: Packet) -> None:
        """Serialize + propagate a packet from ``src`` over ``link``."""
        dst = link.other(src)
        length = packet.length
        tx_time = length * 8 / link.bandwidth_bps
        # Serialization queueing at the sending side.
        if src.node in self.switches:
            device = self.switches[src.node]
            start = max(self.sim.now,
                        device.port_busy_until.get(src.port, 0.0))
            device.port_busy_until[src.port] = start + tx_time
            device.bytes_forwarded += length
        else:
            # Hosts serialize through their NIC FIFO exactly like a
            # switch output port: back-to-back sends queue behind the
            # in-flight transmission rather than bypassing it.  Going
            # onto the wire — not Host.send scheduling time — is when
            # the packet counts as sent.
            host = self.hosts[src.node]
            start = max(self.sim.now, host.nic_busy_until)
            host.nic_busy_until = start + tx_time
            host.tx_count += 1
        ready = start + tx_time
        if self._trace:
            self.obs.tracer.emit(
                "enqueue", src.node, packet.packet_id, port=src.port,
                packet=packet, queue_wait_s=start - self.sim.now)
            self.obs.tracer.emit(
                "link", src.node, packet.packet_id, port=src.port,
                packet=packet, dst=dst.node, dst_port=dst.port,
                tx_time_s=tx_time, latency_s=link.latency_s)
        if self.serialize_on_wire:
            packet = self._wire_roundtrip(packet)
        arrival_delay = (ready - self.sim.now) + link.latency_s
        self.sim.schedule(arrival_delay,
                          lambda: self._arrive(dst, packet, length))

    def _drop(self, node: str, packet: Packet, reason: str,
              port: Optional[int] = None) -> None:
        """Account a network-layer drop (a routing hole)."""
        self.packets_lost += 1
        if self._metrics:
            self._m_qdrops.labels(node, reason).inc()
        if self._trace:
            self.obs.tracer.emit("drop", node, packet.packet_id, port=port,
                                 packet=packet, reason=reason)

    @staticmethod
    def _wire_roundtrip(packet: Packet) -> Packet:
        """Serialize every header to bits and re-parse it — the packet
        that arrives is rebuilt purely from its wire representation.

        Invalid headers are preserved bit-for-bit with their validity
        flag intact: a header invalidated at one hop and re-validated
        downstream must behave identically whether or not the wire
        roundtrip runs, so the roundtrip may not discard its contents.
        """
        from .packet import Header

        rebuilt = []
        for header in packet.headers:
            bits, _ = header.to_bits()
            copy = Header.from_bits(header.htype, bits)
            copy.valid = header.valid
            rebuilt.append(copy)
        out = Packet(headers=rebuilt, payload_len=packet.payload_len,
                     meta=dict(packet.meta))
        out.packet_id = packet.packet_id
        return out

    def _arrive(self, end: Endpoint, packet: Packet,
                length: Optional[int] = None) -> None:
        if end.node in self.hosts:
            self.packets_delivered += 1
            if self._metrics:
                self._m_delivered.labels(end.node).inc()
            if self._trace:
                self.obs.tracer.emit("deliver", end.node, packet.packet_id,
                                     port=end.port, packet=packet)
            self.hosts[end.node].deliver(packet, length)
            return
        device = self.switches[end.node]
        self.sim.schedule(
            device.processing_delay_s,
            lambda: self._forward(device, packet, end.port),
        )

    def _forward(self, device: SwitchDevice, packet: Packet,
                 ingress_port: int) -> None:
        if self.hops is None:
            outputs = device.bmv2.process(packet, ingress_port)
        else:
            outputs = self._process_recorded(device, packet, ingress_port,
                                             self.sim.now)
        if not outputs:
            # The switch's own instrumentation emits the drop event
            # (reason=ttl|pipeline) — it knows the verdict; the network
            # only keeps the aggregate loss counter.
            self.packets_lost += 1
            return
        for egress_port, out_packet in outputs:
            link = self.topology.link_at(device.name, egress_port)
            if link is None:
                self._drop(device.name, out_packet, "no_route",
                           port=egress_port)
                continue
            self._send_over(link, Endpoint(device.name, egress_port),
                            out_packet)

    # ==================================================================
    # Batched mode: the eager walk and flow fast-forwarding
    # ==================================================================
    #
    # Exactness rests on the horizon invariant: simulated work at
    # virtual time t may run eagerly only while t strictly precedes
    # both the earliest pending scheduler event and the attached
    # source's next emission time (the "cap") — anything at or beyond
    # that horizon parks itself as a continuation event and the
    # scheduler takes over.  One tie rule goes with it: the event the
    # scheduler just popped owns its instant (every pending event at
    # the same time has a larger seq and serializes after it), so a
    # step at that instant runs rather than parks — re-parking would
    # ping-pong forever against another continuation doing the same.
    # ``_pump``, ``_walk`` and ``_drain`` each apply it.  All timing
    # arithmetic below replicates ``_send_over``/``_arrive``
    # float-expression-for-float-expression, so both modes produce
    # bit-identical timestamps.

    def attach_source(self, host_name: str,
                      emissions: Iterable[Tuple[float, Packet]]) -> None:
        """Attach a lazy ``(time, packet)`` emission stream to a host.

        Works in both modes: event mode self-schedules one emission at
        a time (O(1) memory, unlike pre-materializing ``Host.send``
        calls); batched mode drains every due emission per wakeup.
        Emission times must be non-decreasing (else ``ValueError``).
        """
        if host_name not in self.hosts:
            raise ValueError(f"unknown host {host_name!r}")
        source = _LazySource(host_name, emissions)
        if source.head is None:
            return
        self.sim.schedule_at(source.head[0], lambda: self._pump(source))

    def _pump(self, source: _LazySource) -> None:
        if not self._eager:
            # Event mode: transmit the head emission, reschedule for
            # the next — one event per emission, nothing materialized.
            when, packet = source.pop()
            self.transmit_from_host(source.host, packet)
            if source.head is not None:
                self.sim.schedule_at(source.head[0],
                                     lambda: self._pump(source))
            return
        if self._ff_ready():
            self._drain(source)
            return
        # Stateful fabric: walk each due emission, capped by the next.
        # The tie rule: this pump was popped at its head's time, so
        # that one emission goes out whatever else is pending now.
        sim = self.sim
        until = sim.run_until
        while True:
            # Event mode pops each emission at its instant (no walk got
            # past it: the cap), so a source that raises stops the
            # clock there in both modes.
            sim.now = source.head[0]
            when, packet = source.pop()
            head = source.head
            self._walk_from_host(source.host, packet, when,
                                 head[0] if head is not None else None)
            if head is None:
                return
            when = head[0]
            horizon = sim.peek_next_time()
            if ((until is not None and when > until)
                    or (horizon is not None and when >= horizon)):
                sim.schedule_at(when, lambda: self._pump(source))
                return

    def _ff_ready(self) -> bool:
        """Flow fast-forwarding admission: every switch stateless, no
        wire serialization, no hop recorder, no live tracer (checked by
        callers)."""
        if self.serialize_on_wire or self.hops is not None:
            return False
        if self._stateless is None:
            self._stateless = all(
                stateless_program(device.bmv2.program)
                for device in self.switches.values())
        return self._stateless

    def _on_switch_config(self, *_args: Any) -> None:
        """Any control-plane change voids every transit record (routes
        may differ): memos, in-flight recordings and parked replays
        carry the generation they were made under.  Program structure
        is immutable, so the statelessness verdict stands."""
        self._cache_gen = next(_GENERATIONS)

    def _wire_rows(self) -> None:
        """Derive the wire table: per sending ``(node, port)``, the row
        ``(bandwidth_bps, latency_s, sender, from_host, far node, far
        port, far device, delivery Endpoint)`` — sender and far device
        are the ``Host`` or ``SwitchDevice``, the ``Endpoint`` is
        ``None`` unless the far end is a host.  A host's row is keyed
        ``(host, 0)`` and is its first link, the one
        ``Topology.host_attachment`` names.  A topology only ever gains
        links, so the table is current while ``len(links)`` is, and
        catching up is adding the new links' rows."""
        hosts = self.hosts
        nodes = {**self.switches, **hosts}
        links = self.topology.links
        wire = self._wire
        for link in links[self._wired:]:
            for near, far in ((link.a, link.b), (link.b, link.a)):
                from_host = near.node in hosts
                wire.setdefault(
                    (near.node, 0 if from_host else near.port),
                    (link.bandwidth_bps, link.latency_s, nodes[near.node],
                     from_host, far.node, far.port, nodes[far.node],
                     far if far.node in hosts else None))
        self._wired = len(links)

    def _horizon(self, cap: Optional[float]) -> Optional[float]:
        """The eager-execution bound: min(next pending event, cap)."""
        horizon = self.sim.peek_next_time()
        if cap is not None and (horizon is None or cap < horizon):
            return cap
        return horizon

    def _walk_from_host(self, host_name: str, packet: Packet, t: float,
                        cap: Optional[float] = None) -> None:
        rec = None
        if self._ff_ready():
            gen = self._cache_gen
            ff = getattr(packet, "_ff", None)
            if ff is not None and ff[0] == gen and ff[2] == host_name:
                # A ``Host.send`` of a memoized template: a drain with
                # nothing left to emit and this one replay to finish.
                self._drain(_EXHAUSTED, [(t, 0, ff[1], 0, packet, gen)])
                return
            rec = [("gen", gen)]
        self._walk("wire", host_name, 0, packet, t, cap, rec)

    def _defer_walk(self, phase: str, node: str, port: int, packet: Packet,
                    t: float, rec: Optional[list]) -> None:
        """Park a walk as a continuation event at its virtual time.

        An in-flight recording survives the park (the continuation
        keeps appending to ``rec``); :meth:`_store_record` discards it
        at store time if the cache generation moved meanwhile.
        """
        self.sim.schedule_at(
            t, lambda: self._walk(phase, node, port, packet, t, None, rec))

    def _walk(self, phase: str, node: str, port: int, packet: Packet,
              t: float, cap: Optional[float], rec: Optional[list]) -> None:
        """Eagerly execute one packet's path starting at virtual time
        ``t``.

        ``phase`` is ``"wire"`` (about to serialize from ``node`` out
        of ``port``; hosts always use port 0) or ``"fw"`` (pipeline
        about to run at switch ``node``, ingress ``port``).  ``rec``
        accumulates a transit record to memoize; it survives deferrals
        (the continuation keeps recording) and is abandoned on routing
        anomalies — only clean walks are worth replaying.
        """
        sim = self.sim
        wire = self._wire
        if self._wired != len(self.topology.links):
            self._wire_rows()
        device = self.switches.get(node)
        horizon = self._horizon(cap)
        until = sim.run_until
        while True:
            # The tie rule: a step at the current instant never parks.
            # Steps that advance past ``sim.now`` re-check the horizon.
            if ((until is not None and t > until)
                    or (horizon is not None and t >= horizon
                        and t > sim.now)):
                self._defer_walk(phase, node, port, packet, t, rec)
                return
            sim.now = t
            if phase == "wire":
                row = wire.get((node, port))
                if row is None:
                    if device is None:
                        raise ValueError(f"host {node!r} is not attached")
                    self._drop(node, packet, "no_route", port=port)
                    return
                (bandwidth_bps, latency_s, sender, from_host, far_node,
                 far_port, far, end) = row
                plen = packet.length
                tx_time = plen * 8 / bandwidth_bps
                if from_host:
                    start = max(t, sender.nic_busy_until)
                    sender.nic_busy_until = start + tx_time
                    sender.tx_count += 1
                else:
                    start = max(t, sender.port_busy_until.get(port, 0.0))
                    sender.port_busy_until[port] = start + tx_time
                    sender.bytes_forwarded += plen
                ready = start + tx_time
                if rec is not None:
                    rec.append(("hw" if from_host else "sw", node, port,
                                tx_time, latency_s, plen, packet, sender))
                if self.serialize_on_wire:
                    packet = self._wire_roundtrip(packet)
                arrival = (ready - t) + latency_s + t
                node = far_node
                port = far_port
                if end is not None:
                    if rec is not None:
                        rec.append(("dv", node, port, packet, plen, end, far))
                        self._store_record(rec)
                    self._deliver_walk(far, end, packet, arrival, horizon,
                                       until, plen)
                    return
                device = far
                t = arrival + device.processing_delay_s
                phase = "fw"
                if rec is not None:
                    rec.append(("fw", node, port,
                                device.processing_delay_s, packet))
                continue
            # phase == "fw": the pipeline runs at forward time t.
            if self.hops is None:
                outputs = device.bmv2.process(packet, port)
            else:
                outputs = self._process_recorded(device, packet, port, t)
            if not outputs:
                self.packets_lost += 1
                if rec is not None:
                    rec.append(("dr",))
                    self._store_record(rec)
                return
            # Neither engine multicasts: a run yields one output or none.
            [(port, packet)] = outputs
            phase = "wire"

    def _store_record(self, rec: list) -> None:
        """Memoize a finished recording on the template it was made
        from (the packet recorded at the NIC leg).

        ``rec[0]`` is the ``("gen", g)`` sentinel stamped when
        recording began; a control-plane change mid-flight voids the
        record (its early legs reflect the old routes).  The memo is

          ``(gen, legs, host, hw, fw_delay, sw, dv, dv_host)``

        for the canonical one-switch shape (legs pre-unpacked so the
        drain's fast tier pays no per-emission shape test) and
        ``(gen, legs, host, None)`` for any other.  It names the
        emitting host because the same template sent from another
        host takes another path: a mismatch re-walks.
        """
        gen = rec[0][1]
        if gen != self._cache_gen:
            return
        legs = rec[1:]
        hw = legs[0]
        if (len(legs) == 4 and legs[1][0] == "fw" and legs[2][0] == "sw"
                and legs[3][0] == "dv"):
            memo = (gen, legs, hw[1], hw, legs[1][3], legs[2], legs[3],
                    legs[3][6])
        else:
            memo = (gen, legs, hw[1], None)
        hw[6]._ff = memo

    def _deliver_walk(self, host: Host, end: Endpoint, packet: Packet,
                      arrival: float, horizon: Optional[float],
                      until: Optional[float],
                      length: Optional[int] = None) -> None:
        """Deliver to ``host`` (at ``end``) at virtual time ``arrival``:
        inline when the host is inert (no rx callbacks — nothing it
        does can be observed before the walk returns) and the horizon
        allows it, else as a scheduler event so callbacks fire at their
        true simulated time with the queue in charge."""
        if (host.rx_callbacks
                or (horizon is not None and arrival >= horizon)
                or (until is not None and arrival > until)):
            self.sim.schedule_at(arrival,
                                 lambda: self._arrive(end, packet, length))
            return
        self.sim.now = arrival
        self._arrive(end, packet, length)

    @staticmethod
    def _replay_out(legs: list, leg: tuple, emission: Packet) -> Packet:
        """The packet a replayed delivery hands the host.

        When the emission *is* the recorded source template (the normal
        case — sources reuse template packets), the recorded output
        packet is delivered as-is: it is exactly what the event path
        delivered when the record was made, and repeat traversals of a
        stateless fabric reproduce it bit-for-bit.  A different
        emission object (a copy that carried the memo along) gets a
        fresh shell with its own id/meta.
        """
        out = leg[3]
        if emission is legs[0][6]:
            return out
        return Packet.shell(list(out.headers), out.payload_len,
                            emission.packet_id, dict(emission.meta))

    def _replay_stale(self, legs: list, t: float, index: int,
                      cap: Optional[float]) -> None:
        """The cache generation moved under a parked replay: the legs
        from ``index`` on may follow stale routes, so the rest is a
        plain walk from the recorded in-flight packet (value-identical
        for template emissions, since stateless pipelines are
        deterministic functions of the packet).  A replay parks at
        forward time, so the walk starts by re-running that pipeline
        (the ``fw`` leg before ``index``) on the new tables."""
        leg = legs[index - 1]
        self._walk("fw", leg[1], leg[2], leg[4], t, cap, None)

    def _drain(self, source: _LazySource,
               heap: Optional[list] = None) -> None:
        """Flow fast-forwarding: drain a source through a stateless
        fabric with a local run queue instead of scheduler events.

        A tiny event loop merges two item streams in exact virtual-time
        order — the source's emissions and parked replays (``heap``) —
        and runs them inline for as long as the next item precedes
        every *global* scheduler event (the horizon) and the
        ``run(until)`` bound.  Heap entries are plain tuples, so a
        park/resume cycle costs two heap ops instead of a closure plus
        a scheduler round-trip.  The moment the global queue intrudes,
        every local item is handed back to the scheduler as a
        continuation event — a drain seeded with that one item and an
        exhausted source, which is also what a ``Host.send`` of a
        memoized template is.

        An emission whose template carries no valid memo (see
        :meth:`_store_record`) takes a recording walk; one that does
        replays its record leg by leg with pure float arithmetic: FIFO
        waits are recomputed against live ``busy_until`` state, only
        the path and the per-hop delays are memoized.  Each loop
        iteration picks the earliest item and takes one *generic
        step*: it runs that item's legs until the next leg would cross
        the horizon or reach another local item's time, then parks it.
        A picked item always runs its first leg, and the first item a
        call picks is exempt from the global horizon (the tie rule: it
        is what the scheduler popped this call for), so equal times
        never re-park forever.

        The *fast tier* is an inner loop ahead of that step.  With
        nothing parked locally, emissions whose memo has the one-switch
        shape (``hw``/``fw``/``sw``/``dv``) and whose sink has no rx
        callbacks replay straight-line.  It loads the mutable endpoint
        state — the source NIC's FIFO clock and tx count, the egress
        port's FIFO clock and byte count, the sink's rx counters —
        into locals once, runs while emissions keep using the same
        port and sink, and writes everything back in one place when it
        stops; nothing else runs in between, so nothing can observe
        the real attributes while they lag.

        Unlike the generic step, the fast tier does not park against
        the source's own next emission time.  That is exact: every
        emission of this source serializes through the same NIC FIFO
        first, so a later emission reaches any switch this record
        crosses no earlier than this packet did — and the one-switch
        shape is the *shortest* route from that NIC to its output port
        (a single pipeline delay), so no later packet can undercut its
        claim by another route either.  Per-resource claims therefore
        stay in arrival order without parking.  Anything that could
        break the argument — a packet parked mid-path (non-empty local
        heap), a global event (horizon), rx callbacks — goes through
        the generic step.  Because fast-tier deliveries may thus run
        ahead of later (earlier-timed) emissions, ``sim.now`` is not
        written per delivery; the high-water mark is restored at exit
        (as a sentinel event when earlier global work is still queued)
        so the clock ends where event mode would leave it.

        Every exit is that one exit, a raise included: when the source
        raises (or breaks its order) the fast tier writes back first,
        parked items go back to the scheduler, the clock reaches the
        failed emission's time and the source is not resumed — where
        event mode, whose pump raised at that instant, leaves things.

        Heap items: ``(t, seq, legs, index, emission, gen)`` — resume
        ``legs`` at ``index`` at time ``t``; ``gen`` is the generation
        the replay started under.
        """
        sim = self.sim
        inf = float("inf")
        until = sim.run_until
        stop = until if until is not None else inf
        if heap is None:
            heap = []
        hpush = heapq.heappush
        hpop = heapq.heappop
        nxt = next
        seq = len(heap)
        # The horizon and the generation are read here and again after
        # each walk and delivery: those (and the callbacks they run)
        # are all that can add a global event or change a table.
        peek = sim.peek_next_time
        g = peek()
        g_h = g if g is not None else inf
        gen = self._cache_gen
        # The tie rule: the first item is due at the instant this call
        # was popped at, and runs even against an equal-time horizon.
        owner = True
        now_hi = t = sim.now
        src_name = source.host
        src_iter = source._iter
        try:
            while True:
                # ======== fast tier: nothing parked locally ========
                dvhost: Optional[Host] = None
                fault: Optional[BaseException] = None
                while not heap:
                    head = source.head
                    if head is None:
                        break
                    t = head[0]
                    if (t >= g_h and not owner) or t > stop:
                        break
                    emission = head[1]
                    try:
                        ff = emission._ff
                    except AttributeError:
                        break
                    if ff[0] != gen or ff[2] != src_name or ff[3] is None:
                        break
                    swleg = ff[5]
                    if dvhost is None:
                        # Load the endpoint state this run works on.
                        if ff[7].rx_callbacks:
                            break
                        dvhost = ff[7]
                        src_host = self.hosts[src_name]
                        cdev = swleg[7]
                        cport = swleg[2]
                        nic_busy = src_host.nic_busy_until
                        pbusy = cdev.port_busy_until.get(cport, 0.0)
                        ntx = fwd_bytes = nrx = rx_bytes = 0
                        last_rx = dvhost.last_rx_time
                        received = dvhost.received.push
                    elif (ff[7] is not dvhost or swleg[7] is not cdev
                          or swleg[2] != cport):
                        break
                    # A pull that fails is raised below, after the
                    # write-back.
                    try:
                        head = source.head = nxt(src_iter, None)
                    except BaseException as exc:
                        fault = exc
                        break
                    if head is not None and head[0] < t:
                        fault = source.unordered(head[0], t)
                        break
                    owner = False
                    hw = ff[3]
                    start = t if t > nic_busy else nic_busy
                    tx_time = hw[3]
                    nic_busy = start + tx_time
                    ntx += 1
                    t = (start + tx_time - t) + hw[4] + t
                    t = t + ff[4]
                    if t >= g_h or t > stop:
                        hpush(heap, (t, seq, ff[1], 2, emission, gen))
                        seq += 1
                        break
                    start = t if t > pbusy else pbusy
                    tx_time = swleg[3]
                    pbusy = start + tx_time
                    fwd_bytes += swleg[5]
                    t = (start + tx_time - t) + swleg[4] + t
                    if t >= g_h or t > stop:
                        hpush(heap, (t, seq, ff[1], 3, emission, gen))
                        seq += 1
                        break
                    if t > now_hi:
                        now_hi = t
                    dvleg = ff[6]
                    nrx += 1
                    rx_bytes += dvleg[4]
                    last_rx = t
                    received((t, dvleg[3] if emission is hw[6] else
                              self._replay_out(ff[1], dvleg, emission)))
                if dvhost is not None:
                    # The one write-back of the fast tier's cached state.
                    src_host.nic_busy_until = nic_busy
                    src_host.tx_count += ntx
                    cdev.port_busy_until[cport] = pbusy
                    cdev.bytes_forwarded += fwd_bytes
                    dvhost.rx_count += nrx
                    dvhost.received.account(nrx)
                    dvhost.rx_bytes += rx_bytes
                    dvhost.last_rx_time = last_rx
                    self.packets_delivered += nrx
                    if nrx and self._metrics:
                        self._m_delivered.labels(dvhost.name).inc(nrx)
                    if fault is not None:
                        source.head = None   # ended, as ``pop`` ends it
                        raise fault
                    if not heap:
                        continue     # another port or sink: reload
                # ======== one generic step ========
                head = source.head
                if heap and (head is None or heap[0][0] < head[0]):
                    t, _, legs, index, emission, wgen = heap[0]
                elif head is not None:
                    t = head[0]
                    emission = head[1]
                    legs = None
                else:
                    break
                if (t >= g_h and not owner) or t > stop:
                    break
                owner = False
                if legs is not None:
                    hpop(heap)
                else:
                    source.pop()
                    head = source.head
                    ff = getattr(emission, "_ff", None)
                    if ff is not None and ff[0] == gen and ff[2] == src_name:
                        legs = ff[1]
                    index = 0
                    wgen = gen
                # Legs yield to the next local item — an emission of this
                # source or a parked replay — as well as to the horizon.
                bound = head[0] if head is not None else inf
                if heap and heap[0][0] < bound:
                    bound = heap[0][0]
                if legs is None or (wgen != gen and legs[index][0] != "dv"):
                    # No (valid) record: a recording walk; a stale parked
                    # replay: a plain walk of what remains.  (A parked
                    # delivery has no pipeline ahead of it to go stale.)
                    cap = bound if bound < inf else None
                    if legs is None:
                        self._walk_from_host(src_name, emission, t, cap)
                    else:
                        self._replay_stale(legs, t, index, cap)
                    g = peek()
                    g_h = g if g is not None else inf
                    gen = self._cache_gen
                    continue
                while True:
                    leg = legs[index]
                    code = leg[0]
                    if code == "hw":
                        host = leg[7]
                        tx_time = leg[3]
                        busy = host.nic_busy_until
                        start = t if t > busy else busy
                        host.nic_busy_until = start + tx_time
                        host.tx_count += 1
                        t = (start + tx_time - t) + leg[4] + t
                    elif code == "sw":
                        device = leg[7]
                        port = leg[2]
                        tx_time = leg[3]
                        busy = device.port_busy_until.get(port, 0.0)
                        start = t if t > busy else busy
                        device.port_busy_until[port] = start + tx_time
                        device.bytes_forwarded += leg[5]
                        t = (start + tx_time - t) + leg[4] + t
                    elif code == "fw":
                        # The pipeline is skipped; only its delay counts.
                        t = t + leg[3]
                    elif code == "dv":
                        sim.now = t
                        if t > now_hi:
                            now_hi = t
                        self._arrive(leg[5],
                                     self._replay_out(legs, leg, emission),
                                     leg[4])
                        g = peek()
                        g_h = g if g is not None else inf
                        gen = self._cache_gen
                        break
                    else:  # "dr"
                        self.packets_lost += 1
                        break
                    index += 1
                    # Arrival at a switch is no scheduling point: a packet
                    # parks at forward time (as ``_walk`` and the fast tier
                    # park it), so equal forward times keep claim order.
                    if legs[index][0] != "fw" and (
                            t >= bound or t >= g_h or t > stop):
                        hpush(heap, (t, seq, legs, index, emission, wgen))
                        seq += 1
                        break
        except BaseException:
            # Event mode raises at the instant of the step that failed.
            if t > now_hi:
                now_hi = t
            raise
        finally:
            # ---- exit: hand what is left back to the scheduler ------
            schedule_at = sim.schedule_at
            while heap:
                # Heap order preserves the (time, seq) execution order.
                item = hpop(heap)
                leg = item[2][item[3]]
                if leg[0] == "dv":
                    schedule_at(
                        item[0],
                        lambda i=item, leg=leg: self._arrive(
                            leg[5], self._replay_out(i[2], leg, i[4]), leg[4]))
                else:
                    schedule_at(item[0],
                                lambda i=item: self._drain(_EXHAUSTED, [i]))
            if source.head is not None:
                schedule_at(source.head[0], lambda: self._pump(source))
            if now_hi > sim.now:
                if sim.pending:
                    schedule_at(now_hi, _noop)
                else:
                    sim.now = now_hi

    # -- conveniences -----------------------------------------------------------------

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def switch(self, name: str) -> SwitchDevice:
        return self.switches[name]

    def run(self, until: Optional[float] = None) -> None:
        if self._trace:
            # The tracer may be shared: the network that runs owns it.
            self.obs.tracer.clock = self._clock
        self.sim.run(until)
        if self._metrics:
            self._g_simtime.labels(
            ).set(self.sim.now)
