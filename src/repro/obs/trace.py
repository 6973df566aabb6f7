"""Structured packet-lifecycle trace events.

Every layer emits :class:`TraceEvent`s into one :class:`Tracer`, which
keeps a bounded ring of recent events and fans each event out
synchronously to subscribers.  (The difftest harness used to read the
``parse`` events; it reads the network's hop records now, from
:meth:`~repro.net.simulator.Network.record_hops`.)

Event kinds, in packet-lifecycle order:

========== ================================================================
``enqueue``  packet entered a NIC/port FIFO (detail: ``queue_wait_s``)
``link``     packet put on a wire (detail: ``dst``, ``tx_time_s``,
             ``latency_s``)
``parse``    packet entered a switch pipeline (the hop-entry event; the
             live :class:`~repro.net.packet.Packet` rides on
             ``event.packet`` for in-process subscribers)
``apply``    one table apply (detail: ``table``, ``result`` hit|miss)
``digest``   a digest left the data plane (detail: ``digest``)
``deparse``  packet left a switch pipeline (detail: ``egress_port``)
``drop``     packet discarded (detail: ``reason`` — ``ttl`` or
             ``pipeline`` from a switch, ``no_route`` from the network)
``deliver``  packet handed to a host
``monitor_hop`` the reference monitor finished one hop (detail:
             ``hop``, plus the live state on ``detail["state"]``)
========== ================================================================

``export_jsonl`` serializes the ring as JSON lines; values that are not
JSON-safe (live monitor state, packets) are summarized via ``repr``.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, IO, Iterator, List, Optional,
                    Union)

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER",
           "DEFAULT_RING_CAPACITY", "LIFECYCLE_ORDER"]

#: Default trace-ring capacity: large enough for full short scenarios,
#: bounded so long replays keep memory flat.
DEFAULT_RING_CAPACITY = 1 << 16

#: Canonical ordering of kinds inside one hop (documentation + pretty
#: printing; emission order is authoritative).
LIFECYCLE_ORDER = ("enqueue", "link", "parse", "apply", "digest",
                   "deparse", "drop", "deliver", "monitor_hop")


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


@dataclass
class TraceEvent:
    """One structured event in a packet's lifecycle."""

    seq: int                       # global emission order
    kind: str
    node: str                      # switch/host/"monitor" that emitted it
    packet_id: int
    ts: Optional[float] = None     # simulation time when known
    port: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    packet: Any = None             # live Packet ref for subscribers; not
                                   # serialized

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seq": self.seq, "kind": self.kind,
                               "node": self.node,
                               "packet_id": self.packet_id}
        if self.ts is not None:
            out["ts"] = self.ts
        if self.port is not None:
            out["port"] = self.port
        for key, value in self.detail.items():
            out[key] = _json_safe(value)
        return out


class Tracer:
    """Bounded ring of :class:`TraceEvent` + synchronous fan-out.

    Subscribers see every event at emission time (they may read the
    live packet on ``event.packet``); the ring keeps the most recent
    ``capacity`` events for post-hoc inspection and JSONL export, with
    ``total``/``dropped`` accounting like
    :class:`~repro.p4.bmv2.BoundedLog`.
    """

    live = True

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self._ring: deque = deque(maxlen=capacity)
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._seq = itertools.count()
        #: Optional time source (a traced Network wires its simulator
        #: clock here when built and on every run).
        self.clock: Optional[Callable[[], float]] = None

    @property
    def dropped(self) -> int:
        return self.total - len(self._ring)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(callback)

    def emit(self, kind: str, node: str, packet_id: int,
             ts: Optional[float] = None, port: Optional[int] = None,
             packet: Any = None, **detail: Any) -> TraceEvent:
        if ts is None and self.clock is not None:
            ts = self.clock()
        event = TraceEvent(seq=next(self._seq), kind=kind, node=node,
                           packet_id=packet_id, ts=ts, port=port,
                           detail=detail, packet=packet)
        self.total += 1
        self._ring.append(event)
        for callback in self._subscribers:
            callback(event)
        return event

    def clear(self) -> None:
        self.total = 0
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    def events(self, kind: Optional[str] = None,
               packet_id: Optional[int] = None) -> List[TraceEvent]:
        """Ring contents, optionally filtered by kind and/or packet."""
        out = list(self._ring)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if packet_id is not None:
            out = [e for e in out if e.packet_id == packet_id]
        return out

    def packet_ids(self) -> List[int]:
        """Distinct packet ids in the ring, in first-seen order."""
        seen: Dict[int, None] = {}
        for event in self._ring:
            seen.setdefault(event.packet_id, None)
        return list(seen)

    # -- export ----------------------------------------------------------

    def to_jsonl_lines(self) -> List[str]:
        return [json.dumps(e.to_json_dict(), sort_keys=True)
                for e in self._ring]

    def export_jsonl(self, dest: Union[str, IO[str]]) -> int:
        """Write the ring as JSON lines; returns the event count."""
        lines = self.to_jsonl_lines()
        if hasattr(dest, "write"):
            for line in lines:
                dest.write(line + "\n")
        else:
            with open(dest, "w") as handle:
                for line in lines:
                    handle.write(line + "\n")
        return len(lines)


class NullTracer:
    """The no-op tracer: the default when observability is off."""

    live = False
    capacity = 0
    total = 0
    dropped = 0
    clock = None

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        pass

    def emit(self, kind: str, node: str, packet_id: int,
             ts: Optional[float] = None, port: Optional[int] = None,
             packet: Any = None, **detail: Any) -> None:
        return None

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def events(self, kind: Optional[str] = None,
               packet_id: Optional[int] = None) -> List[TraceEvent]:
        return []

    def packet_ids(self) -> List[int]:
        return []

    def to_jsonl_lines(self) -> List[str]:
        return []

    def export_jsonl(self, dest: Union[str, IO[str]]) -> int:
        return 0


#: The process-wide shared null tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
