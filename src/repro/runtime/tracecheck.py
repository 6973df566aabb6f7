"""Trace-driven property checking: run a monitor over a described path.

A *trace file* (JSON) describes the hop-by-hop context a packet would
experience, letting property authors debug an Indus program without
building a network::

    {
      "controls": {                      // global control state
        "thresh": 100,
        "tenants": {"dict": [[1, 10], [2, 10]]},
        "allowed_ports": {"set": [1, 2, 3]}
      },
      "hops": [
        {"headers": {"in_port": 1}, "switch_id": 1,
         "packet_length": 120},
        {"headers": {"eg_port": 2}, "switch_id": 2,
         "controls": {"is_spine": true}}   // per-hop overrides
      ]
    }

``first_hop``/``last_hop`` default to the trace's endpoints and can be
overridden per hop.  The result carries the verdict, all reports, the
final telemetry values, and a snapshot of the telemetry after each hop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..indus import (ControlStore, HopContext, Monitor, MonitorState,
                     SensorStore)
from ..indus.typechecker import CheckedProgram
from ..obs import NULL_OBS, Observability


class TraceFormatError(ValueError):
    """Raised when a trace document is malformed."""


@dataclass
class TraceResult:
    """Outcome of running a monitor over a trace."""

    accepted: bool
    state: MonitorState
    hop_count: int
    #: The tele values after each hop, as plain ints and int lists.
    hop_tele: List[Dict[str, Any]]

    @property
    def reports(self):
        return self.state.reports

    def tele_values(self) -> Dict[str, Any]:
        out = {}
        for name, value in self.state.tele.items():
            out[name] = (value.valid_items()
                         if hasattr(value, "valid_items") else value)
        return out


def _tele_snapshot(state: MonitorState) -> Dict[str, Any]:
    """A plain-data copy of a monitor state's tele values."""
    return {name: ([int(v) for v in value.valid_items()]
                   if hasattr(value, "valid_items") else int(value))
            for name, value in state.tele.items()}


def _apply_controls(store: ControlStore, spec: Dict[str, Any]) -> None:
    for name, value in spec.items():
        if isinstance(value, dict) and "dict" in value:
            for key, entry_value in value["dict"]:
                key = tuple(key) if isinstance(key, list) else key
                store.dict_put(name, key, entry_value)
        elif isinstance(value, dict) and "set" in value:
            for item in value["set"]:
                store.set_add(name, item)
        elif isinstance(value, dict):
            raise TraceFormatError(
                f"control {name!r}: aggregate values use "
                '{"dict": [[k, v], ...]} or {"set": [items]}'
            )
        else:
            store.set_value(name, value)


def run_trace(checked: CheckedProgram, trace: Dict[str, Any],
              obs: Optional[Observability] = None,
              packet_id: int = 0) -> TraceResult:
    """Run the monitor for ``checked`` over a parsed trace document.

    The result's ``hop_tele`` holds the telemetry after each hop — what
    the differential oracle compares against the values the compiled
    pipeline carried on the wire.  With a live tracer on ``obs``, a
    ``monitor_hop`` event is also emitted after each hop, carrying the
    live :class:`MonitorState` in ``detail["state"]``; subscribers must
    copy what they keep.
    """
    obs = obs if obs is not None else NULL_OBS
    trace_live = obs.tracer.live
    if not isinstance(trace, dict) or "hops" not in trace:
        raise TraceFormatError("trace documents need a 'hops' list")
    hops = trace["hops"]
    if not isinstance(hops, list) or not hops:
        raise TraceFormatError("'hops' must be a non-empty list")
    monitor = Monitor(checked)
    global_controls = trace.get("controls", {})
    sensors = SensorStore()
    state = monitor.new_state()
    hop_tele = []
    for i, hop in enumerate(hops):
        if not isinstance(hop, dict):
            raise TraceFormatError(f"hop {i} must be an object")
        controls = monitor.new_controls()
        _apply_controls(controls, global_controls)
        _apply_controls(controls, hop.get("controls", {}))
        ctx = HopContext(
            headers=dict(hop.get("headers", {})),
            controls=controls,
            sensors=sensors,
            first_hop=bool(hop.get("first_hop", i == 0)),
            last_hop=bool(hop.get("last_hop", i == len(hops) - 1)),
            packet_length=int(hop.get("packet_length", 0)),
            hop_count=int(hop.get("hop_count", i)),
            switch_id=int(hop.get("switch_id", i + 1)),
        )
        monitor.run_hop(state, ctx)
        hop_tele.append(_tele_snapshot(state))
        if trace_live:
            obs.tracer.emit("monitor_hop", "monitor", packet_id,
                            hop=i, switch_id=ctx.switch_id,
                            rejected=state.rejected, state=state)
    if state.rejected and obs.registry.live:
        obs.registry.counter(
            "monitor_rejections_total",
            "traces rejected by the reference monitor").labels().inc()
    return TraceResult(accepted=not state.rejected, state=state,
                       hop_count=len(hops), hop_tele=hop_tele)


def run_trace_file(checked: CheckedProgram, path: str) -> TraceResult:
    """Load a JSON trace file and run the monitor over it."""
    with open(path) as handle:
        try:
            trace = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return run_trace(checked, trace)
