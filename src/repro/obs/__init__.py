"""The observability plane: metrics, packet-lifecycle tracing, profiling.

One :class:`Observability` handle bundles a metrics registry and a
trace-event stream and threads through every runtime layer —
:class:`~repro.p4.bmv2.Bmv2Switch`, the codegen engine,
:class:`~repro.net.simulator.Network`,
:class:`~repro.runtime.deployment.HydraDeployment`, and the reference
monitor (:func:`repro.runtime.tracecheck.run_trace`).

The default everywhere is :data:`NULL_OBS` (null registry + null
tracer): hot paths specialize on ``obs.live`` at compile/attach time and
pay nothing when observability is off.  Turn it on by passing a live
handle at construction::

    obs = Observability(registry=MetricsRegistry(), tracer=Tracer())
    dep = HydraDeployment(topology, compiled, forwarding, obs=obs)
    ...
    print(obs.registry.render_prometheus())
    obs.tracer.export_jsonl("trace.jsonl")

CLI surfaces: ``python -m repro metrics`` and ``python -m repro trace``.
"""

from __future__ import annotations

from typing import Optional

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NullRegistry, NULL_REGISTRY, DEFAULT_NS_BUCKETS,
                      DEFAULT_SECONDS_BUCKETS)
from .profile import PHASE_HISTOGRAM, profiled
from .trace import (NullTracer, NULL_TRACER, TraceEvent, Tracer,
                    DEFAULT_RING_CAPACITY, LIFECYCLE_ORDER)

__all__ = [
    "Counter", "DEFAULT_NS_BUCKETS", "DEFAULT_RING_CAPACITY",
    "DEFAULT_SECONDS_BUCKETS", "Gauge", "Histogram", "LIFECYCLE_ORDER",
    "MetricsRegistry", "NULL_OBS", "NULL_REGISTRY", "NULL_TRACER",
    "NullRegistry", "NullTracer", "Observability", "PHASE_HISTOGRAM",
    "TraceEvent", "Tracer", "profiled",
]


class Observability:
    """A registry + tracer pair handed down through the runtime layers."""

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: Optional[object] = None,
                 tracer: Optional[object] = None):
        self.registry = NULL_REGISTRY if registry is None else registry
        self.tracer = NULL_TRACER if tracer is None else tracer

    @property
    def live(self) -> bool:
        """Whether any instrumentation is active (hot paths specialize
        on this once, at compile/attach time)."""
        return bool(self.registry.live or self.tracer.live)

    @classmethod
    def enabled(cls) -> "Observability":
        """A fully live handle: fresh registry + fresh tracer."""
        return cls(registry=MetricsRegistry(), tracer=Tracer())

    def __repr__(self) -> str:
        return (f"Observability(registry={'live' if self.registry.live else 'null'}, "
                f"tracer={'live' if self.tracer.live else 'null'})")


#: The process-wide shared "observability off" handle.
NULL_OBS = Observability()
