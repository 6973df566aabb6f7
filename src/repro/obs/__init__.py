"""The observability plane: metrics, the hop ring, profiling.

One :class:`Observability` handle bundles a metrics registry and a hop
ring and threads through every runtime layer —
:class:`~repro.p4.bmv2.Bmv2Switch`, the codegen engine,
:class:`~repro.net.simulator.Network` and
:class:`~repro.runtime.deployment.HydraDeployment`.

The default everywhere is :data:`NULL_OBS` (null registry, no ring):
hot paths specialize on ``registry.live`` when built and pay nothing
when it is off.  Observability is fixed at construction: pass a live
handle to the constructors::

    obs = Observability.enabled()
    dep = HydraDeployment(topology, compiled, forwarding, obs=obs)
    ...
    print(obs.registry.render_prometheus())
    for hop in obs.hops:      # one HopRecord per pipeline run
        ...

A network built on a handle with a ring records every pipeline run into
it (a :class:`~repro.net.simulator.HopRecord` each); the ring instruments
no switch and leaves the network on its own loop, batched or not.

CLI surfaces: ``python -m repro metrics`` and ``python -m repro trace``.
"""

from __future__ import annotations

from typing import Optional

from .metrics import METRICS, MetricsRegistry, NULL_REGISTRY
from .profile import profiled

__all__ = ["METRICS", "MetricsRegistry", "NULL_OBS", "NULL_REGISTRY",
           "Observability", "profiled"]


class Observability:
    """A registry + hop ring pair handed down through the runtime layers."""

    __slots__ = ("registry", "hops")

    def __init__(self, registry: Optional[object] = None,
                 hops: Optional[object] = None):
        self.registry = NULL_REGISTRY if registry is None else registry
        #: A :class:`~repro.p4.bmv2.BoundedLog` of hop records, or None.
        self.hops = hops

    @classmethod
    def enabled(cls) -> "Observability":
        """A fully live handle: fresh registry + fresh hop ring."""
        from ..p4.bmv2 import BoundedLog  # deferred: bmv2 imports us
        return cls(registry=MetricsRegistry(), hops=BoundedLog())

    def __repr__(self) -> str:
        return (f"Observability(registry={'live' if self.registry.live else 'null'}, "
                f"hops={'ring' if self.hops is not None else 'none'})")


#: The process-wide shared "observability off" handle.
NULL_OBS = Observability()
