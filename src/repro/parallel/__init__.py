"""Sharded parallel execution of difftest fleets.

The differential oracle earns confidence through volume — thousands
of generated programs and scenarios per session — and one core caps
that.  This package scales the fan-out
across worker processes while keeping the results bit-identical to the
serial path:

* :mod:`.shard` — deterministic round-robin partitioning of a seed
  range into per-worker shards;
* :mod:`.runner` — the fleet runner: spawn, stream, merge; plus the
  robustness layer (per-scenario timeout kill, crashed-worker respawn
  with bounded retry, quarantine reproducer bundles, graceful Ctrl-C
  draining) and :class:`FaultPlan` fault injection for testing it.

Public surface: :func:`repro.api.difftest(..., workers=N)
<repro.api.difftest>` and ``python -m repro difftest --workers N``;
see docs/INTERNALS.md §9 for the shard protocol and merge semantics.
"""

from .runner import FLEET_TRACE_NAME, FaultPlan, FleetOptions, run_fleet
from .shard import Shard, partition_seeds

__all__ = [
    "FLEET_TRACE_NAME", "FaultPlan", "FleetOptions", "Shard",
    "partition_seeds", "run_fleet",
]
