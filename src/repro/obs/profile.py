"""Profiling hooks: context-manager timers feeding the metrics plane.

``profiled(registry, "compile")`` times its block into the
``phase_seconds{phase="compile"}`` histogram.  With the null registry
the timer never reads the clock, so profiling hooks can stay in place
on paths that usually run unobserved (deployment construction, the
compiler driver) at no cost.
"""

from __future__ import annotations

import time
from typing import Any, Optional

__all__ = ["profiled"]


class _NullTimer:
    __slots__ = ()
    elapsed_s = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _PhaseTimer:
    __slots__ = ("_child", "_start", "elapsed_s")

    def __init__(self, child: Any):
        self._child = child
        self._start = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        self._child.observe(self.elapsed_s)
        return None


def profiled(registry: Optional[Any], phase: str):
    """A context manager timing its block into ``phase_seconds{phase}``.

    ``registry`` may be a live :class:`~repro.obs.metrics.MetricsRegistry`,
    a null registry, or ``None`` — the latter two yield a no-op timer
    that never touches the clock.
    """
    if registry is None or not getattr(registry, "live", False):
        return _NULL_TIMER
    return _PhaseTimer(registry.metric("phase_seconds").labels(phase))
