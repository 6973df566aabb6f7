"""Low-overhead metrics, every one declared once in :data:`METRICS`.

:data:`METRICS` is the closed set of metric families the runtime
exports: ``name -> (kind, help, label names, buckets)``.  A call site
names only the metric and its label values::

    registry.metric("table_lookups_total").labels("s1", "fwd", "hit").inc()
    registry.metric("sim_time_seconds").labels().set(now)   # unlabelled

Two registries share that interface:

* :class:`MetricsRegistry` — the live registry.  A family appears the
  first time it is asked for, so an export lists what ran; its label
  values select per-series children, a value child (``inc`` / ``set``)
  for counters and gauges and a histogram child (``observe``).
  ``to_dict()`` is the one series walk and ``render_prometheus()``
  renders it in the text exposition format.
* :class:`NullRegistry` — the default everywhere.  ``metric()`` returns
  one shared no-op family, so an instrumented call site costs one
  method call at most — and the hot paths (``repro.p4.codegen``)
  specialize at compile time on ``registry.live`` and pay **nothing**
  when observability is off.  ``tests/test_codegen_engine.py`` holds
  that line: the generated source carries no counter call under the
  null handle.

Naming (see docs/INTERNALS.md § observability):
``<subsystem>_<thing>_total`` for counters, ``<thing>_seconds`` /
``<thing>_ns_per_packet`` for histograms, plain nouns for gauges.
To add a metric, add a row to :data:`METRICS`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

__all__ = ["METRICS", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY"]

#: Hard ceiling on distinct label-value combinations per metric; a
#: runaway label (e.g. a packet id used as a label) raises instead of
#: silently eating memory.
MAX_LABEL_SETS = 4096

_NS = (1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7)
_SECONDS = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Every exported metric: name -> (kind, help, label names, buckets).
METRICS: Dict[str, Tuple[str, str, Tuple[str, ...], Tuple[float, ...]]] = {
    # A switch's pipeline runs (``repro.p4.bmv2.observed``) and applies.
    "switch_packets_total": (
        "counter", "packets entering a pipeline", ("switch", "port"), ()),
    "switch_packets_dropped_total": (
        "counter", "packets discarded by a pipeline", ("switch", "reason"),
        ()),
    "table_lookups_total": (
        "counter", "table applies by outcome",
        ("switch", "table", "result"), ()),
    "interp_ns_per_packet": (
        "histogram", "interp engine nanoseconds per packet", (), _NS),
    "codegen_ns_per_packet": (
        "histogram", "codegen engine nanoseconds per packet", (), _NS),
    # The traffic plane (``repro.net.simulator.Network``).
    "queue_drops_total": (
        "counter", "packets dropped by the network layer",
        ("node", "reason"), ()),
    "packets_delivered_total": (
        "counter", "packets delivered to hosts", ("host",), ()),
    "sim_time_seconds": ("gauge", "current simulator time", (), ()),
    # A switch's digest ring and a host's ``received`` ring.
    "log_evictions_total": (
        "counter", "entries evicted from bounded logs", ("log", "node"), ()),
    # The deployment's checkers and the phases timed by ``profiled``.
    "checker_violations_total": (
        "counter", "violation reports raised by deployed checkers",
        ("checker", "switch"), ()),
    "phase_seconds": (
        "histogram", "wall-clock seconds per pipeline phase", ("phase",),
        _SECONDS),
}


class MetricError(ValueError):
    """Raised on an undeclared metric or label misuse."""


class _Value:
    """One counter or gauge series."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class _Histogram:
    """One histogram series: cumulative buckets (Prometheus ``le``)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1


class _Family:
    """One declared metric and its series, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets",
                 "_children")

    def __init__(self, name: str):
        self.name = name
        self.kind, self.help, self.label_names, self.buckets = METRICS[name]
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, *values: Any):
        if len(values) != len(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s) {self.label_names}, got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= MAX_LABEL_SETS:
                raise MetricError(
                    f"metric {self.name!r} exceeded {MAX_LABEL_SETS} "
                    "label sets — an unbounded value is being used as "
                    "a label")
            if self.kind == "histogram":
                child = _Histogram(self.buckets)
            else:
                child = _Value(0.0 if self.kind == "gauge" else 0)
            self._children[key] = child
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label values, child)`` per series, in export order."""
        return sorted(self._children.items())


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{n}="{_escape(v)}"'
                          for n, v in labels.items()) + "}"


class MetricsRegistry:
    """The live registry: one family per declared name, made on demand."""

    live = True

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    def metric(self, name: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            if name not in METRICS:
                raise MetricError(f"metric {name!r} is not declared in "
                                  "repro.obs.metrics.METRICS")
            family = self._families[name] = _Family(name)
        return family

    def value(self, name: str, *label_values: Any) -> Any:
        """Convenience reader: the current value of one series (0 for a
        series that never ran); a histogram series is its child."""
        family = self._families.get(name)
        key = tuple(str(v) for v in label_values)
        child = None if family is None else family._children.get(key)
        if child is None:
            return 0
        return child.value if isinstance(child, _Value) else child

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dump: {name: {kind, help, series: [...]}}."""
        out: Dict[str, Any] = {}
        for name, family in sorted(self._families.items()):
            series = []
            for key, child in family.series():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    series.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "mean": child.sum / child.count if child.count
                        else 0.0,
                        "buckets": {repr(float(b)): c for b, c in
                                    zip(child.buckets, child.counts)},
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            entry = {"kind": family.kind, "help": family.help,
                     "label_names": list(family.label_names),
                     "series": series}
            if family.kind == "histogram":
                entry["buckets"] = [float(b) for b in family.buckets]
            out[name] = entry
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format of :meth:`to_dict`."""
        lines: List[str] = []
        for name, entry in self.to_dict().items():
            lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['kind']}")
            for series in entry["series"]:
                labels = _format_labels(series["labels"])
                if "buckets" not in series:
                    lines.append(f"{name}{labels} {series['value']}")
                    continue
                # observe() fills buckets cumulatively already.
                for le, count in [*series["buckets"].items(),
                                  ("+Inf", series["count"])]:
                    bucket = _format_labels({**series["labels"], "le": le})
                    lines.append(f"{name}_bucket{bucket} {count}")
                lines.append(f"{name}_sum{labels} {series['sum']}")
                lines.append(f"{name}_count{labels} {series['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _NullFamily:
    """One shared do-nothing family, its own every series."""

    __slots__ = ()

    def labels(self, *_values: Any) -> "_NullFamily":
        return self

    def inc(self, _amount: int = 1) -> None:
        pass

    def set(self, _value: float) -> None:
        pass

    def observe(self, _value: float) -> None:
        pass


_NULL_FAMILY = _NullFamily()


class NullRegistry(MetricsRegistry):
    """The no-op registry: the default when observability is off.

    ``metric()`` returns one shared null family whose methods do
    nothing, so no family is ever made and every export is empty; hot
    paths additionally specialize on ``live`` and skip the call.
    """

    live = False

    def metric(self, name: str) -> _NullFamily:
        return _NULL_FAMILY


#: The process-wide shared null registry (stateless, safe to share).
NULL_REGISTRY = NullRegistry()
