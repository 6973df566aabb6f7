"""Low-overhead metrics: counters, gauges, histograms with labels.

Two registry implementations share one interface:

* :class:`MetricsRegistry` — the live registry.  Instruments are
  created idempotently (``registry.counter(name, ...)`` returns the
  same object every time) and label values select per-series children
  (``counter.labels("s1", "hit").inc()``), mirroring the Prometheus
  client model.  ``render_prometheus()`` emits the text exposition
  format; ``to_dict()`` a JSON-safe dump.
* :class:`NullRegistry` — the default everywhere.  Every method returns
  a shared no-op instrument, so instrumented call sites cost one method
  call at most — and the hot paths (``repro.p4.codegen``) specialize
  at compile time on ``registry.live`` and pay **nothing** when
  observability is off.  ``tests/test_codegen_engine.py`` holds that
  line: the generated source carries no counter call under the null
  handle.

Naming conventions (see docs/INTERNALS.md § observability):
``<subsystem>_<thing>_total`` for counters, ``<thing>_seconds`` /
``<thing>_ns_per_packet`` for histograms, plain nouns for gauges.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "DEFAULT_NS_BUCKETS", "DEFAULT_SECONDS_BUCKETS",
]

#: Hard ceiling on distinct label-value combinations per metric; a
#: runaway label (e.g. a packet id used as a label) raises instead of
#: silently eating memory.
MAX_LABEL_SETS = 4096

#: Default buckets for per-packet latency histograms (nanoseconds).
DEFAULT_NS_BUCKETS: Tuple[float, ...] = (
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7)

#: Default buckets for phase timers (seconds).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0)


class MetricError(ValueError):
    """Raised on inconsistent metric registration or label misuse."""


def _format_labels(names: Sequence[str], values: Sequence[Any]) -> str:
    if not names:
        return ""
    pairs = ",".join(f'{n}="{v}"' for n, v in zip(names, values))
    return "{" + pairs + "}"


class _Metric:
    """Shared child-series bookkeeping for labelled instruments."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple, Any] = {}

    def labels(self, *values: Any):
        if len(values) != len(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s) {self.label_names}, got {len(values)}")
        if not values:
            return self._unlabelled()
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= MAX_LABEL_SETS:
                raise MetricError(
                    f"metric {self.name!r} exceeded {MAX_LABEL_SETS} "
                    "label sets — an unbounded value is being used as "
                    "a label")
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):
        raise NotImplementedError

    def _series(self) -> Iterable[Tuple[Tuple, Any]]:
        if self.label_names:
            return self._children.items()
        return [((), self._unlabelled())]

    def _unlabelled(self):
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing counter (optionally labelled)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._self_child = _CounterChild()

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def _unlabelled(self) -> _CounterChild:
        return self._self_child

    def inc(self, amount: int = 1) -> None:
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labelled {self.label_names}; "
                "use .labels(...).inc()")
        self._self_child.inc(amount)

    @property
    def value(self) -> int:
        return self._self_child.value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Gauge(_Metric):
    """A value set to its latest reading (``set``)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._self_child = _GaugeChild()

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def _unlabelled(self) -> _GaugeChild:
        return self._self_child

    def set(self, value: float) -> None:
        self._self_child.set(value)

    @property
    def value(self) -> float:
        return self._self_child.value


class _HistogramChild:
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

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        super().__init__(name, help, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(
                f"histogram {name!r} buckets must be sorted and non-empty")
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._self_child = _HistogramChild(self.buckets)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def _unlabelled(self) -> _HistogramChild:
        return self._self_child

    def observe(self, value: float) -> None:
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labelled {self.label_names}; "
                "use .labels(...).observe()")
        self._self_child.observe(value)

    @property
    def count(self) -> int:
        return self._self_child.count

    @property
    def sum(self) -> float:
        return self._self_child.sum


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """The live registry: get-or-create instruments by name."""

    live = True

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, kind: str, name: str, help: str,
             label_names: Sequence[str], **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}")
            if existing.label_names != tuple(label_names):
                raise MetricError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}, not {tuple(label_names)}")
            return existing
        metric = _KINDS[kind](name, help, label_names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._get("histogram", name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def value(self, name: str, *label_values: Any) -> Any:
        """Convenience reader: the current value of one series (0 for a
        counter/gauge series that never incremented)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if label_values:
            key = tuple(str(v) for v in label_values)
            child = metric._children.get(key)
            if child is None:
                return 0
        else:
            child = metric._unlabelled()
        return child.value if hasattr(child, "value") else child

    # -- export ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, child in sorted(metric._series()):
                label_text = _format_labels(metric.label_names, key)
                if metric.kind == "histogram":
                    # observe() fills buckets cumulatively already.
                    for bound, bucket_count in zip(child.buckets,
                                                   child.counts):
                        pairs = ",".join(
                            f'{n}="{v}"' for n, v in zip(
                                metric.label_names + ("le",),
                                key + (float(bound),)))
                        lines.append(
                            f"{name}_bucket{{{pairs}}} {bucket_count}")
                    pairs = ",".join(
                        f'{n}="{v}"' for n, v in zip(
                            metric.label_names + ("le",), key + ("+Inf",)))
                    lines.append(f"{name}_bucket{{{pairs}}} {child.count}")
                    lines.append(f"{name}_sum{label_text} {child.sum}")
                    lines.append(f"{name}_count{label_text} {child.count}")
                else:
                    lines.append(f"{name}{label_text} {child.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dump: {name: {kind, help, series: [...]}}."""
        out: Dict[str, Any] = {}
        for name, metric in sorted(self._metrics.items()):
            series = []
            for key, child in sorted(metric._series()):
                labels = dict(zip(metric.label_names, key))
                if metric.kind == "histogram":
                    series.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "mean": child.mean,
                        "buckets": {repr(float(b)): c for b, c in
                                    zip(child.buckets, child.counts)},
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            entry = {"kind": metric.kind, "help": metric.help,
                     "label_names": list(metric.label_names),
                     "series": series}
            if metric.kind == "histogram":
                entry["buckets"] = [float(b) for b in metric.buckets]
            out[name] = entry
        return out

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _NullInstrument:
    """One shared do-nothing instrument covering every metric kind."""

    __slots__ = ()

    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def labels(self, *_values: Any) -> "_NullInstrument":
        return self

    def inc(self, _amount: int = 1) -> None:
        pass

    def set(self, _value: float) -> None:
        pass

    def observe(self, _value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The no-op registry: the default when observability is off.

    Every factory returns one shared null instrument whose methods do
    nothing; hot paths additionally specialize on ``live`` and skip the
    call entirely.
    """

    live = False

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = (),) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def value(self, name: str, *label_values: Any) -> int:
        return 0

    def render_prometheus(self) -> str:
        return ""

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def render_json(self, indent: int = 2) -> str:
        return "{}"


#: The process-wide shared null registry (stateless, safe to share).
NULL_REGISTRY = NullRegistry()
