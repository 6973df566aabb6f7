"""Observability plane: registry semantics, trace events, profiling.

Covers the contract the rest of the runtime relies on: label handling
and cardinality bounds, cumulative histogram buckets, exports, the null
registry's and null tracer's zero-cost no-op behavior, phase timers,
and the tracer's ring, filters and clock.  The runtime wiring (event
order along a path, drop accounting, verdicts unchanged with
observability on) is ``test_obs_wiring.py``.
"""

import json

import pytest

from repro.obs import (NULL_OBS, NULL_REGISTRY, NULL_TRACER,
                       MetricsRegistry, NullRegistry, Observability,
                       Tracer, profiled)
from repro.obs.metrics import MAX_LABEL_SETS, MetricError
from repro.obs.trace import LIFECYCLE_ORDER


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

def test_counter_inc_and_value_reader():
    reg = MetricsRegistry()
    c = reg.counter("packets_total", "help!", labels=("switch",))
    c.labels("s1").inc()
    c.labels("s1").inc(4)
    c.labels("s2").inc()
    assert reg.value("packets_total", "s1") == 5
    assert reg.value("packets_total", "s2") == 1
    assert reg.value("packets_total", "s3") == 0      # never touched
    assert reg.value("no_such_metric") == 0


def test_instruments_are_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("c", labels=("x",))
    b = reg.counter("c", labels=("x",))
    assert a is b
    assert a.labels("1") is b.labels("1")


def test_label_count_mismatch_raises():
    reg = MetricsRegistry()
    c = reg.counter("c", labels=("a", "b"))
    with pytest.raises(MetricError, match="takes 2 label"):
        c.labels("only-one")
    g = reg.gauge("g")           # unlabelled
    with pytest.raises(MetricError, match="takes 0 label"):
        g.labels("extra")


def test_kind_and_label_conflicts_raise():
    reg = MetricsRegistry()
    reg.counter("m", labels=("a",))
    with pytest.raises(MetricError, match="already registered as"):
        reg.gauge("m", labels=("a",))
    with pytest.raises(MetricError, match="already registered with labels"):
        reg.counter("m", labels=("b",))


def test_label_cardinality_limit():
    reg = MetricsRegistry()
    c = reg.counter("c", labels=("id",))
    for i in range(MAX_LABEL_SETS):
        c.labels(i).inc()
    with pytest.raises(MetricError, match="label sets"):
        c.labels("one-too-many")


def test_labelled_instrument_rejects_direct_use():
    reg = MetricsRegistry()
    with pytest.raises(MetricError, match="use .labels"):
        reg.counter("c", labels=("a",)).inc()
    with pytest.raises(MetricError, match="use .labels"):
        reg.histogram("h", labels=("a",)).observe(1)


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(1.0, 5.0, 10.0))
    for v in (0.5, 0.7, 3.0, 7.0, 100.0):
        h.observe(v)
    child = h._unlabelled()
    assert child.counts == [2, 3, 4]     # le=1, le=5, le=10
    assert child.count == 5              # the +Inf bucket
    assert child.sum == pytest.approx(111.2)
    assert child.mean == pytest.approx(111.2 / 5)


def test_histogram_buckets_must_be_sorted():
    reg = MetricsRegistry()
    with pytest.raises(MetricError, match="sorted"):
        reg.histogram("h", buckets=(5.0, 1.0))
    with pytest.raises(MetricError, match="sorted"):
        reg.histogram("h2", buckets=())


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("hits_total", "hit count", labels=("sw",)).labels("s1").inc(3)
    reg.gauge("depth", "queue depth").set(7)
    reg.histogram("lat", "latency", buckets=(1.0, 10.0)).observe(0.5)
    text = reg.render_prometheus()
    assert "# HELP hits_total hit count" in text
    assert "# TYPE hits_total counter" in text
    assert 'hits_total{sw="s1"} 3' in text
    assert "depth 7" in text
    assert 'lat_bucket{le="1.0"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_sum 0.5" in text
    assert "lat_count 1" in text


def test_json_dump_round_trips():
    reg = MetricsRegistry()
    reg.counter("c", labels=("a",)).labels("x").inc(2)
    reg.histogram("h", buckets=(1.0,)).observe(0.5)
    dump = json.loads(reg.render_json())
    assert dump["c"]["series"] == [{"labels": {"a": "x"}, "value": 2}]
    assert dump["h"]["series"][0]["count"] == 1


def test_null_registry_is_shared_noop():
    reg = NullRegistry()
    assert reg.live is False
    c = reg.counter("anything", labels=("a", "b", "c"))
    assert c is reg.histogram("other") is reg.gauge("third")
    c.labels("way", "too", "many", "labels").inc()     # all no-ops
    c.observe(1.0)
    c.set(5)
    assert reg.value("anything", "x") == 0
    assert reg.render_prometheus() == ""
    assert reg.to_dict() == {}
    assert NULL_REGISTRY.counter("x") is NULL_REGISTRY.counter("y")


def test_observability_handle_liveness():
    assert NULL_OBS.live is False
    assert Observability().live is False
    assert Observability(registry=MetricsRegistry()).live is True
    assert Observability(tracer=Tracer()).live is True
    full = Observability.enabled()
    assert full.registry.live and full.tracer.live


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------

def test_profiled_records_phase_histogram():
    reg = MetricsRegistry()
    with profiled(reg, "compile") as timer:
        pass
    assert timer.elapsed_s >= 0.0
    child = reg.value("phase_seconds", "compile")
    assert child.count == 1
    assert child.sum == pytest.approx(timer.elapsed_s)


def test_profiled_null_paths_share_one_timer():
    a = profiled(None, "x")
    b = profiled(NULL_REGISTRY, "y")
    assert a is b                 # the shared no-op timer
    with a as timer:
        pass
    assert timer.elapsed_s == 0.0  # never read the clock


# ---------------------------------------------------------------------------
# Tracer ring
# ---------------------------------------------------------------------------

def test_tracer_ring_bounds_and_accounting():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.emit("parse", "s1", packet_id=i)
    assert len(tracer) == 3
    assert tracer.total == 5
    assert tracer.dropped == 2
    assert [e.packet_id for e in tracer] == [2, 3, 4]
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_tracer_subscribe_and_filters():
    tracer = Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("parse", "s1", packet_id=1, port=2)
    tracer.emit("drop", "s1", packet_id=1, reason="ttl")
    tracer.emit("parse", "s2", packet_id=2)
    assert len(seen) == 3
    assert [e.node for e in tracer.events(kind="parse")] == ["s1", "s2"]
    assert [e.kind for e in tracer.events(packet_id=1)] == ["parse", "drop"]
    assert tracer.packet_ids() == [1, 2]
    assert tracer.events(kind="drop")[0].detail["reason"] == "ttl"


def test_tracer_clock_fills_timestamps():
    tracer = Tracer()
    tracer.clock = lambda: 42.5
    assert tracer.emit("parse", "s1", packet_id=0).ts == 42.5
    assert tracer.emit("parse", "s1", packet_id=0, ts=1.0).ts == 1.0


def test_tracer_jsonl_export(tmp_path):
    tracer = Tracer()
    tracer.emit("parse", "s1", packet_id=7, port=1, packet=object(),
                nested={"a": (1, 2)}, odd=object())
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(str(path)) == 1
    line = json.loads(path.read_text().splitlines()[0])
    assert line["kind"] == "parse" and line["packet_id"] == 7
    assert line["nested"] == {"a": [1, 2]}
    assert isinstance(line["odd"], str)         # repr fallback
    assert "packet" not in line                 # live refs not serialized


def test_null_tracer_is_inert():
    assert NULL_TRACER.live is False
    assert NULL_TRACER.emit("parse", "s1", packet_id=0) is None
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.events() == []
    assert NULL_TRACER.to_jsonl_lines() == []
