"""Observability plane: registry semantics, the handle, profiling.

Covers the contract the rest of the runtime relies on: label handling
and cardinality bounds, cumulative histogram buckets, exports, the null
registry's zero-cost no-op behavior, the handle's parts and phase
timers.  The runtime wiring (the hop ring along a path, drop
accounting, verdicts unchanged with observability on) is
``test_obs_wiring.py``.
"""

import json

import pytest

from repro.obs import (NULL_OBS, NULL_REGISTRY, MetricsRegistry,
                       NullRegistry, Observability, profiled)
from repro.obs.metrics import MAX_LABEL_SETS, MetricError
from repro.p4.bmv2 import BoundedLog


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


def test_an_unlabelled_metrics_labels_is_the_metric_itself():
    reg = MetricsRegistry()
    reg.gauge("g").labels().set(2.5)
    reg.counter("c").labels().inc(3)
    assert reg.value("g") == 2.5 and reg.value("c") == 3
    text = reg.render_prometheus()
    assert "g 2.5" in text.splitlines()
    assert "c 3" in text.splitlines()


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
    assert NULL_OBS.registry.live is False and NULL_OBS.hops is None
    assert Observability().registry.live is False
    assert Observability(registry=MetricsRegistry()).registry.live is True
    ring = BoundedLog()
    assert Observability(hops=ring).hops is ring
    full = Observability.enabled()
    assert full.registry.live and isinstance(full.hops, BoundedLog)
    assert Observability.enabled().hops is not full.hops


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
