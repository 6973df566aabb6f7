"""Observability plane: registry semantics, the handle, profiling.

Covers the contract the rest of the runtime relies on: the declared
``METRICS`` table, label handling and cardinality bounds, cumulative
histogram buckets, exports and their label escaping, the null
registry's zero-cost no-op behavior, the handle's parts and phase
timers.  The runtime wiring (the hop ring along a path, drop
accounting, verdicts unchanged with observability on) is
``test_obs_wiring.py``.
"""

import json

import pytest

from repro.obs import (METRICS, NULL_OBS, NULL_REGISTRY, MetricsRegistry,
                       Observability, profiled)
from repro.obs.metrics import MAX_LABEL_SETS, MetricError
from repro.p4.bmv2 import BoundedLog


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

def test_every_histogram_declares_sorted_buckets():
    for name, (kind, text, label_names, buckets) in METRICS.items():
        assert kind in ("counter", "gauge", "histogram"), name
        assert text and isinstance(label_names, tuple), name
        if kind == "histogram":
            assert buckets and list(buckets) == sorted(buckets), name
        else:
            assert buckets == (), name


def test_an_undeclared_metric_raises():
    with pytest.raises(MetricError, match="not declared"):
        MetricsRegistry().metric("no_such_metric_total")


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

def test_counter_inc_and_value_reader():
    reg = MetricsRegistry()
    c = reg.metric("switch_packets_total")
    c.labels("s1", 1).inc()
    c.labels("s1", 1).inc(4)
    c.labels("s2", 1).inc()
    assert reg.value("switch_packets_total", "s1", 1) == 5
    assert reg.value("switch_packets_total", "s2", "1") == 1
    assert reg.value("switch_packets_total", "s3", 1) == 0  # never touched
    assert reg.value("queue_drops_total") == 0            # never asked for


def test_instruments_are_idempotent():
    reg = MetricsRegistry()
    a = reg.metric("packets_delivered_total")
    b = reg.metric("packets_delivered_total")
    assert a is b
    assert a.labels("h1") is b.labels("h1")


def test_label_count_mismatch_raises():
    reg = MetricsRegistry()
    c = reg.metric("switch_packets_total")
    with pytest.raises(MetricError, match="takes 2 label"):
        c.labels("only-one")
    g = reg.metric("sim_time_seconds")           # unlabelled
    with pytest.raises(MetricError, match="takes 0 label"):
        g.labels("extra")


def test_label_cardinality_limit():
    reg = MetricsRegistry()
    c = reg.metric("packets_delivered_total")
    for i in range(MAX_LABEL_SETS):
        c.labels(i).inc()
    with pytest.raises(MetricError, match="label sets"):
        c.labels("one-too-many")


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.metric("phase_seconds").labels("compile")
    for v in (5e-5, 7e-5, 3e-4, 7e-4, 100.0):
        h.observe(v)
    assert h.buckets[:3] == (1e-4, 5e-4, 1e-3)
    assert h.counts[:3] == [2, 3, 4]     # le=1e-4, le=5e-4, le=1e-3
    assert h.counts[-1] == 4             # le=30.0
    assert h.count == 5                  # the +Inf bucket
    assert h.sum == pytest.approx(100.00112)
    series = reg.to_dict()["phase_seconds"]["series"][0]
    assert series["mean"] == pytest.approx(100.00112 / 5)


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.metric("packets_delivered_total").labels("h1").inc(3)
    reg.metric("sim_time_seconds").labels().set(7)
    reg.metric("codegen_ns_per_packet").labels().observe(500)
    text = reg.render_prometheus()
    assert "# HELP packets_delivered_total packets delivered to hosts" in text
    assert "# TYPE packets_delivered_total counter" in text
    assert 'packets_delivered_total{host="h1"} 3' in text
    assert "# TYPE sim_time_seconds gauge" in text
    assert "sim_time_seconds 7" in text
    assert 'codegen_ns_per_packet_bucket{le="1000.0"} 1' in text
    assert 'codegen_ns_per_packet_bucket{le="+Inf"} 1' in text
    assert "codegen_ns_per_packet_sum 500.0" in text
    assert "codegen_ns_per_packet_count 1" in text


def test_label_values_are_escaped_in_the_text_format():
    reg = MetricsRegistry()
    reg.metric("packets_delivered_total").labels('a\\b"c\nd').inc()
    line = 'packets_delivered_total{host="a\\\\b\\"c\\nd"} 1'
    assert line in reg.render_prometheus().splitlines()
    # The JSON dump carries the value itself.
    series = reg.to_dict()["packets_delivered_total"]["series"]
    assert series == [{"labels": {"host": 'a\\b"c\nd'}, "value": 1}]


def test_an_unlabelled_metrics_labels_is_the_metric_itself():
    reg = MetricsRegistry()
    reg.metric("sim_time_seconds").labels().set(2.5)
    assert reg.metric("sim_time_seconds").labels() is \
        reg.metric("sim_time_seconds").labels()
    assert reg.value("sim_time_seconds") == 2.5
    assert "sim_time_seconds 2.5" in reg.render_prometheus().splitlines()


def test_json_dump_round_trips():
    reg = MetricsRegistry()
    reg.metric("packets_delivered_total").labels("x").inc(2)
    reg.metric("interp_ns_per_packet").labels().observe(0.5)
    dump = json.loads(reg.render_json())
    assert dump["packets_delivered_total"]["series"] == [
        {"labels": {"host": "x"}, "value": 2}]
    assert dump["interp_ns_per_packet"]["series"][0]["count"] == 1


def test_null_registry_is_shared_noop():
    reg = NULL_REGISTRY
    assert reg.live is False
    c = reg.metric("anything")
    assert c is reg.metric("other")
    c.labels("way", "too", "many", "labels").inc()     # all no-ops
    c.labels().observe(1.0)
    c.labels().set(5)
    assert reg.value("anything", "x") == 0
    assert reg.render_prometheus() == ""
    assert reg.to_dict() == {}


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
