"""The Aether soak benchmark harness (``repro aether``): determinism
across worker counts, report shape, history persistence, flatness
probe plumbing, and the weighted-percentile helper."""

import json

import pytest

from repro.experiments.aetherbench import (_weighted_percentile,
                                           format_aether_bench,
                                           run_soak)
from repro.obs import MetricsRegistry

SMALL = dict(sessions=1200, engine="codegen", batched=False, batch_size=400,
             churn_every=10, replay_ues=60, replay_repeats=2,
             flatness=False)


def test_weighted_percentile():
    samples = [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)]
    assert _weighted_percentile(samples, 0.5) == 2.0
    assert _weighted_percentile(samples, 1.0) == 4.0
    # Weights count as repeated observations.
    assert _weighted_percentile([(1.0, 99), (100.0, 1)], 0.5) == 1.0
    assert _weighted_percentile([], 0.5) == 0.0


def test_soak_report_shape_and_counters():
    result = run_soak(**SMALL)
    assert result["benchmark"] == "aether_soak"
    assert result["sessions"] == {"target": 1200, "attached_peak": 1200}
    assert result["attach"]["total"] == 1200
    assert result["attach"]["per_s"] > 0
    assert result["attach"]["p99_us"] >= result["attach"]["p50_us"] > 0
    assert result["churn"]["detached"] == 120  # every 10th UE
    replay = result["replay"]
    # Allowed uplink+downlink all delivered; denied packets offered
    # beyond that are classified then dropped by the UPF.
    assert replay["delivered"] == replay["expected"]
    assert replay["offered"] > replay["expected"]
    assert replay["reports"] == 0
    assert result["peak_rss_bytes"] > 0
    assert set(result["phase_seconds"]) == {"attach", "churn", "replay"}
    assert result["capacity"]["total_sessions"] == 1200
    assert "flatness" not in result
    assert "aether soak" in format_aether_bench(result)


def test_soak_deterministic_across_worker_counts():
    serial = run_soak(**SMALL, workers=1)
    sharded = run_soak(**SMALL, workers=2)
    assert serial["deterministic"] == sharded["deterministic"]
    assert sharded["workers"] == 2


def test_soak_flatness_probe():
    result = run_soak(sessions=600, engine="codegen", batched=False,
                      batch_size=200, replay_ues=30, replay_repeats=1,
                      flatness=True, baseline_sessions=200)
    flat = result["flatness"]
    assert flat["baseline_sessions"] == 200
    assert flat["us_per_packet_baseline"] > 0
    assert flat["us_per_packet_full"] > 0
    assert flat["us_per_packet_after_churn"] > 0
    assert flat["ratio"] == pytest.approx(
        flat["us_per_packet_full"] / flat["us_per_packet_baseline"],
        rel=0.01)
    assert isinstance(flat["flat"], bool)


def test_soak_history_appends_across_writes(tmp_path):
    out = tmp_path / "BENCH_aether.json"
    first = run_soak(**SMALL, out_path=str(out))
    assert len(first["history"]) == 1
    second = run_soak(**SMALL, out_path=str(out))
    assert len(second["history"]) == 2
    on_disk = json.loads(out.read_text())
    entry = on_disk["history"][-1]
    assert entry["sessions"] == 1200
    assert entry["attach_per_s"] > 0
    assert entry["replay_pps"] > 0
    assert entry["peak_rss_bytes"] > 0
    assert "commit" in entry["meta"] and "timestamp" in entry["meta"]


def test_soak_merges_phases_into_live_registry():
    registry = MetricsRegistry()
    run_soak(**SMALL, registry=registry)
    phases = {series["labels"]["phase"]
              for series in registry.to_dict()["phase_seconds"]["series"]}
    assert {"attach", "churn", "replay"} <= phases


def test_soak_validates_arguments():
    with pytest.raises(ValueError):
        run_soak(sessions=0)
    with pytest.raises(ValueError):
        run_soak(sessions=10, workers=0)
