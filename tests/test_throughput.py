"""Section 6.2's throughput microbenchmark.

The paper replays mirrored campus traffic toward leaf1 and finds
throughput "almost identical" (~20 Gb/s) with and without Hydra.  Here
the synthetic campus trace replays across the fabric in both
configurations; delivered goodput must match (telemetry is added inside
the fabric and stripped at the edge, so goodput is unchanged)."""

import pytest

from repro.experiments import run_replay

RATE_PPS = 5_000
DURATION_S = 0.05


def test_throughput_parity():
    baseline = run_replay(None, "baseline", rate_pps=RATE_PPS,
                          duration_s=DURATION_S)
    hydra = run_replay(["loops", "waypointing", "multi_tenancy"], "hydra",
                       rate_pps=RATE_PPS, duration_s=DURATION_S)
    assert baseline.delivery_ratio > 0.95
    assert hydra.delivery_ratio > 0.95
    assert hydra.goodput_bps == pytest.approx(baseline.goodput_bps, rel=0.05)
