"""Figure 12: Hydra's overhead on packet latency.

The experiment is the paper's, scaled down linearly for the event-driven
substrate (see repro.experiments.fig12 and EXPERIMENTS.md): the Aether
fabric under bidirectional UDP load with ECMP, a fast ping between
servers on different leaves, and the full Table-1 checker suite linked
into every switch for the Hydra arm.  ``repro fig12`` prints both
panels' numbers at the default configuration; CI pins them."""

from repro.experiments import ALL_CHECKERS, Fig12Config, run_fig12

CONFIG = Fig12Config(duration_s=0.2, ping_interval_s=0.002,
                     load_bps_per_pair=40e6)


def test_fig12_rtt_overhead():
    result = run_fig12(CONFIG, checkers=ALL_CHECKERS)
    baseline, hydra = result.baseline, result.with_checkers

    # The paper's conclusions, reproduced in shape:
    assert len(baseline.rtts_ms) >= 5 and baseline.mean_ms > 0
    assert len(baseline.rtts_ms) == len(hydra.rtts_ms)  # no pings lost
    assert baseline.packets_lost == 0 and hydra.packets_lost == 0
    assert not result.t_test.significant(alpha=0.01)
    # Means within ~25% of each other (the checkers only add telemetry
    # bytes, inflated here by the scaled-down link rate).
    assert abs(hydra.mean_ms - baseline.mean_ms) <= 0.25 * baseline.mean_ms
    # 12b's two CDFs.
    base_cdf, checker_cdf = result.cdfs(20)
    assert base_cdf and checker_cdf
