"""``fig12_rtt``: the paper's Figure 12 -- ping RTT across the fabric
under ~50 % bidirectional load, baseline against all checkers.

The same net layer as the replay workloads, used differently: two
directions, queues filling, host callbacks at every delivery,
continuations parking.  It also carries the paper's headline *simulated*
statistics (mean RTT and the checked-over-baseline overhead), which are
functions of the seed alone: a change that only speeds the simulator up
must leave them bit-identical.

The body of a trial is ``run_rtt_experiment``'s, spelled out from the
same public pieces so that set-up (building the fabric) and the timed
region (``Network.run``) can be told apart and delivered packets
counted; ``run_rtt_experiment`` itself, in event mode on the interp
engine, is the reference the RTT series is compared with.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from harness import ENGINE, REFERENCE_ENGINE, Run

from repro.experiments.fig12 import (ALL_CHECKERS, Fig12Config,
                                     run_rtt_experiment)
from repro.properties import compile_suite
from repro.stats import mean
from repro.workloads.traffic import EchoResponder, Pinger, UdpLoadGenerator

import probes
from wl_fabric import Fabric

MIN_TRIALS = 3
SLICES = 8


def _arm(run: Run, compiled: Optional[list], config: Fig12Config,
         slices: int) -> Dict[str, Any]:
    """One arm: build the fabric, schedule load and pings, run."""
    with run.stopwatch() as setup:
        fabric = Fabric(run, compiled, config.engine, config.batched,
                        link_bps=config.link_bandwidth_bps,
                        link_latency_s=config.link_latency_s)
        network = fabric.network
        with run.spans.span("workloads.schedule"):
            for i, (a, b) in enumerate((("h1", "h3"), ("h2", "h4"))):
                UdpLoadGenerator(
                    network, a, b, config.load_bps_per_pair,
                    packet_len=config.load_packet_len,
                    seed=config.seed + i).schedule(config.duration_s)
            EchoResponder(network, "h3")
            pinger = Pinger(network, "h1", "h3",
                            interval_s=config.ping_interval_s)
            pinger.schedule(config.duration_s)
    with run.spans.span("net.replay"):
        walls = run.run_sliced(network, 0.0, config.duration_s, slices)
    return {"walls": walls, "setup": setup.seconds, "fabric": fabric,
            "series": pinger.series(),
            "rtts_ms": pinger.rtts_ms, "sim_s": network.sim.now,
            "delivered": network.packets_delivered,
            "lost": network.packets_lost}


def run_workload(run: Run) -> None:
    duration_s = 0.2 / (10 if run.quick else 1)
    config = Fig12Config(duration_s=duration_s, seed=run.seed,
                         engine=ENGINE, batched=True)
    with run.traced():
        with run.setup("compiler.compile_suite"):
            compiled = compile_suite(ALL_CHECKERS)

    # Warm-up and reference in one pass, on a short slice of the
    # experiment: this driver in (codegen, batched) against the repo's
    # own run_rtt_experiment in (interp, event).
    short = Fig12Config(duration_s=duration_s / 8, seed=run.seed,
                        engine=ENGINE, batched=True)
    got = _arm(run, compiled, short, 1)
    want = run_rtt_experiment(
        ALL_CHECKERS, "reference",
        Fig12Config(duration_s=short.duration_s, seed=run.seed,
                    engine=REFERENCE_ENGINE, batched=False))
    run.checks.equal(got["series"], want.series,
                     "RTT series (codegen,batched) vs (interp,event)")
    run.checks.equal(got["lost"], want.packets_lost, "reference lost")

    def trial() -> Tuple[List[float], Dict[str, Any], Dict[str, Any]]:
        baseline = _arm(run, None, config, SLICES)
        checked = _arm(run, compiled, config, SLICES)
        run.setup_trials.append(baseline["setup"] + checked["setup"])
        for arm in (baseline, checked):
            pings = len(arm["rtts_ms"])
            expected = int(round(duration_s / config.ping_interval_s))
            run.checks.ops(expected, expected - pings, "pings answered")
            run.checks.ops(arm["delivered"] + arm["lost"], arm["lost"],
                           "packets delivered")
        return baseline["walls"] + checked["walls"], baseline, checked

    trials: List[List[float]] = []
    while run.more(len(trials), MIN_TRIALS):
        walls, baseline, checked = trial()
        trials.append(walls)
    delivered = baseline["delivered"] + checked["delivered"]
    run.counts["delivered"] = delivered
    run.counts["lost"] = baseline["lost"] + checked["lost"]
    run.counts["pings"] = len(checked["rtts_ms"])
    run.finish(run.throughput(delivered, trials))
    base_ms, checked_ms = mean(baseline["rtts_ms"]), mean(checked["rtts_ms"])
    run.extra["pps"] = run.metrics["ops_per_s"]
    run.counts["sim_rtt_mean_us"] = checked_ms * 1e3
    run.counts["sim_rtt_overhead_pct"] = \
        (checked_ms - base_ms) / base_ms * 100.0
    if not run.trace:
        return

    with run.traced():
        traced, baseline, checked = trial()
    run.layer_table(ops=delivered)
    base = sum(trials[-1])
    run.metrics["bench.trace_overhead_ratio"] = sum(traced) / base
    run.metrics["bench.us_per_op"] = base / delivered * 1e6
    run.metrics["net.engine_calls_per_packet"] = (
        (baseline["fabric"].engine_calls + checked["fabric"].engine_calls)
        / delivered)
    run.metrics["net.packets_lost"] = run.counts["lost"]
    for name, arm, walls in (("baseline", baseline, traced[:SLICES]),
                             ("checked", checked, traced[SLICES:])):
        run.extra[f"net.fig12.wall_per_sim_s.{name}"] = \
            sum(walls) / arm["sim_s"]
    probes.universal(run, parse_names=ALL_CHECKERS)
    probes.codegen_lines(run, ALL_CHECKERS)
    leaf = checked["fabric"].switches["leaf1"]
    from repro.net.packet import make_udp

    hosts = checked["fabric"].topology.hosts
    load = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 40000, 5201,
                    payload_len=config.load_packet_len)
    sample = [(load, 1)] * run.size(2000, 200)
    probes.switch(run, leaf, sample, table="upf_routes",
                  action="upf_route",
                  row=lambda i: ([((11 << 24) | i, 32)], [1]))
