"""``fabric_checked`` and ``fabric_bare``: a campus trace replayed across
the 2x2 leaf-spine ``fabric-upf`` fabric, with and without Hydra.

``fabric_checked`` is the paper's deployment -- all 11 Table-1 checkers,
h1 -> h3 over three switch hops.  The checkers keep registers, so the
network cannot fast-forward flows and the p4 engine runs for every hop.
``fabric_bare`` is the other side of that choice: no checker, h1 -> h2
through one switch, flow fast-forward serving nearly every emission --
the workload an engine optimisation must *not* move.

Both sample the same way: a trial is a fresh network (from one compile
and one materialised trace) and one ``Network.run()`` over the whole
trace; load is closed-loop in host time (one client waits for ``run``),
open-loop in virtual time at the stated rate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from harness import ENGINE, REFERENCE_ENGINE, Run, digest

from repro.aether.upf import upf_program
from repro.experiments.fig12 import (ALL_CHECKERS, configure_checker_controls,
                                     install_fabric_routes)
from repro.experiments.throughput import ReplayFeed
from repro.net.simulator import Network
from repro.net.topology import leaf_spine
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import compile_suite
from repro.runtime.deployment import HydraDeployment
from repro.workloads.campus import CampusTraceGenerator

import probes

LINK_BPS = 40e9
LINK_LATENCY_S = 2e-8
#: Virtual-time offset of the negative-control slice, well past the
#: last arrival of the reference slice on the same network.
NEGATIVE_AT_S = 1.0
MIN_TRIALS = 3
#: Virtual-time slices per replay; each is one timing sample (~0.15 s
#: checked), short against the host's ~1 s speed-state dwell.
SLICES = 16


class Fabric:
    """One fabric instance: the network, its switches, and (when
    checkers are linked in) the deployment."""

    def __init__(self, run: Run, compiled: Optional[list], engine: str,
                 batched: bool, obs: Any = None,
                 link_bps: float = LINK_BPS,
                 link_latency_s: float = LINK_LATENCY_S) -> None:
        topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2,
                              link_latency_s=link_latency_s,
                              bandwidth_bps=link_bps)
        forwarding = {name: upf_program(f"fabric_upf_{name}")
                      for name in topology.switches}
        kwargs = {} if obs is None else {"obs": obs}
        self.deployment: Optional[HydraDeployment] = None
        with run.spans.span("runtime.deploy"):
            if compiled:
                self.deployment = HydraDeployment(
                    topology, compiled, forwarding, engine=engine,
                    batched=batched, **kwargs)
                self.switches = self.deployment.switches
                self.network = self.deployment.network
            else:
                self.switches = {
                    name: Bmv2Switch(forwarding[name], name=name,
                                     switch_id=spec.switch_id,
                                     engine=engine, **kwargs)
                    for name, spec in topology.switches.items()}
                self.network = Network(topology, self.switches,
                                       batched=batched, **kwargs)
        with run.spans.span("runtime.configure"):
            install_fabric_routes(topology, self.switches)
            if self.deployment is not None:
                configure_checker_controls(self.deployment, topology)
        self.topology = topology
        self.run = run

    @property
    def reports(self) -> int:
        return len(self.deployment.reports) if self.deployment else 0

    @property
    def engine_calls(self) -> int:
        return sum(s.packets_processed for s in self.switches.values())

    def replay(self, src: str, dst: str,
               emissions: List[Tuple[float, Any]],
               slices: int = 1) -> Dict[str, Any]:
        """Replay and return what a reference comparison looks at, as
        deltas so one network can carry several replays.  ``walls`` is
        the host wall of each of ``slices`` equal spans of virtual time
        (``Network.run(until=...)``), the last one running to idle, in
        reference seconds."""
        sink = self.network.host(dst)
        before = (sink.rx_count, sink.rx_bytes, self.reports)
        self.network.attach_source(src, iter(emissions))
        walls = self.run.run_sliced(self.network, emissions[0][0],
                                    emissions[-1][0], slices)
        return {"delivered": sink.rx_count - before[0],
                "bytes": sink.rx_bytes - before[1],
                "last_arrival": sink.last_rx_time,
                "reports": self.reports - before[2],
                "walls": walls}


def own_packets(emissions: List[Tuple[float, Any]]
                ) -> List[Tuple[float, Any]]:
    """The same emissions on packet objects no other network has seen.

    ``Network`` memoises a template's transit record on the packet
    object itself (``packet._ff``), validated by a per-network
    generation counter that starts at zero in every network -- so a
    template replayed through a second network replays the *first*
    network's record, into the first network's hosts.  Every network
    the benchmark builds therefore gets its own copies, one per
    distinct template, as part of its set-up.
    """
    twins: Dict[int, Any] = {}
    out = []
    for when, packet in emissions:
        twin = twins.get(id(packet))
        if twin is None:
            twin = twins[id(packet)] = packet.copy()
        out.append((when, twin))
    return out


def _outcome(result: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in result.items() if k != "walls"}


def _gates(run: Run, compiled: Optional[list], dst: str,
           trace: List[Tuple[float, Any]]) -> None:
    """Warm-up and reference comparison in one pass: a slice of the
    trace through (codegen, batched) -- the path under test -- must
    equal the same slice through (interp, event).  With checkers linked
    in, a negative control follows on both networks: withdraw one
    checker's control entry and the same non-zero number of reports
    must appear under both engines, which proves the checkers are live
    rather than linked in and inert."""
    cut = run.size(600, 200)
    piece = trace[:cut]
    tested = Fabric(run, compiled, ENGINE, batched=True)
    reference = Fabric(run, compiled, REFERENCE_ENGINE, batched=False)
    got = _outcome(tested.replay("h1", dst, own_packets(piece)))
    want = _outcome(reference.replay("h1", dst, own_packets(piece)))
    run.checks.equal(got, want, "slice (codegen,batched) vs (interp,event)")
    run.checks.equal(want["delivered"], len(piece), "reference delivers all")
    if not compiled:
        return
    control = [(NEGATIVE_AT_S + when, packet)
               for when, packet in trace[:run.size(100, 50)]]
    outcomes = []
    for fabric in (tested, reference):
        fabric.deployment.dict_remove("vlan_configured", 0)
        outcomes.append(_outcome(
            fabric.replay("h1", dst, own_packets(control))))
    run.checks.equal(outcomes[0], outcomes[1],
                     "negative control (codegen,batched) vs (interp,event)")
    run.checks.expect(outcomes[1]["reports"] > 0,
                      "negative control raises reports")
    run.counts["negative_control_reports"] = outcomes[1]["reports"]


def run_workload(run: Run, checked: bool) -> None:
    dst = "h3" if checked else "h2"
    rate_pps = 100_000.0 if checked else 400_000.0
    # ~6K packets checked (~1.7 s of replay at HEAD), ~80K bare (~0.2 s).
    duration_s = (0.06 if checked else 0.20) / (20 if run.quick else 1)

    with run.traced():
        compiled = None
        if checked:
            with run.setup("compiler.compile_suite"):
                compiled = compile_suite(ALL_CHECKERS)
        with run.setup("workloads.tracegen"):
            hosts = leaf_spine(num_leaves=2, num_spines=2,
                               hosts_per_leaf=2).hosts
            feed = ReplayFeed(
                CampusTraceGenerator(seed=run.seed, reuse_packets=True),
                src_ip=hosts["h1"].ipv4, dst_ip=hosts[dst].ipv4,
                rate_pps=rate_pps, duration_s=duration_s)
            trace, tracegen_s = run.timed(lambda: list(feed.emissions()))
    offered = len(trace)
    run.counts["offered"] = offered
    run.counts["input_digest"] = digest(
        [(when, packet.length) for when, packet in trace])

    _gates(run, compiled, dst, trace)

    def trial(obs: Any = None) -> Tuple[List[float], Fabric]:
        with run.trial_setup():
            fabric = Fabric(run, compiled, ENGINE, batched=True, obs=obs)
            with run.spans.span("workloads.own_packets"):
                emissions = own_packets(trace)
        with run.spans.span("net.replay"):
            result = fabric.replay("h1", dst, emissions, slices=SLICES)
        run.checks.ops(offered, offered - result["delivered"],
                       "packets delivered")
        run.checks.equal(result["reports"], 0, "reports on healthy traffic")
        run.counts["delivered"] = result["delivered"]
        run.counts["reports"] = result["reports"]
        return result["walls"], fabric

    trials: List[List[float]] = []
    while run.more(len(trials), MIN_TRIALS):
        walls, fabric = trial()
        trials.append(walls)
    run.finish(run.throughput(offered, trials))
    run.extra["pps"] = run.metrics["ops_per_s"]
    if not run.trace:
        return

    with run.traced():
        traced, fabric = trial()
    run.layer_table(ops=offered)
    base = sum(trials[-1])
    run.metrics["bench.trace_overhead_ratio"] = sum(traced) / base
    run.metrics["bench.us_per_op"] = base / offered * 1e6
    run.extra["net.replay_us_per_packet"] = base / offered * 1e6
    run.extra["net.self_us_per_packet"] = \
        run.spans.self_seconds("net.replay") / offered * 1e6
    run.metrics["net.engine_calls_per_packet"] = \
        fabric.engine_calls / offered
    run.metrics["net.packets_lost"] = fabric.network.packets_lost
    run.metrics["workloads.tracegen_pps"] = offered / tracegen_s
    sources = ALL_CHECKERS if checked else []
    probes.universal(run, parse_names=ALL_CHECKERS)
    probes.codegen_lines(run, sources)
    leaf = fabric.switches["leaf1"]
    sample = [(packet, 1) for _, packet in trace[:run.size(5000, 300)]]
    probes.switch(run, leaf, sample,
                  table="upf_routes", action="upf_route",
                  row=lambda i: ([((11 << 24) | i, 32)], [1]))
    if checked:
        from repro.obs import MetricsRegistry, Observability

        metered, _ = trial(Observability(registry=MetricsRegistry()))
        run.extra["obs.metrics_overhead_ratio"] = sum(metered) / base
