"""Ablations of the design choices DESIGN.md calls out.

* Telemetry-volume ablation: PHV cost as the loop checker's path array
  grows — quantifies the paper's observation that PHV overhead tracks
  telemetry volume.
* Checker-count ablation: RTT as checkers are added one at a time —
  the marginal latency cost of each extra telemetry header.
* Last-hop vs per-hop trade-off (Section 4.3): pipeline executions a
  violating packet causes under each design, and the telemetry bytes a
  packet carries under the implemented last-hop design.
"""

from repro.aether.upf import upf_program
from repro.compiler import compile_program, link
from repro.experiments import Fig12Config, run_rtt_experiment
from repro.properties import compile_property
from repro.runtime.scenarios import SourceRoutingTestbed
from repro.tofino import analyze_linked

LOOPS_TEMPLATE = """
tele bit<32>[{cap}] path;
tele bool looped = false;
{{ }}
{{
  if (switch_id in path) {{ looped = true; }}
  path.push(switch_id);
}}
{{
  if (looped) {{ reject; report; }}
}}
"""


def test_ablation_telemetry_volume():
    baseline = upf_program()
    reports = []
    for cap in (2, 4, 8, 12):
        compiled = compile_program(LOOPS_TEMPLATE.format(cap=cap),
                                   name=f"loops{cap}")
        linked = link(baseline, compiled)
        reports.append(analyze_linked(f"loops[{cap}]", linked, baseline))
    deltas = [report.phv_delta_bits for report in reports]
    assert deltas == sorted(deltas)  # PHV grows with telemetry
    assert all(report.stages == 12 for report in reports)


CONFIG = Fig12Config(duration_s=0.06, ping_interval_s=0.003,
                     load_bps_per_pair=30e6)

SUITES = [
    ([], "baseline"),
    (["valley_free"], "1 checker"),
    (["valley_free", "loops", "waypointing"], "3 checkers"),
    (["valley_free", "loops", "waypointing", "multi_tenancy",
      "egress_port_validity", "service_chain"], "6 checkers"),
]


def test_ablation_checker_count():
    runs = [run_rtt_experiment(checkers or None, label, CONFIG)
            for checkers, label in SUITES]
    # Even six simultaneous checkers stay within 30% of baseline RTT at
    # this (scaled-down, overhead-inflating) link rate.
    assert runs[-1].mean_ms <= 1.30 * runs[0].mean_ms


def test_ablation_perhop_vs_lasthop():
    """Section 4.3's trade-off, measured: under last-hop checking a
    violating packet burns switch work all the way to the edge; under
    per-hop checking it dies at the offending switch.  We count the
    total pipeline executions a violating valley packet causes."""

    def run(mode):
        testbed = SourceRoutingTestbed(check_mode=mode)
        path = ["leaf1", "spine1", "leaf2", "spine1", "leaf2"]
        switches = testbed.deployment.switches.values()
        before = sum(sw.packets_processed for sw in switches)
        result = testbed.send("h1", "h3", testbed.route_for(path, "h3"))
        after = sum(sw.packets_processed for sw in switches)
        return (not result.delivered), after - before

    last_dropped, last_hops = run("last_hop")
    per_dropped, per_hops = run("per_hop")
    assert last_dropped and per_dropped        # both enforce...
    assert per_hops < last_hops                # ...per-hop enforces earlier


def test_ablation_lasthop_telemetry_bytes():
    """Telemetry carried per packet under the last-hop design: valley-free
    needs only two bits (+ the EtherType linkage), exactly the paper's
    claim for Figure 7."""
    assert compile_property("valley_free").hydra_header.width_bits == 16 + 2
