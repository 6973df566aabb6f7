"""``oracle_campaign``: the differential oracle, many short-lived
deployments of about two packets each.

Per-packet wins do nothing here: the profile is the codegen engine's
build (``_specialize`` + ``compile()``), then the linker and the
``set_default_action`` rebinds, and it is the one workload that times
``indus``, ``compiler`` and the ``interp`` reference engine.  Work moved
from packet time into build or rebind time costs here.

The programs are fixed -- difftest scenario seeds ``0 .. POOL-1`` -- and
``--seed`` only sets the order they run in.  Scenario cost follows the
generated program (CV 0.63 over 600 scenarios at HEAD, unpredictable
from switch count or source length), so a seed-dependent draw of this
size would move scenarios/s by several percent from the input mix alone,
which is the size of change the benchmark has to resolve.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, List

from harness import (ENGINE, REFERENCE_ENGINE, Run, digest, percentile,
                     typical)

from repro import api
from repro.difftest import build_packet, gen_scenario

import probes

POOL = 48
ENGINES = (REFERENCE_ENGINE, ENGINE)
MIN_PASSES = 3
INJECTED = 10


def run_workload(run: Run) -> None:
    count = run.size(POOL, 8)
    order = list(range(count))
    random.Random(run.seed).shuffle(order)
    with run.traced():
        with run.setup("difftest.gen_scenario"):
            scenarios = [gen_scenario(seed) for seed in order]
    run.counts["scenarios"] = count
    run.counts["input_digest"] = digest(order)
    run.counts["packets"] = sum(len(s.packets) for s in scenarios)

    # Negative control, and the warm-up: the oracle must notice bugs
    # injected into the compiled checker.  Not every mutant is reachable
    # by a scenario's one to four packets, so the gate is "some caught".
    summary = api.difftest(seed=0, iters=run.size(INJECTED, 4),
                           inject_bug=True, engines=ENGINES,
                           stop_on_failure=False)
    run.checks.expect(summary.mutations_caught > 0,
                      "oracle catches injected bugs")
    run.counts["mutations_injected"] = summary.mutations_injected
    run.counts["mutations_caught"] = summary.mutations_caught

    def one_pass() -> List[float]:
        walls, failed = [], 0
        for scenario in scenarios:
            with run.spans.span("difftest.scenario"):
                result, took = run.timed(
                    lambda: api.run_scenario(scenario, engines=ENGINES))
            walls.append(took)
            failed += not result.ok
        run.checks.ops(count, failed, "oracle verdicts ok")
        return walls

    passes: List[List[float]] = []
    while run.more(len(passes), MIN_PASSES):
        passes.append(one_pass())
    run.finish(run.throughput(count, passes))
    each = [seconds * 1e3 for seconds in typical(passes)]
    run.extra["scenarios_per_s"] = run.metrics["ops_per_s"]
    run.extra["difftest.scenario_ms_p50"] = statistics.median(each)
    run.extra["difftest.scenario_ms_p90"] = percentile(each, 0.9)
    if not run.trace:
        return

    base = sum(passes[-1])
    with run.traced():
        traced = one_pass()
    run.layer_table(ops=count)
    run.metrics["bench.trace_overhead_ratio"] = sum(traced) / base
    run.metrics["bench.us_per_op"] = base / count * 1e6
    calls = sum(row[4] for row in run.spans.rows
                if row[0] in ("p4.process", "p4.process_batch"))
    # Engine invocations per oracle packet: both engines, every hop.
    run.metrics["net.engine_calls_per_packet"] = \
        calls / run.counts["packets"]
    run.metrics["net.packets_lost"] = 0
    probes.universal(run, parse_sources=[s.source() for s in scenarios])
    probes.codegen_lines(run, sorted(order)[:INJECTED])
    _switch_probes(run, gen_scenario(0))


def _switch_probes(run: Run, scenario: Any) -> None:
    """The ingress switch of one scenario's own deployment, fed that
    scenario's packets."""
    compiled = api.compile_indus(scenario.source(), name="probe")
    deployment = api.deploy(compiled, scenario=scenario, engine=ENGINE)
    topology = deployment.topology
    ingress = topology.host_attachment(scenario.src_host)
    packets = [build_packet(spec, topology, scenario.src_host,
                            scenario.dst_host)
               for spec in scenario.packets]
    wanted = run.size(2000, 200)
    sample = [(packets[i % len(packets)], ingress.port)
              for i in range(wanted)]
    probes.switch(run, deployment.switches[ingress.node], sample,
                  table="fwd_table", action="fwd_set_egress",
                  row=lambda i: ([64 + i], [1]))
