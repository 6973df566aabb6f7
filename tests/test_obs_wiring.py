"""Observability wired through the runtime layers.

End-to-end checks: packet-lifecycle event ordering over a 3-hop path,
simulator timestamps from the running network when two networks share
a tracer, drop accounting (no_route / pipeline / ttl), per-switch
metrics, instrumented-vs-plain engine output equality, a traced
Figure-12 arm's export and metrics, and that the differential oracle's
verdicts are identical with observability on.
"""

import io
import json

import pytest

from repro.net.packet import ip, make_udp
from repro.net.simulator import Network
from repro.net.topology import linear, single_switch
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding
from tests.test_codegen_engine import build_switch


def _switches(topology, engine="codegen", obs=None):
    return {
        name: Bmv2Switch(l2_port_forwarding(f"l2_{name}"), name=name,
                         switch_id=spec.switch_id, engine=engine, obs=obs)
        for name, spec in topology.switches.items()
    }


def _packet():
    return make_udp(ip(10, 1, 0, 1), ip(10, 2, 0, 1), 1111, 2222)


# ---------------------------------------------------------------------------
# Lifecycle ordering across a 3-hop path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["codegen", "interp"])
def test_three_hop_lifecycle_event_ordering(engine):
    topo = linear(3)                       # h1 - s1 - s2 - s3 - h2
    obs = Observability.enabled()
    switches = _switches(topo, engine=engine, obs=obs)
    switches["s1"].insert_entry("fwd_table", [1], "fwd_set_egress", [10])
    switches["s2"].insert_entry("fwd_table", [11], "fwd_set_egress", [10])
    switches["s3"].insert_entry("fwd_table", [11], "fwd_set_egress", [1])
    net = Network(topo, switches, obs=obs)
    net.host("h1").send(_packet())
    net.run()
    assert net.packets_delivered == 1

    events = list(obs.tracer)
    # One global trace, strictly ordered.
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    stamps = [e.ts for e in events if e.ts is not None]
    assert stamps == sorted(stamps)        # simulator time, monotonic

    # The canonical per-hop shape: each switch parses, applies the
    # forwarding table (hit), deparses, then queues onto the next link.
    assert [e.node for e in obs.tracer.events(kind="parse")] == \
        ["s1", "s2", "s3"]
    kinds = [(e.kind, e.node) for e in events]
    for sw in ("s1", "s2", "s3"):
        hop = [k for k, n in kinds if n == sw]
        assert hop == ["parse", "apply", "deparse", "enqueue", "link"]
    assert kinds[0] == ("enqueue", "h1")
    assert kinds[1] == ("link", "h1")
    assert kinds[-1] == ("deliver", "h2")
    applies = obs.tracer.events(kind="apply")
    assert all(e.detail == {"table": "fwd_table", "result": "hit"}
               for e in applies)

    # Every event serializes to a JSON line.
    for line in obs.tracer.to_jsonl_lines():
        assert json.loads(line)["kind"] in (
            "enqueue", "link", "parse", "apply", "deparse", "deliver")

    # And the per-switch metrics agree with the trace.
    for sw, port in (("s1", 1), ("s2", 11), ("s3", 11)):
        assert obs.registry.value("switch_packets_total", sw, port) == 1
    assert obs.registry.value("packets_delivered_total", "h2") == 1
    assert obs.registry.value("table_lookups_total",
                              "s1", "fwd_table", "hit") == 1


def test_a_shared_tracer_reads_the_running_networks_clock():
    """Two networks built on one handle, one after the other: each
    run's events carry that network's simulator time, not the first
    network's clock."""
    obs = Observability.enabled()
    nets = []
    for send_at in (5e-3, 0.0):
        topo = single_switch(2)
        switches = _switches(topo, obs=obs)
        switches["s1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        net = Network(topo, switches, obs=obs)
        net.host("h1").send(_packet(), delay=send_at)
        first = obs.tracer.total
        net.run()
        nets.append((net, list(obs.tracer)[first:]))
    (a, a_events), (b, b_events) = nets
    assert a.sim.now > 5e-3 > b.sim.now > 0
    assert len(b_events) == 8
    assert all(0.0 <= e.ts <= b.sim.now for e in b_events)
    assert b_events[-1].kind == "deliver" and b_events[-1].ts == b.sim.now
    assert a_events[-1].ts == a.sim.now


# ---------------------------------------------------------------------------
# Drop paths
# ---------------------------------------------------------------------------

def test_no_route_drop_is_counted_and_traced():
    topo = single_switch(2)
    obs = Observability.enabled()
    switches = _switches(topo, obs=obs)
    # Forward to port 9, which has no link attached.
    switches["s1"].insert_entry("fwd_table", [1], "fwd_set_egress", [9])
    net = Network(topo, switches, obs=obs)
    net.host("h1").send(_packet())
    net.run()
    assert net.packets_delivered == 0
    assert net.packets_lost == 1
    assert obs.registry.value("queue_drops_total", "s1", "no_route") == 1
    drops = obs.tracer.events(kind="drop")
    assert [e.detail["reason"] for e in drops] == ["no_route"]
    assert drops[0].port == 9


@pytest.mark.parametrize("engine", ["codegen", "interp"])
def test_pipeline_and_ttl_drop_reasons(engine):
    topo = single_switch(2)
    obs = Observability.enabled()
    switches = _switches(topo, engine=engine, obs=obs)
    net = Network(topo, switches, obs=obs)    # no fwd entries: table miss
    net.host("h1").send(_packet())
    net.host("h1").send(make_udp(ip(10, 1, 0, 1), ip(10, 2, 0, 1),
                                 1111, 2222, ttl=1), delay=1e-3)
    net.run()
    assert net.packets_delivered == 0
    reasons = [e.detail["reason"] for e in obs.tracer.events(kind="drop")]
    assert reasons == ["pipeline", "ttl"]
    dropped = obs.registry.value("switch_packets_dropped_total",
                                 "s1", "pipeline")
    assert dropped == 1
    assert obs.registry.value("switch_packets_dropped_total",
                              "s1", "ttl") == 1
    # The latency histogram saw both packets.
    hist = obs.registry.value(f"{engine}_ns_per_packet")
    assert hist.count == 2


# ---------------------------------------------------------------------------
# Off-by-default: instrumented and plain engines agree byte-for-byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["codegen", "interp"])
def test_instrumented_engine_outputs_match_plain(engine):
    plain = build_switch(engine=engine)
    metered = build_switch(engine=engine, obs=Observability.enabled())
    assert plain.obs.live is False
    for i in range(20):
        packet_a = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1000 + i, 53)
        packet_b = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1000 + i, 53)
        out_a = plain.process(packet_a, 1)
        out_b = metered.process(packet_b, 1)
        assert [(p, [h.to_bits() for h in pkt.headers if h.valid])
                for p, pkt in out_a] == \
            [(p, [h.to_bits() for h in pkt.headers if h.valid])
             for p, pkt in out_b]
    assert plain.registers == metered.registers
    assert plain.digests.total == metered.digests.total


def test_attach_observability_rebuilds_engine():
    sw = build_switch()
    out_before = sw.process(_packet(), 1)
    obs = Observability.enabled()
    sw.attach_observability(obs)
    assert sw.obs is obs
    out_after = sw.process(_packet(), 1)
    assert [p for p, _ in out_before] == [p for p, _ in out_after]
    assert obs.tracer.events(kind="parse")  # instrumentation is active
    assert obs.registry.value("switch_packets_total", "s1", 1) == 1


def test_digest_log_eviction_metric():
    obs = Observability(registry=MetricsRegistry())
    sw = Bmv2Switch(l2_port_forwarding("l2_s1"), name="s1",
                    digest_capacity=2, obs=obs)
    for i in range(5):
        sw.digests.append(i)
    assert sw.digests.dropped == 3
    assert obs.registry.value("log_evictions_total", "digests", "s1") == 3
    assert "evicted=3" in repr(sw.digests)
    assert list(sw.digests) == [3, 4]


# ---------------------------------------------------------------------------
# A traced Figure-12 arm: the whole checker suite on the fabric
# ---------------------------------------------------------------------------

def test_traced_fig12_arm_exports_and_meters():
    from repro.experiments import Fig12Config, run_rtt_experiment
    from repro.experiments.fig12 import ALL_CHECKERS

    obs = Observability.enabled()
    run = run_rtt_experiment(ALL_CHECKERS, "traced",
                             Fig12Config(duration_s=0.02), obs=obs)
    assert run.rtts_ms

    buffer = io.StringIO()
    count = obs.tracer.export_jsonl(buffer)
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert count == len(events) > 0
    seqs = [e["seq"] for e in events]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    assert {"enqueue", "link", "parse", "apply", "deliver"} <= \
        {e["kind"] for e in events}

    dump = obs.registry.to_dict()
    for name in ("switch_packets_total", "table_lookups_total",
                 "packets_delivered_total", "codegen_ns_per_packet",
                 "phase_seconds"):
        series = dump[name]["series"]
        assert sum(s.get("value", s.get("count", 0)) for s in series) > 0, \
            name


# ---------------------------------------------------------------------------
# The oracle's verdicts do not depend on observability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
def test_difftest_verdicts_unchanged_with_live_registry(seed):
    from repro.difftest.harness import run_scenario
    from repro.difftest.scenario import gen_scenario

    plain = run_scenario(gen_scenario(seed))
    registry = MetricsRegistry()
    metered = run_scenario(gen_scenario(seed), registry=registry)
    assert plain.ok and metered.ok
    assert plain.packets_run == metered.packets_run
    assert plain.hops_checked == metered.hops_checked
    assert plain.reports_checked == metered.reports_checked
    # The registry actually saw the deployments run.
    dump = registry.to_dict()
    assert sum(s["value"] for s in
               dump["switch_packets_total"]["series"]) > 0


def test_deployment_stats_include_metrics_snapshot():
    from repro.compiler import compile_program
    from repro.difftest.harness import build_packet, \
        build_scenario_deployment
    from repro.difftest.scenario import gen_scenario

    scenario = gen_scenario(3)
    compiled = compile_program(scenario.source(), name="dt3")
    obs = Observability.enabled()
    dep = build_scenario_deployment(scenario, compiled, obs=obs)
    packet = build_packet(scenario.packets[0], dep.topology,
                          scenario.src_host, scenario.dst_host)
    dep.network.host(scenario.src_host).send(packet)
    dep.network.run()
    stats = dep.stats()
    assert "metrics" in stats
    assert "switch_packets_total" in stats["metrics"]
    assert "phase_seconds" in stats["metrics"]     # link/deploy profiling
    phases = {s["labels"]["phase"]
              for s in stats["metrics"]["phase_seconds"]["series"]}
    assert {"link", "deploy"} <= phases
