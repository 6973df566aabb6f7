"""Observability wired through the runtime layers.

End-to-end checks: the handle's hop ring over a 3-hop path, each
network's own clock on a ring two networks share, drop accounting
(no_route / pipeline / ttl), per-switch metrics, instrumented-vs-plain
engine output equality, a traced Figure-12 arm's ring and metrics, and
that the differential oracle's verdicts are identical with
observability on.
"""

import re

import pytest

from repro.net.packet import ip, make_udp
from repro.net.simulator import Network
from repro.net.topology import linear, single_switch
from repro.obs import METRICS, MetricsRegistry, Observability
from repro.p4 import ENGINES
from repro.p4.bmv2 import DEFAULT_LOG_CAPACITY, Bmv2Switch
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
# The hop ring along a 3-hop path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["codegen", "interp"])
def test_three_hop_path_is_recorded_in_order(engine):
    topo = linear(3)                       # h1 - s1 - s2 - s3 - h2
    obs = Observability.enabled()
    switches = _switches(topo, engine=engine, obs=obs)
    switches["s1"].insert_entry("fwd_table", [1], "fwd_set_egress", [10])
    switches["s2"].insert_entry("fwd_table", [11], "fwd_set_egress", [10])
    switches["s3"].insert_entry("fwd_table", [11], "fwd_set_egress", [1])
    net = Network(topo, switches, obs=obs)
    assert net.hops is obs.hops and net._eager
    packet = _packet()
    net.host("h1").send(packet)
    net.run()
    assert net.packets_delivered == 1

    hops = list(obs.hops)
    assert [(h.switch, h.ingress_port) for h in hops] == \
        [("s1", 1), ("s2", 11), ("s3", 11)]
    assert [[port for port, _ in h.outputs] for h in hops] == \
        [[10], [10], [1]]
    assert hops[0].packet is packet
    assert {h.packet.packet_id for h in hops} == {packet.packet_id}
    stamps = [h.t for h in hops]
    assert stamps == sorted(stamps) and stamps[-1] < net.sim.now
    assert all(h.drop_reason is None and h.digests == 0 for h in hops)

    # And the per-switch metrics agree with the ring.
    for sw, port in (("s1", 1), ("s2", 11), ("s3", 11)):
        assert obs.registry.value("switch_packets_total", sw, port) == 1
    assert obs.registry.value("packets_delivered_total", "h2") == 1
    assert obs.registry.value("table_lookups_total",
                              "s1", "fwd_table", "hit") == 1


def test_a_shared_ring_keeps_each_networks_own_clock():
    """Two networks built on one handle, one after the other: each
    run's hops carry that network's simulator time."""
    obs = Observability.enabled()
    nets = []
    for send_at in (5e-3, 0.0):
        topo = single_switch(2)
        switches = _switches(topo, obs=obs)
        switches["s1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        net = Network(topo, switches, obs=obs)
        net.host("h1").send(_packet(), delay=send_at)
        net.run()
        nets.append(net)
    a, b = nets
    assert a.sim.now > 5e-3 > b.sim.now > 0
    assert obs.hops.total == 2
    hop_a, hop_b = obs.hops
    assert 5e-3 < hop_a.t < a.sim.now
    assert 0.0 < hop_b.t < b.sim.now


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
    # The pipeline forwarded it: the ring shows where to, not a drop.
    (hop,) = obs.hops
    assert [port for port, _ in hop.outputs] == [9]
    assert hop.drop_reason is None


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
    assert [hop.drop_reason for hop in obs.hops] == ["pipeline", "ttl"]
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
    assert plain.obs.registry.live is False
    for i in range(20):
        packet_a = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1000 + i, 53)
        packet_b = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1000 + i, 53)
        out_a = plain.process(packet_a, 1)
        out_b = metered.process(packet_b, 1)
        assert out_a  # forwarded, not dropped
        assert [(p, [h.to_bits() for h in pkt.headers if h.valid])
                for p, pkt in out_a] == \
            [(p, [h.to_bits() for h in pkt.headers if h.valid])
             for p, pkt in out_b]
    assert plain.registers == metered.registers
    assert plain.digests.total == metered.digests.total


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


def test_both_rings_share_one_declaration_in_either_order():
    """A switch's digest ring and a host's ``received`` ring both count
    into ``log_evictions_total``; whichever evicts first, the export
    is the same and carries the one declared help text."""
    texts = []
    for order in (("digests", "received"), ("received", "digests")):
        obs = Observability(registry=MetricsRegistry())
        topo = single_switch(2)
        switch = Bmv2Switch(l2_port_forwarding("l2_s1"), name="s1",
                            digest_capacity=1, obs=obs)
        net = Network(topo, {"s1": switch}, obs=obs)
        rings = {"digests": (switch.digests, 2),
                 "received": (net.host("h2").received,
                              DEFAULT_LOG_CAPACITY + 1)}
        for log in order:
            ring, appends = rings[log]
            for i in range(appends):
                ring.append(i)
        texts.append([line for line in
                      obs.registry.render_prometheus().splitlines()
                      if "log_evictions_total" in line])
    assert texts[0] == texts[1] == [
        f"# HELP log_evictions_total {METRICS['log_evictions_total'][1]}",
        "# TYPE log_evictions_total counter",
        'log_evictions_total{log="digests",node="s1"} 1',
        'log_evictions_total{log="received",node="h2"} 1']


def test_every_declared_metric_is_emitted():
    """The metered interp and codegen runs of a checked scenario, one
    eviction and the deployment's ``profiled`` phases emit exactly the
    declared families: the table has no dead row."""
    from repro.compiler import compile_program
    from repro.difftest.harness import build_packet, \
        build_scenario_deployment
    from repro.difftest.scenario import gen_scenario

    scenario = gen_scenario(3)
    compiled = compile_program(scenario.source(), name="dt3")
    emitted = set()
    for engine in ENGINES:
        obs = Observability(registry=MetricsRegistry())
        dep = build_scenario_deployment(scenario, compiled, engine=engine,
                                        obs=obs)
        for spec in scenario.packets:
            dep.network.host(scenario.src_host).send(build_packet(
                spec, dep.topology, scenario.src_host, scenario.dst_host))
            dep.network.run()
        emitted |= set(obs.registry.to_dict())
    obs = Observability(registry=MetricsRegistry())
    switch = Bmv2Switch(l2_port_forwarding("l2_s1"), name="s1",
                        digest_capacity=1, obs=obs)
    switch.digests.append(0)
    switch.digests.append(1)
    emitted |= set(obs.registry.to_dict())
    assert emitted == set(METRICS)


#: One sample line of the text exposition format: a name, an optional
#: label set whose values escape backslash, quote and newline, a value.
SAMPLE = re.compile(r'[a-z_]+(\{[a-z_]+="(?:[^"\\\n]|\\[\\"n])*"'
                    r'(?:,[a-z_]+="(?:[^"\\\n]|\\[\\"n])*")*\})? \S+')


@pytest.mark.parametrize("engine", ENGINES)
def test_a_switch_name_is_escaped_in_the_text_format(engine):
    """A switch name is outside input (a topology file accepts any
    non-empty string); the export stays valid exposition."""
    obs = Observability.enabled()
    switch = Bmv2Switch(l2_port_forwarding("l2_s1"), name='s"1',
                        engine=engine, obs=obs)
    switch.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    assert switch.process(_packet(), 1)
    lines = obs.registry.render_prometheus().splitlines()
    assert 'switch_packets_total{switch="s\\"1",port="1"} 1' in lines
    assert ('table_lookups_total{switch="s\\"1",table="fwd_table",'
            'result="hit"} 1') in lines
    for line in lines:
        assert line.startswith("# ") or SAMPLE.fullmatch(line), line


# ---------------------------------------------------------------------------
# A traced Figure-12 arm: the whole checker suite on the fabric
# ---------------------------------------------------------------------------

def test_traced_fig12_arm_exports_and_meters():
    from repro.experiments import Fig12Config, run_rtt_experiment
    from repro.experiments.fig12 import ALL_CHECKERS

    obs = Observability.enabled()
    run = run_rtt_experiment(ALL_CHECKERS, "traced",
                             Fig12Config(duration_s=0.02),
                             obs=obs)
    assert run.rtts_ms

    hops = list(obs.hops)
    assert hops and obs.hops.dropped == 0
    stamps = [hop.t for hop in hops]
    assert stamps == sorted(stamps)
    dump = obs.registry.to_dict()
    assert len(hops) == sum(
        s["value"] for s in dump["switch_packets_total"]["series"])

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
