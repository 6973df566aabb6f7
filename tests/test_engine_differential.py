"""Differential tests: the codegen engine vs the reference interpreter.

The generated-source codegen engine (:mod:`repro.p4.codegen`) must be
observationally identical to the tree-walking interpreter for every
program and packet:
byte-identical output packets, the same digests, and the same register
state.  This suite holds that line over the full properties corpus,
fuzz-generated Indus programs, and multi-hop telemetry chains.
"""

import random

import pytest

from repro.aether.upf import upf_program
from repro.compiler import compile_program, standalone_program
from repro.difftest import (build_packet, build_scenario_deployment,
                            gen_scenario)
from repro.experiments.fig12 import (ALL_CHECKERS, configure_checker_controls,
                                     install_fabric_routes)
from repro.net.packet import ip, make_gtpu_encapsulated, make_tcp, make_udp
from repro.net.topology import leaf_spine
from repro.p4 import ENGINES
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import PROPERTIES, compile_suite, load_source
from repro.runtime.deployment import HydraDeployment
from tests.genprog import gen_multihop_program, gen_program


def serialize_outputs(outputs):
    """Byte-level view of process() results for exact comparison."""
    return [
        (port,
         [(h.htype.name, h.valid, h.to_bits()) for h in packet.headers],
         packet.payload_len)
        for port, packet in outputs
    ]


def random_packet(rng):
    maker = make_udp if rng.random() < 0.7 else make_tcp
    return maker(
        ip(10, rng.randrange(4), rng.randrange(4), rng.randrange(1, 250)),
        ip(10, rng.randrange(4), rng.randrange(4), rng.randrange(1, 250)),
        rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16),
        payload_len=rng.randrange(0, 1400),
        ttl=rng.randrange(1, 255),
    )


def build_pair(source, name="diff"):
    """The same compiled program on one switch per engine (anchor
    first), with the standard edge entries installed through the
    control API."""
    compiled = compile_program(source, name=name)
    program = standalone_program(compiled)
    switches = []
    for engine in ENGINES:
        sw = Bmv2Switch(program, name="s1", switch_id=7, engine=engine)
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        for port in (1, 2):
            sw.insert_entry(compiled.inject_table, [port],
                            compiled.mark_first_action)
            sw.insert_entry(compiled.strip_table, [port],
                            compiled.mark_last_action)
        switches.append(sw)
    return switches


def assert_switches_agree(switches, packets, ingress_port=1):
    anchor, others = switches[0], switches[1:]
    for packet in packets:
        out_anchor = serialize_outputs(anchor.process(packet, ingress_port))
        for sw in others:
            out = serialize_outputs(sw.process(packet, ingress_port))
            assert out == out_anchor, sw.engine
    for sw in others:
        assert anchor.registers == sw.registers, sw.engine
        assert anchor.packets_processed == sw.packets_processed, sw.engine
        assert anchor.packets_dropped == sw.packets_dropped, sw.engine
        assert list(anchor.digests) == list(sw.digests), sw.engine
        assert anchor.digests.total == sw.digests.total, sw.engine


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_properties_corpus_engines_agree(name):
    switches = build_pair(load_source(name), name=name)
    rng = random.Random(hash(name) & 0xFFFF)
    packets = [random_packet(rng) for _ in range(20)]
    assert_switches_agree(switches, packets)


@pytest.mark.parametrize("seed", range(12))
def test_generated_programs_engines_agree(seed):
    source = gen_program(seed)
    switches = build_pair(source, name=f"gen{seed}")
    rng = random.Random(seed)
    packets = [random_packet(rng) for _ in range(15)]
    assert_switches_agree(switches, packets)


@pytest.mark.parametrize("seed", range(6))
def test_multihop_chains_engines_agree(seed):
    """Chain a packet through per-hop switch instances under both
    engines; outputs and telemetry must match hop by hop."""
    source = gen_multihop_program(seed)
    compiled = compile_program(source, name=f"hop{seed}")
    program = standalone_program(compiled)
    rng = random.Random(1000 + seed)
    hops = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
    packets = {engine: random_packet(random.Random(2000 + seed))
               for engine in ENGINES}
    for i, sid in enumerate(hops):
        outs = {}
        for engine in ENGINES:
            if packets[engine] is None:
                continue
            sw = Bmv2Switch(program, name=f"s{i}", switch_id=sid,
                            engine=engine)
            sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
            if compiled.switch_id_table in program.tables:
                sw.set_default_action(compiled.switch_id_table,
                                      compiled.set_switch_id_action, [sid])
            if i == 0:
                sw.insert_entry(compiled.inject_table, [1],
                                compiled.mark_first_action)
            if i == len(hops) - 1:
                sw.insert_entry(compiled.strip_table, [2],
                                compiled.mark_last_action)
            outs[engine] = sw.process(packets[engine], 1)
        for engine in ENGINES[1:]:
            assert serialize_outputs(outs["interp"]) == \
                serialize_outputs(outs[engine]), engine
        packets = {engine: (out[0][1] if out else None)
                   for engine, out in outs.items()}
        if packets["interp"] is None:
            break


def test_control_plane_churn_engines_agree():
    """Insert/delete/clear churn mid-stream, a scalar control whose
    value changes between packets and a default swapped to another
    action and back: index invalidation, default rebinds and
    recompiles must track the reference scan exactly."""
    source = load_source("loops")
    compiled = compile_program(source, name="churn")
    program = standalone_program(compiled)
    rng = random.Random(42)
    switches = {e: Bmv2Switch(program, name="s1", engine=e)
                for e in ENGINES}
    entries = {e: {} for e in ENGINES}
    for e, sw in switches.items():
        entries[e]["fwd"] = sw.insert_entry("fwd_table", [1],
                                            "fwd_set_egress", [2])
        sw.insert_entry(compiled.inject_table, [1],
                        compiled.mark_first_action)
        sw.insert_entry(compiled.strip_table, [2],
                        compiled.mark_last_action)
    fwd_default = switches["interp"].default_actions["fwd_table"]
    probe = random_packet(rng)
    probed = []
    for round_no in range(10):
        packets = [probe] + [random_packet(rng) for _ in range(4)]
        for packet in packets:
            for port in (1, 6):  # port 6 has no entry: the miss path
                outs = [serialize_outputs(switches[e].process(packet, port))
                        for e in ENGINES]
                assert outs[1:] == outs[:-1]
                if packet is probe and port == 1:
                    probed.append(outs[0])
        for e, sw in switches.items():
            if round_no == 2:
                sw.delete_entry("fwd_table", entries[e]["fwd"])
            elif round_no == 3:  # port 3 does not strip the telemetry
                entries[e]["fwd"] = sw.insert_entry(
                    "fwd_table", [1], "fwd_set_egress", [3])
            elif round_no in (4, 5):  # a scalar control: values only
                sw.set_default_action(compiled.switch_id_table,
                                      compiled.set_switch_id_action,
                                      [round_no])
            elif round_no == 6:
                sw.clear_table("fwd_table")
                entries[e]["fwd"] = sw.insert_entry(
                    "fwd_table", [1], "fwd_set_egress", [2])
            elif round_no == 7:       # the miss path forwards ...
                sw.set_default_action("fwd_table", "fwd_set_egress", [2])
            elif round_no == 8:       # ... and drops again
                sw.set_default_action("fwd_table", fwd_default[0],
                                      list(fwd_default[1]))
    # The switch id rides in the telemetry: each new value showed.
    assert probed[4] != probed[5] != probed[6] != probed[4]
    # Two memoised runs (inject + switch-id, strip + switch-id): one
    # clear per marker entry installed and two per switch-id value; one
    # fill per (run, port) a packet reaches after a clear or a build.
    # The default's way back is the first module's text: its code is
    # still the program's, so the third build compiles nothing.
    assert switches["codegen"].engine_counts() == {
        "builds": {"initial": 1, "default_action": 2}, "compiles": 2,
        "rebinds": 2, "runs": {"sites": 2, "fills": 17, "clears": 6}}
    for e in ENGINES:
        assert switches[e].packets_processed == \
            switches[ENGINES[0]].packets_processed


# ---------------------------------------------------------------------------
# A hop record holds the engine's argument: no engine writes its input
# ---------------------------------------------------------------------------

def _wire_view(packet):
    return [(h.valid, h.to_bits()) for h in packet.headers], packet.payload_len


def _pin_inputs(switches):
    """Make each switch's ``process`` assert that its input packet reads
    the same after the call as before; returns every ``(switch, input,
    view)`` seen, so a caller can check the inputs again after the run."""
    seen = []
    for sw in switches:
        def pinned(packet, port, process=sw.process, name=sw.name):
            before = _wire_view(packet)
            outputs = process(packet, port)
            assert _wire_view(packet) == before, name
            seen.append((name, packet, before))
            return outputs
        sw.process = pinned
    return seen


@pytest.fixture(scope="module")
def all_checkers_suite():
    return compile_suite(ALL_CHECKERS)


@pytest.mark.parametrize("engine", ENGINES)
def test_no_engine_writes_the_packet_it_is_handed(engine,
                                                  all_checkers_suite):
    """What :class:`~repro.net.simulator.HopRecord` rests on: the
    pre-pipeline packet a record keeps by reference still holds every
    header bit and validity flag it entered the pipeline with, when
    ``process`` returns and when the run is over — over the oracle's
    scenarios 0-49 and the all-checkers Figure 12 leaf and spine."""
    pinned = []
    for seed in range(50):
        scenario = gen_scenario(seed)
        compiled = compile_program(scenario.source(), name=f"dt{seed}")
        deployment = build_scenario_deployment(scenario, compiled,
                                               engine=engine)
        pinned.append(_pin_inputs(deployment.switches.values()))
        for spec in scenario.packets:
            deployment.network.host(scenario.src_host).send(build_packet(
                spec, deployment.topology, scenario.src_host,
                scenario.dst_host))
            deployment.network.run()
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    forwarding = dict.fromkeys(topology.switches, upf_program("fabric_upf"))
    fabric = HydraDeployment(topology, all_checkers_suite, forwarding,
                             engine=engine)
    install_fabric_routes(topology, fabric.switches)
    configure_checker_controls(fabric, topology)
    on_fabric = _pin_inputs(fabric.switches.values())
    hosts = topology.hosts
    for packet in (
            make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9),
            make_tcp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4001, 80, ttl=2),
            make_gtpu_encapsulated(
                hosts["h1"].ipv4, hosts["h3"].ipv4, 77,
                make_tcp(ip(172, 16, 0, 9), ip(8, 8, 8, 8), 5000, 443))):
        fabric.network.host("h1").send(packet)
        fabric.network.run()
    crossed = {name for name, _, _ in on_fabric}
    assert {"leaf1", "leaf2"} <= crossed
    assert any(name.startswith("spine") for name in crossed)
    seen = [hop for hops in pinned for hop in hops] + on_fabric
    assert len(seen) > 100
    for _, packet, before in seen:
        assert _wire_view(packet) == before
