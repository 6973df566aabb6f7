"""A dropped network frees itself.

Ownership runs one way — deployment -> ``Network`` -> ``Host`` /
``SwitchDevice`` -> ``Bmv2Switch`` -> ``CodegenEngine`` -> table indexes
and generated module — so when the last outside reference to a finished
fabric goes, reference counting frees all of it.  Each test runs with
the cycle collector off: an object still alive after its owner is
dropped sits on a reference cycle (or is held from outside).  The
compiler, the lint passes and the LTL translation make no cycle either.
"""

import copy
import gc
import pickle
import types
import weakref

import pytest

from repro import api
from repro.aether.testbed import AetherTestbed
from repro.analysis import lint_compiled
from repro.difftest import harness
from repro.difftest.scenario import gen_scenario
from repro.experiments.fig12 import (ALL_CHECKERS, Fig12Config, build_fabric,
                                     install_fabric_routes)
from repro.net.packet import make_udp
from repro.net.simulator import Network
from repro.net.topology import leaf_spine
from repro.obs import Observability
from repro.aether.upf import upf_program
from repro.ltl import ltl_to_indus_source, parse_formula
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import PROPERTIES
from repro.workloads.traffic import EchoResponder, Pinger, UdpLoadGenerator


@pytest.fixture(autouse=True)
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def fabric_refs(network, *owners):
    """Weak references to ``network``, its hosts, devices, switches and
    engines, and to ``owners``."""
    objects = [network, *owners, *network.hosts.values()]
    for device in network.switches.values():
        objects += [device, device.bmv2]
        if device.bmv2._engine is not None:
            objects.append(device.bmv2._engine)
    return [weakref.ref(obj) for obj in objects]


def assert_freed(refs):
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert not alive, f"alive after the last reference went: {alive}"


def send_traffic(network):
    """A repeated template from h1 (a transit record in batched mode)
    and one packet sent from h2."""
    hosts = network.topology.hosts
    template = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 1000, 2000)
    network.attach_source("h1", [(i * 1e-5, template) for i in range(40)])
    network.host("h2").send(make_udp(hosts["h2"].ipv4, hosts["h4"].ipv4,
                                     1001, 2001))
    network.run()
    assert network.packets_delivered == 41


def plain_network(batched, obs=None):
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    program = upf_program("fabric_upf")
    kwargs = {} if obs is None else {"obs": obs}
    switches = {name: Bmv2Switch(program, name=name,
                                 switch_id=spec.switch_id, **kwargs)
                for name, spec in topology.switches.items()}
    network = Network(topology, switches, batched=batched, **kwargs)
    install_fabric_routes(topology, switches)
    return network


@pytest.mark.parametrize("batched", [True, False])
def test_a_plain_codegen_network_frees_itself(batched):
    def run():
        network = plain_network(batched)
        send_traffic(network)
        return fabric_refs(network)

    assert_freed(run())


def test_an_observed_network_frees_itself():
    """A live registry binds metric handles into switches, engines and
    host rings; none of them points back."""
    def run():
        network = plain_network(True, obs=Observability.enabled())
        send_traffic(network)
        assert len(network.hops) > 0
        return fabric_refs(network)

    assert_freed(run())


def test_a_deployment_of_every_checker_frees_itself():
    def run():
        network, deployment = build_fabric(ALL_CHECKERS, Fig12Config())
        send_traffic(network)
        return fabric_refs(network, deployment)

    assert_freed(run())


def test_a_figure12_arm_frees_itself():
    """Load, pinger and echo responder: the latter two sit in their
    hosts' rx callbacks."""
    def run():
        config = Fig12Config(duration_s=0.01)
        network, deployment = build_fabric(ALL_CHECKERS, config)
        load = UdpLoadGenerator(network, "h1", "h3",
                                config.load_bps_per_pair, seed=config.seed)
        load.schedule(config.duration_s)
        responder = EchoResponder(network, "h3")
        pinger = Pinger(network, "h1", "h3", interval_s=0.002)
        pinger.schedule(config.duration_s)
        network.run()
        assert len(pinger.rtts_ms) == 5 and responder.replies == 5
        return fabric_refs(network, deployment, pinger, responder)

    assert_freed(run())


def test_both_oracle_deployments_free_themselves(monkeypatch):
    built = []
    build = harness.build_scenario_deployment

    def tracked(*args, **kwargs):
        deployment = build(*args, **kwargs)
        built.extend(fabric_refs(deployment.network, deployment))
        return deployment

    monkeypatch.setattr(harness, "build_scenario_deployment", tracked)
    result = harness.run_scenario(gen_scenario(3))
    assert result.ok and len(built) > 2
    del result
    assert_freed(built)


def test_an_aether_testbed_frees_itself():
    def run():
        bed = AetherTestbed(capacity=64)
        bed.provision_slice("s", [])
        bed.portal.add_members("s", [f"imsi{i}" for i in range(8)])
        bed.attach_many([(f"imsi{i}", i + 1) for i in range(8)])
        bed.send_downlink(bed.topology.hosts["h3"].ipv4, "imsi0", 80)
        bed.detach_many([f"imsi{i}" for i in range(4)])
        return fabric_refs(bed.network, bed.deployment, bed)

    assert_freed(run())


def test_a_transit_record_stays_with_its_template():
    """The memo names neither its template nor its network's owner:
    a template dropped by its sender is freed, and a copy of a
    memoized packet (shallow, deep or pickled) starts without one."""
    network = plain_network(True)
    hosts = network.topology.hosts
    template = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 1000, 2000)
    network.attach_source("h1", [(0.0, template), (1e-5, template)])
    network.run()
    assert template._ff is not None
    for twin in (copy.copy(template), copy.deepcopy(template),
                 pickle.loads(pickle.dumps(template))):
        assert not hasattr(twin, "_ff") and twin.meta == template.meta
    ref = weakref.ref(template)
    del template
    assert ref() is None


def test_compiling_linting_and_ltl_leave_no_cycles():
    """Every bundled property compiled and linted, and a few LTL
    formulas translated: nothing is left for the collector.  A failure
    names the functions found on the cycles (a recursive local closure
    is the usual one)."""
    def run():
        for name in sorted(PROPERTIES):
            lint_compiled(api.compile_indus(name))
        for text in ("G !(a & X (F a))", "G (a -> F b)", "a U (b & X c)"):
            ltl_to_indus_source(parse_formula(text), max_trace=4)

    run()  # first calls fill caches and import lazily
    gc.collect()
    run()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        on_cycles = sorted({obj.__qualname__ for obj in gc.garbage
                            if isinstance(obj, types.FunctionType)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found, f"{found} objects left on cycles by {on_cycles}"
