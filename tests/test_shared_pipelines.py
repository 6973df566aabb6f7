"""A deployment builds each pipeline once — and the switches that share
one stay independent.

``HydraDeployment`` links once per (forwarding program object, role),
so the leaves of a fabric run the *same* linked ``ir.P4Program`` and
their codegen engines ``exec`` the *same* compiled module
(``ir.P4Program.code``) into their own globals, each keeping a private
byte copy of ``_process``'s code.  What is shared is the compile;
everything a control-plane call can touch (entries, defaults, registers,
table indexes, run and lookup memos, the observability handle) is per
switch.  The reference here is an unshared twin built the old way — one
forwarding program object per switch, which is what ``bench/wl_fabric.py``
passes — driven through exactly the same calls: every output, report,
register and counter of every switch must match it.
"""

import dataclasses
import re
import weakref

import pytest

from repro.aether import AetherTestbed
from repro.aether.upf import upf_program
from repro.experiments.fig12 import (ALL_CHECKERS, configure_checker_controls,
                                     install_fabric_routes)
from repro.net.packet import make_udp
from repro.net.topology import leaf_spine
from repro.obs import Observability
from repro.p4 import ENGINES
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import TABLE1_ORDER, compile_suite
from repro.runtime.deployment import HydraDeployment

FLOWS = [("h1", "h3", 4000), ("h1", "h4", 4001), ("h3", "h1", 4002),
         ("h4", "h2", 4003), ("h2", "h1", 4004)]


@pytest.fixture(scope="module")
def compiled():
    return compile_suite(ALL_CHECKERS)


def build_fabric(compiled, engine, shared):
    """The paper's 2x2 fabric with every Table-1 checker, its leaves
    (and its spines) sharing one forwarding object or not."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    if shared:
        forwarding = dict.fromkeys(topology.switches,
                                   upf_program("fabric_upf"))
    else:
        forwarding = {name: upf_program(f"fabric_upf_{name}")
                      for name in topology.switches}
    deployment = HydraDeployment(topology, compiled, forwarding,
                                 engine=engine)
    install_fabric_routes(topology, deployment.switches)
    configure_checker_controls(deployment, topology)
    return deployment


def send_flows(deployment):
    hosts = deployment.topology.hosts
    for src, dst, sport in FLOWS:
        deployment.network.host(src).send(
            make_udp(hosts[src].ipv4, hosts[dst].ipv4, sport, 9))
        deployment.network.run()


def observed(deployment):
    """Everything a leak between sharers could show up in."""
    switches = {}
    for name, switch in deployment.switches.items():
        engine = switch.engine_counts()
        engine.pop("compiles", None)  # the one count sharing changes
        switches[name] = (switch.registers, engine, switch.index_counts(),
                          switch.packets_processed, switch.packets_dropped,
                          {t: len(rows) for t, rows in switch.entries.items()},
                          switch.default_actions)
    return {
        "rx": {name: [[(h.htype.name, h.valid, h.to_bits())
                       for h in packet.headers]
                      for _, packet in deployment.network.host(name).received]
               for name in deployment.topology.hosts},
        "reports": [(r.checker, r.block, r.switch_name, r.payload)
                    for r in deployment.reports],
        "switches": switches,
    }


def code_of(switch):
    return switch._engine._run.__code__


# One control-plane call each, made on leaf1 only.  Every one would
# change what leaf2 does or counts if it reached leaf2's state: the
# routes send leaf2's own hosts' traffic up an uplink, the control
# values ride in the telemetry, the register is one a checker reads.

def op_insert_entry(deployment, leaf):
    leaf.insert_entry("upf_routes",
                      [(deployment.topology.hosts["h4"].ipv4, 32)],
                      "upf_route", [3])


def op_insert_entries(deployment, leaf):
    hosts = deployment.topology.hosts
    leaf.insert_entries("upf_routes", [
        ([(hosts[name].ipv4, 32)], "upf_route", [4], 0)
        for name in ("h3", "h4")])


def op_delete_entries(deployment, leaf):  # the ECMP default route
    leaf.delete_entries("upf_routes", leaf.entries["upf_routes"][-1:])


def op_clear_table(deployment, leaf):
    leaf.clear_table("upf_ecmp_table")


def op_register_write(deployment, leaf):
    for reg in leaf.program.registers:
        leaf.register_write(reg.name, 0, 5)


def op_rebind(deployment, leaf):
    for c in deployment.compileds:
        if c.switch_id_table in c.tables:
            leaf.set_default_action(c.switch_id_table,
                                    c.set_switch_id_action, [99])
    deployment.set_control("left_port", 4, switch=leaf.name)


def op_rebuild(deployment, leaf):
    leaf.set_default_action("upf_routes", "upf_route", [2])


OPS = [op_insert_entry, op_insert_entries, op_delete_entries, op_clear_table,
       op_register_write, op_rebind, op_rebuild]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__[3:])
def test_a_write_to_one_sharer_stays_there(compiled, engine, op):
    worlds = {shared: build_fabric(compiled, engine, shared)
              for shared in (True, False)}
    shared = worlds[True]
    leaf1, leaf2 = shared.switches["leaf1"], shared.switches["leaf2"]
    assert shared.linked["leaf1"] is shared.linked["leaf2"]
    assert shared.linked["spine1"] is shared.linked["spine2"]
    assert shared.linked["leaf1"] is not shared.linked["spine1"]
    assert worlds[False].linked["leaf1"] is not worlds[False].linked["leaf2"]
    if engine == "codegen":
        # One compile() for both, equal code, but never the same object:
        # the interpreter's inline caches follow one globals dict.
        assert [leaf.engine_counts()["compiles"]
                for leaf in (leaf1, leaf2)] == [1, 0]
        assert code_of(leaf1) == code_of(leaf2)
        assert code_of(leaf1) is not code_of(leaf2)
        assert leaf1._engine._globals is not leaf2._engine._globals
        sibling_code = code_of(leaf2)

    for deployment in worlds.values():
        send_flows(deployment)   # warm: every memo on the paths is filled
    assert observed(shared) == observed(worlds[False])
    warm = leaf2.engine_counts(), leaf2.index_counts()

    for deployment in worlds.values():
        op(deployment, deployment.switches["leaf1"])
    # The sibling's memos were not emptied, its module not rebuilt.
    assert (leaf2.engine_counts(), leaf2.index_counts()) == warm
    for deployment in worlds.values():
        send_flows(deployment)   # the same packets again, memos warm
    assert observed(shared) == observed(worlds[False])

    if engine == "codegen":
        assert code_of(leaf2) is sibling_code
        rebuilt = op is op_rebuild
        assert (code_of(leaf1) != sibling_code) == rebuilt
        assert (leaf1._engine.source != leaf2._engine.source) == rebuilt
        if op is op_rebuild:
            assert leaf1.engine_counts()["builds"] == {
                "initial": 1, "default_action": 1}
            assert leaf1.engine_counts()["compiles"] == 2


def test_a_rebuilt_text_is_shared_again(compiled):
    """The second leaf to take the same new default finds the code the
    first one compiled for it: one compile() per distinct text."""
    deployment = build_fabric(compiled, "codegen", shared=True)
    leaf1, leaf2 = (deployment.switches[n] for n in ("leaf1", "leaf2"))
    for leaf in (leaf1, leaf2):
        op_rebuild(deployment, leaf)
    assert code_of(leaf1) == code_of(leaf2)
    assert [leaf.engine_counts()["compiles"] for leaf in (leaf1, leaf2)] \
        == [2, 0]
    assert len(deployment.linked["leaf1"].code) == 2


def test_deployments_share_only_a_live_compile(compiled):
    """The scope rule: of what one deployment built, another one made of
    the same compiled checkers and the same forwarding object reaches
    only the compiled code, and only while the first one lives; a
    deployment built once both are dropped compiles again."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    forwarding = dict.fromkeys(topology.switches, upf_program("fabric_upf"))

    def deploy():
        return HydraDeployment(topology, compiled, forwarding)

    def compiles(deployment):
        return sum(s.engine_counts()["compiles"]
                   for s in deployment.switches.values())

    first, second = deploy(), deploy()
    codes = []
    for name in topology.switches:
        mine, theirs = first.linked[name], second.linked[name]
        assert mine is not theirs and len(mine.code) == len(theirs.code) == 1
        (_, code, plan), = mine.code.values()
        (_, their_code, their_plan), = theirs.code.values()
        assert code is their_code and plan is not their_plan
        assert (first.switches[name]._engine._globals
                is not second.switches[name]._engine._globals)
        codes.append(weakref.ref(code))
    assert not forwarding["leaf1"].code
    assert (compiles(first), compiles(second)) == (2, 0)
    del first, second, mine, theirs, code, their_code
    assert all(ref() is None for ref in codes)
    assert compiles(deploy()) == 2


def test_one_compile_per_role(compiled):
    """Countable: 4 builds, 2 of them compiled, on the all-checkers
    fabric and on the Aether testbed; a per-switch forwarding dict (the
    old way) links 4 programs, whose texts differ only in the comment
    naming the program, so it compiles 2 too."""
    def counts(deployment):
        engines = [entry["engine"]
                   for entry in deployment.stats()["switches"].values()]
        return (sum(sum(e["builds"].values()) for e in engines),
                sum(e["compiles"] for e in engines))

    assert counts(build_fabric(compiled, "codegen", shared=True)) == (4, 2)
    assert counts(AetherTestbed().deployment) == (4, 2)
    assert counts(build_fabric(compiled, "codegen", shared=False)) == (4, 2)


def test_one_compile_per_distinct_text(compiled):
    """A fabric linked one program per switch (``bench/wl_fabric.py``'s
    way) compiles each distinct text once: 2 on the all-checkers fabric
    (leaf, spine), 1 on the bare one (four equal texts).  Each engine's
    code still names its own program, so a traceback does."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    checked = build_fabric(compiled, "codegen", shared=False).switches
    bare = {name: Bmv2Switch(upf_program(f"fabric_upf_{name}"), name=name,
                             switch_id=spec.switch_id, engine="codegen")
            for name, spec in topology.switches.items()}
    for switches, distinct in ((checked, 2), (bare, 1)):
        assert sum(s.engine_counts()["compiles"]
                   for s in switches.values()) == distinct
        assert len({s._engine.source.partition("\n")[2]
                    for s in switches.values()}) == distinct
        leaf2 = switches["leaf2"]
        assert leaf2.engine_counts()["compiles"] == 0
        with pytest.raises(AttributeError) as failure:
            leaf2.process(None, 1)
        assert failure.traceback[-1].frame.code.raw.co_filename \
            == f"<codegen:{leaf2.program.name}>"


#: A module's per-switch globals (``codegen._Plan.bindings``).
PER_SWITCH = re.compile(r"COUNTS|DIGESTS|DIGEST_LISTENERS|SWITCH_NAME"
                        r"|RUN_COUNTS|RG\d+_.*|T\d+_.*|LT\d+_.*|DB\d+"
                        r"|RUN\d+|C[HM]\d+")


def assert_binds_its_own(switch, sibling):
    """Every per-switch global of ``switch``'s module is its own
    object, none of them ``sibling``'s; none is the switch or the
    engine itself."""
    engine, theirs = switch._engine, sibling._engine._globals
    mine = {name: value for name, value in engine._globals.items()
            if PER_SWITCH.fullmatch(name)}
    parts = {"COUNTS": switch.counts, "DIGESTS": switch.digests,
             "DIGEST_LISTENERS": switch.digest_listeners,
             "SWITCH_NAME": switch.name, "RUN_COUNTS": engine._memo_counts}
    assert all(mine[name] is value for name, value in parts.items())
    assert not any(value is switch or value is engine
                   for value in engine._globals.values())
    for name, value in mine.items():
        if name in parts:
            continue
        if name.startswith("RG"):
            assert any(value is values for values in switch.registers.values())
        elif name.startswith("T"):
            assert value._switch() is switch
        elif name.startswith("C"):  # labelled with this switch's name
            lookups = switch.obs.registry.metric("table_lookups_total")
            assert [labels[0] for labels, child in lookups.series()
                    if child is value] == [switch.name]
        elif value is not None:  # DB, L, RUN
            assert value is not theirs.get(name), name


def memos(engine):
    return [value for name, value in engine._globals.items()
            if re.fullmatch(r"RUN\d+|LT\d+_.*", name)]


@pytest.mark.parametrize("name", TABLE1_ORDER)
def test_a_sibling_binds_its_own_state(name):
    """The second edge switch of one linked program builds from the
    first one's plan: no emission, no compile(), and nothing of the
    first switch's in its module."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    deployment = HydraDeployment(
        topology, compile_suite([name]),
        dict.fromkeys(topology.switches, upf_program("fabric_upf")))
    install_fabric_routes(topology, deployment.switches)
    leaf1, leaf2 = (deployment.switches[n] for n in ("leaf1", "leaf2"))
    first, second = leaf1._engine, leaf2._engine
    assert (first.compiles, second.compiles) == (1, 0)
    assert second.source == first.source
    # What emission would have registered for leaf2 itself.
    fresh = Bmv2Switch(dataclasses.replace(deployment.linked["leaf2"],
                                           code={}),
                       name="leaf2", switch_id=leaf2.switch_id,
                       engine="codegen")
    for table, default in leaf2.default_actions.items():
        if default != fresh.default_actions[table]:
            fresh.set_default_action(table, *default)
    assert fresh._engine.source == second.source
    assert set(fresh._engine._globals) == set(second._globals)
    assert_binds_its_own(leaf2, leaf1)
    assert_binds_its_own(leaf1, leaf2)

    # A packet through one switch fills no memo of the other.
    hosts = topology.hosts
    attach = topology.host_attachment("h1")
    assert attach.node == "leaf1"
    leaf1.process(make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9),
                  attach.port)
    assert any(memos(first)) and not any(memos(second))
    assert second.run_fills == 0

    # Another default action rebuilds that switch only ...
    sibling_run = second._run
    leaf1.set_default_action("upf_routes", "upf_route", [2])
    assert leaf1._engine.builds == {"initial": 1, "default_action": 1}
    assert leaf1._engine.compiles == 2
    assert second.builds == {"initial": 1} and second._run is sibling_run
    # ... and a third switch given the same default reuses its module.
    third = Bmv2Switch(deployment.linked["leaf1"], name="edge3",
                       switch_id=9, engine="codegen")
    third.set_default_action("upf_routes", "upf_route", [3])
    assert third._engine.builds == {"initial": 1, "default_action": 1}
    assert third._engine.compiles == 0
    assert third._engine.source == leaf1._engine.source
    assert_binds_its_own(third, leaf1)

    # An instrumented sibling counts under its own switch name.
    obs = Observability.enabled()
    edge4, edge5 = (Bmv2Switch(deployment.linked["leaf1"], name=name,
                               switch_id=switch_id, engine="codegen",
                               obs=obs)
                    for name, switch_id in (("edge4", 10), ("edge5", 11)))
    assert (edge4._engine.compiles, edge5._engine.compiles) == (1, 0)
    assert "CH0" in edge5._engine._globals
    assert_binds_its_own(edge5, edge4)
    assert_binds_its_own(edge4, edge5)
