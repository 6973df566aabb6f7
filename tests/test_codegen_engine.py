"""Codegen engine tests: generated source, batching, recompile hooks.

The codegen engine (:mod:`repro.p4.codegen`) compiles each pipeline to
one straight-line generated-source function, specializing on
control-plane facts (assumed action sets, which action is each table's
default) and on observability (instrumentation is emitted or absent at
build time); default-action *arguments* are data the module reads.
Byte-equality with the interpreter over the corpus lives in
``tests/test_engine_differential.py``; this suite pins the engine's own
mechanics — batch-vs-single equality, recompilation exactly when a
baked fact is invalidated and a rebind otherwise, obs specialization,
and the ``dump-src`` /
``repro.api.generated_source`` surface.
"""

import random

import pytest

import repro
from repro.cli import main as cli_main
from repro.compiler import compile_program, standalone_program
from repro.net.packet import HeaderType, Packet
from repro.obs import Observability
from repro.p4 import ir
from repro.p4.bmv2 import ENGINES, Bmv2Switch, P4RuntimeError
from repro.properties import load_source
from tests.test_engine_differential import random_packet, serialize_outputs

BATCH_PROPS = ("loops", "valley_free", "stateful_firewall",
               "source_routing_validation", "load_balance_arrays")


def build_switch(name="loops", engine="codegen", obs=None, entries=True):
    compiled = compile_program(load_source(name), name=name)
    program = standalone_program(compiled)
    sw = Bmv2Switch(program, name="s1", switch_id=7, engine=engine,
                    obs=obs)
    if entries:
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        for port in (1, 2):
            sw.insert_entry(compiled.inject_table, [port],
                            compiled.mark_first_action)
            sw.insert_entry(compiled.strip_table, [port],
                            compiled.mark_last_action)
    return sw


H = HeaderType("h", [("a", 32)])

#: ``engine_counts()["runs"]`` of a module with no memoised apply run.
NO_RUNS = {"sites": 0, "fills": 0, "clears": 0}


def one_table_program(name, table, ingress):
    """A parser over the one header ``h``, the given table and ingress,
    and two actions for it: ``set_out(v)`` forwards to port ``v``,
    ``load_x(v)`` loads ``meta.x``."""
    program = ir.P4Program(
        name=name,
        parser=ir.ParserSpec(states=[
            ir.ParserState("start", extracts=[ir.Extract("h", H)],
                           transitions=[ir.Transition(ir.ACCEPT)])]),
        metadata=[("x", 32)], emit_order=["h"])
    program.add_action(ir.Action("set_out", params=[("v", 32)], body=[
        ir.AssignStmt("standard_metadata.egress_spec",
                      ir.FieldRef("param.v"))]))
    program.add_action(ir.Action("load_x", params=[("v", 32)], body=[
        ir.AssignStmt("meta.x", ir.FieldRef("param.v"))]))
    program.add_table(table)
    program.ingress = ingress
    return program


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

def top_level_defs(source):
    return [line for line in source.splitlines() if line.startswith("def ")]


#: Instruments whose values are wall-clock timings, not packet totals.
TIMING_METRICS = {"codegen_ns_per_packet", "phase_seconds"}


@pytest.mark.parametrize("name", BATCH_PROPS)
def test_batch_matches_single(name):
    """``process_batch(items)`` is ``[process(p, port) ...]``: a switch
    fed the batch and an identically configured twin fed packet by
    packet agree on outputs, registers and digests under the null
    handle, and on metric totals and trace-event kinds under a live
    one."""
    rng = random.Random(hash(name) & 0xFFFF)
    items = [(random_packet(rng), 1) for _ in range(25)]
    for live in (False, True):
        handles = [Observability.enabled() if live else None
                   for _ in range(2)]
        single, batched = (build_switch(name, obs=obs) for obs in handles)
        expected = [serialize_outputs(single.process(p.copy(), port))
                    for p, port in items]
        got = [serialize_outputs(out)
               for out in batched.process_batch(items)]
        assert got == expected
        assert single.registers == batched.registers
        assert list(single.digests) == list(batched.digests)
        assert single.digests.total == batched.digests.total
        assert single.packets_processed == batched.packets_processed
        assert single.packets_dropped == batched.packets_dropped
        if not live:
            continue
        dumps = [obs.registry.to_dict() for obs in handles]
        assert dumps[0].keys() == dumps[1].keys()
        assert "switch_packets_total" in dumps[0]
        for metric in dumps[0].keys() - TIMING_METRICS:
            assert dumps[0][metric] == dumps[1][metric], metric
        counts = [obs.registry.value("codegen_ns_per_packet").count
                  for obs in handles]
        assert counts == [len(items)] * 2


def test_batch_follows_a_mid_batch_rebind():
    """A digest listener that gives a default new arguments while a
    batch is in flight: the rest of the batch must see them, exactly as
    packet-by-packet calls would — and no module is rebuilt for it."""
    program = one_table_program(
        "rebind",
        ir.Table("t", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)],
                 actions=["set_out"], default_action=("set_out", [1])),
        [ir.ApplyTable("t"), ir.Digest("seen", [ir.FieldRef("hdr.h.a")])])

    def ports(engine, batch, compiles=0):
        sw = Bmv2Switch(program, engine=engine)
        sw.on_digest(lambda _msg: sw.set_default_action("t", "set_out", [2]))
        items = [(Packet(headers=[H(a=i)], payload_len=4), 1)
                 for i in range(4)]
        outs = (sw.process_batch(items) if batch
                else [sw.process(p, port) for p, port in items])
        if engine == "codegen":
            assert sw.engine_counts() == {"builds": {"initial": 1},
                                          "compiles": compiles,
                                          "rebinds": 1, "runs": NO_RUNS}
            assert sw._engine.recompiles == 0
        return [out[0][0] for out in outs]

    assert ports("interp", batch=False) == [1, 2, 2, 2]
    assert ports("codegen", batch=False, compiles=1) == [1, 2, 2, 2]
    # The second switch of one program takes the first one's code.
    assert ports("codegen", batch=True) == [1, 2, 2, 2]


def test_default_changed_mid_packet_is_visible_to_that_packet():
    """A control app answering a report (digest ``before``) with a new
    control value, while the packet that raised it is still in the
    pipeline: the apply that follows misses into the *new* value on
    both engines.  (A module rebuilt for it would leave the running
    frame on the old module's globals, reporting ``[1, 7]``.)"""
    program = one_table_program(
        "midpacket",
        ir.Table("ctrl_x", actions=["load_x"],
                 default_action=("load_x", [1])),
        [ir.Digest("before"), ir.ApplyTable("ctrl_x"),
         ir.Digest("after", [ir.FieldRef("meta.x")])])

    def reported(engine):
        sw = Bmv2Switch(program, engine=engine)
        seen = []

        def listener(msg):
            if msg.name == "before":
                sw.set_default_action("ctrl_x", "load_x", [7])
            else:
                seen.extend(msg.values)

        sw.on_digest(listener)
        for i in range(2):
            sw.process(Packet(headers=[H(a=i)], payload_len=4), 1)
        return seen, sw.engine_counts()

    assert reported("interp") == ([7, 7], {})
    assert reported("codegen") == ([7, 7], {"builds": {"initial": 1},
                                            "compiles": 1, "rebinds": 1,
                                            "runs": NO_RUNS})


def test_a_memoised_run_follows_a_write_made_mid_packet():
    """The same control app, but the loader is a member of a memoised
    egress run that an earlier packet has filled: the listener's write
    (in ingress) empties the memo before it returns, so the packet that
    raised the digest already reads the new value in egress."""
    program = one_table_program(
        "midrun",
        ir.Table("ctrl_x", actions=["load_x"],
                 default_action=("load_x", [1])),
        [ir.Digest("before", [ir.FieldRef("hdr.h.a")])])
    program.add_table(ir.Table("ctrl_y", actions=["load_x"],
                               default_action=("load_x", [0])))
    program.egress = [ir.ApplyTable("ctrl_y"), ir.ApplyTable("ctrl_x"),
                      ir.Digest("after", [ir.FieldRef("meta.x")])]

    def reported(engine):
        sw = Bmv2Switch(program, engine=engine)
        seen = []

        def listener(msg):
            if msg.name == "after":
                seen.extend(msg.values)
            elif msg.values == [1]:  # the second packet
                sw.set_default_action("ctrl_x", "load_x", [7])

        sw.on_digest(listener)
        for i in range(4):
            sw.process(Packet(headers=[H(a=i)], payload_len=4), 1)
        return seen, sw.engine_counts().get("runs")

    assert reported("interp") == ([1, 7, 7, 7], None)
    assert reported("codegen") == ([1, 7, 7, 7],
                                   {"sites": 1, "fills": 2, "clears": 1})


def test_a_memoised_lookup_follows_a_write_made_mid_packet():
    """The same control app over a dict table (``RANGE``-keyed, so its
    lookups sit behind the index's memo): an earlier packet memoised
    the key as a miss; the listener answers the next packet's ingress
    digest by installing that key, and the index forgets before the
    insert returns — the same packet's egress apply finds the entry."""
    program = one_table_program(
        "midlookup",
        ir.Table("dict_x", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.RANGE)],
                 actions=["load_x"], default_action=("load_x", [1])),
        [ir.Digest("before")])
    program.egress = [ir.ApplyTable("dict_x"),
                      ir.Digest("after", [ir.FieldRef("meta.x")])]

    def reported(engine):
        sw = Bmv2Switch(program, engine=engine)
        seen = []

        def listener(msg):
            if msg.name == "after":
                seen.extend(msg.values)
            elif seen == [1]:  # the second packet
                sw.insert_entry("dict_x", [(5, 5)], "load_x", [7])

        sw.on_digest(listener)
        for _ in range(3):
            sw.process(Packet(headers=[H(a=5)], payload_len=4), 1)
        return seen, sw.index_counts().get("dict_x")

    assert reported("interp") == ([1, 7, 7], None)
    assert reported("codegen") == ([1, 7, 7], {
        "rebuilds": 0, "folds": 1, "memo_fills": 2, "memo_clears": 1,
        "vouched": 0, "scanned": 0, "cuts": 0})


# ---------------------------------------------------------------------------
# Recompilation: baked facts are invalidated exactly when they change
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_undeclared_action_is_refused(engine):
    """P4Runtime's rule, under both engines and through both insert
    calls: an entry bound to a program action its table does not
    declare is refused, with nothing installed and nothing rebuilt — so
    an insert can never widen what the generated dispatch assumed.  A
    table that declares no actions keeps taking any."""
    sw = build_switch(engine=engine)
    assert sw.program.tables["fwd_table"].actions == ["fwd_set_egress"]
    installed = {table: list(rows) for table, rows in sw.entries.items()}
    counts = sw.engine_counts()
    message = "table 'fwd_table' does not declare action 'ih_mark_first_hop'"
    with pytest.raises(P4RuntimeError, match=message):
        sw.insert_entry("fwd_table", [3], "ih_mark_first_hop", [])
    with pytest.raises(P4RuntimeError, match=message):
        sw.insert_entries("fwd_table", [([4], "fwd_set_egress", [1], 0),
                                        ([3], "ih_mark_first_hop", [], 0)])
    assert sw.entries == installed
    assert sw.engine_counts() == counts  # no build: recompiles unchanged

    anything = Bmv2Switch(one_table_program(
        "anything",
        ir.Table("t", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)]),
        [ir.ApplyTable("t")]), engine=engine)
    anything.insert_entry("t", [3], "set_out", [4])
    assert [port for port, _ in anything.process(
        Packet(headers=[H(a=3)], payload_len=4), 1)] == [4]


def test_listener_installing_an_undeclared_action_fails_alike():
    """The divergence PRs 17 and 18 left open: a digest listener that
    answers the packet in flight with an entry whose action the table
    did not declare.  The reference engine ran it (``after = [10]``)
    while the codegen frame, still in the old module, had no arm for it;
    now the insert is refused in the listener and both engines fail the
    packet the same way, nothing installed."""
    program = one_table_program(
        "undeclared",
        ir.Table("t", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)],
                 actions=["load_x"], default_action=("load_x", [1])),
        [ir.Digest("before"), ir.ApplyTable("t"),
         ir.Digest("after", [ir.FieldRef("meta.x")])])
    program.add_action(ir.Action("other", params=[("v", 32)], body=[
        ir.AssignStmt("meta.x", ir.FieldRef("param.v"))]))

    def outcome(engine):
        sw = Bmv2Switch(program, engine=engine)
        seen = []

        def listener(msg):
            if msg.name == "before":
                sw.insert_entry("t", [0], "other", [10])
            else:
                seen.extend(msg.values)

        sw.on_digest(listener)
        with pytest.raises(P4RuntimeError) as refusal:
            sw.process(Packet(headers=[H(a=0)], payload_len=4), 1)
        return str(refusal.value), seen, sw.entries["t"]

    assert outcome("interp") == outcome("codegen") == (
        "table 't' does not declare action 'other'", [], [])


def test_no_recompile_for_declared_action_churn():
    sw = build_switch()
    before = sw._engine.recompiles
    handle = sw.insert_entry("fwd_table", [4], "fwd_set_egress", [9])
    sw.delete_entry("fwd_table", handle)
    sw.clear_table("fwd_table")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    assert sw._engine.recompiles == before


def test_default_change_recompiles_only_on_real_change():
    """Names are code, values are data.  Restating a default costs
    nothing; the same action with new arguments is stored into the live
    module (a rebind); only a default that changes *which action* runs
    on a miss — another declared action, ``None`` -> an action, an
    action outside the table's declared list — rebuilds the module."""
    sw = build_switch()
    interp = build_switch(engine="interp")
    rng = random.Random(6)

    def counts():
        return sw._engine.builds, sw._engine.rebinds

    def miss_path_agrees():
        # Port 5 has no entry: the packet takes the miss path.
        for packet in (random_packet(rng) for _ in range(5)):
            assert serialize_outputs(sw.process(packet, 5)) == \
                serialize_outputs(interp.process(packet, 5))

    def set_default(table, action, args):
        for s in (sw, interp):
            s.set_default_action(table, action, args)

    assert counts() == ({"initial": 1}, 0)
    declared, args = sw.default_actions["fwd_table"]
    sw.set_default_action("fwd_table", declared, list(args))
    assert counts() == ({"initial": 1}, 0)  # restated: nothing
    source = sw._engine.source

    set_default("fwd_table", "fwd_set_egress", [7])  # another action
    assert counts() == ({"initial": 1, "default_action": 1}, 0)
    miss_path_agrees()

    run = sw._engine._run
    set_default("fwd_table", "fwd_set_egress", [9])  # same action, new args
    assert counts() == ({"initial": 1, "default_action": 1}, 1)
    assert sw._engine._run is run  # the live module, not a new one
    miss_path_agrees()
    set_default("fwd_table", "fwd_set_egress", [9])
    assert counts() == ({"initial": 1, "default_action": 1}, 1)

    # An action the table did not declare: the dispatch must learn it.
    assert "ih_mark_first_hop" not in sw._engine._assumed["fwd_table"]
    set_default("fwd_table", "ih_mark_first_hop", [])
    assert counts() == ({"initial": 1, "default_action": 2}, 1)
    assert "ih_mark_first_hop" in sw._engine._assumed["fwd_table"]
    miss_path_agrees()

    set_default("fwd_table", declared, list(args))  # and back
    assert counts() == ({"initial": 1, "default_action": 3}, 1)
    assert sw._engine.source == source
    assert sw._engine.recompiles == 3
    miss_path_agrees()


def test_default_from_none_to_an_action_recompiles():
    """A table declared without a default runs nothing on a miss; giving
    it one changes what the miss path *is*, not a value it reads."""
    program = one_table_program(
        "nodefault",
        ir.Table("t", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)],
                 actions=["set_out"]),
        [ir.ApplyTable("t")])
    switches = [Bmv2Switch(program, engine=engine)
                for engine in ("interp", "codegen")]
    packet = Packet(headers=[H(a=3)], payload_len=4)

    def ports():
        return [[port for port, _ in sw.process(packet, 1)]
                for sw in switches]

    assert ports() == [[0], [0]]
    for sw in switches:
        sw.set_default_action("t", "set_out", [4])
    assert switches[1].engine_counts() == {
        "builds": {"initial": 1, "default_action": 1}, "compiles": 1,
        "rebinds": 0, "runs": NO_RUNS}  # set_out had its arm: same text
    assert ports() == [[4], [4]]
    for sw in switches:
        sw.set_default_action("t", "set_out", [5])
    assert switches[1].engine_counts() == {
        "builds": {"initial": 1, "default_action": 1}, "compiles": 1,
        "rebinds": 1, "runs": NO_RUNS}
    assert ports() == [[5], [5]]


# ---------------------------------------------------------------------------
# A deployment builds each engine once, however many values it sets
# ---------------------------------------------------------------------------

def count_value_changes(monkeypatch):
    """Wrap ``Bmv2Switch.set_default_action`` to count, per engine and
    switch, the calls that change the installed default (a restatement
    does not)."""
    changed = {}
    original = Bmv2Switch.set_default_action

    def counting(self, table, action, args=None):
        key = (self.engine, self.name)
        changed[key] = changed.get(key, 0) + (
            self.default_actions[table] != (action, list(args or [])))
        original(self, table, action, args)

    monkeypatch.setattr(Bmv2Switch, "set_default_action", counting)
    return changed


def deliver(deployment, src, dst, packet):
    """Send one packet src -> dst; what arrived, what was reported and
    every switch's counters and registers."""
    network = deployment.network
    network.host(src).send(packet)
    network.run()
    return (serialize_outputs(network.host(dst).received),
            [(r.checker, r.switch_name, r.values)
             for r in deployment.reports],
            {name: (sw.packets_processed, sw.packets_dropped, sw.registers)
             for name, sw in deployment.switches.items()})


def deploy_paper_fabric():
    """The 2x2 fabric with all 11 Table-1 checkers, configured, once
    per engine from one compile, and a packet h1 -> h3."""
    from repro.aether.upf import upf_program
    from repro.experiments.fig12 import (ALL_CHECKERS,
                                         configure_checker_controls,
                                         install_fabric_routes)
    from repro.net.packet import make_udp
    from repro.net.topology import leaf_spine
    from repro.properties import compile_suite
    from repro.runtime.deployment import HydraDeployment

    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    compiled = compile_suite(ALL_CHECKERS)
    deployments = {}
    for engine in ("interp", "codegen"):
        forwarding = {name: upf_program(f"fabric_upf_{name}")
                      for name in topology.switches}
        deployment = HydraDeployment(topology, compiled, forwarding,
                                     engine=engine)
        install_fabric_routes(topology, deployment.switches)
        configure_checker_controls(deployment, topology)
        deployments[engine] = deployment
    hosts = topology.hosts
    return deployments, make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9)


def test_deploying_the_paper_fabric_builds_each_engine_once(monkeypatch):
    """All 11 Table-1 checkers on the 2x2 fabric: 18 (leaf) / 8 (spine)
    ``set_default_action`` calls, and every one of them that changes a
    value is a rebind of the module built when the switch was made.  A
    spine gets no write to a loader it never applies (the ingress ones):
    5 rebinds, not 8."""
    changed = count_value_changes(monkeypatch)
    deployments, packet = deploy_paper_fabric()
    rebinds = {name: count for (engine, name), count in changed.items()
               if engine == "codegen"}
    assert rebinds == {"leaf1": 10, "leaf2": 10, "spine1": 5, "spine2": 5}
    stats = deployments["codegen"].stats()["switches"]
    assert {name: (row["engine"]["builds"], row["engine"]["rebinds"])
            for name, row in stats.items()} == {
        name: ({"initial": 1}, count) for name, count in rebinds.items()}
    assert all(row["engine"] == {} for row in
               deployments["interp"].stats()["switches"].values())
    arrived = [deliver(deployments[engine], "h1", "h3", packet.copy())
               for engine in ("interp", "codegen")]
    assert arrived[0] == arrived[1]
    assert len(arrived[0][0]) == 1


def test_the_paper_fabric_memoises_its_checker_scaffolding():
    """Each checker's first-hop / last-hop probe and control loaders
    form one pure apply run per pipeline that has them (ingress and
    egress on a leaf, egress on a spine).  A run costs its applies once
    per port and control-plane state; ``engine_counts()["runs"]`` says
    so without counting anything per packet."""
    deployments, packet = deploy_paper_fabric()

    def runs():
        stats = deployments["codegen"].stats()["switches"]
        return {name: row["engine"]["runs"] for name, row in stats.items()}

    def send():
        arrived = [deliver(deployments[engine], "h1", "h3", packet.copy())
                   for engine in ("interp", "codegen")]
        assert arrived[0] == arrived[1]
        return runs()

    sites = {"leaf1": 2, "leaf2": 2, "spine1": 1, "spine2": 1}
    assert {name: row["sites"] for name, row in runs().items()} == sites
    warm = send()
    on_path = {name for name, row in warm.items() if row["fills"]}
    assert {name: row["fills"] for name, row in warm.items()} == {
        name: sites[name] * (name in on_path) for name in sites}
    assert len(on_path) == 3  # both leaves and the spine ECMP picked
    assert send() == warm     # seen ports: no fill, no clear
    # One clear per run the control's loader tables are members of (a
    # spine applies only the egress one), synchronously; the next
    # packet fills each cleared run it reaches once, and no more.
    for deployment in deployments.values():
        deployment.set_control("thresh", 12345)
    cleared = runs()
    assert cleared == {name: dict(row, clears=row["clears"] + sites[name])
                       for name, row in warm.items()}
    refilled = send()
    assert refilled == {
        name: dict(row, fills=row["fills"] + sites[name] * (name in on_path))
        for name, row in cleared.items()}
    assert send() == refilled


def test_an_oracle_scenario_builds_each_engine_once():
    from repro.difftest import gen_scenario
    from repro.difftest.harness import build_scenario_deployment

    scenario = next(s for s in map(gen_scenario, range(48)) if s.controls)
    compiled = compile_program(scenario.source(), name="dt")
    deployment = build_scenario_deployment(scenario, compiled)
    for sw in deployment.switches.values():
        counts = sw.engine_counts()
        assert counts["builds"] == {"initial": 1}
        assert sw._engine.recompiles == 0
    assert any(sw.engine_counts()["rebinds"]
               for sw in deployment.switches.values())


# ---------------------------------------------------------------------------
# Observability is a compile-time specialization
# ---------------------------------------------------------------------------

def test_null_obs_leaves_no_residue():
    source = build_switch()._engine.source
    assert top_level_defs(source) == ["def _process(packet, ingress_port):"]
    assert ".inc()" not in source   # no metrics counters


def test_live_obs_instruments_and_matches_interp():
    traffic = [(random_packet(random.Random(11)), 1) for _ in range(10)]
    dumps = {}
    for engine in ("interp", "codegen"):
        obs = Observability.enabled()
        sw = build_switch(engine=engine, obs=obs)
        for packet, port in traffic:
            sw.process(packet.copy(), port)
        dumps[engine] = obs.registry.to_dict()
    codegen_sw = build_switch(obs=Observability.enabled())
    assert ".inc()" in codegen_sw._engine.source
    lookups = dumps["codegen"]["table_lookups_total"]["series"]
    assert sum(s["value"] for s in lookups) > 0
    # Packet-path metrics agree; only the engine-specific build/latency
    # instruments (interp_ns vs codegen_ns, phase timings) differ.
    # Codegen registers every hit/miss series at build time, interp on
    # first observation, so compare the non-zero series.
    def totals(metric):
        return {tuple(sorted(s["labels"].items())): s["value"]
                for s in metric["series"] if s["value"]}

    skip = {"interp_ns_per_packet"} | TIMING_METRICS
    shared = set(dumps["interp"]) & set(dumps["codegen"]) - skip
    assert "switch_packets_total" in shared
    for metric in shared:
        assert totals(dumps["codegen"][metric]) == \
            totals(dumps["interp"][metric]), metric


def test_a_hop_ring_instruments_no_switch():
    """Only a live registry instruments a build: a handle carrying just
    a hop ring compiles the residue-free source."""
    from repro.p4.bmv2 import BoundedLog
    plain = build_switch()._engine.source
    ringed = build_switch(obs=Observability(hops=BoundedLog()))
    assert ringed._engine.source == plain
    assert ringed._engine.process is ringed._engine._run


# ---------------------------------------------------------------------------
# dump-src / generated_source surface
# ---------------------------------------------------------------------------

def test_generated_source_api_accepts_every_program_form(tmp_path):
    by_name = repro.api.generated_source("loops")
    assert top_level_defs(by_name) == ["def _process(packet, ingress_port):"]
    compiled = repro.compile_indus("loops")
    assert repro.api.generated_source(compiled) == by_name

    path = tmp_path / "prog.indus"
    path.write_text(load_source("loops"))
    assert "def _process(" in repro.api.generated_source(str(path))

    by_seed = repro.api.generated_source(3)  # difftest seed
    assert "def _process(" in by_seed


def test_dump_src_cli(capsys):
    code = cli_main(["dump-src", "loops"])
    out = capsys.readouterr().out
    assert code == 0
    assert "def _process(" in out

    code = cli_main(["dump-src", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "def _process(" in out
