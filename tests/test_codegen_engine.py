"""Codegen engine tests: generated source, batching, recompile hooks.

The codegen engine (:mod:`repro.p4.codegen`) compiles each pipeline to
one straight-line generated-source function, specializing on
control-plane facts (assumed action sets, baked default bindings) and
on observability (instrumentation is emitted or absent at build time).
Byte-equality with the interpreter over the corpus lives in
``tests/test_engine_differential.py``; this suite pins the engine's own
mechanics — batch-vs-single equality, recompilation exactly when a
baked fact is invalidated, obs specialization, and the ``dump-src`` /
``repro.api.generated_source`` surface.
"""

import random

import pytest

import repro
from repro.cli import main as cli_main
from repro.compiler import compile_program, standalone_program
from repro.obs import Observability
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import load_source
from tests.test_engine_differential import random_packet, serialize_outputs

BATCH_PROPS = ("loops", "valley_free", "stateful_firewall",
               "source_routing_validation", "load_balance_arrays")


def build_switch(name="loops", engine="codegen", optimize=False,
                 obs=None, entries=True):
    compiled = compile_program(load_source(name), name=name,
                               optimize=optimize)
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
        kinds = [[event.kind for event in obs.tracer] for obs in handles]
        assert kinds[0] == kinds[1]
        assert "parse" in kinds[0]


def test_batch_follows_a_mid_batch_recompile():
    """A digest listener that swaps a baked default while a batch is in
    flight: the rest of the batch must run the rebuilt module, exactly
    as packet-by-packet calls would."""
    from repro.net.packet import HeaderType, Packet
    from repro.p4 import ir

    htype = HeaderType("h", [("a", 32)])
    program = ir.P4Program(
        name="rebind",
        parser=ir.ParserSpec(states=[
            ir.ParserState("start", extracts=[ir.Extract("h", htype)],
                           transitions=[ir.Transition(ir.ACCEPT)])]),
        emit_order=["h"])
    program.add_action(ir.Action("set_out", params=[("v", 32)], body=[
        ir.AssignStmt("standard_metadata.egress_spec",
                      ir.FieldRef("param.v"))]))
    program.add_table(ir.Table(
        "t", keys=[ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)],
        actions=["set_out"], default_action=("set_out", [1])))
    program.ingress = [ir.ApplyTable("t"),
                       ir.Digest("seen", [ir.FieldRef("hdr.h.a")])]

    def ports(engine, batch):
        sw = Bmv2Switch(program, engine=engine)
        sw.on_digest(lambda _msg: sw.set_default_action("t", "set_out", [2]))
        items = [(Packet(headers=[htype(a=i)], payload_len=4), 1)
                 for i in range(4)]
        outs = (sw.process_batch(items) if batch
                else [sw.process(p, port) for p, port in items])
        return [out[0][0] for out in outs]

    assert ports("interp", batch=False) == [1, 2, 2, 2]
    assert ports("codegen", batch=False) == [1, 2, 2, 2]
    assert ports("codegen", batch=True) == [1, 2, 2, 2]


@pytest.mark.parametrize("name", ("loops", "valley_free"))
def test_optimized_pipeline_parity(name):
    """The dataflow-optimized IR through codegen still matches the
    unoptimized interpreter packet for packet."""
    switches = [build_switch(name, engine="interp"),
                build_switch(name, optimize=True)]
    rng = random.Random(99)
    for packet in (random_packet(rng) for _ in range(20)):
        outs = [serialize_outputs(sw.process(packet, 1))
                for sw in switches]
        assert outs[0] == outs[1]
    assert switches[0].registers == switches[1].registers


# ---------------------------------------------------------------------------
# Recompilation: baked facts are invalidated exactly when they change
# ---------------------------------------------------------------------------

def test_recompile_on_undeclared_action_install():
    """fwd_table's assumed set is its declared actions plus its default
    (fwd_set_egress, fwd_drop); installing an entry bound to any other
    program action violates that contract and must rebuild the module —
    after which the entry dispatches correctly."""
    sw = build_switch()
    interp = build_switch(engine="interp")
    assert sw._engine._assumed["fwd_table"] == {"fwd_set_egress",
                                             "fwd_drop"}
    before = sw._engine.recompiles
    for s in (sw, interp):
        s.insert_entry("fwd_table", [3], "ih_mark_first_hop", [])
    assert sw._engine.recompiles == before + 1
    rng = random.Random(5)
    for port in (1, 3):
        for packet in (random_packet(rng) for _ in range(5)):
            assert serialize_outputs(sw.process(packet, port)) == \
                serialize_outputs(interp.process(packet, port))


def test_no_recompile_for_declared_action_churn():
    sw = build_switch()
    before = sw._engine.recompiles
    handle = sw.insert_entry("fwd_table", [4], "fwd_set_egress", [9])
    sw.delete_entry("fwd_table", handle)
    sw.clear_table("fwd_table")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    assert sw._engine.recompiles == before


def test_default_change_recompiles_only_on_real_change():
    """The miss-path binding is baked into the generated source, so a
    genuine default swap must rebuild; restating the compiled-in
    default must not."""
    sw = build_switch()
    interp = build_switch(engine="interp")
    baked = sw._engine._defaults_snapshot["fwd_table"]
    before = sw._engine.recompiles
    sw.set_default_action("fwd_table", baked[0], list(baked[1]))
    assert sw._engine.recompiles == before  # no-op restatement
    for s in (sw, interp):
        s.set_default_action("fwd_table", "fwd_set_egress", [7])
    assert sw._engine.recompiles == before + 1
    rng = random.Random(6)
    for packet in (random_packet(rng) for _ in range(5)):
        # Port 5 has no entry: the packet takes the new miss path.
        assert serialize_outputs(sw.process(packet, 5)) == \
            serialize_outputs(interp.process(packet, 5))


# ---------------------------------------------------------------------------
# Observability is a compile-time specialization
# ---------------------------------------------------------------------------

def test_null_obs_leaves_no_residue():
    source = build_switch()._engine.source
    assert top_level_defs(source) == ["def _process(packet, ingress_port):"]
    assert "TR." not in source      # no tracer calls
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
    assert "TR." in codegen_sw._engine.source
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


def test_attach_observability_rebuilds():
    """Attaching a live handle swaps in a freshly built, instrumented
    engine; detaching (NULL_OBS) restores the residue-free source."""
    from repro.obs import NULL_OBS
    sw = build_switch()
    plain = sw._engine
    assert ".inc()" not in plain.source
    sw.attach_observability(Observability.enabled())
    assert sw._engine is not plain
    assert ".inc()" in sw._engine.source
    sw.attach_observability(NULL_OBS)
    assert sw._engine.source == plain.source


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

    code = cli_main(["dump-src", "3", "--optimize"])
    out = capsys.readouterr().out
    assert code == 0
    assert "def _process(" in out
