"""Tofino resource model tests: PHV container packing and stage
dependency analysis."""

import pytest

from repro.aether.upf import upf_program
from repro.compiler import compile_program, link
from repro.net.topology import EDGE
from repro.p4 import ir
from repro.p4.programs import l2_port_forwarding
from repro.properties import compile_property
from repro.tofino import (PAPER_BASELINE_PHV_PCT, PAPER_BASELINE_STAGES,
                          TOTAL_PHV_BITS, allocate, analyze_linked,
                          dependency_depth, phv_bits, pipeline_depth)


# ---------------------------------------------------------------------------
# PHV packing
# ---------------------------------------------------------------------------

def test_total_phv_bits_is_tofino1():
    assert TOTAL_PHV_BITS == 4096


def test_single_field_rounds_to_container():
    alloc = allocate([("f", 9)])
    assert alloc.container_bits == 16
    assert alloc.field_bits == 9


def test_small_fields_share_containers():
    # Eight 1-bit flags fit one 8-bit container.
    alloc = allocate([(f"flag{i}", 1) for i in range(8)])
    assert alloc.container_bits == 8


def test_wide_field_is_sliced():
    alloc = allocate([("mac", 48)])
    # 48 bits -> one 32b container + 16 remaining packed into 16b.
    assert alloc.container_bits == 48


def test_allocation_is_monotone_in_fields():
    base = allocate([("a", 32)]).container_bits
    more = allocate([("a", 32), ("b", 32)]).container_bits
    assert more >= base


def test_phv_bits_grows_when_linking_checker():
    forwarding = l2_port_forwarding()
    compiled = compile_program(
        "tele bit<32>[8] path;\n{ } { path.push(switch_id); } { }")
    linked = link(forwarding, compiled)
    assert phv_bits(linked) > phv_bits(forwarding)


# ---------------------------------------------------------------------------
# Stage analysis
# ---------------------------------------------------------------------------

def test_independent_assignments_share_a_stage():
    program = ir.P4Program(name="p")
    stmts = [
        ir.AssignStmt("meta.a", ir.Const(1, 8)),
        ir.AssignStmt("meta.b", ir.Const(2, 8)),
    ]
    program.metadata = [("a", 8), ("b", 8)]
    assert dependency_depth(program, stmts) == 1


def test_read_after_write_chains():
    program = ir.P4Program(name="p")
    program.metadata = [("a", 8), ("b", 8), ("c", 8)]
    stmts = [
        ir.AssignStmt("meta.a", ir.Const(1, 8)),
        ir.AssignStmt("meta.b", ir.FieldRef("meta.a")),
        ir.AssignStmt("meta.c", ir.FieldRef("meta.b")),
    ]
    assert dependency_depth(program, stmts) == 3


def test_write_after_write_chains():
    program = ir.P4Program(name="p")
    program.metadata = [("a", 8)]
    stmts = [
        ir.AssignStmt("meta.a", ir.Const(1, 8)),
        ir.AssignStmt("meta.a", ir.Const(2, 8)),
    ]
    assert dependency_depth(program, stmts) == 2


def test_control_dependency_counts():
    program = ir.P4Program(name="p")
    program.metadata = [("a", 8), ("b", 8)]
    stmts = [
        ir.AssignStmt("meta.a", ir.Const(1, 8)),
        ir.IfStmt(ir.BinExpr("==", ir.FieldRef("meta.a"), ir.Const(1, 8)),
                  [ir.AssignStmt("meta.b", ir.Const(2, 8))]),
    ]
    assert dependency_depth(program, stmts) == 2


def test_table_apply_depends_on_key_writer():
    program = l2_port_forwarding()
    program.metadata = list(program.metadata) + [("key", 9)]
    program.tables["fwd_table"].keys = [
        ir.TableKey("meta.key", ir.MatchKind.EXACT)]
    stmts = [
        ir.AssignStmt("meta.key", ir.Const(1, 9)),
        ir.ApplyTable("fwd_table"),
    ]
    assert dependency_depth(program, stmts) == 2


@pytest.mark.parametrize("effect, later", [
    (ir.RegisterWrite("r", ir.Const(0, 32), ir.Const(1, 32)),
     ir.RegisterRead("meta.y", "r", ir.Const(0, 32))),
    (ir.SetValid("ipv4"), ir.AssignStmt("meta.y", ir.ValidRef("ipv4"))),
    (ir.Digest("d"), ir.Digest("d")),
], ids=["register", "validity", "digest"])
def test_action_effects_order_later_statements(effect, later):
    """A write inside a table's action orders what reads it after the
    apply exactly as the same write inline does."""
    program = l2_port_forwarding()
    program.metadata = [("y", 32)]
    program.add_register(ir.RegisterDef("r", 32))
    program.add_action(ir.Action("w", body=[effect]))
    program.add_table(ir.Table("t", actions=["w"], default_action=("w", [])))
    assert dependency_depth(program, [effect, later]) == 2
    assert dependency_depth(program, [ir.ApplyTable("t"), later]) == 2


#: (ingress, egress) dependency depth of each Table-1 checker linked at
#: an edge of the fabric-upf baseline: the raw chains under the 12-stage
#: floor Table 1 reports.
RAW_DEPTHS = {
    "multi_tenancy": (8, 5), "load_balance": (8, 8),
    "stateful_firewall": (8, 3), "application_filtering": (9, 3),
    "vlan_isolation": (8, 5), "egress_port_validity": (8, 5),
    "routing_validity": (8, 4), "loops": (8, 4), "waypointing": (8, 4),
    "service_chain": (8, 5), "source_routing_validation": (8, 8),
}


def test_raw_stage_depths_are_pinned():
    def depths(program):
        return (dependency_depth(program, program.ingress),
                dependency_depth(program, program.egress))

    assert depths(upf_program("fabric_upf")) == (8, 1)
    measured = {name: depths(link(upf_program("fabric_upf"),
                                  compile_property(name), role=EDGE))
                for name in RAW_DEPTHS}
    assert measured == RAW_DEPTHS


def test_pipeline_depth_is_max_of_both_halves():
    program = l2_port_forwarding()
    assert pipeline_depth(program) >= 1


# ---------------------------------------------------------------------------
# Anchored Table-1 reporting
# ---------------------------------------------------------------------------

def test_checkers_do_not_increase_stage_count():
    """The headline Table 1 claim: every checker linked with the
    fabric-upf baseline stays within the baseline's 12 stages."""
    baseline = upf_program()
    for name in ("multi_tenancy", "loops", "application_filtering",
                 "source_routing_validation"):
        compiled = compile_property(name)
        linked = link(baseline, compiled)
        report = analyze_linked(name, linked, baseline)
        assert report.stages == PAPER_BASELINE_STAGES


def test_phv_anchored_at_baseline():
    baseline = upf_program()
    compiled = compile_property("multi_tenancy")
    linked = link(baseline, compiled)
    report = analyze_linked("multi_tenancy", linked, baseline)
    assert report.phv_pct > PAPER_BASELINE_PHV_PCT
    assert report.phv_pct < PAPER_BASELINE_PHV_PCT + 15


def test_phv_ordering_matches_telemetry_volume():
    """Checkers carrying more telemetry must cost more PHV — the
    ordering the paper reports (app filtering and source-route
    validation highest)."""
    baseline = upf_program()

    def delta(name):
        linked = link(baseline, compile_property(name))
        return analyze_linked(name, linked, baseline).phv_delta_bits

    assert delta("source_routing_validation") > delta("waypointing")
    assert delta("application_filtering") > delta("egress_port_validity")
    assert delta("loops") > delta("waypointing")


# ---------------------------------------------------------------------------
# Dataflow optimizer: resource usage is monotone, baseline untouched
# ---------------------------------------------------------------------------

def test_optimizer_never_increases_stages_or_phv():
    """The optimizer's resource contract, quantified over every Table-1
    property in both standalone and linked form: optimized never uses
    more pipeline stages or PHV bits than unoptimized."""
    from repro.compiler import standalone_program
    from repro.properties import TABLE1_ORDER

    baseline = upf_program()
    for name in TABLE1_ORDER:
        plain = compile_property(name)
        opt = compile_property(name, optimize=True)

        plain_sa = standalone_program(plain)
        opt_sa = standalone_program(opt)
        assert pipeline_depth(opt_sa) <= pipeline_depth(plain_sa), name
        assert phv_bits(opt_sa) <= phv_bits(plain_sa), name

        plain_linked = analyze_linked(name, link(baseline, plain), baseline)
        opt_linked = analyze_linked(name, link(baseline, opt), baseline)
        assert opt_linked.stages <= plain_linked.stages, name
        assert opt_linked.phv_pct <= plain_linked.phv_pct + 1e-9, name


def test_optimizer_reduces_phv_on_some_property():
    from repro.compiler import standalone_program

    reduced = []
    for name in ("multi_tenancy", "stateful_firewall",
                 "application_filtering"):
        plain = phv_bits(standalone_program(compile_property(name)))
        opt = phv_bits(standalone_program(
            compile_property(name, optimize=True)))
        if opt < plain:
            reduced.append(name)
    assert reduced


def test_fabric_upf_baseline_unchanged_without_optimize():
    """optimize=False (the default) must keep the paper's anchored
    baseline byte-for-byte: 12 stages, 44.53% PHV."""
    from repro.properties import BASELINE_PHV_PCT, BASELINE_STAGES

    assert BASELINE_STAGES == PAPER_BASELINE_STAGES == 12
    assert BASELINE_PHV_PCT == PAPER_BASELINE_PHV_PCT == 44.53
    baseline = upf_program()
    compiled = compile_property("multi_tenancy")  # default: no optimizer
    report = analyze_linked("multi_tenancy", link(baseline, compiled),
                            baseline)
    # Anchoring intact: stages floor at the baseline, PHV percent is the
    # baseline plus the checker's delta.
    assert report.stages >= PAPER_BASELINE_STAGES
    assert abs(report.phv_pct - (PAPER_BASELINE_PHV_PCT
               + 100.0 * report.phv_delta_bits / TOTAL_PHV_BITS)) < 1e-9
