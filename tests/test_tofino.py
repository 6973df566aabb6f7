"""Tofino resource model tests: PHV container packing and stage
dependency analysis.  Table 1's per-checker stage and PHV claims are
tests/test_table1.py's."""

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


def test_a_table_listing_no_actions_depends_through_every_action():
    """A table that lists no actions may run any of them (P4Runtime's
    rule, which both engines follow), so what reads their writes after
    the apply waits for it."""
    program = ir.P4Program(name="p", metadata=[("x", 8), ("y", 8)])
    program.add_action(ir.Action(
        "set_x", body=[ir.AssignStmt("meta.x", ir.Const(1, 8))]))
    program.add_table(ir.Table("t"))
    later = ir.AssignStmt("meta.y", ir.FieldRef("meta.x"))
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


def test_fabric_upf_baseline_is_the_papers_anchor():
    """A linked checker keeps the paper's anchored baseline
    byte-for-byte: 12 stages, 44.53% PHV."""
    from repro.properties import BASELINE_PHV_PCT, BASELINE_STAGES

    assert BASELINE_STAGES == PAPER_BASELINE_STAGES == 12
    assert BASELINE_PHV_PCT == PAPER_BASELINE_PHV_PCT == 44.53
    baseline = upf_program()
    compiled = compile_property("multi_tenancy")
    report = analyze_linked("multi_tenancy", link(baseline, compiled),
                            baseline)
    # Anchoring intact: stages floor at the baseline, PHV percent is the
    # baseline plus the checker's delta.
    assert report.stages >= PAPER_BASELINE_STAGES
    assert abs(report.phv_pct - (PAPER_BASELINE_PHV_PCT
               + 100.0 * report.phv_delta_bits / TOTAL_PHV_BITS)) < 1e-9
