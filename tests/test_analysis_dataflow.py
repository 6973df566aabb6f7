"""The structural walks the lint passes share: placement views, the
per-statement effect, and IH001's metadata half — one forward walk per
placement carrying the fields some path may have written so far.

The metadata-half cases run on hand-built IR appended to a compiled
checker's fragments (the bundled corpus never makes that half fire).
"""

import pytest

from repro import api
from repro.analysis import AnalysisUnit, checker_placements, lint_compiled
from repro.compiler.linker import placement
from repro.indus.errors import SourceSpan
from repro.p4 import ir

PROBE = "meta.ih_probe"


def C(v, w=8):
    return ir.Const(v, w)


def F(path):
    return ir.FieldRef(path)


def probed_checker():
    """``loops`` with one extra metadata field nothing writes."""
    compiled = api.compile_indus("loops")
    compiled.metadata.append(("ih_probe", 8))
    return compiled


def write(line=0):
    return ir.AssignStmt(PROBE, C(1), span=SourceSpan(line, 3))


def read(line=0):
    return ir.AssignStmt("hdr.ethernet.ether_type", F(PROBE),
                         span=SourceSpan(line, 3))


def uninit(compiled):
    return [d for d in lint_compiled(compiled, only=["IH001"])
            if d.path == PROBE]


# ---------------------------------------------------------------------------
# IH001's metadata half
# ---------------------------------------------------------------------------

def test_ih001_read_before_any_write_is_flagged():
    compiled = probed_checker()
    compiled.tele_stmts += [read(7), write(8)]
    found = uninit(compiled)
    assert len(found) == 1
    assert found[0].span.line == 7
    assert "no execution path ever writes" in found[0].message


def test_ih001_a_statement_reads_before_it_writes():
    compiled = probed_checker()
    bump = ir.AssignStmt(PROBE, ir.BinExpr("+", F(PROBE), C(1), 8),
                         span=SourceSpan(5, 3))
    compiled.tele_stmts.append(bump)
    assert [d.span.line for d in uninit(compiled)] == [5]


def test_ih001_write_then_read_is_clean():
    compiled = probed_checker()
    compiled.tele_stmts += [write(), read()]
    assert not uninit(compiled)


def test_ih001_write_in_one_arm_then_read_after_the_if_is_clean():
    # Some path writes the field, so the read may see the write.
    compiled = probed_checker()
    compiled.tele_stmts += [
        ir.IfStmt(cond=F("meta.ih_looped"), then_body=[write()]),
        read()]
    assert not uninit(compiled)


def test_ih001_write_inside_an_arm_does_not_reach_a_read_before_it():
    compiled = probed_checker()
    compiled.tele_stmts += [
        ir.IfStmt(cond=F("meta.ih_looped"), then_body=[read(9)],
                  else_body=[write()])]
    assert [d.span.line for d in uninit(compiled)] == [9]


def test_cfg_if_arms_rejoin():
    # The statement after an if/else is walked once, after both arms:
    # a write in either arm reaches it, and with none it is flagged.
    for then_body, else_body, flagged in (
            ([], [], [9]), ([write()], [], []), ([], [write()], [])):
        compiled = probed_checker()
        compiled.tele_stmts += [
            ir.IfStmt(cond=F("meta.ih_looped"), then_body=then_body,
                      else_body=else_body),
            read(9)]
        assert [d.span.line for d in uninit(compiled)] == flagged


def test_cfg_empty_else_falls_through():
    # A one-armed if neither ends the walk nor drops what was written
    # before it: the empty arm carries the write to the read.
    compiled = probed_checker()
    compiled.tele_stmts += [
        ir.IfStmt(cond=F("meta.ih_looped"), then_body=[ir.MarkToDrop()]),
        read(9)]
    assert [d.span.line for d in uninit(compiled)] == [9]
    compiled = probed_checker()
    compiled.tele_stmts += [
        write(),
        ir.IfStmt(cond=F("meta.ih_looped"), then_body=[ir.MarkToDrop()]),
        read(9)]
    assert not uninit(compiled)


def test_reaching_merge_keeps_both_branch_defs():
    # Each arm writes a different field; both writes survive the join.
    compiled = probed_checker()
    compiled.metadata.append(("ih_probe_b", 8))
    compiled.tele_stmts += [
        ir.IfStmt(cond=F("meta.ih_looped"), then_body=[write()],
                  else_body=[ir.AssignStmt("meta.ih_probe_b", C(2))]),
        ir.AssignStmt("hdr.ethernet.ether_type",
                      ir.BinExpr("+", F(PROBE), F("meta.ih_probe_b"), 8),
                      span=SourceSpan(9, 3))]
    found = [d for d in lint_compiled(compiled, only=["IH001"])
             if d.path in (PROBE, "meta.ih_probe_b")]
    assert not found


def test_reaching_one_armed_write_keeps_uninit():
    # The if's own condition still sees the entry value: a write in the
    # arm it guards does not reach back to it.
    compiled = probed_checker()
    compiled.tele_stmts += [
        ir.IfStmt(cond=ir.BinExpr("==", F(PROBE), C(0), 1),
                  then_body=[write()], span=SourceSpan(6, 3)),
        read(9)]
    assert [d.span.line for d in uninit(compiled)] == [6]


def test_ih001_mark_to_drop_does_not_stop_the_walk():
    # bmv2 semantics: mark_to_drop() sets a flag and execution carries on.
    compiled = probed_checker()
    compiled.tele_stmts += [write(), ir.MarkToDrop(), read()]
    assert not uninit(compiled)


@pytest.mark.parametrize("default", [None, ("ih_probe_set", [])])
def test_ih001_an_apply_whose_action_writes_counts_as_a_write(default):
    compiled = probed_checker()
    compiled.actions["ih_probe_set"] = ir.Action(
        "ih_probe_set", body=[write()])
    compiled.tables["ih_probe_tbl"] = ir.Table(
        name="ih_probe_tbl", keys=[ir.TableKey("meta.ih_looped")],
        actions=["ih_probe_set"], default_action=default)
    compiled.tele_stmts += [ir.ApplyTable("ih_probe_tbl"), read()]
    assert not uninit(compiled)


def test_ih001_a_read_written_in_another_placement_is_not_flagged():
    # init runs on edge switches only: core placements see the read
    # unwritten, edge placements written, so it is not always zero.
    compiled = probed_checker()
    compiled.init_stmts.append(write())
    compiled.tele_stmts.append(read())
    assert not uninit(compiled)


def test_ih001_reports_the_first_read_in_walk_order():
    compiled = probed_checker()
    later, earlier = read(12), read(11)
    compiled.tele_stmts += [earlier, later]
    found = uninit(compiled)
    assert [d.span.line for d in found] == [11]


# ---------------------------------------------------------------------------
# Placements + unit
# ---------------------------------------------------------------------------

def test_checker_placements_cover_roles_and_modes():
    compiled = api.compile_indus("loops")
    views = checker_placements(compiled)
    assert {(v.role, v.check_mode) for v in views} == {
        ("edge", "last_hop"), ("edge", "per_hop"),
        ("core", "last_hop"), ("core", "per_hop")}
    # Placement views share the fragment statement objects (a pass's
    # verdicts key by id(stmt)).
    tele_ids = {id(s) for s in compiled.tele_stmts}
    for view in views:
        view_ids = {id(s) for s in ir.walk_stmts(view.stmts)}
        assert tele_ids <= view_ids, view.name


def test_placement_views_are_the_linkers_placements_uncloned():
    compiled = api.compile_indus("loops")
    views = checker_placements(compiled)
    assert [v.name for v in views] == [
        "edge-last_hop", "edge-per_hop", "core-last_hop", "core-per_hop"]
    fragment_ids = {id(s) for stmts in compiled.fragments().values()
                    for s in ir.walk_stmts(stmts)}
    for view in views:
        assert view.stmts == placement(compiled, view.role,
                                       view.check_mode).stmts()
        if view.role == "edge":
            view_ids = {id(s) for s in ir.walk_stmts(view.stmts)}
            assert fragment_ids <= view_ids, view.name


def test_core_placements_omit_init_and_inject():
    compiled = api.compile_indus("loops")
    views = {v.name: v for v in checker_placements(compiled)}
    init_ids = {id(s) for s in compiled.init_stmts}
    for name in ("core-last_hop", "core-per_hop"):
        stmts = list(ir.walk_stmts(views[name].stmts))
        assert not (init_ids & {id(s) for s in stmts}), name
        applies = [s.table for s in stmts if isinstance(s, ir.ApplyTable)]
        assert compiled.inject_table not in applies


def test_analysis_unit_caches_and_exposes_facts():
    unit = AnalysisUnit(api.compile_indus("loops"))
    widths = unit.field_widths()
    assert unit.field_widths() is widths
    assert widths["standard_metadata.egress_port"] == 9
    assert any(k.startswith("meta.") for k in widths)
    assert any(k.startswith("hdr.") for k in widths)
    # An apply's effect is its actions' under the declared default.
    compiled = unit.compiled
    site = ir.ApplyTable(compiled.inject_table)
    table = compiled.tables[compiled.inject_table]
    assert unit.effect(site) == ir.apply_effect(
        table, compiled.actions, table.default_action)
    assert unit.effect(write()) == ir.stmt_effect(write())
