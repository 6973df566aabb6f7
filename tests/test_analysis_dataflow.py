"""The shared analysis substrate: CFG construction, the worklist
solver, liveness, reaching definitions, placement views, and parser
must-extraction.  These are the facts every lint pass consumes, so they
get direct unit coverage on hand-built IR.
"""

from repro import api
from repro.analysis import (AnalysisUnit, UNINIT, build_cfg,
                            checker_placements, liveness,
                            reaching_definitions)
from repro.analysis.dataflow import cfg_effects
from repro.compiler.linker import placement
from repro.p4 import ir


def C(v, w=8):
    return ir.Const(v, w)


def F(path):
    return ir.FieldRef(path)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

def test_cfg_straight_line():
    stmts = [ir.AssignStmt("meta.a", C(1)), ir.AssignStmt("meta.b", C(2))]
    cfg = build_cfg(stmts)
    assert len(cfg.stmt_nodes()) == 2
    entry, exit_ = cfg.nodes[cfg.entry], cfg.nodes[cfg.exit]
    assert entry.succs and exit_.preds
    # Linear chain: every stmt node has one successor.
    for node in cfg.stmt_nodes():
        assert len(node.succs) == 1


def test_cfg_if_arms_rejoin():
    branch = ir.IfStmt(cond=F("meta.c"),
                       then_body=[ir.AssignStmt("meta.a", C(1))],
                       else_body=[ir.AssignStmt("meta.a", C(2))])
    tail = ir.AssignStmt("meta.b", F("meta.a"))
    cfg = build_cfg([branch, tail])
    nodes = {id(n.stmt): n for n in cfg.stmt_nodes()}
    branch_node = nodes[id(branch)]
    tail_node = nodes[id(tail)]
    assert len(branch_node.succs) == 2
    assert len(tail_node.preds) == 2  # both arms rejoin here


def test_cfg_empty_else_falls_through():
    branch = ir.IfStmt(cond=F("meta.c"),
                       then_body=[ir.AssignStmt("meta.a", C(1))])
    tail = ir.AssignStmt("meta.b", C(2))
    cfg = build_cfg([branch, tail])
    nodes = {id(n.stmt): n for n in cfg.stmt_nodes()}
    # Tail is reachable both through the arm and directly from the branch.
    assert len(nodes[id(tail)].preds) == 2


def test_cfg_mark_to_drop_is_not_a_terminator():
    # bmv2 semantics: MarkToDrop sets a flag and execution continues —
    # the CFG must reflect that (this is what makes IH003 a lint rule
    # rather than a deletion).
    drop = ir.MarkToDrop()
    after = ir.AssignStmt("meta.a", C(1))
    cfg = build_cfg([drop, after])
    nodes = {id(n.stmt): n for n in cfg.stmt_nodes()}
    assert nodes[id(after)].index in nodes[id(drop)].succs


def test_expr_uses_collects_fields_and_validity():
    expr = ir.BinExpr("&&", ir.ValidRef("tcp"),
                      ir.BinExpr("==", F("meta.a"), F("hdr.ipv4.ttl"), 1), 1)
    assert ir.expr_reads(expr) == {"hdr.tcp.$valid", "meta.a", "hdr.ipv4.ttl"}


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------

def _solve(stmts):
    cfg = build_cfg(stmts)
    effects = cfg_effects(cfg, tables={}, actions={})
    return cfg, effects


def test_liveness_read_after_write_keeps_the_def_live():
    w = ir.AssignStmt("meta.a", C(1))
    r = ir.AssignStmt("hdr.hydra.x", F("meta.a"))
    cfg, effects = _solve([w, r])
    live_in, live_out = liveness(cfg, effects)
    nodes = {id(n.stmt): n.index for n in cfg.stmt_nodes()}
    assert "meta.a" in live_out[nodes[id(w)]]
    assert "meta.a" not in live_out[nodes[id(r)]]


def test_liveness_overwritten_def_is_dead():
    first = ir.AssignStmt("meta.a", C(1))
    second = ir.AssignStmt("meta.a", C(2))
    read = ir.AssignStmt("hdr.hydra.x", F("meta.a"))
    cfg, effects = _solve([first, second, read])
    live_in, live_out = liveness(cfg, effects)
    nodes = {id(n.stmt): n.index for n in cfg.stmt_nodes()}
    # The first write's value never survives to a read.
    assert "meta.a" not in live_out[nodes[id(first)]]
    assert "meta.a" in live_out[nodes[id(second)]]


def test_liveness_through_one_branch_arm():
    w = ir.AssignStmt("meta.a", C(1))
    branch = ir.IfStmt(cond=F("meta.c"),
                       then_body=[ir.AssignStmt("hdr.hydra.x", F("meta.a"))])
    cfg, effects = _solve([w, branch])
    live_in, live_out = liveness(cfg, effects)
    nodes = {id(n.stmt): n.index for n in cfg.stmt_nodes()}
    assert "meta.a" in live_out[nodes[id(w)]]


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------

def test_reaching_uninit_at_entry_and_kill_by_write():
    w = ir.AssignStmt("meta.a", C(1))
    cfg = build_cfg([w])
    effects = cfg_effects(cfg, tables={}, actions={})
    facts = reaching_definitions(cfg, effects, ["meta.a", "meta.b"])
    nodes = {id(n.stmt): n.index for n in cfg.stmt_nodes()}
    at_w = facts[nodes[id(w)]]
    # Before the write, only the synthetic zero-init site reaches.
    assert at_w["meta.a"] == frozenset({UNINIT})
    # At exit, the write killed UNINIT for a but not for b.
    at_exit = facts[cfg.exit]
    assert UNINIT not in at_exit["meta.a"]
    assert at_exit["meta.b"] == frozenset({UNINIT})


def test_reaching_merge_keeps_both_branch_defs():
    branch = ir.IfStmt(cond=F("meta.c"),
                       then_body=[ir.AssignStmt("meta.a", C(1))],
                       else_body=[ir.AssignStmt("meta.a", C(2))])
    cfg = build_cfg([branch])
    effects = cfg_effects(cfg, tables={}, actions={})
    facts = reaching_definitions(cfg, effects, ["meta.a"])
    at_exit = facts[cfg.exit]
    # Both arm writes reach the join; the entry zero-init does not.
    assert len(at_exit["meta.a"]) == 2
    assert UNINIT not in at_exit["meta.a"]


def test_reaching_one_armed_write_keeps_uninit():
    branch = ir.IfStmt(cond=F("meta.c"),
                       then_body=[ir.AssignStmt("meta.a", C(1))])
    cfg = build_cfg([branch])
    effects = cfg_effects(cfg, tables={}, actions={})
    facts = reaching_definitions(cfg, effects, ["meta.a"])
    assert UNINIT in facts[cfg.exit]["meta.a"]


# ---------------------------------------------------------------------------
# Placements + unit
# ---------------------------------------------------------------------------

def test_checker_placements_cover_roles_and_modes():
    compiled = api.compile_indus("loops")
    views = checker_placements(compiled)
    assert {(v.role, v.check_mode) for v in views} == {
        ("edge", "last_hop"), ("edge", "per_hop"),
        ("core", "last_hop"), ("core", "per_hop")}
    # Placement views share the fragment statement objects (dataflow
    # facts key by id(stmt)).
    tele_ids = {id(s) for s in compiled.tele_stmts}
    for view in views:
        view_ids = {id(n.stmt) for n in view.cfg.stmt_nodes()}
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
        view_ids = {id(n.stmt) for n in views[name].cfg.stmt_nodes()}
        assert not (init_ids & view_ids), name
        applies = [n.stmt.table for n in views[name].cfg.stmt_nodes()
                   if isinstance(n.stmt, ir.ApplyTable)]
        assert compiled.inject_table not in applies


def test_analysis_unit_caches_and_exposes_facts():
    unit = AnalysisUnit(api.compile_indus("loops"))
    view = unit.placements[0]
    assert unit.effects(view) is unit.effects(view)
    live_in, live_out = unit.liveness(view)
    assert cfgkeys(live_in) == {n.index for n in view.cfg.nodes}
    widths = unit.field_widths()
    assert widths["standard_metadata.egress_port"] == 9
    assert any(k.startswith("meta.") for k in widths)
    assert any(k.startswith("hdr.") for k in widths)


def cfgkeys(mapping):
    return set(mapping)
