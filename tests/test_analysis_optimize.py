"""The optimizer side of the dataflow-analysis framework.

The optimizer's contract is *observational identity*: fold, DCE,
structure pruning, and field coalescing may only change resource usage,
never behavior.  These tests pin the fold semantics against the bmv2
evaluator, the structural invariants the runtime depends on (every
control keeps its ``control_tables`` entry — deployment iterates them),
and the contract itself via the three-level differential oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis import optimize_compiled
from repro.analysis.optimize import _fold_expr, OptimizeStats
from repro.analysis.ssa import eval_const
from repro.difftest import run_seed
from repro.p4 import ir
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import PROPERTIES, TABLE1_ORDER, load_checked

#: Every declared operator: a new table entry is tested without edits.
BIN_OPS = list(ir.BINARY_OPS)
UN_OPS = list(ir.UNARY_OPS)


def fold(expr):
    return _fold_expr(expr, OptimizeStats())


def const(value, width=32):
    return ir.Const(value, width)


REFERENCE = Bmv2Switch(ir.P4Program(name="ref"), engine="interp")
EMITTER = Bmv2Switch(ir.P4Program(name="emit"), engine="codegen")._engine


def reference(expr):
    """What the reference engine computes for a constant-only tree (no
    field is read, so no packet context is needed)."""
    return REFERENCE._eval(expr, None)


def emitted(expr):
    """What the emitter's source for ``expr`` computes, evaluated in the
    generated module's namespace (its ``_div``/``_mod``/``_absdiff``)."""
    return eval(EMITTER._expr(expr, {}), dict(EMITTER._globals))


# ---------------------------------------------------------------------------
# Constant folding mirrors bmv2's evaluator exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op,left,right,width,expected", [
    ("+", 250, 10, 8, (250 + 10) & 0xFF),
    ("-", 3, 5, 8, (3 - 5) & 0xFF),
    ("*", 100, 100, 8, (100 * 100) & 0xFF),
    ("/", 7, 0, 8, 0),              # bmv2: division by zero yields 0
    ("/", 7, 2, 8, 3),
    ("%", 7, 0, 8, 0),
    ("%", 7, 3, 8, 1),
    ("<<", 1, 9, 8, (1 << (9 % 8)) & 0xFF),   # shift amount mod width
    (">>", 128, 9, 8, 128 >> (9 % 8)),
    ("absdiff", 3, 5, 8, 2),
    ("absdiff", 5, 3, 8, 2),
    ("min", 3, 5, 8, 3),
    ("max", 3, 5, 8, 5),
    ("==", 4, 4, 1, 1),
    ("<", 5, 3, 1, 0),
    ("&&", 0, 7, 1, 0),
    ("||", 0, 7, 1, 1),
])
def test_fold_bin_matches_bmv2(op, left, right, width, expected):
    expr = ir.BinExpr(op, const(left, width), const(right, width), width)
    folded = fold(expr)
    assert isinstance(folded, ir.Const), (op, folded)
    assert folded.value == expected == reference(expr), (op, left, right)


WIDTHS = st.integers(1, 64)
#: Small values (zero divisors), shift amounts past any width, and
#: values wider than any operator's result.
CONSTS = st.builds(ir.Const, st.one_of(st.integers(0, 3), st.integers(0, 130),
                                       st.integers(0, (1 << 72) - 1)), WIDTHS)


def binary(operands, ops=st.sampled_from(BIN_OPS)):
    return st.builds(ir.BinExpr, ops, operands, operands, WIDTHS)


def unary(operands, ops=st.sampled_from(UN_OPS)):
    return st.builds(ir.UnExpr, ops, operands, st.none() | WIDTHS)


CONST_TREES = st.recursive(
    CONSTS, lambda sub: binary(sub) | unary(sub), max_leaves=6)


@pytest.mark.parametrize("shape, op", [(binary, op) for op in BIN_OPS]
                         + [(unary, op) for op in UN_OPS],
                         ids=lambda value: getattr(value, "__name__", value))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_const_matches_bmv2(shape, op, data):
    """The folder and the emitter against the reference, not against a
    table: every operator at the root of constant-only trees, operands
    wider than the result, zero divisors, shifts past the width."""
    expr = data.draw(shape(CONST_TREES, st.just(op)))
    want = reference(expr)
    assert eval_const(expr, lambda path: None) == want
    assert emitted(expr) == want
    folded = fold(expr)
    assert isinstance(folded, ir.Const) and reference(folded) == want


def test_fold_short_circuit_with_non_const_side():
    # A decided const side folds && / || even when the other side is a
    # field read: checker expressions are pure, so this is sound.
    field = ir.FieldRef("meta.ih_x")
    assert fold(ir.BinExpr("&&", const(0, 1), field, 1)).value == 0
    assert fold(ir.BinExpr("||", const(1, 1), field, 1)).value == 1
    # An undecided const side must NOT fold away the field read.
    out = fold(ir.BinExpr("&&", const(1, 1), field, 1))
    assert not isinstance(out, ir.Const)


def test_fold_unary():
    assert fold(ir.UnExpr("!", const(0, 1))).value == 1
    assert fold(ir.UnExpr("!", const(7, 8))).value == 0
    folded = fold(ir.UnExpr("~", const(0b1010, 4)))
    assert folded.value == 0b0101


def test_folded_if_collapses_to_taken_arm():
    compiled = api.compile_indus("""
tele bit<8> x = 0;
{ }
{ if (1 == 1) { x = 3; } else { x = 4; } }
{ }
""", name="fold_if", optimize=True)
    flat = list(ir.walk_stmts(compiled.tele_stmts))
    assert not any(isinstance(s, ir.IfStmt) for s in flat)
    assigned = [s for s in flat if isinstance(s, ir.AssignStmt)
                and s.dest == "hdr.hydra.x"]
    assert any(isinstance(s.value, ir.Const) and s.value.value == 3
               for s in assigned)
    # The not-taken arm's assignment is gone.
    assert not any(isinstance(s, ir.AssignStmt)
                   and isinstance(s.value, ir.Const) and s.value.value == 4
                   for s in flat)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_every_control_keeps_its_control_tables_entry():
    # Deployment iterates compiled.control_tables[decl.name] on every
    # control update; a pruned-empty control must keep its (empty)
    # entry, and scalar controls (empty widths list) must survive.
    for name in sorted(PROPERTIES):
        plain = api.compile_indus(name)
        opt = api.compile_indus(name, optimize=True)
        assert set(opt.control_tables) == set(plain.control_tables), name
        assert set(opt.control_value_widths) == \
            set(plain.control_value_widths), name
        for ctrl, tbls in opt.control_tables.items():
            for tbl in tbls:
                assert tbl in opt.tables, (name, ctrl, tbl)
            # Scalar controls carry an empty widths list; it must stay
            # empty (a deploy-time sentinel), never grow.
            if plain.control_value_widths[ctrl] == []:
                assert opt.control_value_widths[ctrl] == [], (name, ctrl)


def test_optimizer_is_idempotent():
    for name in ("multi_tenancy", "stateful_firewall", "loops"):
        compiled = api.compile_indus(name)
        first = optimize_compiled(compiled)
        second = optimize_compiled(compiled)
        assert not second.changed(), (name, second)
        assert first.changed() or not first.changed()  # stats populated


def test_optimizer_reports_measurable_reductions():
    # The acceptance bar: a real PHV reduction on at least one paper
    # property.  multi_tenancy coalesces tenant-lookup scratch fields.
    stats_seen = False
    for name in ("multi_tenancy", "stateful_firewall"):
        compiled = api.compile_indus(name)
        stats = optimize_compiled(compiled)
        if stats.coalesced_fields or stats.removed_metadata_bits > 0:
            stats_seen = True
    assert stats_seen


def test_dead_control_loader_tables_are_pruned():
    # load_balance declares scalar controls whose loader tables are
    # applied once per lookup site; sites made dead by folding prune.
    plain = api.compile_indus("load_balance")
    opt = api.compile_indus("load_balance", optimize=True)
    assert len(opt.tables) <= len(plain.tables)
    # ABI tables always survive.
    for tbl in (opt.inject_table, opt.strip_table):
        assert tbl in opt.tables


def test_unused_sensor_register_is_removed():
    src = """
sensor bit<32> unused = 0;
tele bool seen = false;
{ }
{ seen = true; }
{ if (seen) { report; } }
"""
    plain = api.compile_indus(src, name="dead_reg")
    opt = api.compile_indus(src, name="dead_reg", optimize=True)
    plain_regs = {r.name for r in plain.registers}
    opt_regs = {r.name for r in opt.registers}
    assert "ih_reg_unused" in plain_regs
    assert "ih_reg_unused" not in opt_regs


def test_optimized_program_still_renders_and_runs():
    from repro.compiler import standalone_program
    from repro.net.packet import ip, make_udp
    from repro.p4 import count_loc, render

    compiled = api.compile_indus("loops", optimize=True)
    program = standalone_program(compiled)
    assert count_loc(render(program)) > 50
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry(compiled.inject_table, [1], compiled.mark_first_action)
    sw.insert_entry(compiled.strip_table, [2], compiled.mark_last_action)
    out = sw.process(make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2), 1)
    assert len(out) == 1


# ---------------------------------------------------------------------------
# The contract: optimized == unoptimized under the three-level oracle
# ---------------------------------------------------------------------------

@pytest.mark.difftest
def test_oracle_verdicts_identical_with_and_without_optimizer():
    # The full ≥200-seed campaign runs in CI / by hand; this in-suite
    # slice keeps the contract pinned on every test run.
    for seed in range(30):
        plain = run_seed(seed)
        opt = run_seed(seed, optimize=True)
        assert plain.verdict == opt.verdict == "ok", (
            seed, plain.verdict, opt.verdict)
        assert plain.packets_run == opt.packets_run
        assert plain.hops_checked == opt.hops_checked
        assert plain.reports_checked == opt.reports_checked


@pytest.mark.difftest
def test_oracle_still_catches_mutations_on_optimized_programs():
    # The optimizer must not eat the oracle's bug-finding power: an
    # injected mutation on an optimized checker is still caught.
    caught = 0
    for seed in range(12):
        rng = random.Random(seed)
        from repro.difftest import gen_scenario, inject_mutation
        from repro.difftest.harness import run_scenario

        notes = []

        def mutate(compiled):
            note = inject_mutation(compiled, rng)
            if note is not None:
                notes.append(note)

        result = run_scenario(gen_scenario(seed), mutate=mutate,
                              optimize=True)
        if notes and result.failure is not None:
            caught += 1
    assert caught > 0


# ---------------------------------------------------------------------------
# Table 1 deltas
# ---------------------------------------------------------------------------

def test_table1_reports_phv_delta_on_at_least_one_property():
    from repro.experiments.table1 import compute_table, format_table

    rows = compute_table(["multi_tenancy", "stateful_firewall"],
                         optimize=True)
    assert all(row.opt_stages is not None for row in rows)
    assert any(row.opt_phv_pct < row.phv_pct for row in rows)
    # Monotone: never more stages or PHV.
    for row in rows:
        assert row.opt_stages <= row.stages
        assert row.opt_phv_pct <= row.phv_pct + 1e-9
    text = format_table(rows)
    assert "opt" in text


def test_table1_unoptimized_columns_unchanged_by_optimize_flag():
    from repro.experiments.table1 import compute_row

    plain = compute_row("loops")
    with_opt = compute_row("loops", optimize=True)
    assert plain.stages == with_opt.stages
    assert plain.phv_pct == with_opt.phv_pct
    assert plain.p4_loc == with_opt.p4_loc
    assert plain.opt_stages is None


def test_compile_suite_optimize_flag_threads_through():
    from repro.properties import compile_suite

    suite = compile_suite(["loops", "multi_tenancy"], optimize=True)
    assert [c.name for c in suite] == ["loops", "multi_tenancy"]
    plain = compile_suite(["multi_tenancy"])[0]
    opt = [c for c in suite if c.name == "multi_tenancy"][0]
    assert len(opt.metadata) < len(plain.metadata)
