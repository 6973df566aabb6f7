"""P4 IR tests: table match semantics, entry priority, tree walking,
the operator table."""

import dataclasses
import typing
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.p4 import ir
from repro.p4.bmv2 import Bmv2Switch


def make_table(kinds):
    return ir.Table(
        name="t",
        keys=[ir.TableKey(f"meta.k{i}", kind) for i, kind in enumerate(kinds)],
        actions=["a"],
    )


def test_exact_match():
    table = make_table([ir.MatchKind.EXACT])
    entry = ir.TableEntry(match=[5], action="a")
    assert entry.matches(table, [5])
    assert not entry.matches(table, [6])


def test_table_entry_is_an_immutable_value():
    import copy
    import pickle

    entry = ir.TableEntry(match=[5, (1, 2)], action="a", args=[7])
    assert entry.match == (5, (1, 2)) and entry.args == (7,)
    assert ir.TableEntry([5], "a").args == ()
    assert ir.TableEntry([5], "a", None, 0).args == ()
    with pytest.raises(AttributeError):
        entry.priority = 3
    with pytest.raises(AttributeError):
        entry.extra = 1  # slots: no per-entry dict
    same = ir.TableEntry((5, (1, 2)), "a", (7,))
    assert entry == same
    assert entry != ir.TableEntry((5, (1, 2)), "a", (7,), priority=1)
    assert entry != (entry.match, "a", entry.args, 0)
    for clone in (copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
        assert clone == entry and clone is not entry
    assert "match=(5, (1, 2))" in repr(entry)


def test_ternary_match():
    table = make_table([ir.MatchKind.TERNARY])
    entry = ir.TableEntry(match=[(0x10, 0xF0)], action="a")
    assert entry.matches(table, [0x1F])
    assert entry.matches(table, [0x10])
    assert not entry.matches(table, [0x20])


def test_ternary_zero_mask_is_wildcard():
    table = make_table([ir.MatchKind.TERNARY])
    entry = ir.TableEntry(match=[(0, 0)], action="a")
    assert entry.matches(table, [12345])


def test_lpm_match():
    table = make_table([ir.MatchKind.LPM])
    prefix = (10 << 24) | (1 << 8)
    entry = ir.TableEntry(match=[(prefix, 24)], action="a")
    assert entry.matches(table, [prefix | 7])
    assert not entry.matches(table, [(10 << 24) | (2 << 8) | 7])


def test_lpm_zero_length_matches_everything():
    table = make_table([ir.MatchKind.LPM])
    entry = ir.TableEntry(match=[(0, 0)], action="a")
    assert entry.matches(table, [0xFFFFFFFF])


def test_range_match_inclusive():
    table = make_table([ir.MatchKind.RANGE])
    entry = ir.TableEntry(match=[(81, 82)], action="a")
    assert entry.matches(table, [81])
    assert entry.matches(table, [82])
    assert not entry.matches(table, [80])
    assert not entry.matches(table, [83])


def test_multi_key_match_requires_all():
    table = make_table([ir.MatchKind.EXACT, ir.MatchKind.RANGE])
    entry = ir.TableEntry(match=[7, (10, 20)], action="a")
    assert entry.matches(table, [7, 15])
    assert not entry.matches(table, [8, 15])
    assert not entry.matches(table, [7, 25])


def test_duplicate_table_and_action_rejected():
    program = ir.P4Program(name="p")
    program.add_table(make_table([ir.MatchKind.EXACT]))
    with pytest.raises(ValueError):
        program.add_table(make_table([ir.MatchKind.EXACT]))
    program.add_action(ir.Action("a"))
    with pytest.raises(ValueError):
        program.add_action(ir.Action("a"))


def test_walk_stmts_recurses_into_branches():
    inner = ir.MarkToDrop()
    other = ir.SetValid("ipv4")
    stmts = [ir.IfStmt(ir.Const(1, 1), [inner], [other])]
    found = list(ir.walk_stmts(stmts))
    assert inner in found and other in found


def test_walk_stmts_covers_apply_bodies():
    inner = ir.MarkToDrop()
    stmts = [ir.ApplyTable("t", hit_body=[inner])]
    assert inner in list(ir.walk_stmts(stmts))


def test_walk_exprs():
    expr = ir.BinExpr("&&",
                      ir.UnExpr("!", ir.FieldRef("meta.a")),
                      ir.ValidRef("ipv4"))
    nodes = list(ir.walk_exprs(expr))
    assert any(isinstance(n, ir.FieldRef) for n in nodes)
    assert any(isinstance(n, ir.ValidRef) for n in nodes)
    assert len(nodes) == 4


def test_expr_uses_collects_fields_and_validity():
    expr = ir.BinExpr("&&", ir.ValidRef("tcp"),
                      ir.BinExpr("==", ir.FieldRef("meta.a"),
                                 ir.FieldRef("hdr.ipv4.ttl"), 1), 1)
    assert ir.expr_reads(expr) == {"hdr.tcp.$valid", "meta.a", "hdr.ipv4.ttl"}


# ---------------------------------------------------------------------------
# One operator table: the emitter computes what the reference computes
# ---------------------------------------------------------------------------

#: Every declared operator: a new table entry is tested without edits.
BIN_OPS = list(ir.BINARY_OPS)
UN_OPS = list(ir.UNARY_OPS)

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
def test_emitted_operator_cases(op, left, right, width, expected):
    expr = ir.BinExpr(op, ir.Const(left, width), ir.Const(right, width),
                      width)
    assert reference(expr) == emitted(expr) == expected, (op, left, right)


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
def test_emitted_operator_matches_the_reference(shape, op, data):
    """The emitter against the reference, not against a table: every
    operator at the root of constant-only trees, operands wider than
    the result, zero divisors, shifts past the width."""
    expr = data.draw(shape(CONST_TREES, st.just(op)))
    assert emitted(expr) == reference(expr)


def stmt_kinds():
    """Every statement kind the IR declares, subclasses of subclasses
    included."""
    kinds, pending = [], [ir.P4Stmt]
    while pending:
        subs = pending.pop().__subclasses__()
        kinds.extend(subs)
        pending.extend(subs)
    return kinds


def make_stmt(kind):
    """An instance of ``kind`` with a distinct ``FieldRef`` in every
    expression slot its dataclass fields declare, and those refs."""
    hints = typing.get_type_hints(kind)
    values, held = {}, []
    for field in dataclasses.fields(kind):
        hint = hints[field.name]
        if field.name == "span":
            continue
        if hint is ir.P4Expr:
            values[field.name] = ir.FieldRef(f"meta.{field.name}")
            held.append(values[field.name])
        elif hint == List[ir.P4Expr]:
            values[field.name] = [ir.FieldRef(f"meta.{field.name}{i}")
                                  for i in range(2)]
            held.extend(values[field.name])
        else:  # an expression in a shape this test cannot fill in
            assert "P4Expr" not in repr(hint), (kind, field.name, hint)
            values[field.name] = ("meta.s" if hint is str else
                                  max if field.name == "fn" else [])
    return kind(**values), held


@pytest.mark.parametrize("kind", stmt_kinds(), ids=lambda kind: kind.__name__)
def test_the_one_statement_switch_reaches_every_expression_field(kind):
    """``stmt_exprs`` lists and ``map_exprs`` rebuilds every field typed
    ``P4Expr`` or ``List[P4Expr]``, its declared effect uses what they
    read, and ``bodies`` returns every field typed ``List[P4Stmt]``: a
    statement kind added without its ``_EXPR_ATTRS`` row, a leaf kind
    without its ``_EFFECTS`` row or a compound one without its
    ``_BODIES`` row fails here instead of being skipped by every
    analysis at once."""
    stmt, held = make_stmt(kind)
    assert {ref.path for ref in held} <= ir.stmt_effect(stmt).uses
    hints = typing.get_type_hints(kind)
    body_fields = [field.name for field in dataclasses.fields(kind)
                   if hints[field.name] == List[ir.P4Stmt]]
    branching = bool(body_fields)
    assert (kind in ir._EFFECTS) is not branching
    assert (kind in ir._BODIES) is branching
    arms = ir.bodies(stmt)
    assert len(arms) == len(body_fields)
    assert all(arm is getattr(stmt, name)
               for arm, name in zip(arms, body_fields))
    assert ir.stmt_exprs(stmt) == held
    assert all(a is b for a, b in zip(ir.stmt_exprs(stmt), held))
    before = dict(vars(stmt))
    assert ir.map_exprs(stmt, lambda expr: expr) is False
    assert all(vars(stmt)[name] is value for name, value in before.items())

    def rename(expr):
        return ir.FieldRef(expr.path + "_renamed")

    assert ir.map_exprs(stmt, rename) is bool(held)
    assert ir.stmt_exprs(stmt) == [rename(expr) for expr in held]


def brute_walk(stmts):
    """Every statement under ``stmts``, pre-order, found by looking at
    every list attribute that holds statements (no shape declaration)."""
    for stmt in stmts:
        yield stmt
        for value in vars(stmt).values():
            if isinstance(value, list) and any(
                    isinstance(item, ir.P4Stmt) for item in value):
                yield from brute_walk(value)


def corpus_programs():
    """The 11 properties' linked edge and core programs, and the
    oracle's programs for seeds 0-99."""
    from repro.compiler import compile_program, link
    from repro.difftest.scenario import gen_scenario
    from repro.net.topology import CORE, EDGE
    from repro.p4.programs import l2_port_forwarding
    from repro.properties import TABLE1_ORDER, compile_property

    for name in TABLE1_ORDER:
        compiled = compile_property(name)
        for role in (EDGE, CORE):
            yield link(l2_port_forwarding(), compiled, role=role)
    for seed in range(100):
        compiled = compile_program(gen_scenario(seed).source())
        yield link(l2_port_forwarding(), compiled, role=EDGE)


def test_walk_stmts_is_the_brute_force_walk_over_the_corpus():
    """``walk_stmts`` (which reads ``_BODIES``) yields the very
    statements, in the same order, that a walk over every statement
    list attribute finds."""
    programs = 0
    for program in corpus_programs():
        programs += 1
        for body in ir.program_bodies(program):
            walked = list(ir.walk_stmts(body))
            brute = list(brute_walk(body))
            assert len(walked) == len(brute), program.name
            assert all(a is b for a, b in zip(walked, brute)), program.name
    assert programs == 11 * 2 + 100


def test_map_exprs_reaches_extern_args_and_digest_fields():
    extern = ir.ExternCall("hash", max, args=[ir.FieldRef("meta.a")],
                           dests=["meta.h"])
    digest = ir.Digest("d", [ir.FieldRef("meta.a"), ir.Const(1, 1)])
    for stmt in (extern, digest):
        assert ir.map_exprs(stmt, lambda expr: (
            ir.FieldRef("meta.b") if expr == ir.FieldRef("meta.a") else expr))
    assert extern.args == [ir.FieldRef("meta.b")]
    assert extern.dests == ["meta.h"]
    assert digest.fields == [ir.FieldRef("meta.b"), ir.Const(1, 1)]


def test_bind_types_expands_stacks():
    from repro.net.packet import SOURCE_ROUTE, ETHERNET

    program = ir.P4Program(name="p")
    program.parser = ir.ParserSpec(states=[
        ir.ParserState(
            name="start",
            extracts=[ir.Extract("ethernet", ETHERNET),
                      ir.ExtractStack("srcRoute", SOURCE_ROUTE, "bos",
                                      max_depth=4)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
    ])
    binds = program.bind_types()
    assert "ethernet" in binds
    assert {f"srcRoute{i}" for i in range(4)} <= set(binds)


def test_header_types_deduplicated():
    from repro.net.packet import IPV4, ETHERNET

    program = ir.P4Program(name="p")
    program.parser = ir.ParserSpec(states=[
        ir.ParserState(
            name="start",
            extracts=[ir.Extract("ethernet", ETHERNET),
                      ir.Extract("ipv4", IPV4),
                      ir.Extract("inner_ipv4", IPV4)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
    ])
    names = [t.name for t in program.header_types()]
    assert names.count("ipv4") == 1


# ---------------------------------------------------------------------------
# The apply declarations: apply_actions, apply_effect
# ---------------------------------------------------------------------------

def assign(path, value=1):
    return ir.AssignStmt(path, ir.Const(value, 8))


def test_table_apply_without_default_is_a_may_def():
    actions = {"set_a": ir.Action("set_a", body=[assign("meta.a")])}
    table = ir.Table(name="t", keys=[ir.TableKey("meta.k")],
                     actions=["set_a"])
    effect = ir.apply_effect(table, actions, None)
    assert effect.defs == ("meta.a",)
    assert effect.must == frozenset()
    assert effect.uses == {"meta.k"}
    # With a default action, some action always runs: must-def.
    effect = ir.apply_effect(table, actions, ("set_a", []))
    assert effect.must == {"meta.a"}


def test_a_table_listing_no_actions_may_run_any():
    actions = {"set_x": ir.Action("set_x", body=[assign("meta.x")])}
    table = ir.Table("t")
    assert ir.apply_actions(table, actions, None) == ["set_x"]
    assert ir.apply_effect(table, actions, None).defs == ("meta.x",)


def test_a_runtime_default_outside_the_list_joins_dispatch_and_must_defs():
    """A switch's default may name an action the table does not list
    (the codegen run memos key on it): the apply can then dispatch to
    it, and only what it writes too holds on every apply."""
    actions = {
        "set_ab": ir.Action("set_ab", body=[assign("meta.a"),
                                            assign("meta.b")]),
        "set_a": ir.Action("set_a", params=[("v", 8)], body=[
            ir.AssignStmt("meta.a", ir.FieldRef("param.v"))]),
        "branchy": ir.Action("branchy", body=[ir.IfStmt(
            ir.FieldRef("meta.c"), then_body=[assign("meta.a")])]),
    }
    table = ir.Table("t", actions=["set_ab"])
    assert ir.apply_actions(table, actions, None) == ["set_ab"]
    assert ir.apply_actions(table, actions, ("set_ab", [])) == ["set_ab"]
    assert ir.apply_actions(table, actions, ("set_a", [3])) == [
        "set_ab", "set_a"]
    effect = ir.apply_effect(table, actions, ("set_a", [3]))
    assert effect.defs == ("meta.a", "meta.b")
    assert effect.must == {"meta.a"}
    assert effect.uses == frozenset()  # param.* is action data
    # A branching action always writes nothing.
    effect = ir.apply_effect(table, actions, ("branchy", []))
    assert effect.defs == ("meta.a", "meta.b")
    assert effect.uses == {"meta.c"}
    assert effect.must == frozenset()


def test_register_stmts_are_side_effecting():
    write = ir.RegisterWrite("r", ir.Const(0, 8), ir.FieldRef("meta.a"))
    effect = ir.stmt_effect(write)
    assert effect.side_effects
    assert "meta.a" in effect.uses
    read = ir.RegisterRead("meta.b", "r", ir.Const(0, 8))
    effect = ir.stmt_effect(read)
    assert effect.defs == ("meta.b",) and effect.must == {"meta.b"}
    assert not effect.side_effects
