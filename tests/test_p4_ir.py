"""P4 IR tests: table match semantics, entry priority, tree walking."""

import dataclasses
import typing
from typing import List

import pytest

from repro.p4 import ir


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
    ``P4Expr`` or ``List[P4Expr]``, and its declared effect uses what
    they read: a statement kind added without its ``_EXPR_ATTRS`` row,
    or a leaf kind without its ``_EFFECTS`` row, fails here instead of
    being skipped by every analysis at once."""
    stmt, held = make_stmt(kind)
    assert {ref.path for ref in held} <= ir.stmt_effect(stmt).uses
    branching = kind in (ir.IfStmt, ir.ApplyTable)
    assert (kind in ir._EFFECTS) is not branching
    assert ir.stmt_exprs(stmt) == held
    assert all(a is b for a, b in zip(ir.stmt_exprs(stmt), held))
    before = dict(vars(stmt))
    assert ir.map_exprs(stmt, lambda expr: expr) is False
    assert all(vars(stmt)[name] is value for name, value in before.items())

    def rename(expr):
        return ir.FieldRef(expr.path + "_renamed")

    assert ir.map_exprs(stmt, rename) is bool(held)
    assert ir.stmt_exprs(stmt) == [rename(expr) for expr in held]


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
