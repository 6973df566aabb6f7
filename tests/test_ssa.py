"""SSA construction tests: phi placement, def-use integrity, proposals.

The optimizer's SSA rounds stand on :mod:`repro.analysis.ssa` getting
renaming right: exactly one phi per rejoining variable, def-use chains
that point at real statements, the constant lattice merged per incoming
version, and rewrite proposals (copy propagation / CSE / dead-branch
pruning) that are sound per the width rules.  These tests drive the
lift on hand-built IR where the expected SSA shape is known exactly.
"""

import pytest

from repro.analysis.ssa import (CopyOp, EntryOp, ExprOp, ExternOp, PhiOp,
                                Proposals, SSAFunction, SSAInfo, TableOp,
                                apply_proposals, eval_const,
                                merge_proposals, propose)
from repro.p4 import ir

IP = "standard_metadata.ingress_port"


def info_for(tables=None, actions=None, defaults=None, **meta):
    """An SSAInfo over ``meta.<name>`` fields with the given widths."""
    return SSAInfo(
        meta_width={f"meta.{name}": width for name, width in meta.items()},
        tables=dict(tables or {}), actions=dict(actions or {}),
        defaults=dict(defaults or {}))


def assign(dest, value):
    if isinstance(value, int):
        value = ir.Const(value, 32)
    return ir.AssignStmt(dest, value)


def rewrite_to_fixpoint(body, info):
    """Lift, propose and apply over ``body`` (in place) until a round
    changes nothing; the rewrites made, per pass."""
    totals = {"copyprop": 0, "cse": 0, "branch": 0, "dce": 0}
    for _ in range(8):
        counts = apply_proposals(
            [body], propose(SSAFunction.lift(body, info)))
        if not any(counts.values()):
            return totals
        for key, value in counts.items():
            totals[key] += value
    raise AssertionError(f"no fixpoint in 8 rounds: {totals}")


def node_of(fn, stmt):
    for node in fn.cfg.nodes:
        if node.stmt is stmt:
            return node
    raise AssertionError(f"statement not in CFG: {stmt}")


def all_phis(fn, var=None):
    out = []
    for phis in fn.phis.values():
        for name, value in phis.items():
            if var is None or name == var:
                out.append(value)
    return out


# ---------------------------------------------------------------------------
# Renaming and entry state
# ---------------------------------------------------------------------------

def test_straightline_versions_and_reaching_defs():
    read = assign("meta.y", ir.FieldRef("meta.x"))
    body = [assign("meta.x", 1), assign("meta.x", 2), read]
    fn = SSAFunction.lift(body, info_for(x=32, y=32))

    versions = [v for v in fn.values if v.var == "meta.x"]
    assert [v.version for v in versions] == [0, 1, 2]
    assert isinstance(versions[0].op, EntryOp) and versions[0].const == 0
    assert versions[1].const == 1 and versions[2].const == 2

    reaching = fn.envs[node_of(fn, read).index]["meta.x"]
    assert reaching is versions[2]
    assert any(consumer is read for consumer, _ in reaching.uses)
    assert not versions[1].uses  # the overwritten definition is unused


def test_entry_constants():
    read = assign("meta.y", ir.FieldRef("meta.x"))
    fn = SSAFunction.lift([read], info_for(x=8, y=8))
    env = fn.envs[node_of(fn, read).index]
    assert env["meta.x"].const == 0
    assert env["standard_metadata.egress_spec"].const == 0
    assert env[IP].const is None  # harness-supplied, unknown at entry


def test_write_mask_applied_to_constants():
    stmt = assign("meta.x", 0x1FF)  # meta.x is 8 bits wide
    fn = SSAFunction.lift([stmt], info_for(x=8))
    value = [v for v in fn.values if v.var == "meta.x" and v.version == 1][0]
    assert value.const == 0xFF


@pytest.mark.parametrize("op, const, const_first, decided", [
    ("||", 1, False, 1), ("||", 1, True, 1),
    ("&&", 0, False, 0), ("&&", 0, True, 0),
    ("||", 0, False, None), ("||", 0, True, None),
    ("&&", 1, False, None), ("&&", 1, True, None),
])
def test_a_deciding_constant_on_either_side_decides(op, const, const_first,
                                                    decided):
    """Expressions are pure, so ``x || 1`` is 1 as ``1 || x`` is; an
    undecided side (``x || 0``, ``1 && x``) must keep the field read."""
    sides = [ir.FieldRef("hdr.h.x"), ir.Const(const, 1)]
    if const_first:
        sides.reverse()
    assert eval_const(ir.BinExpr(op, *sides, 1), lambda path: None) == decided


# ---------------------------------------------------------------------------
# Phi placement
# ---------------------------------------------------------------------------

def branch(then_stmts, else_stmts, cond=None):
    return ir.IfStmt(cond or ir.BinExpr("==", ir.FieldRef(IP),
                                        ir.Const(1, 32), 1),
                     list(then_stmts), list(else_stmts))


def test_phi_only_for_diverging_variables():
    read = assign("meta.y", ir.FieldRef("meta.x"))
    body = [branch([assign("meta.x", 1)], [assign("meta.x", 2)]), read]
    fn = SSAFunction.lift(body, info_for(x=32, y=32, z=32))

    phis = all_phis(fn)
    assert len(phis) == 1 and phis[0].var == "meta.x"
    phi = phis[0]
    assert isinstance(phi.op, PhiOp)
    assert phi.const is None  # 1 vs 2: no agreed constant
    incoming = [value for _, value in phi.op.incoming]
    assert len(incoming) == 2 and incoming[0] is not incoming[1]
    assert {v.const for v in incoming} == {1, 2}
    # The read after the join observes the phi, and the phi records the
    # use of both incoming definitions.
    assert fn.envs[node_of(fn, read).index]["meta.x"] is phi
    assert any(consumer is read for consumer, _ in phi.uses)
    for value in incoming:
        assert any(consumer is phi.op for consumer, _ in value.uses)


def test_phi_constant_when_arms_agree():
    body = [branch([assign("meta.x", 7)], [assign("meta.x", 7)]),
            assign("meta.y", ir.FieldRef("meta.x"))]
    fn = SSAFunction.lift(body, info_for(x=32, y=32))
    (phi,) = all_phis(fn, "meta.x")
    assert phi.const == 7


def test_one_sided_write_merges_with_entry():
    body = [branch([assign("meta.x", 5)], []),
            assign("meta.y", ir.FieldRef("meta.x"))]
    fn = SSAFunction.lift(body, info_for(x=32, y=32))
    (phi,) = all_phis(fn, "meta.x")
    assert phi.const is None  # entry 0 vs 5
    incoming = [value for _, value in phi.op.incoming]
    assert any(isinstance(v.op, EntryOp) for v in incoming)


def test_phi_at_apply_rejoin():
    """hit/miss bodies are branch arms: a variable they write
    differently needs a phi at the post-apply join."""
    table = ir.Table(name="t", keys=[ir.TableKey(IP)], actions=[])
    apply_stmt = ir.ApplyTable("t", hit_body=[assign("meta.x", 1)],
                               miss_body=[assign("meta.x", 2)])
    read = assign("meta.y", ir.FieldRef("meta.x"))
    fn = SSAFunction.lift([apply_stmt, read],
                          info_for(tables={"t": table}, x=32, y=32))
    (phi,) = all_phis(fn, "meta.x")
    assert fn.envs[node_of(fn, read).index]["meta.x"] is phi


def test_apply_transfer_uses_action_contracts():
    """An action that may write meta.x invalidates its constant; a
    variable no action touches flows through the apply untouched."""
    set_x = ir.Action("set_x", params=[("v", 32)],
                      body=[assign("meta.x", ir.FieldRef("param.v"))])
    table = ir.Table(name="t", keys=[ir.TableKey(IP)], actions=["set_x"])
    apply_stmt = ir.ApplyTable("t")
    read_x = assign("meta.a", ir.FieldRef("meta.x"))
    read_z = assign("meta.b", ir.FieldRef("meta.z"))
    fn = SSAFunction.lift(
        [assign("meta.x", 5), assign("meta.z", 9), apply_stmt,
         read_x, read_z],
        info_for(tables={"t": table}, actions={"set_x": set_x},
                 x=32, z=32, a=32, b=32))
    env = fn.envs[node_of(fn, read_x).index]
    assert isinstance(env["meta.x"].op, TableOp)
    assert env["meta.x"].const is None  # hit args vary per entry
    assert env["meta.z"].const == 9    # no action writes meta.z


def test_a_store_an_apply_may_leave_in_place_is_live():
    """``set_x`` runs on a hit only: on a miss ``meta.x`` keeps what was
    stored before the apply, so that store is live although every read
    after the apply sees the table's value.  With ``set_x`` as the
    default too, every path overwrites it and the store is dead — unless
    the action branches, when it only *may* write."""
    set_x = ir.Action("set_x", params=[("v", 32)],
                      body=[assign("meta.x", ir.FieldRef("param.v"))])
    maybe_x = ir.Action("set_x", params=[("v", 32)], body=[ir.IfStmt(
        ir.FieldRef("param.v"), [assign("meta.x", ir.FieldRef("param.v"))])])
    table = ir.Table(name="t", keys=[ir.TableKey(IP)], actions=["set_x"])
    always = {"t": ("set_x", [1])}
    for action, defaults, dead in ((set_x, {}, False), (set_x, always, True),
                                   (maybe_x, always, False)):
        store = assign("meta.x", ir.FieldRef(IP))
        fn = SSAFunction.lift(
            [store, ir.ApplyTable("t"),
             ir.Digest("seen", [ir.FieldRef("meta.x")])],
            info_for(tables={"t": table}, actions={"set_x": action},
                     defaults=defaults, x=32))
        assert (id(store) in propose(fn).dead) == dead


def test_apply_transfer_constant_when_every_action_agrees():
    """A table whose every possible action (and known default) leaves
    meta.x at the same constant keeps the constant across the apply."""
    set3 = ir.Action("set3", body=[assign("meta.x", 3)])
    table = ir.Table(name="t", keys=[ir.TableKey(IP)], actions=["set3"])
    read = assign("meta.y", ir.FieldRef("meta.x"))
    fn = SSAFunction.lift(
        [ir.ApplyTable("t"), read],
        info_for(tables={"t": table}, actions={"set3": set3},
                 defaults={"t": ("set3", [])}, x=32, y=32))
    env = fn.envs[node_of(fn, read).index]
    assert env["meta.x"].const == 3
    props = propose(fn)
    assert props.subst[(id(read), "meta.x")] == ("const", 3)


# ---------------------------------------------------------------------------
# Def-use integrity
# ---------------------------------------------------------------------------

def test_def_use_integrity():
    """Every recorded use points at a statement that exists at that CFG
    node, or at a phi registered at that node."""
    table = ir.Table(name="t", keys=[ir.TableKey(IP)], actions=[])
    body = [
        assign("meta.x", ir.BinExpr("+", ir.FieldRef(IP),
                                    ir.Const(3, 32), 32)),
        branch([assign("meta.y", ir.FieldRef("meta.x"))],
               [assign("meta.y", 2)]),
        ir.ApplyTable("t", hit_body=[assign("meta.x", 0)]),
        ir.Digest("d", [ir.FieldRef("meta.y")]),
    ]
    fn = SSAFunction.lift(body, info_for(tables={"t": table}, x=32, y=32))
    for value in fn.values:
        assert 0 <= value.def_node < len(fn.cfg.nodes) or \
            value.def_node == -1
        for consumer, idx in value.uses:
            if isinstance(consumer, PhiOp):
                registered = fn.phis.get(idx, {})
                assert any(phi.op is consumer
                           for phi in registered.values())
            else:
                assert fn.cfg.nodes[idx].stmt is consumer


# ---------------------------------------------------------------------------
# Copies and proposals
# ---------------------------------------------------------------------------

def test_copy_detection_respects_widths():
    narrowing = assign("meta.narrow", ir.FieldRef("meta.wide"))
    widening = assign("meta.wide", ir.FieldRef("meta.narrow"))
    fn = SSAFunction.lift([narrowing, widening],
                          info_for(narrow=8, wide=16))
    by_stmt = {id(v.def_stmt): v for v in fn.values
               if v.def_stmt is not None}
    # 16 -> 8 truncates: not a copy; 8 -> 16 preserves bits: a copy.
    assert isinstance(by_stmt[id(narrowing)].op, ExprOp)
    assert isinstance(by_stmt[id(widening)].op, CopyOp)


def test_copy_and_constant_propagation_proposals():
    read = assign("meta.c", ir.FieldRef("meta.b"))
    body = [assign("meta.a", 5),
            assign("meta.b", ir.FieldRef("meta.a")), read]
    props = propose(SSAFunction.lift(body, info_for(a=32, b=32, c=32)))
    assert props.subst[(id(read), "meta.b")] == ("const", 5)
    assert props.subst[(id(body[1]), "meta.a")] == ("const", 5)


def test_cse_rewrites_recomputation_to_copy():
    expr = lambda: ir.BinExpr("+", ir.FieldRef(IP), ir.Const(3, 32), 32)
    first = assign("meta.a", expr())
    second = assign("meta.b", expr())
    props = propose(SSAFunction.lift([first, second],
                                     info_for(a=32, b=32)))
    assert props.cse == {id(second): "meta.a"}


def test_cse_blocked_by_narrower_source():
    """meta.a holds the sum masked to 8 bits; meta.b needs 16 — copying
    from a would drop bits, so the recomputation must stay."""
    expr = lambda: ir.BinExpr("+", ir.FieldRef(IP), ir.Const(3, 32), 32)
    first = assign("meta.a", expr())
    second = assign("meta.b", expr())
    props = propose(SSAFunction.lift([first, second],
                                     info_for(a=8, b=16)))
    assert id(second) not in props.cse


def test_cse_blocked_when_source_overwritten():
    expr = lambda: ir.BinExpr("+", ir.FieldRef(IP), ir.Const(3, 32), 32)
    first = assign("meta.a", expr())
    clobber = assign("meta.a", 0)
    second = assign("meta.b", expr())
    props = propose(SSAFunction.lift([first, clobber, second],
                                     info_for(a=32, b=32)))
    assert id(second) not in props.cse


def test_dead_branch_pruning_from_entry_constant():
    cond = ir.BinExpr("==", ir.FieldRef("meta.x"), ir.Const(0, 32), 1)
    dead_if = branch([assign("meta.y", 1)], [assign("meta.y", 2)],
                     cond=cond)
    props = propose(SSAFunction.lift([dead_if], info_for(x=32, y=32)))
    assert props.branches == {id(dead_if): True}


def test_merge_proposals_requires_agreement():
    stmt = assign("meta.c", ir.FieldRef("meta.b"))
    agreed = propose(SSAFunction.lift(
        [assign("meta.b", 4), stmt], info_for(b=32, c=32)))
    assert agreed.subst[(id(stmt), "meta.b")] == ("const", 4)
    # A second linearization that saw the statement but could not prove
    # the substitution vetoes it ...
    silent = Proposals(visited={id(stmt)})
    merged = merge_proposals([agreed, silent])
    assert (id(stmt), "meta.b") not in merged.subst
    # ... but one that never contained the statement has no say.
    unrelated = Proposals()
    merged = merge_proposals([agreed, unrelated])
    assert merged.subst[(id(stmt), "meta.b")] == ("const", 4)


def test_apply_proposals_fixpoint_collapses_copy_chain():
    body = [assign("meta.a", 5),
            assign("meta.b", ir.FieldRef("meta.a")),
            ir.Digest("d", [ir.FieldRef("meta.b")])]
    totals = rewrite_to_fixpoint(body, info_for(a=32, b=32))
    assert totals["copyprop"] >= 1 and totals["dce"] >= 2
    (digest,) = body  # both assignments died
    assert isinstance(digest, ir.Digest)
    (field,) = digest.fields
    assert isinstance(field, ir.Const) and field.value == 5


def test_apply_proposals_prunes_decided_branch():
    taken = assign("meta.y", 1)
    dead_if = branch([taken], [assign("meta.y", 2)],
                     cond=ir.BinExpr("==", ir.FieldRef("meta.x"),
                                     ir.Const(0, 32), 1))
    body = [dead_if, ir.Digest("d", [ir.FieldRef("meta.y")])]
    fn = SSAFunction.lift(body, info_for(x=32, y=32))
    counts = apply_proposals([body], propose(fn))
    assert counts["branch"] == 1
    assert dead_if not in body and taken in body


# ---------------------------------------------------------------------------
# Externs: precise uses and defs
# ---------------------------------------------------------------------------

def hash_extern(args, dests):
    return ir.ExternCall("hash", lambda *values: sum(values),
                         args=list(args), dests=list(dests))


def test_constant_propagates_across_an_extern():
    """An extern defines only its dests, so a constant assigned before
    the hash is still known after it — and propagates into its args."""
    extern = hash_extern([ir.FieldRef("meta.k"), ir.FieldRef(IP)],
                         ["meta.h"])
    read = assign("meta.out", ir.FieldRef("meta.k"))
    body = [assign("meta.k", 5), extern, read]
    props = propose(SSAFunction.lift(body, info_for(k=32, h=32, out=32)))
    assert props.subst[(id(read), "meta.k")] == ("const", 5)
    assert props.subst[(id(extern), "meta.k")] == ("const", 5)
    body.append(ir.Digest("d", [ir.FieldRef("meta.out"),
                                ir.FieldRef("meta.h")]))
    rewrite_to_fixpoint(body, info_for(k=32, h=32, out=32))
    assert [type(s) for s in body] == [ir.ExternCall, ir.Digest]
    assert body[0].args[0] == ir.Const(5, 3)


def test_extern_dest_write_kills_exactly_that_variable():
    extern = hash_extern([ir.FieldRef("meta.a")], ["meta.h"])
    body = [assign("meta.a", 1), assign("meta.h", 2), assign("meta.b", 3),
            extern]
    fn = SSAFunction.lift(body, info_for(a=32, h=32, b=32))
    before = fn.envs[node_of(fn, extern).index]
    after = dict(before)
    for value in fn.values:
        if value.def_node == node_of(fn, extern).index:
            after[value.var] = value
    changed = {var for var in before if after[var] is not before[var]}
    assert changed == {"meta.h"}
    assert isinstance(after["meta.h"].op, ExternOp)
    assert after["meta.h"].const is None
    # ...and it uses exactly its declared reads.
    users = {var for var, value in before.items()
             if any(consumer is extern for consumer, _ in value.uses)}
    assert users == {"meta.a"}
