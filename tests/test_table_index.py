"""Table-index unit tests: insert/delete/priority/LPM tie-break order.

The codegen engine indexes entries (exact hash map, LPM prefix-length
buckets, sorted scan; :mod:`repro.p4.tableindex`); the interpreter
scans linearly with ``_beats``.
Every scenario here runs on both engines and asserts the same winning
entry — plus the explicitly expected one — including churn that forces
index invalidation and rebuild.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.packet import HeaderType
from repro.p4 import ENGINES, ir
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.tableindex import _MEMO_CAP, _RBUCKET_MIN

H = HeaderType("h", [("a", 32), ("b", 32)])


def make_program(keys, run=False):
    """One table ``t`` with the given keys; the hit action records its
    argument in egress_spec.

    With ``run`` the argument goes through ``meta.out`` and two keyless
    loader tables stand in front of ``t``: while ``t``'s arms are pure
    (``set_out``) and its key is a port, the codegen engine memoises the
    three applies as one run; ``set_alt`` computes, so a default that
    brings it in takes ``t`` out of the run at that build."""
    program = ir.P4Program(
        name="tidx",
        parser=ir.ParserSpec(states=[
            ir.ParserState("start", extracts=[ir.Extract("h", H)],
                           transitions=[ir.Transition(ir.ACCEPT)]),
        ]),
        metadata=[("out", 32), ("hi", 8), ("lo", 8)],
        emit_order=["h"],
    )
    dest = "meta.out" if run else "standard_metadata.egress_spec"
    program.add_action(ir.Action("set_out", params=[("v", 32)], body=[
        ir.AssignStmt(dest, ir.FieldRef("param.v")),
    ]))
    # Not in t's declared actions: only a default can bring it in.
    program.add_action(ir.Action("set_alt", params=[("v", 32)], body=[
        ir.AssignStmt(dest, ir.BinExpr("+", ir.FieldRef("param.v"),
                                       ir.Const(64, 32), 32)),
    ]))
    program.add_table(ir.Table("t", keys=keys, actions=["set_out"]))
    program.ingress = [ir.ApplyTable("t")]
    if run:
        for value, field in enumerate(("hi", "lo"), 1):
            program.add_action(ir.Action(f"load_{field}", params=[("v", 8)],
                                         body=[ir.AssignStmt(
                                             f"meta.{field}",
                                             ir.FieldRef("param.v"))]))
            program.add_table(ir.Table(
                f"ctl_{field}", actions=[f"load_{field}"],
                default_action=(f"load_{field}", [value])))
        total = ir.BinExpr("+", ir.FieldRef("meta.out"), ir.BinExpr(
            "+", ir.FieldRef("meta.hi"), ir.FieldRef("meta.lo"), 32), 32)
        program.ingress = [
            ir.ApplyTable("ctl_hi"), ir.ApplyTable("ctl_lo"),
            ir.ApplyTable("t"),
            ir.AssignStmt("standard_metadata.egress_spec", total)]
    return program


def winners(program, entries, probes, default=None):
    """For each probe packet, the egress_spec chosen by each engine."""
    results = []
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        if default is not None:
            sw.set_default_action("t", *default)
        for match, args, priority in entries:
            sw.insert_entry("t", match, "set_out", args, priority=priority)
        row = []
        for a, b in probes:
            packet_out = sw.process(_packet(a, b), 1)
            row.append(packet_out[0][0] if packet_out else None)
        results.append(row)
    assert results[0] == results[1], "engines disagree"
    return results[0]


def _packet(a, b):
    from repro.net.packet import Packet
    return Packet(headers=[H(a=a, b=b)], payload_len=10)


def test_exact_match_and_miss():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    got = winners(program,
                  entries=[([5], [100], 0), ([9], [200], 0)],
                  probes=[(5, 0), (9, 0), (7, 0)])
    # A miss with no default leaves egress_spec 0 (delivered on port 0).
    assert got == [100, 200, 0]


def test_exact_first_inserted_wins_duplicates():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    got = winners(program,
                  entries=[([5], [100], 0), ([5], [200], 0)],
                  probes=[(5, 0)])
    assert got == [100]


def test_lpm_longest_prefix_beats_priority():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.LPM)])
    value = 0x0A000001  # 10.0.0.1
    got = winners(program, entries=[
        ([(0x0A000000, 8)], [100], 999),   # /8, huge priority
        ([(0x0A000000, 24)], [200], 0),    # /24 must still win
        ([(0, 0)], [300], 0),              # catch-all
    ], probes=[(value, 0), (0x0B000001, 0)])
    assert got == [200, 300]


def test_lpm_same_length_priority_then_insertion():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.LPM)])
    value = 0x0A000001
    # Same /8 prefix: higher priority wins; equal priority -> first in.
    got = winners(program, entries=[
        ([(0x0A000000, 8)], [100], 1),
        ([(0x0A000000, 8)], [200], 5),
        ([(0x0A000000, 8)], [300], 5),
    ], probes=[(value, 0)])
    assert got == [200]


def test_ternary_priority_and_insertion_order():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.TERNARY)])
    got = winners(program, entries=[
        ([(0x10, 0xF0)], [100], 1),
        ([(0x10, 0xF0)], [200], 9),   # higher priority wins
        ([(0x10, 0xF0)], [300], 9),   # tie -> first inserted (200)
    ], probes=[(0x1A, 0)])
    assert got == [200]


def test_range_match():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.RANGE)])
    got = winners(program, entries=[
        ([(10, 20)], [100], 0),
        ([(15, 30)], [200], 5),
    ], probes=[(12, 0), (17, 0), (25, 0), (40, 0)])
    assert got == [100, 200, 200, 0]


def test_mixed_lpm_plus_exact_key():
    program = make_program([
        ir.TableKey("hdr.h.a", ir.MatchKind.LPM),
        ir.TableKey("hdr.h.b", ir.MatchKind.EXACT),
    ])
    got = winners(program, entries=[
        ([(0x0A000000, 8), 7], [100], 0),
        ([(0x0A000000, 24), 7], [200], 0),
        ([(0x0A000000, 24), 8], [300], 0),
    ], probes=[(0x0A000001, 7), (0x0A000001, 8), (0x0AFF0001, 7)])
    assert got == [200, 300, 100]


def test_default_action_used_on_miss_and_tracks_changes():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        sw.set_default_action("t", "set_out", [44])
        assert sw.process(_packet(1, 0), 1)[0][0] == 44
        # Changing the default after lookups must take effect.
        sw.set_default_action("t", "set_out", [55])
        assert sw.process(_packet(1, 0), 1)[0][0] == 55


# ---------------------------------------------------------------------------
# Bulk control-plane path: insert_entries/delete_entries fold into the
# live index instead of invalidating it.  Same win-order contract.
# ---------------------------------------------------------------------------

def winners_bulk(program, entries, probes, deletions=()):
    """Like :func:`winners` but installing through ``insert_entries``,
    across both engines, with optional bulk deletions (indexes into
    ``entries``) applied after a first lookup warmed the index."""
    results = []
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        created = sw.insert_entries(
            "t", [(match, "set_out", args, priority)
                  for match, args, priority in entries])
        sw.process(_packet(*probes[0]), 1)  # build the index
        if deletions:
            sw.delete_entries("t", [created[i] for i in deletions])
        row = []
        for a, b in probes:
            packet_out = sw.process(_packet(a, b), 1)
            row.append(packet_out[0][0] if packet_out else None)
        results.append(row)
    assert all(row == results[0] for row in results), "engines disagree"
    return results[0]


def test_range_buckets_engage_and_preserve_win_order():
    """Above _RBUCKET_MIN entries with a degenerate range column the
    index switches to hashed range buckets; residual wide-range entries
    must still win by priority."""
    program = make_program([
        ir.TableKey("hdr.h.a", ir.MatchKind.RANGE),
        ir.TableKey("hdr.h.b", ir.MatchKind.RANGE),
    ])
    n = _RBUCKET_MIN + 8
    entries = [([(i, i), (0, 100)], [1000 + i], 1) for i in range(n)]
    # Wide-range entries: one outranking the buckets, one outranked.
    entries.append(([(0, 2 ** 32 - 1), (50, 60)], [7], 5))
    entries.append(([(0, 2 ** 32 - 1), (0, 100)], [8], 0))
    probes = ([(i, 10) for i in range(0, n, 7)]
              + [(3, 55), (n + 50, 55), (n + 50, 99)])
    expected = []
    for a, b in probes:
        if 50 <= b <= 60:
            expected.append(7)
        elif a < n:
            expected.append(1000 + a)
        else:
            expected.append(8)
    got = winners_bulk(program, entries, probes)
    assert got == expected
    # White box: the codegen engine actually chose the bucket layout.
    sw = Bmv2Switch(program, engine="codegen")
    sw.insert_entries("t", [(m, "set_out", a, p) for m, a, p in entries])
    sw.process(_packet(0, 0), 1)
    index = sw._engine.tables["t"]
    assert index._rb_col == 0
    assert len(index._rb_buckets) == n
    assert len(index._rb_residual) == 2


# ---------------------------------------------------------------------------
# Every write path, interleaved, from an empty switch
# ---------------------------------------------------------------------------

_PREFIXES = ((0, 0), (0x0A000000, 8), (0x0A000100, 24), (0x0A000101, 32),
             (0x0B000000, 8))

#: name -> (table keys, spec strategy per key, probe values of hdr.h.a).
_INTERLEAVED_TABLES = {
    "exact": (
        [ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)],
        [st.integers(0, 7)],
        list(range(9))),
    "lpm": (
        [ir.TableKey("hdr.h.a", ir.MatchKind.LPM),
         ir.TableKey("hdr.h.b", ir.MatchKind.EXACT)],
        [st.sampled_from(_PREFIXES), st.integers(0, 1)],
        [0x0A000101, 0x0A000177, 0x0A330000, 0x0B000001, 0x0C000000]),
    "priority-scan": (
        [ir.TableKey("hdr.h.a", ir.MatchKind.TERNARY)],
        [st.tuples(st.integers(0, 15), st.integers(0, 15))],
        list(range(0, 16, 3))),
    "rbucket": (
        [ir.TableKey("hdr.h.a", ir.MatchKind.RANGE),
         ir.TableKey("hdr.h.b", ir.MatchKind.RANGE)],
        [st.integers(0, 90).flatmap(lambda lo: st.sampled_from(
            [(lo, lo), (lo, lo), (lo, lo + 40)])),
         st.sampled_from([(0, 1), (0, 0), (1, 1)])],
        list(range(0, 130, 7))),
    # ``t`` keyed on the ingress port behind two loader tables: a member
    # of a memoised apply run (see make_program); the probes are ports.
    "run": (
        [ir.TableKey("standard_metadata.ingress_port", ir.MatchKind.EXACT)],
        [st.integers(0, 4)],
        list(range(6))),
}


def _rows(specs, max_size):
    """``(match, priority)`` rows over a small spec domain, so equal
    keys and ties occur."""
    return st.lists(st.tuples(st.tuples(*specs), st.integers(0, 2)),
                    max_size=max_size)


@st.composite
def _interleavings(draw):
    kind = draw(st.sampled_from(sorted(_INTERLEAVED_TABLES)))
    specs = _INTERLEAVED_TABLES[kind][1]
    where = st.sampled_from(["a", "b", "both"])
    one = st.sampled_from(["a", "b"])
    picks = st.lists(st.integers(0, 200), min_size=1, max_size=6)
    step = st.one_of(
        st.tuples(st.just("insert_entries"), where, _rows(specs, 8)),
        st.tuples(st.just("insert_entry"), where, _rows(specs, 1)),
        st.tuples(st.just("delete_entries"), one, picks),
        st.tuples(st.just("delete_entry"), one, picks),
        st.tuples(st.just("clear_table"), one),
        st.tuples(st.just("set_default_action"), where,
                  st.sampled_from(["set_out", "set_out", "set_alt"]),
                  st.integers(300, 302)),
        st.tuples(st.just("lookup"),))
    return kind, draw(st.lists(step, max_size=12))


def _degenerate_run(n, base=0, priority=1):
    return [(((base + i, base + i), (0, 1)), priority) for i in range(n)]


def _memo_script(rows, late):
    """Each of ``insert_entry``, ``delete_entries`` and ``clear_table``
    landing on a lookup memo the probes before it just filled."""
    return [("insert_entries", "both", rows), ("lookup",),
            ("insert_entry", "a", [late]), ("lookup",),
            ("delete_entries", "a", [0, 1]), ("lookup",),
            ("clear_table", "a"), ("lookup",),
            ("insert_entry", "b", [late]), ("delete_entries", "b", [0]),
            ("clear_table", "b")]


_MEMO_NOTES = frozenset(
    f"{op}: write emptied a warm lookup memo"
    for op in ("insert_entry", "delete_entries", "clear_table")
) | {"memoised a miss"}


@settings(max_examples=120, deadline=None)
@given(script=_interleavings(), must=st.just(frozenset()),
       cap=st.just(_MEMO_CAP))
# The lookup memo of every index kind that searches (LPM buckets, the
# priority scan, range buckets), warm when each kind of write lands.
@example(script=("lpm", _memo_script(
    [(((0x0A000000, 8), 0), 0), (((0x0A000100, 24), 1), 0)],
    (((0x0A000101, 32), 0), 1))), must=_MEMO_NOTES, cap=_MEMO_CAP)
@example(script=("priority-scan", _memo_script(
    [(((3, 15),), 0), (((0, 0),), 0)], (((6, 7),), 2))),
    must=_MEMO_NOTES, cap=_MEMO_CAP)
@example(script=("rbucket", _memo_script(
    _degenerate_run(_RBUCKET_MIN + 4) + [(((0, 120), (1, 1)), 2)],
    (((7, 7), (0, 0)), 2))),
    must=_MEMO_NOTES | {"bucketed by folds alone"}, cap=_MEMO_CAP)
# More distinct probe keys (5 addresses x 2) than the memo may hold:
# it stops filling, and the probes it has no room for are searched.
@example(script=("lpm", [
    ("insert_entries", "both", [(((0x0A000000, 8), 0), 0)]),
    ("lookup",),
    ("insert_entry", "a", [(((0x0A000100, 24), 1), 0)]),
]), must=frozenset({"memo full, lookup still right"}), cap=4)
# The scan crosses _RBUCKET_MIN while folding, never rebuilding; then a
# bucket loses its last entry, and a residual (wide) row still ranks.
@example(script=("rbucket", [
    ("insert_entries", "both", _degenerate_run(_RBUCKET_MIN - 2)),
    ("lookup",),
    ("insert_entries", "both", _degenerate_run(8, base=100)
     + [(((0, 120), (1, 1)), 2)]),
    ("lookup",),
    ("delete_entries", "a", [3]),
    ("lookup",),
    ("insert_entry", "a", [(((3, 3), (0, 0)), 0)]),
    ("delete_entry", "b", [0]),
]), must=frozenset({"bucketed by folds alone", "emptied a bucket",
                    "deleted a shared entry from one switch"}), cap=_MEMO_CAP)
# A second batch repeats a key of the first: the fold bails out and the
# next lookup rebuilds; deleting the earlier row re-exposes the later.
@example(script=("exact", [
    ("insert_entries", "a", [((5,), 0), ((6,), 0)]),
    ("insert_entries", "a", [((7,), 0), ((5,), 9)]),
    ("lookup",),
    ("delete_entries", "a", [0]),
    ("clear_table", "a"),
    ("insert_entries", "a", [((5,), 0)]),
]), must=frozenset({"duplicate-key bail-out"}), cap=_MEMO_CAP)
@example(script=("lpm", [
    ("insert_entries", "both", [(((0x0A000000, 8), 0), 0),
                                (((0x0A000100, 24), 0), 0)]),
    ("insert_entries", "both", [(((0x0A000000, 8), 0), 5)]),
    ("delete_entries", "b", [1]),
]), must=frozenset({"duplicate-key bail-out",
                    "deleted a shared entry from one switch"}), cap=_MEMO_CAP)
# The miss path: no default -> an action (a build), new arguments (a
# rebind, the index kept), an undeclared action (a build).
@example(script=("exact", [
    ("insert_entries", "a", [((5,), 0)]),
    ("set_default_action", "both", "set_out", 300),
    ("lookup",),
    ("set_default_action", "a", "set_out", 301),
    ("lookup",),
    ("set_default_action", "a", "set_alt", 301),
]), must=frozenset({"default rebound", "default recompiled"}), cap=_MEMO_CAP)
# Single-entry writes fold like batches of one: a warm index stays
# clean through them and the lookups after them rebuild nothing.
@example(script=("lpm", [
    ("insert_entries", "a", [(((0x0A000000, 8), 0), 0)]),
    ("lookup",),
    ("insert_entry", "a", [(((0x0A000100, 24), 0), 1)]),
    ("delete_entry", "a", [0]),
]), must=frozenset({"single write folded"}), cap=_MEMO_CAP)
# The memoised run against every writer of its member ``t``: each
# write empties the memo before the next packet; a default from none
# to an action, then to new arguments (a rebind), then to an action
# that computes (``t`` leaves the run at that build, the two loaders
# stay one) and back (it joins again), with writes in between.
@example(script=("run", [
    ("lookup",),
    ("insert_entry", "a", [((2,), 0)]),
    ("insert_entries", "both", [((1,), 0), ((3,), 0)]),
    ("lookup",),
    ("set_default_action", "both", "set_out", 300),
    ("set_default_action", "a", "set_out", 301),
    ("delete_entry", "a", [0]),
    ("delete_entries", "b", [1]),
    ("lookup",),
    ("set_default_action", "a", "set_alt", 302),
    ("insert_entry", "a", [((4,), 0)]),
    ("lookup",),
    ("clear_table", "a"),
    ("set_default_action", "a", "set_out", 300),
    ("clear_table", "b"),
]), must=frozenset({"member write emptied a warm memo", "default rebound",
                    "default recompiled", "left the run", "joined the run",
                    "wrote a non-member beside a run"}), cap=_MEMO_CAP)
def test_interleaved_writes_match_the_reference_scan(script, must, cap):
    """insert_entries / delete_entries / insert_entry / delete_entry /
    clear_table / set_default_action and lookups, interleaved from a
    fresh switch, over exact, LPM, priority-scan and range-bucket
    tables and one that is a member of a memoised apply run: after
    every step the codegen engine picks the entry — or, on a miss, the
    default — the interpreter's scan picks, and every answer a lookup
    memo holds *is* an entry that is still installed.

    Two codegen switches run side by side (each against its own
    interpreter twin) and may be handed the *same* entry values, as the
    Aether controllers do.  ``cap`` is the lookup memos' capacity, which
    the engine reads when it emits."""
    with mock.patch("repro.p4.codegen._MEMO_CAP", cap):
        _interleaved_writes_match_the_reference_scan(script, must, cap)


def _interleaved_writes_match_the_reference_scan(script, must, cap):
    kind, steps = script
    keys, _, probes = _INTERLEAVED_TABLES[kind]
    program = make_program(keys, run=kind == "run")
    switches = {side: (Bmv2Switch(program, engine="codegen"),
                       Bmv2Switch(program, engine="interp"))
                for side in "ab"}
    installed = {"a": [], "b": []}
    serial = itertools.count(1)  # every row's action data: who won
    seen = set()

    def index(side):
        return switches[side][0]._engine.tables["t"]

    def memos(side):
        """The run memos ``t`` is a member of (white box)."""
        engine = switches[side][0]._engine
        return [engine._globals[name]
                for name in engine._run_memos.get("t", ())]

    def check():
        for side, (codegen, reference) in switches.items():
            fills = []
            held, filled = len(index(side).memo), index(side).memo_fills
            for _ in range(2):
                for a in probes:
                    port = a if kind == "run" else 1
                    for b in (0, 1):
                        got = codegen.process(_packet(a, b), port)
                        want = reference.process(_packet(a, b), port)
                        assert got[0][0] == want[0][0], (side, a, b)
                fills.append(codegen._engine.run_fills)
            # A port seen since the last write never fills again.
            assert fills[0] == fills[1]
            assert all(len(memo) == len(probes) for memo in memos(side))
            # Nor does a key: the lookup memo holds every probe (exact
            # tables keep none) or, full, as many as it may.
            memo = index(side).memo
            asked = 0 if index(side)._mode == "exact" else (
                len(probes) * (1 if len(keys) == 1 else 2))
            assert len(memo) == min(asked, cap)
            assert index(side).memo_fills - filled == len(memo) - held
            if None in memo.values():
                seen.add("memoised a miss")
            if asked > cap:
                seen.add("memo full, lookup still right")

    def written(side):
        """What the control plane holds for ``t`` (the interp twin's)."""
        reference = switches[side][1]
        return list(reference.entries["t"]), reference.default_actions["t"]

    for step in steps + [("lookup",)]:
        op = step[0]
        sides = "ab" if op != "lookup" and step[1] == "both" else step[1:2]
        was = {side: (bool(memos(side)), any(memos(side)), written(side))
               for side in "ab"}
        was_warm = {side: bool(index(side).memo) for side in "ab"}
        folded = []  # (side, rebuilds before) of clean single writes
        if op in ("insert_entries", "insert_entry"):
            rows = [(match, "set_out", [next(serial)], priority)
                    for match, priority in step[2]]
            if op == "insert_entry" and not rows:
                continue
            created = None
            for side in sides:
                was_clean = not index(side)._dirty
                rebuilds = index(side).rebuilds
                for sw in switches[side]:
                    if op == "insert_entry":
                        entry = (sw.insert_entry("t", *rows[0][:3],
                                                 priority=rows[0][3])
                                 if created is None else
                                 sw.insert_entries("t", created)[0])
                        created = [entry]
                    else:
                        # The first switch builds the entries; every
                        # other one installs those very values.
                        created = sw.insert_entries(
                            "t", rows if created is None else created)
                installed[side].extend(created)
                if rows and was_clean and index(side)._dirty:
                    seen.add("duplicate-key bail-out")
                elif op == "insert_entry" and was_clean:
                    folded.append((side, rebuilds))
        elif op in ("delete_entries", "delete_entry"):
            side = step[1]
            held = installed[side]
            if not held:
                continue
            chosen = sorted({pick % len(held) for pick in step[2]},
                            reverse=True)
            if op == "delete_entry":
                chosen = chosen[:1]
            victims = [held.pop(i) for i in chosen]
            other = installed["b" if side == "a" else "a"]
            if any(v is o for v in victims for o in other):
                seen.add("deleted a shared entry from one switch")
            buckets = len(index(side)._rb_buckets)
            was_clean = not index(side)._dirty
            rebuilds = index(side).rebuilds
            for sw in switches[side]:
                if op == "delete_entry":
                    sw.delete_entry("t", victims[0])
                else:
                    sw.delete_entries("t", victims)
            if op == "delete_entry" and was_clean \
                    and not index(side)._dirty:
                folded.append((side, rebuilds))
            if not index(side)._dirty and \
                    len(index(side)._rb_buckets) < buckets:
                seen.add("emptied a bucket")
        elif op == "clear_table":
            for sw in switches[step[1]]:
                sw.clear_table("t")
            installed[step[1]].clear()
        elif op == "set_default_action":
            for side in sides:
                engine = switches[side][0]._engine
                before = (index(side), engine.rebinds)
                for sw in switches[side]:
                    sw.set_default_action("t", step[2], [step[3]])
                if engine.rebinds > before[1]:
                    assert index(side) is before[0]
                    seen.add("default rebound")
                elif index(side) is not before[0]:
                    seen.add("default recompiled")
        else:
            check()
        for side in "ab":
            if index(side)._rb_col is not None and not index(side).rebuilds:
                seen.add("bucketed by folds alone")
            member, warm, held = was[side]
            installed_now = written(side)[0]
            if installed_now != held[0]:
                # The entries changed: the index forgot every answer.
                assert not index(side).memo
                if was_warm[side]:
                    seen.add(f"{op}: write emptied a warm lookup memo")
            # Every memoised answer is an installed entry, itself.
            alive = {id(entry) for entry in installed_now}
            assert all(id(entry) in alive
                       for entry in index(side).memo.values()
                       if entry is not None)
            if written(side) != held:
                # Whatever a memo held for ``t`` went with the write.
                assert not any(memos(side))
                if member and warm:
                    seen.add("member write emptied a warm memo")
                engine = switches[side][0]._engine
                if not member and engine.run_counts()["sites"]:
                    seen.add("wrote a non-member beside a run")
            if member != bool(memos(side)):
                seen.add("left the run" if member else "joined the run")
        for side, rebuilds in folded:
            check()  # a folded single write parks no rebuild
            assert index(side).rebuilds == rebuilds
            seen.add("single write folded")
    assert must <= seen, must - seen


def test_index_is_clean_from_empty_and_lazy_after_single_writes():
    """The rule of tableindex.py's docstring, as rebuild/fold counts
    (which survive an engine recompile): every write folds, a batch or
    a single entry; only ``clear_table`` and a repeated key leave the
    index behind, for one lazy rebuild."""
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    sw = Bmv2Switch(program)
    index = sw._engine.tables["t"]
    assert not index._dirty

    def counts(rebuilds, folds):
        # An exact table inlines its hash probe: its memo is never used.
        return {"t": {"rebuilds": rebuilds, "folds": folds,
                      "memo_fills": 0, "memo_clears": 0}}

    first = sw.insert_entries("t", [([5], "set_out", [100], 0)])
    sw.delete_entries("t", first)
    sw.insert_entries("t", [([5], "set_out", [101], 0)])
    assert sw.index_counts() == counts(0, 3)
    assert sw.process(_packet(5, 0), 1)[0][0] == 101
    single = sw.insert_entry("t", [6], "set_out", [102])
    assert sw.process(_packet(6, 0), 1)[0][0] == 102
    sw.delete_entry("t", single)
    assert sw.process(_packet(6, 0), 1)[0][0] == 0
    assert not index._dirty
    assert sw.index_counts() == counts(0, 5)
    # A repeated key: rank decides, so the next lookup rebuilds, once.
    sw.insert_entry("t", [5], "set_out", [103], priority=7)
    assert index._dirty and index.rebuilds == 0
    assert [sw.process(_packet(5, 0), 1)[0][0] for _ in (1, 2)] == [103, 103]
    assert sw.index_counts() == counts(1, 5)
    sw.clear_table("t")
    assert index._dirty
    sw.insert_entry("t", [6], "set_out", [104])  # absorbed by the rebuild
    assert [sw.process(_packet(a, 0), 1)[0][0] for a in (5, 6)] == [0, 104]
    assert sw.index_counts() == counts(2, 5)
    # A recompile makes a new index over a non-empty table: behind.
    sw.set_default_action("t", "set_out", [9])
    rebuilt = sw._engine.tables["t"]
    assert rebuilt is not index and rebuilt._dirty
    assert sw.index_counts() == counts(2, 5)
    assert [sw.process(_packet(a, 0), 1)[0][0] for a in (5, 6, 7)] == [
        9, 104, 9]
    assert sw.index_counts() == counts(3, 5)
    assert Bmv2Switch(program, engine="interp").index_counts() == {}


@pytest.mark.parametrize("kind", [ir.MatchKind.EXACT, ir.MatchKind.LPM,
                                  ir.MatchKind.TERNARY])
def test_delete_entry_removes_one_installed_entry(kind):
    """``delete_entry`` removes the first installed entry *equal* to its
    argument; the index drops by identity.  Two equal entries, and one
    object installed twice: the other stays installed and matches."""
    program = make_program([ir.TableKey("hdr.h.a", kind)])
    spec = {ir.MatchKind.EXACT: 5, ir.MatchKind.LPM: (5, 32),
            ir.MatchKind.TERNARY: (5, 0xFFFFFFFF)}[kind]
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        sw.insert_entries("t", [([spec], "set_out", [100], 0)])
        twin = sw.insert_entry("t", [spec], "set_out", [100])
        sw.insert_entries("t", [twin])  # the same object, a second time
        for left in (2, 1):
            assert sw.process(_packet(5, 0), 1)[0][0] == 100
            sw.delete_entry("t", ir.TableEntry([spec], "set_out", [100]))
            assert len(sw.entries["t"]) == left
        assert sw.process(_packet(5, 0), 1)[0][0] == 100
        sw.delete_entry("t", twin)
        assert sw.process(_packet(5, 0), 1)[0][0] == 0


def test_delete_entry_looks_for_the_object_before_an_equal():
    """Handed the installed object, ``delete_entry`` finds it without
    one ``TableEntry.__eq__`` call, at the tail of a 1,000-row table;
    only a handle that is not itself installed is compared."""
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    eq, calls = ir.TableEntry.__eq__, []

    def counted(left, right):
        calls.append(left)
        return eq(left, right)

    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        rows = sw.insert_entries("t", [([a], "set_out", [a + 1], 0)
                                       for a in range(1000)])
        del calls[:]
        with mock.patch.object(ir.TableEntry, "__eq__", counted):
            sw.delete_entry("t", rows[-1])
            assert calls == []
            sw.delete_entry("t", ir.TableEntry([500], "set_out", [501]))
            assert len(calls) == 501
        assert len(sw.entries["t"]) == 998
        assert [sw.process(_packet(a, 0), 1)[0][0]
                for a in (499, 500, 998, 999)] == [500, 0, 999, 0]


def test_bulk_insert_validates_like_single_insert():
    from repro.p4.bmv2 import P4RuntimeError

    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    sw = Bmv2Switch(program)
    with pytest.raises(P4RuntimeError):
        sw.insert_entries("t", [([1], "no_such_action", None, 0)])
    with pytest.raises(P4RuntimeError):
        sw.insert_entries("t", [([1], "set_out", [2, 3], 0)])
    with pytest.raises(P4RuntimeError):
        sw.insert_entries("t", [([1, 2], "set_out", [2], 0)])
    with pytest.raises(P4RuntimeError):
        sw.delete_entries("t", [ir.TableEntry(match=[1], action="set_out",
                                              args=[2])])


@pytest.mark.parametrize("kind", [ir.MatchKind.EXACT, ir.MatchKind.LPM,
                                  ir.MatchKind.TERNARY])
def test_insert_delete_churn_invalidates_index(kind):
    program = make_program([ir.TableKey("hdr.h.a", kind)])
    specs = {
        ir.MatchKind.EXACT: (5, 5),
        ir.MatchKind.LPM: ((5, 32), (5, 32)),
        ir.MatchKind.TERNARY: ((5, 0xFFFFFFFF), (5, 0xFFFFFFFF)),
    }
    spec_a, spec_b = specs[kind]
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        entry = sw.insert_entry("t", [spec_a], "set_out", [100], priority=1)
        assert sw.process(_packet(5, 0), 1)[0][0] == 100
        # Insert a higher-priority entry after the index was built.
        sw.insert_entry("t", [spec_b], "set_out", [200], priority=9)
        assert sw.process(_packet(5, 0), 1)[0][0] == 200
        sw.delete_entry("t", entry)
        assert sw.process(_packet(5, 0), 1)[0][0] == 200
        sw.clear_table("t")
        assert sw.process(_packet(5, 0), 1)[0][0] == 0  # miss, no default


# ---------------------------------------------------------------------------
# Compiled scan matchers
# ---------------------------------------------------------------------------

def _kinds_tuples(max_keys=4):
    kinds = (ir.MatchKind.EXACT, ir.MatchKind.TERNARY, ir.MatchKind.RANGE)
    for n in range(1, max_keys + 1):
        yield from itertools.product(kinds, repeat=n)


def _random_spec(rng, kind, wide=0.3):
    """A match spec over a small domain, so probes hit and miss."""
    if kind is ir.MatchKind.EXACT:
        return rng.randrange(12)
    if kind is ir.MatchKind.TERNARY:
        return (rng.randrange(16), rng.randrange(16))
    if kind is ir.MatchKind.LPM:
        return (rng.randrange(1 << 32), rng.choice([0, 8, 24, 32]))
    lo = rng.randrange(12)
    return (lo, lo + rng.randrange(1, 6)) if rng.random() < wide else (lo, lo)


def _probe(rng, kind, spec):
    """A key component that matches ``spec`` four times in five."""
    if rng.random() < 0.2:
        return rng.randrange(1 << 32 if kind is ir.MatchKind.LPM else 12)
    if kind is ir.MatchKind.EXACT:
        return spec
    if kind is ir.MatchKind.TERNARY:
        value, mask = spec
        return (value & mask) | (rng.randrange(16) & ~mask)
    if kind is ir.MatchKind.LPM:
        prefix, plen = spec
        return prefix ^ rng.randrange(1 << (32 - plen))
    return rng.randint(*spec)


def test_compiled_matcher_equals_reference_for_every_kinds_tuple():
    """The compiled matcher is ``TableEntry.matches`` for every tuple
    of match kinds up to four keys (plus the LPM term)."""
    import random

    from repro.p4.tableindex import _matcher

    rng = random.Random(7)
    tuples = list(_kinds_tuples()) + [
        (ir.MatchKind.LPM,), (ir.MatchKind.RANGE, ir.MatchKind.LPM),
        (ir.MatchKind.LPM, ir.MatchKind.TERNARY, ir.MatchKind.EXACT)]
    for kinds in tuples:
        table = ir.Table("t", keys=[ir.TableKey(f"meta.k{i}", kind)
                                    for i, kind in enumerate(kinds)])
        match = _matcher(kinds)
        assert _matcher(tuple(kinds)) is match  # one per kinds tuple
        verdicts = set()
        for _ in range(150):
            entry = ir.TableEntry(
                match=[_random_spec(rng, kind) for kind in kinds],
                action="a")
            key = tuple(_probe(rng, kind, spec)
                        for kind, spec in zip(kinds, entry.match))
            want = entry.matches(table, list(key))
            assert bool(match(entry.match, key)) is want, (kinds, entry, key)
            verdicts.add(want)
        assert verdicts == {True, False}, kinds


class _StubEngine:
    """The one thing a _TableIndex asks of its engine."""

    def __init__(self, entries):
        from types import SimpleNamespace

        self.switch = SimpleNamespace(entries={"t": entries})


def _reference_winner(table, entries, key):
    """The entry the interpreter's scan picks for ``key``, or None."""
    best = None
    for entry in entries:
        if entry.matches(table, list(key)) and (
                best is None or Bmv2Switch._beats(table, entry, best)):
            best = entry
    return best


def test_compiled_matcher_in_every_scan_layout():
    """Plain scan, range buckets and the residual list all answer with
    the very entry the reference scan picks, for every kinds tuple."""
    import random

    from repro.p4.tableindex import _RBUCKET_MIN, _TableIndex

    rng = random.Random(11)
    layouts = set()
    for kinds in _kinds_tuples():
        table = ir.Table("t", keys=[ir.TableKey(f"meta.k{i}", kind)
                                    for i, kind in enumerate(kinds)])
        for n in (5, _RBUCKET_MIN + 16):
            entries = [ir.TableEntry(
                match=[_random_spec(rng, kind) for kind in kinds],
                action=f"a{i}", priority=rng.randrange(3))
                for i in range(n)]
            index = _TableIndex(_StubEngine(entries), "t", table)
            for _ in range(25):
                key = tuple(rng.randrange(12) for _ in kinds)
                assert index.lookup(key) is _reference_winner(
                    table, entries, key), (kinds, n, key)
            if index._mode == "scan":
                layouts.add("plain" if index._rb_col is None else "buckets")
                if index._rb_residual:
                    layouts.add("residual")
    assert layouts == {"plain", "buckets", "residual"}


@pytest.mark.parametrize("kind", [ir.MatchKind.EXACT, ir.MatchKind.LPM])
def test_hash_layouts_answer_with_the_installed_entry(kind):
    """Exact maps and LPM buckets hold the installed objects: folded
    in, ranked by the rebuild a repeated key forces, and rebuilt after
    ``clear_table``, a lookup *is* the reference scan's winner."""
    program = make_program([ir.TableKey("hdr.h.a", kind)])
    sw = Bmv2Switch(program, engine="codegen")
    index = sw._engine.tables["t"]

    def rows(values, priority=0):
        return [([a if kind is ir.MatchKind.EXACT else (a, 32)],
                 "set_out", [a + 100 * priority], priority) for a in values]

    def check(rebuilds):
        hits = [index.lookup((a,)) for a in range(5)]
        assert index.rebuilds == rebuilds and not index._dirty
        for a, hit in enumerate(hits):
            assert hit is _reference_winner(
                program.tables["t"], sw.entries["t"], (a,))
        return [hit and hit.args for hit in hits]

    sw.insert_entries("t", rows([1, 2, 3]))
    assert check(0) == [None, (1,), (2,), (3,), None]  # folded
    sw.insert_entries("t", rows([2], priority=5))
    assert index._dirty  # a repeated key: the rebuild ranks the two
    assert check(1) == [None, (1,), (502,), (3,), None]
    sw.clear_table("t")
    sw.insert_entries("t", rows([4]))
    assert check(2) == [None, None, None, None, (4,)]
