"""Table-index unit tests: insert/delete/priority/LPM tie-break order.

The codegen engine indexes entries (exact hash map, LPM prefix-length
buckets, sorted scan; :mod:`repro.p4.tableindex`); the interpreter
scans linearly with ``_beats``.
Every scenario here runs on both engines and asserts the same winning
entry — plus the explicitly expected one — including churn that forces
index invalidation and rebuild.
"""

import pytest

from repro.net.packet import HeaderType
from repro.p4 import ENGINES, ir
from repro.p4.bmv2 import Bmv2Switch

H = HeaderType("h", [("a", 32), ("b", 32)])


def make_program(keys):
    """One table ``t`` with the given keys; the hit action records its
    argument in a metadata field surfaced via egress_spec."""
    program = ir.P4Program(
        name="tidx",
        parser=ir.ParserSpec(states=[
            ir.ParserState("start", extracts=[ir.Extract("h", H)],
                           transitions=[ir.Transition(ir.ACCEPT)]),
        ]),
        metadata=[("out", 32)],
        emit_order=["h"],
    )
    program.add_action(ir.Action("set_out", params=[("v", 32)], body=[
        ir.AssignStmt("standard_metadata.egress_spec",
                      ir.FieldRef("param.v")),
    ]))
    program.add_table(ir.Table("t", keys=keys, actions=["set_out"]))
    program.ingress = [ir.ApplyTable("t")]
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


def test_bulk_insert_matches_single_insert_semantics():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.RANGE)])
    got = winners_bulk(program, entries=[
        ([(10, 20)], [100], 0),
        ([(15, 30)], [200], 5),
    ], probes=[(12, 0), (17, 0), (25, 0), (40, 0)])
    assert got == [100, 200, 200, 0]


def test_bulk_delete_reexposes_shadowed_entry():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.RANGE)])
    got = winners_bulk(program, entries=[
        ([(10, 20)], [100], 1),
        ([(10, 20)], [200], 9),
    ], probes=[(12, 0)], deletions=[1])
    assert got == [100]


def test_bulk_fold_after_warm_index_keeps_order():
    program = make_program([ir.TableKey("hdr.h.a", ir.MatchKind.EXACT)])
    for engine in ENGINES:
        sw = Bmv2Switch(program, engine=engine)
        first = sw.insert_entries("t", [([5], "set_out", [100], 0)])
        assert sw.process(_packet(5, 0), 1)[0][0] == 100
        # Fold into the already-built index: new key, then a duplicate
        # key at higher priority (forces the fallback rebuild).
        sw.insert_entries("t", [([9], "set_out", [300], 0)])
        assert sw.process(_packet(9, 0), 1)[0][0] == 300
        sw.insert_entries("t", [([5], "set_out", [200], 9)])
        assert sw.process(_packet(5, 0), 1)[0][0] == 200
        sw.delete_entries("t", first)
        assert sw.process(_packet(5, 0), 1)[0][0] == 200


def test_range_buckets_engage_and_preserve_win_order():
    """Above _RBUCKET_MIN entries with a degenerate range column the
    index switches to hashed range buckets; residual wide-range entries
    must still win by priority."""
    from repro.p4.tableindex import _RBUCKET_MIN

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
    index = sw._fast.tables["t"]
    assert index._rb_col == 0
    assert len(index._rb_buckets) == n
    assert len(index._rb_residual) == 2


def test_range_bucket_fold_churn_randomized_parity():
    """Randomized bulk insert/delete churn on a bucketed range table:
    codegen stays packet-for-packet equal to the interpreter."""
    import random

    from repro.p4.tableindex import _RBUCKET_MIN

    program = make_program([
        ir.TableKey("hdr.h.a", ir.MatchKind.RANGE),
        ir.TableKey("hdr.h.b", ir.MatchKind.RANGE),
    ])
    rng = random.Random(42)

    def rows(k, base):
        out = []
        for i in range(k):
            if rng.random() < 0.85:
                v = base + i
                k0 = (v, v)
            else:
                lo = rng.randrange(300)
                k0 = (lo, lo + rng.randrange(300))
            lo_b = rng.randrange(50)
            out.append(([k0, (lo_b, lo_b + rng.randrange(60))],
                        "set_out", [rng.randrange(1, 10 ** 6)],
                        rng.randrange(5)))
        return out

    switches = {e: Bmv2Switch(program, engine=e) for e in ENGINES}
    state = rng.getstate()
    installed = {}
    for engine, sw in switches.items():
        rng.setstate(state)  # identical row stream per engine
        installed[engine] = list(
            sw.insert_entries("t", rows(_RBUCKET_MIN * 2, 0)))
    state = rng.getstate()

    def assert_parity(round_no):
        probe_rng = random.Random(round_no)
        probes = [(probe_rng.randrange(400), probe_rng.randrange(120))
                  for _ in range(120)]
        rows_out = []
        for engine, sw in switches.items():
            row = []
            for a, b in probes:
                out = sw.process(_packet(a, b), 1)
                row.append(out[0][0] if out else None)
            rows_out.append(row)
        assert all(row == rows_out[0] for row in rows_out), \
            f"engines diverged in round {round_no}"

    assert_parity(0)
    for round_no in range(1, 5):
        for engine, sw in switches.items():
            rng.setstate(state)
            installed[engine].extend(
                sw.insert_entries("t", rows(20, 1000 * round_no)))
            victim_rng = random.Random(round_no)
            victims = victim_rng.sample(range(len(installed[engine])), 15)
            batch = [installed[engine][i] for i in victims]
            for i in sorted(victims, reverse=True):
                del installed[engine][i]
            sw.delete_entries("t", batch)
        state = rng.getstate()
        assert_parity(round_no)


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
    import itertools

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
    """The two things a _TableIndex asks of its engine."""

    def __init__(self, entries):
        from types import SimpleNamespace

        self.switch = SimpleNamespace(entries={"t": entries})

    def _bind_action(self, name, args):
        return (name, tuple(args))


def test_compiled_matcher_in_every_scan_layout():
    """Plain scan, range buckets and the residual list all pick the
    entry the reference scan picks, for every kinds tuple."""
    import random

    from repro.p4.bmv2 import Bmv2Switch as Reference
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
                best = None
                for entry in entries:
                    if entry.matches(table, list(key)) and (
                            best is None
                            or Reference._beats(table, entry, best)):
                        best = entry
                want = None if best is None else (best.action, ())
                assert index.lookup(key) == want, (kinds, n, key)
            if index._mode == "scan":
                layouts.add("plain" if index._rb_col is None else "buckets")
                if index._rb_residual:
                    layouts.add("residual")
    assert layouts == {"plain", "buckets", "residual"}
