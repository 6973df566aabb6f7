"""The scaled Aether control plane: reverse indexes, shared-entry
refcounting, bulk attach/detach parity, and the capacity model.

These pin the million-subscriber invariants:

* ``OperatorPortal.slice_of`` and ``AetherTestbed._host_for_ip`` are
  maintained reverse indexes, behaviorally identical to the scans they
  replaced and kept consistent by add/remove;
* shared Applications entries are released only when the *last*
  referencing subscriber detaches (traffic for the survivors keeps
  classifying);
* ``attach_many``/``detach_many`` are semantically a loop of the
  single-client calls;
* :class:`AetherCapacity` bounds sessions and app-id allocation.
"""

import gc
import tracemalloc

import pytest

from repro.aether import (ALLOW, AetherCapacity, AetherTestbed,
                          AttachSpec, CapacityError, FilterRule,
                          MAX_APP_IDS, MAX_UE_INDEX, OperatorPortal,
                          OnosController, SERVER_HOST, ue_address,
                          upf_program)
from repro.net.packet import ip
from repro.p4 import ENGINES, ir
from repro.p4.bmv2 import Bmv2Switch

UDP = 17


def allow_rules(server, port=80):
    return [
        FilterRule(priority=10, ip_prefix=(server, 32), proto=UDP,
                   l4_port=(port, port), action=ALLOW),
        FilterRule(priority=1, action="deny"),
    ]


# -- portal reverse index ---------------------------------------------------

def test_slice_of_matches_membership_lists():
    portal = OperatorPortal()
    portal.create_slice("a", [])
    portal.create_slice("b", [])
    portal.add_member("a", "i1")
    portal.add_members("b", ["i2", "i3"])
    for imsi in ("i1", "i2", "i3"):
        # The index answer must agree with the operator-facing lists.
        scan = next((name for name, cfg in portal.slices.items()
                     if imsi in cfg.members), None)
        assert portal.slice_of(imsi) == scan
    assert portal.slice_of("i9") is None


def test_remove_member_keeps_index_and_list_consistent():
    portal = OperatorPortal()
    portal.create_slice("a", [])
    portal.add_members("a", ["i1", "i2"])
    portal.remove_member("i1")
    assert portal.slice_of("i1") is None
    assert portal.slices["a"].members == ["i2"]
    with pytest.raises(ValueError):
        portal.remove_member("i1")
    # Freed for re-enrolment elsewhere.
    portal.create_slice("b", [])
    portal.add_member("b", "i1")
    assert portal.slice_of("i1") == "b"


def test_duplicate_enrolment_rejected_across_slices():
    portal = OperatorPortal()
    portal.create_slice("a", [])
    portal.create_slice("b", [])
    portal.add_member("a", "i1")
    with pytest.raises(ValueError):
        portal.add_member("b", "i1")
    with pytest.raises(ValueError):
        portal.add_members("b", ["i2", "i1"])
    # The failed bulk call must not have half-applied.
    assert portal.slice_of("i2") is None
    assert portal.slices["b"].members == []


def test_host_for_ip_matches_topology_scan():
    tb = AetherTestbed()
    for name, spec in tb.topology.hosts.items():
        assert tb._host_for_ip(spec.ipv4) == name
    assert tb._host_for_ip(ip(9, 9, 9, 9)) is None


# -- shared-entry refcounting (the Figure 11 table) -------------------------

def test_shared_app_entry_survives_first_detach():
    tb = AetherTestbed()
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", ["ue1", "ue2"])
    tb.attach("ue1", 1)
    tb.attach("ue2", 2)
    shared = tb.onos.client("ue1").app_ids
    assert shared == tb.onos.client("ue2").app_ids
    installed = tb.onos.applications_entries()
    assert tb.onos.app_refcount(shared[0]) == 2

    tb.detach("ue1")
    # The surviving subscriber still references both patterns: nothing
    # may be uninstalled, and its traffic must still classify.
    assert tb.onos.app_refcount(shared[0]) == 1
    assert tb.onos.applications_entries() == installed
    result = tb.send_uplink("ue2", server, 80)
    assert result.delivered
    assert result.new_reports == []

    tb.detach("ue2")
    assert tb.onos.app_refcount(shared[0]) == 0
    assert tb.onos.applications_entries() == 0


def test_released_pattern_reinstalls_on_next_attach():
    tb = AetherTestbed()
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", ["ue1", "ue2"])
    tb.attach("ue1", 1)
    tb.detach("ue1")
    assert tb.onos.applications_entries() == 0
    tb.attach("ue2", 2)
    assert tb.onos.applications_entries() == 2  # both patterns back
    assert tb.send_uplink("ue2", server, 80).delivered


# -- bulk vs serial parity --------------------------------------------------

def _table_sizes(tb):
    return {
        (name, table): len(entries)
        for name, sw in tb.deployment.switches.items()
        for table, entries in sw.entries.items()
    }


def test_attach_many_matches_serial_attach():
    serial, bulk = AetherTestbed(), AetherTestbed()
    for tb in (serial, bulk):
        server = tb.topology.hosts[SERVER_HOST].ipv4
        tb.provision_slice("phones", allow_rules(server))
        tb.portal.add_members("phones", [f"ue{i}" for i in range(1, 6)])
    for i in range(1, 6):
        serial.attach(f"ue{i}", i)
    bulk.attach_many([(f"ue{i}", i) for i in range(1, 6)])
    assert _table_sizes(serial) == _table_sizes(bulk)
    for tb in (serial, bulk):
        for i in (1, 3, 5):
            result = tb.send_uplink(f"ue{i}", server, 80)
            assert result.delivered and result.new_reports == []
            assert not tb.send_uplink(f"ue{i}", server, 9999).delivered


def test_detach_many_matches_serial_detach():
    serial, bulk = AetherTestbed(), AetherTestbed()
    for tb in (serial, bulk):
        server = tb.topology.hosts[SERVER_HOST].ipv4
        tb.provision_slice("phones", allow_rules(server))
        tb.portal.add_members("phones", [f"ue{i}" for i in range(1, 6)])
        tb.attach_many([(f"ue{i}", i) for i in range(1, 6)])
    for i in (2, 4):
        serial.detach(f"ue{i}")
    bulk.detach_many(["ue2", "ue4"])
    assert _table_sizes(serial) == _table_sizes(bulk)
    for tb in (serial, bulk):
        assert tb.send_uplink("ue3", server, 80).delivered
        with pytest.raises(KeyError):
            tb.onos.client("ue2")


def test_batch_internal_duplicate_imsi_rejected():
    tb = AetherTestbed()
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_member("phones", "ue1")
    with pytest.raises(ValueError):
        tb.attach_many([("ue1", 1), ("ue1", 2)])


@pytest.mark.parametrize("engine", ENGINES)
def test_ue_address_named_twice_leaves_no_orphan_rows(engine):
    """Two clients given one UE address, in one batch or in two: the
    later mention supersedes the earlier one's checker rows, so the
    control app remembers every row it has installed and a detach of
    both leaves every UPF and checker table empty.  The checker rows sit
    where the dictionary is read: at the leaves' init lookup, on no
    spine."""
    tb = AetherTestbed(engine=engine)
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", ["a", "b"])
    watched = ("uplink_sessions", "downlink_sessions", "terminations",
               "applications", *tb.hydra_app._tables)

    def rows():
        return {(name, table): list(sw.entries[table])
                for name, sw in tb.deployment.switches.items()
                for table in watched if sw.entries.get(table)}

    assert rows() == {}
    for batches in ([[("a", 7), ("b", 7)]], [[("a", 7)], [("b", 7)]]):
        for batch in batches:
            tb.attach_many(batch)
        remembered = tb.hydra_app._installed
        assert sorted(remembered) == [ue_address(7)]
        own = {id(row) for row in remembered[ue_address(7)]}
        assert len(own) == 2  # one client's two rules
        for name, spec in tb.topology.switches.items():
            for table in tb.hydra_app._tables:
                held = rows().get((name, table), [])
                assert {id(row) for row in held} == (
                    own if spec.is_leaf else set()), name
        tb.detach_many(["a", "b"])
        assert remembered == {} and rows() == {}


# -- a refused batch changes nothing ----------------------------------------

def _control_plane_snapshot(tb):
    onos = tb.onos
    return {
        "tables": _table_sizes(tb),
        "app_refs": dict(onos._app_refs),
        "app_ids": dict(onos._app_ids),
        "next_client_id": onos._next_client_id,
        "clients": sorted(onos.clients),
        "attachments": sorted(tb.core.attachments),
        "ue_ips": dict(tb._ue_ips),
        "next_teid": tb.core._next_teid,
    }


@pytest.mark.parametrize("batch, error", [
    # i3's slice carries 255 distinct rule patterns; two ids are taken.
    ([("i1", 1), ("i2", 2), ("i3", 3)], CapacityError),
    ([("i1", 1), ("i2", 2), ("i1", 4)], ValueError),       # duplicate
    ([("i1", 1), ("ghost", 2), ("i2", 4)], ValueError),    # unprovisioned
    ([("i1", 1), ("i2", 2), ("i4", 4), ("i5", 5)], CapacityError),
], ids=["app-id-exhaustion", "duplicate-imsi", "unprovisioned-imsi",
        "over-capacity"])
def test_refused_batch_leaves_no_trace(batch, error):
    tb = AetherTestbed(capacity=AetherCapacity(max_sessions=4))
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", ["i0", "i1", "i2", "i4", "i5"])
    tb.provision_slice("big", [FilterRule(priority=n + 1, action=ALLOW)
                               for n in range(MAX_APP_IDS)])
    tb.portal.add_member("big", "i3")
    tb.attach("i0", 9)
    before = _control_plane_snapshot(tb)
    with pytest.raises(error):
        tb.attach_many(batch)
    assert _control_plane_snapshot(tb) == before
    # ...and the acceptable part of the batch still goes through.
    tb.attach_many([("i1", 1), ("i2", 2)])
    assert tb.send_uplink("i2", server, 80).delivered


@pytest.mark.parametrize("batch", [["i1", "ghost", "i2"],
                                   ["i1", "i2", "i1"]],
                         ids=["unattached", "duplicate"])
def test_refused_detach_leaves_no_trace(batch):
    """Detach is atomic too: a batch naming an IMSI that is not attached
    (or, by its second mention, no longer would be) pops nothing."""
    tb = AetherTestbed(capacity=AetherCapacity(max_sessions=4))
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", ["i0", "i1", "i2"])
    tb.attach_many([("i0", 9), ("i1", 1), ("i2", 2)])

    def snapshot():
        return (_control_plane_snapshot(tb),
                sorted(tb.hydra_app._installed))

    before = snapshot()
    with pytest.raises(ValueError, match="is not attached"):
        tb.detach_many(batch)
    with pytest.raises(ValueError, match="is not attached"):
        tb.onos.handle_detach_many(batch)
    assert snapshot() == before
    assert tb.send_uplink("i1", server, 80).delivered
    # ...and the valid part of the batch still detaches.
    tb.detach_many(["i1", "i2"])
    assert sorted(tb.core.attachments) == sorted(tb.onos.clients) == ["i0"]
    assert sorted(tb.hydra_app._installed) == [ue_address(9)]
    assert tb.send_uplink("i0", server, 80).delivered


# -- what the attach path's cost rests on, as counts ------------------------

SESSIONS = 2000


def _soak_testbed():
    """A scaled testbed with ``SESSIONS`` subscribers enrolled in four
    slices (two rules each), none attached yet."""
    tb = AetherTestbed(capacity=AetherCapacity(max_sessions=SESSIONS,
                                               rules_per_session=2))
    server = tb.topology.hosts[SERVER_HOST].ipv4
    for k in range(4):
        tb.provision_slice(f"slice{k}", allow_rules(server))
        tb.portal.add_members(f"slice{k}", [f"ue{i}" for i in
                                            range(k + 1, SESSIONS + 1, 4)])
    return tb, server


def _attach_in_batches(tb, indices, batch=500):
    for at in range(0, len(indices), batch):
        tb.attach_many([(f"ue{i}", i) for i in indices[at:at + batch]])


def test_bulk_writes_never_leave_an_index_behind():
    """Attach in batches, first packets, churn every 10th, first
    packets: every bulk write folds into the live index, so no packet
    ever pays for a rebuild, and nothing recompiles."""
    tb, server = _soak_testbed()
    leaves = tb.onos.upf_switches
    watched = ("uplink_sessions", "downlink_sessions", "terminations",
               *tb.hydra_app._tables)
    recompiles = {name: sw._engine.recompiles for name, sw in leaves.items()}

    def first_packets(imsi):
        assert tb.send_uplink(imsi, server, 80).delivered
        assert not tb.send_uplink(imsi, server, 9999).delivered
        assert tb.send_downlink(server, imsi, 80).delivered
        assert tb.reports == []

    everyone = list(range(1, SESSIONS + 1))
    _attach_in_batches(tb, everyone)
    first_packets("ue11")
    churned = everyone[::10]
    tb.detach_many([f"ue{i}" for i in churned])
    _attach_in_batches(tb, churned)
    first_packets("ue11")

    stats = tb.deployment.stats()["switches"]
    for name, sw in leaves.items():
        for table in watched:
            counts = stats[name]["indexes"][table]
            assert counts["rebuilds"] == 0, (name, table, counts)
            assert counts["folds"] >= 6, (name, table, counts)
        assert sw._engine.recompiles == recompiles[name]


def test_session_state_is_flat_for_the_collector():
    """The cyclic collector walks every object it tracks on each full
    collection, so attach cost at 100K sessions is a matter of how many
    tracked objects a session leaves behind.  Pinned as a count: 11 per
    session (15 while a range bucket was a list of row tuples), rows
    held as values (no ``(switch, table, entry)`` handles), nothing
    inside a row that the collector tracks — and the engine's index
    holding each row itself, not a restatement of it, and every client
    of a slice sharing what the slice shares, which is what a session's
    traced bytes pin (2,317 on CPython 3.11; 2,723 while each client's
    checker rows and app ids were its own copies, 2,977 with list
    buckets, 3,874 when the index kept a payload and a rank tuple per
    row)."""
    tb, _ = _soak_testbed()
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        _attach_in_batches(tb, list(range(1, SESSIONS + 1)))
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown / SESSIONS < 11.1, grown / SESSIONS
    assert traced / SESSIONS < 2400, traced / SESSIONS

    record = tb.onos.client("ue7")
    rows = record.entries + tb.hydra_app._installed[record.ue_ip]
    assert len(rows) == 6
    for name, sw in tb.deployment.switches.items():
        held = {id(e) for entries in sw.entries.values() for e in entries}
        on_switch = [row for row in rows if id(row) in held]
        # One value per row, installed on both leaves, on no spine.
        assert len(on_switch) == (6 if tb.topology.switches[name].is_leaf
                                  else 0)
    for row in rows:
        assert type(row) is ir.TableEntry
        own = [x for x in gc.get_referents(row) if x is not ir.TableEntry]
        assert own and not any(gc.is_tracked(x) for x in own), row
    # The index stores the row: a hash value is it, a scan row ends in it.
    sessions = ("uplink_sessions", "downlink_sessions",
                "terminations", "terminations")
    (checker,) = tb.hydra_app._tables
    for sw in tb.onos.upf_switches.values():
        indexes = sw._engine.tables
        for table, row in zip(sessions, record.entries):
            assert indexes[table]._exact_map[row.match] is row
        # A range bucket is one flat tuple: (-plen, -priority, seq,
        # entry) per row, run together.
        bucket = indexes[checker]._rb_buckets[record.ue_ip]
        assert type(bucket) is tuple and len(bucket) == 8
        assert all(held is row for held, row in zip(bucket[3::4], rows[4:]))
    # A client of the same slice, attached in the same batch, shares by
    # identity everything slice-level: its app ids, and its checker
    # rows' non-UE match specs and args.  A UE's rows own one (ue, ue)
    # pair between them.
    sibling = tb.onos.client("ue3")
    assert sibling.slice_name == record.slice_name
    assert sibling.app_ids is record.app_ids
    mine = tb.hydra_app._installed[record.ue_ip]
    theirs = tb.hydra_app._installed[sibling.ue_ip]
    assert len({id(row.match[0]) for row in mine}) == 1
    assert mine[0].match[0] is not theirs[0].match[0]
    for row, other in zip(mine, theirs):
        assert all(a is b for a, b in zip(row.match[1:], other.match[1:]))
        assert row.args is other.args


# -- capacity model ---------------------------------------------------------

def test_session_budget_enforced():
    tb = AetherTestbed(capacity=AetherCapacity(max_sessions=3))
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_members("phones", [f"ue{i}" for i in range(1, 6)])
    tb.attach_many([("ue1", 1), ("ue2", 2)])
    with pytest.raises(CapacityError):
        tb.attach_many([("ue3", 3), ("ue4", 4)])
    # The refused batch must not have partially attached.
    assert len(tb.onos.clients) == 2
    tb.detach("ue1")
    tb.attach_many([("ue3", 3), ("ue4", 4)])
    assert len(tb.onos.clients) == 3


def test_ue_address_plan_bounds():
    assert ue_address(1) == (172 << 24) | (16 << 16) | 1
    assert ue_address(MAX_UE_INDEX) >> 20 == (172 << 24 | 16 << 16) >> 20
    for bad in (0, MAX_UE_INDEX + 1):
        with pytest.raises(ValueError):
            ue_address(bad)
    with pytest.raises(ValueError):
        AetherCapacity(max_sessions=MAX_UE_INDEX + 1)


def test_capacity_sizes_tables_and_digest_window():
    cap = AetherCapacity(max_sessions=100, rules_per_session=2,
                         digest_log_window=64)
    tb = AetherTestbed(capacity=cap)
    for sw in tb.deployment.switches.values():
        assert sw.digests.capacity == 64
        # The sized ring is the one the switch's generated module writes.
        assert sw._engine._globals["DIGESTS"] is sw.digests
    program = upf_program(capacity=cap)
    sizes = {t.name: t.size for t in program.tables.values()}
    assert sizes["uplink_sessions"] >= 100
    assert sizes["terminations"] >= 200
    assert sizes["applications"] == MAX_APP_IDS


def test_app_id_space_exhaustion_raises():
    program = upf_program(capacity=AetherCapacity(max_sessions=300))
    sw = Bmv2Switch(program, name="s1")
    onos = OnosController({"s1": sw})
    for i in range(MAX_APP_IDS):
        onos.handle_attach(
            f"ue{i}", "phones", ue_address(i + 1), 100 + i, 1100 + i,
            [FilterRule(priority=i + 1, action=ALLOW)])
    with pytest.raises(CapacityError):
        onos.handle_attach(
            "ue_over", "phones", ue_address(300), 999, 1999,
            [FilterRule(priority=MAX_APP_IDS + 1, action=ALLOW)])


def test_filtering_rows_stay_off_the_spines():
    """The checker reads ``filtering_actions`` in its init block, which
    runs at edges only: the default testbed puts the rows on the
    leaves and none on a spine."""
    tb = AetherTestbed()
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", allow_rules(server))
    tb.portal.add_member("phones", "ue1")
    tb.attach("ue1", 1)
    filtering = [t for t in tb.deployment.switches["leaf1"].entries
                 if "filtering_actions" in t]
    assert filtering, "expected a filtering_actions dict table"
    table = filtering[0]
    for name, spec in tb.topology.switches.items():
        entries = tb.deployment.switches[name].entries.get(table, [])
        if spec.is_leaf:
            assert entries, f"edge {name} must carry checker rows"
        else:
            assert not entries, f"spine {name} must stay clean"
    # Traffic still checked end to end.
    result = tb.send_uplink("ue1", server, 80)
    assert result.delivered and result.new_reports == []


def test_attach_spec_roundtrip_via_controller():
    program = upf_program()
    sw = Bmv2Switch(program, name="s1")
    onos = OnosController({"s1": sw})
    spec = AttachSpec(imsi="ue1", slice_name="phones", ue_ip=ue_address(1),
                      uplink_teid=100, downlink_teid=1100,
                      rules=(FilterRule(priority=5, action=ALLOW),))
    record = onos.handle_attach_many([spec])[0]
    assert record.imsi == "ue1"
    # Uplink session, downlink session, one Terminations row per rule:
    # the very objects the switch holds.
    assert [e.action for e in record.entries] == [
        "set_session_uplink", "set_session_downlink", "term_forward"]
    assert record.entries[0].match == (100,)
    for table, entry in zip(("uplink_sessions", "downlink_sessions",
                             "terminations"), record.entries):
        assert sw.entries[table] == [entry]
        assert sw.entries[table][0] is entry
    onos.handle_detach("ue1")
    assert record.entries == ()
    assert all(not entries for entries in sw.entries.values())
