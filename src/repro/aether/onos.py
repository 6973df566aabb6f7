"""An ONOS-like SDN controller managing the UPF tables.

This model reproduces the table-management behaviour behind the bug of
Section 5.2.  To save TCAM, entries in the **Applications** table are
shared by all clients of a slice: the controller keeps an app-id cache
keyed by the *exact rule pattern* (prefix, proto, port range, priority).
When a client attaches, each of its rules resolves to an app id —
reusing a cached id when the pattern is identical, otherwise allocating
a fresh id and installing a new Applications entry.  **Terminations**
entries are installed only for the attaching client.

The bug: after the operator edits a rule (different pattern and/or
priority), the next attach allocates a *new, higher-priority* app id.
Packets from previously attached clients now classify to the new app id,
for which they have no Terminations entry — and the default action of
Terminations is drop.  Traffic that the policy allows is silently
discarded, exactly the behaviour Hydra's checker reports.

Scaling notes (the million-subscriber path):

* Every per-client table row is built once, as an immutable
  :class:`~repro.p4.ir.TableEntry`, installed as that same value on
  every UPF switch and remembered on the :class:`ClientRecord`, so
  detach deletes exactly those rows — never a scan over every
  subscriber's entries — and a session costs the cyclic collector one
  tracked object per row, not one per row per switch plus its handles.
* Shared Applications entries are reference-counted per app id and
  released only when the *last* referencing subscriber detaches (the
  interned pattern is forgotten with them, so a later attach
  re-installs cleanly).
* :meth:`handle_attach_many` / :meth:`handle_detach_many` batch table
  inserts and deletes per switch — one bulk control-plane call per
  table instead of one index invalidation per row — which is what keeps
  PFCP-style churn amortized over the execution engines' incremental
  table indexes.  Both are atomic: a batch is validated whole before
  the first change, so a refused attach or detach leaves no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..p4 import ir
from ..p4.bmv2 import Bmv2Switch
from .capacity import AetherCapacity, CapacityError, MAX_APP_IDS
from .portal import ALLOW, FilterRule

# Application-id 0 is "unknown" (table miss); allocation starts at 1.
_FIRST_APP_ID = 1

AppKey = Tuple[str, Tuple[int, int], Optional[int], Tuple[int, int], int]


@dataclass
class ClientRecord:
    """Controller-side state for one attached client."""

    __slots__ = ("client_id", "imsi", "slice_name", "ue_ip", "uplink_teid",
                 "downlink_teid", "app_ids", "entries")

    client_id: int
    imsi: str
    slice_name: str
    ue_ip: int
    uplink_teid: int
    downlink_teid: int
    app_ids: Tuple[int, ...]  # one per rule, in rule order
    # The rows installed for this client, each the same value on every
    # UPF switch: its uplink session, its downlink session, then one
    # Terminations row per rule (``_rows_by_table`` reads this layout).
    # Detach deletes these and only these.
    entries: Tuple[ir.TableEntry, ...]


def _rows_by_table(records: Sequence[ClientRecord]
                   ) -> List[Tuple[str, List[ir.TableEntry]]]:
    """A batch of clients' rows grouped per UPF table."""
    return [
        ("uplink_sessions", [r.entries[0] for r in records]),
        ("downlink_sessions", [r.entries[1] for r in records]),
        ("terminations", [e for r in records for e in r.entries[2:]]),
    ]


def check_detach(imsis: Sequence[str],
                 attached: Dict[str, ClientRecord]) -> None:
    """Refuse a detach batch whole, before anything is popped, if it
    names an IMSI that is not attached (by its second mention, one
    named twice is not)."""
    seen = set()
    for imsi in imsis:
        if imsi not in attached or imsi in seen:
            raise ValueError(f"IMSI {imsi} is not attached")
        seen.add(imsi)


@dataclass(frozen=True)
class AttachSpec:
    """One client's attach request, as delivered over PFCP."""

    imsi: str
    slice_name: str
    ue_ip: int
    uplink_teid: int
    downlink_teid: int
    rules: Tuple[FilterRule, ...]


class OnosController:
    """Installs and maintains UPF table entries on the fabric."""

    def __init__(self, upf_switches: Dict[str, Bmv2Switch],
                 capacity: Optional[AetherCapacity] = None):
        self.upf_switches = dict(upf_switches)
        self.capacity = capacity
        self._app_ids: Dict[AppKey, int] = {}
        self._next_app_id = _FIRST_APP_ID
        self._next_client_id = 1
        self._slice_ids: Dict[str, int] = {}
        self.clients: Dict[str, ClientRecord] = {}
        # Shared-entry bookkeeping: per app id, how many attached
        # subscribers reference it, the interned pattern it came from,
        # and its per-switch Applications entry handles.
        self._app_refs: Dict[int, int] = {}
        self._app_key_of: Dict[int, AppKey] = {}
        self._app_entries: Dict[int, List[Tuple[str, ir.TableEntry]]] = {}

    def slice_id(self, slice_name: str) -> int:
        """Numeric id for a slice (allocated on first use)."""
        if slice_name not in self._slice_ids:
            self._slice_ids[slice_name] = len(self._slice_ids) + 1
        return self._slice_ids[slice_name]

    # -- app-id management (the shared Applications table) -----------------

    @staticmethod
    def _app_key(slice_name: str, rule: FilterRule) -> AppKey:
        return (slice_name, rule.ip_prefix, rule.proto, rule.l4_port,
                rule.priority)

    def _plan_app_ids(self, specs: Sequence[AttachSpec]
                      ) -> Tuple[List[Tuple[int, ...]],
                                 Dict[AppKey, Tuple[int, FilterRule]]]:
        """Resolve every rule of every spec to an app id, changing
        nothing: the ids per spec, and the patterns that need a fresh
        id (with the rule to install for it).  Each distinct (slice,
        rules) pair is resolved once, and its specs share one ids
        tuple.  A batch the 8-bit id space cannot hold is refused here,
        before anything is installed."""
        fresh: Dict[AppKey, Tuple[int, FilterRule]] = {}
        next_id = self._next_app_id
        # ``specs`` keeps every rules tuple alive: its id is stable.
        resolved: Dict[Tuple[str, int], Tuple[int, ...]] = {}
        planned: List[Tuple[int, ...]] = []
        for spec in specs:
            group = (spec.slice_name, id(spec.rules))
            ids = resolved.get(group)
            if ids is None:
                found = []
                for rule in spec.rules:
                    key = self._app_key(spec.slice_name, rule)
                    app_id = self._app_ids.get(key)
                    if app_id is None and key in fresh:
                        app_id = fresh[key][0]
                    if app_id is None:
                        if next_id > MAX_APP_IDS:
                            raise CapacityError(
                                f"app-id space exhausted ({MAX_APP_IDS} "
                                "distinct rule patterns; app_id is an "
                                "8-bit field)")
                        app_id = next_id
                        next_id += 1
                        fresh[key] = (app_id, rule)
                    found.append(app_id)
                ids = resolved[group] = tuple(found)
            planned.append(ids)
        return planned, fresh

    def _install_app_id(self, key: AppKey, app_id: int,
                        rule: FilterRule) -> None:
        """Intern a rule pattern under a fresh app id and install its
        shared Applications entry."""
        self._next_app_id = app_id + 1
        self._app_ids[key] = app_id
        self._app_key_of[app_id] = key
        self._app_refs[app_id] = 0
        sid = self.slice_id(key[0])
        match = [(sid, sid), rule.addr_range(), tuple(rule.l4_port),
                 rule.proto_range()]
        self._app_entries[app_id] = [
            (name, bmv2.insert_entry("applications", match, "set_app_id",
                                     [app_id], priority=rule.priority))
            for name, bmv2 in self.upf_switches.items()]

    def _release_app_ids(self, app_ids: Iterable[int]) -> None:
        """Drop one subscriber reference per distinct app id; an id
        whose last reference goes away has its shared Applications
        entries uninstalled and its interned pattern forgotten."""
        for app_id in set(app_ids):
            remaining = self._app_refs.get(app_id)
            if remaining is None:
                continue
            remaining -= 1
            if remaining > 0:
                self._app_refs[app_id] = remaining
                continue
            del self._app_refs[app_id]
            key = self._app_key_of.pop(app_id, None)
            if key is not None:
                self._app_ids.pop(key, None)
            for switch_name, entry in self._app_entries.pop(app_id, ()):
                self.upf_switches[switch_name].delete_entry(
                    "applications", entry)

    # -- attach handling (per-client PFCP-style rule delivery) ----------------

    def handle_attach(self, imsi: str, slice_name: str, ue_ip: int,
                      uplink_teid: int, downlink_teid: int,
                      rules: List[FilterRule]) -> ClientRecord:
        """Install user-plane state for a newly attached client.

        ``rules`` is the per-client copy of the slice's filtering rules,
        as delivered over the PFCP-style interface at attach time.
        """
        return self.handle_attach_many([AttachSpec(
            imsi=imsi, slice_name=slice_name, ue_ip=ue_ip,
            uplink_teid=uplink_teid, downlink_teid=downlink_teid,
            rules=tuple(rules))])[0]

    def handle_attach_many(self,
                           specs: Sequence[AttachSpec]
                           ) -> List[ClientRecord]:
        """Install user-plane state for a batch of attaching clients.

        The batch is atomic: it is validated whole — IMSIs, the session
        budget, the app-id space — before the first change, so a
        refused batch leaves the controller and the switches as they
        were.  Table inserts are batched per switch: the whole batch
        costs one ``insert_entries`` call per (switch, table), so the
        execution engines fold the rows into their live indexes instead
        of rebuilding once per client.
        """
        seen = set()
        for spec in specs:
            if spec.imsi in self.clients or spec.imsi in seen:
                raise ValueError(f"IMSI {spec.imsi} is already attached")
            seen.add(spec.imsi)
        if self.capacity is not None:
            budget = self.capacity.max_sessions
            if len(self.clients) + len(specs) > budget:
                raise CapacityError(
                    f"attach of {len(specs)} client(s) exceeds the "
                    f"session budget ({len(self.clients)} attached, "
                    f"capacity {budget})")
        planned, fresh = self._plan_app_ids(specs)
        for key, (app_id, rule) in fresh.items():
            self._install_app_id(key, app_id, rule)
        records: List[ClientRecord] = []
        for spec, app_ids in zip(specs, planned):
            client_id = self._next_client_id
            self._next_client_id += 1
            sid = self.slice_id(spec.slice_name)
            rows = [
                ir.TableEntry((spec.uplink_teid,), "set_session_uplink",
                              (client_id, sid)),
                ir.TableEntry((spec.ue_ip,), "set_session_downlink",
                              (client_id, sid, spec.downlink_teid)),
            ]
            for rule, app_id in zip(spec.rules, app_ids):
                rows.append(ir.TableEntry(
                    (client_id, app_id),
                    "term_forward" if rule.action == ALLOW else "term_drop"))
            for app_id in set(app_ids):
                self._app_refs[app_id] += 1
            records.append(ClientRecord(
                client_id=client_id, imsi=spec.imsi,
                slice_name=spec.slice_name, ue_ip=spec.ue_ip,
                uplink_teid=spec.uplink_teid,
                downlink_teid=spec.downlink_teid, app_ids=app_ids,
                entries=tuple(rows)))
        by_table = _rows_by_table(records)
        for bmv2 in self.upf_switches.values():
            for table, rows in by_table:
                if rows:
                    bmv2.insert_entries(table, rows)
        for record in records:
            self.clients[record.imsi] = record
        return records

    def handle_detach(self, imsi: str) -> ClientRecord:
        """Remove a client's user-plane state.

        Sessions and the client's Terminations entries are removed via
        the handles recorded at attach time.  Shared Applications
        entries are reference-counted: they stay installed while any
        other subscriber of the slice still resolves to them, and are
        released (pattern forgotten, entries uninstalled) when the last
        referencing subscriber detaches.
        """
        return self.handle_detach_many([imsi])[0]

    def handle_detach_many(self, imsis: Sequence[str]) -> List[ClientRecord]:
        """Remove a batch of clients' user-plane state, batching entry
        deletions per (switch, table).  The batch is atomic, like an
        attach: an unattached IMSI, or one named twice, refuses it
        before the first change."""
        check_detach(imsis, self.clients)
        records = [self.clients.pop(imsi) for imsi in imsis]
        by_table = _rows_by_table(records)
        for bmv2 in self.upf_switches.values():
            for table, rows in by_table:
                if rows:
                    bmv2.delete_entries(table, rows)
        for record in records:
            record.entries = ()
            self._release_app_ids(record.app_ids)
        return records

    def client(self, imsi: str) -> ClientRecord:
        return self.clients[imsi]

    def app_refcount(self, app_id: int) -> int:
        """Attached subscribers currently referencing a shared app id
        (0 once released)."""
        return self._app_refs.get(app_id, 0)

    def applications_entries(self) -> int:
        """Installed Applications entries (per switch)."""
        any_switch = next(iter(self.upf_switches.values()))
        return len(any_switch.entries["applications"])
