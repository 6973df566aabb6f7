"""The mobile core's session management (PFCP-style interface).

Per the paper, the 3GPP PFCP interface "does not allow to specify
application filtering rules globally for a slice.  Instead, rules are
sent to ONOS on a per-client basis" — so on every attach the core looks
up the slice configuration *at that moment* and ships a per-client copy
of the rules to the controller, plus (when a Hydra deployment is
present) to the Hydra control application that maintains the
``filtering_actions`` dictionary of the Figure 9 checker.

The bulk paths (:meth:`MobileCore.attach_many` /
:meth:`MobileCore.detach_many`) carry the same semantics as a loop of
single calls — except that a batch is atomic: it is refused whole or
lands whole — but batch the table programming per switch, which is what
makes million-subscriber churn tractable: one bulk control-plane call
per (switch, table) per batch instead of one index invalidation per
rule row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..p4 import ir
from ..runtime.deployment import HydraDeployment
from .onos import AttachSpec, ClientRecord, OnosController, check_detach
from .portal import DENY, FilterRule, OperatorPortal

DENY_ACTION = 1
ALLOW_ACTION = 2


class HydraControlApp:
    """The 'simple control plane application that runs atop ONOS' from
    Section 5.2: it mirrors each attaching client's filtering rules into
    the checker's ``filtering_actions`` control dictionary.

    Key layout matches Figure 9: (ue_ipv4_addr, app_ip_proto,
    app_ipv4_addr, app_l4_port) -> 1=deny / 2=allow.

    The app owns the rows it installs: each is built once, installed as
    the same value at every site of the dictionary — each table of it a
    switch's linked program applies
    (:meth:`~repro.runtime.deployment.HydraDeployment.control_sites`;
    under last-hop checking, the edges' init lookup) — and remembered
    per UE so detach removes exactly that UE's rows without scanning
    the table.
    """

    def __init__(self, deployment: HydraDeployment):
        self.deployment = deployment
        self._sites = [(deployment.switches[switch], table, action)
                       for switch, table, action
                       in deployment.control_sites("filtering_actions")]
        self._hit_actions = {table: action
                             for _, table, action in self._sites}
        self._tables = list(self._hit_actions)
        # Per UE, its rows table by table (``self._tables`` order, one
        # per rule within each); every row is at each of its table's
        # sites.
        self._installed: Dict[int, Tuple[ir.TableEntry, ...]] = {}

    def on_attach_many(self,
                       items: Sequence[Tuple[int, Sequence[FilterRule]]]
                       ) -> None:
        """Mirror a batch of clients' rules into ``filtering_actions``,
        one bulk insert per (switch, table)."""
        # Replace semantics, as dict_put_ranges had: a UE address named
        # twice in the batch keeps its last rules, and a re-attach of a
        # live one supersedes its previous rows.
        latest = dict(items)
        refresh = [ue_ip for ue_ip in latest if ue_ip in self._installed]
        if refresh:
            self.on_detach_many(refresh)
        by_table: Dict[str, List[ir.TableEntry]] = {
            table: [] for table in self._tables}
        # Per rule set (the core hands every client of a slice the same
        # one), its rules' non-UE match specs, args and priorities,
        # built once: a UE's rows own only their ``(ue, ue)`` pair.
        shared: Dict[int, List[Tuple]] = {}
        for ue_ip, rules in latest.items():
            parts = shared.get(id(rules))  # ``latest`` keeps it alive
            if parts is None:
                parts = shared[id(rules)] = [
                    (rule.proto_range(), rule.addr_range(),
                     tuple(rule.l4_port),
                     (DENY_ACTION if rule.action == DENY else ALLOW_ACTION,),
                     rule.priority) for rule in rules]
            ue = (ue_ip, ue_ip)
            own: List[ir.TableEntry] = []
            for table, rows in by_table.items():
                action = self._hit_actions[table]
                mine = [ir.TableEntry((ue, proto, addr, port), action, args,
                                      priority)
                        for proto, addr, port, args, priority in parts]
                rows.extend(mine)
                own.extend(mine)
            self._installed[ue_ip] = tuple(own)
        for bmv2, table, _ in self._sites:
            if by_table[table]:
                bmv2.insert_entries(table, by_table[table])

    def on_detach_many(self, ue_ips: Sequence[int]) -> None:
        by_table: Dict[str, List[ir.TableEntry]] = {
            table: [] for table in self._tables}
        for ue_ip in ue_ips:
            own = self._installed.pop(ue_ip, ())
            per_table = len(own) // len(by_table)
            for i, rows in enumerate(by_table.values()):
                rows.extend(own[i * per_table:(i + 1) * per_table])
        for bmv2, table, _ in self._sites:
            if by_table[table]:
                bmv2.delete_entries(table, by_table[table])


class MobileCore:
    """4G/5G core session management against the portal + ONOS."""

    def __init__(self, portal: OperatorPortal, onos: OnosController,
                 hydra_app: Optional[HydraControlApp] = None):
        self.portal = portal
        self.onos = onos
        self.hydra_app = hydra_app
        self._next_teid = 100
        self.attachments: Dict[str, ClientRecord] = {}

    def attach(self, imsi: str, ue_ip: int) -> ClientRecord:
        """Handle a client attach request.

        Allocates GTP TEIDs, snapshots the slice's *current* rules, and
        pushes per-client state to ONOS and to the Hydra control app.
        """
        return self.attach_many([(imsi, ue_ip)])[0]

    def attach_many(self,
                    requests: Sequence[Tuple[str, int]]
                    ) -> List[ClientRecord]:
        """Handle a batch of attach requests (bulk PFCP-style churn).

        Semantically a loop of :meth:`attach`, except that the batch is
        atomic — one unprovisioned IMSI, or a refusal by ONOS, and
        nothing has changed; the table programming is batched per
        switch so the fabric absorbs the whole batch with one
        control-plane operation per table.
        """
        specs: List[AttachSpec] = []
        # Each slice's rules are read once per batch, and every client
        # of it is handed that one tuple: a snapshot, so a later portal
        # edit reaches only later attaches.
        rules_of: Dict[str, Tuple[FilterRule, ...]] = {}
        for uplink_teid, (imsi, ue_ip) in enumerate(requests,
                                                    self._next_teid):
            slice_name = self.portal.slice_of(imsi)
            if slice_name is None:
                raise ValueError(
                    f"IMSI {imsi} is not provisioned in any slice")
            rules = rules_of.get(slice_name)
            if rules is None:
                rules = rules_of[slice_name] = tuple(
                    self.portal.slices[slice_name].rules)
            specs.append(AttachSpec(
                imsi=imsi, slice_name=slice_name, ue_ip=ue_ip,
                uplink_teid=uplink_teid, downlink_teid=uplink_teid + 1000,
                rules=rules))
        # ONOS validates the whole batch before it changes anything, so
        # a refused batch has consumed no TEID either.
        records = self.onos.handle_attach_many(specs)
        self._next_teid += len(specs)
        if self.hydra_app is not None:
            self.hydra_app.on_attach_many(
                [(spec.ue_ip, spec.rules) for spec in specs])
        for record in records:
            self.attachments[record.imsi] = record
        return records

    def detach(self, imsi: str) -> None:
        """Handle a client detach: tear down its user-plane state and
        the Hydra control entries mirroring its rules."""
        self.detach_many([imsi])

    def detach_many(self, imsis: Sequence[str]) -> None:
        """Handle a batch of detach requests; deletions are batched per
        (switch, table).  Atomic, like :meth:`attach_many`: the whole
        batch is validated here and by ONOS (an unattached IMSI, an
        IMSI named twice) before anything changes."""
        check_detach(imsis, self.attachments)
        records = self.onos.handle_detach_many(imsis)
        for imsi in imsis:
            del self.attachments[imsi]
        if self.hydra_app is not None:
            self.hydra_app.on_detach_many(
                [record.ue_ip for record in records])
