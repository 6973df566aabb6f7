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

from ..net.topology import EDGE
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
    the same value on every switch the app programs, and remembered per
    UE so detach removes exactly that UE's rows without scanning the
    table.
    ``edge_only=True`` (the scaled deployments) installs rows only on
    edge switches — the checker evaluates at the last hop, which is
    always an edge, so spine copies of the dictionary are dead weight.
    """

    def __init__(self, deployment: HydraDeployment,
                 edge_only: bool = False):
        self.deployment = deployment
        self.edge_only = edge_only
        compiled, decl = deployment._resolve_control("filtering_actions")
        self._tables = list(compiled.control_tables[decl.name])
        self._hit_actions = {table: compiled.dict_hit_action(decl.name,
                                                             table)
                             for table in self._tables}
        self._switches = [
            deployment.switches[name]
            for name, spec in deployment.topology.switches.items()
            if not edge_only or spec.role == EDGE]
        # Per UE, its rows table by table (``self._tables`` order, one
        # per rule within each); every row is on every ``_switches``.
        self._installed: Dict[int, Tuple[ir.TableEntry, ...]] = {}

    def on_attach(self, ue_ip: int, rules: Sequence[FilterRule]) -> None:
        self.on_attach_many([(ue_ip, rules)])

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
        by_table: List[List[ir.TableEntry]] = [[] for _ in self._tables]
        for ue_ip, rules in latest.items():
            specs = [(((ue_ip, ue_ip), rule.proto_range(), rule.addr_range(),
                       tuple(rule.l4_port)),
                      (DENY_ACTION if rule.action == DENY else ALLOW_ACTION,),
                      rule.priority) for rule in rules]
            own: List[ir.TableEntry] = []
            for table, rows in zip(self._tables, by_table):
                action = self._hit_actions[table]
                mine = [ir.TableEntry(match, action, args, priority)
                        for match, args, priority in specs]
                rows.extend(mine)
                own.extend(mine)
            self._installed[ue_ip] = tuple(own)
        for bmv2 in self._switches:
            for table, rows in zip(self._tables, by_table):
                if rows:
                    bmv2.insert_entries(table, rows)

    def on_detach(self, ue_ip: int) -> None:
        """Remove the client's filtering_actions entries."""
        self.on_detach_many([ue_ip])

    def on_detach_many(self, ue_ips: Sequence[int]) -> None:
        by_table: List[List[ir.TableEntry]] = [[] for _ in self._tables]
        for ue_ip in ue_ips:
            own = self._installed.pop(ue_ip, ())
            per_table = len(own) // len(by_table)
            for i, rows in enumerate(by_table):
                rows.extend(own[i * per_table:(i + 1) * per_table])
        for bmv2 in self._switches:
            for table, rows in zip(self._tables, by_table):
                if rows:
                    bmv2.delete_entries(table, rows)


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
        for uplink_teid, (imsi, ue_ip) in enumerate(requests,
                                                    self._next_teid):
            slice_name = self.portal.slice_of(imsi)
            if slice_name is None:
                raise ValueError(
                    f"IMSI {imsi} is not provisioned in any slice")
            specs.append(AttachSpec(
                imsi=imsi, slice_name=slice_name, ue_ip=ue_ip,
                uplink_teid=uplink_teid, downlink_teid=uplink_teid + 1000,
                rules=tuple(self.portal.rules_for(imsi))))
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
