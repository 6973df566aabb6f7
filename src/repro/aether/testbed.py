"""The Aether edge testbed (Figure 10): small cells, edge app servers,
a 2x2 leaf-spine fabric running the UPF program, the operator portal,
the mobile core, the ONOS controller, and the Hydra application-
filtering checker deployed across the fabric.

Conventions:

* ``h1`` (leaf1 port 1) is the small cell — clients' traffic enters
  GTP-U encapsulated from here;
* ``h2`` (leaf1 port 2) is the edge application server;
* ``h3`` (leaf2 port 1) stands in for the Internet;
* UEs get addresses in 172.16.0.0/12 (2^20 addresses — enough for the
  million-subscriber soak), routed toward the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..net.packet import (Packet, ip, make_gtpu_encapsulated, make_udp,
                          make_tcp)
from ..net.topology import Topology, leaf_spine
from ..obs import Observability
from ..properties import compile_property
from ..runtime.deployment import HydraDeployment
from ..runtime.reports import HydraReport
from .capacity import AetherCapacity, MAX_UE_INDEX, UE_PREFIX_LEN
from .core import HydraControlApp, MobileCore
from .onos import OnosController
from .portal import OperatorPortal
from .upf import upf_program

UE_SUBNET = (172 << 24) | (16 << 16)          # 172.16.0.0/12
N3_CELL = ip(192, 168, 0, 1)
N3_UPF = ip(192, 168, 0, 100)

CELL_HOST = "h1"
SERVER_HOST = "h2"
INTERNET_HOST = "h3"


def ue_address(index: int) -> int:
    """The address assigned to the index-th UE (1-based)."""
    if not 1 <= index <= MAX_UE_INDEX:
        raise ValueError(
            f"UE index {index} outside the 172.16.0.0/{UE_PREFIX_LEN} "
            f"plan [1, {MAX_UE_INDEX}]")
    return UE_SUBNET | index


@dataclass
class TrafficResult:
    """Outcome of one traffic exchange."""

    delivered: bool
    new_reports: List[HydraReport]


class AetherTestbed:
    """A complete Aether deployment with Hydra application filtering.

    ``capacity`` opts into the scaled control plane: an explicit
    :class:`AetherCapacity` (or a plain session count) sizes the UPF
    tables and the digest log window, bounds attaches, and keeps the
    checker's dictionary rows off the spines.  ``engine`` / ``batched``
    / ``obs`` pass through to the deployment — the soak benchmark runs
    ``engine="codegen"`` with the batched traffic plane.
    """

    def __init__(self,
                 capacity: Optional[Union[AetherCapacity, int]] = None,
                 engine: str = "codegen",
                 batched: bool = False,
                 obs: Optional[Observability] = None):
        if isinstance(capacity, int):
            capacity = AetherCapacity(max_sessions=capacity)
        self.capacity = capacity
        self.topology: Topology = leaf_spine(num_leaves=2, num_spines=2,
                                             hosts_per_leaf=2)
        self.compiled = compile_property("application_filtering")
        forwarding = dict.fromkeys(
            self.topology.switches,
            upf_program("fabric_upf", capacity=capacity))
        self.deployment = HydraDeployment(self.topology, self.compiled,
                                          forwarding, engine=engine,
                                          batched=batched, obs=obs)
        self.network = self.deployment.network
        if capacity is not None:
            # Re-seat each switch's digest ring at the declared window:
            # the sized buffer that keeps per-switch memory flat however
            # many packets a soak replays.
            from ..p4.bmv2 import BoundedLog
            for bmv2 in self.deployment.switches.values():
                bmv2.digests = BoundedLog(capacity.digest_log_window,
                                          on_evict=bmv2._on_digest_evict)
        self._install_routes()

        self.portal = OperatorPortal()
        upf_switches = {name: self.deployment.switches[name]
                        for name, spec in self.topology.switches.items()
                        if spec.is_leaf}
        self.onos = OnosController(upf_switches, capacity=capacity)
        self.hydra_app = HydraControlApp(
            self.deployment,
            edge_only=capacity.edge_only_filtering if capacity else False)
        self.core = MobileCore(self.portal, self.onos, self.hydra_app)
        self._ue_ips: Dict[str, int] = {}
        # ip -> host reverse index (maintained once; host sets are
        # static after construction), replacing the per-packet scan
        # over topology.hosts.
        self._ip_to_host: Dict[int, str] = {
            spec.ipv4: name for name, spec in self.topology.hosts.items()
        }

    # -- fabric routing ----------------------------------------------------

    def _install_routes(self) -> None:
        hosts = self.topology.hosts

        def routes_for(switch: str) -> List[Tuple[Tuple[int, int], int]]:
            if switch == "leaf1":
                return [
                    ((hosts["h1"].ipv4, 32), 1),
                    ((hosts["h2"].ipv4, 32), 2),
                    ((UE_SUBNET, UE_PREFIX_LEN), 1),  # UEs behind the cell
                    ((0, 0), 3),                 # default via spine1
                ]
            if switch == "leaf2":
                return [
                    ((hosts["h3"].ipv4, 32), 1),
                    ((hosts["h4"].ipv4, 32), 2),
                    ((0, 0), 3),
                ]
            # Spines: leaf subnets + UE subnet toward leaf1.
            return [
                (((10 << 24) | (1 << 8), 24), 1),
                (((10 << 24) | (2 << 8), 24), 2),
                ((UE_SUBNET, UE_PREFIX_LEN), 1),
            ]

        for switch in self.topology.switches:
            bmv2 = self.deployment.switches[switch]
            for prefix, port in routes_for(switch):
                bmv2.insert_entry("upf_routes", [prefix], "upf_route", [port])

    # -- control-plane workflow -----------------------------------------------

    def provision_slice(self, name: str, rules) -> None:
        self.portal.create_slice(name, rules)

    def attach(self, imsi: str, ue_index: int) -> int:
        """Attach a client; returns its UE address."""
        ue_ip = ue_address(ue_index)
        self.core.attach(imsi, ue_ip)
        self._ue_ips[imsi] = ue_ip
        return ue_ip

    def attach_many(self, pairs: List[Tuple[str, int]]) -> List[int]:
        """Bulk attach: ``(imsi, ue_index)`` pairs; returns UE addresses.

        Table programming for the whole batch is grouped per switch, so
        attach cost is amortized across the batch (the PFCP-style churn
        path of the soak benchmark).
        """
        requests = [(imsi, ue_address(index)) for imsi, index in pairs]
        self.core.attach_many(requests)
        for imsi, ue_ip in requests:
            self._ue_ips[imsi] = ue_ip
        return [ue_ip for _, ue_ip in requests]

    def detach_many(self, imsis: List[str]) -> None:
        """Bulk detach, grouping table deletions per switch."""
        self.core.detach_many(imsis)
        for imsi in imsis:
            self._ue_ips.pop(imsi, None)

    # -- traffic --------------------------------------------------------------

    def _host_for_ip(self, addr: int) -> Optional[str]:
        return self._ip_to_host.get(addr)

    def uplink_packet(self, imsi: str, app_ip: int, dport: int,
                      proto: str = "udp",
                      payload_len: int = 100) -> Packet:
        """The GTP-U encapsulated uplink packet a UE's cell would emit
        (used directly by the soak benchmark's replay loops)."""
        record = self.onos.client(imsi)
        ue_ip = self._ue_ips[imsi]
        if proto == "udp":
            inner = make_udp(ue_ip, app_ip, 40000, dport,
                             payload_len=payload_len)
        else:
            inner = make_tcp(ue_ip, app_ip, 40000, dport,
                             payload_len=payload_len)
        return make_gtpu_encapsulated(N3_CELL, N3_UPF,
                                      record.uplink_teid, inner)

    def downlink_packet(self, src_ip: int, imsi: str, sport: int,
                        proto: str = "udp",
                        payload_len: int = 100) -> Packet:
        """A downlink packet from an application server toward a UE."""
        ue_ip = self._ue_ips[imsi]
        if proto == "udp":
            return make_udp(src_ip, ue_ip, sport, 40000,
                            payload_len=payload_len)
        return make_tcp(src_ip, ue_ip, sport, 40000,
                        payload_len=payload_len)

    def send_uplink(self, imsi: str, app_ip: int, dport: int,
                    proto: str = "udp", payload_len: int = 100
                    ) -> TrafficResult:
        """A UE sends one uplink packet via its cell's GTP-U tunnel."""
        packet = self.uplink_packet(imsi, app_ip, dport, proto=proto,
                                    payload_len=payload_len)
        return self._send(CELL_HOST, packet, app_ip)

    def send_downlink(self, src_ip: int, imsi: str, sport: int,
                      proto: str = "udp",
                      payload_len: int = 100) -> TrafficResult:
        """An application sends one downlink packet toward a UE."""
        src_host = self._host_for_ip(src_ip)
        if src_host is None:
            raise ValueError("downlink source must be a known host")
        packet = self.downlink_packet(src_ip, imsi, sport, proto=proto,
                                      payload_len=payload_len)
        return self._send(src_host, packet, dest_is_ue=True)

    def _send(self, src_host: str, packet: Packet,
              dst_ip: Optional[int] = None,
              dest_is_ue: bool = False) -> TrafficResult:
        before = len(self.deployment.reports)
        if dest_is_ue:
            dest_host = CELL_HOST
        else:
            dest_host = self._host_for_ip(dst_ip) if dst_ip else None
        dest = self.network.host(dest_host) if dest_host else None
        rx_before = dest.rx_count if dest else 0
        self.network.host(src_host).send(packet)
        self.network.run()
        delivered = bool(dest and dest.rx_count > rx_before)
        new_reports = self.deployment.reports[before:]
        return TrafficResult(delivered=delivered, new_reports=new_reports)

    @property
    def reports(self) -> List[HydraReport]:
        return self.deployment.reports

    def detach(self, imsi: str) -> None:
        """Detach a client, removing its sessions, terminations, and
        Hydra filtering entries."""
        self.core.detach(imsi)
        self._ue_ips.pop(imsi, None)
