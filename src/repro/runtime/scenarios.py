"""Reusable deployment scenarios for examples, tests, and benchmarks.

:class:`SourceRoutingTestbed` reproduces the paper's first case study
(Section 5.1): a leaf-spine fabric running the P4-tutorial source
routing program, linked with the Figure 7 valley-free checker.  It
includes the paper's *injected sender bug* — a sender script that adds
extra invalid hops to the source route — and path enumeration helpers
used to verify that all valley-free paths pass and all errant paths are
dropped.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..net.packet import make_source_routed, make_udp
from ..net.topology import Topology, leaf_spine
from ..p4.programs import source_routing
from ..properties import compile_property
from ..runtime.deployment import HydraDeployment, SendResult
from ..runtime.reports import HydraReport


class SourceRoutingTestbed:
    """Figure 8's leaf-spine network with source routing + valley-free
    path validation."""

    def __init__(self, num_leaves: int = 2, num_spines: int = 2,
                 hosts_per_leaf: int = 2, checker: str = "valley_free",
                 check_mode: str = "last_hop"):
        self.topology: Topology = leaf_spine(num_leaves, num_spines,
                                             hosts_per_leaf)
        self.compiled = compile_property(checker)
        forwarding = dict.fromkeys(self.topology.switches,
                                   source_routing("srcroute"))
        self.deployment = HydraDeployment(self.topology, self.compiled,
                                          forwarding,
                                          check_mode=check_mode)
        self.network = self.deployment.network
        self._configure_controls(checker)

    def _configure_controls(self, checker: str) -> None:
        program = self.compiled.checked.program
        names = {d.name for d in program.decls}
        for name, spec in self.topology.switches.items():
            if "is_spine_switch" in names:
                self.deployment.set_control("is_spine_switch", spec.is_spine,
                                            switch=name)
            if "is_spine" in names:
                self.deployment.set_control("is_spine", spec.is_spine,
                                            switch=name)
            if "is_leaf" in names:
                self.deployment.set_control("is_leaf", spec.is_leaf,
                                            switch=name)

    # -- path construction ---------------------------------------------------

    def leaf_of(self, host: str) -> str:
        return self.topology.host_attachment(host).node

    def valley_free_node_paths(self, src_host: str,
                               dst_host: str) -> List[List[str]]:
        """All valley-free switch paths between two hosts.

        Same leaf: the single-switch path.  Different leaves: one path
        per spine (up once, down once).
        """
        src_leaf = self.leaf_of(src_host)
        dst_leaf = self.leaf_of(dst_host)
        if src_leaf == dst_leaf:
            return [[src_leaf]]
        spines = sorted(n for n, s in self.topology.switches.items()
                        if s.is_spine)
        return [[src_leaf, spine, dst_leaf] for spine in spines]

    def valley_node_paths(self, src_host: str,
                          dst_host: str) -> List[List[str]]:
        """A sample of *errant* paths that traverse a spine twice
        (up-down-up-down), which valley-free routing forbids."""
        src_leaf = self.leaf_of(src_host)
        dst_leaf = self.leaf_of(dst_host)
        spines = sorted(n for n, s in self.topology.switches.items()
                        if s.is_spine)
        leaves = sorted(n for n, s in self.topology.switches.items()
                        if s.is_leaf)
        paths = []
        for s1, s2 in itertools.product(spines, spines):
            for mid in leaves:
                path = [src_leaf, s1, mid, s2, dst_leaf]
                # A genuine valley must come back up: skip degenerate
                # repeats of the same link.
                if mid == src_leaf and s1 == s2:
                    continue
                paths.append(path)
        return paths

    def route_for(self, node_path: List[str], dst_host: str) -> List[int]:
        """Egress-port stack for a switch path ending at ``dst_host``."""
        return self.topology.ports_path(list(node_path) + [dst_host])

    def buggy_sender_route(self, node_path: List[str], dst_host: str,
                           extra_spine: Optional[str] = None) -> List[int]:
        """The Section 5.1 injected bug: the sender script appends extra
        invalid hops that bounce through a spine again before delivery."""
        src_leaf = node_path[0]
        spines = sorted(n for n, s in self.topology.switches.items()
                        if s.is_spine)
        bounce = extra_spine or spines[-1]
        last_leaf = node_path[-1]
        detour = list(node_path) + [bounce, last_leaf]
        return self.topology.ports_path(detour + [dst_host])

    # -- traffic ---------------------------------------------------------------

    def send(self, src_host: str, dst_host: str,
             ports: List[int], payload_len: int = 64) -> SendResult:
        src_ip = self.topology.hosts[src_host].ipv4
        dst_ip = self.topology.hosts[dst_host].ipv4
        inner = make_udp(src_ip, dst_ip, 5000, 6000,
                         payload_len=payload_len)
        return self.deployment.send(
            src_host, make_source_routed(ports, inner), dst_host)

    @property
    def reports(self) -> List[HydraReport]:
        return self.deployment.reports
