"""Network topologies: nodes, links, and standard fabric builders.

A :class:`Topology` is a port-level graph.  Switches carry a *role*
(``edge`` or ``core``), which is exactly the classification the Indus
compiler's topology file input provides (Section 4.1 of the paper);
additional per-switch attributes (``is_spine``, ``is_leaf``) feed the
control variables of the Table-1 checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

EDGE = "edge"
CORE = "core"


@dataclass(frozen=True)
class Endpoint:
    """One end of a link: a node name plus a port number."""

    node: str
    port: int


@dataclass
class Link:
    """A bidirectional link with symmetric latency and bandwidth."""

    a: Endpoint
    b: Endpoint
    latency_s: float = 1e-6          # propagation delay
    bandwidth_bps: float = 10e9      # serialization rate

    def other(self, end: Endpoint) -> Endpoint:
        if end == self.a:
            return self.b
        if end == self.b:
            return self.a
        raise ValueError(f"{end} is not on this link")


@dataclass
class SwitchSpec:
    """Static description of a switch in the topology."""

    name: str
    role: str = CORE          # 'edge' or 'core'
    is_spine: bool = False
    is_leaf: bool = False
    switch_id: int = 0
    # Ports that face hosts / the outside world (edge ports): where the
    # compiler-generated strip/inject tables act.
    edge_ports: List[int] = field(default_factory=list)


@dataclass
class HostSpec:
    """Static description of a host."""

    name: str
    ipv4: int = 0
    mac: int = 0


class Topology:
    """A port-level network graph with switch roles."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.switches: Dict[str, SwitchSpec] = {}
        self.hosts: Dict[str, HostSpec] = {}
        self.links: List[Link] = []
        self._port_map: Dict[Endpoint, Link] = {}
        self._attached: Dict[str, Endpoint] = {}  # host -> its first peer
        self._next_switch_id = 1

    # -- construction ---------------------------------------------------------

    def add_switch(self, name: str, role: str = CORE, is_spine: bool = False,
                   is_leaf: bool = False) -> SwitchSpec:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        spec = SwitchSpec(name=name, role=role, is_spine=is_spine,
                          is_leaf=is_leaf, switch_id=self._next_switch_id)
        self._next_switch_id += 1
        self.switches[name] = spec
        return spec

    def add_host(self, name: str, ipv4: int = 0,
                 mac: Optional[int] = None) -> HostSpec:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        if mac is None:
            mac = 0x020000000000 + len(self.hosts) + 1
        spec = HostSpec(name=name, ipv4=ipv4, mac=mac)
        self.hosts[name] = spec
        return spec

    def add_link(self, node_a: str, port_a: int, node_b: str, port_b: int,
                 latency_s: float = 1e-6,
                 bandwidth_bps: float = 10e9) -> Link:
        end_a = Endpoint(node_a, port_a)
        end_b = Endpoint(node_b, port_b)
        for end in (end_a, end_b):
            if end.node not in self.switches and end.node not in self.hosts:
                raise ValueError(f"unknown node {end.node!r}")
            if end in self._port_map:
                raise ValueError(f"port already wired: {end}")
        link = Link(end_a, end_b, latency_s, bandwidth_bps)
        self.links.append(link)
        self._port_map[end_a] = link
        self._port_map[end_b] = link
        # Track edge ports: a switch port facing a host is an edge port.
        for near, far in ((end_a, end_b), (end_b, end_a)):
            if near.node in self.hosts:
                self._attached.setdefault(near.node, far)
            if near.node in self.switches and far.node in self.hosts:
                spec = self.switches[near.node]
                if near.port not in spec.edge_ports:
                    spec.edge_ports.append(near.port)
        return link

    # -- queries ---------------------------------------------------------------------

    def peer(self, node: str, port: int) -> Optional[Endpoint]:
        """The endpoint wired to (node, port), or None if unwired."""
        link = self._port_map.get(Endpoint(node, port))
        if link is None:
            return None
        return link.other(Endpoint(node, port))

    def link_at(self, node: str, port: int) -> Optional[Link]:
        return self._port_map.get(Endpoint(node, port))

    def ports_of(self, node: str) -> List[int]:
        return sorted(end.port for end in self._port_map if end.node == node)

    def port_toward(self, node: str, neighbor: str) -> int:
        """The port on ``node`` wired toward ``neighbor``.

        Raises if the nodes are not directly linked.
        """
        for end, link in self._port_map.items():
            if end.node == node and link.other(end).node == neighbor:
                return end.port
        raise ValueError(f"{node!r} has no link toward {neighbor!r}")

    def ports_path(self, nodes: List[str]) -> List[int]:
        """Egress ports for a hop-by-hop node path.

        ``nodes`` is [first_switch, ..., last_switch, dest_host]; the
        result names, for each switch, the port toward the next node —
        exactly what a source-routing sender puts on the stack.
        """
        if len(nodes) < 2:
            raise ValueError("a path needs at least a switch and a target")
        return [self.port_toward(nodes[i], nodes[i + 1])
                for i in range(len(nodes) - 1)]

    def host_attachment(self, host: str) -> Endpoint:
        """The switch endpoint a host is attached to (its first link)."""
        attach = self._attached.get(host)
        if attach is None:
            raise ValueError(f"host {host!r} is not attached")
        return attach

    def switch_id(self, name: str) -> int:
        return self.switches[name].switch_id


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def leaf_spine(num_leaves: int = 2, num_spines: int = 2,
               hosts_per_leaf: int = 2, link_latency_s: float = 1e-6,
               bandwidth_bps: float = 10e9) -> Topology:
    """The paper's leaf-spine fabric (Figure 8: 2 leaves x 2 spines).

    Port convention on each leaf: ports 1..H face hosts, ports
    H+1..H+num_spines face spines (spine j on port H+1+j).  On each
    spine, port i faces leaf i (1-based).
    """
    topo = Topology(name=f"leafspine-{num_leaves}x{num_spines}")
    leaves = []
    spines = []
    for i in range(num_leaves):
        leaves.append(topo.add_switch(f"leaf{i + 1}", role=EDGE, is_leaf=True))
    for j in range(num_spines):
        spines.append(topo.add_switch(f"spine{j + 1}", role=CORE,
                                      is_spine=True))
    host_index = 0
    for i, leaf in enumerate(leaves):
        for h in range(hosts_per_leaf):
            host_index += 1
            # 10.0.<leaf>.<host> addressing, mirroring Figure 8.
            ipv4 = (10 << 24) | ((i + 1) << 8) | (host_index & 0xFF)
            host = topo.add_host(f"h{host_index}", ipv4=ipv4)
            topo.add_link(leaf.name, h + 1, host.name, 0,
                          latency_s=link_latency_s,
                          bandwidth_bps=bandwidth_bps)
    for i, leaf in enumerate(leaves):
        for j, spine in enumerate(spines):
            topo.add_link(leaf.name, hosts_per_leaf + 1 + j,
                          spine.name, i + 1,
                          latency_s=link_latency_s,
                          bandwidth_bps=bandwidth_bps)
    return topo


def single_switch(num_hosts: int = 2) -> Topology:
    """One edge switch with N hosts — the smallest useful testbed."""
    topo = Topology(name="single")
    topo.add_switch("s1", role=EDGE, is_leaf=True)
    for h in range(num_hosts):
        ipv4 = (10 << 24) | (1 << 8) | (h + 1)
        topo.add_host(f"h{h + 1}", ipv4=ipv4)
        topo.add_link("s1", h + 1, f"h{h + 1}", 0)
    return topo


def linear(num_switches: int = 3, hosts_per_end: int = 1) -> Topology:
    """A chain s1 - s2 - ... - sN with hosts on both ends.

    Useful for waypointing / service-chain checkers: every interior
    switch is a core switch.
    """
    topo = Topology(name=f"linear-{num_switches}")
    for i in range(num_switches):
        role = EDGE if i in (0, num_switches - 1) else CORE
        topo.add_switch(f"s{i + 1}", role=role, is_leaf=(role == EDGE))
    host_index = 0
    for end_switch in ("s1", f"s{num_switches}"):
        for h in range(hosts_per_end):
            host_index += 1
            side = 1 if end_switch == "s1" else 2
            ipv4 = (10 << 24) | (side << 8) | host_index
            topo.add_host(f"h{host_index}", ipv4=ipv4)
            topo.add_link(end_switch, h + 1, f"h{host_index}", 0)
    # Inter-switch links on high ports: port 10 toward next, 11 toward prev.
    for i in range(num_switches - 1):
        topo.add_link(f"s{i + 1}", 10, f"s{i + 2}", 11)
    return topo


def fat_tree(k: int = 4) -> Topology:
    """A k-ary fat tree (k pods; k^2/4 core switches; 2 hosts per edge sw
    scaled down: we attach k/2 hosts per edge switch).

    Used by the valley-free generalization tests.
    """
    if k % 2:
        raise ValueError("fat tree arity must be even")
    topo = Topology(name=f"fattree-{k}")
    half = k // 2
    core = [topo.add_switch(f"core{i + 1}", role=CORE, is_spine=True)
            for i in range(half * half)]
    host_index = 0
    for pod in range(k):
        aggs = [topo.add_switch(f"agg{pod + 1}_{j + 1}", role=CORE)
                for j in range(half)]
        edges = [topo.add_switch(f"edge{pod + 1}_{j + 1}", role=EDGE,
                                 is_leaf=True) for j in range(half)]
        for j, edge in enumerate(edges):
            for h in range(half):
                host_index += 1
                ipv4 = (10 << 24) | ((pod + 1) << 16) | ((j + 1) << 8) | (h + 2)
                topo.add_host(f"h{host_index}", ipv4=ipv4)
                topo.add_link(edge.name, h + 1, f"h{host_index}", 0)
            for a, agg in enumerate(aggs):
                topo.add_link(edge.name, half + 1 + a, agg.name, j + 1)
        for a, agg in enumerate(aggs):
            for c in range(half):
                core_sw = core[a * half + c]
                topo.add_link(agg.name, half + 1 + c, core_sw.name, pod + 1)
    return topo
