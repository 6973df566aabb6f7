"""Network substrate: packets/headers, topologies, and the event-driven
packet-level simulator."""

from .packet import (ETH_TYPE_HYDRA, ETH_TYPE_IPV4, ETH_TYPE_SRCROUTE,
                     ETH_TYPE_VLAN, ETHERNET, GTPU, Header, HeaderType,
                     IP_PROTO_ICMP, IP_PROTO_TCP, IP_PROTO_UDP, IPV4, Packet,
                     SOURCE_ROUTE, TCP, UDP, UDP_PORT_GTPU, VLAN, format_ip,
                     ip, make_gtpu_encapsulated, make_source_routed, make_tcp,
                     make_udp)
from .simulator import (DEFAULT_STAGE_DELAY_S, DEFAULT_STAGES, Host,
                        HopRecord, Network, Simulator, SwitchDevice)
from .topofile import (TopologyFormatError, load_topology, save_topology,
                       topology_from_dict, topology_to_dict)
from .topology import (CORE, EDGE, Endpoint, HostSpec, Link, SwitchSpec,
                       Topology, fat_tree, leaf_spine, linear, single_switch)

__all__ = [
    "CORE", "DEFAULT_STAGES", "DEFAULT_STAGE_DELAY_S", "EDGE", "ETHERNET",
    "ETH_TYPE_HYDRA", "ETH_TYPE_IPV4", "ETH_TYPE_SRCROUTE", "ETH_TYPE_VLAN",
    "Endpoint", "GTPU", "Header", "HeaderType", "HopRecord", "Host",
    "HostSpec",
    "IP_PROTO_ICMP", "IP_PROTO_TCP", "IP_PROTO_UDP", "IPV4", "Link",
    "Network", "Packet", "SOURCE_ROUTE", "Simulator", "SwitchDevice",
    "SwitchSpec", "TCP", "Topology", "TopologyFormatError", "UDP", "UDP_PORT_GTPU", "VLAN",
    "fat_tree", "format_ip", "ip", "leaf_spine", "linear",
    "load_topology", "make_gtpu_encapsulated", "make_source_routed",
    "make_tcp", "make_udp", "save_topology", "single_switch",
    "topology_from_dict", "topology_to_dict",
]
