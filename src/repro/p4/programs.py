"""Forwarding programs written against the P4 IR.

These are the programs Hydra checkers get *linked with*: plain L2 port
forwarding, IPv4 LPM routing, the P4-tutorial-style source routing of the
paper's first case study, an ECMP fabric router for the leaf-spine
testbed of Figure 12, and a VLAN-aware variant.  The Aether UPF program
lives in :mod:`repro.aether.upf`.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from ..net.packet import (ETH_TYPE_IPV4, ETH_TYPE_SRCROUTE, ETH_TYPE_VLAN,
                          ETHERNET, IP_PROTO_TCP, IP_PROTO_UDP, IPV4,
                          SOURCE_ROUTE, TCP, UDP, VLAN)
from . import ir

MAX_SOURCE_ROUTE_HOPS = 8


def _ipv4_parser(after_ethernet: Optional[List[ir.Transition]] = None,
                 with_vlan: bool = False) -> ir.ParserSpec:
    """A parser for Ethernet(/VLAN)/IPv4/{UDP,TCP}."""
    ether_transitions = list(after_ethernet or [])
    ether_transitions += [
        ir.Transition("parse_ipv4", "hdr.ethernet.eth_type", ETH_TYPE_IPV4),
    ]
    if with_vlan:
        ether_transitions.append(
            ir.Transition("parse_vlan", "hdr.ethernet.eth_type",
                          ETH_TYPE_VLAN))
    ether_transitions.append(ir.Transition(ir.ACCEPT))
    states = [
        ir.ParserState(
            name="start",
            extracts=[ir.Extract("ethernet", ETHERNET)],
            transitions=ether_transitions,
        ),
        ir.ParserState(
            name="parse_ipv4",
            extracts=[ir.Extract("ipv4", IPV4)],
            transitions=[
                ir.Transition("parse_udp", "hdr.ipv4.protocol", IP_PROTO_UDP),
                ir.Transition("parse_tcp", "hdr.ipv4.protocol", IP_PROTO_TCP),
                ir.Transition(ir.ACCEPT),
            ],
        ),
        ir.ParserState(
            name="parse_udp",
            extracts=[ir.Extract("udp", UDP)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
        ir.ParserState(
            name="parse_tcp",
            extracts=[ir.Extract("tcp", TCP)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
    ]
    if with_vlan:
        states.insert(1, ir.ParserState(
            name="parse_vlan",
            extracts=[ir.Extract("vlan", VLAN)],
            transitions=[
                ir.Transition("parse_ipv4", "hdr.vlan.eth_type",
                              ETH_TYPE_IPV4),
                ir.Transition(ir.ACCEPT),
            ],
        ))
    return ir.ParserSpec(states=states)


def l2_port_forwarding(name: str = "l2fwd") -> ir.P4Program:
    """Forward by ingress port: one exact-match table."""
    program = ir.P4Program(name=name, parser=_ipv4_parser())
    program.emit_order = ["ethernet", "ipv4", "udp", "tcp"]
    forward = ir.Action(
        name="fwd_set_egress", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port"))],
    )
    drop = ir.Action(name="fwd_drop", params=[], body=[ir.MarkToDrop()])
    program.add_action(forward)
    program.add_action(drop)
    program.add_table(ir.Table(
        name="fwd_table",
        keys=[ir.TableKey("standard_metadata.ingress_port",
                          ir.MatchKind.EXACT)],
        actions=[forward.name],
        default_action=(drop.name, []),
        size=64,
    ))
    program.ingress = [ir.ApplyTable("fwd_table")]
    return program


def ipv4_lpm_forwarding(name: str = "ipv4fwd") -> ir.P4Program:
    """Classic LPM routing: set egress, rewrite MACs, decrement TTL."""
    program = ir.P4Program(name=name, parser=_ipv4_parser())
    program.emit_order = ["ethernet", "ipv4", "udp", "tcp"]
    forward = ir.Action(
        name="ipv4_forward", params=[("dst_mac", 48), ("port", 9)],
        body=[
            ir.AssignStmt("hdr.ethernet.src_addr",
                          ir.FieldRef("hdr.ethernet.dst_addr")),
            ir.AssignStmt("hdr.ethernet.dst_addr",
                          ir.FieldRef("param.dst_mac")),
            ir.AssignStmt("standard_metadata.egress_spec",
                          ir.FieldRef("param.port")),
            ir.AssignStmt("hdr.ipv4.ttl",
                          ir.BinExpr("-", ir.FieldRef("hdr.ipv4.ttl"),
                                     ir.Const(1, 8), 8)),
        ],
    )
    drop = ir.Action(name="ipv4_drop", params=[], body=[ir.MarkToDrop()])
    program.add_action(forward)
    program.add_action(drop)
    program.add_table(ir.Table(
        name="ipv4_lpm",
        keys=[ir.TableKey("hdr.ipv4.dst_addr", ir.MatchKind.LPM)],
        actions=[forward.name, drop.name],
        default_action=(drop.name, []),
        size=1024,
    ))
    program.ingress = [
        ir.IfStmt(
            cond=ir.ValidRef("ipv4"),
            then_body=[ir.ApplyTable("ipv4_lpm")],
            else_body=[ir.MarkToDrop()],
        ),
    ]
    return program


def source_routing(name: str = "srcroute",
                   max_hops: int = MAX_SOURCE_ROUTE_HOPS) -> ir.P4Program:
    """The P4-tutorial source routing scheme used by the paper's first
    case study: each switch pops the top stack entry and forwards out the
    port it names; the last pop restores the IPv4 EtherType."""
    after_ethernet = [
        ir.Transition("parse_srcRoute", "hdr.ethernet.eth_type",
                      ETH_TYPE_SRCROUTE),
    ]
    program = ir.P4Program(name=name,
                           parser=_ipv4_parser(after_ethernet=after_ethernet))
    program.parser.states.append(ir.ParserState(
        name="parse_srcRoute",
        extracts=[ir.ExtractStack("srcRoute", SOURCE_ROUTE, "bos",
                                  max_depth=max_hops)],
        transitions=[ir.Transition("parse_ipv4")],
    ))
    program.emit_order = (
        ["ethernet"]
        + [f"srcRoute{i}" for i in range(max_hops)]
        + ["ipv4", "udp", "tcp"]
    )
    program.ingress = [
        ir.IfStmt(
            cond=ir.ValidRef("srcRoute0"),
            then_body=[
                ir.AssignStmt("standard_metadata.egress_spec",
                              ir.FieldRef("hdr.srcRoute0.port")),
                ir.IfStmt(
                    cond=ir.BinExpr("==", ir.FieldRef("hdr.srcRoute0.bos"),
                                    ir.Const(1, 1)),
                    then_body=[ir.AssignStmt("hdr.ethernet.eth_type",
                                             ir.Const(ETH_TYPE_IPV4, 16))],
                ),
                ir.PopSourceRoute(),
            ],
            else_body=[ir.MarkToDrop()],
        ),
    ]
    return program


def _ecmp_hash(src_addr: int, dst_addr: int, protocol: int, is_udp: int,
               udp_sport: int, tcp_sport: int, udp_dport: int,
               tcp_dport: int, ecmp_width: int) -> int:
    """5-tuple CRC32 hash extern for ECMP selection (deterministic)."""
    sport, dport = ((udp_sport, udp_dport) if is_udp
                    else (tcp_sport, tcp_dport))
    blob = f"{src_addr},{dst_addr},{protocol},{sport},{dport}".encode()
    return zlib.crc32(blob) % (ecmp_width or 1)


def ecmp_fabric(name: str = "fabric") -> ir.P4Program:
    """A leaf/spine fabric router.

    Tables:

    * ``routes`` (IPv4 LPM) — either forwards directly
      (``route_set_port``) or selects an ECMP group of N uplinks
      (``route_ecmp``);
    * ``ecmp_table`` (exact on the hash-selected index) — maps the ECMP
      index to an uplink port.

    Leaves install host routes as direct ports and the default route as
    an ECMP group over the spines; spines install one direct route per
    leaf subnet.  This is the forwarding substrate for Figure 12.
    """
    program = ir.P4Program(name=name, parser=_ipv4_parser())
    program.emit_order = ["ethernet", "ipv4", "udp", "tcp"]
    program.metadata = [("ecmp_width", 8), ("ecmp_select", 16)]
    set_port = ir.Action(
        name="route_set_port", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port")),
              ir.AssignStmt("hdr.ipv4.ttl",
                            ir.BinExpr("-", ir.FieldRef("hdr.ipv4.ttl"),
                                       ir.Const(1, 8), 8))],
    )
    ecmp = ir.Action(
        name="route_ecmp", params=[("width", 8)],
        body=[ir.AssignStmt("meta.ecmp_width", ir.FieldRef("param.width"))],
    )
    ecmp_port = ir.Action(
        name="ecmp_set_port", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port")),
              ir.AssignStmt("hdr.ipv4.ttl",
                            ir.BinExpr("-", ir.FieldRef("hdr.ipv4.ttl"),
                                       ir.Const(1, 8), 8))],
    )
    drop = ir.Action(name="route_drop", params=[], body=[ir.MarkToDrop()])
    for action in (set_port, ecmp, ecmp_port, drop):
        program.add_action(action)
    program.add_table(ir.Table(
        name="routes",
        keys=[ir.TableKey("hdr.ipv4.dst_addr", ir.MatchKind.LPM)],
        actions=[set_port.name, ecmp.name, drop.name],
        default_action=(drop.name, []),
        size=1024,
    ))
    program.add_table(ir.Table(
        name="ecmp_table",
        keys=[ir.TableKey("meta.ecmp_select", ir.MatchKind.EXACT)],
        actions=[ecmp_port.name],
        default_action=(drop.name, []),
        size=64,
    ))
    program.ingress = [
        ir.IfStmt(
            cond=ir.ValidRef("ipv4"),
            then_body=[
                ir.AssignStmt("meta.ecmp_width", ir.Const(0, 8)),
                ir.ApplyTable("routes"),
                ir.IfStmt(
                    cond=ir.BinExpr(">", ir.FieldRef("meta.ecmp_width"),
                                    ir.Const(0, 8)),
                    then_body=[
                        ir.ExternCall(
                            "ecmp_hash", _ecmp_hash,
                            args=[ir.FieldRef("hdr.ipv4.src_addr"),
                                  ir.FieldRef("hdr.ipv4.dst_addr"),
                                  ir.FieldRef("hdr.ipv4.protocol"),
                                  ir.ValidRef("udp"),
                                  ir.FieldRef("hdr.udp.src_port"),
                                  ir.FieldRef("hdr.tcp.src_port"),
                                  ir.FieldRef("hdr.udp.dst_port"),
                                  ir.FieldRef("hdr.tcp.dst_port"),
                                  ir.FieldRef("meta.ecmp_width")],
                            dests=["meta.ecmp_select"]),
                        ir.ApplyTable("ecmp_table"),
                    ],
                ),
            ],
            else_body=[ir.MarkToDrop()],
        ),
    ]
    return program


def vlan_l2_forwarding(name: str = "vlanfwd") -> ir.P4Program:
    """Port-based forwarding with VLAN parsing (for the VLAN isolation
    checker of Table 1)."""
    program = ir.P4Program(name=name, parser=_ipv4_parser(with_vlan=True))
    program.emit_order = ["ethernet", "vlan", "ipv4", "udp", "tcp"]
    forward = ir.Action(
        name="fwd_set_egress", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port"))],
    )
    drop = ir.Action(name="fwd_drop", params=[], body=[ir.MarkToDrop()])
    program.add_action(forward)
    program.add_action(drop)
    program.add_table(ir.Table(
        name="fwd_table",
        keys=[ir.TableKey("standard_metadata.ingress_port",
                          ir.MatchKind.EXACT)],
        actions=[forward.name],
        default_action=(drop.name, []),
        size=64,
    ))
    program.ingress = [ir.ApplyTable("fwd_table")]
    return program
