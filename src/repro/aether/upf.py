"""The Aether User Plane Function (UPF) as a P4 program.

Implements the table structure of Figure 11 on our P4 IR:

* **Sessions** — identifies the packet direction and the client.
  Uplink packets arrive GTP-U encapsulated from a small cell and match
  on the tunnel TEID (then get decapsulated); downlink packets match on
  the UE address in the outer IPv4 header (and get re-encapsulated
  toward the cell).
* **Applications** — shared across clients of a slice; matches the
  application pattern (IPv4 prefix as a range, L4 port range, protocol)
  with priorities and assigns ``app_id``.
* **Terminations** — exact on (client id, app id); forwards or drops.
  The default is drop: a (client, app) pair with no entry gets dropped,
  which is the mechanism behind the bug of Section 5.2.

Dropping is recorded in ``meta.upf_drop_flag`` and enforced at the end
of the egress pipeline, which is what lets the Hydra application-
filtering checker (Figure 9) observe the forwarding decision through its
``to_be_dropped`` header variable.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..net.packet import (ETH_TYPE_IPV4, ETHERNET, GTPU, IP_PROTO_TCP,
                          IP_PROTO_UDP, IPV4, TCP, UDP, UDP_PORT_GTPU)
from ..p4 import ir
from .capacity import AetherCapacity

APP_ID_UNKNOWN = 0
DIRECTION_UPLINK = 1
DIRECTION_DOWNLINK = 2


def _upf_ecmp_hash(route_dst: int, app_addr: int, app_port: int,
                   app_proto: int, ecmp_width: int) -> int:
    """Flow hash extern for ECMP uplink selection (deterministic)."""
    blob = f"{route_dst},{app_addr},{app_port},{app_proto}".encode()
    return zlib.crc32(blob) % (ecmp_width or 1)


def upf_program(name: str = "fabric_upf",
                capacity: Optional[AetherCapacity] = None) -> ir.P4Program:
    """Build the UPF forwarding program.

    ``capacity`` sizes the session/terminations/applications tables
    from the deployment's declared budgets instead of the small-testbed
    defaults (the resource model of a switch that really holds a
    million subscribers' state).
    """
    sessions_size = capacity.session_table_size if capacity else 1024
    terms_size = capacity.terminations_table_size if capacity else 4096
    apps_size = capacity.applications_table_size if capacity else 1024
    program = ir.P4Program(name=name)
    program.parser = ir.ParserSpec(states=[
        ir.ParserState(
            name="start",
            extracts=[ir.Extract("ethernet", ETHERNET)],
            transitions=[
                ir.Transition("parse_ipv4", "hdr.ethernet.eth_type",
                              ETH_TYPE_IPV4),
                ir.Transition(ir.ACCEPT),
            ],
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
            transitions=[
                ir.Transition("parse_gtpu", "hdr.udp.dst_port",
                              UDP_PORT_GTPU),
                ir.Transition(ir.ACCEPT),
            ],
        ),
        ir.ParserState(
            name="parse_tcp",
            extracts=[ir.Extract("tcp", TCP)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
        ir.ParserState(
            name="parse_gtpu",
            extracts=[ir.Extract("gtpu", GTPU)],
            transitions=[ir.Transition("parse_inner_ipv4")],
        ),
        ir.ParserState(
            name="parse_inner_ipv4",
            extracts=[ir.Extract("inner_ipv4", IPV4)],
            transitions=[
                ir.Transition("parse_inner_udp", "hdr.inner_ipv4.protocol",
                              IP_PROTO_UDP),
                ir.Transition("parse_inner_tcp", "hdr.inner_ipv4.protocol",
                              IP_PROTO_TCP),
                ir.Transition(ir.ACCEPT),
            ],
        ),
        ir.ParserState(
            name="parse_inner_udp",
            extracts=[ir.Extract("inner_udp", UDP)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
        ir.ParserState(
            name="parse_inner_tcp",
            extracts=[ir.Extract("inner_tcp", TCP)],
            transitions=[ir.Transition(ir.ACCEPT)],
        ),
    ])
    program.emit_order = ["ethernet", "ipv4", "udp", "gtpu",
                          "inner_ipv4", "inner_udp", "inner_tcp", "tcp"]
    program.metadata = [
        ("direction", 8),
        ("client_id", 32),
        ("slice_id", 8),
        ("app_id", 8),
        ("app_addr", 32),
        ("app_port", 16),
        ("app_proto", 8),
        ("route_dst", 32),
        ("encap_teid", 32),
        ("do_encap", 1),
        ("upf_drop_flag", 1),
        ("ecmp_width", 8),
        ("ecmp_select", 16),
    ]

    # ---------------- Sessions ----------------
    uplink_session = ir.Action(
        name="set_session_uplink",
        params=[("client_id", 32), ("slice_id", 8)],
        body=[
            ir.AssignStmt("meta.direction", ir.Const(DIRECTION_UPLINK, 8)),
            ir.AssignStmt("meta.client_id", ir.FieldRef("param.client_id")),
            ir.AssignStmt("meta.slice_id", ir.FieldRef("param.slice_id")),
            # GTP-U decapsulation: strip the outer headers.
            ir.SetInvalid("ipv4"),
            ir.SetInvalid("udp"),
            ir.SetInvalid("gtpu"),
        ],
    )
    downlink_session = ir.Action(
        name="set_session_downlink",
        params=[("client_id", 32), ("slice_id", 8), ("teid", 32)],
        body=[
            ir.AssignStmt("meta.direction", ir.Const(DIRECTION_DOWNLINK, 8)),
            ir.AssignStmt("meta.client_id", ir.FieldRef("param.client_id")),
            ir.AssignStmt("meta.slice_id", ir.FieldRef("param.slice_id")),
            ir.AssignStmt("meta.encap_teid", ir.FieldRef("param.teid")),
            ir.AssignStmt("meta.do_encap", ir.Const(1, 1)),
        ],
    )
    session_miss = ir.Action(name="session_miss", params=[], body=[])
    program.add_action(uplink_session)
    program.add_action(downlink_session)
    program.add_action(session_miss)
    program.add_table(ir.Table(
        name="uplink_sessions",
        keys=[ir.TableKey("hdr.gtpu.teid", ir.MatchKind.EXACT)],
        actions=[uplink_session.name],
        default_action=(session_miss.name, []),
        size=sessions_size,
    ))
    program.add_table(ir.Table(
        name="downlink_sessions",
        keys=[ir.TableKey("hdr.ipv4.dst_addr", ir.MatchKind.EXACT)],
        actions=[downlink_session.name],
        default_action=(session_miss.name, []),
        size=sessions_size,
    ))

    # ---------------- Applications ----------------
    set_app_id = ir.Action(
        name="set_app_id", params=[("app_id", 8)],
        body=[ir.AssignStmt("meta.app_id", ir.FieldRef("param.app_id"))],
    )
    app_miss = ir.Action(
        name="app_miss", params=[],
        body=[ir.AssignStmt("meta.app_id", ir.Const(APP_ID_UNKNOWN, 8))],
    )
    program.add_action(set_app_id)
    program.add_action(app_miss)
    # The slice id is a key so that identical application patterns in
    # different slices resolve to their own (shared-within-slice) ids.
    program.add_table(ir.Table(
        name="applications",
        keys=[
            ir.TableKey("meta.slice_id", ir.MatchKind.RANGE),
            ir.TableKey("meta.app_addr", ir.MatchKind.RANGE),
            ir.TableKey("meta.app_port", ir.MatchKind.RANGE),
            ir.TableKey("meta.app_proto", ir.MatchKind.RANGE),
        ],
        actions=[set_app_id.name],
        default_action=(app_miss.name, []),
        size=apps_size,
    ))

    # ---------------- Terminations ----------------
    term_forward = ir.Action(name="term_forward", params=[], body=[])
    term_drop = ir.Action(
        name="term_drop", params=[],
        body=[ir.AssignStmt("meta.upf_drop_flag", ir.Const(1, 1))],
    )
    program.add_action(term_forward)
    program.add_action(term_drop)
    program.add_table(ir.Table(
        name="terminations",
        keys=[
            ir.TableKey("meta.client_id", ir.MatchKind.EXACT),
            ir.TableKey("meta.app_id", ir.MatchKind.EXACT),
        ],
        actions=[term_forward.name, term_drop.name],
        # A (client, app) pair with no entry is dropped.
        default_action=(term_drop.name, []),
        size=terms_size,
    ))

    # ---------------- Routing (with ECMP over the spines) ----------------
    route = ir.Action(
        name="upf_route", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port"))],
    )
    route_ecmp = ir.Action(
        name="upf_route_ecmp", params=[("width", 8)],
        body=[ir.AssignStmt("meta.ecmp_width", ir.FieldRef("param.width"))],
    )
    ecmp_port = ir.Action(
        name="upf_ecmp_port", params=[("port", 9)],
        body=[ir.AssignStmt("standard_metadata.egress_spec",
                            ir.FieldRef("param.port"))],
    )
    route_drop = ir.Action(name="upf_route_drop", params=[],
                           body=[ir.MarkToDrop()])
    program.add_action(route)
    program.add_action(route_ecmp)
    program.add_action(ecmp_port)
    program.add_action(route_drop)
    program.add_table(ir.Table(
        name="upf_routes",
        keys=[ir.TableKey("meta.route_dst", ir.MatchKind.LPM)],
        actions=[route.name, route_ecmp.name],
        default_action=(route_drop.name, []),
        size=1024,
    ))
    program.add_table(ir.Table(
        name="upf_ecmp_table",
        keys=[ir.TableKey("meta.ecmp_select", ir.MatchKind.EXACT)],
        actions=[ecmp_port.name],
        default_action=(route_drop.name, []),
        size=64,
    ))

    uplink = ir.BinExpr("==", ir.FieldRef("meta.direction"),
                        ir.Const(DIRECTION_UPLINK, 8))
    program.ingress = [
        # Direction + client identification (and GTP-U decap on uplink).
        ir.IfStmt(
            cond=ir.ValidRef("gtpu"),
            then_body=[ir.ApplyTable("uplink_sessions")],
            else_body=[ir.IfStmt(
                cond=ir.ValidRef("ipv4"),
                then_body=[ir.ApplyTable("downlink_sessions")],
            )],
        ),
        # Application key extraction (mirrors the Figure 9 init block).
        ir.IfStmt(
            cond=uplink,
            then_body=[
                ir.AssignStmt("meta.app_addr",
                              ir.FieldRef("hdr.inner_ipv4.dst_addr")),
                ir.AssignStmt("meta.app_proto",
                              ir.FieldRef("hdr.inner_ipv4.protocol")),
                ir.AssignStmt("meta.route_dst",
                              ir.FieldRef("hdr.inner_ipv4.dst_addr")),
                ir.IfStmt(
                    cond=ir.ValidRef("inner_udp"),
                    then_body=[ir.AssignStmt(
                        "meta.app_port",
                        ir.FieldRef("hdr.inner_udp.dst_port"))],
                    else_body=[ir.IfStmt(
                        cond=ir.ValidRef("inner_tcp"),
                        then_body=[ir.AssignStmt(
                            "meta.app_port",
                            ir.FieldRef("hdr.inner_tcp.dst_port"))],
                    )],
                ),
            ],
            else_body=[
                ir.AssignStmt("meta.app_addr",
                              ir.FieldRef("hdr.ipv4.src_addr")),
                ir.AssignStmt("meta.app_proto",
                              ir.FieldRef("hdr.ipv4.protocol")),
                ir.AssignStmt("meta.route_dst",
                              ir.FieldRef("hdr.ipv4.dst_addr")),
                ir.IfStmt(
                    cond=ir.ValidRef("udp"),
                    then_body=[ir.AssignStmt(
                        "meta.app_port", ir.FieldRef("hdr.udp.src_port"))],
                    else_body=[ir.IfStmt(
                        cond=ir.ValidRef("tcp"),
                        then_body=[ir.AssignStmt(
                            "meta.app_port",
                            ir.FieldRef("hdr.tcp.src_port"))],
                    )],
                ),
            ],
        ),
        # Application filtering applies only to UPF traffic (a session
        # matched); plain fabric transit is routed unfiltered.
        ir.IfStmt(
            cond=ir.BinExpr("!=", ir.FieldRef("meta.direction"),
                            ir.Const(0, 8)),
            then_body=[
                ir.ApplyTable("applications"),
                ir.ApplyTable("terminations"),
            ],
        ),
        ir.AssignStmt("meta.ecmp_width", ir.Const(0, 8)),
        ir.ApplyTable("upf_routes"),
        ir.IfStmt(
            cond=ir.BinExpr(">", ir.FieldRef("meta.ecmp_width"),
                            ir.Const(0, 8)),
            then_body=[
                ir.ExternCall(
                    "upf_ecmp_hash", _upf_ecmp_hash,
                    args=[ir.FieldRef("meta.route_dst"),
                          ir.FieldRef("meta.app_addr"),
                          ir.FieldRef("meta.app_port"),
                          ir.FieldRef("meta.app_proto"),
                          ir.FieldRef("meta.ecmp_width")],
                    dests=["meta.ecmp_select"]),
                ir.ApplyTable("upf_ecmp_table"),
            ],
        ),
    ]
    # Downlink GTP-U encapsulation happens in egress: the original
    # IPv4/L4 headers are copied into the inner binds and the outer
    # headers are rewritten as the tunnel toward the small cell.
    def copy_header(dst_bind: str, src_bind: str, htype) -> list:
        return [ir.AssignStmt(f"hdr.{dst_bind}.{f.name}",
                              ir.FieldRef(f"hdr.{src_bind}.{f.name}"))
                for f in htype.fields]

    encap_body = (
        [ir.SetValid("inner_ipv4")]
        + copy_header("inner_ipv4", "ipv4", IPV4)
        + [ir.IfStmt(
            cond=ir.ValidRef("udp"),
            then_body=([ir.SetValid("inner_udp")]
                       + copy_header("inner_udp", "udp", UDP)),
            else_body=[ir.IfStmt(
                cond=ir.ValidRef("tcp"),
                then_body=([ir.SetValid("inner_tcp")]
                           + copy_header("inner_tcp", "tcp", TCP)
                           + [ir.SetInvalid("tcp")]),
            )],
        )]
        + [
            # Outer tunnel headers: IPv4/UDP/GTP-U toward the cell.
            ir.AssignStmt("hdr.ipv4.protocol", ir.Const(IP_PROTO_UDP, 8)),
            ir.AssignStmt("hdr.ipv4.ttl", ir.Const(64, 8)),
            ir.SetValid("udp"),
            ir.AssignStmt("hdr.udp.src_port", ir.Const(UDP_PORT_GTPU, 16)),
            ir.AssignStmt("hdr.udp.dst_port", ir.Const(UDP_PORT_GTPU, 16)),
            ir.SetValid("gtpu"),
            ir.AssignStmt("hdr.gtpu.version", ir.Const(1, 3)),
            ir.AssignStmt("hdr.gtpu.pt", ir.Const(1, 1)),
            ir.AssignStmt("hdr.gtpu.msgtype", ir.Const(255, 8)),
            ir.AssignStmt("hdr.gtpu.teid", ir.FieldRef("meta.encap_teid")),
        ]
    )
    # The drop decision is enforced at the end of egress so runtime
    # checkers can observe it first.
    program.egress = [
        ir.IfStmt(
            cond=ir.BinExpr("==", ir.FieldRef("meta.do_encap"),
                            ir.Const(1, 1)),
            then_body=encap_body,
        ),
        ir.IfStmt(
            cond=ir.BinExpr("==", ir.FieldRef("meta.upf_drop_flag"),
                            ir.Const(1, 1)),
            then_body=[ir.MarkToDrop()],
        ),
    ]
    return program
