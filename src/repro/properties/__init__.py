"""The property library: every checker of Table 1 (plus the Figure 7
valley-free checker and the literal Figure 2 program) as Indus source,
with the paper's reported numbers for comparison.

Use :func:`load_source` for raw text, :func:`load_checked` for a
type-checked AST, and :func:`compile_property` for P4 IR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..compiler.lower import CompiledChecker, compile_program
from ..indus import CheckedProgram, Monitor, check, parse

_HERE = os.path.dirname(__file__)


@dataclass(frozen=True)
class PropertyInfo:
    """Catalog entry: where the program lives and what the paper reports."""

    name: str
    filename: str
    description: str
    paper_indus_loc: Optional[int] = None
    paper_p4_loc: Optional[int] = None
    paper_stages: Optional[int] = None
    paper_phv_pct: Optional[float] = None
    in_table1: bool = True


# Paper numbers from Table 1.  The baseline row (Aether fabric-upf) is
# 12 stages / 44.53% PHV.
BASELINE_STAGES = 12
BASELINE_PHV_PCT = 44.53

PROPERTIES: Dict[str, PropertyInfo] = {
    info.name: info
    for info in [
        PropertyInfo(
            "multi_tenancy", "multi_tenancy.indus",
            "All traffic through a ToR port facing a bare-metal server "
            "should belong to the same tenant",
            paper_indus_loc=14, paper_p4_loc=102,
            paper_stages=11, paper_phv_pct=48.44,
        ),
        PropertyInfo(
            "load_balance", "load_balance.indus",
            "Uplink ports in data center switches should load balance "
            "between specified ports",
            paper_indus_loc=37, paper_p4_loc=194,
            paper_stages=12, paper_phv_pct=48.83,
        ),
        PropertyInfo(
            "stateful_firewall", "stateful_firewall.indus",
            "Flows can only enter the network if a device inside "
            "initiated the communication",
            paper_indus_loc=23, paper_p4_loc=164,
            paper_stages=12, paper_phv_pct=49.21,
        ),
        PropertyInfo(
            "application_filtering", "application_filtering.indus",
            "Clients should only communicate with designated applications "
            "(as identified by layer 4 ports)",
            paper_indus_loc=64, paper_p4_loc=126,
            paper_stages=12, paper_phv_pct=52.14,
        ),
        PropertyInfo(
            "vlan_isolation", "vlan_isolation.indus",
            "Packets should traverse switches in the same VLAN",
            paper_indus_loc=21, paper_p4_loc=119,
            paper_stages=11, paper_phv_pct=47.85,
        ),
        PropertyInfo(
            "egress_port_validity", "egress_port_validity.indus",
            "Packets should only egress a switch at allowed ports",
            paper_indus_loc=18, paper_p4_loc=132,
            paper_stages=12, paper_phv_pct=46.09,
        ),
        PropertyInfo(
            "routing_validity", "routing_validity.indus",
            "The first and last hop should be leaf switches, interior "
            "hops spine switches",
            paper_indus_loc=21, paper_p4_loc=122,
            paper_stages=12, paper_phv_pct=46.09,
        ),
        PropertyInfo(
            "loops", "loops.indus",
            "Packets should not visit the same switch twice (4 hops)",
            paper_indus_loc=20, paper_p4_loc=156,
            paper_stages=12, paper_phv_pct=48.24,
        ),
        PropertyInfo(
            "waypointing", "waypointing.indus",
            "All packets should pass through a choke point",
            paper_indus_loc=22, paper_p4_loc=154,
            paper_stages=12, paper_phv_pct=47.85,
        ),
        PropertyInfo(
            "service_chain", "service_chain.indus",
            "Packets from s to t should pass through (w1..wn) in order",
            paper_indus_loc=26, paper_p4_loc=121,
            paper_stages=12, paper_phv_pct=47.26,
        ),
        PropertyInfo(
            "source_routing_validation", "source_routing_validation.indus",
            "A source-routed packet should pass its switches in order",
            paper_indus_loc=34, paper_p4_loc=211,
            paper_stages=12, paper_phv_pct=51.56,
        ),
        PropertyInfo(
            "valley_free", "valley_free.indus",
            "Figure 7: a packet may visit a spine switch at most once",
            in_table1=False,
        ),
        PropertyInfo(
            "load_balance_arrays", "load_balance_arrays.indus",
            "Figure 2 verbatim: per-hop load arrays checked at the edge",
            in_table1=False,
        ),
        PropertyInfo(
            "valley_free_fattree", "valley_free_fattree.indus",
            "Valley-free routing generalized to any fat-tree (per-tier "
            "monotonic up-then-down)",
            in_table1=False,
        ),
    ]
}

TABLE1_ORDER: List[str] = [
    "multi_tenancy", "load_balance", "stateful_firewall",
    "application_filtering", "vlan_isolation", "egress_port_validity",
    "routing_validity", "loops", "waypointing", "service_chain",
    "source_routing_validation",
]


def property_names(table1_only: bool = False) -> List[str]:
    if table1_only:
        return list(TABLE1_ORDER)
    return list(PROPERTIES)


def load_source(name: str) -> str:
    """Raw Indus source text of a property."""
    info = PROPERTIES.get(name)
    if info is None:
        raise KeyError(f"unknown property {name!r}; "
                       f"available: {sorted(PROPERTIES)}")
    with open(os.path.join(_HERE, info.filename)) as handle:
        return handle.read()


def load_checked(name: str) -> CheckedProgram:
    """Parse + type-check a property."""
    return check(parse(load_source(name)))


def load_monitor(name: str) -> Monitor:
    """A reference-interpreter monitor for a property."""
    return Monitor(load_checked(name))


def compile_property(name: str,
                     bindings: Optional[Dict[str, str]] = None
                     ) -> CompiledChecker:
    """Compile a property to P4 IR."""
    return compile_program(load_checked(name), name=name, bindings=bindings)


def compile_suite(names: Optional[List[str]] = None,
                  base_eth_type: int = 0x88B5) -> List[CompiledChecker]:
    """Compile several properties for one multi-checker deployment.

    Each checker gets its own namespace (its property name) and a
    distinct telemetry EtherType, so all can be linked into the same
    forwarding program — the paper's "all checkers enabled" setup.
    """
    names = list(names if names is not None else TABLE1_ORDER)
    compiled = []
    for i, name in enumerate(names):
        compiled.append(compile_program(
            load_checked(name), name=name, namespace=name,
            eth_type=base_eth_type + i,
        ))
    return compiled


def indus_loc(name: str) -> int:
    """Lines of Indus code, the paper's metric: non-blank, non-comment."""
    count = 0
    in_block_comment = False
    for line in load_source(name).splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
                stripped = stripped.split("*/", 1)[1].strip()
            else:
                continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
                continue
            stripped = stripped.split("*/", 1)[1].strip()
        if stripped.startswith("//") or not stripped:
            continue
        count += 1
    return count
