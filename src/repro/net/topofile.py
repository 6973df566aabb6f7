"""Topology files: the compiler's second input (Section 4.1).

"The compiler takes as inputs an Indus program and a topology file in
which each switch is classified as an edge or non-edge switch."  This
module defines that file format (JSON) with loading, saving, and
validation, so deployments can be described declaratively::

    {
      "name": "leafspine-2x2",
      "switches": [
        {"name": "leaf1", "role": "edge", "is_leaf": true},
        {"name": "spine1", "role": "core", "is_spine": true}
      ],
      "hosts": [
        {"name": "h1", "ipv4": "10.0.1.1"}
      ],
      "links": [
        {"a": ["leaf1", 1], "b": ["h1", 0],
         "latency_us": 1, "bandwidth_gbps": 10}
      ]
    }
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Union

from .packet import format_ip, ip
from .topology import CORE, EDGE, Topology


class TopologyFormatError(ValueError):
    """Raised when a topology file is malformed."""


def _parse_ipv4(value: Union[str, int]) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        if not 0 <= value < 1 << 32:
            raise ValueError(f"bad IPv4 address {value!r}")
        return value
    parts = value.split(".") if isinstance(value, str) else []
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {value!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad IPv4 address {value!r}") from exc
    if any(not 0 <= o <= 255 for o in octets):
        raise ValueError(f"bad IPv4 address {value!r}")
    return ip(*octets)


def _port(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"port must be an integer, got {value!r}")
    return value


def _number(entry: Dict[str, Any], key: str, default: float,
            zero_ok: bool) -> float:
    """A finite link attribute, at least zero (``zero_ok``) or above it."""
    value = float(entry.get(key, default))
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"'{key}' must be finite and {bound}, got {value!r}")
    return value


def _each(data: Dict[str, Any], key: str, kind: str,
          add: Callable[[Dict[str, Any]], None]) -> None:
    """``add`` each entry of the document's ``key`` list; a
    ``ValueError`` or ``TypeError`` it raises becomes a
    :class:`TopologyFormatError` naming the ``kind`` entry."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise TopologyFormatError(f"'{key}' must be a list, got {entries!r}")
    for entry in entries:
        try:
            if not isinstance(entry, dict):
                raise ValueError("must be an object")
            add(entry)
        except (TypeError, ValueError) as exc:
            raise TopologyFormatError(f"{kind} {entry!r}: {exc}") from exc


def _name(entry: Dict[str, Any], kind: str) -> str:
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} entries need a 'name'")
    return name


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Build a :class:`Topology` from a parsed topology document.

    Anything malformed raises :class:`TopologyFormatError` naming the
    entry at fault: a missing name, an unknown role, a bad address, a
    non-integer port, a link to an unknown node, a duplicate name, a
    port wired twice, a negative or non-finite latency, a bandwidth
    that is not positive and finite.
    """
    if not isinstance(data, dict):
        raise TopologyFormatError("topology document must be an object")
    topo = Topology(name=data.get("name", "topology"))

    def add_switch(entry: Dict[str, Any]) -> None:
        role = entry.get("role", CORE)
        if role not in (EDGE, CORE):
            raise ValueError(f"role must be 'edge' or 'core', got {role!r}")
        topo.add_switch(_name(entry, "switch"), role=role,
                        is_spine=bool(entry.get("is_spine", False)),
                        is_leaf=bool(entry.get("is_leaf", False)))

    def add_host(entry: Dict[str, Any]) -> None:
        topo.add_host(_name(entry, "host"),
                      ipv4=_parse_ipv4(entry.get("ipv4", 0)),
                      mac=entry.get("mac"))

    def add_link(entry: Dict[str, Any]) -> None:
        try:
            (node_a, port_a), (node_b, port_b) = entry["a"], entry["b"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("link entries need 'a': [node, port] and "
                             "'b': [node, port]") from exc
        topo.add_link(
            node_a, _port(port_a), node_b, _port(port_b),
            latency_s=_number(entry, "latency_us", 1, zero_ok=True) * 1e-6,
            bandwidth_bps=_number(entry, "bandwidth_gbps", 10,
                                  zero_ok=False) * 1e9,
        )

    _each(data, "switches", "switch", add_switch)
    _each(data, "hosts", "host", add_host)
    _each(data, "links", "link", add_link)
    return topo


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """Serialize a :class:`Topology` to a topology document."""
    return {
        "name": topo.name,
        "switches": [
            {
                "name": spec.name,
                "role": spec.role,
                "is_spine": spec.is_spine,
                "is_leaf": spec.is_leaf,
            }
            for spec in topo.switches.values()
        ],
        "hosts": [
            {
                "name": spec.name,
                "ipv4": format_ip(spec.ipv4),
                "mac": spec.mac,
            }
            for spec in topo.hosts.values()
        ],
        "links": [
            {
                "a": [link.a.node, link.a.port],
                "b": [link.b.node, link.b.port],
                "latency_us": link.latency_s * 1e6,
                "bandwidth_gbps": link.bandwidth_bps / 1e9,
            }
            for link in topo.links
        ],
    }


def load_topology(path: str) -> Topology:
    """Load a topology from a JSON file."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TopologyFormatError(f"{path}: invalid JSON: {exc}") from exc
    return topology_from_dict(data)


def save_topology(topo: Topology, path: str) -> None:
    """Write a topology to a JSON file."""
    with open(path, "w") as handle:
        json.dump(topology_to_dict(topo), handle, indent=2)
        handle.write("\n")
