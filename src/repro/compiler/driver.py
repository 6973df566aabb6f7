"""The compiler driver: per-switch code generation from a topology file.

Mirrors the paper's compiler interface (Section 4.1): given an Indus
program and a topology classifying each switch as edge or non-edge, it
"generates switch-specific code for each switch in the topology".

A deployment's wiring is decided here once.  :func:`link_switches`
links every switch of a topology, and :func:`switch_writes` lists the
control-plane writes each switch needs before traffic: the inject/strip
entries on its edge ports and its switch-id default.
:class:`~repro.runtime.deployment.HydraDeployment` applies both to
behavioral switches; :func:`write_deployment` writes the same programs
as P4 sources and the same writes, per switch, into a manifest.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Sequence, Union

from ..net.topology import EDGE, Topology
from ..p4 import ir, render
from .linker import LAST_HOP, link
from .lower import CompiledChecker

ForwardingFactory = Callable[[str], ir.P4Program]


def forwarding_factory(profile: str) -> ForwardingFactory:
    """Resolve a named forwarding profile (``repro codegen
    --forwarding``) to a per-switch program factory."""
    # Deferred: aether -> runtime -> compiler.driver -> aether.upf is a
    # cycle at import time.
    from ..aether.upf import upf_program
    from ..p4 import programs

    profiles: Dict[str, ForwardingFactory] = {
        "l2": lambda name: programs.l2_port_forwarding(f"l2_{name}"),
        "ipv4": lambda name: programs.ipv4_lpm_forwarding(f"ipv4_{name}"),
        "srcroute": lambda name: programs.source_routing(f"sr_{name}"),
        "fabric": lambda name: programs.ecmp_fabric(f"fabric_{name}"),
        "vlan": lambda name: programs.vlan_l2_forwarding(f"vlan_{name}"),
        "upf": lambda name: upf_program(f"upf_{name}"),
    }
    if profile not in profiles:
        raise ValueError(
            f"unknown forwarding profile {profile!r}; "
            f"available: {', '.join(sorted(profiles))}"
        )
    return profiles[profile]


def link_switches(topology: Topology,
                  compiled: Union[CompiledChecker, Sequence[CompiledChecker]],
                  forwarding: Dict[str, ir.P4Program],
                  check_mode: str = LAST_HOP) -> Dict[str, ir.P4Program]:
    """Switch name -> its linked program, each switch's role (edge/core)
    selecting which blocks it runs.

    One link per (forwarding program object, role): switches that share
    both run the same linked program, and so one compile() of each text
    their engines generate (``ir.P4Program.code``).
    """
    by_role: Dict[tuple, ir.P4Program] = {}
    linked: Dict[str, ir.P4Program] = {}
    for name, spec in topology.switches.items():
        if name not in forwarding:
            raise ValueError(f"no forwarding program for switch {name!r}")
        key = (id(forwarding[name]), spec.role)
        if key not in by_role:
            by_role[key] = link(forwarding[name], compiled, role=spec.role,
                                check_mode=check_mode)
        linked[name] = by_role[key]
    return linked


def switch_writes(compileds: Sequence[CompiledChecker],
                  topology: Topology) -> Dict[str, Dict[str, List[Any]]]:
    """Switch name -> the scaffolding writes its linked program expects,
    as plain data: ``"entries"`` to insert (per checker, per edge port,
    an inject and a strip entry) and ``"defaults"`` to set (per checker
    that reads it, the switch's id)."""
    writes: Dict[str, Dict[str, List[Any]]] = {}
    for name, spec in topology.switches.items():
        ports = spec.edge_ports if spec.role == EDGE else []
        entries = [
            {"table": table, "match": [port], "action": action}
            for c in compileds for port in ports
            for table, action in ((c.inject_table, c.mark_first_action),
                                  (c.strip_table, c.mark_last_action))
        ]
        defaults = [
            {"table": c.switch_id_table, "action": c.set_switch_id_action,
             "args": [spec.switch_id]}
            for c in compileds if c.switch_id_table in c.tables
        ]
        writes[name] = {"entries": entries, "defaults": defaults}
    return writes


def deployment_manifest(compiled: CompiledChecker,
                        topology: Topology) -> Dict:
    """The control-plane wiring a deployment needs, as plain data."""
    return {
        "checker": compiled.name,
        "telemetry_header": {
            "name": compiled.hydra_name,
            "eth_type": compiled.eth_type,
            "bits": compiled.hydra_header.width_bits,
            "fields": [
                {"name": f.name, "width": f.width}
                for f in compiled.hydra_header.fields
            ],
        },
        "writes": switch_writes([compiled], topology),
        "control_tables": dict(compiled.control_tables),
        "report_digest": compiled.report_digest,
        "report_sites": {
            site_id: {"block": site.block,
                      "payload_widths": list(site.field_widths)}
            for site_id, site in compiled.report_sites.items()
        },
    }


def write_deployment(compiled: CompiledChecker, topology: Topology,
                     out_dir: str,
                     forwarding: Union[str, ForwardingFactory] = "l2",
                     check_mode: str = LAST_HOP) -> Dict[str, str]:
    """Write per-switch P4 sources + a manifest to ``out_dir``.

    Returns switch name -> written file path.
    """
    factory = (forwarding_factory(forwarding)
               if isinstance(forwarding, str) else forwarding)
    programs = link_switches(
        topology, compiled,
        {name: factory(name) for name in topology.switches}, check_mode)
    os.makedirs(out_dir, exist_ok=True)
    written: Dict[str, str] = {}
    for name, program in programs.items():
        path = os.path.join(out_dir, f"{name}.p4")
        with open(path, "w") as handle:
            handle.write(render(program))
        written[name] = path
    manifest_path = os.path.join(out_dir, "deployment.json")
    with open(manifest_path, "w") as handle:
        json.dump(deployment_manifest(compiled, topology), handle, indent=2)
        handle.write("\n")
    written["__manifest__"] = manifest_path
    return written
