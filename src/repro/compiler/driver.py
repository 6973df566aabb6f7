"""The compiler driver: per-switch code generation from a topology file.

Mirrors the paper's compiler interface (Section 4.1): given an Indus
program and a topology classifying each switch as edge or non-edge, it
"generates switch-specific code for each switch in the topology".  The
driver links the compiled checker with a forwarding program per switch
role and can write the resulting P4 sources plus a deployment manifest
(edge-port entries to install, control tables, report layout) to a
directory.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional, Union

from ..net.topology import Topology
from ..p4 import ir, render
from .linker import LAST_HOP, link
from .lower import CompiledChecker

ForwardingFactory = Callable[[str], ir.P4Program]

FORWARDING_PROFILES: Dict[str, Callable[[], ForwardingFactory]] = {}


def _register_profiles() -> None:
    """Lazy registry of named forwarding profiles for the CLI."""
    if FORWARDING_PROFILES:
        return
    from ..aether.upf import upf_program
    from ..p4.programs import (ecmp_fabric, ipv4_lpm_forwarding,
                               l2_port_forwarding, source_routing,
                               vlan_l2_forwarding)

    FORWARDING_PROFILES.update({
        "l2": lambda: (lambda name: l2_port_forwarding(f"l2_{name}")),
        "ipv4": lambda: (lambda name: ipv4_lpm_forwarding(f"ipv4_{name}")),
        "srcroute": lambda: (lambda name: source_routing(f"sr_{name}")),
        "fabric": lambda: (lambda name: ecmp_fabric(f"fabric_{name}")),
        "vlan": lambda: (lambda name: vlan_l2_forwarding(f"vlan_{name}")),
        "upf": lambda: (lambda name: upf_program(f"upf_{name}")),
    })


def forwarding_factory(profile: str) -> ForwardingFactory:
    """Resolve a named forwarding profile to a per-switch program factory."""
    _register_profiles()
    if profile not in FORWARDING_PROFILES:
        raise ValueError(
            f"unknown forwarding profile {profile!r}; "
            f"available: {', '.join(sorted(FORWARDING_PROFILES))}"
        )
    return FORWARDING_PROFILES[profile]()


def generate_switch_programs(
        compiled: CompiledChecker, topology: Topology,
        forwarding: Union[str, ForwardingFactory] = "l2",
        check_mode: str = LAST_HOP) -> Dict[str, ir.P4Program]:
    """Link the checker for every switch in the topology.

    Returns switch name -> linked program, with each switch's role
    (edge/core) selecting which blocks it runs.
    """
    factory = (forwarding_factory(forwarding)
               if isinstance(forwarding, str) else forwarding)
    programs: Dict[str, ir.P4Program] = {}
    for name, spec in topology.switches.items():
        programs[name] = link(factory(name), compiled, role=spec.role,
                              check_mode=check_mode)
    return programs


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
        "edge_entries": {
            name: {
                "inject_table": compiled.inject_table,
                "strip_table": compiled.strip_table,
                "ports": list(spec.edge_ports),
            }
            for name, spec in topology.switches.items()
            if spec.role == "edge"
        },
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
    os.makedirs(out_dir, exist_ok=True)
    programs = generate_switch_programs(compiled, topology, forwarding,
                                        check_mode)
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
