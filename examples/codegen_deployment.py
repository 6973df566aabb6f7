#!/usr/bin/env python3
"""The paper's compiler interface (Section 4.1): Indus program +
topology file -> switch-specific P4 code.

This example writes a topology file for the Figure 8 fabric, runs the
compiler driver to produce one P4 source per switch (edge switches get
init/telemetry/checker, core switches telemetry only), and prints the
deployment manifest the control plane consumes (each switch's writes:
the inject/strip entries on its edge ports and its switch-id default;
control-variable tables; report layout).  It then writes the loop
checker, which reads the switch id, and checks that each switch's
manifest default carries that switch's own id.

Equivalent CLI:

    python -m repro codegen valley_free \\
        --topology topo.json -o out --forwarding srcroute
"""

import json
import os
import tempfile

from repro.compiler import compile_program
from repro.compiler.driver import write_deployment
from repro.net.topofile import load_topology, save_topology
from repro.net.topology import leaf_spine
from repro.properties import load_source


def main():
    workdir = tempfile.mkdtemp(prefix="hydra_codegen_")
    topo_path = os.path.join(workdir, "topology.json")
    out_dir = os.path.join(workdir, "p4")

    print("1. Write the topology file (Figure 8 leaf-spine)")
    save_topology(leaf_spine(2, 2, 2), topo_path)
    print(f"   {topo_path}")
    topology = load_topology(topo_path)
    for name, spec in topology.switches.items():
        print(f"   {name:8s} role={spec.role:4s} "
              f"edge_ports={spec.edge_ports}")

    print("\n2. Compile the valley-free checker and link per switch")
    compiled = compile_program(load_source("valley_free"),
                               name="valley_free")
    written = write_deployment(compiled, topology, out_dir,
                               forwarding="srcroute")
    manifest_path = written.pop("__manifest__")
    for switch, path in sorted(written.items()):
        lines = sum(1 for _ in open(path))
        print(f"   {switch:8s} -> {path} ({lines} lines)")

    print("\n3. The deployment manifest (what the control plane installs)")
    manifest = json.load(open(manifest_path))
    print(f"   telemetry header: {manifest['telemetry_header']['bits']} "
          f"bits, EtherType 0x{manifest['telemetry_header']['eth_type']:X}")
    for switch, writes in manifest["writes"].items():
        entries = ", ".join(f"{e['table']}{e['match']}"
                            for e in writes["entries"]) or "none"
        defaults = ", ".join(f"{d['table']} = {d['action']}{d['args']}"
                             for d in writes["defaults"]) or "none"
        print(f"   {switch}: entries {entries}; defaults {defaults}")
    print(f"   control tables: {manifest['control_tables']}")

    print("\n4. A core switch's program differs from an edge switch's:")
    edge_text = open(written["leaf1"]).read()
    core_text = open(written["spine1"]).read()
    print(f"   leaf1.p4:  {len(edge_text.splitlines()):4d} lines "
          "(init + telemetry + checker + strip)")
    print(f"   spine1.p4: {len(core_text.splitlines()):4d} lines "
          "(telemetry only)")
    assert "mark_to_drop" in edge_text

    print("\n5. The loop checker reads the switch id: each switch's "
          "manifest sets its own")
    loops = compile_program(load_source("loops"), name="loops")
    written = write_deployment(loops, topology,
                               os.path.join(workdir, "loops"))
    manifest = json.load(open(written["__manifest__"]))
    for switch, writes in manifest["writes"].items():
        (default,) = writes["defaults"]
        assert default["table"] == loops.switch_id_table
        assert default["args"] == [topology.switches[switch].switch_id]
        print(f"   {switch:8s} {default['action']}{default['args']}")
    print(f"\nOutput left in {workdir}")


if __name__ == "__main__":
    main()
