#!/usr/bin/env python3
"""Quickstart: write an Indus property, check it, run it two ways.

This walks the full Hydra pipeline on the simplest useful property —
loop freedom ("a packet must not visit the same switch twice"):

1. parse + type-check the Indus source;
2. run it on the reference interpreter over a hand-made path;
3. compile it to P4 (``repro.compile_indus``), print the generated code;
4. deploy it on a simulated network (``repro.deploy``) and watch a
   looping packet die;
5. spot-check the whole toolchain with the differential oracle
   (``repro.run_scenario``).

Steps 3-5 go through :mod:`repro.api`, the stable facade — the same
five verbs the CLI and the experiment harnesses use (``repro.api.
difftest(seed=..., iters=...)`` scales step 5 into a whole
campaign).  The lower-level imports in steps 1-2 show the
layers underneath.
"""

import repro
from repro.indus import HopContext, Monitor, check, parse
from repro.net.packet import make_udp
from repro.net.topology import single_switch
from repro.p4 import count_loc, render
from repro.p4.programs import l2_port_forwarding

LOOP_FREEDOM = """
/* Packets must not visit the same switch twice. */
tele bit<32>[8] path;
tele bool looped = false;

{ }
{
  if (switch_id in path) {
    looped = true;
  }
  path.push(switch_id);
}
{
  if (looped) {
    reject;
    report;
  }
}
"""


def step1_check():
    print("=== 1. Parse and type-check ===")
    checked = check(parse(LOOP_FREEDOM))
    tele_vars = [d.name for d in checked.program.decls]
    print(f"declared variables: {tele_vars}")
    print(f"builtins used: {sorted(checked.used_builtins)}\n")
    return checked


def step2_interpret(checked):
    print("=== 2. Reference interpreter ===")
    monitor = Monitor(checked)

    def verdict(switch_ids):
        contexts = [
            HopContext(first_hop=(i == 0),
                       last_hop=(i == len(switch_ids) - 1),
                       switch_id=sid)
            for i, sid in enumerate(switch_ids)
        ]
        state = monitor.run_path(contexts)
        return "REJECTED" if state.rejected else "forwarded"

    print(f"path 1 -> 2 -> 3: {verdict([1, 2, 3])}")
    print(f"path 1 -> 2 -> 1 -> 3: {verdict([1, 2, 1, 3])}\n")


def step3_compile(checked):
    print("=== 3. Compile to P4 ===")
    compiled = repro.compile_indus(LOOP_FREEDOM, name="loop_freedom")
    program = repro.standalone_program(compiled)
    text = render(program)
    header = compiled.hydra_header
    print(f"telemetry header: {header.width_bits} bits "
          f"({header.width_bytes} bytes) across {len(header.fields)} fields")
    print(f"generated program: {count_loc(text)} lines of P4")
    print("--- generated checker tables ---")
    for name in compiled.tables:
        print(f"  table {name}")
    print()
    return compiled


def step4_deploy(compiled):
    print("=== 4. Deploy on a simulated network ===")
    topology = single_switch(2)
    deployment = repro.deploy(
        compiled, topology=topology,
        forwarding={"s1": l2_port_forwarding()},
    )
    sw = deployment.switches["s1"]
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    network = deployment.network
    packet = make_udp(topology.hosts["h1"].ipv4, topology.hosts["h2"].ipv4,
                      1234, 80)
    network.host("h1").send(packet)
    network.run()
    print(f"h2 received {network.host('h2').rx_count} packet(s); "
          f"reports: {len(deployment.reports)}")
    print("(single hop -> no loop possible; try the valley-free example "
          "for a multi-switch fabric)\n")


def step5_oracle():
    print("=== 5. Differential oracle spot-check ===")
    result = repro.run_scenario(seed=7)
    print(f"seed 7: {result.packets_run} packets through both engines "
          f"+ the reference monitor -> "
          f"{'all agree' if result.ok else result.failure}")
    print("(scale this up: repro.api.difftest(seed=0, iters=200), "
          "or `python -m repro difftest --iters 200`)")


def main():
    checked = step1_check()
    step2_interpret(checked)
    compiled = step3_compile(checked)
    step4_deploy(compiled)
    step5_oracle()


if __name__ == "__main__":
    main()
