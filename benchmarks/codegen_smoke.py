#!/usr/bin/env python
"""Codegen compile smoke: generated source must build for every program.

For the entire bundled property corpus plus every ``examples/*.indus``
file, compile the checker (both plain and through the dataflow
optimizer), stand up a codegen-engine switch — which emits, compiles,
and execs the generated module — and push a packet through the single
and batch entry points.  Any program whose generated source fails to
compile, or whose codegen output diverges from the interp engine on the
smoke packet, fails the run.

Then the paper's deployment — the fabric-upf leaf with all 11 Table-1
checkers linked in — is emitted and its generated source checked for
the shape the engine promises: one function, no per-packet header
allocation, a loop-free parser, headers unboxed (no ``.copy()``, no
``_os(`` in any switch's source and no ``Header.copy`` call on a
mid-path packet that does write binds: exact counts, so this stays
threshold-free), the checkers' scaffolding memoised (2 run sites per
leaf, 1 per spine, no fill on a second packet) — and each switch must
have built its module once, every control value set since being a
rebind (``Bmv2Switch.engine_counts()``).

Usage: ``PYTHONPATH=src python benchmarks/codegen_smoke.py``
"""

from __future__ import annotations

import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.aether.upf import upf_program                        # noqa: E402
from repro.compiler import compile_program, standalone_program  # noqa: E402
from repro.experiments.fig12 import (ALL_CHECKERS,              # noqa: E402
                                     configure_checker_controls,
                                     install_fabric_routes)
from repro.net.packet import Header, ip, make_udp               # noqa: E402
from repro.net.topology import leaf_spine                       # noqa: E402
from repro.p4 import ir                                         # noqa: E402
from repro.p4.bmv2 import Bmv2Switch, PacketContext             # noqa: E402
from repro.properties import (PROPERTIES, compile_suite,        # noqa: E402
                              load_source)
from repro.runtime.deployment import HydraDeployment            # noqa: E402


def _targets():
    for name in sorted(PROPERTIES):
        yield name, load_source(name)
    examples = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples")
    for path in sorted(glob.glob(os.path.join(examples, "*.indus"))):
        with open(path) as handle:
            yield os.path.basename(path), handle.read()


def _serialize(outputs):
    return [(port, [(h.htype.name, h.valid, h.to_bits())
                    for h in pkt.headers], pkt.payload_len)
            for port, pkt in outputs]


def _fabric(topology, compiled, engine):
    forwarding = {name: upf_program(f"fabric_upf_{name}")
                  for name in topology.switches}
    deployment = HydraDeployment(topology, compiled, forwarding,
                                 engine=engine)
    install_fabric_routes(topology, deployment.switches)
    configure_checker_controls(deployment, topology)
    return deployment


def _spy(cls, name, run):
    """``run()`` with method ``cls.name`` wrapped: the result and the
    positional arguments of every call made to it."""
    original = getattr(cls, name)
    calls = []

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    setattr(cls, name, wrapper)
    try:
        return run(), calls
    finally:
        setattr(cls, name, original)


def check_all_checkers_leaf() -> None:
    """Shape of the generated all-checkers pipeline (see module doc)."""
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    # One compile: the parser matches header types by identity.
    compiled = compile_suite(ALL_CHECKERS)
    codegen = _fabric(topology, compiled, "codegen")
    interp = _fabric(topology, compiled, "interp")
    # Deploying and configuring sets 18 (leaf) / 14 (spine) defaults:
    # values, so rebinds of the one module each switch built.
    engines = {name: sw.engine_counts()
               for name, sw in codegen.switches.items()}
    for name, counts in engines.items():
        assert counts["builds"] == {"initial": 1} and counts["rebinds"], (
            f"{name}: {counts} (a control value recompiled the module)")
    for name, sw in codegen.switches.items():
        source = sw._engine.source
        assert ".copy()" not in source and "_os(" not in source, (
            f"{name}: a boxed header write in the generated source")
        sites = engines[name]["runs"]["sites"]
        assert sites == (2 if name.startswith("leaf") else 1), (
            f"{name}: {sites} run site(s) (apply runs not memoised)")
    source = codegen.switches["leaf1"]._engine.source
    defs = [line for line in source.splitlines() if line.startswith("def ")]
    assert defs == ["def _process(packet, ingress_port):"], defs
    assert "_blank(" not in source, "per-packet header allocation"
    assert "while True" not in source, "acyclic parser emitted a loop"
    # h1 -> h3 crosses leaf1, a spine, leaf2: the spine sees it mid-path.
    hosts = topology.hosts
    packet = make_udp(hosts["h1"].ipv4, hosts["h3"].ipv4, 4000, 9)
    entry = topology.host_attachment("h1")
    # Both deployments see the first hop: its digests program every
    # switch's firewall state.
    interp.switches[entry.node].process(packet, entry.port)
    (port, mid), = codegen.switches[entry.node].process(packet, entry.port)
    hop = topology.link_at(entry.node, port).other(
        type(entry)(entry.node, port))
    out, copies = _spy(
        Header, "copy",
        lambda: codegen.switches[hop.node].process(mid, hop.port))
    # What the reference engine writes: header-field destinations and
    # validity statements it executes for this packet.
    (want, stmts), writes = _spy(
        PacketContext, "write", lambda: _spy(
            Bmv2Switch, "_exec",
            lambda: interp.switches[hop.node].process(mid, hop.port)))
    assert _serialize(out) == _serialize(want), "mid-path output diverges"
    binds = {path.split(".")[1] for path, _ in writes
             if path.startswith("hdr.")}
    binds |= {stmt.header for stmt, _ in stmts
              if isinstance(stmt, (ir.SetValid, ir.SetInvalid))}
    assert binds and not copies, (
        f"{len(copies)} Header.copy calls for {len(binds)} binds written")
    # Both hops have seen their ports now: a second packet fills nothing.
    def run_counts():
        return {name: sw.engine_counts()["runs"]
                for name, sw in codegen.switches.items()}

    runs = run_counts()
    assert runs[entry.node]["fills"] == 2 and runs[hop.node]["fills"] == 1
    codegen.switches[hop.node].process(
        codegen.switches[entry.node].process(packet, entry.port)[0][1],
        hop.port)
    assert run_counts() == runs, "a repeated port filled a run memo"
    print(f"ok   all-checkers leaf: {source.count(chr(10))} lines, "
          f"{len(copies)} copies for {len(binds)} binds written mid-path; "
          f"builds/rebinds per switch "
          + ", ".join(f"{name} {sum(counts['builds'].values())}/"
                      f"{counts['rebinds']}"
                      for name, counts in sorted(engines.items()))
          + "; runs sites/fills/clears per switch "
          + ", ".join("{} {sites}/{fills}/{clears}".format(name, **counts)
                      for name, counts in sorted(runs.items())))


def main() -> int:
    failures = 0
    packet = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 7, 9, ttl=12)
    for name, source in _targets():
        for optimize in (False, True):
            label = name + (" [optimized]" if optimize else "")
            try:
                compiled = compile_program(source, name=name,
                                           optimize=optimize)
                program = standalone_program(compiled)
                engines = {}
                for engine in ("interp", "codegen"):
                    sw = Bmv2Switch(program, name="smoke", switch_id=1,
                                    engine=engine)
                    sw.insert_entry("fwd_table", [1],
                                    "fwd_set_egress", [2])
                    single = _serialize(sw.process(packet.copy(), 1))
                    if engine == "codegen":
                        assert sw._engine.source, "empty generated source"
                        batch = sw.process_batch([(packet.copy(), 1)])
                        if [_serialize(o) for o in [batch[0]]][0] != single:
                            raise AssertionError(
                                "batch output differs from single")
                    engines[engine] = single
                if engines["interp"] != engines["codegen"]:
                    raise AssertionError("codegen diverges from interp "
                                         "on the smoke packet")
            except Exception as exc:
                failures += 1
                print(f"FAIL {label}: {type(exc).__name__}: {exc}")
                continue
            print(f"ok   {label}")
    try:
        check_all_checkers_leaf()
    except AssertionError as exc:
        failures += 1
        print(f"FAIL all-checkers leaf: {exc}")
    if failures:
        print(f"{failures} program(s) failed", file=sys.stderr)
        return 1
    print("codegen smoke: all programs build and agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
