"""Hydra: Effective Runtime Network Verification (SIGCOMM 2023) —
a complete Python reproduction.

Subpackages:

* :mod:`repro.indus`      — the Indus DSL (lexer, parser, type checker,
  reference interpreter).
* :mod:`repro.compiler`   — Indus-to-P4 code generation and linking.
* :mod:`repro.p4`         — P4 IR, behavioral model (bmv2 stand-in),
  pretty-printer, forwarding programs.
* :mod:`repro.net`        — packets, topologies, event-driven simulator.
* :mod:`repro.runtime`    — checker deployment and report collection.
* :mod:`repro.properties` — the Table-1 checker library.
* :mod:`repro.aether`     — the Aether substrate (UPF, ONOS, portal,
  mobile core) and the Section-5.2 case study.
* :mod:`repro.ltl`        — LTLf toolchain for Theorem 3.1.
* :mod:`repro.tofino`     — pipeline resource model (stages, PHV).
* :mod:`repro.workloads`  — synthetic campus traces (no real addresses,
  so nothing to anonymize), load/ping.
* :mod:`repro.experiments`— table/figure reproduction harnesses.

The stable public surface is :mod:`repro.api` — six verbs with
uniform keyword-only ``engine=`` / ``obs=`` / ``seed=`` arguments::

    import repro

    compiled = repro.compile_indus("loops")
    diagnostics = repro.lint("loops")             # lint the compiled IR
    result = repro.run_scenario(seed=7)           # dual-engine oracle
    summary = repro.api.difftest(seed=0, iters=200)

(The campaign verb is reached as ``repro.api.difftest`` — the top-level
name ``repro.difftest`` is the subpackage of the same name.)

Quickstart for the lower-level layers::

    from repro.indus import Monitor, HopContext

    monitor = Monitor.from_source('''
        tele bit<8>[4] path;
        { }
        { path.push(switch_id); }
        { if (switch_id in path) { reject; } }
    ''')
"""

__version__ = "1.0.0"

from . import (aether, api, compiler, experiments, indus, ltl, net, p4,
               properties, runtime, tofino, workloads)
from .api import compile_indus, deploy, lint, run_scenario
from .indus import Monitor, HopContext, check, parse
from .compiler import compile_program, link, standalone_program
from .runtime import HydraDeployment

__all__ = [
    "HopContext", "HydraDeployment", "Monitor", "aether", "api", "check",
    "compile_indus", "compile_program", "compiler", "deploy",
    "experiments", "indus", "link", "lint", "ltl", "net", "p4", "parse",
    "properties", "run_scenario", "runtime", "standalone_program",
    "tofino", "workloads", "__version__",
]
