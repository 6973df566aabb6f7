"""Dataflow analysis over compiled checker IR.

A shared substrate — per-placement control-flow graphs
(:mod:`~repro.analysis.cfg`), def/use extraction and the worklist
solver (:mod:`~repro.analysis.dataflow`) — feeds two consumers:

* the **lint** passes (:mod:`~repro.analysis.passes`), which emit
  structured :class:`~repro.analysis.diagnostics.Diagnostic` records
  surfaced by ``python -m repro lint`` and :func:`repro.api.lint`;
* the **optimizer** (:mod:`~repro.analysis.optimize`), a
  liveness-driven dead-code/dead-table/dead-register eliminator with
  constant folding and scratch-field coalescing, whose one invariant is
  that it changes nothing observable: verdicts, reports, and register
  state are bit-identical under the three-level difftest oracle.
"""

from .cfg import (CFG, CFGNode, PlacementView, always_extracted,
                  build_cfg, checker_placements)
from .dataflow import (UNINIT, liveness, reaching_definitions,
                       worklist_solve)
from .diagnostics import (Diagnostic, Severity, max_severity,
                          render_json, sort_diagnostics)
from .lint import lint_compiled
from .optimize import OptimizeStats, optimize_compiled
from .passes import REGISTRY, lint_pass, run_passes
from .unit import AnalysisUnit

__all__ = [
    "AnalysisUnit", "CFG", "CFGNode", "Diagnostic",
    "OptimizeStats", "PlacementView", "REGISTRY", "Severity", "UNINIT",
    "always_extracted", "build_cfg", "checker_placements",
    "lint_compiled", "lint_pass", "liveness", "max_severity",
    "optimize_compiled", "reaching_definitions", "render_json",
    "run_passes", "sort_diagnostics", "worklist_solve",
]
