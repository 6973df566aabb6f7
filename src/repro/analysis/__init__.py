"""Dataflow analysis over compiled checker IR.

A shared substrate — per-placement control-flow graphs
(:mod:`~repro.analysis.cfg`), def/use extraction and the worklist
solver (:mod:`~repro.analysis.dataflow`) — feeds the **lint** passes
(:mod:`~repro.analysis.passes`), which emit structured
:class:`~repro.analysis.diagnostics.Diagnostic` records surfaced by
``python -m repro lint`` and :func:`repro.api.lint`.
"""

from .cfg import (CFG, CFGNode, PlacementView, always_extracted,
                  build_cfg, checker_placements)
from .dataflow import (UNINIT, liveness, reaching_definitions,
                       worklist_solve)
from .diagnostics import (Diagnostic, Severity, max_severity,
                          render_json, sort_diagnostics)
from .lint import lint_compiled
from .passes import REGISTRY, lint_pass, run_passes
from .unit import AnalysisUnit

__all__ = [
    "AnalysisUnit", "CFG", "CFGNode", "Diagnostic",
    "PlacementView", "REGISTRY", "Severity", "UNINIT",
    "always_extracted", "build_cfg", "checker_placements",
    "lint_compiled", "lint_pass", "liveness", "max_severity",
    "reaching_definitions", "render_json",
    "run_passes", "sort_diagnostics", "worklist_solve",
]
