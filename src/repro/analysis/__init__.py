"""Lint over compiled checker IR.

A compiled checker is loop-free, structured P4 control code, so every
pass walks its statements directly (:func:`repro.p4.ir.bodies`), no
graph and no fixpoint: an :class:`~repro.analysis.unit.AnalysisUnit`
holds the checker, its four placement views and each statement's
effect; the rules of :data:`~repro.analysis.passes.REGISTRY` emit
structured :class:`~repro.analysis.diagnostics.Diagnostic` records,
surfaced by ``python -m repro lint`` and :func:`repro.api.lint`.
"""

from .diagnostics import (Diagnostic, Severity, max_severity,
                          render_json, sort_diagnostics)
from .passes import REGISTRY, lint_compiled
from .unit import AnalysisUnit, PlacementView, checker_placements

__all__ = [
    "AnalysisUnit", "Diagnostic", "PlacementView", "REGISTRY", "Severity",
    "checker_placements", "lint_compiled", "max_severity", "render_json",
    "sort_diagnostics",
]
