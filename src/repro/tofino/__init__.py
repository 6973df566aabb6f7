"""Tofino pipeline resource model: PHV container packing and stage
dependency analysis, anchored at the paper's measured baseline."""

from .phv import (CONTAINER_INVENTORY, PhvAllocation, TOTAL_PHV_BITS,
                  allocate, phv_bits)
from .report import (PAPER_BASELINE_PHV_PCT, PAPER_BASELINE_STAGES,
                     ResourceReport, analyze_linked, baseline_report)
from .stages import dependency_depth, pipeline_depth

__all__ = [
    "CONTAINER_INVENTORY", "PAPER_BASELINE_PHV_PCT",
    "PAPER_BASELINE_STAGES", "PhvAllocation", "ResourceReport",
    "TOTAL_PHV_BITS", "allocate", "analyze_linked", "baseline_report",
    "dependency_depth", "phv_bits", "pipeline_depth",
]
