"""Table 1 reproduction: lines of code, pipeline stages, and PHV usage
for every property, linked against the Aether ``fabric-upf`` baseline.

LoC metrics:

* **Indus LoC** — non-blank, non-comment lines of the property source;
* **generated P4 LoC** — the lines our pretty-printer emits for the
  checker's contribution, measured as linked-program LoC minus
  forwarding-only LoC (so parsers/boilerplate shared with the base
  program are not double-counted).

Resource metrics come from :mod:`repro.tofino` (container-packing PHV
model + dependency-depth stage model), anchored at the paper's measured
baseline (12 stages / 44.53% PHV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..aether.upf import upf_program
from ..compiler import compile_program, link
from ..net.topology import EDGE
from ..p4 import count_loc, render
from ..properties import (BASELINE_PHV_PCT, BASELINE_STAGES, PROPERTIES,
                          TABLE1_ORDER, indus_loc, load_checked)
from ..tofino import analyze_linked


@dataclass
class Table1Row:
    """One reproduced row of Table 1 next to the paper's numbers."""

    name: str
    description: str
    indus_loc: int
    p4_loc: int
    stages: int
    phv_pct: float
    paper_indus_loc: Optional[int]
    paper_p4_loc: Optional[int]
    paper_stages: Optional[int]
    paper_phv_pct: Optional[float]


def compute_row(name: str) -> Table1Row:
    info = PROPERTIES[name]
    compiled = compile_program(load_checked(name), name=name)
    baseline = upf_program("fabric_upf")
    linked = link(baseline, compiled, role=EDGE)
    p4_loc = count_loc(render(linked)) - count_loc(render(baseline))
    resources = analyze_linked(name, linked, baseline)
    return Table1Row(
        name=name,
        description=info.description,
        indus_loc=indus_loc(name),
        p4_loc=p4_loc,
        stages=resources.stages,
        phv_pct=resources.phv_pct,
        paper_indus_loc=info.paper_indus_loc,
        paper_p4_loc=info.paper_p4_loc,
        paper_stages=info.paper_stages,
        paper_phv_pct=info.paper_phv_pct,
    )


def compute_table(names: Optional[List[str]] = None) -> List[Table1Row]:
    return [compute_row(name) for name in (names or TABLE1_ORDER)]


def format_table(rows: List[Table1Row]) -> str:
    """Render the table the way the paper's Table 1 reads."""
    lines = [
        "Table 1 — Hydra properties "
        "(ours vs paper; paper values in parentheses)",
        f"{'Property':28s} {'Indus LoC':>12s} {'P4 LoC':>12s} "
        f"{'Stages':>12s} {'PHV %':>16s}",
        f"{'Baseline (fabric-upf)':28s} {'-':>12s} {'-':>12s} "
        f"{BASELINE_STAGES:>6d} {'(12)':>5s} "
        f"{BASELINE_PHV_PCT:>9.2f} {'(44.53)':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:28s} "
            f"{row.indus_loc:>5d} ({row.paper_indus_loc or '-':>4}) "
            f"{row.p4_loc:>5d} ({row.paper_p4_loc or '-':>4}) "
            f"{row.stages:>6d} ({row.paper_stages or '-':>3}) "
            f"{row.phv_pct:>9.2f} ({row.paper_phv_pct or '-':>6})"
        )
    return "\n".join(lines)
