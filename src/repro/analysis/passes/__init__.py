"""The lint rules, one table.

A pass is a function ``(AnalysisUnit) -> List[Diagnostic]``;
:data:`REGISTRY` maps each stable rule id to its pass, in rule order.
:func:`lint_compiled` runs them (or a subset) over one compiled checker.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ...compiler.lower import CompiledChecker
from ..diagnostics import Diagnostic, sort_diagnostics
from ..unit import AnalysisUnit
from .headers import possibly_invalid_key
from .reachability import after_drop, dead_table
from .registers import dead_register, register_write_conflict
from .uninit import uninit_read
from .widths import width_truncation

LintPass = Callable[[AnalysisUnit], List[Diagnostic]]

#: rule id -> pass function.
REGISTRY: Dict[str, LintPass] = {
    "IH001": uninit_read,
    "IH002": dead_register,
    "IH003": after_drop,
    "IH004": register_write_conflict,
    "IH005": possibly_invalid_key,
    "IH006": width_truncation,
    "IH007": dead_table,
}


def lint_compiled(compiled: CompiledChecker,
                  only: Optional[Iterable[str]] = None
                  ) -> List[Diagnostic]:
    """Run every lint pass over a compiled checker, linked against the
    minimal standalone L2 program; ``only`` restricts to a subset of
    rule ids.  The result is deterministically ordered."""
    unit = AnalysisUnit(compiled)
    selected = list(REGISTRY) if only is None else list(only)
    diags: List[Diagnostic] = []
    for rule_id in selected:
        try:
            fn = REGISTRY[rule_id]
        except KeyError:
            raise ValueError(f"unknown lint rule {rule_id!r}; known: "
                             f"{', '.join(REGISTRY)}") from None
        diags.extend(fn(unit))
    return sort_diagnostics(diags)


__all__ = ["LintPass", "REGISTRY", "lint_compiled"]
