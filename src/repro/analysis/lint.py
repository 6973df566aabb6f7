"""Top-level lint driver: compiled checker in, diagnostics out."""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..compiler.lower import CompiledChecker
from ..p4 import ir
from .diagnostics import Diagnostic
from .passes import run_passes
from .unit import AnalysisUnit


def lint_compiled(compiled: CompiledChecker,
                  program: Optional[ir.P4Program] = None,
                  only: Optional[Iterable[str]] = None
                  ) -> List[Diagnostic]:
    """Run every registered lint pass over a compiled checker.

    ``program`` optionally supplies the linked forwarding context
    (parser graph, header widths); when omitted the checker is linked
    against the minimal standalone L2 program.  ``only`` restricts to a
    subset of rule ids.  The result is deterministically ordered.
    """
    return run_passes(AnalysisUnit(compiled, program), only=only)


__all__ = ["lint_compiled"]
