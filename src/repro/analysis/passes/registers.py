"""IH002 — dead register; IH004 — write-write register conflict.

IH002 flags a register that is (a) never referenced at all, (b) written
but never read by the data plane, or (c) read but never written — the
reads can only ever return the initial value.  Register state *is*
control-plane observable (the difftest oracle compares full register
dumps), so all three are warnings with hints rather than errors.

IH004 flags a register written from both the telemetry and the checker
fragment: on an edge switch both fragments run in the same egress pass,
so the final value depends on fragment placement order — exactly the
kind of silent cross-block coupling the paper's checker/telemetry split
is meant to avoid.
"""

from __future__ import annotations

from typing import List

from ...indus.errors import UNKNOWN_SPAN
from ...p4 import ir
from ..diagnostics import Diagnostic, Severity
from ..unit import AnalysisUnit


def _first_span(stmts: List[ir.P4Stmt]):
    for stmt in stmts:
        if stmt.span.line:
            return stmt.span
    return UNKNOWN_SPAN


def dead_register(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    occ = unit.register_occurrences()
    for reg in unit.compiled.registers:
        stmts = [s for block in occ.get(reg.name, {}).values()
                 for s in block]
        reads = [s for s in stmts if isinstance(s, ir.RegisterRead)]
        writes = [s for s in stmts if isinstance(s, ir.RegisterWrite)]
        if reads and writes:
            continue
        if not reads and not writes:
            diags.append(Diagnostic(
                rule="IH002", severity=Severity.WARNING,
                message=f"register {reg.name!r} is never read or "
                        f"written",
                path=reg.name,
                hint="delete the declaration"))
        elif writes:
            diags.append(Diagnostic(
                rule="IH002", severity=Severity.WARNING,
                message=f"register {reg.name!r} is written but never "
                        f"read by the data plane",
                span=_first_span(writes), path=reg.name,
                hint="its value is only reachable via control-plane "
                     "readout; drop the sensor if that is not intended"))
        else:
            diags.append(Diagnostic(
                rule="IH002", severity=Severity.WARNING,
                message=f"register {reg.name!r} is read but never "
                        f"written; every read returns the initial value",
                span=_first_span(reads), path=reg.name,
                hint="write the register somewhere, or replace the read "
                     "with the constant initial value"))
    return diags


def register_write_conflict(unit: AnalysisUnit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    occ = unit.register_occurrences()
    for reg in unit.compiled.registers:
        blocks = occ.get(reg.name, {})

        def writes_in(label: str) -> List[ir.P4Stmt]:
            return [s for s in blocks.get(label, [])
                    if isinstance(s, ir.RegisterWrite)]

        tele_writes = writes_in("telemetry")
        check_writes = writes_in("checker")
        if tele_writes and check_writes:
            diags.append(Diagnostic(
                rule="IH004", severity=Severity.WARNING,
                message=f"register {reg.name!r} is written by both the "
                        f"telemetry and the checker block; on an edge "
                        f"switch both run in the same egress pass, so "
                        f"the surviving value depends on placement "
                        f"order",
                span=_first_span(check_writes), path=reg.name,
                block="checker",
                hint="write the register from a single block, or make "
                     "one side read-modify-write through the other's "
                     "result"))
    return diags
