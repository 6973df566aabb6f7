"""Pipeline stage allocation model.

A Tofino pipeline executes match-action stages in sequence; two
operations can share a stage only if neither depends on the other's
results.  This module computes the *dependency depth* of a P4 IR
program: the longest chain of read-after-write / write-after-write /
table-application dependencies, which lower-bounds the number of stages
the program needs.

The headline claim of Table 1 — Hydra checkers run in parallel alongside
the forwarding program and do not increase the stage count — falls out
of this analysis: the checker chains are shallow (well under the
baseline's 12 stages) and touch disjoint fields, so the combined depth
equals the baseline depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..p4 import ir


@dataclass
class _Op:
    """One scheduled operation: its reads, writes, and whether it needs a
    match-action stage (tables/registers do; pure PHV moves are modeled
    as ALU ops that also consume a stage slot in a chain)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)


def _linearize(program: ir.P4Program, stmts: List[ir.P4Stmt],
               control_reads: Set[str]) -> List[_Op]:
    """Flatten a statement body into ops with control-dependency reads:
    a leaf is one op over its declared effect, a table apply one op
    over :func:`~repro.p4.ir.apply_effect` that also writes its hit
    flag; a compound statement's arms read its condition (an apply's
    hit flag)."""
    ops: List[_Op] = []
    for stmt in stmts:
        if isinstance(stmt, ir.IfStmt):
            arm_reads = ir.expr_reads(stmt.cond) | control_reads
        elif isinstance(stmt, ir.ApplyTable):
            table = program.tables.get(stmt.table)
            reads: Set[str] = set(control_reads)
            writes: Set[str] = set()
            if table is not None:
                effect = ir.apply_effect(table, program.actions,
                                         table.default_action)
                reads |= effect.uses
                writes.update(effect.defs)
            hit_flag = f"table.{stmt.table}.$hit"
            writes.add(hit_flag)
            ops.append(_Op(reads=reads, writes=writes))
            arm_reads = control_reads | {hit_flag}
        else:
            effect = ir.stmt_effect(stmt)
            ops.append(_Op(reads=effect.uses | control_reads,
                           writes=set(effect.defs)))
        for arm in ir.bodies(stmt):
            ops.extend(_linearize(program, arm, arm_reads))
    return ops


def dependency_depth(program: ir.P4Program,
                     stmts: List[ir.P4Stmt]) -> int:
    """Longest RAW/WAW dependency chain through ``stmts``, in stages."""
    ops = _linearize(program, stmts, set())
    depths: List[int] = []
    for i, op in enumerate(ops):
        depth = 1
        for j in range(i):
            prev = ops[j]
            raw = prev.writes & op.reads
            waw = prev.writes & op.writes
            if raw or waw:
                depth = max(depth, depths[j] + 1)
        depths.append(depth)
    return max(depths, default=0)


def pipeline_depth(program: ir.P4Program) -> int:
    """Stage lower bound for a program: ingress and egress run in the
    two halves of the same physical stages, so the pipeline needs
    max(ingress depth, egress depth) stages."""
    return max(dependency_depth(program, program.ingress),
               dependency_depth(program, program.egress))
