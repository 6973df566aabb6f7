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
from typing import List, Set, Tuple

from ..p4 import ir


@dataclass
class _Op:
    """One scheduled operation: its reads, writes, and whether it needs a
    match-action stage (tables/registers do; pure PHV moves are modeled
    as ALU ops that also consume a stage slot in a chain)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)


def _action_ops(program: ir.P4Program,
                name: str) -> Tuple[Set[str], Set[str]]:
    """Aggregate read/write sets of an action body (params excluded):
    every statement's declared effect."""
    action = program.actions.get(name)
    reads: Set[str] = set()
    writes: Set[str] = set()
    if action is None:
        return reads, writes
    for stmt in ir.walk_stmts(action.body):
        effect = ir.stmt_effect(stmt)
        reads.update(r for r in effect.uses if not r.startswith("param."))
        writes.update(effect.defs)
    return reads, writes


def _linearize(program: ir.P4Program, stmts: List[ir.P4Stmt],
               control_reads: Set[str]) -> List[_Op]:
    """Flatten a statement body into ops with control-dependency reads:
    a leaf is one op over its declared effect."""
    ops: List[_Op] = []
    for stmt in stmts:
        if isinstance(stmt, ir.IfStmt):
            cond_reads = ir.expr_reads(stmt.cond) | control_reads
            ops.extend(_linearize(program, stmt.then_body, cond_reads))
            ops.extend(_linearize(program, stmt.else_body, cond_reads))
        elif isinstance(stmt, ir.ApplyTable):
            table = program.tables.get(stmt.table)
            key_reads = {k.path for k in table.keys} if table else set()
            reads: Set[str] = set(key_reads) | control_reads
            writes: Set[str] = set()
            action_names = list(table.actions) if table else []
            if table and table.default_action:
                action_names.append(table.default_action[0])
            for aname in action_names:
                a_reads, a_writes = _action_ops(program, aname)
                reads |= a_reads
                writes |= a_writes
            hit_flag = f"table.{stmt.table}.$hit"
            writes.add(hit_flag)
            ops.append(_Op(reads=reads, writes=writes))
            branch_reads = control_reads | {hit_flag}
            ops.extend(_linearize(program, stmt.hit_body, branch_reads))
            ops.extend(_linearize(program, stmt.miss_body, branch_reads))
        else:
            effect = ir.stmt_effect(stmt)
            ops.append(_Op(reads=effect.uses | control_reads,
                           writes=set(effect.defs)))
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
