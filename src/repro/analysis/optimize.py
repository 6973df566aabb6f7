"""Oracle-validated optimizer over compiled checker IR.

Pipeline (all in place):

1. **Constant folding** — one walk asks the one folder,
   :func:`eval_const`, at every operator node (outermost first, so it
   always sees an expression as written), so pure expressions over
   constants evaluate at compile time with *exactly* the reference
   interpreter's semantics (width masking, zero-divisor yields 0, shift
   amounts mod width, booleans decided by either side); ``if``
   statements with constant conditions collapse to the taken arm.  A
   whole tree is asked before its children, so a second walk folds
   nothing.
2. **Liveness-driven DCE** — a statement is removed only when it is
   dead in *every* placement (role × check-mode) that contains it, per
   :func:`~repro.analysis.cfg.checker_placements`.  Anything observable
   is a root and never a candidate: register writes, digests,
   header/validity mutation, drops, standard-metadata writes, and the
   hop-protocol ABI tables (inject/strip/switch-id).
3. **Dead-table / dead-action / dead-register pruning** — tables no
   longer applied anywhere are dropped (and the control-routing maps
   updated so the deployment runtime never programs a ghost table);
   actions no remaining table references follow; registers with zero
   reads *and* zero writes follow.
4. **Scratch-field coalescing** — equal-width compiler-generated
   metadata fields whose live ranges never overlap in any placement
   share one PHV container.  Hop-protocol marks and control-plane
   values are excluded; the interference graph is the union over all
   placements, so the merge is safe wherever the checker lands.
5. **Metadata pruning** — struct entries nothing references anymore
   disappear, which is what moves the Tofino PHV number.

DCE iterates to a fixpoint; every other stage runs once.  The invariant
the whole pass is validated against: an optimized program is
verdict-, report-, and register-identical to the
unoptimized one under the three-level differential oracle.  This is the
one optimizer: it runs once, at compile time (``optimize=``), and its
output is what the pretty-printer, the Tofino allocator and both
engines are handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..compiler.lower import CompiledChecker
from ..p4 import ir
from .cfg import checker_placements
from .dataflow import cfg_effects, liveness


@dataclass
class OptimizeStats:
    """What one :func:`optimize_compiled` run changed."""

    folded_exprs: int = 0
    removed_stmts: int = 0
    removed_tables: List[str] = field(default_factory=list)
    removed_actions: List[str] = field(default_factory=list)
    removed_registers: List[str] = field(default_factory=list)
    coalesced_fields: List[Tuple[str, str]] = field(default_factory=list)
    removed_metadata: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def removed_metadata_bits(self) -> int:
        return sum(width for _, width in self.removed_metadata)

    def changed(self) -> bool:
        return bool(self.folded_exprs or self.removed_stmts
                    or self.removed_tables or self.removed_registers
                    or self.coalesced_fields or self.removed_metadata)


# ---------------------------------------------------------------------------
# 1. Constant folding (reference-interpreter semantics, bit for bit)
# ---------------------------------------------------------------------------

def eval_const(expr: ir.P4Expr) -> Optional[int]:
    """The value the reference engine computes for ``expr``, or None
    when it depends on a field or validity read.

    Both run the operator's :data:`~repro.p4.ir.BINARY_OPS` /
    ``UNARY_OPS`` callable; a boolean is decided by either side —
    ``x && 0`` is 0 and ``x || 1`` is 1.
    """
    if isinstance(expr, ir.Const):
        return expr.value & ((1 << expr.width) - 1)
    if isinstance(expr, ir.UnExpr):
        value = eval_const(expr.operand)
        op = ir.UNARY_OPS.get(expr.op)
        if value is None or op is None:
            return None
        return op.fn(value, ir.result_width(expr))
    if isinstance(expr, ir.BinExpr):
        left = eval_const(expr.left)
        right = eval_const(expr.right)
        # Expressions are pure on this substrate (an extern is a
        # statement), so a deciding constant on either side decides.
        if expr.op == "&&":
            if left == 0 or right == 0:
                return 0
            return None if left is None or right is None else 1
        if expr.op == "||":
            if left or right:
                return 1
            return None if left is None or right is None else 0
        op = ir.BINARY_OPS.get(expr.op)
        if left is None or right is None or op is None:
            return None
        return op.fn(left, right, expr.width)
    return None


def _fold_expr(expr: ir.P4Expr, stats: OptimizeStats) -> ir.P4Expr:
    """Ask :func:`eval_const` whether ``expr`` is decided as written;
    where it is not, fold whatever is decided below it."""
    if not isinstance(expr, (ir.UnExpr, ir.BinExpr)):
        return expr
    value = eval_const(expr)
    if value is not None:  # min/max are unmasked: as wide as the value
        stats.folded_exprs += 1
        width = ir.result_width(expr) or expr.width
        return ir.Const(value, max(width, value.bit_length()),
                        span=expr.span)
    if isinstance(expr, ir.UnExpr):
        operand = _fold_expr(expr.operand, stats)
        return (expr if operand is expr.operand
                else replace(expr, operand=operand))
    left = _fold_expr(expr.left, stats)
    right = _fold_expr(expr.right, stats)
    if left is expr.left and right is expr.right:
        return expr
    return replace(expr, left=left, right=right)


def _fold_stmts(stmts: Sequence[ir.P4Stmt],
                stats: OptimizeStats) -> List[ir.P4Stmt]:
    out: List[ir.P4Stmt] = []
    for stmt in stmts:
        ir.map_exprs(stmt, lambda expr: _fold_expr(expr, stats))
        for body in ir.bodies(stmt):
            body[:] = _fold_stmts(body, stats)
        if isinstance(stmt, ir.IfStmt):
            cond = eval_const(stmt.cond)
            if cond is not None:
                stats.removed_stmts += 1
                out.extend(stmt.then_body if cond else stmt.else_body)
                continue
        out.append(stmt)
    return out


# ---------------------------------------------------------------------------
# 2. Liveness-driven dead-code elimination
# ---------------------------------------------------------------------------

def _abi_tables(compiled: CompiledChecker) -> Set[str]:
    return {compiled.inject_table, compiled.strip_table,
            compiled.switch_id_table}


def _dce_round(compiled: CompiledChecker, stats: OptimizeStats) -> bool:
    """One removal sweep; returns True if anything changed."""
    abi = _abi_tables(compiled)
    needed: Set[int] = set()
    for view in checker_placements(compiled):
        effects = cfg_effects(view.cfg, compiled.tables, compiled.actions)
        _, live_out = liveness(view.cfg, effects)
        for node in view.cfg.nodes:
            stmt = node.stmt
            if stmt is None:
                continue
            eff = effects[node.index]
            live = not live_out[node.index].isdisjoint(eff.defs)
            if isinstance(stmt, (ir.AssignStmt, ir.RegisterRead)):
                if eff.side_effects or live:
                    needed.add(id(stmt))
            elif isinstance(stmt, ir.ApplyTable):
                if stmt.table in abi or eff.side_effects or live:
                    needed.add(id(stmt))
            elif isinstance(stmt, ir.IfStmt):
                pass  # kept structurally iff a live statement survives inside
            else:
                needed.add(id(stmt))  # side-effecting leaf

    def sweep(stmts: Sequence[ir.P4Stmt]) -> List[ir.P4Stmt]:
        """``stmts`` less the unneeded: a compound statement stays iff
        it is needed or any of its arms survives."""
        out: List[ir.P4Stmt] = []
        for stmt in stmts:
            arms = ir.bodies(stmt)
            for arm in arms:
                arm[:] = sweep(arm)
            if id(stmt) in needed or any(arms):
                out.append(stmt)
            else:
                stats.removed_stmts += 1
        return out

    before = stats.removed_stmts
    for stmts in compiled.fragments().values():
        stmts[:] = sweep(stmts)
    return stats.removed_stmts != before


# ---------------------------------------------------------------------------
# 3. Structure pruning
# ---------------------------------------------------------------------------

def _prune_structures(compiled: CompiledChecker,
                      stats: OptimizeStats) -> None:
    abi = _abi_tables(compiled)
    applied = {stmt.table for _, stmt in compiled.statements()
               if isinstance(stmt, ir.ApplyTable)}
    dead_tables = [name for name in compiled.tables
                   if name not in applied and name not in abi]
    for name in dead_tables:
        del compiled.tables[name]
        stats.removed_tables.append(name)
    if dead_tables:
        for control, table_names in list(compiled.control_tables.items()):
            keep = [t for t in table_names if t in compiled.tables]
            if len(keep) == len(table_names):
                continue
            widths = compiled.control_value_widths.get(control, [])
            # Scalar controls carry an empty width list; only dict/set
            # controls keep widths parallel to their lookup tables.
            if len(widths) == len(table_names):
                compiled.control_value_widths[control] = [
                    w for t, w in zip(table_names, widths)
                    if t in compiled.tables]
            # Keep the (possibly empty) entry: the deployment runtime
            # iterates these lists when a scenario programs the
            # control, and an absent key would crash it.
            compiled.control_tables[control] = keep

    referenced_actions: Set[str] = set()
    for table in compiled.tables.values():
        referenced_actions.update(ir.apply_actions(
            table, compiled.actions, table.default_action))
    dead_actions = [name for name in compiled.actions
                    if name not in referenced_actions]
    for name in dead_actions:
        del compiled.actions[name]
        stats.removed_actions.append(name)

    touched: Set[str] = set()  # reg.<R>, read or written
    for _, stmt in compiled.statements():
        effect = ir.stmt_effect(stmt)
        touched.update(loc for loc in (*effect.defs, *effect.uses)
                       if loc.startswith("reg."))
    dead_regs = [reg for reg in compiled.registers
                 if f"reg.{reg.name}" not in touched]
    for reg in dead_regs:
        compiled.registers.remove(reg)
        stats.removed_registers.append(reg.name)


# ---------------------------------------------------------------------------
# 4. Scratch-field coalescing
# ---------------------------------------------------------------------------

def _protected_fields(compiled: CompiledChecker) -> Set[str]:
    prefix = compiled.meta_prefix
    protected = {compiled.first_hop_meta, compiled.last_hop_meta,
                 compiled.reject_meta, compiled.switch_id_meta}
    protected.update(name for name, _ in compiled.metadata
                     if name.startswith(prefix + "ctrlval"))
    return protected


def _coalesce_fields(compiled: CompiledChecker,
                     stats: OptimizeStats) -> None:
    prefix = compiled.meta_prefix
    protected = _protected_fields(compiled)
    widths = dict(compiled.metadata)
    candidates = [name for name, _ in compiled.metadata
                  if name.startswith(prefix) and name not in protected]
    if len(candidates) < 2:
        return
    cand_paths = {f"meta.{name}" for name in candidates}

    interference: Dict[str, Set[str]] = {f"meta.{n}": set()
                                         for n in candidates}
    entry_live: Set[str] = set()
    for view in checker_placements(compiled):
        effects = cfg_effects(view.cfg, compiled.tables, compiled.actions)
        live_in, live_out = liveness(view.cfg, effects)
        entry_live |= set(live_in[view.cfg.entry]) & cand_paths
        for node in view.cfg.nodes:
            eff = effects[node.index]
            for d in cand_paths.intersection(eff.defs):
                for alive in live_out[node.index] & cand_paths:
                    if alive != d:
                        interference[d].add(alive)
                        interference[alive].add(d)

    # A candidate live at pipeline entry is read-before-write; leave its
    # zero-initialized container alone.
    pool = [n for n in candidates if f"meta.{n}" not in entry_live]

    # Merging two fields also merges their dependency chains, which can
    # *lengthen* the pipeline (two independent register sensors forced
    # to serialize).  PHV is only worth buying when stages don't pay for
    # it, so every merge is admitted against the post-DCE stage depth.
    import copy as _copy

    from ..compiler.linker import standalone_program
    from ..tofino.stages import pipeline_depth

    def depth_of(checker: CompiledChecker) -> int:
        return pipeline_depth(standalone_program(checker))

    base_depth = depth_of(compiled)
    groups: List[Tuple[str, int, Set[str]]] = []  # (rep, width, members)
    rename: Dict[str, str] = {}
    pairs: List[Tuple[str, str]] = []
    for name in pool:
        path, width = f"meta.{name}", widths[name]
        for rep, rep_width, members in groups:
            if rep_width != width:
                continue
            if any(m in interference[path] or path in interference[m]
                   for m in members):
                continue
            trial = dict(rename)
            trial[path] = f"meta.{rep}"
            probe = _copy.deepcopy(compiled)
            _rename_fields(probe, trial)
            if depth_of(probe) > base_depth:
                continue
            members.add(path)
            rename = trial
            pairs.append((name, rep))
            break
        else:
            groups.append((name, width, {path}))
    if rename:
        _rename_fields(compiled, rename)
        stats.coalesced_fields.extend(pairs)


def _rename_fields(compiled: CompiledChecker,
                   rename: Dict[str, str]) -> None:
    """Expressions and table keys are rebuilt, never edited: programs
    already linked from this checker share them
    (:func:`~repro.p4.ir.clone_stmts`)."""
    def fix(ref: ir.FieldRef) -> ir.FieldRef:
        path = rename.get(ref.path)
        return ref if path is None else replace(ref, path=path)

    for _, stmt in compiled.statements():
        if isinstance(stmt, (ir.AssignStmt, ir.RegisterRead)):
            stmt.dest = rename.get(stmt.dest, stmt.dest)
        ir.map_exprs(stmt, lambda expr: ir.map_fields(expr, fix))
    for table in compiled.tables.values():
        table.keys = [replace(key, path=rename.get(key.path, key.path))
                      for key in table.keys]


# ---------------------------------------------------------------------------
# 5. Metadata pruning
# ---------------------------------------------------------------------------

def _referenced_meta(compiled: CompiledChecker) -> Set[str]:
    refs: Set[str] = set()

    def note(path: str) -> None:
        if path.startswith("meta."):
            refs.add(path[len("meta."):])

    for _, stmt in compiled.statements():
        effect = ir.stmt_effect(stmt)
        for path in (*effect.defs, *effect.uses):
            note(path)
    for table in compiled.tables.values():
        for key in table.keys:
            note(key.path)
    return refs


def _prune_metadata(compiled: CompiledChecker,
                    stats: OptimizeStats) -> None:
    keep = _referenced_meta(compiled) | _protected_fields(compiled)
    dead = [(name, width) for name, width in compiled.metadata
            if name not in keep]
    if dead:
        compiled.metadata = [(name, width)
                             for name, width in compiled.metadata
                             if name in keep]
        stats.removed_metadata.extend(dead)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def optimize_compiled(compiled: CompiledChecker) -> OptimizeStats:
    """Optimize a compiled checker in place; returns what changed.

    Safe by construction: every removal is justified by liveness over
    all four placements, every fold replays the reference interpreter's
    arithmetic, and everything observable (registers, digests, headers,
    drops, hop-protocol ABI) is a root.
    """
    stats = OptimizeStats()
    for stmts in compiled.fragments().values():
        stmts[:] = _fold_stmts(stmts, stats)
    for action in compiled.actions.values():
        action.body[:] = _fold_stmts(action.body, stats)
    while _dce_round(compiled, stats):
        pass
    _prune_structures(compiled, stats)
    _coalesce_fields(compiled, stats)
    _prune_metadata(compiled, stats)
    return stats


__all__ = ["OptimizeStats", "eval_const", "optimize_compiled"]
