"""SSA form over P4 IR statement bodies.

The optimizer's SSA round (:func:`repro.analysis.optimize._ssa_round`,
the one caller) wants facts the set-based dataflow of
:mod:`repro.analysis.dataflow` cannot cheaply express: *which*
definition a read observes, whether two computations produce the same
value, and whether a branch condition is decided at compile time.  This
module lifts a statement body onto the :func:`repro.analysis.cfg.build_cfg`
graph (structured IR bodies are DAGs — branch arms rejoin, no loops)
and renames every tracked location into versioned :class:`SSAValue`
instances: one per definition, phi nodes where branch arms rejoin with
different versions, and def-use chains recorded as the renaming walks.
Nothing here runs when a switch is built: an engine executes the linked
program it is given, optimized or not.

Tracked locations are the per-packet scalar state: ``meta.*`` fields
(widths from the program declaration) and the five standard-metadata
fields.  Header fields and validity bits stay opaque — their values
alias wire-observable state — so expressions touching them are never
value-numbered, though metadata reads *inside* such expressions still
substitute.

:func:`eval_const` is the one constant folder in ``src/``: the lift's
constant lattice, branch pruning and the optimizer's folding walk all
ask it.

Three SSA-strength passes produce :class:`Proposals` — descriptions of
rewrites, not rewrites — so a caller responsible for several
linearizations of the same statement objects (the optimizer's
role × check-mode placements) can intersect proposals with
:func:`merge_proposals` and only apply what is sound in *every*
pipeline containing the statement:

* **copy propagation** (and the constant propagation it subsumes):
  a read whose reaching definition is a copy chain is retargeted at
  the deepest source whose version still reaches the read; a read
  whose reaching value is a known constant becomes that constant.
* **common-subexpression elimination**: pure expressions (constants and
  tracked reads only) are value-numbered over operand *versions*; a
  recomputation whose prior result is still addressable rewrites to a
  copy from it.
* **dead-branch pruning under known table defaults**: branch conditions
  are evaluated over the constant lattice.  Table applies transfer
  constants precisely: the declared default action is evaluated with
  its immediate arguments (its final writes become constants on the
  miss path) and merged against every action the table may run on a
  hit — so a variable every possible action leaves alone flows through
  an apply untouched, keeping copy/const facts alive across it.

As everywhere, the set of actions a table "may run" is
:func:`repro.p4.ir.table_actions` (plus the default): its declared
``actions`` list, or anything in the program when it declares none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..p4 import ir
from .cfg import CFG, build_cfg

#: Standard-metadata fields tracked as SSA variables, with their known
#: pipeline-entry constants (``None`` = unknown at entry: the harness
#: supplies the ingress port and packet length).
STD_ENTRY: Dict[str, Optional[int]] = {
    "standard_metadata.ingress_port": None,
    "standard_metadata.egress_spec": 0,
    "standard_metadata.egress_port": 0,
    "standard_metadata.packet_length": None,
    "standard_metadata.drop": 0,
}

#: Entry map for lifts that start mid-pipeline (a core placement's
#: egress runs after forwarding already wrote standard metadata).
UNKNOWN_STD: Dict[str, Optional[int]] = {var: None for var in STD_ENTRY}

#: Sentinels distinguishing "not written by this branch" and "written
#: on some path through a branching action" from "written to an unknown
#: value" in action write summaries: the first two let the value from
#: before the apply through.
_FLOWS = object()
_MAY_WRITE = object()


class StdBarrier:
    """Synthetic placement statement: code this lift cannot see runs
    here and may write any standard-metadata field (the forwarding
    pipeline between a checker's ingress and egress fragments).
    Checker metadata flows through — the linker namespaces it, so the
    forwarding program cannot touch it."""

    __slots__ = ()
    span = None

    def __repr__(self) -> str:
        return "StdBarrier()"


#: Known default action per table: ``(action, immediate args)``, or
#: ``None`` for no default.
Defaults = Dict[str, Optional[Tuple[str, Sequence[int]]]]


@dataclass
class SSAInfo:
    """Static context for a lift: variable universe and table contracts."""

    meta_width: Dict[str, int]                    # "meta.x" -> width
    tables: Dict[str, ir.Table] = field(default_factory=dict)
    actions: Dict[str, ir.Action] = field(default_factory=dict)
    defaults: Defaults = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._summaries: Dict[Tuple[int, Optional[Tuple[int, ...]]],
                              Dict[str, object]] = {}
        self._reads: Dict[int, Set[str]] = {}
        self._reads_stack: Set[int] = set()

    @classmethod
    def for_compiled(cls, compiled) -> "SSAInfo":
        return cls(
            meta_width={f"meta.{name}": width
                        for name, width in compiled.metadata},
            tables=dict(compiled.tables),
            actions=dict(compiled.actions),
            defaults={name: table.default_action
                      for name, table in compiled.tables.items()},
        )

    # -- variable universe ---------------------------------------------------

    def tracked(self, path: str) -> bool:
        return path in self.meta_width or path in STD_ENTRY

    def entry_const(self, var: str) -> Optional[int]:
        if var in self.meta_width:
            return 0
        return STD_ENTRY[var]

    def write_mask(self, var: str) -> Optional[int]:
        """Mask applied when writing ``var`` (None: stored unmasked)."""
        width = self.meta_width.get(var)
        return None if width is None else (1 << width) - 1

    def universe(self) -> List[str]:
        return list(self.meta_width) + list(STD_ENTRY)

    # -- table contracts -----------------------------------------------------

    def hit_actions(self, table: ir.Table) -> List[str]:
        return [a for a in ir.table_actions(table, self.actions)
                if a in self.actions]

    def action_summary(self, name: str,
                       args: Optional[Sequence[int]]) -> Dict[str, object]:
        """Final tracked writes of one action run.

        Maps each possibly-written variable to its final constant value
        when determinable, else ``None`` (:data:`_MAY_WRITE` when the
        action branches, so may not write it at all).  Variables absent
        from the map flow through the action unchanged.  ``args`` binds
        ``param.*`` reads when the immediates are known (the
        default-action case); ``None`` leaves them unknown (hit entries
        vary).
        """
        action = self.actions.get(name)
        if action is None:
            return {var: None for var in self.universe()}
        key = (id(action), tuple(args) if args is not None else None)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        summary = self._action_summary(action, args)
        self._summaries[key] = summary
        return summary

    def _action_summary(self, action: ir.Action,
                        args: Optional[Sequence[int]]) -> Dict[str, object]:
        if any(ir.bodies(s) for s in action.body):
            # A branching action.  May-writes only: every touched
            # variable becomes unknown.
            out: Dict[str, object] = {}
            for stmt in ir.walk_stmts(action.body):
                for var in self._stmt_writes(stmt):
                    out[var] = _MAY_WRITE
            return out
        params: Dict[str, int] = {}
        if args is not None:
            params = {pname: value
                      for (pname, _), value in zip(action.params, args)}

        writes: Dict[str, object] = {}

        def lookup(path: str) -> Optional[int]:
            root, _, rest = path.partition(".")
            if root == "param" and args is not None:
                return params.get(rest)
            # Caller state and headers: unknown inside the summary.
            return None

        for stmt in action.body:
            for var in self._stmt_writes(stmt):
                value: Optional[int] = None
                if isinstance(stmt, ir.AssignStmt):
                    value = eval_const(stmt.value, lookup)
                    mask = self.write_mask(var)
                    if value is not None and mask is not None:
                        value &= mask
                elif isinstance(stmt, ir.MarkToDrop):
                    value = 1
                writes[var] = value
        return writes

    def action_reads(self, name: str) -> Set[str]:
        """Tracked variables an action body may read (caller scope)."""
        action = self.actions.get(name)
        if action is None:
            return set(self.universe())
        cached = self._reads.get(id(action))
        if cached is not None:
            return cached
        if id(action) in self._reads_stack:
            return set(self.universe())  # action/table cycle: give up
        self._reads_stack.add(id(action))
        reads: Set[str] = set()
        for stmt in ir.walk_stmts(action.body):
            reads.update(use for use in ir.stmt_effect(stmt).uses
                         if self.tracked(use))
            if isinstance(stmt, ir.ApplyTable):
                table = self.tables.get(stmt.table)
                if table is None:
                    reads.update(self.universe())
                    continue
                for key in table.keys:
                    if self.tracked(key.path):
                        reads.add(key.path)
                for inner in self.hit_actions(table):
                    if inner != name:
                        reads.update(self.action_reads(inner))
                default = self.defaults.get(stmt.table)
                if default is not None and default[0] != name:
                    reads.update(self.action_reads(default[0]))
        self._reads_stack.discard(id(action))
        self._reads[id(action)] = reads
        return reads

    def _stmt_writes(self, stmt: ir.P4Stmt) -> List[str]:
        return [loc for loc in ir.stmt_defs(stmt) if self.tracked(loc)]


# ---------------------------------------------------------------------------
# Constant evaluation (reference semantics, partial)
# ---------------------------------------------------------------------------

def eval_const(expr: ir.P4Expr, lookup) -> Optional[int]:
    """Evaluate ``expr`` under partial knowledge.

    ``lookup(path)`` supplies known values for field reads (None =
    unknown).  Returns the value the reference engine would compute, or
    None when an input the result depends on is unknown: both run the
    operator's :data:`~repro.p4.ir.BINARY_OPS` / ``UNARY_OPS`` callable;
    a boolean is decided by either side — ``unknown && 0`` is 0 and
    ``unknown || 1`` is 1.
    """
    if isinstance(expr, ir.Const):
        return expr.value & ((1 << expr.width) - 1)
    if isinstance(expr, ir.FieldRef):
        return lookup(expr.path)
    if isinstance(expr, ir.ValidRef):
        return None
    if isinstance(expr, ir.UnExpr):
        value = eval_const(expr.operand, lookup)
        op = ir.UNARY_OPS.get(expr.op)
        if value is None or op is None:
            return None
        return op.fn(value, ir.result_width(expr))
    if isinstance(expr, ir.BinExpr):
        left = eval_const(expr.left, lookup)
        right = eval_const(expr.right, lookup)
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


# ---------------------------------------------------------------------------
# SSA values and per-op classes
# ---------------------------------------------------------------------------

class SSAOp:
    """Base class for SSA definition operations."""

    __slots__ = ()


class EntryOp(SSAOp):
    """The pipeline-entry value of a variable (zero for metadata)."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        self.var = var

    def __repr__(self) -> str:
        return f"entry({self.var})"


class ExprOp(SSAOp):
    """Definition by an :class:`~repro.p4.ir.AssignStmt` expression."""

    __slots__ = ("stmt", "expr")

    def __init__(self, stmt: ir.P4Stmt, expr: ir.P4Expr):
        self.stmt = stmt
        self.expr = expr

    def __repr__(self) -> str:
        return f"expr({self.expr})"


class CopyOp(SSAOp):
    """Definition by a width-preserving copy of another SSA value."""

    __slots__ = ("stmt", "source")

    def __init__(self, stmt: ir.P4Stmt, source: "SSAValue"):
        self.stmt = stmt
        self.source = source

    def __repr__(self) -> str:
        return f"copy({self.source})"


class PhiOp(SSAOp):
    """A rejoin merge: one incoming value per predecessor edge."""

    __slots__ = ("var", "node", "incoming")

    def __init__(self, var: str, node: int,
                 incoming: List[Tuple[int, "SSAValue"]]):
        self.var = var
        self.node = node
        self.incoming = incoming

    def __repr__(self) -> str:
        srcs = ", ".join(str(v) for _, v in self.incoming)
        return f"phi({srcs})"


class TableOp(SSAOp):
    """Definition by a table apply (some action may write the variable)."""

    __slots__ = ("stmt", "table")

    def __init__(self, stmt: ir.P4Stmt, table: str):
        self.stmt = stmt
        self.table = table

    def __repr__(self) -> str:
        return f"table({self.table})"


class RegReadOp(SSAOp):
    """Definition by a data-plane register read."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: ir.P4Stmt):
        self.stmt = stmt

    def __repr__(self) -> str:
        return "regread"


class ExternOp(SSAOp):
    """Definition by an extern call (one of its declared ``dests``), or
    the clobber of a :class:`StdBarrier`."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: ir.P4Stmt):
        self.stmt = stmt

    def __repr__(self) -> str:
        return "extern"


class SSAValue:
    """One version of one tracked variable.

    ``uses`` records every consumer: ``(consumer, node_index)`` where
    the consumer is the reading statement or a :class:`PhiOp` merging
    this value.  ``const`` is the constant-lattice evaluation (None =
    unknown).  ``def_stmt`` is the defining statement when removing it
    would remove the definition (None for entry values and phis).
    """

    __slots__ = ("var", "version", "op", "const", "uses", "def_stmt",
                 "def_node")

    def __init__(self, var: str, version: int, op: SSAOp,
                 const: Optional[int] = None,
                 def_stmt: Optional[ir.P4Stmt] = None,
                 def_node: int = -1):
        self.var = var
        self.version = version
        self.op = op
        self.const = const
        self.uses: List[Tuple[object, int]] = []
        self.def_stmt = def_stmt
        self.def_node = def_node

    def __repr__(self) -> str:
        return f"{self.var}#{self.version}"


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------

class SSAFunction:
    """SSA form of one linearized statement body.

    ``envs[n]`` maps each tracked variable to the version reaching the
    *entry* of CFG node ``n``; ``phis[n]`` holds the phi values created
    at node ``n``; ``values`` lists every SSA value in creation order.
    """

    def __init__(self, cfg: CFG, info: SSAInfo,
                 std_entry: Optional[Dict[str, Optional[int]]] = None):
        self.cfg = cfg
        self.info = info
        self.std_entry = STD_ENTRY if std_entry is None else std_entry
        self.values: List[SSAValue] = []
        self.envs: Dict[int, Dict[str, SSAValue]] = {}
        self.phis: Dict[int, Dict[str, SSAValue]] = {}
        self._versions: Dict[str, int] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def lift(cls, stmts: Sequence[ir.P4Stmt], info: SSAInfo,
             std_entry: Optional[Dict[str, Optional[int]]] = None
             ) -> "SSAFunction":
        fn = cls(build_cfg(stmts), info, std_entry)
        fn._rename()
        return fn

    def _entry_const(self, var: str) -> Optional[int]:
        if var in self.info.meta_width:
            return self.info.entry_const(var)
        return self.std_entry.get(var)

    def _new_value(self, var: str, op: SSAOp, const: Optional[int],
                   def_stmt: Optional[ir.P4Stmt], node: int) -> SSAValue:
        version = self._versions.get(var, 0)
        self._versions[var] = version + 1
        value = SSAValue(var, version, op, const, def_stmt, node)
        self.values.append(value)
        return value

    def _topo_order(self) -> List[int]:
        cfg = self.cfg
        indegree = {n.index: len(n.preds) for n in cfg.nodes}
        order: List[int] = []
        ready = [cfg.entry]
        while ready:
            idx = ready.pop()
            order.append(idx)
            for succ in cfg.nodes[idx].succs:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        return order

    def _rename(self) -> None:
        info = self.info
        cfg = self.cfg
        out_envs: Dict[int, Dict[str, SSAValue]] = {}
        for idx in self._topo_order():
            node = cfg.nodes[idx]
            if idx == cfg.entry:
                env = {var: self._new_value(var, EntryOp(var),
                                            self._entry_const(var), None, idx)
                       for var in info.universe()}
                self.envs[idx] = env
                out_envs[idx] = env
                continue
            env = self._merge(idx, [out_envs[p] for p in node.preds])
            self.envs[idx] = env
            out_envs[idx] = (self._transfer(node, env)
                             if node.stmt is not None else env)

    def _merge(self, idx: int,
               pred_envs: List[Dict[str, SSAValue]]) -> Dict[str, SSAValue]:
        if len(pred_envs) == 1:
            return pred_envs[0]
        env: Dict[str, SSAValue] = {}
        node_phis: Dict[str, SSAValue] = {}
        preds = self.cfg.nodes[idx].preds
        for var in self.info.universe():
            incoming = [penv[var] for penv in pred_envs]
            first = incoming[0]
            if all(v is first for v in incoming[1:]):
                env[var] = first
                continue
            op = PhiOp(var, idx, list(zip(preds, incoming)))
            consts = {v.const for v in incoming}
            const = consts.pop() if (len(consts) == 1
                                     and None not in consts) else None
            phi = self._new_value(var, op, const, None, idx)
            for value in dict.fromkeys(incoming):
                value.uses.append((op, idx))
            env[var] = phi
            node_phis[var] = phi
        if node_phis:
            self.phis[idx] = node_phis
        return env

    # -- per-statement transfer ----------------------------------------------

    def _lookup(self, env: Dict[str, SSAValue]):
        def lookup(path: str) -> Optional[int]:
            value = env.get(path)
            return value.const if value is not None else None
        return lookup

    def _transfer(self, node, env: Dict[str, SSAValue]
                  ) -> Dict[str, SSAValue]:
        stmt = node.stmt
        idx = node.index
        if isinstance(stmt, ir.ApplyTable):
            return self._transfer_apply(stmt, env, idx)
        if isinstance(stmt, StdBarrier):
            out = dict(env)
            op = ExternOp(stmt)
            for var in STD_ENTRY:
                env[var].uses.append((stmt, idx))
                out[var] = self._new_value(var, op, None, None, idx)
            return out
        # Any other kind reads its expressions, then defines the tracked
        # locations its declared effect writes.
        for var in _stmt_read_vars(stmt, self.info):
            env[var].uses.append((stmt, idx))
        writes = self.info._stmt_writes(stmt)
        if not writes:
            return env
        out = dict(env)
        for var in writes:
            out[var] = self._define(stmt, var, env, idx)
        return out

    def _define(self, stmt: ir.P4Stmt, var: str, env: Dict[str, SSAValue],
                idx: int) -> SSAValue:
        """The value ``stmt`` gives ``var``, one of its declared writes."""
        if isinstance(stmt, ir.AssignStmt):
            const = eval_const(stmt.value, self._lookup(env))
            mask = self.info.write_mask(var)
            if const is not None and mask is not None:
                const &= mask
            op: SSAOp = (CopyOp(stmt, env[stmt.value.path])
                         if self._is_copy(var, stmt.value)
                         else ExprOp(stmt, stmt.value))
            return self._new_value(var, op, const, stmt, idx)
        if isinstance(stmt, ir.RegisterRead):
            return self._new_value(var, RegReadOp(stmt), None, stmt, idx)
        if isinstance(stmt, ir.MarkToDrop):
            return self._new_value(var, ExprOp(stmt, ir.Const(1, 1)), 1,
                                   stmt, idx)
        # An extern is value-in/value-out: one opaque value per dest.
        return self._new_value(var, ExternOp(stmt), None, None, idx)

    def _is_copy(self, dest: str, value: ir.P4Expr) -> bool:
        """A copy must preserve the stored value bit-for-bit: the write
        mask of ``dest`` may not truncate anything the source can hold."""
        if not isinstance(value, ir.FieldRef) or \
                not self.info.tracked(value.path):
            return False
        dest_width = self.info.meta_width.get(dest)
        if dest_width is None:
            return True  # standard metadata stores unmasked
        src_width = self.info.meta_width.get(value.path)
        if src_width is None:
            return False  # std -> meta: source is unbounded
        return src_width <= dest_width

    def _transfer_apply(self, stmt: ir.ApplyTable,
                        env: Dict[str, SSAValue], idx: int
                        ) -> Dict[str, SSAValue]:
        info = self.info
        table = info.tables.get(stmt.table)
        if table is None:
            # Unknown table: reference semantics raise at runtime; stay
            # maximally conservative here.
            out = {}
            op = TableOp(stmt, stmt.table)
            for var in info.universe():
                out[var] = self._new_value(var, op, None, None, idx)
            return out
        default = info.defaults.get(stmt.table)
        reads: Set[str] = {key.path for key in table.keys
                           if info.tracked(key.path)}
        for name in info.hit_actions(table):
            reads |= info.action_reads(name)
        if default is not None:
            reads |= info.action_reads(default[0])
        for var in reads:
            env[var].uses.append((stmt, idx))
        summaries = [info.action_summary(name, None)
                     for name in info.hit_actions(table)]
        summaries.append({} if default is None
                         else info.action_summary(default[0], default[1]))
        touched: Set[str] = set()
        for summary in summaries:
            touched.update(summary)
        if not touched:
            return env
        out = dict(env)
        for var in touched & set(info.universe()):
            incoming = env[var]
            results = [summary.get(var, _FLOWS) for summary in summaries]
            if all(r is _FLOWS for r in results):
                continue
            if any(r is _FLOWS or r is _MAY_WRITE for r in results):
                # A miss or some arm may leave the old value in place.
                incoming.uses.append((stmt, idx))
            consts = {incoming.const if r is _FLOWS
                      else None if r is _MAY_WRITE else r for r in results}
            const = consts.pop() if (len(consts) == 1
                                     and None not in consts) else None
            out[var] = self._new_value(var, TableOp(stmt, stmt.table),
                                       const, None, idx)
        return out


# ---------------------------------------------------------------------------
# Proposals: rewrites described, not applied
# ---------------------------------------------------------------------------

#: A proposed replacement for one variable's reads in one statement.
Replacement = Tuple[str, Union[int, str]]  # ("const", v) | ("field", path)


@dataclass
class Proposals:
    """Rewrites one lift considers sound, keyed by statement identity.

    ``visited`` lists every statement the lift saw; a caller holding
    several linearizations applies a proposal only when every
    linearization containing the statement proposed the same thing
    (:func:`merge_proposals`).
    """

    subst: Dict[Tuple[int, str], Replacement] = field(default_factory=dict)
    cse: Dict[int, str] = field(default_factory=dict)
    branches: Dict[int, bool] = field(default_factory=dict)
    dead: Set[int] = field(default_factory=set)
    visited: Set[int] = field(default_factory=set)

    def count(self) -> int:
        return (len(self.subst) + len(self.cse) + len(self.branches)
                + len(self.dead))


def _vn(expr: ir.P4Expr, env: Dict[str, SSAValue],
        info: SSAInfo) -> Optional[Tuple]:
    """Value-number a pure expression; None when impure."""
    if isinstance(expr, ir.Const):
        return ("c", expr.value & ((1 << expr.width) - 1))
    if isinstance(expr, ir.FieldRef):
        if not info.tracked(expr.path):
            return None
        return ("v", id(env[expr.path]))
    if isinstance(expr, ir.UnExpr):
        operand = _vn(expr.operand, env, info)
        if operand is None:
            return None
        return ("u", expr.op, ir.result_width(expr), operand)
    if isinstance(expr, ir.BinExpr):
        left = _vn(expr.left, env, info)
        right = _vn(expr.right, env, info)
        if left is None or right is None:
            return None
        return ("b", expr.op, expr.width, left, right)
    return None


def propose(fn: SSAFunction) -> Proposals:
    """Run the SSA passes over one lift and describe the rewrites."""
    info = fn.info
    props = Proposals()
    protected: Set[int] = set()
    cse_table: Dict[Tuple, Tuple[SSAValue, str]] = {}

    def source_width(var: str) -> int:
        width = info.meta_width.get(var)
        return width if width is not None else 1 << 30

    for node in fn.cfg.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        props.visited.add(id(stmt))
        env = fn.envs[node.index]

        # -- copy / constant propagation into this statement's reads --
        if not isinstance(stmt, ir.ApplyTable):  # table keys are decls
            for var in _stmt_read_vars(stmt, info):
                value = env[var]
                if value.const is not None:
                    props.subst[(id(stmt), var)] = ("const", value.const)
                    continue
                best: Optional[SSAValue] = None
                cursor = value
                while isinstance(cursor.op, CopyOp):
                    source = cursor.op.source
                    if env.get(source.var) is source:
                        best = source
                    cursor = source
                if best is not None and best.var != var:
                    props.subst[(id(stmt), var)] = ("field", best.var)
                    if best.def_stmt is not None:
                        protected.add(id(best.def_stmt))

        # -- dead-branch pruning --
        if isinstance(stmt, ir.IfStmt):
            verdict = eval_const(stmt.cond, fn._lookup(env))
            if verdict is not None:
                props.branches[id(stmt)] = bool(verdict)

        # -- CSE over pure recomputations --
        if isinstance(stmt, ir.AssignStmt) and info.tracked(stmt.dest) \
                and not isinstance(stmt.value, (ir.Const, ir.FieldRef)):
            key = _vn(stmt.value, env, info)
            if key is not None:
                prior = cse_table.get(key)
                if prior is None:
                    defined = _def_of(fn, node.index, stmt.dest)
                    if defined is not None:
                        cse_table[key] = (defined, stmt.dest)
                else:
                    value, var = prior
                    if env.get(var) is value and \
                            _cse_width_ok(info, var, stmt.dest):
                        props.cse[id(stmt)] = var
                        if value.def_stmt is not None:
                            protected.add(id(value.def_stmt))

    # -- dead definitions (meta only; std state is harness-observable) --
    for value in fn.values:
        if value.def_stmt is None or value.uses:
            continue
        if value.var not in info.meta_width:
            continue
        if isinstance(value.op, (ExprOp, CopyOp, RegReadOp)):
            props.dead.add(id(value.def_stmt))
    props.dead -= protected
    # A CSE rewrite reads a value the dead pass may have just condemned
    # in the same round; never remove a definition something rewrote to.
    for sid in props.cse:
        props.dead.discard(sid)
    return props


def _def_of(fn: SSAFunction, idx: int, var: str) -> Optional[SSAValue]:
    """The value ``var`` holds immediately *after* node ``idx``."""
    for value in fn.values:
        if value.def_node == idx and value.var == var:
            return value
    return None


def _cse_width_ok(info: SSAInfo, source_var: str, dest_var: str) -> bool:
    """``dest = source`` must reproduce ``dest = E`` exactly: the source
    either holds the unmasked value (std) or was masked at least as
    wide as the destination will mask again."""
    src_width = info.meta_width.get(source_var)
    if src_width is None:
        return True  # std source stores the raw evaluation
    dest_width = info.meta_width.get(dest_var)
    if dest_width is None:
        return False  # std dest needs the raw value; source was masked
    return src_width >= dest_width


def _stmt_read_vars(stmt: ir.P4Stmt, info: SSAInfo) -> List[str]:
    return sorted(use for use in ir.stmt_effect(stmt).uses
                  if info.tracked(use))


# ---------------------------------------------------------------------------
# Merging across linearizations and applying
# ---------------------------------------------------------------------------

def merge_proposals(all_props: Sequence[Proposals]) -> Proposals:
    """Keep only proposals every containing linearization agrees on."""
    if len(all_props) == 1:
        return all_props[0]
    merged = Proposals()
    for props in all_props:
        merged.visited |= props.visited

    def containing(sid: int) -> List[Proposals]:
        return [p for p in all_props if sid in p.visited]

    keys = set()
    for props in all_props:
        keys.update(props.subst)
    for key in keys:
        holders = containing(key[0])
        values = [p.subst.get(key) for p in holders]
        if values and all(v is not None and v == values[0] for v in values):
            merged.subst[key] = values[0]

    sids = set()
    for props in all_props:
        sids.update(props.cse)
    for sid in sids:
        holders = containing(sid)
        values = [p.cse.get(sid) for p in holders]
        if values and all(v is not None and v == values[0] for v in values):
            merged.cse[sid] = values[0]

    sids = set()
    for props in all_props:
        sids.update(props.branches)
    for sid in sids:
        holders = containing(sid)
        values = [p.branches.get(sid) for p in holders]
        if values and all(v is not None and v == values[0] for v in values):
            merged.branches[sid] = values[0]

    dead = set()
    for props in all_props:
        dead.update(props.dead)
    for sid in dead:
        if all(sid in p.dead for p in containing(sid)):
            merged.dead.add(sid)
    return merged


def _replacement_expr(repl: Replacement) -> ir.P4Expr:
    kind, payload = repl
    if kind == "const":
        value = int(payload)  # type: ignore[arg-type]
        return ir.Const(value, max(value.bit_length(), 1))
    return ir.FieldRef(str(payload))


def apply_proposals(bodies: Iterable[List[ir.P4Stmt]],
                    props: Proposals) -> Dict[str, int]:
    """Rewrite statement bodies in place per ``props``.

    Returns counts per pass (``copyprop``/``cse``/``branch``/``dce``).
    Bodies are mutated via slice assignment so every other list or
    wrapper referencing the same statement objects observes the change.
    """
    counts = {"copyprop": 0, "cse": 0, "branch": 0, "dce": 0}
    by_stmt: Dict[int, Dict[str, ir.P4Expr]] = {}
    for (sid, var), repl in props.subst.items():
        by_stmt.setdefault(sid, {})[var] = _replacement_expr(repl)

    def rewrite(body: List[ir.P4Stmt]) -> None:
        out: List[ir.P4Stmt] = []
        for stmt in body:
            sid = id(stmt)
            verdict = props.branches.get(sid)  # only IfStmts are decided
            if verdict is not None:
                arm = stmt.then_body if verdict else stmt.else_body
                rewrite(arm)
                out.extend(arm)
                counts["branch"] += 1
                continue
            for arm in ir.bodies(stmt):
                rewrite(arm)
            if sid in props.dead:
                counts["dce"] += 1
                continue
            if sid in props.cse and isinstance(stmt, ir.AssignStmt):
                stmt.value = ir.FieldRef(props.cse[sid])
                counts["cse"] += 1
            else:
                mapping = by_stmt.get(sid)
                if mapping and ir.map_exprs(stmt, lambda expr: ir.map_fields(
                        expr, lambda ref: mapping.get(ref.path, ref))):
                    counts["copyprop"] += 1
            out.append(stmt)
        body[:] = out

    for body in bodies:
        rewrite(body)
    return counts


__all__ = [
    "CopyOp", "EntryOp", "ExprOp", "ExternOp", "PhiOp", "Proposals",
    "RegReadOp", "SSAFunction", "SSAInfo", "SSAOp", "SSAValue",
    "StdBarrier", "TableOp", "UNKNOWN_STD", "apply_proposals", "eval_const",
    "merge_proposals", "propose",
]
