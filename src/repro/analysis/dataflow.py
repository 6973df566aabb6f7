"""Def/use extraction and the worklist dataflow solver.

Two classic analyses over the :mod:`repro.analysis.cfg` graphs, both
instances of one generic worklist solver:

* **Reaching definitions** (forward): per program point, for every
  metadata field, the set of definition sites that may reach it.  The
  synthetic site :data:`UNINIT` models the zero-initialized state at
  pipeline entry; a read whose *only* reaching definition is ``UNINIT``
  is a read no execution path ever wrote.
* **Liveness** (backward): per program point, the metadata fields whose
  current value may still be read downstream.  Table applies are
  may-defs (a missed table with no default action writes nothing), so
  they never kill liveness — except when a default action makes the
  write unconditional, in which case it is a must-def like any
  assignment.

The tracked variable universe is user/compiler *metadata* (``meta.*``):
header fields are wire-observable, standard metadata feeds the traffic
manager, and registers persist across packets — all of them are roots
the optimizer must preserve, so there is nothing to solve for them.
Register *occurrences* still show up in :class:`Effects` (as
``reg.<name>`` tokens) so the register-oriented lint passes can reuse
the same extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from ..p4 import ir
from .cfg import CFG

#: Synthetic reaching-definition site: "never written, still the
#: pipeline-entry zero value".
UNINIT = -1


@dataclass(frozen=True)
class Effects:
    """Shallow read/write behavior of one CFG node.

    ``defs`` are may-defs; ``must_defs`` additionally hold on every
    execution of the node.  ``side_effects`` marks work that is
    observable beyond the tracked metadata (register writes, digests,
    header/validity mutation, drops) — a node with side
    effects is never a dead-code candidate no matter how dead its
    written fields are.
    """

    uses: FrozenSet[str] = frozenset()
    defs: FrozenSet[str] = frozenset()
    must_defs: FrozenSet[str] = frozenset()
    side_effects: bool = False


def action_effects(action: ir.Action) -> Effects:
    """Aggregate effects of an action body (``param.*`` reads excluded —
    action data is immediate, not PHV state).  Writes inside an action
    are may-defs from the caller's viewpoint unless the whole body is
    straight-line, in which case they hold whenever the action runs."""
    uses: Set[str] = set()
    defs: Set[str] = set()
    must: Set[str] = set()
    side = False
    straight = not any(ir.bodies(s) for s in action.body)  # no branching
    for stmt in ir.walk_stmts(action.body):
        eff = stmt_effects(stmt, tables={}, actions={})
        uses |= {u for u in eff.uses if not u.startswith("param.")}
        defs |= eff.defs
        if straight:
            must |= eff.must_defs
        side = side or eff.side_effects
    return Effects(uses=frozenset(uses), defs=frozenset(defs),
                   must_defs=frozenset(must), side_effects=side)


def table_effects(table: ir.Table,
                  actions: Dict[str, ir.Action]) -> Effects:
    """Effects of applying ``table``: key reads plus the union of the
    effects of the actions it may run (:func:`repro.p4.ir.table_actions`).
    Writes every action *and* the default action perform
    unconditionally are must-defs (some action always runs when a
    default is declared); without a default action a miss writes
    nothing, so nothing is guaranteed."""
    uses: Set[str] = {k.path for k in table.keys}
    defs: Set[str] = set()
    side = False
    action_names = list(ir.table_actions(table, actions))
    if table.default_action is not None:
        action_names.append(table.default_action[0])
    per_action_must: List[FrozenSet[str]] = []
    for name in action_names:
        action = actions.get(name)
        if action is None:
            continue
        eff = action_effects(action)
        uses |= eff.uses
        defs |= eff.defs
        per_action_must.append(eff.must_defs)
        side = side or eff.side_effects
    must: Set[str] = set()
    if table.default_action is not None and per_action_must:
        must = set(per_action_must[0])
        for m in per_action_must[1:]:
            must &= m
    return Effects(uses=frozenset(uses), defs=frozenset(defs),
                   must_defs=frozenset(must), side_effects=side)


def stmt_effects(stmt: ir.P4Stmt, tables: Dict[str, ir.Table],
                 actions: Dict[str, ir.Action]) -> Effects:
    """Shallow effects of one statement (branch bodies excluded — they
    are separate CFG nodes): an apply's are its table's, every other
    kind's what :func:`repro.p4.ir.stmt_effect` declares, each def
    unconditional and observable unless it is metadata."""
    if isinstance(stmt, ir.ApplyTable):
        table = tables.get(stmt.table)
        if table is None:
            return Effects(side_effects=True)  # unknown table: hands off
        return table_effects(table, actions)
    effect = ir.stmt_effect(stmt)
    defs = frozenset(effect.defs)
    return Effects(uses=effect.uses, defs=defs, must_defs=defs,
                   side_effects=any(not d.startswith("meta.") for d in defs))


def cfg_effects(cfg: CFG, tables: Dict[str, ir.Table],
                actions: Dict[str, ir.Action]) -> Dict[int, Effects]:
    """Per-node shallow effects for a whole CFG."""
    out: Dict[int, Effects] = {}
    for node in cfg.nodes:
        out[node.index] = (stmt_effects(node.stmt, tables, actions)
                           if node.stmt is not None else Effects())
    return out


# ---------------------------------------------------------------------------
# The worklist solver
# ---------------------------------------------------------------------------

def worklist_solve(cfg: CFG, *, backward: bool,
                   transfer: Callable[[int, FrozenSet], FrozenSet],
                   boundary: FrozenSet,
                   init: FrozenSet,
                   ) -> Tuple[Dict[int, FrozenSet], Dict[int, FrozenSet]]:
    """Generic union-lattice worklist solver.

    Returns ``(in_sets, out_sets)`` in *execution* orientation: for a
    backward problem ``in_sets[n]`` is the fact before the node runs
    (i.e. the solver's output side).  ``boundary`` seeds the entry node
    (exit node for backward problems); ``init`` seeds everything else.
    """
    n = len(cfg.nodes)
    if backward:
        edges_in = [node.succs for node in cfg.nodes]   # meet over succs
        start = cfg.exit
    else:
        edges_in = [node.preds for node in cfg.nodes]
        start = cfg.entry
    meet_in: List[FrozenSet] = [init] * n
    result: List[FrozenSet] = [init] * n
    meet_in[start] = boundary
    result[start] = transfer(start, boundary)
    work = list(range(n))
    while work:
        idx = work.pop()
        if idx == start:
            acc = boundary
        else:
            acc = frozenset()
            for j in edges_in[idx]:
                acc = acc | result[j]
        meet_in[idx] = acc
        new = transfer(idx, acc)
        if new != result[idx]:
            result[idx] = new
            node = cfg.nodes[idx]
            work.extend(node.preds if backward else node.succs)
    if backward:
        return dict(enumerate(result)), dict(enumerate(meet_in))
    return dict(enumerate(meet_in)), dict(enumerate(result))


def _tracked(name: str) -> bool:
    return name.startswith("meta.")


def liveness(cfg: CFG, effects: Dict[int, Effects]
             ) -> Tuple[Dict[int, FrozenSet[str]], Dict[int, FrozenSet[str]]]:
    """Backward liveness of metadata fields.

    Returns ``(live_in, live_out)`` per node.  At pipeline exit nothing
    is live — per-packet metadata dies with the packet; everything
    observable (headers, registers, standard metadata) is excluded from
    the universe instead of being modeled as live-at-exit.
    """
    def transfer(idx: int, live_out: FrozenSet[str]) -> FrozenSet[str]:
        eff = effects[idx]
        uses = frozenset(u for u in eff.uses if _tracked(u))
        kills = frozenset(d for d in eff.must_defs if _tracked(d))
        return uses | (live_out - kills)

    return worklist_solve(cfg, backward=True, transfer=transfer,
                          boundary=frozenset(), init=frozenset())


def reaching_definitions(cfg: CFG, effects: Dict[int, Effects],
                         fields: Iterable[str]
                         ) -> Dict[int, Dict[str, FrozenSet[int]]]:
    """Forward reaching definitions over metadata fields.

    Returns, per node, ``field -> set of CFG node indices whose
    definition may reach the node's entry``; :data:`UNINIT` stands for
    the zero-initialized pipeline-entry "definition".  May-defs (table
    applies without a covering default) *add* a site without killing
    ``UNINIT`` — only must-defs kill.
    """
    universe = [f for f in fields if _tracked(f)]
    # Encode (field, site) pairs as frozenset elements.
    def transfer(idx: int, reach_in: FrozenSet) -> FrozenSet:
        eff = effects[idx]
        out = set(reach_in)
        for f in universe:
            if f in eff.must_defs:
                out -= {(f, s) for (g, s) in reach_in if g == f}
                out.add((f, idx))
            elif f in eff.defs:
                out.add((f, idx))
        return frozenset(out)

    boundary = frozenset((f, UNINIT) for f in universe)
    in_sets, _ = worklist_solve(cfg, backward=False, transfer=transfer,
                                boundary=boundary, init=frozenset())
    result: Dict[int, Dict[str, FrozenSet[int]]] = {}
    for idx, pairs in in_sets.items():
        per_field: Dict[str, Set[int]] = {f: set() for f in universe}
        for f, site in pairs:
            per_field.setdefault(f, set()).add(site)
        result[idx] = {f: frozenset(sites)
                       for f, sites in per_field.items()}
    return result


__all__ = [
    "Effects", "UNINIT", "action_effects", "cfg_effects",
    "liveness", "reaching_definitions", "stmt_effects", "table_effects",
    "worklist_solve",
]
