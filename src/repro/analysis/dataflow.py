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
manager, and registers persist across packets — all of them are
observable, so there is nothing to solve for them.
Register *occurrences* still show up in each node's
:class:`~repro.p4.ir.Effect` (as ``reg.<name>`` tokens) so the
register-oriented lint passes can reuse the same extraction.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from ..p4 import ir
from .cfg import CFG

#: Synthetic reaching-definition site: "never written, still the
#: pipeline-entry zero value".
UNINIT = -1


#: A node that runs nothing (the CFG's entry and exit).
_NOTHING = ir.Effect((), frozenset(), frozenset())


def cfg_effects(cfg: CFG, tables: Dict[str, ir.Table],
                actions: Dict[str, ir.Action]) -> Dict[int, ir.Effect]:
    """Per-node shallow effects for a whole CFG (branch bodies are nodes
    of their own): an apply's is :func:`repro.p4.ir.apply_effect` under
    its table's declared default, every other statement's what
    :func:`repro.p4.ir.stmt_effect` declares."""
    out: Dict[int, ir.Effect] = {}
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None:
            effect = _NOTHING
        elif isinstance(stmt, ir.ApplyTable):
            table = tables[stmt.table]
            effect = ir.apply_effect(table, actions, table.default_action)
        else:
            effect = ir.stmt_effect(stmt)
        out[node.index] = effect
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


def liveness(cfg: CFG, effects: Dict[int, ir.Effect]
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
        kills = frozenset(d for d in eff.must if _tracked(d))
        return uses | (live_out - kills)

    return worklist_solve(cfg, backward=True, transfer=transfer,
                          boundary=frozenset(), init=frozenset())


def reaching_definitions(cfg: CFG, effects: Dict[int, ir.Effect],
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
            if f in eff.must:
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
    "UNINIT", "cfg_effects", "liveness", "reaching_definitions",
    "worklist_solve",
]
