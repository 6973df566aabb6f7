"""Control-flow graphs over P4 IR statement bodies.

The analysis framework sees a compiled checker the way the hardware
does: as a handful of *placements* — the virtual linear pipelines a
switch of a given role actually executes, read from the linker's own
table (:func:`repro.compiler.linker.placement`) but **sharing** the
fragment statement objects instead of cloning them, so dataflow facts
computed on a placement attach to the very statements the compiled
checker holds.

A :class:`CFG` is built per placement (and per action body): structured
statements (conditionals and table applies) become branch nodes whose
bodies chain to a common successor.  ``mark_to_drop()`` is
deliberately *not* a terminator — in this substrate (as on bmv2) it
sets the drop flag and execution continues to the end of the pipeline,
which is exactly why the post-drop lint rule exists.

Parser coverage: :func:`always_extracted` computes the header binds
guaranteed to be extracted on every path from the parse-graph start
state to ``accept`` — the must-valid seed set for the
possibly-invalid-table-key rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..net.topology import CORE, EDGE
from ..p4 import ir

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"


@dataclass
class CFGNode:
    """One node of a control-flow graph.

    ``stmt`` is the IR statement the node evaluates (``None`` for the
    synthetic entry/exit nodes).  A structured statement contributes its
    *shallow* part only — a conditional's node evaluates the condition,
    a table apply's node the key match and action — while the nested
    bodies become separate nodes downstream.
    """

    index: int
    kind: str = STMT
    stmt: Optional[ir.P4Stmt] = None
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


@dataclass
class CFG:
    """A control-flow graph with unique entry and exit nodes."""

    nodes: List[CFGNode] = field(default_factory=list)
    entry: int = 0
    exit: int = 0

    def stmt_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.stmt is not None]

    def add_node(self, kind: str, stmt: Optional[ir.P4Stmt] = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.index

    def add_edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.append(dst)
        self.nodes[dst].preds.append(src)

    def __len__(self) -> int:
        return len(self.nodes)


def build_cfg(stmts: Sequence[ir.P4Stmt]) -> CFG:
    """Build the CFG of a statement body.

    Every statement object in ``stmts`` (recursively) gets exactly one
    node; branch arms rejoin at the next statement in their parent
    body.  The returned graph always has ``entry -> ... -> exit``.
    """
    cfg = CFG()
    cfg.entry = cfg.add_node(ENTRY)
    exits = _chain(cfg, stmts, [cfg.entry])
    cfg.exit = cfg.add_node(EXIT)
    for prev in exits:
        cfg.add_edge(prev, cfg.exit)
    return cfg


def _chain(cfg: CFG, body: Sequence[ir.P4Stmt],
           frontier: List[int]) -> List[int]:
    """Thread ``body`` after the ``frontier`` nodes; returns the new
    frontier (the nodes falling through to whatever comes next)."""
    for stmt in body:
        node = cfg.add_node(STMT, stmt)
        for prev in frontier:
            cfg.add_edge(prev, node)
        arms = ir.bodies(stmt)
        if not arms:
            frontier = [node]
            continue
        # An empty arm falls straight through the branch node.
        arm_exits: List[int] = []
        for arm in arms:
            arm_exits.extend(_chain(cfg, arm, [node]))
        frontier = list(dict.fromkeys(arm_exits))
    return frontier


# ---------------------------------------------------------------------------
# Placements: the virtual pipelines a compiled checker runs in
# ---------------------------------------------------------------------------

from ..compiler.linker import (LAST_HOP, PER_HOP,  # noqa: E402  (cycle-free)
                               placement)


@dataclass
class PlacementView:
    """One (role, check-mode) linearization of a compiled checker.

    ``stmts`` is the ingress+egress pipeline body a switch of ``role``
    executes under ``check_mode``: :func:`repro.compiler.linker.placement`'s
    phases concatenated, so the statements are the compiled fragments'
    own objects, and the guards around them the ones the linker places.
    """

    name: str
    role: str
    check_mode: str
    stmts: List[ir.P4Stmt]
    cfg: CFG


def checker_placements(compiled) -> List[PlacementView]:
    """The four placements a compiled checker can execute in.

    A statement is dead only if it is dead in *every* placement that
    contains it — the lint passes quantify over this list rather than
    assuming a particular deployment.
    """
    views: List[PlacementView] = []
    for role in (EDGE, CORE):
        for mode in (LAST_HOP, PER_HOP):
            stmts = placement(compiled, role, mode).stmts()
            views.append(PlacementView(name=f"{role}-{mode}", role=role,
                                       check_mode=mode, stmts=stmts,
                                       cfg=build_cfg(stmts)))
    return views


# ---------------------------------------------------------------------------
# Parser coverage
# ---------------------------------------------------------------------------

def always_extracted(parser: ir.ParserSpec) -> Set[str]:
    """Header binds extracted on *every* path from the start state to
    ``accept`` — the binds a table key may reference without a validity
    guard.  Stack extracts are excluded (their depth is data-dependent).
    Computed as a forward must-analysis over the parse graph."""
    states = {s.name: s for s in parser.states}
    if parser.start not in states:
        return set()

    def state_binds(state: ir.ParserState) -> Set[str]:
        return {ex.bind for ex in state.extracts
                if isinstance(ex, ir.Extract)}

    # must_in[state] = intersection over predecessors of must_out;
    # union lattice complement, so iterate to a fixpoint from TOP.
    all_binds: Set[str] = set()
    for s in parser.states:
        all_binds |= state_binds(s)
    must_in: Dict[str, Set[str]] = {name: set(all_binds) for name in states}
    must_in[parser.start] = set()
    accept_in: Optional[Set[str]] = None
    changed = True
    while changed:
        changed = False
        accept_in = None
        for name, state in states.items():
            out = must_in[name] | state_binds(state)
            for tr in state.transitions:
                target = tr.next_state
                if target == ir.ACCEPT or target == ir.REJECT_STATE:
                    if target == ir.ACCEPT:
                        accept_in = (set(out) if accept_in is None
                                     else accept_in & out)
                    continue
                if target in states and not must_in[target] <= out:
                    narrowed = must_in[target] & out
                    if narrowed != must_in[target]:
                        must_in[target] = narrowed
                        changed = True
    return accept_in if accept_in is not None else set()


__all__ = [
    "CFG", "CFGNode", "ENTRY", "EXIT", "STMT", "PlacementView",
    "always_extracted", "build_cfg", "checker_placements",
]
