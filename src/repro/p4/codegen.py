"""Codegen execution engine: a P4 program compiled to generated source.

The reference engine in :mod:`repro.p4.bmv2` walks the IR tree for every
packet.  This module emits one straight-line Python function per
program, ``compile()``s the source, and ``exec``s it, so the whole
parse → ingress → egress → deparse walk runs in a single stack frame
with flat local variables:

* **Metadata and standard metadata** become locals (``m3_counter``,
  ``sm_egress_spec``) instead of dict/attribute accesses.
* **Headers are unboxed for the length of the pipeline.**  A bind is
  four locals: ``hN``, the ``Header`` the parser bound or the shared
  invalid blank, never written; ``hvN``, its values dict; ``vN``, its
  validity (set at extraction); ``oN``, whether this frame owns
  ``hvN``.  A read is ``(hvN[f] if vN else 0)``, ``isValid`` is ``vN``.
  The first write owns inline (``if not oN: hvN = dict(hvN); oN =
  True``: no call, no ``Header``); ``setValid`` owns and sets ``vN``;
  ``setInvalid`` is ``vN = False`` and nothing else — an invalid header
  is not emitted, and its values stay in ``hvN`` for a later
  ``setValid``, as in the reference engine.  The deparser boxes an
  owned bind once (:func:`_box`) and emits ``hN`` itself otherwise, so
  untouched headers go out as the very objects that came in and the
  input packet is only ever read: a packet pays for the headers it
  changes, not for the ones the program could change.
* **Pure apply runs are memoised per port.**  A maximal run of two or
  more consecutive applies in a pipeline's top-level body sits behind
  one dict probe when (1) every table is exact-match with no hit/miss
  body; (2) the members' keys are one operand at most 9 bits wide that
  the run does not write — a ``standard_metadata`` port or narrow
  metadata, keyless tables qualify — so a memo holds at most 512
  tuples; (3) every action a member can dispatch to only assigns
  constants or its parameters to metadata; (4) every field the run may
  write is written on every path through some member (a default, and
  every arm assigns it) or nowhere before the run (it still holds its
  zero).  The fields after the run are then a function of the operand
  and the control plane: ``_p = RUNk.get(port)``; on ``None`` the run
  *as* ``_emit_apply`` *emits it* (dirty check, rebuild, dispatch),
  then ``RUNk[port] = (fields…)``; else ``fields… = _p``.  Every
  control-plane hook empties the memos of the runs its table is in
  before it returns, so a memo only holds what the live applies just
  produced and the frame a digest listener runs in sees the listener's
  write.  A build starts with empty memos; an instrumented build forms
  no runs (its apply sites count and trace per table).  This is Hydra's
  per-checker scaffolding — first-hop and last-hop probes, a loader
  table per control variable — which on Tofino costs no stage.
* **``packet.length`` is evaluated by the first read that runs**: the
  input packet is never written, so the late value is the early one.
* **The parser is one pass** over the parse graph in topological order;
  only a back edge (a cyclic graph) re-enters it.
* **Tables** are indexed at entry-install time
  (:class:`~repro.p4.tableindex._TableIndex`); a hit is the installed
  ``TableEntry`` itself and the action body is inlined at every apply
  site behind an ``if entry.action == '…'`` dispatch (``entry.args``
  loaded only in an arm whose action has parameters) that is
  specialized to the actions this program (plus any runtime-installed
  entries) can dispatch to.  Exact-match lookups inline the index's
  hash probe directly; every other lookup (LPM, ternary, range: a
  search) sits behind a probe of ``index.memo``, key tuple to entry
  or ``None``, filled in the miss arm up to ``_MEMO_CAP`` keys and
  emptied by the index itself, synchronously, on every write — sound
  for the reason the run memo is, and kept by an instrumented build.

The engine emits the linked program as given: it rewrites no statement,
so it and the reference engine execute the same IR, and the one way to
run an optimized checker on either is to compile it with ``optimize=``
(:mod:`repro.analysis.optimize`).  The pipeline is emitted exactly
once; a batch is ``Bmv2Switch.process_batch`` looping over ``process``.

Observability is a compile-time specialization: with the null handle
the generated source carries zero instrumentation; with a live handle
the apply/digest sites emit counters and trace events and ``process``
is the generated function inside :func:`~repro.p4.bmv2.observed`, the
per-switch wrapper both engines bind.

Control-plane interplay — *names are code, values are data*.  The
generated dispatch assumes a fixed action set per table, and the pure
run analysis which action each table runs on a miss; ``Bmv2Switch``
notifies the engine on entry inserts and default-action changes.

* **What builds a module**: a default that changes action (another
  name, or ``None`` to or from an action) and ``attach_observability``.
  An insert never does: ``Bmv2Switch`` refuses an entry bound to an
  action its table does not declare, so a module's text is a function
  of the program, the default-action names and whether it is
  instrumented.
* **Who owns the code**: the program.  Switches running one program
  (a deployment links once per role) emit the same text, and
  ``program.code`` maps a text to its code object: the first engine to
  need it calls ``compile()``, its siblings ``exec`` the same code
  into their own globals (and each runs its own byte copy of
  ``_process``'s code).  The memo dies with the program.
* **What rebinds**: a default action's *arguments*.  Each apply site's
  miss path loads its default — a keyless ``TableEntry``, bound once
  per table — from a module global (``DB<site>``);
  ``set_default_action`` with the same action stores the new one into
  those globals of the live module.  No emission,
  no ``compile()``, the table index untouched — the paper's
  point about Figure 2's control variables, which are exactly such
  defaults.  A frame already running (a digest listener that writes a
  control value mid-packet) reads the new binding on its next miss, as
  it would under the reference engine.
* **The counters**: ``builds`` per cause (:data:`INITIAL`,
  :data:`DEFAULT_ACTION`, :data:`OBSERVABILITY`), ``compiles`` (builds
  whose code this engine compiled itself; the rest took a sibling's),
  ``rebinds``, ``recompiles == sum(builds) - 1`` and ``runs`` (memo
  ``sites``, ``fills`` counted in the miss arm, ``clears`` in the
  hooks); read them through ``Bmv2Switch.engine_counts()``, and each
  table's ``rebuilds``/``folds``/``memo_fills``/``memo_clears`` through
  ``Bmv2Switch.index_counts()``.  Nothing is counted on a hit.

Externs are value-in/value-out (:class:`~repro.p4.ir.ExternCall`): the
call site passes the evaluated arguments and writes the results like any
other assignment.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..net.packet import Header, Packet
from ..obs.profile import profiled
from . import ir
from .bmv2 import (DROP_PORT, DigestMessage, P4RuntimeError, StandardMetadata,
                   observed)
from .tableindex import _MEMO_CAP, _TableIndex

__all__ = ["CodegenEngine"]

#: Why a module was built.  Each control-plane hook names its own cause;
#: ``CodegenEngine.builds`` counts per cause.
INITIAL = "initial"
DEFAULT_ACTION = "default_action"
OBSERVABILITY = "observability"

#: StandardMetadata fields tracked as flat locals.
_STD_FIELDS = ("ingress_port", "egress_spec", "egress_port",
               "packet_length", "drop")

#: What a pure apply run may be keyed on besides narrow metadata.  A
#: port is 9 bits wide, so a memo holds at most 512 tuples (the store
#: checks: the local is whatever integer the caller passed).
_PORTS = ("ingress_port", "egress_spec", "egress_port")

#: Probe instance for faithfully raising AttributeError on reads of
#: std-metadata fields that do not exist (matching the interpreter's
#: ``getattr(ctx.standard, rest)``).
_STD0 = StandardMetadata()

#: Sentinel marking a dynamically-created std-metadata attribute that
#: has not been written yet this packet.
_UNSET = object()

#: "Not in the lookup memo" (a memoised table miss is ``None``).
_MISS = object()

_set_slot = object.__setattr__


# ---------------------------------------------------------------------------
# Runtime helpers referenced from generated source (via globals)
# ---------------------------------------------------------------------------

def _raise_p4(message: str) -> None:
    raise P4RuntimeError(message)


def _raise_key(key: str) -> None:
    raise KeyError(key)


def _blank(htype) -> Header:
    """An invalid all-zero header: the shared stand-in for a bind the
    parser did not extract (built once per engine build, never written)."""
    header = Header(htype)
    header.valid = False
    return header


def _box(htype, values: Dict[str, int]) -> Header:
    """The valid ``Header`` a deparser emits for a bind this packet
    owns; ``values`` is the frame's own dict and becomes the header's."""
    header = Header.__new__(Header)
    _set_slot(header, "htype", htype)
    _set_slot(header, "values", values)
    _set_slot(header, "valid", True)
    return header


def _sanitize(name: str) -> str:
    return re.sub(r"\W", "_", name)


#: ``param.*`` bindings outside any action: none.
_NO_PARAMS: Dict[str, str] = {}


class CodegenEngine:
    """One program compiled to generated Python source, for one switch.

    ``Bmv2Switch`` drives it through ``process`` and the control-plane
    hooks below; ``source`` is the generated text.
    """

    def __init__(self, program: ir.P4Program, switch, cause: str = INITIAL):
        self.program = program
        self.switch = switch
        self._obs = switch.obs
        self._instrumented = self._obs.live
        self._meta_width: Dict[str, int] = dict(program.metadata)
        self._bind_types = program.bind_types()
        self.source: str = ""
        #: Modules built, by cause, and default bindings stored into the
        #: live module instead (control-plane events, nothing per packet).
        self.builds: Dict[str, int] = {}
        self.compiles = 0
        self.rebinds = 0
        #: Run memos filled (in the generated miss arm) and emptied (in
        #: the hooks below); nobody counts a hit.
        self.run_fills = 0
        self.run_clears = 0
        self.tables: Dict[str, _TableIndex] = {}
        self._build(cause)

    @property
    def recompiles(self) -> int:
        """Builds after the first."""
        return sum(self.builds.values()) - 1

    # ==================================================================
    # Control-plane hooks
    # ==================================================================

    def _clear_runs(self, name: str) -> None:
        """Empty the memo of every run ``name`` is a member of: each
        hook that changes what an apply of it yields, before it returns
        (to the next packet, or to the frame a digest listener is in)."""
        for memo in self._run_memos.get(name, ()):
            self._globals[memo].clear()
            self.run_clears += 1

    def invalidate_table(self, name: str) -> None:
        """``clear_table`` hook (and ``delete_entry`` of one object
        installed twice): the next lookup rebuilds the index."""
        self._clear_runs(name)
        index = self.tables.get(name)
        if index is not None:
            index.invalidate()

    def entries_inserted(self, name: str, new_entries) -> None:
        """Insert hook (one entry or a batch): fold the appended entries
        into the live index.  Their actions are ones the table declares
        (``Bmv2Switch._check_entry``), so the dispatch has their arms."""
        self._clear_runs(name)
        index = self.tables.get(name)
        if index is not None and not index.fold_inserts(new_entries):
            index.invalidate()

    def entries_removed(self, name: str, removed) -> None:
        """Delete hook (one entry or a batch): the table index and the
        run memos need maintenance."""
        self._clear_runs(name)
        index = self.tables.get(name)
        if index is not None and not index.fold_deletes(removed):
            index.invalidate()

    def on_default_change(self, name: str) -> None:
        """Names are code, values are data: a default that keeps its
        action gets its new arguments stored into the live module's
        ``DB<site>`` globals (a frame already running reads them on its
        next miss, as the reference engine would); a default that
        changes action invalidates the dispatch arms and the runs."""
        bound = self._default_binding(name)
        old = self._default_bound.get(name)
        if bound == old:
            return
        if bound is None or old is None or bound.action != old.action:
            self._build(DEFAULT_ACTION)
            return
        self._default_bound[name] = bound
        for gname in self._default_globals.get(name, ()):
            self._globals[gname] = bound
        self.rebinds += 1
        self._clear_runs(name)

    def on_observability_change(self) -> "CodegenEngine":
        """Instrumentation is emitted or absent at build time: a fresh
        engine (fresh counters) specialized on the switch's new handle."""
        return CodegenEngine(self.program, self.switch, OBSERVABILITY)

    def _default_binding(self, name: str) -> Optional[ir.TableEntry]:
        """The switch's current default for ``name`` as the keyless
        entry a miss dispatches on (``None``: a miss runs nothing)."""
        current = self.switch.default_actions.get(name)
        return None if current is None else ir.TableEntry((), *current)

    def index_counts(self) -> Dict[str, Dict[str, int]]:
        """Per table, how often its index was rebuilt from the entry
        list, how often a bulk write was folded into it instead, and
        its lookup memo's fills and clears, since this engine was
        created (recompiles included)."""
        return {name: {"rebuilds": index.rebuilds, "folds": index.folds,
                       "memo_fills": index.memo_fills,
                       "memo_clears": index.memo_clears}
                for name, index in self.tables.items()}

    def run_counts(self) -> Dict[str, int]:
        """Memoised apply runs in the live module, memos filled and
        memos emptied (hits: ``packets_processed * sites - fills``)."""
        return {"sites": self._runs, "fills": self.run_fills,
                "clears": self.run_clears}

    # ==================================================================
    # Build
    # ==================================================================

    def _build(self, cause: str) -> None:
        self.builds[cause] = self.builds.get(cause, 0) + 1
        with profiled(self.switch.obs.registry, "codegen"):
            self._specialize()
            self._globals: Dict[str, Any] = {}
            retired, self.tables = self.tables, {}
            self._table_globals: Dict[str, str] = {}
            #: Per table, the ``DB<site>`` globals holding its default.
            self._default_globals: Dict[str, List[str]] = {}
            #: Per table, the ``RUN<k>`` memos of the runs it is in.
            self._run_memos: Dict[str, Set[str]] = {}
            self._runs = 0
            self.source = self._emit_module()
            for name, old in retired.items():
                index = self.tables.get(name)
                if index is not None:
                    index.rebuilds, index.folds = old.rebuilds, old.folds
                    index.memo_fills = old.memo_fills
                    index.memo_clears = old.memo_clears
            code = self.program.code.get(self.source)
            if code is None:  # the first switch of this program to ask
                code = self.program.code[self.source] = compile(
                    self.source, f"<codegen:{self.program.name}>", "exec")
                self.compiles += 1
            exec(code, self._globals)
            self._run = self._globals["_process"]
            # CPython's inline caches sit in the function's code and
            # follow one globals dict: siblings running the very same
            # object evict each other's on every packet (5 % a hop).
            # A byte copy costs microseconds, not a compile().
            self._run.__code__ = self._run.__code__.replace()
        self.process = (observed(self.switch, self._run) if self._instrumented
                        else self._run)

    def _specialize(self) -> None:
        """What emission assumes of the switch's live control-plane
        state: per table, the actions an apply can dispatch to (the
        declaration's, or every action when it names none, plus a
        default that goes beyond it) and the default's binding (its
        arguments :meth:`on_default_change` rebinds)."""
        switch = self.switch
        self._assumed = {}
        for name, table in self.program.tables.items():
            assumed = set(table.actions or self.program.actions)
            default = switch.default_actions.get(name)
            if default is not None:
                assumed.add(default[0])
            self._assumed[name] = assumed
        self._default_bound = {name: self._default_binding(name)
                               for name in switch.default_actions}

    # ==================================================================
    # Source emission
    # ==================================================================

    def _g(self, name: str, value: Any) -> str:
        """Register a value under ``name`` in the exec globals."""
        if name not in self._globals:
            self._globals[name] = value
        return name

    def _table_global(self, name: str) -> Tuple[str, _TableIndex]:
        gname = self._table_globals.get(name)
        if gname is None:
            index = _TableIndex(self, name, self.program.tables[name])
            self.tables[name] = index
            gname = self._g(f"T{len(self._table_globals)}_{_sanitize(name)}",
                            index)
            self._table_globals[name] = gname
        return gname, self.tables[name]

    def _emit_module(self) -> str:
        program = self.program
        switch = self.switch
        # Stable name maps (index-based: collision-free, readable).
        self._meta_names = {
            name: f"m{i}_{_sanitize(name)}"
            for i, (name, _) in enumerate(program.metadata)
        }
        self._bind_names = {
            bind: f"h{i}_{_sanitize(bind)}"
            for i, bind in enumerate(self._bind_types)
        }
        self._vals_names = {
            bind: f"hv{i}_{_sanitize(bind)}"
            for i, bind in enumerate(self._bind_types)
        }
        self._valid_names = {
            bind: f"v{i}" for i, bind in enumerate(self._bind_types)
        }
        self._own_names = {
            bind: f"o{i}" for i, bind in enumerate(self._bind_types)
        }
        self._reg_names = {}
        for i, reg in enumerate(program.registers):
            gname = self._g(f"RG{i}_{_sanitize(reg.name)}",
                            switch.registers[reg.name])
            self._reg_names[reg.name] = gname
        # Baseline globals.
        self._g("SW", switch)
        self._g("EN", self)
        self._g("_DM", DigestMessage)
        self._g("_PKT", Packet.shell)
        self._g("_box", _box)
        self._g("_raise_p4", _raise_p4)
        self._g("_raise_key", _raise_key)
        for name, helper in ir.HELPERS.items():
            self._g(name, helper)
        self._g("_STD0", _STD0)
        self._g("_UNSET", _UNSET)
        self._g("_MISS", _MISS)
        if self._instrumented:
            self._g("TR", self._obs.tracer)
        # Usage scans over pipelines + every program action (superset of
        # anything the dispatch can inline) + the parser's select fields:
        # each statement's declared effect, an apply's table keys.
        all_stmts = [s for body in ir.program_bodies(program)
                     for s in ir.walk_stmts(body)]
        effects = [ir.stmt_effect(s) for s in all_stmts]
        paths = [p for effect in effects for p in (*effect.defs, *effect.uses)]
        tables = program.tables
        paths.extend(key.path for s in all_stmts
                     if isinstance(s, ir.ApplyTable) and s.table in tables
                     for key in tables[s.table].keys)
        paths.extend(tr.field_path for state in program.parser.states
                     for tr in state.transitions
                     if tr.field_path is not None)
        self._used_meta = ({p[len("meta."):] for p in paths
                            if p.startswith("meta.")}
                           & set(self._meta_width))
        # Std-metadata fields outside the dataclass that the program
        # *writes* (the interpreter's setattr creates them dynamically).
        std = "standard_metadata."
        self._dyn_std = {dest[len(std):] for effect in effects
                         for dest in effect.defs
                         if dest.startswith(std)}.difference(_STD_FIELDS)
        # packet_length is only materialized when something touches it.
        self._needs_length = "standard_metadata.packet_length" in paths

        lines: List[str] = [
            f"# generated by repro.p4.codegen for program {program.name!r}",
            "",
            "def _process(packet, ingress_port):",
        ]
        self._site = 0
        self._emit_pipeline(lines, program.ingress, program.egress)
        lines.append("")
        return "\n".join(lines)

    # -- pipeline body -------------------------------------------------------

    def _emit_pipeline(self, lines: List[str],
                       ingress: List[ir.P4Stmt],
                       egress: List[ir.P4Stmt]) -> None:
        """The body of ``_process``: one packet, parse to deparse.

        The input packet and its headers are only read; the output is a
        fresh shell over the (shared or owned) headers that survive.
        """
        ind = 1
        pad = "    " * ind
        emit = lines.append
        emit(f"{pad}SW.packets_processed += 1")
        emit(f"{pad}sm_ingress_port = ingress_port")
        emit(f"{pad}sm_egress_spec = 0")
        emit(f"{pad}sm_egress_port = 0")
        if self._needs_length:  # loaded by the first read that runs
            emit(f"{pad}sm_packet_length = None")
        emit(f"{pad}sm_drop = False")
        for name in self._dyn_std:
            emit(f"{pad}sx_{_sanitize(name)} = _UNSET")
        for name in self._meta_names:
            if name in self._used_meta:
                emit(f"{pad}{self._meta_names[name]} = 0")
        self._emit_parser(lines, ind)
        owned: Set[str] = set()
        before: Set[str] = set()  # paths written so far, for the runs
        self._emit_top(ingress, lines, owned, before)
        emit(f"{pad}if sm_drop or sm_egress_spec == {DROP_PORT}:")
        emit(f"{pad}    SW.packets_dropped += 1")
        emit(f"{pad}    return []")
        emit(f"{pad}sm_egress_port = sm_egress_spec")
        self._emit_top(egress, lines, owned, before)
        emit(f"{pad}if sm_drop:")
        emit(f"{pad}    SW.packets_dropped += 1")
        emit(f"{pad}    return []")
        emit(f"{pad}_emit = []")
        order = self.program.emit_order or list(self._bind_types)
        for bind in order:
            local = self._bind_names.get(bind)
            if local is None:
                continue  # emit_order naming a bind the parser never makes
            emit(f"{pad}if {self._valid_names[bind]}: _emit.append("
                 f"_box({self._type_names[bind]}, {self._vals_names[bind]}) "
                 f"if {self._own_names[bind]} else {local})")
        emit(f"{pad}_emit.extend(_tail)")
        emit(f"{pad}return [(sm_egress_port, _PKT(_emit, packet.payload_len, "
             f"packet.packet_id, dict(packet.meta)))]")

    # -- ownership -----------------------------------------------------------

    def _emit_own(self, bind: str, lines: List[str], ind: int,
                  owned: Set[str]) -> None:
        """Copy-on-first-write guard, before a write to ``bind``: the
        frame takes a private copy of the values dict, inline.

        ``owned`` holds the binds every path to this point already
        owns, so a run of writes to one header pays for one guard.
        """
        if bind not in owned:
            owned.add(bind)
            own, values = self._own_names[bind], self._vals_names[bind]
            lines.append(f"{'    ' * ind}if not {own}: "
                         f"{values} = dict({values}); {own} = True")

    # -- parser --------------------------------------------------------------

    def _emit_parser(self, lines: List[str], ind: int) -> None:
        """One pass over the parse graph.

        States are numbered and emitted in topological order as a run
        of ``if _st == k:`` blocks, so a forward edge just falls through
        to a later block; ``-1`` is accept/reject.  Only a graph with a
        back edge gets the enclosing loop, and only then (or with more
        than 64 states) the reference engine's 64-visit guard.
        """
        pad = "    " * ind
        emit = lines.append
        parser = self.program.parser
        self._type_names: Dict[str, str] = {}
        for i, (bind, htype) in enumerate(self._bind_types.items()):
            tag = f"{i}_{_sanitize(bind)}"
            self._type_names[bind] = self._g(f"HT{tag}", htype)
            shared = _blank(htype)
            emit(f"{pad}{self._bind_names[bind]} = "
                 f"{self._g(f'SH{tag}', shared)}; {self._vals_names[bind]} = "
                 f"{self._g(f'SV{tag}', shared.values)}")
        if self._bind_types:  # nothing valid, nothing owned
            flags = [*self._valid_names.values(), *self._own_names.values()]
            emit(f"{pad}{' = '.join(flags)} = False")
        emit(f"{pad}_hdrs = packet.headers")
        emit(f"{pad}_nh = len(_hdrs)")
        emit(f"{pad}_cur = 0")
        by_name: Dict[str, ir.ParserState] = {}
        for state in parser.states:
            by_name.setdefault(state.name, state)
        # Reverse postorder from the start state.  A name no state
        # carries is kept as a leaf: entering it raises, as it does in
        # the reference engine.
        order: List[str] = []
        seen = {ir.ACCEPT, ir.REJECT_STATE}

        def visit(name: str) -> None:
            seen.add(name)
            state = by_name.get(name)
            for tr in (state.transitions if state is not None else ()):
                if tr.next_state not in seen:
                    visit(tr.next_state)
            order.append(name)

        if parser.start not in seen:
            visit(parser.start)
        order.reverse()
        index = {name: i for i, name in enumerate(order)}
        cyclic = any(tr.next_state in index
                     and index[tr.next_state] <= index[name]
                     for name in order if name in by_name
                     for tr in by_name[name].transitions)
        guarded = cyclic or len(order) > 64
        if order:
            emit(f"{pad}_st = 0")
        if guarded:
            emit(f"{pad}_guard = 0")
        if cyclic:
            emit(f"{pad}while True:")
            ind += 1
        body = "    " * ind
        for pos, name in enumerate(order):
            emit(f"{body}if _st == {pos}:")
            if guarded:
                emit(f"{body}    _guard += 1")
                emit(f"{body}    if _guard > 64:")
                emit(f"{body}        _raise_p4('parser did not terminate')")
            if name in by_name:
                self._emit_state(by_name[name], pos, index, lines, ind + 1)
            else:
                emit(f"{body}    _raise_key("
                     f"{('no parser state ' + repr(name))!r})")
        if cyclic:
            emit(f"{body}break")
        emit(f"{pad}_tail = _hdrs[_cur:]")

    def _unbox(self, bind: str) -> str:
        """Statements binding ``bind``'s values and validity locals to
        the header just extracted (``_hx``)."""
        return (f"{self._vals_names[bind]} = _hx.values; "
                f"{self._valid_names[bind]} = _hx.valid")

    def _emit_state(self, state: ir.ParserState, pos: int,
                    index: Dict[str, int], lines: List[str],
                    ind: int) -> None:
        emit = lines.append
        rejecting = any(isinstance(ex, ir.Extract) for ex in state.extracts)
        if rejecting:  # unless every extract below succeeds
            emit(f"{'    ' * ind}_st = -1")
        for ex in state.extracts:
            pad = "    " * ind
            if isinstance(ex, ir.Extract):
                emit(f"{pad}if _cur < _nh and _hdrs[_cur].htype is "
                     f"{self._type_names[ex.bind]}:")
                ind += 1
                pad = "    " * ind
                emit(f"{pad}{self._bind_names[ex.bind]} = _hx = _hdrs[_cur]")
                emit(f"{pad}{self._unbox(ex.bind)}")
                emit(f"{pad}_cur += 1")
            else:  # ExtractStack
                emit(f"{pad}_depth = 0")
                emit(f"{pad}while _depth < {ex.max_depth} and _cur < _nh "
                     f"and _hdrs[_cur].htype is "
                     f"{self._type_names[ex.bind + '0']}:")
                inner = pad + "    "
                emit(f"{inner}_hx = _hdrs[_cur]")
                for depth in range(ex.max_depth):
                    kw = "if" if depth == 0 else "elif"
                    bind = f"{ex.bind}{depth}"
                    emit(f"{inner}{kw} _depth == {depth}:")
                    emit(f"{inner}    {self._bind_names[bind]} = _hx; "
                         f"{self._unbox(bind)}")
                emit(f"{inner}_stop = _hx.values[{ex.loop_field!r}] != 0")
                emit(f"{inner}_cur += 1")
                emit(f"{inner}_depth += 1")
                emit(f"{inner}if _stop:")
                emit(f"{inner}    break")
        pad = "    " * ind
        # The select: first listed match wins, else the last default.
        default = ir.ACCEPT
        cases: List[Tuple[str, Optional[int], int]] = []
        for tr in state.transitions:
            if tr.field_path is None:
                default = tr.next_state
            else:
                cases.append((tr.field_path, tr.value,
                              index.get(tr.next_state, -1)))
        fallback = index.get(default, -1)
        fields = {path for path, _, _ in cases}
        if not cases:
            if not (rejecting and fallback == -1):
                emit(f"{pad}_st = {fallback}")
        elif len(fields) == 1:
            table: Dict[Optional[int], int] = {}
            for _, value, target in cases:
                table.setdefault(value, target)
            sel = self._g(f"SEL{pos}", table)
            read = self._read(cases[0][0], _NO_PARAMS)
            emit(f"{pad}_st = {sel}.get({read}, {fallback})")
        else:
            for i, (path, value, target) in enumerate(cases):
                read = self._read(path, _NO_PARAMS)
                emit(f"{pad}{'if' if i == 0 else 'elif'} {read} == {value!r}:")
                emit(f"{pad}    _st = {target}")
            emit(f"{pad}else:")
            emit(f"{pad}    _st = {fallback}")
        if any(0 <= target <= pos
               for target in [fallback] + [c[2] for c in cases]):
            emit(f"{pad}if 0 <= _st <= {pos}:")  # a back edge was taken
            emit(f"{pad}    continue")

    # -- statements ----------------------------------------------------------

    def _emit_body(self, stmts: Sequence[ir.P4Stmt], lines: List[str],
                   ind: int, params: Dict[str, str],
                   owned: Set[str]) -> None:
        if not stmts:
            lines.append("    " * ind + "pass")
            return
        for stmt in stmts:
            self._emit_stmt(stmt, lines, ind, params, owned)

    def _emit_stmt(self, stmt: ir.P4Stmt, lines: List[str], ind: int,
                   params: Dict[str, str], owned: Set[str]) -> None:
        pad = "    " * ind
        emit = lines.append
        if isinstance(stmt, ir.AssignStmt):
            self._emit_write(stmt.dest, self._expr(stmt.value, params),
                             lines, ind, owned)
        elif isinstance(stmt, ir.IfStmt):
            emit(f"{pad}if {self._cond(stmt.cond, params)}:")
            then_owned = set(owned)
            self._emit_body(stmt.then_body, lines, ind + 1, params,
                            then_owned)
            else_owned = set(owned)
            if stmt.else_body:
                emit(f"{pad}else:")
                self._emit_body(stmt.else_body, lines, ind + 1, params,
                                else_owned)
            owned |= then_owned & else_owned
        elif isinstance(stmt, ir.ApplyTable):
            self._emit_apply(stmt, lines, ind, params, owned)
        elif isinstance(stmt, ir.RegisterRead):
            emit(f"{pad}_ri = {self._expr(stmt.index, params)}")
            reg = self._reg_names.get(stmt.register)
            if reg is None:
                emit(f"{pad}_raise_key({stmt.register!r})")
                return
            size = len(self.switch.registers[stmt.register])
            self._emit_write(stmt.dest,
                             f"({reg}[_ri] if 0 <= _ri < {size} else 0)",
                             lines, ind, owned)
        elif isinstance(stmt, ir.RegisterWrite):
            emit(f"{pad}_ri = {self._expr(stmt.index, params)}")
            reg = self._reg_names.get(stmt.register)
            if reg is None:
                emit(f"{pad}_raise_key({stmt.register!r})")
                return
            size = len(self.switch.registers[stmt.register])
            mask = (1 << self.switch._register_width[stmt.register]) - 1
            emit(f"{pad}if 0 <= _ri < {size}:")
            emit(f"{pad}    {reg}[_ri] = "
                 f"({self._expr(stmt.value, params)}) & {mask}")
        elif isinstance(stmt, ir.Digest):
            values = ", ".join(self._expr(e, params) for e in stmt.fields)
            emit(f"{pad}_dg = _DM(name={stmt.name!r}, values=[{values}], "
                 f"switch_name=SW.name)")
            emit(f"{pad}SW.digests.append(_dg)")
            if self._instrumented:
                emit(f"{pad}if TR.live:")
                emit(f"{pad}    TR.emit('digest', node=SW.name, "
                     f"packet_id=packet.packet_id, digest={stmt.name!r})")
            emit(f"{pad}for _ls in SW.digest_listeners:")
            emit(f"{pad}    _ls(_dg)")
        elif isinstance(stmt, (ir.SetValid, ir.SetInvalid)):
            valid = isinstance(stmt, ir.SetValid)
            local = self._bind_names.get(stmt.header)
            if local is None:
                verb = "setValid" if valid else "setInvalid"
                emit(f"{pad}_raise_p4("
                     f"{f'{verb} on unknown header {stmt.header!r}'!r})")
            else:
                if valid:  # an invalid header is not emitted: no copy
                    self._emit_own(stmt.header, lines, ind, owned)
                emit(f"{pad}{self._valid_names[stmt.header]} = {valid}")
        elif isinstance(stmt, ir.MarkToDrop):
            emit(f"{pad}sm_drop = True")
        elif isinstance(stmt, ir.PopSourceRoute):
            # bmv2._pop_source_route over locals, last slot first: the
            # last valid slot goes invalid, every other valid one takes
            # (a copy of) the values of the valid slot above it.
            emit(f"{pad}_nx = None")
            for bind in sorted(
                    (b for b in self._bind_types if b.startswith("srcRoute")
                     and b[len("srcRoute"):].isdigit()),
                    key=lambda b: -int(b[len("srcRoute"):])):
                values = self._vals_names[bind]
                emit(f"{pad}if {self._valid_names[bind]}:")
                emit(f"{pad}    if _nx is None: _nx = {values}; "
                     f"{self._valid_names[bind]} = False")
                emit(f"{pad}    else: _nx, {values}, {self._own_names[bind]} "
                     f"= {values}, dict(_nx), True")
        elif isinstance(stmt, ir.ExternCall):
            fn = self._g(f"EX{self._site}", stmt.call)
            self._site += 1
            args = ", ".join(self._expr(e, params) for e in stmt.args)
            emit(f"{pad}_x = {fn}({args})")
            for i, dest in enumerate(stmt.dests):
                self._emit_write(dest, f"_x[{i}]", lines, ind, owned)
        else:
            emit(f"{pad}_raise_p4("
                 f"{f'unknown statement {type(stmt).__name__}'!r})")

    def _emit_apply(self, stmt: ir.ApplyTable, lines: List[str], ind: int,
                    params: Dict[str, str], owned: Set[str]) -> None:
        pad = "    " * ind
        emit = lines.append
        table = self.program.tables.get(stmt.table)
        if table is None:
            emit(f"{pad}_raise_p4({f'unknown table {stmt.table!r}'!r})")
            return
        site = self._site
        self._site += 1
        gname, index = self._table_global(stmt.table)
        key = ", ".join(self._read(k.path, params) for k in table.keys)
        key_tuple = f"({key},)" if len(table.keys) == 1 else f"({key})"
        if index._mode == "exact":
            emit(f"{pad}if {gname}._dirty:")
            emit(f"{pad}    {gname}._rebuild()")
            emit(f"{pad}_b{site} = {gname}._exact_map.get({key_tuple})")
        else:
            # A search sits behind a probe of the memo its index owns
            # (and empties, synchronously, on every write).
            memo = self._g(f"L{gname}", index.memo)
            emit(f"{pad}_k = {key_tuple}")
            emit(f"{pad}_b{site} = {memo}.get(_k, _MISS)")
            emit(f"{pad}if _b{site} is _MISS:")
            emit(f"{pad}    _b{site} = {gname}.lookup(_k)")
            emit(f"{pad}    if len({memo}) < {_MEMO_CAP}: "
                 f"{memo}[_k] = _b{site}; {gname}.memo_fills += 1")
        # Hit or miss is a local only where something reads it.
        branches = bool(stmt.hit_body or stmt.miss_body)
        if branches or self._instrumented:
            emit(f"{pad}_h{site} = _b{site} is not None")
        # The default binding is data: set_default_action's hook stores
        # a new one here unless the action itself changed.
        db = self._g(f"DB{site}", self._default_bound[stmt.table])
        self._default_globals.setdefault(stmt.table, []).append(db)
        if self._instrumented:
            counter = self._obs.registry.counter(
                "table_lookups_total", "table applies by outcome",
                labels=("switch", "table", "result"))
            hc = self._g(f"CH{site}", counter.labels(
                self.switch.name, stmt.table, "hit"))
            mc = self._g(f"CM{site}", counter.labels(
                self.switch.name, stmt.table, "miss"))
            emit(f"{pad}if _h{site}:")
            emit(f"{pad}    {hc}.inc()")
            emit(f"{pad}    if TR.live:")
            emit(f"{pad}        TR.emit('apply', node=SW.name, "
                 f"packet_id=packet.packet_id, table={stmt.table!r}, "
                 f"result='hit')")
            emit(f"{pad}else:")
            emit(f"{pad}    {mc}.inc()")
            emit(f"{pad}    if TR.live:")
            emit(f"{pad}        TR.emit('apply', node=SW.name, "
                 f"packet_id=packet.packet_id, table={stmt.table!r}, "
                 f"result='miss')")
            emit(f"{pad}    _b{site} = {db}")
        else:
            emit(f"{pad}if _b{site} is None:")
            emit(f"{pad}    _b{site} = {db}")
        assumed = self._arms(stmt.table)
        if assumed:
            emit(f"{pad}if _b{site} is not None:")
            inner = pad + "    "
            emit(f"{inner}_a{site} = _b{site}.action")
            for j, name in enumerate(assumed):
                kw = "if" if j == 0 else "elif"
                action = self.program.actions[name]
                emit(f"{inner}{kw} _a{site} == {name!r}:")
                if action.params:
                    emit(f"{inner}    _aa{site} = _b{site}.args")
                # Inlined with the entry's action data as its params; what
                # one arm owns, the code after the apply may not assume.
                self._emit_body(
                    action.body, lines, ind + 2,
                    {p: f"_aa{site}[{i}]"
                     for i, (p, _) in enumerate(action.params)},
                    set(owned))
            emit(f"{inner}else:")
            emit(f"{inner}    _raise_p4('codegen dispatch missed an action; "
                 f"control-plane hook failed to recompile')")
        if branches:
            emit(f"{pad}if _h{site}:")
            self._emit_body(stmt.hit_body, lines, ind + 1, params,
                            set(owned))
            if stmt.miss_body:
                emit(f"{pad}else:")
                self._emit_body(stmt.miss_body, lines, ind + 1, params,
                                set(owned))

    # -- pure apply runs (the four conditions: module docstring) -------------

    def _arms(self, table: str) -> List[str]:
        """The actions an apply of ``table`` can dispatch to."""
        assumed = self._assumed.get(table, ())
        return [name for name in self.program.actions if name in assumed]

    def _dests(self, stmts: Sequence[ir.P4Stmt]) -> Set[str]:
        """Every path ``stmts`` may write, the actions their applies can
        dispatch to included."""
        out: Set[str] = set()
        for stmt in ir.walk_stmts(stmts):
            out.update(ir.stmt_defs(stmt))
            if isinstance(stmt, ir.ApplyTable):
                for name in self._arms(stmt.table):
                    out |= self._dests(self.program.actions[name].body)
        return out

    def _pure(self, stmt: ir.P4Stmt
              ) -> Optional[Tuple[Set[str], Set[str], Set[str]]]:
        """``(key operands, fields some arm writes, fields every path
        writes)`` of an apply that meets conditions 1-3, else ``None``."""
        table = (self.program.tables.get(stmt.table)
                 if isinstance(stmt, ir.ApplyTable) else None)
        if (table is None or self._instrumented
                or stmt.hit_body or stmt.miss_body):
            return None
        for key in table.keys:
            root, _, rest = key.path.partition(".")
            narrow = (self._meta_width.get(rest, 10) <= 9 if root == "meta"
                      else root == "standard_metadata" and rest in _PORTS)
            if key.kind is not ir.MatchKind.EXACT or not narrow:
                return None
        arms = [self.program.actions[name].body
                for name in self._arms(stmt.table)]
        if not all(isinstance(s, ir.AssignStmt)
                   and s.dest.startswith("meta.")
                   and s.dest[len("meta."):] in self._meta_width
                   and (isinstance(s.value, ir.Const)
                        or isinstance(s.value, ir.FieldRef)
                        and s.value.path.startswith("param."))
                   for body in arms for s in body):
            return None
        writes = [{loc for s in body for loc in ir.stmt_defs(s)}
                  for body in arms]
        always = (set.intersection(*writes) if writes and
                  self._default_bound[stmt.table] is not None else set())
        return {key.path for key in table.keys}, set().union(*writes), always

    def _run_at(self, stmts: Sequence[ir.P4Stmt], start: int,
                before: Set[str]) -> Tuple[int, Optional[str], List[str]]:
        """The pure apply run starting at ``stmts[start]``: its length
        (0: none), its key operand (``None``: keyless) and the fields it
        writes; ``before`` is every path written ahead of it."""
        members: List[Tuple[Set[str], Set[str], Set[str]]] = []
        operands: Set[str] = set()
        written: Set[str] = set()
        for stmt in stmts[start:]:
            pure = self._pure(stmt)
            if pure is None:
                break
            operands, written = operands | pure[0], written | pure[1]
            if len(operands) > 1 or operands & written:
                break  # condition 2: one operand, never written
            members.append(pure)
        while len(members) >= 2:
            written = set().union(*(m[1] for m in members))
            stale = (written & before).difference(*(m[2] for m in members))
            if not stale:
                operands = set().union(*(m[0] for m in members))
                return len(members), next(iter(operands), None), sorted(written)
            # Condition 4: cut at the first member that could leave one.
            del members[next(i for i, m in enumerate(members)
                             if m[1] & stale):]
        return 0, None, []

    def _emit_top(self, stmts: Sequence[ir.P4Stmt], lines: List[str],
                  owned: Set[str], before: Set[str]) -> None:
        """A pipeline's top-level body, its pure apply runs memoised:
        the miss arm is the run as :meth:`_emit_apply` emits it, then
        the store."""
        emit = lines.append
        at = 0
        while at < len(stmts):
            count, operand, fields = self._run_at(stmts, at, before)
            if fields:
                memo = self._g(f"RUN{self._runs}", {})
                self._runs += 1
                key = self._read(operand, _NO_PARAMS) if operand else "0"
                names = ", ".join(self._meta_names[f[len("meta."):]]
                                  for f in fields)
                emit(f"    _p = {memo}.get({key})")
                emit("    if _p is None:")
                for stmt in stmts[at:at + count]:
                    self._run_memos.setdefault(stmt.table, set()).add(memo)
                    self._emit_apply(stmt, lines, 2, _NO_PARAMS, owned)
                emit("        EN.run_fills += 1")
                emit(f"        if len({memo}) < 512: "
                     f"{memo}[{key}] = ({names},)")
                emit("    else:")
                emit(f"        {names}, = _p")
            else:
                count = 1
                self._emit_stmt(stmts[at], lines, 1, _NO_PARAMS, owned)
            before |= self._dests(stmts[at:at + count])
            at += count

    # -- field access --------------------------------------------------------

    def _read(self, path: str, params: Dict[str, str]) -> str:
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            if bind not in self._bind_types:
                return "0"  # unknown bind reads as invalid: 0
            return (f"({self._vals_names[bind]}[{fname!r}] "
                    f"if {self._valid_names[bind]} else 0)")
        if root == "meta":
            name = self._meta_names.get(rest)
            if name is None:
                return self._raise_expr(f"unknown metadata field {rest!r}")
            return name
        if root == "standard_metadata":
            if rest == "drop":
                return "(1 if sm_drop else 0)"
            if rest == "packet_length":  # on demand, once
                return ("(sm_packet_length if sm_packet_length is not None "
                        "else (sm_packet_length := packet.length))")
            if rest in _STD_FIELDS:
                return f"sm_{rest}"
            if rest in self._dyn_std:
                local = f"sx_{_sanitize(rest)}"
                return (f"(int(getattr(_STD0, {rest!r})) "
                        f"if {local} is _UNSET else {local})")
            return f"int(getattr(_STD0, {rest!r}))"
        if root == "param":
            expr = params.get(rest)
            if expr is None:
                return self._raise_expr(
                    f"unbound action parameter {rest!r}")
            return expr
        return self._raise_expr(f"bad field path {path!r}")

    def _emit_write(self, path: str, value: str, lines: List[str],
                    ind: int, owned: Set[str]) -> None:
        pad = "    " * ind
        emit = lines.append
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            htype = self._bind_types.get(bind)
            if htype is None:
                emit(f"{pad}_raise_p4("
                     f"{f'write to unbound header {bind!r}'!r})")
                return
            if not htype.has_field(fname):
                emit(f"{pad}_raise_key({fname!r})")
                return
            mask = (1 << htype.field(fname).width) - 1
            # The copy holds the same values, so the right-hand side may
            # read this header on either side of the guard.
            self._emit_own(bind, lines, ind, owned)
            emit(f"{pad}{self._vals_names[bind]}[{fname!r}] = "
                 f"({value}) & {mask}")
            return
        if root == "meta":
            name = self._meta_names.get(rest)
            if name is None:
                emit(f"{pad}_raise_p4("
                     f"{f'unknown metadata field {rest!r}'!r})")
                return
            mask = (1 << self._meta_width[rest]) - 1
            emit(f"{pad}{name} = ({value}) & {mask}")
            return
        if root == "standard_metadata":
            if rest in _STD_FIELDS:
                emit(f"{pad}sm_{rest} = int({value})")
            else:
                emit(f"{pad}sx_{_sanitize(rest)} = int({value})")
            return
        emit(f"{pad}_raise_p4({f'cannot write to {path!r}'!r})")

    def _raise_expr(self, message: str) -> str:
        return f"_raise_p4({message!r})"

    # -- expressions ---------------------------------------------------------

    def _expr(self, expr: ir.P4Expr, params: Dict[str, str]) -> str:
        if isinstance(expr, ir.Const):
            return str(expr.value & ((1 << expr.width) - 1))
        if isinstance(expr, ir.FieldRef):
            return self._read(expr.path, params)
        if isinstance(expr, ir.ValidRef):
            local = self._valid_names.get(expr.header)
            if local is None:
                return "0"
            return f"(1 if {local} else 0)"
        if isinstance(expr, ir.UnExpr):
            op = ir.UNARY_OPS.get(expr.op)
            if op is None:
                return self._raise_expr(f"unknown unary op {expr.op!r}")
            return op.template.format(o=self._expr(expr.operand, params),
                                      m=(1 << ir.result_width(expr)) - 1)
        if isinstance(expr, ir.BinExpr):
            return self._bin(expr, params)
        return self._raise_expr(
            f"unknown expression {type(expr).__name__}")

    def _bin(self, expr: ir.BinExpr, params: Dict[str, str]) -> str:
        """The operator's :data:`~repro.p4.ir.BINARY_OPS` template over
        the operands' source (``and``/``or`` short-circuit as written)."""
        op = ir.BINARY_OPS.get(expr.op)
        if op is None:
            return self._raise_expr(f"unknown binary op {expr.op!r}")
        return op.template.format(l=self._expr(expr.left, params),
                                  r=self._expr(expr.right, params),
                                  m=(1 << expr.width) - 1, w=expr.width)

    def _cond(self, cond: ir.P4Expr, params: Dict[str, str]) -> str:
        """Emit an expression used only for its truthiness (skips the
        1/0 boxing)."""
        if isinstance(cond, ir.UnExpr) and cond.op == "!":
            return f"(not {self._cond(cond.operand, params)})"
        if isinstance(cond, ir.ValidRef):
            return self._valid_names.get(cond.header, "0")
        if isinstance(cond, ir.BinExpr):
            if cond.op in ("==", "!=", "<", "<=", ">", ">="):
                left = self._expr(cond.left, params)
                right = self._expr(cond.right, params)
                return f"({left} {cond.op} {right})"
            if cond.op == "&&":
                return (f"({self._cond(cond.left, params)} and "
                        f"{self._cond(cond.right, params)})")
            if cond.op == "||":
                return (f"({self._cond(cond.left, params)} or "
                        f"{self._cond(cond.right, params)})")
        return self._expr(cond, params)
