"""Codegen execution engine: a P4 program compiled to generated source.

The reference engine in :mod:`repro.p4.bmv2` walks the IR tree for every
packet.  This module emits one straight-line Python function per
program, ``compile()``s the source, and ``exec``s it, so the whole
parse → ingress → egress → deparse walk runs in a single stack frame
with flat local variables:

* **Metadata and standard metadata** become locals (``m3_counter``,
  ``sm_egress_spec``) instead of dict/attribute accesses.
* **Header fields** read and write through hoisted ``values`` dict
  locals; validity checks are plain attribute loads.
* **Tables** are indexed at entry-install time
  (:class:`~repro.p4.tableindex._TableIndex`); the bound payload is
  ``(action_id, args)`` and the action body is inlined at every apply
  site behind an ``if action_id == …`` dispatch that is
  specialized to the actions this program (plus any runtime-installed
  entries) can dispatch to.  Exact-match lookups inline the index's
  hash probe directly.
* **The pipelines are SSA-optimized first** (:mod:`repro.p4.ssa`) with
  the switch's *runtime* default actions as known facts, so dead
  branches and copy chains vanish from the generated source.

The pipeline is emitted exactly once: ``process_batch`` is a loop over
the same per-packet callable ``process`` is bound to.

Observability is a compile-time specialization: with the null handle
the generated source carries zero instrumentation; with a live handle
the apply/digest sites emit counters and trace events and ``process``
is swapped for the metered wrapper.

Control-plane interplay: the generated dispatch assumes a fixed action
set per table and bakes the SSA facts derived from the defaults at
build time.  ``Bmv2Switch`` notifies the engine on entry inserts and
default-action changes; the engine recompiles when an assumption no
longer covers the installed state.  Externs receive a full
:class:`~repro.p4.tableindex._FastContext` built from the flat locals and
synced back afterwards (externs may mutate fields and rebind headers;
adding *new* bind names from an extern is not supported by any engine's
deparse contract and is not resynced here).
"""

from __future__ import annotations

import copy
import re
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..net.packet import Header, Packet
from ..obs.profile import profiled
from . import ir
from .bmv2 import (DROP_PORT, DigestMessage, P4RuntimeError, StandardMetadata,
                   drop_reason)
from .tableindex import _FastContext, _TableIndex, _writable_binds

__all__ = ["CodegenEngine"]

#: StandardMetadata fields tracked as flat locals.
_STD_FIELDS = ("ingress_port", "egress_spec", "egress_port",
               "packet_length", "drop")

#: Probe instance for faithfully raising AttributeError on reads of
#: std-metadata fields that do not exist (matching the interpreter's
#: ``getattr(ctx.standard, rest)``).
_STD0 = StandardMetadata()

#: Sentinel marking a dynamically-created std-metadata attribute that
#: has not been written yet this packet.
_UNSET = object()


# ---------------------------------------------------------------------------
# Runtime helpers referenced from generated source (via globals)
# ---------------------------------------------------------------------------

def _raise_p4(message: str) -> None:
    raise P4RuntimeError(message)


def _raise_key(key: str) -> None:
    raise KeyError(key)


def _div(left: int, right: int, mask: int) -> int:
    return (left // right) & mask if right else 0


def _mod(left: int, right: int, mask: int) -> int:
    return (left % right) & mask if right else 0


def _absdiff(left: int, right: int, mask: int) -> int:
    diff = (left - right) & mask
    return min(diff, (-diff) & mask)


def _blank(htype, template) -> Header:
    header = Header.__new__(Header)
    object.__setattr__(header, "htype", htype)
    object.__setattr__(header, "values", dict(template))
    object.__setattr__(header, "valid", False)
    return header


def _pop_sr(hdrs: Dict[str, Header]) -> None:
    """PopSourceRoute over the srcRoute* slice of the bind map (same
    shift-down semantics as :func:`repro.p4.bmv2._pop_source_route`)."""
    binds = sorted(
        (b for b in hdrs if b.startswith("srcRoute") and
         b[len("srcRoute"):].isdigit()),
        key=lambda b: int(b[len("srcRoute"):]),
    )
    valid = [b for b in binds if hdrs[b].valid]
    if not valid:
        return
    for i in range(len(valid) - 1):
        hdrs[valid[i]].values.update(hdrs[valid[i + 1]].values)
    hdrs[valid[-1]].valid = False


def _sanitize(name: str) -> str:
    return re.sub(r"\W", "_", name)


class _Actx:
    """Emission context for one lexical action scope.

    ``params`` maps parameter names to source expressions; ``args_expr``
    is the source expression for the live ``action_args`` dict handed
    to externs (None when the scope provably contains no extern).
    """

    __slots__ = ("params", "args_expr")

    def __init__(self, params: Dict[str, str], args_expr: Optional[str]):
        self.params = params
        self.args_expr = args_expr


_TOP = _Actx({}, None)


class CodegenEngine:
    """One program compiled to generated Python source, for one switch.

    ``Bmv2Switch`` drives it through ``process``, ``process_batch`` and
    the control-plane hooks below; ``source`` is the generated text.
    """

    def __init__(self, program: ir.P4Program, switch):
        self.program = program
        self.switch = switch
        self._obs = switch.obs
        self._instrumented = self._obs.live
        self._action_ids: Dict[str, int] = {
            name: i for i, name in enumerate(program.actions)
        }
        self._meta_width: Dict[str, int] = dict(program.metadata)
        self._bind_types = program.bind_types()
        self.source: str = ""
        self.recompiles = -1  # first build brings it to 0
        self._build()

    # ==================================================================
    # Control-plane hooks
    # ==================================================================

    def invalidate_table(self, name: str) -> None:
        index = self.tables.get(name)
        if index is not None:
            index.invalidate()
        assumed = self._assumed.get(name)
        if assumed is not None and any(
                entry.action not in assumed
                for entry in self.switch.entries.get(name, ())):
            self._build()

    def entries_inserted(self, name: str, new_entries) -> None:
        """Bulk-insert hook: fold appended entries into the live index.

        An entry whose action the specialized source did not assume
        still forces a recompile (same rule as :meth:`invalidate_table`,
        but checking only the new entries instead of rescanning the
        whole table).
        """
        assumed = self._assumed.get(name)
        if assumed is not None and any(
                entry.action not in assumed for entry in new_entries):
            self._build()
            return
        index = self.tables.get(name)
        if index is not None and not index.fold_inserts(new_entries):
            index.invalidate()

    def entries_removed(self, name: str, removed) -> None:
        """Bulk-delete hook: deletions never widen the assumed action
        set, so only the table index needs maintenance."""
        index = self.tables.get(name)
        if index is not None and not index.fold_deletes(removed):
            index.invalidate()

    def on_default_change(self, name: str) -> None:
        current = self.switch.default_actions.get(name)
        if current is not None:
            current = (current[0], tuple(current[1]))
        if current == self._defaults_snapshot.get(name):
            return
        self._build()

    def _bind_action(self, name: str, args: Sequence[int]) -> Tuple:
        """The _TableIndex payload: a (action_id, args) pair consumed by
        the generated per-site dispatch."""
        return (self._action_ids.get(name, -1), tuple(args))

    # ==================================================================
    # Build
    # ==================================================================

    def _build(self) -> None:
        self.recompiles += 1
        with profiled(self.switch.obs.registry, "codegen"):
            ingress, egress = self._specialize()
            self._globals: Dict[str, Any] = {}
            self.tables: Dict[str, _TableIndex] = {}
            self._table_globals: Dict[str, str] = {}
            self._hoisted: Set[str] = set()
            self.source = self._emit_module(ingress, egress)
            code = compile(self.source,
                           f"<codegen:{self.program.name}>", "exec")
            exec(code, self._globals)
            self._run = self._globals["_process"]
        self.process = self._process_obs if self._instrumented else self._run

    def _specialize(self) -> Tuple[List[ir.P4Stmt], List[ir.P4Stmt]]:
        """SSA-optimize private copies of the pipelines under the
        switch's live control-plane state (runtime defaults + any
        installed entries whose actions go beyond the declaration)."""
        from .ssa import optimize_pipeline
        program = self.program
        switch = self.switch
        self._assumed = {}
        tables = dict(program.tables)
        for name, table in program.tables.items():
            base = (list(table.actions) if table.actions
                    else list(program.actions))
            extra = []
            for entry in switch.entries.get(name, ()):
                if entry.action not in base and entry.action not in extra:
                    extra.append(entry.action)
            default = switch.default_actions.get(name)
            if (default is not None and default[0] not in base
                    and default[0] not in extra):
                extra.append(default[0])
            self._assumed[name] = set(base) | set(extra)
            if extra and table.actions:
                tables[name] = ir.Table(
                    name=table.name, keys=table.keys,
                    actions=list(table.actions) + extra,
                    default_action=table.default_action, size=table.size)
        self._defaults_snapshot = {
            name: (None if value is None else (value[0], tuple(value[1])))
            for name, value in switch.default_actions.items()
        }
        clone = ir.P4Program(
            name=program.name, parser=program.parser,
            metadata=list(program.metadata), registers=program.registers,
            actions=program.actions, tables=tables,
            ingress=copy.deepcopy(program.ingress),
            egress=copy.deepcopy(program.egress),
            emit_order=program.emit_order)
        self.ssa_counts = optimize_pipeline(
            clone, defaults=dict(switch.default_actions))
        return clone.ingress, clone.egress

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

    def _emit_module(self, ingress: List[ir.P4Stmt],
                     egress: List[ir.P4Stmt]) -> str:
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
        self._reg_names = {}
        for i, reg in enumerate(program.registers):
            gname = self._g(f"RG{i}_{_sanitize(reg.name)}",
                            switch.registers[reg.name])
            self._reg_names[reg.name] = gname
        # Baseline globals.
        self._g("SW", switch)
        self._g("PROG", program)
        self._g("MW", self._meta_width)
        self._g("_SM", StandardMetadata)
        self._g("_CTX", _FastContext)
        self._g("_DM", DigestMessage)
        self._g("_os", object.__setattr__)
        self._g("_blank", _blank)
        self._g("_pop_sr", _pop_sr)
        self._g("_raise_p4", _raise_p4)
        self._g("_raise_key", _raise_key)
        self._g("_div", _div)
        self._g("_mod", _mod)
        self._g("_absdiff", _absdiff)
        self._g("_STD0", _STD0)
        self._g("_UNSET", _UNSET)
        if self._instrumented:
            self._g("TR", self._obs.tracer)
        # Usage scans over pipelines + every program action (superset of
        # anything the dispatch can inline).
        bodies = [ingress, egress]
        bodies.extend(action.body for action in program.actions.values())
        all_stmts = [s for body in bodies for s in ir.walk_stmts(body)]
        self._has_extern = any(isinstance(s, ir.ExternCall) and s.fn is not None
                               for s in all_stmts)
        self._top_extern = any(
            isinstance(s, ir.ExternCall) and s.fn is not None
            for body in (ingress, egress) for s in ir.walk_stmts(body))
        self._used_meta = self._scan_meta(all_stmts)
        self._hoisted = self._scan_hdr_binds(all_stmts)
        self._dyn_std = self._scan_dyn_std(all_stmts)
        self._writable = _writable_binds(program, self._bind_types)
        # Per-bind copy-on-extract: when the program provably mutates
        # only a known set of binds (no raw extern context access, no
        # source-route pop rewriting headers in place), the packet shell
        # is cloned with copy_shared() and only writable binds are
        # copied at their extraction site — untouched headers ride
        # through shared.
        has_pop = any(isinstance(s, ir.PopSourceRoute) for s in all_stmts)
        self._cow = (not switch._share_headers and not self._has_extern
                     and not has_pop)
        # packet_length is only materialized when something touches it.
        all_paths = [p for s in all_stmts for p in self._paths_of(s)]
        for state in program.parser.states:
            for tr in state.transitions:
                if tr.field_path is not None:
                    all_paths.append(tr.field_path)
        self._needs_length = (self._has_extern or
                              "standard_metadata.packet_length" in all_paths)

        lines: List[str] = [
            f"# generated by repro.p4.codegen for program "
            f"{program.name!r} (switch {switch.name!r})",
            "",
            "def _process(packet, ingress_port):",
        ]
        self._site = 0
        self._emit_pipeline(lines, ingress, egress)
        lines.append("")
        return "\n".join(lines)

    # -- usage scans ---------------------------------------------------------

    def _paths_of(self, stmt: ir.P4Stmt) -> List[str]:
        paths: List[str] = []
        exprs: List[ir.P4Expr] = []
        if isinstance(stmt, ir.AssignStmt):
            paths.append(stmt.dest)
            exprs.append(stmt.value)
        elif isinstance(stmt, ir.IfStmt):
            exprs.append(stmt.cond)
        elif isinstance(stmt, ir.RegisterRead):
            paths.append(stmt.dest)
            exprs.append(stmt.index)
        elif isinstance(stmt, ir.RegisterWrite):
            exprs.extend((stmt.index, stmt.value))
        elif isinstance(stmt, ir.Digest):
            exprs.extend(stmt.fields)
        elif isinstance(stmt, ir.ApplyTable):
            table = self.program.tables.get(stmt.table)
            if table is not None:
                paths.extend(k.path for k in table.keys)
        for expr in exprs:
            for sub in ir.walk_exprs(expr):
                if isinstance(sub, ir.FieldRef):
                    paths.append(sub.path)
        return paths

    def _scan_meta(self, stmts: Sequence[ir.P4Stmt]) -> Set[str]:
        if self._has_extern:
            return set(self._meta_width)  # extern sync needs the full dict
        used: Set[str] = set()
        paths = [p for s in stmts for p in self._paths_of(s)]
        for state in self.program.parser.states:
            for tr in state.transitions:
                if tr.field_path is not None:
                    paths.append(tr.field_path)
        for path in paths:
            root, _, rest = path.partition(".")
            if root == "meta" and rest in self._meta_width:
                used.add(rest)
        return used

    def _scan_hdr_binds(self, stmts: Sequence[ir.P4Stmt]) -> Set[str]:
        """Binds whose values dict gets a hoisted local (field access
        outside the parser)."""
        binds: Set[str] = set()
        for stmt in stmts:
            for path in self._paths_of(stmt):
                root, _, rest = path.partition(".")
                if root == "hdr":
                    bind = rest.partition(".")[0]
                    if bind in self._bind_types:
                        binds.add(bind)
        return binds

    def _scan_dyn_std(self, stmts: Sequence[ir.P4Stmt]) -> Set[str]:
        """Std-metadata fields outside the dataclass that the program
        *writes* (the interpreter's setattr creates them dynamically)."""
        written: Set[str] = set()
        for stmt in stmts:
            dest = getattr(stmt, "dest", None)
            if isinstance(stmt, (ir.AssignStmt, ir.RegisterRead)) and dest:
                root, _, rest = dest.partition(".")
                if root == "standard_metadata" and rest not in _STD_FIELDS:
                    written.add(rest)
        return written

    # -- pipeline body -------------------------------------------------------

    def _emit_pipeline(self, lines: List[str],
                       ingress: List[ir.P4Stmt],
                       egress: List[ir.P4Stmt]) -> None:
        """The body of ``_process``: one packet, parse to deparse."""
        ind = 1
        pad = "    " * ind
        emit = lines.append
        emit(f"{pad}SW.packets_processed += 1")
        copy_call = ("packet.copy_shared()"
                     if self.switch._share_headers or self._cow
                     else "packet.copy()")
        emit(f"{pad}work = {copy_call}")
        emit(f"{pad}sm_ingress_port = ingress_port")
        emit(f"{pad}sm_egress_spec = 0")
        emit(f"{pad}sm_egress_port = 0")
        if self._needs_length:
            emit(f"{pad}sm_packet_length = work.length")
        emit(f"{pad}sm_drop = False")
        for name in self._dyn_std:
            emit(f"{pad}sx_{_sanitize(name)} = _UNSET")
        for name in self._meta_names:
            if name in self._used_meta:
                emit(f"{pad}{self._meta_names[name]} = 0")
        if self._top_extern:
            emit(f"{pad}_pa0 = {{}}")
        self._emit_parser(lines, ind)
        for bind in self._bind_types:
            if bind in self._hoisted:
                emit(f"{pad}{self._vals_names[bind]} = "
                     f"{self._bind_names[bind]}.values")
        self._emit_body(ingress, lines, ind, _TOP)
        emit(f"{pad}if sm_drop or sm_egress_spec == {DROP_PORT}:")
        emit(f"{pad}    SW.packets_dropped += 1")
        emit(f"{pad}    return []")
        emit(f"{pad}sm_egress_port = sm_egress_spec")
        self._emit_body(egress, lines, ind, _TOP)
        emit(f"{pad}if sm_drop:")
        emit(f"{pad}    SW.packets_dropped += 1")
        emit(f"{pad}    return []")
        emit(f"{pad}_emit = []")
        order = self.program.emit_order or list(self._bind_types)
        for bind in order:
            local = self._bind_names.get(bind)
            if local is None:
                continue  # emit_order naming a bind the parser never makes
            emit(f"{pad}if {local}.valid:")
            emit(f"{pad}    _emit.append({local})")
        emit(f"{pad}_emit.extend(_tail)")
        emit(f"{pad}work.headers = _emit")
        emit(f"{pad}return [(sm_egress_port, work)]")

    # -- parser --------------------------------------------------------------

    def _emit_parser(self, lines: List[str], ind: int) -> None:
        pad = "    " * ind
        emit = lines.append
        parser = self.program.parser
        writable = self._writable
        for i, (bind, htype) in enumerate(self._bind_types.items()):
            local = self._bind_names[bind]
            template = {f.name: 0 for f in htype.fields}
            ht = self._g(f"HT{i}_{_sanitize(bind)}", htype)
            if bind in writable:
                tpl = self._g(f"TPL{i}_{_sanitize(bind)}", template)
                emit(f"{pad}{local} = _blank({ht}, {tpl})")
            else:
                shared = self._g(f"SH{i}_{_sanitize(bind)}",
                                 _blank(htype, template))
                emit(f"{pad}{local} = {shared}")
        emit(f"{pad}_hdrs = work.headers")
        emit(f"{pad}_nh = len(_hdrs)")
        emit(f"{pad}_cur = 0")
        states = {state.name: i for i, state in enumerate(parser.states)}
        start = parser.start
        if start in (ir.ACCEPT, ir.REJECT_STATE):
            emit(f"{pad}_tail = _hdrs[_cur:]")
            return
        if start not in states:
            emit(f"{pad}_raise_key({('no parser state ' + repr(start))!r})")
            emit(f"{pad}_tail = _hdrs[_cur:]")
            return
        emit(f"{pad}_st = {states[start]}")
        emit(f"{pad}_guard = 0")
        emit(f"{pad}while True:")
        body = "    " * (ind + 1)
        emit(f"{body}_guard += 1")
        emit(f"{body}if _guard > 64:")
        emit(f"{body}    _raise_p4('parser did not terminate')")
        for idx, state in enumerate(parser.states):
            kw = "if" if idx == 0 else "elif"
            emit(f"{body}{kw} _st == {states[state.name]}:")
            inner = ind + 2
            self._emit_state(state, states, lines, inner)
        emit(f"{body}else:")
        emit(f"{body}    break")
        emit(f"{pad}_tail = _hdrs[_cur:]")

    def _emit_state(self, state: ir.ParserState, states: Dict[str, int],
                    lines: List[str], ind: int) -> None:
        pad = "    " * ind
        emit = lines.append
        for ex in state.extracts:
            if isinstance(ex, ir.Extract):
                local = self._bind_names[ex.bind]
                ht = self._g(
                    f"HT{list(self._bind_types).index(ex.bind)}_"
                    f"{_sanitize(ex.bind)}", ex.htype)
                emit(f"{pad}if _cur >= _nh or _hdrs[_cur].htype is not {ht}:")
                emit(f"{pad}    break")
                if self._cow and ex.bind in self._writable:
                    emit(f"{pad}{local} = _hdrs[_cur].copy()")
                    emit(f"{pad}_hdrs[_cur] = {local}")
                else:
                    emit(f"{pad}{local} = _hdrs[_cur]")
                emit(f"{pad}_cur += 1")
            else:  # ExtractStack
                slot0 = f"{ex.bind}0"
                ht = self._g(
                    f"HT{list(self._bind_types).index(slot0)}_"
                    f"{_sanitize(slot0)}", ex.htype)
                emit(f"{pad}_depth = 0")
                emit(f"{pad}while _depth < {ex.max_depth} and _cur < _nh "
                     f"and _hdrs[_cur].htype is {ht}:")
                inner = pad + "    "
                emit(f"{inner}_hx = _hdrs[_cur]")
                for depth in range(ex.max_depth):
                    kw = "if" if depth == 0 else "elif"
                    local = self._bind_names[f"{ex.bind}{depth}"]
                    emit(f"{inner}{kw} _depth == {depth}:")
                    if self._cow and f"{ex.bind}{depth}" in self._writable:
                        emit(f"{inner}    {local} = _hx.copy()")
                        emit(f"{inner}    _hdrs[_cur] = {local}")
                    else:
                        emit(f"{inner}    {local} = _hx")
                emit(f"{inner}_stop = _hx.values[{ex.loop_field!r}] != 0")
                emit(f"{inner}_cur += 1")
                emit(f"{inner}_depth += 1")
                emit(f"{inner}if _stop:")
                emit(f"{inner}    break")
        default = ir.ACCEPT
        for tr in state.transitions:
            if tr.field_path is None:
                default = tr.next_state
            else:
                read = self._read(tr.field_path, _TOP, hoisted=False)
                emit(f"{pad}if {read} == {tr.value!r}:")
                self._emit_goto(tr.next_state, states, lines, ind + 1)
        self._emit_goto(default, states, lines, ind)

    def _emit_goto(self, target: str, states: Dict[str, int],
                   lines: List[str], ind: int) -> None:
        pad = "    " * ind
        if target in (ir.ACCEPT, ir.REJECT_STATE):
            lines.append(f"{pad}break")
        elif target in states:
            lines.append(f"{pad}_st = {states[target]}")
            lines.append(f"{pad}continue")
        else:
            lines.append(
                f"{pad}_raise_key({('no parser state ' + repr(target))!r})")

    # -- statements ----------------------------------------------------------

    def _emit_body(self, stmts: Sequence[ir.P4Stmt], lines: List[str],
                   ind: int, actx: _Actx) -> None:
        if not stmts:
            lines.append("    " * ind + "pass")
            return
        for stmt in stmts:
            self._emit_stmt(stmt, lines, ind, actx)

    def _emit_stmt(self, stmt: ir.P4Stmt, lines: List[str], ind: int,
                   actx: _Actx) -> None:
        pad = "    " * ind
        emit = lines.append
        if isinstance(stmt, ir.AssignStmt):
            self._emit_write(stmt.dest, self._expr(stmt.value, actx),
                             lines, ind)
        elif isinstance(stmt, ir.IfStmt):
            emit(f"{pad}if {self._cond(stmt.cond, actx)}:")
            self._emit_body(stmt.then_body, lines, ind + 1, actx)
            if stmt.else_body:
                emit(f"{pad}else:")
                self._emit_body(stmt.else_body, lines, ind + 1, actx)
        elif isinstance(stmt, ir.ApplyTable):
            self._emit_apply(stmt, lines, ind, actx)
        elif isinstance(stmt, ir.RegisterRead):
            emit(f"{pad}_ri = {self._expr(stmt.index, actx)}")
            reg = self._reg_names.get(stmt.register)
            if reg is None:
                emit(f"{pad}_raise_key({stmt.register!r})")
                return
            size = len(self.switch.registers[stmt.register])
            self._emit_write(stmt.dest,
                             f"({reg}[_ri] if 0 <= _ri < {size} else 0)",
                             lines, ind)
        elif isinstance(stmt, ir.RegisterWrite):
            emit(f"{pad}_ri = {self._expr(stmt.index, actx)}")
            reg = self._reg_names.get(stmt.register)
            if reg is None:
                emit(f"{pad}_raise_key({stmt.register!r})")
                return
            size = len(self.switch.registers[stmt.register])
            mask = (1 << self.switch._register_width[stmt.register]) - 1
            emit(f"{pad}if 0 <= _ri < {size}:")
            emit(f"{pad}    {reg}[_ri] = "
                 f"({self._expr(stmt.value, actx)}) & {mask}")
        elif isinstance(stmt, ir.Digest):
            values = ", ".join(self._expr(e, actx) for e in stmt.fields)
            emit(f"{pad}_dg = _DM(name={stmt.name!r}, values=[{values}], "
                 f"switch_name=SW.name)")
            emit(f"{pad}SW.digests.append(_dg)")
            if self._instrumented:
                emit(f"{pad}if TR.live:")
                emit(f"{pad}    TR.emit('digest', node=SW.name, "
                     f"packet_id=work.packet_id, digest={stmt.name!r})")
            emit(f"{pad}for _ls in SW.digest_listeners:")
            emit(f"{pad}    _ls(_dg)")
        elif isinstance(stmt, ir.SetValid):
            local = self._bind_names.get(stmt.header)
            if local is None:
                emit(f"{pad}_raise_p4("
                     f"{f'setValid on unknown header {stmt.header!r}'!r})")
            else:
                emit(f"{pad}_os({local}, 'valid', True)")
        elif isinstance(stmt, ir.SetInvalid):
            local = self._bind_names.get(stmt.header)
            if local is None:
                emit(f"{pad}_raise_p4("
                     f"{f'setInvalid on unknown header {stmt.header!r}'!r})")
            else:
                emit(f"{pad}_os({local}, 'valid', False)")
        elif isinstance(stmt, ir.MarkToDrop):
            emit(f"{pad}sm_drop = True")
        elif isinstance(stmt, ir.PopSourceRoute):
            sr_binds = [b for b in self._bind_types
                        if b.startswith("srcRoute")
                        and b[len("srcRoute"):].isdigit()]
            if sr_binds:
                entries = ", ".join(f"{b!r}: {self._bind_names[b]}"
                                    for b in sr_binds)
                emit(f"{pad}_pop_sr({{{entries}}})")
        elif isinstance(stmt, ir.ExternCall):
            if stmt.fn is not None:
                self._emit_extern(stmt, lines, ind, actx)
        else:
            emit(f"{pad}_raise_p4("
                 f"{f'unknown statement {type(stmt).__name__}'!r})")

    def _emit_apply(self, stmt: ir.ApplyTable, lines: List[str], ind: int,
                    actx: _Actx) -> None:
        pad = "    " * ind
        emit = lines.append
        table = self.program.tables.get(stmt.table)
        if table is None:
            emit(f"{pad}_raise_p4({f'unknown table {stmt.table!r}'!r})")
            return
        site = self._site
        self._site += 1
        gname, index = self._table_global(stmt.table)
        key = ", ".join(self._read(k.path, actx) for k in table.keys)
        key_tuple = f"({key},)" if len(table.keys) == 1 else f"({key})"
        if index._mode == "exact":
            emit(f"{pad}if {gname}._dirty:")
            emit(f"{pad}    {gname}._rebuild()")
            emit(f"{pad}_b{site} = {gname}._exact_map.get({key_tuple})")
        else:
            emit(f"{pad}_b{site} = {gname}.lookup({key_tuple})")
        emit(f"{pad}_h{site} = _b{site} is not None")
        # The default binding is baked in: it only changes through
        # set_default_action, whose hook recompiles this module.
        db = self._g(f"DB{site}", index.default_bound())
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
                 f"packet_id=work.packet_id, table={stmt.table!r}, "
                 f"result='hit')")
            emit(f"{pad}else:")
            emit(f"{pad}    {mc}.inc()")
            emit(f"{pad}    if TR.live:")
            emit(f"{pad}        TR.emit('apply', node=SW.name, "
                 f"packet_id=work.packet_id, table={stmt.table!r}, "
                 f"result='miss')")
            emit(f"{pad}    _b{site} = {db}")
        else:
            emit(f"{pad}if not _h{site}:")
            emit(f"{pad}    _b{site} = {db}")
        assumed = [name for name in self.program.actions
                   if name in self._assumed.get(stmt.table, ())]
        if assumed:
            emit(f"{pad}if _b{site} is not None:")
            inner = pad + "    "
            emit(f"{inner}_a{site}, _aa{site} = _b{site}")
            for j, name in enumerate(assumed):
                kw = "if" if j == 0 else "elif"
                emit(f"{inner}{kw} _a{site} == {self._action_ids[name]}:")
                self._emit_action_inline(site, self.program.actions[name],
                                         lines, ind + 2)
            emit(f"{inner}else:")
            emit(f"{inner}    _raise_p4('codegen dispatch missed an action; "
                 f"control-plane hook failed to recompile')")
        if stmt.hit_body or stmt.miss_body:
            emit(f"{pad}if _h{site}:")
            self._emit_body(stmt.hit_body, lines, ind + 1, actx)
            if stmt.miss_body:
                emit(f"{pad}else:")
                self._emit_body(stmt.miss_body, lines, ind + 1, actx)

    def _emit_action_inline(self, site: int, action: ir.Action,
                            lines: List[str], ind: int) -> None:
        pad = "    " * ind
        has_extern = any(
            isinstance(s, ir.ExternCall) and s.fn is not None
            for s in ir.walk_stmts(action.body))
        if has_extern:
            entries = ", ".join(f"{p!r}: _aa{site}[{i}]"
                                for i, (p, _) in enumerate(action.params))
            lines.append(f"{pad}_pa{site} = {{{entries}}}")
            params = {p: f"_pa{site}[{p!r}]" for p, _ in action.params}
            actx = _Actx(params, f"_pa{site}")
        else:
            params = {p: f"_aa{site}[{i}]"
                      for i, (p, _) in enumerate(action.params)}
            actx = _Actx(params, None)
        self._emit_body(action.body, lines, ind, actx)

    def _emit_extern(self, stmt: ir.ExternCall, lines: List[str], ind: int,
                     actx: _Actx) -> None:
        pad = "    " * ind
        emit = lines.append
        fn = self._g(f"EX{self._site}", stmt.fn)
        self._site += 1
        emit(f"{pad}_std = _SM(ingress_port=sm_ingress_port, "
             f"egress_spec=sm_egress_spec, egress_port=sm_egress_port, "
             f"packet_length=sm_packet_length, drop=sm_drop)")
        meta_entries = ", ".join(
            f"{name!r}: {self._meta_names[name]}"
            for name in self._meta_names if name in self._used_meta)
        emit(f"{pad}_meta = {{{meta_entries}}}")
        emit(f"{pad}_ctx = _CTX(PROG, work, _std, _meta, MW)")
        hdr_entries = ", ".join(f"{b!r}: {self._bind_names[b]}"
                                for b in self._bind_types)
        emit(f"{pad}_ctx.hdr = {{{hdr_entries}}}")
        emit(f"{pad}_ctx.tail = _tail")
        args_expr = actx.args_expr or ("_pa0" if self._top_extern else "{}")
        emit(f"{pad}_ctx.action_args = {args_expr}")
        emit(f"{pad}{fn}(_ctx)")
        # Sync the flat locals back from the context.
        emit(f"{pad}sm_ingress_port = _std.ingress_port")
        emit(f"{pad}sm_egress_spec = _std.egress_spec")
        emit(f"{pad}sm_egress_port = _std.egress_port")
        emit(f"{pad}sm_packet_length = _std.packet_length")
        emit(f"{pad}sm_drop = _std.drop")
        for name in self._meta_names:
            if name in self._used_meta:
                emit(f"{pad}{self._meta_names[name]} = _meta[{name!r}]")
        for bind in self._bind_types:
            emit(f"{pad}{self._bind_names[bind]} = _ctx.hdr[{bind!r}]")
            if bind in self._hoisted:
                emit(f"{pad}{self._vals_names[bind]} = "
                     f"{self._bind_names[bind]}.values")
        emit(f"{pad}_tail = _ctx.tail")
        if actx.args_expr is not None:
            emit(f"{pad}{actx.args_expr} = _ctx.action_args")

    # -- field access --------------------------------------------------------

    def _read(self, path: str, actx: _Actx, hoisted: bool = True) -> str:
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            local = self._bind_names.get(bind)
            if local is None:
                return "0"  # unknown bind reads as invalid: 0
            if hoisted and bind in self._hoisted:
                values = self._vals_names[bind]
            else:
                values = f"{local}.values"
            return f"({values}[{fname!r}] if {local}.valid else 0)"
        if root == "meta":
            name = self._meta_names.get(rest)
            if name is None:
                return self._raise_expr(f"unknown metadata field {rest!r}")
            return name
        if root == "standard_metadata":
            if rest == "drop":
                return "(1 if sm_drop else 0)"
            if rest in _STD_FIELDS:
                return f"sm_{rest}"
            if rest in self._dyn_std:
                local = f"sx_{_sanitize(rest)}"
                return (f"(int(getattr(_STD0, {rest!r})) "
                        f"if {local} is _UNSET else {local})")
            return f"int(getattr(_STD0, {rest!r}))"
        if root == "param":
            expr = actx.params.get(rest)
            if expr is None:
                return self._raise_expr(
                    f"unbound action parameter {rest!r}")
            return expr
        return self._raise_expr(f"bad field path {path!r}")

    def _emit_write(self, path: str, value: str, lines: List[str],
                    ind: int) -> None:
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
            if bind in self._hoisted:
                values = self._vals_names[bind]
            else:
                values = f"{self._bind_names[bind]}.values"
            emit(f"{pad}{values}[{fname!r}] = ({value}) & {mask}")
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

    def _expr(self, expr: ir.P4Expr, actx: _Actx) -> str:
        if isinstance(expr, ir.Const):
            return str(expr.value & ((1 << expr.width) - 1))
        if isinstance(expr, ir.FieldRef):
            return self._read(expr.path, actx)
        if isinstance(expr, ir.ValidRef):
            local = self._bind_names.get(expr.header)
            if local is None:
                return "0"
            return f"(1 if {local}.valid else 0)"
        if isinstance(expr, ir.UnExpr):
            operand = self._expr(expr.operand, actx)
            if expr.op == "!":
                return f"(0 if {operand} else 1)"
            mask = (1 << ir.unexpr_width(expr)) - 1
            if expr.op == "~":
                return f"(~{operand} & {mask})"
            if expr.op == "-":
                return f"(-{operand} & {mask})"
            return self._raise_expr(f"unknown unary op {expr.op!r}")
        if isinstance(expr, ir.BinExpr):
            return self._bin(expr, actx)
        return self._raise_expr(
            f"unknown expression {type(expr).__name__}")

    def _bin(self, expr: ir.BinExpr, actx: _Actx) -> str:
        op = expr.op
        left = self._expr(expr.left, actx)
        right = self._expr(expr.right, actx)
        if op == "&&":
            return f"(1 if {left} and {right} else 0)"
        if op == "||":
            return f"(1 if {left} or {right} else 0)"
        mask = (1 << expr.width) - 1
        if op in ("+", "-", "*", "&", "|", "^"):
            return f"(({left} {op} {right}) & {mask})"
        if op == "/":
            return f"_div({left}, {right}, {mask})"
        if op == "%":
            return f"_mod({left}, {right}, {mask})"
        if op in ("<<", ">>"):
            return f"(({left} {op} ({right} % {expr.width})) & {mask})"
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return f"(1 if {left} {op} {right} else 0)"
        if op == "absdiff":
            return f"_absdiff({left}, {right}, {mask})"
        if op in ("min", "max"):
            return f"{op}({left}, {right})"
        return self._raise_expr(f"unknown binary op {op!r}")

    def _cond(self, cond: ir.P4Expr, actx: _Actx) -> str:
        """Emit an expression used only for its truthiness (skips the
        1/0 boxing)."""
        if isinstance(cond, ir.UnExpr) and cond.op == "!":
            return f"(not {self._cond(cond.operand, actx)})"
        if isinstance(cond, ir.BinExpr):
            if cond.op in ("==", "!=", "<", "<=", ">", ">="):
                left = self._expr(cond.left, actx)
                right = self._expr(cond.right, actx)
                return f"({left} {cond.op} {right})"
            if cond.op == "&&":
                return (f"({self._cond(cond.left, actx)} and "
                        f"{self._cond(cond.right, actx)})")
            if cond.op == "||":
                return (f"({self._cond(cond.left, actx)} or "
                        f"{self._cond(cond.right, actx)})")
        return self._expr(cond, actx)

    # ==================================================================
    # Packet entry points (``process`` is bound per build in _build)
    # ==================================================================

    def _process_obs(self, packet: Packet,
                     ingress_port: int) -> List[Tuple[int, Packet]]:
        switch = self.switch
        tracer = self._obs.tracer
        if tracer.live:
            tracer.emit("parse", node=switch.name,
                        packet_id=packet.packet_id, port=ingress_port,
                        packet=packet, packet_length=packet.length)
        switch._m_packets.labels(switch.name, ingress_port).inc()
        start = time.perf_counter_ns()
        outputs = self._run(packet, ingress_port)
        switch._m_ns.observe(time.perf_counter_ns() - start)
        if not outputs:
            reason = drop_reason(packet)
            switch._m_dropped.labels(switch.name, reason).inc()
            if tracer.live:
                tracer.emit("drop", node=switch.name,
                            packet_id=packet.packet_id, reason=reason)
        elif tracer.live:
            for egress_port, out_packet in outputs:
                tracer.emit("deparse", node=switch.name,
                            packet_id=out_packet.packet_id,
                            port=egress_port, egress_port=egress_port)
        return outputs

    def process_batch(self, items) -> List[List[Tuple[int, Packet]]]:
        # ``self.process`` is read per packet: a digest listener may make
        # a control-plane change mid-batch that rebuilds and rebinds it.
        return [self.process(packet, port) for packet, port in items]
