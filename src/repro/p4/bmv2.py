"""Behavioral model for the P4 IR — the repository's stand-in for bmv2.

:class:`Bmv2Switch` executes a :class:`~repro.p4.ir.P4Program` on packets:
parse → ingress → egress → deparse, with match-action tables, registers,
and digests, and exposes a P4Runtime-like control API (table entry
insert/delete, register access, digest subscription).

Two execution engines share this front door (``engine=`` on the
constructor, one of :data:`ENGINES`): the tree-walking interpreter in
this module is the reference semantics, and :mod:`repro.p4.codegen`
compiles the program to generated Python source for roughly an order of
magnitude more packets/sec.  The differential suite
(``tests/test_engine_differential.py``) pins the two to identical
observable behavior.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..net.packet import Header, Packet
from ..obs import NULL_OBS, Observability
from ..obs.metrics import DEFAULT_NS_BUCKETS
from . import ir
from .ir import P4RuntimeError

DROP_PORT = 511

#: Every accepted ``engine=`` value: the readable reference and the
#: compiled engine it is checked against.  The one place that knows.
ENGINES = ("interp", "codegen")

#: Default ring size for bounded message logs (digests, network reports).
#: Large enough that tests and short replays see every message; long
#: replays keep memory flat while ``total`` keeps counting.
DEFAULT_LOG_CAPACITY = 4096


class BoundedLog:
    """An append-only message log with a bounded ring of recent entries.

    Looks like a list for the common read patterns (``len``, iteration,
    indexing, slicing, ``==`` against a list) but only retains the last
    ``capacity`` entries; ``total`` counts every append ever made and
    ``dropped`` says how many fell off the front.  ``on_evict``, when
    given, is called with the count of entries just rotated out — the
    observability plane uses it to surface silent evictions as
    ``log_evictions_total``.

    ``append(x)`` is ``push(x); account(1)``; a hot loop calls ``push``
    (the ring's own C-level append) per entry and ``account(n)`` once.
    """

    __slots__ = ("capacity", "total", "push", "_ring", "_on_evict")

    def __init__(self, capacity: int = DEFAULT_LOG_CAPACITY,
                 on_evict: Optional[Callable[[int], None]] = None):
        if capacity <= 0:
            raise ValueError("log capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self._ring: deque = deque(maxlen=capacity)
        self.push: Callable[[Any], None] = self._ring.append
        self._on_evict = on_evict

    @property
    def dropped(self) -> int:
        return self.total - len(self._ring)

    def account(self, count: int) -> None:
        """Settle ``count`` pushes.  Only ``clear`` shrinks the ring, so
        a settled log has dropped ``max(total - capacity, 0)`` entries."""
        before = self.total
        self.total = total = before + count
        if self._on_evict is not None and count and total > self.capacity:
            self._on_evict(total - max(before, self.capacity))

    def append(self, item: Any) -> None:
        self.push(item)
        self.account(1)

    def clear(self) -> None:
        self.total = 0
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._ring)

    def __getitem__(self, key: Union[int, slice]) -> Any:
        if isinstance(key, slice):
            return list(self._ring)[key]
        return self._ring[key]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, BoundedLog):
            return list(self._ring) == list(other._ring)
        if isinstance(other, list):
            return list(self._ring) == other
        return NotImplemented

    def __repr__(self) -> str:
        return (f"BoundedLog({list(self._ring)!r}, total={self.total}, "
                f"evicted={self.dropped}, capacity={self.capacity})")


@dataclass
class StandardMetadata:
    ingress_port: int = 0
    egress_spec: int = 0
    egress_port: int = 0
    packet_length: int = 0
    drop: bool = False


@dataclass
class DigestMessage:
    """A digest delivered to the control plane."""

    name: str
    values: List[int]
    switch_name: str = ""


class PacketContext:
    """Execution context for one packet traversing the pipeline."""

    def __init__(self, program: ir.P4Program, packet: Packet,
                 standard: StandardMetadata):
        self.program = program
        self.packet = packet
        self.standard = standard
        self.hdr: Dict[str, Header] = {}
        self.tail: List[Header] = []
        self.meta: Dict[str, int] = {name: 0 for name, _ in program.metadata}
        self._meta_width = dict(program.metadata)
        self.action_args: Dict[str, int] = {}

    # -- field access ------------------------------------------------------

    def read(self, path: str) -> int:
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            header = self.hdr.get(bind)
            if header is None or not header.valid:
                return 0  # reading an invalid header yields 0 (bmv2-like)
            return header.get(fname)
        if root == "meta":
            if rest not in self.meta:
                raise P4RuntimeError(f"unknown metadata field {rest!r}")
            return self.meta[rest]
        if root == "standard_metadata":
            return int(getattr(self.standard, rest))
        if root == "param":
            if rest not in self.action_args:
                raise P4RuntimeError(f"unbound action parameter {rest!r}")
            return self.action_args[rest]
        raise P4RuntimeError(f"bad field path {path!r}")

    def write(self, path: str, value: int) -> None:
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            header = self.hdr.get(bind)
            if header is None:
                raise P4RuntimeError(f"write to unbound header {bind!r}")
            header.set(fname, value)
            return
        if root == "meta":
            if rest not in self.meta:
                raise P4RuntimeError(f"unknown metadata field {rest!r}")
            width = self._meta_width[rest]
            self.meta[rest] = int(value) & ((1 << width) - 1)
            return
        if root == "standard_metadata":
            setattr(self.standard, rest, int(value))
            return
        raise P4RuntimeError(f"cannot write to {path!r}")

    def is_valid(self, bind: str) -> bool:
        header = self.hdr.get(bind)
        return header is not None and header.valid


def _pop_source_route(hdr: Dict[str, Header]) -> None:
    """Shift the source-route stack down by one slot (both engines):
    over the ``srcRoute<i>`` binds of ``hdr``, each valid slot takes the
    next one's values and the last valid slot becomes invalid."""
    binds = sorted(
        (b for b in hdr if b.startswith("srcRoute") and
         b[len("srcRoute"):].isdigit()),
        key=lambda b: int(b[len("srcRoute"):]),
    )
    valid = [b for b in binds if hdr[b].valid]
    if not valid:
        return
    for i in range(len(valid) - 1):
        hdr[valid[i]].values.update(hdr[valid[i + 1]].values)
    hdr[valid[-1]].valid = False


def drop_reason(packet: Packet) -> str:
    """Classify a pipeline drop for the observability plane.

    A heuristic label, not ground truth: a packet whose IPv4 TTL is
    exhausted on arrival is tagged ``ttl``; every other pipeline
    decision (table default drop, missing route entry, checker reject)
    is ``pipeline``.
    """
    ipv4 = packet.find("ipv4")
    if ipv4 is not None and ipv4.valid and ipv4.get("ttl") <= 1:
        return "ttl"
    return "pipeline"


class Bmv2Switch:
    """Executes a P4 program; holds runtime table/register state.

    ``engine`` selects how packets are executed: ``"codegen"`` (default)
    compiles the program once to generated Python source with indexed
    table lookup (:mod:`repro.p4.codegen`); ``"interp"`` walks the IR
    tree per packet and serves as the reference semantics.

    ``obs`` attaches the observability plane (:mod:`repro.obs`); the
    default :data:`~repro.obs.NULL_OBS` keeps packet processing exactly
    as cheap as an uninstrumented switch.
    """

    def __init__(self, program: ir.P4Program, name: str = "s1",
                 switch_id: int = 0, engine: str = "codegen",
                 digest_capacity: int = DEFAULT_LOG_CAPACITY,
                 obs: Optional[Observability] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} "
                             f"(expected one of {ENGINES})")
        ir.check_externs(program)
        self.program = program
        self.name = name
        self.switch_id = switch_id
        self.engine = engine
        self.entries: Dict[str, List[ir.TableEntry]] = {
            t: [] for t in program.tables
        }
        self.registers: Dict[str, List[int]] = {
            reg.name: [0] * reg.size for reg in program.registers
        }
        self._register_width: Dict[str, int] = {
            reg.name: reg.width for reg in program.registers
        }
        # Per-switch default actions.  The ir.Table declaration is shared
        # by every switch running this program, so runtime default-action
        # state must live here, seeded from the program's static defaults.
        self.default_actions: Dict[str, Optional[Tuple[str, List[int]]]] = {
            name: (None if table.default_action is None
                   else (table.default_action[0],
                         list(table.default_action[1])))
            for name, table in program.tables.items()
        }
        self.digest_listeners: List[Callable[[DigestMessage], None]] = []
        # Control-plane change listeners: invoked after any table or
        # register mutation through this API (the batched network uses
        # this to flush cached transit records).
        self.config_listeners: List[Callable[[str], None]] = []
        self.digests = BoundedLog(digest_capacity,
                                  on_evict=self._on_digest_evict)
        # Statistics for the evaluation harness.
        self.packets_processed = 0
        self.packets_dropped = 0
        # Copy elision for the interpreter: a program that provably never
        # mutates headers can run on a packet shell sharing the original
        # Header instances (the codegen engine copies on first write).
        self._share_headers = not ir.mutates_headers(program)
        self.obs = NULL_OBS
        self._obs_live = False
        if obs is not None:
            self._bind_observability(obs)
        self._engine = None
        if engine == "codegen":
            from .codegen import CodegenEngine  # deferred: codegen imports us
            self._engine = CodegenEngine(program, self)

    # ==================================================================
    # Observability
    # ==================================================================

    def _bind_observability(self, obs: Observability) -> None:
        self.obs = obs
        self._obs_live = obs.live
        if not self._obs_live:
            return
        registry = obs.registry
        self._m_packets = registry.counter(
            "switch_packets_total", "packets entering a pipeline",
            labels=("switch", "port"))
        self._m_dropped = registry.counter(
            "switch_packets_dropped_total",
            "packets discarded by a pipeline",
            labels=("switch", "reason"))
        self._m_table = registry.counter(
            "table_lookups_total", "table applies by outcome",
            labels=("switch", "table", "result"))
        self._m_ns = registry.histogram(
            f"{self.engine}_ns_per_packet",
            f"{self.engine} engine nanoseconds per packet",
            buckets=DEFAULT_NS_BUCKETS)

    def attach_observability(self, obs: Observability) -> None:
        """Attach (or detach, with :data:`~repro.obs.NULL_OBS`) the
        observability plane.

        The codegen engine recompiles so instrumentation is specialized
        at compile time — with a null handle the generated source is
        byte-for-byte the uninstrumented one and the hot path pays
        nothing.
        """
        self._bind_observability(obs)
        if self._engine is not None:
            self._engine = self._engine.on_observability_change()

    def _on_digest_evict(self, count: int) -> None:
        # Rare (ring overflow only): route through whatever registry is
        # attached at eviction time; the null registry no-ops.
        self.obs.registry.counter(
            "log_evictions_total",
            "entries rotated out of bounded message logs",
            labels=("log", "node")).labels("digests", self.name).inc(count)

    # ==================================================================
    # Control-plane (P4Runtime-like) API
    # ==================================================================

    def _check_entry(self, table: ir.Table, entry: ir.TableEntry) -> None:
        action = self.program.actions.get(entry.action)
        if action is None:
            raise P4RuntimeError(f"unknown action {entry.action!r}")
        # P4Runtime's rule (a table that lists no actions takes any),
        # and what lets the codegen engine emit a table's dispatch once.
        if table.actions and entry.action not in table.actions:
            raise P4RuntimeError(f"table {table.name!r} does not declare "
                                 f"action {entry.action!r}")
        if len(entry.args) != len(action.params):
            raise P4RuntimeError(
                f"action {entry.action!r} expects {len(action.params)} "
                f"args, got {len(entry.args)}"
            )
        if len(entry.match) != len(table.keys):
            raise P4RuntimeError(
                f"table {table.name!r} has {len(table.keys)} keys, "
                f"got {len(entry.match)} match specs"
            )

    def insert_entry(self, table_name: str, match: Sequence[ir.MatchSpec],
                     action: str, args: Optional[Sequence[int]] = None,
                     priority: int = 0) -> ir.TableEntry:
        table = self._table(table_name)
        entry = ir.TableEntry(match, action, args, priority)
        self._check_entry(table, entry)
        self.entries[table_name].append(entry)
        if self._engine is not None:
            self._engine.entries_inserted(table_name, [entry])
        self._notify_config(table_name)
        return entry

    def insert_entries(self, table_name: str,
                       rows: Sequence[Union[
                           ir.TableEntry,
                           Tuple[Sequence[ir.MatchSpec], str,
                                 Optional[Sequence[int]], int]]]
                       ) -> List[ir.TableEntry]:
        """Install a batch of entries with one index update and one
        config notification (``insert_entry`` is this with one row).

        A row is a ``(match, action, args, priority)`` tuple or an
        already-built :class:`~repro.p4.ir.TableEntry`, which is
        installed as is — entries are immutable values, so a controller
        programming the same row on several switches builds it once.
        Nothing is installed unless every row validates.  The codegen
        engine folds the new entries into its live table index instead
        of discarding it, so bulk control-plane churn (the Aether
        attach path) never costs an index rebuild.
        """
        table = self._table(table_name)
        n_keys = len(table.keys)
        arity: Dict[str, int] = {}  # per action already checked once
        created: List[ir.TableEntry] = []
        for row in rows:
            entry = (row if row.__class__ is ir.TableEntry
                     else ir.TableEntry(*row))
            if (len(entry.match) != n_keys
                    or len(entry.args) != arity.get(entry.action, -1)):
                self._check_entry(table, entry)
                arity[entry.action] = len(entry.args)
            created.append(entry)
        self.entries[table_name].extend(created)
        if self._engine is not None:
            self._engine.entries_inserted(table_name, created)
        self._notify_config(table_name)
        return created

    def delete_entry(self, table_name: str, entry: ir.TableEntry) -> None:
        """Remove ``entry`` if it is itself installed, else the first
        installed entry equal to it."""
        self._table(table_name)
        installed = self.entries[table_name]
        # The engine's index drops entries by identity: hand it the
        # installed object.  A handle usually is one, so look for it
        # before an equal (``__eq__`` is a Python call per row passed).
        at = next((i for i, e in enumerate(installed) if e is entry), -1)
        try:
            entry = installed.pop(at if at >= 0 else installed.index(entry))
        except ValueError as exc:
            raise P4RuntimeError("entry not installed") from exc
        if self._engine is not None:
            if any(other is entry for other in installed):
                # One object installed twice: by identity both would go.
                self._engine.invalidate_table(table_name)
            else:
                self._engine.entries_removed(table_name, [entry])
        self._notify_config(table_name)

    def delete_entries(self, table_name: str,
                       entries: Sequence[ir.TableEntry]) -> None:
        """Remove a batch of installed entries in one pass over the
        entry list (``delete_entry`` is O(installed) per call), with one
        index update and one config notification for the whole batch."""
        self._table(table_name)
        ids = {id(e): e for e in entries}
        if not ids:
            return
        installed = self.entries[table_name]
        kept = [e for e in installed if id(e) not in ids]
        if len(kept) != len(installed) - len(ids):
            raise P4RuntimeError("entry not installed")
        installed[:] = kept
        if self._engine is not None:
            self._engine.entries_removed(table_name, list(ids.values()))
        self._notify_config(table_name)

    def clear_table(self, table_name: str) -> None:
        self._table(table_name)
        self.entries[table_name].clear()
        if self._engine is not None:
            self._engine.invalidate_table(table_name)
        self._notify_config(table_name)

    def set_default_action(self, table_name: str, action: str,
                           args: Optional[List[int]] = None) -> None:
        self._table(table_name)
        if action not in self.program.actions:
            raise P4RuntimeError(f"unknown action {action!r}")
        expected = len(self.program.actions[action].params)
        args = list(args or [])
        if len(args) != expected:
            raise P4RuntimeError(
                f"action {action!r} expects {expected} args, got {len(args)}"
            )
        self.default_actions[table_name] = (action, args)
        # The codegen engine's generated source depends on which action
        # is the default: it rebinds new arguments, recompiles on a new
        # action.
        if self._engine is not None:
            self._engine.on_default_change(table_name)
        self._notify_config(table_name)

    # Control-plane register access validates its operands and raises
    # :class:`P4RuntimeError` on a bad name or out-of-range index.  The
    # *data-plane* RegisterRead/RegisterWrite statements deliberately do
    # not: an out-of-range data-plane read yields 0 and an out-of-range
    # write is ignored (see ``_exec``), mirroring hardware that clamps
    # rather than traps.

    def _register_cells(self, name: str, index: int) -> List[int]:
        values = self.registers.get(name)
        if values is None:
            raise P4RuntimeError(f"unknown register {name!r}")
        if not 0 <= index < len(values):
            raise P4RuntimeError(
                f"register {name!r} index {index} out of range "
                f"[0, {len(values)})"
            )
        return values

    def register_read(self, name: str, index: int = 0) -> int:
        return self._register_cells(name, index)[index]

    def register_write(self, name: str, index: int, value: int) -> None:
        values = self._register_cells(name, index)
        width = self._register_width[name]
        values[index] = int(value) & ((1 << width) - 1)
        self._notify_config(name)

    def on_digest(self, listener: Callable[[DigestMessage], None]) -> None:
        self.digest_listeners.append(listener)

    def on_config_change(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired after every control-plane mutation
        (table entry insert/delete/clear, default-action change,
        register write) with the mutated table/register name."""
        self.config_listeners.append(listener)

    def _notify_config(self, name: str) -> None:
        for listener in self.config_listeners:
            listener(name)

    def index_counts(self) -> Dict[str, Dict[str, int]]:
        """Per table the engine indexes: ``rebuilds`` of the index from
        the entry list and bulk writes it absorbed as ``folds`` (empty
        under ``interp``, which scans)."""
        return {} if self._engine is None else self._engine.index_counts()

    def engine_counts(self) -> Dict[str, Any]:
        """What the control plane has cost the codegen engine: modules
        built, by cause (``builds``), how many of them it compiled
        itself rather than taking the code a switch sharing its program
        already had (``compiles``), and default-action values stored
        into the live module instead (``rebinds``).  Empty under
        ``interp``, which has nothing to build."""
        if self._engine is None:
            return {}
        return {"builds": dict(self._engine.builds),
                "compiles": self._engine.compiles,
                "rebinds": self._engine.rebinds,
                "runs": self._engine.run_counts()}

    def _table(self, name: str) -> ir.Table:
        if name not in self.program.tables:
            raise P4RuntimeError(f"unknown table {name!r}")
        return self.program.tables[name]

    # ==================================================================
    # Packet processing
    # ==================================================================

    def process(self, packet: Packet,
                ingress_port: int) -> List[Tuple[int, Packet]]:
        """Run one packet through the pipeline.

        Returns a list of (egress_port, packet) pairs — empty if dropped.
        """
        if self._engine is not None:
            return self._engine.process(packet, ingress_port)
        if self._obs_live:
            return self._process_interp_obs(packet, ingress_port)
        return self._process_interp(packet, ingress_port)

    def process_batch(self, items) -> List[List[Tuple[int, Packet]]]:
        """Run a vector of ``(packet, ingress_port)`` pairs.

        Equal by construction to one :meth:`process` call per pair.
        ``self.process`` dispatches per packet, so a control-plane
        change a digest listener makes mid-batch (which may rebuild
        the engine's module, or rebind a default in it) takes effect
        no later than the next packet, as it does packet by packet.
        """
        return [self.process(packet, port) for packet, port in items]

    def _process_interp_obs(self, packet: Packet,
                            ingress_port: int) -> List[Tuple[int, Packet]]:
        """The interp path with metrics + trace events wrapped around."""
        tracer = self.obs.tracer
        if tracer.live:
            tracer.emit("parse", node=self.name,
                        packet_id=packet.packet_id, port=ingress_port,
                        packet=packet, packet_length=packet.length)
        self._m_packets.labels(self.name, ingress_port).inc()
        start = time.perf_counter_ns()
        outputs = self._process_interp(packet, ingress_port)
        self._m_ns.observe(time.perf_counter_ns() - start)
        if not outputs:
            reason = drop_reason(packet)
            self._m_dropped.labels(self.name, reason).inc()
            if tracer.live:
                tracer.emit("drop", node=self.name,
                            packet_id=packet.packet_id, reason=reason)
        elif tracer.live:
            for egress_port, out_packet in outputs:
                tracer.emit("deparse", node=self.name,
                            packet_id=out_packet.packet_id,
                            port=egress_port, egress_port=egress_port)
        return outputs

    def _process_interp(self, packet: Packet,
                        ingress_port: int) -> List[Tuple[int, Packet]]:
        self.packets_processed += 1
        work = (packet.copy_shared() if self._share_headers
                else packet.copy())
        standard = StandardMetadata(ingress_port=ingress_port,
                                    packet_length=work.length)
        ctx = PacketContext(self.program, work, standard)
        self._parse(ctx)

        self._exec_body(self.program.ingress, ctx)
        if ctx.standard.drop or ctx.standard.egress_spec == DROP_PORT:
            self.packets_dropped += 1
            return []
        ctx.standard.egress_port = ctx.standard.egress_spec

        self._exec_body(self.program.egress, ctx)
        if ctx.standard.drop:
            self.packets_dropped += 1
            return []

        out = self._deparse(ctx)
        return [(ctx.standard.egress_port, out)]

    # -- parsing ------------------------------------------------------------

    def _parse(self, ctx: PacketContext) -> None:
        headers = list(ctx.packet.headers)
        cursor = 0
        state_name = self.program.parser.start
        # Pre-bind every known bind name to an invalid header instance so
        # setValid/assign work on headers the parser did not extract.
        for bind, htype in self.program.bind_types().items():
            inst = Header(htype)
            inst.valid = False
            ctx.hdr[bind] = inst
        guard = 0
        while state_name not in (ir.ACCEPT, ir.REJECT_STATE):
            guard += 1
            if guard > 64:
                raise P4RuntimeError("parser did not terminate")
            state = self.program.parser.state(state_name)
            for ex in state.extracts:
                if isinstance(ex, ir.Extract):
                    if cursor >= len(headers) or \
                            headers[cursor].htype is not ex.htype:
                        state_name = ir.REJECT_STATE
                        break
                    ctx.hdr[ex.bind] = headers[cursor]
                    cursor += 1
                else:  # ExtractStack
                    depth = 0
                    while depth < ex.max_depth and cursor < len(headers) \
                            and headers[cursor].htype is ex.htype:
                        ctx.hdr[f"{ex.bind}{depth}"] = headers[cursor]
                        stop = headers[cursor].get(ex.loop_field) != 0
                        cursor += 1
                        depth += 1
                        if stop:
                            break
            else:
                state_name = self._transition(state, ctx)
                continue
            break
        ctx.tail = headers[cursor:]

    def _transition(self, state: ir.ParserState, ctx: PacketContext) -> str:
        default = ir.ACCEPT
        for tr in state.transitions:
            if tr.field_path is None:
                default = tr.next_state
            elif ctx.read(tr.field_path) == tr.value:
                return tr.next_state
        return default

    # -- deparsing -----------------------------------------------------------

    def _deparse(self, ctx: PacketContext) -> Packet:
        emitted: List[Header] = []
        order = self.program.emit_order or list(ctx.hdr)
        for bind in order:
            header = ctx.hdr.get(bind)
            if header is not None and header.valid:
                emitted.append(header)
        emitted.extend(ctx.tail)
        ctx.packet.headers = emitted
        return ctx.packet

    # -- statement execution ----------------------------------------------------

    def _exec_body(self, stmts: List[ir.P4Stmt], ctx: PacketContext) -> None:
        for stmt in stmts:
            self._exec(stmt, ctx)

    def _exec(self, stmt: ir.P4Stmt, ctx: PacketContext) -> None:
        if isinstance(stmt, ir.AssignStmt):
            ctx.write(stmt.dest, self._eval(stmt.value, ctx))
            return
        if isinstance(stmt, ir.IfStmt):
            if self._eval(stmt.cond, ctx):
                self._exec_body(stmt.then_body, ctx)
            else:
                self._exec_body(stmt.else_body, ctx)
            return
        if isinstance(stmt, ir.ApplyTable):
            hit = self._apply_table(stmt.table, ctx)
            if hit:
                self._exec_body(stmt.hit_body, ctx)
            else:
                self._exec_body(stmt.miss_body, ctx)
            return
        if isinstance(stmt, ir.RegisterRead):
            index = self._eval(stmt.index, ctx)
            values = self.registers[stmt.register]
            value = values[index] if 0 <= index < len(values) else 0
            ctx.write(stmt.dest, value)
            return
        if isinstance(stmt, ir.RegisterWrite):
            index = self._eval(stmt.index, ctx)
            values = self.registers[stmt.register]
            if 0 <= index < len(values):
                width = self._register_width[stmt.register]
                values[index] = self._eval(stmt.value, ctx) & ((1 << width) - 1)
            return
        if isinstance(stmt, ir.Digest):
            message = DigestMessage(
                name=stmt.name,
                values=[self._eval(e, ctx) for e in stmt.fields],
                switch_name=self.name,
            )
            self.digests.append(message)
            if self._obs_live and self.obs.tracer.live:
                self.obs.tracer.emit("digest", node=self.name,
                                     packet_id=ctx.packet.packet_id,
                                     digest=stmt.name)
            for listener in self.digest_listeners:
                listener(message)
            return
        if isinstance(stmt, ir.SetValid):
            header = ctx.hdr.get(stmt.header)
            if header is None:
                raise P4RuntimeError(f"setValid on unknown header {stmt.header!r}")
            header.valid = True
            return
        if isinstance(stmt, ir.SetInvalid):
            header = ctx.hdr.get(stmt.header)
            if header is None:
                raise P4RuntimeError(f"setInvalid on unknown header {stmt.header!r}")
            header.valid = False
            return
        if isinstance(stmt, ir.MarkToDrop):
            ctx.standard.drop = True
            return
        if isinstance(stmt, ir.PopSourceRoute):
            _pop_source_route(ctx.hdr)
            return
        if isinstance(stmt, ir.ExternCall):
            results = stmt.call(*[self._eval(arg, ctx) for arg in stmt.args])
            for dest, value in zip(stmt.dests, results):
                ctx.write(dest, value)
            return
        raise P4RuntimeError(f"unknown statement {type(stmt).__name__}")

    # -- tables --------------------------------------------------------------------

    def _apply_table(self, name: str, ctx: PacketContext) -> bool:
        """Apply a table; returns True on hit."""
        table = self._table(name)
        key_values = [ctx.read(key.path) for key in table.keys]
        best: Optional[ir.TableEntry] = None
        for entry in self.entries[name]:
            if not entry.matches(table, key_values):
                continue
            if best is None or self._beats(table, entry, best):
                best = entry
        if self._obs_live:
            self._observe_apply(name, "hit" if best is not None else "miss",
                                ctx)
        if best is not None:
            self._run_action(best.action, best.args, ctx)
            return True
        default = self.default_actions[name]
        if default is not None:
            action, args = default
            self._run_action(action, args, ctx)
        return False

    def _observe_apply(self, table: str, result: str,
                       ctx: PacketContext) -> None:
        self._m_table.labels(self.name, table, result).inc()
        tracer = self.obs.tracer
        if tracer.live:
            tracer.emit("apply", node=self.name,
                        packet_id=ctx.packet.packet_id,
                        table=table, result=result)

    @staticmethod
    def _beats(table: ir.Table, a: ir.TableEntry, b: ir.TableEntry) -> bool:
        # LPM: longest prefix wins; otherwise numeric priority (higher wins).
        lpm_index = next(
            (i for i, k in enumerate(table.keys) if k.kind is ir.MatchKind.LPM),
            None,
        )
        if lpm_index is not None:
            a_len = a.match[lpm_index][1]  # type: ignore[index]
            b_len = b.match[lpm_index][1]  # type: ignore[index]
            if a_len != b_len:
                return a_len > b_len
        return a.priority > b.priority

    def _run_action(self, name: str, args: List[int],
                    ctx: PacketContext) -> None:
        action = self.program.actions.get(name)
        if action is None:
            raise P4RuntimeError(f"unknown action {name!r}")
        saved = ctx.action_args
        ctx.action_args = {
            pname: value for (pname, _), value in zip(action.params, args)
        }
        try:
            self._exec_body(action.body, ctx)
        finally:
            ctx.action_args = saved

    # -- expressions -----------------------------------------------------------------

    def _eval(self, expr: ir.P4Expr, ctx: PacketContext) -> int:
        if isinstance(expr, ir.Const):
            return expr.value & ((1 << expr.width) - 1)
        if isinstance(expr, ir.FieldRef):
            return ctx.read(expr.path)
        if isinstance(expr, ir.ValidRef):
            return 1 if ctx.is_valid(expr.header) else 0
        if isinstance(expr, ir.UnExpr):
            value = self._eval(expr.operand, ctx)
            op = ir.UNARY_OPS.get(expr.op)
            if op is None:
                raise P4RuntimeError(f"unknown unary op {expr.op!r}")
            return op.fn(value, ir.result_width(expr))
        if isinstance(expr, ir.BinExpr):
            return self._eval_bin(expr, ctx)
        raise P4RuntimeError(f"unknown expression {type(expr).__name__}")

    def _eval_bin(self, expr: ir.BinExpr, ctx: PacketContext) -> int:
        """:data:`~repro.p4.ir.BINARY_OPS`' semantics; ``&&``/``||``
        evaluate their right side only when the left does not decide."""
        if expr.op == "&&":
            return 1 if (self._eval(expr.left, ctx)
                         and self._eval(expr.right, ctx)) else 0
        if expr.op == "||":
            return 1 if (self._eval(expr.left, ctx)
                         or self._eval(expr.right, ctx)) else 0
        left = self._eval(expr.left, ctx)
        right = self._eval(expr.right, ctx)
        op = ir.BINARY_OPS.get(expr.op)
        if op is None:
            raise P4RuntimeError(f"unknown binary op {expr.op!r}")
        return op.fn(left, right, expr.width)
