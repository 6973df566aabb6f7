"""Indexed table lookup and per-packet context shared by the codegen engine.

The reference engine in :mod:`repro.p4.bmv2` scans every installed entry
per table apply.  :class:`_TableIndex` does that work at entry-install
time instead: exact-match tables become hash lookups keyed on the value
tuple, LPM tables become per-prefix-length buckets probed longest-first,
and ternary/range/priority tables stay a small list pre-sorted in win
order (hashed on one column once large, see ``_RBUCKET_MIN``).  Entry
insert/delete invalidates only that table's index, which is rebuilt
lazily on the next apply; the bulk control-plane path folds batches in
incrementally (``fold_inserts`` / ``fold_deletes``).

The index stores whatever payload its engine's ``_bind_action`` returns
for an entry and never looks inside it.

Control-plane state must be mutated through the ``Bmv2Switch`` API
(``insert_entry`` / ``delete_entry`` / ``clear_table``); mutating
``switch.entries`` lists directly bypasses index invalidation.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..net.packet import Packet
from . import ir
from .bmv2 import PacketContext, StandardMetadata

_EMPTY_ARGS: Dict[str, int] = {}

_LPM_WIDTH = 32  # the reference engine's fixed LPM key width

# Range/ternary tables normally fall back to a priority-ordered scan.
# When at least this many entries are installed and one key column is
# "bucketable" for most of them (an EXACT component, or a degenerate
# ``[v, v]`` range), the index hashes entries on that column instead:
# lookups then cost O(entries sharing the column value), not O(all
# entries) — the property that keeps per-packet checker work flat as
# an Aether-style control dict grows to millions of subscriber rows.
_RBUCKET_MIN = 64


class _FastContext(PacketContext):
    """Per-packet state handed to externs by the codegen engine.

    Subclasses :class:`PacketContext` so extern functions keep the full
    duck-typed API (``read``/``write``/``is_valid``/``meta``), but skips
    the parent's per-packet template construction — the engine hands in
    a pre-copied metadata dict and the shared width map.
    """

    def __init__(self, program: ir.P4Program, packet: Packet,
                 standard: StandardMetadata, meta: Dict[str, int],
                 meta_width: Dict[str, int]):
        self.program = program
        self.packet = packet
        self.standard = standard
        self.hdr = {}
        self.tail = []
        self.meta = meta
        self._meta_width = meta_width
        self.action_args = _EMPTY_ARGS


def _writable_binds(program: ir.P4Program, binds: Dict[str, Any]) -> set:
    """Bind names whose Header instance the program may mutate.

    Anything else can be pre-bound to a single shared invalid blank
    instead of a fresh one per packet: reads of an invalid header yield
    0 without touching values, and deparse skips invalid headers, so an
    unwritten blank never escapes or changes.
    """
    out: set = set()
    bodies = [program.ingress, program.egress]
    bodies.extend(action.body for action in program.actions.values())
    for body in bodies:
        for stmt in ir.walk_stmts(body):
            if isinstance(stmt, (ir.AssignStmt, ir.RegisterRead)):
                if stmt.dest.startswith("hdr."):
                    out.add(stmt.dest.split(".")[1])
            elif isinstance(stmt, (ir.SetValid, ir.SetInvalid)):
                out.add(stmt.header)
            elif isinstance(stmt, ir.PopSourceRoute):
                out.update(b for b in binds if b.startswith("srcRoute"))
            elif isinstance(stmt, ir.ExternCall):
                return set(binds)  # raw context access; assume the worst
    return out


def _raiser(exc: BaseException) -> Callable:
    """A callable that raises ``exc`` when invoked (any call shape).

    Used for constructs whose reference semantics fail at *execution*
    time (unknown paths, unknown tables, bad ops): compiling them must
    not fail early, or dead code would change program acceptance.
    """

    def raise_(*_args, **_kwargs):
        raise exc

    return raise_


class _TableIndex:
    """Indexed lookup over one table's installed entries.

    Win order matches the reference scan exactly: longest LPM prefix
    first (when the table has an LPM key), then higher numeric priority,
    then earliest insertion.
    """

    def __init__(self, engine, name: str, table: ir.Table):
        self.engine = engine
        self.name = name
        self.table = table
        kinds = [k.kind for k in table.keys]
        self._kinds = kinds
        lpm_indexes = [i for i, k in enumerate(kinds)
                       if k is ir.MatchKind.LPM]
        self._lpm_index: Optional[int] = (
            lpm_indexes[0] if lpm_indexes else None)
        if all(k is ir.MatchKind.EXACT for k in kinds):
            self._mode = "exact"
        elif len(lpm_indexes) == 1 and all(
                k is ir.MatchKind.EXACT for i, k in enumerate(kinds)
                if i != lpm_indexes[0]):
            self._mode = "lpm"
        else:
            self._mode = "scan"
        self._dirty = True
        self._exact_map: Dict[Tuple, Callable] = {}
        self._exact_dups = False
        self._buckets: Dict[int, Dict[Tuple, Callable]] = {}
        self._plens: List[int] = []
        self._masks: Dict[int, int] = {}
        self._lpm_dups = False
        # Scan layouts carry (rank, entry, bound) triples; rank is the
        # reference sort key, so merged iteration preserves win order.
        self._scan: List[Tuple[Tuple, ir.TableEntry, Callable]] = []
        self._rb_col: Optional[int] = None
        self._rb_buckets: Dict[Any,
                               List[Tuple[Tuple, ir.TableEntry,
                                          Callable]]] = {}
        self._rb_residual: List[Tuple[Tuple, ir.TableEntry, Callable]] = []
        # Monotonic insertion counter: folded entries get rank indexes
        # strictly above every rank already in the index, so ties keep
        # resolving to the earliest insertion even across deletions.
        self._rank_counter = 0
        # Default action: bound lazily and re-bound whenever this
        # switch's default-action tuple changes identity (the control
        # plane may swap it at any time via set_default_action).
        self._default_src: Any = _raiser  # sentinel, never a valid value
        self._default_bound: Optional[Callable] = None

    def invalidate(self) -> None:
        self._dirty = True

    def _sort_key(self, index: int, entry: ir.TableEntry) -> Tuple:
        if self._lpm_index is not None:
            plen = entry.match[self._lpm_index][1]  # type: ignore[index]
        else:
            plen = 0
        return (-plen, -entry.priority, index)

    def _bucket_key(self, col: int, spec: Any) -> Optional[Any]:
        """The hash key a spec contributes on a bucketable column, or
        None when the spec needs the residual scan (wide range)."""
        kind = self._kinds[col]
        if kind is ir.MatchKind.EXACT:
            return spec
        lo, hi = spec  # RANGE
        return lo if lo == hi else None

    def _pick_bucket_column(self, triples: List[Tuple]) -> Optional[int]:
        """The key column to hash scan entries on, if one qualifies:
        most entries degenerate on it, with enough distinct values that
        buckets stay small.  Ties favor the leftmost column."""
        n = len(triples)
        if n < _RBUCKET_MIN:
            return None
        best: Optional[Tuple[int, int]] = None
        for col, kind in enumerate(self._kinds):
            if kind not in (ir.MatchKind.EXACT, ir.MatchKind.RANGE):
                continue
            keys = set()
            bucketable = 0
            for _, entry, _bound in triples:
                key = self._bucket_key(col, entry.match[col])
                if key is not None:
                    bucketable += 1
                    keys.add(key)
            if bucketable * 2 < n or len(keys) < 8:
                continue
            if best is None or len(keys) > best[0]:
                best = (len(keys), col)
        return None if best is None else best[1]

    def _rebuild(self) -> None:
        entries = self.engine.switch.entries[self.name]
        ranked = sorted(
            ((self._sort_key(i, e), e) for i, e in enumerate(entries)),
            key=operator.itemgetter(0),
        )
        bind = self.engine._bind_action
        if self._mode == "exact":
            table_map: Dict[Tuple, Callable] = {}
            dups = False
            for _, entry in ranked:
                key = tuple(entry.match)
                if key in table_map:
                    dups = True
                else:
                    table_map[key] = bind(entry.action, entry.args)
            self._exact_map = table_map
            self._exact_dups = dups
        elif self._mode == "lpm":
            lpm_i = self._lpm_index
            buckets: Dict[int, Dict[Tuple, Callable]] = {}
            masks: Dict[int, int] = {}
            dups = False
            for _, entry in ranked:
                prefix, plen = entry.match[lpm_i]  # type: ignore[index,misc]
                mask = ((((1 << plen) - 1) << (_LPM_WIDTH - plen))
                        if plen else 0)
                masks[plen] = mask
                probe = list(entry.match)
                probe[lpm_i] = prefix & mask
                probe_t = tuple(probe)
                bucket = buckets.setdefault(plen, {})
                if probe_t in bucket:
                    dups = True
                else:
                    bucket[probe_t] = bind(entry.action, entry.args)
            self._buckets = buckets
            self._masks = masks
            self._plens = sorted(buckets, reverse=True)
            self._lpm_dups = dups
        else:
            triples = [(rank, entry, bind(entry.action, entry.args))
                       for rank, entry in ranked]
            self._rb_col = self._pick_bucket_column(triples)
            if self._rb_col is None:
                self._scan = triples
                self._rb_buckets = {}
                self._rb_residual = []
            else:
                col = self._rb_col
                rb_buckets: Dict[Any, List[Tuple]] = {}
                residual: List[Tuple] = []
                for triple in triples:
                    key = self._bucket_key(col, triple[1].match[col])
                    if key is None:
                        residual.append(triple)
                    else:
                        rb_buckets.setdefault(key, []).append(triple)
                self._rb_buckets = rb_buckets
                self._rb_residual = residual
                self._scan = []
        self._rank_counter = len(entries)
        self._dirty = False

    def lookup(self, key_values: Tuple[int, ...]) -> Optional[Callable]:
        """The bound action runner of the winning entry, or None."""
        if self._dirty:
            self._rebuild()
        if self._mode == "exact":
            return self._exact_map.get(key_values)
        if self._mode == "lpm":
            lpm_i = self._lpm_index
            value = key_values[lpm_i]
            for plen in self._plens:
                probe = list(key_values)
                probe[lpm_i] = value & self._masks[plen]
                bound = self._buckets[plen].get(tuple(probe))
                if bound is not None:
                    return bound
            return None
        table = self.table
        if self._rb_col is not None:
            best_rank: Optional[Tuple] = None
            best_bound: Optional[Callable] = None
            bucket = self._rb_buckets.get(key_values[self._rb_col])
            if bucket is not None:
                for rank, entry, bound in bucket:
                    if entry.matches(table, key_values):
                        best_rank = rank
                        best_bound = bound
                        break
            # Residual entries (wide ranges on the bucket column) are
            # rank-sorted: the first match below the bucket winner's
            # rank outranks it; past that rank the bucket winner holds.
            for rank, entry, bound in self._rb_residual:
                if best_rank is not None and rank > best_rank:
                    break
                if entry.matches(table, key_values):
                    return bound
            return best_bound
        for _rank, entry, bound in self._scan:
            if entry.matches(table, key_values):
                return bound
        return None

    # -- incremental maintenance (bulk control-plane path) -----------------

    def fold_inserts(self, new_entries: Sequence[ir.TableEntry]) -> bool:
        """Fold entries just appended to the switch's entry list into a
        built index without a rebuild.

        Returns False when the fold cannot preserve the reference win
        order (the caller must invalidate); a dirty index absorbs the
        entries at its next rebuild and reports success.  A partially
        applied fold that bails is safe — the caller's invalidate
        discards the folded state.
        """
        if self._dirty:
            return True
        bind = self.engine._bind_action
        if self._mode == "exact":
            table_map = self._exact_map
            for entry in new_entries:
                key = tuple(entry.match)
                if key in table_map:
                    return False  # duplicate key: rank decides, rebuild
                table_map[key] = bind(entry.action, entry.args)
            return True
        if self._mode == "lpm":
            lpm_i = self._lpm_index
            for entry in new_entries:
                prefix, plen = entry.match[lpm_i]  # type: ignore[index,misc]
                mask = ((((1 << plen) - 1) << (_LPM_WIDTH - plen))
                        if plen else 0)
                probe = list(entry.match)
                probe[lpm_i] = prefix & mask
                probe_t = tuple(probe)
                bucket = self._buckets.get(plen)
                if bucket is None:
                    bucket = self._buckets[plen] = {}
                    self._masks[plen] = mask
                    self._plens = sorted(self._buckets, reverse=True)
                if probe_t in bucket:
                    return False
                bucket[probe_t] = bind(entry.action, entry.args)
            return True
        for entry in new_entries:
            rank = self._sort_key(self._rank_counter, entry)
            self._rank_counter += 1
            triple = (rank, entry, bind(entry.action, entry.args))
            if self._rb_col is not None:
                key = self._bucket_key(self._rb_col,
                                       entry.match[self._rb_col])
                target = (self._rb_residual if key is None
                          else self._rb_buckets.setdefault(key, []))
            else:
                target = self._scan
            bisect.insort(target, triple)  # unique ranks: entries never
            #                                reach the tuple comparison
        if self._rb_col is None and len(self._scan) >= _RBUCKET_MIN * 4:
            # A plain scan this large may now qualify for range
            # buckets; re-choose the layout at the next lookup.
            self._dirty = True
        return True

    def fold_deletes(self, removed: Sequence[ir.TableEntry]) -> bool:
        """Drop entries just removed from the switch's entry list from a
        built index.  Same contract as :meth:`fold_inserts`."""
        if self._dirty:
            return True
        if self._mode == "exact":
            if self._exact_dups:
                return False  # a shadowed duplicate may resurface
            for entry in removed:
                self._exact_map.pop(tuple(entry.match), None)
            return True
        if self._mode == "lpm":
            if self._lpm_dups:
                return False
            lpm_i = self._lpm_index
            for entry in removed:
                prefix, plen = entry.match[lpm_i]  # type: ignore[index,misc]
                mask = self._masks.get(plen, 0)
                probe = list(entry.match)
                probe[lpm_i] = prefix & mask
                bucket = self._buckets.get(plen)
                if bucket is not None:
                    bucket.pop(tuple(probe), None)
                    if not bucket:
                        del self._buckets[plen]
                        self._masks.pop(plen, None)
                        self._plens = sorted(self._buckets, reverse=True)
            return True
        if self._rb_col is not None:
            col = self._rb_col
            residual_ids = set()
            for entry in removed:
                key = self._bucket_key(col, entry.match[col])
                if key is None:
                    residual_ids.add(id(entry))
                    continue
                bucket = self._rb_buckets.get(key)
                if bucket is not None:
                    bucket[:] = [t for t in bucket if t[1] is not entry]
                    if not bucket:
                        del self._rb_buckets[key]
            if residual_ids:
                self._rb_residual = [t for t in self._rb_residual
                                     if id(t[1]) not in residual_ids]
        else:
            ids = {id(e) for e in removed}
            self._scan = [t for t in self._scan if id(t[1]) not in ids]
        return True

    def default_bound(self) -> Optional[Callable]:
        current = self.engine.switch.default_actions[self.name]
        if current is None:
            return None
        if current is not self._default_src:
            self._default_src = current
            action, args = current
            self._default_bound = self.engine._bind_action(action, args)
        return self._default_bound
