"""Indexed table lookup for the codegen engine.

The reference engine in :mod:`repro.p4.bmv2` scans every installed entry
per table apply.  :class:`_TableIndex` does that work at entry-install
time instead: exact-match tables become hash lookups keyed on the value
tuple, LPM tables become per-prefix-length buckets probed longest-first,
and ternary/range/priority tables stay a small list pre-sorted in win
order (hashed on one column once large, see ``_RBUCKET_MIN``) and tested
with a matcher compiled once per tuple of match kinds.

When the index is behind the entry list, when it is not, and what it
forgets:

* An index created over an **empty** table is clean, and every insert
  and delete — a batch (``Bmv2Switch.insert_entries`` /
  ``delete_entries``) or a single entry (``insert_entry`` /
  ``delete_entry``, a batch of one) — folds into it from the first
  write (``fold_inserts`` / ``fold_deletes``), so the first packet
  after a write costs a packet.  A scan-mode index re-chooses its layout
  while folding — at ``_RBUCKET_MIN`` entries, then each time the scan
  doubles — not on the next lookup.
* The index is rebuilt lazily, by the next lookup, only after
  ``clear_table``, after a fold that could not keep the reference win
  order (a duplicate exact or LPM key), or when it was created over a
  non-empty table (an engine recompile).

* ``memo`` maps a looked-up key tuple to what :meth:`lookup` returned
  for it (``None``: a miss).  The generated non-exact apply sites probe
  it first and fill it, up to ``_MEMO_CAP`` keys (a full memo stops
  filling, it never evicts); ``invalidate``, ``fold_inserts`` and
  ``fold_deletes`` — every way the layout changes — empty it first, so
  it only ever holds answers of the installed entries.

``rebuilds`` and ``folds`` count the two outcomes, ``memo_fills`` and
``memo_clears`` the memo's (nothing is counted on a hit).

The index stores the installed :class:`~repro.p4.ir.TableEntry` itself —
a hash value, a memo value and the last element of a scan row are the
object ``switch.entries`` holds — and :meth:`lookup` answers with it.

Control-plane state must be mutated through the ``Bmv2Switch`` API
(``insert_entry`` / ``delete_entry`` / ``clear_table``); mutating
``switch.entries`` lists directly bypasses the index (and the codegen
engine's run memos).
"""

from __future__ import annotations

import bisect
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import ir

_LPM_WIDTH = 32  # the reference engine's fixed LPM key width

# Range/ternary tables normally fall back to a priority-ordered scan.
# When at least this many entries are installed and one key column is
# "bucketable" for most of them (an EXACT component, or a degenerate
# ``[v, v]`` range), the index hashes entries on that column instead:
# lookups then cost O(entries sharing the column value), not O(all
# entries) — the property that keeps per-packet checker work flat as
# an Aether-style control dict grows to millions of subscriber rows.
_RBUCKET_MIN = 64

#: Keys a lookup memo holds before it stops filling.
_MEMO_CAP = 512


@functools.lru_cache(maxsize=None)
def _matcher(kinds: Tuple[ir.MatchKind, ...]) -> Callable[[Sequence, Tuple],
                                                         bool]:
    """``match(entry.match, key_values)`` for one tuple of match kinds,
    compiled to a single boolean expression.

    Equal to :meth:`~repro.p4.ir.TableEntry.matches` (the interpreter's
    reference, and the oracle for this function in the tests) without
    the per-key ``zip`` and kind dispatch.  Cached per kinds tuple, so
    the many short-lived indexes of an oracle campaign share it.
    """
    terms = []
    for i, kind in enumerate(kinds):
        if kind is ir.MatchKind.EXACT:
            terms.append(f"k[{i}] == s[{i}]")
        elif kind is ir.MatchKind.TERNARY:
            terms.append(f"not (k[{i}] ^ s[{i}][0]) & s[{i}][1]")
        elif kind is ir.MatchKind.RANGE:
            terms.append(f"s[{i}][0] <= k[{i}] <= s[{i}][1]")
        else:  # LPM: plen 0 masks to nothing and matches anything
            terms.append(f"not (k[{i}] ^ s[{i}][0]) & (((1 << s[{i}][1]) - 1)"
                         f" << ({_LPM_WIDTH} - s[{i}][1]))")
    return eval(f"lambda s, k: {' and '.join(terms) or 'True'}")


class _TableIndex:
    """Indexed lookup over one table's installed entries.

    Win order matches the reference scan exactly: longest LPM prefix
    first (when the table has an LPM key), then higher numeric priority,
    then earliest insertion.
    """

    def __init__(self, engine, name: str, table: ir.Table):
        self.engine = engine
        self.name = name
        kinds = [k.kind for k in table.keys]
        self._kinds = kinds
        self._match = _matcher(tuple(kinds))
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
        # Behind the entry list?  Not over an empty table: there is
        # nothing to index, and the first bulk write can fold.
        self._dirty = bool(engine.switch.entries[name])
        self.rebuilds = 0
        self.folds = 0
        self.memo: Dict[Tuple, Optional[ir.TableEntry]] = {}
        self.memo_fills = 0
        self.memo_clears = 0
        self._exact_map: Dict[Tuple, ir.TableEntry] = {}
        self._exact_dups = False
        self._buckets: Dict[int, Dict[Tuple, ir.TableEntry]] = {}
        self._plens: List[int] = []
        self._masks: Dict[int, int] = {}
        self._lpm_dups = False
        # Scan layouts carry one (-plen, -priority, seq, entry) row per
        # entry: the reference sort key, then the entry it ranks, so
        # merged iteration preserves win order.
        self._scan: List[Tuple] = []
        self._rb_col: Optional[int] = None
        self._rb_buckets: Dict[Any, List[Tuple]] = {}
        self._rb_residual: List[Tuple] = []
        # Scan length at which a plain scan next asks for range buckets.
        self._rb_next = _RBUCKET_MIN
        # Monotonic insertion counter: folded entries get a seq
        # strictly above every one already in the index, so ties keep
        # resolving to the earliest insertion even across deletions.
        self._rank_counter = 0

    def invalidate(self) -> None:
        self._forget()
        self._dirty = True

    def _forget(self) -> None:
        """Empty the lookup memo: first thing in every method that
        changes what :meth:`lookup` returns."""
        if self.memo:
            self.memo.clear()
            self.memo_clears += 1

    def _row(self, seq: int, entry: ir.TableEntry) -> Tuple:
        """An entry's scan row: its reference sort key, then itself."""
        if self._lpm_index is not None:
            plen = entry.match[self._lpm_index][1]  # type: ignore[index]
        else:
            plen = 0
        return (-plen, -entry.priority, seq, entry)

    def _bucket_key(self, col: int, spec: Any) -> Optional[Any]:
        """The hash key a spec contributes on a bucketable column, or
        None when the spec needs the residual scan (wide range)."""
        kind = self._kinds[col]
        if kind is ir.MatchKind.EXACT:
            return spec
        lo, hi = spec  # RANGE
        return lo if lo == hi else None

    def _pick_bucket_column(self, rows: List[Tuple]) -> Optional[int]:
        """The key column to hash scan entries on, if one qualifies:
        most entries degenerate on it, with enough distinct values that
        buckets stay small.  Ties favor the leftmost column."""
        n = len(rows)
        if n < _RBUCKET_MIN:
            return None
        best: Optional[Tuple[int, int]] = None
        for col, kind in enumerate(self._kinds):
            if kind not in (ir.MatchKind.EXACT, ir.MatchKind.RANGE):
                continue
            keys = set()
            bucketable = 0
            for row in rows:
                key = self._bucket_key(col, row[3].match[col])
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
        # A seq is unique, so sorting rows never compares two entries.
        ranked = sorted(self._row(i, e) for i, e in enumerate(entries))
        if self._mode == "exact":
            table_map: Dict[Tuple, ir.TableEntry] = {}
            dups = False
            for *_, entry in ranked:
                key = entry.match
                if key in table_map:
                    dups = True
                else:
                    table_map[key] = entry
            self._exact_map = table_map
            self._exact_dups = dups
        elif self._mode == "lpm":
            lpm_i = self._lpm_index
            buckets: Dict[int, Dict[Tuple, ir.TableEntry]] = {}
            masks: Dict[int, int] = {}
            dups = False
            for *_, entry in ranked:
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
                    bucket[probe_t] = entry
            self._buckets = buckets
            self._masks = masks
            self._plens = sorted(buckets, reverse=True)
            self._lpm_dups = dups
        else:
            self._layout_scan(ranked)
        self._rank_counter = len(entries)
        self._dirty = False
        self.rebuilds += 1

    def _layout_scan(self, rows: List[Tuple]) -> None:
        """Lay sorted scan rows out as range buckets plus a residual
        list if a column qualifies, as one plain list if not (asking
        again once it has doubled)."""
        col = self._rb_col = self._pick_bucket_column(rows)
        self._rb_next = max(_RBUCKET_MIN, 2 * len(rows))
        rb_buckets: Dict[Any, List[Tuple]] = {}
        residual: List[Tuple] = []
        if col is None:
            self._scan = rows
        else:
            self._scan = []
            for row in rows:
                key = self._bucket_key(col, row[3].match[col])
                if key is None:
                    residual.append(row)
                else:
                    rb_buckets.setdefault(key, []).append(row)
        self._rb_buckets = rb_buckets
        self._rb_residual = residual

    def lookup(self, key_values: Tuple[int, ...]
               ) -> Optional[ir.TableEntry]:
        """The winning installed entry, or None."""
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
                entry = self._buckets[plen].get(tuple(probe))
                if entry is not None:
                    return entry
            return None
        match = self._match
        if self._rb_col is not None:
            best: Optional[Tuple] = None
            for row in self._rb_buckets.get(key_values[self._rb_col], ()):
                if match(row[3].match, key_values):
                    best = row
                    break
            # Residual rows (wide ranges on the bucket column) are
            # sorted: the first match ahead of the bucket winner
            # outranks it; past the winner's place it holds.
            for row in self._rb_residual:
                if best is not None and row > best:
                    break
                if match(row[3].match, key_values):
                    return row[3]
            return None if best is None else best[3]
        for row in self._scan:
            if match(row[3].match, key_values):
                return row[3]
        return None

    # -- incremental maintenance (bulk control-plane path) -----------------

    def fold_inserts(self, new_entries: Sequence[ir.TableEntry]) -> bool:
        """Fold entries just appended to the switch's entry list into
        the index without a rebuild.

        Returns False when the fold cannot preserve the reference win
        order (the caller must invalidate); an index that is already
        behind absorbs the entries at its next rebuild and reports
        success.  A partially applied fold that bails is safe — the
        caller's invalidate discards the folded state.
        """
        self._forget()
        if self._dirty:
            return True
        if self._mode == "exact":
            table_map = self._exact_map
            for entry in new_entries:
                key = entry.match
                if key in table_map:
                    return False  # duplicate key: rank decides, rebuild
                table_map[key] = entry
        elif self._mode == "lpm":
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
                bucket[probe_t] = entry
        else:
            # A seq is unique, so sorting and bisecting rows never
            # compares two entries.
            first = self._rank_counter
            self._rank_counter += len(new_entries)
            col = self._rb_col
            if col is None:
                scan = self._scan
                scan.extend(self._row(first + i, entry)
                            for i, entry in enumerate(new_entries))
                scan.sort()  # two sorted runs: one merge
                if len(scan) >= self._rb_next:
                    self._layout_scan(scan)
            else:
                for i, entry in enumerate(new_entries):
                    key = self._bucket_key(col, entry.match[col])
                    bisect.insort(self._rb_residual if key is None
                                  else self._rb_buckets.setdefault(key, []),
                                  self._row(first + i, entry))
        self.folds += 1
        return True

    def fold_deletes(self, removed: Sequence[ir.TableEntry]) -> bool:
        """Drop entries just removed from the switch's entry list from
        the index.  Same contract as :meth:`fold_inserts`."""
        self._forget()
        if self._dirty:
            return True
        if self._mode == "exact":
            if self._exact_dups:
                return False  # a shadowed duplicate may resurface
            for entry in removed:
                self._exact_map.pop(entry.match, None)
        elif self._mode == "lpm":
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
        elif self._rb_col is not None:
            col = self._rb_col
            residual_ids = set()
            for entry in removed:
                key = self._bucket_key(col, entry.match[col])
                if key is None:
                    residual_ids.add(id(entry))
                    continue
                bucket = self._rb_buckets.get(key)
                if bucket is not None:
                    bucket[:] = [r for r in bucket if r[3] is not entry]
                    if not bucket:
                        del self._rb_buckets[key]
            if residual_ids:
                self._rb_residual = [r for r in self._rb_residual
                                     if id(r[3]) not in residual_ids]
        else:
            ids = {id(e) for e in removed}
            self._scan = [r for r in self._scan if id(r[3]) not in ids]
        self.folds += 1
        return True
