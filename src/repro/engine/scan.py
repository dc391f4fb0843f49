"""Table scans with access-expression push-down (Sections 4.2-4.5, 4.8).

The scan receives *access requests* — the (key path, requested type,
as-text) triples that the query uses on this table, optionally with a
JSON function *probe* applied to the value — and resolves each request
per tile:

* an extracted column of a compatible type streams out directly (cast
  rewriting, Section 4.3: the requested type picks the cheapest
  conversion from the stored column type);
* date/time columns refuse text conversion (Section 4.9) and numeric
  strings refuse lossy text reconstruction, both falling back to JSONB;
* NULL slots of type-conflicting columns re-check the binary fallback
  per tuple (Section 3.4);
* a repeated column ``chain[*].key`` (DESIGN.md §5h) answers
  ``json_contains(chain, key, '<string>')``, ``json_length(chain)`` and
  reads of any slot ``chain[k].key`` from its codes; rows whose
  ``chain`` is no array, and elements whose member is no string, go to
  the JSONB like Section 3.4 outliers;
* everything else is a per-tuple JSONB traversal (or a full text parse
  for the raw JSON format) — the expensive path the paper measures.
  Other probes take it and run their byte kernel on the value found.

Tiles whose header proves a null-rejected path cannot occur are skipped
entirely (Section 4.8).  Inside a tile that is scanned, the header's
row spans and per-row key presence (DESIGN.md §5i) bound the fallback:
a path absent from the tile becomes an all-NULL vector without opening
a document, rows lacking a null-rejected path are dropped before any
decode, and a fallback group decodes only the rows inside the union
span of its paths.

All fallback sites shred *every* requested path of a tuple in one pass
over its binary representation (``repro.jsonb.shred``, Sinew/Dremel
style) instead of walking the document once per path.  A fallback run
of at least ``VECTOR_MIN_ROWS`` selected tuples is located for all of
them at once, by numpy over the tile's row heap
(``repro.jsonb.vector_shred``; ``fallback_rows_vectorized`` counts
those tuples), a shorter one by the per-tuple walk; either way the
numpy column kernels decode the located values.
``fallback_lookups`` counts the (tuple, path) resolutions that visit
the binary (Table-5-style), ``header_nulls`` those the row spans
answered NULL instead and ``presence_rows_skipped`` those inside the
spans that presence dropped, while ``shred_passes`` / ``shred_paths``
expose the physical walk sharing.

Late materialization (DESIGN.md §9): every tile slice is one
selection-vector scan.  The directly-resolved (extracted) columns are
resolved and their Section 3.4 conflicts patched, the conjuncts that
only touch them run first, fallback columns are decoded only for the
rows that survive, and the remaining conjuncts run on the completed
batch.  A slice with no extracted-only conjunct is the degenerate case:
every row is decoded once and every conjunct applied once.
``fallback_lookups`` counts the *selected* tuples only — the rows the
selection vector spared are in ``fallback_rows_skipped``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, fields
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import (ColumnType, JsonType, float_to_int,
                              is_numeric_string)
from repro.engine.batch import Batch
from repro.engine.expressions import Expression
from repro.engine.functions import PROBES, probe_text
from repro.engine.morsels import Morsel, canonical_chop, run_ordered
from repro.jsonb.access import (JsonbValue, float_text, text_as_bool,
                                text_as_float, text_as_int,
                                text_as_timestamp)
from repro.jsonb.shred import ShredPlan, compile_paths, locate_rows, \
    shred_jsonb, shred_python
from repro.jsonb.vector_shred import Kernel, locate, typed_columns
from repro.storage.column import ColumnBuilder, ColumnVector, fits_int64, \
    null_vector
from repro.storage.formats import StorageFormat
from repro.storage.relation import Relation
from repro.storage.tile_cache import GLOBAL_TILE_CACHE, make_key
from repro.tiles.header import ExtractedColumn
from repro.tiles.repeated import repeated_slot
from repro.tiles.tile import Tile

ROWID_PATH = KeyPath(("#rowid",))

T = TypeVar("T")

#: fallback runs of at least this many selected rows are located by
#: the vectorized heap kernel, shorter ones by the per-tuple walk, whose
#: cost per row is lower than the kernel's fixed cost (DESIGN.md §5d
#: has the sweep behind it)
VECTOR_MIN_ROWS = 128


@dataclass(frozen=True)
class AccessRequest:
    """One pushed-down access expression (a scan placeholder)."""

    path: KeyPath
    target: ColumnType
    as_text: bool
    name: str
    #: a JSON function applied to the value at *path* inside the scan,
    #: ``(function name, *literal args)`` (``functions.PROBES``);
    #: *target* is then the function's result type.  Probes never read
    #: an extracted column; a tile's repeated column over *path* answers
    #: ``json_length`` and a string-needle ``json_contains`` of its
    #: member, the JSONB bytes (or the parsed text) everything else.
    probe: Optional[Tuple[object, ...]] = None

    @staticmethod
    def make(alias: str, path: KeyPath, target: ColumnType,
             as_text: bool,
             probe: Optional[Tuple[object, ...]] = None) -> "AccessRequest":
        marker = "text" if as_text else "json"
        name = f"{alias}${path}::{_label(target, probe)}${marker}"
        return AccessRequest(path, target, as_text, name, probe)

    @property
    def label(self) -> str:
        """What the access yields, as EXPLAIN shows it: the requested
        type, or the probe call."""
        return _label(self.target, self.probe)


def _label(target: ColumnType, probe: Optional[Tuple[object, ...]]) -> str:
    return target.name if probe is None else probe_text(probe)


@dataclass
class ScanCounters:
    """Observability for the Section 4.8 / Table 5 experiments.

    Counters are mergeable: parallel workers accumulate into
    thread-local instances and fold them into the scan's shared
    instance under a lock (all fields are commutative sums).
    """

    tiles_total: int = 0
    tiles_skipped: int = 0
    rows_scanned: int = 0
    #: (tuple, path) resolutions that visited a tuple's JSONB / text
    fallback_lookups: int = 0
    #: (tuple, path) resolutions answered NULL from the tile header's
    #: row spans without a JSONB visit (DESIGN.md §5i): the path is
    #: absent from the tile, or the tuple lies outside the union span
    #: of its fallback group
    header_nulls: int = 0
    #: (tile, access) resolutions served entirely from the JSONB/text
    #: fallback — no extracted column existed for the requested path.
    #: The maintenance subsystem reads this as direct evidence that a
    #: table degraded to fallback scans (DESIGN.md "Online maintenance").
    fallback_tiles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: single-pass document walks performed by the multi-path shredder
    #: (one per tuple per fallback group decode).
    shred_passes: int = 0
    #: path results those walks produced (tuples × distinct paths);
    #: ``shred_paths - shred_passes`` is the number of per-path
    #: document traversals the shredder avoided.
    shred_paths: int = 0
    #: tile payloads this scan faulted in from disk (out-of-core
    #: residency; 0 means every touched tile was already resident)
    tile_loads: int = 0
    #: tiles the residency budget paged out while this scan's pins
    #: pushed it over — eviction churn attributable to this query
    tile_evictions: int = 0
    #: rows processed by the gated batch kernels (engine/kernels.py):
    #: vectorized generic GROUP BY, join probe, ORDER BY.  The always-on
    #: single-int64 fast paths are not counted — kernels-off runs
    #: therefore report 0 here.
    kernel_rows: int = 0
    #: rows a kernel declined (NaN keys, mixed types, overflow risk)
    #: that ran on the per-tuple reference path despite
    #: ``enable_kernels`` — the vectorized-coverage gap.
    fallback_rows: int = 0
    #: always 0: tiles carry one zone map each (DESIGN.md §9); kept
    #: for readers of the counter set
    blocks_pruned: int = 0
    #: (tuple, path) fallback decodes the late-materialization
    #: selection vector avoided: rows the cheap extracted-column
    #: conjuncts already rejected were never shredded.
    fallback_rows_skipped: int = 0
    #: (tuple, path) fallback decodes skipped because the tuple lacks
    #: a key path that a pushed-down conjunct null-rejects: the tile
    #: header's per-row presence (DESIGN.md §5i) dropped the tuple
    #: before the decode, the row-level twin of tile skipping
    presence_rows_skipped: int = 0
    #: of the ``shred_passes``, the tuples located by the vectorized
    #: heap kernel (runs of at least ``VECTOR_MIN_ROWS`` rows, DESIGN.md
    #: §5d) rather than by the per-tuple walk
    fallback_rows_vectorized: int = 0
    #: build-side rows shipped by a broadcast-join exchange (DESIGN.md
    #: §10): the merged build relation's row count times the number of
    #: shards it was broadcast to.  0 for single-node and gather runs.
    broadcast_rows: int = 0
    #: protocol bytes (requests sent + responses received) the
    #: coordinator exchanged with backends to answer this query —
    #: partial scatter, fragment planning, broadcast, or gather pages.
    #: Always 0 for embedded single-node execution.
    exchange_bytes: int = 0
    #: distributed-join attempts that declined to the gather path
    #: (non-equi joins, oversized or non-wire build sides, shard plan
    #: disagreement) under the bit-identical-or-decline contract.
    distjoin_declines: int = 0

    def merge(self, other: "ScanCounters") -> "ScanCounters":
        for name in _COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTER_NAMES}


#: the counter fields, in declaration order (merges run per morsel: the
#: names are read once, not from ``dataclasses.fields`` per call)
_COUNTER_NAMES = tuple(field.name for field in fields(ScanCounters))


@dataclass(frozen=True)
class RangePrune:
    """A pushed-down comparison usable against per-tile zone maps:
    ``column op literal`` with the column on the left."""

    path: KeyPath
    op: str  # = < <= > >=
    value: object

    def excludes(self, low: object, high: object) -> bool:
        """True when no value in [low, high] can satisfy the predicate."""
        try:
            if self.op == "=":
                return self.value < low or self.value > high
            if self.op == "<":
                return low >= self.value
            if self.op == "<=":
                return low > self.value
            if self.op == ">":
                return high <= self.value
            if self.op == ">=":
                return high < self.value
        except TypeError:
            return False  # incomparable types: never prune
        return False


class TableScan:
    """Produce one batch per tile (or per fixed chunk for un-tiled
    formats), resolving the access requests."""

    def __init__(self, relation: Relation, requests: Sequence[AccessRequest],
                 predicates: Sequence[Expression] = (),
                 skip_paths: Sequence[KeyPath] = (),
                 aggregate_skip_paths: Sequence[Sequence[KeyPath]] = (),
                 range_prunes: Sequence[RangePrune] = (),
                 enable_skipping: bool = True,
                 batch_rows: int = 4096,
                 parallelism: int = 1,
                 use_cache: bool = False):
        self.relation = relation
        self.requests = list(requests)
        #: pushed-down predicate as an ANDed conjunct list — the unit
        #: the late-materialization split works on (Kleene AND
        #: keep-masks intersect, so conjunct order is immaterial)
        self.predicates: List[Expression] = list(predicates)
        #: paths null-rejected by a predicate, join key or semi-join
        #: key: a tile or row lacking any of them yields nothing
        self.skip_paths = [path for path in skip_paths
                           if path != ROWID_PATH]
        #: one path group per aggregate of a global aggregation whose
        #: aggregates all skip NULLs: a tile is only worthless when
        #: every aggregate reads a path the tile lacks
        self.aggregate_skip_paths = [list(group)
                                     for group in aggregate_skip_paths]
        self.range_prunes = list(range_prunes)
        self.enable_skipping = enable_skipping
        self.batch_rows = batch_rows
        self.parallelism = max(1, parallelism)
        self.use_cache = use_cache
        self.counters = ScanCounters()
        self._counters_lock = threading.Lock()
        #: ``level -> tiles scanned`` histogram filled at morsel
        #: enumeration time; EXPLAIN ANALYZE renders it so operators
        #: see which LSM levels a query actually touched
        self.levels_scanned: Dict[int, int] = {}
        #: compiled shred plans per request list; worker threads may
        #: race to build the same plan — compilation is pure, so
        #: last-write-wins is harmless
        self._shred_plans: Dict[tuple, ShredPlan] = {}
        #: vectorized probe kernels per request name (same race rule)
        self._kernels: Dict[str, Kernel] = {}

    def add_predicate(self, conjunct: Expression) -> None:
        """Push one more ANDed conjunct into the scan (the optimizer
        folds row-local residuals in here; keep-mask intersection makes
        the order immaterial)."""
        self.predicates.append(conjunct)

    # ------------------------------------------------------------------
    # morsel enumeration + dispatch

    def morsels(self) -> List[Morsel]:
        """Chop the relation into batch-sized morsels, applying tile
        skipping (Section 4.8) at enumeration time so skipped tiles
        never reach a worker."""
        morsels: List[Morsel] = []
        if self.relation.format == StorageFormat.JSON:
            rows = self.relation.text_rows or []
            for start in range(0, len(rows), self.batch_rows):
                stop = min(start + self.batch_rows, len(rows))
                morsels.append(Morsel(len(morsels), None, start, stop))
            return morsels
        # enumerate one epoch-stamped manifest snapshot, not the live
        # list: a concurrent LSM compaction swaps tiles underneath, and
        # the snapshot guarantees this scan sees either the old run or
        # the merged tile, never a torn mixture (DESIGN.md §8)
        #
        # canonical block layout: chop every tile at multiples of the
        # configured tile size, not at its physical row count.  Legacy
        # tiles never exceed tile_size rows, so nothing changes for
        # them — but an LSM-merged tile (fanout * tile_size rows) is
        # sliced exactly where its inputs' boundaries were, and the
        # per-batch kernel partials fold in the same order as before
        # the merge.  Batch boundaries are where float summation
        # grouping lives; this is what makes query results bit-exact
        # with compaction on vs off (the same trick the cluster's
        # partial merge plays across drifted shard tile boundaries).
        block = canonical_chop(self.batch_rows,
                               self.relation.config.tile_size)
        for tile in self.relation.manifest().tiles:
            self.counters.tiles_total += 1
            if self._can_skip(tile):
                self.counters.tiles_skipped += 1
                continue
            self.counters.rows_scanned += tile.row_count
            level = tile.header.level
            self.levels_scanned[level] = \
                self.levels_scanned.get(level, 0) + 1
            for start in range(0, tile.row_count, block):
                stop = min(start + block, tile.row_count)
                morsels.append(Morsel(len(morsels), tile, start, stop))
        return morsels

    def resolve_morsel(self, morsel: Morsel) -> Batch:
        """Scan + predicate for one morsel; safe to call from any
        worker thread (counters fold under a lock)."""
        local = ScanCounters()
        if morsel.tile is None:
            batch = _filter_batch(
                self._resolve_text(morsel.start, morsel.stop, local),
                self.predicates)
        else:
            # pin for the duration of the morsel: the payload cannot be
            # evicted while its columns are being sliced (the produced
            # batch keeps the underlying arrays alive by reference, so
            # eviction after unpin is safe).  _resolve_tile applies the
            # pushed predicates itself — the early conjuncts run
            # *before* the fallback columns exist.
            with morsel.tile.pinned(local) as tile:
                batch = self._resolve_tile(tile, morsel.start,
                                           morsel.stop, local)
        with self._counters_lock:
            self.counters.merge(local)
        return batch

    def batches(self) -> Iterator[Batch]:
        for batch in self.run_morsels(self.resolve_morsel, self.morsels()):
            if batch.length:
                yield batch

    def run_morsels(self, task: Callable[[Morsel], T],
                    morsels: Sequence[Morsel]) -> Iterator[T]:
        """``task(morsel)`` of every morsel, in morsel order, on up to
        ``parallelism`` workers of the shared pool (inline when serial).
        *task* resolves its morsel (:meth:`resolve_morsel`), pinning
        the tile."""
        return run_ordered([partial(task, morsel) for morsel in morsels],
                           *pinning_workers(self.parallelism,
                                            [morsel.tile for morsel in morsels
                                             if morsel.tile is not None]))

    def _can_skip(self, tile) -> bool:
        # *tile* is a TileHandle; everything consulted here lives in
        # the always-resident header, so skipping never faults a
        # paged-out tile in — skipped tiles cost zero disk reads
        if not self.enable_skipping:
            return False
        if not self.relation.format.supports_skipping:
            return False
        header = tile.header
        if any(not header.may_contain(path) for path in self.skip_paths):
            return True
        if self.aggregate_skip_paths and all(
                any(not header.may_contain(path) for path in group)
                for group in self.aggregate_skip_paths):
            return True
        # zone maps: a comparison no value in the tile's range can
        # satisfy skips the tile (the comparison is null-rejecting, so
        # rows lacking the path contribute nothing either)
        for prune in self.range_prunes:
            bounds = tile.header.column_bounds(prune.path)
            if bounds is not None and prune.excludes(*bounds):
                return True
        return False

    # ------------------------------------------------------------------
    # resolution per tile

    def _resolve_tile(self, tile: Tile, start: int, stop: int,
                      counters: ScanCounters) -> Batch:
        """Selection-vector scan of one tile slice (DESIGN.md §9):
        resolve the direct columns, patch their Section 3.4 conflicts,
        run the conjuncts evaluable on them alone (*early*), decode the
        fallback columns for the surviving rows only, and run the other
        conjuncts (*late*) on the completed batch.  Keep-mask
        intersection over conjuncts equals evaluating their Kleene AND,
        and each row's shred is independent of its neighbours, so the
        surviving rows and every column value do not depend on the
        split; an empty early set decodes every row once."""
        total = stop - start
        resolved: Dict[str, Optional[ColumnVector]] = {}
        fallback: List[AccessRequest] = []
        conflicts: List[Tuple[AccessRequest, ColumnVector, np.ndarray]] = []
        # row spans ride on the skipping gate: the same header trust,
        # the same formats (DESIGN.md §5i)
        header = tile.header if (self.enable_skipping and
                                 self.relation.format.supports_skipping) \
            else None
        span_lo, span_hi = tile.row_count, 0
        for request in self.requests:
            if request.path == ROWID_PATH:
                data = np.arange(tile.first_row + start,
                                 tile.first_row + stop, dtype=np.int64)
                resolved[request.name] = ColumnVector(ColumnType.INT64, data)
                continue
            direct, patch = self._direct(tile, request, start, stop)
            if direct is None:
                if header is not None:
                    first, end = header.span_of(request.path)
                    if first >= end:
                        # absent from the tile: NULL without a decode
                        resolved[request.name] = null_vector(
                            request.target, total)
                        counters.header_nulls += total
                        continue
                    span_lo = min(span_lo, first)
                    span_hi = max(span_hi, end)
                resolved[request.name] = None  # keeps the column order
                fallback.append(request)
                continue
            if patch is not None:
                conflicts.append((request, direct, patch))
            resolved[request.name] = direct
        # patched before the split, so an early conjunct never sees an
        # unpatched outlier NULL
        if conflicts:
            self._patch_conflicts(tile, conflicts, start, counters, header)
        early, late = self._split_predicates(resolved)
        keep = None
        if early:
            direct_batch = Batch({name: vector for name, vector
                                  in resolved.items() if vector is not None},
                                 total)
            keep = np.ones(total, dtype=bool)
            for conjunct in early:
                keep &= _keep_mask(conjunct, direct_batch)
            if keep.all():
                keep = None
        absent = None
        if fallback and header is not None and self.skip_paths:
            # row-level skipping (DESIGN.md §5i): a row lacking a
            # null-rejected path yields nothing, so it is dropped
            # before any fallback decode.  Only paths the fallback
            # reads here narrow: an extracted path's early conjuncts
            # already rejected the rows lacking it
            present = self._present_rows(header, fallback, start, stop)
            if present is not None:
                absent = np.flatnonzero(~present if keep is None
                                        else keep & ~present)
                keep = present if keep is None else keep & present
        selection = None if keep is None else np.flatnonzero(keep)
        decoded: Dict[str, ColumnVector] = {}
        if fallback:
            span = (span_lo, span_hi) if header is not None else None
            decoded = self._fallback_group(tile, fallback, start, stop,
                                           counters, selection=selection,
                                           span=span, absent=absent,
                                           header=header)
        columns = {name: (decoded[name] if vector is None
                          else vector if keep is None
                          else vector.filter(keep))
                   for name, vector in resolved.items()}
        batch = Batch(columns, total if selection is None else len(selection))
        return _filter_batch(batch, late)

    def _direct(self, tile: Tile, request: AccessRequest, start: int,
                stop: int
                ) -> Tuple[Optional[ColumnVector], Optional[np.ndarray]]:
        """Resolve *request* over ``[start, stop)`` from tile storage:
        ``(vector, patch)``, the vector and the ``bool`` rows the JSONB
        must still answer (Section 3.4 outliers, and the rows a
        repeated column leaves to it), or ``(None, None)`` when only
        the fallback is correct.

        An extracted column of *request*'s path converts to the
        requested type.  A repeated column ``chain[*].key`` (DESIGN.md
        §5h) answers ``json_contains(chain, key, '<string>')`` and
        ``json_length(chain)`` in its array rows, and ``chain[k].key``
        as a gather of its codes; any other probe runs on the JSONB."""
        if request.probe:
            return _repeated_probe(tile, request, start, stop)
        column = tile.column(request.path)
        if column is not None:
            meta = tile.header.columns[request.path]
            stored_nulls = column.null_mask[start:stop]
        else:
            slot = repeated_slot(request.path)
            repeated = None if slot is None else \
                tile.repeated_on(slot[0], slot[2])
            if repeated is None:
                return None, None
            # a fresh STRING column of the slice's rows alone
            column, stored_nulls = repeated.gather(slot[1], start, stop)
            meta, start, stop = _GATHERED, 0, stop - start
        direct = self._convert_column(column, meta, request, start, stop)
        if direct is None or not meta.has_type_conflicts \
                or not direct.null_mask.any():
            return direct, None
        # Section 3.4: only *stored* NULL slots mark "consult the
        # JSONB"; NULLs the cast itself introduced (out-of-range float,
        # unparseable string) are genuine SQL NULLs.  When the slice has
        # no stored NULL, skip the fallback — and the defensive copy —
        # entirely.
        if not stored_nulls.any():
            return direct, None
        # the direct vector may alias tile storage: copy before the
        # fallback patches outlier values in
        return ColumnVector(direct.type, direct.data.copy(),
                            direct.null_mask), stored_nulls

    def _present_rows(self, header, fallback: List[AccessRequest],
                      start: int, stop: int) -> Optional[np.ndarray]:
        """The rows of ``[start, stop)`` holding every skip path the
        *fallback* requests read, or ``None`` when all of them do."""
        read = {request.path for request in fallback}
        present = None
        for path in self.skip_paths:
            if path not in read:
                continue
            rows = header.rows_of(path)[start:stop]
            if not rows.all():
                present = rows if present is None else present & rows
        return present

    def _split_predicates(
            self, resolved: Dict[str, Optional[ColumnVector]]
    ) -> Tuple[List[Expression], List[Expression]]:
        """Partition the conjunct list into *early* (every referenced
        column resolved directly from tile storage) and *late* (needs a
        fallback column) for one tile slice.  The split is per-tile: a
        path extracted in one tile may be fallback in the next."""
        direct = {name for name, vector in resolved.items()
                  if vector is not None}
        early: List[Expression] = []
        late: List[Expression] = []
        for conjunct in self.predicates:
            refs = conjunct.referenced_columns()
            if all(name in direct for name in refs):
                early.append(conjunct)
            else:
                late.append(conjunct)
        return early, late

    def _convert_column(self, column: ColumnVector, meta, request,
                        start: int, stop: int) -> Optional[ColumnVector]:
        """Cast rewriting (Section 4.3): map the stored column type onto
        the requested type, or None when only the fallback is correct."""
        stored = meta.column_type
        target = request.target
        data = column.data[start:stop]
        nulls = column.null_mask[start:stop].copy()
        if target == ColumnType.JSONB:
            return None  # `->` needs the real JSON value
        if stored == ColumnType.TIMESTAMP:
            if target == ColumnType.TIMESTAMP:
                return ColumnVector(target, data, nulls)
            return None  # Date/Time must not be textualized (Section 4.9)
        if stored == ColumnType.DECIMAL:
            if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
                return ColumnVector(ColumnType.FLOAT64,
                                    data.astype(np.float64), nulls)
            if target == ColumnType.INT64:
                return _float_to_int64(data, nulls)
            return None  # exact text of a numeric string needs JSONB
        if stored == ColumnType.INT64:
            if target == ColumnType.INT64:
                return ColumnVector(target, data, nulls)
            if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
                return ColumnVector(ColumnType.FLOAT64,
                                    data.astype(np.float64), nulls)
            if target == ColumnType.BOOL:
                return ColumnVector(target, data.astype(bool), nulls)
            if target == ColumnType.STRING:
                return ColumnVector(target, _int64_to_text(data), nulls)
            return None
        if stored == ColumnType.FLOAT64:
            if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
                return ColumnVector(ColumnType.FLOAT64, data, nulls)
            if target == ColumnType.INT64:
                return _float_to_int64(data, nulls)
            if target == ColumnType.STRING:
                return ColumnVector(target, _float64_to_text(data), nulls)
            return None
        if stored == ColumnType.BOOL:
            if target == ColumnType.BOOL:
                return ColumnVector(target, data, nulls)
            if target == ColumnType.INT64:
                return ColumnVector(target, data.astype(np.int64), nulls)
            if target == ColumnType.STRING:
                return ColumnVector(target, _bool_to_text(data), nulls)
            return None
        if stored == ColumnType.STRING:
            if target == ColumnType.STRING:
                return ColumnVector(target, data, nulls)
            if target in (ColumnType.INT64, ColumnType.FLOAT64,
                          ColumnType.DECIMAL, ColumnType.TIMESTAMP,
                          ColumnType.BOOL):
                return _parse_string_column(data, nulls, target)
            return None
        return None

    # ------------------------------------------------------------------
    # JSONB / text fallbacks

    def _plan_for(self, requests: Sequence[AccessRequest]) -> ShredPlan:
        """The shred plan of *requests*' distinct paths (in sorted
        order), cached per request list."""
        key = tuple(request.name for request in requests)
        plan = self._shred_plans.get(key)
        if plan is None:
            paths = tuple(sorted({request.path for request in requests}))
            plan = self._shred_plans[key] = compile_paths(paths)
        return plan

    def _fallback_group(self, tile: Tile, requests: List[AccessRequest],
                        start: int, stop: int,
                        counters: ScanCounters,
                        selection: Optional[np.ndarray] = None,
                        span: Optional[Tuple[int, int]] = None,
                        absent: Optional[np.ndarray] = None,
                        header=None) -> Dict[str, ColumnVector]:
        """*selection* (slice-local row offsets, or ``None`` for all)
        is the late-materialization selection vector: only selected
        tuples are decoded; *absent* (slice-local offsets) of the
        unselected rows were dropped for lacking a skip path, the rest
        by early conjuncts.
        The cache path ignores the selection for *storing* — a miss
        still decodes the full tile so cache keys stay
        selection-independent — and applies it when slicing out the
        result.  *span* is the union row span of the requests' paths
        (``None``: the whole tile); rows outside it are NULL.  *header*
        (``None`` when spans are not trusted) guides the vectorized
        search by per-row presence."""
        counters.fallback_tiles += len(requests)
        if not self.use_cache:
            return self._decode_fallback_group(tile, requests, start, stop,
                                               counters, selection, span,
                                               absent, header)
        keys = {request.name: make_key(self.relation.name, tile.uid,
                                       request.path, request.target,
                                       request.as_text, request.probe)
                for request in requests}
        resolved: Dict[str, ColumnVector] = {}
        missing: List[AccessRequest] = []
        found = GLOBAL_TILE_CACHE.lookup_many(
            [keys[request.name] for request in requests])
        for request in requests:
            cached = found.get(keys[request.name])
            if cached is None:
                counters.cache_misses += 1
                missing.append(request)
            else:
                counters.cache_hits += 1
                resolved[request.name] = cached
        if missing:
            # decode the whole tile once — one shred pass fills every
            # missed (path, type) and stores one cache entry per
            # request, so a k-path cache miss costs one decode, and
            # every later slice (this query or any concurrent one) is
            # a cache hit
            decoded = self._decode_fallback_group(tile, missing, 0,
                                                  tile.row_count, counters,
                                                  span=span, header=header)
            GLOBAL_TILE_CACHE.store_many(
                (keys[name], vector) for name, vector in decoded.items())
            resolved.update(decoded)
        if selection is not None:
            offsets = selection + start
            return {name: ColumnVector(vector.type, vector.data[offsets],
                                       vector.null_mask[offsets])
                    for name, vector in resolved.items()}
        if start == 0 and stop == tile.row_count:
            return resolved
        return {name: ColumnVector(vector.type, vector.data[start:stop],
                                   vector.null_mask[start:stop])
                for name, vector in resolved.items()}

    def _decode_fallback_group(self, tile: Tile,
                               requests: List[AccessRequest],
                               start: int, stop: int,
                               counters: ScanCounters,
                               selection: Optional[np.ndarray] = None,
                               span: Optional[Tuple[int, int]] = None,
                               absent: Optional[np.ndarray] = None,
                               header=None) -> Dict[str, ColumnVector]:
        """Resolve a group of fallback requests over one tuple range.

        Only the run of tuples inside *span* (the union row span of the
        requests' paths) is visited; the tuples before and after it are
        NULL by construction of the span and are padded in bulk.  Each
        visited tuple is shredded once for all the requests' paths.
        ``fallback_lookups`` counts the visited (tuple, path) pairs,
        ``header_nulls`` the padded ones.  With a *selection*, only the
        selected tuples count: the decode never touches the others.
        The *absent* ones go to ``presence_rows_skipped`` inside the
        span and to ``header_nulls`` outside it (the span alone answers
        those), the rest to ``fallback_rows_skipped``.

        The run is located by the vectorized heap kernel when it is
        long enough, else by the per-tuple walk; either way the
        column kernels (``typed_columns`` and the probes) decode every
        value position (DESIGN.md §5d).  With a *header*, the vectorized
        search looks for a key only in the rows that hold it."""
        lo, hi = span if span is not None else (start, stop)
        if selection is None:
            first = min(max(start, lo), stop)
            end = max(min(stop, hi), first)
            run = np.arange(first, end)
            before, after = first - start, stop - end
        else:
            dropped = 0 if absent is None else len(absent)
            counters.fallback_rows_skipped += \
                ((stop - start) - len(selection) - dropped) * len(requests)
            if dropped:
                inside = np.searchsorted(absent, (lo - start, hi - start))
                inside = int(inside[1] - inside[0])
                counters.presence_rows_skipped += inside * len(requests)
                counters.header_nulls += (dropped - inside) * len(requests)
            # the selection is sorted: the in-span run is one slice
            cut = np.searchsorted(selection, (lo - start, hi - start))
            run = selection[cut[0]:cut[1]] + start
            before, after = int(cut[0]), len(selection) - int(cut[1])
        counters.fallback_lookups += len(run) * len(requests)
        counters.header_nulls += (before + after) * len(requests)
        plan = self._plan_for(requests)
        counters.shred_passes += len(run)
        counters.shred_paths += len(run) * len(plan)
        if not len(run):
            return {request.name: null_vector(request.target, before + after)
                    for request in requests}
        if any(tile.merges(request.path) for request in requests):
            # a value the rows leave out is read: the complete rows
            heap = tile.full_rows(run)
            starts, ends = heap.starts, heap.ends
        else:
            heap = tile.heap
            starts, ends = heap.starts[run], heap.ends[run]
        view = heap.view()
        if len(run) >= VECTOR_MIN_ROWS:
            counters.fallback_rows_vectorized += len(run)
            pos, end = locate(plan, view, starts, ends,
                              None if header is None else header.rows_of,
                              run)
        else:
            pos = np.array(locate_rows(plan, heap.buf, starts.tolist()),
                           dtype=np.int64).reshape(len(run), len(plan)).T
            # a probe's byte search may run to the end of the row
            end = None
        found = (pos >= 0).any(axis=1).tolist()
        decoded = {}
        typed: Dict[ColumnType, List[AccessRequest]] = {}
        for request in requests:
            slot = plan.slots[request.path]
            if not found[slot]:
                # no selected row holds the path: what every kernel
                # answers for absent values
                decoded[request.name] = null_vector(
                    request.target, before + len(run) + after)
            elif request.probe:
                decoded[request.name] = self._probe_kernel(request)(
                    view, pos[slot], ends if end is None else end[slot],
                    before, after)
            else:
                typed.setdefault(request.target, []).append(request)
        # one decode per target: the group's requests share its setup
        for target, group in typed.items():
            columns = typed_columns(
                target, _jsonb_getter(group[0]), view,
                pos[[plan.slots[request.path] for request in group]],
                before, after)
            decoded.update(zip((request.name for request in group),
                               columns))
        return decoded

    def _probe_kernel(self, request: AccessRequest) -> Kernel:
        kernel = self._kernels.get(request.name)
        if kernel is None:
            name, *args = request.probe
            kernel = self._kernels[request.name] = PROBES[name].vector(*args)
        return kernel

    def _patch_conflicts(self, tile: Tile,
                         conflicts: List[Tuple[AccessRequest, ColumnVector,
                                               np.ndarray]],
                         start: int, counters: ScanCounters,
                         header=None) -> None:
        """Section 3.4: on access, traverse the binary representation
        when the *stored* extracted value is NULL (a type outlier).
        With a *header*, a stored NULL in a row that lacks the path is
        a genuine NULL (``header_nulls``) and is not visited.  All
        conflicted requests of the tile patch in one pass: each
        outlier tuple is shredded once for every conflicted path."""
        plan = self._plan_for([request for request, _v, _n in conflicts])
        stop = start + len(conflicts[0][2])
        if header is not None:
            narrowed = []
            for request, vector, stored_nulls in conflicts:
                held = stored_nulls & header.rows_of(request.path)[start:stop]
                counters.header_nulls += int(np.count_nonzero(stored_nulls
                                                              & ~held))
                narrowed.append((request, vector, held))
            conflicts = narrowed
        needed = np.zeros(stop - start, dtype=bool)
        for _request, _vector, stored_nulls in conflicts:
            counters.fallback_lookups += int(np.count_nonzero(stored_nulls))
            needed |= stored_nulls
        outliers = np.flatnonzero(needed)
        if any(tile.merges(request.path) if request.probe
               else tile.merges_below(request.path)
               for request, _v, _n in conflicts):
            # values the rows leave out are read: a probe's rows are
            # any rows, a column's are its stored NULLs, where the row
            # keeps the column's own value but not the leaves below it
            heap = tile.full_rows(outliers + start)
            buf, starts = heap.buf, heap.starts.tolist()
        else:
            buf = tile.heap.buf
            starts = tile.heap.starts[outliers + start].tolist()
        for local, row_start in zip(outliers.tolist(), starts):
            values = shred_jsonb(plan, buf, row_start)
            counters.shred_passes += 1
            for request, vector, stored_nulls in conflicts:
                if stored_nulls[local]:
                    counters.shred_paths += 1
                    _patch_slot(vector, local,
                                values[plan.slots[request.path]], request)

    def _resolve_text(self, start: int, stop: int,
                      counters: ScanCounters) -> Batch:
        # Raw text storage (PostgreSQL `json` / Hyper): the full-parse
        # cost the paper's JSON competitor pays.  Each document is
        # parsed *once* per scan and shared by every access request,
        # and the parsed value is walked once for all requested paths.
        rows = self.relation.text_rows or []
        chunk = rows[start:stop]
        counters.rows_scanned += len(chunk)
        columns: Dict[str, Optional[ColumnVector]] = {}
        requests: List[AccessRequest] = []
        for request in self.requests:
            if request.path == ROWID_PATH:
                data = np.arange(start, start + len(chunk), dtype=np.int64)
                columns[request.name] = ColumnVector(ColumnType.INT64, data)
                continue
            columns[request.name] = None  # keeps the column order
            requests.append(request)
        if not requests:
            return Batch(columns, len(chunk))
        counters.fallback_lookups += len(chunk) * len(requests)
        counters.fallback_tiles += len(requests)
        builders = {request.name: ColumnBuilder(request.target)
                    for request in requests}
        plan = self._plan_for(requests)
        slots = [(plan.slots[request.path], request,
                  builders[request.name].append) for request in requests]
        for row in chunk:
            values = shred_python(plan, json.loads(row))
            for slot, request, append in slots:
                append(_typed_from_python(values[slot], request))
        counters.shred_passes += len(chunk)
        counters.shred_paths += len(chunk) * len(plan)
        for name, builder in builders.items():
            columns[name] = builder.finish()
        return Batch(columns, len(chunk))


def _repeated_probe(tile: Tile, request: AccessRequest, start: int,
                    stop: int
                    ) -> Tuple[Optional[ColumnVector], Optional[np.ndarray]]:
    """A probe answered by a repeated column over its path (DESIGN.md
    §5h): ``(vector, patch)`` over the slice, *patch* the rows whose
    ``chain`` holds no array, which the JSONB answers; ``(None, None)``
    when the tile has no such column or the probe needs the JSONB
    (``json_contains`` of a non-string needle)."""
    name, *args = request.probe
    if name == "json_length":
        repeated = tile.repeated_on(request.path)
        if repeated is None:
            return None, None
        direct = repeated.length(start, stop)
    elif name == "json_contains" and isinstance(args[1], str):
        repeated = tile.repeated_on(request.path, args[0])
        if repeated is None:
            return None, None
        direct = repeated.contains(args[1], start, stop)
    else:
        return None, None
    patch = repeated.others(start, stop)
    # the vector is fresh: the patch may write into it
    return direct, patch if patch.any() else None


#: the column metadata a gather from a repeated column resolves under:
#: a STRING column whose stored NULLs (elements the codes cannot answer)
#: the JSONB patches
_GATHERED = ExtractedColumn(KeyPath(), JsonType.STRING, ColumnType.STRING,
                            has_type_conflicts=True)


def pinning_workers(parallelism: int,
                    tiles: Sequence) -> Tuple[int, Optional[int]]:
    """``(workers, window)`` for :func:`run_ordered` over tasks that each
    pin one of *tiles* (handles) at a time.  Pinned tiles are exempt
    from eviction: over a budgeted tile store, at most as many tasks run
    (or wait in the window) at once as the budget holds pinned tiles,
    and at least one."""
    if parallelism <= 1 or not tiles:
        return parallelism, None
    capacity = tiles[0].store.pin_capacity(max(tile.nbytes for tile in tiles))
    if capacity is None or capacity >= parallelism:
        return parallelism, None
    return capacity, capacity


def _keep_mask(conjunct: Expression, batch: Batch) -> np.ndarray:
    """Rows where *conjunct* is TRUE (Kleene: NULL and FALSE drop)."""
    verdict = conjunct.evaluate(batch)
    return verdict.data.astype(bool) & ~verdict.null_mask


def _filter_batch(batch: Batch, conjuncts: Sequence[Expression]) -> Batch:
    """Apply ANDed *conjuncts* one at a time, each to the rows the
    previous ones kept."""
    for conjunct in conjuncts:
        if batch.length == 0:
            break
        keep = _keep_mask(conjunct, batch)
        if not keep.all():
            batch = batch.filter(keep)
    return batch


def _int64_to_text(data: np.ndarray) -> np.ndarray:
    """``str(int)`` of every value (text access on an integer column);
    ``map(str, tolist())`` runs about 4x faster than ``np.char.mod``."""
    out = np.empty(len(data), dtype=object)
    out[:] = list(map(str, data.tolist()))
    return out


def _bool_to_text(data: np.ndarray) -> np.ndarray:
    """Vectorized JSON bool rendering (``"true"`` / ``"false"``)."""
    return np.where(data, "true", "false").astype(object)


def _float64_to_text(data: np.ndarray) -> np.ndarray:
    """Text access on a float column: integral values render as their
    integer text (JSON ``1.0`` round-trips to ``"1"``), everything
    else as Python's shortest-roundtrip ``repr``.  Integral values in
    int64 range go through :func:`_int64_to_text`; the (rare) rest
    falls back to per-element formatting."""
    out = np.empty(len(data), dtype=object)
    if len(data) == 0:
        return out
    integral = np.isfinite(data) & (data == np.floor(data))
    small = integral & (np.abs(data) < 2.0**63)
    if small.any():
        out[small] = _int64_to_text(data[small].astype(np.int64))
    rest = ~small
    if rest.any():
        big = integral & rest
        out[big] = [str(int(item)) for item in data[big].tolist()]
        frac = rest & ~integral
        out[frac] = [repr(item) for item in data[frac].tolist()]
    return out


def _patch_slot(vector: ColumnVector, local: int,
                value: Optional[JsonbValue],
                request: AccessRequest) -> None:
    if value is None:
        return
    typed = _typed_from_jsonb(value, request)
    if typed is None:
        return
    if vector.type == ColumnType.INT64 and not fits_int64(typed):
        return  # out of int64 range stays NULL, as in ColumnBuilder
    vector.data[local] = typed
    vector.null_mask[local] = False


def _float_to_int64(data: np.ndarray, nulls: np.ndarray) -> ColumnVector:
    """Float-to-integer conversion that turns out-of-range values into
    SQL NULL instead of silently wrapping."""
    out_of_range = ~np.isfinite(data) | (data >= 2.0**63) | (data < -(2.0**63))
    safe = np.where(out_of_range, 0.0, data)
    return ColumnVector(ColumnType.INT64, safe.astype(np.int64),
                        nulls | out_of_range)


def _cast_int_text(text: str) -> Optional[int]:
    value = text_as_int(text, is_numeric_string(text))
    return value if value is None or fits_int64(value) else None


#: ``->>'k'::<target>`` of a string, as the JSONB getters read a STRING
#: or NUMSTR value (``repro.jsonb.access``); an out-of-range integer is
#: NULL, as ``ColumnBuilder`` makes it
_STRING_CASTS = {
    ColumnType.INT64: _cast_int_text,
    ColumnType.FLOAT64: text_as_float,
    ColumnType.DECIMAL: text_as_float,
    ColumnType.BOOL: text_as_bool,
    ColumnType.TIMESTAMP: lambda text: text_as_timestamp(
        text, is_numeric_string(text)),
}
_STRING_CAST_DTYPES = {ColumnType.INT64: np.int64,
                       ColumnType.TIMESTAMP: np.int64,
                       ColumnType.BOOL: np.bool_}


def _parse_string_column(data: np.ndarray, nulls: np.ndarray,
                         target: ColumnType) -> ColumnVector:
    """A string column (or a repeated column's gather) read as
    *target*: each distinct string converted once, by the rule the
    JSONB getters apply (:data:`_STRING_CASTS`)."""
    cast = _STRING_CASTS[target]
    present = np.flatnonzero(~nulls)
    texts = data[present].tolist()
    converted = {text: cast(text) for text in set(texts)}
    values = [converted[text] for text in texts]
    held = np.array([value is not None for value in values], dtype=bool)
    out = np.zeros(len(data), dtype=_STRING_CAST_DTYPES.get(target,
                                                            np.float64))
    out[present[held]] = [value for value in values if value is not None]
    out_nulls = nulls.copy()
    out_nulls[present[~held]] = True
    result_type = ColumnType.FLOAT64 if target == ColumnType.DECIMAL else target
    return ColumnVector(result_type, out, out_nulls)


#: unbound typed getters per target (cast rewriting, Section 4.3).
#: Every getter maps a JSON null to ``None`` itself, so no separate
#: ``is_null`` probe is needed per value.
_JSONB_GETTERS = {
    ColumnType.JSONB: JsonbValue.as_python,
    ColumnType.INT64: JsonbValue.as_int,
    ColumnType.FLOAT64: JsonbValue.as_float,
    ColumnType.DECIMAL: JsonbValue.as_float,
    ColumnType.BOOL: JsonbValue.as_bool,
    ColumnType.TIMESTAMP: JsonbValue.as_timestamp,
    ColumnType.STRING: JsonbValue.as_text,
}


def _jsonb_getter(request: AccessRequest):
    """The per-value conversion the fallback loops hoist out of the
    row loop: a typed getter, or the compiled byte kernel of a probe."""
    if request.probe:
        name, *args = request.probe
        return PROBES[name].jsonb(*args)
    return _JSONB_GETTERS.get(request.target, JsonbValue.as_text)


def _typed_from_jsonb(value: Optional[JsonbValue],
                      request: AccessRequest) -> object:
    if value is None:
        return None
    return _jsonb_getter(request)(value)


def _jsonb_key_order(value: object) -> object:
    """*value* with every object's keys in JSONB order (Section 5.1):
    sorted by their UTF-8 bytes, which is code point order."""
    if isinstance(value, dict):
        return {key: _jsonb_key_order(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_jsonb_key_order(item) for item in value]
    return value


def _typed_from_python(raw: object, request: AccessRequest) -> object:
    """Coercion used by the raw-text format (after a full parse)."""
    if raw is None:
        return None
    if request.probe:
        name, *args = request.probe
        return PROBES[name].python(raw, *args)
    target = request.target
    if target == ColumnType.JSONB:
        return _jsonb_key_order(raw)
    if isinstance(raw, str):
        if target == ColumnType.STRING:
            return raw
        return _STRING_CASTS[target](raw)
    # the JSONB getters' rules for numbers and literals
    if target == ColumnType.INT64:
        if isinstance(raw, float):
            return float_to_int(raw)
        return int(raw) if isinstance(raw, int) else None
    if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
        return float(raw) if isinstance(raw, (int, float)) else None
    if target == ColumnType.BOOL:
        if isinstance(raw, float):
            return text_as_bool(float_text(raw))
        return raw != 0 if isinstance(raw, int) else None
    if target == ColumnType.TIMESTAMP:
        return raw if isinstance(raw, int) and not isinstance(raw, bool) \
            else None
    # text semantics of ->> on containers: compact JSON
    if isinstance(raw, (dict, list)):
        return json.dumps(_jsonb_key_order(raw), separators=(",", ":"))
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, float):
        return float_text(raw)
    return str(raw)
