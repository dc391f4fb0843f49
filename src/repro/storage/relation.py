"""Relations: tables of tiles + fallback documents, with updates.

A relation holds its tuples as a list of tiles.  Depending on the
storage format a tile carries extracted columns (SINEW / TILES /
TILES_STAR) or is a plain chunk of binary documents (JSONB).  The raw
JSON text format keeps the original strings instead and re-parses on
access.

Updates (Section 4.7) patch extracted column values in place, register
new key paths in the tile's bloom filter and row spans, and trigger a tile
recomputation once the majority of its tuples no longer match the
extracted schema.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.jsonpath import KeyPath, collect_key_paths
from repro.errors import StorageError
from repro.jsonb import decode as jsonb_decode
from repro.jsonb import encode as jsonb_encode
from repro.lsm.manifest import LevelManifest
from repro.mining.dictionary import ItemSink
from repro.stats.table_stats import TableStatistics
from repro.storage.formats import StorageFormat
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.storage.tilestore import GLOBAL_TILE_STORE, TileHandle
from repro.tiles.extractor import ExtractionConfig, build_tile
from repro.tiles.extractor import _materialize_value  # shared coercion
from repro.tiles.tile import Tile

#: test hook: called between building a merged tile and committing the
#: manifest swap in :meth:`Relation.compact_tiles`.  Crash-recovery
#: tests raise from here to model a process dying mid-merge; must stay
#: ``None`` in production.
_COMPACT_COMMIT_BARRIER = None


class Relation:
    """A named table stored in one of the five formats."""

    def __init__(self, name: str, storage_format: StorageFormat,
                 config: Optional[ExtractionConfig] = None):
        self.name = name
        self.format = storage_format
        self.config = config or ExtractionConfig()
        #: tile *handles*: always-resident headers over demand-loaded
        #: payloads, managed by the process-wide tile store
        self.tiles: List[TileHandle] = []
        self.text_rows: Optional[List[str]] = [] \
            if storage_format == StorageFormat.JSON else None
        self.statistics = TableStatistics()
        #: Tiles-* child relations keyed by array path text.
        self.children: Dict[str, "Relation"] = {}
        self.array_paths: List[KeyPath] = []
        #: seconds per load phase (parse / write_jsonb / mining /
        #: extract / reorder), filled by the loader (Figure 16).
        self.load_breakdown: Dict[str, float] = {}
        self._outlier_counts: Dict[int, int] = {}
        #: documents inserted since the last tile was sealed
        #: (Section 3.2: "a new tile is created whenever the number of
        #: newly-inserted tuples reaches the tile size")
        self._insert_buffer: List[object] = []
        #: guards buffer mutation and the tiles-list append; cheap
        #: operations only — tile building happens outside of it
        self._buffer_lock = threading.Lock()
        #: serializes sealers so tile numbers / first rows stay dense
        #: while the expensive build runs outside ``_buffer_lock``
        self._seal_lock = threading.Lock()
        #: when False, :meth:`insert` never seals synchronously; the
        #: owner (e.g. the server's background sealer) must watch
        #: :attr:`pending_inserts` and call :meth:`flush_inserts`
        self.auto_seal = True
        #: callbacks ``(relation, tile)`` fired after a tile is sealed
        self._seal_hooks: List[Callable[["Relation", TileHandle], None]] = []
        #: callbacks ``(event, relation, payload)`` fired on storage
        #: reorganization events ("seal", "update", "recompute",
        #: "reorganize", and "evict" when the tile store pages a tile
        #: out); the maintenance health tracker subscribes.
        #: Hooks must never raise into the foreground path — exceptions
        #: are swallowed.
        self._event_hooks: List[Callable[[str, "Relation", object], None]] = []
        #: accumulated per-table scan counters (the engine's executor
        #: records every finished scan here; served by `stats`)
        self.scan_totals: Dict[str, int] = {}
        self._scan_totals_lock = threading.Lock()
        #: LSM compaction knobs (:class:`repro.lsm.LsmConfig`); ``None``
        #: keeps the flat level-0 layout and the planner proposes no
        #: merges.  The server / CLI set this on every base table.
        self.lsm_config = None
        #: compaction counters surfaced by ``stats`` and maintenance
        #: health (guarded by ``_buffer_lock`` like the tiles list)
        self.lsm_counters: Dict[str, int] = {
            "merges": 0, "docs_rewritten": 0, "bytes_written": 0}
        #: epoch-stamped immutable snapshot of the tiles list
        #: (DESIGN.md §8): bumped by every mutation, rebuilt lazily
        self._manifest_epoch = 0
        self._manifest: Optional[LevelManifest] = None

    def record_scan(self, counters) -> None:
        """Fold one finished scan's counters into the running totals.

        *counters* is anything with ``as_dict()`` (duck-typed so
        storage stays import-independent of the engine).
        """
        with self._scan_totals_lock:
            for name, value in counters.as_dict().items():
                self.scan_totals[name] = self.scan_totals.get(name, 0) + value
            self.scan_totals["queries"] = self.scan_totals.get("queries", 0) + 1

    def adopt_tile(self, tile: Tile) -> TileHandle:
        """Wrap a freshly built in-memory tile into a dirty (never
        evicted) handle owned by this relation.  Every path that adds a
        tile — sealing, bulk load, recompute, reorganize — goes through
        here; the handle becomes clean when a checkpoint re-binds it to
        an on-disk segment."""
        handle = TileHandle.wrap(tile, GLOBAL_TILE_STORE, self.name)
        handle.owner = self
        return handle

    # ------------------------------------------------------------------
    # manifest snapshots (repro.lsm; DESIGN.md §8)

    def _bump_manifest_locked(self) -> None:
        """The tiles list just changed; callers hold ``_buffer_lock``."""
        self._manifest_epoch += 1
        self._manifest = None

    def manifest(self) -> LevelManifest:
        """The current epoch-stamped tile-set snapshot.

        Readers (scans, morsel enumeration, cluster partial queries)
        take one manifest for the whole operation and therefore observe
        either the pre-compaction tiles or the post-compaction tile,
        never a torn mixture.  The snapshot is cached until the next
        mutation; the length check additionally catches direct appends
        by loaders that bypass the relation's own mutation paths.
        """
        with self._buffer_lock:
            if self._manifest is None \
                    or len(self._manifest.tiles) != len(self.tiles):
                self._manifest = LevelManifest(self._manifest_epoch,
                                               tuple(self.tiles))
            return self._manifest

    def lsm_status(self) -> Dict[str, object]:
        """Per-level occupancy + compaction counters for ``stats``,
        EXPLAIN ANALYZE and maintenance health.  Header-only."""
        manifest = self.manifest()
        with self._buffer_lock:
            counters = dict(self.lsm_counters)
        return {
            "enabled": bool(self.lsm_config is not None
                            and self.lsm_config.enabled),
            "epoch": manifest.epoch,
            "levels": manifest.level_report(),
            "counters": counters,
        }

    # ------------------------------------------------------------------
    # shape

    @property
    def row_count(self) -> int:
        if self.text_rows is not None:
            return len(self.text_rows)
        return sum(tile.row_count for tile in self.tiles)

    # ------------------------------------------------------------------
    # incremental inserts (Section 3.2 / 4.7)

    def insert(self, document: object) -> None:
        """Append one document.

        Documents accumulate in an insert buffer; once ``tile_size``
        tuples arrived, the buffer is sealed into a new tile (with
        mining/extraction for extracting formats).  Call
        :meth:`flush_inserts` to seal a partial buffer — e.g. before a
        scan that must observe the fresh tuples.
        """
        if self.text_rows is not None:
            row = (json.dumps(document) if not isinstance(document, str)
                   else document)
            with self._buffer_lock:
                self.text_rows.append(row)
            return
        parsed = (json.loads(document) if isinstance(document, str)
                  else document)
        with self._buffer_lock:
            self._insert_buffer.append(parsed)
            full = len(self._insert_buffer) >= self.config.tile_size
        if full and self.auto_seal:
            self.flush_inserts()

    def insert_many(self, documents) -> None:
        for document in documents:
            self.insert(document)

    def flush_inserts(self, append_guard=None) -> None:
        """Seal the insert buffer into a new tile (no-op when empty).

        The new tile is only appended once fully built, mirroring the
        paper's visibility rule ("the tile is visible to scanners only
        once it is fully created").  Safe to call from any thread:
        sealers are serialized and the expensive mining/extraction runs
        without blocking concurrent :meth:`insert` calls.

        *append_guard*, when given, is a context manager held around
        the instant the finished tile becomes visible (tiles-list
        append + statistics merge) — the server passes its per-table
        writer lock here so sealing never races a scan.
        """
        if self.text_rows is not None:
            return
        # seal only what was pending at entry: under sustained ingest a
        # buffer that refills as fast as it drains must not trap the
        # flusher (and with it a query's _prepare, or the whole server
        # pool) in an endless chase of the writers.  The budget probe
        # takes the seal lock so it first waits out an in-flight seal,
        # whose documents are momentarily in neither buffer nor tiles.
        with self._seal_lock:
            with self._buffer_lock:
                budget = len(self._insert_buffer)
        while budget > 0:
            with self._seal_lock:
                with self._buffer_lock:
                    if not self._insert_buffer:
                        return
                    # one tile never exceeds tile_size tuples — a burst
                    # of inserts that outran the sealer is cut into
                    # properly-sized tiles instead of one oversized one
                    # (tile boundaries are permanent: Section 3.2
                    # reordering permutes rows *between* tiles but never
                    # re-draws the boundaries themselves)
                    take = min(len(self._insert_buffer),
                               self.config.tile_size)
                    budget -= take
                    documents = self._insert_buffer[:take]
                    self._insert_buffer = self._insert_buffer[take:]
                    # only sealers mutate self.tiles, and they hold
                    # _seal_lock, so these reads are stable
                    tile_number = (self.tiles[-1].header.tile_number + 1
                                   if self.tiles else 0)
                    first_row = sum(tile.row_count for tile in self.tiles)
                # one walk per document: JSONB bytes + mining items
                sink = ItemSink(self.config.max_array_elements)
                jsonb_rows = [jsonb_encode(document, sink=sink)
                              for document in documents]
                tile = self.adopt_tile(build_tile(
                    documents, jsonb_rows, self.config,
                    tile_number, first_row,
                    mine=self.format.extracts_columns,
                    encoded=(sink.dictionary, sink.transactions)))
                guard = append_guard() if callable(append_guard) \
                    else append_guard
                if guard is not None:
                    with guard:
                        with self._buffer_lock:
                            self.tiles.append(tile)
                            self.statistics.absorb_tile(
                                tile_number, tile.header.statistics)
                            self._bump_manifest_locked()
                else:
                    with self._buffer_lock:
                        self.tiles.append(tile)
                        self.statistics.absorb_tile(
                            tile_number, tile.header.statistics)
                        self._bump_manifest_locked()
            for hook in self._seal_hooks:
                hook(self, tile)
            self._fire_event("seal", tile)

    def add_seal_hook(self, hook: Callable[["Relation", Tile], None]) -> None:
        self._seal_hooks.append(hook)

    def add_event_hook(self,
                       hook: Callable[[str, "Relation", object], None]) -> None:
        """Subscribe to storage reorganization events.  *hook* receives
        ``(event, relation, payload)`` where event is one of ``"seal"``
        (payload: the new tile), ``"update"`` (payload: the patched
        tile), ``"recompute"`` (payload: the rebuilt tile) and
        ``"reorganize"`` (payload: the partition index), ``"compact"``
        (payload: a dict with the merged tile, its level and the input
        tile numbers) and ``"evict"`` (payload: the paged-out
        handle)."""
        if hook not in self._event_hooks:
            self._event_hooks.append(hook)

    def _fire_event(self, event: str, payload: object) -> None:
        for hook in self._event_hooks:
            try:
                hook(event, self, payload)
            except Exception:
                pass  # observers must never break the foreground path

    @contextmanager
    def seal_paused(self):
        """No tile can seal while inside: waits out an in-flight
        :meth:`flush_inserts` and blocks new ones.  A checkpoint wraps
        its snapshot in this so no document is momentarily in neither
        the buffer nor the tiles."""
        with self._seal_lock:
            yield

    def snapshot_insert_buffer(self) -> List[object]:
        """A consistent copy of the pending (unsealed) documents."""
        with self._buffer_lock:
            return list(self._insert_buffer)

    @property
    def pending_inserts(self) -> int:
        return len(self._insert_buffer)

    def __len__(self) -> int:
        return self.row_count

    def tile_of_row(self, row_id: int) -> TileHandle:
        for tile in self.tiles:
            if tile.first_row <= row_id < tile.first_row + tile.row_count:
                return tile
        raise StorageError(f"row {row_id} out of range in {self.name}")

    # ------------------------------------------------------------------
    # row access (point lookups; scans go through the engine)

    def document(self, row_id: int) -> object:
        """Materialize the document stored at *row_id*."""
        if self.text_rows is not None:
            return json.loads(self.text_rows[row_id])
        handle = self.tile_of_row(row_id)
        with handle.pinned() as tile:
            return jsonb_decode(tile.jsonb_rows[row_id - handle.first_row])

    def documents(self) -> Iterator[object]:
        for row_id in range(self.row_count):
            yield self.document(row_id)

    # ------------------------------------------------------------------
    # updates (Section 4.7)

    def update(self, row_id: int, new_document: object) -> None:
        """Replace the document at *row_id*, patching extracted columns
        in place and keeping skipping metadata correct."""
        if self.text_rows is not None:
            self.text_rows[row_id] = json.dumps(new_document)
            return
        handle = self.tile_of_row(row_id)
        local = row_id - handle.first_row
        new_paths = [path for path, _jtype in collect_key_paths(
            new_document, self.config.max_array_elements)]
        with handle.pinned() as tile:
            # the payload is about to diverge from its on-disk segment:
            # a dirty handle is never evicted, so the patch can't be
            # lost to a reload of stale bytes
            handle.mark_dirty()
            # widen the row spans before the new bytes are visible, so
            # a concurrent scan never answers a new path NULL from them
            tile.header.widen_spans(new_paths, local)
            tile.jsonb_rows[local] = jsonb_encode(new_document)
            # the only in-place tile mutation in the system: resolved
            # fallback columns cached for this tile are now stale
            GLOBAL_TILE_CACHE.invalidate_tile(handle.uid)
            if not self.format.extracts_columns:
                self._fire_event("update", handle)
                return

            overlapping = 0
            for path, vector in tile.columns.items():
                meta = tile.header.columns[path]
                raw = path.lookup(new_document)
                value = _materialize_value(raw, meta)
                if value is None:
                    # absent key or type outlier: NULL marks "consult JSONB"
                    vector.null_mask[local] = True
                    meta.nullable = True
                    if raw is not None:
                        meta.has_type_conflicts = True
                else:
                    vector.null_mask[local] = False
                    vector.data[local] = value
                    overlapping += 1
                    # widen the tile's zone map / sketch; bounds may only
                    # grow (stale-wide bounds are safe for pruning)
                    tile.header.statistics.column(path).observe(value)
                    tile.header.widen_block_bounds(path, local, value)

            # every access path of the new document must be visible to
            # skipping, otherwise changed tiles could be skipped
            # incorrectly
            for path in new_paths:
                if path not in tile.columns:
                    tile.header.record_unextracted(path)

        self._fire_event("update", handle)
        if overlapping == 0:
            # outlier document: no overlap with the extracted keys
            count = self._outlier_counts.get(handle.tile_number, 0) + 1
            self._outlier_counts[handle.tile_number] = count
            if count > handle.row_count // 2:
                self.recompute_tile(handle)

    def recompute_tile(self, tile: TileHandle, append_guard=None) -> None:
        """Re-run extraction for one tile after heavy updates.

        *append_guard* (same contract as in :meth:`flush_inserts`) is
        held around the instant the rebuilt tile replaces the stale one,
        so a concurrent scan never observes a half-swapped tiles list.
        Relation statistics are rebuilt from scratch — ``absorb_tile``
        accumulates, so re-absorbing the rebuilt tile into the old
        aggregate would double-count its rows.

        The stale tile is pinned only while its JSONB heap is read; the
        expensive mining/extraction runs against plain byte strings, so
        the residency budget sees at most one extra resident tile.
        """
        with tile.pinned() as payload:
            jsonb_rows = list(payload.jsonb_rows)
        documents = [jsonb_decode(row) for row in jsonb_rows]
        rebuilt = self.adopt_tile(build_tile(
            documents, jsonb_rows, self.config,
            tile.tile_number, tile.first_row,
            mine=self.format.extracts_columns))
        guard = append_guard() if callable(append_guard) else append_guard
        with (guard if guard is not None else nullcontext()):
            with self._buffer_lock:
                try:
                    index = self.tiles.index(tile)
                except ValueError:
                    return  # replaced concurrently; nothing left to do
                self.tiles[index] = rebuilt
                self._rebuild_statistics_locked()
                self._bump_manifest_locked()
        self._outlier_counts.pop(tile.tile_number, None)
        # the rebuilt tile has a fresh uid; entries of the replaced one
        # can never be served again, so reclaim their memory (and the
        # replaced handle's residency charge) eagerly — retired, not
        # discarded, so a scan holding an older manifest snapshot can
        # still pin the replaced payload
        GLOBAL_TILE_CACHE.invalidate_tile(tile.uid)
        GLOBAL_TILE_STORE.retire(tile)
        # a recomputed tile changes its partition's content: the
        # maintenance health tracker resets the partition's record so
        # it becomes re-eligible for Section 3.2 reordering
        self._fire_event("recompute", rebuilt)

    def _rebuild_statistics_locked(self) -> None:
        """Recompute :class:`TableStatistics` from the current tiles.
        Callers hold ``_buffer_lock`` (the tiles list must be stable)."""
        statistics = TableStatistics()
        for tile in self.tiles:
            statistics.absorb_tile(tile.header.tile_number,
                                   tile.header.statistics)
        self.statistics = statistics

    # ------------------------------------------------------------------
    # partitions (Section 3.2) — maintenance works partition-at-a-time

    @property
    def partition_count(self) -> int:
        """Number of (possibly partial) partitions of sealed tiles."""
        if not self.tiles:
            return 0
        return math.ceil(len(self.tiles) / self.config.partition_size)

    def partition_tiles(self, index: int) -> List[TileHandle]:
        """Snapshot of the sealed tiles in partition *index*."""
        size = self.config.partition_size
        with self._buffer_lock:
            return list(self.tiles[index * size : (index + 1) * size])

    def reorganize_partition(self, index: int, append_guard=None) -> bool:
        """Re-run Section 3.2 tuple reordering across one sealed
        partition, then rebuild its tiles with full mining/extraction.

        Returns True when the partition's tiles were replaced, False
        when nothing changed: identity order (reordering found no
        improvement), fewer than two sealed tiles, a format without
        per-tile local schemas, or a relation with array children
        (their ``_parent_row`` links would dangle after a permutation).

        Concurrency contract: optimistic.  The expensive
        decode/mine/extract work runs without any relation lock, so
        concurrent scans and seals proceed; the rebuilt tiles are
        spliced in atomically under *append_guard* (the server passes
        its per-table writer lock) after verifying — by identity — that
        no concurrent recompute replaced a tile of the partition in the
        meantime (sealers only ever append past it).  On a lost race
        the method gives up and returns False; the caller retries in a
        later cycle.  Concurrent in-place ``update`` calls on the
        partition must be excluded by the caller — the server exposes
        no update command, and the embedded daemon reorganizes between
        foreground operations.
        """
        from repro.mining.dictionary import encode_documents, subset_dictionary
        from repro.tiles.reorder import apply_order, reorder_transactions

        if not self.format.uses_local_schemas or self.children:
            return False
        size = self.config.partition_size
        lo = index * size
        old_tiles = self.partition_tiles(index)
        if len(old_tiles) < 2:
            return False
        occupancy = [tile.row_count for tile in old_tiles]
        # pin one tile at a time while draining its JSONB heap — the
        # byte strings stay alive by reference, so the reorder itself
        # runs unpinned and the budget never needs the whole partition
        # resident at once
        jsonb_rows: List[bytes] = []
        for handle in old_tiles:
            with handle.pinned() as payload:
                jsonb_rows.extend(payload.jsonb_rows)
        documents = [jsonb_decode(row) for row in jsonb_rows]
        dictionary, transactions = encode_documents(
            documents, self.config.max_array_elements)
        order = reorder_transactions(transactions, self.config,
                                     occupancy=occupancy)
        if order == list(range(len(order))):
            return False
        documents = apply_order(documents, order)
        jsonb_rows = apply_order(jsonb_rows, order)
        transactions = apply_order(transactions, order)
        rebuilt: List[TileHandle] = []
        offset = 0
        for old, count in zip(old_tiles, occupancy):
            encoded = subset_dictionary(
                dictionary, transactions[offset : offset + count])
            rebuilt.append(self.adopt_tile(build_tile(
                documents[offset : offset + count],
                jsonb_rows[offset : offset + count],
                self.config, old.tile_number, old.first_row,
                encoded=encoded)))
            offset += count
        guard = append_guard() if callable(append_guard) else append_guard
        with (guard if guard is not None else nullcontext()):
            with self._buffer_lock:
                current = self.tiles[lo : lo + len(old_tiles)]
                if len(current) != len(old_tiles) or any(
                        now is not then
                        for now, then in zip(current, old_tiles)):
                    return False  # lost the race: retry in a later cycle
                self.tiles[lo : lo + len(old_tiles)] = rebuilt
                self._bump_manifest_locked()
                # relation statistics are NOT rebuilt: a reorganization
                # permutes rows within the partition, so the relation's
                # multiset of (path, value) pairs — everything the
                # aggregate describes — is unchanged.  (Per-tile zone
                # maps were rebuilt fresh inside build_tile.)  A full
                # rebuild here would grind O(tiles) histogram merges
                # inside the write-locked splice on every cycle.
        for old in old_tiles:
            self._outlier_counts.pop(old.tile_number, None)
            GLOBAL_TILE_CACHE.invalidate_tile(old.uid)
            GLOBAL_TILE_STORE.retire(old)
        self._fire_event("reorganize", index)
        return True

    # ------------------------------------------------------------------
    # leveled compaction (repro.lsm; DESIGN.md §8)

    def compact_tiles(self, start_number: int, count: int,
                      append_guard=None) -> bool:
        """Merge *count* adjacent same-level tiles starting at the tile
        numbered *start_number* into one tile of the next level,
        re-mining frequent itemsets over the union of their documents.

        Returns True when the merge committed, False on a no-op: the
        run no longer exists (tiles were rebuilt, merged or renumbered
        since planning — the crash-recovery replay path relies on this
        being a clean no-op), mismatched levels, or a lost race.

        Row order is preserved — the merged tile is the concatenation
        of its inputs — so global row ids, morsel spans, child
        ``_parent_row`` links and the cluster's canonical block layout
        are untouched.  This is why compaction is safe on cluster
        shards even though §3.2 reordering is forced off for them.

        Concurrency contract: optimistic, like
        :meth:`reorganize_partition`.  The expensive decode/mine/build
        runs without any relation lock; the splice happens under
        *append_guard* + ``_buffer_lock`` after re-verifying every
        input by identity.  Inside the guarded section, *before* the
        manifest swap commits, every input's resolved-column cache
        entries and TileStore residency are invalidated by uid — the
        same hole class as seal/recompute: a stale cached column must
        never be servable once the merged tile is visible.
        """
        if self.text_rows is not None or count < 2:
            return False
        with self._buffer_lock:
            start = next((index for index, tile in enumerate(self.tiles)
                          if tile.header.tile_number == start_number),
                         None)
            if start is None:
                return False
            old_tiles = list(self.tiles[start : start + count])
        if len(old_tiles) < count:
            return False
        level = old_tiles[0].header.level
        if any(tile.header.level != level for tile in old_tiles):
            return False  # the run dissolved (e.g. a concurrent merge)
        # pin one input at a time while draining its JSONB heap — the
        # byte strings stay alive by reference, so mining/extraction
        # run unpinned and the residency budget never needs the whole
        # run resident at once (reorganize's discipline).  The drained
        # payloads are retained so retiring the inputs below never has
        # to reload one that was evicted in the meantime.
        jsonb_rows: List[bytes] = []
        retained: Dict[int, object] = {}
        for handle in old_tiles:
            with handle.pinned() as payload:
                jsonb_rows.extend(payload.jsonb_rows)
                retained[id(handle)] = payload
        documents = [jsonb_decode(row) for row in jsonb_rows]
        merged = self.adopt_tile(build_tile(
            documents, jsonb_rows, self.config,
            old_tiles[0].tile_number, old_tiles[0].first_row,
            mine=self.format.extracts_columns, level=level + 1))
        if _COMPACT_COMMIT_BARRIER is not None:
            # crash-injection point for recovery tests: the merged tile
            # exists but the manifest still points at the old run
            _COMPACT_COMMIT_BARRIER(self, old_tiles, merged)
        guard = append_guard() if callable(append_guard) else append_guard
        with (guard if guard is not None else nullcontext()):
            with self._buffer_lock:
                try:
                    index = self.tiles.index(old_tiles[0])
                except ValueError:
                    return False  # lost the race: retry in a later cycle
                current = self.tiles[index : index + count]
                if len(current) != count or any(
                        now is not then
                        for now, then in zip(current, old_tiles)):
                    return False
                # satellite fix: invalidate the inputs' cached columns
                # and residency BEFORE the swap commits — the guard
                # excludes readers, so nothing can repopulate between
                # here and the splice, and no stale entry survives into
                # the post-merge world.  retire (not discard) keeps
                # each input's payload alive for scans that enumerated
                # an older manifest snapshot and pin it after the swap.
                for old in old_tiles:
                    GLOBAL_TILE_CACHE.invalidate_tile(old.uid)
                    GLOBAL_TILE_STORE.retire(old, retained.get(id(old)))
                self.tiles[index : index + count] = [merged]
                self._rebuild_statistics_locked()
                self._bump_manifest_locked()
                self.lsm_counters["merges"] += 1
                self.lsm_counters["docs_rewritten"] += len(documents)
                self.lsm_counters["bytes_written"] += merged.nbytes
        for old in old_tiles:
            self._outlier_counts.pop(old.tile_number, None)
        self._fire_event("compact", {
            "tile": merged, "level": level + 1,
            "inputs": [tile.header.tile_number for tile in old_tiles]})
        return True

    # ------------------------------------------------------------------
    # size accounting (Table 6)

    def size_report(self) -> Dict[str, int]:
        """Bytes per representation: raw JSON text, JSONB, extracted
        tile columns, and LZ4-compressed tile columns.

        ``tiles`` / ``lz4_tiles`` use the shared-variable-length-region
        accounting of Umbra (Section 4.7): extracted string columns
        store offsets, not payload copies.  ``tiles_standalone`` is the
        fully-materialized alternative for comparison.

        A relation with zero sealed tiles (empty table, or buffer-only
        state where every document still sits in the insert buffer)
        reports well-defined zeros for every representation — pending
        documents have no storage representation yet.

        ``resident_bytes`` / ``disk_bytes`` separate what the tile
        store currently holds in memory from what lives in the
        relation's ``.jtile`` segments — the logical representation
        sizes above deliberately do not distinguish the two.  They are
        sampled *before* the logical accounting below, because that
        accounting pins each tile (one at a time) and would otherwise
        make everything look resident.
        """
        from repro.storage.compression import compress

        report = {"json": 0, "jsonb": 0, "tiles": 0, "tiles_standalone": 0,
                  "lz4_tiles": 0, "resident_bytes": 0, "disk_bytes": 0}
        if self.text_rows is not None:
            report["json"] = sum(len(row.encode("utf-8")) for row in self.text_rows)
            return report
        if not self.tiles and not self.children:
            return report
        report["resident_bytes"] = sum(
            handle.nbytes for handle in self.tiles if handle.resident)
        report["disk_bytes"] = sum(
            handle.disk_bytes for handle in self.tiles)
        for handle in self.tiles:
            with handle.pinned() as tile:
                report["jsonb"] += tile.jsonb_size_bytes()
                report["tiles"] += tile.size_bytes(shared_strings=True)
                report["tiles_standalone"] += tile.size_bytes()
                for column in tile.columns.values():
                    report["lz4_tiles"] += len(compress(
                        column.raw_bytes(shared_strings=True)))
        for child in self.children.values():
            child_report = child.size_report()
            for key in report:
                report[key] += child_report[key]
        return report

    def residency_report(self) -> Dict[str, int]:
        """Cheap (header-only, never faults a payload) residency view:
        resident vs on-disk bytes and tile counts, children included."""
        report = {"resident_bytes": 0, "disk_bytes": 0,
                  "resident_tiles": 0, "dirty_tiles": 0, "tiles": 0}
        for handle in self.tiles:
            report["tiles"] += 1
            report["disk_bytes"] += handle.disk_bytes
            if handle.resident:
                report["resident_tiles"] += 1
                report["resident_bytes"] += handle.nbytes
            if handle.dirty:
                report["dirty_tiles"] += 1
        for child in self.children.values():
            child_report = child.residency_report()
            for key in report:
                report[key] += child_report[key]
        return report

    def extracted_fraction(self) -> float:
        """Fraction of (tile, frequent path) pairs that got materialized;
        a robustness metric used by tests, examples and the maintenance
        health tracker.

        Well-defined 0.0 on a relation with zero sealed tiles (empty
        table or buffer-only state): nothing has been extracted and
        nothing has been given up on, so the metric must neither divide
        by zero nor report a spurious 1.0.
        """
        if not self.tiles:
            return 0.0
        # header.columns mirrors the payload's column dict key-for-key,
        # so this never needs to fault a paged-out tile in
        extracted = sum(len(tile.header.columns) for tile in self.tiles)
        seen = sum(len(tile.header.key_counts) for tile in self.tiles)
        return extracted / max(1, seen)

    def tile_extraction_fraction(self, tile) -> float:
        """Per-tile extraction metric the health tracker aggregates:
        extracted columns over frequent key paths seen in the tile.
        Header-only, so polling it never faults a paged-out tile in."""
        if not tile.header.key_counts:
            return 1.0 if not tile.header.columns else 0.0
        return len(tile.header.columns) / len(tile.header.key_counts)

    def to_arrow(self, paths=None):
        """Export the relation as a ``pyarrow.Table`` (zero-copy for
        fixed-width columns; see ``repro.engine.arrow_export``).

        *paths* is an optional ``[(KeyPath, ColumnType), ...]``
        projection; by default every extracted path across the sealed
        tiles is exported under its header type (cross-tile type
        conflicts degrade to JSON text).  Buffered inserts are sealed
        first so the export observes every acknowledged document.
        Raises ``ExecutionError`` when ``pyarrow`` is not installed —
        the dependency is strictly optional.
        """
        from repro.engine.arrow_export import relation_to_arrow

        self.flush_inserts()
        return relation_to_arrow(self, paths=paths)

    def describe(self) -> str:
        lines = [f"relation {self.name}: {self.row_count} rows, "
                 f"format={self.format.value}, tiles={len(self.tiles)}"]
        for child_name, child in self.children.items():
            lines.append(f"  child[{child_name}]: {child.row_count} rows")
        return "\n".join(lines)
