"""Relations: tables of tiles + fallback documents, with updates.

A relation holds its tuples as a list of tiles.  Depending on the
storage format a tile carries extracted columns (SINEW / TILES /
TILES_STAR) or is a plain chunk of binary documents (JSONB).  The raw
JSON text format keeps the original strings instead and re-parses on
access.

Updates (Section 4.7) patch extracted column values in place, register
new key paths in the tile's row spans, and trigger a tile recomputation
once the majority of its tuples no longer match the extracted schema.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.jsonpath import KeyPath, collect_key_paths
from repro.errors import StorageError
from repro.jsonb.encoder import check_encodable, encode_stripped
from repro.lsm.manifest import LevelManifest
from repro.mining.dictionary import encode_documents, subset_dictionary
from repro.stats.table_stats import TableStatistics
from repro.storage.formats import StorageFormat
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.storage.tilestore import GLOBAL_TILE_STORE, TileHandle
from repro.tiles.extractor import (
    ExtractionConfig,
    build_tile,
    extend_tile,
    walk_documents,
)
from repro.tiles.extractor import _materialize_value  # shared coercion
from repro.tiles.reorder import apply_order, reorder_transactions
from repro.tiles.repeated import RepeatedColumn
from repro.tiles.tile import Tile, strip_trie

#: test hook ``(relation, old_tiles, new_tiles)``: called between
#: building a rewrite's output tiles and committing the splice in
#: :meth:`Relation._rewrite` (recompute, reorganize and compaction
#: alike).  Crash-recovery tests raise from here to model a process
#: dying mid-rewrite; must stay ``None`` in production.
_REWRITE_COMMIT_BARRIER = None


def _same_tiles(left, right) -> bool:
    """Two tile sequences hold the same handles, by identity."""
    return len(left) == len(right) and all(
        now is then for now, then in zip(left, right))


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
        #: callbacks ``(event, relation, payload)`` fired on storage
        #: reorganization events ("seal", "extend", "update", "rewrite",
        #: and "evict" when the tile store pages a tile out); the
        #: maintenance health tracker subscribes.
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
        #: stored bytes per blob kind of the ``.jtile`` snapshot this
        #: relation was last saved to or loaded from (filled by
        #: ``repro.storage.persist``; empty before the first save)
        self.stored_bytes: Dict[str, int] = {}

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

    def accept_document(self, document: object) -> object:
        """Parse *document* (JSON text or a Python value) and check that
        a tile can store it; returns the parsed document.

        ``json.loads`` accepts documents no JSONB row can hold — an
        escaped lone surrogate (``"\\ud800"``), an integer wider than
        64 bits — and one such document in the insert buffer would fail
        every later seal.  The check applies the JSONB encoder's rules
        (:func:`repro.jsonb.encoder.check_encodable`) and raises
        :class:`~repro.errors.JsonbEncodeError` before anything is
        buffered or logged."""
        parsed = (json.loads(document) if isinstance(document, str)
                  else document)
        check_encodable(parsed)
        return parsed

    def insert(self, document: object) -> None:
        """Append one document.

        Documents accumulate in an insert buffer; once ``tile_size``
        tuples arrived, the buffer is sealed (:meth:`seal_full_tiles`:
        the partial tail tile is topped up first, then whole tiles are
        cut, with mining/extraction for extracting formats).  Call
        :meth:`flush_inserts` to seal a partial buffer — e.g. before a
        scan that must observe the fresh tuples.  A document no tile
        can store raises (:meth:`accept_document`) and is not buffered.
        """
        self.insert_many([document])

    def insert_many(self, documents) -> None:
        """Append a batch; every document is checked
        (:meth:`accept_document`) before the first one is buffered."""
        documents = list(documents)
        accepted = [self.accept_document(document) for document in documents]
        if self.text_rows is not None:
            # the JSON format keeps JSON text as it was given
            accepted = [document if isinstance(document, str) else parsed
                        for document, parsed in zip(documents, accepted)]
        self.insert_accepted(accepted)

    def insert_accepted(self, documents) -> None:
        """Buffer documents :meth:`accept_document` already returned,
        without checking them again (the server checks a batch before
        its WAL append, then buffers it through here)."""
        for document in documents:
            if self.text_rows is not None:
                row = (document if isinstance(document, str)
                       else json.dumps(document))
                with self._buffer_lock:
                    self.text_rows.append(row)
                continue
            with self._buffer_lock:
                self._insert_buffer.append(document)
                full = len(self._insert_buffer) >= self.config.tile_size
            if full and self.auto_seal:
                self.seal_full_tiles()

    def flush_inserts(self, append_guard=None) -> None:
        """Seal the whole insert buffer (no-op when empty): top up the
        partial tail tile, cut whole tiles, and start a new partial
        tail with whatever is left.

        A tile only becomes visible once fully built, mirroring the
        paper's visibility rule ("the tile is visible to scanners only
        once it is fully created"); a topped-up tail is a new tile
        swapped in for the old one (:func:`repro.tiles.extend_tile`).
        Safe to call from any thread: sealers are serialized and the
        expensive mining/extraction runs without blocking concurrent
        :meth:`insert` calls.

        *append_guard*, when given, is a context manager held around
        the instant the finished tile becomes visible (tiles-list
        splice + statistics merge) — the server passes its per-table
        writer lock here so sealing never races a scan.
        """
        self._seal_pending(append_guard, whole_tiles=False)

    def seal_full_tiles(self, append_guard=None) -> None:
        """Top up the partial tail tile, then seal every complete run
        of ``tile_size`` buffered documents and leave a shorter rest
        pending.  Background sealers use this: tile boundaries are
        permanent, so a sealer must not start a small tile out of
        whatever happened to be buffered when it ran — only a
        query-time :meth:`flush_inserts` does.  *append_guard* as
        there."""
        self._seal_pending(append_guard, whole_tiles=True)

    def _open_tail_locked(self) -> Optional[TileHandle]:
        """The last tile when further inserts extend it (a level-0
        tile short of ``tile_size`` rows), else None.  Callers hold
        ``_buffer_lock``."""
        if not self.tiles:
            return None
        tail = self.tiles[-1]
        if tail.header.level or tail.row_count >= self.config.tile_size:
            return None
        return tail

    def _seal_pending(self, append_guard, whole_tiles: bool) -> None:
        """Every flush fills the open tail first, so all tiles but the
        last hold exactly ``tile_size`` rows whenever flushes run
        (Section 3.2: "a new tile is created whenever the number of
        newly-inserted tuples reaches the tile size")."""
        if self.text_rows is not None:
            return
        size = self.config.tile_size
        # seal only what was pending at entry: under sustained ingest a
        # buffer that refills as fast as it drains must not trap the
        # flusher (and with it a query's _prepare, or the whole server
        # pool) in an endless chase of the writers.  The budget probe
        # takes the seal lock so it first waits out an in-flight seal,
        # whose documents are momentarily in neither buffer nor tiles.
        with self._seal_lock:
            with self._buffer_lock:
                budget = len(self._insert_buffer)
                tail = self._open_tail_locked()
        if whole_tiles:
            top_up = 0 if tail is None \
                else min(budget, size - tail.row_count)
            budget = top_up + (budget - top_up) // size * size
        while budget > 0:
            with self._seal_lock:
                with self._buffer_lock:
                    pending = len(self._insert_buffer)
                    tail = self._open_tail_locked()
                    if not pending or (whole_tiles and tail is None
                                       and pending < size):
                        return
                    # one tile never exceeds tile_size tuples — a burst
                    # of inserts that outran the sealer is cut into
                    # properly-sized tiles instead of one oversized one
                    # (tile boundaries are permanent: Section 3.2
                    # reordering permutes rows *between* tiles but never
                    # re-draws the boundaries themselves)
                    take = min(pending, size if tail is None
                               else size - tail.row_count)
                    budget -= take
                    documents = self._insert_buffer[:take]
                    self._insert_buffer = self._insert_buffer[take:]
                    if tail is None:
                        # only sealers append to self.tiles, and they
                        # hold _seal_lock, so these reads are stable
                        tile_number = (self.tiles[-1].header.tile_number
                                       + 1 if self.tiles else 0)
                        first_row = sum(tile.row_count
                                        for tile in self.tiles)
                try:
                    if tail is None:
                        # one walk per document for the mining items
                        # (and the rows, when nothing is extracted)
                        mine = self.format.extracts_columns
                        jsonb_rows, encoded = walk_documents(
                            documents, self.config, encode=not mine)
                        tile = self.adopt_tile(build_tile(
                            documents, jsonb_rows, self.config,
                            tile_number, first_row, mine=mine,
                            encoded=encoded,
                            repeat_arrays=self.format.repeats_arrays))
                    else:
                        with tail.pinned() as payload:
                            extended, delta = extend_tile(
                                payload, documents, self.config)
                        tile = self.adopt_tile(extended)
                except BaseException:
                    # the documents were acknowledged: put them back at
                    # the head of the buffer, ahead of later inserts
                    with self._buffer_lock:
                        self._insert_buffer[:0] = documents
                    raise
                guard = append_guard() if callable(append_guard) \
                    else append_guard
                with (guard if guard is not None else nullcontext()):
                    with self._buffer_lock:
                        if tail is None:
                            self.tiles.append(tile)
                            self.statistics.absorb_tile(
                                tile_number, tile.header.statistics)
                        elif self.tiles and self.tiles[-1] is tail:
                            # retire (not discard): a scan on an older
                            # manifest may still pin the old tail
                            GLOBAL_TILE_CACHE.invalidate_tile(tail.uid)
                            GLOBAL_TILE_STORE.retire(tail, payload)
                            self.tiles[-1] = tile
                            # additive: the delta stands in for the
                            # appended rows, no O(tiles) rebuild
                            self.statistics.absorb_tile(
                                tail.tile_number, delta)
                        else:
                            # a rewrite replaced the tail meanwhile:
                            # the documents go back and the next round
                            # seals them against the new tail
                            self._insert_buffer[:0] = documents
                            budget += take
                            continue
                        # also covers the same-length swap manifest()'s
                        # length check cannot see
                        self._bump_manifest_locked()
            if tail is None:
                self._fire_event("seal", tile)
            else:
                self._fire_event("extend", {"tile": tile, "rows": take})

    def add_event_hook(self,
                       hook: Callable[[str, "Relation", object], None]) -> None:
        """Subscribe to storage reorganization events.  *hook* receives
        ``(event, relation, payload)`` where event is one of ``"seal"``
        (payload: the new tile), ``"extend"`` (payload: a dict with the
        topped-up ``tile`` and the number of ``rows`` appended to it),
        ``"update"`` (payload: the patched tile), ``"rewrite"``
        (payload: a dict with the replaced
        ``inputs``, the spliced-in ``outputs``, the ``partitions`` the
        outputs landed in and whether the run was ``reordered`` — see
        :meth:`_rewrite`) and ``"evict"`` (payload: the paged-out
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
        """Materialize the document stored at *row_id* (its row with
        the column values put back, :meth:`Tile.documents`)."""
        if self.text_rows is not None:
            return json.loads(self.text_rows[row_id])
        handle = self.tile_of_row(row_id)
        with handle.pinned() as tile:
            return tile.documents([row_id - handle.first_row])[0]

    def documents(self) -> Iterator[object]:
        if self.text_rows is not None:
            for row_id in range(self.row_count):
                yield self.document(row_id)
            return
        for handle in list(self.tiles):
            with handle.pinned() as tile:
                documents = tile.documents()
            yield from documents

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
            old_paths = {path for path, _jtype in collect_key_paths(
                tile.documents([local])[0],
                self.config.max_array_elements)}
            # widen the row spans and mark the row present before the
            # new bytes are visible, so a concurrent scan never answers
            # a new path NULL from them
            tile.header.widen_spans(new_paths, local)
            # a new immutable heap, swapped in with one store: a
            # concurrent scan holds either the old heap or this one.
            # The row leaves out what the patched columns below hold.
            tile.heap = tile.heap.replace(local, encode_stripped(
                new_document, strip_trie(tile.header.columns.values())))
            overlapping = 0
            if self.format.extracts_columns:
                overlapping = self._patch_columns(tile, local, new_document)
            # repeated columns are rebuilt from the new heap and columns
            # (DESIGN.md §5h), swapped in with one store like the heap
            tile.repeated = tuple(
                RepeatedColumn.build(tile.heap, column.chain, column.key,
                                     tile.columns.get(column.chain))
                for column in tile.repeated)
            # only now may the paths the old document alone held read
            # absent: presence stays exact, and never too narrow
            tile.header.clear_presence(old_paths.difference(new_paths),
                                       local)
            # the only in-place tile mutation in the system: resolved
            # fallback columns cached for this tile are now stale
            GLOBAL_TILE_CACHE.invalidate_tile(handle.uid)
            if not self.format.extracts_columns:
                self._fire_event("update", handle)
                return

            # a repeated column overlaps when an element of the row's
            # array holds a string member
            overlapping += sum(
                bool((column.codes[column.offsets[local]:
                                   column.offsets[local + 1]]
                      != column.sentinel).any())
                for column in tile.repeated)

        self._fire_event("update", handle)
        if overlapping == 0:
            # outlier document: no overlap with the extracted keys
            count = self._outlier_counts.get(handle.tile_number, 0) + 1
            self._outlier_counts[handle.tile_number] = count
            if count > handle.row_count // 2:
                self.recompute_tile(handle)

    @staticmethod
    def _patch_columns(tile: Tile, local: int, document: object) -> int:
        """Patch row *local* of every extracted column with *document*'s
        value; returns how many columns hold a value for it."""
        overlapping = 0
        for path, vector in tile.columns.items():
            meta = tile.header.columns[path]
            raw = path.lookup(document)
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
        return overlapping

    def recompute_tile(self, tile: TileHandle, append_guard=None) -> bool:
        """Re-run mining and extraction for one tile after heavy
        updates.  Returns False when *tile* is no longer live or the
        splice lost a race (:meth:`_rewrite`)."""
        return self._rewrite([tile], append_guard=append_guard)

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

    def partition_of(self, tile: TileHandle) -> Optional[int]:
        """Partition index of a live tile: its list position over the
        partition size, the numbering :meth:`partition_tiles` uses (tile
        numbers stop being dense once a merge folds a run into one
        tile).  ``None`` once the tile left the relation."""
        with self._buffer_lock:
            for position, live in enumerate(self.tiles):
                if live is tile:
                    return position // max(1, self.config.partition_size)
        return None

    def reorganize_partition(self, index: int, append_guard=None) -> bool:
        """Re-run Section 3.2 tuple reordering across one sealed
        partition and rebuild its tiles (:meth:`_rewrite`).

        False when nothing changed: identity order, fewer than two
        tiles, a format without per-tile schemas, array children (their
        ``_parent_row`` links would dangle after a permutation), or a
        lost race.  The caller excludes concurrent in-place ``update``
        calls on the partition (the server has no update command; the
        embedded daemon runs between foreground operations).
        """
        if not self.format.uses_local_schemas or self.children:
            return False
        old_tiles = self.partition_tiles(index)
        if len(old_tiles) < 2:
            return False
        return self._rewrite(old_tiles, reorder=True,
                             append_guard=append_guard)

    # ------------------------------------------------------------------
    # leveled compaction (repro.lsm; DESIGN.md §8)

    def compact_tiles(self, start_number: int, count: int,
                      append_guard=None) -> bool:
        """Merge *count* adjacent same-level tiles starting at the tile
        numbered *start_number* into one next-level tile, re-mining over
        the union of their documents (:meth:`_rewrite`).

        False on a no-op: the run no longer exists (the crash-recovery
        replay path relies on this), mismatched levels, or a lost race.
        Row order is preserved — the merged tile is the concatenation
        of its inputs — so global row ids, morsel spans, child
        ``_parent_row`` links and the cluster's canonical block layout
        are untouched; this is why shards may compact even though §3.2
        reordering is forced off for them.
        """
        if self.text_rows is not None or count < 2:
            return False
        with self._buffer_lock:
            start = next((index for index, tile in enumerate(self.tiles)
                          if tile.header.tile_number == start_number),
                         None)
            old_tiles = [] if start is None \
                else list(self.tiles[start : start + count])
        if len(old_tiles) < count \
                or len({tile.header.level for tile in old_tiles}) != 1:
            return False  # the run dissolved (e.g. a concurrent merge)
        return self._rewrite(old_tiles, merge=True,
                             append_guard=append_guard)

    # ------------------------------------------------------------------
    # the tile-rewrite primitive (recompute, reorganize, compaction;
    # DESIGN.md §6d / §8)

    def _rewrite(self, old_tiles: List[TileHandle], *, reorder: bool = False,
                 merge: bool = False, append_guard=None) -> bool:
        """Replace the adjacent run *old_tiles* by freshly mined tiles;
        True when they were spliced in (DESIGN.md §6d).

        Each output keeps its input's tile number, first row and level:
        one output per input, or with *merge* one tile at ``level + 1``.
        *reorder* first permutes the run's documents by Section 3.2
        reordering; the identity order is a no-op.

        Optimistic: everything up to the splice runs without a relation
        lock.  The splice, under *append_guard* (see
        :meth:`flush_inserts`) + ``_buffer_lock``, commits only if the
        tiles list is, by identity, still the entry snapshot plus an
        appended tail (sealers append, or swap in a topped-up last
        tile, which this check sees as a change); anything else is a
        lost race.  The inputs' cached columns and residency are dropped
        before the swap, while the guard still excludes readers.

        Statistics are rebuilt, never patched (a rewrite may change
        which columns, and so which sketches, exist): the snapshot with
        the run swapped in is absorbed before the guard, the appended
        tail under it.  ``absorb_tile`` runs in list order either way,
        so this equals a full rebuild at O(tiles sealed meanwhile)
        write-locked cost.
        """
        with self._buffer_lock:
            snapshot = list(self.tiles)
        start = next((index for index, tile in enumerate(snapshot)
                      if tile is old_tiles[0]), -1)
        stop = start + len(old_tiles)
        if start < 0 or not _same_tiles(snapshot[start:stop], old_tiles):
            return False  # replaced since the caller picked the run
        # pin one input at a time while decoding its documents, so
        # mining/extraction run unpinned and the residency budget never
        # needs the whole run resident at once.  The drained payloads
        # are retained so retiring the inputs never has to reload an
        # evicted one.
        documents: List[object] = []
        payloads: List[Tile] = []
        for handle in old_tiles:
            with handle.pinned() as payload:
                documents.extend(payload.documents())
                payloads.append(payload)
        transactions = None
        if reorder:
            dictionary, transactions = encode_documents(
                documents, self.config.max_array_elements)
            order = reorder_transactions(
                transactions, self.config,
                occupancy=[tile.row_count for tile in old_tiles])
            if order == list(range(len(order))):
                return False
            documents = apply_order(documents, order)
            transactions = apply_order(transactions, order)
        if merge:
            head = old_tiles[0]
            slots = [(head, len(documents), head.header.level + 1)]
        else:
            slots = [(tile, tile.row_count, tile.header.level)
                     for tile in old_tiles]
        new_tiles: List[TileHandle] = []
        offset = 0
        for old, count, level in slots:
            rows = slice(offset, offset + count)
            encoded = None if transactions is None \
                else subset_dictionary(dictionary, transactions[rows])
            new_tiles.append(self.adopt_tile(build_tile(
                documents[rows], None, self.config,
                old.tile_number, old.first_row,
                mine=self.format.extracts_columns, encoded=encoded,
                level=level, repeat_arrays=self.format.repeats_arrays)))
            offset += count
        statistics = TableStatistics()
        for tile in snapshot[:start] + new_tiles + snapshot[stop:]:
            statistics.absorb_tile(tile.header.tile_number,
                                   tile.header.statistics)
        if _REWRITE_COMMIT_BARRIER is not None:
            # crash-injection point for recovery tests: the outputs
            # exist but the tiles list still holds the inputs
            _REWRITE_COMMIT_BARRIER(self, old_tiles, new_tiles)
        guard = append_guard() if callable(append_guard) else append_guard
        with (guard if guard is not None else nullcontext()):
            with self._buffer_lock:
                if not _same_tiles(self.tiles[: len(snapshot)], snapshot):
                    return False  # lost the race: retry in a later cycle
                for tile in self.tiles[len(snapshot):]:
                    statistics.absorb_tile(tile.header.tile_number,
                                           tile.header.statistics)
                # retire (not discard) keeps each input's payload alive
                # for scans that enumerated an older manifest snapshot
                # and pin it after the swap
                for old, payload in zip(old_tiles, payloads):
                    GLOBAL_TILE_CACHE.invalidate_tile(old.uid)
                    GLOBAL_TILE_STORE.retire(old, payload)
                self.tiles[start:stop] = new_tiles
                self.statistics = statistics
                self._bump_manifest_locked()
                if merge:
                    self.lsm_counters["merges"] += 1
                    self.lsm_counters["docs_rewritten"] += len(documents)
                    self.lsm_counters["bytes_written"] += new_tiles[0].nbytes
        for old in old_tiles:
            self._outlier_counts.pop(old.tile_number, None)
        size = max(1, self.config.partition_size)
        self._fire_event("rewrite", {
            "inputs": old_tiles, "outputs": new_tiles,
            "partitions": list(range(start // size,
                                     (start + len(new_tiles) - 1) // size
                                     + 1)),
            "reordered": reorder})
        return True

    # ------------------------------------------------------------------
    # size accounting (Table 6)

    def size_report(self) -> Dict[str, object]:
        """Bytes per representation: raw JSON text, JSONB, extracted
        tile columns, and LZ4-compressed tile columns — the paper's
        Table 6 accounting, where the tiles are stored in addition to
        the complete JSONB (``jsonb`` counts the complete rows, although
        a tile's heap leaves out what its columns hold, DESIGN.md §3).

        ``tiles`` / ``lz4_tiles`` use the shared-variable-length-region
        accounting of Umbra (Section 4.7): extracted string columns
        store offsets, not payload copies.  ``tiles_standalone`` is the
        fully-materialized alternative for comparison.

        ``stored`` (present once the relation was saved to or loaded
        from a v3 or v4 file) breaks that file's bytes down by blob
        kind — row heap, string columns, fixed columns, null bitmaps,
        statistics, insert buffer, presence, repeated columns,
        catalog (v3 files: string refs and overflow) — and sums to its
        size.  It describes the last snapshot, not tiles sealed since.

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
        report: Dict[str, object] = self._representation_sizes()
        if self.stored_bytes:
            report["stored"] = dict(self.stored_bytes)
        return report

    def _representation_sizes(self) -> Dict[str, int]:
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
                for repeated in tile.repeated:
                    report["lz4_tiles"] += len(compress(repeated.to_blob()))
        for child in self.children.values():
            child_report = child._representation_sizes()
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
        # the header mirrors the payload's columns key-for-key and names
        # its repeated ones, so this never needs to fault a paged-out
        # tile in
        extracted = sum(tile.header.stored_path_count()
                        for tile in self.tiles)
        seen = sum(len(tile.header.key_counts) for tile in self.tiles)
        return extracted / max(1, seen)

    def tile_extraction_fraction(self, tile) -> float:
        """Per-tile extraction metric the health tracker aggregates:
        extracted columns over frequent key paths seen in the tile.
        Header-only, so polling it never faults a paged-out tile in."""
        if not tile.header.key_counts:
            return 1.0 if not tile.header.columns else 0.0
        return tile.header.stored_path_count() / len(tile.header.key_counts)

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
