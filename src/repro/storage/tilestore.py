"""Out-of-core tile residency: handles + the byte-budgeted store.

The paper's tiles (Section 3) are a natural paging unit: each one is a
self-contained chunk of tuples with its own columns, JSONB heap and
header.  This module turns them into one.

* A :class:`TileHandle` is what a :class:`~repro.storage.relation.Relation`
  actually holds in ``relation.tiles``.  The *header* (schema, row
  spans, zone maps — everything tile skipping needs) is always
  resident; the *payload* (column vectors + JSONB rows) is pinned and
  loaded on demand from the relation's ``.jtile`` segment and unpinned
  after use.  Handles for freshly built tiles (sealing, bulk load,
  recomputation) are *dirty*: they have no clean on-disk copy yet and
  are therefore never evicted; a checkpoint re-binds them to the new
  snapshot and makes them clean.

* The :class:`TileStore` is the process-wide residency manager: an LRU
  of resident payloads with pin counts, bounded by a byte budget
  (``serve --memory-mb`` / ``REPRO_MEMORY_MB``; default unlimited for
  backward compatibility).  The budget is shared with the resolved
  fallback-column cache (:mod:`repro.storage.tile_cache`): cached
  columns and raw tile bytes draw from one pool, with the cache capped
  at a quarter of the budget so derived data can never starve the
  primary representation.  Under pressure the store evicts clean,
  unpinned tiles in LRU order and shrinks the cache; it never evicts
  pinned or dirty state — the budget is a target, not a hard fault.

The store tracks handles through weak references: dropping a table (or
a whole Database) releases its tiles through ordinary garbage
collection, with finalizer callbacks keeping the byte accounting
exact.

Identity: a handle allocates its tile uid once and re-stamps it onto
every reload, so resolved-column cache entries survive evict/reload
cycles — an evicted clean tile is bit-identical to the one re-read
from disk.  In-place mutation (``Relation.update``) marks the handle
dirty first, which both blocks eviction and keeps the stale segment
from ever being served again.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.errors import StorageError
from repro.storage.tile_cache import GLOBAL_TILE_CACHE, ResolvedTileCache
from repro.tiles.tile import Tile, new_tile_uid


class TileHandle:
    """One tile of a relation: resident header, demand-loaded payload.

    Handles proxy the read-only surface of :class:`Tile` (``columns``,
    ``heap``, ``column`` …) by transparently materializing the
    payload, so code that only inspects a tile keeps working verbatim.
    Hot paths (scans, maintenance) use the explicit protocol instead::

        with handle.pinned(counters) as tile:
            ...  # the payload cannot be evicted in here
    """

    __slots__ = ("header", "first_row", "uid", "table", "owner", "dirty",
                 "_tile", "_segment", "_store", "_pins", "_nbytes",
                 "_load_lock", "__weakref__")

    def __init__(self, header, first_row: int, store: "TileStore",
                 table: str = "", *, tile: Optional[Tile] = None,
                 segment=None, dirty: bool = False):
        self.header = header
        self.first_row = first_row
        self.table = table
        #: the owning Relation (set by ``Relation.adopt_tile``); the
        #: store fires ``evict`` events through it for health tracking
        self.owner = None
        self.dirty = dirty
        self._store = store
        self._segment = segment
        self._tile = tile
        self._pins = 0
        self._load_lock = threading.Lock()
        if tile is not None:
            self.uid = tile.uid
            self._nbytes = tile_nbytes(tile)
        else:
            self.uid = new_tile_uid()
            self._nbytes = segment.nbytes if segment is not None else 0
        store._register(self)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def wrap(cls, tile: Tile, store: "TileStore",
             table: str = "") -> "TileHandle":
        """Handle for a freshly built in-memory tile (seal, bulk load,
        recompute).  Dirty: no on-disk copy exists, never evicted."""
        return cls(tile.header, tile.first_row, store, table,
                   tile=tile, dirty=True)

    @classmethod
    def stored(cls, header, first_row: int, segment, store: "TileStore",
               table: str = "") -> "TileHandle":
        """Handle over an on-disk tile segment; payload loads lazily."""
        return cls(header, first_row, store, table, segment=segment)

    # ------------------------------------------------------------------
    # resident metadata

    @property
    def tile_number(self) -> int:
        return self.header.tile_number

    @property
    def row_count(self) -> int:
        return self.header.row_count

    @property
    def resident(self) -> bool:
        return self._tile is not None

    @property
    def pin_count(self) -> int:
        return self._pins

    @property
    def store(self) -> "TileStore":
        """The residency manager this handle is charged to."""
        return self._store

    @property
    def nbytes(self) -> int:
        """Payload bytes this handle charges against the budget while
        resident (the segment's decoded payload size for paged tiles,
        an in-memory estimate for dirty ones)."""
        return self._nbytes

    @property
    def disk_bytes(self) -> int:
        """Stored (compressed) bytes of the clean on-disk copy (0 while
        dirty)."""
        if self.dirty or self._segment is None:
            return 0
        return self._segment.disk_bytes

    # ------------------------------------------------------------------
    # pin protocol

    def pin(self, counters=None) -> Tile:
        """Materialize the payload (loading from disk if needed) and
        protect it from eviction until :meth:`unpin`.  *counters*, when
        given, receives ``tile_loads`` / ``tile_evictions`` increments
        (the scan's observability hooks)."""
        return self._store.pin(self, counters)

    def unpin(self) -> None:
        self._store.unpin(self)

    @contextmanager
    def pinned(self, counters=None):
        tile = self.pin(counters)
        try:
            yield tile
        finally:
            self.unpin()

    def peek(self) -> Optional[Tile]:
        """The resident payload, or None — never triggers a load."""
        return self._tile

    def mark_dirty(self) -> None:
        """The payload is about to diverge from its on-disk segment
        (in-place update): block eviction until the next checkpoint
        re-binds the handle.  Must be called while pinned."""
        self._store.mark_dirty(self)

    def rebind(self, segment) -> None:
        """A checkpoint wrote this tile into a fresh snapshot: point
        the handle at the new segment and make it clean (evictable)."""
        self._store.rebind(self, segment)

    def _materialize(self) -> Tile:
        """Load without holding a pin (compat proxies below); the
        returned Tile stays valid for the caller by ordinary reference
        even if the handle is evicted afterwards."""
        tile = self.pin()
        self.unpin()
        return tile

    # ------------------------------------------------------------------
    # Tile compatibility surface (read paths; loads on demand)

    @property
    def columns(self):
        return self._materialize().columns

    @property
    def heap(self):
        return self._materialize().heap

    def column(self, path):
        return self._materialize().column(path)

    def row_ids(self):
        return self._materialize().row_ids()

    def size_bytes(self, shared_strings: bool = False) -> int:
        return self._materialize().size_bytes(shared_strings)

    def jsonb_size_bytes(self) -> int:
        return self._materialize().jsonb_size_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dirty" if self.dirty else \
            ("resident" if self.resident else "paged-out")
        return (f"<TileHandle {self.table}#{self.tile_number} "
                f"rows={self.row_count} {state} pins={self._pins}>")


def tile_nbytes(tile: Tile) -> int:
    """Budget charge of an in-memory tile: its JSONB heap's rows +
    standalone column footprint.  A ``.jtile`` file records it per
    tile, so a paged tile is charged the same before and after a
    checkpoint."""
    return tile.heap.payload_bytes() + tile.size_bytes()


class TileStore:
    """Process-wide byte-budgeted residency manager for tile payloads.

    One LRU covers every relation's paged tiles; the resolved-column
    cache shares the same budget (it is shrunk under pressure, and its
    inserts call back into :meth:`enforce`).  ``budget_bytes=None``
    disables eviction entirely — the fully-resident legacy behavior.
    """

    #: fraction of the budget the resolved-column cache may occupy
    #: before raw tile bytes push it out (derived data yields first)
    CACHE_SHARE = 4

    def __init__(self, budget_bytes: Optional[int] = None,
                 cache: Optional[ResolvedTileCache] = None):
        # RLock: weakref finalizers may fire on this thread mid-section
        self._lock = threading.RLock()
        #: id(handle) -> (weakref, charged_bytes); insertion order = LRU
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._resident_bytes = 0
        self.budget_bytes = budget_bytes
        self.cache = cache if cache is not None else GLOBAL_TILE_CACHE
        self.loads = 0
        self.load_bytes = 0
        self.evictions = 0
        self.evicted_bytes = 0
        #: handles explicitly released by recompute/reorganize/compact
        #: (distinct from budget evictions: a discarded handle's old
        #: payload can never be served again)
        self.discards = 0
        self.peak_resident_bytes = 0
        self.evictions_by_table: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # registration / accounting

    def _register(self, handle: TileHandle) -> None:
        """Called from TileHandle.__init__; resident (dirty/wrapped)
        handles are charged immediately, paged ones on first load."""
        if handle._tile is None:
            return
        with self._lock:
            self._charge_locked(handle)
            self._note_peak_locked()

    def _charge_locked(self, handle: TileHandle) -> None:
        key = id(handle)
        if key in self._entries:
            return
        ref = weakref.ref(handle, self._make_finalizer(key, handle._nbytes))
        self._entries[key] = (ref, handle._nbytes)
        self._resident_bytes += handle._nbytes

    def _make_finalizer(self, key: int, nbytes: int):
        def finalize(_ref, store_ref=weakref.ref(self)):
            store = store_ref()
            if store is None:
                return
            with store._lock:
                entry = store._entries.pop(key, None)
                if entry is not None:
                    store._resident_bytes -= entry[1]
        return finalize

    def _drop_locked(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._resident_bytes -= entry[1]

    def _note_peak_locked(self) -> None:
        if self._resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident_bytes

    # ------------------------------------------------------------------
    # pin / unpin

    def pin(self, handle: TileHandle, counters=None) -> Tile:
        with self._lock:
            tile = handle._tile
            if tile is not None:
                handle._pins += 1
                if id(handle) in self._entries:
                    self._entries.move_to_end(id(handle))
                return tile
        # Not resident: load outside the store lock so disk reads never
        # serialize the whole process; the per-handle lock dedups
        # concurrent loaders of the same tile.
        with handle._load_lock:
            with self._lock:
                if handle._tile is not None:
                    handle._pins += 1
                    if id(handle) in self._entries:
                        self._entries.move_to_end(id(handle))
                    return handle._tile
                segment = handle._segment
            if segment is None:
                raise StorageError(
                    f"tile {handle.table}#{handle.tile_number} has neither "
                    f"a resident payload nor a backing segment (discarded?)")
            tile = segment.load(handle.header, handle.first_row)
            tile.uid = handle.uid  # stable identity across reloads
            evicted: List[TileHandle] = []
            with self._lock:
                handle._tile = tile
                handle._nbytes = segment.nbytes
                handle._pins += 1
                self._charge_locked(handle)
                self.loads += 1
                self.load_bytes += handle._nbytes
                evicted = self._enforce_locked()
                self._note_peak_locked()
        if counters is not None:
            counters.tile_loads += 1
            counters.tile_evictions += len(evicted)
        self._notify_evicted(evicted)
        return tile

    def unpin(self, handle: TileHandle) -> None:
        evicted: List[TileHandle] = []
        with self._lock:
            if handle._pins > 0:
                handle._pins -= 1
            if self._over_budget_locked():
                # pins released now may unblock a deferred eviction
                evicted = self._enforce_locked()
        self._notify_evicted(evicted)

    def touch(self, handle: TileHandle) -> Tile:
        """Materialize without a lasting pin (compat accessors)."""
        tile = self.pin(handle)
        self.unpin(handle)
        return tile

    # ------------------------------------------------------------------
    # dirty / rebind / discard

    def mark_dirty(self, handle: TileHandle) -> None:
        with self._lock:
            handle.dirty = True

    def rebind(self, handle: TileHandle, segment) -> None:
        evicted: List[TileHandle] = []
        with self._lock:
            handle._segment = segment
            handle.dirty = False
            key = id(handle)
            if key in self._entries:
                # re-charge at the segment's decoded size so paged
                # accounting is uniform whether a tile was loaded or
                # survived from its dirty incarnation
                ref, old = self._entries[key]
                self._entries[key] = (ref, segment.nbytes)
                self._resident_bytes += segment.nbytes - old
            handle._nbytes = segment.nbytes
            evicted = self._enforce_locked()
        self._notify_evicted(evicted)

    def discard(self, handle: TileHandle) -> None:
        """A handle left its relation (drop table, replica reload):
        release its accounting and its payload reference."""
        with self._lock:
            self._drop_locked(id(handle))
            handle._tile = None
            handle._segment = None
            handle.dirty = False
            self.discards += 1

    def retire(self, handle: TileHandle, payload=None) -> None:
        """Like :meth:`discard`, but keeps the payload readable.

        The handle left its relation (LSM merge, recompute,
        reorganize) yet a reader that enumerated an older manifest
        snapshot may still pin it.  The payload is re-attached from
        *payload* (the Tile the replacer drained, if it kept one) or
        loaded now — while the backing segment is still valid — then
        the residency charge and the segment binding are dropped.  The
        handle can no longer be evicted (it has no store entry) or
        reloaded (the next checkpoint may overwrite its segment's
        file); its bytes are freed with the last snapshot reference.
        """
        with handle._load_lock:
            with self._lock:
                tile = handle._tile
                segment = handle._segment
            if tile is None and payload is not None:
                tile = payload
            if tile is None and segment is not None:
                tile = segment.load(handle.header, handle.first_row)
                tile.uid = handle.uid
            with self._lock:
                if handle._tile is None:
                    handle._tile = tile
                self._drop_locked(id(handle))
                handle._segment = None
                handle.dirty = False
                self.discards += 1

    def discard_table(self, table: str) -> int:
        """Drop every resident entry of one table (drop table, server
        reload).  Returns the number of entries released."""
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                ref, _nbytes = self._entries[key]
                handle = ref()
                if handle is None:
                    self._drop_locked(key)
                    continue
                if handle.table == table:
                    self._drop_locked(key)
                    handle._tile = None
                    handle._segment = None
                    handle.dirty = False
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # budget enforcement

    def set_budget(self, budget_bytes: Optional[int]) -> None:
        evicted: List[TileHandle] = []
        with self._lock:
            self.budget_bytes = budget_bytes
            evicted = self._enforce_locked()
        self._notify_evicted(evicted)

    def set_budget_mb(self, megabytes: Optional[float]) -> None:
        self.set_budget(None if megabytes is None or megabytes <= 0
                        else int(megabytes * 2**20))

    def pin_capacity(self, nbytes: int) -> Optional[int]:
        """How many payloads of *nbytes* the budget holds pinned at
        once (at least one), or ``None`` without a budget.  Pinned
        tiles are exempt from eviction, so concurrent pins beyond this
        push residency past the budget."""
        if self.budget_bytes is None:
            return None
        return max(1, self.budget_bytes // max(1, nbytes))

    def _over_budget_locked(self) -> bool:
        return (self.budget_bytes is not None
                and self._resident_bytes + self.cache.used_bytes
                > self.budget_bytes)

    def _enforce_locked(self) -> List[TileHandle]:
        """Bring resident tile bytes + cached column bytes back under
        the budget.  Order: cap the cache at its share, evict clean
        unpinned tiles LRU-first, then shrink the cache further.
        Pinned and dirty tiles are never touched — with only those
        left, the store stays over budget rather than corrupt."""
        if self.budget_bytes is None:
            return []
        cache_cap = self.budget_bytes // self.CACHE_SHARE
        if self.cache.used_bytes > cache_cap:
            self.cache.shrink_to(cache_cap)
        evicted: List[TileHandle] = []
        if self._over_budget_locked():
            for key in list(self._entries):
                if not self._over_budget_locked():
                    break
                ref, nbytes = self._entries[key]
                handle = ref()
                if handle is None:
                    self._drop_locked(key)
                    continue
                if handle._pins > 0 or handle.dirty \
                        or handle._segment is None:
                    continue
                self._drop_locked(key)
                handle._tile = None
                self.evictions += 1
                self.evicted_bytes += nbytes
                self.evictions_by_table[handle.table] = \
                    self.evictions_by_table.get(handle.table, 0) + 1
                evicted.append(handle)
        if self._over_budget_locked():
            self.cache.shrink_to(
                max(0, self.budget_bytes - self._resident_bytes))
        return evicted

    def enforce(self) -> None:
        """Re-check the budget (the resolved-column cache calls this
        after it grew; lock order is always store -> cache)."""
        with self._lock:
            evicted = self._enforce_locked()
        self._notify_evicted(evicted)

    def _notify_evicted(self, evicted: List[TileHandle]) -> None:
        """Fire owner ``evict`` events outside the store lock (hooks
        may be arbitrary observers; Relation swallows their errors)."""
        for handle in evicted:
            owner = handle.owner
            if owner is not None:
                owner._fire_event("evict", handle)

    # ------------------------------------------------------------------
    # observability

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def stats(self) -> Dict[str, object]:
        with self._lock:
            pinned = dirty = live = 0
            for ref, _nbytes in self._entries.values():
                handle = ref()
                if handle is None:
                    continue
                live += 1
                if handle._pins > 0:
                    pinned += 1
                if handle.dirty:
                    dirty += 1
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self._resident_bytes,
                "resident_tiles": live,
                "pinned_tiles": pinned,
                "dirty_tiles": dirty,
                "loads": self.loads,
                "load_bytes": self.load_bytes,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "discards": self.discards,
                "peak_resident_bytes": self.peak_resident_bytes,
                "evictions_by_table": dict(self.evictions_by_table),
            }

    def reset_stats(self) -> None:
        with self._lock:
            self.loads = self.load_bytes = 0
            self.evictions = self.evicted_bytes = 0
            self.peak_resident_bytes = self._resident_bytes
            self.evictions_by_table = {}


def _default_budget() -> Optional[int]:
    """Budget from ``REPRO_MEMORY_MB`` (default: unlimited — the
    fully-resident behavior every embedded user already has)."""
    raw = os.environ.get("REPRO_MEMORY_MB", "")
    try:
        value = float(raw)
    except ValueError:
        return None
    if value <= 0:
        return None
    return int(value * 2**20)


#: the process-wide residency manager; shares its budget with the
#: resolved-column cache below
GLOBAL_TILE_STORE = TileStore(_default_budget(), cache=GLOBAL_TILE_CACHE)
GLOBAL_TILE_CACHE.attach_overseer(GLOBAL_TILE_STORE.enforce)
