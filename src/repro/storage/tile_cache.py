"""A memory-bounded LRU cache of resolved tile columns.

The expensive scan path is the per-tuple JSONB fallback
(``TableScan._fallback_all``): a pure-Python traversal of every
document in a tile for one key path.  Columnar-document-store work
(Alkowaileet & Carey) observes that the *decoded columnar
representation* is the asset worth keeping — so we cache the finished
:class:`~repro.storage.column.ColumnVector` per
``(table, tile uid, key path, target type, as_text, probe)`` and serve
slices of it to every later query, sharing across the server's
concurrent connections.

Invalidation rides on tile identity: sealing, topping up the tail
tile, tile recomputation and checkpoint reload all construct *new*
``Tile`` objects with fresh ``uid``s, so their cache entries simply
become unreachable and age out.  The only in-place mutation in the
system — ``Relation.update`` swapping in a patched row heap — calls
:meth:`invalidate_tile` explicitly.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.storage.column import ColumnVector

_DEFAULT_CAPACITY_MB = 64.0

CacheKey = Tuple[str, int, Hashable, object, bool, Hashable]


def make_key(table: str, tile_uid: int, path: Hashable, target: object,
             as_text: bool, probe: Hashable = None) -> CacheKey:
    """*probe* is the access request's probe tuple: two probes on one
    path (different needles, say) resolve to different columns."""
    return (table, tile_uid, path, target, as_text, probe)


def _vector_bytes(vector: ColumnVector) -> int:
    """Approximate resident size of a cached vector.

    Object columns (strings, JSON values) charge the string payloads
    on top of the pointer array; container values are charged a flat
    estimate rather than walked.
    """
    size = vector.data.nbytes + vector.null_mask.nbytes
    if vector.data.dtype == object:
        for item in vector.data:
            if isinstance(item, str):
                size += 49 + len(item)
            elif item is not None:
                size += 64
    return size


class ResolvedTileCache:
    """Thread-safe byte-bounded LRU of resolved full-tile columns."""

    def __init__(self, capacity_bytes: int = int(_DEFAULT_CAPACITY_MB * 2**20)):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Tuple[ColumnVector, int]]" = \
            OrderedDict()
        self._bytes = 0
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: called (without the cache lock held) after inserts grew the
        #: cache — the tile store hooks in here so cached columns count
        #: against the same process-wide memory budget as raw tile bytes
        self._overseer = None

    def attach_overseer(self, overseer) -> None:
        """Register the shared-budget callback (the tile store's
        ``enforce``).  Invoked after ``store``/``store_many`` outside
        the cache lock, so the overseer may call :meth:`shrink_to`."""
        self._overseer = overseer

    # ------------------------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[ColumnVector]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def lookup_many(
            self,
            keys: Iterable[CacheKey]) -> Dict[CacheKey, ColumnVector]:
        """Probe a batch of keys under one lock acquisition; absent
        keys count a miss each and are simply omitted from the result.
        The late-materializing scan probes every fallback request of a
        tile at once to decide whether any decode pass is needed."""
        with self._lock:
            found: Dict[CacheKey, ColumnVector] = {}
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    found[key] = entry[0]
            return found

    def store(self, key: CacheKey, vector: ColumnVector) -> None:
        self.store_many([(key, vector)])

    def store_many(
            self,
            entries: Iterable[Tuple[CacheKey, ColumnVector]]) -> None:
        """Insert a batch of entries under one lock acquisition.

        The multi-path shredder resolves every fallback path of a tile
        in one decode pass and fans the results out here — one cache
        entry per (path, type) produced, so a k-path cache miss costs
        one traversal of the tile's documents instead of k.
        """
        sized = [(key, vector, size) for key, vector in entries
                 # a single oversized column would evict everything
                 if (size := _vector_bytes(vector)) <= self.capacity_bytes]
        if not sized:
            return
        with self._lock:
            for key, vector, size in sized:
                old = self._entries.pop(key, None)
                if old is not None:
                    self._bytes -= old[1]
                self._entries[key] = (vector, size)
                self._bytes += size
            while self._bytes > self.capacity_bytes and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1
        if self._overseer is not None:
            self._overseer()

    def shrink_to(self, target_bytes: int) -> int:
        """Evict LRU entries until at most *target_bytes* remain
        resident; the capacity itself is untouched (this is transient
        budget pressure, not a reconfiguration).  Returns the number
        of entries evicted."""
        evicted = 0
        with self._lock:
            while self._bytes > max(0, target_bytes) and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1
                evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # invalidation

    def invalidate_tile(self, tile_uid: int) -> int:
        """Drop every entry for one tile (in-place update path)."""
        return self._invalidate(lambda key: key[1] == tile_uid)

    def invalidate_table(self, table: str) -> int:
        """Drop every entry for one table (drop table / reload)."""
        return self._invalidate(lambda key: key[0] == table)

    def _invalidate(self, predicate) -> int:
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                _, size = self._entries.pop(key)
                self._bytes -= size
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def set_capacity(self, capacity_bytes: int) -> None:
        with self._lock:
            self.capacity_bytes = capacity_bytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    # ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = 0
            self.evictions = self.invalidations = 0


def _default_capacity() -> int:
    raw = os.environ.get("REPRO_TILE_CACHE_MB", "")
    try:
        return int(float(raw) * 2**20)
    except ValueError:
        return int(_DEFAULT_CAPACITY_MB * 2**20)


#: the process-wide cache instance; embedded engines only consult it
#: when ``QueryOptions.tile_cache`` is on (server default), so library
#: users pay nothing unless they opt in
GLOBAL_TILE_CACHE = ResolvedTileCache(_default_capacity())
