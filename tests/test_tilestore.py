"""Tests for the out-of-core tile residency layer (repro.storage.tilestore).

Covers the TileHandle pin/unpin protocol, LRU eviction under a byte
budget, the never-evict rules (pinned, dirty), checkpoint rebinding,
weakref byte accounting, and the budget shared with the resolved-column
cache.
"""

import gc

import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.errors import StorageError
from repro.storage.persist import load_relation, save_relation
from repro.storage.tile_cache import GLOBAL_TILE_CACHE, ResolvedTileCache
from repro.storage.tilestore import (
    GLOBAL_TILE_STORE,
    TileHandle,
    TileStore,
    _default_budget,
)

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def tweets(n):
    return [{"id": i, "text": f"tweet number {i} " * 4,
             "user": {"id": i % 17}, "score": float(i) / 3}
            for i in range(n)]


def make_paged_relation(tmp_path, n=128, budget=None, name="t"):
    """Build, checkpoint and reload a relation whose tiles page in and
    out of a private store."""
    db = Database(StorageFormat.TILES, CONFIG)
    relation = db.load_table(name, tweets(n))
    path = tmp_path / f"{name}.jtile"
    save_relation(relation, path)
    store = TileStore(budget, cache=ResolvedTileCache())
    return load_relation(path, store=store), store


@pytest.fixture
def global_store():
    """Hand out the process-wide store; undo any budget the test set."""
    GLOBAL_TILE_CACHE.clear()
    try:
        yield GLOBAL_TILE_STORE
    finally:
        GLOBAL_TILE_STORE.set_budget(None)
        GLOBAL_TILE_STORE.reset_stats()


class TestTileHandle:
    def test_bulk_loaded_handles_are_dirty_and_resident(self):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        assert all(isinstance(h, TileHandle) for h in relation.tiles)
        assert all(h.dirty and h.resident for h in relation.tiles)
        assert all(h.disk_bytes == 0 for h in relation.tiles)

    def test_reloaded_relation_pages_lazily(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        assert len(relation.tiles) == 4
        assert not any(h.resident for h in relation.tiles)
        assert store.resident_bytes == 0
        # headers are resident without any load
        assert relation.row_count == 128
        assert relation.tiles[0].header.columns
        assert store.loads == 0

    def test_pin_materializes_and_protects(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        with handle.pinned() as tile:
            assert handle.resident
            assert handle.pin_count == 1
            assert tile.row_count == handle.row_count
        assert handle.pin_count == 0
        assert handle.resident  # unlimited budget: stays resident
        assert store.loads == 1
        assert store.resident_bytes == handle.nbytes > 0

    def test_compat_proxies_load_on_demand(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        assert handle.peek() is None
        columns = handle.columns
        assert columns  # the Tile surface works through the handle
        assert handle.peek() is not None
        assert handle.size_bytes() > 0

    def test_pin_after_discard_raises(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        store.discard(handle)
        with pytest.raises(StorageError):
            handle.pin()


class TestEviction:
    def test_lru_keeps_resident_bytes_under_budget(self, tmp_path):
        probe, _ = make_paged_relation(tmp_path, name="probe")
        tile_bytes = max(h.nbytes for h in probe.tiles)
        budget = int(tile_bytes * 2.5)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        for handle in relation.tiles:
            with handle.pinned():
                pass
            assert store.resident_bytes <= budget
        stats = store.stats()
        assert stats["evictions"] > 0
        assert stats["peak_resident_bytes"] <= budget
        assert sum(1 for h in relation.tiles if h.resident) < \
            len(relation.tiles)

    def test_lru_order_evicts_coldest_first(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        # re-touch tile 0 so tile 1 is the LRU victim
        with relation.tiles[0].pinned():
            pass
        store.set_budget(store.resident_bytes - 1)
        assert not relation.tiles[1].resident
        assert relation.tiles[0].resident

    def test_evicted_tile_reloads_bit_identical(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        before = list(relation.documents())
        uids = [h.uid for h in relation.tiles]
        store.set_budget(1)  # evict everything evictable
        assert store.resident_bytes == 0
        store.set_budget(None)
        assert list(relation.documents()) == before
        # handle identity is stable across the evict/reload cycle
        assert [h.uid for h in relation.tiles] == uids

    def test_pinned_tiles_never_evicted(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        victim = relation.tiles[0]
        tile = victim.pin()
        store.set_budget(1)
        assert victim.resident
        assert victim.peek() is tile
        assert store.resident_bytes == victim.nbytes  # only the pin survives
        victim.unpin()
        assert not victim.resident  # released pin unblocked the eviction
        store.set_budget(None)

    def test_dirty_tiles_never_evicted(self):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        store = TileStore(cache=ResolvedTileCache())
        handles = [TileHandle.wrap(h.peek(), store, "t")
                   for h in relation.tiles]
        store.set_budget(1)
        assert all(h.resident for h in handles)
        assert store.stats()["evictions"] == 0
        assert store.resident_bytes > 1  # over budget rather than corrupt

    def test_mark_dirty_blocks_eviction(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        with handle.pinned():
            handle.mark_dirty()
        store.set_budget(1)
        assert handle.resident
        assert handle.disk_bytes == 0  # the segment is stale now

    def test_rebind_after_save_makes_handles_evictable(
            self, tmp_path, global_store):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        assert all(h.dirty for h in relation.tiles)
        save_relation(relation, tmp_path / "t.jtile")
        assert not any(h.dirty for h in relation.tiles)
        assert all(h.disk_bytes > 0 for h in relation.tiles)
        before = list(relation.documents())
        global_store.set_budget(1)
        assert not any(h.resident for h in relation.tiles)
        global_store.set_budget(None)
        assert list(relation.documents()) == before

    def test_update_marks_dirty_until_next_checkpoint(
            self, tmp_path, global_store):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        relation.update(0, {"patched": True})
        touched = relation.tile_of_row(0)
        assert touched.dirty
        global_store.set_budget(1)
        assert touched.resident  # the only copy of the update
        global_store.set_budget(None)
        save_relation(relation, path)
        assert not touched.dirty
        assert load_relation(path).document(0)["patched"] is True


class TestAccounting:
    def test_weakrefs_release_dropped_relations(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        assert store.resident_bytes > 0
        del relation, handle
        gc.collect()
        assert store.resident_bytes == 0
        assert store.stats()["resident_tiles"] == 0

    def test_discard_table_releases_everything(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        dropped = store.discard_table(relation.name)
        assert dropped == len(relation.tiles)
        assert store.resident_bytes == 0

    def test_load_and_eviction_counters(self, tmp_path):
        probe, _ = make_paged_relation(tmp_path, name="probe")
        budget = int(max(h.nbytes for h in probe.tiles) * 1.5)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        stats = store.stats()
        assert stats["loads"] == len(relation.tiles)
        assert stats["load_bytes"] > 0
        assert stats["evictions_by_table"].get("t", 0) > 0
        store.reset_stats()
        assert store.stats()["loads"] == 0
        assert store.stats()["peak_resident_bytes"] == store.resident_bytes

    def test_eviction_fires_relation_event(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        events = []
        relation.add_event_hook(
            lambda event, rel, payload: events.append((event, payload)))
        for handle in relation.tiles:
            with handle.pinned():
                pass
        store.set_budget(1)
        evicted = [payload for event, payload in events if event == "evict"]
        assert len(evicted) == len(relation.tiles)
        assert all(payload.pin_count == 0 for payload in evicted)


class TestSharedBudget:
    def test_cache_capped_at_its_share(self, tmp_path):
        relation, store = make_paged_relation(tmp_path, budget=1_000_000)
        cache = store.cache
        # fill the cache past a quarter of the budget
        tile = relation.tiles[0]
        with tile.pinned() as payload:
            path = next(iter(payload.columns))
            vector = payload.column(path)
        import repro.storage.tile_cache as tc
        size = tc._vector_bytes(vector)
        for i in range(1_000_000 // (4 * max(size, 1)) + 2):
            cache.store(tc.make_key("t", i, path, None, False), vector)
        store.enforce()
        assert cache.used_bytes <= store.budget_bytes // TileStore.CACHE_SHARE

    def test_cache_overseer_evicts_tiles_for_cache_growth(self, tmp_path):
        relation, store = make_paged_relation(tmp_path, budget=None)
        cache = store.cache
        cache.attach_overseer(store.enforce)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        store.budget_bytes = store.resident_bytes + 64
        tile = relation.tiles[0]
        with tile.pinned() as payload:
            path = next(iter(payload.columns))
            vector = payload.column(path)
        import repro.storage.tile_cache as tc
        cache.store(tc.make_key("t", 1, path, None, False), vector)
        # the insert pushed the pool over budget; the overseer paged
        # tiles out to make room
        assert store.resident_bytes + cache.used_bytes <= store.budget_bytes


class TestBudgetConfiguration:
    def test_set_budget_mb(self):
        store = TileStore(cache=ResolvedTileCache())
        store.set_budget_mb(2.5)
        assert store.budget_bytes == int(2.5 * 2**20)
        store.set_budget_mb(0)
        assert store.budget_bytes is None
        store.set_budget_mb(None)
        assert store.budget_bytes is None

    def test_env_budget_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_MB", "16")
        assert _default_budget() == 16 * 2**20
        monkeypatch.setenv("REPRO_MEMORY_MB", "0")
        assert _default_budget() is None
        monkeypatch.setenv("REPRO_MEMORY_MB", "junk")
        assert _default_budget() is None
        monkeypatch.delenv("REPRO_MEMORY_MB")
        assert _default_budget() is None


class TestQueriesOverPagedTiles:
    QUERY = ("select count(*) as n, sum(t.data->>'score'::float) as s "
             "from t t where t.data->'user'->>'id'::int >= 3")

    def test_results_match_fully_resident(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        resident = db.load_table("t", tweets(128))
        expected = db.sql(self.QUERY).rows

        probe, _ = make_paged_relation(tmp_path, name="probe")
        budget = int(max(h.nbytes for h in probe.tiles) * 2)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        paged_db = Database(StorageFormat.TILES, CONFIG)
        paged_db.register("t", relation)
        result = paged_db.sql(self.QUERY)
        assert result.rows == expected
        assert store.stats()["peak_resident_bytes"] <= budget
        assert result.counters.tile_loads == len(relation.tiles)
        assert result.counters.tile_evictions > 0

    def test_counters_absent_when_resident(self):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", tweets(64))
        result = db.sql(self.QUERY)
        assert result.counters.tile_loads == 0
        assert result.counters.tile_evictions == 0
