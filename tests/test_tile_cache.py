"""Resolved-tile cache: LRU bounds, hit/miss accounting, invalidation
on every mutation path (in-place update, tile recomputation, sealing,
checkpoint reload), and the stored-NULL fallback guard (Section 3.4)."""

import numpy as np
import pytest

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.plan import QueryOptions
from repro.engine.scan import AccessRequest, TableScan
from repro.server import JsonTilesServer, ServerClient
from repro.storage import StorageFormat, load_documents
from repro.storage.column import ColumnVector
from repro.storage.tile_cache import (
    GLOBAL_TILE_CACHE,
    ResolvedTileCache,
    make_key,
)
from repro.tiles import ExtractionConfig

TINY = ExtractionConfig(tile_size=32, partition_size=2)


@pytest.fixture(autouse=True)
def clean_global_cache():
    capacity = GLOBAL_TILE_CACHE.capacity_bytes
    GLOBAL_TILE_CACHE.clear()
    GLOBAL_TILE_CACHE.reset_stats()
    yield
    GLOBAL_TILE_CACHE.clear()
    GLOBAL_TILE_CACHE.set_capacity(capacity)


def int_vector(values):
    data = np.asarray(values, dtype=np.int64)
    return ColumnVector(ColumnType.INT64, data,
                        np.zeros(len(values), dtype=bool))


def request(path, target, as_text=True):
    return AccessRequest.make("t", KeyPath.parse(path), target, as_text)


def scan_values(relation, req, use_cache=True, parallelism=1):
    scan = TableScan(relation, [req], parallelism=parallelism,
                     use_cache=use_cache)
    batch = concat_batches(list(scan.batches()))
    return batch.column(req.name).to_list(), scan.counters


# ---------------------------------------------------------------------------


class TestResolvedTileCacheUnit:
    def test_lookup_miss_then_hit(self):
        cache = ResolvedTileCache(capacity_bytes=1 << 20)
        key = make_key("t", 1, "a.b", ColumnType.INT64, True)
        assert cache.lookup(key) is None
        cache.store(key, int_vector(range(10)))
        assert cache.lookup(key).to_list() == list(range(10))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_byte_bound_evicts_least_recently_used(self):
        vector = int_vector(range(100))  # 100*8 data + 100 mask bytes
        size = vector.data.nbytes + vector.null_mask.nbytes
        cache = ResolvedTileCache(capacity_bytes=size * 3)
        keys = [make_key("t", uid, "p", ColumnType.INT64, True)
                for uid in range(5)]
        for key in keys:
            cache.store(key, vector)
        assert cache.entry_count == 3
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.stats()["evictions"] == 2
        # the two oldest entries are gone, the newest three remain
        assert cache.lookup(keys[0]) is None
        assert cache.lookup(keys[4]) is not None

    def test_recently_used_entry_survives_eviction(self):
        vector = int_vector(range(100))
        size = vector.data.nbytes + vector.null_mask.nbytes
        cache = ResolvedTileCache(capacity_bytes=size * 2)
        first = make_key("t", 1, "p", ColumnType.INT64, True)
        second = make_key("t", 2, "p", ColumnType.INT64, True)
        cache.store(first, vector)
        cache.store(second, vector)
        cache.lookup(first)  # refresh: second is now the LRU entry
        cache.store(make_key("t", 3, "p", ColumnType.INT64, True), vector)
        assert cache.lookup(first) is not None
        assert cache.lookup(second) is None

    def test_oversized_vector_not_cached(self):
        cache = ResolvedTileCache(capacity_bytes=64)
        key = make_key("t", 1, "p", ColumnType.INT64, True)
        cache.store(key, int_vector(range(1000)))
        assert cache.entry_count == 0

    def test_invalidate_tile_and_table(self):
        cache = ResolvedTileCache(capacity_bytes=1 << 20)
        for table, uid in (("a", 1), ("a", 2), ("b", 1)):
            cache.store(make_key(table, uid, "p", ColumnType.INT64, True),
                        int_vector(range(4)))
        assert cache.invalidate_tile(1) == 2  # both tables' uid-1 tiles
        assert cache.entry_count == 1
        assert cache.invalidate_table("a") == 1
        assert cache.entry_count == 0
        assert cache.stats()["invalidations"] == 3

    def test_set_capacity_shrink_evicts(self):
        cache = ResolvedTileCache(capacity_bytes=1 << 20)
        for uid in range(4):
            cache.store(make_key("t", uid, "p", ColumnType.INT64, True),
                        int_vector(range(100)))
        cache.set_capacity(1)
        assert cache.entry_count == 0
        assert cache.used_bytes == 0

    def test_string_payloads_charged(self):
        vector = ColumnVector(
            ColumnType.STRING,
            np.array(["x" * 1000, None], dtype=object),
            np.array([False, True]))
        cache = ResolvedTileCache(capacity_bytes=1 << 20)
        cache.store(make_key("t", 1, "p", ColumnType.STRING, True), vector)
        assert cache.used_bytes > 1000


# ---------------------------------------------------------------------------


def rare_relation(num_rows=96):
    # "rare" appears in ~10% of documents: below the extraction
    # threshold, so every access goes through the JSONB fallback
    docs = [{"id": i, "rare": i} if i % 10 == 0 else {"id": i}
            for i in range(num_rows)]
    return load_documents("t", docs, StorageFormat.TILES, TINY)


class TestScanThroughCache:
    def test_first_scan_misses_second_hits(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        first_values, first = scan_values(relation, req)
        second_values, second = scan_values(relation, req)
        tiles = len(relation.tiles)
        assert first.cache_misses == tiles and first.cache_hits == 0
        # the miss resolves every row of every tile, but only the rows
        # inside the row span of "rare" are walked; the header answers
        # the rows outside it NULL
        assert first.fallback_lookups + first.header_nulls == \
            relation.row_count
        assert 0 < first.fallback_lookups < relation.row_count
        assert second.cache_hits == tiles and second.cache_misses == 0
        assert second.fallback_lookups == 0  # decode paid exactly once
        assert second.header_nulls == 0
        assert first_values == second_values

    def test_cache_off_never_consulted(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        values, counters = scan_values(relation, req, use_cache=False)
        assert counters.cache_misses == 0 and counters.cache_hits == 0
        assert GLOBAL_TILE_CACHE.entry_count == 0

    def test_partial_tile_slices_served_from_full_decode(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        # small batches split each tile into several morsels; the first
        # morsel decodes the whole tile, the rest hit
        scan = TableScan(relation, [req], use_cache=True)
        scan.batch_rows = 8
        batch = concat_batches(list(scan.batches()))
        assert scan.counters.cache_misses == len(relation.tiles)
        assert scan.counters.cache_hits > 0
        assert batch.column(req.name).to_list() == \
            scan_values(relation, req)[0]

    def test_parallel_scan_shares_cache(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        serial_values, _ = scan_values(relation, req, use_cache=False)
        values, counters = scan_values(relation, req, parallelism=4)
        assert values == serial_values
        assert counters.cache_misses == len(relation.tiles)


class TestInvalidation:
    def test_update_invalidates_and_serves_new_value(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        scan_values(relation, req)  # populate
        relation.update(0, {"id": 0, "rare": 999})
        values, counters = scan_values(relation, req)
        assert values[0] == 999
        assert counters.cache_misses == 1  # only the patched tile
        assert counters.cache_hits == len(relation.tiles) - 1

    def test_recompute_tile_invalidates(self):
        relation = rare_relation()
        req = request("rare", ColumnType.INT64)
        scan_values(relation, req)
        entries_before = GLOBAL_TILE_CACHE.entry_count
        relation.recompute_tile(relation.tiles[0])
        assert GLOBAL_TILE_CACHE.entry_count == entries_before - 1
        values, counters = scan_values(relation, req)
        assert values == scan_values(relation, req, use_cache=False)[0]

    def test_seal_mid_query_stream_not_stale(self):
        # queries interleaved with sealing must never read stale cache
        # entries: a new tile has a fresh uid, so its first access is a
        # miss while untouched tiles keep hitting
        relation = rare_relation(64)
        req = request("rare", ColumnType.INT64)
        scan_values(relation, req)
        old_tiles = len(relation.tiles)
        relation.insert_many(
            [{"id": 64 + i, "rare": 1000 + i} if i % 10 == 0
             else {"id": 64 + i} for i in range(32)])
        relation.flush_inserts()
        values, counters = scan_values(relation, req)
        assert values[64 + 30] == 1030  # sealed rows visible, not stale
        assert counters.cache_hits == old_tiles
        assert counters.cache_misses == len(relation.tiles) - old_tiles


class TestStoredNullGuard:
    """Section 3.4 semantics: only stored NULLs (type outliers) probe
    the JSONB; cast-introduced NULLs are genuine SQL NULLs."""

    def relation(self):
        docs = [{"v": float(i)} for i in range(30)] + \
               [{"v": "oops"}, {"v": 1e30}]
        return load_documents("t", docs, StorageFormat.TILES, TINY)

    def test_only_stored_nulls_probed(self):
        relation = self.relation()
        req = request("v", ColumnType.INT64)
        values, counters = scan_values(relation, req, use_cache=False)
        tile = relation.tile_of_row(30)
        assert tile.header.columns[KeyPath.parse("v")].has_type_conflicts
        # one probe for the "oops" outlier; the out-of-range 1e30 slot
        # is a cast-introduced NULL and is not consulted
        assert counters.fallback_lookups == 1
        assert values[:30] == list(range(30))
        assert values[30] is None  # "oops" does not parse as an int
        assert values[31] is None  # 1e30 cannot be an int64

    def test_no_stored_nulls_skips_fallback_entirely(self):
        docs = [{"v": float(i)} for i in range(30)] + [{"v": 1e30}]
        relation = load_documents("t", docs, StorageFormat.TILES, TINY)
        req = request("v", ColumnType.INT64)
        values, counters = scan_values(relation, req, use_cache=False)
        assert counters.fallback_lookups == 0
        assert values[30] is None


# ---------------------------------------------------------------------------


class TestServerCacheLifecycle:
    def make_server(self, path):
        return JsonTilesServer(path, wal_sync=False, query_workers=4,
                               parallelism=2, cache_mb=8.0)

    def test_cached_queries_and_stats(self, tmp_path):
        server = self.make_server(tmp_path / "data")
        server.start_in_thread()
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("t", "tiles",
                                    {"tile_size": 32, "partition_size": 2})
                client.insert_many(
                    "t", [{"id": i, "rare": i} if i % 10 == 0 else {"id": i}
                          for i in range(64)])
                client.flush("t")
                sql = ("select count(*) as n from t x "
                       "where x.data->>'rare'::int is not null")
                first = client.query(sql)
                second = client.query(sql)
                assert first.scalar() == second.scalar() == 7
                assert first.counters.cache_misses > 0
                assert second.counters.cache_hits > 0
                assert second.counters.cache_misses == 0

                # mid-stream seal: new tile is a miss, result not stale
                client.insert_many(
                    "t", [{"id": 64 + i, "rare": 1} if i % 4 == 0
                          else {"id": 64 + i} for i in range(32)])
                third = client.query(sql)
                assert third.scalar() == 7 + 8
                assert third.counters.cache_misses > 0

                stats = client.stats()
                assert stats["cache"]["hits"] > 0
                assert stats["cache"]["capacity_bytes"] == 8 * 2**20
                assert stats["tables"]["t"]["scan"]["queries"] == 3
                assert "utilization" in stats["pool"]
        finally:
            server.stop_in_thread()

    def test_checkpoint_reload_serves_fresh_tiles(self, tmp_path):
        data_dir = tmp_path / "data"
        server = self.make_server(data_dir)
        server.start_in_thread()
        sql = ("select sum(x.data->>'rare'::int) as s from t x")
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("t", "tiles",
                                    {"tile_size": 32, "partition_size": 2})
                client.insert_many(
                    "t", [{"id": i, "rare": i} if i % 10 == 0 else {"id": i}
                          for i in range(64)])
                before = client.query(sql).scalar()
                client.shutdown(checkpoint=True)
        finally:
            server.stop_in_thread()

        reopened = self.make_server(data_dir)
        reopened.start_in_thread()
        try:
            with ServerClient(port=reopened.port) as client:
                result = client.query(sql)
                assert result.scalar() == before
                # reloaded tiles carry fresh uids: nothing stale is hit
                assert result.counters.cache_hits == 0
                assert result.counters.cache_misses > 0
        finally:
            reopened.stop_in_thread()
