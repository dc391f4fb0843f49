"""Differential suite for late materialization (DESIGN.md §9).

The selection-vector scan must be invisible in results: every query of
the twitter / yelp / TPC-H workloads returns bit-identical rows as
planned and with every conjunct forced late — the empty-early-set case
of the same scan, where every row is decoded and then filtered
(``tests/reference_scans.py``) — serial and parallel, with LSM
compaction forced on vs left off.  The counters prove the selection
vector actually engaged (``fallback_rows_skipped`` > 0 on selective
queries that project fallback paths), including on tiles with
type-conflicted columns.  Tile-level zone maps are exercised on
LSM-merged tiles, the shape where a single tile spans many
canonical-chop blocks.
"""

import struct

import pytest

from repro import (
    Database,
    ExtractionConfig,
    LsmConfig,
    QueryOptions,
    StorageFormat,
)
from repro.engine.scan import RangePrune
from repro.lsm import plan_compactions
from repro.workloads import twitter, yelp
from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpch import make_database as make_tpch
from tests.reference_scans import all_conjuncts_late

CONFIG = ExtractionConfig(tile_size=128, partition_size=4)


def bits(value):
    """A bit-exact comparison key (floats by their IEEE bytes)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_bit_identical(reference, candidate, context=""):
    assert reference.columns == candidate.columns, context
    assert len(reference.rows) == len(candidate.rows), context
    for row_r, row_c in zip(reference.rows, candidate.rows):
        assert [bits(v) for v in row_r] == [bits(v) for v in row_c], \
            f"{context}: {row_r!r} != {row_c!r}"


def run_on_off(db, sql, batch_rows=64, parallelism=1, **kwargs):
    """Execute as planned (*on*) and with every conjunct late (*off*);
    rows must match bit for bit.  Returns ``(on, off)`` for counter
    assertions."""
    options = QueryOptions(batch_rows=batch_rows, parallelism=parallelism,
                           **kwargs)
    on = db.sql(sql, options)
    with all_conjuncts_late():
        off = db.sql(sql, options)
    assert_bit_identical(off, on, sql)
    return on, off


def force_compact(relation, config=None):
    """Compact until the planner runs dry; returns the merge count."""
    config = config or LsmConfig(enabled=True, fanout=4, max_level=2)
    merges = 0
    while True:
        candidates = plan_compactions(relation, config)
        progress = False
        for candidate in candidates:
            if relation.compact_tiles(candidate.start_number,
                                      candidate.count):
                progress = True
                merges += 1
        if not progress:
            return merges


# ----------------------------------------------------------------------
# workload differentials: planned vs all-late x parallelism x LSM


class TestYelpLatemat:
    @pytest.fixture(scope="class")
    def db(self):
        return yelp.make_database(160, StorageFormat.TILES, CONFIG)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_all_queries_bit_identical(self, db, parallelism):
        for _number, sql in yelp.YELP_QUERIES.items():
            run_on_off(db, sql, parallelism=parallelism)

    def test_compacted_bit_identical(self):
        db = yelp.make_database(160, StorageFormat.TILES,
                                ExtractionConfig(tile_size=32,
                                                 partition_size=4))
        assert force_compact(db.tables["yelp"]) > 0
        for parallelism in (1, 4):
            for _number, sql in yelp.YELP_QUERIES.items():
                run_on_off(db, sql, parallelism=parallelism)


class TestTwitterLatemat:
    @pytest.fixture(scope="class")
    def db(self):
        return twitter.make_database(400, StorageFormat.TILES, CONFIG)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_all_queries_bit_identical(self, db, parallelism):
        for _number, sql in twitter.TWITTER_QUERIES.items():
            run_on_off(db, sql, parallelism=parallelism)

    def test_compacted_bit_identical(self):
        db = twitter.make_database(400, StorageFormat.TILES,
                                   ExtractionConfig(tile_size=64,
                                                    partition_size=4))
        assert force_compact(db.tables["tweets"]) > 0
        for parallelism in (1, 4):
            for _number, sql in twitter.TWITTER_QUERIES.items():
                run_on_off(db, sql, parallelism=parallelism)


class TestTpchLatemat:
    @pytest.fixture(scope="class")
    def db(self):
        return make_tpch(0.002, StorageFormat.TILES,
                         ExtractionConfig(tile_size=256, partition_size=4),
                         combined=True)

    @pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
    def test_query_bit_identical(self, db, query):
        run_on_off(db, TPCH_QUERIES[query])
        run_on_off(db, TPCH_QUERIES[query], parallelism=4)


# ----------------------------------------------------------------------
# counters: the selection vector engages and skips work


def _selective_db(num_rows=512, tile_size=128):
    """Every row has an extracted int ``k`` plus four paths that stay
    below the 60 % threshold in rotation, forcing fallback decodes.

    Reordering is off: §3.2 would group each ``fb*`` key into a tile of
    its own, where the header's row spans answer the other three keys
    NULL without any decode — nothing would be left for the selection
    vector to spare.  In load order every ``fb*`` key spans each tile."""
    rows = []
    for i in range(num_rows):
        doc = {"k": i, "v": float(i) / 4}
        # each fb column is present in 25 % of rows: never extracted
        doc[f"fb{i % 4}"] = f"payload-{i}"
        rows.append(doc)
    db = Database(StorageFormat.TILES,
                  ExtractionConfig(tile_size=tile_size, partition_size=4,
                                   enable_reordering=False))
    db.load_table("t", rows)
    return db


SELECTIVE_SQL = (
    "select t.data->>'k'::int as k, t.data->>'fb0' as a, "
    "t.data->>'fb1' as b, t.data->>'fb2' as c, t.data->>'fb3' as d "
    "from t t where t.data->>'k'::int < 16 order by k")


class TestCounters:
    def test_fallback_rows_skipped_on_selective_query(self):
        db = _selective_db()
        on, off = run_on_off(db, SELECTIVE_SQL, batch_rows=4096)
        assert len(on.rows) == 16
        # 512 rows x 4 fallback paths; only 16 rows survive the early
        # conjunct, and whole tiles past k=127 are zone-map skipped
        assert on.counters.fallback_rows_skipped > 0
        assert on.counters.fallback_lookups < off.counters.fallback_lookups
        assert off.counters.fallback_rows_skipped == 0

    def test_unselective_predicate_skips_nothing(self):
        db = _selective_db()
        on, _off = run_on_off(
            db, "select t.data->>'k'::int as k, t.data->>'fb0' as a "
                "from t t where t.data->>'k'::int >= 0 order by k",
            batch_rows=4096)
        assert len(on.rows) == 512
        assert on.counters.fallback_rows_skipped == 0

    def test_cache_keeps_keys_selection_independent(self):
        # with the resolved-tile cache on, a miss decodes the full tile
        # (so any later slice hits), hence no decode is skipped — the
        # counter stays honest at 0 — but results are identical and the
        # second run is served from cache
        from repro.storage.tile_cache import GLOBAL_TILE_CACHE

        GLOBAL_TILE_CACHE.clear()
        db = _selective_db()
        cached = QueryOptions(tile_cache=True, batch_rows=4096)
        first = db.sql(SELECTIVE_SQL, cached)
        assert first.counters.fallback_rows_skipped == 0
        assert first.counters.cache_misses > 0
        second = db.sql(SELECTIVE_SQL, cached)
        assert second.counters.cache_hits > 0
        assert_bit_identical(first, second)
        with all_conjuncts_late():
            eager = db.sql(SELECTIVE_SQL, QueryOptions(tile_cache=False,
                                                       batch_rows=4096))
        assert_bit_identical(eager, second)
        GLOBAL_TILE_CACHE.clear()

    def test_conflicted_tiles_run_the_selection_vector(self):
        # `k` is int in most rows but a string in every tenth: each
        # tile's `k` column is Section 3.4-conflicted.  The conflicts
        # are patched before the early conjunct runs, so `fb1` is
        # decoded only for the rows with k < 20 (a scan decoding every
        # row does 276 lookups: 26 patches + 250 in-span rows)
        rows = []
        for i in range(256):
            doc = {"k": str(i) if i % 10 == 0 else i}
            doc[f"fb{i % 4}"] = i
            rows.append(doc)
        db = Database(StorageFormat.TILES,
                      ExtractionConfig(tile_size=128, partition_size=4,
                                       enable_reordering=False))
        db.load_table("t", rows)
        on, off = run_on_off(
            db, "select t.data->>'k'::int as k, t.data->>'fb1'::int as b "
                "from t t where t.data->>'k'::int < 20 order by k",
            batch_rows=4096, tile_cache=False)
        assert on.rows == [(i, i if i % 4 == 1 else None)
                           for i in range(20)]
        assert off.counters.fallback_lookups == 276
        assert on.counters.fallback_rows_skipped > 0
        assert on.counters.fallback_lookups < 276

    def test_no_early_conjunct_declines(self):
        # the only conjunct references a fallback path: nothing can run
        # early, so every row of the tile is decoded
        db = _selective_db(128)
        on, _off = run_on_off(
            db, "select t.data->>'k'::int as k from t t "
                "where t.data->>'fb0' = 'payload-4'", batch_rows=4096)
        assert on.counters.fallback_rows_skipped == 0


# ----------------------------------------------------------------------
# zone maps on LSM-merged tiles


class TestBlockPruning:
    def _merged_db(self):
        """8 L0 tiles of 64 rows compacted into 2 tiles of 256 rows:
        one tile spans 4 canonical-chop blocks and one zone map."""
        rows = [{"k": i, "fb": f"p{i}" if i % 3 else None}
                for i in range(512)]
        db = Database(StorageFormat.TILES,
                      ExtractionConfig(tile_size=64, partition_size=4,
                                       enable_reordering=False))
        db.load_table("t", rows)
        assert force_compact(db.tables["t"]) > 0
        assert any(tile.row_count > 64
                   for tile in db.tables["t"].manifest().tiles)
        return db

    def test_pruning_off_with_zone_maps_disabled(self):
        db = self._merged_db()
        sql = ("select t.data->>'k'::int as k from t t "
               "where t.data->>'k'::int < 20 order by k")
        result = db.sql(sql, QueryOptions(enable_zone_maps=False,
                                          batch_rows=64))
        assert result.counters.tiles_skipped == 0
        assert len(result.rows) == 20
        pruned = db.sql(sql, QueryOptions(batch_rows=64))
        assert pruned.counters.tiles_skipped == 1
        assert pruned.rows == result.rows

    def test_update_widens_block_bounds(self):
        db = self._merged_db()
        relation = db.tables["t"]
        # move a huge key into the first block of the first tile: the
        # tile's bounds must widen, so k=9999 is still found
        relation.update(3, {"k": 9999, "fb": "patched"})
        sql = ("select t.data->>'k'::int as k from t t "
               "where t.data->>'k'::int > 5000")
        on, _off = run_on_off(db, sql, batch_rows=64)
        assert [row[0] for row in on.rows] == [9999]

    def test_range_prune_incomparable_bounds_never_prunes(self):
        prune = RangePrune(path=None, op="<", value=10)
        assert prune.excludes(50, 99) is True
        assert prune.excludes("a", "z") is False  # int vs str: keep
        assert RangePrune(None, "=", "x").excludes(1, 2) is False
        assert RangePrune(None, ">", None).excludes(1, 2) is False


# ----------------------------------------------------------------------
# expression satellites


class TestExpressionSatellites:
    def _load(self, rows):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", rows)
        return db

    def test_less_than_on_nullable_object_column(self):
        # `->` projections build object columns; rows lacking `a` give
        # NULL slots.  The placeholder fill must be type-appropriate:
        # an empty string against int payloads raised TypeError before
        rows = [{"a": i, "b": i * 2} if i % 3 else {"b": 1}
                for i in range(64)]
        db = self._load(rows)
        result = db.sql("select count(*) as n from t t "
                        "where t.data->'a' < t.data->'b'")
        expected = sum(1 for i in range(64) if i % 3 and i < i * 2)
        assert result.rows[0][0] == expected

    def test_all_null_object_side_uses_other_side_placeholder(self):
        rows = [{"b": i} for i in range(32)]
        db = self._load(rows)
        result = db.sql("select count(*) as n from t t "
                        "where t.data->'a' < t.data->'b'")
        assert result.rows[0][0] == 0

    def test_like_on_nullable_column(self):
        rows = [{"s": f"user-{i}"} if i % 2 else {"x": i}
                for i in range(100)]
        db = self._load(rows)
        result = db.sql("select count(*) as n from t t "
                        "where t.data->>'s' like 'user-1%'")
        expected = sum(1 for i in range(100)
                       if i % 2 and f"user-{i}".startswith("user-1"))
        assert result.rows[0][0] == expected
        negated = db.sql("select count(*) as n from t t "
                         "where t.data->>'s' not like 'user-1%'")
        assert negated.rows[0][0] == 50 - expected

    def test_in_list_on_nullable_column(self):
        rows = [{"s": f"t{i % 7}"} if i % 2 else {"x": i}
                for i in range(100)]
        db = self._load(rows)
        result = db.sql("select count(*) as n from t t "
                        "where t.data->>'s' in ('t1', 't3')")
        expected = sum(1 for i in range(100)
                       if i % 2 and (i % 7) in (1, 3))
        assert result.rows[0][0] == expected
        negated = db.sql("select count(*) as n from t t "
                         "where t.data->>'s' not in ('t1', 't3')")
        assert negated.rows[0][0] == 50 - expected
