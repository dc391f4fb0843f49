"""Tests for incremental inserts (Section 3.2/4.7) and plan-time
document sampling (Section 4.6)."""

import json

import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.errors import JsonbEncodeError
from repro.storage import relation as relation_module

CONFIG = ExtractionConfig(tile_size=16, partition_size=2)


class TestIncrementalInserts:
    def make(self, storage_format=StorageFormat.TILES):
        db = Database(storage_format, CONFIG)
        relation = db.load_table("t", [{"a": i, "b": f"v{i}"}
                                       for i in range(32)])
        return db, relation

    def test_buffer_fills_then_seals_tile(self):
        _db, relation = self.make()
        assert len(relation.tiles) == 2
        for i in range(32, 47):
            relation.insert({"a": i, "b": f"v{i}"})
        assert relation.pending_inserts == 15
        assert len(relation.tiles) == 2  # not sealed yet
        relation.insert({"a": 47, "b": "v47"})
        assert relation.pending_inserts == 0
        assert len(relation.tiles) == 3  # sealed at tile_size

    def test_new_tile_is_extracted(self):
        _db, relation = self.make()
        relation.insert_many({"a": i, "b": f"v{i}"} for i in range(32, 48))
        tile = relation.tiles[-1]
        assert tile.column(KeyPath.parse("a")) is not None
        assert tile.first_row == 32
        assert tile.header.tile_number == 2

    def test_statistics_updated(self):
        _db, relation = self.make()
        before = relation.statistics.row_count
        relation.insert_many({"a": i} for i in range(16))
        assert relation.statistics.row_count == before + 16

    def test_flush_partial_buffer(self):
        _db, relation = self.make()
        relation.insert({"a": 99})
        relation.flush_inserts()
        assert relation.pending_inserts == 0
        assert relation.tiles[-1].row_count == 1
        assert relation.document(32) == {"a": 99}

    def test_flush_empty_is_noop(self):
        _db, relation = self.make()
        tiles_before = len(relation.tiles)
        relation.flush_inserts()
        assert len(relation.tiles) == tiles_before

    def test_inserted_rows_queryable(self):
        db, relation = self.make()
        relation.insert_many({"a": 1000 + i} for i in range(16))
        result = db.sql("select count(*) as n from t x "
                        "where x.data->>'a'::int >= 1000")
        assert result.scalar() == 16

    def test_text_rows_accepted(self):
        _db, relation = self.make()
        relation.insert('{"a": 77}')
        relation.flush_inserts()
        assert relation.document(relation.row_count - 1) == {"a": 77}

    def test_insert_into_json_format(self):
        db = Database(StorageFormat.JSON, CONFIG)
        relation = db.load_table("t", [{"a": 1}])
        relation.insert({"a": 2})
        assert db.sql("select count(*) as n from t x").scalar() == 2

    def test_evolving_schema_extracted_in_new_tiles(self):
        _db, relation = self.make()
        relation.insert_many(
            {"a": i, "b": "x", "geo": {"lat": float(i)}}
            for i in range(16))
        tile = relation.tiles[-1]
        assert tile.column(KeyPath.parse("geo.lat")) is not None
        # older tiles remain untouched
        assert relation.tiles[0].column(KeyPath.parse("geo.lat")) is None


class TestRefusedAndFailedInserts:
    """Acknowledged documents are never lost to a seal that fails, and
    a document no tile can store is refused before it is buffered."""

    def test_failed_seal_keeps_documents_pending(self, monkeypatch):
        db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=4))
        relation = db.create_table("t")
        relation.auto_seal = False
        documents = [{"s": "ok"}, {"s": "ok2"}, {"s": "ok3"}]
        relation.insert_many(documents)

        def fail(*args, **kwargs):
            raise RuntimeError("seal failed")

        monkeypatch.setattr(relation_module, "build_tile", fail)
        with pytest.raises(RuntimeError):
            relation.flush_inserts()
        assert relation.pending_inserts == 3
        assert relation.snapshot_insert_buffer() == documents
        assert relation.tiles == []
        relation.insert({"s": "later"})
        monkeypatch.undo()
        relation.flush_inserts()
        assert relation.pending_inserts == 0
        assert [relation.document(row) for row in range(4)] == \
            documents + [{"s": "later"}]

    @pytest.mark.parametrize("bad", [
        {"s": "\ud800"}, {"\udfff": 1}, {"a": ["x", {"b": "\ud83d"}]},
        '{"s": "\\ud800"}',
        {"n": 2**64}, '{"n": -9223372036854775809}', {"a": [{"n": 2**70}]},
        {1: "non-string key"}, {"a": {None: 1}}, {"a": {1, 2}},
        json.loads("[" * 300 + "]" * 300),
    ])
    def test_insert_refuses_what_no_tile_can_store(self, bad):
        db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=4))
        relation = db.create_table("t")
        relation.insert({"s": "ok"})
        with pytest.raises(JsonbEncodeError):
            relation.insert(bad)
        assert relation.snapshot_insert_buffer() == [{"s": "ok"}]
        relation.insert_many([{"s": "ok2"}, {"s": "ok3"}, {"s": "ok4"}])
        assert relation.pending_inserts == 0  # the seal went through
        assert db.sql("select count(*) as n from t x").scalar() == 4

    def test_insert_many_refuses_the_whole_batch(self):
        db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=4))
        relation = db.create_table("t")
        with pytest.raises(JsonbEncodeError):
            relation.insert_many([{"n": 1}, {"n": 2**64}, {"n": 3}])
        assert relation.pending_inserts == 0

    def test_int64_bounds_accepted(self):
        db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=4))
        relation = db.create_table("t")
        relation.insert_many([{"n": 2**63 - 1}, {"n": -2**63}])
        relation.flush_inserts()
        assert [relation.document(row) for row in range(2)] == \
            [{"n": 2**63 - 1}, {"n": -2**63}]

    @pytest.mark.parametrize("bad", [{"s": "\ud800"}, {"n": 2**64}])
    def test_load_table_raises_jsonb_encode_error(self, bad):
        db = Database(StorageFormat.TILES, CONFIG)
        with pytest.raises(JsonbEncodeError):
            db.load_table("t", [{"s": "ok"}, bad])


class TestPlanTimeSampling:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(config=ExtractionConfig(tile_size=64))
        docs = [{"v": i % 100, "s": f"name-{i % 7}"} for i in range(1000)]
        database.load_table("t", docs)
        return database

    def _estimate(self, db, query, enable_sampling):
        from repro.engine.optimizer import PlannedScan, Planner
        from repro.sql.binder import Binder
        from repro.sql.parser import parse

        options = QueryOptions(enable_sampling=enable_sampling)
        block = Binder(db.tables, options).bind(parse(query))
        planner = Planner(options)
        planned = {s.alias: PlannedScan(s) for s in block.sources}
        edges, residuals = planner._classify_predicates(block, planned)
        planner._derive_skip_paths(block, planned, edges, residuals)
        return planner._estimate_source(planned["t"])

    def test_sampling_estimates_like_predicates(self, db):
        # LIKE has no sketch; the static default is 25%, sampling nails
        # the true 1/7
        query = ("select count(*) as n from t t "
                 "where t.data->>'s' like 'name-3'")
        sampled = self._estimate(db, query, True)
        assert 80 < sampled < 220  # true: ~143

    def test_sampling_range_predicate(self, db):
        query = ("select count(*) as n from t t "
                 "where t.data->>'v'::int < 10")
        sampled = self._estimate(db, query, True)
        assert 50 < sampled < 200  # true: 100

    def test_sampling_never_returns_zero(self, db):
        query = ("select count(*) as n from t t "
                 "where t.data->>'v'::int = -1")
        sampled = self._estimate(db, query, True)
        assert 0 < sampled < 20

    def test_results_unchanged_with_sampling(self, db):
        query = ("select count(*) as n from t t "
                 "where t.data->>'v'::int < 10")
        plain = db.sql(query)
        sampled = db.sql(query, QueryOptions(enable_sampling=True))
        assert plain.rows == sampled.rows

    def test_sampling_on_json_format(self):
        database = Database(StorageFormat.JSON, CONFIG)
        database.load_table("t", [{"v": i % 4} for i in range(200)])
        result = database.sql(
            "select count(*) as n from t t where t.data->>'v'::int = 0",
            QueryOptions(enable_sampling=True))
        assert result.scalar() == 50
