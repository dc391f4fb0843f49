"""Tests for relations, bulk loading and updates."""

import json

import pytest

from repro.core.jsonpath import KeyPath
from repro.storage import Relation, StorageFormat, load_documents
from repro.tiles import ExtractionConfig


def tweets(n, with_geo_from=0):
    docs = []
    for i in range(n):
        doc = {"id": i, "create": "2020-06-01", "text": f"tweet {i}",
               "user": {"id": i % 17}}
        if i >= with_geo_from:
            doc["geo"] = {"lat": 40.0 + i * 0.001}
        docs.append(doc)
    return docs


CONFIG = ExtractionConfig(tile_size=32, partition_size=4)


class TestLoadFormats:
    def test_json_format_keeps_text(self):
        lines = [json.dumps(doc) for doc in tweets(10)]
        relation = load_documents("t", lines, StorageFormat.JSON, CONFIG)
        assert relation.row_count == 10
        assert relation.text_rows == lines
        assert relation.document(3)["id"] == 3

    def test_jsonb_format_no_columns(self):
        relation = load_documents("t", tweets(100), StorageFormat.JSONB, CONFIG)
        assert relation.row_count == 100
        assert all(not tile.columns for tile in relation.tiles)
        assert relation.document(42)["id"] == 42

    def test_tiles_format_extracts(self):
        relation = load_documents("t", tweets(100), StorageFormat.TILES, CONFIG)
        assert len(relation.tiles) == 4  # ceil(100/32)
        tile = relation.tiles[0]
        assert tile.column(KeyPath.parse("id")) is not None
        assert tile.column(KeyPath.parse("user.id")) is not None

    def test_tile_numbering_and_row_ranges(self):
        relation = load_documents("t", tweets(100), StorageFormat.TILES, CONFIG)
        first_rows = [tile.first_row for tile in relation.tiles]
        assert first_rows == [0, 32, 64, 96]
        assert [t.header.tile_number for t in relation.tiles] == [0, 1, 2, 3]

    def test_statistics_aggregated(self):
        relation = load_documents("t", tweets(100), StorageFormat.TILES, CONFIG)
        assert relation.statistics.row_count == 100
        assert relation.statistics.key_count(KeyPath.parse("id")) == 100
        distinct = relation.statistics.distinct(KeyPath.parse("user.id"))
        assert 13 <= distinct <= 21  # 17 true

    def test_load_breakdown_phases(self):
        relation = load_documents("t", tweets(200), StorageFormat.TILES, CONFIG)
        breakdown = relation.load_breakdown
        assert {"write_jsonb", "mining", "extract", "reorder",
                "total"} <= set(breakdown)
        assert breakdown["total"] > 0

    def test_text_lines_accepted_everywhere(self):
        lines = [json.dumps(doc) for doc in tweets(50)]
        relation = load_documents("t", lines, StorageFormat.TILES, CONFIG)
        assert relation.row_count == 50
        assert relation.load_breakdown["parse"] >= 0


class TestLocalVersusGlobalSchema:
    """The Figure 2 story: geo appears halfway; Sinew's global 60%
    cutoff misses it, tiles extract it locally."""

    def make(self, storage_format):
        docs = tweets(128, with_geo_from=96)  # geo in 25% of tuples
        return load_documents("t", docs, storage_format,
                              ExtractionConfig(tile_size=32, partition_size=4,
                                               enable_reordering=False))

    def test_sinew_misses_geo(self):
        relation = self.make(StorageFormat.SINEW)
        assert all(tile.column(KeyPath.parse("geo.lat")) is None
                   for tile in relation.tiles)

    def test_tiles_extract_geo_locally(self):
        relation = self.make(StorageFormat.TILES)
        last_tile = relation.tiles[-1]
        assert last_tile.column(KeyPath.parse("geo.lat")) is not None
        assert relation.tiles[0].column(KeyPath.parse("geo.lat")) is None

    def test_sinew_extracts_common_keys_globally(self):
        relation = self.make(StorageFormat.SINEW)
        for tile in relation.tiles:
            assert tile.column(KeyPath.parse("id")) is not None


class TestTilesStar:
    def make_docs(self):
        docs = []
        for i in range(64):
            docs.append({
                "id": i,
                "entities": {
                    "hashtags": [{"text": f"#tag{j}"} for j in range(i % 9)]
                },
            })
        return docs

    def test_child_relation_created(self):
        relation = load_documents(
            "tweets", self.make_docs(), StorageFormat.TILES_STAR, CONFIG,
            array_paths=[KeyPath.parse("entities.hashtags")],
        )
        assert "entities.hashtags" in relation.children
        child = relation.children["entities.hashtags"]
        assert child.row_count == sum(i % 9 for i in range(64))

    def test_child_rows_carry_parent_ids(self):
        relation = load_documents(
            "tweets", self.make_docs(), StorageFormat.TILES_STAR, CONFIG,
            array_paths=[KeyPath.parse("entities.hashtags")],
        )
        child = relation.children["entities.hashtags"]
        first = child.document(0)
        assert first["_parent_row"] == 1  # doc 0 has no hashtags
        assert first["text"] == "#tag0"

    def test_base_documents_stripped(self):
        relation = load_documents(
            "tweets", self.make_docs(), StorageFormat.TILES_STAR, CONFIG,
            array_paths=[KeyPath.parse("entities.hashtags")],
        )
        doc = relation.document(8)
        assert "hashtags" not in doc["entities"]
        assert doc["entities"]["hashtags_count"] == 8

    def test_auto_detection(self):
        relation = load_documents(
            "tweets", self.make_docs(), StorageFormat.TILES_STAR, CONFIG,
            auto_detect_arrays=True,
        )
        assert "entities.hashtags" in relation.children


class TestUpdates:
    def make(self):
        return load_documents("t", tweets(64), StorageFormat.TILES,
                              ExtractionConfig(tile_size=32, partition_size=2))

    def test_update_patches_column_in_place(self):
        relation = self.make()
        new_doc = {"id": 999, "create": "2021-01-01", "text": "updated",
                   "user": {"id": 5}, "geo": {"lat": 1.0}}
        relation.update(3, new_doc)
        tile = relation.tile_of_row(3)
        assert tile.column(KeyPath.parse("id")).value(3) == 999
        assert relation.document(3)["text"] == "updated"

    def test_update_missing_key_becomes_null(self):
        relation = self.make()
        relation.update(3, {"id": 3, "user": {"id": 5}})
        tile = relation.tile_of_row(3)
        assert tile.column(KeyPath.parse("text")).value(3) is None
        assert tile.header.columns[KeyPath.parse("text")].nullable

    def test_update_registers_new_paths_for_skipping(self):
        relation = self.make()
        relation.update(3, {"id": 3, "brand_new_key": 7,
                            "user": {"id": 1}, "text": "x",
                            "create": "2020-06-01"})
        tile = relation.tile_of_row(3)
        assert tile.header.may_contain(KeyPath.parse("brand_new_key"))

    def test_outlier_flood_triggers_recompute(self):
        relation = self.make()
        tile = relation.tiles[0]
        for row in range(20):  # > half of the 32-row tile
            relation.update(row, {"completely": "different", "shape": row})
        rebuilt = relation.tiles[0]
        assert rebuilt is not tile
        # at recompute time the new shape held 17/32 = 53% of the tile:
        # below the 60% threshold, so the *old* majority columns must be
        # gone but the new shape is not yet extractable (paper: tiles
        # are recomputed "after the majority of the tuples do not match
        # the current extracted JSON tiles schema")
        assert KeyPath.parse("text") not in rebuilt.columns

    def test_recompute_extracts_new_majority(self):
        relation = self.make()
        for row in range(24):  # 75% of the tile gets the new shape
            relation.update(row, {"completely": "different", "shape": row})
        relation.recompute_tile(relation.tiles[0])
        extracted = {str(p) for p in relation.tiles[0].columns}
        assert "shape" in extracted and "completely" in extracted

    def test_update_json_format(self):
        lines = [json.dumps(doc) for doc in tweets(5)]
        relation = load_documents("t", lines, StorageFormat.JSON, CONFIG)
        relation.update(0, {"id": 100})
        assert relation.document(0) == {"id": 100}


class TestSizeReport:
    def test_tiles_report_has_all_entries(self):
        relation = load_documents("t", tweets(100), StorageFormat.TILES, CONFIG)
        report = relation.size_report()
        assert report["jsonb"] > 0
        assert report["tiles"] > 0
        assert 0 < report["lz4_tiles"] < report["tiles"]

    def test_json_report(self):
        lines = [json.dumps(doc) for doc in tweets(10)]
        relation = load_documents("t", lines, StorageFormat.JSON, CONFIG)
        assert relation.size_report()["json"] > 0


class TestEmptyRelationReports:
    """Regression: size_report()/extracted_fraction() on relations with
    zero sealed tiles must return well-defined zeros, not divide."""

    @pytest.mark.parametrize("storage_format", [
        StorageFormat.TILES, StorageFormat.JSONB, StorageFormat.SINEW,
    ])
    def test_empty_relation_reports_zeros(self, storage_format):
        relation = load_documents("t", [], storage_format, CONFIG)
        report = relation.size_report()
        assert all(value == 0 for value in report.values())
        assert relation.extracted_fraction() == 0.0
        assert relation.partition_count == 0

    def test_empty_json_relation(self):
        relation = load_documents("t", [], StorageFormat.JSON, CONFIG)
        assert relation.size_report()["json"] == 0
        assert relation.extracted_fraction() == 0.0

    def test_buffer_only_relation_reports_zero_tiles(self):
        """Rows sitting in the insert buffer (auto_seal off, fewer than
        tile_size) are not sealed tiles: reports stay at zero instead
        of dividing by an empty tile list."""
        relation = Relation("t", StorageFormat.TILES, CONFIG)
        relation.auto_seal = False
        for doc in tweets(5):
            relation.insert(doc)
        assert relation.pending_inserts == 5
        assert relation.tiles == []
        assert relation.extracted_fraction() == 0.0
        assert all(v == 0 for v in relation.size_report().values())
        # sealing the straggler buffer makes the reports real
        relation.flush_inserts()
        assert relation.pending_inserts == 0
        assert relation.extracted_fraction() > 0.0
        assert relation.size_report()["tiles"] > 0


class TestParallelLoading:
    def test_multiworker_matches_singleworker(self):
        docs = tweets(256)
        config = ExtractionConfig(tile_size=32, partition_size=2)
        serial = load_documents("t", docs, StorageFormat.TILES, config,
                                num_workers=1)
        parallel = load_documents("t", docs, StorageFormat.TILES, config,
                                  num_workers=4)
        assert serial.row_count == parallel.row_count
        assert len(serial.tiles) == len(parallel.tiles)
        for left, right in zip(serial.tiles, parallel.tiles):
            assert set(left.columns) == set(right.columns)
            assert left.column(KeyPath.parse("id")).to_list() == \
                right.column(KeyPath.parse("id")).to_list()


class TestThreadSafeInserts:
    def test_concurrent_inserts_lose_nothing(self):
        """Many writer threads inserting at once: every document lands
        exactly once, tiles stay dense (tile numbers and first_row
        gapless) and the buffer holds the remainder."""
        import threading

        config = ExtractionConfig(tile_size=64, partition_size=2)
        relation = Relation("t", StorageFormat.TILES, config)
        per_thread, threads = 500, 8

        def writer(base):
            for i in range(per_thread):
                relation.insert({"id": base + i, "v": float(i)})

        workers = [threading.Thread(target=writer, args=(t * per_thread,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        relation.flush_inserts()
        total = per_thread * threads
        assert relation.row_count == total
        assert relation.pending_inserts == 0
        assert [t.header.tile_number for t in relation.tiles] == \
            list(range(len(relation.tiles)))
        assert [t.first_row for t in relation.tiles] == \
            [sum(x.row_count for x in relation.tiles[:i])
             for i in range(len(relation.tiles))]
        seen = sorted(doc["id"] for doc in relation.documents())
        assert seen == list(range(total))

    def test_seal_hook_fires_per_tile(self):
        config = ExtractionConfig(tile_size=32, partition_size=2)
        relation = Relation("t", StorageFormat.TILES, config)
        events = []

        def hook(event, rel, payload):
            if event == "seal":
                events.append((event, payload.header.tile_number,
                               payload.row_count))
            elif event == "extend":
                events.append((event, payload["tile"].header.tile_number,
                               payload["rows"]))

        relation.add_event_hook(hook)
        relation.insert_many([{"id": i} for i in range(80)])
        relation.flush_inserts()
        assert events == [("seal", 0, 32), ("seal", 1, 32), ("seal", 2, 16)]
        # the partial tail is topped up, never cut again
        events.clear()
        relation.insert_many([{"id": i} for i in range(80, 100)])
        relation.flush_inserts()
        assert events == [("extend", 2, 16), ("seal", 3, 4)]
        assert [tile.row_count for tile in relation.tiles] == [32, 32, 32, 4]

    def test_auto_seal_off_defers_to_owner(self):
        config = ExtractionConfig(tile_size=16, partition_size=2)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.auto_seal = False
        relation.insert_many([{"id": i} for i in range(40)])
        assert relation.pending_inserts == 40 and not relation.tiles
        relation.flush_inserts()
        assert relation.row_count == 40
