"""Tests for the tile-rewrite primitive behind ``recompute_tile``,
``reorganize_partition`` and ``compact_tiles``: every output slot keeps
its input's level, relation statistics equal a fresh rebuild after every
rewrite kind, partitions are numbered by list position everywhere, and
the daemon counts a rewrite that lost its race as a ``noop``."""

import pytest

from repro import ExtractionConfig, MaintenanceConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.maintenance import (
    ActionKind,
    HealthTracker,
    MaintenanceAction,
    MaintenanceDaemon,
    MaintenanceJournal,
)
from repro.server.wal import WriteAheadLog
from repro.stats.table_stats import TableStatistics
from repro.storage import load_documents
from repro.storage import relation as relation_module

CONFIG = ExtractionConfig(tile_size=64, partition_size=4,
                          enable_reordering=False)


def xy_documents(n):
    """Alternating ``{x}`` / ``{y}`` documents: 50 % each per tile, so
    nothing extracts until §3.2 reordering separates them."""
    return [{"x": i} if i % 2 == 0 else {"y": i} for i in range(n)]


def news_documents(n):
    """Round-robin of four document types (zero spatial locality)."""
    kinds = (
        lambda i: {"id": i, "type": "story", "score": i % 7, "url": "u"},
        lambda i: {"id": i, "type": "comment", "parent": i - 1},
        lambda i: {"id": i, "type": "pollop", "poll": 2, "title": "t"},
        lambda i: {"id": i, "type": "poll", "score": i % 5, "desc": 2},
    )
    return [kinds[i % len(kinds)](i) for i in range(n)]


def relation_of(documents, config=CONFIG):
    return load_documents("t", documents, StorageFormat.TILES, config)


def levels(relation):
    return [tile.header.level for tile in relation.tiles]


def assert_statistics_fresh(relation):
    """``relation.statistics`` answers every estimator exactly like an
    aggregate rebuilt from scratch over the live tiles."""
    fresh = TableStatistics()
    for tile in relation.tiles:
        fresh.absorb_tile(tile.header.tile_number, tile.header.statistics)
    live = relation.statistics
    assert live.row_count == fresh.row_count
    texts = {text for tile in relation.tiles
             for text in tile.header.statistics.key_counts}
    for text in texts:
        assert live.frequencies.estimate(text) \
            == fresh.frequencies.estimate(text), text
    paths = {path for tile in relation.tiles
             for path in tile.header.statistics.columns}
    paths |= {KeyPath.parse(text) for text in texts if text}
    for path in paths:
        assert live.has_sketch(path) == fresh.has_sketch(path), path
        assert live.distinct(path) == fresh.distinct(path), path
        assert live.bounds(path) == fresh.bounds(path), path
        assert live.key_count(path) == fresh.key_count(path), path


class TestLevelsKept:
    def test_recompute_keeps_the_level(self):
        relation = relation_of(news_documents(512))  # eight L0 tiles
        assert relation.compact_tiles(0, 4)
        assert relation.compact_tiles(4, 4)
        assert levels(relation) == [1, 1]
        relation.recompute_tile(relation.tiles[0])
        assert levels(relation) == [1, 1]

    def test_reorganize_keeps_each_slot_level(self):
        config = ExtractionConfig(tile_size=32, partition_size=4,
                                  enable_reordering=False)
        relation = relation_of(news_documents(512), config)
        assert relation.compact_tiles(0, 4)
        # partition 0 now holds one 128-row L1 tile and three L0 tiles
        assert levels(relation)[:4] == [1, 0, 0, 0]
        rows = [tile.row_count for tile in relation.tiles[:4]]
        assert relation.reorganize_partition(0)
        assert levels(relation)[:4] == [1, 0, 0, 0]
        assert [tile.row_count for tile in relation.tiles[:4]] == rows


class TestStatisticsRebuilt:
    def test_reorganize_refreshes_the_aggregate(self):
        relation = relation_of(xy_documents(512),
                               ExtractionConfig(tile_size=64,
                                                enable_reordering=False))
        x = KeyPath.parse("x")
        before = relation.extracted_fraction()
        assert not relation.statistics.has_sketch(x)
        assert relation.reorganize_partition(0)
        assert relation.extracted_fraction() > before
        assert relation.statistics.has_sketch(x)
        assert_statistics_fresh(relation)

    @pytest.mark.parametrize("kind", ["recompute", "reorganize", "compact"])
    def test_every_rewrite_kind_equals_a_rebuild(self, kind):
        relation = relation_of(news_documents(512))
        if kind == "recompute":
            relation.recompute_tile(relation.tiles[2])
        elif kind == "reorganize":
            assert relation.reorganize_partition(1)
        else:
            assert relation.compact_tiles(4, 4)
        assert_statistics_fresh(relation)

    def test_tiles_sealed_during_a_rewrite_are_absorbed(self, monkeypatch):
        relation = relation_of(news_documents(512))

        def seal_meanwhile(rel, old_tiles, new_tiles):
            rel.insert_many(news_documents(64))
            rel.flush_inserts()

        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            seal_meanwhile)
        assert relation.compact_tiles(0, 4)
        assert relation.row_count == 576
        assert relation.statistics.row_count == 576
        assert_statistics_fresh(relation)


class TestPositionalPartitions:
    def test_update_after_merge_lands_in_the_listed_partition(self):
        config = ExtractionConfig(tile_size=64, partition_size=2,
                                  enable_reordering=False)
        relation = relation_of(news_documents(512), config)
        assert relation.compact_tiles(0, 4)  # tile numbers 0, 4, 5, 6, 7
        tracker = HealthTracker(relation)
        target = relation.tiles[2]
        relation.update(target.first_row, {"id": -1, "type": "story"})
        assert tracker.snapshot()[1].updates == 1

    def test_retired_tile_has_no_partition(self):
        relation = relation_of(news_documents(256))
        old = relation.tiles[0]
        assert relation.recompute_tile(old)
        assert relation.partition_of(old) is None
        assert relation.partition_of(relation.tiles[0]) == 0


class TestRewriteAccounting:
    def _daemon(self, tmp_path, relation, action):
        journal = MaintenanceJournal(
            WriteAheadLog(tmp_path / "maintenance.journal", sync=False))
        journal.log("begin", action)
        journal.close()  # the process died before the commit record
        return MaintenanceDaemon(
            {"t": relation},
            MaintenanceConfig(enabled=True, max_actions_per_cycle=0),
            journal=MaintenanceJournal(WriteAheadLog(
                tmp_path / "maintenance.journal", sync=False)))

    def test_lost_race_recompute_is_a_noop(self, tmp_path, monkeypatch):
        relation = relation_of(news_documents(256))

        def competing_recompute(rel, old_tiles, new_tiles):
            # another writer rebuilds the same tile first
            monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                                None)
            assert rel.recompute_tile(old_tiles[0])

        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            competing_recompute)
        daemon = self._daemon(tmp_path, relation, MaintenanceAction(
            ActionKind.RECOMPUTE_TILE, "t", 0, 1.0))
        assert [r["status"] for r in daemon.run_cycle()] == ["noop"]
        assert daemon.counters["recomputes"] == 0
        assert daemon.counters["noops"] == 1

    def test_reorganize_crash_and_replay(self, tmp_path, monkeypatch):
        relation = relation_of(news_documents(512))
        expected = sorted(relation.documents(), key=lambda doc: doc["id"])
        before = list(relation.tiles)

        def explode(rel, old_tiles, new_tiles):
            raise RuntimeError("simulated crash before the splice")

        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            explode)
        action = MaintenanceAction(ActionKind.REORDER_PARTITION, "t", 0, 1.0)
        daemon = self._daemon(tmp_path, relation, action)
        assert [r["status"] for r in daemon.run_cycle()] == ["error"]
        assert relation.tiles == before  # old world intact
        assert daemon.journal.pending() == []  # journaled 'failed'

        # the process dies again after 'begin'; replay redoes the reorg
        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            None)
        daemon = self._daemon(tmp_path, relation, action)
        assert daemon.counters["recovered"] == 1
        assert [r["status"] for r in daemon.run_cycle()] == ["done"]
        assert daemon.counters["reorders"] == 1
        assert daemon.journal.pending() == []
        assert relation.tiles[:4] != before[:4]
        assert relation.tiles[4:] == before[4:]
        assert sorted(relation.documents(),
                      key=lambda doc: doc["id"]) == expected
        assert_statistics_fresh(relation)
