"""Tests for ``repro.lsm`` — LSM-tiered ingest with leveled tile
compaction and snapshot reads.

The differential half is the subsystem's correctness gate: every query
in the twitter / yelp / TPC-H suites must return bit-identical results
with compaction forced on versus off.  The crash-recovery half forges
the maintenance journal to kill a merge between tile write and
manifest commit and verifies replay recovers to either the old tiles
or the merged tile, never both.  The stale-cache half is the satellite
regression: a merged input's resolved columns and TileStore residency
must be invalidated before the manifest swap commits.
"""

import gc
import threading

import pytest

from repro import (
    Database,
    ExtractionConfig,
    LsmConfig,
    MaintenanceConfig,
    QueryOptions,
    StorageFormat,
)
from repro.lsm import (
    level_histogram,
    plan_compactions,
    predicted_extraction_gain,
)
from repro.maintenance import (
    ActionKind,
    MaintenanceAction,
    MaintenanceDaemon,
    MaintenanceJournal,
    MaintenancePlanner,
)
from repro.server.wal import WriteAheadLog
from repro.storage import relation as relation_module
from repro.storage.persist import load_relation, save_database
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.storage.tilestore import GLOBAL_TILE_STORE
from repro.workloads import twitter, yelp
from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpch import make_database as make_tpch

CONFIG = ExtractionConfig(tile_size=64, partition_size=4,
                          enable_reordering=False)


def bursty_documents(n, tile_size=64):
    """Documents whose optional ``extra`` field alternates between 50 %
    (even tiles) and 90 % (odd tiles) presence: below the 60 % mining
    threshold in half the L0 tiles, ~70 % over any merged run — the
    shape where merge-time re-mining strictly improves extraction."""
    docs = []
    for i in range(n):
        doc = {"id": i, "score": float(i * 7 % 113) / 3,
               "tag": f"t{i % 7}"}
        burst = 5 if (i // tile_size) % 2 == 0 else 9
        if i % 10 < burst:
            doc["extra"] = i % 31
        docs.append(doc)
    return docs


def bursty_db(n=512, config=CONFIG):
    db = Database(StorageFormat.TILES, config)
    db.load_table("t", bursty_documents(n, config.tile_size))
    return db


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


@pytest.fixture
def global_store():
    # earlier tests' relations may linger in reference cycles; collect
    # them so their handles' residency accounting leaves the store
    # before budget/peak assertions start
    gc.collect()
    GLOBAL_TILE_CACHE.clear()
    try:
        yield GLOBAL_TILE_STORE
    finally:
        GLOBAL_TILE_STORE.set_budget(None)
        GLOBAL_TILE_STORE.reset_stats()


# ---------------------------------------------------------------------------


class TestLsmConfig:
    def test_defaults(self):
        config = LsmConfig.from_env(env={})
        assert config.enabled is False
        assert config.fanout == 4
        assert config.max_level == 2
        assert config.min_gain_columns == 0

    def test_env_parsing(self):
        config = LsmConfig.from_env(env={
            "REPRO_LSM": "1", "REPRO_LSM_FANOUT": "8",
            "REPRO_LSM_MAX_LEVEL": "3", "REPRO_LSM_MIN_GAIN": "2"})
        assert config.enabled is True
        assert config.fanout == 8
        assert config.max_level == 3
        assert config.min_gain_columns == 2

    def test_overrides_beat_env_and_none_is_ignored(self):
        config = LsmConfig.from_env(env={"REPRO_LSM_FANOUT": "8"},
                                    enabled=True, fanout=3,
                                    max_level=None)
        assert config.enabled is True
        assert config.fanout == 3
        assert config.max_level == 2

    def test_fanout_floor(self):
        assert LsmConfig.from_env(env={"REPRO_LSM_FANOUT": "1"}).fanout == 2


class TestManifest:
    def test_epoch_bumps_on_flush_and_compaction(self):
        db = bursty_db(320)
        relation = db.tables["t"]
        first = relation.manifest()
        assert first.epoch == relation.manifest().epoch  # stable at rest
        relation.insert_many(bursty_documents(64))
        relation.flush_inserts()
        second = relation.manifest()
        assert second.epoch > first.epoch
        assert relation.compact_tiles(0, 4)
        assert relation.manifest().epoch > second.epoch

    def test_snapshot_survives_concurrent_swap(self):
        relation = bursty_db(512).tables["t"]
        snapshot = relation.manifest()
        before = list(snapshot.tiles)
        assert relation.compact_tiles(0, 4)
        # the old snapshot still enumerates the pre-merge tile set;
        # only a fresh manifest() call sees the swap
        assert list(snapshot.tiles) == before
        assert len(relation.manifest().tiles) == len(before) - 3

    def test_level_report_shape(self):
        relation = bursty_db(512).tables["t"]
        force_compact(relation)
        report = relation.manifest().level_report()
        assert set(report) == {0, 1} or set(report) == {1}
        for level_stats in report.values():
            assert set(level_stats) == {"tiles", "rows", "disk_bytes",
                                        "resident_bytes",
                                        "extracted_fraction"}

    def test_lsm_status_counters(self):
        relation = bursty_db(512).tables["t"]
        relation.lsm_config = LsmConfig(enabled=True)
        merges = force_compact(relation)
        status = relation.lsm_status()
        assert status["enabled"] is True
        assert status["counters"]["merges"] == merges
        assert status["counters"]["docs_rewritten"] == merges * 4 * 64
        assert status["counters"]["bytes_written"] > 0


class TestPlanner:
    def test_plans_fanout_runs_below_max_level(self):
        relation = bursty_db(512).tables["t"]  # 8 L0 tiles
        candidates = plan_compactions(relation, LsmConfig(enabled=True))
        assert [c.start_number for c in candidates] == [0, 4]
        assert all(c.level == 0 and c.count == 4 for c in candidates)

    def test_disabled_or_short_runs_plan_nothing(self):
        relation = bursty_db(192).tables["t"]  # 3 tiles < fanout
        assert plan_compactions(relation, LsmConfig(enabled=False)) == []
        assert plan_compactions(relation, LsmConfig(enabled=True)) == []

    def test_max_level_caps_the_hierarchy(self):
        relation = bursty_db(512).tables["t"]
        config = LsmConfig(enabled=True, fanout=4, max_level=1)
        force_compact(relation, config)  # 8 L0 -> 2 L1, stops there
        assert level_histogram(relation) == {1: 2}
        assert plan_compactions(relation, config) == []

    def test_predicted_gain_sees_bursty_field(self):
        relation = bursty_db(512).tables["t"]
        run = relation.tiles[:4]
        gain = predicted_extraction_gain(run, relation.config.threshold)
        assert gain >= 1  # "extra": 50/90/50/90 % -> ~70 % combined

    def test_min_gain_filters_homogeneous_runs(self):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", [{"id": i, "v": i} for i in range(512)])
        relation = db.tables["t"]
        strict = LsmConfig(enabled=True, min_gain_columns=1)
        assert plan_compactions(relation, strict) == []
        assert len(plan_compactions(relation, LsmConfig(enabled=True))) == 2

    def test_maintenance_planner_emits_compact_actions(self):
        relation = bursty_db(512).tables["t"]
        relation.lsm_config = LsmConfig(enabled=True)
        from repro.maintenance import HealthTracker

        planner = MaintenancePlanner(MaintenanceConfig(
            enabled=True, max_actions_per_cycle=8))
        actions = planner.plan(
            {"t": (relation, HealthTracker(relation))})
        compacts = [a for a in actions
                    if a.kind is ActionKind.COMPACT_TILES]
        assert {a.target for a in compacts} == {0, 4}


class TestCompaction:
    def test_merge_preserves_rows_and_order(self):
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = list(relation.documents())
        merges = force_compact(relation)
        assert merges == 2
        assert level_histogram(relation) == {1: 2}
        assert list(relation.documents()) == expected
        assert [t.first_row for t in relation.tiles] == [0, 256]

    def test_tile_numbers_stay_strictly_increasing(self):
        relation = bursty_db(512).tables["t"]
        force_compact(relation)
        numbers = [t.header.tile_number for t in relation.tiles]
        assert numbers == sorted(set(numbers))
        # a post-compaction flush must keep allocating above the max
        relation.insert_many(bursty_documents(64))
        relation.flush_inserts()
        new_numbers = [t.header.tile_number for t in relation.tiles]
        assert new_numbers == sorted(set(new_numbers))
        assert new_numbers[-1] > numbers[-1]

    def test_remining_extracts_the_bursty_field(self):
        relation = bursty_db(512).tables["t"]
        # "extra" misses the 60 % threshold in every even input tile
        even_inputs = relation.tiles[0::2]
        assert any("extra" not in {str(p) for p in t.header.columns}
                   for t in even_inputs)
        force_compact(relation)
        merged_paths = [{str(p) for p in t.header.columns}
                        for t in relation.tiles]
        assert all("extra" in paths for paths in merged_paths)

    def test_extracted_fraction_is_monotone_in_level(self):
        relation = bursty_db(512).tables["t"]
        before = relation.manifest().level_report()[0]
        force_compact(relation)
        after = relation.manifest().level_report()[1]
        assert after["extracted_fraction"] > before["extracted_fraction"]

    def test_noop_on_missing_or_mixed_runs(self):
        relation = bursty_db(512).tables["t"]
        assert relation.compact_tiles(99, 4) is False  # no such number
        assert relation.compact_tiles(5, 4) is False   # run too short
        assert relation.compact_tiles(0, 4) is True
        # tile 0 is now level 1, tiles 4.. are level 0: mixed levels
        assert relation.compact_tiles(0, 4) is False

    def test_levels_survive_persistence(self, tmp_path):
        db = bursty_db(512)
        relation = db.tables["t"]
        force_compact(relation)
        save_database(db, tmp_path / "store")
        reloaded = load_relation(tmp_path / "store" / "t.jtile")
        assert [t.header.level for t in reloaded.tiles] == \
            [t.header.level for t in relation.tiles]
        assert list(reloaded.documents()) == list(relation.documents())

    def test_explain_analyze_reports_levels(self):
        db = bursty_db(512)
        force_compact(db.tables["t"])
        text = db.explain("select count(*) as n from t t", analyze=True)
        assert "[levels: L1=2]" in text


class TestDifferentialCompaction:
    """ISSUE satellite: twitter / yelp / TPC-H results bit-identical
    with compaction forced on vs off."""

    def _check(self, make, queries):
        reference = make()
        expected = {name: reference.sql(text).rows
                    for name, text in queries.items()}
        compacted_db = make()
        merged = sum(force_compact(rel) for rel in
                     {id(r): r for r in compacted_db.tables.values()}
                     .values())
        assert merged > 0  # compaction actually happened
        for name, text in queries.items():
            assert compacted_db.sql(text).rows == expected[name], name
            parallel = compacted_db.sql(
                text, QueryOptions(parallelism=4)).rows
            assert parallel == expected[name], (name, "parallel")

    def test_twitter(self):
        self._check(lambda: twitter.make_database(
            400, StorageFormat.TILES, CONFIG), twitter.TWITTER_QUERIES)

    def test_yelp(self):
        self._check(lambda: yelp.make_database(
            80, StorageFormat.TILES, CONFIG), yelp.YELP_QUERIES)

    def test_tpch(self):
        self._check(lambda: make_tpch(
            0.002, StorageFormat.TILES, CONFIG, combined=True,
            shuffled=True), TPCH_QUERIES)


class TestStaleCacheInvalidation:
    """Satellite regression: compaction must invalidate resolved-column
    cache entries and TileStore residency for every merged input before
    the manifest swap commits."""

    # "extra" is below the mining threshold in even tiles, so the scan
    # resolves it through the JSONB fallback and the resolved column
    # lands in the process-wide tile cache
    QUERY = ("select count(*) as n, sum(t.data->>'extra'::int) as s "
             "from t t where t.data->>'extra'::int >= 0")

    def test_inputs_invalidated_before_swap(self, global_store,
                                            monkeypatch):
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = db.sql(self.QUERY).rows
        options = QueryOptions(tile_cache=True)
        db.sql(self.QUERY, options)  # warm the resolved-column cache
        old_uids = {t.uid for t in relation.tiles[:4]}
        cached_uids = {key[1] for key in GLOBAL_TILE_CACHE._entries}
        assert old_uids & cached_uids  # the warm-up actually cached

        calls = []
        real_invalidate = GLOBAL_TILE_CACHE.invalidate_tile

        def spying_invalidate(uid):
            # the fix's ordering contract: when an input is
            # invalidated it must still be the live tile in the
            # relation — i.e. the manifest swap has not committed yet
            calls.append((uid, any(t.uid == uid for t in relation.tiles)))
            return real_invalidate(uid)

        monkeypatch.setattr(GLOBAL_TILE_CACHE, "invalidate_tile",
                            spying_invalidate)
        discards_before = global_store.stats()["discards"]
        assert relation.compact_tiles(0, 4)
        assert {uid for uid, _ in calls} >= old_uids
        assert all(live for uid, live in calls if uid in old_uids)
        # no resolved column of a merged input may survive the swap
        assert not {key[1] for key in GLOBAL_TILE_CACHE._entries} \
            & old_uids
        assert global_store.stats()["discards"] >= discards_before + 4
        # and the post-merge world still answers bit-identically
        assert db.sql(self.QUERY, options) .rows == expected

    def test_cached_query_identical_after_compaction(self, global_store):
        db = bursty_db(512)
        options = QueryOptions(tile_cache=True)
        expected = db.sql(self.QUERY, options).rows
        force_compact(db.tables["t"])
        assert db.sql(self.QUERY, options).rows == expected


class TestCrashRecovery:
    """Forged-journal tests: a merge killed between tile write and
    manifest commit recovers to either the old tiles or the merged
    tile — never both, never a torn mixture."""

    def _journal(self, tmp_path):
        return MaintenanceJournal(
            WriteAheadLog(tmp_path / "maintenance.journal", sync=False))

    def _daemon(self, tmp_path, relation):
        relation.lsm_config = LsmConfig(enabled=True)
        return MaintenanceDaemon(
            {"t": relation},
            MaintenanceConfig(enabled=True, max_actions_per_cycle=0),
            journal=self._journal(tmp_path))

    QUERY = "select count(*) as n, sum(t.data->>'id'::int) as s from t t"

    def test_replay_with_old_tiles_repeats_the_merge(self, tmp_path):
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = db.sql(self.QUERY).rows
        journal = self._journal(tmp_path)
        journal.log("begin", MaintenanceAction(
            ActionKind.COMPACT_TILES, "t", 0, 1.0))
        journal.close()  # process died before the manifest commit

        daemon = self._daemon(tmp_path, relation)
        assert daemon.counters["recovered"] == 1
        executed = daemon.run_cycle()
        assert [r["status"] for r in executed] == ["done"]
        assert daemon.counters["merges"] == 1
        assert daemon.journal.pending() == []
        assert relation.tiles[0].header.level == 1
        assert db.sql(self.QUERY).rows == expected

    def test_replay_after_commit_is_a_clean_noop(self, tmp_path):
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = db.sql(self.QUERY).rows
        assert relation.compact_tiles(0, 4)  # the merge DID commit...
        journal = self._journal(tmp_path)
        journal.log("begin", MaintenanceAction(
            ActionKind.COMPACT_TILES, "t", 0, 1.0))
        journal.close()  # ...but the journal commit never made it out

        daemon = self._daemon(tmp_path, relation)
        assert daemon.counters["recovered"] == 1
        executed = daemon.run_cycle()
        assert [r["status"] for r in executed] == ["noop"]
        assert daemon.counters["merges"] == 0
        assert daemon.journal.pending() == []
        assert db.sql(self.QUERY).rows == expected

    def test_barrier_crash_leaves_relation_unchanged(self, tmp_path,
                                                     monkeypatch):
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = db.sql(self.QUERY).rows
        before = list(relation.tiles)

        def explode(rel, old_tiles, new_tiles):
            raise RuntimeError("simulated crash before manifest commit")

        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            explode)
        daemon = self._daemon(tmp_path, relation)
        daemon.config.max_actions_per_cycle = 8
        executed = daemon.run_cycle()
        statuses = {r["status"] for r in executed
                    if r["kind"] == "compact_tiles"}
        assert statuses == {"error"}
        assert relation.tiles == before  # old world intact
        assert db.sql(self.QUERY).rows == expected
        # the failed action is journalled 'failed', not left pending
        assert daemon.journal.pending() == []

        # lifting the barrier, the next cycle completes the merges
        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            None)
        daemon.run_cycle()
        assert daemon.counters["merges"] >= 1
        assert db.sql(self.QUERY).rows == expected

    def test_interrupt_at_every_boundary(self, tmp_path, monkeypatch):
        """Kill + replay the same merge at each journal boundary in
        sequence: begin-only, post-merge begin-only, clean commit."""
        db = bursty_db(512)
        relation = db.tables["t"]
        expected = db.sql(self.QUERY).rows

        # boundary 1: begin written, merge never ran
        journal = self._journal(tmp_path)
        journal.log("begin", MaintenanceAction(
            ActionKind.COMPACT_TILES, "t", 0, 1.0))
        journal.close()
        daemon = self._daemon(tmp_path, relation)
        assert [r["status"] for r in daemon.run_cycle()] == ["done"]

        # boundary 2: merge committed, journal commit lost
        journal = self._journal(tmp_path)
        journal.log("begin", MaintenanceAction(
            ActionKind.COMPACT_TILES, "t", 0, 1.0))
        journal.close()
        daemon = self._daemon(tmp_path, relation)
        assert [r["status"] for r in daemon.run_cycle()] == ["noop"]

        # boundary 3: nothing pending — a fresh daemon has no replay
        daemon = self._daemon(tmp_path, relation)
        assert daemon.counters["recovered"] == 0
        assert db.sql(self.QUERY).rows == expected


class TestIngestSoak:
    """Bounded soak: sustained inserts + concurrent queries + forced
    compactions.  No lost or duplicated rows, peak resident bytes
    within the TileStore budget, and the hierarchy actually forms."""

    QUERY = ("select count(*) as n, sum(t.data->>'id'::int) as s "
             "from t t")

    def test_soak(self, tmp_path, global_store):
        config = ExtractionConfig(tile_size=32, partition_size=2,
                                  enable_reordering=False)
        db = Database(StorageFormat.TILES, config)
        relation = db.load_table("t", bursty_documents(256, 32))
        relation.lsm_config = LsmConfig(enabled=True, fanout=4,
                                        max_level=2)
        save_database(db, tmp_path / "store")  # handles become clean
        # the budget must cover the instantaneous dirty working set
        # (fresh flushes and merged tiles are unevictable until the
        # next checkpoint rebinds them) plus one pinned scan tile; 6x
        # the initial clean working set leaves room for that while
        # still catching any residency leak in the compaction path
        budget = int(sum(h.nbytes for h in relation.tiles) * 6)
        global_store.set_budget(budget)
        global_store.reset_stats()  # peak tracking starts here

        daemon = MaintenanceDaemon({"t": relation})
        errors = []
        stop = threading.Event()

        def run(worker):
            try:
                while not stop.is_set():
                    worker()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"{worker.__name__}: "
                              f"{type(exc).__name__}: {exc}")

        def query():
            result = db.sql(self.QUERY)
            count, total = result.rows[0]
            # every snapshot is consistent: ids are unique and dense,
            # so the sum of any n acknowledged rows is n*(n-1)/2
            assert total == count * (count - 1) // 2, \
                f"torn snapshot: {count} rows sum {total}"

        state = {"next_id": 256, "rounds": 0}

        def ingest():
            start = state["next_id"]
            relation.insert_many(
                [{"id": i, "score": float(i), "tag": f"t{i % 7}"}
                 for i in range(start, start + 32)])
            state["next_id"] += 32
            relation.flush_inserts()
            save_database(db, tmp_path / "store")
            state["rounds"] += 1
            if state["rounds"] >= 8:
                stop.set()

        def maintain():
            daemon.run_cycle(force=True)

        threads = [threading.Thread(target=run, args=(worker,),
                                    daemon=True)
                   for worker in (query, ingest, maintain)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not [t for t in threads if t.is_alive()], "deadlock"
        assert not errors, errors

        total = state["next_id"]
        count, id_sum = db.sql(self.QUERY).rows[0]
        assert count == total                      # no lost rows
        assert id_sum == total * (total - 1) // 2  # no duplicates
        assert global_store.stats()["peak_resident_bytes"] <= budget
        assert daemon.counters["merges"] >= 1
        assert max(level_histogram(relation)) >= 1


class TestServerIntegration:
    def test_server_stats_carry_lsm_section(self, tmp_path):
        from repro.server import JsonTilesServer, ServerClient

        server = JsonTilesServer(
            tmp_path / "data", wal_sync=False, query_workers=2,
            lsm_config=LsmConfig(enabled=True, fanout=4),
            maintenance_config=MaintenanceConfig(
                enabled=True, interval_s=3600.0,
                max_actions_per_cycle=8))
        assert server.maintenance_enabled  # --lsm implies maintenance
        server.start_in_thread()
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("t", "tiles",
                                    {"tile_size": 32,
                                     "partition_size": 2})
                client.insert_many("t", bursty_documents(256, 32))
                client.flush("t")
                expected = client.query(
                    "select count(*) as n, "
                    "sum(t.data->>'id'::int) as s from t t").rows
                client.maintenance("force")
                stats = client.stats()
                lsm = stats["tables"]["t"]["lsm"]
                assert lsm["enabled"] is True
                assert lsm["counters"]["merges"] >= 1
                levels = {int(k) for k in lsm["levels"]}
                assert max(levels) >= 1
                assert client.query(
                    "select count(*) as n, "
                    "sum(t.data->>'id'::int) as s from t t").rows \
                    == expected
        finally:
            server.stop_in_thread()
