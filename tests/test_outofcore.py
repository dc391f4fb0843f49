"""Out-of-core acceptance tests.

The differential half is the tentpole's correctness gate: every query
in the twitter / yelp / hackernews suites must return bit-identical
results whether the relation is fully resident (no budget — the legacy
behavior) or paged through a residency budget of 25% of the working
set, with peak resident tile bytes staying under the budget throughout.

The soak half runs concurrent queries, ingest+checkpoints and
maintenance cycles under a tight budget and asserts the two invariants
that make paging safe: a pinned tile is never evicted, and the flush
sealing path never deadlocks against eviction.
"""

import threading

import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.storage.persist import load_relation, save_database
from repro.storage.tile_cache import GLOBAL_TILE_CACHE, ResolvedTileCache
from repro.storage.tilestore import GLOBAL_TILE_STORE, TileStore
from repro.workloads import hackernews, twitter, yelp

CONFIG = ExtractionConfig(tile_size=64, partition_size=4)

SUITES = {
    "twitter": (lambda: twitter.make_database(400, StorageFormat.TILES,
                                              CONFIG),
                "tweets", twitter.TWITTER_QUERIES),
    "yelp": (lambda: yelp.make_database(80, StorageFormat.TILES, CONFIG),
             "yelp", yelp.YELP_QUERIES),
    "hackernews": (lambda: hackernews.make_database(400, config=CONFIG),
                   "items", hackernews.HACKERNEWS_QUERIES),
}


def row_key(row):
    return tuple((value is None, str(value)) for value in row)


def canonical(result):
    return sorted((row_key(row) for row in result.rows))


@pytest.fixture
def global_store():
    GLOBAL_TILE_CACHE.clear()
    try:
        yield GLOBAL_TILE_STORE
    finally:
        GLOBAL_TILE_STORE.set_budget(None)
        GLOBAL_TILE_STORE.reset_stats()


class TestDifferentialOutOfCore:
    """Unlimited-budget vs 25%-of-working-set budget, bit for bit."""

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite_bit_identical_under_budget(self, tmp_path, suite):
        make, table, queries = SUITES[suite]
        resident_db = make()
        expected = {name: resident_db.sql(text).rows
                    for name, text in queries.items()}
        save_database(resident_db, tmp_path / suite)

        store = TileStore(cache=ResolvedTileCache())
        relation = load_relation(tmp_path / suite / f"{table}.jtile",
                                 store=store)
        working_set = sum(h.nbytes for h in relation.tiles)
        budget = working_set // 4
        # the budget must at least hold the one tile a serial scan pins
        assert budget > max(h.nbytes for h in relation.tiles)
        store.set_budget(budget)

        paged_db = Database(StorageFormat.TILES, CONFIG)
        paged_db.register(table, relation)
        for name, text in queries.items():
            assert paged_db.sql(text).rows == expected[name], (suite, name)
        stats = store.stats()
        assert stats["peak_resident_bytes"] <= budget
        assert stats["evictions"] > 0  # the budget was actually exercised
        assert stats["loads"] > len(relation.tiles)  # tiles cycled back in

    def test_parallel_scans_pin_no_more_than_the_budget_holds(self,
                                                              tmp_path):
        """Pinned tiles are exempt from eviction, so four morsel workers
        pinning four tiles at once would push residency past a budget
        that holds fewer: the scan runs only as many at once as fit."""
        make, table, queries = SUITES["twitter"]
        save_database(make(), tmp_path / "t")
        store = TileStore(cache=ResolvedTileCache())
        relation = load_relation(tmp_path / "t" / f"{table}.jtile",
                                 store=store)
        largest = max(handle.nbytes for handle in relation.tiles)
        budget = largest + largest // 2
        store.set_budget(budget)
        assert store.pin_capacity(largest) == 1
        paged_db = Database(StorageFormat.TILES, CONFIG)
        paged_db.register(table, relation)
        for _ in range(3):
            for text in queries.values():
                paged_db.sql(text, QueryOptions(parallelism=4,
                                                tile_cache=False))
        assert store.stats()["peak_resident_bytes"] <= budget
        assert store.stats()["evictions"] > 0

    def test_documents_identical_under_budget(self, tmp_path):
        make, table, _queries = SUITES["twitter"]
        db = make()
        expected = list(db.table(table).documents())
        save_database(db, tmp_path / "d")
        store = TileStore(cache=ResolvedTileCache())
        relation = load_relation(tmp_path / "d" / f"{table}.jtile",
                                 store=store)
        store.set_budget(sum(h.nbytes for h in relation.tiles) // 4)
        assert list(relation.documents()) == expected

    def test_env_budget_reaches_global_store(self, monkeypatch):
        from repro.storage.tilestore import _default_budget

        monkeypatch.setenv("REPRO_MEMORY_MB", "48")
        assert TileStore(_default_budget()).budget_bytes == 48 * 2**20


class TestEvictionSoak:
    """Concurrent queries + ingest/checkpoint + maintenance under a
    tight budget: no pinned tile evicted, no deadlock."""

    QUERY = ("select count(*) as n, sum(t.data->>'score'::float) as s "
             "from t t where t.data->'user'->>'id'::int >= 3")

    @staticmethod
    def docs(start, n):
        return [{"id": i, "text": f"tweet number {i} " * 4,
                 "user": {"id": i % 17}, "score": float(i) / 3}
                for i in range(start, start + n)]

    def test_soak(self, tmp_path, global_store, monkeypatch):
        config = ExtractionConfig(tile_size=32, partition_size=2)
        db = Database(StorageFormat.TILES, config)
        relation = db.load_table("t", self.docs(0, 256))
        save_database(db, tmp_path / "store")  # handles become clean

        violations = []
        enforce = global_store._enforce_locked

        def checked_enforce():
            # inspect victims while the store lock is still held: evict
            # events fire after it is released, when a concurrent pin
            # may already have reloaded the handle
            evicted = enforce()
            for handle in evicted:
                if handle.pin_count > 0:
                    violations.append(f"pinned tile evicted: {handle!r}")
                if handle.dirty:
                    violations.append(f"dirty tile evicted: {handle!r}")
            return evicted

        monkeypatch.setattr(global_store, "_enforce_locked", checked_enforce)
        budget = int(max(h.nbytes for h in relation.tiles) * 3)
        global_store.set_budget(budget)

        from repro.maintenance import MaintenanceDaemon

        daemon = MaintenanceDaemon({"t": relation})
        errors = []
        stop = threading.Event()

        def run(worker):
            try:
                while not stop.is_set():
                    worker()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"{worker.__name__}: {type(exc).__name__}: "
                              f"{exc}")

        serial, parallel = QueryOptions(), QueryOptions(parallelism=2)

        def query_serial():
            assert db.sql(self.QUERY, serial).rows

        def query_parallel():
            assert db.sql(self.QUERY, parallel).rows

        state = {"next_id": 256, "rounds": 0}

        def ingest():
            relation.insert_many(self.docs(state["next_id"], 48))
            state["next_id"] += 48
            relation.flush_inserts()
            save_database(db, tmp_path / "store")  # rebind fresh tiles
            state["rounds"] += 1
            if state["rounds"] >= 6:
                stop.set()

        def maintain():
            daemon.run_cycle(force=True)

        threads = [threading.Thread(target=run, args=(worker,), daemon=True)
                   for worker in (query_serial, query_parallel, ingest,
                                  maintain)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        hung = [t for t in threads if t.is_alive()]
        assert not hung, f"deadlocked threads: {hung}"
        assert not errors, errors
        assert not violations, violations

        stats = global_store.stats()
        assert stats["evictions"] > 0  # the budget was under real pressure
        # quiesced: every row that was ingested is queryable
        result = db.sql(self.QUERY)
        total = state["next_id"]
        assert result.rows[0][0] == sum(1 for i in range(total)
                                        if i % 17 >= 3)
