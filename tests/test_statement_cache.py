"""The statement cache (``repro.sql.statements``).

A repeated SQL text reuses its bound block, so the cached path must
return exactly what a fresh parse + bind returns, must never let one
execution's scalar-subquery result leak into the next, must stay
correct when two threads run one cached block, and must rebind when a
table it bound to is dropped, re-created or replaced.
"""

import enum
import gc
import struct
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.engine.executor import execute_block
from repro.server import JsonTilesServer, ServerClient, referenced_tables
from repro.sql import parser, statements
from repro.sql.statements import StatementCache, bind_statement
from repro.storage.relation import Relation
from repro.workloads import twitter, yelp
from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpch import make_database as make_tpch

CONFIG = ExtractionConfig(tile_size=128, partition_size=4)
TINY = ExtractionConfig(tile_size=8, partition_size=2)

#: TPC-H queries with uncorrelated scalar subqueries
SCALAR_QUERIES = (11, 15, 22)


@pytest.fixture(scope="module")
def databases():
    return {
        "tpch": (make_tpch(0.001, StorageFormat.TILES, CONFIG,
                           combined=True), TPCH_QUERIES),
        "twitter": (twitter.make_database(400, StorageFormat.TILES, CONFIG),
                    twitter.TWITTER_QUERIES),
        "yelp": (yelp.make_database(60, StorageFormat.TILES, CONFIG),
                 yelp.YELP_QUERIES),
    }


def bits(value):
    """A bit-exact comparison key (floats by their IEEE bytes)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_identical(expected, got, context=""):
    assert expected.columns == got.columns, context
    assert [[bits(v) for v in row] for row in expected.rows] == \
        [[bits(v) for v in row] for row in got.rows], context


def uncached(db, sql, options):
    return execute_block(bind_statement(sql, options, db.tables).block,
                         options)


def snapshot(obj, _seen=None):
    """Every attribute reachable from *obj*, as comparable data
    (relations by identity: their rows may change, the binding not)."""
    if _seen is None:
        _seen = {}
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if isinstance(obj, KeyPath):
        return ("KeyPath", obj.steps)
    if isinstance(obj, Relation):
        return ("Relation", id(obj))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.tobytes())
    if id(obj) in _seen:
        return ("ref", _seen[id(obj)])
    _seen[id(obj)] = len(_seen)
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [snapshot(x, _seen) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return (type(obj).__name__,
                sorted(repr(snapshot(x, _seen)) for x in obj))
    if isinstance(obj, dict):
        return ("dict", [(snapshot(k, _seen), snapshot(v, _seen))
                         for k, v in obj.items()])
    attrs = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    if callable(obj) and not attrs:
        return ("callable", getattr(obj, "__qualname__", repr(obj)))
    return (type(obj).__name__,
            sorted((k, snapshot(v, _seen)) for k, v in attrs.items()))


def small_db(values=range(20), **kwargs):
    db = Database(config=TINY, **kwargs)
    db.load_table("t", [{"v": v, "g": v % 3} for v in values])
    return db


# ---------------------------------------------------------------------------


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("workload", ["tpch", "twitter", "yelp"])
    def test_query_sets(self, databases, workload, parallelism):
        db, queries = databases[workload]
        options = QueryOptions(parallelism=parallelism)
        for number, sql in sorted(queries.items()):
            fresh = uncached(db, sql, options)
            hits = db.statements.hits
            # miss (seen once), miss (admitted), hit
            for _ in range(3):
                assert_identical(fresh, db.sql(sql, options),
                                 f"{workload} q{number}")
            assert db.statements.hits >= hits + 1

    def test_planning_leaves_the_bound_block_unchanged(self, databases):
        for workload, (db, queries) in sorted(databases.items()):
            for number, sql in sorted(queries.items()):
                for options in (QueryOptions(parallelism=1),
                                QueryOptions(parallelism=4,
                                             tile_cache=True),
                                QueryOptions(enable_sampling=True,
                                             enable_kernels=False)):
                    block = bind_statement(sql, options, db.tables).block
                    before = snapshot(block)
                    execute_block(block, options)
                    assert snapshot(block) == before, \
                        f"{workload} q{number}"

    def test_table_set_is_the_lock_set(self, databases):
        db, _queries = databases["tpch"]
        for number, sql in sorted(TPCH_QUERIES.items()):
            statement = bind_statement(sql, QueryOptions(), db.tables)
            assert statement.tables == \
                referenced_tables(parser.parse(sql)) & set(db.tables), \
                f"q{number}"


def test_referenced_tables_include_expression_subqueries():
    sql = ("with c as (select x.data->>'a' as a from base x) "
           "select c.a, (select max(m.data->>'v'::int) from maxed m) as top "
           "from c where exists (select 1 from other o where "
           "o.data->>'a' = c.a) and c.a in (select i.data->>'a' from inner_t i)")
    assert referenced_tables(parser.parse(sql)) == \
        {"base", "maxed", "other", "inner_t"}


class TestScalarSubqueries:
    SQL = ("select count(*) as n from t a "
           "where a.data->>'v'::int > (select avg(b.data->>'v'::int) "
           "from t b)")

    def test_cached_statement_sees_an_insert(self):
        db = Database(config=TINY)
        relation = db.create_table("t")
        relation.insert_many([{"v": v} for v in range(10)])
        relation.flush_inserts()
        for _ in range(3):
            assert db.sql(self.SQL).scalar() == 5  # 5..9 > 4.5
        assert db.statements.stats()["hits"] == 1
        # the average rises to 14.5: only 15..29 stay above it
        relation.insert_many([{"v": v} for v in range(10, 30)])
        relation.flush_inserts()
        assert db.sql(self.SQL).scalar() == 15
        assert db.statements.stats()["hits"] == 2

    @pytest.mark.parametrize("number", SCALAR_QUERIES)
    def test_two_threads_run_one_cached_statement(self, databases, number):
        db, _queries = databases["tpch"]
        sql = TPCH_QUERIES[number]
        options = QueryOptions(parallelism=2)
        serial = uncached(db, sql, options)
        db.sql(sql, options)
        db.sql(sql, options)
        statement = db.statements.prepare(sql, options, db.tables)
        assert statement is db.statements.prepare(sql, options, db.tables)
        before = snapshot(statement.block)
        results, errors = [], []

        def worker():
            try:
                for _ in range(4):
                    results.append(db.sql(sql, options))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        assert len(results) == 8
        for result in results:
            assert_identical(serial, result, f"q{number}")
        assert snapshot(statement.block) == before


class TestValidity:
    SQL = "select sum(x.data->>'v'::int) as s from t x"

    def warm(self, db):
        db.sql(self.SQL)
        db.sql(self.SQL)
        assert len(db.statements) == 1

    def test_drop_and_recreate_rebinds(self):
        db = small_db(range(4))
        self.warm(db)
        db.drop_table("t")
        assert len(db.statements) == 0
        db.load_table("t", [{"v": 100}])
        assert db.sql(self.SQL).scalar() == 100
        assert db.statements.stats()["invalidations"] == 1

    def test_register_rebinds(self):
        db = small_db(range(4))
        self.warm(db)
        other = small_db([7, 8]).table("t")
        db.register("t", other)
        assert db.sql(self.SQL).scalar() == 15

    def test_direct_catalog_write_rebinds(self):
        db = small_db(range(4))
        self.warm(db)
        db.tables["t"] = small_db([1]).table("t")
        stats = db.statements.stats()
        assert db.sql(self.SQL).scalar() == 1
        after = db.statements.stats()
        assert after["invalidations"] == stats["invalidations"] + 1
        assert after["misses"] == stats["misses"] + 1
        # re-admitted at once: the text was already seen twice
        assert len(db.statements) == 1
        assert db.sql(self.SQL).scalar() == 1
        assert db.statements.stats()["hits"] == stats["hits"] + 1

    def test_open_rebinds(self, tmp_path):
        db = small_db(range(4), directory=tmp_path / "store")
        self.warm(db)
        db.close()
        assert len(db.statements) == 0
        reopened = Database.open(tmp_path / "store")
        assert reopened.sql(self.SQL).scalar() == 6
        stats = reopened.statement_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_cache_does_not_keep_a_dropped_relation_alive(self):
        db = small_db(range(4))
        self.warm(db)
        ref = weakref.ref(db.table("t"))
        db.drop_table("t")
        gc.collect()
        assert ref() is None

    def test_child_tables_invalidate_with_their_parent(self):
        db = twitter.make_database(60, StorageFormat.TILES_STAR, TINY)
        child = next(name for name in db.tables if "__" in name)
        sql = f"select count(*) as n from {child} c"
        db.sql(sql)
        db.sql(sql)
        assert len(db.statements) == 1
        db.drop_table("tweets")
        assert len(db.statements) == 0
        with pytest.raises(Exception, match="unknown table"):
            db.sql(sql)


class TestAdmission:
    def test_options_are_part_of_the_key(self):
        db = small_db()
        sql = "select count(*) as n from t x"
        for options in (QueryOptions(parallelism=1),
                        QueryOptions(parallelism=2)):
            db.sql(sql, options)
            db.sql(sql, options)
        assert len(db.statements) == 2
        assert db.statements.stats()["admissions"] == 2
        db.sql(sql, QueryOptions(parallelism=1))
        assert db.statements.stats()["hits"] == 1

    def test_unrepeated_texts_are_never_cached(self):
        db = small_db()
        for bound in range(40):
            db.sql(f"select count(*) as n from t x "
                   f"where x.data->>'v'::int > {bound}")
        stats = db.statement_cache_stats()
        assert stats["entries"] == 0
        assert stats["admissions"] == 0 and stats["hits"] == 0
        assert stats["misses"] == 40

    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(statements, "CAPACITY", 3)
        monkeypatch.setattr(statements, "SEEN_CAPACITY", 4)
        db = small_db()
        cache = StatementCache()
        texts = [f"select count(*) as n from t x "
                 f"where x.data->>'v'::int > {bound}" for bound in range(6)]
        for sql in texts:
            cache.prepare(sql, QueryOptions(), db.tables)
            cache.prepare(sql, QueryOptions(), db.tables)
        assert len(cache) == 3
        stats = cache.stats()
        assert stats["admissions"] == 6 and stats["evictions"] == 3
        for sql in texts[3:]:
            cache.prepare(sql, QueryOptions(), db.tables)
        assert cache.stats()["hits"] == 3
        for sql in texts[6:] + [f"select count(*) as n from t x "
                                f"where x.data->>'g'::int = {g}"
                                for g in range(10)]:
            cache.prepare(sql, QueryOptions(), db.tables)
        assert len(cache._seen) == 4

    def test_failed_bind_is_not_admitted(self):
        db = small_db()
        sql = "select count(*) as n from missing m"
        for _ in range(3):
            with pytest.raises(Exception, match="unknown table"):
                db.sql(sql)
        assert len(db.statements) == 0


def test_concurrent_lookups_keep_the_counters_exact(monkeypatch):
    # more threads than cores and a short switch interval: a lost
    # counter update or a torn LRU would break the invariants below
    monkeypatch.setattr(statements, "CAPACITY", 4)
    monkeypatch.setattr(statements, "SEEN_CAPACITY", 8)
    db = small_db()
    db.statements = StatementCache()
    texts = [f"select count(*) as n from t x where x.data->>'v'::int > {b}"
             for b in range(8)]
    calls_per_thread, errors = 60, []

    def worker(offset):
        try:
            for call in range(calls_per_thread):
                bound = (offset + call) % len(texts)
                assert db.sql(texts[bound]).scalar() == 19 - bound
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    stats = db.statement_cache_stats()
    assert stats["hits"] + stats["misses"] == 6 * calls_per_thread
    assert stats["entries"] == len(db.statements) <= 4
    assert stats["admissions"] - stats["evictions"] == stats["entries"]


class TestServer:
    @pytest.fixture()
    def server(self, tmp_path):
        instance = JsonTilesServer(tmp_path / "data", wal_sync=False,
                                   query_workers=2)
        instance.start_in_thread()
        yield instance
        instance.stop_in_thread()

    def test_parses_once_on_a_miss_and_never_on_a_hit(self, server,
                                                      monkeypatch):
        parses = []
        original = parser.Parser.__init__

        def counting(self, text):
            parses.append(text)
            original(self, text)

        with ServerClient(port=server.port) as client:
            client.create_table("t", "tiles", {"tile_size": 8,
                                               "partition_size": 2})
            client.insert_many("t", [{"v": v} for v in range(20)])
            sql = "select sum(x.data->>'v'::int) as s from t x"
            monkeypatch.setattr(parser.Parser, "__init__", counting)
            counts = []
            for _ in range(4):
                before = len(parses)
                assert client.query(sql).scalar() == 190
                counts.append(len(parses) - before)
            assert counts == [1, 1, 0, 0]
            before = len(parses)
            assert "join order" in client.explain(sql)
            assert len(parses) - before == 1
            # fresh inserts are still observed through a cached block
            client.insert_many("t", [{"v": 10}])
            assert client.query(sql).scalar() == 200
            stats = client.stats()["statements"]
        assert stats["hits"] == 3
        assert stats["misses"] == 2
        assert stats["admissions"] == 1
        assert stats["entries"] == 1
        assert set(stats) == {"entries", "capacity", "hits", "misses",
                              "admissions", "evictions", "invalidations"}

    def test_subquery_tables_are_flushed_and_locked(self, server):
        # b is named only inside a WHERE subquery: its acknowledged,
        # still-buffered inserts must be sealed before the scan
        tiny = {"tile_size": 8, "partition_size": 2}
        sql = ("select count(*) as n from a x where x.data->>'id'::int "
               "in (select y.data->>'id'::int from b y)")
        with ServerClient(port=server.port) as client:
            client.create_table("a", "tiles", tiny)
            client.create_table("b", "tiles", tiny)
            client.insert_many("a", [{"id": i} for i in range(5)])
            client.insert_many("b", [{"id": 1}, {"id": 3}])
            assert client.query(sql).scalar() == 2
            client.insert_many("b", [{"id": 4}])
            assert client.query(sql).scalar() == 3
            client.insert_many("b", [{"id": 0}])
            assert client.query(sql).scalar() == 4  # a cache hit
