"""Edge-case tests across the engine: empty inputs, NULL torture,
duplicate keys, deep nesting, large batches."""

import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat

CONFIG = ExtractionConfig(tile_size=16, partition_size=2)


def make_db(docs, storage_format=StorageFormat.TILES, **config):
    db = Database(storage_format, ExtractionConfig(**{"tile_size": 16,
                                                      **config}))
    db.load_table("t", docs)
    return db


class TestEmptyAndTiny:
    def test_empty_table(self):
        db = make_db([])
        assert db.sql("select count(*) as n from t x").scalar() == 0

    def test_empty_table_group_by(self):
        db = make_db([])
        result = db.sql("select x.data->>'k' as k, count(*) as n "
                        "from t x group by x.data->>'k'")
        assert result.rows == []

    def test_single_document(self):
        db = make_db([{"a": 1}])
        assert db.sql("select x.data->>'a'::int as a from t x").rows == [(1,)]

    def test_join_with_empty_side(self):
        db = make_db([{"a": 1}])
        db.load_table("empty", [])
        result = db.sql(
            "select count(*) as n from t x, empty e "
            "where x.data->>'a'::int = e.data->>'a'::int")
        assert result.scalar() == 0

    def test_left_join_empty_right(self):
        db = make_db([{"a": 1}, {"a": 2}])
        db.load_table("empty", [])
        result = db.sql(
            "select x.data->>'a'::int as a, e.data->>'b'::int as b "
            "from t x left join empty e "
            "on x.data->>'a'::int = e.data->>'a'::int order by a")
        assert result.rows == [(1, None), (2, None)]

    def test_limit_zero(self):
        db = make_db([{"a": i} for i in range(5)])
        assert db.sql("select x.data->>'a'::int as a from t x "
                      "limit 0").rows == []


class TestNullTorture:
    DOCS = [{"v": 1}, {"v": None}, {}, {"v": 2}, {"v": None}]

    def test_aggregates_skip_nulls(self):
        db = make_db(self.DOCS)
        result = db.sql(
            "select count(*) as stars, count(x.data->>'v'::int) as vals, "
            "sum(x.data->>'v'::int) as s, avg(x.data->>'v'::int) as a "
            "from t x")
        assert result.rows == [(5, 2, 3, 1.5)]

    def test_group_by_null_key(self):
        db = make_db(self.DOCS)
        result = db.sql("select x.data->>'v'::int as v, count(*) as n "
                        "from t x group by x.data->>'v'::int order by v")
        assert (None, 3) in result.rows

    def test_null_never_equals_null(self):
        db = make_db(self.DOCS)
        result = db.sql("select count(*) as n from t x "
                        "where x.data->>'v'::int = x.data->>'v'::int")
        assert result.scalar() == 2

    def test_json_null_vs_absent_key(self):
        db = make_db([{"v": None}, {}])
        # both are SQL NULL under ->> (PostgreSQL semantics)
        result = db.sql("select count(*) as n from t x "
                        "where x.data->>'v' is null")
        assert result.scalar() == 2

    def test_not_in_with_nulls_in_probe(self):
        db = make_db(self.DOCS)
        db.load_table("keys", [{"k": 1}])
        result = db.sql(
            "select count(*) as n from t x where x.data->>'v'::int not in "
            "(select k.data->>'k'::int from keys k)")
        # SQL semantics: NULL NOT IN (1) is NULL, so the three NULL
        # probes are dropped; only v = 2 survives (NOT EXISTS would
        # keep the NULL probes — see TestNotInNullSemantics)
        assert result.scalar() == 1


class TestNotInNullSemantics:
    """``x NOT IN (subquery)`` is a null-aware anti join; ``NOT EXISTS``
    keeps plain anti-join semantics."""

    def run(self, a, b, sql):
        results = []
        for storage in (StorageFormat.TILES, StorageFormat.JSONB):
            for kernels in (True, False):
                db = make_db(a, storage)
                db.load_table("b", b)
                results.append(db.sql(sql, QueryOptions(
                    enable_kernels=kernels)).rows)
        assert all(rows == results[0] for rows in results)
        return results[0]

    NOT_IN = ("select t.data->>'x'::int as x from t t where "
              "t.data->>'x'::int not in (select b.data->>'y'::int as y "
              "from b b{where}) order by x")

    def test_null_in_subquery_rejects_every_row(self):
        rows = self.run([{"x": 1}, {"x": 2}, {"x": 3}],
                        [{"y": 1}, {"z": 5}],
                        self.NOT_IN.format(where=""))
        assert rows == []

    def test_null_probe_rejected_when_subquery_non_empty(self):
        rows = self.run([{"x": 1}, {"x": 2}, {"w": 3}],
                        [{"y": 1}, {"y": 5}],
                        self.NOT_IN.format(where=""))
        assert rows == [(2,)]

    def test_empty_subquery_keeps_every_row(self):
        rows = self.run([{"x": 1}, {"x": 2}, {"w": 3}],
                        [{"y": 1}, {"y": 5}],
                        self.NOT_IN.format(
                            where=" where b.data->>'y'::int > 100"))
        assert rows == [(1,), (2,), (None,)]

    def test_not_exists_keeps_null_probes(self):
        rows = self.run(
            [{"x": 1}, {"x": 2}, {"w": 3}], [{"y": 1}, {"z": 5}],
            "select t.data->>'x'::int as x from t t where not exists ("
            "select b.data->>'y' from b b where "
            "b.data->>'y'::int = t.data->>'x'::int) order by x")
        assert rows == [(2,), (None,)]

    def test_explain_marks_the_join(self):
        db = make_db([{"x": 1}])
        db.load_table("b", [{"y": 1}])
        assert "HashJoin [anti, null-aware]" in db.explain(
            self.NOT_IN.format(where=""))

    def test_in_is_unchanged(self):
        rows = self.run([{"x": 1}, {"x": 2}, {"w": 3}],
                        [{"y": 1}, {"z": 5}],
                        self.NOT_IN.format(where="").replace("not in", "in"))
        assert rows == [(1,)]


class TestDuplicatesAndCollisions:
    def test_same_relation_joined_to_itself(self):
        db = make_db([{"a": i % 3} for i in range(9)])
        result = db.sql(
            "select count(*) as n from t x, t y "
            "where x.data->>'a'::int = y.data->>'a'::int")
        assert result.scalar() == 27  # 3 groups of 3, squared each

    def test_many_duplicate_join_keys(self):
        db = make_db([{"k": 1} for _ in range(50)])
        db.load_table("r", [{"k": 1} for _ in range(40)])
        result = db.sql("select count(*) as n from t x, r y "
                        "where x.data->>'k'::int = y.data->>'k'::int")
        assert result.scalar() == 2000

    def test_distinct_on_duplicates(self):
        db = make_db([{"a": i % 4, "b": i % 2} for i in range(32)])
        result = db.sql("select distinct x.data->>'a'::int as a, "
                        "x.data->>'b'::int as b from t x")
        # a % 4 determines b = a % 2, so exactly 4 distinct pairs
        assert len(result) == 4
        assert len(set(result.rows)) == len(result.rows)


class TestDeepNesting:
    def test_deeply_nested_access(self):
        doc = value = {}
        for depth in range(20):
            value["level"] = {}
            value = value["level"]
        value["leaf"] = 42
        db = make_db([doc] * 4)
        path = "->'level'" * 20
        result = db.sql(f"select x.data{path}->>'leaf'::int as leaf "
                        f"from t x limit 1")
        assert result.rows == [(42,)]

    def test_unicode_keys_and_values(self):
        db = make_db([{"ключ": "значение", "数": 7}] * 4)
        result = db.sql("select x.data->>'ключ' as v, "
                        "x.data->>'数'::int as n from t x limit 1")
        assert result.rows == [("значение", 7)]

    def test_key_with_quotes_and_spaces(self):
        db = make_db([{"weird key": 1, "it''s": 2}] * 4)
        result = db.sql("select x.data->>'weird key'::int as a from t x "
                        "limit 1")
        assert result.rows == [(1,)]


class TestLargeBatches:
    def test_multibatch_scan(self):
        db = Database(config=ExtractionConfig(tile_size=512))
        db.load_table("t", [{"v": i} for i in range(5000)])
        options = QueryOptions(batch_rows=128)
        result = db.sql("select sum(x.data->>'v'::int) as s from t x",
                        options)
        assert result.scalar() == sum(range(5000))

    def test_order_stability_across_tiles(self):
        db = Database(config=ExtractionConfig(
            tile_size=64, enable_reordering=False))
        db.load_table("t", [{"v": i} for i in range(1000)])
        result = db.sql("select x.data->>'v'::int as v from t x "
                        "order by v limit 1000")
        assert result.column("v") == list(range(1000))
