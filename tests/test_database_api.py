"""Tests for the public Database API and the engine's scalar functions."""

import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.errors import SqlBindError

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


class TestDatabase:
    def test_load_and_query(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": i} for i in range(10)])
        assert db.sql("select count(*) as n from t x").scalar() == 10

    def test_register_alias_names(self):
        db = Database(config=CONFIG)
        relation = db.load_table("orig", [{"a": 1}])
        db.register("alias", relation)
        assert db.table("alias") is relation

    def test_drop_table(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": 1}])
        db.drop_table("t")
        with pytest.raises(SqlBindError):
            db.sql("select count(*) as n from t x")

    def test_drop_removes_children(self):
        db = Database(config=CONFIG)
        docs = [{"id": i, "tags": [{"v": j} for j in range(i % 7)]}
                for i in range(40)]
        db.load_table("t", docs, StorageFormat.TILES_STAR,
                      array_paths=[KeyPath.parse("tags")])
        assert "t__tags" in db.tables
        db.drop_table("t")
        assert "t__tags" not in db.tables

    def test_unknown_table_raises(self):
        with pytest.raises(SqlBindError):
            Database().table("nope")

    def test_explain_lists_accesses(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": 1, "b": "x"}])
        text = db.explain("select t.data->>'a'::int as a from t "
                          "where t.data->>'b' = 'x'")
        assert "a :: INT64" in text
        assert "b :: STRING" in text
        # a pushed-down function shows its call, not its result type
        text = db.explain("select count(*) as n from t where "
                          "json_contains(t.data->'c'->'d', 'e', '#f')")
        assert "c.d :: json_contains('e', '#f')" in text
        assert ":: BOOL" not in text

    def test_default_format_applied(self):
        db = Database(StorageFormat.JSONB, CONFIG)
        relation = db.load_table("t", [{"a": 1}])
        assert relation.format == StorageFormat.JSONB

    def test_rowid_pseudo_column(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": i * 10} for i in range(5)])
        result = db.sql("select t.rowid as r, t.data->>'a'::int as a "
                        "from t order by r")
        assert result.rows == [(i, i * 10) for i in range(5)]


class TestScalarFunctions:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(config=CONFIG)
        docs = [
            {"id": 1, "tags": [{"k": "x"}, {"k": "y"}], "name": "Alice"},
            {"id": 2, "tags": [{"k": "y"}], "name": "BOB"},
            {"id": 3, "tags": [], "name": None},
            {"id": 4, "vals": [1, 2, 3], "name": "carol"},
        ]
        database.load_table("t", docs)
        return database

    def test_json_contains_object_elements(self, db):
        result = db.sql("select count(*) as n from t x "
                        "where json_contains(x.data->'tags', 'k', 'y')")
        assert result.scalar() == 2

    def test_json_contains_scalar_elements(self, db):
        result = db.sql("select count(*) as n from t x "
                        "where json_contains(x.data->'vals', '', 2)")
        assert result.scalar() == 1

    def test_json_length(self, db):
        result = db.sql("select x.data->>'id'::int as id, "
                        "json_length(x.data->'tags') as n from t x "
                        "where x.data->'tags' is not null order by id")
        assert result.rows == [(1, 2), (2, 1), (3, 0)]

    def test_lower_upper(self, db):
        result = db.sql("select lower(x.data->>'name') as lo, "
                        "upper(x.data->>'name') as hi from t x "
                        "where x.data->>'id'::int = 2")
        assert result.rows == [("bob", "BOB")]

    def test_coalesce(self, db):
        result = db.sql("select coalesce(x.data->>'name', 'unknown') as n "
                        "from t x where x.data->>'id'::int = 3")
        assert result.rows == [("unknown",)]

    def test_unknown_function_raises(self, db):
        with pytest.raises(SqlBindError):
            db.sql("select frobnicate(x.data->>'id') as y from t x")

    def test_json_contains_requires_literals(self, db):
        with pytest.raises(SqlBindError):
            db.sql("select count(*) as n from t x where "
                   "json_contains(x.data->'tags', x.data->>'name', 'y')")

    def test_json_length_of_scalars_and_objects(self, db):
        result = db.sql("select x.data->>'id'::int as id, "
                        "json_length(x.data->'name') as s, "
                        "json_length(x.data->'tags'->0) as o "
                        "from t x order by id")
        assert result.rows == [(1, None, 1), (2, None, 1), (3, None, None),
                               (4, None, None)]


class TestResultApi:
    def test_format_table_and_helpers(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": 1, "b": None}, {"a": 2, "b": "x"}])
        result = db.sql("select t.data->>'a'::int as a, t.data->>'b' as b "
                        "from t order by a")
        text = result.format_table()
        assert "NULL" in text and "a" in text
        assert result.column("a") == [1, 2]
        with pytest.raises(ValueError):
            result.scalar()

    def test_limit_rendering(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": i} for i in range(50)])
        result = db.sql("select t.data->>'a'::int as a from t order by a")
        text = result.format_table(limit=3)
        assert "50 rows total" in text


class TestExplainTree:
    def test_renders_operator_tree(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": i, "g": i % 3} for i in range(64)])
        db.load_table("d", [{"k": i} for i in range(3)])
        text = db.explain(
            "select d.data->>'k'::int as k, count(*) as n "
            "from t x, d where x.data->>'g'::int = d.data->>'k'::int "
            "and x.data->>'a'::int > 5 "
            "group by d.data->>'k'::int order by n desc limit 2")
        assert "TableScan" in text
        assert "HashJoin" in text
        assert "HashAggregate" in text
        assert "TopK" in text
        assert "zone maps" in text

    def test_renders_union(self):
        db = Database(config=CONFIG)
        db.load_table("t", [{"a": 1}])
        text = db.explain("select count(*) as n from t x union all "
                          "select count(*) as n from t y")
        assert "UnionAll (2 branches)" in text
