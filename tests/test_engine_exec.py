"""Tests for the vectorized engine: scans, expressions, operators."""

import numpy as np
import pytest

from repro import Database
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import Batch, concat_batches
from repro.engine.expressions import (
    Arithmetic,
    BoolAnd,
    BoolOr,
    Case,
    Cast,
    ColumnRef,
    Comparison,
    ExtractYear,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Substring,
)
from repro.engine.operators import (
    AggregateSpec,
    BatchSource,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    JoinKind,
    LimitOp,
    ProjectOp,
    SortKey,
    SortOp,
)
from repro.engine.scan import ROWID_PATH, AccessRequest, TableScan
from repro.storage import StorageFormat, load_documents
from repro.storage.column import ColumnVector
from repro.tiles import ExtractionConfig


def batch_of(**columns):
    vectors = {}
    length = None
    for name, (ctype, values) in columns.items():
        vectors[name] = ColumnVector.from_values(ctype, values)
        length = len(values)
    return Batch(vectors, length)


class TestExpressions:
    def setup_method(self):
        self.batch = batch_of(
            a=(ColumnType.INT64, [1, 2, None, 4]),
            b=(ColumnType.INT64, [1, 0, 3, None]),
            s=(ColumnType.STRING, ["foo", "bar", None, "foobar"]),
        )

    def col(self, name, ctype=ColumnType.INT64):
        return ColumnRef(name, ctype)

    def test_comparison_propagates_null(self):
        result = Comparison("=", self.col("a"), self.col("b")).evaluate(self.batch)
        assert result.to_list() == [True, False, None, None]

    def test_less_than(self):
        result = Comparison("<", self.col("a"), self.col("b")).evaluate(self.batch)
        assert result.to_list() == [False, False, None, None]

    def test_arithmetic(self):
        result = Arithmetic("+", self.col("a"), self.col("b")).evaluate(self.batch)
        assert result.to_list() == [2, 2, None, None]

    def test_division_is_float_and_null_on_zero(self):
        result = Arithmetic("/", self.col("a"), self.col("b")).evaluate(self.batch)
        assert result.to_list() == [1.0, None, None, None]

    def test_kleene_and(self):
        t = Literal(True, ColumnType.BOOL)
        null_bool = IsNull(self.col("a"))  # false,false,true,false
        expr = BoolAnd(t, null_bool)
        assert expr.evaluate(self.batch).to_list() == [False, False, True, False]

    def test_kleene_or_with_null(self):
        # (a = b) OR (a IS NULL): row3 null=null -> true via IS NULL
        expr = BoolOr(Comparison("=", self.col("a"), self.col("b")),
                      IsNull(self.col("a")))
        assert expr.evaluate(self.batch).to_list() == [True, False, True, None]

    def test_not(self):
        expr = Not(Comparison("=", self.col("a"), self.col("b")))
        assert expr.evaluate(self.batch).to_list() == [False, True, None, None]

    def test_is_null_and_is_not_null(self):
        assert IsNull(self.col("a")).evaluate(self.batch).to_list() == \
            [False, False, True, False]
        assert IsNull(self.col("a"), negated=True).evaluate(self.batch).to_list() == \
            [True, True, False, True]

    def test_in_list(self):
        expr = InList(self.col("a"), [1, 4])
        assert expr.evaluate(self.batch).to_list() == [True, False, None, True]

    def test_like(self):
        expr = Like(ColumnRef("s", ColumnType.STRING), "foo%")
        assert expr.evaluate(self.batch).to_list() == [True, False, None, True]

    def test_like_underscore(self):
        expr = Like(ColumnRef("s", ColumnType.STRING), "b_r")
        assert expr.evaluate(self.batch).to_list() == [False, True, None, False]

    def test_case(self):
        expr = Case(
            [(Comparison("=", self.col("a"), Literal(1, ColumnType.INT64)),
              Literal(10, ColumnType.INT64))],
            Literal(0, ColumnType.INT64),
            ColumnType.INT64,
        )
        assert expr.evaluate(self.batch).to_list() == [10, 0, 0, 0]

    def test_extract_year(self):
        from repro.core.datetimes import date_literal
        batch = batch_of(ts=(ColumnType.TIMESTAMP,
                             [date_literal("1994-03-15"),
                              date_literal("2020-12-31"), None]))
        expr = ExtractYear(ColumnRef("ts", ColumnType.TIMESTAMP))
        assert expr.evaluate(batch).to_list() == [1994, 2020, None]

    def test_substring(self):
        expr = Substring(ColumnRef("s", ColumnType.STRING), 1, 2)
        assert expr.evaluate(self.batch).to_list() == ["fo", "ba", None, "fo"]

    def test_cast_string_to_int(self):
        batch = batch_of(x=(ColumnType.STRING, ["12", "oops", None]))
        result = Cast(ColumnRef("x", ColumnType.STRING),
                      ColumnType.INT64).evaluate(batch)
        assert result.to_list() == [12, None, None]

    def test_null_rejection_analysis(self):
        a, b = self.col("a"), self.col("b")
        eq = Comparison("=", a, b)
        assert eq.null_rejected_refs() == {"a", "b"}
        assert BoolOr(eq, IsNull(a)).null_rejected_refs() == set()
        assert BoolAnd(eq, IsNull(a)).null_rejected_refs() == {"a", "b"}
        assert IsNull(a).null_rejected_refs() == set()
        assert IsNull(a, negated=True).null_rejected_refs() == {"a"}


DOCS = [
    {"id": i, "price": float(i) * 1.5, "label": f"item{i % 3}",
     "created": "2020-06-01", "user": {"id": i % 5}}
    for i in range(100)
]
CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def scan_relation(storage_format, requests, **kwargs):
    relation = load_documents("t", DOCS, storage_format, CONFIG)
    return relation, TableScan(relation, requests, **kwargs)


def request(path, target, as_text=True, alias="t"):
    return AccessRequest.make(alias, KeyPath.parse(path), target, as_text)


class TestScanResolution:
    @pytest.mark.parametrize("storage_format", [
        StorageFormat.JSON, StorageFormat.JSONB, StorageFormat.SINEW,
        StorageFormat.TILES,
    ])
    def test_int_access_identical_across_formats(self, storage_format):
        req = request("id", ColumnType.INT64)
        _, scan = scan_relation(storage_format, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).to_list() == list(range(100))

    @pytest.mark.parametrize("storage_format", [
        StorageFormat.JSON, StorageFormat.JSONB, StorageFormat.TILES,
    ])
    def test_nested_access(self, storage_format):
        req = request("user.id", ColumnType.INT64)
        _, scan = scan_relation(storage_format, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).to_list() == [i % 5 for i in range(100)]

    def test_tiles_avoid_fallback_for_extracted(self):
        req = request("id", ColumnType.INT64)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        list(scan.batches())
        assert scan.counters.fallback_lookups == 0

    def test_jsonb_always_falls_back(self):
        req = request("id", ColumnType.INT64)
        _, scan = scan_relation(StorageFormat.JSONB, [req])
        list(scan.batches())
        assert scan.counters.fallback_lookups == 100

    def test_cast_rewriting_int_to_float(self):
        req = request("id", ColumnType.FLOAT64)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).to_list() == [float(i) for i in range(100)]
        assert scan.counters.fallback_lookups == 0

    def test_timestamp_access_uses_date_column(self):
        req = request("created", ColumnType.TIMESTAMP)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        batch = concat_batches(list(scan.batches()))
        from repro.core.datetimes import date_literal
        assert batch.column(req.name).value(0) == date_literal("2020-06-01")
        assert scan.counters.fallback_lookups == 0

    def test_text_access_on_date_column_falls_back(self):
        # Section 4.9: Date/Time -> text is forbidden; the original
        # string must come from JSONB
        req = request("created", ColumnType.STRING)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).value(0) == "2020-06-01"
        assert scan.counters.fallback_lookups == 100

    def test_missing_path_yields_nulls(self):
        req = request("nope", ColumnType.INT64)
        _, scan = scan_relation(StorageFormat.JSONB, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).to_list() == [None] * 100

    def test_rowid_request(self):
        req = AccessRequest.make("t", ROWID_PATH, ColumnType.INT64, False)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).to_list() == list(range(100))

    def test_jsonb_mode_access_returns_python_values(self):
        req = request("user", ColumnType.JSONB, as_text=False)
        _, scan = scan_relation(StorageFormat.TILES, [req])
        batch = concat_batches(list(scan.batches()))
        assert batch.column(req.name).value(3) == {"id": 3}

    def test_type_conflict_fallback(self):
        docs = [{"v": i} for i in range(30)] + [{"v": "4.5"}, {"v": 31}]
        relation = load_documents("t", docs, StorageFormat.TILES,
                                  ExtractionConfig(tile_size=32))
        req = request("v", ColumnType.FLOAT64)
        scan = TableScan(relation, [req])
        batch = concat_batches(list(scan.batches()))
        values = batch.column(req.name).to_list()
        assert values[30] == 4.5  # outlier served from JSONB
        assert values[31] == 31.0


class TestTileSkipping:
    def make_relation(self):
        docs = [{"kind": "a", "x": i} for i in range(64)] + \
               [{"kind": "b", "y": i} for i in range(64)]
        return load_documents("t", docs, StorageFormat.TILES,
                              ExtractionConfig(tile_size=32, partition_size=2,
                                               enable_reordering=False))

    def test_skips_tiles_without_path(self):
        relation = self.make_relation()
        req = request("y", ColumnType.INT64)
        scan = TableScan(relation, [req], skip_paths=[KeyPath.parse("y")])
        batch = concat_batches(list(scan.batches()))
        assert scan.counters.tiles_skipped == 2
        assert batch.column(req.name).to_list() == list(range(64))

    def test_skipping_disabled(self):
        relation = self.make_relation()
        req = request("y", ColumnType.INT64)
        scan = TableScan(relation, [req], skip_paths=[KeyPath.parse("y")],
                         enable_skipping=False)
        list(scan.batches())
        assert scan.counters.tiles_skipped == 0

    #: null-rejecting accesses to an array and to an array below an
    #: object; only rows 0..7 hold them
    ARRAY_QUERIES = {
        "length": "json_length(t.data->'a') > 0",
        "array": "t.data->'a' is not null",
        "slot": "(t.data->'a'->>0)::int >= 0",
        "nested": "t.data->'o'->'x' is not null",
    }

    @pytest.mark.parametrize("cap, skipped", [(8, 3), (0, 0)])
    @pytest.mark.parametrize("query", sorted(ARRAY_QUERIES))
    def test_skipping_keeps_array_rows(self, query, cap, skipped):
        # with a zero array cap a non-empty array records no key path,
        # so the header has no spans and must not claim the path absent
        sql = ("select count(*) as n from t t where "
               + self.ARRAY_QUERIES[query])
        docs = [{"k": i, "a": [i, i + 1], "o": {"x": [i]}} if i < 8
                else {"k": i} for i in range(64)]
        config = ExtractionConfig(tile_size=16, enable_reordering=False,
                                  max_array_elements=cap)
        counts = {}
        for storage_format in (StorageFormat.TILES, StorageFormat.JSONB):
            db = Database(storage_format, config)
            db.load_table("t", docs)
            result = db.sql(sql)
            counts[storage_format] = result.scalar()
            if storage_format == StorageFormat.TILES:
                assert result.counters.tiles_skipped == skipped
        assert counts == {StorageFormat.TILES: 8, StorageFormat.JSONB: 8}

    def test_jsonb_format_cannot_skip(self):
        docs = [{"kind": "a", "x": i} for i in range(64)] + \
               [{"kind": "b", "y": i} for i in range(64)]
        relation = load_documents("t", docs, StorageFormat.JSONB,
                                  ExtractionConfig(tile_size=32))
        req = request("y", ColumnType.INT64)
        scan = TableScan(relation, [req], skip_paths=[KeyPath.parse("y")])
        list(scan.batches())
        assert scan.counters.tiles_skipped == 0


class TestOperators:
    def test_filter(self):
        source = BatchSource([batch_of(a=(ColumnType.INT64, [1, 2, 3, None]))])
        predicate = Comparison(">", ColumnRef("a", ColumnType.INT64),
                               Literal(1, ColumnType.INT64))
        result = FilterOp(source, predicate).materialize()
        assert result.column("a").to_list() == [2, 3]

    def test_project(self):
        source = BatchSource([batch_of(a=(ColumnType.INT64, [1, 2]))])
        out = ProjectOp(source, [("b", Arithmetic(
            "*", ColumnRef("a", ColumnType.INT64),
            Literal(10, ColumnType.INT64)))]).materialize()
        assert out.column("b").to_list() == [10, 20]

    def _join_sides(self):
        left = BatchSource([batch_of(
            lk=(ColumnType.INT64, [1, 2, 2, 3, None]),
            lv=(ColumnType.STRING, ["a", "b", "c", "d", "e"]),
        )])
        right = BatchSource([batch_of(
            rk=(ColumnType.INT64, [2, 3, 3, 4]),
            rv=(ColumnType.STRING, ["x", "y", "z", "w"]),
        )])
        keys = ([ColumnRef("lk", ColumnType.INT64)],
                [ColumnRef("rk", ColumnType.INT64)])
        return left, right, keys

    def test_inner_join(self):
        left, right, (lk, rk) = self._join_sides()
        result = HashJoinOp(left, right, lk, rk).materialize()
        pairs = sorted(zip(result.column("lv").to_list(),
                           result.column("rv").to_list()))
        assert pairs == [("b", "x"), ("c", "x"), ("d", "y"), ("d", "z")]

    def test_left_join_pads_nulls(self):
        left, right, (lk, rk) = self._join_sides()
        result = HashJoinOp(left, right, lk, rk, JoinKind.LEFT).materialize()
        rows = sorted(zip(result.column("lv").to_list(),
                          result.column("rv").to_list()),
                      key=lambda r: (r[0], r[1] or ""))
        assert rows == [("a", None), ("b", "x"), ("c", "x"), ("d", "y"),
                        ("d", "z"), ("e", None)]

    def test_semi_join(self):
        left, right, (lk, rk) = self._join_sides()
        result = HashJoinOp(left, right, lk, rk, JoinKind.SEMI).materialize()
        assert sorted(result.column("lv").to_list()) == ["b", "c", "d"]

    def test_anti_join(self):
        left, right, (lk, rk) = self._join_sides()
        result = HashJoinOp(left, right, lk, rk, JoinKind.ANTI).materialize()
        assert sorted(result.column("lv").to_list()) == ["a", "e"]

    def test_join_string_keys(self):
        left = BatchSource([batch_of(lk=(ColumnType.STRING, ["x", "y"]))])
        right = BatchSource([batch_of(rk=(ColumnType.STRING, ["y", "z"]))])
        result = HashJoinOp(left, right,
                            [ColumnRef("lk", ColumnType.STRING)],
                            [ColumnRef("rk", ColumnType.STRING)]).materialize()
        assert result.column("lk").to_list() == ["y"]

    def test_join_residual_predicate(self):
        left, right, (lk, rk) = self._join_sides()
        residual = Comparison("<", ColumnRef("lv", ColumnType.STRING),
                              ColumnRef("rv", ColumnType.STRING))
        result = HashJoinOp(left, right, lk, rk, JoinKind.INNER,
                            residual=residual).materialize()
        pairs = sorted(zip(result.column("lv").to_list(),
                           result.column("rv").to_list()))
        assert pairs == [("b", "x"), ("c", "x"), ("d", "y"), ("d", "z")]

    def test_aggregate_group_by(self):
        source = BatchSource([batch_of(
            g=(ColumnType.STRING, ["a", "b", "a", "a", None]),
            v=(ColumnType.INT64, [1, 2, 3, None, 5]),
        )])
        op = HashAggregateOp(
            source,
            [("g", ColumnRef("g", ColumnType.STRING))],
            [AggregateSpec("sum", ColumnRef("v", ColumnType.INT64), "total"),
             AggregateSpec("count", ColumnRef("v", ColumnType.INT64), "cnt"),
             AggregateSpec("count_star", None, "stars"),
             AggregateSpec("avg", ColumnRef("v", ColumnType.INT64), "mean"),
             AggregateSpec("min", ColumnRef("v", ColumnType.INT64), "lo"),
             AggregateSpec("max", ColumnRef("v", ColumnType.INT64), "hi")],
        )
        result = op.materialize()
        rows = {result.column("g").value(i): i for i in range(result.length)}
        a = rows["a"]
        assert result.column("total").value(a) == 4
        assert result.column("cnt").value(a) == 2
        assert result.column("stars").value(a) == 3
        assert result.column("mean").value(a) == 2.0
        assert result.column("lo").value(a) == 1
        assert result.column("hi").value(a) == 3
        assert None in rows  # NULL is its own group

    def test_count_distinct(self):
        source = BatchSource([batch_of(
            v=(ColumnType.INT64, [1, 1, 2, None, 2, 3]))])
        op = HashAggregateOp(source, [], [
            AggregateSpec("count_distinct", ColumnRef("v", ColumnType.INT64),
                          "distinct")])
        assert op.materialize().column("distinct").value(0) == 3

    def test_scalar_aggregate_on_empty_input(self):
        source = BatchSource([])
        op = HashAggregateOp(source, [], [AggregateSpec("count_star", None, "n")])
        assert op.materialize().column("n").value(0) == 0

    def test_sort_asc_desc_with_nulls(self):
        source = BatchSource([batch_of(
            a=(ColumnType.INT64, [3, None, 1, 2]),
            b=(ColumnType.STRING, ["x", "y", "z", "w"]),
        )])
        result = SortOp(source, [SortKey("a")]).materialize()
        assert result.column("a").to_list() == [1, 2, 3, None]
        result = SortOp(source, [SortKey("a", descending=True)]).materialize()
        assert result.column("a").to_list() == [3, 2, 1, None]

    def test_sort_multi_key(self):
        source = BatchSource([batch_of(
            a=(ColumnType.INT64, [1, 1, 2]),
            b=(ColumnType.INT64, [2, 1, 0]),
        )])
        result = SortOp(source, [SortKey("a"), SortKey("b", True)]).materialize()
        assert result.column("b").to_list() == [2, 1, 0]

    def test_limit(self):
        source = BatchSource([
            batch_of(a=(ColumnType.INT64, [1, 2, 3])),
            batch_of(a=(ColumnType.INT64, [4, 5, 6])),
        ])
        result = LimitOp(source, 4).materialize()
        assert result.column("a").to_list() == [1, 2, 3, 4]
