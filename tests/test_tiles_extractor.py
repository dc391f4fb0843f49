"""Tests for tile extraction (Section 3.1/3.4/3.5/4.9)."""

import enum
import math

import pytest

from repro.core.datetimes import date_literal
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType, JsonType
from repro.jsonb import encode
from repro.jsonb.access import JsonbValue
from repro.tiles import ExtractionConfig, build_tile


def make_tile(documents, **config_kwargs):
    config = ExtractionConfig(**config_kwargs)
    jsonb_rows = [encode(doc) for doc in documents]
    return build_tile(documents, jsonb_rows, config, tile_number=0, first_row=0)


TILE2_DOCS = [
    {"id": 5, "create": "2010-01-01", "text": "b", "user": {"id": 7},
     "replies": 3, "geo": {"lat": 1.9}},
    {"id": 6, "create": "2011-01-01", "text": "c", "user": {"id": 1},
     "replies": 2, "geo": None},
    {"id": 7, "create": "2012-01-01", "text": "d", "user": {"id": 3},
     "replies": 0, "geo": {"lat": 2.7}},
    {"id": 8, "create": "2013-01-01", "text": "x", "user": {"id": 3},
     "replies": 1, "geo": {"lat": 3.5}},
]


class TestPaperExample:
    """Figure 2 / Section 3.1: tile #2 with threshold 60%."""

    def test_extracted_paths(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6)
        extracted = {str(path) for path in tile.columns}
        assert extracted == {"id", "create", "text", "user.id", "replies",
                             "geo.lat"}

    def test_geo_lat_column_values(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6)
        lat = tile.column(KeyPath.parse("geo.lat"))
        assert lat.to_list() == [1.9, None, 2.7, 3.5]
        assert tile.header.extracted(KeyPath.parse("geo.lat")).nullable

    def test_types_inferred(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6)
        header = tile.header
        assert header.extracted(KeyPath.parse("id")).column_type == ColumnType.INT64
        assert header.extracted(KeyPath.parse("replies")).column_type == ColumnType.INT64
        assert header.extracted(KeyPath.parse("text")).column_type == ColumnType.STRING
        assert header.extracted(KeyPath.parse("geo.lat")).column_type == ColumnType.FLOAT64

    def test_create_detected_as_timestamp(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6)
        column = tile.header.extracted(KeyPath.parse("create"))
        assert column.column_type == ColumnType.TIMESTAMP
        assert column.is_datetime
        values = tile.column(KeyPath.parse("create")).to_list()
        assert values[0] == date_literal("2010-01-01")

    def test_date_detection_can_be_disabled(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6, detect_dates=False)
        column = tile.header.extracted(KeyPath.parse("create"))
        assert column.column_type == ColumnType.STRING


class TestThresholdBehaviour:
    def test_high_threshold_drops_partial_keys(self):
        # geo.lat occurs in 3/4 tuples; with threshold 80% it is dropped
        tile = make_tile(TILE2_DOCS, threshold=0.8)
        assert tile.column(KeyPath.parse("geo.lat")) is None
        assert tile.column(KeyPath.parse("id")) is not None

    def test_extracted_prefix_visible(self):
        tile = make_tile(TILE2_DOCS, threshold=0.6)
        # `geo` itself is a prefix of the extracted geo.lat
        assert tile.header.may_contain(KeyPath.parse("geo"))


class TestTypeConflicts:
    def test_most_common_type_wins(self):
        documents = (
            [{"v": i} for i in range(7)] + [{"v": float(i) + 0.5} for i in range(3)]
        )
        tile = make_tile(documents, threshold=0.5)
        column = tile.header.extracted(KeyPath.parse("v"))
        assert column.column_type == ColumnType.INT64
        assert column.has_type_conflicts
        values = tile.column(KeyPath.parse("v")).to_list()
        assert values[:7] == list(range(7))
        assert values[7:] == [None, None, None]

    def test_fallback_preserves_outliers(self):
        documents = [{"v": 1}, {"v": 2}, {"v": "three"}, {"v": 4}]
        tile = make_tile(documents, threshold=0.5)
        assert tile.column(KeyPath.parse("v")).to_list() == [1, 2, None, 4]
        fallback = JsonbValue(tile.heap.buf, int(tile.heap.starts[2])) \
            .get_path(KeyPath.parse("v"))
        assert fallback.as_python() == "three"

    def test_int_widens_into_float_column(self):
        documents = [{"v": 0.5}, {"v": 1.5}, {"v": 2.5}, {"v": 3}]
        tile = make_tile(documents, threshold=0.7)
        column = tile.header.extracted(KeyPath.parse("v"))
        assert column.column_type == ColumnType.FLOAT64
        assert tile.column(KeyPath.parse("v")).to_list() == [0.5, 1.5, 2.5, 3.0]

    def test_numeric_strings_extract_as_decimal(self):
        documents = [{"price": "19.99"}, {"price": "5.00"}, {"price": "1.25"}]
        tile = make_tile(documents)
        column = tile.header.extracted(KeyPath.parse("price"))
        assert column.column_type == ColumnType.DECIMAL
        assert tile.column(KeyPath.parse("price")).to_list() == [19.99, 5.0, 1.25]


class TestArraysInTiles:
    def test_leading_array_elements_extracted(self):
        documents = [{"a": [1, 2, 3]} for _ in range(4)]
        tile = make_tile(documents)
        assert tile.column(KeyPath.parse("a[0]")).to_list() == [1, 1, 1, 1]
        assert tile.column(KeyPath.parse("a[2]")).to_list() == [3, 3, 3, 3]

    def test_varying_lengths_extract_common_prefix(self):
        documents = [{"a": [1, 2]}, {"a": [1, 2]}, {"a": [1, 2, 3, 4]}]
        tile = make_tile(documents, threshold=0.6)
        assert tile.column(KeyPath.parse("a[0]")) is not None
        assert tile.column(KeyPath.parse("a[1]")) is not None
        assert tile.column(KeyPath.parse("a[2]")) is None

    def test_array_element_cap(self):
        documents = [{"a": list(range(100))} for _ in range(3)]
        tile = make_tile(documents, max_array_elements=8)
        assert tile.column(KeyPath.parse("a[7]")) is not None
        assert tile.column(KeyPath.parse("a[8]")) is None


class TestStatisticsCollection:
    def test_key_counts_stored_in_header(self):
        tile = make_tile(TILE2_DOCS)
        assert tile.header.key_counts["id"] == 4
        assert tile.header.key_counts["geo.lat"] == 3

    def test_column_sketches_observe_values(self):
        documents = [{"k": i % 5} for i in range(100)]
        tile = make_tile(documents)
        stats = tile.header.statistics.columns[KeyPath.parse("k")]
        assert 4 <= stats.distinct() <= 6
        assert stats.non_null_count == 100
        assert stats.min_value == 0
        assert stats.max_value == 4


class TestPlainTile:
    def test_mine_false_extracts_nothing(self):
        tile = make_tile_plain(TILE2_DOCS)
        assert tile.columns == {}
        assert tile.row_count == 4

    def test_jsonb_rows_accessible(self):
        tile = make_tile_plain(TILE2_DOCS)
        value = JsonbValue(tile.heap.buf, int(tile.heap.starts[0])) \
            .get_path(KeyPath.parse("user.id"))
        assert value.as_python() == 7


def make_tile_plain(documents):
    config = ExtractionConfig()
    jsonb_rows = [encode(doc) for doc in documents]
    return build_tile(documents, jsonb_rows, config, tile_number=0,
                      first_row=0, mine=False)


class TestSinewStyleGlobalSchema:
    def test_fixed_schema_is_materialized(self):
        from repro.tiles import TileSchema
        from repro.tiles.header import ExtractedColumn

        schema = TileSchema(columns=[
            ExtractedColumn(KeyPath.parse("id"), JsonType.INT, ColumnType.INT64),
        ])
        config = ExtractionConfig()
        docs = TILE2_DOCS
        tile = build_tile(docs, [encode(d) for d in docs], config, 0, 0,
                          schema=schema)
        assert set(tile.columns) == {KeyPath.parse("id")}
        assert tile.column(KeyPath.parse("id")).to_list() == [5, 6, 7, 8]


class _Level(enum.IntEnum):
    LOW = 3


class _Name(str):
    pass


#: every column type, each with exact values, outliers of other types,
#: absent keys and nulls, subclass instances and non-finite floats
MIXED_DOCS = [
    {"i": 1, "f": 1.5, "s": "a", "b": True, "d": "2014-08-26", "n": "12.5",
     "x": {"y": [1, "2"]}},
    {"i": 2, "f": 2, "s": "b", "b": False, "d": "2015-01-02", "n": "-3",
     "x": {"y": [3]}},
    {"i": True, "f": "no", "s": 5, "b": 1, "d": 7, "n": 4, "x": []},
    {"i": None, "f": None, "s": None, "b": None, "d": None, "n": None},
    {"i": _Level.LOW, "f": float("nan"), "s": _Name("c"), "x": {"y": [2]}},
    {"i": 2 ** 62, "f": float("inf"), "s": "b", "b": True,
     "d": "2016-02-29", "n": "1e3", "x": {"y": "z"}},
    {"i": 2.5, "f": -0.0, "s": ["a"], "b": "true", "d": "soon", "n": "x"},
    {"i": -7, "f": 3.25, "s": "", "d": "2001-12-31", "n": "0.5"},
    5, "text", None, [1, 2],
]


def _reference_column(documents, meta):
    """The per-value extraction loop the per-type loops replaced:
    lookup, materialize, builder append, one sketch add and one bound
    comparison per value."""
    from repro.stats.table_stats import ColumnStatistics
    from repro.storage.column import ColumnBuilder
    from repro.tiles.extractor import _materialize_value

    builder = ColumnBuilder(meta.column_type)
    stats = ColumnStatistics()
    nullable, conflicts = False, meta.has_type_conflicts
    for document in documents:
        raw = meta.path.lookup(document)
        value = _materialize_value(raw, meta)
        if value is None:
            nullable = True
            conflicts = conflicts or raw is not None
            builder.append_null()
            continue
        builder.append(value)
        stats.sketch.add(value)
        if stats.min_value is None or value < stats.min_value:
            stats.min_value = value
        if stats.max_value is None or value > stats.max_value:
            stats.max_value = value
        stats.non_null_count += 1
    return builder.finish(), stats, nullable, conflicts


def _same_value(left, right):
    if isinstance(left, float) and isinstance(right, float) \
            and math.isnan(left) and math.isnan(right):
        return True
    return type(left) is type(right) and left == right


class TestPerTypeColumnLoops:
    @pytest.mark.parametrize("corpus", ["mixed", "yelp", "twitter", "tpch"])
    def test_matches_the_per_value_loop(self, corpus):
        from repro.mining.dictionary import encode_documents
        from repro.tiles.extractor import _detect_datetime_columns, choose_schema
        from repro.workloads.tpch.generator import generate_combined
        from repro.workloads.twitter import TwitterGenerator
        from repro.workloads.yelp import YelpGenerator

        documents = {
            "mixed": lambda: MIXED_DOCS,
            "yelp": lambda: YelpGenerator(20, seed=3).combined()[:256],
            "twitter": lambda: TwitterGenerator(200, seed=4).stream()[:256],
            "tpch": lambda: generate_combined(0.001, seed=5)[:256],
        }[corpus]()
        config = ExtractionConfig(threshold=0.1, tile_size=256)
        dictionary, _ = encode_documents(documents, config.max_array_elements)
        schema = choose_schema(dictionary, len(documents), config)
        _detect_datetime_columns(schema, documents, config)
        expected = {column.path: _reference_column(documents, column)
                    for column in schema.columns}
        assert {column.column_type for column in schema.columns} >= (
            {ColumnType.INT64, ColumnType.FLOAT64, ColumnType.STRING}
            if corpus == "mixed" else set())

        tile = build_tile(documents, [encode(doc) for doc in documents],
                          config, tile_number=0, first_row=0, schema=schema)
        for path, (vector, stats, nullable, conflicts) in expected.items():
            got = tile.columns[path]
            assert got.data.dtype == vector.data.dtype
            assert got.null_mask.tolist() == vector.null_mask.tolist()
            assert all(map(_same_value, got.data.tolist(),
                           vector.data.tolist()))
            meta = tile.header.columns[path]
            assert (meta.nullable, meta.has_type_conflicts) == \
                (nullable, conflicts)
            got_stats = tile.header.statistics.columns[path]
            assert got_stats.sketch.registers.tolist() == \
                stats.sketch.registers.tolist()
            assert got_stats.non_null_count == stats.non_null_count
            assert _same_value(got_stats.min_value, stats.min_value)
            assert _same_value(got_stats.max_value, stats.max_value)
