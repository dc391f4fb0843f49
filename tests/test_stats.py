"""Tests for the statistics substrate (HLL, frequency, table stats)."""

import pytest

from repro.core.jsonpath import KeyPath
from repro.stats import (
    FrequencyCounters,
    HyperLogLog,
    TableStatistics,
    TileStatistics,
    estimate_distinct,
    hash64,
)


class TestHash64:
    def test_deterministic(self):
        assert hash64("abc") == hash64("abc")
        assert hash64(42) == hash64(42)

    def test_distinct_types_differ(self):
        assert hash64("1") != hash64(1)
        assert hash64(None) != hash64(0)
        assert hash64(True) != hash64(1.5)

    def test_int_float_equality(self):
        # SQL: 1 = 1.0, so they must hash identically
        assert hash64(1) == hash64(1.0)

    def test_64bit_range(self):
        for value in ("x", 0, None, 3.7, b"bytes"):
            assert 0 <= hash64(value) < 2**64


class TestHyperLogLog:
    def test_empty_estimate_is_zero(self):
        assert HyperLogLog().estimate() == 0.0

    def test_small_cardinalities_exact_ish(self):
        sketch = HyperLogLog()
        sketch.add_many(range(10))
        assert 8 <= sketch.estimate() <= 12

    @pytest.mark.parametrize("n", [100, 1000, 20000])
    def test_accuracy_within_10_percent(self, n):
        sketch = HyperLogLog(precision=10)
        sketch.add_many(f"value-{i}" for i in range(n))
        assert abs(sketch.estimate() - n) / n < 0.10

    def test_duplicates_do_not_inflate(self):
        sketch = HyperLogLog()
        for _ in range(50):
            sketch.add_many(range(20))
        assert 15 <= sketch.estimate() <= 25

    def test_merge_estimates_union(self):
        left, right = HyperLogLog(), HyperLogLog()
        left.add_many(range(0, 1000))
        right.add_many(range(500, 1500))
        left.merge(right)
        assert abs(left.estimate() - 1500) / 1500 < 0.15

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(8).merge(HyperLogLog(9))

    def test_copy_is_independent(self):
        sketch = HyperLogLog()
        sketch.add_many(range(100))
        clone = sketch.copy()
        clone.add_many(range(100, 10000))
        assert sketch.estimate() < clone.estimate()

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(2)

    def test_one_shot_helper(self):
        assert abs(estimate_distinct(range(500)) - 500) / 500 < 0.15


class TestFrequencyCounters:
    def test_tracks_counts(self):
        counters = FrequencyCounters(capacity=8)
        counters.update_from_tile(0, {"a": 10, "b": 5})
        counters.update_from_tile(1, {"a": 7})
        assert counters.count("a") == 17
        assert counters.count("b") == 5
        assert counters.count("missing") is None

    def test_missing_key_estimates_with_minimum(self):
        counters = FrequencyCounters(capacity=8)
        counters.update_from_tile(0, {"hot": 1000, "cold": 3})
        assert counters.estimate("unknown") == 3

    def test_empty_estimate_zero(self):
        assert FrequencyCounters().estimate("x") == 0

    def test_replacement_keeps_frequent_keys(self):
        counters = FrequencyCounters(capacity=2)
        counters.update_from_tile(0, {"hot": 1000})
        counters.update_from_tile(0, {"warm": 100})
        for tile in range(1, 20):
            counters.update_from_tile(tile, {f"one-off-{tile}": 1, "hot": 1000})
        assert counters.count("hot") is not None
        assert counters.count("hot") >= 1000

    def test_capacity_bound(self):
        counters = FrequencyCounters(capacity=4)
        for tile in range(50):
            counters.update_from_tile(tile, {f"k{tile}": tile + 1})
        assert len(counters) <= 4

    def test_top(self):
        counters = FrequencyCounters()
        counters.update_from_tile(0, {"a": 5, "b": 50, "c": 1})
        assert counters.top(2) == [("b", 50), ("a", 5)]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FrequencyCounters(0)


class TestTableStatistics:
    def _tile(self, tile_number, rows, keys, column_values):
        stats = TileStatistics(row_count=rows)
        for key, count in keys.items():
            stats.observe_key(key, count)
        for path_text, values in column_values.items():
            column = stats.column(KeyPath.parse(path_text))
            for value in values:
                column.observe(value)
        return stats

    def test_aggregation(self):
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 100, {"id": 100, "geo.lat": 40},
                                         {"id": list(range(100))}))
        table.absorb_tile(1, self._tile(1, 100, {"id": 100},
                                        {"id": list(range(100, 200))}))
        assert table.row_count == 200
        assert table.key_count(KeyPath.parse("id")) == 200
        assert table.key_count(KeyPath.parse("geo.lat")) == 40
        assert abs(table.distinct(KeyPath.parse("id")) - 200) / 200 < 0.15

    def test_presence_fraction(self):
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 8, {"replies": 5}, {}))
        assert table.presence_fraction(KeyPath.parse("replies")) == 5 / 8

    def test_paper_replies_example(self):
        """Figure 2: 'replies is not null' matches 5 of 8 tuples."""
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 4, {"id": 4, "replies": 1}, {}))
        table.absorb_tile(1, self._tile(1, 4, {"id": 4, "replies": 4}, {}))
        assert table.key_count(KeyPath.parse("replies")) == 5

    def test_equality_selectivity(self):
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 1000, {"k": 1000},
                                        {"k": [i % 10 for i in range(1000)]}))
        selectivity = table.equality_selectivity(KeyPath.parse("k"))
        assert 0.05 < selectivity < 0.2  # ~1/10

    def test_range_selectivity_uses_bounds(self):
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 100, {"v": 100},
                                        {"v": list(range(100))}))
        half = table.range_selectivity(KeyPath.parse("v"), low=0, high=49.5)
        assert 0.4 < half < 0.6
        assert table.range_selectivity(KeyPath.parse("v"), low=200) == 0.0

    def test_range_selectivity_default_without_bounds(self):
        table = TableStatistics()
        assert table.range_selectivity(KeyPath.parse("nope")) == pytest.approx(1 / 3)

    def test_sketch_budget_respected(self):
        table = TableStatistics(sketch_budget=4)
        for i in range(20):
            table.absorb_tile(i, self._tile(i, 10, {}, {f"path{i}": [1, 2, 3]}))
        assert sum(table.has_sketch(KeyPath.parse(f"path{i}"))
                   for i in range(20)) <= 4

    def test_distinct_memo_is_cleared_by_absorb_tile(self):
        table = TableStatistics()
        path = KeyPath.parse("id")
        table.absorb_tile(0, self._tile(0, 100, {"id": 100, "x": 10},
                                        {"id": list(range(100))}))
        first = table.distinct(path)
        assert table.distinct(KeyPath.parse("x")) == 10.0
        table.absorb_tile(1, self._tile(1, 900, {"id": 900, "x": 20},
                                        {"id": list(range(100, 1000))}))
        assert table.distinct(path) > 5 * first
        assert table.distinct(KeyPath.parse("x")) == 30.0

    def test_distinct_read_during_absorb_tile_is_not_kept(self):
        # a reader racing a merge may compute from half-merged
        # statistics; that value must not outlive the merge
        table = TableStatistics()
        path = KeyPath.parse("id")
        table.absorb_tile(0, self._tile(0, 100, {"id": 100},
                                        {"id": list(range(100))}))
        before = table.distinct(path)
        merge = table._absorb_sketch

        def read_then_merge(*args):
            assert table.distinct(path) == before
            merge(*args)

        table._absorb_sketch = read_then_merge
        table.absorb_tile(1, self._tile(1, 900, {"id": 900},
                                        {"id": list(range(100, 1000))}))
        assert table.distinct(path) > 5 * before

    def test_distinct_fallback_without_sketch(self):
        table = TableStatistics()
        table.absorb_tile(0, self._tile(0, 50, {"x": 30}, {}))
        assert table.distinct(KeyPath.parse("x")) == 30.0
