"""Tests for equi-depth histograms and their optimizer integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig
from repro.core.jsonpath import KeyPath
from repro.stats.histogram import EquiDepthHistogram


class TestHistogramBasics:
    def test_uniform_fractions(self):
        histogram = EquiDepthHistogram.from_values(list(range(1000)))
        assert histogram.total == 1000
        assert histogram.fraction_below(499.5) == pytest.approx(0.5, abs=0.05)
        assert histogram.fraction_below(-10) == 0.0
        assert histogram.fraction_below(2000) == 1.0

    def test_between(self):
        histogram = EquiDepthHistogram.from_values(list(range(100)))
        assert histogram.fraction_between(25, 74) == pytest.approx(0.5,
                                                                   abs=0.06)
        assert histogram.fraction_between(None, 49) == pytest.approx(0.5,
                                                                     abs=0.06)
        assert histogram.fraction_between(90, 10) == 0.0

    def test_skewed_distribution_beats_uniform_assumption(self):
        # 90% of mass in [0, 10], 10% in [10, 1000]
        values = [i % 10 for i in range(900)] + \
                 [10 + (i * 99) % 990 for i in range(100)]
        histogram = EquiDepthHistogram.from_values(values)
        below_ten = histogram.fraction_below(10.0)
        assert below_ten > 0.8  # uniform min/max assumption would say 1%

    def test_degenerate_single_value(self):
        histogram = EquiDepthHistogram.from_values([5.0] * 50)
        assert histogram.total == 50
        assert histogram.fraction_below(5.0) == pytest.approx(1.0, abs=0.01)
        assert histogram.fraction_below(4.9) == 0.0

    def test_empty_returns_none(self):
        assert EquiDepthHistogram.from_values([]) is None
        assert EquiDepthHistogram.from_values([float("nan")]) is None

    def test_merge_preserves_total(self):
        left = EquiDepthHistogram.from_values(list(range(100)))
        right = EquiDepthHistogram.from_values(list(range(500, 1000)))
        merged = left.merge(right)
        assert merged.total == pytest.approx(600)
        assert merged.low == 0 and merged.high == 999

    def test_merge_estimates_union(self):
        left = EquiDepthHistogram.from_values(list(range(0, 100)))
        right = EquiDepthHistogram.from_values(list(range(100, 200)))
        merged = left.merge(right)
        assert merged.fraction_below(100) == pytest.approx(0.5, abs=0.07)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           st.floats(-1e6, 1e6))
    def test_property_fraction_monotone_and_bounded(self, values, probe):
        histogram = EquiDepthHistogram.from_values(values)
        fraction = histogram.fraction_below(probe)
        assert 0.0 <= fraction <= 1.0
        assert histogram.fraction_below(probe + 1.0) >= fraction - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100))
    def test_property_merge_total(self, left_values, right_values):
        left = EquiDepthHistogram.from_values(left_values)
        right = EquiDepthHistogram.from_values(right_values)
        if left is None or right is None:
            return
        merged = left.merge(right)
        assert merged.total == pytest.approx(left.total + right.total)


def scalar_count_below(histogram, value):
    """The per-bucket loop ``count_below`` replaced: the oracle its
    vectorized form must match bit for bit."""
    if value < histogram.boundaries[0]:
        return 0.0
    total = 0.0
    for index in range(histogram.num_buckets):
        left = histogram.boundaries[index]
        right = histogram.boundaries[index + 1]
        if right <= value:
            total += histogram.counts[index]
        elif left <= value < right:
            total += histogram.counts[index] * (value - left) / (right - left)
        else:
            break
    return float(total)


def scalar_merge_boundaries(left, right):
    """``merge`` with the summed CDF evaluated by the scalar loop."""
    total = left.total + right.total
    grid = np.unique(np.concatenate([left.boundaries, right.boundaries]))
    cumulative = np.array([scalar_count_below(left, x)
                           + scalar_count_below(right, x) for x in grid])
    cumulative = cumulative + np.arange(len(grid)) * 1e-9
    buckets = max(left.num_buckets, right.num_buckets)
    boundaries = np.interp(np.linspace(0.0, total, buckets + 1),
                           cumulative, grid)
    boundaries[0] = min(left.low, right.low)
    boundaries[-1] = max(left.high, right.high)
    return boundaries


#: value lists with point masses (heavy duplicates) drawn in
values_strategy = st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, 7.5])),
    min_size=1, max_size=120)


class TestVectorizedCdf:
    """Optimizer estimates read merged histograms, so the vectorized
    CDF must equal the scalar loop exactly — or plans could move."""

    @settings(max_examples=200, deadline=None)
    @given(values_strategy, st.lists(st.floats(-2e3, 2e3), max_size=20))
    def test_count_below_matches_the_scalar_loop(self, values, probes):
        histogram = EquiDepthHistogram.from_values(values)
        probes = np.array(list(histogram.boundaries) + probes
                          + [np.nan, np.inf, -np.inf], dtype=np.float64)
        expected = np.array([scalar_count_below(histogram, probe)
                             for probe in probes])
        assert np.array_equal(histogram.counts_below(probes), expected)
        assert [histogram.count_below(probe) for probe in probes[:5]] == \
            list(expected[:5])

    @settings(max_examples=200, deadline=None)
    @given(values_strategy, values_strategy)
    def test_merge_matches_the_scalar_loop(self, left_values, right_values):
        left = EquiDepthHistogram.from_values(left_values)
        right = EquiDepthHistogram.from_values(right_values)
        merged = left.merge(right)
        assert np.array_equal(merged.boundaries,
                              scalar_merge_boundaries(left, right))


class TestHistogramIntegration:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(config=ExtractionConfig(tile_size=64))
        # heavily skewed: 90% of values are tiny
        docs = [{"v": (i % 10) if i % 10 != 9 else 5000 + i} for i in
                range(1000)]
        database.load_table("t", docs)
        return database

    def test_relation_histogram_exists(self, db):
        stats = db.table("t").statistics
        histogram = stats.histogram(KeyPath.parse("v"))
        assert histogram is not None
        assert histogram.total == pytest.approx(1000)

    def test_range_selectivity_uses_histogram(self, db):
        stats = db.table("t").statistics
        # true selectivity of v <= 10 is 0.9; min/max-uniform would
        # estimate ~0.2%
        selectivity = stats.range_selectivity(KeyPath.parse("v"), high=10)
        assert selectivity > 0.5

    def test_histogram_survives_persistence(self, db, tmp_path):
        from repro.storage.persist import load_relation, save_relation

        save_relation(db.table("t"), tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        histogram = restored.statistics.histogram(KeyPath.parse("v"))
        assert histogram is not None
        assert restored.statistics.range_selectivity(
            KeyPath.parse("v"), high=10) > 0.5

    def test_timestamp_histogram(self):
        database = Database(config=ExtractionConfig(tile_size=64))
        docs = [{"d": f"2020-{(i % 12) + 1:02d}-15"} for i in range(240)]
        database.load_table("t", docs)
        stats = database.table("t").statistics
        from repro.core.datetimes import date_literal
        half = stats.range_selectivity(KeyPath.parse("d"),
                                       high=date_literal("2020-06-30"))
        assert 0.3 < half < 0.7
