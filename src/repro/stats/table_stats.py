"""Per-tile and relation-level statistics (Section 4.6).

While a tile is constructed, the frequency of every key path is already
known from itemset mining, and the inserted values are sampled directly
into HyperLogLog sketches ("without noticeable overhead").  Tile
statistics are aggregated into :class:`TableStatistics`, which the
query optimizer consults for scan selectivities and join cardinalities.

Budgets follow the paper: at most 64 HyperLogLog sketches and 256
frequency counter slots per relation, replaced by recency+count when
full.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.jsonpath import KeyPath
from repro.stats.frequency import FrequencyCounters
from repro.stats.hyperloglog import HyperLogLog

MAX_SKETCHES = 64
MAX_FREQUENCY_SLOTS = 256


class ColumnStatistics:
    """Statistics of one extracted key path inside one tile."""

    __slots__ = ("sketch", "non_null_count", "min_value", "max_value",
                 "histogram")

    def __init__(self, precision: int = 9):
        self.sketch = HyperLogLog(precision)
        self.non_null_count = 0
        self.min_value: Optional[object] = None
        self.max_value: Optional[object] = None
        #: equi-width histogram for numeric/timestamp columns (built at
        #: tile finalization; "histograms would work analogously")
        self.histogram = None

    def observe(self, value: object) -> None:
        if value is not None:
            self.observe_distinct((value,), 1)

    def observe_distinct(self, values: Iterable[object], count: int) -> None:
        """Observe *count* non-null values whose distinct values are
        *values*, in order of first appearance.  Equivalent to calling
        :meth:`observe` on every one of them: a sketch ``add`` is
        idempotent and the bounds depend only on the distinct values,
        so each value is hashed once."""
        values = list(values)
        self.sketch.add_many(values)
        self.widen_bounds(values)
        self.non_null_count += count

    def widen_bounds(self, values: Iterable[object]) -> None:
        """Fold *values*, in order, into the min / max bounds."""
        for value in values:
            try:
                if self.min_value is None or value < self.min_value:
                    self.min_value = value
                if self.max_value is None or value > self.max_value:
                    self.max_value = value
            except TypeError:
                # mixed-type outliers: keep the domain bounds we have
                pass

    def distinct(self) -> float:
        return self.sketch.estimate()


class TileStatistics:
    """Key-path frequencies + per-column sketches of a single tile."""

    __slots__ = ("key_counts", "columns", "row_count")

    def __init__(self, row_count: int = 0):
        self.key_counts: Dict[str, int] = {}
        self.columns: Dict[KeyPath, ColumnStatistics] = {}
        self.row_count = row_count

    def observe_key(self, path_text: str, count: int = 1) -> None:
        self.key_counts[path_text] = self.key_counts.get(path_text, 0) + count

    def column(self, path: KeyPath) -> ColumnStatistics:
        stats = self.columns.get(path)
        if stats is None:
            stats = ColumnStatistics()
            self.columns[path] = stats
        return stats


class TableStatistics:
    """Relation-level aggregate the optimizer reads.

    * ``row_count`` — total tuples.
    * frequency counters — how many tuples contain a key path; also
      answers ``IS NOT NULL`` selectivities and acts as the "table
      cardinality" of a document type in combined relations.
    * sketches — per key path distinct-value estimates for equality
      selectivity and join cardinality estimation.
    """

    def __init__(self, sketch_budget: int = MAX_SKETCHES,
                 counter_budget: int = MAX_FREQUENCY_SLOTS):
        self.row_count = 0
        self.frequencies = FrequencyCounters(counter_budget)
        self.sketch_budget = sketch_budget
        self._sketches: Dict[KeyPath, Tuple[HyperLogLog, int]] = {}
        self._bounds: Dict[KeyPath, Tuple[object, object]] = {}
        #: relation-level histograms, bounded by the sketch budget (a
        #: path gets a histogram only while it holds a sketch slot)
        self._histograms: Dict[KeyPath, object] = {}
        #: memoized :meth:`distinct`, replaced by a fresh dict at the
        #: end of every :meth:`absorb_tile`
        self._distinct: Dict[KeyPath, float] = {}

    # -- aggregation ----------------------------------------------------

    def absorb_tile(self, tile_number: int, tile_stats: TileStatistics) -> None:
        self.row_count += tile_stats.row_count
        self.frequencies.update_from_tile(tile_number, tile_stats.key_counts)
        for path, column in tile_stats.columns.items():
            self._absorb_sketch(tile_number, path, column)
        # swapped in only after the statistics changed: a concurrent
        # distinct() that read them mid-merge stores into the old dict
        self._distinct = {}

    def _absorb_sketch(self, tile_number: int, path: KeyPath,
                       column: ColumnStatistics) -> None:
        entry = self._sketches.get(path)
        if entry is not None:
            entry[0].merge(column.sketch)
            self._sketches[path] = (entry[0], tile_number)
            self._merge_histogram(path, column)
        elif len(self._sketches) < self.sketch_budget:
            self._sketches[path] = (column.sketch.copy(), tile_number)
            self._merge_histogram(path, column)
        else:
            # same replacement strategy as the frequency counters:
            # stalest slot, ties broken by smallest estimate
            victim = min(
                self._sketches.items(),
                key=lambda item: (item[1][1], item[1][0].estimate()),
            )
            if tile_number > victim[1][1]:
                del self._sketches[victim[0]]
                self._histograms.pop(victim[0], None)
                self._sketches[path] = (column.sketch.copy(), tile_number)
                self._merge_histogram(path, column)
        if column.min_value is not None:
            low, high = self._bounds.get(path, (column.min_value, column.max_value))
            try:
                low = min(low, column.min_value)
                high = max(high, column.max_value)
            except TypeError:
                pass
            self._bounds[path] = (low, high)

    # -- estimators -----------------------------------------------------

    def key_count(self, path: KeyPath) -> int:
        """Estimated number of tuples containing *path*."""
        return min(self.frequencies.estimate(str(path)), self.row_count)

    def distinct(self, path: KeyPath) -> float:
        """Estimated number of distinct values under *path*.

        Falls back to the key count when no sketch is available — the
        pessimistic relational default the paper improves on.
        """
        memo = self._distinct
        value = memo.get(path)
        if value is None:
            entry = self._sketches.get(path)
            if entry is not None:
                value = max(1.0, entry[0].estimate())
            else:
                value = float(max(1, self.key_count(path)))
            memo[path] = value
        return value

    def has_sketch(self, path: KeyPath) -> bool:
        return path in self._sketches

    def bounds(self, path: KeyPath) -> Optional[Tuple[object, object]]:
        return self._bounds.get(path)

    def equality_selectivity(self, path: KeyPath) -> float:
        """P(path = literal) among tuples that *have* the path."""
        return 1.0 / max(1.0, self.distinct(path))

    def _merge_histogram(self, path: KeyPath,
                         column: ColumnStatistics) -> None:
        if column.histogram is None:
            return
        existing = self._histograms.get(path)
        if existing is None:
            self._histograms[path] = column.histogram.copy()
        else:
            self._histograms[path] = existing.merge(column.histogram)

    def histogram(self, path: KeyPath):
        return self._histograms.get(path)

    def range_selectivity(self, path: KeyPath, low: object = None,
                          high: object = None) -> float:
        """P(low <= value <= high), from the relation histogram when one
        exists, otherwise from the tracked domain bounds.

        Only meaningful for numeric/timestamp domains; returns 1/3 (the
        textbook default) when neither is usable.
        """
        histogram = self._histograms.get(path)
        if histogram is not None:
            lo = float(low) if isinstance(low, (int, float)) else None
            hi = float(high) if isinstance(high, (int, float)) else None
            if lo is not None or hi is not None:
                return histogram.fraction_between(lo, hi)
        bounds = self._bounds.get(path)
        default = 1.0 / 3.0
        if bounds is None:
            return default
        domain_low, domain_high = bounds
        if not isinstance(domain_low, (int, float)) or domain_high == domain_low:
            return default
        span = float(domain_high) - float(domain_low)
        lo = float(domain_low) if low is None or not isinstance(low, (int, float)) \
            else max(float(low), float(domain_low))
        hi = float(domain_high) if high is None or not isinstance(high, (int, float)) \
            else min(float(high), float(domain_high))
        if hi <= lo:
            return 0.0
        return min(1.0, (hi - lo) / span)

    def presence_fraction(self, path: KeyPath) -> float:
        """Fraction of tuples containing *path* (IS NOT NULL selectivity)."""
        if self.row_count == 0:
            return 0.0
        return self.key_count(path) / self.row_count
