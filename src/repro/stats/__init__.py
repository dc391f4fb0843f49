"""Statistics substrate for query optimization (Section 4.6).

* :class:`HyperLogLog` — distinct-count sketches (64 per relation).
* :class:`FrequencyCounters` — bounded key-path frequency slots (256).
* :class:`TileStatistics` / :class:`TableStatistics` — the per-tile
  collection and relation-level aggregation the optimizer reads.
"""

from repro.stats.frequency import FrequencyCounters
from repro.stats.hyperloglog import HyperLogLog, estimate_distinct, hash64
from repro.stats.table_stats import (
    ColumnStatistics,
    TableStatistics,
    TileStatistics,
)

__all__ = [
    "ColumnStatistics",
    "FrequencyCounters",
    "HyperLogLog",
    "TableStatistics",
    "TileStatistics",
    "estimate_distinct",
    "hash64",
]
