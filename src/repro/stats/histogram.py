"""Equi-depth histograms over numeric extracted columns.

Section 4.6 uses HyperLogLog sketches as Umbra's primary domain
statistic and notes that "the collection of regular histograms would
work analogously".  This module provides that analogous path with the
histogram flavour database systems actually use: *equi-depth* buckets,
whose quantile boundaries carry the skew that fixed-width buckets
smear out.  Per-tile histograms are built at tile finalization and
merged into a relation-level histogram used for range selectivities.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

DEFAULT_BUCKETS = 32


class EquiDepthHistogram:
    """Quantile-boundary histogram.

    ``boundaries`` has ``b + 1`` sorted entries; bucket *i* covers
    ``[boundaries[i], boundaries[i+1])`` and holds ``counts[i]`` values.
    Zero-width buckets represent point masses (heavy duplicates) and
    count fully once the probe reaches their edge.
    """

    __slots__ = ("boundaries", "counts")

    def __init__(self, boundaries: np.ndarray, counts: np.ndarray):
        self.boundaries = np.asarray(boundaries, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.float64)

    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[float],
                    buckets: int = DEFAULT_BUCKETS
                    ) -> Optional["EquiDepthHistogram"]:
        """Build from raw values; ``None`` for empty input."""
        data = np.asarray(values, dtype=np.float64)
        data = data[np.isfinite(data)]
        if len(data) == 0:
            return None
        buckets = min(buckets, len(data))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        boundaries = np.quantile(data, quantiles)
        counts = np.full(buckets, len(data) / buckets, dtype=np.float64)
        return cls(boundaries, counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def low(self) -> float:
        return float(self.boundaries[0])

    @property
    def high(self) -> float:
        return float(self.boundaries[-1])

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    # ------------------------------------------------------------------
    # estimation

    def count_below(self, value: float) -> float:
        """Number of values <= *value* (inclusive for point masses)."""
        return float(self.counts_below(np.array([value], dtype=np.float64))[0])

    def counts_below(self, values: np.ndarray) -> np.ndarray:
        """:meth:`count_below` of every entry of *values*, vectorized.

        The buckets ending at or before a value count fully (a running
        ``cumsum``, summed in bucket order like a scalar fold); the one
        bucket the value falls inside counts pro rata.  Boundaries are
        sorted, so ``searchsorted`` over the right edges finds both.
        """
        boundaries, counts = self.boundaries, self.counts
        # False below the histogram and for NaN: both count nothing
        reached = values >= boundaries[0]
        full = np.searchsorted(boundaries[1:], values, side="right")
        totals = np.concatenate(([0.0], np.cumsum(counts)))[full]
        inside = reached & (full < len(counts))
        bucket = full[inside]
        left = boundaries[bucket]
        totals[inside] += (counts[bucket] * (values[inside] - left)
                           / (boundaries[bucket + 1] - left))
        totals[~reached] = 0.0
        return totals

    def fraction_below(self, value: float) -> float:
        """P(x <= value)."""
        if self.total == 0:
            return 0.0
        return min(1.0, self.count_below(value) / self.total)

    def fraction_between(self, low: Optional[float],
                         high: Optional[float]) -> float:
        """P(low <= x <= high); open bounds with ``None``."""
        upper = self.fraction_below(high) if high is not None else 1.0
        lower = self.fraction_below(low) if low is not None else 0.0
        # the lower bound is inclusive: add back the point mass at low
        if low is not None:
            lower -= self._point_mass(low) / max(1.0, self.total)
            lower = max(0.0, lower)
        return max(0.0, upper - lower)

    def _point_mass(self, value: float) -> float:
        """Mass concentrated in zero-width buckets exactly at *value*."""
        mass = 0.0
        for index in range(self.num_buckets):
            left = self.boundaries[index]
            right = self.boundaries[index + 1]
            if left == right == value:
                mass += self.counts[index]
            elif left > value:
                break
        return mass

    # ------------------------------------------------------------------
    # merging (tile histograms -> relation histogram)

    def merge(self, other: "EquiDepthHistogram") -> "EquiDepthHistogram":
        """Combine two histograms by re-quantiling the summed CDF.

        The merged cumulative distribution is evaluated on the union of
        both boundary grids and inverted at equi-depth targets — exact
        in total mass, approximate within buckets (as any bounded
        summary must be).
        """
        total = self.total + other.total
        if total == 0:
            return self.copy()
        grid = np.unique(np.concatenate([self.boundaries, other.boundaries]))
        cumulative = self.counts_below(grid) + other.counts_below(grid)
        # np.interp needs strictly increasing sample points; point
        # masses make the CDF locally flat, so nudge it minimally
        cumulative = cumulative + np.arange(len(grid)) * 1e-9
        buckets = max(self.num_buckets, other.num_buckets)
        targets = np.linspace(0.0, total, buckets + 1)
        # invert the CDF: for each target mass find the grid position
        boundaries = np.interp(targets, cumulative, grid)
        boundaries[0] = min(self.low, other.low)
        boundaries[-1] = max(self.high, other.high)
        counts = np.full(buckets, total / buckets, dtype=np.float64)
        return EquiDepthHistogram(boundaries, counts)

    def copy(self) -> "EquiDepthHistogram":
        return EquiDepthHistogram(self.boundaries.copy(), self.counts.copy())

    def __repr__(self) -> str:
        return (f"EquiDepthHistogram([{self.low}, {self.high}], "
                f"n={self.total:.0f}, b={self.num_buckets})")


#: Backwards-compatible alias (the histogram flavour is an
#: implementation choice; the stats layer only uses the shared API).
EquiWidthHistogram = EquiDepthHistogram
