"""Storage model variants (the paper's internal competitors, Section 6).

========== ==========================================================
JSON       the raw text string per document; every access re-parses
           (PostgreSQL ``json`` / Hyper behaviour)
JSONB      our binary format per document (Section 5); accesses walk
           the bytes but nothing is materialized
SINEW      Sinew [57]: one *global* schema extracted with a 60 %
           table-frequency cutoff, plus the JSONB fallback
TILES      JSON tiles: per-tile extraction with reordering, headers,
           statistics and skipping
TILES_STAR TILES plus high-cardinality arrays extracted into child
           relations (Section 6.3's Tiles-*)
========== ==========================================================
"""

from __future__ import annotations

import enum


class StorageFormat(enum.Enum):
    JSON = "json"
    JSONB = "jsonb"
    SINEW = "sinew"
    TILES = "tiles"
    TILES_STAR = "tiles*"

    @property
    def has_binary_rows(self) -> bool:
        """Everything but raw text keeps per-document JSONB bytes."""
        return self is not StorageFormat.JSON

    @property
    def extracts_columns(self) -> bool:
        return self in (StorageFormat.SINEW, StorageFormat.TILES,
                        StorageFormat.TILES_STAR)

    @property
    def repeats_arrays(self) -> bool:
        """Mined STRING slot columns ``chain[k].key`` become one repeated
        column ``chain[*].key`` (DESIGN.md §5h).  Tiles-* keeps the
        paper's child relations instead, as the Table 3 baseline."""
        return self is not StorageFormat.TILES_STAR

    @property
    def uses_local_schemas(self) -> bool:
        """TILES detects schemas per tile; SINEW is global."""
        return self in (StorageFormat.TILES, StorageFormat.TILES_STAR)

    @property
    def supports_skipping(self) -> bool:
        """Section 4.8 skipping trusts the per-tile headers of the
        local-schema formats: their row spans (DESIGN.md §5i) say which
        paths a tile lacks; Sinew's global schema keeps none."""
        return self.uses_local_schemas
