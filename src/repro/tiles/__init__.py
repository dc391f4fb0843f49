"""JSON tiles: local schema detection, extraction and reordering
(Section 3), tile headers and skipping metadata (Section 4).

* :class:`ExtractionConfig` — tile size / partition size / threshold.
* :func:`build_tile` — construct one tile (mining, type choice,
  date detection, materialization, header, statistics).
* :func:`extend_tile` — append documents to a tile under its schema.
* :func:`reorder_partition` — the Section 3.2 redistribution.
* :mod:`repro.tiles.arrays` — high-cardinality array extraction
  (the Tiles-* variant).
"""

from repro.tiles.extractor import (
    ExtractionConfig,
    TileSchema,
    build_tile,
    choose_schema,
    extend_tile,
)
from repro.tiles.header import ExtractedColumn, TileHeader
from repro.tiles.reorder import apply_order, reorder_partition
from repro.tiles.tile import Tile

__all__ = [
    "ExtractedColumn",
    "ExtractionConfig",
    "Tile",
    "TileHeader",
    "TileSchema",
    "apply_order",
    "build_tile",
    "choose_schema",
    "extend_tile",
    "reorder_partition",
]
