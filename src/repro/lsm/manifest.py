"""Epoch-stamped level manifests: consistent tile-set snapshots.

An LSM-tiered relation swaps tiles underneath running queries — a
compaction replaces a run of level-``L`` tiles with one level-``L+1``
tile while scans, morsel workers and cluster ``partial_query`` chunks
are in flight.  The manifest is the read-side contract: an immutable
snapshot of ``relation.tiles`` stamped with the epoch at which it was
taken.  Readers enumerate *one* manifest for the whole operation and
therefore always see either the pre-merge tiles or the post-merge tile,
never a torn mixture; every tiles-list mutation (a seal or a tile
rewrite) bumps the relation's epoch and invalidates the cached
snapshot.

Payload lifetime rides the existing machinery, not the manifest: a
morsel pins its tile while resolving it, and the append guard (the
server's per-table writer lock) keeps swaps out of the read critical
sections.  The manifest only guarantees enumeration consistency — which
is exactly the part a mutable shared list cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class LevelManifest:
    """One immutable snapshot of a relation's sealed tiles.

    ``epoch`` increases monotonically with every tiles-list mutation;
    two manifests with equal epochs describe identical tile sets.
    ``tiles`` holds the relation's :class:`TileHandle` objects in row
    order (``first_row`` ascending), the same order the live list has.
    """

    epoch: int
    tiles: Tuple[object, ...]

    def level_report(self) -> Dict[int, Dict[str, object]]:
        """Per-level occupancy from resident headers only (never faults
        a paged-out payload in): tile count, rows, bytes and the
        extracted fraction compared across levels."""
        grouped: Dict[int, List[object]] = {}
        for tile in self.tiles:
            grouped.setdefault(tile.header.level, []).append(tile)
        report: Dict[int, Dict[str, object]] = {}
        for level, tiles in sorted(grouped.items()):
            extracted = sum(tile.header.stored_path_count()
                            for tile in tiles)
            seen = sum(len(tile.header.key_counts) for tile in tiles)
            report[level] = {
                "tiles": len(tiles),
                "rows": sum(tile.row_count for tile in tiles),
                "disk_bytes": sum(tile.disk_bytes for tile in tiles),
                "resident_bytes": sum(tile.nbytes for tile in tiles
                                      if tile.resident),
                "extracted_fraction": round(extracted / max(1, seen), 4),
            }
        return report
