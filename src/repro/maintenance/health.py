"""Tile and partition health tracking — the sensor half of
``repro.maintenance``.

A :class:`HealthTracker` observes one relation through two channels:

* **storage events** (:meth:`Relation.add_event_hook`): tile seals
  and tail extensions, in-place updates and tile rewrites
  (recomputation, partition reorganization, LSM merge) maintain
  sticky per-partition counters (updates, rows since the last
  reorganization, reorder attempts, cooldown), keyed by list-position
  partition (:meth:`Relation.partition_of`);
* **scan totals** (PR 2's mergeable ScanCounters, folded into
  ``Relation.scan_totals`` by the engine): the delta of
  ``fallback_tiles`` over ``tiles_scanned`` between refreshes is the
  observed *fallback-probe rate* — direct evidence that queries are
  degrading to JSONB/text fallback scans because extraction is stale.

The *extracted fraction* itself is never cached: :meth:`snapshot`
measures it live from the tiles (row-weighted mean of each tile's
``len(columns) / len(key_counts)``), so a reorganization is reflected
immediately and the metric can never drift from storage reality.

The tracker is a pure observer: event hooks only mutate its own
dictionaries under its own lock, and :class:`Relation` swallows hook
exceptions, so health tracking can never break the foreground
insert/update/seal path.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List

from repro.storage.relation import Relation


@dataclasses.dataclass
class PartitionHealth:
    """Observed state of one partition (the Section 3.2 reorder unit).

    ``extraction`` is the row-weighted mean of the member tiles'
    extracted fraction; ``attempts`` counts reorder attempts since the
    partition's content last changed (a seal or a re-mining rewrite
    resets it, so the partition becomes re-eligible); ``cooldown`` is
    the number of planner cycles to skip before the next attempt.
    """

    partition: int
    tiles: int = 0
    rows: int = 0
    extraction: float = 1.0
    updates: int = 0
    rows_since_reorg: int = 0
    attempts: int = 0
    cooldown: int = 0
    #: tile payloads of this partition the residency budget paged out
    #: (eviction churn: a hot partition that keeps cycling through the
    #: budget is a signal for the operator to raise ``--memory-mb``)
    evictions: int = 0

    def as_dict(self) -> dict:
        return dict(dataclasses.asdict(self),
                    extraction=round(self.extraction, 4))


class HealthTracker:
    """Per-relation health records feeding the maintenance planner."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self._lock = threading.Lock()
        self._partitions: Dict[int, PartitionHealth] = {}
        #: in-place updates per tile number since that tile was last
        #: rebuilt — the RECOMPUTE_TILE trigger
        self._tile_updates: Dict[int, int] = {}
        self._scan_seen = {"fallback_tiles": 0, "tiles_scanned": 0}
        self._fallback_rate = 0.0
        #: total payload evictions observed on this relation (churn)
        self._evictions = 0
        relation.add_event_hook(self._on_event)

    # ------------------------------------------------------------------
    # event feed

    def _record_locked(self, partition: int) -> PartitionHealth:
        return self._partitions.setdefault(partition,
                                           PartitionHealth(partition))

    def _on_event(self, event: str, relation: Relation,
                  payload: object) -> None:
        if event == "rewrite":
            with self._lock:
                # the inputs' update history describes no live tile
                for tile in payload["inputs"]:
                    self._tile_updates.pop(tile.header.tile_number, None)
                for partition in payload["partitions"]:
                    record = self._record_locked(partition)
                    record.updates = 0
                    if payload["reordered"]:
                        record.rows_since_reorg = 0
                    else:
                        # re-mined content: re-eligible for Section 3.2
                        # reordering instead of staying "attempted"
                        record.attempts = 0
                        record.cooldown = 0
            return
        # seal / update / evict: payload is the TileHandle (header
        # always resident); extend: the topped-up handle + rows added
        if event == "extend":
            payload, appended = payload["tile"], payload["rows"]
        else:
            appended = payload.row_count
        partition = relation.partition_of(payload)
        with self._lock:
            if event == "evict":
                self._evictions += 1
            if event == "update":
                number = payload.header.tile_number
                self._tile_updates[number] = \
                    self._tile_updates.get(number, 0) + 1
            if partition is None:
                return  # the tile already left the relation
            record = self._record_locked(partition)
            if event in ("seal", "extend"):
                # only the new rows: a tail topped up batch by batch
                # must not count its earlier rows again
                record.rows_since_reorg += appended
                # fresh content: the partition may be reorderable again
                record.attempts = 0
            elif event == "update":
                record.updates += 1
            elif event == "evict":
                record.evictions += 1

    # ------------------------------------------------------------------
    # scan signal

    def refresh_scan_signal(self) -> float:
        """Fold the engine's scan totals into the fallback-probe rate:
        fraction of ``(tile, access)`` resolutions since the previous
        refresh that were served from the JSONB/text fallback."""
        totals = self.relation.scan_totals
        fallback = int(totals.get("fallback_tiles", 0))
        scanned = int(totals.get("tiles_scanned", 0))
        with self._lock:
            delta_fallback = fallback - self._scan_seen["fallback_tiles"]
            delta_scanned = scanned - self._scan_seen["tiles_scanned"]
            self._scan_seen = {"fallback_tiles": fallback,
                               "tiles_scanned": scanned}
            if delta_scanned > 0:
                self._fallback_rate = max(
                    0.0, min(1.0, delta_fallback / delta_scanned))
            return self._fallback_rate

    @property
    def fallback_rate(self) -> float:
        with self._lock:
            return self._fallback_rate

    @property
    def eviction_churn(self) -> int:
        """Total payload evictions observed on this relation."""
        with self._lock:
            return self._evictions

    # ------------------------------------------------------------------
    # planner interface

    def tile_updates(self) -> Dict[int, int]:
        with self._lock:
            return dict(self._tile_updates)

    def note_reorg_attempt(self, partition: int, cooldown: int) -> None:
        """Record that the daemon tried to reorder *partition* —
        counted for successful and fruitless attempts alike, so a
        genuinely heterogeneous partition is not re-mined forever."""
        with self._lock:
            record = self._record_locked(partition)
            record.attempts += 1
            record.cooldown = max(record.cooldown, cooldown)

    def tick(self) -> None:
        """One planner cycle passed: cooldowns decay."""
        with self._lock:
            for record in self._partitions.values():
                if record.cooldown > 0:
                    record.cooldown -= 1

    def snapshot(self) -> List[PartitionHealth]:
        """Live health of every partition: extraction measured from the
        tiles right now, sticky event counters merged in.  Returns
        copies — mutating them does not affect the tracker."""
        relation = self.relation
        if relation.text_rows is not None:
            return []
        out: List[PartitionHealth] = []
        for index in range(relation.partition_count):
            tiles = relation.partition_tiles(index)
            rows = sum(tile.row_count for tile in tiles)
            if rows:
                extraction = sum(
                    relation.tile_extraction_fraction(tile) * tile.row_count
                    for tile in tiles) / rows
            else:
                extraction = 1.0
            with self._lock:
                record = self._record_locked(index)
                record.tiles = len(tiles)
                record.rows = rows
                record.extraction = extraction
                out.append(dataclasses.replace(record))
        return out
