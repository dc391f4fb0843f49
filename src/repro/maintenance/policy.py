"""Maintenance policy: thresholds and the action planner.

Turns :class:`~repro.maintenance.health.HealthTracker` observations
into a prioritized queue of actions:

* ``REORDER_PARTITION`` — Section 3.2 tuple reordering across one
  partition whose row-weighted extracted fraction fell below the
  threshold (shuffled ingest, combined logs);
* ``RECOMPUTE_TILE`` — re-mine and re-extract one tile that absorbed
  many in-place updates (Section 4.7) *before* the relation's own
  majority-outlier emergency recomputation would kick in;
* ``COMPACT_BUFFER`` — seal a straggler insert buffer that stopped
  growing, so its rows become scannable tiles (and reorderable).

Every knob lives in :class:`MaintenanceConfig`; each has a
``REPRO_MAINT_*`` environment override so a deployed server can be
tuned without a restart script, and ``serve`` exposes the two
operators actually reach for (``--maintenance``,
``--maintenance-interval``) as CLI flags.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.env import env_flag, env_value
from repro.maintenance.health import HealthTracker
from repro.storage.relation import Relation
from repro.tiles.tile import Tile


class ActionKind(enum.Enum):
    REORDER_PARTITION = "reorder_partition"
    RECOMPUTE_TILE = "recompute_tile"
    COMPACT_BUFFER = "compact_buffer"
    #: repro.lsm leveled compaction: merge a run of adjacent same-level
    #: tiles into one next-level tile (target = first tile number)
    COMPACT_TILES = "compact_tiles"


@dataclasses.dataclass
class MaintenanceAction:
    """One unit of background work.  ``target`` is the partition index
    (REORDER_PARTITION), the tile number (RECOMPUTE_TILE or
    COMPACT_TILES, where it names the run's first tile) or ``-1``
    (COMPACT_BUFFER)."""

    kind: ActionKind
    table: str
    target: int
    score: float = 0.0

    def key(self) -> Tuple[str, str, int]:
        return (self.table, self.kind.value, self.target)

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "table": self.table,
                "target": self.target, "score": round(self.score, 4)}

    @classmethod
    def from_dict(cls, raw: dict) -> "MaintenanceAction":
        return cls(ActionKind(raw["kind"]), raw["table"],
                   int(raw["target"]), float(raw.get("score", 0.0)))


@dataclasses.dataclass
class MaintenanceConfig:
    """Thresholds of the maintenance policy (see DESIGN.md §6d)."""

    #: master switch; a disabled daemon still answers ``status``
    enabled: bool = True
    #: seconds between background cycles
    interval_s: float = 1.0
    #: extracted-fraction floor below which a partition is reordered;
    #: ``None`` uses the relation's own extraction threshold (60 %)
    min_extraction: Optional[float] = None
    #: actions executed per cycle (rate limit)
    max_actions_per_cycle: int = 4
    #: cycles a partition rests after a reorder attempt
    reorg_cooldown_cycles: int = 8
    #: attempts per unchanged partition content — a genuinely
    #: heterogeneous partition is not re-mined forever
    max_reorg_attempts: int = 2
    #: recompute a tile once updates exceed this fraction of its rows
    recompute_update_fraction: float = 0.25
    #: cycles a non-empty insert buffer must sit unchanged before the
    #: daemon seals it
    compact_idle_cycles: int = 2
    #: skip a cycle while at least this many queries are in flight
    backpressure_active_queries: int = 4
    #: partitions smaller than this are never reordered
    min_partition_tiles: int = 2
    #: master switch for REORDER_PARTITION proposals; cluster shards
    #: run with this off because the coordinator's routing depends on
    #: physical row order (the canonical block layout, DESIGN.md §7)
    allow_reordering: bool = True

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides) -> "MaintenanceConfig":
        """Build a config from ``REPRO_MAINT_*`` variables; keyword
        *overrides* (e.g. from CLI flags) win over the environment."""
        fields = {
            "enabled": env_flag("REPRO_MAINT_ENABLED", True, env),
            "interval_s": env_value("REPRO_MAINT_INTERVAL", float, 1.0, env),
            "min_extraction": env_value("REPRO_MAINT_MIN_EXTRACTION",
                                        float, None, env),
            "max_actions_per_cycle": env_value("REPRO_MAINT_MAX_ACTIONS",
                                               int, 4, env),
            "reorg_cooldown_cycles": env_value("REPRO_MAINT_COOLDOWN",
                                               int, 8, env),
            "max_reorg_attempts": env_value("REPRO_MAINT_MAX_ATTEMPTS",
                                            int, 2, env),
            "recompute_update_fraction": env_value(
                "REPRO_MAINT_RECOMPUTE_FRACTION", float, 0.25, env),
            "compact_idle_cycles": env_value("REPRO_MAINT_COMPACT_IDLE",
                                             int, 2, env),
            "backpressure_active_queries": env_value(
                "REPRO_MAINT_BACKPRESSURE", int, 4, env),
            "allow_reordering": env_flag("REPRO_MAINT_REORDER", True, env),
        }
        fields.update({key: value for key, value in overrides.items()
                       if value is not None})
        return cls(**fields)


def tile_by_number(relation: Relation, number: int) -> Optional[Tile]:
    """The live tile with header number *number* (or None once it was
    rebuilt/replaced)."""
    for tile in relation.tiles:
        if tile.header.tile_number == number:
            return tile
    return None


class MaintenancePlanner:
    """Health → prioritized action queue.

    The score of a reorder is ``deficit × rows × (1 + fallback_rate)``:
    how far below the threshold the partition sits, weighted by how
    many rows suffer and by how hard queries are currently hitting the
    fallback path.  Recomputations score by update pressure, buffer
    compactions by pending rows; one partition never receives both a
    reorder and a recompute in the same cycle (the reorder rebuilds
    every tile anyway).
    """

    def __init__(self, config: MaintenanceConfig):
        self.config = config
        #: per-table (pending_count_last_seen, idle_cycles) for the
        #: COMPACT_BUFFER idleness detector
        self._buffer_idle: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------

    def plan_table(self, name: str, relation: Relation,
                   tracker: HealthTracker) -> List[MaintenanceAction]:
        config = self.config
        actions: List[MaintenanceAction] = []
        if relation.text_rows is not None:
            return actions
        fallback = tracker.refresh_scan_signal()
        min_extraction = (config.min_extraction
                          if config.min_extraction is not None
                          else relation.config.threshold)

        # straggler buffers: a partial buffer that stopped growing
        # holds rows no scan-side tile ever sees sealed
        pending = relation.pending_inserts
        seen, idle = self._buffer_idle.get(name, (0, 0))
        idle = idle + 1 if (pending > 0 and pending == seen) else 0
        self._buffer_idle[name] = (pending, idle)
        if pending > 0 and idle >= config.compact_idle_cycles:
            actions.append(MaintenanceAction(
                ActionKind.COMPACT_BUFFER, name, -1, float(pending)))

        reorderable = (config.allow_reordering
                       and relation.format.uses_local_schemas
                       and not relation.children)
        reorder_partitions = set()
        if reorderable:
            for health in tracker.snapshot():
                if health.tiles < config.min_partition_tiles:
                    continue
                if health.cooldown > 0:
                    continue
                if health.attempts >= config.max_reorg_attempts:
                    continue
                if health.extraction >= min_extraction:
                    continue
                deficit = min_extraction - health.extraction
                score = deficit * max(1, health.rows) * (1.0 + fallback)
                actions.append(MaintenanceAction(
                    ActionKind.REORDER_PARTITION, name,
                    health.partition, score))
                reorder_partitions.add(health.partition)

        if relation.format.extracts_columns:
            for number, updates in sorted(tracker.tile_updates().items()):
                tile = tile_by_number(relation, number)
                if tile is None or tile.row_count == 0:
                    continue
                if relation.partition_of(tile) in reorder_partitions:
                    continue  # the reorder rebuilds this tile anyway
                if updates < config.recompute_update_fraction * tile.row_count:
                    continue
                actions.append(MaintenanceAction(
                    ActionKind.RECOMPUTE_TILE, name, number,
                    float(updates) * (1.0 + fallback)))

        # repro.lsm leveled compaction: merge runs of adjacent
        # same-level tiles (header-only planning; the relation's own
        # LsmConfig gates it, so shards compact even with reordering
        # off — row order is preserved by the merge)
        lsm_config = getattr(relation, "lsm_config", None)
        if lsm_config is not None and lsm_config.enabled:
            from repro.lsm import plan_compactions

            for candidate in plan_compactions(relation, lsm_config):
                head = tile_by_number(relation, candidate.start_number)
                if head is None \
                        or relation.partition_of(head) in reorder_partitions:
                    continue  # the reorder rebuilds these tiles anyway
                actions.append(MaintenanceAction(
                    ActionKind.COMPACT_TILES, name,
                    candidate.start_number,
                    candidate.score * (1.0 + fallback)))
        return actions

    def plan(self, tables: Mapping[str, Tuple[Relation, HealthTracker]],
             ) -> List[MaintenanceAction]:
        """The cycle's work queue: all tables' candidate actions,
        highest score first, capped at ``max_actions_per_cycle``."""
        actions: List[MaintenanceAction] = []
        for name in sorted(tables):
            relation, tracker = tables[name]
            actions.extend(self.plan_table(name, relation, tracker))
        actions.sort(key=lambda action: (-action.score, action.table,
                                         action.kind.value, action.target))
        return actions[: max(0, self.config.max_actions_per_cycle)]
