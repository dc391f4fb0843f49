"""The maintenance daemon: a rate-limited background executor.

One :class:`MaintenanceDaemon` watches a set of relations (embedded:
``Database.start_maintenance()`` runs :meth:`run_cycle` on its own
thread; server: an asyncio task schedules cycles on the query pool).
Each cycle it asks the planner for at most ``max_actions_per_cycle``
actions and executes them under the same guards the foreground path
uses:

* reorganizations, recomputations and merges are one tile rewrite
  (``Relation._rewrite``) that splices rebuilt tiles in under the
  caller-provided *append guard* (the server's per-table writer lock),
  so a concurrent scan never observes a half-swapped tiles list, and
  drops the replaced tiles' cache entries before the swap;
* every rewrite reports whether it committed: a lost race or a run
  that no longer exists is journaled and counted as a ``noop``;
* with *backpressure* wired (server: in-flight query count), a
  saturated pool skips the cycle entirely — maintenance yields to
  foreground work by construction;
* every action is journaled (``begin`` / ``commit`` / ``failed``)
  through a WAL segment.  A crash between ``begin`` and ``commit``
  re-queues the action on restart; the action itself never touches
  durable row data (a reorganization permutes rows among in-memory
  tiles — the snapshot + ingest WAL still hold every row), so replay
  is idempotent and can neither lose nor duplicate rows.

An exception inside one action marks it ``failed`` and the daemon
moves on: background maintenance must never die and never surface
errors into client connections.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.maintenance.health import HealthTracker
from repro.maintenance.policy import (
    ActionKind,
    MaintenanceAction,
    MaintenanceConfig,
    MaintenancePlanner,
    tile_by_number,
)
from repro.storage.relation import Relation

#: journal segments are truncated once they grow past this many
#: records with nothing pending (the journal is bookkeeping, not data)
JOURNAL_COMPACT_RECORDS = 512


class MaintenanceJournal:
    """Action journal over a WAL segment (``wal/maintenance.journal``).

    Records are ``{"op": begin|commit|failed, ...action}``.  An action
    whose ``begin`` has no matching ``commit``/``failed`` was in flight
    when the process died; :meth:`pending` returns those so the daemon
    re-queues them first after a restart.
    """

    def __init__(self, wal):
        self.wal = wal

    def log(self, op: str, action: MaintenanceAction) -> None:
        self.wal.append({"op": op, **action.as_dict()})

    def pending(self) -> List[dict]:
        begun: Dict[tuple, dict] = {}
        for record in self.wal.replay():
            key = (record.get("table"), record.get("kind"),
                   record.get("target"))
            if record.get("op") == "begin":
                begun[key] = record
            else:
                begun.pop(key, None)
        return list(begun.values())

    def compact(self) -> None:
        if self.wal.record_count > JOURNAL_COMPACT_RECORDS \
                and not self.pending():
            self.wal.truncate()

    def close(self) -> None:
        self.wal.close()


class MaintenanceDaemon:
    """Runs maintenance cycles over a table map.

    *tables* is a mapping ``name -> Relation`` or a zero-argument
    callable returning one (so tables created after the daemon keep
    getting picked up).  *append_guard_for* maps a table name to the
    guard held while rebuilt tiles are spliced in (the server passes
    its writer lock); *backpressure* returns True when a cycle should
    yield to foreground load.
    """

    def __init__(self, tables, config: Optional[MaintenanceConfig] = None,
                 *,
                 journal: Optional[MaintenanceJournal] = None,
                 append_guard_for: Optional[Callable[[str], object]] = None,
                 backpressure: Optional[Callable[[], bool]] = None):
        self.config = config or MaintenanceConfig()
        self._tables = tables if callable(tables) else (lambda: tables)
        self.journal = journal
        self._append_guard_for = append_guard_for
        self._backpressure = backpressure
        self.planner = MaintenancePlanner(self.config)
        self._trackers: Dict[str, HealthTracker] = {}
        self._trackers_lock = threading.Lock()
        self._cycle_lock = threading.Lock()
        self._paused = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.counters = {
            "cycles": 0, "actions": 0, "reorders": 0, "recomputes": 0,
            "compactions": 0, "merges": 0, "noops": 0, "errors": 0,
            "skipped_backpressure": 0, "recovered": 0,
        }
        self._counters_lock = threading.Lock()
        self.last_actions: deque = deque(maxlen=16)
        #: actions journaled as begun but never committed before the
        #: previous process died — executed first, ahead of the plan
        self._recovered: List[MaintenanceAction] = []
        if journal is not None:
            self._recovered = [MaintenanceAction.from_dict(record)
                               for record in journal.pending()]
            self._bump("recovered", len(self._recovered))

    # ------------------------------------------------------------------
    # bookkeeping

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counters_lock:
            self.counters[counter] += amount

    def _tracker(self, name: str, relation: Relation) -> HealthTracker:
        with self._trackers_lock:
            tracker = self._trackers.get(name)
            if tracker is None or tracker.relation is not relation:
                tracker = HealthTracker(relation)
                self._trackers[name] = tracker
            return tracker

    # ------------------------------------------------------------------
    # the cycle

    def run_cycle(self, force: bool = False) -> List[dict]:
        """Plan and execute one maintenance cycle; returns the executed
        action records.  With *force* (the ``maintenance force``
        command) pause, enable and backpressure checks are bypassed."""
        if not force:
            if not self.config.enabled or self._paused.is_set():
                return []
            if self._backpressure is not None and self._backpressure():
                self._bump("skipped_backpressure")
                return []
        with self._cycle_lock:
            tables = dict(self._tables())
            tracked = {name: (relation, self._tracker(name, relation))
                       for name, relation in tables.items()}
            queue: List[MaintenanceAction] = []
            seen = set()
            recovered, self._recovered = self._recovered, []
            for action in recovered + self.planner.plan(tracked):
                if action.table in tables and action.key() not in seen:
                    seen.add(action.key())
                    queue.append(action)
            executed = [self._execute(action, tables) for action in queue]
            for _relation, tracker in tracked.values():
                tracker.tick()
            self._bump("cycles")
            if self.journal is not None:
                try:
                    self.journal.compact()
                except Exception:
                    self._bump("errors")
            return executed

    def _execute(self, action: MaintenanceAction,
                 tables: Mapping[str, Relation]) -> dict:
        relation = tables[action.table]
        tracker = self._tracker(action.table, relation)
        guard = None if self._append_guard_for is None \
            else self._append_guard_for(action.table)
        if self.journal is not None:
            self.journal.log("begin", action)
        status, detail = "done", None
        try:
            if action.kind is ActionKind.REORDER_PARTITION:
                # count the attempt before trying, so a hopeless
                # (genuinely heterogeneous) partition backs off even
                # when reordering finds the identity order
                tracker.note_reorg_attempt(action.target,
                                           self.config.reorg_cooldown_cycles)
                counter = "reorders"
                changed = relation.reorganize_partition(
                    action.target, append_guard=guard)
            elif action.kind is ActionKind.RECOMPUTE_TILE:
                counter = "recomputes"
                tile = tile_by_number(relation, action.target)
                changed = tile is not None and relation.recompute_tile(
                    tile, append_guard=guard)
            elif action.kind is ActionKind.COMPACT_BUFFER:
                counter, changed = "compactions", True
                relation.flush_inserts(append_guard=guard)
            else:  # ActionKind.COMPACT_TILES
                # re-derive the run from live state: after a crash the
                # recovered action re-runs against whatever survived —
                # old tiles (the merge repeats) or the merged tile (the
                # run no longer exists and this is a clean no-op), so
                # replay lands on "either old or new, never both"
                lsm_config = getattr(relation, "lsm_config", None)
                fanout = lsm_config.fanout if lsm_config is not None else 4
                counter = "merges"
                changed = relation.compact_tiles(action.target, fanout,
                                                 append_guard=guard)
            if changed:
                self._bump(counter)
            else:
                status = "noop"
                self._bump("noops")
        except Exception as exc:  # the daemon must survive any action
            status, detail = "error", f"{type(exc).__name__}: {exc}"
            self._bump("errors")
        finally:
            if self.journal is not None:
                self.journal.log("commit" if status != "error" else "failed",
                                 action)
        record = dict(action.as_dict(), status=status)
        if detail:
            record["detail"] = detail
        self.last_actions.append(record)
        self._bump("actions")
        return record

    # ------------------------------------------------------------------
    # control surface (the `maintenance` server command)

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    def status(self) -> dict:
        """Everything an operator asks for: switches, counters, the
        most recent actions, and per-table health."""
        tables = {}
        for name, relation in sorted(dict(self._tables()).items()):
            tracker = self._tracker(name, relation)
            tables[name] = {
                "extracted_fraction": round(relation.extracted_fraction(), 4),
                "fallback_rate": round(tracker.fallback_rate, 4),
                "eviction_churn": tracker.eviction_churn,
                "pending": relation.pending_inserts,
                "partitions": [health.as_dict()
                               for health in tracker.snapshot()],
            }
            if getattr(relation, "lsm_config", None) is not None:
                # per-level occupancy + merge counters (repro.lsm)
                tables[name]["lsm"] = relation.lsm_status()
        with self._counters_lock:
            counters = dict(self.counters)
        return {
            "enabled": self.config.enabled,
            "paused": self.paused,
            "running": self._thread is not None,
            "interval_s": self.config.interval_s,
            "counters": counters,
            "last_actions": list(self.last_actions),
            "tables": tables,
        }

    # ------------------------------------------------------------------
    # embedded thread loop (Database.start_maintenance)

    def start(self) -> "MaintenanceDaemon":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-maintenance")
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.run_cycle()
            except Exception:  # pragma: no cover - defensive
                self._bump("errors")

    def stop(self, timeout: float = 10.0) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=timeout)
