"""The asyncio TCP server: concurrent queries + durable ingest.

One process serves many clients over the JSON-lines protocol
(``repro.server.protocol``).  The division of labour:

* the **event loop** owns connection IO and dispatch — it never parses
  documents, mines tiles, or touches disk;
* **insert** appends the documents to the table's WAL (fsync before
  acknowledgement when ``wal_sync``) and into the relation's insert
  buffer, on the IO pool;
* a **background sealer** turns full insert buffers into tiles
  (mining + extraction) on the query pool, holding the table's writer
  lock only for the instant the finished tile becomes visible — the
  paper's §4.7 rule: "the tile is visible to scanners only once it is
  fully created";
* **queries** run on the query pool under per-table reader locks
  (``repro.server.executor``);
* a **checkpoint** persists each relation (sealed tiles and the
  buffered tail) with its WAL position into the ``.jtile`` snapshot,
  then truncates the WAL.  Restart = load snapshots, replay WAL tails.

Data directory layout::

    data_dir/
      catalog.json        # table name -> storage format + config
      <table>.jtile       # checkpointed snapshot (atomic rename)
      wal/<table>.wal     # inserts acknowledged since the checkpoint
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import json
import os
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Union

from repro.database import Database
from repro.engine.morsels import pool_stats
from repro.maintenance import (
    MaintenanceConfig,
    MaintenanceDaemon,
    MaintenanceJournal,
)
from repro.engine.plan import QueryOptions
from repro.errors import ExecutionError, ReproError
from repro.storage.formats import StorageFormat
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.storage.tilestore import GLOBAL_TILE_STORE
from repro.storage.persist import (
    read_relation_extra,
    save_relation,
)
from repro.storage.relation import Relation
from repro.tiles.extractor import ExtractionConfig

from repro.server import protocol
from repro.server.executor import QueryExecutor, options_from_dict
from repro.server.locks import TableLockRegistry
from repro.server.wal import WalManager, records_to_skip

_TABLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_FORMATS = {fmt.value: fmt for fmt in StorageFormat}

_CONFIG_FIELDS = ("tile_size", "partition_size", "threshold",
                  "mining_budget", "max_array_elements", "detect_dates",
                  "enable_reordering")


def _config_from_dict(raw: Optional[dict],
                      base: ExtractionConfig) -> ExtractionConfig:
    if not raw:
        return base
    fields = {name: getattr(base, name) for name in _CONFIG_FIELDS}
    fields.update({key: value for key, value in raw.items()
                   if key in fields})
    return ExtractionConfig(**fields)


class JsonTilesServer:
    """A durable query/ingest service over one data directory."""

    def __init__(self, data_dir: Union[str, Path],
                 host: str = "127.0.0.1", port: int = 0, *,
                 default_format: StorageFormat = StorageFormat.TILES,
                 config: Optional[ExtractionConfig] = None,
                 wal_sync: bool = True,
                 query_workers: int = 8,
                 parallelism: int = 1,
                 cache_mb: float = 64.0,
                 memory_mb: Optional[float] = None,
                 enable_kernels: Optional[bool] = None,
                 checkpoint_interval: Optional[float] = None,
                 maintenance: bool = False,
                 maintenance_config: Optional[MaintenanceConfig] = None,
                 lsm_config=None,
                 read_only: bool = False,
                 role: str = "server"):
        self.data_dir = Path(data_dir)
        self.host = host
        self.port = port
        self.default_format = default_format
        self.config = config or ExtractionConfig()
        self.wal_sync = wal_sync
        self.query_workers = query_workers
        #: morsel workers per query; combined with the resolved-tile
        #: cache these are the server's execution-policy defaults for
        #: every query that doesn't pin its own options
        self.parallelism = max(1, parallelism)
        self.cache_mb = cache_mb
        #: process-wide tile residency budget (``serve --memory-mb``);
        #: None keeps whatever ``REPRO_MEMORY_MB`` configured at import
        #: (default: unlimited — every loaded tile stays resident)
        self.memory_mb = memory_mb
        self.default_options = QueryOptions(
            parallelism=self.parallelism,
            tile_cache=cache_mb > 0)
        if enable_kernels is not None:
            # None keeps the QueryOptions default (on, or the
            # REPRO_KERNELS override)
            self.default_options.enable_kernels = enable_kernels
        self.checkpoint_interval = checkpoint_interval
        #: online maintenance (DESIGN.md §6d): tile health, §3.2
        #: reordering and re-extraction as a background asyncio task
        self.maintenance_enabled = maintenance
        self.maintenance_config = maintenance_config
        self.maintenance: Optional[MaintenanceDaemon] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        #: LSM tiering (``serve --lsm`` / ``REPRO_LSM_*``): stamped on
        #: every base table so the maintenance planner proposes merges;
        #: an enabled config implies the maintenance daemon, which is
        #: the only thing that executes compactions
        self.lsm_config = lsm_config
        if lsm_config is not None and lsm_config.enabled:
            self.maintenance_enabled = True
        #: read replicas reject client writes over the protocol; the
        #: replication task applies documents through internal calls
        self.read_only = read_only
        #: advertised in ``hello``/``stats`` ("server", "shard",
        #: "replica", "coordinator") — observability only
        self.role = role
        #: hook for the replication subsystem (cluster/replica.py): a
        #: callable returning the replica's applied offsets and lag,
        #: surfaced verbatim by the ``replica_status`` command
        self.replication_status = None

        self.db: Optional[Database] = None
        self.wals: Optional[WalManager] = None
        self.locks = TableLockRegistry()
        self.executor: Optional[QueryExecutor] = None
        #: base (non-child) relations served for ingest, by name
        self._base: Dict[str, Relation] = {}

        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stop_checkpoint = True
        self._thread: Optional[threading.Thread] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        #: small pool for blocking disk work (WAL appends, checkpoints)
        self._io_pool = ThreadPoolExecutor(max_workers=4,
                                           thread_name_prefix="repro-io")
        self._seal_flags_lock = threading.Lock()
        self._seal_inflight: Dict[str, bool] = {}
        self._counters_lock = threading.Lock()
        self._counters = {"inserts": 0, "queries": 0, "seals": 0,
                          "checkpoints": 0, "connections_total": 0}
        self._connections_active = 0
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # durable open / recovery

    def _catalog_path(self) -> Path:
        return self.data_dir / "catalog.json"

    def _load_catalog(self) -> Dict[str, dict]:
        path = self._catalog_path()
        if not path.exists():
            return {}
        return json.loads(path.read_text(encoding="utf-8")).get("tables", {})

    def _write_catalog(self) -> None:
        tables = {
            name: {
                "format": relation.format.value,
                "config": {field: getattr(relation.config, field)
                           for field in _CONFIG_FIELDS},
            }
            for name, relation in sorted(self._base.items())
        }
        path = self._catalog_path()
        temp = path.with_name(path.name + ".tmp")
        with temp.open("w", encoding="utf-8") as handle:
            json.dump({"tables": tables}, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    def _open_database(self) -> None:
        """Load snapshots, re-create cataloged tables, replay WALs."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.db = Database.open(self.data_dir, self.default_format,
                                self.config)
        catalog = self._load_catalog()
        snapshot_names = {path.stem
                          for path in self.data_dir.glob("*.jtile")}
        for name, entry in catalog.items():
            if name not in self.db.tables:
                self.db.create_table(
                    name, _FORMATS[entry["format"]],
                    _config_from_dict(entry.get("config"), self.config))
        for name in sorted(snapshot_names | set(catalog)):
            self._base[name] = self.db.tables[name]
            # snapshot reload built fresh tile handles: residency
            # charges and cache entries keyed on the previous
            # incarnation can never be served again
            GLOBAL_TILE_STORE.discard_table(name)
            GLOBAL_TILE_CACHE.invalidate_table(name)
        self.wals = WalManager(self.data_dir / "wal", sync=self.wal_sync)
        for name in self.wals.existing_tables():
            relation = self._base.get(name)
            if relation is None:
                continue  # WAL without catalog entry or snapshot: stale
            wal = self.wals.for_table(name)
            position = {}
            snapshot = self.data_dir / f"{name}.jtile"
            if snapshot.exists():
                position = read_relation_extra(snapshot).get("wal", {})
            records = wal.replay()
            for document in records[records_to_skip(wal, position):]:
                relation.insert(document)
        for relation in self._base.values():
            # the background sealer owns tile creation from here on
            relation.auto_seal = False
            relation.lsm_config = self.lsm_config

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        if self.cache_mb > 0:
            GLOBAL_TILE_CACHE.set_capacity(int(self.cache_mb * 2**20))
        if self.memory_mb is not None:
            GLOBAL_TILE_STORE.set_budget_mb(self.memory_mb)
        self._open_database()
        self.executor = QueryExecutor(self.db, self.locks,
                                      max_workers=self.query_workers)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_MESSAGE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.checkpoint_interval:
            self._checkpoint_task = self._loop.create_task(
                self._checkpoint_periodically())
        if self.maintenance_enabled:
            config = self.maintenance_config or MaintenanceConfig.from_env()
            if self.role == "shard" and config.allow_reordering:
                # a coordinator's block routing depends on this shard's
                # physical row order: reordering would silently corrupt
                # the global layout (DESIGN.md §7)
                config = dataclasses.replace(config, allow_reordering=False)
            self.maintenance = MaintenanceDaemon(
                lambda: dict(self._base), config,
                journal=MaintenanceJournal(self.wals.journal("maintenance")),
                append_guard_for=lambda name:
                    (lambda: self.locks.write_locked(name)),
                backpressure=lambda:
                    self.executor.active_queries
                    >= config.backpressure_active_queries)
            self._maintenance_task = self._loop.create_task(
                self._maintain_periodically())

    @property
    def address(self):
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop` (or the ``shutdown``
        command), then shut down gracefully."""
        await self._stop_event.wait()
        await self.stop(checkpoint=self._stop_checkpoint)

    def request_stop(self, checkpoint: bool = True) -> None:
        self._stop_checkpoint = checkpoint
        self._loop.call_soon_threadsafe(self._stop_event.set)

    async def stop(self, checkpoint: bool = True) -> None:
        """Stop accepting, drain, optionally checkpoint, release."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            self._checkpoint_task = None
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            self._maintenance_task = None
        if self._server is not None:
            self._server.close()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if checkpoint:
            await self._loop.run_in_executor(self._io_pool,
                                             self._checkpoint_all)
        self.executor.shutdown()
        self._io_pool.shutdown(wait=True)
        self.wals.close()

    # -- background-thread embedding (tests, benchmarks, CLI) ----------

    def start_in_thread(self) -> "JsonTilesServer":
        """Run the server on a daemon thread; returns once the socket
        is bound (``self.port`` holds the real port)."""
        started = threading.Event()
        failure: list = []

        def runner():
            async def main():
                try:
                    await self.start()
                except Exception as exc:  # surface bind/recovery errors
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                await self.serve_forever()

            asyncio.run(main())

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-server")
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    def stop_in_thread(self, checkpoint: bool = True,
                       timeout: float = 30.0) -> None:
        """Graceful stop from another thread.  ``checkpoint=False``
        skips the final checkpoint — the WAL alone must then carry
        every acknowledged insert (the crash-recovery tests use this
        as a hard kill)."""
        if self._thread is None:
            return
        self.request_stop(checkpoint=checkpoint)
        self._thread.join(timeout=timeout)
        self._thread = None

    # ------------------------------------------------------------------
    # ingest path

    def _append_and_buffer(self, name: str, relation: Relation,
                           documents: list) -> int:
        """WAL first, buffer second, atomically with respect to a
        concurrent checkpoint (which holds the write lock).  The whole
        batch is checked first: a document no tile can store is
        refused before any byte of the batch reaches the WAL (an
        acknowledged record must seal and replay)."""
        documents = [relation.accept_document(document)
                     for document in documents]
        with self.locks.read_locked([name]):
            self.wals.for_table(name).append_many(documents)
            relation.insert_accepted(documents)
            return relation.pending_inserts

    def _seal_table(self, name: str, relation: Relation) -> None:
        try:
            while relation.pending_inserts >= relation.config.tile_size:
                # tops up the tail, then whole tiles only: where the
                # sealer cuts must not depend on when it ran (the rest
                # waits for a query)
                relation.seal_full_tiles(
                    append_guard=lambda: self.locks.write_locked(name))
                self._bump("seals")
        finally:
            with self._seal_flags_lock:
                self._seal_inflight[name] = False
        if relation.pending_inserts >= relation.config.tile_size:
            self._schedule_seal(name, relation)  # raced a late insert

    def _schedule_seal(self, name: str, relation: Relation) -> None:
        with self._seal_flags_lock:
            if self._seal_inflight.get(name):
                return
            self._seal_inflight[name] = True
        self.executor.submit_call(self._seal_table, name, relation)

    # ------------------------------------------------------------------
    # checkpointing

    def _checkpoint_table(self, name: str, relation: Relation) -> int:
        """Snapshot one table and truncate its WAL.  The write lock
        freezes ingest for the duration, so the stored WAL position
        exactly matches the snapshot's contents."""
        wal = self.wals.for_table(name)
        # seal_paused first (same seal-lock -> write-lock order as
        # flush_inserts): an in-flight background seal holds documents
        # in neither the buffer nor the tiles, and a snapshot taken in
        # that window would lose them once the WAL is truncated
        with relation.seal_paused():
            with self.locks.write_locked(name):
                position = wal.position()
                size = save_relation(relation,
                                     self.data_dir / f"{name}.jtile",
                                     extra={"wal": position})
                wal.truncate()
        return size

    def _checkpoint_all(self) -> Dict[str, int]:
        written = {}
        for name in sorted(self._base):
            written[name] = self._checkpoint_table(name, self._base[name])
        self._write_catalog()
        self._bump("checkpoints")
        return written

    async def _checkpoint_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            await self._loop.run_in_executor(self._io_pool,
                                             self._checkpoint_all)

    # ------------------------------------------------------------------
    # online maintenance (DESIGN.md §6d)

    async def _maintain_periodically(self) -> None:
        """Run maintenance cycles on the query pool.  ``run_cycle``
        swallows per-action failures itself; the extra guard here only
        keeps a planner-level surprise from killing the task."""
        while True:
            await asyncio.sleep(self.maintenance.config.interval_s)
            try:
                await asyncio.wrap_future(
                    self.executor.submit_call(self.maintenance.run_cycle))
            except asyncio.CancelledError:
                raise
            except Exception:
                self.maintenance._bump("errors")

    # ------------------------------------------------------------------
    # connection handling

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[counter] += amount

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._bump("connections_total")
        self._connections_active += 1
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(protocol.encode(protocol.error_response(
                        "request line exceeds the message size limit",
                        code="protocol")))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode_request(line)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.encode(protocol.error_response(
                        str(exc), code="protocol")))
                    await writer.drain()
                    continue
                response = await self._dispatch(request)
                writer.write(protocol.encode(response))
                await writer.drain()
                if request["cmd"] == "shutdown" and response.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            self._connections_active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        request_id = request.get("id")
        command = request["cmd"]
        try:
            handler = getattr(self, f"_cmd_{command}")
            return await handler(request, request_id)
        except ReproError as exc:
            return protocol.error_response(str(exc), request_id,
                                           code=type(exc).__name__)
        except (KeyError, TypeError, ValueError) as exc:
            return protocol.error_response(f"bad request: {exc}",
                                           request_id, code="bad_request")

    # -- command handlers ----------------------------------------------

    async def _cmd_ping(self, request: dict, request_id) -> dict:
        return protocol.ok_response(request_id, result="pong")

    async def _cmd_hello(self, request: dict, request_id) -> dict:
        """Version/capability handshake.  Always answers — a peer on a
        different protocol revision gets a well-formed response telling
        it so, instead of ``unknown command`` mid-query."""
        return protocol.ok_response(
            request_id,
            version=protocol.PROTOCOL_VERSION,
            role=self.role,
            read_only=self.read_only,
            commands=list(protocol.COMMANDS))

    async def _cmd_create_table(self, request: dict, request_id) -> dict:
        if self.read_only:
            return protocol.error_response(
                "this server is a read replica; create tables on the "
                "primary", request_id, code="read_only")
        name = request["name"]
        if not isinstance(name, str) or not _TABLE_NAME.match(name):
            return protocol.error_response(
                f"invalid table name {name!r}", request_id,
                code="bad_request")
        if "__" in name:
            return protocol.error_response(
                "table names may not contain '__' "
                "(reserved for Tiles-* child tables)", request_id,
                code="bad_request")
        format_name = request.get("format", self.default_format.value)
        if format_name not in _FORMATS:
            return protocol.error_response(
                f"unknown storage format {format_name!r}", request_id,
                code="bad_request")
        await self._loop.run_in_executor(
            self._io_pool, self.register_table, name, format_name,
            request.get("config"))
        return protocol.ok_response(request_id, table=name,
                                    format=format_name)

    def register_table(self, name: str, format_name: Optional[str] = None,
                       config_dict: Optional[dict] = None) -> Relation:
        """Create and catalog a base table (blocking; call off the
        event loop).  Also the entry point the replication subsystem
        uses to mirror the primary's catalog — catalog + WAL segment
        exist before this returns, so the table definition survives a
        crash even with zero checkpoints."""
        config = _config_from_dict(config_dict, self.config)
        relation = self.db.create_table(
            name, _FORMATS[format_name or self.default_format.value],
            config)
        relation.auto_seal = False
        relation.lsm_config = self.lsm_config
        self._base[name] = relation
        self._write_catalog()
        self.wals.for_table(name)
        return relation

    def apply_replicated(self, name: str, documents: list) -> int:
        """Apply replicated documents through the normal ingest path
        (own WAL + buffer + background seal), bypassing the protocol's
        read-only gate.  Blocking; call off the event loop."""
        relation = self._base[name]
        pending = self._append_and_buffer(name, relation, documents)
        self._bump("inserts", len(documents))
        if pending >= relation.config.tile_size:
            self._schedule_seal(name, relation)
        return pending

    async def _cmd_insert(self, request: dict, request_id) -> dict:
        if self.read_only:
            return protocol.error_response(
                "this server is a read replica; write to the primary",
                request_id, code="read_only")
        name = request["table"]
        relation = self._base.get(name)
        if relation is None:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")
        documents = request["docs"] if "docs" in request \
            else [request["doc"]]
        if not isinstance(documents, list):
            return protocol.error_response(
                '"docs" must be a JSON array of documents', request_id,
                code="bad_request")
        # parse JSON-text documents up front, so nothing that can fail
        # later reaches the WAL (an acknowledged record must replay)
        documents = [json.loads(doc) if isinstance(doc, str) else doc
                     for doc in documents]
        pending = await self._loop.run_in_executor(
            self._io_pool, self._append_and_buffer, name, relation,
            documents)
        self._bump("inserts", len(documents))
        if pending >= relation.config.tile_size:
            self._schedule_seal(name, relation)
        return protocol.ok_response(request_id, inserted=len(documents),
                                    pending=pending)

    async def _cmd_flush(self, request: dict, request_id) -> dict:
        name = request.get("table")
        tables = [name] if name else sorted(self._base)
        if name and name not in self._base:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")

        def flush_all():
            sealed = 0
            for table in tables:
                relation = self._base[table]
                had_pending = relation.pending_inserts > 0
                relation.flush_inserts(
                    append_guard=lambda table=table:
                        self.locks.write_locked(table))
                sealed += had_pending
            return sealed

        sealed = await asyncio.wrap_future(
            self.executor.submit_call(flush_all))
        return protocol.ok_response(request_id, sealed_tables=sealed)

    async def _cmd_query(self, request: dict, request_id) -> dict:
        options = options_from_dict(request.get("options"),
                                    self.default_options)
        result = await asyncio.wrap_future(
            self.executor.submit(request["sql"], options))
        self._bump("queries")
        return protocol.ok_response(
            request_id,
            columns=result.columns,
            rows=[list(row) for row in result.rows],
            counters=result.counters.as_dict(),
        )

    async def _cmd_partial_query(self, request: dict, request_id) -> dict:
        """Shard half of a coordinator scatter/gather query: flush,
        bind locally, return ``(block, chunk)``-tagged partial states
        (``repro.engine.partial``).  ``shard_index``/``shard_count``
        fix this shard's place in the global block round-robin;
        ``mode`` (optional) is the coordinator's own classification,
        double-checked shard-side against planner drift."""
        options = options_from_dict(request.get("options"),
                                    self.default_options)
        result = await asyncio.wrap_future(self.executor.submit_call(
            self.executor.execute_partial, request["sql"], options,
            int(request["shard_index"]), int(request["shard_count"]),
            request.get("mode"), request.get("fragment")))
        self._bump("queries")
        return protocol.ok_response(request_id, **result)

    async def _cmd_plan_fragments(self, request: dict, request_id) -> dict:
        """Plan (never execute) a statement as a fragment DAG from this
        shard's local statistics (DESIGN.md §10).  The coordinator
        gathers one vote per shard and proceeds with a broadcast join
        only on unanimity — any disagreement declines to gather."""
        options = options_from_dict(request.get("options"),
                                    self.default_options)
        plan = await asyncio.wrap_future(self.executor.submit_call(
            self.executor.plan_fragments, request["sql"], options))
        return protocol.ok_response(request_id, plan=plan)

    async def _cmd_fetch_docs(self, request: dict, request_id) -> dict:
        """Page through a table's documents in row order (flushing
        first, so the page reflects every acknowledged insert).  Used
        by the coordinator's gather fallback and by replica resync."""
        name = request["table"]
        relation = self._base.get(name)
        if relation is None:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")
        start = max(0, int(request.get("start", 0)))
        limit = max(1, int(request.get("limit", 2000)))

        def fetch():
            relation.flush_inserts(
                append_guard=lambda: self.locks.write_locked(name))
            with self.locks.read_locked([name]):
                total = relation.row_count
                stop = min(total, start + limit)
                return [relation.document(row)
                        for row in range(start, stop)], total

        documents, total = await asyncio.wrap_future(
            self.executor.submit_call(fetch))
        return protocol.ok_response(request_id, docs=documents,
                                    next=start + len(documents),
                                    total=total)

    async def _cmd_export_arrow(self, request: dict, request_id) -> dict:
        """Export a table's resolved tile columns as an Arrow IPC
        stream (base64 on the wire).  Zero-copy on the server side —
        see ``repro.engine.arrow_export``; requires the optional
        ``pyarrow`` dependency on the server (the client needs none to
        relay the bytes)."""
        name = request["table"]
        relation = self._base.get(name)
        if relation is None:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")

        def export() -> bytes:
            from repro.engine.arrow_export import (relation_to_arrow,
                                                   table_to_ipc_bytes)

            relation.flush_inserts(
                append_guard=lambda: self.locks.write_locked(name))
            with self.locks.read_locked([name]):
                return table_to_ipc_bytes(relation_to_arrow(relation))

        try:
            payload = await asyncio.wrap_future(
                self.executor.submit_call(export))
        except ExecutionError as exc:  # pyarrow missing on the server
            return protocol.error_response(str(exc), request_id,
                                           code="bad_request")
        return protocol.ok_response(
            request_id,
            format="arrow_ipc_stream",
            data=base64.b64encode(payload).decode("ascii"))

    async def _cmd_wal_fetch(self, request: dict, request_id) -> dict:
        """Ship WAL records from a cumulative offset (live segment +
        archived epochs).  ``resync: true`` — not an error — when the
        offset predates the archive window; the replica then falls
        back to ``fetch_docs``."""
        name = request["table"]
        if name not in self._base:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")
        wal = self.wals.for_table(name)
        from_total = max(0, int(request.get("from_total", 0)))
        limit = max(1, int(request.get("limit", 10000)))
        try:
            documents, next_total = await self._loop.run_in_executor(
                self._io_pool, wal.fetch, from_total, limit)
        except (ReproError, OSError):
            # pruned offset, a mid-stream gap, or an archive file that
            # vanished under the read — all mean the same thing to the
            # replica: this offset cannot be served, resync instead
            return protocol.ok_response(
                request_id, resync=True, docs=[], next=from_total,
                total=wal.total_records())
        return protocol.ok_response(
            request_id, resync=False, docs=documents, next=next_total,
            total=wal.total_records())

    async def _cmd_replica_status(self, request: dict, request_id) -> dict:
        if self.replication_status is None:
            return protocol.ok_response(request_id, replica=False,
                                        role=self.role)
        status = self.replication_status()
        return protocol.ok_response(request_id, replica=True,
                                    role=self.role, **status)

    async def _cmd_explain(self, request: dict, request_id) -> dict:
        options = options_from_dict(request.get("options"),
                                    self.default_options)
        plan = await asyncio.wrap_future(self.executor.submit_call(
            self.executor.explain, request["sql"], options))
        return protocol.ok_response(request_id, plan=plan)

    async def _cmd_stats(self, request: dict, request_id) -> dict:
        name = request.get("table")
        tables = {}
        for table, relation in sorted(self._base.items()):
            if name and table != name:
                continue
            wal = self.wals.for_table(table)
            tables[table] = {
                "format": relation.format.value,
                "rows": relation.row_count,
                "pending": relation.pending_inserts,
                "tiles": len(relation.tiles),
                "wal_records": wal.record_count,
                # cumulative shipping offset + table definition: enough
                # for a coordinator or replica to rebuild its catalog
                # and resume replication from stats alone
                "wal_total": wal.total_records(),
                "config": {field: getattr(relation.config, field)
                           for field in _CONFIG_FIELDS},
                "scan": dict(relation.scan_totals),
                "residency": relation.residency_report(),
                # per-level occupancy + compaction counters (repro.lsm)
                "lsm": relation.lsm_status(),
            }
        with self._counters_lock:
            counters = dict(self._counters)
        counters["connections_active"] = self._connections_active
        uptime = time.monotonic() - self._started_at
        pool = pool_stats()
        wall = max(uptime, 1e-9) * max(pool["workers"], 1)
        pool["utilization"] = round(min(1.0, pool["busy_seconds"] / wall), 4)
        extra = {}
        if self.maintenance is not None:
            extra["maintenance"] = await asyncio.wrap_future(
                self.executor.submit_call(self.maintenance.status))
        return protocol.ok_response(
            request_id, tables=tables, counters=counters,
            cache=GLOBAL_TILE_CACHE.stats(),
            statements=self.db.statement_cache_stats(),
            residency=GLOBAL_TILE_STORE.stats(), pool=pool,
            uptime_s=round(uptime, 3), role=self.role,
            read_only=self.read_only, **extra)

    async def _cmd_maintenance(self, request: dict, request_id) -> dict:
        """Operator surface of the maintenance daemon:
        ``status`` (default) / ``pause`` / ``resume`` / ``force``
        (run one cycle immediately, ignoring pause + backpressure)."""
        action = request.get("action", "status")
        if action not in ("status", "pause", "resume", "force"):
            return protocol.error_response(
                f"unknown maintenance action {action!r}; expected "
                "status, pause, resume or force", request_id,
                code="bad_request")
        if self.maintenance is None:
            return protocol.ok_response(request_id, enabled=False,
                                        maintenance={"enabled": False})
        executed = None
        if action == "pause":
            self.maintenance.pause()
        elif action == "resume":
            self.maintenance.resume()
        elif action == "force":
            executed = await asyncio.wrap_future(
                self.executor.submit_call(self.maintenance.run_cycle, True))
        status = await asyncio.wrap_future(
            self.executor.submit_call(self.maintenance.status))
        fields = {"enabled": True, "maintenance": status}
        if executed is not None:
            fields["executed"] = executed
        return protocol.ok_response(request_id, **fields)

    async def _cmd_checkpoint(self, request: dict, request_id) -> dict:
        written = await self._loop.run_in_executor(self._io_pool,
                                                   self._checkpoint_all)
        return protocol.ok_response(request_id, written=written)

    async def _cmd_shutdown(self, request: dict, request_id) -> dict:
        checkpoint = bool(request.get("checkpoint", True))
        self._stop_checkpoint = checkpoint
        self._loop.call_soon_threadsafe(self._stop_event.set)
        return protocol.ok_response(request_id, stopping=True)


def run_server(data_dir: Union[str, Path], host: str = "127.0.0.1",
               port: int = 7617, **kwargs) -> None:
    """Blocking entry point used by ``python -m repro serve``."""

    async def main():
        server = JsonTilesServer(data_dir, host, port, **kwargs)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except NotImplementedError:  # non-Unix event loops
                pass
        print(f"repro server listening on {server.host}:{server.port} "
              f"(data dir: {server.data_dir})", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            await server.stop()
            raise

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
