"""The cluster coordinator: one process, the whole fleet (DESIGN.md §7).

Clients speak the ordinary JSON-lines protocol to the coordinator —
``ServerClient`` pointed at its port is the cluster client.  Behind
it:

* ``insert`` routes documents to shards in round-robin *blocks* of
  ``tile_size`` rows (global rows ``[k*B, (k+1)*B)`` → shard
  ``k % S``), serialized per table so every shard's local row order is
  a deterministic function of the global insert order.  The per-shard
  sub-batches of one request are dispatched concurrently — S WAL
  fsyncs overlap, which is where the cluster's ingest speedup
  comes from.
* ``query`` classifies the bound block (``repro.engine.partial``):
  partial-executable blocks scatter ``partial_query`` to one backend
  per shard (a read replica when fresh enough, see below) and merge
  the returned states in global block order — bit-identical to a
  single-node run.  Two-table equi-joins whose build side is small may
  instead run as shard-side *broadcast joins* (DESIGN.md §10): the
  shards vote on a fragment plan (``plan_fragments``); on unanimity
  the coordinator gathers the build side's surviving rows, broadcasts
  them to every shard's probe fragment, and merges partial results —
  any disagreement, non-wire column or build side over the
  ``broadcast_max_rows`` cap (``0`` declines every join) falls back
  to gather (counted in ``distjoin_declines``).  Everything else falls
  back to *gather*: the referenced tables are paged from the shards,
  rebuilt locally in global row order, and the query runs on the
  rebuild.
* ``flush`` / ``checkpoint`` / ``maintenance`` / ``stats`` fan out to
  every shard and aggregate per-shard sections.

Replica reads: for each shard the coordinator prefers a replica whose
replication lag — computed against the coordinator's own routed-row
counts, so a paused replica cannot under-report — is within the
topology's ``max_replica_lag``; otherwise it falls back to the
primary and counts the fallback.

Failure surface: a backend that is down or mid-crash surfaces as a
protocol error with code ``unavailable`` naming the backend address.
Only idempotent commands are ever re-sent after a dropped connection;
a failed ``insert`` is never retried blindly (the backend may have
applied it even though the ack was lost).  Inserts are not atomic
across shards — an ``unavailable`` insert may have landed on some
shards, so the coordinator marks the table *degraded* and refuses
further inserts and queries against it (code ``degraded``) until the
per-shard row counts re-verify against the canonical block layout;
verification is attempted automatically on the next access and the
flag is visible in ``stats``.  The client must treat the failed batch
as unacknowledged and may re-send only after the table heals.
Admission control: more than ``max_inflight_queries`` concurrent
queries get code ``overloaded`` instead of queueing without bound.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from repro.database import Database
from repro.engine.fragments import plan_fragments
from repro.engine.partial import (
    GATHER,
    _WIRE_TYPES,
    classify_block,
    merge_build_pieces,
    merge_counters,
    merge_partial_results,
)
from repro.engine.plan import QueryOptions
from repro.errors import ReproError
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.formats import StorageFormat
from repro.tiles.extractor import ExtractionConfig

from repro.server import protocol
from repro.server.executor import options_from_dict, referenced_tables
from repro.cluster.topology import ClusterTopology, Endpoint, shard_rows

_TABLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_FORMATS = {fmt.value: fmt for fmt in StorageFormat}

#: ExtractionConfig fields carried in catalogs and shard stats
_CONFIG_FIELDS = ("tile_size", "partition_size", "threshold",
                  "mining_budget", "max_array_elements", "detect_dates",
                  "enable_reordering")

#: commands a BackendLink may re-send after a dropped connection —
#: re-applying any of these cannot change backend state.  ``insert``,
#: ``create_table`` and ``shutdown`` are deliberately absent: once the
#: request bytes have left this process the backend may have applied
#: them even though the ack was lost, and a blind re-send would
#: double-apply the batch and silently corrupt the canonical block
#: layout that routing, partial merges and replica lag depend on.
_IDEMPOTENT_COMMANDS = frozenset({
    "ping", "hello", "query", "explain", "stats", "partial_query",
    "plan_fragments", "fetch_docs", "wal_fetch", "replica_status",
    "maintenance", "flush", "checkpoint",
})


class BackendError(ReproError):
    """A shard/replica call failed; carries the peer's error code."""

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code or "backend"


class BackendLink:
    """One persistent connection to one backend, requests serialized
    under an asyncio lock (the protocol is strictly request/response
    per connection).  A dropped connection is re-dialed once per call,
    but only :data:`_IDEMPOTENT_COMMANDS` are ever re-*sent*: a
    non-idempotent request that failed after its bytes were written
    (``insert``!) raises ``BackendError(code="unavailable")``
    immediately, because the backend may have applied it even though
    the ack was lost — the caller must treat it as unacknowledged, per
    the documented insert contract.  An unreachable backend raises the
    same ``unavailable`` error naming the address."""

    def __init__(self, endpoint: Endpoint, timeout: float = 60.0):
        self.endpoint = endpoint
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._request_id = 0

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.endpoint.host, self.endpoint.port,
                                    limit=protocol.MAX_MESSAGE_BYTES),
            timeout=self.timeout)

    async def _close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def call(self, command: str,
                   _account: Optional[dict] = None, **fields) -> dict:
        """*_account*, when given, is a mutable ``{"bytes": n}`` the
        call adds its request and response line sizes to — the
        coordinator's ``exchange_bytes`` bookkeeping (broadcast joins
        vs. the gather fallback are compared on exactly this number)."""
        async with self._lock:
            self._request_id += 1
            payload = protocol.encode({"id": self._request_id,
                                       "cmd": command, **fields})
            if len(payload) > protocol.MAX_MESSAGE_BYTES:
                raise BackendError(
                    f"request to {self.endpoint.address} exceeds the "
                    f"protocol frame limit; split the batch",
                    code="protocol")
            if _account is not None:
                _account["bytes"] += len(payload)
            retriable = command in _IDEMPOTENT_COMMANDS
            for attempt in (0, 1):
                sent = False
                try:
                    if self._writer is None:
                        await self._connect()
                    sent = True
                    self._writer.write(payload)
                    await self._writer.drain()
                    line = await asyncio.wait_for(self._reader.readline(),
                                                  timeout=self.timeout)
                except (ConnectionResetError, BrokenPipeError,
                        ConnectionRefusedError, OSError,
                        asyncio.TimeoutError) as exc:
                    await self._close()
                    # retry only if the request provably never reached
                    # the backend (connect failed) or re-applying it is
                    # harmless; a written non-idempotent request may
                    # already be applied, so it must surface as failed
                    if attempt or (sent and not retriable):
                        suffix = ("; the request may have been applied "
                                  "— treat it as unacknowledged"
                                  if sent and not retriable else "")
                        raise BackendError(
                            f"backend {self.endpoint.address} is "
                            f"unavailable: {exc}{suffix}",
                            code="unavailable") from exc
                    continue
                if not line:
                    await self._close()
                    if attempt or not retriable:
                        suffix = ("; the request may have been applied "
                                  "— treat it as unacknowledged"
                                  if not retriable else "")
                        raise BackendError(
                            f"backend {self.endpoint.address} closed the "
                            f"connection{suffix}", code="unavailable")
                    continue
                if _account is not None:
                    _account["bytes"] += len(line)
                response = json.loads(line.decode("utf-8"))
                if not response.get("ok"):
                    raise BackendError(
                        f"{self.endpoint.address}: "
                        f"{response.get('error', 'backend error')}",
                        code=response.get("code"))
                return response
            raise BackendError(  # pragma: no cover - loop always returns
                f"backend {self.endpoint.address} is unavailable",
                code="unavailable")


class ClusterCoordinator:
    """Scatter/gather front end over a static shard fleet."""

    def __init__(self, topology: ClusterTopology,
                 host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 60.0,
                 max_inflight_queries: int = 32,
                 default_options: Optional[QueryOptions] = None):
        self.topology = topology
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_inflight_queries = max_inflight_queries
        self.default_options = default_options or QueryOptions()
        self.links: List[BackendLink] = [
            BackendLink(spec.primary, timeout) for spec in topology.shards]
        self.replica_links: List[List[BackendLink]] = [
            [BackendLink(rep, timeout) for rep in spec.replicas]
            for spec in topology.shards]
        #: per-table routing state: format, config dict, routed-row
        #: count, and the lock serializing routing decisions
        self.tables: Dict[str, dict] = {}
        #: empty relations mirroring the shard catalogs — the binder
        #: runs against these (binding is data-independent)
        self.skeleton = Database()
        #: gather cache: per table, per-shard document lists plus the
        #: row count of the rebuilt relation in ``self._gather_db``
        self._gather_docs: Dict[str, List[List[object]]] = {}
        self._gather_built: Dict[str, int] = {}
        self._gather_db = Database()
        self._gather_lock = asyncio.Lock()

        self._pool = ThreadPoolExecutor(max_workers=4,
                                        thread_name_prefix="repro-coord")
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._counters = {
            "inserts": 0, "queries": 0, "partial_queries": 0,
            "gather_queries": 0, "replica_queries": 0,
            "primary_fallbacks": 0, "overload_rejections": 0,
            "connections_total": 0, "distributed_joins": 0,
            "distjoin_declines": 0, "broadcast_rows": 0,
            "exchange_bytes": 0,
        }
        #: join order of the last distributed-join attempt (stats)
        self._last_join_order: List[str] = []
        #: why the last declined attempt fell back to gather (stats)
        self._last_distjoin_decline: Optional[str] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._handshake()
        await self._discover_tables()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_MESSAGE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def _handshake(self) -> None:
        """Verify every primary speaks our protocol revision before
        accepting a single client — capability drift fails loud and
        early, not mid-query."""
        responses = await asyncio.gather(
            *[link.call("hello", version=protocol.PROTOCOL_VERSION,
                        role="coordinator") for link in self.links])
        for link, response in zip(self.links, responses):
            peer = response.get("version")
            if peer != protocol.PROTOCOL_VERSION:
                raise BackendError(
                    f"shard {link.endpoint.address} speaks protocol "
                    f"version {peer}, coordinator speaks "
                    f"{protocol.PROTOCOL_VERSION}",
                    code="version_mismatch")
            if response.get("read_only"):
                raise BackendError(
                    f"shard {link.endpoint.address} is read-only (a "
                    f"replica listed as a primary?)", code="topology")

    async def _discover_tables(self) -> None:
        """Rebuild the routing catalog from shard stats: table
        definitions from any shard, routed-row counts as the sum of
        per-shard rows (exact under block round-robin routing)."""
        stats = await asyncio.gather(
            *[link.call("stats") for link in self.links])
        names: Set[str] = set()
        for shard_stats in stats:
            names.update(shard_stats.get("tables", {}))
        for name in sorted(names):
            if "__" in name:
                continue  # Tiles-* child tables are not routable
            entry = None
            count = 0
            for shard_stats in stats:
                table = shard_stats.get("tables", {}).get(name)
                if table is None:
                    continue
                if entry is None:
                    entry = table
                count += table["rows"] + table["pending"]
            self._register_table(name, entry["format"],
                                 entry.get("config") or {}, count)

    def _register_table(self, name: str, format_name: str,
                        config: dict, count: int) -> dict:
        config = {field: config[field] for field in _CONFIG_FIELDS
                  if field in config}
        entry = {
            "format": format_name,
            "config": config,
            "count": count,
            #: bumped on every routed insert / reconciliation — the
            #: gather cache's validity key (``_refresh_gather_table``)
            "epoch": 0,
            "degraded": False,
            "lock": asyncio.Lock(),
        }
        self.tables[name] = entry
        if name not in self.skeleton.tables:
            self.skeleton.create_table(
                name, _FORMATS[format_name],
                ExtractionConfig(**config) if config else None)
        return entry

    async def serve_forever(self) -> None:
        await self._stop_event.wait()
        await self.stop()

    def request_stop(self) -> None:
        self._loop.call_soon_threadsafe(self._stop_event.set)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        for link in self.links + [rep for reps in self.replica_links
                                  for rep in reps]:
            await link._close()
        self._pool.shutdown(wait=True)

    # -- background-thread embedding (tests, benchmarks) ---------------

    def start_in_thread(self) -> "ClusterCoordinator":
        started = threading.Event()
        failure: list = []

        def runner():
            async def main():
                try:
                    await self.start()
                except Exception as exc:
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                await self.serve_forever()

            asyncio.run(main())

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-coordinator")
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    def stop_in_thread(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        self.request_stop()
        self._thread.join(timeout=timeout)
        self._thread = None

    # ------------------------------------------------------------------
    # connection handling (same loop shape as the server)

    def _bump(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] += amount  # event-loop thread only

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._bump("connections_total")
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
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        request_id = request.get("id")
        command = request["cmd"]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return protocol.error_response(
                f"the coordinator does not serve {command!r} (it is a "
                f"shard-side command)", request_id, code="bad_request")
        try:
            return await handler(request, request_id)
        except BackendError as exc:
            return protocol.error_response(str(exc), request_id,
                                           code=exc.code)
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
        return protocol.ok_response(
            request_id, version=protocol.PROTOCOL_VERSION,
            role="coordinator", read_only=False,
            shards=self.topology.shard_count,
            commands=list(protocol.COMMANDS))

    async def _cmd_create_table(self, request: dict, request_id) -> dict:
        name = request["name"]
        if not isinstance(name, str) or not _TABLE_NAME.match(name) \
                or "__" in name:
            return protocol.error_response(
                f"invalid table name {name!r}", request_id,
                code="bad_request")
        if name in self.tables:
            return protocol.error_response(
                f"table {name!r} already exists", request_id,
                code="SqlBindError")
        format_name = request.get("format", StorageFormat.TILES.value)
        if format_name not in _FORMATS:
            return protocol.error_response(
                f"unknown storage format {format_name!r}", request_id,
                code="bad_request")
        fields = {"name": name, "format": format_name}
        # shard row order is load-bearing (the canonical block
        # layout), so maintenance-time partition reordering is
        # disabled on every shard copy of the table
        fields["config"] = dict(request.get("config") or {},
                                enable_reordering=False)
        await asyncio.gather(*[link.call("create_table", **fields)
                               for link in self.links])
        # read the config back from a shard so defaults the shard
        # filled in (tile_size!) are authoritative for routing
        stats = await self.links[0].call("stats", table=name)
        entry = stats["tables"][name]
        self._register_table(name, entry["format"],
                             entry.get("config") or {}, 0)
        return protocol.ok_response(request_id, table=name,
                                    format=format_name,
                                    shards=self.topology.shard_count)

    async def _cmd_insert(self, request: dict, request_id) -> dict:
        name = request["table"]
        entry = self.tables.get(name)
        if entry is None:
            return protocol.error_response(f"unknown table {name!r}",
                                           request_id, code="bad_request")
        documents = request["docs"] if "docs" in request \
            else [request["doc"]]
        if not isinstance(documents, list):
            return protocol.error_response(
                '"docs" must be a JSON array of documents', request_id,
                code="bad_request")
        documents = [json.loads(doc) if isinstance(doc, str) else doc
                     for doc in documents]
        tile_rows = entry["config"].get("tile_size", 1024)
        shard_count = self.topology.shard_count
        # the per-table lock serializes routing: each shard's local
        # row order must equal the global insert order restricted to
        # its blocks, so batches may not interleave mid-dispatch
        async with entry["lock"]:
            if entry["degraded"]:
                await self._reconcile_table(name, entry)
            base = entry["count"]
            per_shard: List[list] = [[] for _ in range(shard_count)]
            for offset, document in enumerate(documents):
                block = (base + offset) // tile_rows
                per_shard[block % shard_count].append(document)
            calls = [link.call("insert", table=name, docs=chunk)
                     for link, chunk in zip(self.links, per_shard)
                     if chunk]
            responses = await asyncio.gather(*calls,
                                             return_exceptions=True)
            failures = [response for response in responses
                        if isinstance(response, BaseException)]
            if failures:
                # any failed sub-batch may still have been applied
                # shard-side (lost ack), so the routed count can no
                # longer be trusted: degrade the table — traffic is
                # refused until the per-shard counts re-verify against
                # the canonical block layout (``_reconcile_table``)
                entry["degraded"] = True
                raise failures[0]
            entry["count"] = base + len(documents)
            entry["epoch"] += 1
        self._bump("inserts", len(documents))
        pending = max((response.get("pending", 0)
                       for response in responses), default=0)
        return protocol.ok_response(request_id, inserted=len(documents),
                                    pending=pending)

    async def _reconcile_table(self, name: str, entry: dict) -> None:
        """Re-verify a degraded table against shard stats (caller holds
        the entry lock).  After a failed insert fan-out some shards may
        hold sub-batches the coordinator never counted; the table heals
        only if the per-shard row counts match the canonical block
        round-robin for their sum — that sum then becomes the routed
        count.  Any other layout means a routed block is missing from
        the middle of the table, and the coordinator keeps refusing
        traffic (code ``degraded``) instead of returning wrong
        results."""
        stats = await asyncio.gather(
            *[link.call("stats", table=name) for link in self.links])
        counts = []
        for shard_stats in stats:
            table = shard_stats.get("tables", {}).get(name)
            counts.append(table["rows"] + table["pending"]
                          if table else 0)
        total = sum(counts)
        tile_rows = entry["config"].get("tile_size", 1024)
        expected = [shard_rows(total, tile_rows,
                               self.topology.shard_count, index)
                    for index in range(self.topology.shard_count)]
        if counts != expected:
            raise BackendError(
                f"table {name!r} is degraded: a failed insert left the "
                f"shards holding {counts} rows where the block layout "
                f"for {total} total rows requires {expected}; reload "
                f"the table to repair it", code="degraded")
        entry["count"] = total
        entry["epoch"] += 1
        entry["degraded"] = False

    async def _ensure_routable(self, names) -> None:
        """Refuse to serve tables marked degraded by a failed insert,
        after one reconciliation attempt against shard stats."""
        for name in names:
            entry = self.tables.get(name)
            if entry is None or not entry["degraded"]:
                continue
            async with entry["lock"]:
                if entry["degraded"]:
                    await self._reconcile_table(name, entry)

    async def _cmd_flush(self, request: dict, request_id) -> dict:
        fields = {}
        if request.get("table"):
            fields["table"] = request["table"]
        responses = await asyncio.gather(
            *[link.call("flush", **fields) for link in self.links])
        return protocol.ok_response(
            request_id,
            sealed_tables=sum(response.get("sealed_tables", 0)
                              for response in responses))

    async def _cmd_checkpoint(self, request: dict, request_id) -> dict:
        responses = await asyncio.gather(
            *[link.call("checkpoint") for link in self.links])
        written = {
            f"shard{index}": response.get("written", {})
            for index, response in enumerate(responses)
        }
        return protocol.ok_response(request_id, written=written)

    async def _cmd_maintenance(self, request: dict, request_id) -> dict:
        action = request.get("action", "status")
        responses = await asyncio.gather(
            *[link.call("maintenance", action=action)
              for link in self.links])
        shards = {
            f"shard{index}": {key: value for key, value in response.items()
                              if key not in ("ok", "id")}
            for index, response in enumerate(responses)
        }
        return protocol.ok_response(
            request_id,
            enabled=any(response.get("enabled") for response in responses),
            shards=shards)

    async def _cmd_stats(self, request: dict, request_id) -> dict:
        responses = await asyncio.gather(
            *[link.call("stats") for link in self.links])
        replica_status = await asyncio.gather(
            *[self._replica_statuses(index)
              for index in range(self.topology.shard_count)])
        tables: Dict[str, dict] = {}
        for response in responses:
            for name, table in response.get("tables", {}).items():
                agg = tables.setdefault(name, {
                    "format": table["format"], "rows": 0, "pending": 0,
                    "tiles": 0, "wal_total": 0})
                agg["rows"] += table["rows"]
                agg["pending"] += table["pending"]
                agg["tiles"] += table["tiles"]
                agg["wal_total"] += table.get("wal_total", 0)
                lsm = table.get("lsm")
                if lsm:
                    agg_lsm = agg.setdefault("lsm", {
                        "enabled": False, "levels": {}, "counters": {}})
                    agg_lsm["enabled"] = (agg_lsm["enabled"]
                                          or bool(lsm.get("enabled")))
                    for level, report in lsm.get("levels", {}).items():
                        merged = agg_lsm["levels"].setdefault(level, {})
                        for key, value in report.items():
                            if key == "extracted_fraction":
                                # tile-weighted sum; averaged below
                                # once every shard is folded in
                                merged["_fraction_x_tiles"] = \
                                    merged.get("_fraction_x_tiles", 0.0) \
                                    + value * report.get("tiles", 0)
                            else:
                                merged[key] = merged.get(key, 0) + value
                    for key, value in lsm.get("counters", {}).items():
                        agg_lsm["counters"][key] = \
                            agg_lsm["counters"].get(key, 0) + value
        for table in tables.values():
            for report in table.get("lsm", {}).get("levels", {}).values():
                weighted = report.pop("_fraction_x_tiles", 0.0)
                report["extracted_fraction"] = round(
                    weighted / max(1, report.get("tiles", 0)), 4)

        for name, entry in self.tables.items():
            if name in tables:
                tables[name]["routed_rows"] = entry["count"]
                tables[name]["degraded"] = entry["degraded"]
        shards = [
            {"address": link.endpoint.address,
             "tables": response.get("tables", {}),
             "counters": response.get("counters", {}),
             "maintenance": response.get("maintenance"),
             "replicas": replica_status[index]}
            for index, (link, response)
            in enumerate(zip(self.links, responses))
        ]
        counters = dict(self._counters)
        counters["inflight_queries"] = self._inflight
        return protocol.ok_response(
            request_id, role="coordinator", tables=tables,
            counters=counters, shards=shards,
            last_join_order=list(self._last_join_order),
            last_distjoin_decline=self._last_distjoin_decline,
            uptime_s=round(time.monotonic() - self._started_at, 3))

    async def _replica_statuses(self, shard_index: int) -> List[dict]:
        statuses = []
        for link in self.replica_links[shard_index]:
            try:
                response = await link.call("replica_status")
                statuses.append({
                    "address": link.endpoint.address,
                    **{key: value for key, value in response.items()
                       if key not in ("ok", "id")}})
            except BackendError as exc:
                statuses.append({"address": link.endpoint.address,
                                 "error": str(exc)})
        return statuses

    async def _cmd_shutdown(self, request: dict, request_id) -> dict:
        """Stop the coordinator.  ``backends: true`` also asks every
        shard and replica to shut down (best effort, for tooling)."""
        if request.get("backends"):
            checkpoint = bool(request.get("checkpoint", True))
            all_links = [rep for reps in self.replica_links
                         for rep in reps] + self.links
            await asyncio.gather(
                *[link.call("shutdown", checkpoint=checkpoint)
                  for link in all_links],
                return_exceptions=True)
        self._loop.call_soon_threadsafe(self._stop_event.set)
        return protocol.ok_response(request_id, stopping=True)

    # ------------------------------------------------------------------
    # query path

    async def _cmd_query(self, request: dict, request_id) -> dict:
        if self._inflight >= self.max_inflight_queries:
            self._bump("overload_rejections")
            return protocol.error_response(
                f"coordinator overloaded: {self._inflight} queries in "
                f"flight (max_inflight_queries="
                f"{self.max_inflight_queries})", request_id,
                code="overloaded")
        self._inflight += 1
        try:
            sql = request["sql"]
            options_dict = request.get("options") or {}
            options = options_from_dict(options_dict,
                                        self.default_options)
            block = Binder(self.skeleton.tables, options).bind(parse(sql))
            mode = classify_block(block)
            self._bump("queries")
            account = {"bytes": 0}
            if mode == GATHER:
                response = await self._distributed_join(
                    sql, options, options_dict, block, account,
                    request_id)
                if response is not None:
                    self._bump("exchange_bytes", account["bytes"])
                    return response
                self._bump("gather_queries")
                result = await self._gather_query(sql, options, account)
                self._bump("exchange_bytes", account["bytes"])
                return protocol.ok_response(
                    request_id, columns=result.columns,
                    rows=[list(row) for row in result.rows],
                    counters=result.counters.as_dict(),
                    cluster={"mode": GATHER,
                             "shards": self.topology.shard_count,
                             "exchange_bytes": account["bytes"]})
            self._bump("partial_queries")
            table = block.sources[0].relation.name
            await self._ensure_routable([table])
            backends, replicas_used = await self._select_backends([table])
            responses = await asyncio.gather(*[
                link.call("partial_query", sql=sql, shard_index=index,
                          shard_count=self.topology.shard_count,
                          mode=mode, options=options_dict,
                          _account=account)
                for index, link in enumerate(backends)
            ])
            pieces = [piece for response in responses
                      for piece in response["pieces"]]
            columns, rows = await self._loop.run_in_executor(
                self._pool, merge_partial_results, block, mode, pieces)
            counters = merge_counters(
                [response["counters"] for response in responses])
            self._bump("exchange_bytes", account["bytes"])
            return protocol.ok_response(
                request_id, columns=columns, rows=rows,
                counters=counters.as_dict(),
                cluster={"mode": mode,
                         "shards": self.topology.shard_count,
                         "replicas_used": replicas_used,
                         "exchange_bytes": account["bytes"]})
        finally:
            self._inflight -= 1

    # -- shard-side broadcast joins (DESIGN.md §10) ---------------------

    async def _distributed_join(self, sql: str, options: QueryOptions,
                                options_dict: dict, block,
                                account: dict,
                                request_id) -> Optional[dict]:
        """Try a two-table equi-join as shard-side broadcast fragments.

        Returns the finished response, or ``None`` to decline to the
        gather path.  The contract is bit-identical-or-decline: any
        doubt — shards disagreeing on the plan, an oversized or
        non-wire build side, an unroutable table — declines.  Declines
        after the shape pre-check count as ``distjoin_declines``;
        blocks that are not broadcast-join shaped at all (unions,
        subqueries, 3+ tables...) pass straight through uncounted.
        """
        local = plan_fragments(block, options)
        if local.join is None:
            if (len(block.sources) >= 2 or block.left_joins
                    or block.subquery_filters):
                # a join the fragment IR can't express (non-equi,
                # 3+ tables, outer, subquery...) — a counted decline
                self._bump("distjoin_declines")
                self._last_distjoin_decline = local.reason
            return None  # plain non-join gather (unions, exotic types)

        def decline(reason: str) -> None:
            self._bump("distjoin_declines")
            self._last_join_order = list(local.join.order)
            self._last_distjoin_decline = reason

        # the build side must fit the broadcast budget: the topology's
        # cap, else the query's; a cap of 0 turns broadcasts off
        cap = self.topology.max_broadcast_rows
        if cap is None:
            cap = options.broadcast_max_rows
        if cap <= 0:
            decline("build-too-large")
            return None

        tables = sorted({source.relation.name
                         for source in block.sources})
        await self._ensure_routable(tables)

        # consensus vote: every shard plans from its own statistics;
        # the broadcast runs only if all agree on mode + orientation
        # (primaries only — replica statistics may lag arbitrarily)
        try:
            votes = await asyncio.gather(*[
                link.call("plan_fragments", sql=sql,
                          options=options_dict, _account=account)
                for link in self.links])
        except BackendError:
            decline("plan-unavailable")
            return None
        plans = [vote["plan"] for vote in votes]
        first = plans[0]
        if any(plan.get("mode") == GATHER or "join" not in plan
               for plan in plans):
            decline("shard-declined")
            return None
        joins = [plan["join"] for plan in plans]
        if any(plan["mode"] != first["mode"]
               or join["probe"] != joins[0]["probe"]
               or join["build"] != joins[0]["build"]
               or join["order"] != joins[0]["order"]
               for plan, join in zip(plans, joins)):
            decline("shard-disagreement")
            return None
        mode = first["mode"]
        probe_alias = joins[0]["probe"]
        build_alias = joins[0]["build"]
        order = list(joins[0]["order"])

        # the sum of the shards' surviving-cardinality estimates must
        # fit the cap, and the build side must ship losslessly
        estimate = sum(join["build_estimate"] for join in joins)
        if estimate > cap:
            decline("build-too-large")
            return None
        build_source = block.source(build_alias)
        if any(request.target not in _WIRE_TYPES
               for request in build_source.requests.values()):
            decline("non-wire-build-column")
            return None

        shard_count = self.topology.shard_count
        built = await asyncio.gather(*[
            link.call("partial_query", sql=sql, shard_index=index,
                      shard_count=shard_count, options=options_dict,
                      fragment={"phase": "build", "build": build_alias},
                      _account=account)
            for index, link in enumerate(self.links)])
        build_rows = merge_build_pieces(
            [piece for response in built
             for piece in response["pieces"]])
        if len(build_rows) > cap:
            decline("build-overflowed-estimate")
            return None
        fragment = {"phase": "probe", "probe": probe_alias,
                    "build": build_alias,
                    "columns": built[0]["columns"],
                    "types": built[0]["types"], "rows": build_rows}
        # the broadcast must fit one protocol frame per shard
        if len(protocol.encode(fragment)) + len(sql) + 4096 \
                > protocol.MAX_MESSAGE_BYTES:
            decline("build-exceeds-frame")
            return None

        probed = await asyncio.gather(*[
            link.call("partial_query", sql=sql, shard_index=index,
                      shard_count=shard_count, mode=mode,
                      options=options_dict, fragment=fragment,
                      _account=account)
            for index, link in enumerate(self.links)])
        pieces = [piece for response in probed
                  for piece in response["pieces"]]
        columns, rows = await self._loop.run_in_executor(
            self._pool, merge_partial_results, block, mode, pieces)
        counters = merge_counters(
            [response["counters"] for response in built + probed])
        counters.broadcast_rows += len(build_rows) * shard_count
        self._bump("distributed_joins")
        self._bump("broadcast_rows", len(build_rows) * shard_count)
        self._last_join_order = order
        return protocol.ok_response(
            request_id, columns=columns, rows=rows,
            counters=counters.as_dict(),
            cluster={"mode": "broadcast_join", "shards": shard_count,
                     "join_order": order, "probe": probe_alias,
                     "build": build_alias,
                     "broadcast_rows": len(build_rows) * shard_count,
                     "exchange_bytes": account["bytes"]})

    async def _cmd_explain(self, request: dict, request_id) -> dict:
        sql = request["sql"]
        options_dict = request.get("options") or {}
        options = options_from_dict(options_dict, self.default_options)
        block = Binder(self.skeleton.tables, options).bind(parse(sql))
        mode = classify_block(block)
        local = plan_fragments(block, options)
        shard_plan = await self.links[0].call("explain", sql=sql,
                                              options=options_dict)
        if mode == GATHER:
            if local.join is not None:
                strategy = (
                    f"  broadcast join (on unanimous shard vote): "
                    f"build[{local.join.build}] =broadcast=> "
                    f"probe[{local.join.probe}] -> merge; declines "
                    f"fall back to gather\n")
            else:
                strategy = ("  gather: rebuild referenced tables from "
                            "shard documents in global row order, "
                            "execute locally\n")
        else:
            strategy = (
                f"  scatter partial_query to {self.topology.shard_count} "
                f"backends, merge states in global block order\n")
        header = (
            f"Cluster[{self.topology.shard_count} shards, mode={mode}]\n"
            + strategy
            + f"  {local.describe()}\n"
            + "  per-shard plan (shard 0):\n")
        indented = "\n".join("    " + line for line
                             in shard_plan["plan"].splitlines())
        return protocol.ok_response(request_id, plan=header + indented)

    # -- replica selection ---------------------------------------------

    async def _select_backends(self, tables: List[str]
                               ) -> Tuple[List[BackendLink], int]:
        """One backend per shard: a replica within the staleness bound
        if the topology allows, else the primary.  Lag is computed
        against the coordinator's routed-row counts, never against the
        replica's own view of the primary (a paused replica would
        under-report its lag)."""
        backends: List[BackendLink] = []
        replicas_used = 0
        for index, primary in enumerate(self.links):
            chosen = None
            if self.topology.read_from_replicas:
                for link in self.replica_links[index]:
                    if await self._replica_fresh(link, index, tables):
                        chosen = link
                        break
            if chosen is None:
                backends.append(primary)
                if self.replica_links[index] \
                        and self.topology.read_from_replicas:
                    self._bump("primary_fallbacks")
            else:
                backends.append(chosen)
                replicas_used += 1
                self._bump("replica_queries")
        return backends, replicas_used

    async def _replica_fresh(self, link: BackendLink, shard_index: int,
                             tables: List[str]) -> bool:
        try:
            status = await link.call("replica_status")
        except BackendError:
            return False
        if not status.get("replica") or status.get("paused"):
            return False
        applied = status.get("tables", {})
        for name in tables:
            entry = self.tables.get(name)
            if entry is None:
                continue
            expected = shard_rows(entry["count"],
                                  entry["config"].get("tile_size", 1024),
                                  self.topology.shard_count, shard_index)
            behind = expected - int(
                applied.get(name, {}).get("applied", 0))
            if behind > self.topology.max_replica_lag:
                return False
        return True

    # -- gather fallback -----------------------------------------------

    async def _gather_query(self, sql: str, options: QueryOptions,
                            account: Optional[dict] = None):
        # fetch the small side first (routed row counts are the
        # coordinator's cardinalities): its rebuild completes and frees
        # pool capacity while the big side is still paging, and an
        # error on the cheap side aborts before the expensive fetch
        tables = sorted(referenced_tables(parse(sql)) & set(self.tables),
                        key=lambda name: (self.tables[name]["count"],
                                          name))
        await self._ensure_routable(tables)
        async with self._gather_lock:
            for name in tables:
                await self._refresh_gather_table(name, account)
            return await self._loop.run_in_executor(
                self._pool, self._gather_db.sql, sql, options)

    async def _refresh_gather_table(self, name: str,
                                    account: Optional[dict] = None
                                    ) -> None:
        """Bring the local rebuild of *name* up to the routed count.
        Document pages are fetched incrementally per shard (appends
        only ever extend a shard's suffix), but a grown table is
        re-extracted from scratch so its tile boundaries stay exactly
        canonical — an incrementally flushed tail would drift.

        The rebuild is cached per table *epoch* (bumped on every
        routed insert and reconciliation), so repeat gather queries
        against an unchanged table exchange zero bytes."""
        entry = self.tables[name]
        count = entry["count"]
        if self._gather_built.get(name) == (entry["epoch"], count):
            return
        tile_rows = entry["config"].get("tile_size", 1024)
        shard_count = self.topology.shard_count
        cache = self._gather_docs.setdefault(
            name, [[] for _ in range(shard_count)])

        async def fill(shard_index: int) -> None:
            have = len(cache[shard_index])
            need = shard_rows(count, tile_rows, shard_count, shard_index)
            link = self.links[shard_index]
            while have < need:
                page = await link.call(
                    "fetch_docs", table=name, start=have,
                    limit=min(4096, need - have), _account=account)
                documents = page["docs"]
                if not documents:
                    raise BackendError(
                        f"shard {link.endpoint.address} reports only "
                        f"{page['total']} rows of {name!r} but the "
                        f"coordinator routed {need}; was the shard "
                        f"restored from an old backup?", code="topology")
                cache[shard_index].extend(documents)
                have = len(cache[shard_index])

        await asyncio.gather(*[fill(index)
                               for index in range(shard_count)])

        # reassemble global order: block k lives on shard k % S as its
        # local block k // S
        merged: List[object] = []
        cursors = [0] * shard_count
        while len(merged) < count:
            shard_index = (len(merged) // tile_rows) % shard_count
            take = min(tile_rows, count - len(merged))
            start = cursors[shard_index]
            merged.extend(cache[shard_index][start:start + take])
            cursors[shard_index] = start + take

        def rebuild() -> None:
            self._gather_db.drop_table(name)
            relation = self._gather_db.create_table(
                name, _FORMATS[entry["format"]],
                ExtractionConfig(**entry["config"])
                if entry["config"] else None)
            relation.auto_seal = False
            # shard rows were stored once already: no second check
            relation.insert_accepted(merged)
            relation.flush_inserts()

        await self._loop.run_in_executor(self._pool, rebuild)
        self._gather_built[name] = (entry["epoch"], count)


def run_coordinator(topology_path, host: str = "127.0.0.1",
                    port: int = 7618, **kwargs) -> None:
    """Blocking entry point for ``python -m repro serve-coordinator``."""
    from repro.cluster.topology import load_topology

    topology = load_topology(topology_path)

    async def main():
        coordinator = ClusterCoordinator(topology, host, port, **kwargs)
        await coordinator.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, coordinator.request_stop)
            except NotImplementedError:  # pragma: no cover
                pass
        print(f"repro coordinator listening on "
              f"{coordinator.host}:{coordinator.port} "
              f"({topology.shard_count} shards)", flush=True)
        await coordinator.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover
        pass
