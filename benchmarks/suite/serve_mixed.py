"""``serve_mixed``: ``python -m repro serve`` as a subprocess with a
closed-loop reader and an open-loop writer on the same table.

Queries are a few milliseconds long, so ``repro.sql`` parse/bind, the
JSON-lines protocol, the WAL, the per-table locks and background
sealing are a large share of each request — the layers the embedded
workloads bypass.  Flush policy: WAL fsync per acknowledgement, one
checkpoint after the preload, none while the clock runs
(``--checkpoint-interval 3600``).  At the end the server is SIGKILLed
and restarted on the same directory; every acknowledged document must
be there.  (A process kill leaves the OS page cache intact, so this
checks the server's recovery path, not the device's write-back.)
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common
from common import Outcome, median, percentile, template_latency_ms
from embedded import front_end_metrics, traced_sql
from oracle import ORACLE_OPTIONS, oracle_database, rows_differ
from queries import SERVE_STABLE, ServeMixer
from trace import Tracer, coverage

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.server import ServerClient, ServerError
from repro.workloads.twitter import TwitterGenerator

TABLE = "tweets"
TABLE_CONFIG = {"tile_size": 1024, "partition_size": 8}
BATCH = 100
RATE = 300                      # documents per second, open loop
INTERVAL = BATCH / RATE         # seconds between batches
START_TIMEOUT = 60.0


def _pin_plan() -> Tuple[Optional[set], Optional[set]]:
    """``(client cpus, server cpus)``: with two or more CPUs the
    benchmark process and the server each get one of their own.  Left
    to the scheduler, the request/reply ping-pong between the two
    processes lands on one core or two from run to run, and the same
    request sequence completes 3200-4400 queries in 10 s; pinned it is
    4900-5200."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Server:
    """One ``python -m repro serve`` subprocess on *directory*; its
    output goes to ``server.log`` beside the data directory."""

    def __init__(self, directory: Path, cpus: Optional[set]):
        self.directory = directory
        self._log_path = directory.parent / "server.log"
        self._log = open(self._log_path, "w")
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(directory), "--port", "0",
             "--query-workers", "2", "--workers", "1",
             "--checkpoint-interval", "3600"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus))
            if cpus else None)
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            text = self._log_path.read_text()
            if "listening on" in text:
                address = text.split("listening on ")[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop(kill=True)
        raise RuntimeError(f"server did not start: {self._log_path.read_text()}")

    def client(self) -> ServerClient:
        return ServerClient(port=self.port, timeout=60.0)

    def stop(self, kill: bool = False) -> None:
        """SIGKILL, or ask for a shutdown without checkpoint; either
        way wait for the process to end."""
        if self.process.poll() is None:
            if kill:
                self.process.send_signal(signal.SIGKILL)
            else:
                try:
                    with self.client() as client:
                        client.shutdown(checkpoint=False)
                except (OSError, ServerError):
                    self.process.send_signal(signal.SIGKILL)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _start_and_preload(preload: Sequence[dict], cpus: Optional[set]
                       ) -> Tuple[Server, float, int]:
    """Server start -> table created -> preload acknowledged, sealed
    and checkpointed.  Returns (server, seconds, .jtile bytes)."""
    directory = common.fresh_dir("serve_mixed") / "data"
    started = time.perf_counter()
    server = Server(directory, cpus)
    try:
        with server.client() as client:
            client.create_table(TABLE, "tiles", TABLE_CONFIG)
            for base in range(0, len(preload), BATCH):
                client.insert_many(TABLE, preload[base : base + BATCH])
            client.flush(TABLE)
            client.checkpoint()
    except BaseException:
        server.stop(kill=True)
        raise
    return server, time.perf_counter() - started, common.jtile_bytes(directory)


class Expected:
    """Python-side answers for the templates whose rows cannot change
    while documents with larger ids arrive (``SERVE_STABLE``)."""

    def __init__(self, preload: Sequence[dict]):
        self.tweets = {doc["id"]: doc for doc in preload if "id" in doc}
        self._ids = sorted(self.tweets)
        self._memo: Dict[str, List[tuple]] = {}   # hot texts repeat

    def rows(self, kind: str, sql: str, params: Dict[str, int]) -> List[tuple]:
        if sql not in self._memo:
            self._memo[sql] = self._rows(kind, params)
        return self._memo[sql]

    def _rows(self, kind: str, params: Dict[str, int]) -> List[tuple]:
        if kind == "lookup":
            doc = self.tweets.get(params["id"])
            return [(doc["id"], doc["lang"], doc["user"]["screen_name"])] \
                if doc else []
        span = self._ids[bisect.bisect_left(self._ids, params["low"]):
                         bisect.bisect_right(self._ids, params["high"])]
        ranked = sorted((-self.tweets[doc_id]["retweet_count"], doc_id)
                        for doc_id in span)
        return [(doc_id, -negated) for negated, doc_id in ranked[: params["k"]]]


class Reader(threading.Thread):
    """Closed loop: the next request leaves when the reply arrived."""

    def __init__(self, server: Server, mixer: ServeMixer, expected: Expected,
                 deadline: float, tracer: Optional[Tracer]):
        super().__init__(name="reader")
        self.server, self.mixer, self.expected = server, mixer, expected
        self.deadline, self.tracer = deadline, tracer
        self.latencies: List[List[float]] = [[], []]   # untraced / traced
        self.by_kind: Dict[str, List[float]] = {}
        self.completed_at: List[float] = []
        self.attempted = 0
        self.problems: List[str] = []
        self._growing: Dict[str, int] = {}

    def _query(self, client: ServerClient, sql: str, traced: bool):
        if not traced:
            return client.query(sql)
        with self.tracer.span("op.query", self.attempted):
            with self.tracer.span("server.query"):
                return client.query(sql)

    def _check(self, kind: str, sql: str, params: Dict[str, int],
               rows: List[tuple]) -> Optional[str]:
        if kind in SERVE_STABLE:
            return rows_differ(rows, self.expected.rows(kind, sql, params))
        # inserts only add rows, so a repeated text never counts fewer
        total = sum(row[-1] for row in rows)
        if total < self._growing.get(sql, 0):
            return f"count fell from {self._growing[sql]} to {total}"
        self._growing[sql] = total
        return None

    def run(self) -> None:
        with self.server.client() as client:
            while time.perf_counter() < self.deadline:
                kind, sql, params, _hot = self.mixer.next()
                traced = self.tracer is not None and self.attempted % 2 == 1
                self.attempted += 1
                started = time.perf_counter()
                try:
                    result = self._query(client, sql, traced)
                except (ServerError, OSError) as exc:
                    self.problems.append(f"{kind}: {exc!r}")
                    continue
                took = time.perf_counter() - started
                difference = self._check(kind, sql, params, result.rows)
                if difference:
                    self.problems.append(f"{kind} {params}: {difference}")
                else:
                    self.latencies[traced].append(took)
                    self.by_kind.setdefault(kind, []).append(took)
                    self.completed_at.append(started + took)


class Writer(threading.Thread):
    """Open loop: batch *i* is due at ``begun + i * INTERVAL`` whatever
    happened to the batches before it, and is timed from that moment."""

    def __init__(self, server: Server, documents: Sequence[dict],
                 begun: float, deadline: float, tracer: Optional[Tracer]):
        super().__init__(name="writer")
        self.server, self.documents = server, documents
        self.begun, self.deadline, self.tracer = begun, deadline, tracer
        self.ack_latencies: List[float] = []
        self.late: List[float] = []
        self.attempted = 0
        self.acked: List[dict] = []
        self.problems: List[str] = []

    def run(self) -> None:
        with self.server.client() as client:
            for index in range(len(self.documents) // BATCH):
                due = self.begun + index * INTERVAL
                if due >= self.deadline:
                    break
                time.sleep(max(0.0, due - time.perf_counter()))
                batch = self.documents[index * BATCH : (index + 1) * BATCH]
                self.attempted += 1
                self.late.append(time.perf_counter() - due)
                try:
                    if self.tracer is None:
                        client.insert_many(TABLE, batch)
                    else:
                        with self.tracer.span("op.insert", -self.attempted):
                            with self.tracer.span("server.insert"):
                                client.insert_many(TABLE, batch)
                except (ServerError, OSError) as exc:
                    self.problems.append(f"insert refused: {exc!r}")
                    continue
                self.ack_latencies.append(time.perf_counter() - due)
                self.acked.extend(batch)


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        smoke: bool) -> Outcome:
    out = Outcome(workload)
    preload_tweets = 600 if smoke else 6000
    extra = int(seconds * RATE) + 2 * BATCH
    stream = TwitterGenerator(preload_tweets + extra, seed=seed).stream()
    cut = next(index for index, doc in enumerate(stream)
               if doc.get("id") == 10**15 + preload_tweets)
    preload, incoming = stream[:cut], stream[cut:]
    preload_bytes = sum(len(json.dumps(doc).encode("utf-8")) for doc in preload)
    mixer = ServeMixer(seed, 10**15, 10**15 + preload_tweets - 1,
                       max(10, (preload_tweets + extra) // 20))
    expected = Expected(preload)

    # -- set-up: server start + preload, median of repetitions
    setup_seconds = []
    server = None
    allowed = os.sched_getaffinity(0)
    client_cpus, server_cpus = _pin_plan()
    try:
        if client_cpus:
            os.sched_setaffinity(0, client_cpus)
        for _ in range(common.setup_repeats(tracer is not None, smoke)):
            if server is not None:
                server.stop()
                shutil.rmtree(server.directory.parent, ignore_errors=True)
            server, took, stored = _start_and_preload(preload, server_cpus)
            setup_seconds.append(took)
        wal_path = server.directory / "wal" / f"{TABLE}.wal"
        wal_before = wal_path.stat().st_size
        if tracer is not None:
            _quiescent_metrics(out, server, mixer, preload, tracer)

        # -- timed phase: one reader and one writer connection
        common.freeze_heap()
        begun = time.perf_counter()
        deadline = begun + seconds
        reader = Reader(server, mixer, expected, deadline, tracer)
        writer = Writer(server, incoming, begun, deadline, tracer)
        reader.start()
        writer.start()
        reader.join()
        writer.join()
        wall = time.perf_counter() - begun
        with server.client() as client:
            stats = client.stats()
        wal_bytes = wal_path.stat().st_size - wal_before

        # -- durability: SIGKILL without checkpoint, restart, count
        acked = preload + writer.acked
        server.stop(kill=True)
        started = time.perf_counter()
        server = Server(server.directory, server_cpus)
        with server.client() as client:
            recovered = client.query(
                f"select count(*) as n from {TABLE} t").scalar()
            recover_seconds = time.perf_counter() - started
            if recovered != len(acked):
                out.fail(f"{recovered} documents after SIGKILL + restart, "
                         f"{len(acked)} were acknowledged",
                         abs(len(acked) - recovered))
            # -- the hot set against an embedded database that holds
            # exactly the acknowledged documents
            oracle = oracle_database(TABLE, acked)
            for kind, sql, _params in mixer.hot:
                difference = rows_differ(
                    client.query(sql).rows,
                    oracle.sql(sql, ORACLE_OPTIONS).rows)
                if difference:
                    out.fail(f"hot {kind} after restart: {difference}")
    finally:
        os.sched_setaffinity(0, allowed)
        if server is not None:
            server.stop()
            shutil.rmtree(server.directory.parent, ignore_errors=True)

    out.attempted = reader.attempted + writer.attempted
    for problem in reader.problems + writer.problems:
        out.fail(problem)
    latencies = reader.latencies[0] + reader.latencies[1]
    late_max = max(writer.late, default=0.0)
    out.guard(late_max < INTERVAL,
              f"writer ran {late_max * 1e3:.0f} ms late "
              f"(batch interval {INTERVAL * 1e3:.0f} ms)")
    if not smoke:
        out.guard(len(latencies) >= 200,
                  f"only {len(latencies)} latency samples")
    if not latencies or not writer.ack_latencies:
        out.fail("no successful query or insert")
        return out

    table = stats["tables"][TABLE]
    cache = stats["cache"]
    acked_bytes = sum(len(json.dumps(doc).encode("utf-8"))
                      for doc in writer.acked)
    out.metrics.update({
        "op_latency_ms": template_latency_ms(reader.by_kind),
        # median of the whole seconds: a second that loses the core to
        # a tile seal or an fsync stall does not move it
        "throughput_per_s": median(_per_second(reader.completed_at, begun,
                                               seconds)),
        "stored_bytes_per_doc_byte": stored / preload_bytes,
        "setup_s": median(setup_seconds),
        # the server processes are the system here; the benchmark
        # process only holds the clients and the oracle
        "peak_rss_mb": common.peak_rss_mb(children=True),
        "query_p95_ms": percentile(latencies, 0.95) * 1e3,
        "server.query_p95_under_ingest_ms": percentile(latencies, 0.95) * 1e3,
        "server.insert_ack_p50_ms": median(writer.ack_latencies) * 1e3,
        "server.writer_late_max_ms": late_max * 1e3,
        "server.wal_bytes_per_doc_byte": wal_bytes / max(1, acked_bytes),
        "server.seals": stats["counters"]["seals"],
        "server.tiles_after_run": table["tiles"],
        "server.recover_s": recover_seconds,
        "storage.cache_hit_rate":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "jsonb.fallback_lookups_per_query":
            table["scan"]["fallback_lookups"] / max(1, table["scan"]["queries"]),
        "engine.tiles_skipped_share": table["scan"]["tiles_skipped"]
            / max(1, table["scan"]["tiles_total"]),
    })
    out.notes.update({
        "preload_documents": len(preload), "preload_bytes": preload_bytes,
        "stored_bytes": stored, "acked_documents": len(acked),
        "reader": f"closed loop, 1 connection, {len(latencies)} samples",
        "writer": f"open loop, 1 connection, {RATE} docs/s in batches of "
                  f"{BATCH}, {len(writer.ack_latencies)} batches",
        "timed_wall_s": wall,
        "template_p50_ms": {kind: round(median(values) * 1e3, 3)
                            for kind, values in reader.by_kind.items()},
        "queries_per_second_window": _per_second(reader.completed_at, begun,
                                                 seconds),
    })
    if tracer is not None and reader.latencies[0] and reader.latencies[1]:
        out.metrics["trace.overhead_ratio"] = \
            median(reader.latencies[0]) / median(reader.latencies[1])
        out.metrics["trace.self_time_coverage"] = coverage(tracer.spans)
    return out


def _per_second(stamps: Sequence[float], begun: float,
                seconds: float) -> List[int]:
    """Completions in each whole second of the timed phase."""
    windows = [0] * max(1, int(seconds))
    for stamp in stamps:
        index = int(stamp - begun)
        if index < len(windows):
            windows[index] += 1
    return windows


def _quiescent_metrics(out: Outcome, server: Server, mixer: ServeMixer,
                       preload: Sequence[dict], tracer: Tracer) -> None:
    """Before the clock starts: ping round trip, and what the server
    adds to a query — client latency minus embedded latency for the
    same hot-set text on the same preloaded documents, with the
    embedded side taken apart into parse/bind and execute."""
    config = ExtractionConfig(**TABLE_CONFIG)
    db = Database(StorageFormat.TILES, config)
    db.load_table(TABLE, preload, StorageFormat.TILES, config)
    options = QueryOptions()
    overheads = []
    requests = itertools.count(-1, -1)   # the reader counts upwards
    with server.client() as client:
        started = time.perf_counter()
        for _ in range(200):
            client.ping()
        out.metrics["server.ping_rtt_ms"] = \
            (time.perf_counter() - started) * 1e3 / 200
        for _kind, sql, _params in mixer.hot:
            remote, local = [], []
            for _ in range(3):
                started = time.perf_counter()
                client.query(sql)
                remote.append(time.perf_counter() - started)
                started = time.perf_counter()
                traced_sql(db, sql, options, tracer, next(requests))
                local.append(time.perf_counter() - started)
            overheads.append(median(remote) - median(local))
    out.metrics["server.query_overhead_ms"] = median(overheads) * 1e3
    front_end_metrics(out, tracer)
    db.drop_table(TABLE)
