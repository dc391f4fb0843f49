"""``bulk_load``: JSON text lines -> queryable and checkpointed on disk.

The storage and tile layers do the work (``repro.jsonb.encode``,
``repro.mining``, ``repro.tiles``, ``repro.stats``,
``repro.storage.persist``) and the query engine none, so a read-side
gain that is paid for at load time shows here as a loss.  One
repetition is ``Database(directory=fresh).load_table(...)`` +
``checkpoint()``; repetitions start until ``--seconds`` have elapsed.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import common
from common import Outcome, median
from trace import Tracer, coverage

from repro import Database, ExtractionConfig, LsmConfig, StorageFormat
from repro.jsonb import encode
from repro.lsm import plan_compactions
from repro.mining import encode_documents
from repro.mining.dictionary import subset_dictionary
from repro.storage.persist import load_relation
from repro.storage.tile_cache import ResolvedTileCache
from repro.storage.tilestore import TileStore
from repro.tiles import apply_order, build_tile
from repro.tiles.reorder import reorder_transactions
from repro.workloads.yelp import YelpGenerator

CONFIG = ExtractionConfig(tile_size=1024, partition_size=8)
TABLE = "yelp"

#: one key that only documents of that type carry
TYPE_KEYS = {"business": "address", "review": "review_id",
             "user": "yelping_since", "tip": "compliment_count"}


def _generate(seed: int, smoke: bool) -> List[dict]:
    return YelpGenerator(60 if smoke else 400, seed=seed).combined()


@contextlib.contextmanager
def _count_sql_calls() -> Iterator[List[int]]:
    """Shape guard: the timed phase must not run a single query."""
    calls = [0]
    original = Database.sql

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    Database.sql = counting
    try:
        yield calls
    finally:
        Database.sql = original


def _load(lines: Sequence[str], directory: Path) -> Database:
    db = Database(StorageFormat.TILES, CONFIG, directory=directory)
    db.load_table(TABLE, lines, StorageFormat.TILES, CONFIG)
    db.checkpoint()
    return db


def _traced_load(lines: Sequence[str], directory: Path, tracer: Tracer,
                 request: int) -> Database:
    """The loader's single-worker pipeline, one public call per span."""
    size = CONFIG.tile_size
    with tracer.span("op.load", request):
        db = Database(StorageFormat.TILES, CONFIG, directory=directory)
        relation = db.create_table(TABLE)
        with tracer.span("storage.parse_json"):
            documents = [json.loads(line) for line in lines]
        with tracer.span("jsonb.encode"):
            rows = [encode(document) for document in documents]
        step = size * CONFIG.partition_size
        for start in range(0, len(documents), step):
            part_docs = documents[start : start + step]
            part_rows = rows[start : start + step]
            with tracer.span("mining.encode_documents"):
                dictionary, transactions = encode_documents(
                    part_docs, CONFIG.max_array_elements)
            with tracer.span("tiles.reorder_transactions"):
                order = reorder_transactions(transactions, CONFIG)
                part_docs = apply_order(part_docs, order)
                part_rows = apply_order(part_rows, order)
                transactions = apply_order(transactions, order)
            for offset in range(0, len(part_docs), size):
                with tracer.span("mining.subset_dictionary"):
                    encoded = subset_dictionary(
                        dictionary, transactions[offset : offset + size])
                timings: Dict[str, float] = {}
                with tracer.span("tiles.build_tile") as span:
                    tile = build_tile(
                        part_docs[offset : offset + size],
                        part_rows[offset : offset + size], CONFIG,
                        (start + offset) // size, start + offset,
                        timings=timings, encoded=encoded)
                    # build_tile mines first, then materializes
                    tracer.child(span, "mining.mine", span["start"],
                                 span["start"] + timings["mining"])
                with tracer.span("storage.adopt_tile"):
                    handle = relation.adopt_tile(tile)
                    relation.tiles.append(handle)
                    relation.statistics.absorb_tile(
                        handle.header.tile_number, handle.header.statistics)
        with tracer.span("storage.checkpoint"):
            db.checkpoint()
    return db


def _verify(out: Outcome, directory: Path, documents: Sequence[dict]) -> None:
    """Durability: what a fresh ``Database.open`` reads back must match
    counts taken from the Python documents."""
    db = Database.open(directory)
    checks = {f"select count(*) as n from {TABLE} d": len(documents)}
    for kind, key in TYPE_KEYS.items():
        checks[f"select count(*) as n from {TABLE} d "
               f"where d.data->>'{key}' is not null"] = \
            sum(1 for document in documents if key in document)
    checks[f"select sum(d.data->>'useful'::int) as s from {TABLE} d "
           f"where d.data->>'review_id' is not null"] = \
        sum(document["useful"] for document in documents
            if "review_id" in document)
    for sql, want in checks.items():
        got = db.sql(sql).scalar()
        if got != want:
            out.fail(f"reopened database: {sql!r} gave {got}, want {want}")
    db.drop_table(TABLE)


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        smoke: bool) -> Outcome:
    out = Outcome(workload)

    # -- set-up: generate the documents and serialise them, repeated
    setup_seconds = []
    for _ in range(common.setup_repeats(tracer is not None, smoke)):
        started = time.perf_counter()
        documents = _generate(seed, smoke)
        lines = [json.dumps(document) for document in documents]
        setup_seconds.append(time.perf_counter() - started)
    doc_bytes = sum(len(line.encode("utf-8")) for line in lines)

    # -- timed repetitions
    rep_seconds: List[List[float]] = [[], []]   # untraced / traced
    stored_sizes = set()
    last: Optional[Database] = None
    common.freeze_heap()
    begun = time.perf_counter()
    with _count_sql_calls() as sql_calls:
        while time.perf_counter() - begun < seconds:
            if last is not None:
                last.drop_table(TABLE)
                shutil.rmtree(last.directory, ignore_errors=True)
            use_tracer = tracer is not None and out.attempted % 2 == 1
            directory = common.fresh_dir(workload)
            out.attempted += 1
            started = time.perf_counter()
            try:
                last = _traced_load(lines, directory, tracer, out.attempted) \
                    if use_tracer else _load(lines, directory)
            except Exception as exc:
                out.fail(f"repetition {out.attempted}: {exc!r}")
                last = None
                continue
            rep_seconds[use_tracer].append(time.perf_counter() - started)
            stored_sizes.add(common.jtile_bytes(directory))
            if len(last.table(TABLE)) != len(documents):
                out.fail(f"repetition {out.attempted}: "
                         f"{len(last.table(TABLE))} rows loaded")
    out.metrics["peak_rss_mb"] = common.peak_rss_mb()
    out.guard(sql_calls[0] == 0,
              f"{sql_calls[0]} Database.sql calls in the timed phase")
    if len(stored_sizes) != 1:
        out.fail(f"stored bytes differ between repetitions: "
                 f"{sorted(stored_sizes)}")
    if last is None:
        out.fail("no repetition completed")
        return out
    _verify(out, last.directory, documents)

    relation = last.table(TABLE)
    stored = max(stored_sizes)
    timed = rep_seconds[0]
    out.metrics.update({
        "op_latency_ms": median(timed) * 1e3,
        "throughput_per_s": len(documents) / median(timed),
        "stored_bytes_per_doc_byte": stored / doc_bytes,
        "setup_s": median(setup_seconds),
        "tiles.extracted_fraction": relation.extracted_fraction(),
    })
    out.notes.update({
        "documents": len(documents), "doc_bytes": doc_bytes,
        "stored_bytes": stored, "tiles": len(relation.tiles),
        "repetitions": len(timed), "loop": "closed, 1 client",
        "load_breakdown_s": {key: round(value, 4) for key, value in
                             relation.load_breakdown.items()},
    })
    if tracer is not None:
        if rep_seconds[1]:
            _traced_metrics(out, tracer, rep_seconds, len(documents),
                            len(relation.tiles))
            _storage_metrics(out, last.directory)
            _lsm_metrics(out, documents, doc_bytes)
        else:
            out.problems.append("traced run too short: needs two repetitions")
    last.drop_table(TABLE)
    shutil.rmtree(last.directory, ignore_errors=True)
    return out


def _traced_metrics(out: Outcome, tracer: Tracer,
                    rep_seconds: List[List[float]], documents: int,
                    tiles: int) -> None:
    reps = len(rep_seconds[1])
    partitions = len(tracer.durations("tiles.reorder_transactions")) / reps

    def total(*names: str) -> float:
        return sum(sum(tracer.durations(name)) for name in names)

    mining = total("mining.encode_documents", "mining.subset_dictionary",
                   "mining.mine")
    build = total("tiles.build_tile") - total("mining.mine")
    out.metrics.update({
        "jsonb.encode_us_per_doc":
            total("jsonb.encode") * 1e6 / (documents * reps),
        "mining.mine_ms_per_tile": mining * 1e3 / (tiles * reps),
        "tiles.build_ms_per_tile": build * 1e3 / (tiles * reps),
        "tiles.reorder_ms_per_partition":
            total("tiles.reorder_transactions") * 1e3 / (partitions * reps),
        "storage.checkpoint_s": median(tracer.durations("storage.checkpoint")),
        "trace.overhead_ratio": median(rep_seconds[0]) / median(rep_seconds[1]),
        "trace.self_time_coverage": coverage(tracer.spans),
    })


def _storage_metrics(out: Outcome, directory: Path) -> None:
    """The larger-than-cache case: reopen with a residency budget of a
    quarter of the on-disk bytes and scan every tile once."""
    started = time.perf_counter()
    Database.open(directory).drop_table(TABLE)
    out.metrics["storage.reopen_s"] = time.perf_counter() - started

    path = directory / f"{TABLE}.jtile"
    probe = load_relation(path)
    disk_bytes = sum(handle.disk_bytes for handle in probe.tiles)
    # a budget below one tile can only be honoured transiently
    budget = max(disk_bytes // 4,
                 2 * max(handle.disk_bytes for handle in probe.tiles))
    db = Database(StorageFormat.TILES, CONFIG)
    db.register(TABLE, load_relation(
        path, store=TileStore(budget, cache=ResolvedTileCache())))
    started = time.perf_counter()
    result = db.sql(f"select count(*) as n, sum(d.data->>'useful'::int) as s "
                    f"from {TABLE} d")
    out.metrics["storage.cold_scan_s"] = time.perf_counter() - started
    out.metrics["storage.cold_tile_loads"] = result.counters.tile_loads
    out.metrics["storage.cold_tile_evictions"] = result.counters.tile_evictions
    out.notes["cold_scan"] = {"disk_bytes": disk_bytes,
                              "budget_bytes": budget,
                              "tiles": len(probe.tiles)}


def _lsm_metrics(out: Outcome, documents: Sequence[dict],
                 doc_bytes: int) -> None:
    """Stream the same documents through ``insert_many`` and drain the
    compaction planner from this one caller: no timers run, so the
    counts repeat exactly."""
    config = LsmConfig(enabled=True)
    db = Database(StorageFormat.TILES, CONFIG)
    relation = db.create_table(TABLE)
    relation.lsm_config = config
    relation.insert_many(documents)
    relation.flush_inserts()
    started = time.perf_counter()
    progress = True
    while progress:
        progress = False
        for candidate in plan_compactions(relation, config):
            if relation.compact_tiles(candidate.start_number,
                                      candidate.count):
                progress = True
    out.metrics["lsm.compact_s"] = time.perf_counter() - started
    out.metrics["lsm.bytes_rewritten_per_doc_byte"] = \
        relation.lsm_counters["bytes_written"] / doc_bytes
    for level, entry in relation.manifest().level_report().items():
        if level <= 2:
            out.metrics[f"lsm.extracted_fraction_l{level}"] = \
                entry["extracted_fraction"]
    out.notes["lsm"] = dict(relation.lsm_counters)
    db.drop_table(TABLE)
