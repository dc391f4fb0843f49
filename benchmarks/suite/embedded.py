"""The two embedded query workloads: ``tpch_analytics`` and
``twitter_fallback``.  One closed-loop client calls ``Database.sql``;
a pass runs every query template once with that pass's seed-drawn
literals, and passes start until ``--seconds`` have elapsed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import Outcome, median, percentile, template_latency_ms
from oracle import ORACLE_OPTIONS, oracle_database, rows_differ
from queries import SPARSE_KEYS, SPARSE_PATHS, QuerySet
from trace import Tracer, coverage

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.engine.executor import execute_block
from repro.engine.scan import ScanCounters
from repro.jsonb import encode, jsonb_get_path
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads import tpch
from repro.workloads.twitter import TwitterGenerator

#: the paper's defaults (Section 6): tile size 2^10, partition size 8
CONFIG = ExtractionConfig(tile_size=1024, partition_size=8)
#: --smoke shrinks the tiles with the data, so tiles still hold one
#: document type each and the shape guards keep their meaning
SMOKE_CONFIG = ExtractionConfig(tile_size=128, partition_size=8)


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    table: str
    #: extra names the relation is registered under (combined TPC-H)
    aliases: Tuple[str, ...]
    documents: Callable[[int, bool], List[dict]]
    options: QueryOptions
    #: templates whose rows are compared with the oracle in each run
    #: (None = all): the JSONB oracle is 6x slower than the timed
    #: engine, so TPC-H checks a seed-drawn third of its templates
    oracle_sample: Optional[int]
    #: paths timed through ``jsonb_get_path`` in the traced run
    paths: Tuple[str, ...]


def _tpch_documents(seed: int, smoke: bool) -> List[dict]:
    # The eight tables one after another in one relation.  The
    # generator's burst interleaving decides by seed which small tables
    # share tiles: extracted fraction 0.64-0.78 and query latency
    # bimodal (33-48 ms) across seeds at this scale, so ten seeds could
    # not resolve a 10 % regression.
    return tpch.TpchGenerator(0.0003 if smoke else 0.002,
                              seed).combined(interleave=False)


def _twitter_documents(seed: int, smoke: bool) -> List[dict]:
    return TwitterGenerator(800 if smoke else 6000, seed=seed,
                            evolving=True).stream()


SPECS: Dict[str, Spec] = {
    "tpch_analytics": Spec(
        "tpch_analytics", "tpch_combined", tuple(tpch.TABLE_NAMES),
        _tpch_documents, QueryOptions(), 8,
        ("l_quantity", "l_shipdate", "o_orderdate", "c_mktsegment")),
    "twitter_fallback": Spec(
        "twitter_fallback", "tweets", (), _twitter_documents,
        QueryOptions(tile_cache=False), None, SPARSE_PATHS),
}

#: tpch_analytics must stay an engine workload: nearly every accessed
#: key is extracted, so JSONB fallback lookups per scanned row stay low
TPCH_FALLBACK_CEILING = 1.0


def _load(spec: Spec, lines: Sequence[str],
          config: ExtractionConfig) -> Tuple[Database, float]:
    """JSON text lines -> queryable and checkpointed; returns seconds."""
    directory = common.fresh_dir(spec.name)
    started = time.perf_counter()
    db = Database(StorageFormat.TILES, config, directory=directory)
    relation = db.load_table(spec.table, lines, StorageFormat.TILES, config)
    for alias in spec.aliases:
        db.register(alias, relation)
    db.checkpoint()
    return db, time.perf_counter() - started


def _discard(db: Database, spec: Spec) -> None:
    db.drop_table(spec.table)
    shutil.rmtree(db.directory, ignore_errors=True)


def traced_sql(db: Database, sql: str, options: QueryOptions,
               tracer: Tracer, request: int):
    """``Database.sql`` taken apart so its three stages time separately."""
    with tracer.span("op.query", request):
        with tracer.span("sql.parse"):
            statement = parse(sql)
        with tracer.span("sql.bind"):
            block = Binder(db.tables, options).bind(statement)
        with tracer.span("engine.execute_block"):
            return execute_block(block, options)


def _get_path_us(spec: Spec, documents: Sequence[dict]) -> float:
    buffers = [encode(document) for document in documents[:2000]]
    paths = [KeyPath.parse(text) for text in spec.paths]
    started = time.perf_counter()
    for buffer in buffers:
        for path in paths:
            jsonb_get_path(buffer, path)
    return (time.perf_counter() - started) * 1e6 / (len(buffers) * len(paths))


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        smoke: bool) -> Outcome:
    spec = SPECS[workload]
    out = Outcome(workload)
    documents = spec.documents(seed, smoke)
    lines = [json.dumps(document) for document in documents]
    doc_bytes = sum(len(line.encode("utf-8")) for line in lines)
    query_set = QuerySet(workload, seed)

    # -- set-up: load + checkpoint (median of repetitions), warm pass
    load_seconds = []
    db = None
    for _ in range(common.setup_repeats(tracer is not None, smoke)):
        if db is not None:
            _discard(db, spec)
        db, took = _load(spec, lines, SMOKE_CONFIG if smoke else CONFIG)
        load_seconds.append(took)
    stored = common.jtile_bytes(db.directory)
    started = time.perf_counter()
    for _key, sql in query_set.queries(-1):
        db.sql(sql, spec.options)
    warm_seconds = time.perf_counter() - started

    # -- timed passes
    check_keys = set(query_set.keys if spec.oracle_sample is None else
                     random.Random(f"oracle:{seed}").sample(
                         query_set.keys, spec.oracle_sample))
    to_check: List[Tuple[str, str, list]] = []
    latencies: Dict[str, List[float]] = {key: [] for key in query_set.keys}
    pass_seconds: List[List[float]] = [[], []]   # untraced / traced
    totals = ScanCounters()
    result_rows = 0
    sparse_without_fallback = []
    passes = 0
    common.freeze_heap()
    begun = time.perf_counter()
    while time.perf_counter() - begun < seconds:
        use_tracer = tracer is not None and passes % 2 == 1
        batch = query_set.queries(passes)   # rewriting is not timed
        pass_started = time.perf_counter()
        for key, sql in batch:
            out.attempted += 1
            started = time.perf_counter()
            try:
                if use_tracer:
                    result = traced_sql(db, sql, spec.options, tracer,
                                        out.attempted)
                else:
                    result = db.sql(sql, spec.options)
            except Exception as exc:  # a failed query is a failed op
                out.fail(f"{key} pass {passes}: {exc!r}")
                continue
            latencies[key].append(time.perf_counter() - started)
            totals.merge(result.counters)
            result_rows += len(result.rows)
            if passes == 0 and key in check_keys:
                to_check.append((key, sql, result.rows))
            if key in SPARSE_KEYS and result.counters.fallback_lookups == 0:
                sparse_without_fallback.append(f"{key}@{passes}")
        pass_seconds[use_tracer].append(time.perf_counter() - pass_started)
        passes += 1
    wall = time.perf_counter() - begun
    out.metrics["peak_rss_mb"] = common.peak_rss_mb()

    # -- oracle
    oracle = oracle_database(spec.table, documents, spec.aliases)
    for key, sql, rows in to_check:
        difference = rows_differ(rows, oracle.sql(sql, ORACLE_OPTIONS).rows)
        if difference:
            out.fail(f"{key} differs from the JSONB oracle: {difference}")

    # -- shape guards
    per_row = totals.fallback_lookups / max(1, totals.rows_scanned)
    if workload == "tpch_analytics":
        out.guard(per_row < TPCH_FALLBACK_CEILING,
                  f"{per_row:.4f} fallback lookups per scanned row "
                  f"(ceiling {TPCH_FALLBACK_CEILING})")
    else:
        out.guard(not sparse_without_fallback,
                  "sparse-key queries without fallback lookups: "
                  + ", ".join(sparse_without_fallback[:5]))
        out.guard(totals.cache_hits == 0,
                  f"{totals.cache_hits} tile-cache hits with the cache off")
    samples = [value for values in latencies.values() for value in values]
    succeeded = len(samples)
    if not smoke:
        out.guard(succeeded >= 100, f"only {succeeded} latency samples")
    if not all(latencies.values()):
        out.fail("a query template never succeeded")
        return out

    relation = db.table(spec.table)
    out.metrics.update({
        "op_latency_ms": template_latency_ms(latencies),
        # queries of one pass over the median pass: one slow pass
        # (a stall of the box) does not move it
        "throughput_per_s": succeeded / passes
            / median(pass_seconds[0] + pass_seconds[1]),
        "stored_bytes_per_doc_byte": stored / doc_bytes,
        "setup_s": median(load_seconds) + warm_seconds,
        "query_p95_ms": percentile(samples, 0.95) * 1e3,
        "engine.rows_scanned_per_result_row":
            totals.rows_scanned / max(1, result_rows),
        "engine.tiles_skipped_share":
            totals.tiles_skipped / max(1, totals.tiles_total),
        "engine.blocks_pruned_per_pass": totals.blocks_pruned / passes,
        "engine.kernel_rows_share": totals.kernel_rows
            / max(1, totals.kernel_rows + totals.fallback_rows),
        "engine.fallback_rows_per_pass": totals.fallback_rows / passes,
        "jsonb.fallback_lookups_per_query":
            totals.fallback_lookups / max(1, succeeded),
        "jsonb.shred_paths_per_pass": totals.shred_paths / passes,
        "jsonb.fallback_rows_skipped_per_pass":
            totals.fallback_rows_skipped / passes,
        "tiles.extracted_fraction": relation.extracted_fraction(),
    })
    out.notes.update({
        "documents": len(documents), "doc_bytes": doc_bytes,
        "stored_bytes": stored, "tiles": len(relation.tiles),
        "passes": passes, "latency_samples": succeeded,
        "oracle_checked": sorted(check_keys),
        "loop": "closed, 1 client", "timed_wall_s": wall,
        "fallback_lookups_per_scanned_row": per_row,
        "template_p50_ms": {key: round(median(values) * 1e3, 3)
                            for key, values in latencies.items()},
    })
    if tracer is not None:
        _traced_metrics(out, tracer, pass_seconds)
        out.metrics["jsonb.get_path_us"] = _get_path_us(spec, documents)
    _discard(db, spec)
    return out


def front_end_metrics(out: Outcome, tracer: Tracer) -> bool:
    """``sql.parse_bind_ms`` / ``engine.execute_ms`` from the spans
    :func:`traced_sql` recorded; False when there are none."""
    front: Dict[int, float] = {}
    for span in tracer.spans:
        if span["name"] in ("sql.parse", "sql.bind"):
            front[span["request"]] = front.get(span["request"], 0.0) \
                + span["end"] - span["start"]
    execute = tracer.durations("engine.execute_block")
    if not front or not execute:
        return False
    out.metrics["sql.parse_bind_ms"] = median(list(front.values())) * 1e3
    out.metrics["engine.execute_ms"] = median(execute) * 1e3
    return True


def _traced_metrics(out: Outcome, tracer: Tracer,
                    pass_seconds: List[List[float]]) -> None:
    if front_end_metrics(out, tracer):
        out.metrics["trace.overhead_ratio"] = \
            median(pass_seconds[0]) / median(pass_seconds[1])
        out.metrics["trace.self_time_coverage"] = coverage(tracer.spans)
    else:
        out.problems.append("traced run too short: needs two passes")
