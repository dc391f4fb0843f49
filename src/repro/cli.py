"""Command-line interface: load ndjson files, run SQL, inspect tiles.

Examples::

    # one-shot query over an ndjson file
    python -m repro --load tweets=stream.ndjson \
        --sql "select t.data->>'lang' as l, count(*) as n from tweets t \
               group by t.data->>'lang' order by n desc limit 5"

    # interactive shell
    python -m repro --load logs=events.ndjson --format tiles

    # describe the extracted tiles instead of querying
    python -m repro --load logs=events.ndjson --describe logs

    # run the durable query/ingest server (see repro.server)
    python -m repro serve --data-dir ./data --port 7617

    # horizontal sharding (see repro.cluster): shards, a replica and
    # the coordinator clients actually talk to
    python -m repro serve-shard --data-dir ./shard0 --port 7701
    python -m repro serve-replica --data-dir ./replica0 \
        --primary 127.0.0.1:7701 --port 7711
    python -m repro serve-coordinator --topology cluster.json --port 7618
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.errors import ReproError

_FORMATS = {fmt.value: fmt for fmt in StorageFormat}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JSON Tiles: fast analytics on semi-structured data "
                    "(SIGMOD 2021 reproduction)",
    )
    parser.add_argument(
        "--load", action="append", default=[], metavar="NAME=FILE",
        help="load an ndjson file as a table (repeatable)")
    parser.add_argument(
        "--open", metavar="DIR", dest="open_dir",
        help="open a database directory written with --save")
    parser.add_argument(
        "--save", metavar="DIR", dest="save_dir",
        help="persist all loaded tables to a directory and exit "
             "(after any --sql queries)")
    parser.add_argument(
        "--format", default="tiles", choices=sorted(_FORMATS),
        help="storage format for loaded tables (default: tiles)")
    parser.add_argument("--tile-size", type=int, default=1024)
    parser.add_argument("--partition-size", type=int, default=8)
    parser.add_argument("--threshold", type=float, default=0.6,
                        help="extraction threshold (default 0.6)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel loading workers")
    parser.add_argument("--sql", action="append", default=[],
                        metavar="QUERY", help="run a query and exit "
                        "(repeatable; omit for an interactive shell)")
    parser.add_argument("--explain", action="store_true",
                        help="print the plan for each --sql query")
    parser.add_argument("--describe", metavar="TABLE",
                        help="print the tile headers of a table and exit")
    parser.add_argument("--no-skipping", action="store_true",
                        help="disable tile skipping (Section 4.8)")
    parser.add_argument("--no-statistics", action="store_true",
                        help="disable statistics-driven join ordering")
    return parser


def _load_tables(db: Database, specs: List[str], storage_format,
                 config, workers: int, out) -> None:
    for spec in specs:
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"--load expects NAME=FILE, got {spec!r}")
        started = time.perf_counter()
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        relation = db.load_table(name, lines, storage_format, config,
                                 num_workers=workers)
        seconds = time.perf_counter() - started
        print(f"loaded {relation.row_count} documents into {name!r} "
              f"({len(relation.tiles)} tiles, {seconds:.2f}s)", file=out)


def _run_query(db: Database, query: str, options: QueryOptions,
               explain: bool, out) -> None:
    if explain:
        print(db.explain(query, options), file=out)
    started = time.perf_counter()
    result = db.sql(query, options)
    seconds = time.perf_counter() - started
    print(result.format_table(50), file=out)
    print(f"({len(result)} rows, {seconds:.3f}s, "
          f"{result.counters.tiles_skipped}/{result.counters.tiles_total} "
          f"tiles skipped)", file=out)


def _shell(db: Database, options: QueryOptions, out) -> None:
    print("repro shell — end queries with ';', \\q to quit", file=out)
    buffer: List[str] = []
    while True:
        try:
            prompt = "repro> " if not buffer else "   ...> "
            line = input(prompt)
        except EOFError:
            break
        if line.strip() in ("\\q", "exit", "quit"):
            break
        buffer.append(line)
        if line.rstrip().endswith(";"):
            query = "\n".join(buffer)
            buffer = []
            try:
                _run_query(db, query, options, False, out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve a durable database directory over TCP "
                    "(JSON-lines protocol, see repro.server)")
    parser.add_argument("--data-dir", required=True, metavar="DIR",
                        help="database directory (created if missing; "
                             "holds .jtile snapshots and the wal/)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7617)
    parser.add_argument("--format", default="tiles",
                        choices=sorted(_FORMATS),
                        help="storage format for new tables")
    parser.add_argument("--tile-size", type=int, default=1024)
    parser.add_argument("--partition-size", type=int, default=8)
    parser.add_argument("--threshold", type=float, default=0.6)
    parser.add_argument("--query-workers", type=int, default=8,
                        help="thread pool size for concurrent queries")
    parser.add_argument("--workers", type=int, default=1,
                        metavar="N",
                        help="morsel-parallelism per query: worker "
                             "threads scanning tiles concurrently "
                             "(1 = serial)")
    parser.add_argument("--cache-mb", type=float, default=64.0,
                        metavar="MB",
                        help="resolved-tile cache capacity in MiB "
                             "(0 disables the cache)")
    parser.add_argument("--memory-mb", type=float, default=None,
                        metavar="MB",
                        help="tile residency budget in MiB shared by "
                             "raw tile bytes and the resolved-tile "
                             "cache; clean tiles beyond it are paged "
                             "out to their .jtile segments and "
                             "re-read on demand (default: unlimited, "
                             "or REPRO_MEMORY_MB; 0 = unlimited)")
    parser.add_argument("--no-kernels", action="store_true",
                        help="disable the vectorized batch kernels "
                             "(group-by/join/sort) and run the "
                             "per-tuple reference paths instead "
                             "(ablation; also REPRO_KERNELS=0)")
    parser.add_argument("--checkpoint-interval", type=float, default=60.0,
                        metavar="SECONDS",
                        help="periodic checkpoint cadence (0 disables)")
    parser.add_argument("--no-wal-sync", action="store_true",
                        help="skip fsync on insert acknowledgement "
                             "(faster ingest, weaker durability)")
    parser.add_argument("--maintenance", action="store_true",
                        help="run the online maintenance daemon: tile "
                             "health tracking, background §3.2 "
                             "partition reordering and re-extraction "
                             "(tunable via REPRO_MAINT_* environment "
                             "variables)")
    parser.add_argument("--maintenance-interval", type=float,
                        default=None, metavar="SECONDS",
                        help="seconds between maintenance cycles "
                             "(default 1.0, or REPRO_MAINT_INTERVAL)")
    parser.add_argument("--lsm", action="store_true",
                        help="LSM-tiered ingest: fresh sealed tiles "
                             "land in L0 and the maintenance daemon "
                             "merges fanout-sized runs into larger "
                             "re-mined L1/L2 tiles (implies "
                             "--maintenance; tunable via REPRO_LSM_* "
                             "environment variables)")
    parser.add_argument("--lsm-fanout", type=int, default=None,
                        metavar="N",
                        help="tiles merged per compaction (default 4, "
                             "or REPRO_LSM_FANOUT)")
    parser.add_argument("--lsm-max-level", type=int, default=None,
                        metavar="N",
                        help="deepest level compaction produces "
                             "(default 2, or REPRO_LSM_MAX_LEVEL)")
    return parser


def serve_main(argv: List[str], out, role: str = "server") -> int:
    from repro.server import run_server

    parser = build_serve_parser()
    if role == "shard":
        parser.prog = "repro serve-shard"
    args = parser.parse_args(argv)
    config = ExtractionConfig(tile_size=args.tile_size,
                              partition_size=args.partition_size,
                              threshold=args.threshold)
    maintenance_config = None
    if args.maintenance or args.lsm:
        from repro.maintenance import MaintenanceConfig

        maintenance_config = MaintenanceConfig.from_env(
            interval_s=args.maintenance_interval)
    lsm_config = None
    if args.lsm:
        from repro.lsm import LsmConfig

        lsm_config = LsmConfig.from_env(
            enabled=True,
            fanout=args.lsm_fanout,
            max_level=args.lsm_max_level)
    try:
        run_server(
            args.data_dir, args.host, args.port,
            default_format=_FORMATS[args.format],
            config=config,
            wal_sync=not args.no_wal_sync,
            query_workers=args.query_workers,
            parallelism=args.workers,
            cache_mb=args.cache_mb,
            memory_mb=args.memory_mb,
            enable_kernels=not args.no_kernels,
            checkpoint_interval=args.checkpoint_interval or None,
            maintenance=args.maintenance or args.lsm,
            maintenance_config=maintenance_config,
            lsm_config=lsm_config,
            role=role,
        )
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0


def serve_replica_main(argv: List[str], out) -> int:
    from repro.cluster import run_replica

    parser = argparse.ArgumentParser(
        prog="repro serve-replica",
        description="serve a read replica that follows one primary "
                    "shard over WAL shipping (see repro.cluster)")
    parser.add_argument("--data-dir", required=True, metavar="DIR",
                        help="the replica's own database directory")
    parser.add_argument("--primary", required=True, metavar="HOST:PORT",
                        help="address of the primary shard to follow")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7627)
    parser.add_argument("--poll-interval", type=float, default=0.25,
                        metavar="SECONDS",
                        help="seconds between replication polls")
    parser.add_argument("--allow-reordering", action="store_true",
                        help="follow tables extracted with "
                             "enable_reordering=true even though the "
                             "replica may silently diverge from the "
                             "primary (refused by default)")
    args = parser.parse_args(argv)
    try:
        primary_host, primary_port = args.primary.rsplit(":", 1)
        run_replica(args.data_dir, primary_host, int(primary_port),
                    args.host, args.port,
                    poll_interval=args.poll_interval,
                    allow_reordering=args.allow_reordering)
    except ValueError:
        print(f"error: --primary must be HOST:PORT, got "
              f"{args.primary!r}", file=out)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0


def serve_coordinator_main(argv: List[str], out) -> int:
    from repro.cluster import TopologyError, run_coordinator

    parser = argparse.ArgumentParser(
        prog="repro serve-coordinator",
        description="serve a cluster coordinator routing the JSON-lines "
                    "protocol over a shard fleet (see repro.cluster)")
    parser.add_argument("--topology", required=True, metavar="FILE",
                        help="JSON topology file listing the shards "
                             "(and their replicas)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7618)
    parser.add_argument("--timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-request timeout talking to backends")
    parser.add_argument("--max-inflight-queries", type=int, default=32,
                        help="admission-control bound on concurrent "
                             "queries (excess get code 'overloaded')")
    args = parser.parse_args(argv)
    try:
        run_coordinator(args.topology, args.host, args.port,
                        timeout=args.timeout,
                        max_inflight_queries=args.max_inflight_queries)
    except (TopologyError, OSError, ReproError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], out)
    if argv and argv[0] == "serve-shard":
        return serve_main(argv[1:], out, role="shard")
    if argv and argv[0] == "serve-replica":
        return serve_replica_main(argv[1:], out)
    if argv and argv[0] == "serve-coordinator":
        return serve_coordinator_main(argv[1:], out)
    args = build_parser().parse_args(argv)
    storage_format = _FORMATS[args.format]
    config = ExtractionConfig(tile_size=args.tile_size,
                              partition_size=args.partition_size,
                              threshold=args.threshold)
    options = QueryOptions(enable_skipping=not args.no_skipping,
                           use_statistics=not args.no_statistics)
    db = Database(storage_format, config)
    if args.open_dir:
        from repro.storage.persist import open_database

        db = open_database(args.open_dir)
        for name, relation in db.tables.items():
            print(f"opened {name!r}: {relation.row_count} documents",
                  file=out)
    try:
        _load_tables(db, args.load, storage_format, config, args.workers,
                     out)
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1

    if args.describe:
        try:
            relation = db.table(args.describe)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return 1
        for tile in relation.tiles:
            print(tile.header.describe(), file=out)
        return 0

    if args.sql:
        for query in args.sql:
            try:
                _run_query(db, query, options, args.explain, out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
                return 1
    if args.save_dir:
        from repro.storage.persist import save_database

        written = save_database(db, args.save_dir)
        for name, size in written.items():
            print(f"saved {name!r} ({size} bytes)", file=out)
        return 0
    if args.sql:
        return 0

    _shell(db, options, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
