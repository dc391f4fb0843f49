"""Distributed joins: broadcast exchange vs gather (DESIGN.md §10).

A selective self-join — every row of ``events`` probes the ~1 % of
rows with ``kind = 0`` — is the shape the gather fallback handles
worst: it ships *every* document of the table to the coordinator to
run the join locally.  The broadcast path instead ships the ~80
surviving build rows to each shard once and gets only partial
aggregate states back, so the coordinator's per-query
``exchange_bytes`` (every request and response byte on every backend
link) should drop by well over 2x.

The gather baseline is measured *cold*, on the first gather the
coordinator runs: the epoch-keyed gather cache makes every repeat
gather of an unchanged table ship ~zero bytes, which is exactly the
optimization the cache exists for, and would make a warm baseline
meaningless.  Results are checked bit-identical between modes and
across shard counts.  Besides the human-readable table, the sweep
writes ``benchmarks/results/BENCH_distjoin.json`` for trend tooling.
"""

import json
import time
from pathlib import Path

from repro.bench.harness import scaled
from repro.cluster import ClusterCoordinator, ClusterTopology
from repro.server import JsonTilesServer, ServerClient

RESULTS_DIR = Path(__file__).parent / "results"

SHARD_COUNTS = (1, 2, 4)
NUM_DOCS = int(scaled(8000))
KINDS = 100  # kind = i % 100: the b.kind = 0 filter keeps ~1 %
TILE_SIZE = 256
BATCH = 512
QUERY_ROUNDS = 5

JOIN_SQL = (
    "select count(*) as n, min(a.data->>'id'::int) as lo, "
    "max(a.data->>'id'::int) as hi, sum(a.data->>'v'::int) as s "
    "from events a, events b "
    "where a.data->>'id'::int = b.data->>'id'::int "
    "and b.data->>'kind'::int = 0")

ON = {}
# a broadcast cap of 0 declines the join to the gather path
OFF = {"broadcast_max_rows": 0}


class Fleet:
    """N in-thread shard servers plus one in-thread coordinator.

    In-process is fine here: the metric is exchange *bytes*, not
    extraction throughput, so shards do not need their own GIL."""

    def __init__(self, root: Path, shard_count: int,
                 tile_size: int = TILE_SIZE):
        self.tile_size = tile_size
        self.shards = [JsonTilesServer(root / f"shard{index}",
                                       wal_sync=False, role="shard")
                       for index in range(shard_count)]
        for shard in self.shards:
            shard.start_in_thread()
        topology = ClusterTopology.from_dict(
            {"shards": [{"host": "127.0.0.1", "port": shard.port}
                        for shard in self.shards]})
        self.coordinator = ClusterCoordinator(topology, port=0,
                                              timeout=60.0)
        self.coordinator.start_in_thread()
        self.port = self.coordinator.port

    def load(self, client, documents):
        client.create_table("events", "tiles",
                            {"tile_size": self.tile_size})
        for base in range(0, len(documents), BATCH):
            client.insert_many("events", documents[base:base + BATCH])
        client.flush("events")

    def stop(self):
        self.coordinator.stop_in_thread()
        for shard in self.shards:
            shard.stop_in_thread()


def _documents(count):
    return [{"id": i, "kind": i % KINDS, "v": i % 53}
            for i in range(count)]


def _latency_ms(client, options):
    started = time.perf_counter()
    for _ in range(QUERY_ROUNDS):
        client._call("query", sql=JOIN_SQL, options=options)
    return (time.perf_counter() - started) / QUERY_ROUNDS * 1e3


def test_distjoin_sweep(benchmark, report, tmp_path):
    documents = _documents(NUM_DOCS)
    rows, cases = [], []
    reference = None
    for shard_count in SHARD_COUNTS:
        fleet = Fleet(tmp_path / f"s{shard_count}", shard_count)
        try:
            with ServerClient(port=fleet.port, timeout=120.0) as client:
                fleet.load(client, documents)
                # cold gather first: the epoch cache makes every
                # later gather of the unchanged table ship ~0 bytes
                off = client._call("query", sql=JOIN_SQL, options=OFF)
                assert off["cluster"]["mode"] == "gather"
                on = client._call("query", sql=JOIN_SQL, options=ON)
                assert on["cluster"]["mode"] == "broadcast_join", \
                    on["cluster"]
                assert on["rows"] == off["rows"], shard_count
                if reference is None:
                    reference = on["rows"]
                else:  # same bits regardless of shard count
                    assert on["rows"] == reference, shard_count
                gather_ms = _latency_ms(client, OFF)
                distjoin_ms = _latency_ms(client, ON)
        finally:
            fleet.stop()
        gather_bytes = off["cluster"]["exchange_bytes"]
        join_bytes = on["cluster"]["exchange_bytes"]
        ratio = gather_bytes / join_bytes
        rows.append([shard_count, gather_bytes, join_bytes,
                     f"{ratio:.1f}x", on["cluster"]["broadcast_rows"],
                     f"{gather_ms:.1f}", f"{distjoin_ms:.1f}"])
        cases.append({
            "shards": shard_count,
            "gather_cold_bytes": gather_bytes,
            "distjoin_bytes": join_bytes,
            "ratio": round(ratio, 2),
            "broadcast_rows": on["cluster"]["broadcast_rows"],
            "gather_warm_ms": round(gather_ms, 3),
            "distjoin_ms": round(distjoin_ms, 3),
        })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    out = report("distjoin", "Broadcast join vs gather - coordinator "
                             f"exchange bytes ({NUM_DOCS} docs, "
                             f"~{NUM_DOCS // KINDS}-row build side)")
    out.section("selective self-join (b.kind = 0), cold gather vs "
                "broadcast; bytes are every request/response byte on "
                "every backend link for that one query")
    out.table(["shards", "gather bytes (cold)", "distjoin bytes",
               "ratio", "broadcast rows", "gather ms (warm)",
               "distjoin ms"], rows)
    out.note("results bit-identical between modes and across shard "
             "counts; warm-gather latency rides the epoch cache "
             "(0 docs re-shipped), so bytes — not ms — are the "
             "headline")
    out.emit()

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {"name": "distjoin", "docs": NUM_DOCS, "kinds": KINDS,
               "tile_size": TILE_SIZE, "cases": cases}
    (RESULTS_DIR / "BENCH_distjoin.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # ISSUE 10 floor: the broadcast ships >= 2x fewer bytes than the
    # cold gather at every shard count
    for case in cases:
        assert case["ratio"] >= 2.0, case


def test_distjoin_smoke(report, tmp_path):
    """CI smoke: 2 shards, small dataset, engage + identity + bytes."""
    fleet = Fleet(tmp_path, 2, tile_size=64)
    try:
        with ServerClient(port=fleet.port, timeout=60.0) as client:
            fleet.load(client, _documents(1200))
            off = client._call("query", sql=JOIN_SQL, options=OFF)
            on = client._call("query", sql=JOIN_SQL, options=ON)
            assert off["cluster"]["mode"] == "gather"
            assert on["cluster"]["mode"] == "broadcast_join"
            assert on["rows"] == off["rows"]
            assert on["cluster"]["exchange_bytes"] * 2 <= \
                off["cluster"]["exchange_bytes"]
    finally:
        fleet.stop()
