"""Tests for ``repro.cluster``: coordinator, shard fleet, replicas.

The load-bearing property is *bit-identity*: any query answered by the
coordinator over N shards must equal — values AND row order — the same
query on one server that received every insert in global order.  The
differential fixtures here run the twitter and yelp suites through a
4-shard coordinator against a single-node reference, plus the failure
surfaces (dead shard, oversized frame, version mismatch, staleness
fallback) the design documents.
"""

import dataclasses
import io
import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterCoordinator,
    ClusterTopology,
    ReplicaServer,
    TopologyError,
    load_topology,
    shard_rows,
)
from repro.engine.morsels import block_ranges
from repro.errors import StorageError
from repro.server import JsonTilesServer, ServerClient, ServerError
from repro.server import protocol
from repro.server.wal import WriteAheadLog
from repro.workloads.twitter import TWITTER_QUERIES, TwitterGenerator
from repro.workloads.yelp import YELP_QUERIES, YelpGenerator

TINY = {"tile_size": 32, "partition_size": 2}
SHARDS = 4


def _rows(result):
    return [tuple(row) for row in result.rows]


# ---------------------------------------------------------------------------


class TestTopology:
    def test_from_dict_and_defaults(self):
        topology = ClusterTopology.from_dict(
            {"shards": [{"port": 7701},
                        {"host": "10.0.0.2", "port": 7702,
                         "replicas": [{"port": 7712}]}]})
        assert topology.shard_count == 2
        assert topology.max_replica_lag == 0
        assert topology.read_from_replicas is True
        assert topology.shards[0].primary.address == "127.0.0.1:7701"
        assert topology.shards[1].replicas[0].port == 7712

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(TopologyError):
            ClusterTopology.from_dict({"shards": []})
        with pytest.raises(TopologyError):
            ClusterTopology.from_dict(
                {"shards": [{"port": 7701}, {"port": 7701}]})
        with pytest.raises(TopologyError):
            ClusterTopology.from_dict({"shards": [{"host": "x"}]})

    def test_load_topology_file(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(
            {"shards": [{"port": 7701}], "max_replica_lag": 5}))
        topology = load_topology(path)
        assert topology.max_replica_lag == 5
        with pytest.raises(TopologyError):
            load_topology(tmp_path / "missing.json")

    @pytest.mark.parametrize("key", ["max_broadcast_rows",
                                     "max_replica_lag"])
    @pytest.mark.parametrize("value", ["lots", -1, 2.5, True])
    def test_load_topology_rejects_bad_counts(self, tmp_path, key, value):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"shards": [{"port": 7701}],
                                    key: value}))
        with pytest.raises(TopologyError, match=key):
            load_topology(path)

    def test_serve_coordinator_reports_bad_topology(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"shards": [{"port": 7701}],
                                    "max_broadcast_rows": "lots"}))
        out = io.StringIO()
        assert main(["serve-coordinator", "--topology", str(path)],
                    out=out) == 1
        assert out.getvalue().startswith("error: ")
        assert "max_broadcast_rows" in out.getvalue()

    def test_shard_rows_matches_routing(self):
        # brute-force the block round-robin over many (total, B, S)
        for tile_rows in (1, 3, 8):
            for shard_count in (1, 2, 3, 4):
                for total in range(0, 70):
                    owners = [((row // tile_rows) % shard_count)
                              for row in range(total)]
                    for shard in range(shard_count):
                        assert shard_rows(total, tile_rows, shard_count,
                                          shard) == owners.count(shard)

    def test_block_ranges(self):
        assert list(block_ranges(10, 4)) == [(0, 4), (4, 8), (8, 10)]
        assert list(block_ranges(0, 4)) == []
        with pytest.raises(ValueError):
            list(block_ranges(5, 0))


# ---------------------------------------------------------------------------


class TestWalShipping:
    def test_cumulative_total_survives_truncate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", sync=False)
        wal.append_many([{"i": i} for i in range(5)])
        wal.truncate()
        wal.append_many([{"i": i} for i in range(5, 8)])
        assert wal.total_records() == 8
        docs, nxt = wal.fetch(0, limit=100)
        assert [doc["i"] for doc in docs] == list(range(8))
        assert nxt == 8
        docs, nxt = wal.fetch(6, limit=100)
        assert [doc["i"] for doc in docs] == [6, 7]
        wal.close()

    def test_fetch_spans_epochs_with_limit(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", sync=False)
        for epoch in range(3):
            wal.append_many([{"i": epoch * 4 + i} for i in range(4)])
            wal.truncate()
        docs, nxt = wal.fetch(2, limit=5)
        assert [doc["i"] for doc in docs] == [2, 3, 4, 5, 6]
        assert nxt == 7
        wal.close()

    def test_pruned_offset_requires_resync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", sync=False,
                            archive_keep=1)
        for epoch in range(3):
            wal.append_many([{"i": epoch * 4 + i} for i in range(4)])
            wal.truncate()
        with pytest.raises(StorageError, match="resync"):
            wal.fetch(0)
        # the kept archive still serves recent history
        docs, _ = wal.fetch(8, limit=100)
        assert [doc["i"] for doc in docs] == [8, 9, 10, 11]
        wal.close()

    def test_truncate_archives_atomically(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", sync=False)
        for epoch in range(3):
            wal.append_many([{"i": epoch * 4 + i} for i in range(4)])
            wal.truncate()
        archive_dir = tmp_path / "archive"
        # only fully renamed archives exist — a reader can never see a
        # half-copied .tmp through the fetch glob
        assert sorted(p.name for p in archive_dir.iterdir()) == [
            "t.00000001.wal", "t.00000002.wal", "t.00000003.wal"]
        wal.close()

    def test_fetch_refuses_non_contiguous_stream(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", sync=False)
        for epoch in range(3):
            wal.append_many([{"i": epoch * 4 + i} for i in range(4)])
            wal.truncate()
        # simulate a prune racing the fetch: the middle archive is gone
        (tmp_path / "archive" / "t.00000002.wal").unlink()
        with pytest.raises(StorageError, match="resync"):
            wal.fetch(0, limit=100)
        # offsets after the gap still serve fine
        docs, _ = wal.fetch(8, limit=100)
        assert [doc["i"] for doc in docs] == [8, 9, 10, 11]
        wal.close()

    def test_server_wal_fetch_resync_flag(self, tmp_path):
        server = JsonTilesServer(tmp_path / "data", wal_sync=False)
        server.start_in_thread()
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("events", "tiles", TINY)
                client.insert_many("events", [{"i": i} for i in range(10)])
                page = client.wal_fetch("events", from_total=4)
                assert [doc["i"] for doc in page["docs"]] == list(range(4, 10))
                assert not page.get("resync")
                # prune history under the replica's feet
                wal = server.wals.for_table("events")
                wal.archive = False
                wal.truncate()
                page = client.wal_fetch("events", from_total=0)
                assert page["resync"] is True and page["docs"] == []
                # resync path: documents by row index
                page = client.fetch_docs("events", start=4)
                assert [doc["i"] for doc in page["docs"]] == list(range(4, 10))
                assert page["total"] == 10
        finally:
            server.stop_in_thread()


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """4 shards + coordinator + a single-node reference, twitter and
    yelp pre-loaded through both in identical uneven batches."""
    root = tmp_path_factory.mktemp("cluster")
    single = JsonTilesServer(root / "single", wal_sync=False)
    single.start_in_thread()
    shards = [JsonTilesServer(root / f"shard{index}", wal_sync=False,
                              role="shard")
              for index in range(SHARDS)]
    for shard in shards:
        shard.start_in_thread()
    topology = ClusterTopology.from_dict({
        "shards": [{"host": "127.0.0.1", "port": shard.port}
                   for shard in shards]})
    coordinator = ClusterCoordinator(topology, port=0, timeout=30.0)
    coordinator.start_in_thread()

    with ServerClient(port=coordinator.port) as cc, \
            ServerClient(port=single.port) as sc:
        tweets = list(TwitterGenerator(300, seed=7).stream())
        yelp = list(YelpGenerator(40, reviews_per_business=3,
                                  seed=11).combined())
        for name, docs in (("tweets", tweets), ("yelp", yelp)):
            cc.create_table(name, "tiles", TINY)
            sc.create_table(name, "tiles", TINY)
            # uneven batches that straddle block boundaries
            for start in range(0, len(docs), 53):
                chunk = docs[start:start + 53]
                cc.insert_many(name, chunk)
                sc.insert_many(name, chunk)
        cc.flush()
        sc.flush()
        yield {"coordinator": coordinator, "single": single,
               "cc": cc, "sc": sc, "shards": shards,
               "tweets": tweets, "yelp": yelp}

    coordinator.stop_in_thread()
    for shard in shards:
        shard.stop_in_thread()
    single.stop_in_thread()


class TestClusterDifferential:
    @pytest.mark.parametrize("name", sorted(TWITTER_QUERIES))
    def test_twitter_suite_bit_identical(self, cluster, name):
        a = cluster["cc"].query(TWITTER_QUERIES[name])
        b = cluster["sc"].query(TWITTER_QUERIES[name])
        assert a.columns == b.columns
        assert _rows(a) == _rows(b)

    @pytest.mark.parametrize("name", sorted(YELP_QUERIES))
    def test_yelp_suite_bit_identical(self, cluster, name):
        a = cluster["cc"].query(YELP_QUERIES[name])
        b = cluster["sc"].query(YELP_QUERIES[name])
        assert a.columns == b.columns
        assert _rows(a) == _rows(b)

    @pytest.mark.parametrize("sql", [
        "select count(*) as n from tweets t",
        "select min(t.data->>'id'::int) as lo, "
        "max(t.data->>'id'::int) as hi, count(*) as n from tweets t",
        "select count(distinct t.data->>'lang') as langs from tweets t",
        "select t.data->>'lang' as lang, count(*) as n from tweets t "
        "group by t.data->>'lang' order by n desc, lang limit 3",
        "select t.data->>'id'::int as id, t.data->>'lang' as lang "
        "from tweets t where t.data->>'id'::int < 80 "
        "order by id desc limit 25",
        "select t.data->>'id'::int as id from tweets t limit 7",
    ])
    def test_shapes_bit_identical(self, cluster, sql):
        a = cluster["cc"].query(sql)
        b = cluster["sc"].query(sql)
        assert a.columns == b.columns
        assert _rows(a) == _rows(b)

    def test_read_your_writes_through_coordinator(self, cluster):
        before = cluster["cc"].query(
            "select count(*) as n from tweets t").scalar()
        extra = list(TwitterGenerator(30, seed=42).stream())
        cluster["cc"].insert_many("tweets", extra)
        cluster["sc"].insert_many("tweets", extra)
        a = cluster["cc"].query("select count(*) as n from tweets t")
        b = cluster["sc"].query("select count(*) as n from tweets t")
        assert a.scalar() == before + len(extra)
        assert _rows(a) == _rows(b)
        # and a gather query sees them too (cache refresh)
        q = ("select t.data->>'lang' as lang, count(*) as n from tweets t "
             "group by t.data->>'lang' "
             "having count(*) > 1 order by lang")
        assert _rows(cluster["cc"].query(q)) == _rows(cluster["sc"].query(q))

    def test_explain_carries_cluster_header(self, cluster):
        plan = cluster["cc"].explain("select count(*) as n from tweets t")
        assert plan.startswith(f"Cluster[{SHARDS} shards")
        assert "per-shard plan" in plan

    def test_stats_aggregates_fleet(self, cluster):
        stats = cluster["cc"].stats()
        assert stats["role"] == "coordinator"
        assert len(stats["shards"]) == SHARDS
        table = stats["tables"]["tweets"]
        assert table["rows"] + table["pending"] == table["routed_rows"]
        single_rows = cluster["sc"].stats()["tables"]["tweets"]
        assert table["routed_rows"] == (single_rows["rows"]
                                        + single_rows["pending"])
        assert stats["counters"]["queries"] > 0

    def test_shard_tables_created_without_reordering(self, cluster):
        # the canonical block layout depends on physical row order, so
        # the coordinator must force enable_reordering off on every
        # shard table regardless of the client-supplied config
        stats = cluster["cc"].stats()
        for shard in stats["shards"]:
            for name, table in shard["tables"].items():
                assert table["config"]["enable_reordering"] is False, name

    def test_hello_and_admin_fanouts(self, cluster):
        hello = cluster["cc"].hello()
        assert hello["role"] == "coordinator"
        assert hello["shards"] == SHARDS
        assert cluster["cc"].flush() >= 0
        written = cluster["cc"].checkpoint()
        assert set(written) == {f"shard{i}" for i in range(SHARDS)}
        maintenance = cluster["cc"].maintenance()
        assert set(maintenance["shards"]) == \
            {f"shard{i}" for i in range(SHARDS)}

    def test_duplicate_create_table_rejected(self, cluster):
        with pytest.raises(ServerError) as excinfo:
            cluster["cc"].create_table("tweets")
        assert excinfo.value.code == "SqlBindError"

    def test_unknown_table_and_command_surface_cleanly(self, cluster):
        with pytest.raises(ServerError):
            cluster["cc"].query("select count(*) as n from nope t")
        with pytest.raises(ServerError) as excinfo:
            cluster["cc"]._call("partial_query", sql="select 1",
                                shard_index=0, shard_count=1)
        assert excinfo.value.code == "bad_request"

    def test_coordinator_discovers_existing_tables(self, cluster):
        """A restarted coordinator rebuilds its routing catalog from
        shard stats and keeps answering identically."""
        topology = cluster["coordinator"].topology
        fresh = ClusterCoordinator(topology, port=0, timeout=30.0)
        fresh.start_in_thread()
        try:
            with ServerClient(port=fresh.port) as client:
                sql = ("select t.data->>'lang' as lang, count(*) as n "
                       "from tweets t group by t.data->>'lang' "
                       "order by n desc, lang limit 3")
                assert _rows(client.query(sql)) == \
                    _rows(cluster["sc"].query(sql))
        finally:
            fresh.stop_in_thread()


# ---------------------------------------------------------------------------


class TestDistributedJoins:
    """Shard-side broadcast joins (DESIGN.md §10): engage on a small
    build side, decline to gather on anything else — bit-identical to
    the single node either way."""

    # dim is 8 docs = one routed block on shard 0, so shards 1-3 plan
    # it at cardinality 0 — every shard still votes the same
    # orientation (320-row big probes, 8-row dim builds)
    JOIN_SQL = (
        "select d.data->>'label' as label, count(*) as n, "
        "sum(b.data->>'v'::int) as s from big b, dim d "
        "where b.data->>'k'::int = d.data->>'d'::int "
        "group by d.data->>'label' order by label")

    # a broadcast cap of 0 declines every join to the gather path
    ON = {}
    OFF = {"broadcast_max_rows": 0}

    @pytest.fixture(scope="class")
    def joined(self, cluster):
        cc, sc = cluster["cc"], cluster["sc"]
        if "big" not in cc.stats()["tables"]:
            big = [{"k": i % 8, "v": i % 13} for i in range(320)]
            dim = [{"d": i, "label": f"l-{i}"} for i in range(8)]
            for name, docs in (("big", big), ("dim", dim)):
                cc.create_table(name, "tiles", TINY)
                sc.create_table(name, "tiles", TINY)
                for start in range(0, len(docs), 53):
                    cc.insert_many(name, docs[start:start + 53])
                    sc.insert_many(name, docs[start:start + 53])
        return cluster

    @pytest.fixture(scope="class")
    def tpch(self, cluster):
        from repro.workloads.tpch.generator import generate_tables

        cc, sc = cluster["cc"], cluster["sc"]
        if "lineitem" not in cc.stats()["tables"]:
            for name, docs in generate_tables(0.0005, seed=5).items():
                cc.create_table(name, "tiles", TINY)
                sc.create_table(name, "tiles", TINY)
                for start in range(0, len(docs), 53):
                    cc.insert_many(name, docs[start:start + 53])
                    sc.insert_many(name, docs[start:start + 53])
        return cluster

    def test_broadcast_join_engages(self, joined):
        raw = joined["cc"]._call("query", sql=self.JOIN_SQL,
                                 options=self.ON)
        section = raw["cluster"]
        assert section["mode"] == "broadcast_join"
        assert section["probe"] == "b"
        assert section["build"] == "d"
        assert section["join_order"] == ["d", "b"]
        # 8 build rows broadcast to every shard
        assert section["broadcast_rows"] == 8 * SHARDS
        assert section["exchange_bytes"] > 0
        ref = joined["sc"].query(self.JOIN_SQL)
        assert raw["columns"] == ref.columns
        assert [tuple(row) for row in raw["rows"]] == _rows(ref)

    def test_distjoin_off_falls_back_to_gather(self, joined):
        on = joined["cc"]._call("query", sql=self.JOIN_SQL,
                                options=self.ON)
        off = joined["cc"]._call("query", sql=self.JOIN_SQL,
                                 options=self.OFF)
        assert off["cluster"]["mode"] == "gather"
        assert off["columns"] == on["columns"]
        assert off["rows"] == on["rows"]

    def test_non_equi_join_declines_counted(self, joined):
        sql = ("select count(*) as n from big b, dim d "
               "where b.data->>'k'::int < d.data->>'d'::int")
        before = joined["cc"].stats()["counters"]["distjoin_declines"]
        raw = joined["cc"]._call("query", sql=sql, options=self.ON)
        assert raw["cluster"]["mode"] == "gather"
        stats = joined["cc"].stats()
        assert stats["counters"]["distjoin_declines"] == before + 1
        assert stats["last_distjoin_decline"] == "cross-product"
        assert [tuple(row) for row in raw["rows"]] == \
            _rows(joined["sc"].query(sql))

    def test_build_cap_declines_to_gather(self, joined):
        raw = joined["cc"]._call(
            "query", sql=self.JOIN_SQL,
            options=dict(self.ON, broadcast_max_rows=4))
        assert raw["cluster"]["mode"] == "gather"
        stats = joined["cc"].stats()
        assert stats["last_distjoin_decline"] == "build-too-large"
        assert [tuple(row) for row in raw["rows"]] == \
            _rows(joined["sc"].query(self.JOIN_SQL))

    def test_topology_cap_zero_forces_gather(self, joined):
        topology = dataclasses.replace(joined["coordinator"].topology,
                                       max_broadcast_rows=0)
        fresh = ClusterCoordinator(topology, port=0, timeout=30.0)
        fresh.start_in_thread()
        try:
            with ServerClient(port=fresh.port) as client:
                # the cluster's cap wins over the query's default
                raw = client._call("query", sql=self.JOIN_SQL,
                                   options=self.ON)
                assert raw["cluster"]["mode"] == "gather"
                assert client.stats()["last_distjoin_decline"] == \
                    "build-too-large"
        finally:
            fresh.stop_in_thread()
        assert [tuple(row) for row in raw["rows"]] == \
            _rows(joined["sc"].query(self.JOIN_SQL))

    def test_stats_expose_join_telemetry(self, joined):
        joined["cc"]._call("query", sql=self.JOIN_SQL, options=self.ON)
        stats = joined["cc"].stats()
        counters = stats["counters"]
        assert counters["distributed_joins"] > 0
        assert counters["broadcast_rows"] >= 8 * SHARDS
        assert counters["exchange_bytes"] > 0
        assert stats["last_join_order"] == ["d", "b"]

    def test_explain_announces_broadcast_strategy(self, joined):
        plan = joined["cc"].explain(self.JOIN_SQL, options=self.ON)
        assert "broadcast join (on unanimous shard vote)" in plan
        assert "build[d] =broadcast=> probe[b]" in plan

    @pytest.mark.parametrize("name", [1, 3, 5])
    def test_yelp_joins_on_off_identical(self, cluster, name):
        on = cluster["cc"]._call(
            "query", sql=YELP_QUERIES[name],
            options=TestDistributedJoins.ON)
        off = cluster["cc"]._call(
            "query", sql=YELP_QUERIES[name],
            options=TestDistributedJoins.OFF)
        assert on["columns"] == off["columns"]
        assert on["rows"] == off["rows"]

    def test_twitter_self_join_on_off_identical(self, cluster):
        sql = ("select a.data->>'lang' as lang, count(*) as n "
               "from tweets a, tweets b "
               "where a.data->>'id'::int = b.data->>'id'::int "
               "group by a.data->>'lang' order by n desc, lang")
        on = cluster["cc"]._call("query", sql=sql,
                                 options=TestDistributedJoins.ON)
        off = cluster["cc"]._call("query", sql=sql,
                                  options=TestDistributedJoins.OFF)
        ref = cluster["sc"].query(sql)
        assert on["columns"] == off["columns"] == ref.columns
        assert on["rows"] == off["rows"]
        assert [tuple(row) for row in on["rows"]] == _rows(ref)

    @pytest.mark.parametrize("number", [3, 4, 12, 14])
    def test_tpch_joins_bit_identical(self, tpch, number):
        from repro.workloads.tpch import TPCH_QUERIES

        sql = TPCH_QUERIES[number]
        ref = tpch["sc"].query(sql)
        on = tpch["cc"]._call("query", sql=sql, options=self.ON)
        off = tpch["cc"]._call("query", sql=sql, options=self.OFF)
        assert on["columns"] == off["columns"] == ref.columns
        assert [tuple(row) for row in on["rows"]] == _rows(ref)
        assert on["rows"] == off["rows"]


# ---------------------------------------------------------------------------


class TestReplicaAndFailures:
    def _wait(self, predicate, timeout=15.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return False

    def test_replica_staleness_and_fallback(self, tmp_path):
        shard = JsonTilesServer(tmp_path / "shard", wal_sync=False,
                                role="shard").start_in_thread()
        replica = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                                shard.port, poll_interval=0.05,
                                wal_sync=False).start_in_thread()
        topology = ClusterTopology.from_dict({
            "shards": [{"host": "127.0.0.1", "port": shard.port,
                        "replicas": [{"host": "127.0.0.1",
                                      "port": replica.port}]}],
            "max_replica_lag": 0})
        coordinator = ClusterCoordinator(topology, port=0,
                                         timeout=30.0).start_in_thread()
        try:
            with ServerClient(port=coordinator.port) as client:
                client.create_table("events", "tiles", TINY)
                docs = [{"i": i, "k": "ab"[i % 2]} for i in range(100)]
                client.insert_many("events", docs)

                def caught_up():
                    with ServerClient(port=replica.port) as rep:
                        status = rep.replica_status()
                    return status["tables"].get("events",
                                                {}).get("applied") == 100

                assert self._wait(caught_up)
                # fresh replica serves the read
                result = client.query(
                    "select count(*) as n from events e")
                assert result.scalar() == 100
                counters = client.stats()["counters"]
                assert counters["replica_queries"] >= 1

                # replica writes are refused at the protocol
                with ServerClient(port=replica.port) as rep:
                    assert rep.hello()["read_only"] is True
                    with pytest.raises(ServerError) as excinfo:
                        rep.insert("events", {"i": -1})
                    assert excinfo.value.code == "read_only"

                # freeze the replica in the past -> primary fallback
                replica.pause()
                client.insert_many("events",
                                   [{"i": i, "k": "c"} for i in range(7)])
                before = client.stats()["counters"]
                result = client.query(
                    "select count(*) as n from events e")
                assert result.scalar() == 107
                after = client.stats()["counters"]
                assert after["primary_fallbacks"] > \
                    before["primary_fallbacks"]

                # resume -> replica catches up and serves again
                replica.resume()

                def caught_up_again():
                    with ServerClient(port=replica.port) as rep:
                        status = rep.replica_status()
                    return status["tables"]["events"]["applied"] == 107

                assert self._wait(caught_up_again)
                before = client.stats()["counters"]
                assert client.query(
                    "select count(*) as n from events e").scalar() == 107
                after = client.stats()["counters"]
                assert after["replica_queries"] > before["replica_queries"]

                # replica status is visible in cluster stats
                stats = client.stats()
                replicas = stats["shards"][0]["replicas"]
                assert replicas and replicas[0]["replica"] is True
        finally:
            coordinator.stop_in_thread()
            replica.stop_in_thread()
            shard.stop_in_thread()

    def test_partial_insert_failure_degrades_then_recovers(self, tmp_path):
        """A failed insert fan-out marks the table degraded; the table
        refuses traffic until per-shard counts re-verify against the
        canonical block layout, then heals automatically."""
        shards = [JsonTilesServer(tmp_path / f"shard{index}",
                                  wal_sync=False,
                                  role="shard").start_in_thread()
                  for index in range(2)]
        ports = [shard.port for shard in shards]
        topology = ClusterTopology.from_dict({
            "shards": [{"host": "127.0.0.1", "port": port}
                       for port in ports]})
        coordinator = ClusterCoordinator(topology, port=0,
                                         timeout=5.0).start_in_thread()
        try:
            with ServerClient(port=coordinator.port) as client:
                client.create_table("events", "tiles", TINY)
                entry = coordinator.tables["events"]
                # rows 0..31 are block 0 -> routed to shard 0 only
                shards[0].stop_in_thread(checkpoint=False)
                with pytest.raises(ServerError) as excinfo:
                    client.insert_many("events",
                                       [{"i": i} for i in range(32)])
                assert excinfo.value.code == "unavailable"
                assert entry["degraded"] is True
                # while the shard is down, reconciliation cannot run
                # and queries must not serve the corrupt layout
                with pytest.raises(ServerError):
                    client.query("select count(*) as n from events e")
                assert entry["degraded"] is True
                # the failed batch never reached the dead shard, so
                # after a restart the counts re-verify and traffic flows
                shards[0] = JsonTilesServer(
                    tmp_path / "shard0", wal_sync=False, role="shard",
                    port=ports[0]).start_in_thread()
                assert client.query(
                    "select count(*) as n from events e").scalar() == 0
                assert entry["degraded"] is False
                client.insert_many("events", [{"i": i} for i in range(64)])
                assert client.query(
                    "select count(*) as n from events e").scalar() == 64
                assert client.stats()["tables"]["events"]["degraded"] \
                    is False
        finally:
            coordinator.stop_in_thread()
            for shard in shards:
                shard.stop_in_thread()

    def test_replica_refuses_reordering_primary(self, tmp_path):
        """Replication assumes physical row order == WAL order, which
        breaks when the primary may reorder rows at seal time — the
        replica must refuse such tables unless explicitly overridden."""
        primary = JsonTilesServer(tmp_path / "primary",
                                  wal_sync=False).start_in_thread()
        try:
            with ServerClient(port=primary.port) as client:
                # TINY leaves enable_reordering at its default (True)
                client.create_table("events", "tiles", TINY)
                client.insert_many("events", [{"i": i} for i in range(10)])
            replica = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                                    primary.port, wal_sync=False)
            replica.server.start_in_thread()
            try:
                with pytest.warns(RuntimeWarning,
                                  match="enable_reordering"):
                    assert replica.poll_once() == 0
                status = replica._status()
                assert "events" in status["refused"]
                assert "events" not in status["tables"]
            finally:
                replica.server.stop_in_thread()
            # explicit override replicates anyway
            permissive = ReplicaServer(tmp_path / "replica2", "127.0.0.1",
                                       primary.port, wal_sync=False,
                                       allow_reordering=True)
            permissive.server.start_in_thread()
            try:
                assert permissive.poll_once() == 10
                status = permissive._status()
                assert status["refused"] == {}
                assert status["tables"]["events"]["applied"] == 10
            finally:
                permissive.server.stop_in_thread()
        finally:
            primary.stop_in_thread()

    def test_dead_shard_surfaces_unavailable(self, tmp_path):
        shards = [JsonTilesServer(tmp_path / f"shard{index}",
                                  wal_sync=False,
                                  role="shard").start_in_thread()
                  for index in range(2)]
        topology = ClusterTopology.from_dict({
            "shards": [{"host": "127.0.0.1", "port": shard.port}
                       for shard in shards]})
        coordinator = ClusterCoordinator(topology, port=0,
                                         timeout=5.0).start_in_thread()
        try:
            with ServerClient(port=coordinator.port) as client:
                client.create_table("events", "tiles", TINY)
                client.insert_many("events",
                                   [{"i": i} for i in range(100)])
                assert client.query(
                    "select count(*) as n from events e").scalar() == 100
                shards[1].stop_in_thread(checkpoint=False)
                with pytest.raises(ServerError) as excinfo:
                    client.query("select count(*) as n from events e")
                assert excinfo.value.code == "unavailable"
                assert shards[1].port and \
                    str(shards[1].port) in str(excinfo.value)
                with pytest.raises(ServerError) as excinfo:
                    client.insert_many("events",
                                       [{"i": i} for i in range(40)])
                assert excinfo.value.code == "unavailable"
        finally:
            coordinator.stop_in_thread()
            shards[0].stop_in_thread()

    def test_shard_role_disables_maintenance_reordering(self, tmp_path):
        # --maintenance is safe on shards: the role forces the
        # planner's reorder proposals off while the rest of the daemon
        # (recomputes, buffer compaction) keeps running
        server = JsonTilesServer(tmp_path / "shard", wal_sync=False,
                                 role="shard", maintenance=True)
        server.start_in_thread()
        try:
            assert server.maintenance is not None
            assert server.maintenance.config.enabled is True
            assert server.maintenance.config.allow_reordering is False
        finally:
            server.stop_in_thread()


# ---------------------------------------------------------------------------


class TestProtocolLimits:
    def test_client_rejects_oversized_request(self, tmp_path):
        server = JsonTilesServer(tmp_path / "data", wal_sync=False)
        server.start_in_thread()
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("events")
                huge = [{"blob": "x" * 1024}
                        for _ in range(protocol.MAX_MESSAGE_BYTES // 1024)]
                with pytest.raises(ServerError) as excinfo:
                    client.insert_many("events", huge)
                assert excinfo.value.code == "protocol"
                # nothing was sent: the connection still works
                assert client.ping() == "pong"
        finally:
            server.stop_in_thread()

    def test_server_rejects_oversized_frame(self, tmp_path, monkeypatch):
        # shrink the limit so the test does not ship 32 MiB
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 4096)
        server = JsonTilesServer(tmp_path / "data", wal_sync=False)
        server.start_in_thread()
        try:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10.0) as sock:
                try:
                    sock.sendall(b'{"cmd": "ping", "pad": "' +
                                 b"x" * 8192 + b'"}\n')
                except (BrokenPipeError, ConnectionResetError):
                    pass  # server may close while we are still sending
                response = json.loads(
                    sock.makefile("rb").readline().decode())
            assert response["ok"] is False
            assert response["code"] == "protocol"
        finally:
            server.stop_in_thread()

    def test_hello_version_mismatch(self):
        # a fake peer speaking a future protocol revision
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def fake_peer():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(json.dumps(
                    {"ok": True, "version": 99}).encode() + b"\n")

        thread = threading.Thread(target=fake_peer, daemon=True)
        thread.start()
        try:
            client = ServerClient(port=port, timeout=5.0, retries=0)
            with pytest.raises(ServerError) as excinfo:
                client.hello()
            assert excinfo.value.code == "version_mismatch"
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_client_reconnects_after_server_restart(self, tmp_path):
        server = JsonTilesServer(tmp_path / "data", wal_sync=False)
        server.start_in_thread()
        port = server.port
        client = ServerClient(port=port, timeout=10.0, retries=1,
                              retry_backoff=0.3)
        assert client.ping() == "pong"
        server.stop_in_thread()
        server = JsonTilesServer(tmp_path / "data", wal_sync=False,
                                 port=port)
        server.start_in_thread()
        try:
            assert client.ping() == "pong"  # transparent reconnect
        finally:
            client.close()
            server.stop_in_thread()

    def test_client_never_retries_insert(self, tmp_path):
        """Even with retries enabled, an insert whose connection died
        is never re-sent (it may have been applied without an ack);
        idempotent commands still reconnect transparently."""
        server = JsonTilesServer(tmp_path / "data", wal_sync=False)
        server.start_in_thread()
        port = server.port
        client = ServerClient(port=port, timeout=10.0, retries=1,
                              retry_backoff=0.3)
        client.create_table("events")
        client.insert("events", {"i": 0})
        server.stop_in_thread()
        server = JsonTilesServer(tmp_path / "data", wal_sync=False,
                                 port=port)
        server.start_in_thread()
        try:
            with pytest.raises((ServerError, OSError)):
                client.insert("events", {"i": 1})
            # the idempotent ping reconnects and the session continues
            assert client.ping() == "pong"
            assert client.query(
                "select count(*) as n from events e").scalar() == 1
        finally:
            client.close()
            server.stop_in_thread()


class TestBackendRetrySafety:
    """BackendLink must only re-send idempotent commands after a
    dropped connection — a re-sent insert could double-apply."""

    @staticmethod
    def _flaky_peer(drops):
        """A fake backend: reads one request per connection; while
        ``drops[0] > 0`` it closes without answering, else answers ok.
        Returns (listener, port, received, stop)."""
        received = []
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        stop = threading.Event()

        def peer():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    line = conn.makefile("rb").readline()
                    if not line:
                        continue
                    request = json.loads(line)
                    received.append(request)
                    if drops[0] > 0:
                        drops[0] -= 1
                        continue  # close without a response
                    conn.sendall(json.dumps(
                        {"ok": True, "id": request["id"],
                         "tables": {}}).encode() + b"\n")

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        return listener, port, received, stop

    def _call(self, port, command, **fields):
        import asyncio

        from repro.cluster.coordinator import BackendLink
        from repro.cluster.topology import Endpoint

        async def run():
            link = BackendLink(Endpoint("127.0.0.1", port), timeout=5.0)
            try:
                return await link.call(command, **fields)
            finally:
                await link._close()

        return asyncio.run(run())

    def test_idempotent_command_is_resent(self):
        drops = [1]
        listener, port, received, stop = self._flaky_peer(drops)
        try:
            response = self._call(port, "stats")
            assert response["ok"] is True
            assert [r["cmd"] for r in received] == ["stats", "stats"]
        finally:
            stop.set()
            listener.close()

    def test_insert_is_never_resent(self):
        from repro.cluster.coordinator import BackendError

        drops = [1]
        listener, port, received, stop = self._flaky_peer(drops)
        try:
            with pytest.raises(BackendError) as excinfo:
                self._call(port, "insert", table="events",
                           docs=[{"i": 1}])
            assert excinfo.value.code == "unavailable"
            assert "unacknowledged" in str(excinfo.value)
            # exactly one request line ever reached the backend
            assert [r["cmd"] for r in received] == ["insert"]
        finally:
            stop.set()
            listener.close()
