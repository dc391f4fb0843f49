"""Tests for ``repro.server``: the concurrent query/ingest service.

Covers the wire protocol, the WAL (framing, torn tails, epochs), the
readers/writer locks, concurrent clients querying during an insert
burst (snapshot-consistent counts, no torn tiles), and WAL replay
after a simulated crash (stop before checkpoint).
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import StorageError
from repro.server import (
    JsonTilesServer,
    ReadWriteLock,
    ServerClient,
    ServerError,
    referenced_tables,
)
from repro.server.wal import WriteAheadLog, records_to_skip
from repro.sql.parser import parse

TINY = {"tile_size": 32, "partition_size": 2}


@pytest.fixture()
def server(tmp_path):
    instance = JsonTilesServer(tmp_path / "data", wal_sync=False,
                               query_workers=4)
    instance.start_in_thread()
    yield instance
    instance.stop_in_thread()


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as connection:
        yield connection


# ---------------------------------------------------------------------------


class TestProtocolAndCommands:
    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_create_insert_query(self, client):
        client.create_table("events", "tiles", TINY)
        client.insert_many("events",
                           [{"id": i, "kind": "a" if i % 2 else "b"}
                            for i in range(100)])
        result = client.query("select e.data->>'kind' as k, count(*) as n "
                              "from events e group by e.data->>'kind' "
                              "order by k")
        assert result.rows == [("a", 50), ("b", 50)]
        assert result.counters.tiles_total > 0

    def test_query_sees_every_acknowledged_insert(self, client):
        client.create_table("t", "tiles", TINY)
        client.insert("t", {"id": 1})  # below tile_size: still buffered
        assert client.query("select count(*) as n from t x").scalar() == 1

    def test_explain_and_stats(self, client):
        client.create_table("t", "tiles", TINY)
        client.insert_many("t", [{"id": i} for i in range(40)])
        client.flush("t")
        plan = client.explain("select count(*) as n from t x")
        assert "HashAggregate" in plan
        stats = client.stats()
        assert stats["tables"]["t"]["rows"] == 40
        assert stats["tables"]["t"]["pending"] == 0
        assert stats["counters"]["inserts"] == 40

    def test_json_format_table(self, client):
        client.create_table("raw", "json")
        client.insert_many("raw", [{"v": i} for i in range(10)])
        assert client.query("select count(*) as n from raw r").scalar() == 10

    def test_sql_error_reported_not_fatal(self, client):
        client.create_table("t", "tiles", TINY)
        with pytest.raises(ServerError):
            client.query("select nonsense from nowhere n")
        assert client.ping() == "pong"  # connection survives the error

    def test_unknown_table_insert(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.insert("missing", {"a": 1})
        assert "unknown table" in str(excinfo.value)

    def test_bad_table_names_rejected(self, client):
        for name in ("../evil", "a b", "x__y", ""):
            with pytest.raises(ServerError):
                client.create_table(name)

    def test_duplicate_table_rejected(self, client):
        client.create_table("t")
        with pytest.raises(ServerError):
            client.create_table("t")

    def test_raw_socket_junk_gets_error_response(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            reply = json.loads(reader.readline())
            assert reply["ok"] is False and reply["code"] == "protocol"
            sock.sendall(b'{"cmd": "teleport"}\n')
            reply = json.loads(reader.readline())
            assert reply["ok"] is False
            sock.sendall(b'{"id": 9, "cmd": "ping"}\n')
            reply = json.loads(reader.readline())
            assert reply == {"ok": True, "id": 9, "result": "pong"}


# ---------------------------------------------------------------------------


class TestBackgroundSealer:
    def test_seals_whole_tiles_and_leaves_the_tail(self, server, client):
        """Where the sealer cuts must not depend on when it runs: a
        burst of 1.5 tiles seals one full tile, the tail waits."""
        client.create_table("t", "tiles", TINY)
        size = TINY["tile_size"]
        assert client.insert_many(
            "t", [{"id": i} for i in range(size + size // 2)]) == 48
        deadline = time.monotonic() + 30
        while client.stats()["counters"].get("seals", 0) < 1:
            assert time.monotonic() < deadline, "no background seal"
            time.sleep(0.01)
        table = client.stats()["tables"]["t"]
        assert (table["tiles"], table["pending"]) == (1, size // 2)
        relation = server._base["t"]
        assert [handle.row_count for handle in relation.tiles] == [size]
        # the query-time flush seals the tail
        assert client.query("select count(*) as n from t x").scalar() == 48
        assert [handle.row_count for handle in relation.tiles] == \
            [size, size // 2]


class TestConcurrentClients:
    def test_counts_consistent_during_insert_burst(self, server):
        """16 query clients run while one writer streams documents:
        every observed count is a consistent snapshot — monotonically
        non-decreasing per client, never above what was acknowledged,
        and the final count is exact."""
        total = 600
        acked = [0]
        with ServerClient(port=server.port) as admin:
            admin.create_table("s", "tiles", TINY)

        stop = threading.Event()
        errors = []

        def writer():
            with ServerClient(port=server.port) as connection:
                for base in range(0, total, 20):
                    connection.insert_many(
                        "s", [{"id": base + i, "v": float(i)}
                              for i in range(20)])
                    acked[0] = base + 20
            stop.set()

        def reader():
            observed = []
            try:
                with ServerClient(port=server.port) as connection:
                    while not stop.is_set():
                        count = connection.query(
                            "select count(*) as n from s x").scalar()
                        ceiling = acked[0]  # read *after* the query
                        observed.append((count, ceiling))
            except Exception as exc:  # surface in the main thread
                errors.append(exc)
                return
            counts = [count for count, _ in observed]
            assert counts == sorted(counts), "count went backwards"
            for count, ceiling in observed:
                assert count <= ceiling + 20  # never beyond acked work

        readers = [threading.Thread(target=reader) for _ in range(16)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        for thread in readers:
            thread.join(timeout=120)
        assert not errors
        with ServerClient(port=server.port) as admin:
            assert admin.query(
                "select count(*) as n from s x").scalar() == total
            stats = admin.stats("s")
            assert stats["tables"]["s"]["rows"] == total

    def test_parallel_queries_multiple_tables(self, server):
        with ServerClient(port=server.port) as admin:
            admin.create_table("a", "tiles", TINY)
            admin.create_table("b", "tiles", TINY)
            admin.insert_many("a", [{"x": i} for i in range(64)])
            admin.insert_many("b", [{"x": i} for i in range(32)])

        results = []

        def worker(table, expected):
            with ServerClient(port=server.port) as connection:
                for _ in range(10):
                    value = connection.query(
                        f"select count(*) as n from {table} t").scalar()
                    results.append((expected, value))

        threads = [threading.Thread(target=worker, args=("a", 64)),
                   threading.Thread(target=worker, args=("b", 32)),
                   threading.Thread(target=worker, args=("a", 64)),
                   threading.Thread(target=worker, args=("b", 32))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 40
        assert all(value == expected for expected, value in results)


# ---------------------------------------------------------------------------


class TestDurability:
    def test_wal_replay_after_crash_before_checkpoint(self, tmp_path):
        """Every acknowledged insert survives a hard stop with no
        checkpoint at all (the end-to-end durability criterion)."""
        data_dir = tmp_path / "data"
        first = JsonTilesServer(data_dir, query_workers=2)
        first.start_in_thread()
        with ServerClient(port=first.port) as connection:
            connection.create_table("a", "tiles", TINY)
            connection.create_table("b", "jsonb", TINY)
            for base in range(0, 90, 30):
                connection.insert_many(
                    "a", [{"id": base + i} for i in range(30)])
            connection.insert_many("b", [{"id": i} for i in range(25)])
        first.stop_in_thread(checkpoint=False)  # simulated crash

        second = JsonTilesServer(data_dir, query_workers=2)
        second.start_in_thread()
        try:
            with ServerClient(port=second.port) as connection:
                assert connection.query(
                    "select count(*) as n from a x").scalar() == 90
                assert connection.query(
                    "select count(*) as n from b x").scalar() == 25
                assert connection.query(
                    "select sum(x.data->>'id'::int) as s from a x"
                ).scalar() == sum(range(90))
        finally:
            second.stop_in_thread()

    def test_crash_after_checkpoint_replays_only_the_tail(self, tmp_path):
        data_dir = tmp_path / "data"
        first = JsonTilesServer(data_dir, query_workers=2)
        first.start_in_thread()
        with ServerClient(port=first.port) as connection:
            connection.create_table("t", "tiles", TINY)
            connection.insert_many("t", [{"id": i} for i in range(50)])
            connection.checkpoint()
            connection.insert_many("t", [{"id": 50 + i} for i in range(7)])
            assert connection.stats("t")["tables"]["t"]["wal_records"] == 7
        first.stop_in_thread(checkpoint=False)

        second = JsonTilesServer(data_dir, query_workers=2)
        second.start_in_thread()
        try:
            with ServerClient(port=second.port) as connection:
                result = connection.query(
                    "select count(*) as n, sum(x.data->>'id'::int) as s "
                    "from t x")
                assert result.rows == [(57, sum(range(57)))]
        finally:
            second.stop_in_thread()

    def test_graceful_shutdown_checkpoints(self, tmp_path):
        data_dir = tmp_path / "data"
        first = JsonTilesServer(data_dir, query_workers=2)
        first.start_in_thread()
        with ServerClient(port=first.port) as connection:
            connection.create_table("t", "tiles", TINY)
            connection.insert_many("t", [{"id": i} for i in range(10)])
        first.stop_in_thread(checkpoint=True)
        assert (data_dir / "t.jtile").exists()

        second = JsonTilesServer(data_dir, query_workers=2)
        second.start_in_thread()
        try:
            with ServerClient(port=second.port) as connection:
                assert connection.query(
                    "select count(*) as n from t x").scalar() == 10
                # graceful stop truncated the WAL: nothing to replay
                assert connection.stats(
                    "t")["tables"]["t"]["wal_records"] == 0
        finally:
            second.stop_in_thread()

    @pytest.mark.parametrize("bad", ["\ud800", 18446744073709551616],
                             ids=["lone_surrogate", "int_over_64_bits"])
    def test_unstorable_batch_rejected_before_the_wal(self, tmp_path, bad):
        """A lone surrogate or an integer wider than 64 bits is legal
        JSON but no tile can store it: the whole batch is refused before
        any byte reaches the WAL, so a restart replays only what was
        acknowledged and seals cleanly."""
        data_dir = tmp_path / "data"
        first = JsonTilesServer(data_dir, query_workers=2)
        first.start_in_thread()
        with ServerClient(port=first.port) as connection:
            connection.create_table("t", "tiles", TINY)
            connection.insert_many("t", [{"s": "ok"}])
            with pytest.raises(ServerError) as refused:
                connection.insert_many(
                    "t", [{"s": "fine"}, {"s": bad}, {"s": "ok3"}])
            assert refused.value.code == "JsonbEncodeError"
            assert connection.stats("t")["tables"]["t"]["wal_records"] == 1
            connection.insert_many("t", [{"s": "après"}])
            connection.flush("t")
            result = connection.query("select count(*) as n from t x")
            assert result.rows == [(2,)]
        first.stop_in_thread(checkpoint=False)

        second = JsonTilesServer(data_dir, query_workers=2)
        second.start_in_thread()
        try:
            with ServerClient(port=second.port) as connection:
                connection.flush("t")
                result = connection.query(
                    "select x.data->>'s' as s from t x order by s")
                assert result.rows == [("après",), ("ok",)]
        finally:
            second.stop_in_thread()

    def test_shutdown_command(self, tmp_path):
        instance = JsonTilesServer(tmp_path / "data", query_workers=2)
        instance.start_in_thread()
        with ServerClient(port=instance.port) as connection:
            connection.create_table("t", "tiles", TINY)
            connection.insert("t", {"id": 1})
            connection.shutdown()
        instance._thread.join(timeout=30)
        assert not instance._thread.is_alive()
        instance._thread = None
        assert (tmp_path / "data" / "t.jtile").exists()


# ---------------------------------------------------------------------------


class TestWal:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal")
        wal.append({"a": 1})
        wal.append_many([{"a": 2}, {"a": 3}])
        assert wal.record_count == 3
        assert wal.replay() == [{"a": 1}, {"a": 2}, {"a": 3}]
        wal.close()
        reopened = WriteAheadLog(tmp_path / "t.wal")
        assert reopened.record_count == 3
        assert reopened.replay() == [{"a": 1}, {"a": 2}, {"a": 3}]
        reopened.close()

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(path)
        wal.append_many([{"a": 1}, {"a": 2}])
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # cut the last record mid-payload
        reopened = WriteAheadLog(path)
        assert reopened.replay() == [{"a": 1}]
        # appends continue cleanly after the repaired tail
        reopened.append({"a": 9})
        assert reopened.replay() == [{"a": 1}, {"a": 9}]
        reopened.close()

    def test_truncate_bumps_epoch(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal")
        wal.append({"a": 1})
        position = wal.position()
        assert records_to_skip(wal, position) == 1
        wal.truncate()
        assert wal.epoch == position["epoch"] + 1
        assert wal.record_count == 0
        # snapshot taken before the truncation no longer skips anything
        assert records_to_skip(wal, position) == 0
        wal.close()

    def test_not_a_wal_rejected(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"garbage")
        with pytest.raises(StorageError):
            WriteAheadLog(path)


# ---------------------------------------------------------------------------


class TestLocksAndLockSets:
    def test_referenced_tables_from_sql(self):
        statement = parse(
            "with recent as (select t.data->>'id' as id from tweets t) "
            "select r.id as id from recent r, users u "
            "left join badges b on b.data->>'u' = u.data->>'id'")
        assert referenced_tables(statement) == \
            {"tweets", "users", "badges"}

    def test_referenced_tables_subquery_and_union(self):
        derived = parse("select d.v as v from "
                        "(select i.data->>'v' as v from inner_t i) d")
        assert referenced_tables(derived) == {"inner_t"}
        union = parse("select a.data->>'x' as x from a a "
                      "union all select b.data->>'x' as x from b b")
        assert referenced_tables(union) == {"a", "b"}

    def test_rw_lock_readers_share_writer_excludes(self):
        import time

        lock = ReadWriteLock()
        barrier = threading.Barrier(2, timeout=10)

        def reader():
            with lock.read_locked():
                barrier.wait()  # proves both readers are inside at once

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in readers)

        observed = []
        lock.acquire_write()
        blocked = threading.Thread(target=lambda: (
            lock.acquire_read(), observed.append("read"),
            lock.release_read()))
        blocked.start()
        time.sleep(0.05)
        assert observed == []  # reader blocked while the writer holds
        lock.release_write()
        blocked.join(timeout=10)
        assert observed == ["read"]
