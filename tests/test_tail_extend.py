"""Tests for the appendable tail tile (``repro.tiles.extend_tile``).

A flush tops up the last partial tile under its schema instead of
cutting a new tile.  Covered here:

* the differentials: an extended tile is byte-identical (through
  ``save_relation``) to ``build_tile`` over the union under the tail's
  schema, and extension is associative — over the TILES, SINEW and
  JSONB formats, with type outliers, new paths and date columns in the
  batch;
* the relation's flush rule: every tile but the last holds exactly
  ``tile_size`` rows whatever the flush timing;
* races against ``Relation._rewrite`` in both directions: no document
  is lost or duplicated;
* checkpoint -> reopen after an extension, and topping up a paged-out
  tail;
* WAL replay after SIGKILL rebuilding the same tail, and the server's
  tile count ``ceil(acked / tile_size)``.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.relation as relation_module
from repro import Database
from repro.jsonb import decode, encode
from repro.maintenance.health import HealthTracker
from repro.server import JsonTilesServer, ServerClient
from repro.storage.formats import StorageFormat
from repro.storage.persist import load_relation, save_relation
from repro.storage.relation import Relation
from repro.tiles import ExtractionConfig, TileSchema, build_tile, extend_tile

FORMATS = [StorageFormat.TILES, StorageFormat.SINEW, StorageFormat.JSONB]
SRC = Path(__file__).resolve().parents[1] / "src"


def make_document(rng: random.Random, index: int) -> dict:
    """Tweet-like documents: mostly regular, with type outliers, a
    date string, optional nested objects and arrays, and paths that
    only appear late in the stream."""
    document = {"id": index, "user": {"name": f"u{rng.randint(0, 40)}",
                                      "followers": rng.randint(0, 10**6)},
                "text": "x" * rng.randint(0, 30),
                "score": rng.random() * 100,
                "created": f"2021-0{rng.randint(1, 9)}-1{rng.randint(0, 9)} "
                           f"12:{rng.randint(10, 59)}:00"}
    if rng.random() < 0.15:
        document["score"] = "n/a"  # type outlier
    if rng.random() < 0.1:
        document["id"] = str(index)  # outlier on an extracted INT path
    if rng.random() < 0.3:
        document["tags"] = [rng.randint(0, 9)
                            for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.1:
        document["score"] = float("nan")
    if index >= 50 and rng.random() < 0.5:
        document["late"] = {"k": index, "v": [index, "s"]}  # new paths
    return document


def documents(count: int, seed: int = 1, start: int = 0) -> list:
    rng = random.Random(seed)
    return [make_document(rng, start + index) for index in range(count)]


def mined_tile(docs, config, storage_format, schema=None):
    return build_tile(docs, [encode(document) for document in docs], config,
                      3, 100, schema=schema,
                      mine=storage_format.extracts_columns)


def tile_bytes(tile, storage_format, config, path: Path) -> bytes:
    """The ``.jtile`` bytes of a one-tile relation holding *tile*."""
    relation = Relation("t", storage_format, config)
    relation.tiles.append(relation.adopt_tile(tile))
    relation.statistics.absorb_tile(tile.header.tile_number,
                                    tile.header.statistics)
    save_relation(relation, path, rebind=False)
    return path.read_bytes()


def schema_of(tile) -> TileSchema:
    return TileSchema(list(tile.header.columns.values()))


def as_text(docs) -> list:
    """Documents as JSON text (JSONB keeps keys sorted): NaN compares
    unequal to itself, its text form does not."""
    return [json.dumps(document, sort_keys=True) for document in docs]


def tile_facts(tile) -> dict:
    """What a tile stores, with dict order ignored (a ``.jtile`` load
    groups the leaf spans by span, so their order is not kept)."""
    header = tile.header
    return {
        "rows": as_text(decode(row) for row in tile.heap.rows()),
        "columns": [(meta, as_text(tile.columns[path].to_list()))
                    for path, meta in header.columns.items()],
        "key_counts": header.key_counts,
        "spans": header.leaf_spans,
        "holes": header.leaf_holes,
        "stats": {str(path): (stats.non_null_count,
                              as_text([stats.min_value, stats.max_value]),
                              stats.sketch.registers.tolist(),
                              stats.histogram and (
                                  stats.histogram.boundaries.tolist(),
                                  stats.histogram.counts.tolist()))
                  for path, stats in header.statistics.columns.items()},
    }


# ---------------------------------------------------------------------------


class TestExtendTileDifferential:
    @pytest.mark.parametrize("storage_format", FORMATS,
                             ids=lambda fmt: fmt.value)
    def test_extension_equals_rebuild_over_the_union(self, tmp_path,
                                                     storage_format):
        config = ExtractionConfig(tile_size=256)
        docs = documents(200)
        tail = mined_tile(docs[:40], config, storage_format)
        extended = tail
        for start, stop in ((40, 41), (41, 120), (120, 200)):
            extended, _delta = extend_tile(extended, docs[start:stop],
                                           config)
        rebuilt = mined_tile(docs, config, storage_format,
                             schema=schema_of(tail))
        assert tile_bytes(extended, storage_format, config,
                          tmp_path / "extended.jtile") == \
            tile_bytes(rebuilt, storage_format, config,
                       tmp_path / "rebuilt.jtile")

    @pytest.mark.parametrize("storage_format", FORMATS,
                             ids=lambda fmt: fmt.value)
    def test_extension_is_associative(self, tmp_path, storage_format):
        config = ExtractionConfig(tile_size=256)
        docs = documents(150, seed=2)
        tail = mined_tile(docs[:30], config, storage_format)
        stepwise, _ = extend_tile(tail, docs[30:90], config)
        stepwise, _ = extend_tile(stepwise, docs[90:], config)
        at_once, _ = extend_tile(tail, docs[30:], config)
        assert tile_bytes(stepwise, storage_format, config,
                          tmp_path / "a.jtile") == \
            tile_bytes(at_once, storage_format, config, tmp_path / "b.jtile")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), tail_rows=st.integers(1, 60),
           cuts=st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_any_batching_equals_rebuild(self, tmp_path_factory, seed,
                                         tail_rows, cuts):
        config = ExtractionConfig(tile_size=256)
        docs = documents(tail_rows + sum(cuts), seed=seed)
        tail = mined_tile(docs[:tail_rows], config, StorageFormat.TILES)
        extended, offset = tail, tail_rows
        for cut in cuts:
            extended, _ = extend_tile(extended, docs[offset:offset + cut],
                                      config)
            offset += cut
        rebuilt = mined_tile(docs, config, StorageFormat.TILES,
                             schema=schema_of(tail))
        directory = tmp_path_factory.mktemp("any")
        assert tile_bytes(extended, StorageFormat.TILES, config,
                          directory / "a.jtile") == \
            tile_bytes(rebuilt, StorageFormat.TILES, config,
                       directory / "b.jtile")

    def test_batch_outliers_new_paths_and_dates(self):
        config = ExtractionConfig(tile_size=256)
        clean = [{"id": index, "when": f"2021-01-0{index % 9 + 1}",
                  "v": float(index)} for index in range(20)]
        tail = mined_tile(clean, config, StorageFormat.TILES)
        columns = {str(path): meta for path, meta in tail.header.columns.items()}
        assert columns["when"].is_datetime
        assert not columns["v"].has_type_conflicts
        assert not columns["v"].nullable
        batch = [{"id": 20, "when": "2022-05-05", "v": "oops"},
                 {"id": 21, "when": "2022-05-06", "fresh": {"deep": 1}}]
        extended, delta = extend_tile(tail, batch, config)
        header = extended.header
        columns = {str(path): meta for path, meta in header.columns.items()}
        # no re-mining: the tail's schema, flags widened by the batch
        assert sorted(columns) == ["id", "v", "when"]
        assert columns["when"].is_datetime
        assert columns["v"].has_type_conflicts and columns["v"].nullable
        when = extended.columns[next(path for path in header.columns
                                     if str(path) == "when")]
        assert not when.null_mask[20:].any()  # batch dates parsed
        # the new path is unextracted and spanned
        fresh = next(path for path in header.leaf_spans
                     if str(path) == "fresh.deep")
        assert header.span_of(fresh) == (21, 22)
        assert header.may_contain(fresh)
        assert header.key_counts["fresh.deep"] == 1
        assert header.key_counts["id"] == 22
        # the delta statistics describe the batch alone
        assert delta.row_count == 2
        assert delta.key_counts["id"] == 2
        # the tail itself is untouched
        assert tail.row_count == 20 and tail.header.row_count == 20
        assert not tail.header.columns[next(
            path for path in tail.header.columns
            if str(path) == "v")].has_type_conflicts


# ---------------------------------------------------------------------------


class TestRelationFlushes:
    @pytest.mark.parametrize("storage_format", FORMATS,
                             ids=lambda fmt: fmt.value)
    def test_every_tile_but_the_last_is_full(self, storage_format):
        config = ExtractionConfig(tile_size=32, partition_size=2)
        relation = Relation("t", storage_format, config)
        relation.auto_seal = False
        docs = documents(300, seed=5)
        rng = random.Random(5)
        offset = 0
        while offset < len(docs):
            step = rng.randint(1, 45)
            relation.insert_many(docs[offset:offset + step])
            offset += step
            if rng.random() < 0.7:
                relation.flush_inserts()
            else:
                relation.seal_full_tiles()
        relation.flush_inserts()
        sizes = [tile.row_count for tile in relation.tiles]
        assert sizes == [32] * (len(docs) // 32) + [len(docs) % 32]
        assert [tile.header.tile_number for tile in relation.tiles] == \
            list(range(len(sizes)))
        assert [tile.first_row for tile in relation.tiles] == \
            [32 * index for index in range(len(sizes))]
        assert relation.statistics.row_count == len(docs)
        assert as_text(relation.documents()) == as_text(docs)

    def test_queries_match_a_single_flush(self):
        config = ExtractionConfig(tile_size=64)
        docs = documents(400, seed=7)
        topped_up, one_shot = Database(), Database()
        topped = topped_up.create_table("t", StorageFormat.TILES, config)
        once = one_shot.create_table("t", StorageFormat.TILES, config)
        once.insert_many(docs)
        once.flush_inserts()
        for start in range(0, len(docs), 23):
            topped.insert_many(docs[start:start + 23])
            topped.flush_inserts()
        for sql in ("select count(*) as n, sum(t.data->'user'->>'followers'"
                    "::int) as f from t",
                    "select t.data->>'score' as s, count(*) as n from t "
                    "group by t.data->>'score' order by n desc, s limit 5",
                    "select count(*) as n from t where t.data->>'late' "
                    "is not null"):
            assert topped_up.sql(sql).rows == one_shot.sql(sql).rows

    def test_scan_on_an_older_manifest_keeps_the_old_tail(self):
        config = ExtractionConfig(tile_size=64)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.insert_many(documents(10))
        relation.flush_inserts()
        before = relation.manifest()
        relation.insert_many(documents(5, start=10))
        relation.flush_inserts()
        after = relation.manifest()
        assert after.epoch > before.epoch
        assert len(after.tiles) == len(before.tiles) == 1
        old, new = before.tiles[0], after.tiles[0]
        assert old is not new and (old.row_count, new.row_count) == (10, 15)
        with old.pinned() as payload:  # retired, still readable
            assert payload.row_count == 10

    def test_merged_tail_is_not_extended(self):
        config = ExtractionConfig(tile_size=16)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.insert_many(documents(8))
        relation.flush_inserts()
        relation.insert_many(documents(8, start=8))
        relation.flush_inserts()
        relation.insert_many(documents(4, start=16))
        relation.flush_inserts()
        assert [tile.row_count for tile in relation.tiles] == [16, 4]
        assert relation.compact_tiles(0, 2)
        assert relation.tiles[-1].header.level == 1
        relation.insert_many(documents(3, start=20))
        relation.flush_inserts()
        assert [tile.row_count for tile in relation.tiles] == [20, 3]

    def test_health_counts_appended_rows_only(self):
        config = ExtractionConfig(tile_size=256, partition_size=8)
        relation = Relation("t", StorageFormat.TILES, config)
        tracker = HealthTracker(relation)
        batches, batch_rows = 6, 10
        for index in range(batches):
            relation.insert_many(documents(batch_rows,
                                           start=index * batch_rows))
            relation.flush_inserts()
        assert len(relation.tiles) == 1
        [record] = tracker.snapshot()
        # N batches add N x batch rows, not 10 + 20 + ... + 60
        assert record.rows_since_reorg == batches * batch_rows


# ---------------------------------------------------------------------------


class TestRacesWithRewrite:
    def _relation(self):
        config = ExtractionConfig(tile_size=64)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.insert_many(documents(20))
        relation.flush_inserts()
        relation.insert_many(documents(15, start=20))
        return relation

    def _assert_exact(self, relation, count):
        ids = sorted(int(document["id"]) for document in relation.documents())
        assert ids == list(range(count))
        assert relation.pending_inserts == 0
        assert relation.statistics.row_count == count

    def test_extension_wins_when_it_commits_first(self, monkeypatch):
        """The rewrite's commit barrier runs a flush: the extension
        swaps the tail first, so the rewrite loses its race."""
        relation = self._relation()
        tail = relation.tiles[-1]

        def barrier(rel, old_tiles, new_tiles):
            monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                                None)
            rel.flush_inserts()

        monkeypatch.setattr(relation_module, "_REWRITE_COMMIT_BARRIER",
                            barrier)
        assert not relation.recompute_tile(tail)
        assert [tile.row_count for tile in relation.tiles] == [35]
        self._assert_exact(relation, 35)

    def test_extension_retries_when_a_rewrite_commits_first(self,
                                                           monkeypatch):
        """A rewrite commits while the extension builds: the batch goes
        back to the buffer head and is sealed against the new tail."""
        relation = self._relation()
        real_extend = relation_module.extend_tile
        raced = []

        def racing_extend(tail, docs, config):
            result = real_extend(tail, docs, config)
            if not raced:
                raced.append(True)
                # the rewrite re-mines a changed row: an extension
                # spliced over it would bring the old row back
                relation.update(0, {"id": 0, "changed": True})
                assert relation.recompute_tile(relation.tiles[-1])
            return result

        monkeypatch.setattr(relation_module, "extend_tile", racing_extend)
        rewritten = []
        relation.add_event_hook(
            lambda event, rel, payload: rewritten.append(event))
        relation.flush_inserts()
        assert raced and rewritten == ["update", "rewrite", "extend"]
        assert [tile.row_count for tile in relation.tiles] == [35]
        assert relation.document(0) == {"id": 0, "changed": True}
        self._assert_exact(relation, 35)


    def test_stress_flushers_writers_and_rewrites(self):
        """More threads than cores insert, flush and recompute the tail
        at once: every document lands exactly once and every tile but
        the last is full."""
        config = ExtractionConfig(tile_size=16, partition_size=2)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.auto_seal = False
        writers, per_writer = 4, 60
        done = threading.Event()

        def writer(base):
            for index in range(per_writer):
                relation.insert({"id": base + index})
                if index % 5 == 0:
                    relation.flush_inserts()

        def rewriter():
            while not done.is_set():
                if relation.tiles:
                    relation.recompute_tile(relation.tiles[-1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer,
                                        args=(number * per_writer,))
                       for number in range(writers)]
            background = threading.Thread(target=rewriter)
            background.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            background.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not background.is_alive()
        relation.flush_inserts()
        total = writers * per_writer
        self._assert_exact(relation, total)
        sizes = [tile.row_count for tile in relation.tiles]
        assert sizes == [16] * (total // 16) + ([total % 16] if total % 16
                                                else [])


# ---------------------------------------------------------------------------


class TestPersistence:
    def test_checkpoint_reopen_then_extend_a_paged_out_tail(self, tmp_path):
        config = ExtractionConfig(tile_size=64)
        relation = Relation("t", StorageFormat.TILES, config)
        relation.insert_many(documents(100))
        relation.flush_inserts()
        relation.insert_many(documents(10, start=100))
        relation.flush_inserts()  # extension before the checkpoint
        path = tmp_path / "t.jtile"
        save_relation(relation, path)

        reopened = load_relation(path)
        tail = reopened.tiles[-1]
        assert not tail.resident and not tail.dirty  # paged out, clean
        assert [tile.row_count for tile in reopened.tiles] == [64, 46]
        reopened.insert_many(documents(30, start=110))
        reopened.flush_inserts()
        assert [tile.row_count for tile in reopened.tiles] == [64, 64, 12]
        relation.insert_many(documents(30, start=110))
        relation.flush_inserts()
        assert as_text(reopened.documents()) == as_text(relation.documents())
        # topping up the reloaded tail stores what topping up the
        # in-memory one does
        with reopened.tiles[1].pinned() as left, \
                relation.tiles[1].pinned() as right:
            assert tile_facts(left) == tile_facts(right)
        save_relation(reopened, tmp_path / "again.jtile")
        again = load_relation(tmp_path / "again.jtile")
        assert again.row_count == 140
        assert again.statistics.row_count == 140


# ---------------------------------------------------------------------------


def _spawn_server(data_dir: Path, log_path: Path) -> tuple:
    with open(log_path, "w") as log:  # the child keeps its own copy
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(data_dir), "--port", "0",
             "--query-workers", "2", "--checkpoint-interval", "3600"],
            stdout=log, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        text = log_path.read_text()
        if "listening on " in text:
            address = text.split("listening on ")[1].split()[0]
            return process, int(address.rsplit(":", 1)[1])
        assert process.poll() is None, text
        time.sleep(0.02)
    process.kill()
    raise AssertionError("server did not start")


TAIL_CONFIG = {"tile_size": 32, "partition_size": 2}
SUM_SQL = ("select count(*) as n, sum(x.data->>'id'::int) as s, "
           "count(x.data->>'late') as l from t x")


class TestServer:
    def test_tile_count_is_ceil_of_acked(self, tmp_path):
        server = JsonTilesServer(tmp_path / "data", wal_sync=False,
                                 query_workers=2)
        server.start_in_thread()
        try:
            with ServerClient(port=server.port) as client:
                client.create_table("t", "tiles", TAIL_CONFIG)
                rng = random.Random(3)
                acked = 0
                for _ in range(25):
                    step = rng.randint(1, 20)
                    client.insert_many("t", [{"id": acked + index}
                                             for index in range(step)])
                    acked += step
                    assert client.query(
                        "select count(*) as n from t x").scalar() == acked
                table = client.stats()["tables"]["t"]
                assert table["tiles"] == math.ceil(acked / 32)
            sizes = [tile.row_count for tile in server._base["t"].tiles]
            assert all(size == 32 for size in sizes[:-1])
        finally:
            server.stop_in_thread()

    def test_wal_replay_after_sigkill_rebuilds_the_tail(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = _spawn_server(data_dir, tmp_path / "first.log")
        try:
            with ServerClient(port=port) as client:
                client.create_table("t", "tiles", TAIL_CONFIG)
                client.insert_many("t", documents(40))
                client.query(SUM_SQL)  # flush: tiles [32, 8]
                client.checkpoint()
                for start in range(40, 75, 7):  # top-ups after it
                    client.insert_many("t", documents(7, start=start))
                    expected = client.query(SUM_SQL).rows
                before = client.stats()["tables"]["t"]
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        assert (before["tiles"], before["rows"]) == (3, 75)

        process, port = _spawn_server(data_dir, tmp_path / "second.log")
        try:
            with ServerClient(port=port) as client:
                assert client.query(SUM_SQL).rows == expected
                after = client.stats()["tables"]["t"]
                assert (after["tiles"], after["rows"]) == (3, 75)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
