"""Tests for on-disk persistence (save/load of relations)."""

import struct

import numpy as np
import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.errors import StorageError
from repro.storage.persist import (
    load_relation,
    open_database,
    save_database,
    save_relation,
)

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def tweets(n):
    return [{"id": i, "create": "2020-06-01", "text": f"tweet {i}" * 3,
             "user": {"id": i % 17}, "score": float(i) / 3}
            for i in range(n)]


class TestRelationRoundTrip:
    @pytest.mark.parametrize("storage_format", [
        StorageFormat.JSON, StorageFormat.JSONB, StorageFormat.SINEW,
        StorageFormat.TILES,
    ])
    def test_documents_survive(self, tmp_path, storage_format):
        db = Database(storage_format, CONFIG)
        relation = db.load_table("t", tweets(100))
        path = tmp_path / "t.jtile"
        size = save_relation(relation, path)
        assert size > 0
        restored = load_relation(path)
        assert restored.row_count == 100
        assert list(restored.documents()) == list(relation.documents())

    def test_extracted_columns_survive(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(100))
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        for original, loaded in zip(relation.tiles, restored.tiles):
            assert set(original.columns) == set(loaded.columns)
            for path in original.columns:
                assert original.column(path).to_list() == \
                    loaded.column(path).to_list()
                original_meta = original.header.columns[path]
                loaded_meta = loaded.header.columns[path]
                assert original_meta.column_type == loaded_meta.column_type
                assert original_meta.is_datetime == loaded_meta.is_datetime

    def test_statistics_survive(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(100))
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        path = KeyPath.parse("user.id")
        assert restored.statistics.row_count == 100
        assert restored.statistics.key_count(path) == \
            relation.statistics.key_count(path)
        assert restored.statistics.distinct(path) == \
            pytest.approx(relation.statistics.distinct(path))

    def test_bloom_filters_survive(self, tmp_path):
        db = Database(StorageFormat.TILES,
                      ExtractionConfig(tile_size=32, threshold=0.9))
        docs = tweets(64)
        docs[0]["rare_key"] = 1  # below threshold -> row spans only
        relation = db.load_table("t", docs)
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        assert restored.tiles[0].header.may_contain(KeyPath.parse("rare_key"))
        assert not restored.tiles[0].header.may_contain(
            KeyPath.parse("never_there"))

    def test_tiles_star_children_survive(self, tmp_path):
        db = Database(StorageFormat.TILES_STAR, CONFIG)
        docs = [{"id": i, "tags": [{"v": j} for j in range(i % 6)]}
                for i in range(64)]
        relation = db.load_table("t", docs,
                                 array_paths=[KeyPath.parse("tags")])
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        assert "tags" in restored.children
        assert restored.children["tags"].row_count == \
            relation.children["tags"].row_count

    def test_pending_inserts_round_trip(self, tmp_path):
        """Buffered (unsealed) inserts survive save/load as a buffer —
        no forced seal of an undersized tile, no dropped rows."""
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(32))
        relation.insert({"id": 999, "fresh": True})
        tiles_before = len(relation.tiles)
        save_relation(relation, tmp_path / "t.jtile")
        assert len(relation.tiles) == tiles_before  # save did not seal
        restored = load_relation(tmp_path / "t.jtile")
        assert restored.pending_inserts == 1
        assert restored.snapshot_insert_buffer() == \
            [{"id": 999, "fresh": True}]
        restored.flush_inserts()
        assert restored.row_count == 33
        assert restored.document(32) == {"id": 999, "fresh": True}

    def test_pending_inserts_queryable_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", tweets(40))
        db.table("t").insert_many([{"id": 1000 + i} for i in range(5)])
        save_database(db, tmp_path / "store")
        reopened = open_database(tmp_path / "store")
        relation = reopened.table("t")
        assert relation.pending_inserts == 5
        relation.flush_inserts()
        assert reopened.sql("select count(*) as n from t x").scalar() == 45

    def test_save_relation_extra_round_trip(self, tmp_path):
        from repro.storage.persist import read_relation_extra

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(32))
        path = tmp_path / "t.jtile"
        save_relation(relation, path, extra={"wal": {"epoch": 3,
                                                     "records": 17}})
        assert read_relation_extra(path) == {"wal": {"epoch": 3,
                                                     "records": 17}}
        save_relation(relation, path)
        assert read_relation_extra(path) == {}
        # the extra dict rides in the catalog, not in the relation
        assert load_relation(path).row_count == 32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.jtile"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StorageError):
            load_relation(path)

    def test_truncated_file_rejected(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(50))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(StorageError):
            load_relation(path)


def format_fixture(version):
    """Path of ``tests/fixtures/format_<version>.jtile`` and the parsed
    expected results stored next to it."""
    import json
    from pathlib import Path

    directory = Path(__file__).parent / "fixtures"
    expected = json.loads((directory / f"format_{version}_expected.json")
                          .read_text("utf-8"))
    return directory / f"format_{version}.jtile", expected


class TestFormatV1Compatibility:
    """The committed pre-refactor fixture must load through the new
    lazy reader: ``format_v1.jtile`` was written by the v1
    (leading-catalog, ``blob_sizes``) serializer before the footer
    index existed."""

    FIXTURE_QUERY = ("select count(*) as n, "
                     "sum(o.data->>'score'::float) as s from old o "
                     "where o.data->'user'->>'id'::int >= 3")

    @pytest.fixture
    def fixture_paths(self):
        return format_fixture("v1")

    def test_v1_file_loads_with_expected_shape(self, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        assert relation.row_count == expected["row_count"]
        assert relation.pending_inserts == expected["pending"]
        assert len(relation.tiles) == expected["tiles"]

    def test_v1_file_loads_lazily(self, fixture_paths):
        path, _expected = fixture_paths
        relation = load_relation(path)
        # v1 blobs are addressable from their cumulative sizes: no
        # tile payload is faulted in by the load itself
        assert not any(handle.resident for handle in relation.tiles)
        assert all(handle.disk_bytes > 0 for handle in relation.tiles)

    def test_v1_query_results_match(self, fixture_paths):
        path, expected = fixture_paths
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", load_relation(path))
        rows = [list(row) for row in db.sql(self.FIXTURE_QUERY).rows]
        assert rows == expected["query"]

    def test_v1_rewrites_as_v4(self, tmp_path, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        new_path = tmp_path / "upgraded.jtile"
        save_relation(relation, new_path)
        assert new_path.read_bytes()[:5] == b"JTIL4"
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", load_relation(new_path))
        rows = [list(row) for row in db.sql(self.FIXTURE_QUERY).rows]
        assert rows == expected["query"]


class TestFormatV2Compatibility:
    """``format_v2.jtile`` was written by the v2 serializer (raw blobs,
    strings as length-prefixed copies): 48 documents with multi-byte,
    empty and mixed-type strings in three 16-row tiles, plus one
    pending insert.  The expected JSON holds the rows the v2 code
    returned for each query."""

    @pytest.fixture
    def fixture_paths(self):
        return format_fixture("v2")

    @staticmethod
    def query_rows(relation, sql):
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", relation)
        return [list(row) for row in db.sql(sql).rows]

    def test_v2_file_loads_lazily_with_expected_shape(self, fixture_paths):
        path, expected = fixture_paths
        assert path.read_bytes()[:5] == b"JTIL2"
        relation = load_relation(path)
        assert not any(handle.resident for handle in relation.tiles)
        assert all(handle.disk_bytes > 0 for handle in relation.tiles)
        assert relation.row_count == expected["row_count"]
        assert relation.pending_inserts == expected["pending"]
        assert len(relation.tiles) == expected["tiles"]
        # no per-kind tally in a v2 catalog
        assert "stored" not in relation.size_report()

    def test_v2_query_results_match(self, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        for sql, rows in expected["queries"].items():
            assert self.query_rows(relation, sql) == rows

    def test_v2_rewrites_as_v4(self, tmp_path, fixture_paths):
        path, expected = fixture_paths
        old = load_relation(path)
        new_path = tmp_path / "upgraded.jtile"
        save_relation(old, new_path)
        assert new_path.read_bytes()[:5] == b"JTIL4"
        upgraded = load_relation(new_path)
        assert list(upgraded.documents()) == list(old.documents())
        assert_tiles_identical(old, upgraded)
        for sql, rows in expected["queries"].items():
            assert self.query_rows(upgraded, sql) == rows


class TestFormatV3Compatibility:
    """``format_v3.jtile`` was written by the v3 serializer (rows that
    hold every value, string columns as refs into the row heap): 48
    documents in three 16-row tiles — multi-byte, empty and absent
    strings, a float column with string outliers and integers, JSON
    nulls, numeric strings, dates, an array of objects (a repeated
    column) — plus one pending insert.  The expected JSON holds the
    documents and the rows the v3 code returned for each query."""

    @pytest.fixture
    def fixture_paths(self):
        return format_fixture("v3")

    def test_v3_file_loads_lazily_with_expected_shape(self, fixture_paths):
        path, expected = fixture_paths
        assert path.read_bytes()[:5] == b"JTIL3"
        relation = load_relation(path)
        assert not any(handle.resident for handle in relation.tiles)
        assert relation.row_count == expected["row_count"]
        assert relation.pending_inserts == expected["pending"]
        assert len(relation.tiles) == expected["tiles"]
        stored = relation.size_report()["stored"]
        assert stored["string_refs"] > 0
        assert sum(stored.values()) == path.stat().st_size

    def test_v3_documents_and_query_results_match(self, fixture_paths):
        from repro.jsonb import encode

        path, expected = fixture_paths
        relation = load_relation(path)
        assert [encode(document) for document in relation.documents()] \
            == [encode(document) for document in expected["documents"]]
        for sql, rows in expected["queries"].items():
            assert TestFormatV2Compatibility.query_rows(relation, sql) \
                == rows, sql

    def test_v3_rewrites_as_v4(self, tmp_path, fixture_paths):
        path, expected = fixture_paths
        old = load_relation(path)
        new_path = tmp_path / "upgraded.jtile"
        save_relation(old, new_path)
        assert new_path.read_bytes()[:5] == b"JTIL4"
        upgraded = load_relation(new_path)
        assert list(upgraded.documents()) == expected["documents"]
        assert_tiles_identical(old, upgraded)
        for sql, rows in expected["queries"].items():
            assert TestFormatV2Compatibility.query_rows(upgraded, sql) \
                == rows, sql


class TestFormatV4Compatibility:
    """``format_v4.jtile`` was written by the first v4 serializer, which
    also stored a §4.4 bloom filter blob and per-block zone maps
    (``block_rows`` / ``block_bounds``) per tile: the documents of the
    v3 fixture in three 16-row tiles, plus one pending insert.  The
    reader ignores those keys; the row spans answer absent paths.  The
    expected JSON holds the documents and the rows that code returned
    for each query."""

    ABSENT = ("select count(*) as n from old o "
              "where o.data->'user'->>'missing'::int >= 0")

    @pytest.fixture
    def fixture_paths(self):
        return format_fixture("v4")

    def test_v4_file_with_bloom_and_block_bounds_loads(self, fixture_paths):
        import json

        path, expected = fixture_paths
        raw = path.read_bytes()
        assert raw[:5] == b"JTIL4"
        length = struct.unpack("<Q", raw[-13:-5])[0]
        catalog = json.loads(raw[-13 - length:-13])
        assert all({"bloom", "block_rows", "block_bounds"} <= set(meta)
                   for meta in catalog["tiles"])
        relation = load_relation(path)
        assert not any(handle.resident for handle in relation.tiles)
        assert relation.row_count == expected["row_count"]
        assert relation.pending_inserts == expected["pending"]
        assert len(relation.tiles) == expected["tiles"]
        stored = relation.size_report()["stored"]
        assert stored["bloom"] > 0  # still counted, under its own kind
        assert sum(stored.values()) == path.stat().st_size

    def test_v4_documents_and_query_results_match(self, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        assert list(relation.documents()) == expected["documents"]
        for sql, rows in expected["queries"].items():
            assert TestFormatV2Compatibility.query_rows(relation, sql) \
                == rows, sql
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", relation)
        assert db.sql(self.ABSENT).counters.tiles_skipped == len(
            relation.tiles)

    def test_v4_rewrites_without_bloom(self, tmp_path, fixture_paths):
        path, expected = fixture_paths
        old = load_relation(path)
        new_path = tmp_path / "rewritten.jtile"
        size = save_relation(old, new_path)
        assert size < path.stat().st_size
        rewritten = load_relation(new_path)
        assert "bloom" not in rewritten.size_report()["stored"]
        assert list(rewritten.documents()) == expected["documents"]
        assert_tiles_identical(old, rewritten)
        for sql, rows in expected["queries"].items():
            assert TestFormatV2Compatibility.query_rows(rewritten, sql) \
                == rows, sql


def assert_tiles_identical(left, right):
    """Every tile of *right* holds exactly *left*'s payload: JSONB rows,
    column types, null masks and every non-NULL value (type included);
    NULL slots of string columns hold None."""
    assert len(left.tiles) == len(right.tiles)
    for one, other in zip(left.tiles, right.tiles):
        with one.pinned() as a, other.pinned() as b:
            assert a.heap.buf == b.heap.buf
            assert a.heap.rows() == b.heap.rows()
            assert list(a.columns) == list(b.columns)
            for path, column in a.columns.items():
                loaded = b.columns[path]
                assert loaded.type == column.type
                assert loaded.data.dtype == column.data.dtype
                assert np.array_equal(loaded.null_mask, column.null_mask)
                for value, restored, null in zip(
                        column.data, loaded.data, column.null_mask):
                    if not null:
                        assert type(restored) is type(value)
                        assert restored == value
                    elif column.data.dtype == object:
                        assert restored is None


def sample_dataset(kind):
    """An empty database, a table name, seeded documents and queries
    over them, per dataset."""
    from repro.workloads import tpch, twitter, yelp

    config = ExtractionConfig(tile_size=128, partition_size=2)
    db = Database(StorageFormat.TILES, config)
    if kind == "yelp":
        table, queries = "yelp", dict(yelp.YELP_QUERIES)
        documents = yelp.YelpGenerator(30, seed=3).combined()
    elif kind == "twitter":
        table, queries = "tweets", dict(twitter.TWITTER_QUERIES)
        documents = twitter.TwitterGenerator(600, seed=5,
                                             evolving=True).stream()
    else:
        table = "tpch"
        queries = {"flags": (
            "select l.data->>'l_returnflag' as flag, count(*) as n "
            "from tpch l where l.data->>'l_returnflag' is not null "
            "group by l.data->>'l_returnflag' order by flag")}
        documents = tpch.generate_combined(0.002, seed=9)
    queries["count"] = f"select count(*) as n from {table} x"
    return db, table, documents, queries


class TestFormatV3:
    """Shared strings and compressed blobs: the file is a fraction of
    the JSON text and every value comes back exactly."""

    @pytest.mark.parametrize("kind", ["yelp", "twitter", "tpch"])
    def test_round_trip_is_exact(self, tmp_path, kind):
        import json

        db, table, documents, queries = sample_dataset(kind)
        relation = db.load_table(table, documents)
        expected = {name: db.sql(sql).rows for name, sql in queries.items()}
        db.directory = tmp_path / "store"
        db.checkpoint()
        reopened = Database.open(tmp_path / "store")
        restored = reopened.table(table)
        assert_tiles_identical(relation, restored)
        assert list(restored.documents()) == list(relation.documents())
        for name, sql in queries.items():
            assert reopened.sql(sql).rows == expected[name], name
        doc_bytes = sum(len(json.dumps(document).encode("utf-8"))
                        for document in documents)
        stored = (tmp_path / "store" / f"{table}.jtile").stat().st_size
        assert stored < doc_bytes

    def test_strings_multibyte_empty_and_stringified(self, tmp_path):
        from repro.core.types import ColumnType

        db = Database(StorageFormat.TILES, CONFIG)
        documents = [{"name": ["ámbar", "", "日本語 ✓", "plain"][i % 4],
                      "emoji": "🎉" * (i % 3), "n": i} for i in range(64)]
        relation = db.load_table("t", documents)
        tile = relation.tiles[0].pin()
        name = tile.columns[KeyPath.parse("name")]
        assert name.type == ColumnType.STRING
        # values no row holds still come back from the dictionary
        name.data[0] = "stringified 12345 ✓"
        name.data[5] = "9"
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        restored = load_relation(path)
        assert_tiles_identical(relation, restored)
        relation.tiles[0].unpin()
        stored = restored.size_report()["stored"]
        assert stored["string_columns"] > 0
        assert restored.tiles[0].column(KeyPath.parse("name")).value(0) == \
            "stringified 12345 ✓"

    def test_string_refs_round_trip_bytes_and_nulls(self):
        """The v3 refs reader: values sliced out of the row heap, or
        out of the overflow blob in order."""
        from repro.core.types import ColumnType
        from repro.storage.persist import _OVERFLOW, _resolve_string_refs
        from repro.tiles.tile import RowHeap

        rows = [b"\x01abc", b"xyz\xc3\xa9", b"", b"zz"]
        heap = RowHeap.from_rows(rows)
        starts = heap.starts.tolist()
        refs = np.array([[starts[0] + 2, 2], [starts[1] + 3, 2],
                         [_OVERFLOW, 9], [0, 0]], dtype="<u4").tobytes()
        nulls = np.array([False, False, False, True])
        restored = _resolve_string_refs(refs, heap.buf, b"not there",
                                        nulls, ColumnType.JSONB)
        assert list(restored) == [b"bc", b"\xc3\xa9", b"not there", None]

    def test_string_columns_round_trip_bytes_and_nulls(self):
        from repro.core.types import ColumnType
        from repro.storage.column import ColumnVector
        from repro.storage.persist import (_restore_string_column,
                                           _string_column)

        for values, column_type in (
                ([b"bc", b"\xc3\xa9", b"bc", None], ColumnType.JSONB),
                (["zz", "é", "", None, "zz", "a"], ColumnType.STRING),
                ([f"v{i}" for i in range(300)], ColumnType.STRING)):
            data = np.empty(len(values), dtype=object)
            data[:] = values
            nulls = np.array([value is None for value in values])
            blob, count = _string_column(ColumnVector(column_type, data,
                                                      nulls))
            assert count == len({value for value in values
                                 if value is not None})
            restored = _restore_string_column(blob, count, nulls,
                                              column_type)
            assert list(restored) == values

    def test_checkpoints_are_byte_identical(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(100))
        relation.insert({"id": 1000})
        save_relation(relation, tmp_path / "a.jtile")
        save_relation(relation, tmp_path / "b.jtile")
        assert (tmp_path / "a.jtile").read_bytes() == \
            (tmp_path / "b.jtile").read_bytes()

    def test_stored_breakdown_sums_to_file_size(self, tmp_path):
        from repro.storage.persist import BLOB_KINDS

        db = Database(StorageFormat.TILES_STAR, CONFIG)
        documents = [{"id": i, "text": f"tweet {i} ü", "score": i / 3,
                      "tags": [{"v": j} for j in range(i % 4)]}
                     for i in range(100)]
        relation = db.load_table("t", documents,
                                 array_paths=[KeyPath.parse("tags")])
        relation.insert({"id": 1000})
        assert "stored" not in relation.size_report()  # never saved
        path = tmp_path / "t.jtile"
        size = save_relation(relation, path)
        for report in (relation.size_report(),
                       load_relation(path).size_report()):
            stored = report["stored"]
            assert set(stored) == set(BLOB_KINDS) | {"catalog"}
            assert sum(stored.values()) == size == path.stat().st_size
            for kind in ("row_heap", "string_columns", "fixed_columns",
                         "null_bitmaps", "statistics", "insert_buffer",
                         "catalog"):
                assert stored[kind] > 0, kind

    def test_residency_charges_loaded_bytes(self, tmp_path):
        from repro.storage.tilestore import TileStore, tile_nbytes

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(128))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        store = TileStore(None)
        restored = load_relation(path, store=store)
        for before, handle in zip(relation.tiles, restored.tiles):
            assert 0 < handle.disk_bytes < handle.nbytes
            # strings are refs on disk but full objects once loaded:
            # the paged charge is the loaded tile's, the same as the
            # dirty tile's before the checkpoint
            assert handle.nbytes == before.nbytes
            with handle.pinned() as tile:
                assert handle.nbytes == tile_nbytes(tile)
        assert store.resident_bytes == sum(h.nbytes for h in restored.tiles)
        report = restored.size_report()
        assert report["disk_bytes"] == sum(h.disk_bytes
                                           for h in restored.tiles)

    def test_corrupt_compressed_blob_rejected(self, tmp_path):
        from repro.storage.persist import _open_catalog

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(64))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        catalog, index = _open_catalog(path)
        offset, _length, codec, _decoded = index[catalog["tiles"][0]["rows"]]
        assert catalog["codecs"][codec] == "zlib"
        data = bytearray(path.read_bytes())
        data[offset + 4] ^= 0xFF  # inside the first tile's row heap
        path.write_bytes(bytes(data))
        restored = load_relation(path)  # headers are elsewhere
        with pytest.raises(StorageError):
            restored.tiles[0].pin()


class TestTornFileSafety:
    def test_failed_save_leaves_previous_snapshot_intact(
            self, tmp_path, monkeypatch):
        from repro.storage import persist

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(64))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(persist, "_relation_meta", explode)
        bigger = db.load_table("t2", tweets(96))
        with pytest.raises(RuntimeError):
            save_relation(bigger, path)
        # the crash hit the temp sibling; the published file is whole
        assert path.read_bytes() == good
        assert load_relation(path).row_count == 64

    def test_save_replaces_atomically(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        path = tmp_path / "t.jtile"
        save_relation(db.load_table("a", tweets(32)), path)
        save_relation(db.load_table("b", tweets(64)), path)
        assert load_relation(path).row_count == 64
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_missing_trailer_rejected(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(50))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        data = path.read_bytes()
        # flip the trailer magic: the file length is right but the
        # completeness proof is gone
        path.write_bytes(data[:-5] + b"XXXXX")
        with pytest.raises(StorageError):
            load_relation(path)


class TestDatabaseRoundTrip:
    def test_queries_identical_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("tweets", tweets(120))
        db.load_table("users", [{"uid": i, "name": f"u{i}"}
                                for i in range(17)])
        query = ("select u.data->>'name' as name, count(*) as n, "
                 "sum(t.data->>'score'::float) as s "
                 "from tweets t, users u "
                 "where t.data->'user'->>'id'::int = u.data->>'uid'::int "
                 "group by u.data->>'name' order by n desc, name limit 5")
        expected = db.sql(query).rows

        written = save_database(db, tmp_path / "store")
        assert set(written) == {"tweets", "users"}
        reopened = open_database(tmp_path / "store")
        assert reopened.sql(query).rows == expected

    def test_children_not_saved_twice(self, tmp_path):
        db = Database(StorageFormat.TILES_STAR, CONFIG)
        docs = [{"id": i, "tags": [{"v": j} for j in range(i % 6)]}
                for i in range(64)]
        db.load_table("t", docs, array_paths=[KeyPath.parse("tags")])
        written = save_database(db, tmp_path / "store")
        assert set(written) == {"t"}  # the child rides inside t.jtile
        reopened = open_database(tmp_path / "store")
        assert "t__tags" in reopened.tables

    def test_skipping_still_works_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        docs = [{"kind_a": i} for i in range(64)] + \
               [{"kind_b": i} for i in range(64)]
        db.load_table("mixed", docs,
                      config=ExtractionConfig(tile_size=32,
                                              enable_reordering=False))
        save_database(db, tmp_path / "store")
        reopened = open_database(tmp_path / "store")
        result = reopened.sql("select count(*) as n from mixed m "
                              "where m.data->>'kind_b'::int >= 0")
        assert result.scalar() == 64
        assert result.counters.tiles_skipped >= 2
