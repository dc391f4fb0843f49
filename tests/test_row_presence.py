"""Per-row key presence in the tile header (DESIGN.md §5i).

Every tile header knows, per key path, exactly which rows contain it:
the path's row span plus, when the span has holes, a row bitmap.
Scans drop the rows that lack a path a pushed-down conjunct
null-rejects before any fallback decode.  These tests pin

* exactness: ``rows_of(path)`` is the set of rows holding the path
  (JSON null included) for every recorded path and every probe path
  within the array cap, and a superset for slots above the cap and
  negative slots — after every operation that builds or changes a
  tile, and after a checkpoint and reopen;
* results: TILES equals JSONB over the workload suites with the
  row-level narrowing in force, and files written without presence
  read back to the same answers;
* the aggregate-derived tile skipping rule: a tile is skipped only
  when *every* aggregate of a global aggregation reads a path it lacks,
  single-node and through the partial (scatter / gather) executor.
"""

import json
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.engine.partial import (
    classify_block,
    execute_partial,
    merge_partial_results,
)
from repro.jsonb import decode, encode
from repro.jsonb.access import JsonbValue
from repro.mining.dictionary import ItemSink
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import load_documents
from repro.storage.persist import load_relation, save_relation
from repro.tiles.extractor import TileSchema, build_tile, extend_tile
from repro.tiles.header import unpack_rows
from tests.test_row_spans import _normalize, _suites

CAP = 2
SMALL = ExtractionConfig(tile_size=8, partition_size=2,
                         max_array_elements=CAP)

# every path over these steps up to depth 3: slot 0 below the cap,
# slot 3 above it, -1 counted from the end
_STEPS = ("a", "b", 0, 3, -1)
PROBE_PATHS = [KeyPath((s1,)) for s1 in _STEPS] + \
    [KeyPath((s1, s2)) for s1 in _STEPS for s2 in _STEPS] + \
    [KeyPath((s1, s2, s3)) for s1 in _STEPS for s2 in _STEPS
     for s3 in _STEPS]

_scalars = st.one_of(st.none(), st.integers(-3, 3),
                     st.sampled_from(["x", "y"]))
# empty objects and arrays are leaves of their own; a path can be an
# empty array in one row and a non-empty container in the next
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.sampled_from(["a", "b"]), children, max_size=2)),
    max_leaves=8)
_documents = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _values, max_size=3),
    st.lists(_values, max_size=4))


def holds(document, path: KeyPath) -> bool:
    """Does *document* contain *path* (``KeyPath.lookup``'s walk, with
    a JSON null value counting as present)?"""
    current = document
    for step in path.steps:
        if isinstance(step, str):
            if not isinstance(current, dict) or step not in current:
                return False
        elif not isinstance(current, list) or not 0 <= step < len(current):
            return False
        current = current[step]
    return True


def _exact(path: KeyPath) -> bool:
    """Paths whose every array step lies in ``[0, CAP)``: recorded by
    the key-path collection, so presence is exact for them."""
    return all(0 <= step < CAP for step in path.steps
               if isinstance(step, int))


def assert_presence_exact(relation):
    for handle in relation.tiles:
        header = handle.header
        assert header.leaf_holes is not None
        with handle.pinned() as tile:
            # the complete rows: a heap leaves out what columns hold
            rows = tile.full_rows(range(tile.row_count)).rows()
        documents = [decode(row) for row in rows]
        for path in set(PROBE_PATHS) | set(header.spans):
            got = header.rows_of(path)
            assert got.dtype == bool and len(got) == len(documents)
            want = np.array([holds(document, path)
                             for document in documents], dtype=bool)
            if _exact(path):
                assert np.array_equal(got, want), (path, got, want)
            else:
                # sound: every row resolving the path, also through
                # negative JSONB slots, is in the answer
                resolves = want | np.array(
                    [JsonbValue(row).get_path(path) is not None
                     for row in rows], dtype=bool)
                assert not (resolves & ~got).any(), path
            first, end = header.span_of(path)
            assert not got[:first].any() and not got[end:].any(), path


def presence(header):
    return header.leaf_spans, header.leaf_holes


class TestExactness:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_documents, min_size=1, max_size=30),
           st.lists(_documents, max_size=12),
           st.lists(st.tuples(st.integers(0, 10**6), _documents),
                    max_size=4))
    def test_every_operation_keeps_presence_exact(self, loaded, inserted,
                                                  updates):
        with tempfile.TemporaryDirectory() as directory:
            db = Database(StorageFormat.TILES, SMALL, directory=directory)
            relation = db.load_table("t", loaded, StorageFormat.TILES,
                                     SMALL)
            assert_presence_exact(relation)
            relation.insert_many(inserted)
            relation.flush_inserts()
            assert_presence_exact(relation)
            for row, document in updates:
                relation.update(row % relation.row_count, document)
            assert_presence_exact(relation)
            relation.reorganize_partition(0)
            assert_presence_exact(relation)
            if len(relation.tiles) >= 2:
                relation.compact_tiles(relation.tiles[0].tile_number, 2)
                assert_presence_exact(relation)
            relation.recompute_tile(relation.tiles[-1])
            assert_presence_exact(relation)
            db.checkpoint()
            reopened = Database.open(directory)
            assert_presence_exact(reopened.tables["t"])
            for before, after in zip(relation.tiles,
                                     reopened.tables["t"].tiles):
                assert presence(after.header) == presence(before.header)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_documents, min_size=1, max_size=8),
           st.lists(_documents, max_size=8),
           st.lists(_documents, max_size=8))
    def test_tail_extension_is_associative(self, tail, first, second):
        def built(documents):
            sink = ItemSink(CAP)
            rows = [encode(document, sink=sink) for document in documents]
            return build_tile(documents, rows, SMALL, 0, 0,
                              encoded=(sink.dictionary, sink.transactions))

        head = built(tail)
        stepwise, _ = extend_tile(head, first, SMALL)
        stepwise, _ = extend_tile(stepwise, second, SMALL)
        at_once, _ = extend_tile(head, first + second, SMALL)
        assert presence(stepwise.header) == presence(at_once.header)
        # and equal to building the concatenation under the same schema
        whole = tail + first + second
        sink = ItemSink(CAP)
        rows = [encode(document, sink=sink) for document in whole]
        rebuilt = build_tile(whole, rows, SMALL, 0, 0,
                             schema=TileSchema(
                                 list(head.header.columns.values())),
                             encoded=(sink.dictionary, sink.transactions))
        assert presence(at_once.header) == presence(rebuilt.header)

    def test_container_that_is_also_an_empty_array(self):
        # ``entities.user_mentions``: [] in some rows (a leaf of its
        # own), objects in others (only descendants are recorded)
        documents = [{"e": {"m": []}}, {"e": {"m": [{"n": 1}]}}, {"k": 1},
                     {"e": {"m": [{"n": 2}, {"n": 3}]}}, {"e": {}},
                     {"e": {"m": []}}, {"k": 2}, {"k": 3}]
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  ExtractionConfig(tile_size=8,
                                                   enable_reordering=False))
        (handle,) = relation.tiles
        header = handle.header
        got = header.rows_of(KeyPath.parse("e.m")).tolist()
        assert got == [True, True, False, True, False, True, False, False]
        assert header.rows_of(KeyPath.parse("e")).tolist() == \
            [True, True, False, True, True, True, False, False]
        assert header.rows_of(KeyPath.parse("e.m[0].n")).tolist() == \
            [False, True, False, True, False, False, False, False]
        # the empty-array leaf alone has holes; its span is the union's
        assert header.span_of(KeyPath.parse("e.m")) == (0, 6)

    def test_update_removes_and_adds_rows(self):
        documents = [{"k": i, "a": i} for i in range(8)]
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  ExtractionConfig(tile_size=8,
                                                   enable_reordering=False))
        header = relation.tiles[0].header
        path = KeyPath.parse("a")
        assert header.rows_of(path).all()
        assert header.leaf_holes == {}
        relation.update(3, {"k": 3})
        assert header.rows_of(path).tolist() == [True] * 3 + [False] \
            + [True] * 4
        relation.update(3, {"k": 3, "a": {"deep": 1}})
        assert header.rows_of(path).all()
        assert header.rows_of(KeyPath.parse("a.deep")).tolist() == \
            [False] * 3 + [True] + [False] * 4
        assert_presence_exact(relation)


# ----------------------------------------------------------------------
# the scan: row-level narrowing


def _sparse_db(directory=None):
    documents = [{"id": i, "sparse": {"n": i}} if i % 7 == 0
                 else {"id": i} for i in range(512)]
    db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=128),
                  directory=directory)
    db.load_table("t", documents)
    return db


SPARSE_SQL = ("select count(*) as n, sum(t.data->'sparse'->>'n'::int) "
              "as s from t t where t.data->'sparse'->>'n'::int >= 0")


class TestRowNarrowing:
    def test_rows_lacking_a_rejected_path_are_not_decoded(self):
        db = _sparse_db()
        options = QueryOptions(tile_cache=False)
        narrowed = db.sql(SPARSE_SQL, options)
        plain = db.sql(SPARSE_SQL, QueryOptions(tile_cache=False,
                                                enable_skipping=False))
        expected = sum(i for i in range(512) if i % 7 == 0)
        assert narrowed.rows == plain.rows == [(74, expected)]
        got, base = narrowed.counters, plain.counters
        assert got.fallback_lookups == 74
        assert base.fallback_lookups == 512
        assert got.fallback_lookups + got.header_nulls \
            + got.presence_rows_skipped == base.fallback_lookups
        assert "presence_rows_skipped=" in db.explain(
            SPARSE_SQL, options, analyze=True)
        assert db.tables["t"].scan_totals["presence_rows_skipped"] > 0

    def test_conflict_patching_visits_only_rows_holding_the_path(self):
        # an extracted INT column with string outliers, absent on
        # every fourth row: the absent rows are stored NULL too
        documents = []
        for i in range(256):
            if i % 4 == 0:
                documents.append({"id": i})
            elif i % 9 == 0:
                documents.append({"id": i, "x": f"s{i}"})
            else:
                documents.append({"id": i, "x": i})
        db = Database(StorageFormat.TILES, ExtractionConfig(tile_size=256))
        db.load_table("t", documents)
        (handle,) = db.tables["t"].tiles
        meta = handle.header.columns[KeyPath.parse("x")]
        assert meta.has_type_conflicts
        sql = "select t.data->>'x' as x from t t"
        patched = db.sql(sql, QueryOptions(tile_cache=False))
        walked = db.sql(sql, QueryOptions(tile_cache=False,
                                          enable_skipping=False))
        assert sorted(patched.rows, key=str) == sorted(walked.rows, key=str)
        outliers = sum(1 for i in range(256) if i % 4 and i % 9 == 0)
        assert patched.counters.fallback_lookups == outliers
        assert walked.counters.fallback_lookups == 64 + outliers
        assert patched.counters.header_nulls == 64

    def test_tiles_equal_jsonb_over_the_suites(self):
        narrowed = 0
        for name, (make, queries) in sorted(_suites().items()):
            jsonb_db = make(StorageFormat.JSONB)
            tiles_db = make(StorageFormat.TILES)
            for query, text in queries.items():
                result = tiles_db.sql(text, QueryOptions(tile_cache=False))
                narrowed += result.counters.presence_rows_skipped
                assert _normalize(result.rows) == \
                    _normalize(jsonb_db.sql(text).rows), (name, query)
        assert narrowed > 0


# ----------------------------------------------------------------------
# files written before presence


def _strip_presence(path):
    """Rewrite a ``.jtile`` as a writer without presence wrote it: no
    ``holes`` entries and no presence blob (the file's last blob)."""
    data = path.read_bytes()
    magic = data[-5:]
    (footer_len,) = struct.unpack("<Q", data[-13:-5])
    footer_start = len(data) - 13 - footer_len
    catalog = json.loads(data[footer_start:-13])
    for tile in catalog["tiles"]:
        tile.pop("holes", None)
    catalog.pop("presence")
    blobs_end = catalog["blob_index"].pop()[0]
    catalog["stored"].pop("presence")
    footer = json.dumps(catalog, separators=(",", ":")).encode("utf-8")
    path.write_bytes(data[:blobs_end] + footer
                     + struct.pack("<Q", len(footer)) + magic)


class TestOlderFiles:
    def test_spans_count_as_full_and_answers_stay(self, tmp_path):
        db = _sparse_db()
        relation = db.tables["t"]
        assert any(handle.header.leaf_holes for handle in relation.tiles)
        target = tmp_path / "t.jtile"
        save_relation(relation, target, rebind=False)
        exact = load_relation(target)
        _strip_presence(target)
        older = load_relation(target)
        for before, new, old in zip(relation.tiles, exact.tiles,
                                    older.tiles):
            assert presence(new.header) == presence(before.header)
            assert old.header.leaf_holes is None
            assert old.header.leaf_spans == before.header.leaf_spans
            for path in before.header.spans:
                first, end = before.header.span_of(path)
                rows = old.header.rows_of(path)
                assert rows[first:end].all()
                assert not rows[:first].any() and not rows[end:].any()
        options = QueryOptions(tile_cache=False)
        for reopened, narrows in ((exact, True), (older, False)):
            check = Database(StorageFormat.TILES, ExtractionConfig(
                tile_size=128))
            check.register("t", reopened)
            result = check.sql(SPARSE_SQL, options)
            assert result.rows == db.sql(SPARSE_SQL, options).rows
            assert (result.counters.presence_rows_skipped > 0) == narrows

    def test_hole_bitmaps_round_trip(self, tmp_path):
        db = _sparse_db()
        relation = db.tables["t"]
        save_relation(relation, tmp_path / "t.jtile", rebind=False)
        reopened = load_relation(tmp_path / "t.jtile")
        path = KeyPath.parse("sparse.n")
        for before, after in zip(relation.tiles, reopened.tiles):
            holes = after.header.leaf_holes
            first, end = after.header.span_of(path)
            assert unpack_rows(holes[path], end - first).tolist() == \
                unpack_rows(before.header.leaf_holes[path],
                            end - first).tolist()


# ----------------------------------------------------------------------
# aggregate-derived tile skipping


AGGREGATE_DOCS = [{"b": 1}] * 4 + [{"a": 10, "b": 2}] * 4
AGGREGATE_QUERIES = {
    "select sum(t.data->>'a'::int) as sa, sum(t.data->>'b'::int) as sb "
    "from t t": [(40, 12)],
    "select max(t.data->>'a'::int) as ma, count(t.data->>'b'::int) as cb "
    "from t t": [(10, 8)],
    # one aggregate alone may still skip the tile lacking its path
    "select sum(t.data->>'a'::int) as sa from t t": [(40,)],
}


@pytest.fixture(scope="module")
def aggregate_db():
    config = ExtractionConfig(tile_size=4, enable_reordering=False)
    db = Database(StorageFormat.TILES, config)
    db.load_table("t", AGGREGATE_DOCS, StorageFormat.TILES, config)
    return db


class TestAggregateSkipping:
    @pytest.mark.parametrize("sql", sorted(AGGREGATE_QUERIES))
    def test_single_node(self, aggregate_db, sql):
        result = aggregate_db.sql(sql)
        assert result.rows == AGGREGATE_QUERIES[sql]
        single = "," not in sql.split(" from ")[0]
        assert result.counters.tiles_skipped == (1 if single else 0)

    @pytest.mark.parametrize("sql", sorted(AGGREGATE_QUERIES))
    def test_partial_execution(self, aggregate_db, sql):
        options = QueryOptions()
        block = Binder(aggregate_db.tables, options).bind(parse(sql))
        mode = classify_block(block)
        result = execute_partial(block, options, shard_index=0,
                                 shard_count=1)
        _columns, rows = merge_partial_results(block, mode,
                                               result["pieces"])
        assert [tuple(row) for row in rows] == AGGREGATE_QUERIES[sql]
