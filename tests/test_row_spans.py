"""Row spans in the tile header (DESIGN.md §5i).

Every tile header maps each key path to the rows ``[first, end)`` that
contain it.  Scans answer a path absent from the tile NULL without a
JSONB visit and decode only the union span of a fallback group.  These
tests pin

* soundness: every row where a path resolves lies inside its span,
  after every operation that builds or changes a tile;
* results: TILES equals JSONB over the four workload suites, serial and
  parallel, and a catalog written without spans reads back the same;
* accounting: ``fallback_lookups + header_nulls`` is the work a scan
  without spans does, per query.
"""

import copy
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.scan import AccessRequest, TableScan
from repro.jsonb import decode
from repro.jsonb.access import JsonbValue
from repro.storage import load_documents
from repro.storage.column import ColumnBuilder, null_vector
from repro.storage.persist import load_relation, save_relation
from repro.tiles.header import EMPTY_SPAN, TileHeader, fold_spans
from repro.workloads import hackernews, twitter, yelp
from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpch import make_database as make_tpch
from tests.reference_scans import all_conjuncts_late, per_path_walk

# a cap of 2 puts array slots 2.. above it with tiny documents
CAP = 2
SMALL = ExtractionConfig(tile_size=8, partition_size=2,
                         max_array_elements=CAP)

# every path over these steps up to depth 3 (slot 0 below the cap,
# slot 3 above it, -1 counted from the end), plus one deeper than any
# generated document
_STEPS = ("a", "b", 0, 3, -1)
PROBE_PATHS = [KeyPath((s1,)) for s1 in _STEPS] + \
    [KeyPath((s1, s2)) for s1 in _STEPS for s2 in _STEPS] + \
    [KeyPath((s1, s2, s3)) for s1 in _STEPS for s2 in _STEPS
     for s3 in _STEPS] + [KeyPath(("a",) * 6)]

_scalars = st.one_of(st.none(), st.integers(-3, 3),
                     st.sampled_from(["x", "y"]))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.sampled_from(["a", "b"]), children, max_size=2)),
    max_leaves=8)
_documents = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _values, max_size=3),
    st.lists(_values, max_size=4))


def assert_spans_sound(relation):
    """Every row where a probe or recorded path resolves — through
    ``KeyPath.lookup`` on the document or ``get_path`` on its JSONB,
    which also resolves negative slots — lies inside ``span_of``."""
    for handle in relation.tiles:
        header = handle.header
        assert header.spans is not None
        with handle.pinned() as tile:
            rows = tile.heap.rows()
        documents = [decode(row) for row in rows]
        paths = set(PROBE_PATHS) | set(header.spans)
        for path in paths:
            first, end = header.span_of(path)
            for local, (document, row) in enumerate(zip(documents, rows)):
                if path.lookup(document) is not None or \
                        JsonbValue(row).get_path(path) is not None:
                    assert first <= local < end, (path, local, first, end)


class TestSpanSoundness:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_documents, min_size=1, max_size=30),
           st.lists(_documents, max_size=12),
           st.lists(st.tuples(st.integers(0, 10**6), _documents),
                    max_size=4))
    def test_every_operation_keeps_spans_sound(self, loaded, inserted,
                                               updates):
        with tempfile.TemporaryDirectory() as directory:
            db = Database(StorageFormat.TILES, SMALL, directory=directory)
            relation = db.load_table("t", loaded, StorageFormat.TILES,
                                     SMALL)
            assert_spans_sound(relation)
            relation.insert_many(inserted)
            relation.flush_inserts()
            assert_spans_sound(relation)
            for row, document in updates:
                relation.update(row % relation.row_count, document)
            assert_spans_sound(relation)
            relation.reorganize_partition(0)
            assert_spans_sound(relation)
            if len(relation.tiles) >= 2:
                relation.compact_tiles(relation.tiles[0].tile_number, 2)
                assert_spans_sound(relation)
            relation.recompute_tile(relation.tiles[-1])
            assert_spans_sound(relation)
            db.checkpoint()
            reopened = Database.open(directory)
            assert_spans_sound(reopened.tables["t"])


class TestSpanOf:
    def header(self):
        header = TileHeader(0, 10, max_array_elements=CAP)
        header.set_leaf_spans({
            KeyPath.parse("a.b"): (2, 5),
            KeyPath.parse("a.c"): (4, 9),
            KeyPath.parse("arr[0]"): (1, 3),
            KeyPath.parse("arr[1].x"): (6, 7),
        })
        return header

    def test_exact_and_container_entries(self):
        header = self.header()
        assert header.span_of(KeyPath.parse("a.b")) == (2, 5)
        # containers are the union of their descendants
        assert header.span_of(KeyPath.parse("a")) == (2, 9)
        assert header.span_of(KeyPath.parse("arr")) == (1, 7)
        assert header.span_of(KeyPath.parse("arr[1]")) == (6, 7)

    def test_missing_paths_are_empty(self):
        header = self.header()
        for text in ("zzz", "a.d", "a.b.c", "arr[1].y", "arr[0].x"):
            assert header.span_of(KeyPath.parse(text)) == EMPTY_SPAN

    def test_slots_outside_the_cap_take_the_nearest_ancestor(self):
        header = self.header()
        assert header.span_of(KeyPath.parse("arr[2]")) == (1, 7)
        assert header.span_of(KeyPath.parse("arr[5].x.y")) == (1, 7)
        assert header.span_of(KeyPath(("arr", -1))) == (1, 7)
        # no recorded ancestor: the whole tile, never a claimed absence
        assert header.span_of(KeyPath.parse("q[7]")) == (0, 10)

    def test_root_and_unknown_spans_are_the_whole_tile(self):
        assert self.header().span_of(KeyPath()) == (0, 10)
        assert TileHeader(0, 10).span_of(KeyPath.parse("a")) == (0, 10)

    def test_update_widening_never_shrinks(self):
        header = self.header()
        header.widen_spans([KeyPath.parse("a.b"), KeyPath.parse("n.m")], 8)
        assert header.span_of(KeyPath.parse("a.b")) == (2, 9)
        assert header.span_of(KeyPath.parse("n")) == (8, 9)
        assert header.span_of(KeyPath.parse("n.m")) == (8, 9)
        assert fold_spans(header.leaf_spans) == header.spans


class TestBuilderIdenticalNulls:
    @pytest.mark.parametrize("column_type", list(ColumnType))
    def test_null_vector_equals_builder(self, column_type):
        builder = ColumnBuilder(column_type)
        builder.append_null()
        builder.extend_nulls(3)
        built = builder.finish()
        made = null_vector(column_type, 4)
        assert made.type == built.type
        assert made.data.dtype == built.data.dtype
        assert np.array_equal(made.null_mask, built.null_mask)
        assert list(made.data) == list(built.data)


# ----------------------------------------------------------------------
# results: TILES vs JSONB over the workload suites


def _normalize(rows):
    """Order-insensitive, float-tolerant form (tiles reorder rows, so
    float sums may associate differently)."""
    def norm(value):
        return float(f"{value:.6g}") if isinstance(value, float) else value

    return sorted((tuple(norm(v) for v in row) for row in rows),
                  key=lambda row: tuple((v is None, str(v)) for v in row))


TPCH_CONFIG = ExtractionConfig(tile_size=256, partition_size=4)
CONFIG = ExtractionConfig(tile_size=64, partition_size=4)


def _suites():
    return {
        "tpch": (lambda fmt: make_tpch(0.002, fmt, TPCH_CONFIG,
                                       combined=True), TPCH_QUERIES),
        "twitter": (lambda fmt: twitter.make_database(
            400, fmt, CONFIG, evolving=True, seed=3),
            twitter.TWITTER_QUERIES),
        "yelp": (lambda fmt: yelp.make_database(60, fmt, CONFIG),
                 yelp.YELP_QUERIES),
        "hackernews": (lambda fmt: hackernews.make_database(
            400, fmt, CONFIG), hackernews.HACKERNEWS_QUERIES),
    }


@pytest.fixture(scope="module", params=sorted(_suites()))
def suite(request):
    """(TILES database, queries, normalized JSONB rows per query)."""
    make, queries = _suites()[request.param]
    jsonb_db = make(StorageFormat.JSONB)
    expected = {}
    for query, text in queries.items():
        result = jsonb_db.sql(text)
        # only formats that skip tiles read the spans
        assert result.counters.header_nulls == 0
        expected[query] = _normalize(result.rows)
    return make(StorageFormat.TILES), queries, expected


def _drop_spans(relation):
    """Forget every tile's row spans: scans then decode whole tiles,
    as they did before spans existed."""
    for handle in relation.tiles:
        handle.header.leaf_spans = None
        handle.header.spans = None


class TestTilesEqualJsonb:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_suite(self, suite, parallelism):
        tiles_db, queries, expected = suite
        options = QueryOptions(parallelism=parallelism)
        for query, text in queries.items():
            assert _normalize(tiles_db.sql(text, options).rows) == \
                expected[query], query


def _drop_spans_keep_skipping(relation):
    """:func:`_drop_spans`, except that each tile still skips on a
    missing path as it did with its spans, so both sides scan the same
    tiles."""
    for handle in relation.tiles:
        handle.header.may_contain = copy.copy(handle.header).may_contain
    _drop_spans(relation)


class TestAccounting:
    """With every conjunct late (no selection vector) and the tile cache
    off, the spans move (tuple, path) resolutions from JSONB visits to
    header NULLs, and row presence those of rows lacking a skip path to
    ``presence_rows_skipped``, and change nothing else: over the tiles
    both sides scan, the sum equals the visits without spans.  (Without
    spans a tile is never skipped for a missing path, so the unspanned
    side keeps its tiles' span answers for skipping alone.)"""

    @pytest.mark.parametrize("name", ["tpch", "twitter", "yelp"])
    def test_lookups_plus_header_nulls_equal_unspanned_lookups(self, name):
        make, queries = _suites()[name]
        spanned = make(StorageFormat.TILES)
        unspanned = make(StorageFormat.TILES)
        for relation in set(unspanned.tables.values()):
            _drop_spans_keep_skipping(relation)
        options = QueryOptions(tile_cache=False)
        for query, text in queries.items():
            with all_conjuncts_late():
                with_spans = spanned.sql(text, options)
                without = unspanned.sql(text, options)
            assert with_spans.rows == without.rows, query
            got, base = with_spans.counters, without.counters
            assert base.header_nulls == 0, query
            assert got.fallback_lookups + got.header_nulls \
                + got.presence_rows_skipped == base.fallback_lookups, query
            assert got.tiles_skipped == base.tiles_skipped, query
            assert got.rows_scanned == base.rows_scanned, query

    def test_both_shred_strategies_count_alike(self):
        relation = load_documents(
            "t", [{"k": i, f"f{i % 3}": i} for i in range(300)],
            StorageFormat.TILES, CONFIG)
        requests = [AccessRequest.make("t", KeyPath.parse(text),
                                       ColumnType.INT64, True)
                    for text in ("f0", "f1", "f2", "absent")]
        results = []
        for per_path in (False, True):
            with per_path_walk(per_path):
                scan = TableScan(relation, requests)
                batch = concat_batches(list(scan.batches()))
            results.append((
                [batch.column(r.name).to_list() for r in requests],
                scan.counters.fallback_lookups, scan.counters.header_nulls))
        assert results[0] == results[1]
        assert results[0][2] >= 300  # "absent" alone is 300 header NULLs

    def test_explain_analyze_and_stats_show_header_nulls(self):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", [{"k": i} for i in range(100)])
        result = db.sql("select t.data->>'gone' as g from t t")
        assert result.counters.header_nulls == 100
        assert "header_nulls=100" in db.explain(
            "select t.data->>'gone' as g from t t", analyze=True)
        assert db.tables["t"].scan_totals["header_nulls"] >= 100


# ----------------------------------------------------------------------
# catalogs written without spans


class TestPersistedSpans:
    def test_awkward_keys_round_trip(self, tmp_path):
        # keys whose path text is ambiguous ("" next to the root, a dot
        # inside a key, a bracketed key) and root scalars / arrays
        documents = [{"": 1}, {"a.b": {"[0]": 2}}, {"a": {"b": 3}}, 5,
                     [1, [2]], {"": {"": None}}, {"k": []}, {"k": {}}]
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  ExtractionConfig(tile_size=4))
        save_relation(relation, tmp_path / "t.jtile", rebind=False)
        reopened = load_relation(tmp_path / "t.jtile")
        for before, after in zip(relation.tiles, reopened.tiles):
            assert after.header.leaf_spans == before.header.leaf_spans
            assert after.header.spans == before.header.spans
        assert_spans_sound(reopened)


class TestCatalogWithoutSpans:
    def test_reads_back_identically_and_decodes_whole_tiles(self, tmp_path):
        documents = [{"k": i, "rare": i} if i % 10 == 0 else {"k": i}
                     for i in range(256)]
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  CONFIG)
        spanned_path = tmp_path / "spanned.jtile"
        save_relation(relation, spanned_path, rebind=False)
        _drop_spans(relation)
        plain_path = tmp_path / "plain.jtile"
        save_relation(relation, plain_path, rebind=False)
        assert plain_path.stat().st_size < spanned_path.stat().st_size

        requests = [AccessRequest.make("t", KeyPath.parse(text),
                                       ColumnType.INT64, True)
                    for text in ("rare", "absent")]
        outputs = {}
        for label, path in (("spanned", spanned_path),
                            ("plain", plain_path)):
            reopened = load_relation(path)
            spans = [handle.header.spans for handle in reopened.tiles]
            scan = TableScan(reopened, requests)
            batch = concat_batches(list(scan.batches()))
            outputs[label] = ([batch.column(r.name).to_list()
                               for r in requests], scan.counters, spans)
        spanned_values, spanned_counters, spanned_spans = outputs["spanned"]
        plain_values, plain_counters, plain_spans = outputs["plain"]
        assert spanned_values == plain_values
        assert all(spans is not None for spans in spanned_spans)
        assert all(spans is None for spans in plain_spans)
        # without spans every row of every tile is decoded for both
        assert plain_counters.header_nulls == 0
        assert plain_counters.fallback_lookups == 2 * len(documents)
        assert spanned_counters.fallback_lookups + \
            spanned_counters.header_nulls == 2 * len(documents)
        assert spanned_counters.fallback_lookups < len(documents)
