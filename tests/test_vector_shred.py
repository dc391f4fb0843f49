"""The vectorized heap kernel (``repro.jsonb.vector_shred``) against the
per-tuple walk it replaces on long fallback runs.

``shred_jsonb`` plus the typed getters and the scalar probes are the
oracle: for every located value the kernel must report the position the
walk reaches and the end ``skip_value`` computes, and every typed or
probed column must equal — values under the NULL mask included — the
column a ``ColumnBuilder`` builds from the getters.  The documents cover
objects with more than 250 keys, keys longer than 250 bytes, non-ASCII
keys, strings around the inline and length-width limits, every integer
payload width, all three float widths, numeric strings, literals,
nested and empty containers, and keys that sort before and after every
member; hand-built buffers cover the 4- and 8-byte offset widths the
encoder only picks for huge containers.  The scan tests drive runs of
1, ``VECTOR_MIN_ROWS - 1``, ``VECTOR_MIN_ROWS``, 255, 256 and a full
tile through selections and row spans, in memory and over heaps faulted
back in from ``.jtile`` files, and the heap tests pin the one-heap tile
payload (byte-identical checkpoints, updates visible through the heap).
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine import scan
from repro.engine.scan import _JSONB_GETTERS
from repro.jsonb import format as fmt
from repro.jsonb.access import JsonbValue, contains_probe
from repro.jsonb.decoder import skip_value
from repro.jsonb.encoder import encode
from repro.jsonb.shred import compile_paths, locate_rows, shred_jsonb
from repro.jsonb.vector_shred import (
    HeapView,
    contains_kernel,
    length_kernel,
    locate,
    typed_column,
)
from repro.storage.column import ColumnBuilder
from repro.storage.persist import load_relation, save_relation
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.tiles.tile import RowHeap
from tests.reference_scans import per_path_walk

# ----------------------------------------------------------------------
# documents

WIDE = {f"k{index:03d}": index for index in range(260)}
LONG_KEY = "L" * 300
KEYS = ["", "a", "b", "id", "text", "é", "ключ", "\U0010ffff", "k", "k130",
        "screen_name", "retweeted_status", LONG_KEY]
PATH_STEPS = KEYS + ["k000", "k259", "k999", "zz", 0, 1, 2, 3, 300, -1]

ints = (st.sampled_from([0, 7, 8, -1, 127, 128, -128, -129, 2**15 - 1, 2**15,
                         -2**23, 2**31, -2**31 - 1, 2**39, 2**47, 2**55,
                         -2**55, 2**63 - 1, -2**63])
        | st.integers(-2**63, 2**63 - 1))
floats = (st.sampled_from([0.5, -2.25, 65504.0, 1e10, 0.1, 3.4e38, 1e300,
                           float("inf"), -float("inf"), -0.0])
          | st.floats(allow_nan=False))
strings = (st.sampled_from(["", "ladygaga", "screen_name", "x" * 16,
                            "x" * 27, "y" * 28, "z" * 255, "w" * 256,
                            "v" * 2**16, "é" * 14, "12", "-3.5e2", "007",
                            "1.0", "true", "nan", "2021-03-04"])
           | st.text(max_size=6))
scalars = st.none() | st.booleans() | ints | floats | strings


def _containers(children):
    keys = st.sampled_from(KEYS) | st.text(max_size=3)
    return (st.lists(children, max_size=5)
            | st.dictionaries(keys, children, max_size=6)
            | st.just({}) | st.just([])
            | children.map(lambda value: dict(WIDE, k130=value)))


json_values = st.recursive(scalars, _containers, max_leaves=12)
documents = st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                            json_values, max_size=6) | json_values
paths = st.lists(st.lists(st.sampled_from(PATH_STEPS), min_size=1,
                          max_size=3).map(lambda steps: KeyPath(tuple(steps))),
                 min_size=1, max_size=5)

TARGETS = [ColumnType.BOOL, ColumnType.INT64, ColumnType.FLOAT64,
           ColumnType.STRING, ColumnType.DECIMAL, ColumnType.TIMESTAMP,
           ColumnType.JSONB]
NEEDLES = ["x", "", "12", "ladygaga", "screen_name", "x" * 16, "x" * 27,
           "é" * 14, 12, 1.0, True, None, [1], {}]
PROBE_KEYS = ["", "a", "text", "é", LONG_KEY, 0, 5]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def assert_same_vector(got, want):
    assert got.type == want.type
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.null_mask, want.null_mask)
    if got.data.dtype == object:
        assert got.data.tolist() == want.data.tolist()
    else:
        assert got.data.tobytes() == want.data.tobytes()


def built(values, column_type, before=0, after=0):
    builder = ColumnBuilder(column_type)
    builder.extend_nulls(before)
    for value in values:
        builder.append(value)
    builder.extend_nulls(after)
    return builder.finish()


def check_heap(heap, rows, key_paths, before=0, after=0):
    """Every kernel over the rows *rows* of *heap* equals the walk."""
    view = HeapView(heap.buf)
    plan = compile_paths(key_paths)
    starts, ends = heap.starts[rows], heap.ends[rows]
    pos, end = locate(plan, view, starts, ends)
    walked = [shred_jsonb(plan, heap.buf, int(start)) for start in starts]
    # the per-tuple locator the short runs take finds the same values
    assert locate_rows(plan, heap.buf, starts.tolist()) == \
        pos.T.ravel().tolist()
    for slot in range(len(plan)):
        for index, values in enumerate(walked):
            value = values[slot]
            if value is None:
                assert pos[slot, index] == -1
            else:
                assert pos[slot, index] == value.pos
                assert end[slot, index] == skip_value(heap.buf, value.pos)
        found = [values[slot] for values in walked]
        for target in TARGETS:
            getter = _JSONB_GETTERS[target]
            want = built([None if value is None else getter(value)
                          for value in found], target, before, after)
            assert_same_vector(typed_column(target, getter, view, pos[slot],
                                            end[slot], before, after), want)
        want = built([None if value is None else value.length()
                      for value in found], ColumnType.INT64, before, after)
        assert_same_vector(length_kernel()(view, pos[slot], end[slot],
                                           before, after), want)
        for key in PROBE_KEYS:
            for needle in NEEDLES:
                probe = contains_probe(key, needle)
                want = built([None if value is None else probe(value)
                              for value in found], ColumnType.BOOL,
                             before, after)
                got = contains_kernel(key, needle)(view, pos[slot],
                                                   end[slot], before, after)
                assert_same_vector(got, want)


class TestDifferential:
    @SETTINGS
    @given(docs=st.lists(documents, min_size=1, max_size=8), key_paths=paths,
           pads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           data=st.data())
    def test_kernels_equal_the_walk(self, docs, key_paths, pads, data):
        heap = RowHeap.from_rows([encode(doc) for doc in docs])
        rows = np.array(sorted(data.draw(st.sets(
            st.integers(0, len(docs) - 1), min_size=1))), dtype=np.int64)
        check_heap(heap, rows, key_paths, *pads)

    def test_wide_objects_and_long_keys(self):
        docs = [dict(WIDE, **{LONG_KEY: index, "é": [index, "x" * 300]})
                for index in range(5)] + [WIDE, {LONG_KEY: None}, {}]
        heap = RowHeap.from_rows([encode(doc) for doc in docs])
        check_heap(heap, np.arange(len(docs)), [
            KeyPath(("k000",)), KeyPath(("k259",)), KeyPath(("k",)),
            KeyPath(("k999",)), KeyPath(("",)), KeyPath((LONG_KEY,)),
            KeyPath(("é", 1)), KeyPath(("é", 2))])

    def test_hints_do_not_change_answers(self):
        # shapes change between calls: the search seeded from the last
        # call's slot must still find (or miss) every key
        plan = compile_paths([KeyPath(("b",)), KeyPath(("k130",))])
        for docs in ([{"b": 1}] * 4, [{"a": 0, "b": 2, "c": 3}] * 4,
                     [dict(WIDE, b=3)] * 2 + [{"c": 1}], [{"a": 1}] * 3):
            heap = RowHeap.from_rows([encode(doc) for doc in docs])
            pos, _end = locate(plan, HeapView(heap.buf), heap.starts,
                               heap.ends)
            for index, start in enumerate(heap.starts):
                walked = shred_jsonb(plan, heap.buf, int(start))
                assert [-1 if value is None else value.pos
                        for value in walked] == pos[:, index].tolist()


def test_matches_compares_every_byte():
    """``HeapView.matches`` on strings of every length up to 20 bytes
    (one word, two words, the gather) against variants differing in
    any one byte, in the heap's last bytes too."""
    text = bytes(range(65, 85))
    for size in range(21):
        target = text[:size]
        rows = [b"", b"z" * 3, target] + [
            target[:at] + b"#" + target[at + 1:] for at in range(size)]
        heap = RowHeap.from_rows(rows)
        got = HeapView(heap.buf).matches(
            heap.starts, np.frombuffer(target, dtype=np.uint8))
        assert got.tolist() == [heap.buf[start:start + size] == target
                                for start in heap.starts.tolist()]


class TestIntegerText:
    """``->>`` on an integer decodes in one numpy pass: the text of every
    inline and 1-8-byte payload equals ``JsonbValue.as_text``."""

    @SETTINGS
    @given(values=st.lists(st.integers(0, 7) | ints | st.sampled_from(
        [-(2**(8 * width - 1)) for width in range(1, 9)]
        + [2**(8 * width - 1) - 1 for width in range(1, 9)]),
        min_size=1, max_size=20),
           pads=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_equals_as_text(self, values, pads):
        heap = RowHeap.from_rows([encode({"v": value}) for value in values])
        plan = compile_paths([KeyPath(("v",))])
        pos = np.array(locate_rows(plan, heap.buf, heap.starts.tolist()),
                       dtype=np.int64)
        assert (pos >= 0).all()
        widths = {heap.buf[at] & 0x1F for at in pos.tolist()}
        got = typed_column(ColumnType.STRING, JsonbValue.as_text,
                           HeapView(heap.buf), pos, pos, *pads)
        want = built([JsonbValue(heap.buf, at).as_text()
                      for at in pos.tolist()], ColumnType.STRING, *pads)
        assert_same_vector(got, want)
        assert got.data[pads[0]:len(got) - pads[1]].tolist() == \
            [str(value) for value in values]
        assert widths <= set(range(16))


# ----------------------------------------------------------------------
# hand-built buffers with wide offsets


def _compact(value):
    buf = bytearray(fmt.compact_uint_size(value))
    fmt.write_compact_uint(buf, 0, value)
    return bytes(buf)


def _container(type_id, slots, width):
    """An object / array whose offset table uses *width*-byte entries."""
    code = fmt.OFFSET_WIDTHS.index(width)
    table, offset = [], 0
    for slot in slots:
        table.append(offset.to_bytes(width, "little"))
        offset += len(slot)
    return (bytes([fmt.make_header(type_id, code)]) + _compact(len(slots))
            + b"".join(table) + b"".join(slots))


def wide_object(members, width):
    slots = [_compact(len(key.encode())) + key.encode() + value
             for key, value in sorted(members.items(),
                                      key=lambda item: item[0].encode())]
    return _container(fmt.TYPE_OBJECT, slots, width)


def wide_array(elements, width):
    return _container(fmt.TYPE_ARRAY, elements, width)


@pytest.mark.parametrize("width", [4, 8])
def test_wide_offset_tables(width):
    rows = [
        wide_object({"a": encode(1), "tags": wide_array(
            [encode("x"), wide_object({"text": encode("y")}, width)],
            width), "z": encode(2.5)}, width),
        wide_object({"b": encode(None), "tags": wide_array([], width)},
                    width),
        wide_array([encode("x" * 40), encode(-2**40)], width),
    ]
    heap = RowHeap.from_rows(rows)
    key_paths = [KeyPath(("a",)), KeyPath(("tags",)), KeyPath(("tags", 0)),
                 KeyPath(("tags", 1, "text")), KeyPath(("z",)),
                 KeyPath((0,)), KeyPath((1,)), KeyPath(("b",))]
    check_heap(heap, np.arange(len(rows)), key_paths)
    view = HeapView(heap.buf)
    plan = compile_paths([KeyPath(("tags",))])
    pos, end = locate(plan, view, heap.starts, heap.ends)
    assert contains_kernel("text", "y")(view, pos[0], end[0], 0, 0) \
        .to_list() == [True, False, None]
    assert contains_kernel("", "x")(view, pos[0], end[0], 0, 0) \
        .to_list() == [True, False, None]


# ----------------------------------------------------------------------
# the needle prefilter stays inside its row


def test_contains_probe_is_bounded_by_the_row():
    docs = [{"tags": ["a", "b"]}, {"tags": ["c"], "other": "needle"},
            {"tags": ["needle"]}, {"tags": [{"k": "needle"}]}]
    rows = [encode(doc) for doc in docs]
    heap = RowHeap.from_rows(rows)
    path = KeyPath(("tags",))
    for key in ("", "k"):
        probe = contains_probe(key, "needle")
        for index, row in enumerate(rows):
            alone = probe(JsonbValue(row).get_path(path))
            start, end = int(heap.starts[index]), int(heap.ends[index])
            in_heap = JsonbValue(heap.buf, start).get_path(path)
            assert probe(in_heap, end) == alone
            assert probe(in_heap) == alone
    # the bounded search proves the needle absent without an element
    # scan: the first row's answer does not depend on later rows
    first = JsonbValue(heap.buf, int(heap.starts[0])).get_path(path)
    assert contains_probe("", "needle")(first, int(heap.ends[0])) is False


# ----------------------------------------------------------------------
# run lengths through the scan

TILE = 1024
CONFIG = ExtractionConfig(tile_size=TILE, partition_size=1,
                          enable_reordering=False)


def _scan_documents():
    docs = []
    for index in range(2 * TILE):
        doc = {"id": index, "kind": index % 3}
        # sparse keys (under the extraction threshold): present on rows
        # [40, 540) of the first tile and on every 97th row of the
        # second, local rows 43 .. 1013
        if 40 <= index < 540 or (index >= TILE and index % 97 == 0):
            doc["sparse"] = {"n": index, "s": f"v{index % 7}",
                             "tags": [f"t{index % 5}", index % 4]}
        if index % 5 == 0:
            doc["rare"] = float(index) / 4
        docs.append(doc)
    return docs


QUERIES = [
    "select x.data->>'id'::int as id, x.data->'sparse'->>'n'::int as n, "
    "x.data->'sparse'->>'s' as s, x.data->>'rare'::float as r, "
    "x.data->'sparse'->'tags' as tags, "
    "json_contains(x.data->'sparse'->'tags', '', 't1') as hit, "
    "json_length(x.data->'sparse'->'tags') as len "
    "from t x where x.data->>'id'::int < {limit} order by id",
    "select count(*) as c from t x where x.data->>'id'::int < {limit} "
    "and json_contains(x.data->'sparse'->'tags', '', 't3')",
    "select x.data->>'kind'::int as k, sum(x.data->'sparse'->>'n'::int) "
    "as total from t x where x.data->>'id'::int < {limit} "
    "group by x.data->>'kind'::int order by k",
]


@pytest.fixture(scope="module")
def scan_db():
    db = Database(config=CONFIG)
    db.load_table("t", _scan_documents(), StorageFormat.TILES, CONFIG)
    return db


def _run(db, sql, parallelism=1):
    return db.sql(sql, QueryOptions(tile_cache=False,
                                    parallelism=parallelism))


# Runs of 1, VECTOR_MIN_ROWS - 1 and VECTOR_MIN_ROWS rows, runs of 255
# and 256 rows (either side of the earlier 256-row threshold, both above
# the current one), a full tile and two tiles.
RUN_LIMITS = sorted({41, 40 + scan.VECTOR_MIN_ROWS - 1,
                     40 + scan.VECTOR_MIN_ROWS, 295, 296, TILE, 2 * TILE})


@pytest.mark.parametrize("limit", RUN_LIMITS)
@pytest.mark.parametrize("query", range(len(QUERIES)))
def test_run_lengths_match_the_walk(scan_db, limit, query):
    sql = QUERIES[query].format(limit=limit)
    with per_path_walk():
        want = _run(scan_db, sql)
    got = _run(scan_db, sql)
    assert got.rows == want.rows
    mine, theirs = got.counters.as_dict(), want.counters.as_dict()
    assert theirs.pop("fallback_rows_vectorized") == 0
    assert mine.pop("fallback_rows_vectorized") == \
        expected_vectorized(query, limit)
    assert mine == theirs


def expected_vectorized(query, limit):
    """Rows of the in-span runs of at least ``VECTOR_MIN_ROWS``: the
    selection is each tile's rows below *limit*, the span the union of
    the fallback paths' spans (``rare`` widens query 0's to the tile).
    Query 1 null-rejects ``sparse.tags``, so row presence keeps only
    the rows holding it: the whole span in the first tile, every 97th
    row in the second."""
    spans = [(0, 1021), (1, 1022)] if query == 0 else [(40, 540), (43, 1014)]
    total = 0
    for tile, (first, end) in enumerate(spans):
        selected = min(max(limit - tile * TILE, 0), TILE)
        run = max(0, min(selected, end) - first)
        if query == 1 and tile == 1:
            run = sum(1 for local in range(first, min(selected, end))
                      if (TILE + local) % 97 == 0)
        if run >= scan.VECTOR_MIN_ROWS:
            total += run
    return total


def test_counter_shown_in_explain_and_stats(scan_db):
    sql = QUERIES[0].format(limit=TILE)
    text = scan_db.explain(sql, QueryOptions(tile_cache=False),
                           analyze=True)
    assert f"fallback_rows_vectorized={expected_vectorized(0, TILE)}" \
        in text
    relation = scan_db.table("t")
    before = relation.scan_totals.get("fallback_rows_vectorized", 0)
    _run(scan_db, sql)
    assert relation.scan_totals["fallback_rows_vectorized"] > before


def test_parallel_scan_matches(scan_db):
    sql = QUERIES[0].format(limit=2 * TILE)
    assert _run(scan_db, sql, parallelism=4).rows == _run(scan_db, sql).rows


def test_reopened_heaps(tmp_path, scan_db):
    """Navigation over heaps faulted back in from a ``.jtile`` file."""
    db = Database(StorageFormat.TILES, CONFIG, directory=tmp_path / "db")
    db.load_table("t", _scan_documents(), StorageFormat.TILES, CONFIG)
    db.checkpoint()
    reopened = Database.open(tmp_path / "db")
    for query in QUERIES:
        sql = query.format(limit=2 * TILE)
        assert _run(reopened, sql).rows == _run(scan_db, sql).rows


# ----------------------------------------------------------------------
# the heap as the tile payload


def test_row_heap_layout():
    rows = [b"\x20", b"", b"abc" * 100]
    heap = RowHeap.from_rows(rows)
    blob = struct.pack("<I", len(rows)) + b"".join(
        struct.pack("<I", len(row)) + row for row in rows)
    assert heap.buf == blob
    again = RowHeap.from_blob(blob)
    assert again.starts.tolist() == heap.starts.tolist()
    assert again.ends.tolist() == heap.ends.tolist()
    assert again.rows() == rows
    both = heap.concat(RowHeap.from_rows([b"xy"]))
    assert both.rows() == rows + [b"xy"]
    assert both.buf == RowHeap.from_rows(rows + [b"xy"]).buf
    patched = both.replace(1, b"long row")
    assert patched.rows() == [rows[0], b"long row", rows[2], b"xy"]
    assert patched.buf == RowHeap.from_rows(patched.rows()).buf
    assert heap.rows() == rows  # the source heap is untouched
    assert RowHeap.from_rows([]).rows() == []


def test_save_load_save_is_byte_identical(tmp_path, scan_db):
    relation = scan_db.table("t")
    save_relation(relation, tmp_path / "a.jtile")
    loaded = load_relation(tmp_path / "a.jtile")
    save_relation(loaded, tmp_path / "b.jtile")
    assert (tmp_path / "a.jtile").read_bytes() == \
        (tmp_path / "b.jtile").read_bytes()
    for one, other in zip(relation.tiles, loaded.tiles):
        with one.pinned() as a, other.pinned() as b:
            assert a.heap.buf == b.heap.buf
            assert a.heap.starts.tolist() == b.heap.starts.tolist()


def test_update_is_visible_through_the_heap():
    db = Database(config=CONFIG)
    relation = db.load_table("t", _scan_documents(), StorageFormat.TILES,
                             CONFIG)
    sql = ("select x.data->'sparse'->>'s' as s from t x "
           "where x.data->>'id'::int = 300")
    cached = QueryOptions(tile_cache=True)
    GLOBAL_TILE_CACHE.clear()
    try:
        assert db.sql(sql, cached).rows == [("v6",)]
        handle = relation.tile_of_row(300)
        with handle.pinned() as tile:
            old = tile.heap
        relation.update(300, {"id": 300, "kind": 0,
                              "sparse": {"s": "changed " * 10}})
        with handle.pinned() as tile:
            assert tile.heap is not old
            local = 300 - handle.first_row
            assert JsonbValue(tile.heap.buf, int(tile.heap.starts[local])) \
                .get_path(KeyPath.parse("sparse.s")).as_text() == \
                "changed " * 10
            assert tile.heap.rows()[:local] == old.rows()[:local]
            assert tile.heap.rows()[local + 1:] == old.rows()[local + 1:]
        # the cached column of the patched tile was invalidated
        assert db.sql(sql, cached).rows == [("changed " * 10,)]
        assert db.sql(sql, QueryOptions(tile_cache=False)).rows == \
            [("changed " * 10,)]
    finally:
        GLOBAL_TILE_CACHE.clear()
