"""One copy of every value (DESIGN.md §3, ``repro.tiles.tile``).

A tile's row heap leaves out every leaf an extracted INT64 / FLOAT64 /
STRING / BOOL column holds exactly; :meth:`Tile.documents` and
:meth:`Tile.full_rows` put the column values back.  Covered here:

* byte identity: for generated documents (nested objects, JSON nulls,
  type outliers, integers in float columns, arrays, numeric strings,
  dates, NaN and -0.0), the JSONB of every merged document equals the
  original's, byte for byte, after a load in every extracting format,
  ``extend_tile``, ``update``, compaction and a ``.jtile`` round trip
  (the v3 fixture load is in ``test_persist.py``);
* what the heap keeps: outliers, JSON nulls, date and numeric-string
  text, arrays and emptied objects;
* a differential of ``->``, ``->>``, ``json_length``, ``json_contains``
  and every cast over JSON / JSONB / Sinew / Tiles / Tiles-*;
* the casts a string column shares with the JSONB getters, and
  ``->`` of equal-length arrays over several batches.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.core.types import ColumnType
from repro.jsonb import decode, encode
from repro.jsonb.access import JsonbValue
from repro.jsonb.vector_shred import HeapView, typed_column
from repro.storage.formats import StorageFormat
from repro.storage.persist import load_relation, save_relation
from repro.tiles import ExtractionConfig
from repro.tiles.tile import RowHeap

CONFIG = ExtractionConfig(tile_size=8, partition_size=2, threshold=0.4,
                          enable_reordering=False)
EXTRACTING = (StorageFormat.TILES, StorageFormat.SINEW,
              StorageFormat.TILES_STAR)
ALL_FORMATS = (StorageFormat.JSON, StorageFormat.JSONB) + EXTRACTING

texts = st.one_of(
    st.sampled_from(["x", "é", "", "12", "1e3", "2.5", "-0", "true", "t",
                     "2020-06-01", "2020-06-01 12:30:00", "日本語 ✓"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
leaves = st.one_of(st.integers(-5, 5), st.integers(-2**63, 2**63 - 1),
                   st.floats(width=64), st.just(-0.0), st.booleans(),
                   st.none(), texts)
objects = st.fixed_dictionaries(
    {}, optional={"x": leaves, "y": leaves,
                  "w": st.fixed_dictionaries({}, optional={"v": leaves})})
values = st.one_of(leaves, objects, st.lists(st.one_of(leaves, objects),
                                             max_size=3))
drawn_documents = st.fixed_dictionaries(
    {}, optional={"i": values, "f": values, "s": values, "b": values,
                  "d": values, "n": values, "o": st.one_of(objects, values),
                  "a": values})


def regular(index: int) -> dict:
    """A document of consistent types: every tile mines INT64, FLOAT64,
    STRING, BOOL, TIMESTAMP and DECIMAL columns, nested ones included."""
    return {"i": index, "f": index / 4, "s": f"s{index % 3}",
            "b": index % 2 == 0, "d": f"2020-06-{index % 28 + 1:02d}",
            "n": f"{index}.25", "o": {"x": index % 5, "y": "é" * (index % 2),
                                      "w": {"v": index * 1.5}},
            "a": [index, {"x": "q"}]}


def mixed(drawn) -> list:
    """Two regular documents per drawn one."""
    docs = []
    for document in drawn:
        docs.extend([regular(len(docs)), regular(len(docs) + 1), document])
    return docs


def full_bytes(documents) -> list:
    return [encode(document) for document in documents]


def assert_complete(relation, documents):
    """The relation's documents are *documents*: the same JSONB bytes,
    and decoded in the JSONB key order."""
    got = list(relation.documents())
    assert full_bytes(got) == full_bytes(documents)
    assert [json.dumps(document) for document in got] == \
        [json.dumps(decode(encode(document))) for document in documents]
    for row in (0, len(documents) - 1):
        assert encode(relation.document(row)) == encode(documents[row])


def load(documents, storage_format=StorageFormat.TILES, config=CONFIG):
    db = Database(storage_format, config)
    db.load_table("t", documents, storage_format, config)
    return db


# ----------------------------------------------------------------------


class TestByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(drawn=st.lists(drawn_documents, min_size=1, max_size=12))
    def test_load_extend_update_compact_and_round_trip(self, tmp_path_factory,
                                                        drawn):
        docs = mixed(drawn)
        for storage_format in EXTRACTING:
            relation = load(docs, storage_format).table("t")
            assert_complete(relation, docs)
        # the heap leaves out what the columns hold
        relation = load(docs).table("t")
        with relation.tiles[0].pinned() as tile:
            assert tile.heap.payload_bytes() < tile.jsonb_size_bytes()

        # extend_tile: a tail topped up in two flushes
        db = Database(StorageFormat.TILES, CONFIG)
        extended = db.create_table("t")
        half = len(docs) // 2 + 1
        for batch in (docs[:half], docs[half:]):
            extended.insert_many(batch)
            extended.flush_inserts()
        assert_complete(extended, docs)

        # update: rows swap documents, outliers included
        updated = list(docs)
        for row in range(0, len(docs), 2):
            updated[row] = docs[len(docs) - 1 - row]
            relation.update(row, updated[row])
        assert_complete(relation, updated)

        # compaction re-mines the merged documents
        first = relation.tiles[0].header.tile_number
        if len(relation.tiles) >= 2:
            assert relation.compact_tiles(first, 2)
        assert_complete(relation, updated)

        # a .jtile v4 round trip
        path = tmp_path_factory.mktemp("v4") / "t.jtile"
        save_relation(relation, path)
        assert path.read_bytes()[:5] == b"JTIL4"
        assert_complete(load_relation(path), updated)

    def test_heap_keeps_what_no_column_holds(self):
        docs = [regular(index) for index in range(8)]
        docs[3]["f"] = 7            # an integer in a FLOAT64 column
        docs[4]["s"] = None         # JSON null
        docs[5]["i"] = "five"       # an outlier
        docs[6]["o"] = {}           # an empty object
        relation = load(docs).table("t")
        with relation.tiles[0].pinned() as tile:
            kinds = {str(path): meta.column_type.name
                     for path, meta in tile.header.columns.items()}
            rows = [decode(row) for row in tile.heap.rows()]
            assert kinds["d"] == "TIMESTAMP" and kinds["n"] == "DECIMAL"
            assert kinds["o.w.v"] == "FLOAT64" and kinds["b"] == "BOOL"
            assert rows[0] == {"a": [0, {"x": "q"}], "d": "2020-06-01",
                               "n": "0.25", "o": {"w": {}}}
            assert rows[3]["f"] == 7 and "f" not in rows[2]
            assert rows[4]["s"] is None
            assert rows[5]["i"] == "five"
            assert rows[6]["o"] == {}
        assert_complete(relation, docs)


# ----------------------------------------------------------------------
# the differential over every format

PATHS = ("i", "f", "s", "b", "d", "n", "o", "o'->'x", "o'->'w", "o'->'w'->'v",
         "a", "missing")
CASTS = ("", "::int", "::float", "::bool", "::timestamp", "::text")


def differential_queries():
    texts = []
    for path in PATHS:
        access = f"t.data->'{path}'"
        texts.append(access)
        leaf = access.rsplit("->", 1)
        for cast in CASTS:
            texts.append(f"{leaf[0]}->>{leaf[1]}{cast}")
        texts.append(f"json_length({access})")
        texts.append(f"json_contains({access}, 'x', 'q')")
        texts.append(f"json_contains({access}, '', 1)")
    return [f"select t.data->'i' as id, {text} as v from t t" for text in texts]


class TestFormatDifferential:
    @settings(max_examples=25, deadline=None)
    @given(drawn=st.lists(drawn_documents, min_size=1, max_size=10))
    def test_every_access_agrees_across_formats(self, drawn):
        docs = mixed(drawn)
        dbs = {storage_format: load(docs, storage_format)
               for storage_format in ALL_FORMATS}
        options = QueryOptions(tile_cache=False, batch_rows=8)
        for text in differential_queries():
            results = {storage_format: db.sql(text, options).rows
                       for storage_format, db in dbs.items()}
            expected = [repr(row) for row in results[StorageFormat.JSONB]]
            for storage_format in EXTRACTING + (StorageFormat.JSON,):
                assert [repr(row) for row in results[storage_format]] == \
                    expected, (storage_format, text)

    def test_tile_cache_and_sampling_read_complete_rows(self):
        docs = mixed([{"o": {"x": "q"}}, {"o": 3}] * 4)
        db = load(docs)
        jsonb = load(docs, StorageFormat.JSONB)
        for options in (QueryOptions(tile_cache=True),
                        QueryOptions(enable_sampling=True, sample_size=9)):
            for text in ("select t.data->'o' as o from t t "
                         "where json_length(t.data->'o') > 2",
                         "select count(*) as n from t t "
                         "where t.data->>'f'::bool"):
                assert db.sql(text, options).rows == \
                    jsonb.sql(text, options).rows, text


# ----------------------------------------------------------------------


class TestSharedCasts:
    def test_string_column_reads_numeric_strings_like_the_jsonb(self):
        docs = [{"k": "x"}] * 10 + [{"k": "1e3"}, {"k": "2.5"}, {"k": " 7"},
                                    {"k": "1"}, {"k": "t"}, {"k": "1e400"}]
        for target, want in (("int", [1000, 2, 7, 1, None, None]),
                             ("bool", [None, None, None, True, True, None])):
            text = f"select t.data->>'k'::{target} as v from t t"
            for storage_format in ALL_FORMATS:
                rows = load(docs, storage_format).sql(text).rows
                assert [row[0] for row in rows[10:]] == want, \
                    (storage_format, target)

    def test_numeric_text_decode_equals_the_getters(self):
        texts = ["901.00", "1e3", "2.5", "-0", "1e400", "-1e400",
                 "99999999999999999999", "12", "0.1"]
        heap = RowHeap.from_rows([encode(text) for text in texts])
        pos = heap.starts
        for target, getter in ((ColumnType.FLOAT64, JsonbValue.as_float),
                               (ColumnType.DECIMAL, JsonbValue.as_float),
                               (ColumnType.INT64, JsonbValue.as_int)):
            got = typed_column(target, getter, HeapView(heap.buf), pos, pos)
            for index, text in enumerate(texts):
                value = getter(JsonbValue(encode(text)))
                if value is not None and target == ColumnType.INT64 \
                        and not -2**63 <= value < 2**63:
                    value = None
                assert got.value(index) == value, (target, text)

    def test_equal_length_arrays_stay_lists_over_batches(self):
        docs = [{"v": ["x"]}, {"v": ["y"]}] * 6
        for storage_format in ALL_FORMATS:
            rows = load(docs, storage_format).sql(
                "select t.data->'v' as v from t t",
                QueryOptions(batch_rows=4)).rows
            assert rows == [(["x"],), (["y"],)] * 6, storage_format
            assert all(type(row[0]) is list for row in rows)
