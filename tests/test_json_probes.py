"""``json_contains`` / ``json_length`` pushed into the scan as probes.

The byte kernels in ``repro.jsonb.access`` must answer exactly what the
Python definitions in ``repro.engine.functions`` answer for the decoded
value (Python ``==``: ``1 == 1.0 == True``, a missing member reads as
``None``), and every storage format must return the same rows with the
multi-path shredder on or off and the tile cache on or off.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.engine.functions import json_contains, json_length
from repro.engine.plan import ScanSource
from repro.errors import SqlBindError
from repro.jsonb.access import JsonbValue
from repro.jsonb.encoder import encode
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.workloads import twitter

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)

LONG = "a string well past the twenty-seven byte inline limit"
KEYS = ["k", "text", "ü", "id"]
NEEDLES = ["x", "y", "ünï ✓", "", "123", "1.5", LONG, 0, 1, 2, 1.0, 1.5,
           -7, 2**40, True, False, None]

scalars = (st.sampled_from(NEEDLES) | st.integers(-300, 300)
           | st.floats(allow_nan=False, width=32) | st.text(max_size=30))
members = st.dictionaries(st.sampled_from(KEYS + ["other"]),
                          scalars | st.lists(scalars, max_size=3),
                          max_size=4)
elements = scalars | members | st.lists(scalars, max_size=3)
values = st.lists(elements, max_size=12) | scalars | members


def view(value):
    return JsonbValue(encode(value))


class TestByteKernels:
    @settings(max_examples=400, deadline=None)
    @given(values, st.sampled_from(KEYS + [""]), st.sampled_from(NEEDLES))
    def test_contains_matches_python(self, value, key, needle):
        assert view(value).contains(key, needle) == \
            json_contains(value, key, needle)

    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_length_matches_python(self, value):
        assert view(value).length() == json_length(value)

    @pytest.mark.parametrize("needle", [1, 1.0, True])
    def test_numeric_equality_is_pythons(self, needle):
        array = [{"k": 1}, {"k": "1"}]
        assert view(array).contains("k", needle) is True
        assert view([True]).contains("", needle) is True
        assert view([{"k": 2.5}]).contains("k", needle) is False

    def test_missing_member_reads_as_none(self):
        array = [{"other": 1}, 5, "k"]
        assert view(array).contains("k", None) is True
        assert view([5, "k"]).contains("k", None) is False
        assert view([{"k": None}]).contains("k", None) is True

    def test_container_needle_compares_decoded(self):
        assert view([[1, 2], {"k": [1]}]).contains("", [1, 2]) is True
        assert view([{"k": [1]}]).contains("k", [1.0]) is True
        assert view([[1, 2]]).contains("", [2, 1]) is False

    def test_numeric_string_is_a_string(self):
        assert view([{"k": "123"}]).contains("k", "123") is True
        assert view([{"k": "123"}]).contains("k", 123) is False
        assert view([{"k": 123}]).contains("k", "123") is False

    def test_long_strings_and_large_arrays(self):
        array = [{"k": f"{LONG}-{index}"} for index in range(300)]
        assert view(array).contains("k", f"{LONG}-299") is True
        assert view(array).contains("k", f"{LONG}-300") is False
        assert view(list(range(300))).contains("", 299) is True
        assert view(list(range(300))).length() == 300

    def test_needle_outside_the_array_still_scans_exactly(self):
        # the prefilter finds "y" in a later member, the scan says no
        document = {"a": [{"k": "x"}], "b": "y"}
        array = JsonbValue(encode(document)).get("a")
        assert array.contains("k", "y") is False
        assert array.contains("k", "x") is True

    def test_non_arrays(self):
        assert view(None).contains("k", "x") is None
        assert view({"k": "x"}).contains("k", "x") is False
        assert view("x").contains("", "x") is False
        assert view(None).length() is None
        assert view(3).length() is None
        assert view({"a": 1, "b": 2}).length() == 2
        # __len__ keeps counting scalars as empty
        assert len(view(3)) == 0

    def test_non_string_key_never_names_a_member(self):
        assert view([{"1": "x"}]).contains(1, "x") == \
            json_contains([{"1": "x"}], 1, "x") is False
        assert view([{"1": "x"}]).contains(1, None) is True


# ----------------------------------------------------------------------
# SQL: every format, shredder on and off, against the Python definition


def _documents():
    docs = []
    for index in range(96):
        doc = {"id": index}
        kind = index % 8
        if kind == 0:
            doc["arr"] = index  # scalar in some tuples, array in others
        elif kind == 1:
            doc["arr"] = None
        elif kind == 2:
            doc["arr"] = {"k": "x"}
        elif kind != 3:  # kind 3: absent
            doc["arr"] = [{"k": ["x", "y", "ünï ✓", 1, 1.0, True][
                (index + j) % 6], "n": j} for j in range(index % 5)]
            doc["arr"].append(index % 3)
        doc["nest"] = {"tags": ["x", "123", LONG][: index % 4]}
        docs.append(doc)
    return docs


DOCS = _documents()
PROBE_SQL = [
    ("json_contains(x.data->'arr', 'k', 'x')",
     lambda d: json_contains(d.get("arr"), "k", "x")),
    ("json_contains(x.data->'arr', 'k', 'ünï ✓')",
     lambda d: json_contains(d.get("arr"), "k", "ünï ✓")),
    ("json_contains(x.data->'arr', 'k', 1)",
     lambda d: json_contains(d.get("arr"), "k", 1)),
    ("json_contains(x.data->'arr', 'k', true)",
     lambda d: json_contains(d.get("arr"), "k", True)),
    ("json_contains(x.data->'arr', 'k', null)",
     lambda d: json_contains(d.get("arr"), "k", None)),
    ("json_contains(x.data->'arr', '', 2)",
     lambda d: json_contains(d.get("arr"), "", 2)),
    ("json_contains(x.data->'nest'->'tags', '', '123')",
     lambda d: json_contains(d["nest"]["tags"], "", "123")),
    ("json_length(x.data->'arr')",
     lambda d: json_length(d.get("arr"))),
    ("json_length(x.data->'nest'->'tags')",
     lambda d: json_length(d["nest"]["tags"])),
]
FORMATS = [StorageFormat.TILES, StorageFormat.JSONB, StorageFormat.SINEW,
           StorageFormat.JSON]


@pytest.fixture(scope="module")
def databases():
    out = {}
    for fmt in FORMATS:
        db = Database(config=CONFIG)
        db.load_table("t", DOCS, fmt)
        out[fmt] = db
    return out


def run_sql(db, sql, **options):
    """Run *sql*; with ``tile_cache`` on, from an empty cache (a miss
    decodes whole tiles, the selection applies to the cached vectors)."""
    GLOBAL_TILE_CACHE.clear()
    try:
        return db.sql(sql, QueryOptions(**options))
    finally:
        GLOBAL_TILE_CACHE.clear()


class TestSqlDifferential:
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_select_matches_python(self, databases, fmt, cache):
        columns = ", ".join(f"{sql} as c{i}"
                            for i, (sql, _f) in enumerate(PROBE_SQL))
        result = run_sql(
            databases[fmt],
            f"select x.data->>'id'::int as id, {columns} from t x "
            f"order by id", tile_cache=cache)
        expected = [(doc["id"], *(reference(doc)
                                  for _sql, reference in PROBE_SQL))
                    for doc in DOCS]
        assert result.rows == expected

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_filter_with_extracted_conjunct(self, databases, fmt, cache):
        # the extracted conjunct runs first (late materialization); the
        # probe only sees the surviving rows.  Plan-time sampling
        # evaluates the probe on sampled documents too.
        result = run_sql(
            databases[fmt],
            "select count(*) as n from t x where x.data->>'id'::int > 40 "
            "and json_contains(x.data->'arr', 'k', 'y')",
            tile_cache=cache, enable_sampling=True)
        assert result.scalar() == sum(
            1 for doc in DOCS if doc["id"] > 40
            and json_contains(doc.get("arr"), "k", "y"))

    def test_probe_beside_the_json_value(self, databases):
        result = databases[StorageFormat.TILES].sql(
            "select x.data->>'id'::int as id, x.data->'arr' as arr, "
            "json_length(x.data->'arr') as n from t x order by id")
        assert result.rows == [
            (doc["id"], doc.get("arr"), json_length(doc.get("arr")))
            for doc in DOCS]

    def test_derived_table_operand(self, databases):
        result = databases[StorageFormat.TILES].sql(
            "select s.id as id, json_contains(s.arr, 'k', 'x') as c, "
            "json_length(s.arr) as n from (select x.data->>'id'::int as id, "
            "x.data->'arr' as arr from t x) s order by id")
        assert result.rows == [
            (doc["id"], json_contains(doc.get("arr"), "k", "x"),
             json_length(doc.get("arr"))) for doc in DOCS]


class TestBinding:
    def test_probe_request_replaces_the_json_request(self, databases):
        text = databases[StorageFormat.TILES].explain(
            "select count(*) as n from t x "
            "where json_contains(x.data->'arr', 'k', 'x')")
        assert "arr :: json_contains('k', 'x')" in text
        assert "arr :: JSONB" not in text
        assert "skip on ['arr']" in text

    def test_non_literal_registers_nothing(self, databases, monkeypatch):
        registered = []
        original = ScanSource.request

        def spy(self, path, *args, **kwargs):
            registered.append(path)
            return original(self, path, *args, **kwargs)

        monkeypatch.setattr(ScanSource, "request", spy)
        for sql in ("json_contains(x.data->'arr', x.data->>'id', 'y')",
                    "json_contains(x.data->'arr', 'k')",
                    "json_length(x.data->'arr', 1)"):
            with pytest.raises(SqlBindError):
                databases[StorageFormat.TILES].sql(
                    f"select count(*) as n from t x where {sql}")
        assert registered == []


class TestTileCache:
    def test_two_needles_on_one_path_do_not_share_entries(self):
        db = Database(config=CONFIG)
        db.load_table("t", DOCS)
        options = QueryOptions(tile_cache=True)
        GLOBAL_TILE_CACHE.clear()
        try:
            counts = []
            for needle in ("x", "y", "x"):
                result = db.sql(
                    "select count(*) as n from t x where "
                    f"json_contains(x.data->'arr', 'k', '{needle}')",
                    options)
                counts.append(result.scalar())
                assert counts[-1] == sum(
                    1 for doc in DOCS
                    if json_contains(doc.get("arr"), "k", needle))
            assert counts[0] != counts[1]
            # the repeated first needle is served from the cache
            assert result.counters.cache_hits > 0
            assert result.counters.cache_misses == 0
        finally:
            GLOBAL_TILE_CACHE.clear()


class TestTwitterCounters:
    """The probe visits the rows and paths the JSONB request visited."""

    @pytest.fixture(scope="class")
    def db(self):
        return twitter.make_database(
            600, StorageFormat.TILES,
            ExtractionConfig(tile_size=64, partition_size=4),
            evolving=True, seed=3)

    # rows of the JSONB-decoding implementation.  It visited 640 rows.
    # Tiles 1-9 (576 rows) store the probed array as a repeated column
    # (DESIGN.md §5h) and answer from its codes without a JSONB visit.
    # Tile 0 mined no slot column of it: its header's row spans answer
    # the 24 rows outside the array's span NULL (header_nulls), and of
    # the 40 in the span, the rows that lack the probed (null-rejected)
    # array are dropped by row presence and never walked.
    @pytest.mark.parametrize("query, rows", [(3, [(144,)]), (4, [(155,)])])
    def test_same_rows_and_work(self, db, query, rows):
        result = db.sql(twitter.TWITTER_QUERIES[query],
                        QueryOptions(tile_cache=False))
        assert result.rows == rows
        counters = result.counters
        dropped = counters.presence_rows_skipped
        assert (counters.fallback_lookups + dropped, counters.header_nulls,
                counters.shred_paths + dropped, counters.tiles_skipped,
                counters.tiles_total) == (40, 24, 40, 1, 11)
        assert dropped > 0
        assert sum(handle.row_count for handle in db.table("tweets").tiles
                   if handle.header.repeated) == 576


# ----------------------------------------------------------------------
# non-finite floats and out-of-range integers on the fallback paths


class TestNonFiniteFloats:
    @staticmethod
    def documents():
        docs = [{"id": i, "x": float(i)} for i in range(40)]
        # rare nested key: never extracted, always a fallback lookup
        docs[3]["y"] = {"a": float("nan")}
        docs[5]["y"] = {"a": float("inf")}
        docs[7]["y"] = {"a": float("-inf")}
        docs[8]["x"] = float("nan")
        docs[9]["x"] = float("-inf")
        return docs

    @pytest.mark.parametrize("fmt", [StorageFormat.TILES,
                                     StorageFormat.JSONB,
                                     StorageFormat.JSON],
                             ids=lambda f: f.name)
    def test_text_int_and_float_access(self, fmt):
        db = Database(config=CONFIG)
        db.load_table("t", self.documents(), fmt)
        rows = db.sql(
            "select x.data->>'id'::int as id, x.data->'y'->>'a' as a, "
            "x.data->'y'->>'a'::int as ai, x.data->'y'->>'a'::float as af, "
            "x.data->>'x' as xt, x.data->>'x'::int as xi from t x "
            "where x.data->>'id'::int between 3 and 9 order by id").rows
        nan = [row[3] for row in rows if row[0] == 3][0]
        assert math.isnan(nan)
        assert [(row[0], row[1], row[2]) for row in rows] == [
            (3, "nan", None), (4, None, None), (5, "inf", None),
            (6, None, None), (7, "-inf", None), (8, None, None),
            (9, None, None)]
        assert [(row[4], row[5]) for row in rows] == [
            ("3", 3), ("4", 4), ("5", 5), ("6", 6), ("7", 7), ("nan", None),
            ("-inf", None)]


class TestConflictPatching:
    DOCS = [{"id": 0, "x": 1.5}, {"id": 1, "x": 1e300},
            {"id": 2, "x": -2.0}, {"id": 3, "x": "9e99"}]

    @pytest.mark.parametrize("fmt", [StorageFormat.TILES,
                                     StorageFormat.JSONB,
                                     StorageFormat.JSON],
                             ids=lambda f: f.name)
    def test_out_of_range_patch_stays_null(self, fmt):
        db = Database(config=CONFIG)
        relation = db.load_table("t", self.DOCS, fmt)
        if fmt == StorageFormat.TILES:
            # the numeric string is a Section 3.4 outlier of the float
            # column: its slot is patched from the JSONB at access time
            meta = relation.tiles[0].header.columns[KeyPath.parse("x")]
            assert meta.has_type_conflicts
        assert db.sql("select t.data->>'id'::int as id, "
                      "t.data->>'x'::int as x from t order by id").rows == [
            (0, 1), (1, None), (2, -2), (3, None)]
