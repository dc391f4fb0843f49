"""Unit tests for the single-pass multi-path JSONB shredder.

The shredder (:mod:`repro.jsonb.shred`) must be an *invisible*
optimisation: for every buffer and every path set, slot *i* of the
shred result equals ``jsonb_get_path(buf, plan.paths[i])`` (and the
parsed-JSON twin equals ``KeyPath.lookup``).  On top of that the scan
counters pin the Table-5-comparable accounting: ``fallback_lookups``
counts logical (tuple, path) resolutions identically to a per-path
walk (``tests/reference_scans.py``), while ``shred_passes`` /
``shred_paths`` expose the physical sharing.
"""

import json

import pytest

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.scan import AccessRequest, TableScan
from repro.jsonb import encode, jsonb_get_path
from repro.jsonb.shred import compile_paths, shred_jsonb, shred_python
from repro.storage import StorageFormat, load_documents
from repro.tiles import ExtractionConfig
from tests.reference_scans import per_path_walk


def parse(*texts):
    return [KeyPath.parse(text) for text in texts]


def expect_per_path(document, paths):
    buf = encode(document)
    return [value.as_python() if (value := jsonb_get_path(buf, path))
            is not None else None for path in paths]


def shredded(document, paths):
    plan = compile_paths(paths)
    out = shred_jsonb(plan, encode(document))
    return [value.as_python() if value is not None else None
            for value in out]


DOCUMENTS = [
    {},
    {"a": 1},
    {"a": {"b": {"c": 3}}, "d": [10, 20, 30]},
    {"a": None, "b": False, "c": "", "d": 0},
    {"user": {"id": 7, "name": "ada", "tags": ["x", "y"]},
     "stats": {"count": 2, "ratio": 0.5}},
    {"nested": [{"k": 1}, {"k": 2}], "other": "text"},
    # wide object: count > 250 exercises the multi-byte compact-uint
    # header and 2-byte offset widths
    {f"key{i:04d}": i for i in range(300)},
    # long values push offsets past one byte
    {"pad": "x" * 700, "tail": {"z": 9}},
]

PATH_SETS = [
    parse("a"),
    parse("a.b.c", "a.b", "a"),
    parse("d[0]", "d[2]", "d[9]", "d"),
    parse("user.id", "user.name", "user.tags[1]", "stats.count",
          "stats.ratio"),
    parse("nested[0].k", "nested[1].k", "other", "missing.path"),
    parse("key0000", "key0123", "key0299", "key9999"),
    parse("pad", "tail.z"),
]


class TestShredJsonb:
    @pytest.mark.parametrize("document", DOCUMENTS,
                             ids=lambda d: json.dumps(d)[:40])
    @pytest.mark.parametrize("paths", PATH_SETS,
                             ids=lambda ps: "|".join(map(str, ps)))
    def test_matches_per_path_traversal(self, document, paths):
        assert shredded(document, paths) == expect_per_path(document,
                                                            paths)

    @pytest.mark.parametrize("document", DOCUMENTS,
                             ids=lambda d: json.dumps(d)[:40])
    @pytest.mark.parametrize("paths", PATH_SETS,
                             ids=lambda ps: "|".join(map(str, ps)))
    def test_python_walk_matches_lookup(self, document, paths):
        plan = compile_paths(paths)
        out = shred_python(plan, document)
        assert out == [path.lookup(document) for path in plan.paths]

    def test_json_null_is_a_value_not_missing(self):
        # a stored JSON null must come back as a (null) JsonbValue,
        # exactly like get_path — only *absent* paths yield None
        plan = compile_paths(parse("a", "b"))
        out = shred_jsonb(plan, encode({"a": None}))
        assert out[0] is not None and out[0].is_null()
        assert out[1] is None

    def test_prefix_and_leaf_both_terminal(self):
        paths = parse("a", "a.b", "a.b.c")
        document = {"a": {"b": {"c": 1, "d": 2}}}
        assert shredded(document, paths) == expect_per_path(document,
                                                            paths)

    def test_duplicate_paths_collapse(self):
        plan = compile_paths(parse("a.b", "a.b", "c"))
        assert len(plan) == 2
        assert plan.slots[KeyPath.parse("a.b")] == 0
        assert plan.slots[KeyPath.parse("c")] == 1

    def test_scalar_root_fills_nothing(self):
        plan = compile_paths(parse("a.b", "c[0]"))
        assert shred_jsonb(plan, encode(42)) == [None, None]
        assert shred_python(plan, 42) == [None, None]

    def test_array_root(self):
        document = [{"a": 1}, {"a": 2}, 7]
        paths = parse("[0].a", "[1].a", "[2]", "[5].a")
        assert shredded(document, paths) == expect_per_path(document,
                                                            paths)


# ----------------------------------------------------------------------
# counter semantics (Table-5-style accounting)

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)

K_PATHS = [("u.id", ColumnType.INT64), ("u.name", ColumnType.STRING),
           ("score", ColumnType.FLOAT64), ("tags[0]", ColumnType.STRING)]


def _scan_counters(per_path=False, rows=100,
                   storage_format=StorageFormat.JSONB):
    docs = [{"u": {"id": i, "name": f"n{i}"}, "score": i / 2.0,
             "tags": ["a", "b"]} for i in range(rows)]
    relation = load_documents("t", docs, storage_format, CONFIG)
    requests = [AccessRequest.make("t", KeyPath.parse(p), target, True)
                for p, target in K_PATHS]
    with per_path_walk(per_path):
        scan = TableScan(relation, requests)
        batch = concat_batches(list(scan.batches()))
    return scan.counters, batch


class TestCounterSemantics:
    def test_fallback_lookups_identical_both_modes(self):
        on, batch_on = _scan_counters()
        off, batch_off = _scan_counters(per_path=True)
        # logical accounting: tuples x paths, regardless of physics
        assert on.fallback_lookups == 100 * len(K_PATHS)
        assert off.fallback_lookups == on.fallback_lookups
        for name in batch_on.columns:
            assert batch_on.column(name).to_list() == \
                batch_off.column(name).to_list()

    def test_shred_counters_expose_sharing(self):
        on, _ = _scan_counters()
        assert on.shred_passes == 100
        assert on.shred_paths == 100 * len(K_PATHS)

    def test_text_format_counts_the_same(self):
        on, batch_on = _scan_counters(storage_format=StorageFormat.JSON)
        off, batch_off = _scan_counters(per_path=True,
                                        storage_format=StorageFormat.JSON)
        assert on.fallback_lookups == off.fallback_lookups == \
            100 * len(K_PATHS)
        for name in batch_on.columns:
            assert batch_on.column(name).to_list() == \
                batch_off.column(name).to_list()
        assert on.shred_passes == 100
        assert on.shred_paths == 100 * len(K_PATHS)

    def test_counters_reach_explain_analyze(self):
        from repro import Database

        db = Database(StorageFormat.JSONB, CONFIG)
        db.load_table("t", [json.dumps({"u": {"id": i}})
                            for i in range(20)])
        result = db.sql("select sum(t.data->'u'->>'id'::int) as s "
                        "from t")
        assert result.rows[0][0] == sum(range(20))
        assert result.counters.shred_passes == 20
        assert result.counters.shred_paths == 20
