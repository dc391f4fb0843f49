"""One walk per document at load time.

The loader encodes JSONB and collects the mining items in the same
walk (``repro.jsonb.encode(..., sink=ItemSink)``), and tile
construction no longer runs FPGrowth.  These tests pin that the fused
path reproduces the separate functions exactly, that the schema and the
persisted bytes did not move, and that non-finite floats load.
"""

import hashlib
import json
import math
import struct

import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.types import COLUMN_TYPE_FOR_JSON, JsonType
from repro.jsonb import encode
from repro.mining.dictionary import ItemSink, encode_documents
from repro.mining.fpgrowth import FPGrowth, ItemsetMatcher
from repro.stats.hyperloglog import hash64
from repro.stats.table_stats import ColumnStatistics
from repro.storage import load_documents
from repro.tiles.extractor import (
    _EXTRACTABLE,
    _materialize_value,
    choose_schema,
)
from repro.tiles.reorder import match_tuples, mine_partition_itemsets
from repro.workloads.hackernews import generate_items
from repro.workloads.tpch.generator import generate_combined
from repro.workloads.twitter import TwitterGenerator
from repro.workloads.yelp import YelpGenerator

CONFIG = ExtractionConfig(tile_size=64, partition_size=4)

EDGE_DOCUMENTS = [
    {}, [], {"a": {}}, {"a": []}, {"e": {}, "f": [], "g": [{}]},
    {"long": list(range(20)), "nested": [list(range(12)), [[1], [2, 3]]]},
    [[{"x": 1}, {"y": [{}, {"z": None}]}], {"w": [1] * 10}],
    {"n": "12.5", "m": "-0", "big": "1" * 70, "s": "abc", "e": "1e5x"},
    {"b": True, "c": False, "i": 1, "j": 0, "f": 1.5, "z": None},
    {"b": 1, "c": 0, "i": True, "f": 2},
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    {"ключ": "значение", "日本": [1, "2"], "a.b": {"[0]": 1}, "": 0},
    5, "7", "text", None, 2.5, True,
]


def _corpora():
    return {
        "yelp": YelpGenerator(20, seed=1).combined()[:400],
        "twitter": TwitterGenerator(300, seed=2).stream(),
        "tpch": generate_combined(0.001, seed=3)[:600],
        "hackernews": generate_items(300, seed=4),
        "edge": EDGE_DOCUMENTS,
    }


class TestFusedWalk:
    @pytest.mark.parametrize("corpus", ["yelp", "twitter", "tpch",
                                        "hackernews", "edge"])
    @pytest.mark.parametrize("max_array_elements", [8, 2])
    def test_matches_separate_walks(self, corpus, max_array_elements):
        documents = _corpora()[corpus]
        sink = ItemSink(max_array_elements)
        fused = [encode(document, sink=sink) for document in documents]
        dictionary, transactions = encode_documents(documents,
                                                    max_array_elements)
        assert fused == [encode(document) for document in documents]
        # same items with the same ids, in the same order
        assert list(sink.dictionary.items()) == list(dictionary.items())
        assert sink.dictionary.counts == dictionary.counts
        assert sink.transactions == transactions

    def test_paths_are_interned(self):
        sink = ItemSink()
        for _ in range(3):
            encode({"user": {"id": 1, "name": "x"}}, sink=sink)
        user = sink.child(sink.root, "user")
        assert sink.child(sink.root, "user") is user
        paths = [path for (path, _jtype), _id in sink.dictionary.items()]
        assert paths[0] is sink.child(user, "id").path
        assert [str(path) for path in paths] == ["user.id", "user.name"]
        assert sink.dictionary.counts == [3, 3]
        assert sink.transactions == [[0, 1]] * 3

    def test_bool_and_int_are_distinct_items(self):
        sink = ItemSink()
        encode({"v": True}, sink=sink)
        encode({"v": 1}, sink=sink)
        types = [jtype for (_path, jtype), _id in sink.dictionary.items()]
        assert types == [JsonType.BOOL, JsonType.INT]

    def test_jsonb_tiles_keep_their_own_dictionary_order(self):
        # without extraction every tile is its own partition, so its
        # header lists key paths in the order its documents produce
        documents = TwitterGenerator(200, seed=5).stream()
        relation = load_documents("t", documents, StorageFormat.JSONB, CONFIG)
        assert len(relation.tiles) > 1
        for handle in relation.tiles:
            start = handle.first_row
            dictionary, _ = encode_documents(
                documents[start : start + handle.row_count],
                CONFIG.max_array_elements)
            assert list(handle.header.key_counts.items()) == \
                list(dictionary.key_counts().items())

    def test_flush_inserts_matches_bulk_tile(self):
        documents = YelpGenerator(5, seed=6).combined()[:CONFIG.tile_size]
        config = ExtractionConfig(tile_size=CONFIG.tile_size,
                                  enable_reordering=False)
        loaded = load_documents("a", documents, StorageFormat.TILES, config)
        db = Database(StorageFormat.TILES, config)
        flushed = db.create_table("b")
        flushed.insert_many(documents)
        flushed.flush_inserts()
        (left,), (right,) = loaded.tiles, flushed.tiles
        assert left.header.key_counts == right.header.key_counts
        assert list(left.header.columns) == list(right.header.columns)


def _reference_schema(dictionary, transactions, num_rows, config):
    """The pre-change tile schema: choose_schema restricted to the union
    of the FPGrowth itemsets mined at the extraction threshold."""
    frequent = FPGrowth(config.min_count(num_rows),
                        config.mining_budget).mine(transactions)
    frequent_items = set().union(*frequent) if frequent else set()
    min_count = config.min_count(num_rows)
    candidates, conflict_paths = {}, {}
    for (path, jtype), item_id in dictionary.items():
        count = dictionary.counts[item_id]
        conflict_paths[path] = conflict_paths.get(path, 0) + count
        if jtype not in _EXTRACTABLE or item_id not in frequent_items \
                or count < min_count:
            continue
        candidates.setdefault(path, []).append((jtype, count))
    columns = []
    for path, typed_counts in candidates.items():
        typed_counts.sort(key=lambda entry: (-entry[1], entry[0]))
        jtype, count = typed_counts[0]
        conflicts = conflict_paths[path] > count
        columns.append((str(path), jtype, COLUMN_TYPE_FOR_JSON[jtype],
                        conflicts, count < num_rows or conflicts))
    return sorted(columns)


class TestSchemaPin:
    @pytest.mark.parametrize("corpus", ["yelp", "twitter", "tpch"])
    def test_choose_schema_equals_fpgrowth_union_filter(self, corpus):
        documents = _corpora()[corpus]
        relation = load_documents("t", documents, StorageFormat.TILES, CONFIG)
        assert len(relation.tiles) > 4
        for handle in relation.tiles:
            with handle.pinned() as tile:
                rows = tile.documents()
            dictionary, transactions = encode_documents(
                rows, CONFIG.max_array_elements)
            schema = choose_schema(dictionary, len(rows), CONFIG)
            got = sorted((str(c.path), c.json_type, c.column_type,
                          c.has_type_conflicts, c.nullable)
                         for c in schema.columns)
            assert got == _reference_schema(dictionary, transactions,
                                             len(rows), CONFIG)


#: sha256 of the checkpointed ``yelp.jtile`` below: load-path
#: optimizations must not move the stored file by a single byte.  This
#: is the format v4 file (rows without the values their columns hold,
#: dictionary-coded string columns) without a bloom blob or per-block
#: zone maps.  The first v4 writer's file (sha256 32002b8e… with
#: presence, 078819aa… without) held the same blobs plus one bloom blob
#: per tile and the ``block_rows`` / ``block_bounds`` catalog keys; the
#: v3 file before it was sha256 c8f5b70c… (with per-row presence) and
#: bd92a21b… (without), itself byte-identical to the format v2 file of
#: the previous load path (sha256 76eb369e…) loaded and saved again
GOLDEN_YELP_JTILE = \
    "a578fb836032aca7ca43192afa9b9654984c3b4ce4b5fa0b140d41edc7cf17d4"
#: the same file with the catalog's ``spans`` entries and the per-row
#: presence (the ``holes`` entries and the presence blob) removed: row
#: spans live in the catalog only, never in a blob
GOLDEN_YELP_JTILE_WITHOUT_SPANS = \
    "c27e6f43442261177012756951dba45682156f1a82d71f5c2cc9ce4ed83eac9e"


def _strip_spans(data: bytes) -> bytes:
    """The ``.jtile`` bytes with every tile's ``spans`` and ``holes``
    catalog entries and the file's presence blob removed.  The presence
    blob is the last one, right before the catalog, so the blobs ahead
    of it keep their offsets and ids."""
    magic = data[-5:]
    (footer_len,) = struct.unpack("<Q", data[-13:-5])
    footer_start = len(data) - 13 - footer_len
    catalog = json.loads(data[footer_start:-13])

    def strip(relation):
        for tile in relation.get("tiles", []):
            tile.pop("spans", None)
            tile.pop("holes", None)
        for child in relation["children"].values():
            strip(child)

    strip(catalog)
    presence = catalog.pop("presence")
    assert presence == len(catalog["blob_index"]) - 1
    blobs_end = catalog["blob_index"].pop()[0]
    catalog["stored"].pop("presence")
    footer = json.dumps(catalog, separators=(",", ":")).encode("utf-8")
    return (data[:blobs_end] + footer
            + struct.pack("<Q", len(footer)) + magic)


class TestBytePin:
    def test_seeded_yelp_load_is_byte_identical(self, tmp_path):
        lines = [json.dumps(document)
                 for document in YelpGenerator(60, seed=1).combined()]
        db = Database(StorageFormat.TILES, CONFIG, directory=tmp_path)
        db.load_table("yelp", lines, StorageFormat.TILES, CONFIG)
        db.checkpoint()
        data = (tmp_path / "yelp.jtile").read_bytes()
        assert len(lines) == 1622
        assert hashlib.sha256(data).hexdigest() == GOLDEN_YELP_JTILE
        assert hashlib.sha256(_strip_spans(data)).hexdigest() == \
            GOLDEN_YELP_JTILE_WITHOUT_SPANS


class TestColumnStatistics:
    def test_distinct_observation_equals_per_value(self):
        documents = YelpGenerator(20, seed=7).combined()[:CONFIG.tile_size]
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  ExtractionConfig(tile_size=CONFIG.tile_size,
                                                   enable_reordering=False))
        (handle,) = relation.tiles
        assert handle.header.columns
        for path, meta in handle.header.columns.items():
            reference = ColumnStatistics()
            for document in documents:
                reference.observe(_materialize_value(path.lookup(document),
                                                     meta))
            got = handle.header.statistics.columns[path]
            assert (got.sketch.registers == reference.sketch.registers).all()
            assert got.non_null_count == reference.non_null_count
            assert (got.min_value, got.max_value) == \
                (reference.min_value, reference.max_value)

    def test_nan_first_keeps_sequential_bounds(self):
        values = [float("nan"), 3.0, 1.0, 3.0]
        sequential, distinct = ColumnStatistics(), ColumnStatistics()
        for value in values:
            sequential.observe(value)
        distinct.observe_distinct(dict.fromkeys(values), len(values))
        assert math.isnan(distinct.min_value) and math.isnan(distinct.max_value)
        assert math.isnan(sequential.min_value)
        assert distinct.non_null_count == sequential.non_null_count == 4
        assert (distinct.sketch.registers == sequential.sketch.registers).all()


class TestMatchMemo:
    def test_memoized_matches_equal_direct_matches(self):
        documents = TwitterGenerator(512, seed=8).stream()
        _, transactions = encode_documents(documents)
        itemsets = mine_partition_itemsets(transactions, CONFIG)
        assert itemsets
        matcher = ItemsetMatcher(itemsets)
        assert match_tuples(transactions, itemsets) == \
            [matcher.match(transaction) for transaction in transactions]


class TestNonFiniteFloats:
    #: finite values must keep their hashes (persisted sketches)
    FINITE_HASHES = {1.0: 0xa53582032259afd8, 2.5: 0x8e4e42544aec3bfb,
                     -1e300: 0x1a3ed2b0c2822a59, 0.1: 0xe531f7fc7b60f04d,
                     4e18: 0xcef8c0b37cdc9499, 1e20: 0xd39a02263175a578}

    def test_finite_hashes_unchanged(self):
        for value, hashed in self.FINITE_HASHES.items():
            assert hash64(value) == hashed, value
        assert hash64(1.0) == hash64(1)

    def test_non_finite_hashes_are_distinct(self):
        hashes = {hash64(float(text)) for text in ("nan", "inf", "-inf")}
        assert len(hashes) == 3

    @pytest.mark.parametrize("fmt", [StorageFormat.TILES, StorageFormat.SINEW,
                                     StorageFormat.JSONB])
    @pytest.mark.parametrize("special", ["NaN", "Infinity", "-Infinity"])
    def test_load_then_query(self, fmt, special):
        lines = ['{"x": 1.5}', f'{{"x": {special}}}', '{"x": 2.5}']
        db = Database(fmt)
        db.load_table("t", lines, fmt)
        got = [row[0] for row in
               db.sql("select t.data->>'x'::float as x from t").rows]
        assert got[0] == 1.5 and got[2] == 2.5
        if special == "NaN":
            assert math.isnan(got[1])
        else:
            assert got[1] == float(special)
        above = db.sql("select count(*) as n from t "
                       "where t.data->>'x'::float > 2").scalar()
        assert above == (2 if special == "Infinity" else 1)
