"""Property-based end-to-end invariants.

The central correctness property of the whole system: for any document
collection and any access, the TILES representation (extraction +
fallbacks + skipping) returns exactly what the plain JSONB
representation returns — extraction is an acceleration structure, never
a semantic change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.scan import AccessRequest, TableScan
from repro.storage import StorageFormat, load_documents
from repro.tiles import ExtractionConfig
from tests.reference_scans import per_path_walk

# documents with a controlled vocabulary so paths collide across
# documents (exercising extraction) but types and presence vary
value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(min_size=0, max_size=12),
    st.dictionaries(st.sampled_from(["x", "y"]),
                    st.integers(0, 9) | st.text(max_size=4), max_size=2),
    st.lists(st.integers(0, 9), max_size=3),
)
document_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]), value_strategy,
    min_size=0, max_size=5,
)

CONFIG = ExtractionConfig(tile_size=8, partition_size=2)

PATHS = [KeyPath.parse(p) for p in
         ["a", "b", "c", "d", "e", "a.x", "a.y", "b.x", "a[0]", "c[1]"]]
TARGETS = [ColumnType.INT64, ColumnType.FLOAT64, ColumnType.STRING,
           ColumnType.BOOL]


def scan_values(relation, path, target, per_path=False):
    """One access over *relation*; *per_path* swaps the shredder for
    one document walk per (tuple, path)."""
    request = AccessRequest.make("t", path, target, as_text=True)
    with per_path_walk(per_path):
        scan = TableScan(relation, [request], enable_skipping=True)
        batch = concat_batches(list(scan.batches()))
    if batch is None:
        return []
    return batch.column(request.name).to_list()


class TestTilesEqualJsonb:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(document_strategy, min_size=1, max_size=40),
           st.booleans(), st.booleans())
    def test_every_access_identical(self, documents, walk_tiles,
                                    walk_jsonb):
        tiles = load_documents("t", documents, StorageFormat.TILES, CONFIG)
        jsonb = load_documents("t", documents, StorageFormat.JSONB, CONFIG)
        for path in PATHS:
            for target in TARGETS:
                # shredder vs per-path walk is drawn per example: every
                # pairing of both representations must agree
                left = scan_values(tiles, path, target, per_path=walk_tiles)
                right = scan_values(jsonb, path, target, per_path=walk_jsonb)
                # reordering permutes rows: compare as multisets
                assert _multiset(_norm(left)) == _multiset(_norm(right)), \
                    (str(path), target, walk_tiles, walk_jsonb)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(document_strategy, min_size=1, max_size=40))
    def test_multipath_scan_matches_per_path(self, documents):
        # all paths in ONE scan (shared trie, one walk per tuple) must
        # equal the same paths resolved one scan at a time
        jsonb = load_documents("t", documents, StorageFormat.JSONB, CONFIG)
        requests = [AccessRequest.make("t", path, ColumnType.STRING,
                                       as_text=True) for path in PATHS]
        scan = TableScan(jsonb, requests)
        batch = concat_batches(list(scan.batches()))
        for request, path in zip(requests, PATHS):
            single = scan_values(jsonb, path, ColumnType.STRING,
                                 per_path=True)
            assert batch.column(request.name).to_list() == single, \
                str(path)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(document_strategy, min_size=1, max_size=40))
    def test_documents_roundtrip(self, documents):
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  CONFIG)
        stored = list(relation.documents())
        assert len(stored) == len(documents)
        # reordering may permute documents; compare as multisets of
        # canonical JSON
        import json

        def canon(doc):
            return json.dumps(doc, sort_keys=True)

        assert sorted(map(canon, stored)) == sorted(map(canon, documents))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(document_strategy, min_size=2, max_size=30),
           document_strategy)
    def test_update_then_read(self, documents, replacement):
        relation = load_documents("t", documents, StorageFormat.TILES,
                                  CONFIG)
        relation.update(0, replacement)
        assert relation.document(0) == _sorted_keys(replacement)
        # updated values visible through scans too
        for path in PATHS[:5]:
            tiles_view = scan_values(relation, path, ColumnType.STRING)
            raw = path.lookup(replacement)
            expected = _scalar_text(raw)
            assert _one(tiles_view[0]) == expected, str(path)


def _one(value):
    return value


def _scalar_text(raw):
    import json
    if raw is None:
        return None
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, (dict, list)):
        return json.dumps(_sorted_keys(raw), separators=(",", ":"))
    if isinstance(raw, float) and raw == int(raw):
        return str(int(raw))
    return str(raw)


def _multiset(values):
    return sorted(values, key=lambda v: (v is None, str(type(v)), str(v)))


def _norm(values):
    # float32-narrowed values and text renderings must compare stably;
    # NaN (reachable via the text "NAN" cast to float) compares unequal
    # to itself, so normalize it to a token both sides agree on
    out = []
    for value in values:
        if isinstance(value, float):
            out.append("__nan__" if value != value else round(value, 4))
        else:
            out.append(value)
    return out


def _sorted_keys(value):
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key])
                for key in sorted(value, key=lambda k: k.encode())}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value
