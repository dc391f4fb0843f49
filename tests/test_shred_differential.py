"""Differential tests: shredded fallback scans are bit-identical to
per-path traversal.

The reference is the same scan with the shredder swapped for one
``JsonbValue(row).get_path(path)`` traversal per (tuple, path)
(``KeyPath.lookup`` for the raw-text format; see
``tests/reference_scans.py``).  The shredder must produce the same
columns (values, null masks, text renderings) and the same
``fallback_lookups`` over the paper's workload generators, including
tiles with Section 3.4 type conflicts where several conflicted requests
patch stored-NULL slots in one pass.
"""

import numpy as np
import pytest

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.scan import AccessRequest, TableScan
from repro.storage import StorageFormat, load_documents
from repro.tiles import ExtractionConfig
from repro.workloads import hackernews, twitter, yelp
from tests.reference_scans import per_path_walk

CONFIG = ExtractionConfig(tile_size=64, partition_size=4)


def scan(relation, specs, per_path=False, as_text=True):
    requests = [AccessRequest.make(relation.name, KeyPath.parse(path),
                                   target, as_text)
                for path, target in specs]
    with per_path_walk(per_path):
        table_scan = TableScan(relation, requests)
        batch = concat_batches(list(table_scan.batches()))
    return batch, table_scan.counters


def assert_identical(relation, specs, as_text=True):
    on, counters_on = scan(relation, specs, as_text=as_text)
    off, counters_off = scan(relation, specs, per_path=True,
                             as_text=as_text)
    assert list(on.columns) == list(off.columns)
    for name in on.columns:
        left, right = on.column(name), off.column(name)
        assert left.type == right.type, name
        assert np.array_equal(left.null_mask, right.null_mask), name
        assert all(x == y for x, y, null
                   in zip(left.data, right.data, left.null_mask)
                   if not null), name
    # the logical work accounting must not depend on the physics
    assert counters_on.fallback_lookups == counters_off.fallback_lookups
    assert counters_on.header_nulls == counters_off.header_nulls
    return on


TWITTER_SPECS = [
    ("user.id", ColumnType.INT64),
    ("user.screen_name", ColumnType.STRING),
    ("user.followers_count", ColumnType.INT64),
    ("retweet_count", ColumnType.INT64),
    ("entities.hashtags[0].text", ColumnType.STRING),
    ("lang", ColumnType.STRING),
    ("user.verified", ColumnType.BOOL),
    ("user.statuses_count", ColumnType.INT64),  # absent everywhere
    ("in_reply_to_status_id", ColumnType.INT64),
    ("user", ColumnType.JSONB),
]

YELP_SPECS = [
    ("business_id", ColumnType.STRING),
    ("stars", ColumnType.FLOAT64),
    ("review_count", ColumnType.INT64),
    ("attributes.WiFi", ColumnType.STRING),
    ("hours.Monday", ColumnType.STRING),
    ("user_id", ColumnType.STRING),
    ("useful", ColumnType.INT64),
]

HN_SPECS = [
    ("id", ColumnType.INT64),
    ("type", ColumnType.STRING),
    ("by", ColumnType.STRING),
    ("score", ColumnType.INT64),
    ("kids[0]", ColumnType.INT64),
    ("title", ColumnType.STRING),
    ("descendants", ColumnType.INT64),
]


@pytest.fixture(scope="module")
def twitter_docs():
    return list(twitter.TwitterGenerator(400).stream())


@pytest.fixture(scope="module")
def yelp_docs():
    return yelp.YelpGenerator(40, reviews_per_business=4).combined()


@pytest.fixture(scope="module")
def hn_docs():
    return hackernews.generate_items(400)


class TestGeneratorsBitIdentical:
    @pytest.mark.parametrize("storage", [StorageFormat.JSONB,
                                         StorageFormat.TILES,
                                         StorageFormat.JSON])
    def test_twitter(self, twitter_docs, storage):
        relation = load_documents("tw", twitter_docs, storage, CONFIG)
        assert_identical(relation, TWITTER_SPECS)

    @pytest.mark.parametrize("storage", [StorageFormat.JSONB,
                                         StorageFormat.TILES])
    def test_yelp(self, yelp_docs, storage):
        relation = load_documents("y", yelp_docs, storage, CONFIG)
        assert_identical(relation, YELP_SPECS)

    @pytest.mark.parametrize("storage", [StorageFormat.JSONB,
                                         StorageFormat.TILES])
    def test_hackernews(self, hn_docs, storage):
        relation = load_documents("hn", hn_docs, storage, CONFIG)
        assert_identical(relation, HN_SPECS)

    def test_twitter_typed_not_text(self, twitter_docs):
        relation = load_documents("tw", twitter_docs,
                                  StorageFormat.JSONB, CONFIG)
        assert_identical(relation, TWITTER_SPECS, as_text=False)

    def test_against_document_lookup(self, twitter_docs):
        # third reference, independent of TableScan: as_text STRING
        # access equals the raw document lookup for present scalars
        relation = load_documents("tw", twitter_docs,
                                  StorageFormat.JSONB, CONFIG)
        batch = assert_identical(
            relation, [("user.screen_name", ColumnType.STRING)])
        values = list(batch.columns.values())[0].to_list()
        expected = [KeyPath.parse("user.screen_name").lookup(doc)
                    for doc in twitter_docs]
        assert values == expected


class TestConflictTiles:
    """Section 3.4: multiple conflicted columns patched in one shred
    pass over the outlier rows must equal per-request patching."""

    def docs(self):
        out = []
        for i in range(96):
            doc = {"a": float(i), "b": i, "c": f"s{i}"}
            if i % 13 == 0:
                doc["a"] = "oops"          # type outlier -> stored NULL
            if i % 17 == 0:
                doc["b"] = {"nested": i}   # another conflicted column
            if i % 19 == 0:
                doc["c"] = i               # int outlier in string column
            out.append(doc)
        return out

    def test_multi_conflict_patch_identical(self):
        relation = load_documents("t", self.docs(), StorageFormat.TILES,
                                  CONFIG)
        specs = [("a", ColumnType.FLOAT64), ("b", ColumnType.INT64),
                 ("c", ColumnType.STRING)]
        assert_identical(relation, specs)

    def test_conflict_shred_counters(self):
        relation = load_documents("t", self.docs(), StorageFormat.TILES,
                                  CONFIG)
        specs = [("a", ColumnType.FLOAT64), ("b", ColumnType.INT64),
                 ("c", ColumnType.STRING)]
        _, counters = scan(relation, specs)
        # conflicted outlier rows are walked once each, not once per
        # conflicted request
        assert counters.shred_passes > 0
        assert counters.shred_paths >= counters.shred_passes
