"""Focused tests for scan-time cast rewriting paths (Section 4.3/4.5)."""

import numpy as np
import pytest

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.batch import concat_batches
from repro.engine.scan import (AccessRequest, TableScan, _float64_to_text,
                               _int64_to_text)
from repro.mining.dictionary import encode_documents, subset_dictionary
from repro.storage import StorageFormat, load_documents
from repro.tiles import ExtractionConfig

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def scan_one(docs, path, target, as_text=True,
             storage_format=StorageFormat.TILES):
    relation = load_documents("t", docs, storage_format, CONFIG)
    request = AccessRequest.make("t", KeyPath.parse(path), target, as_text)
    scan = TableScan(relation, [request])
    batch = concat_batches(list(scan.batches()))
    return batch.column(request.name).to_list(), scan.counters


class TestStoredToRequested:
    DOCS = [{"i": 7, "f": 2.5, "b": True, "s": "hello", "d": "19.99",
             "t": "2020-06-01"}] * 8

    def test_int_to_bool(self):
        values, counters = scan_one(self.DOCS, "i", ColumnType.BOOL)
        assert values == [True] * 8
        assert counters.fallback_lookups == 0

    def test_int_to_string_is_cheap_cast(self):
        values, counters = scan_one(self.DOCS, "i", ColumnType.STRING)
        assert values == ["7"] * 8
        assert counters.fallback_lookups == 0

    def test_float_to_int(self):
        values, counters = scan_one(self.DOCS, "f", ColumnType.INT64)
        assert values == [2] * 8
        assert counters.fallback_lookups == 0

    def test_float_to_string(self):
        values, _ = scan_one(self.DOCS, "f", ColumnType.STRING)
        assert values == ["2.5"] * 8

    def test_bool_to_int_and_string(self):
        assert scan_one(self.DOCS, "b", ColumnType.INT64)[0] == [1] * 8
        assert scan_one(self.DOCS, "b", ColumnType.STRING)[0] == ["true"] * 8

    def test_string_to_int_parses(self):
        docs = [{"s": str(i)} for i in range(8)]
        values, counters = scan_one(docs, "s", ColumnType.INT64)
        assert values == list(range(8))
        assert counters.fallback_lookups == 0

    def test_decimal_to_float_direct(self):
        values, counters = scan_one(self.DOCS, "d", ColumnType.FLOAT64)
        assert values == [19.99] * 8
        assert counters.fallback_lookups == 0

    def test_decimal_to_text_needs_fallback(self):
        # exact numeric text cannot be rebuilt from float64 storage
        values, counters = scan_one(self.DOCS, "d", ColumnType.STRING)
        assert values == ["19.99"] * 8
        assert counters.fallback_lookups == 8

    def test_timestamp_to_int_needs_fallback(self):
        values, counters = scan_one(self.DOCS, "t", ColumnType.INT64)
        # date strings don't parse as ints even via the fallback
        assert values == [None] * 8
        assert counters.fallback_lookups == 8

    def test_bool_column_refuses_float(self):
        values, counters = scan_one(self.DOCS, "b", ColumnType.FLOAT64)
        assert values == [1.0] * 8
        assert counters.fallback_lookups == 8  # via JSONB typed getter


class TestSubsetDictionary:
    def test_local_ids_and_counts(self):
        docs = [{"a": 1, "b": "x"}, {"a": 2}, {"b": "y"}]
        parent, transactions = encode_documents(docs)
        local, remapped = subset_dictionary(parent, transactions[1:])
        assert len(remapped) == 2
        # local counts reflect the slice only
        from repro.core.types import JsonType
        a_item = (KeyPath.parse("a"), JsonType.INT)
        assert local.counts[local.lookup(a_item)] == 1

    def test_items_preserved(self):
        docs = [{"a": 1}, {"a": "text"}]
        parent, transactions = encode_documents(docs)
        local, _ = subset_dictionary(parent, transactions)
        assert len(local) == len(parent)


class TestVectorizedTextRendering:
    """Pin the exact string forms of the vectorized stored->STRING
    casts (``_int64_to_text`` / ``_float64_to_text`` /
    ``_bool_to_text``): they must match what the per-value JSONB
    fallback renders, so direct-column and fallback tiles agree."""

    def test_int64_exact_forms(self):
        docs = [{"v": n} for n in
                [0, 7, -7, 2**62, -(2**62), 123456789]] * 2
        values, counters = scan_one(docs, "v", ColumnType.STRING)
        assert values == ["0", "7", "-7", str(2**62), str(-(2**62)),
                          "123456789"] * 2
        assert counters.fallback_lookups == 0

    def test_bool_renders_json_literals(self):
        docs = [{"v": b} for b in [True, False]] * 6
        values, counters = scan_one(docs, "v", ColumnType.STRING)
        assert values == ["true", "false"] * 6
        assert counters.fallback_lookups == 0

    def test_float_integral_renders_as_integer(self):
        # JSON 1.0 and 1 are the same number: text access renders the
        # integer form, exactly like JsonbValue.as_text
        docs = [{"v": f} for f in [1.0, -3.0, 0.0, 1e15]] * 2
        values, _ = scan_one(docs, "v", ColumnType.STRING)
        assert values == ["1", "-3", "0", "1000000000000000"] * 2

    def test_float_fractional_shortest_roundtrip(self):
        docs = [{"v": f} for f in [0.1, 2.5, -19.875, 1e-4]] * 2
        values, _ = scan_one(docs, "v", ColumnType.STRING)
        assert values == ["0.1", "2.5", "-19.875", "0.0001"] * 2

    def test_float_beyond_int64_range(self):
        # integral but too large for the vectorized int64 fast path
        docs = [{"v": 1e20} for _ in range(8)]
        values, _ = scan_one(docs, "v", ColumnType.STRING)
        assert values == [str(int(1e20))] * 8

    def test_matches_fallback_rendering(self):
        # the same numbers through the JSONB fallback (no extracted
        # column) must render identically to the vectorized cast
        numbers = [0, 7, -7, 123456789, 1.0, -3.0, 0.1, 2.5, 1e15,
                   1e20]
        docs = [{"v": n} for n in numbers] * 2
        direct, _ = scan_one(docs, "v", ColumnType.STRING)
        fallback, counters = scan_one(docs, "v", ColumnType.STRING,
                                      storage_format=StorageFormat.JSONB)
        assert counters.fallback_lookups == len(docs)
        assert direct == fallback


class TestNumberTextKernels:
    """``_int64_to_text`` / ``_float64_to_text`` equal the
    ``np.char.mod("%d")`` rendering they replaced, value for value."""

    INT64 = [0, 1, -1, 7, -7, 10, -10, 123456789, 2**31, -(2**31),
             2**53 + 1, 2**62, -(2**62), 2**63 - 1, -(2**63)]

    def test_int64_extremes(self):
        data = np.array(self.INT64, dtype=np.int64)
        out = _int64_to_text(data)
        assert out.dtype == object
        assert out.tolist() == [str(n) for n in self.INT64]
        assert out.tolist() == np.char.mod("%d", data).tolist()

    def test_int64_empty(self):
        out = _int64_to_text(np.zeros(0, dtype=np.int64))
        assert out.dtype == object and len(out) == 0

    def test_integral_floats_up_to_2_pow_63(self):
        values = [0.0, -0.0, 1.0, -1.0, 1e15, -1e15, 2.0**52, 2.0**53,
                  2.0**62, -(2.0**62), 2.0**63 - 1024, -(2.0**63),
                  2.0**63, 1e20, -1e20]
        data = np.array(values, dtype=np.float64)
        assert _float64_to_text(data).tolist() == \
            [str(int(value)) for value in values]
        small = np.abs(data) < 2.0**63
        assert _float64_to_text(data[small]).tolist() == np.char.mod(
            "%d", data[small].astype(np.int64)).tolist()

    def test_fractional_and_special_floats(self):
        values = [0.5, -2.25, 1e-300, float("inf"), float("-inf")]
        out = _float64_to_text(np.array(values, dtype=np.float64))
        assert out.tolist() == [repr(value) for value in values]
