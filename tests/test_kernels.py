"""Differential suite for the vectorized batch kernels.

Every kernel (group-key factorization, join code probe, lexsort
ORDER BY, vectorized scalar aggregation) must produce rows that are
bit-identical to the per-tuple reference paths — the kernels replay
the serial float-operation sequence, group discovery order and sort
tie order exactly.  The suite runs real workload queries with kernels
on vs off, hammers the decline-and-fall-back gates (NaN keys, int64
overflow, mixed-type columns), and drives the scatter/gather partial
paths directly.
"""

import struct

import numpy as np
import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat
from repro.core.types import ColumnType
from repro.engine.kernels import (
    GroupByKernel,
    JoinCodeIndex,
    combine_codes,
    factorize,
    lexsort_indices,
    masked_sum,
)
from repro.engine.partial import (
    classify_block,
    execute_partial,
    merge_partial_results,
)
from repro.errors import StorageError
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.column import ColumnVector
from repro.workloads import twitter, yelp
from repro.workloads.tpch import TPCH_QUERIES, make_database as make_tpch

CONFIG = ExtractionConfig(tile_size=128, partition_size=4)


def bits(value):
    """A bit-exact comparison key (floats by their IEEE bytes)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_bit_identical(reference, candidate, context=""):
    assert reference.columns == candidate.columns, context
    assert len(reference.rows) == len(candidate.rows), context
    for row_r, row_c in zip(reference.rows, candidate.rows):
        assert [bits(v) for v in row_r] == [bits(v) for v in row_c], \
            f"{context}: {row_r!r} != {row_c!r}"


def run_on_off(db, sql, batch_rows=64, parallelism=1, **kwargs):
    """Execute with kernels on and off; the rows must match bit for
    bit.  Returns ``(on, off)`` results so callers can assert on the
    counters as well."""
    on = db.sql(sql, QueryOptions(enable_kernels=True,
                                  batch_rows=batch_rows,
                                  parallelism=parallelism, **kwargs))
    off = db.sql(sql, QueryOptions(enable_kernels=False,
                                   batch_rows=batch_rows,
                                   parallelism=parallelism, **kwargs))
    assert_bit_identical(off, on, sql)
    return on, off


# ----------------------------------------------------------------------
# workload differentials: yelp / twitter / TPC-H, kernels on vs off


class TestYelpKernels:
    @pytest.fixture(scope="class")
    def db(self):
        return yelp.make_database(120, StorageFormat.TILES, CONFIG)

    def test_all_queries_bit_identical(self, db):
        for number, sql in yelp.YELP_QUERIES.items():
            run_on_off(db, sql)

    def test_uneven_batch_boundaries(self, db):
        # batch sizes that do not divide the tile size exercise
        # trailing partial batches through every kernel
        for batch_rows in (17, 37, 4096):
            run_on_off(db, yelp.YELP_QUERIES[2], batch_rows=batch_rows)

    def test_parallel_morsels_bit_identical(self, db):
        for number, sql in yelp.YELP_QUERIES.items():
            run_on_off(db, sql, parallelism=8)

    def test_kernel_counters_engage(self, db):
        # query 2 is a pure GROUP BY + ORDER BY: the group-by and sort
        # kernels both run, and nothing forces a decline
        on, off = run_on_off(db, yelp.YELP_QUERIES[2])
        assert on.counters.kernel_rows > 0
        assert on.counters.fallback_rows == 0
        assert off.counters.kernel_rows == 0
        assert off.counters.fallback_rows == 0

    def test_join_probe_counters_engage(self, db):
        # query 3 joins on a string key — the generic probe kernel path
        on, _off = run_on_off(db, yelp.YELP_QUERIES[3])
        assert on.counters.kernel_rows > 0


class TestTwitterKernels:
    @pytest.fixture(scope="class")
    def db(self):
        return twitter.make_database(400, StorageFormat.TILES, CONFIG)

    @pytest.fixture(scope="class")
    def star_db(self):
        return twitter.make_database(400, StorageFormat.TILES_STAR, CONFIG)

    def test_all_queries_bit_identical(self, db):
        for number, sql in twitter.TWITTER_QUERIES.items():
            run_on_off(db, sql)

    def test_star_queries_bit_identical(self, star_db):
        for number, sql in twitter.TWITTER_QUERIES_STAR.items():
            run_on_off(star_db, sql)


class TestTpchKernels:
    @pytest.fixture(scope="class")
    def db(self):
        return make_tpch(0.002, StorageFormat.TILES,
                         ExtractionConfig(tile_size=256, partition_size=4),
                         combined=True)

    @pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
    def test_query_bit_identical(self, db, query):
        run_on_off(db, TPCH_QUERIES[query])


# ----------------------------------------------------------------------
# adversarial tables: every decline gate must fall back with
# bit-identical results


class TestEdgeCases:
    def _load(self, rows, name="t"):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table(name, rows)
        return db

    def test_null_group_keys(self):
        rows = [{"k": i % 5, "v": float(i)} if i % 3 else {"v": float(i)}
                for i in range(400)]
        db = self._load(rows)
        on, _ = run_on_off(
            db, "select t.data->>'k'::int as k, count(*) as n, "
                "sum(t.data->>'v'::float) as s from t t "
                "group by t.data->>'k'::int order by k")
        assert on.counters.kernel_rows > 0

    def test_string_group_and_join_keys(self):
        words = ["ale", "bock", "cask", "dram", "ester"]
        left = [{"w": words[i % 5], "v": i} for i in range(300)]
        right = [{"w": w, "rank": i} for i, w in enumerate(words)]
        db = self._load(left, "l")
        db.load_table("r", right)
        run_on_off(
            db, "select l.data->>'w' as w, count(*) as n from l l "
                "group by l.data->>'w' order by w")
        on, _ = run_on_off(
            db, "select r.data->>'rank'::int as rank, count(*) as n "
                "from l l, r r "
                "where l.data->>'w' = r.data->>'w' "
                "group by r.data->>'rank'::int order by rank")
        assert on.counters.kernel_rows > 0

    def test_composite_mixed_type_keys(self):
        # column `k` flips between int and string documents; `->>`
        # yields the text form, so the factorizer sees a uniform object
        # column and must keep the dict's first-seen group order across
        # the type-conflicted extraction (raw mixed-object declines are
        # unit-tested in TestFactorize)
        rows = []
        for i in range(200):
            k = i % 4 if i % 2 else f"s{i % 4}"
            rows.append({"k": k, "g": i % 3, "v": float(i)})
        db = self._load(rows)
        on, _ = run_on_off(
            db, "select t.data->>'g'::int as g, count(*) as n, "
                "min(t.data->>'v'::float) as lo from t t "
                "group by t.data->>'g'::int, t.data->>'k' "
                "order by g, n")
        assert on.counters.kernel_rows > 0

    def test_nan_float_keys_force_fallback(self):
        # NaN cannot be ingested (the stats sketches reject it), but a
        # query-time cast of the string "nan" produces NaN group keys:
        # the dict path gives every NaN its own group, so the kernel
        # must decline the batch untouched
        rows = [{"k": "nan" if i % 7 == 0 else str(float(i % 4)),
                 "g": i % 3, "v": i} for i in range(200)]
        db = self._load(rows)
        # two keys, so the generic GroupByKernel (not the single-key
        # vectorized state) owns the batch and must decline it
        on, _ = run_on_off(
            db, "select count(*) as n, sum(t.data->>'v'::int) as s "
                "from t t group by t.data->>'k'::float, "
                "t.data->>'g'::int order by n, s")
        assert on.counters.fallback_rows > 0

    def test_int64_sum_overflow_declines_mid_stream(self):
        # per-group running sums creep toward 2**62: after a few
        # batches the int sum slot's overflow bound trips, the kernel
        # spills its exact state mid-query and the per-tuple loop
        # (arbitrary-precision ints) finishes the remaining batches
        big = 2 ** 56
        rows = [{"g": i % 2, "h": i % 3, "v": big} for i in range(64)]
        db = self._load(rows)
        on, off = run_on_off(
            db, "select t.data->>'g'::int as g, t.data->>'h'::int as h, "
                "sum(t.data->>'v'::int) as s from t t "
                "group by t.data->>'g'::int, t.data->>'h'::int "
                "order by g, h", batch_rows=8)
        assert on.counters.kernel_rows > 0
        assert on.counters.fallback_rows > 0
        assert on.rows[0][2] == 11 * big

    def test_mixed_sign_zero_minmax(self):
        rows = [{"g": i % 2, "v": -0.0 if i % 3 else 0.0}
                for i in range(120)]
        db = self._load(rows)
        # bits() distinguishes -0.0 from 0.0, so the declined kernel
        # must reproduce the serial min/max choice exactly
        run_on_off(
            db, "select t.data->>'g'::int as g, "
                "min(t.data->>'v'::float) as lo, "
                "max(t.data->>'v'::float) as hi "
                "from t t group by t.data->>'g'::int order by g")

    def test_order_by_with_nulls_and_desc(self):
        rows = [{"a": i % 7, "b": None if i % 5 == 0 else i % 3,
                 "v": float(i)} for i in range(300)]
        db = self._load(rows)
        select = ("select t.data->>'a'::int as a, "
                  "t.data->>'b'::int as b, "
                  "t.data->>'v'::float as v from t t ")
        run_on_off(db, select + "order by b desc, a, v")
        run_on_off(db, select + "order by b, a desc, v desc")

    def test_empty_table(self):
        db = Database(StorageFormat.TILES, CONFIG)
        db.create_table("t")
        on, off = run_on_off(
            db, "select t.data->>'k'::int as k, count(*) as n from t t "
                "group by t.data->>'k'::int order by k")
        assert on.rows == [] and off.rows == []

    def test_filter_eliminates_all_rows(self):
        rows = [{"k": i % 3, "v": i} for i in range(100)]
        db = self._load(rows)
        on, off = run_on_off(
            db, "select t.data->>'k'::int as k, "
                "sum(t.data->>'v'::int) as s from t t "
                "where t.data->>'v'::int < 0 "
                "group by t.data->>'k'::int order by k")
        assert on.rows == [] and off.rows == []

    def test_left_and_semi_joins(self):
        left = [{"a": i % 10, "b": f"w{i % 4}", "v": i}
                for i in range(200)]
        right = [{"a": i, "b": f"w{i % 4}", "tag": i * 10}
                 for i in range(6)]
        db = self._load(left, "l")
        db.load_table("r", right)
        # composite (int, string) equi-join through the code probe
        on, _ = run_on_off(
            db, "select r.data->>'tag'::int as tag, count(*) as n "
                "from l l, r r "
                "where l.data->>'a'::int = r.data->>'a'::int "
                "and l.data->>'b' = r.data->>'b' "
                "group by r.data->>'tag'::int order by tag")
        assert on.counters.kernel_rows > 0
        run_on_off(
            db, "select l.data->>'v'::int as v, "
                "r.data->>'tag'::int as tag from l l "
                "left join r r on l.data->>'a'::int = r.data->>'a'::int "
                "and l.data->>'b' = r.data->>'b' "
                "order by v")
        run_on_off(
            db, "select count(*) as n from l l where l.data->>'b' in "
                "(select r.data->>'b' from r r "
                "where r.data->>'a'::int < 3)")


# ----------------------------------------------------------------------
# scatter/gather: the partial chunk builders must stay bit-identical
# with kernels on, through the coordinator merge


class TestPartialKernels:
    @pytest.fixture(scope="class")
    def db(self):
        rows = [{"g": i % 9, "w": f"k{i % 4}",
                 "v": i, "f": float(i) * 0.5}
                for i in range(500)]
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", rows)
        return db

    def _merge_for(self, db, sql, expected_mode, enable_kernels):
        options = QueryOptions(enable_kernels=enable_kernels)
        block = Binder(db.tables, options).bind(parse(sql))
        mode = classify_block(block)
        assert mode == expected_mode
        result = execute_partial(block, options, shard_index=0,
                                 shard_count=1)
        assert result["mode"] == mode
        columns, rows = merge_partial_results(block, mode,
                                              result["pieces"])
        return columns, rows, result["counters"]

    def _compare(self, db, sql, expected_mode):
        cols_on, rows_on, counters_on = self._merge_for(
            db, sql, expected_mode, True)
        cols_off, rows_off, counters_off = self._merge_for(
            db, sql, expected_mode, False)
        assert cols_on == cols_off
        assert len(rows_on) == len(rows_off)
        for row_a, row_b in zip(rows_off, rows_on):
            assert [bits(v) for v in row_a] == [bits(v) for v in row_b]
        return counters_on, counters_off

    def test_generic_mode_groupby(self, db):
        sql = ("select t.data->>'g'::int as g, t.data->>'w' as w, "
               "count(*) as n, sum(t.data->>'v'::int) as s, "
               "min(t.data->>'f'::float) as lo, "
               "max(t.data->>'w') as hi "
               "from t t group by t.data->>'g'::int, t.data->>'w' "
               "order by g, w")
        counters_on, counters_off = self._compare(db, sql, "generic")
        assert counters_on.get("kernel_rows", 0) > 0
        assert counters_off.get("kernel_rows", 0) == 0

    def test_rows_mode_topk(self, db):
        sql = ("select t.data->>'g'::int as g, "
               "t.data->>'f'::float as f from t t "
               "order by f desc, g limit 25")
        counters_on, _ = self._compare(db, sql, "rows")
        assert counters_on.get("kernel_rows", 0) > 0

    def test_generic_mode_avg_int(self, db):
        sql = ("select t.data->>'w' as w, t.data->>'g'::int as g, "
               "avg(t.data->>'v'::int) as m, "
               "count(distinct t.data->>'g'::int) as d from t t "
               "group by t.data->>'w', t.data->>'g'::int "
               "order by w, g")
        self._compare(db, sql, "generic")


# ----------------------------------------------------------------------
# direct kernel units


def _vec(values, column_type=ColumnType.INT64, dtype=np.int64):
    data = np.array(values, dtype=dtype)
    mask = np.array([v is None for v in values]) \
        if dtype == object else np.zeros(len(values), dtype=bool)
    return ColumnVector(column_type, data, mask)


class TestFactorize:
    def test_int_codes_roundtrip(self):
        vec = _vec([5, 2, 5, 9, 2, 2])
        factor = factorize(vec)
        assert factor is not None
        decoded = [factor.decode(row) for row in range(len(vec.data))]
        assert decoded == [5, 2, 5, 9, 2, 2]

    def test_null_rows_get_sentinel(self):
        data = np.array([1, 2, 3], dtype=np.int64)
        mask = np.array([False, True, False])
        factor = factorize(ColumnVector(ColumnType.INT64, data, mask))
        assert factor.decode(1) is None
        assert factor.decode(0) == 1 and factor.decode(2) == 3

    def test_nan_declines(self):
        data = np.array([1.0, float("nan")], dtype=np.float64)
        vec = ColumnVector(ColumnType.FLOAT64, data)
        assert factorize(vec) is None

    def test_mixed_object_declines(self):
        data = np.array([1, "x", 2.5], dtype=object)
        vec = ColumnVector(ColumnType.JSONB, data)
        assert factorize(vec) is None

    def test_combine_codes_mixed_radix(self):
        a = factorize(_vec([0, 0, 1, 1]))
        b = factorize(_vec([0, 1, 0, 1]))
        combined = combine_codes([a, b])
        # four distinct key pairs → four distinct combined codes
        assert len(set(combined.tolist())) == 4


class TestMaskedSum:
    def test_int_overflow_uses_exact_path(self):
        big = 2 ** 62
        data = np.array([big, big, big], dtype=object)
        valid = np.ones(3, dtype=bool)
        assert masked_sum(data, valid) == 3 * big

    def test_float_matches_left_fold(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7]
        data = np.array(values, dtype=np.float64)
        valid = np.ones(len(values), dtype=bool)
        serial = 0.0
        for v in values:
            serial += v
        assert struct.pack("<d", masked_sum(data, valid)) == \
            struct.pack("<d", serial)

    def test_respects_mask(self):
        data = np.array([1, 2, 3, 4], dtype=np.int64)
        valid = np.array([True, False, True, False])
        assert masked_sum(data, valid) == 4


class TestJoinCodeIndex:
    def test_probe_matches_dict_semantics(self):
        build = [_vec(["a", "b", "a", "c"], ColumnType.STRING, object)]
        index = JoinCodeIndex.build(build)
        assert index is not None
        probe = [_vec(["c", "a", "zz", "b"], ColumnType.STRING, object)]
        result = index.probe(probe)
        assert result is not None
        probe_idx, build_idx, counts = result
        pairs = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        # "a" matches build rows 0 and 2 (insertion order), "zz" none
        assert pairs == [(0, 3), (1, 0), (1, 2), (3, 1)]
        assert counts.tolist() == [1, 2, 0, 1]

    def test_dtype_mismatch_declines_probe(self):
        index = JoinCodeIndex.build([_vec([1, 2, 3])])
        probe = [_vec([1.0, 2.0], ColumnType.FLOAT64, np.float64)]
        assert index.probe(probe) is None

    def test_null_build_rows_never_match(self):
        data = np.array([1, 2, 3], dtype=np.int64)
        mask = np.array([False, True, False])
        index = JoinCodeIndex.build(
            [ColumnVector(ColumnType.INT64, data, mask)])
        result = index.probe([_vec([2])])
        assert result is not None
        probe_idx, _build_idx, counts = result
        assert probe_idx.size == 0 and counts.tolist() == [0]


class TestGroupByKernelSpill:
    def test_spill_matches_serial_states(self):
        from repro.engine.operators import HashAggregateOp
        from repro.sql.binder import Binder as _B  # noqa: F401

        # drive the kernel through SQL instead of hand-building
        # AggregateSpec plumbing: covered by the differential classes;
        # here we only check spill is safe mid-stream on a fresh kernel
        kernel = GroupByKernel([])
        assert kernel.supported
        keys = [_vec([1, 1, 2])]
        assert kernel.update(keys, [], 3)
        groups = kernel.spill()
        assert list(groups) == [(1,), (2,)]


class TestColumnVectorValidation:
    def test_mask_length_mismatch_raises(self):
        data = np.arange(4, dtype=np.int64)
        with pytest.raises(StorageError, match="length mismatch"):
            ColumnVector(ColumnType.INT64, data, np.zeros(3, dtype=bool))

    def test_mask_dtype_must_be_bool(self):
        data = np.arange(4, dtype=np.int64)
        with pytest.raises(StorageError, match="dtype"):
            ColumnVector(ColumnType.INT64, data,
                         np.zeros(4, dtype=np.int64))


class TestLexsort:
    def test_matches_python_stable_sort(self):
        rows = [{"a": i % 5, "b": None if i % 4 == 0 else (i % 3)}
                for i in range(100)]
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", rows)
        run_on_off(db, "select t.data->>'a'::int as a, "
                       "t.data->>'b'::int as b from t t "
                       "order by a, b desc")
