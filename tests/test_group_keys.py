"""The one-pass object-key GROUP BY of ``_SingleKeyState.update``
against the per-row loop it replaced.

Object keys follow Python dict semantics: ``1``, ``1.0`` and ``True``
are one group (represented by the first to appear), a NaN object only
matches itself, NULL rows form the ``None`` group, and group ids are
assigned in order of first appearance across batches.
"""

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ColumnType
from repro.engine.batch import Batch
from repro.engine.expressions import ColumnRef
from repro.engine.operators import AggregateSpec, _SingleKeyState
from repro.storage.column import ColumnVector

NAN_A = float("nan")
NAN_B = float("nan")


def reference_groups(batches, group_ids: Dict[object, int],
                     key_values: List[object]) -> List[List[int]]:
    """The per-row loop ``_SingleKeyState.update`` used to run on
    object keys; returns the per-batch group ids."""
    out = []
    for keys, nulls in batches:
        local = []
        for row in range(len(keys)):
            value = None if nulls[row] else keys[row]
            gid = group_ids.get(value)
            if gid is None:
                gid = len(key_values)
                group_ids[value] = gid
                key_values.append(value)
            local.append(gid)
        out.append(local)
    return out


class Capturing(_SingleKeyState):
    """Records the group ids ``update`` hands to the aggregates."""

    __slots__ = ("seen",)

    def _vector_update(self, spec, slot, batch, local, num_groups):
        self.seen.append(local.tolist())
        super()._vector_update(spec, slot, batch, local, num_groups)


def run_state(batches):
    state = Capturing(ColumnRef("k", ColumnType.STRING),
                      [AggregateSpec("count_star", None, "n")])
    state.seen = []
    for keys, nulls in batches:
        data = np.empty(len(keys), dtype=object)
        data[:] = keys
        vector = ColumnVector(ColumnType.STRING, data,
                              np.array(nulls, dtype=bool))
        state.update(Batch({"k": vector}, len(keys)))
    return state


def assert_same_groups(batches):
    ref_ids: Dict[object, int] = {}
    ref_values: List[object] = []
    expected = reference_groups(batches, ref_ids, ref_values)
    state = run_state(batches)
    assert state.seen == expected
    # the same representatives, by identity (1 vs 1.0 vs True, which
    # NaN object)
    assert len(state.key_values) == len(ref_values)
    for got, want in zip(state.key_values, ref_values):
        assert got is want or (got == want and type(got) is type(want))
    counts = [0] * len(ref_values)
    for local in expected:
        for gid in local:
            counts[gid] += 1
    assert state.counts[0] == counts


class TestObjectKeys:
    def test_numeric_equality_collapses_in_appearance_order(self):
        assert_same_groups([([1.0, 1, True, "1", 2, 2.0], [False] * 6)])
        assert_same_groups([([True, 1, 1.0], [False] * 3),
                            ([1, 0, False, 0.0], [False] * 4)])

    def test_nan_objects_match_only_themselves(self):
        assert_same_groups([([NAN_A, NAN_B, NAN_A, "x", NAN_B],
                             [False] * 5),
                            ([NAN_B, float("nan")], [False, False])])

    def test_nulls_and_none_share_a_group(self):
        assert_same_groups([(["a", "masked", None, "b"],
                             [False, True, False, False]),
                            (["b", "a", "again"], [False, False, True])])

    def test_empty_batch(self):
        assert_same_groups([([], []), (["a"], [False])])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(
        st.tuples(st.sampled_from(
            ["a", "b", "", "é", 1, 1.0, True, 0, False, 0.0, 2, None,
             NAN_A, NAN_B]), st.booleans()),
        max_size=20), max_size=4))
    def test_matches_the_per_row_loop(self, batches):
        assert_same_groups([([key for key, _ in batch],
                             [null for _, null in batch])
                            for batch in batches])
