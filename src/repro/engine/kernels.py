"""Vectorized batch kernels (ROADMAP item 3: "Vectorized kernels and
Arrow-native columnar interop").

The engine's remaining per-tuple loops — multi-key GROUP BY, the
generic hash-join build/probe, ORDER BY's Python row comparator —
all reduce to the same primitive: *factorization*.  Each key
:class:`~repro.storage.column.ColumnVector` is canonicalized to dense
int codes (``np.unique(..., return_inverse=True)``; NULL rows get a
dedicated sentinel code), multi-key codes fold into one mixed-radix
group id, and the per-row work becomes array-at-a-time numpy.

Bit-identity contract.  Every kernel here must produce *exactly* the
rows the per-tuple reference paths in ``operators.py`` produce — the
differential suite (``tests/test_kernels.py``) asserts it.  The three
load-bearing facts:

* ``np.add.at`` is unbuffered and applies its updates in element
  order, so accumulating a batch into persistent per-group float64
  slots replays the serial loop's exact float-addition sequence;
* ``np.unique(..., return_index=True)`` uses a stable sort, so the
  representative kept for a run of ``==``-equal values is the first
  occurrence — the same value a dict probe would have stored;
* ``np.lexsort`` and stable argsort preserve input order on ties,
  matching Python's stable ``list.sort`` and the insertion-ordered
  build lists of the join hash table.

Where numpy semantics and the per-tuple semantics could diverge —
NaN keys (dict: every NaN its own group; ``np.unique``: collapsed),
mixed-sign zeros under min/max, int64 sums near overflow, arrays of
incomparable objects — the kernel *declines the batch before mutating
any state* and the caller falls back to the per-tuple path, which is
retained as the differential-test oracle.  Declines are observable as
``fallback_rows`` in :class:`~repro.engine.scan.ScanCounters`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import ColumnVector

#: running int64 sums refuse batches that could push any accumulator
#: past this (headroom below 2**63 so no intermediate prefix wraps)
_INT64_BOUND = 2 ** 62


class Factorized:
    """Dense dictionary codes for one vector.

    ``codes[i]`` is in ``[0, k)`` for valid rows and equals ``k`` (the
    NULL sentinel) for NULL rows; ``values[j]`` is the Python scalar
    for code ``j`` (ascending order, first-occurrence representative);
    ``uniques`` keeps the sorted distinct values as a numpy array for
    ``searchsorted`` probing.
    """

    __slots__ = ("codes", "values", "uniques")

    def __init__(self, codes: np.ndarray, values: List[object],
                 uniques: np.ndarray):
        self.codes = codes
        self.values = values
        self.uniques = uniques

    @property
    def width(self) -> int:
        """Radix of this key: distinct values + the NULL sentinel."""
        return len(self.values) + 1

    def decode(self, row: int) -> object:
        """Python value of *row* (``None`` for the NULL sentinel) —
        identical to what ``_scalar`` yields for the same slot."""
        code = int(self.codes[row])
        return None if code >= len(self.values) else self.values[code]


def factorize(vector: ColumnVector) -> Optional[Factorized]:
    """Dictionary-encode *vector*, or ``None`` when dense codes cannot
    reproduce per-tuple semantics (NaN present, incomparable objects).
    """
    data, mask = vector.data, vector.null_mask
    n = len(data)
    valid = ~mask
    vals = data[valid]
    if len(vals) == 0:
        return Factorized(np.zeros(n, dtype=np.int64), [],
                          np.empty(0, dtype=data.dtype))
    if data.dtype.kind == "f" and np.isnan(vals).any():
        return None  # dict keys treat every NaN as its own group
    try:
        uniques, inverse = np.unique(vals, return_inverse=True)
        if data.dtype == object:
            # uniques are first-occurrence representatives (stable
            # sort); a NaN hiding in an object column surfaces here
            values = list(uniques)
            if any(isinstance(v, float) and v != v for v in values):
                return None
        else:
            values = uniques.tolist()
    except TypeError:
        return None  # mixed incomparable types (e.g. str vs int)
    codes = np.full(n, len(values), dtype=np.int64)
    codes[valid] = inverse
    return Factorized(codes, values, uniques)


def combine_codes(factors: Sequence[Factorized]) -> np.ndarray:
    """Fold per-key codes into one injective combined code per row
    (mixed radix; NULL sentinels participate like ordinary values).
    Re-densifies through ``np.unique`` whenever the running radix
    nears int64 range, so any number of keys is safe."""
    comb = factors[0].codes
    radix = factors[0].width
    for factor in factors[1:]:
        width = factor.width
        if radix * width >= _INT64_BOUND:
            dense, comb = np.unique(comb, return_inverse=True)
            comb = comb.astype(np.int64)
            radix = len(dense)
        comb = comb * width + factor.codes
        radix *= width
    return comb


# ----------------------------------------------------------------------
# GROUP BY


def _type_family(value: object) -> object:
    """Comparison family of a Python scalar: all numeric types
    inter-compare exactly; anything else only within its own type."""
    return "num" if isinstance(value, (int, float, bool)) else type(value)


class _Slot:
    """Per-aggregate kernel state.  ``prepare`` inspects one batch and
    returns an opaque plan (or ``None`` to decline — it must not mutate
    anything); ``apply`` commits the plan; ``state_for`` converts one
    group's state to the per-tuple representation for spilling."""

    def prepare(self, vector: Optional[ColumnVector], length: int):
        raise NotImplementedError

    def apply(self, gids: np.ndarray, plan, ngroups: int) -> None:
        raise NotImplementedError

    def state_for(self, gid: int) -> List:
        raise NotImplementedError


def _grown(array: np.ndarray, n: int, fill) -> np.ndarray:
    if len(array) >= n:
        return array
    grown = np.full(max(n, 2 * len(array), 16), fill, dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class _CountSlot(_Slot):
    """count(*) and count(expr)."""

    def __init__(self, star: bool):
        self.star = star
        self.counts = np.zeros(0, dtype=np.int64)

    def prepare(self, vector, length):
        if self.star:
            return np.ones(length, dtype=bool)
        return ~vector.null_mask

    def apply(self, gids, plan, ngroups):
        self.counts = _grown(self.counts, ngroups, 0)
        add = np.bincount(gids[plan], minlength=0)
        self.counts[:len(add)] += add

    def state_for(self, gid):
        return [int(self.counts[gid])]


class _SumIntSlot(_Slot):
    """SUM over int64 inputs: exact int64 accumulation guarded by a
    running bound so no intermediate prefix can wrap (the serial loop
    accumulates arbitrary-precision Python ints)."""

    def __init__(self):
        self.acc = np.zeros(0, dtype=np.int64)
        self.bound = 0

    def prepare(self, vector, length):
        if vector.data.dtype != np.int64:
            return None
        valid = ~vector.null_mask
        vals = vector.data[valid]
        if len(vals):
            top = max(abs(int(vals.max())), abs(int(vals.min())))
            if self.bound + len(vals) * top >= _INT64_BOUND:
                return None
            step = len(vals) * top
        else:
            step = 0
        return valid, vals, step

    def apply(self, gids, plan, ngroups):
        valid, vals, step = plan
        self.acc = _grown(self.acc, ngroups, 0)
        np.add.at(self.acc, gids[valid], vals)
        self.bound += step

    def state_for(self, gid):
        return [int(self.acc[gid])]


class _SumFloatSlot(_Slot):
    """SUM/AVG float accumulation.  ``np.add.at`` into a persistent
    float64 slot replays the serial ``state += value`` sequence
    bit-for-bit (updates apply in element = row order, unbuffered)."""

    def __init__(self, with_count: bool):
        self.with_count = with_count
        self.acc = np.zeros(0, dtype=np.float64)
        self.counts = np.zeros(0, dtype=np.int64)

    def prepare(self, vector, length):
        kind = vector.data.dtype.kind
        if kind not in ("f", "i"):
            return None
        valid = ~vector.null_mask
        vals = vector.data[valid]
        if kind == "i":
            if not self.with_count:
                return None  # plain int SUM stays exact in _SumIntSlot
            # AVG over ints: the serial state starts at 0.0, so every
            # update is float64 addition — int->float64 conversion here
            # rounds identically to Python's ``float += int``
            vals = vals.astype(np.float64)
        return valid, vals

    def apply(self, gids, plan, ngroups):
        valid, vals = plan
        self.acc = _grown(self.acc, ngroups, 0.0)
        np.add.at(self.acc, gids[valid], vals)
        if self.with_count:
            self.counts = _grown(self.counts, ngroups, 0)
            add = np.bincount(gids[valid], minlength=0)
            self.counts[:len(add)] += add

    def state_for(self, gid):
        if self.with_count:
            return [float(self.acc[gid]), int(self.counts[gid])]
        return [float(self.acc[gid])]


class _MinMaxNumSlot(_Slot):
    """MIN/MAX over int64/float64: exact comparisons, so
    ``np.minimum.at``/``np.maximum.at`` match the serial strict-``<``
    scan for every total order numpy and Python agree on.  Declined:
    NaN (serial keeps the running value, numpy propagates NaN) and
    mixed-sign zeros (serial keeps the first-seen zero)."""

    def __init__(self, is_min: bool):
        self.is_min = is_min
        self.acc: Optional[np.ndarray] = None
        self.seen = np.zeros(0, dtype=np.int64)

    def prepare(self, vector, length):
        dtype = vector.data.dtype
        if dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
            return None
        if self.acc is not None and self.acc.dtype != dtype:
            return None
        valid = ~vector.null_mask
        vals = vector.data[valid]
        if dtype.kind == "f" and len(vals):
            if np.isnan(vals).any():
                return None
            zeros = vals == 0
            if zeros.any() and np.signbit(vals[zeros]).any():
                return None
        return valid, vals

    def _init_value(self, dtype):
        if dtype.kind == "f":
            return np.inf if self.is_min else -np.inf
        return np.iinfo(np.int64).max if self.is_min \
            else np.iinfo(np.int64).min

    def apply(self, gids, plan, ngroups):
        valid, vals = plan
        if self.acc is None:
            self.acc = np.zeros(0, dtype=vals.dtype)
        fill = self._init_value(self.acc.dtype)
        if len(self.acc) < ngroups:
            grown = np.full(max(ngroups, 2 * len(self.acc), 16), fill,
                            dtype=self.acc.dtype)
            grown[:len(self.acc)] = self.acc
            self.acc = grown
        self.seen = _grown(self.seen, ngroups, 0)
        reducer = np.minimum if self.is_min else np.maximum
        reducer.at(self.acc, gids[valid], vals)
        add = np.bincount(gids[valid], minlength=0)
        self.seen[:len(add)] += add

    def state_for(self, gid):
        if self.acc is None or not self.seen[gid]:
            return [None]
        return [self.acc[gid].item()]


class _MinMaxObjSlot(_Slot):
    """MIN/MAX over object columns (strings, JSONB scalars): factorize
    the batch, take the extreme *code* per group (codes are
    order-isomorphic to values within a batch), then merge the few
    per-group representatives against the running Python extremes."""

    def __init__(self, is_min: bool):
        self.is_min = is_min
        self.extremes: List[object] = []
        self.family: Optional[object] = None

    def prepare(self, vector, length):
        factor = factorize(vector)
        if factor is None:
            return None
        if factor.values:
            families = {_type_family(v) for v in factor.values}
            if len(families) > 1:
                return None
            family = families.pop()
            if self.family is not None and family != self.family:
                return None  # cross-batch merge would not compare
            return factor, family
        return factor, self.family

    def apply(self, gids, plan, ngroups):
        factor, family = plan
        self.family = family
        while len(self.extremes) < ngroups:
            self.extremes.append(None)
        k = len(factor.values)
        if not k:
            return
        valid = factor.codes < k
        if self.is_min:
            best = np.full(ngroups, k, dtype=np.int64)
            np.minimum.at(best, gids[valid], factor.codes[valid])
            touched = best < k
        else:
            best = np.full(ngroups, -1, dtype=np.int64)
            np.maximum.at(best, gids[valid], factor.codes[valid])
            touched = best >= 0
        for gid in np.flatnonzero(touched):
            candidate = factor.values[int(best[gid])]
            current = self.extremes[gid]
            if current is None or (candidate < current if self.is_min
                                   else candidate > current):
                self.extremes[gid] = candidate

    def state_for(self, gid):
        return [self.extremes[gid]]


class _CountDistinctSlot(_Slot):
    """count(distinct expr): factorize the batch, deduplicate
    ``(group, code)`` pairs, and touch the per-group Python sets once
    per distinct pair instead of once per row."""

    def __init__(self):
        self.sets: List[set] = []

    def prepare(self, vector, length):
        factor = factorize(vector)
        if factor is None:
            return None
        return factor

    def apply(self, gids, plan, ngroups):
        factor = plan
        while len(self.sets) < ngroups:
            self.sets.append(set())
        k = len(factor.values)
        if not k:
            return
        valid = factor.codes < k
        pairs = np.unique(gids[valid] * k + factor.codes[valid])
        for pair in pairs:
            gid, code = divmod(int(pair), k)
            self.sets[gid].add(factor.values[code])

    def state_for(self, gid):
        return [self.sets[gid]]


def _make_slot(spec) -> Optional[_Slot]:
    from repro.core.types import ColumnType

    if spec.func == "count_star":
        return _CountSlot(star=True)
    if spec.func == "count":
        return _CountSlot(star=False)
    if spec.func == "count_distinct":
        return _CountDistinctSlot()
    result = spec.expr.result_type if spec.expr is not None else None
    if spec.func == "sum":
        if result in (ColumnType.INT64, ColumnType.TIMESTAMP):
            return _SumIntSlot()
        if result in (ColumnType.FLOAT64, ColumnType.DECIMAL):
            return _SumFloatSlot(with_count=False)
        return None
    if spec.func == "avg":
        if result in (ColumnType.INT64, ColumnType.TIMESTAMP,
                      ColumnType.FLOAT64, ColumnType.DECIMAL):
            return _SumFloatSlot(with_count=True)
        return None
    if spec.func in ("min", "max"):
        if result in (ColumnType.INT64, ColumnType.TIMESTAMP,
                      ColumnType.FLOAT64, ColumnType.DECIMAL):
            return _MinMaxNumSlot(is_min=spec.func == "min")
        if result in (ColumnType.STRING, ColumnType.JSONB):
            return _MinMaxObjSlot(is_min=spec.func == "min")
        return None
    return None


class GroupByKernel:
    """Vectorized generic GROUP BY (composite / string keys).

    Group ids are assigned by first appearance — the per-batch distinct
    combined codes are visited in first-occurrence row order and probed
    against a persistent dict of decoded key tuples, so the group
    enumeration order matches the serial dict exactly.  ``update``
    either commits a whole batch or declines it untouched; ``spill``
    converts the accumulated state to the classic per-tuple
    ``{key_tuple: state_list}`` dict so the caller can continue on the
    reference path (or finish through the unchanged ``_finish``).
    """

    def __init__(self, aggregates: Sequence):
        self.aggregates = list(aggregates)
        self.groups: Dict[tuple, int] = {}
        self.key_tuples: List[tuple] = []
        self._slots = [_make_slot(spec) for spec in self.aggregates]
        self.supported = all(slot is not None for slot in self._slots)

    def update(self, key_vectors: Sequence[ColumnVector],
               agg_vectors: Sequence[Optional[ColumnVector]],
               length: int) -> bool:
        """Fold one batch in; ``False`` declines it with no state
        change (the caller must run the per-tuple path instead)."""
        if not self.supported:
            return False
        if length == 0:
            return True
        factors = []
        for vector in key_vectors:
            factor = factorize(vector)
            if factor is None:
                return False
            factors.append(factor)
        plans = []
        for slot, vector in zip(self._slots, agg_vectors):
            plan = slot.prepare(vector, length)
            if plan is None:
                return False
            plans.append(plan)
        gids = self._assign_gids(factors, length)
        ngroups = len(self.key_tuples)
        for slot, plan in zip(self._slots, plans):
            slot.apply(gids, plan, ngroups)
        return True

    def _assign_gids(self, factors: List[Factorized],
                     length: int) -> np.ndarray:
        if not factors:
            if not self.key_tuples:
                self.groups[()] = 0
                self.key_tuples.append(())
            return np.zeros(length, dtype=np.int64)
        comb = combine_codes(factors)
        _uniq, first, inverse = np.unique(comb, return_index=True,
                                          return_inverse=True)
        local_gid = np.empty(len(first), dtype=np.int64)
        for j in np.argsort(first, kind="stable"):
            row = int(first[j])
            key = tuple(factor.decode(row) for factor in factors)
            gid = self.groups.get(key)
            if gid is None:
                gid = len(self.key_tuples)
                self.groups[key] = gid
                self.key_tuples.append(key)
            local_gid[j] = gid
        return local_gid[inverse]

    def spill(self) -> Dict[tuple, List]:
        groups: Dict[tuple, List] = {}
        for gid, key in enumerate(self.key_tuples):
            groups[key] = [slot.state_for(gid) for slot in self._slots]
        return groups


# ----------------------------------------------------------------------
# JOIN


class JoinCodeIndex:
    """Vectorized build-side index for composite / string-key joins.

    Build keys are factorized and folded into sorted combined codes;
    probing encodes each probe column against the build dictionaries
    with ``searchsorted`` and expands matches array-at-a-time.  Stable
    argsort keeps equal-key build rows in insertion order, so matches
    stream out exactly like the per-tuple hash table's lists.
    """

    __slots__ = ("_factors", "_sorted_combs", "_sorted_positions")

    @classmethod
    def build(cls, vectors: Sequence[ColumnVector]) \
            -> Optional["JoinCodeIndex"]:
        factors = []
        radix = 1
        for vector in vectors:
            factor = factorize(vector)
            if factor is None:
                return None
            factors.append(factor)
            radix *= factor.width
            if radix >= _INT64_BOUND:
                return None  # keep build/probe folds aligned: no densify
        length = len(vectors[0])
        valid = np.ones(length, dtype=bool)
        for vector in vectors:
            valid &= ~vector.null_mask  # NULL keys never match
        comb = factors[0].codes.copy()
        for factor in factors[1:]:
            comb = comb * factor.width + factor.codes
        positions = np.flatnonzero(valid)
        combs = comb[positions]
        order = np.argsort(combs, kind="stable")
        index = cls()
        index._factors = factors
        index._sorted_combs = combs[order]
        index._sorted_positions = positions[order]
        return index

    def probe(self, vectors: Sequence[ColumnVector]):
        """``(probe_idx, build_idx, counts)`` for one probe batch, or
        ``None`` when the batch cannot be encoded (dtype mismatch,
        incomparable objects) and the per-tuple probe must run."""
        length = len(vectors[0])
        comb = np.zeros(length, dtype=np.int64)
        miss = np.zeros(length, dtype=bool)
        for factor, vector in zip(self._factors, vectors):
            encoded = _encode_against(factor, vector)
            if encoded is None:
                return None
            codes, bad = encoded
            miss |= bad
            comb = comb * factor.width + np.where(bad, 0, codes)
        left = np.searchsorted(self._sorted_combs, comb, side="left")
        right = np.searchsorted(self._sorted_combs, comb, side="right")
        counts = (right - left).astype(np.int64)
        counts[miss] = 0
        left = np.where(miss, 0, left)
        probe_idx, build_idx = expand_matches(self._sorted_positions,
                                              left, counts)
        return probe_idx, build_idx, counts


def _encode_against(factor: Factorized, vector: ColumnVector):
    """Map probe values into *factor*'s build code space; unmatched or
    NULL rows are flagged.  ``None`` declines the batch."""
    data, mask = vector.data, vector.null_mask
    uniques = factor.uniques
    k = len(uniques)
    bad = mask.copy()
    if k == 0:
        return np.zeros(len(data), dtype=np.int64), \
            np.ones(len(data), dtype=bool)
    if uniques.dtype == object or data.dtype == object:
        if uniques.dtype != object or data.dtype != object:
            return None
        # values under the null mask are unspecified (often None) and
        # would poison object comparisons — overwrite with a probe-safe
        # value before the vectorized search
        clean = data.copy()
        clean[mask] = uniques[0]
        try:
            pos = np.searchsorted(uniques, clean)
            capped = np.minimum(pos, k - 1)
            hit = np.asarray(uniques[capped] == clean, dtype=bool)
        except TypeError:
            return None
    else:
        if uniques.dtype != data.dtype:
            return None  # e.g. int64 probe of a float64 build: the
            # dict compares exactly, promoted floats may not
        pos = np.searchsorted(uniques, data)
        capped = np.minimum(pos, k - 1)
        with np.errstate(invalid="ignore"):
            hit = uniques[capped] == data
    bad |= ~hit
    return capped.astype(np.int64), bad


def expand_matches(sorted_positions: np.ndarray, left: np.ndarray,
                   counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-probe match ranges over a sorted-key index into
    ``(probe_idx, build_idx)`` pairs (shared with the single-int join
    fast path's layout: probe order outer, build order inner)."""
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(left, counts)
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts,
                                                          counts)
    build_idx = sorted_positions[starts + within]
    return probe_idx, build_idx


# ----------------------------------------------------------------------
# ORDER BY


def lexsort_indices(batch, keys) -> Optional[np.ndarray]:
    """Null-aware ``np.lexsort`` row order for ``ORDER BY`` *keys*, or
    ``None`` when a key cannot be factorized (NaN, mixed types) and
    the Python comparator must run.

    Per key, rows map to dense rank codes with NULLs at rank ``k`` —
    past every value in either direction, reproducing the comparator's
    "NULLs always sort last" contract; descending keys flip the value
    ranks to ``(k-1) - code`` while NULLs stay at ``k``.  ``lexsort``
    is stable, so ties fall back to input order exactly like the
    stable per-row sort.
    """
    arrays = []
    for sort_key in keys:
        factor = factorize(batch.column(sort_key.name))
        if factor is None:
            return None
        k = len(factor.values)
        codes = factor.codes
        if sort_key.descending:
            codes = np.where(codes == k, k, (k - 1) - codes)
        arrays.append(codes)
    if not arrays:
        return np.arange(batch.length, dtype=np.int64)
    return np.lexsort(arrays[::-1]).astype(np.int64)


# ----------------------------------------------------------------------
# scalar reductions (the no-GROUP-BY aggregate path)


def masked_sum(data: np.ndarray, valid: np.ndarray) -> object:
    """Sum of ``data[valid]`` without materializing a Python list.

    int64 inputs use the native reduction while a conservative bound
    proves no intermediate can wrap, then fall back to an object-dtype
    reduce (exact arbitrary-precision Python ints).  Object inputs
    reduce directly — ``np.add.reduce`` folds left-to-right, replaying
    ``sum()``'s sequence."""
    vals = data[valid]
    if vals.dtype == object:
        return vals.sum()
    if vals.dtype.kind in "iub":
        if len(vals) == 0:
            return 0
        top = max(abs(int(vals.max())), abs(int(vals.min())))
        if len(vals) * top < _INT64_BOUND:
            return int(vals.sum(dtype=np.int64))
        return int(vals.astype(object).sum())
    return vals.sum().item()
