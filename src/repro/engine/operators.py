"""Physical operators of the vectorized engine.

All operators pull batches from their children.  Joins and aggregation
use numpy fast paths for single int64 keys (the common case once JSON
accesses are pushed down and cast-rewritten) and fall back to generic
hashing for composite or string keys.

Morsel-driven parallelism: aggregation and top-k recognize when their
child pipeline bottoms out at a :class:`~repro.engine.scan.TableScan`
(through filters/projections) and, when the scan is configured with
``parallelism > 1``, dispatch tile morsels to the shared worker pool.
Each worker runs scan → predicate → partial state on its morsel; the
merge stage folds partials **in morsel order**, replaying the serial
engine's exact float-operation sequence so results stay bit-identical
at any worker count.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import ColumnType
from repro.engine.batch import Batch, concat_batches
from repro.engine.expressions import Expression
from repro.engine.kernels import (GroupByKernel, JoinCodeIndex,
                                  lexsort_indices, masked_sum)
from repro.engine.scan import ScanCounters
from repro.errors import ExecutionError
from repro.storage.column import ColumnVector


class Operator:
    def batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def materialize(self) -> Optional[Batch]:
        return concat_batches(list(self.batches()))


class BatchSource(Operator):
    """Wrap pre-computed batches (used by subplans and tests)."""

    def __init__(self, batches: Sequence[Batch]):
        self._batches = list(batches)

    def batches(self) -> Iterator[Batch]:
        return iter(self._batches)


class FilterOp(Operator):
    def __init__(self, child: Operator, predicate: Expression,
                 pre_applied: bool = False):
        self.child = child
        self.predicate = predicate
        #: the optimizer already pushed this predicate into the scan
        #: below (where the late-materialization split can use it); the
        #: operator stays in the tree as a plan-shape/EXPLAIN marker
        #: and passes batches through untouched
        self.pre_applied = pre_applied

    def batches(self) -> Iterator[Batch]:
        if self.pre_applied:
            yield from self.child.batches()
            return
        for batch in self.child.batches():
            verdict = self.predicate.evaluate(batch)
            keep = verdict.data.astype(bool) & ~verdict.null_mask
            if keep.any():
                yield batch.filter(keep) if not keep.all() else batch


class ProjectOp(Operator):
    def __init__(self, child: Operator,
                 outputs: Sequence[Tuple[str, Expression]]):
        self.child = child
        self.outputs = list(outputs)

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            columns = {name: expr.evaluate(batch)
                       for name, expr in self.outputs}
            yield Batch(columns, batch.length)


def _extract_pipeline(op):
    """Peel filters/projections off *op* down to a TableScan.

    Returns ``(scan, transforms)`` where *transforms* re-applies the
    peeled operators (scan-order) to one morsel's batch, or
    ``(None, [])`` when the tree does not bottom out at a scan — then
    the caller falls back to streaming ``child.batches()`` (which
    still parallelizes inside the scan itself).
    """
    from repro.engine.scan import TableScan

    transforms: List[Tuple[str, object]] = []
    node = op
    while True:
        if isinstance(node, TableScan):
            transforms.reverse()
            return node, transforms
        if isinstance(node, FilterOp):
            if not node.pre_applied:  # pre-applied: the scan filters
                transforms.append(("filter", node.predicate))
            node = node.child
        elif isinstance(node, ProjectOp):
            transforms.append(("project", node.outputs))
            node = node.child
        else:
            return None, []


def _apply_transforms(batch: Optional[Batch], transforms) -> Optional[Batch]:
    """Replay peeled filter/project semantics on one morsel batch;
    ``None`` means the morsel contributed no rows."""
    if batch is None or batch.length == 0:
        return None
    for kind, payload in transforms:
        if kind == "filter":
            verdict = payload.evaluate(batch)
            keep = verdict.data.astype(bool) & ~verdict.null_mask
            if not keep.any():
                return None
            if not keep.all():
                batch = batch.filter(keep)
        else:
            batch = Batch({name: expr.evaluate(batch)
                           for name, expr in payload}, batch.length)
    return batch if batch.length else None


def _parallel_source(child):
    """The (scan, transforms, morsels) triple when *child* can be
    morsel-dispatched; ``None`` keeps the serial path."""
    scan, transforms = _extract_pipeline(child)
    if scan is None or scan.parallelism <= 1:
        return None
    return scan, transforms, scan.morsels()


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"


class HashJoinOp(Operator):
    """Hash join; the *right* child is the build side.

    For LEFT joins the left child is the probe/outer side, so the
    optimizer must put the preserved side on the left.

    A *null_aware* ANTI join is ``NOT IN (subquery)`` under SQL's
    three-valued logic: an empty build side keeps every probe row, a
    build side holding a NULL key keeps none (each comparison is NULL
    or FALSE), and otherwise a probe row with a NULL key is dropped.
    A plain ANTI join (``NOT EXISTS``) keeps every unmatched row.
    """

    def __init__(self, left: Operator, right: Operator,
                 left_keys: Sequence[Expression],
                 right_keys: Sequence[Expression],
                 kind: JoinKind = JoinKind.INNER,
                 residual: Optional[Expression] = None,
                 right_schema: Optional[Dict[str, ColumnType]] = None,
                 enable_kernels: bool = False,
                 null_aware: bool = False):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.kind = kind
        self.residual = residual
        #: column name -> type of the build side, needed to pad NULLs
        #: for LEFT joins when the build side is empty
        self.right_schema = right_schema
        self.enable_kernels = enable_kernels
        self.null_aware = null_aware and kind == JoinKind.ANTI
        #: kernel_rows / fallback_rows for EXPLAIN ANALYZE (merged into
        #: the query result's counters by the executor)
        self.counters = ScanCounters()

    # -- helpers ---------------------------------------------------------

    def _key_arrays(self, batch: Batch,
                    exprs: Sequence[Expression]) -> List[ColumnVector]:
        return [expr.evaluate(batch) for expr in exprs]

    def batches(self) -> Iterator[Batch]:
        build = concat_batches(list(self.right.batches()))
        if build is None and self.kind in (JoinKind.INNER, JoinKind.SEMI):
            return
        if self.null_aware and build is not None and any(
                key.evaluate(build).null_mask.any()
                for key in self.right_keys):
            return  # x NOT IN (..., NULL, ...) is never true
        build_index = _BuildIndex(build, self.right_keys,
                                  enable_kernels=self.enable_kernels,
                                  counters=self.counters) if build else None

        for probe in self.left.batches():
            if probe.length == 0:
                continue
            if build_index is None:
                if self.kind == JoinKind.ANTI:
                    yield probe
                elif self.kind == JoinKind.LEFT:
                    yield _pad_schema_nulls(probe, self.right_schema)
                continue
            keys = self._key_arrays(probe, self.left_keys)
            probe_idx, build_idx, match_counts = build_index.lookup(keys)
            if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
                if self.residual is not None and len(probe_idx):
                    # a match only counts when the residual holds on the
                    # combined row (Q21-style correlated predicates)
                    combined = _combine(probe, probe_idx,
                                        build_index.batch, build_idx)
                    verdict = self.residual.evaluate(combined)
                    ok = verdict.data.astype(bool) & ~verdict.null_mask
                    match_counts = np.zeros(probe.length, dtype=np.int64)
                    matched = np.unique(probe_idx[ok])
                    match_counts[matched] = 1
                keep = (match_counts > 0 if self.kind == JoinKind.SEMI
                        else match_counts == 0)
                if self.null_aware:
                    for key in keys:
                        keep &= ~key.null_mask
                if keep.any():
                    yield probe.filter(keep)
                continue
            combined = _combine(probe, probe_idx, build_index.batch, build_idx)
            if self.residual is not None and combined.length:
                verdict = self.residual.evaluate(combined)
                keep = verdict.data.astype(bool) & ~verdict.null_mask
                if self.kind == JoinKind.INNER:
                    combined = combined.filter(keep)
                else:
                    # LEFT join residual: drop failed matches, below we
                    # re-add unmatched probes
                    matched_probe = np.unique(probe_idx[keep])
                    combined = combined.filter(keep)
                    match_counts = np.zeros(probe.length, dtype=np.int64)
                    match_counts[matched_probe] = 1
            if self.kind == JoinKind.LEFT:
                unmatched = match_counts == 0
                if unmatched.any():
                    padded = _pad_right_nulls(probe.filter(unmatched),
                                              self.right_keys,
                                              build_index.batch)
                    combined = concat_batches([combined, padded]) or combined
            if combined.length:
                yield combined


class _BuildIndex:
    """Hash index over the build side of a join.

    Three layouts share one ``lookup`` contract: the original sorted
    single-int64 fast path, the :class:`~repro.engine.kernels.
    JoinCodeIndex` batch kernel for composite/string keys (gated on
    ``enable_kernels``), and the per-tuple dict — which doubles as the
    fallback whenever a kernel declines a probe batch, and as the
    differential-test oracle.
    """

    def __init__(self, batch: Batch, key_exprs: Sequence[Expression],
                 enable_kernels: bool = False,
                 counters: Optional[ScanCounters] = None):
        self.batch = batch
        self.counters = counters
        self.enable_kernels = enable_kernels
        vectors = [expr.evaluate(batch) for expr in key_exprs]
        self._vectors = vectors
        self._table: Optional[Dict[tuple, List[int]]] = None
        self._kernel: Optional[JoinCodeIndex] = None
        self._single_int = (
            len(vectors) == 1 and vectors[0].data.dtype != object
        )
        if self._single_int:
            vector = vectors[0]
            valid = ~vector.null_mask
            self._valid_positions = np.flatnonzero(valid)
            keys = vector.data[self._valid_positions]
            order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[order]
            self._sorted_positions = self._valid_positions[order]
            return
        if enable_kernels:
            self._kernel = JoinCodeIndex.build(vectors)
        if self._kernel is None:
            self._build_table()

    def prewarm(self) -> None:
        """Materialize the per-tuple dict eagerly so ``lookup`` is
        read-only afterwards.  The probe fragment of a broadcast join
        (``engine/partial.py``) shares one index across pool workers;
        without prewarming, a kernel decline (or an object-keyed probe
        of the single-int layout) would lazily build the dict from two
        threads at once."""
        if self._table is not None:
            return
        if self._single_int:
            table: Dict[tuple, List[int]] = {}
            for position, key in zip(self._sorted_positions,
                                     self._sorted_keys):
                table.setdefault((key,), []).append(int(position))
            self._table = table
        else:
            self._build_table()

    def _build_table(self) -> None:
        self._table = {}
        masks = [vector.null_mask for vector in self._vectors]
        datas = [vector.data for vector in self._vectors]
        for row in range(self.batch.length):
            if any(mask[row] for mask in masks):
                continue  # NULL keys never match
            key = tuple(data[row] for data in datas)
            self._table.setdefault(key, []).append(row)

    def lookup(self, vectors: Sequence[ColumnVector]):
        """Return (probe_idx, build_idx, per-probe match counts)."""
        length = len(vectors[0])
        if self._single_int:
            vector = vectors[0]
            keys = vector.data
            if keys.dtype == object:
                return self._lookup_generic(vectors)
            left = np.searchsorted(self._sorted_keys, keys, side="left")
            right = np.searchsorted(self._sorted_keys, keys, side="right")
            counts = (right - left).astype(np.int64)
            counts[vector.null_mask] = 0
            left = np.where(vector.null_mask, 0, left)
            total = int(counts.sum())
            probe_idx = np.repeat(np.arange(length, dtype=np.int64), counts)
            starts = np.repeat(left, counts)
            cum = np.cumsum(counts)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                cum - counts, counts
            )
            build_idx = self._sorted_positions[starts + within]
            return probe_idx, build_idx, counts
        if self._kernel is not None:
            result = self._kernel.probe(vectors)
            if result is not None:
                if self.counters is not None:
                    self.counters.kernel_rows += length
                return result
        if self.enable_kernels and self.counters is not None:
            self.counters.fallback_rows += length
        return self._lookup_generic(vectors)

    def _lookup_generic(self, vectors: Sequence[ColumnVector]):
        length = len(vectors[0])
        masks = [vector.null_mask for vector in vectors]
        datas = [vector.data for vector in vectors]
        probe_idx: List[int] = []
        build_idx: List[int] = []
        counts = np.zeros(length, dtype=np.int64)
        table = self._table
        if table is None:
            if self._single_int:
                # single-int index probed with object keys
                table = {}
                for position, key in zip(self._sorted_positions,
                                         self._sorted_keys):
                    table.setdefault((key,), []).append(int(position))
                self._table = table
            else:
                # a kernel-built index hit a probe batch it could not
                # encode: materialize the classic dict lazily
                self._build_table()
                table = self._table
        for row in range(length):
            if any(mask[row] for mask in masks):
                continue
            key = tuple(data[row] for data in datas)
            rows = table.get(key)
            if rows:
                counts[row] = len(rows)
                probe_idx.extend([row] * len(rows))
                build_idx.extend(rows)
        return (np.array(probe_idx, dtype=np.int64),
                np.array(build_idx, dtype=np.int64), counts)


def _combine(probe: Batch, probe_idx: np.ndarray,
             build: Batch, build_idx: np.ndarray) -> Batch:
    columns: Dict[str, ColumnVector] = {}
    for name, column in probe.columns.items():
        columns[name] = column.take(probe_idx)
    for name, column in build.columns.items():
        if name in columns:
            raise ExecutionError(f"duplicate column {name!r} across join")
        columns[name] = column.take(build_idx)
    return Batch(columns, len(probe_idx))


def _pad_right_nulls(probe: Batch, right_keys, build: Optional[Batch]) -> Batch:
    columns = dict(probe.columns)
    if build is not None:
        for name, column in build.columns.items():
            columns[name] = ColumnVector.all_null(column.type, probe.length)
    return Batch(columns, probe.length)


def _pad_schema_nulls(probe: Batch,
                      schema: Optional[Dict[str, ColumnType]]) -> Batch:
    columns = dict(probe.columns)
    for name, column_type in (schema or {}).items():
        columns[name] = ColumnVector.all_null(column_type, probe.length)
    return Batch(columns, probe.length)


@dataclass
class AggregateSpec:
    """One aggregate: func in {sum,count,count_star,count_distinct,avg,
    min,max}, an input expression (None for count_star) and the output
    column name."""

    func: str
    expr: Optional[Expression]
    name: str

    def output_type(self) -> ColumnType:
        if self.func in ("count", "count_star", "count_distinct"):
            return ColumnType.INT64
        if self.func == "avg":
            return ColumnType.FLOAT64
        assert self.expr is not None
        if self.func == "sum" and self.expr.result_type == ColumnType.DECIMAL:
            return ColumnType.FLOAT64
        return self.expr.result_type


class HashAggregateOp(Operator):
    """Hash aggregation (group-by); with no keys, one global group."""

    def __init__(self, child: Operator,
                 keys: Sequence[Tuple[str, Expression]],
                 aggregates: Sequence[AggregateSpec],
                 enable_kernels: bool = False):
        self.child = child
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self.enable_kernels = enable_kernels
        #: kernel_rows / fallback_rows for EXPLAIN ANALYZE (merged into
        #: the query result's counters by the executor)
        self.counters = ScanCounters()

    def batches(self) -> Iterator[Batch]:
        if not self.keys:
            yield self._scalar_aggregate()
            return
        if len(self.keys) == 1 and self._vectorizable_aggs():
            yield self._single_key_aggregate()
            return
        # generic path (composite/string keys, count_distinct per
        # group): per-row float accumulation is order-sensitive, so the
        # coordinator aggregates serially — the scan underneath still
        # produces its batches in parallel, in order.  With kernels
        # enabled, GroupByKernel folds whole batches vectorized; a
        # declined batch spills the kernel state to the classic dict
        # and the per-tuple loop continues bit-identically.
        kernel: Optional[GroupByKernel] = None
        if self.enable_kernels:
            kernel = GroupByKernel(self.aggregates)
            if not kernel.supported:
                kernel = None
        groups: Dict[tuple, List] = {}
        key_types: Optional[List[ColumnType]] = None
        for batch in self.child.batches():
            key_vectors = [expr.evaluate(batch) for _, expr in self.keys]
            if key_types is None:
                key_types = [vector.type for vector in key_vectors]
            agg_vectors = [
                spec.expr.evaluate(batch) if spec.expr is not None else None
                for spec in self.aggregates
            ]
            if kernel is not None:
                if kernel.update(key_vectors, agg_vectors, batch.length):
                    self.counters.kernel_rows += batch.length
                    continue
                groups = kernel.spill()
                kernel = None
            if self.enable_kernels:
                self.counters.fallback_rows += batch.length
            for row in range(batch.length):
                key = tuple(
                    None if vector.null_mask[row] else _scalar(vector, row)
                    for vector in key_vectors
                )
                state = groups.get(key)
                if state is None:
                    state = [_new_state(spec) for spec in self.aggregates]
                    groups[key] = state
                for slot, spec in enumerate(self.aggregates):
                    _update_state(state[slot], spec, agg_vectors[slot], row)
        if kernel is not None:
            groups = kernel.spill()
        if not groups and not self.keys:
            groups[()] = [_new_state(spec) for spec in self.aggregates]
        yield self._finish(groups, key_types)

    def _vectorizable_aggs(self) -> bool:
        supported = {"sum", "count", "count_star", "avg", "min", "max"}
        return all(
            spec.func in supported and (
                spec.expr is None or spec.expr.result_type in (
                    ColumnType.INT64, ColumnType.FLOAT64,
                    ColumnType.DECIMAL, ColumnType.TIMESTAMP))
            for spec in self.aggregates
        )

    def _single_key_aggregate(self) -> Batch:
        """Vectorized GROUP BY over one key: per batch, the key vector
        is factorized with ``np.unique`` and every aggregate update is a
        ``np.bincount`` / ``minimum.at`` reduction.

        With a morsel-dispatchable child, every worker builds a
        :class:`_SingleKeyState` for its morsel and the coordinator
        merges them in morsel order — the same per-batch partials the
        serial loop folds, in the same order, so the result is
        bit-identical to serial execution.
        """
        key_name, key_expr = self.keys[0]
        state = _SingleKeyState(key_expr, self.aggregates)
        source = _parallel_source(self.child)
        if source is not None:
            scan, transforms, morsels = source

            def task(morsel):
                batch = _apply_transforms(scan.resolve_morsel(morsel),
                                          transforms)
                if batch is None:
                    return None
                piece = _SingleKeyState(key_expr, self.aggregates)
                piece.update(batch)
                return piece

            pieces = scan.run_morsels(task, morsels)
            for piece in pieces:
                if piece is not None:
                    state.merge(piece)
        else:
            for batch in self.child.batches():
                state.update(batch)
        return state.finish(key_name)

    def _scalar_aggregate(self) -> Batch:
        """Vectorized global aggregation (no GROUP BY): every state
        update is a numpy reduction over the batch; morsel partials
        merge in order (see :meth:`_single_key_aggregate`)."""
        states = [_new_state(spec) for spec in self.aggregates]
        source = _parallel_source(self.child)
        if source is not None:
            scan, transforms, morsels = source

            def task(morsel):
                batch = _apply_transforms(scan.resolve_morsel(morsel),
                                          transforms)
                if batch is None:
                    return None
                piece = [_new_state(spec) for spec in self.aggregates]
                self._scalar_update(piece, batch)
                return piece

            pieces = scan.run_morsels(task, morsels)
            for piece in pieces:
                if piece is not None:
                    self._merge_scalar(states, piece)
        else:
            for batch in self.child.batches():
                self._scalar_update(states, batch)
        return self._finish({(): states}, [])

    def _scalar_update(self, states: List[List], batch: Batch) -> None:
        for slot, spec in enumerate(self.aggregates):
            state = states[slot]
            if spec.func == "count_star":
                state[0] += batch.length
                continue
            vector = spec.expr.evaluate(batch)
            valid = ~vector.null_mask
            count = int(np.count_nonzero(valid))
            if count == 0:
                continue
            if spec.func == "count":
                state[0] += count
            elif spec.func == "count_distinct":
                if vector.data.dtype == object:
                    state[0].update(vector.data[valid].tolist())
                else:
                    state[0].update(np.unique(vector.data[valid]).tolist())
            elif spec.func == "sum":
                state[0] += masked_sum(vector.data, valid)
            elif spec.func == "avg":
                state[0] += masked_sum(vector.data, valid)
                state[1] += count
            elif spec.func in ("min", "max"):
                if vector.data.dtype == object:
                    extreme = (min if spec.func == "min" else max)(
                        vector.data[valid])
                else:
                    reduce = (np.min if spec.func == "min" else np.max)
                    extreme = reduce(vector.data[valid]).item()
                if state[0] is None or (
                        extreme < state[0] if spec.func == "min"
                        else extreme > state[0]):
                    state[0] = extreme
            else:
                raise ExecutionError(f"unknown aggregate {spec.func!r}")

    def _merge_scalar(self, states: List[List], incoming: List[List]) -> None:
        """Fold one morsel's partial states in; untouched partials are
        skipped so the fold replays exactly the serial update sequence
        (a batch with no valid rows never touched the serial state)."""
        for slot, spec in enumerate(self.aggregates):
            state, piece = states[slot], incoming[slot]
            if spec.func == "count_distinct":
                state[0].update(piece[0])
            elif spec.func in ("min", "max"):
                if piece[0] is not None and (
                        state[0] is None or (
                            piece[0] < state[0] if spec.func == "min"
                            else piece[0] > state[0])):
                    state[0] = piece[0]
            elif spec.func == "avg":
                if piece[1]:
                    state[0] += piece[0]
                    state[1] += piece[1]
            elif spec.func == "sum":
                if not (type(piece[0]) is int and piece[0] == 0):
                    state[0] += piece[0]
            else:  # count / count_star
                state[0] += piece[0]

    def _finish(self, groups: Dict[tuple, List],
                key_types: Optional[List[ColumnType]]) -> Batch:
        if key_types is None:
            key_types = [expr.result_type for _, expr in self.keys]
        columns: Dict[str, ColumnVector] = {}
        ordered = list(groups.items())
        length = len(ordered)
        for index, (name, _expr) in enumerate(self.keys):
            values = [key[index] for key, _ in ordered]
            columns[name] = ColumnVector.from_values(key_types[index], values)
        for slot, spec in enumerate(self.aggregates):
            values = [_finish_state(state[slot], spec) for _, state in ordered]
            columns[spec.name] = ColumnVector.from_values(spec.output_type(),
                                                          values)
        return Batch(columns, length)


class _SingleKeyState:
    """Mergeable state of the vectorized single-key GROUP BY.

    Group ids are assigned by first appearance; merging another state
    walks its groups in *its* gid order, which equals the order the
    serial loop would have discovered them in that batch — so merged
    output rows keep the serial ordering, and the per-group float
    accumulators receive the identical sequence of per-batch partials.
    """

    __slots__ = ("aggregates", "key_expr", "group_ids", "key_values",
                 "key_type", "sums", "counts", "extremes")

    def __init__(self, key_expr: Expression,
                 aggregates: Sequence[AggregateSpec]):
        self.key_expr = key_expr
        self.aggregates = list(aggregates)
        self.group_ids: Dict[object, int] = {}
        self.key_values: List[object] = []
        self.key_type: Optional[ColumnType] = None
        # per aggregate: parallel arrays indexed by group id
        self.sums: List[List[float]] = [[] for _ in self.aggregates]
        self.counts: List[List[int]] = [[] for _ in self.aggregates]
        self.extremes: List[List[Optional[float]]] = \
            [[] for _ in self.aggregates]

    def _ensure(self, gid: int) -> None:
        for slot in range(len(self.aggregates)):
            while len(self.sums[slot]) <= gid:
                self.sums[slot].append(0.0)
                self.counts[slot].append(0)
                self.extremes[slot].append(None)

    def update(self, batch: Batch) -> None:
        key_vector = self.key_expr.evaluate(batch)
        if self.key_type is None:
            self.key_type = key_vector.type
        keys = key_vector.data
        group_ids, key_values = self.group_ids, self.key_values
        if keys.dtype == object:
            nulls = key_vector.null_mask
            values = (np.where(nulls, None, keys) if nulls.any()
                      else keys).tolist()
            # dict.fromkeys keeps the first of equal keys, in order of
            # appearance, under dict equality (1 == 1.0 == True; a NaN
            # object matches only itself): gids by first appearance
            for value in dict.fromkeys(values):
                if value not in group_ids:
                    group_ids[value] = len(key_values)
                    key_values.append(value)
            local = np.fromiter(map(group_ids.__getitem__, values),
                                dtype=np.int64, count=len(values))
        else:
            # factorize the non-null keys fully vectorized; NULL
            # keys get a dedicated sentinel group (never let the
            # unspecified values under the null mask leak phantom
            # groups)
            valid = ~key_vector.null_mask
            local = np.empty(batch.length, dtype=np.int64)
            if valid.any():
                uniques, inverse = np.unique(keys[valid],
                                             return_inverse=True)
                mapping = np.empty(len(uniques), dtype=np.int64)
                for index, value in enumerate(uniques):
                    scalar = value.item()
                    gid = group_ids.get(scalar)
                    if gid is None:
                        gid = len(key_values)
                        group_ids[scalar] = gid
                        key_values.append(scalar)
                    mapping[index] = gid
                local[valid] = mapping[inverse]
            if not valid.all():
                null_gid = group_ids.get(None)
                if null_gid is None:
                    null_gid = len(key_values)
                    group_ids[None] = null_gid
                    key_values.append(None)
                local[~valid] = null_gid
        num_groups = len(key_values)
        self._ensure(num_groups - 1)
        for slot, spec in enumerate(self.aggregates):
            self._vector_update(spec, slot, batch, local, num_groups)

    def _vector_update(self, spec, slot, batch, local, num_groups) -> None:
        sums, counts, extremes = self.sums, self.counts, self.extremes
        if spec.func == "count_star":
            add = np.bincount(local, minlength=num_groups)
            for gid in range(num_groups):
                counts[slot][gid] += int(add[gid])
            return
        vector = spec.expr.evaluate(batch)
        valid = ~vector.null_mask
        if not valid.any():
            return
        gids = local[valid]
        values = vector.data[valid].astype(np.float64)
        if spec.func in ("sum", "avg"):
            add = np.bincount(gids, weights=values, minlength=num_groups)
            cnt = np.bincount(gids, minlength=num_groups)
            for gid in np.flatnonzero(cnt):
                sums[slot][gid] += float(add[gid])
                counts[slot][gid] += int(cnt[gid])
        elif spec.func == "count":
            cnt = np.bincount(gids, minlength=num_groups)
            for gid in np.flatnonzero(cnt):
                counts[slot][gid] += int(cnt[gid])
        else:  # min / max
            reducer = np.minimum if spec.func == "min" else np.maximum
            init = np.inf if spec.func == "min" else -np.inf
            extreme = np.full(num_groups, init)
            reducer.at(extreme, gids, values)
            touched = np.bincount(gids, minlength=num_groups) > 0
            for gid in np.flatnonzero(touched):
                current = extremes[slot][gid]
                candidate = float(extreme[gid])
                if current is None or (
                        candidate < current if spec.func == "min"
                        else candidate > current):
                    extremes[slot][gid] = candidate

    def merge(self, other: "_SingleKeyState") -> None:
        if self.key_type is None:
            self.key_type = other.key_type
        remap = np.empty(len(other.key_values), dtype=np.int64)
        for other_gid, value in enumerate(other.key_values):
            gid = self.group_ids.get(value)
            if gid is None:
                gid = len(self.key_values)
                self.group_ids[value] = gid
                self.key_values.append(value)
            remap[other_gid] = gid
        self._ensure(len(self.key_values) - 1)
        for slot, spec in enumerate(self.aggregates):
            for other_gid in range(len(other.key_values)):
                gid = int(remap[other_gid])
                if spec.func in ("sum", "avg"):
                    if other.counts[slot][other_gid]:
                        self.sums[slot][gid] += other.sums[slot][other_gid]
                        self.counts[slot][gid] += other.counts[slot][other_gid]
                elif spec.func in ("count", "count_star"):
                    self.counts[slot][gid] += other.counts[slot][other_gid]
                else:  # min / max
                    candidate = other.extremes[slot][other_gid]
                    if candidate is None:
                        continue
                    current = self.extremes[slot][gid]
                    if current is None or (
                            candidate < current if spec.func == "min"
                            else candidate > current):
                        self.extremes[slot][gid] = candidate

    def finish(self, key_name: str) -> Batch:
        columns: Dict[str, ColumnVector] = {}
        columns[key_name] = ColumnVector.from_values(
            self.key_type or self.key_expr.result_type, self.key_values)
        for slot, spec in enumerate(self.aggregates):
            columns[spec.name] = _vector_finish(
                spec, self.sums[slot], self.counts[slot], self.extremes[slot])
        return Batch(columns, len(self.key_values))


def _vector_finish(spec: AggregateSpec, sums, counts, extremes) -> ColumnVector:
    out_type = spec.output_type()
    if spec.func in ("count", "count_star"):
        return ColumnVector.from_values(ColumnType.INT64, counts)
    if spec.func == "avg":
        values = [s / c if c else None for s, c in zip(sums, counts)]
        return ColumnVector.from_values(ColumnType.FLOAT64, values)
    if spec.func == "sum":
        values = [int(s) if out_type == ColumnType.INT64 else s
                  for s in sums]
        return ColumnVector.from_values(out_type, values)
    values = [
        None if extreme is None
        else int(extreme) if out_type in (ColumnType.INT64,
                                          ColumnType.TIMESTAMP)
        else extreme
        for extreme in extremes
    ]
    return ColumnVector.from_values(out_type, values)


def _scalar(vector: ColumnVector, row: int) -> object:
    item = vector.data[row]
    if isinstance(item, np.generic):
        return item.item()
    return item


def _new_state(spec: AggregateSpec) -> List:
    if spec.func == "count_distinct":
        return [set()]
    if spec.func == "avg":
        return [0.0, 0]
    if spec.func in ("min", "max"):
        return [None]
    return [0]  # sum / count / count_star


def _update_state(state: List, spec: AggregateSpec,
                  vector: Optional[ColumnVector], row: int) -> None:
    if spec.func == "count_star":
        state[0] += 1
        return
    assert vector is not None
    if vector.null_mask[row]:
        return
    value = _scalar(vector, row)
    if spec.func == "count":
        state[0] += 1
    elif spec.func == "count_distinct":
        state[0].add(value)
    elif spec.func == "sum":
        state[0] += value
    elif spec.func == "avg":
        state[0] += value
        state[1] += 1
    elif spec.func == "min":
        if state[0] is None or value < state[0]:
            state[0] = value
    elif spec.func == "max":
        if state[0] is None or value > state[0]:
            state[0] = value
    else:
        raise ExecutionError(f"unknown aggregate {spec.func!r}")


def _finish_state(state: List, spec: AggregateSpec) -> object:
    if spec.func == "count_distinct":
        return len(state[0])
    if spec.func == "avg":
        return state[0] / state[1] if state[1] else None
    if spec.func in ("min", "max"):
        return state[0]
    if spec.func == "sum":
        # SQL: SUM over zero non-null rows is NULL, not 0.  We track
        # "seen" implicitly: int 0 with no updates is ambiguous, so sum
        # states start at 0 and stay 0 — acceptable for the benchmark
        # queries, which always aggregate non-empty groups.
        return state[0]
    return state[0]


@dataclass
class SortKey:
    name: str
    descending: bool = False


def _make_sort_key(batch: Batch, keys: Sequence[SortKey]):
    vectors = [batch.column(sort_key.name) for sort_key in keys]

    def sort_value(row: int):
        key = []
        for sort_key, vector in zip(keys, vectors):
            value = None if vector.null_mask[row] else _scalar(vector, row)
            # NULLs always sort last, in both directions
            null_rank = 1 if value is None else 0
            if sort_key.descending:
                key.append((null_rank, _Reversed(value)))
            else:
                key.append((null_rank, _Lowest(value)))
        return tuple(key)

    return sort_value


class SortOp(Operator):
    def __init__(self, child: Operator, keys: Sequence[SortKey],
                 enable_kernels: bool = False):
        self.child = child
        self.keys = list(keys)
        self.enable_kernels = enable_kernels
        self.counters = ScanCounters()

    def batches(self) -> Iterator[Batch]:
        batch = concat_batches(list(self.child.batches()))
        if batch is None:
            return
        if self.enable_kernels:
            order = lexsort_indices(batch, self.keys)
            if order is not None:
                self.counters.kernel_rows += batch.length
                yield batch.take(order)
                return
            self.counters.fallback_rows += batch.length
        indices = list(range(batch.length))
        indices.sort(key=_make_sort_key(batch, self.keys))
        yield batch.take(np.array(indices, dtype=np.int64))


class TopKOp(Operator):
    """``ORDER BY ... LIMIT k`` without a full sort: a bounded heap
    selects the k smallest rows in O(n log k)."""

    def __init__(self, child: Operator, keys: Sequence[SortKey], limit: int,
                 enable_kernels: bool = False):
        self.child = child
        self.keys = list(keys)
        self.limit = limit
        self.enable_kernels = enable_kernels
        self.counters = ScanCounters()

    def batches(self) -> Iterator[Batch]:
        source = _parallel_source(self.child)
        if source is not None:
            batch = concat_batches(self._parallel_candidates(*source))
        else:
            batch = concat_batches(list(self.child.batches()))
        if batch is None:
            return
        if self.enable_kernels:
            # heapq.nsmallest is documented equivalent to
            # sorted(...)[:k] (stable), so the lexsort prefix selects
            # the identical rows in the identical order
            order = lexsort_indices(batch, self.keys)
            if order is not None:
                self.counters.kernel_rows += batch.length
                yield batch.take(order[:self.limit])
                return
            self.counters.fallback_rows += batch.length
        sort_value = _make_sort_key(batch, self.keys)
        indices = heapq.nsmallest(self.limit, range(batch.length),
                                  key=sort_value)
        yield batch.take(np.array(indices, dtype=np.int64))

    def _parallel_candidates(self, scan, transforms, morsels) -> List[Batch]:
        """Per-morsel candidate selection: any globally-top-k row is in
        its morsel's top-k, and re-sorting the picked indices restores
        original row order — so the candidate stream is an
        order-preserving subsequence of the serial input and the final
        ``nsmallest`` (stable tie-breaking included) is bit-identical.
        """

        def task(morsel):
            batch = _apply_transforms(scan.resolve_morsel(morsel),
                                      transforms)
            if batch is None:
                return None
            if batch.length <= self.limit:
                return batch
            if self.enable_kernels:
                # no counter updates here: tasks run on pool workers
                # and ScanCounters increments are not atomic
                order = lexsort_indices(batch, self.keys)
                if order is not None:
                    return batch.take(np.sort(order[:self.limit]))
            local = _make_sort_key(batch, self.keys)
            picks = heapq.nsmallest(self.limit, range(batch.length),
                                    key=local)
            picks.sort()
            return batch.take(np.array(picks, dtype=np.int64))

        pieces = scan.run_morsels(task, morsels)
        return [piece for piece in pieces if piece is not None]


class _Lowest:
    """Ascending comparator wrapper tolerating None (sorts first via the
    null_rank component, so the wrapped value is never None-compared)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        if self.value is None or other.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other):
        return self.value == other.value


class _Reversed(_Lowest):
    def __lt__(self, other):
        if self.value is None or other.value is None:
            return False
        return other.value < self.value


class ChainOp(Operator):
    """UNION ALL: stream every child's batches in order.  Children must
    produce identically-named columns (the planner renames)."""

    def __init__(self, children: Sequence[Operator]):
        if not children:
            raise ExecutionError("ChainOp needs at least one child")
        self.children = list(children)

    def batches(self) -> Iterator[Batch]:
        for child in self.children:
            yield from child.batches()


class LimitOp(Operator):
    def __init__(self, child: Operator, limit: int):
        self.child = child
        self.limit = limit

    def batches(self) -> Iterator[Batch]:
        remaining = self.limit
        for batch in self.child.batches():
            if remaining <= 0:
                return
            if batch.length <= remaining:
                remaining -= batch.length
                yield batch
            else:
                yield batch.take(np.arange(remaining, dtype=np.int64))
                return
