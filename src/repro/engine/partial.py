"""Process-external partial plans for the cluster (DESIGN.md §7).

The morsel engine already proves that folding per-batch partial
aggregate states *in batch order* replays the serial engine's exact
float-operation sequence (``operators.py``).  This module extends that
proof across processes: a shard computes one JSON-serializable partial
state per *(global block, chunk)* and the coordinator folds the states
from all shards in ascending ``(block, chunk)`` order — the same
per-batch partials a single node folding the whole data set would have
produced, in the same order, so merged results are bit-identical.

Canonical layout contract.  The coordinator routes inserts to shards
in round-robin *blocks* of ``tile_size`` rows, so global rows
``[k*B, (k+1)*B)`` live on shard ``k % S`` as its local block
``k // S`` (``B`` = tile size, ``S`` = shard count).  A canonical
single-node load seals one tile per block and scans it in
``batch_rows``-sized batches; the shard reproduces those batch
boundaries by slicing its *local row space* at multiples of ``B`` and
then at multiples of ``batch_rows`` — deliberately ignoring where its
own tile boundaries drifted to under mid-stream flushes.  Slices are
resolved with hand-built :class:`~repro.engine.morsels.Morsel` ranges,
which may span tile boundaries; per-sub-range predicate filtering then
concatenation equals filtering the concatenation, so the surviving
rows and their order match the canonical scan.

Execution modes (decided identically on coordinator and shard from the
bound block — classification is data-independent):

``scalar``
    Global aggregation, no GROUP BY.  Chunk states are the engine's
    ``_scalar_update`` partials; merge is ``_merge_scalar``.
``single_key``
    One group key with vectorizable aggregates.  Chunk states are
    ``_SingleKeyState`` snapshots; merge preserves first-appearance
    group order.
``generic``
    Composite/string keys, restricted to exactly-mergeable aggregates
    (count/count_star/count_distinct/min/max, and sum/avg over INT64
    inputs, whose partial sums are exact integers).  Float sums under
    composite keys accumulate per *row*, not per batch, so no partial
    is bit-exact — those fall back to ``gather``.
``rows``
    Non-aggregated SELECT.  Shards ship projected rows tagged with
    global row ids; the coordinator re-merges ORDER BY/LIMIT.
``gather``
    Anything else (joins, subqueries, UNION, exotic output types).
    The coordinator rebuilds the referenced tables locally from the
    shards' documents in global row order and runs the query on the
    rebuilt tables — always correct, linear in table size.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import partial as _bind
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import ColumnType
from repro.engine import expressions as ex
from repro.engine.batch import Batch, concat_batches
from repro.engine.kernels import GroupByKernel, lexsort_indices
from repro.engine.morsels import Morsel, block_ranges, run_ordered
from repro.engine.operators import (
    BatchSource,
    FilterOp,
    HashAggregateOp,
    LimitOp,
    ProjectOp,
    SortOp,
    TopKOp,
    _make_sort_key,
    _new_state,
    _scalar,
    _SingleKeyState,
    _update_state,
)
from repro.engine.optimizer import Planner, PlannedScan
from repro.engine.plan import QueryBlock, QueryOptions, ScanSource
from repro.engine.scan import (
    ROWID_PATH,
    ScanCounters,
    TableScan,
    pinning_workers,
)
from repro.errors import ExecutionError
from repro.storage.column import ColumnVector
from repro.storage.formats import StorageFormat

GATHER = "gather"

#: aggregates whose partial states merge exactly regardless of value
#: type (sets, counts and extremes carry no float rounding)
_EXACT_FUNCS = {"count", "count_star", "count_distinct", "min", "max"}

#: column types the rows mode can ship losslessly as JSON
_WIRE_TYPES = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.STRING,
               ColumnType.BOOL)


# ----------------------------------------------------------------------
# classification


def classify_block(block: QueryBlock) -> str:
    """Partial-execution mode for a bound block.

    Purely shape-driven (never looks at data), so the coordinator and
    every shard — each binding the same SQL against their own catalog —
    arrive at the same verdict independently.
    """
    if (len(block.sources) != 1
            or not isinstance(block.sources[0], ScanSource)
            or block.left_joins
            or block.subquery_filters
            or block.union_blocks):
        return GATHER
    if _has_scalar_subquery(block):
        return GATHER
    return classify_output(block)


def classify_output(block: QueryBlock) -> str:
    """Merge mode of the block's *output* over an arbitrary row
    stream, independent of how that stream is produced — shared by
    the single-source classifier above and the broadcast-join
    fragment planner (``engine/fragments.py``), whose probe fragments
    feed joined chunks through the same per-mode builders."""
    if block.is_aggregated:
        if not block.group_keys:
            return "scalar"
        probe = HashAggregateOp(BatchSource([]), block.group_keys,
                                block.aggregates)
        if len(block.group_keys) == 1 and probe._vectorizable_aggs():
            return "single_key"
        for spec in block.aggregates:
            if spec.func in _EXACT_FUNCS:
                continue
            if (spec.func in ("sum", "avg") and spec.expr is not None
                    and spec.expr.result_type == ColumnType.INT64):
                continue
            return GATHER
        return "generic"
    for _name, expr in block.select:
        if expr.result_type not in _WIRE_TYPES:
            return GATHER
    names = set(block.output_names())
    for key in block.order_by:
        if key.name not in names:
            return GATHER
    return "rows"


def _has_scalar_subquery(block: QueryBlock) -> bool:
    from repro.sql.binder import UnresolvedScalarExpr

    def walk(expr: ex.Expression) -> bool:
        if isinstance(expr, UnresolvedScalarExpr):
            return True
        return any(walk(child) for child in expr.children())

    exprs: List[ex.Expression] = list(block.predicates)
    exprs.extend(expr for _name, expr in block.select)
    exprs.extend(expr for _name, expr in block.group_keys)
    exprs.extend(spec.expr for spec in block.aggregates
                 if spec.expr is not None)
    if block.having is not None:
        exprs.append(block.having)
    for source in block.sources:
        exprs.extend(source.filters)
    return any(walk(expr) for expr in exprs)


# ----------------------------------------------------------------------
# shard side: compute (block, chunk)-tagged partial states


def execute_partial(block: QueryBlock, options: QueryOptions,
                    shard_index: int, shard_count: int,
                    expected_mode: Optional[str] = None) -> dict:
    """Run the shard's half of a partial plan over its local rows.

    Returns ``{"mode", "pieces", "counters"}`` where every piece is a
    JSON-safe dict tagged with its global block id ``k`` and chunk
    index ``c``.  ``expected_mode`` guards against coordinator/shard
    classification drift (different binder versions) — a mismatch is a
    hard error, never a silently different answer.
    """
    mode = classify_block(block)
    if mode == GATHER:
        raise ExecutionError("query block is not partial-executable; "
                             "the coordinator must gather instead")
    if expected_mode is not None and expected_mode != mode:
        raise ExecutionError(
            f"partial-plan mode mismatch: coordinator expects "
            f"{expected_mode!r} but this shard classifies the block as "
            f"{mode!r}; upgrade so both ends run the same planner")

    source = block.sources[0]
    relation = source.relation
    tile_rows = relation.config.tile_size

    planner = Planner(options)
    planned = {source.alias: PlannedScan(source)}
    join_edges, residuals = planner._classify_predicates(block, planned)
    planner._derive_skip_paths(block, planned, join_edges, residuals)
    item = planned[source.alias]

    rowid_name = None
    if mode == "rows":
        rowid_name = source.request(ROWID_PATH, ColumnType.INT64,
                                    False).name

    # Residual (constant) predicates are row-local, so folding them
    # into the scan's conjunct list keeps survivors identical to the
    # serial FilterOp while letting the shard ship only surviving rows
    # — and hands the late-materialization split the same conjuncts
    # the single-node planner would.
    scan = _fragment_scan(planner, source, item, options,
                          extra_predicates=residuals)

    build = _chunk_builder(mode, block, tile_rows, shard_index,
                           shard_count, rowid_name, options, scan)
    pieces = _run_chunks(scan, relation, tile_rows, shard_index,
                         shard_count, options, build)
    return {"mode": mode, "pieces": pieces,
            "counters": scan.counters.as_dict()}


def _fragment_scan(planner: Planner, source: ScanSource,
                   item: PlannedScan, options: QueryOptions,
                   extra_predicates: Sequence[ex.Expression] = ()
                   ) -> TableScan:
    """One source's scan for partial execution: the fused planner's
    ``_plan_source_with_filters`` configuration, but always serial —
    the chunk tasks parallelize instead, and chunk boundaries (not
    tile boundaries) define the merge order."""
    return TableScan(
        source.relation,
        list(source.requests.values()),
        predicates=item.filters + list(extra_predicates),
        skip_paths=sorted(item.skip_paths),
        aggregate_skip_paths=item.aggregate_skip_paths,
        range_prunes=planner._range_prunes(source, item.filters),
        enable_skipping=options.enable_skipping,
        batch_rows=options.batch_rows,
        parallelism=1,  # chunk tasks parallelize instead
        use_cache=options.tile_cache,
    )


def _run_chunks(scan: TableScan, relation, tile_rows: int,
                shard_index: int, shard_count: int,
                options: QueryOptions, build) -> List[dict]:
    """Enumerate the shard's ``(block, chunk)`` spans and fold each
    surviving chunk through *build* on the shared morsel pool."""
    tasks = [
        _bind(_run_chunk, scan, span, tag, build)
        for tag, span in _chunk_spans(relation, scan, tile_rows,
                                      shard_index, shard_count,
                                      options.batch_rows)
    ]
    # a chunk pins the tiles its spans cover, one at a time
    tiles = [] if relation.format == StorageFormat.JSON \
        else relation.manifest().tiles
    workers, window = pinning_workers(max(1, options.parallelism), tiles)
    return [piece for piece in run_ordered(tasks, workers, window)
            if piece is not None]


# ----------------------------------------------------------------------
# broadcast-join fragments (DESIGN.md §10)
#
# A two-source equi-join executes shard-side in two fragments.  The
# *build* fragment scans the build alias with its pushed-down filters
# and ships every surviving row's requested columns as (block, chunk)-
# tagged pieces; concatenated in ascending (k, c) order they equal the
# single-node build scan's surviving rows in global row order.  The
# *probe* fragment receives that merged build relation (broadcast),
# scans the probe alias in canonical chunks, joins each chunk against
# one shared prewarmed hash index, applies the block's residual
# predicates per joined chunk, and feeds the result through the same
# per-mode chunk builders as single-source partials.  Fused joined
# batch boundaries are probe batch boundaries (HashJoinOp emits one
# non-empty batch per probe batch), so the coordinator's (k, c)-
# ordered merge replays the serial engine's exact fold sequence.


def execute_build_fragment(block: QueryBlock, options: QueryOptions,
                           shard_index: int, shard_count: int,
                           build_alias: str) -> dict:
    """Shard half of a broadcast join's build fragment."""
    source = block.source(build_alias)
    if not isinstance(source, ScanSource):
        raise ExecutionError(
            f"build fragment alias {build_alias!r} is not a base-table "
            f"scan")
    relation = source.relation
    tile_rows = relation.config.tile_size

    planner = Planner(options)
    planned, _join_edges, _residuals = planner.fragment_inputs(block)
    item = planned[build_alias]

    names = sorted(source.requests)
    types = [source.requests[name].target for name in names]
    for name, target in zip(names, types):
        if target not in _WIRE_TYPES:
            raise ExecutionError(
                f"build column {name!r} has non-wire type "
                f"{target.name}; the coordinator must decline to "
                f"gather instead of broadcasting")

    scan = _fragment_scan(planner, source, item, options)

    def build_piece(batch: Batch) -> dict:
        return {"rows": [[batch.column(name).value(row)
                          for name in names]
                         for row in range(batch.length)]}

    pieces = _run_chunks(scan, relation, tile_rows, shard_index,
                         shard_count, options, build_piece)
    return {"mode": "build", "columns": names,
            "types": [target.name for target in types],
            "pieces": pieces, "counters": scan.counters.as_dict()}


def assemble_build_batch(columns: Sequence[str], types: Sequence[str],
                         rows: Sequence[Sequence]) -> Optional[Batch]:
    """Reconstruct the broadcast build relation from merged wire rows
    (``None`` when the build side survived no rows).  JSON round-trips
    the wire types exactly, so the rebuilt vectors are value-identical
    to the single-node build scan's output."""
    if not rows:
        return None
    vectors = {
        name: ColumnVector.from_values(
            ColumnType[type_name],
            [row[index] for row in rows])
        for index, (name, type_name) in enumerate(zip(columns, types))
    }
    return Batch(vectors, len(rows))


def merge_build_pieces(pieces: List[dict]) -> List[list]:
    """Concatenate build-fragment rows in ascending global
    ``(block, chunk)`` order — the single-node build scan's row
    order."""
    rows: List[list] = []
    for piece in sorted(pieces, key=lambda piece: (piece["k"],
                                                   piece["c"])):
        rows.extend(piece["rows"])
    return rows


def execute_probe_fragment(block: QueryBlock, options: QueryOptions,
                           shard_index: int, shard_count: int,
                           fragment: dict,
                           expected_mode: Optional[str] = None) -> dict:
    """Shard half of a broadcast join's probe fragment.

    *fragment* carries the pinned orientation and the merged build
    relation: ``{"probe", "build", "columns", "types", "rows"}``.  The
    orientation is decided once (by unanimous shard vote, see
    ``cluster/coordinator.py``) and obeyed here — location
    transparency — after validating it against this shard's own
    deterministic block shape.
    """
    probe_alias = fragment["probe"]
    build_alias = fragment["build"]
    aliases = {source.alias for source in block.sources}
    if (len(block.sources) != 2 or aliases != {probe_alias, build_alias}
            or probe_alias == build_alias):
        raise ExecutionError(
            f"probe fragment orientation ({probe_alias!r}, "
            f"{build_alias!r}) does not match the block's sources "
            f"{sorted(aliases)}")
    mode = classify_output(block)
    if mode == GATHER:
        raise ExecutionError("join block's output is not "
                             "partial-mergeable; the coordinator must "
                             "gather instead")
    if expected_mode is not None and expected_mode != mode:
        raise ExecutionError(
            f"probe-fragment mode mismatch: coordinator expects "
            f"{expected_mode!r} but this shard classifies the output "
            f"as {mode!r}; upgrade so both ends run the same planner")

    source = block.source(probe_alias)
    if not isinstance(source, ScanSource):
        raise ExecutionError(
            f"probe fragment alias {probe_alias!r} is not a base-table "
            f"scan")
    relation = source.relation
    tile_rows = relation.config.tile_size

    rowid_name = None
    if mode == "rows":
        rowid_name = source.request(ROWID_PATH, ColumnType.INT64,
                                    False).name

    planner = Planner(options)
    planned, join_edges, residuals = planner.fragment_inputs(block)
    item = planned[probe_alias]

    # orient the equi-join keys: probe-side expressions drive the
    # lookup, build-side expressions were evaluated into the index —
    # in join-edge order, exactly as _build_join_tree collects them
    probe_keys: List[ex.Expression] = []
    build_keys: List[ex.Expression] = []
    for a, b, left_key, right_key in join_edges:
        if a == probe_alias and b == build_alias:
            probe_keys.append(left_key)
            build_keys.append(right_key)
        elif a == build_alias and b == probe_alias:
            probe_keys.append(right_key)
            build_keys.append(left_key)
    if not probe_keys:
        raise ExecutionError("probe fragment without equi-join edges; "
                             "the coordinator must gather instead")

    build_batch = assemble_build_batch(fragment["columns"],
                                       fragment["types"],
                                       fragment.get("rows") or [])
    scan = _fragment_scan(planner, source, item, options)
    if build_batch is None:
        # inner join against an empty build side matches nothing; the
        # fused engine short-circuits before reading the probe, so the
        # fragment ships zero pieces without scanning
        return {"mode": mode, "pieces": [],
                "counters": scan.counters.as_dict()}

    from repro.engine.operators import _BuildIndex, _combine

    index = _BuildIndex(build_batch, build_keys,
                        enable_kernels=options.enable_kernels)
    index.prewarm()  # lookups must be read-only across pool workers

    build = _chunk_builder(mode, block, tile_rows, shard_index,
                           shard_count, rowid_name, options, scan)

    def probe_piece(batch: Batch) -> Optional[dict]:
        keys = [expr.evaluate(batch) for expr in probe_keys]
        probe_idx, build_idx, _counts = index.lookup(keys)
        combined = _combine(batch, probe_idx, build_batch, build_idx)
        # residuals are row-local over the joined row: applying them
        # per chunk in list order equals the fused plan's FilterOp
        # stack above the join
        for residual in residuals:
            if not combined.length:
                break
            verdict = residual.evaluate(combined)
            keep = verdict.data.astype(bool) & ~verdict.null_mask
            combined = combined.filter(keep)
        if not combined.length:
            return None
        return build(combined)

    pieces = _run_chunks(scan, relation, tile_rows, shard_index,
                         shard_count, options, probe_piece)
    return {"mode": mode, "pieces": pieces,
            "counters": scan.counters.as_dict()}


def _chunk_spans(relation, scan: TableScan, tile_rows: int,
                 shard_index: int, shard_count: int, batch_rows: int):
    """Enumerate ``((k, c), [start, stop))`` chunk spans over the
    shard's local row space, applying tile skipping once up front
    (mirroring ``TableScan.morsels`` counter semantics)."""
    total = relation.row_count
    if relation.format == StorageFormat.JSON:
        live = [(0, total)] if total else []
    else:
        live = []
        # one manifest snapshot for the span enumeration (repro.lsm):
        # a compaction swapping tiles mid-enumeration cannot tear the
        # chunk layout, and the counters match TableScan.morsels
        for tile in relation.manifest().tiles:
            scan.counters.tiles_total += 1
            if scan._can_skip(tile):
                scan.counters.tiles_skipped += 1
                continue
            scan.counters.rows_scanned += tile.row_count
            level = tile.header.level
            scan.levels_scanned[level] = \
                scan.levels_scanned.get(level, 0) + 1
            # adjacent surviving tiles coalesce into one live span
            first, end = tile.first_row, tile.first_row + tile.row_count
            if live and live[-1][1] == first:
                live[-1] = (live[-1][0], end)
            else:
                live.append((first, end))
    for start, stop in block_ranges(total, tile_rows):
        k = (start // tile_rows) * shard_count + shard_index
        for chunk_index, (c_start, c_stop) in enumerate(
                block_ranges(stop - start, batch_rows)):
            span = _clip_spans(live, start + c_start, start + c_stop)
            if span:
                yield (k, chunk_index), span


def _clip_spans(live: List[Tuple[int, int]], start: int,
                stop: int) -> List[Tuple[int, int]]:
    """Intersect ``[start, stop)`` with the non-skipped row ranges."""
    clipped = []
    for l_start, l_stop in live:
        lo, hi = max(start, l_start), min(stop, l_stop)
        if lo < hi:
            clipped.append((lo, hi))
    return clipped


def _run_chunk(scan: TableScan, span: List[Tuple[int, int]],
               tag: Tuple[int, int], build) -> Optional[dict]:
    """Resolve one chunk's surviving rows and build its partial state."""
    relation = scan.relation
    batches = []
    if relation.format == StorageFormat.JSON:
        for start, stop in span:
            batch = scan.resolve_morsel(Morsel(0, None, start, stop))
            if batch.length:
                batches.append(batch)
    else:
        # resolve against a manifest snapshot: spans are global row-id
        # ranges, and compaction preserves row ids, so any epoch yields
        # the same rows — but a snapshot makes the tile walk itself
        # immune to a concurrent splice
        tiles = relation.manifest().tiles
        firsts = [tile.first_row for tile in tiles]
        for start, stop in span:
            index = max(0, bisect_right(firsts, start) - 1)
            while index < len(tiles) and \
                    tiles[index].first_row < stop:
                tile = tiles[index]
                lo = max(start, tile.first_row)
                hi = min(stop, tile.first_row + tile.row_count)
                if lo < hi:
                    batch = scan.resolve_morsel(Morsel(
                        0, tile, lo - tile.first_row, hi - tile.first_row))
                    if batch.length:
                        batches.append(batch)
                index += 1
    batch = concat_batches(batches)
    if batch is None:
        return None
    piece = build(batch)
    if piece is None:
        # the chunk survived the scan but produced nothing to ship
        # (e.g. a probe-fragment chunk whose rows all missed the join)
        return None
    piece["k"], piece["c"] = tag
    return piece


def _chunk_builder(mode: str, block: QueryBlock, tile_rows: int,
                   shard_index: int, shard_count: int,
                   rowid_name: Optional[str],
                   options: Optional[QueryOptions] = None,
                   scan: Optional[TableScan] = None):
    enable_kernels = bool(options and options.enable_kernels)

    def count(field: str, rows: int) -> None:
        # chunk builders run on pool workers; fold kernel coverage into
        # the shard's shared counters under the scan's lock
        if scan is None or not rows:
            return
        with scan._counters_lock:
            setattr(scan.counters, field,
                    getattr(scan.counters, field) + rows)
    if mode == "scalar":
        op = HashAggregateOp(BatchSource([]), [], block.aggregates)

        def build_scalar(batch: Batch) -> dict:
            states = [_new_state(spec) for spec in block.aggregates]
            op._scalar_update(states, batch)
            return {"state": _encode_states(states, block.aggregates)}

        return build_scalar

    if mode == "single_key":
        _key_name, key_expr = block.group_keys[0]

        def build_single_key(batch: Batch) -> dict:
            state = _SingleKeyState(key_expr, block.aggregates)
            state.update(batch)
            return {
                "keys": state.key_values,
                "key_type": state.key_type.name if state.key_type else None,
                "sums": state.sums,
                "counts": state.counts,
                "extremes": state.extremes,
            }

        return build_single_key

    if mode == "generic":

        def build_generic(batch: Batch) -> dict:
            key_vectors = [expr.evaluate(batch)
                           for _name, expr in block.group_keys]
            agg_vectors = [
                spec.expr.evaluate(batch) if spec.expr is not None else None
                for spec in block.aggregates
            ]
            groups: Optional[Dict[tuple, List]] = None
            if enable_kernels:
                # one chunk = one batch, so a per-chunk GroupByKernel
                # either folds it whole or declines it untouched;
                # spill() yields exactly the per-tuple state dicts the
                # encoder below expects (generic mode only admits
                # exactly-mergeable aggregates, see classify_block)
                kernel = GroupByKernel(block.aggregates)
                if kernel.supported and kernel.update(
                        key_vectors, agg_vectors, batch.length):
                    groups = kernel.spill()
                    count("kernel_rows", batch.length)
                else:
                    count("fallback_rows", batch.length)
            if groups is not None:
                return {
                    "keys": [list(key) for key in groups],
                    "key_types": [vector.type.name
                                  for vector in key_vectors],
                    "states": [_encode_states(state, block.aggregates)
                               for state in groups.values()],
                }
            groups = {}
            for row in range(batch.length):
                key = tuple(
                    None if vector.null_mask[row] else _scalar(vector, row)
                    for vector in key_vectors)
                state = groups.get(key)
                if state is None:
                    state = [_new_state(spec) for spec in block.aggregates]
                    groups[key] = state
                for slot, spec in enumerate(block.aggregates):
                    _update_state(state[slot], spec, agg_vectors[slot], row)
            return {
                "keys": [list(key) for key in groups],
                "key_types": [vector.type.name for vector in key_vectors],
                "states": [_encode_states(state, block.aggregates)
                           for state in groups.values()],
            }

        return build_generic

    # rows mode
    select_names = [name for name, _expr in block.select]

    def build_rows(batch: Batch) -> dict:
        projected = Batch(
            {name: expr.evaluate(batch) for name, expr in block.select},
            batch.length)
        rowids = batch.column(rowid_name)
        limit = block.limit
        if limit is not None and projected.length > limit:
            if block.order_by:
                # any globally-top-k row is in its chunk's top-k, and
                # re-sorting the picks preserves original row order —
                # the same argument as TopKOp._parallel_candidates
                take = None
                if enable_kernels:
                    order = lexsort_indices(projected, block.order_by)
                    if order is not None:
                        take = np.sort(order[:limit])
                        count("kernel_rows", projected.length)
                    else:
                        count("fallback_rows", projected.length)
                if take is None:
                    sort_value = _make_sort_key(projected, block.order_by)
                    picks = heapq.nsmallest(limit,
                                            range(projected.length),
                                            key=sort_value)
                    picks.sort()
                    take = np.array(picks, dtype=np.int64)
            else:
                take = np.arange(limit, dtype=np.int64)
            projected = projected.take(take)
            rowids = rowids.take(take)
        rows = [[projected.column(name).value(row) for name in select_names]
                for row in range(projected.length)]
        globals_ = [
            _global_rowid(int(rowids.value(row)), tile_rows, shard_index,
                          shard_count)
            for row in range(projected.length)
        ]
        return {"rows": rows, "rowids": globals_}

    return build_rows


def _global_rowid(local: int, tile_rows: int, shard_index: int,
                  shard_count: int) -> int:
    """Map a shard-local row id to its global (coordinator) row id
    under block round-robin routing."""
    block_id = (local // tile_rows) * shard_count + shard_index
    return block_id * tile_rows + local % tile_rows


# ----------------------------------------------------------------------
# state (de)serialization
#
# JSON round-trips Python ints exactly and floats via repr (exact for
# every finite double, including -0.0); the stdlib also emits/parses
# Infinity and NaN.  The encodings below therefore preserve the merge
# functions' bit-exactness — including ``_merge_scalar``'s untouched
# sum sentinel (int 0 stays ``int`` on the wire, float sums come back
# ``float``).


def _encode_states(states: List[List], aggregates) -> List[list]:
    encoded = []
    for state, spec in zip(states, aggregates):
        if spec.func == "count_distinct":
            encoded.append([sorted(state[0], key=repr)])
        else:
            encoded.append(list(state))
    return encoded


def _decode_states(payload: Sequence[list], aggregates) -> List[List]:
    states = []
    for state, spec in zip(payload, aggregates):
        if spec.func == "count_distinct":
            states.append([set(state[0])])
        else:
            states.append(list(state))
    return states


def _decode_single_key(piece: dict, key_expr: ex.Expression,
                       aggregates) -> _SingleKeyState:
    state = _SingleKeyState(key_expr, aggregates)
    state.key_values = list(piece["keys"])
    state.group_ids = {value: gid
                       for gid, value in enumerate(state.key_values)}
    state.key_type = (ColumnType[piece["key_type"]]
                      if piece.get("key_type") else None)
    state.sums = [list(slot) for slot in piece["sums"]]
    state.counts = [list(slot) for slot in piece["counts"]]
    state.extremes = [list(slot) for slot in piece["extremes"]]
    return state


# ----------------------------------------------------------------------
# coordinator side: ordered merge + the planner's finishing tail


def merge_partial_results(block: QueryBlock, mode: str,
                          pieces: List[dict],
                          ) -> Tuple[List[str], List[tuple]]:
    """Fold every shard's pieces in global ``(block, chunk)`` order and
    run the planner's finishing tail (HAVING → SELECT → ORDER BY /
    LIMIT).  Returns ``(columns, rows)`` bit-identical to single-node
    execution of the same block."""
    pieces = sorted(pieces, key=lambda piece: (piece["k"], piece["c"]))
    if mode == "rows":
        merged = _assemble_rows(block, pieces)
        return _finish(block, merged, project=False)
    if mode == "scalar":
        op = HashAggregateOp(BatchSource([]), [], block.aggregates)
        states = [_new_state(spec) for spec in block.aggregates]
        for piece in pieces:
            op._merge_scalar(states,
                             _decode_states(piece["state"],
                                            block.aggregates))
        merged = op._finish({(): states}, [])
    elif mode == "single_key":
        key_name, key_expr = block.group_keys[0]
        state = _SingleKeyState(key_expr, block.aggregates)
        for piece in pieces:
            state.merge(_decode_single_key(piece, key_expr,
                                           block.aggregates))
        merged = state.finish(key_name)
    elif mode == "generic":
        groups: Dict[tuple, List] = {}
        key_types: Optional[List[ColumnType]] = None
        for piece in pieces:
            if key_types is None and piece.get("key_types"):
                key_types = [ColumnType[name]
                             for name in piece["key_types"]]
            for key, encoded in zip(piece["keys"], piece["states"]):
                incoming = _decode_states(encoded, block.aggregates)
                state = groups.get(tuple(key))
                if state is None:
                    groups[tuple(key)] = incoming
                else:
                    _merge_exact_states(state, incoming, block.aggregates)
        op = HashAggregateOp(BatchSource([]), block.group_keys,
                             block.aggregates)
        if not groups and not block.group_keys:
            groups[()] = [_new_state(spec) for spec in block.aggregates]
        merged = op._finish(groups, key_types)
    else:
        raise ExecutionError(f"unknown partial mode {mode!r}")
    return _finish(block, merged, project=True)


def _merge_exact_states(state: List[List], incoming: List[List],
                        aggregates) -> None:
    """Merge generic-mode states.  Only exactly-mergeable aggregates
    reach this path (see :func:`classify_block`): set unions, integer
    adds and extremes — plus int-valued float sums for avg-over-INT64,
    exact below 2**53."""
    for slot, spec in enumerate(aggregates):
        current, piece = state[slot], incoming[slot]
        if spec.func == "count_distinct":
            current[0].update(piece[0])
        elif spec.func in ("min", "max"):
            if piece[0] is not None and (
                    current[0] is None or (
                        piece[0] < current[0] if spec.func == "min"
                        else piece[0] > current[0])):
                current[0] = piece[0]
        elif spec.func == "avg":
            current[0] += piece[0]
            current[1] += piece[1]
        else:  # sum / count / count_star
            current[0] += piece[0]


def _assemble_rows(block: QueryBlock, pieces: List[dict]) -> Batch:
    select = block.select
    columns: Dict[str, List] = {name: [] for name, _expr in select}
    rowids: List[int] = []
    for piece in pieces:
        for row in piece["rows"]:
            for (name, _expr), value in zip(select, row):
                columns[name].append(value)
        rowids.extend(piece["rowids"])
    # pieces arrive (block, chunk)-sorted and rows within a piece are
    # already in local order, so rowids are globally ascending — the
    # concatenation is the serial scan's row order
    length = len(rowids)
    vectors = {
        name: ColumnVector.from_values(expr.result_type, columns[name])
        for name, expr in select
    }
    return Batch(vectors, length)


def _finish(block: QueryBlock, merged: Optional[Batch],
            project: bool) -> Tuple[List[str], List[tuple]]:
    """The planner's post-aggregation tail, verbatim
    (``Planner.plan_block``): HAVING filter, SELECT projection, then
    TopK/Sort/Limit.  ``project=False`` for rows mode, whose shards
    already projected."""
    tree = BatchSource([merged] if merged is not None else [])
    if project:
        if block.is_aggregated and block.having is not None:
            tree = FilterOp(tree, block.having)
        if block.select:
            tree = ProjectOp(tree, block.select)
    if block.order_by and block.limit is not None:
        tree = TopKOp(tree, block.order_by, block.limit)
    elif block.order_by:
        tree = SortOp(tree, block.order_by)
    elif block.limit is not None:
        tree = LimitOp(tree, block.limit)
    result = tree.materialize()
    names = block.output_names()
    if result is None:
        return list(names), []
    rows = [
        tuple(result.column(name).value(row) for name in names)
        for row in range(result.length)
    ]
    return list(names), rows


def merge_counters(counter_dicts: Sequence[Dict[str, int]]) -> ScanCounters:
    """Sum per-shard scan counters into one (all fields commutative)."""
    from dataclasses import fields

    total = ScanCounters()
    known = {field.name for field in fields(ScanCounters)}
    for wire in counter_dicts:
        total.merge(ScanCounters(**{key: value for key, value
                                    in wire.items() if key in known}))
    return total
