"""Tile extraction: local schema detection and column materialization
(Sections 3.1, 3.4, 3.5 and 4.9).

For every chunk of ``tile_size`` tuples the extractor

1. collects the typed key paths of each tuple (the loader hands them
   over from its JSONB encoding walk),
2. counts every (path, type) item; by downward closure the union of the
   frequent itemsets above the extraction threshold (60 % by default)
   is exactly the set of frequent single items, so no FPGrowth run is
   needed here — itemset structure only matters for the reordering of
   Section 3.2 (``repro.tiles.reorder``),
3. extracts those frequent items as typed relational columns, choosing
   the most common primitive type when a path occurs with several
   types,
4. recognizes date/time strings and materializes them as TIMESTAMP
   columns, and
5. fills the tile header: statistics, key-path frequency database and
   the row span of every path.

Values that do not match the extracted type stay NULL in the column and
remain reachable through the per-tuple JSONB fallback, preserving JSON
semantics for outliers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.datetimes import parse_datetime_string
from repro.core.jsonpath import KeyPath
from repro.core.types import COLUMN_TYPE_FOR_JSON, ColumnType, JsonType
from repro.jsonb.encoder import collect_items, encode_stripped
from repro.jsonb.encoder import encode as jsonb_encode  # the fused walk
from repro.mining.dictionary import (
    ItemDictionary,
    ItemSink,
    combined_key_counts,
    encode_documents,
)
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.table_stats import TileStatistics
from repro.storage.column import ColumnBuilder, ColumnVector, dtype_for
from repro.tiles.header import (
    ExtractedColumn,
    Span,
    TileHeader,
    merge_presence,
    merge_span,
    pack_rows,
    unpack_rows,
)
from repro.tiles.repeated import RepeatedColumn, repeated_slot
from repro.tiles.tile import RowHeap, Tile, strip_trie


@dataclass
class ExtractionConfig:
    """Knobs of the extraction pipeline; defaults follow Section 6
    ("we use the tile size 2^10, partition size 8, and extraction
    threshold 60%")."""

    tile_size: int = 1024
    partition_size: int = 8
    threshold: float = 0.6
    mining_budget: int = 4096
    max_array_elements: int = 8
    detect_dates: bool = True
    date_sample_size: int = 64
    date_match_fraction: float = 0.95
    enable_reordering: bool = True
    #: statistics precision of the per-column HyperLogLog sketches
    sketch_precision: int = 9

    def min_count(self, num_rows: int) -> int:
        return max(1, math.ceil(self.threshold * num_rows))


#: column types whose tile statistics carry a histogram
_HISTOGRAM_TYPES = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL,
                    ColumnType.TIMESTAMP)

#: Primitive types that can become a column of their own.
_EXTRACTABLE = (JsonType.BOOL, JsonType.INT, JsonType.FLOAT,
                JsonType.STRING, JsonType.NUMSTR)


@dataclass
class TileSchema:
    """The extraction decision for one tile (or, for Sinew, globally)."""

    columns: List[ExtractedColumn] = field(default_factory=list)
    #: ``(chain, key)`` of every repeated ``chain[*].key`` column
    #: (DESIGN.md §5h), in ``(chain text, key)`` order
    repeated: List[Tuple[KeyPath, str]] = field(default_factory=list)

    def paths(self) -> List[KeyPath]:
        return [column.path for column in self.columns]


def choose_schema(dictionary: ItemDictionary, num_rows: int,
                  config: ExtractionConfig) -> TileSchema:
    """Decide which typed key paths become columns.

    Section 3.1 extracts the union of the frequent itemsets; by downward
    closure that union is the set of frequent single items, so the item
    frequencies of the dictionary decide directly (``count >=
    min_count``).
    """
    min_count = config.min_count(num_rows)
    candidates: Dict[KeyPath, List[Tuple[JsonType, int]]] = {}
    conflict_paths: Dict[KeyPath, int] = {}
    for (path, jtype), item_id in dictionary.items():
        count = dictionary.counts[item_id]
        conflict_paths[path] = conflict_paths.get(path, 0) + count
        if jtype not in _EXTRACTABLE:
            continue
        if count < min_count:
            continue
        candidates.setdefault(path, []).append((jtype, count))

    schema = TileSchema()
    for path, typed_counts in candidates.items():
        # Section 3.4: the most common type wins; other types fall back
        # to the binary representation.
        typed_counts.sort(key=lambda entry: (-entry[1], entry[0]))
        jtype, count = typed_counts[0]
        has_conflicts = conflict_paths[path] > count
        schema.columns.append(
            ExtractedColumn(
                path=path,
                json_type=jtype,
                column_type=COLUMN_TYPE_FOR_JSON[jtype],
                has_type_conflicts=has_conflicts,
                nullable=count < num_rows or has_conflicts,
            )
        )
    schema.columns.sort(key=lambda column: str(column.path))
    return schema


def _detect_datetime_columns(schema: TileSchema, documents: Sequence[object],
                             config: ExtractionConfig) -> None:
    """Section 4.9: sample candidate STRING columns; when (almost) every
    sampled value parses as a date/time, store the column as TIMESTAMP."""
    for column in schema.columns:
        if column.column_type != ColumnType.STRING:
            continue
        sampled = 0
        matched = 0
        step = max(1, len(documents) // config.date_sample_size)
        for row in range(0, len(documents), step):
            value = column.path.lookup(documents[row])
            if not isinstance(value, str):
                continue
            sampled += 1
            if parse_datetime_string(value) is not None:
                matched += 1
            if sampled >= config.date_sample_size:
                break
        if sampled and matched / sampled >= config.date_match_fraction:
            column.column_type = ColumnType.TIMESTAMP
            column.is_datetime = True


def _repeat_string_slots(schema: TileSchema) -> None:
    """DESIGN.md §5h: the STRING slot columns ``chain[k].key`` of a
    mined schema give way to one repeated column ``chain[*].key`` per
    ``(chain, key)``, which covers every element of the array."""
    kept = []
    for column in schema.columns:
        slot = repeated_slot(column.path) \
            if column.column_type == ColumnType.STRING else None
        if slot is None:
            kept.append(column)
        elif (slot[0], slot[2]) not in schema.repeated:
            schema.repeated.append((slot[0], slot[2]))
    schema.columns = kept
    schema.repeated.sort(key=lambda spec: (str(spec[0]), spec[1]))


def _materialize_value(value: object, column: ExtractedColumn) -> object:
    """Coerce a document value into the column type, or ``None`` when the
    primitive type does not match (the JSONB fallback keeps it)."""
    if value is None:
        return None
    ctype = column.column_type
    if ctype == ColumnType.INT64:
        return value if isinstance(value, int) and not isinstance(value, bool) else None
    if ctype == ColumnType.FLOAT64:
        if isinstance(value, float):
            return value
        if isinstance(value, int) and not isinstance(value, bool) \
                and _widens(value):
            return float(value)  # lossless widening, not a conflict
        return None
    if ctype == ColumnType.BOOL:
        return value if isinstance(value, bool) else None
    if ctype == ColumnType.STRING:
        return value if isinstance(value, str) else None
    if ctype == ColumnType.DECIMAL:
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                return None
        return None
    if ctype == ColumnType.TIMESTAMP:
        if isinstance(value, str):
            return parse_datetime_string(value)
        return None
    raise AssertionError(f"unexpected column type {ctype}")


#: every integer up to this magnitude is exact as a float (2^53)
_EXACT_FLOAT_INT = 1 << 53


def _widens(value: int) -> bool:
    """Whether an integer converts to a float without loss (a FLOAT64
    column holds it; a wider one stays in the JSONB as an outlier)."""
    return -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT \
        or int(float(value)) == value


def _lookup_step(value: object, step) -> object:
    """One step of :meth:`KeyPath.lookup`."""
    if isinstance(step, str):
        return value[step] if isinstance(value, dict) and step in value \
            else None
    return value[step] if isinstance(value, list) and 0 <= step < len(value) \
        else None


def _lookup_column(path: KeyPath, documents: Sequence[object]) -> List[object]:
    """``path.lookup(document)`` for every document, one step at a time
    over the whole column (exact dicts and lists take the fast branch)."""
    values = list(documents)
    for step in path.steps:
        if isinstance(step, str):
            values = [value.get(step) if type(value) is dict
                      else _lookup_step(value, step) for value in values]
        else:
            values = [value[step] if type(value) is list
                      and 0 <= step < len(value)
                      else _lookup_step(value, step) for value in values]
    return values


def _materialize_column(raws: List[object],
                        column: ExtractedColumn) -> List[object]:
    """:func:`_materialize_value` of every raw value, with the exact
    matching type of an INT64, FLOAT64 or STRING column taken inline."""
    ctype = column.column_type
    if ctype == ColumnType.INT64:
        return [raw if type(raw) is int else None if raw is None
                else _materialize_value(raw, column) for raw in raws]
    if ctype == ColumnType.FLOAT64:
        return [raw if type(raw) is float
                else float(raw) if type(raw) is int and _widens(raw)
                else None if raw is None else _materialize_value(raw, column)
                for raw in raws]
    if ctype == ColumnType.STRING:
        return [raw if type(raw) is str else None if raw is None
                else _materialize_value(raw, column) for raw in raws]
    return [_materialize_value(raw, column) for raw in raws]


#: the value under the null mask of the column types whose builder
#: coercion of a materialized value is numpy's conversion of the value
_DIRECT_ZERO = {ColumnType.INT64: 0, ColumnType.FLOAT64: 0.0,
                ColumnType.STRING: None}


def _column_vector(column_type: ColumnType, values: List[object],
                   nulls: List[bool]) -> ColumnVector:
    """The vector a :class:`ColumnBuilder` of *column_type* finishes to
    after appending the materialized *values* (``None`` is NULL)."""
    if column_type in _DIRECT_ZERO:
        zero = _DIRECT_ZERO[column_type]
        try:
            data = np.array([zero if null else value
                             for value, null in zip(values, nulls)],
                            dtype=dtype_for(column_type))
        except OverflowError:
            pass  # the builder turns an out-of-range integer into NULL
        else:
            return ColumnVector(column_type, data, np.array(nulls, dtype=bool))
    builder = ColumnBuilder(column_type)
    for value in values:
        builder.append(value)
    return builder.finish()


def leaf_presence(dictionary: ItemDictionary,
                  transactions: Sequence[Sequence[int]]
                  ) -> Tuple[Dict[KeyPath, Span], Dict[KeyPath, bytes]]:
    """Per-row key presence of a tile's (dictionary, transactions)
    pair, the input the tile build already holds: the row span
    ``[first, end)`` of every non-root key path, and the
    :func:`~repro.tiles.header.pack_rows` bitmap of each path whose
    span has rows without it.  Types of one path share its rows (a
    document holds one value per path)."""
    num_rows = len(transactions)
    path_ids: Dict[KeyPath, int] = {}
    item_paths = np.full(len(dictionary), -1, dtype=np.int64)
    for (path, _jtype), item_id in dictionary.items():
        if path.steps:
            item_paths[item_id] = path_ids.setdefault(path, len(path_ids))
    lengths = np.fromiter(map(len, transactions), dtype=np.int64,
                          count=num_rows)
    items = np.fromiter(itertools.chain.from_iterable(transactions),
                        dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)
    paths = item_paths[items]
    if len(path_ids) < np.iinfo(np.int16).max:
        paths = paths.astype(np.int16)  # numpy radix-sorts 16-bit keys
    # rows are ascending within each path after a stable sort
    order = np.argsort(paths, kind="stable")
    paths, rows = paths[order], rows[order]
    bounds = np.searchsorted(paths, np.arange(-1, len(path_ids) + 1))
    lo, hi = bounds[1:-1], bounds[2:]
    first = rows[lo]
    end = rows[hi - 1] + 1
    spans: Dict[KeyPath, Span] = {}
    holes: Dict[KeyPath, bytes] = {}
    sparse = set(np.flatnonzero(hi - lo < end - first).tolist())
    for path, index in path_ids.items():
        start, stop = int(first[index]), int(end[index])
        spans[path] = (start, stop)
        if index in sparse:
            bits = np.zeros(stop - start, dtype=bool)
            bits[rows[lo[index]:hi[index]] - start] = True
            holes[path] = pack_rows(bits)
    return spans, holes


def walk_documents(documents: Sequence[object], config: ExtractionConfig,
                   encode: bool
                   ) -> Tuple[Optional[List[bytes]],
                              Tuple[ItemDictionary, List[List[int]]]]:
    """One walk per document: the (dictionary, transactions) pair
    :func:`build_tile` takes as *encoded*, and with *encode* also the
    complete JSONB rows from the same walk (for tiles that extract
    nothing, which adopt them; an extracting tile encodes its rows
    under its schema instead)."""
    sink = ItemSink(config.max_array_elements)
    rows = None
    if encode:
        rows = [jsonb_encode(document, sink=sink) for document in documents]
    else:
        for document in documents:
            collect_items(document, sink)
    return rows, (sink.dictionary, sink.transactions)


def build_tile(documents: Sequence[object],
               jsonb_rows: Optional[List[bytes]],
               config: ExtractionConfig, tile_number: int, first_row: int,
               schema: Optional[TileSchema] = None,
               mine: bool = True,
               timings: Optional[Dict[str, float]] = None,
               encoded: Optional[Tuple[ItemDictionary, List[List[int]]]] = None,
               level: int = 0,
               repeat_arrays: bool = True,
               ) -> Tile:
    """Construct one tile from parsed documents.

    The rows are encoded once, after the schema is known, without the
    leaves the columns hold exactly (``repro.tiles.tile``, DESIGN.md
    §3).  A tile without such a column adopts *jsonb_rows* (the
    documents' complete JSONB) when given, else encodes them in full.

    When *schema* is given (Sinew's global schema, or a recomputation
    after updates) the decision steps are skipped and the fixed schema
    is materialized.  ``mine=False`` extracts nothing (plain JSONB
    storage: the header only tracks key paths and row count).
    *timings* accumulates per-phase seconds ("mining", "extract",
    "write_jsonb") for the insertion-time breakdown of Figure 16.
    *encoded* passes a pre-computed (dictionary, transactions) pair —
    the loader and :meth:`Relation.flush_inserts` collect it in one
    walk per document (``repro.jsonb.encoder.collect_items``) — so the
    documents are not walked again for it here.  *level* stamps
    the LSM level onto the header (0 for freshly sealed tiles;
    compaction merges pass the next level).  With *repeat_arrays* (every
    format but Tiles-*, whose child relations are the paper's answer to
    arrays), mined STRING slot columns ``chain[k].key`` become repeated
    columns (DESIGN.md §5h); a given *schema* carries its own.
    """
    num_rows = len(documents)
    header = TileHeader(tile_number, num_rows,
                        max_array_elements=config.max_array_elements,
                        level=level)
    started = time.perf_counter()
    if encoded is not None:
        dictionary, transactions = encoded
    else:
        dictionary, transactions = encode_documents(
            documents, config.max_array_elements)
    if config.max_array_elements > 0:
        # with a zero cap a non-empty array records no item at all, so
        # "not recorded" would no longer mean "absent"
        header.set_leaf_spans(*leaf_presence(dictionary, transactions))
    header.key_counts = dictionary.key_counts()
    for path_text, count in header.key_counts.items():
        header.statistics.observe_key(path_text, count)

    if schema is None and mine:
        schema = choose_schema(dictionary, num_rows, config)
        if config.detect_dates:
            _detect_datetime_columns(schema, documents, config)
        if repeat_arrays:
            _repeat_string_slots(schema)
    elif schema is None:
        schema = TileSchema()
    mined_at = time.perf_counter()
    trie = strip_trie(schema.columns)
    if trie is not None or jsonb_rows is None:
        # before the columns: a value no row can hold raises here
        jsonb_rows = [encode_stripped(document, trie)
                      for document in documents]
    heap = RowHeap.from_rows(jsonb_rows)
    encoded_at = time.perf_counter()
    if timings is not None:
        timings["mining"] = timings.get("mining", 0.0) + (mined_at - started)
        timings["write_jsonb"] = timings.get("write_jsonb", 0.0) + (
            encoded_at - mined_at)

    columns = {}
    for column_meta in schema.columns:
        raws = _lookup_column(column_meta.path, documents)
        values = _materialize_column(raws, column_meta)
        nulls = [value is None for value in values]
        null_count = nulls.count(True)
        absent = [raw is None for raw in raws].count(True)
        stats = header.statistics.column(column_meta.path)
        # hash each distinct value once (Section 4.6 sketches)
        stats.observe_distinct(
            dict.fromkeys(value for value in values if value is not None),
            num_rows - null_count)
        materialized = ExtractedColumn(
            path=column_meta.path,
            json_type=column_meta.json_type,
            column_type=column_meta.column_type,
            # a value of another type is NULL here and stays in JSONB
            has_type_conflicts=(column_meta.has_type_conflicts
                                or null_count > absent),
            nullable=null_count > 0,
            is_datetime=column_meta.is_datetime,
        )
        header.add_column(materialized)
        vector = _column_vector(column_meta.column_type, values, nulls)
        columns[column_meta.path] = vector
        if column_meta.column_type in _HISTOGRAM_TYPES:
            present = vector.data[~vector.null_mask]
            stats.histogram = EquiDepthHistogram.from_values(present)

    header.repeated = tuple(schema.repeated)
    repeated = tuple(RepeatedColumn.build(heap, chain, key,
                                          columns.get(chain))
                     for chain, key in header.repeated)
    if timings is not None:
        timings["extract"] = timings.get("extract", 0.0) + (
            time.perf_counter() - encoded_at)
    return Tile(header, columns, heap, first_row, repeated)


def extend_tile(tail: Tile, documents: Sequence[object],
                config: ExtractionConfig) -> Tuple[Tile, TileStatistics]:
    """Append *documents* to *tail* under the tail's schema
    (DESIGN.md §6c); returns ``(extended tile, delta statistics)``.

    The result is a new tile — *tail* is never mutated, so a reader on
    an older manifest keeps a consistent view — equal to
    ``build_tile(tail documents + documents, schema=<tail's columns>)``.
    Nothing is re-mined: the batch is built under the tail's columns
    and merged into it.  Columns are concatenated, conflict / nullable
    flags OR-ed, key counts summed, leaf spans united (the batch's
    shifted past the tail; no spans when either side has none),
    sketches merged and bounds folded on.  Histograms are recomputed
    from the concatenated vectors; repeated columns are concatenated
    (:meth:`~repro.tiles.repeated.RepeatedColumn.concat`).  Extending
    by b1 then b2 therefore equals extending by b1 + b2.

    The delta statistics are the batch's own tile statistics: absorbing
    them into the relation's (an additive fold) accounts for the
    appended rows without rebuilding from every tile.
    """
    head = tail.header
    offset = tail.row_count
    jsonb_rows, encoded = walk_documents(
        documents, config,
        encode=strip_trie(head.columns.values()) is None)
    batch = build_tile(documents, jsonb_rows, config, head.tile_number,
                       tail.first_row + offset,
                       schema=TileSchema(list(head.columns.values()),
                                         list(head.repeated)),
                       encoded=encoded, level=head.level)
    added = batch.header
    header = TileHeader(head.tile_number, offset + batch.row_count,
                        max_array_elements=head.max_array_elements,
                        level=head.level)
    if head.leaf_spans is not None and added.leaf_spans is not None:
        spans = dict(head.leaf_spans)
        if head.leaf_holes is None or added.leaf_holes is None:
            holes = None
            for path, (first, end) in added.leaf_spans.items():
                merge_span(spans, path, (first + offset, end + offset))
        else:
            holes = dict(head.leaf_holes)
            for path, span in added.leaf_spans.items():
                packed = added.leaf_holes.get(path)
                merge_presence(
                    spans, holes, path, (span[0] + offset, span[1] + offset),
                    None if packed is None
                    else unpack_rows(packed, span[1] - span[0]))
        header.set_leaf_spans(spans, holes)
    header.repeated = head.repeated
    header.key_counts = combined_key_counts([head.key_counts,
                                             added.key_counts])
    header.statistics.key_counts = dict(header.key_counts)

    columns = {}
    for path, meta in head.columns.items():
        batch_meta = added.columns[path]
        header.add_column(dataclasses.replace(
            meta,
            has_type_conflicts=(meta.has_type_conflicts
                                or batch_meta.has_type_conflicts),
            nullable=meta.nullable or batch_meta.nullable))
        old, new = tail.columns[path], batch.columns[path]
        vector = ColumnVector(meta.column_type,
                              np.concatenate([old.data, new.data]),
                              np.concatenate([old.null_mask, new.null_mask]))
        columns[path] = vector
        old_stats = head.statistics.columns[path]
        new_stats = added.statistics.columns[path]
        stats = header.statistics.column(path)
        stats.sketch = old_stats.sketch.copy()
        stats.sketch.merge(new_stats.sketch)
        stats.non_null_count = (old_stats.non_null_count
                                + new_stats.non_null_count)
        # continue the tail's fold over the batch's values: what one
        # pass over the union does, NaN and TypeError rules included
        stats.min_value = old_stats.min_value
        stats.max_value = old_stats.max_value
        stats.widen_bounds(new.data[~new.null_mask].tolist())
        if meta.column_type in _HISTOGRAM_TYPES:
            stats.histogram = EquiDepthHistogram.from_values(
                vector.data[~vector.null_mask])
    repeated = tuple(old.concat(new) for old, new
                     in zip(tail.repeated, batch.repeated))
    return (Tile(header, columns, tail.heap.concat(batch.heap),
                 tail.first_row, repeated),
            added.statistics)
