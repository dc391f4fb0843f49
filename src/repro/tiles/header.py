"""Tile headers (Section 4.4).

Each tile describes its *seen* and *materialized* data: the extracted
key paths with their value types, whether a path also occurs with other
types (the type-conflict flag needed for correct fallback accesses),
whether nulls are possible, and the key-path frequency database that
seeded itemset mining.

Row spans (DESIGN.md §5i) record what the header has seen down to
"which rows": every key path maps to the half-open range
``[first, end)`` of tile rows that contain it, so a scan decodes only
that range, answers an absent path NULL without opening a document and
skips a tile that lacks a null-rejected path (Section 4.8; the spans
stand in for the paper's bloom filter of non-extracted paths).
A leaf path whose span has holes also keeps a bitmap of the span's rows
that contain it, so :meth:`TileHeader.rows_of` knows every path's rows
exactly and a scan drops the rows that lack a null-rejected path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType, JsonType
from repro.stats.table_stats import TileStatistics

Span = Tuple[int, int]

#: the span of a path no row of the tile contains
EMPTY_SPAN: Span = (0, 0)


def fold_spans(leaf_spans: Dict[KeyPath, Span]) -> Dict[KeyPath, Span]:
    """Leaf spans plus every proper, non-root ancestor, whose span is
    the union of its descendants' spans.  The item dictionary records
    only leaves and empty containers, so a container's own rows are
    exactly the rows of the leaves below it."""
    spans = dict(leaf_spans)
    for path, span in leaf_spans.items():
        _merge_into_ancestors(spans, path, span)
    return spans


def _merge_into_ancestors(spans: Dict[KeyPath, Span], path: KeyPath,
                          span: Span) -> None:
    steps = path.steps
    for depth in range(len(steps) - 1, 0, -1):
        merge_span(spans, KeyPath(steps[:depth]), span)


def merge_span(spans: Dict[KeyPath, Span], path: KeyPath, span: Span) -> None:
    """Widen ``spans[path]`` to cover *span* (min / max of the ends)."""
    old = spans.get(path)
    if old is None:
        spans[path] = span
    elif span[0] < old[0] or span[1] > old[1]:
        spans[path] = (min(old[0], span[0]), max(old[1], span[1]))


def pack_rows(bits: np.ndarray) -> bytes:
    """A hole bitmap: the ``bool`` rows of a span, packed 8 per byte
    (row ``first + i`` is bit ``i % 8`` of byte ``i // 8``)."""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_rows(packed: bytes, rows: int) -> np.ndarray:
    """The *rows* ``bool`` entries of a :func:`pack_rows` bitmap."""
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                         count=rows, bitorder="little").view(bool)


def span_rows(span: Span, holes: Optional[bytes]) -> np.ndarray:
    """The ``bool`` rows of *span* that contain its path: all of them,
    or the ones its hole bitmap marks."""
    first, end = span
    if holes is None:
        return np.ones(end - first, dtype=bool)
    return unpack_rows(holes, end - first)


def merge_presence(spans: Dict[KeyPath, Span], holes: Dict[KeyPath, bytes],
                   path: KeyPath, span: Span,
                   bits: Optional[np.ndarray]) -> None:
    """Add the rows *bits* of *span* (``None``: all of them) to *path*'s
    presence in (*spans*, *holes*): the span widens to cover both, and
    the path keeps a hole bitmap exactly when a row of the widened span
    lacks it."""
    old = spans.get(path)
    if old is None:
        spans[path] = span
        if bits is not None and not bits.all():
            holes[path] = pack_rows(bits)
        return
    first, end = min(old[0], span[0]), max(old[1], span[1])
    if (first, end) == old and path not in holes:
        return  # every row of the span already contains the path
    merged = np.zeros(end - first, dtype=bool)
    merged[old[0] - first:old[1] - first] = span_rows(old, holes.get(path))
    new = merged[span[0] - first:span[1] - first]
    new |= True if bits is None else bits
    spans[path] = (first, end)
    if merged.all():
        holes.pop(path, None)
    else:
        holes[path] = pack_rows(merged)


@dataclass
class ExtractedColumn:
    """Metadata of one materialized key path."""

    path: KeyPath
    json_type: JsonType
    column_type: ColumnType
    #: True when the same path occurs with a different primitive type in
    #: this tile; accesses must re-check the JSONB fallback on NULL
    #: (Section 3.4).
    has_type_conflicts: bool = False
    #: True when some tuple lacks the path or stores JSON null.
    nullable: bool = True
    #: True when a STRING path was recognized and stored as TIMESTAMP
    #: (Section 4.9); text accesses then bypass the column.
    is_datetime: bool = False


class TileHeader:
    """Per-tile schema + key statistics, pointed to by the relation."""

    def __init__(self, tile_number: int, row_count: int,
                 max_array_elements: int = 8, level: int = 0):
        self.tile_number = tile_number
        self.row_count = row_count
        self.max_array_elements = max_array_elements
        #: LSM level (repro.lsm): 0 for freshly sealed tiles, +1 per
        #: compaction merge.  Purely descriptive for reads — scans
        #: treat all levels alike — but the compaction planner keys
        #: runs off it, so it persists with the header.
        self.level = level
        self.columns: Dict[KeyPath, ExtractedColumn] = {}
        #: ``(chain, key)`` of every repeated ``chain[*].key`` column of
        #: the payload (DESIGN.md §5h), which stands in for the string
        #: slot columns ``chain[k].key``
        self.repeated: Tuple[Tuple[KeyPath, str], ...] = ()
        self.key_counts: Dict[str, int] = {}
        self.statistics = TileStatistics(row_count=row_count)
        #: ``(leaf_spans, spans, leaf_holes, rows_of cache)``, replaced
        #: as a whole on every change (copy on write), so a concurrent
        #: scan always reads one consistent state; see the properties
        self._presence: Tuple[Optional[Dict[KeyPath, Span]],
                              Optional[Dict[KeyPath, Span]],
                              Optional[Dict[KeyPath, bytes]],
                              Dict[KeyPath, np.ndarray]] = \
            (None, None, None, {})

    @property
    def leaf_spans(self) -> Optional[Dict[KeyPath, Span]]:
        """Row span ``[first, end)`` of every recorded (non-root) leaf
        path — what persists.  ``None`` for tiles restored from files
        written without spans: every path then spans the whole tile."""
        return self._presence[0]

    @leaf_spans.setter
    def leaf_spans(self, value: Optional[Dict[KeyPath, Span]]) -> None:
        _old, spans, holes, _cache = self._presence
        self._presence = (value, spans, holes, {})

    @property
    def spans(self) -> Optional[Dict[KeyPath, Span]]:
        """The leaf spans plus their container ancestors'
        (:func:`fold_spans`) — what scans read."""
        return self._presence[1]

    @spans.setter
    def spans(self, value: Optional[Dict[KeyPath, Span]]) -> None:
        leaf_spans, _old, holes, _cache = self._presence
        self._presence = (leaf_spans, value, holes, {})

    @property
    def leaf_holes(self) -> Optional[Dict[KeyPath, bytes]]:
        """Per-row key presence (DESIGN.md §5i): the :func:`pack_rows`
        bitmap over its span of every leaf path whose span has holes;
        a leaf path without an entry is in every row of its span.
        ``None`` when only the spans are known (files written before
        presence, hand-set spans): each span then counts as full,
        which over-approximates the rows and stays sound."""
        return self._presence[2]

    def set_leaf_spans(self, leaf_spans: Dict[KeyPath, Span],
                       holes: Optional[Dict[KeyPath, bytes]] = None) -> None:
        self._presence = (leaf_spans, fold_spans(leaf_spans), holes, {})

    def widen_spans(self, paths: Iterable[KeyPath], row: int) -> None:
        """Row *row* now contains *paths* (an in-place update): widen
        their spans and their ancestors', and mark the row present.
        Spans never shrink — a stale-wide span only costs decode work,
        never a wrong NULL."""
        leaf_spans, spans, holes, _cache = self._presence
        if spans is None:
            return
        leaf_spans, spans = dict(leaf_spans), dict(spans)
        holes = None if holes is None else dict(holes)
        span = (row, row + 1)
        for path in paths:
            if path.steps:
                if holes is None:
                    merge_span(leaf_spans, path, span)
                else:
                    merge_presence(leaf_spans, holes, path, span, None)
                merge_span(spans, path, span)
                _merge_into_ancestors(spans, path, span)
        self._presence = (leaf_spans, spans, holes, {})

    def clear_presence(self, paths: Iterable[KeyPath], row: int) -> None:
        """Row *row* no longer contains *paths* (leaf paths of the
        document an update replaced): mark the row absent in their hole
        bitmaps.  The spans stay as wide as they were."""
        leaf_spans, spans, holes, _cache = self._presence
        if holes is None or leaf_spans is None:
            return
        holes = dict(holes)
        for path in paths:
            span = leaf_spans.get(path)
            if span is None or not span[0] <= row < span[1]:
                continue
            bits = span_rows(span, holes.get(path))
            bits[row - span[0]] = False
            holes[path] = pack_rows(bits)
        self._presence = (leaf_spans, spans, holes, {})

    def rows_of(self, path: KeyPath) -> np.ndarray:
        """The rows of the tile that contain *path*, as a read-only
        ``bool`` mask over the tile.

        Exact for every recorded path: a leaf's span and hole bitmap,
        a container's union of its own rows (an empty object or array)
        and every descendant leaf's.  A path with an array step outside
        ``[0, max_array_elements)`` takes its nearest recorded
        ancestor's rows, as :meth:`span_of` takes its span; any other
        unrecorded path is in no row.  Without spans every row counts;
        without hole bitmaps every row of the span counts.
        """
        state = self._presence
        if state[1] is None or not path.steps:
            return np.ones(self.row_count, dtype=bool)
        rows = state[3].get(path)
        if rows is None:
            rows = self._compute_rows(state, path)
            rows.flags.writeable = False
            state[3][path] = rows
        return rows

    def _compute_rows(self, state, path: KeyPath) -> np.ndarray:
        leaf_spans, spans, holes, _cache = state
        rows = np.zeros(self.row_count, dtype=bool)
        span = spans.get(path)
        if span is None:
            if self.span_of(path) != EMPTY_SPAN:
                # past the collection cap: the ancestor's rows
                current = path.parent()
                while current.steps and current not in spans:
                    current = current.parent()
                return self.rows_of(current).copy()
            return rows
        if holes is None or (leaf_spans.get(path) == span
                             and path not in holes):
            rows[span[0]:span[1]] = True
            return rows
        for leaf, leaf_span in leaf_spans.items():
            if leaf.startswith(path):
                rows[leaf_span[0]:leaf_span[1]] |= span_rows(
                    leaf_span, holes.get(leaf))
        return rows

    def span_of(self, path: KeyPath) -> Span:
        """Rows ``[first, end)`` outside which no row contains *path*.

        An exact entry is returned as is.  A missing path with an array
        step outside ``[0, max_array_elements)`` was never recorded (the
        key-path collection stops at the cap, and negative steps count
        from the end), so it takes its nearest recorded ancestor's span
        and :meth:`may_contain` never claims such a slot absent.  Any
        other missing path occurs in no row; the root path is the whole
        tile.
        """
        spans = self.spans
        if spans is None:
            return 0, self.row_count
        span = spans.get(path)
        if span is not None:
            return span
        cap = self.max_array_elements
        if path.steps and not any(
                isinstance(step, int) and not 0 <= step < cap
                for step in path.steps):
            return EMPTY_SPAN
        current = path
        while current.steps:
            current = current.parent()
            span = spans.get(current)
            if span is not None:
                return span
        return 0, self.row_count

    def add_column(self, column: ExtractedColumn) -> None:
        self.columns[column.path] = column

    def extracted(self, path: KeyPath) -> Optional[ExtractedColumn]:
        return self.columns.get(path)

    def column_bounds(self, path: KeyPath):
        """(min, max) of an extracted column's non-null values, or
        ``None``.  These per-tile zone maps extend Section 4.8's
        skipping in the spirit of Data Blocks [36]: a tile whose value
        range cannot satisfy a pushed-down comparison is skipped even
        though the key path exists."""
        stats = self.statistics.columns.get(path)
        if stats is None or stats.min_value is None:
            return None
        column = self.columns.get(path)
        if column is not None and column.has_type_conflicts:
            # outliers live in the JSONB fallback and are not covered
            # by the column bounds: pruning would be unsound
            return None
        return stats.min_value, stats.max_value

    def may_contain(self, path: KeyPath) -> bool:
        """Can any tuple of this tile contain *path*?  Its span says
        (:meth:`span_of`): exact for every recorded path, the nearest
        recorded ancestor's for a slot past the collection cap, and the
        whole tile when the header has no spans."""
        return self.span_of(path) != EMPTY_SPAN

    def extracted_paths(self) -> List[KeyPath]:
        return list(self.columns)

    def stored_path_count(self) -> int:
        """Seen key paths the tile stores as columns: the extracted
        ones plus every slot path ``chain[k].key`` a repeated column
        covers."""
        count = len(self.columns)
        for chain, key in self.repeated:
            prefix, suffix = f"{chain}[", f"].{KeyPath((key,))}"
            count += sum(text.startswith(prefix) and text.endswith(suffix)
                         and text[len(prefix):-len(suffix)].isdigit()
                         for text in self.key_counts)
        return count

    def describe(self) -> str:
        """Human-readable summary used by examples and debugging."""
        lines = [f"tile #{self.tile_number}: {self.row_count} rows, "
                 f"{len(self.columns)} extracted columns"
                 + (f", level {self.level}" if self.level else "")]
        for column in self.columns.values():
            flags = []
            if column.is_datetime:
                flags.append("datetime")
            if column.has_type_conflicts:
                flags.append("type-conflicts")
            if column.nullable:
                flags.append("nullable")
            suffix = f" ({', '.join(flags)})" if flags else ""
            lines.append(f"  {column.path} :: {column.column_type.name}{suffix}")
        for chain, key in self.repeated:
            lines.append(f"  {chain}[*].{KeyPath((key,))} :: repeated STRING")
        return "\n".join(lines)
