"""The tile: a chunk of tuples with materialized columns + JSONB rows.

A tile owns its slice of binary JSON documents (the fallback
representation) and, when the storage format extracts, one
:class:`~repro.storage.column.ColumnVector` per materialized key path.
Scans stream the vectors; accesses to non-extracted paths (or to
type-conflicting NULL slots) traverse the JSONB bytes.

Each value is stored once (DESIGN.md §3): a row's JSONB leaves out
every leaf an extracted column holds exactly — an object-key path
(no array step) whose INT64 / FLOAT64 / STRING / BOOL column is
non-NULL at the row, with a raw value of exactly that JSON type
(:data:`EXACT_TYPES`).  JSON nulls, Section 3.4 outliers, TIMESTAMP
and DECIMAL source text, arrays and every object (possibly emptied)
stay in the row.  :meth:`Tile.documents` and :meth:`Tile.full_rows`
put the column values back; merging is idempotent (a key the row
still holds wins), so tiles whose rows still hold every value, as
``.jtile`` v1-v3 files store them, read the same.

The JSONB rows live in one immutable :class:`RowHeap` per tile
(DESIGN.md §5e): the bytes of the ``.jtile`` ``row_heap`` blob, so a
checkpoint writes the heap as it is and a load keeps the blob it read,
plus the start and end of every row.  The fallback scan navigates all
selected rows of a tile in that one buffer (``repro.jsonb.vector_shred``).
"""

from __future__ import annotations

import itertools
import struct
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.jsonb.decoder import decode as jsonb_decode
from repro.jsonb.encoder import encode as jsonb_encode
from repro.jsonb.vector_shred import HeapView
from repro.storage.column import ColumnVector
from repro.tiles.header import ExtractedColumn, TileHeader
from repro.tiles.repeated import RepeatedColumn

#: process-unique tile identities; sealing, recomputation and
#: checkpoint reload all build new Tile objects, so a uid never
#: refers to stale contents — the resolved-tile cache keys on it.
#: Paged tiles are the one exception: their TileHandle allocates the
#: uid once and re-stamps it onto every reload, because an evicted and
#: re-read tile is bit-identical to the one it replaces (in-place
#: mutation marks the handle dirty, and dirty tiles are never evicted).
_uid_counter = itertools.count(1)

_U32 = struct.Struct("<I")


#: the Python type of a leaf that an extracted column of each type holds
#: exactly, so the row leaves it out (see the module docstring)
EXACT_TYPES = {ColumnType.INT64: int, ColumnType.FLOAT64: float,
               ColumnType.STRING: str, ColumnType.BOOL: bool}


def holds_exactly(column: ExtractedColumn) -> bool:
    """Whether rows leave out the leaves *column* holds exactly: a
    column of an :data:`EXACT_TYPES` type over object keys only."""
    steps = column.path.steps
    return column.column_type in EXACT_TYPES and bool(steps) \
        and all(type(step) is str for step in steps)


def _trie(entries: Iterable[Tuple[Tuple[str, ...], object]]) -> dict:
    """``{key: (leaf or None, trie below or None)}`` over ``(steps,
    leaf)`` entries: a key path's last step carries its leaf value."""
    root: dict = {}
    for steps, leaf in entries:
        node = root
        *parents, last = steps
        for step in parents:
            value, below = node.get(step, (None, None))
            node[step] = (value, {} if below is None else below)
            node = node[step][1]
        node[last] = (leaf, node.get(last, (None, None))[1])
    return root


def strip_trie(columns: Iterable[ExtractedColumn]) -> Optional[dict]:
    """The trie :func:`repro.jsonb.encoder.encode_stripped` encodes a
    row under — each column that :func:`holds_exactly` with its exact
    Python type as the leaf — or ``None`` when there is none."""
    return _trie((column.path.steps, EXACT_TYPES[column.column_type])
                 for column in columns if holds_exactly(column)) or None


def _merge_object(node: dict, trie: dict, values: List[list],
                  row: int) -> None:
    """Put the column values of *row* back into the object *node*:
    ``trie`` has the index of a column into *values* as its leaves, and
    ``values[column][row]`` is ``None`` where the column is NULL.  A key
    the object holds keeps its value; inserted keys are re-sorted into
    the JSONB key order (UTF-8 order is code point order)."""
    inserted = False
    for key, (column, below) in trie.items():
        if column is not None and key not in node:
            value = values[column][row]
            if value is not None:
                node[key] = value
                inserted = True
                continue
        if below:
            child = node.get(key)
            if type(child) is dict:
                _merge_object(child, below, values, row)
    if inserted:
        items = sorted(node.items())
        node.clear()
        node.update(items)


def new_tile_uid() -> int:
    """Allocate a fresh process-unique tile identity (used by
    :class:`repro.storage.tilestore.TileHandle` for paged tiles)."""
    return next(_uid_counter)


class RowHeap:
    """A tile's JSONB rows as one immutable buffer.

    ``buf`` is the row count (``u32``) followed by every row as a
    ``u32`` length prefix and its JSONB bytes — the ``.jtile`` v3
    ``row_heap`` blob.  Row *i* is ``buf[starts[i]:ends[i]]``
    (``int64`` arrays).  A heap is never mutated: appends and updates
    build a new one, so a reader holding the old heap keeps a
    consistent view."""

    __slots__ = ("buf", "starts", "ends", "_view")

    def __init__(self, buf: bytes, starts: np.ndarray, ends: np.ndarray):
        self.buf = buf
        self.starts = starts
        self.ends = ends
        self._view: Optional[HeapView] = None

    def view(self) -> HeapView:
        """The numpy views the fallback kernels read the heap through,
        made on first use (the heap never changes)."""
        view = self._view
        if view is None:
            view = self._view = HeapView(self.buf)
        return view

    @classmethod
    def from_rows(cls, rows: Sequence[bytes]) -> "RowHeap":
        lengths = np.fromiter(map(len, rows), dtype=np.int64,
                              count=len(rows))
        ends = np.cumsum(lengths + 4) + 4
        parts = [_U32.pack(len(rows))]
        for row in rows:
            parts.append(_U32.pack(len(row)))
            parts.append(row)
        return cls(b"".join(parts), ends - lengths, ends)

    @classmethod
    def from_blob(cls, buf: bytes) -> "RowHeap":
        """Adopt a ``row_heap`` blob: one walk over the length
        prefixes, no row is copied out."""
        (count,) = _U32.unpack_from(buf, 0)
        unpack = _U32.unpack_from
        starts = []
        pos = 4
        for _ in range(count):
            pos += 4
            starts.append(pos)
            pos += unpack(buf, pos - 4)[0]
        # each row ends where the next one's length prefix starts
        ends = np.empty(count, dtype=np.int64)
        ends[:-1] = np.array(starts[1:], dtype=np.int64) - 4
        ends[-1:] = pos
        return cls(buf, np.array(starts, dtype=np.int64), ends)

    def __len__(self) -> int:
        return len(self.starts)

    def row(self, index: int) -> bytes:
        """A copy of row *index*'s JSONB bytes."""
        return self.buf[int(self.starts[index]):int(self.ends[index])]

    def rows(self) -> List[bytes]:
        """Copies of every row, in order."""
        buf = self.buf
        return [buf[start:end] for start, end
                in zip(self.starts.tolist(), self.ends.tolist())]

    def payload_bytes(self) -> int:
        """The JSONB bytes of all rows (without the length prefixes)."""
        return int((self.ends - self.starts).sum())

    def concat(self, other: "RowHeap") -> "RowHeap":
        """This heap's rows followed by *other*'s."""
        shift = len(self.buf) - 4
        return RowHeap(_U32.pack(len(self) + len(other)) + self.buf[4:]
                       + other.buf[4:],
                       np.concatenate([self.starts, other.starts + shift]),
                       np.concatenate([self.ends, other.ends + shift]))

    def replace(self, index: int, row: bytes) -> "RowHeap":
        """A heap with row *index* replaced by *row*."""
        start, end = int(self.starts[index]), int(self.ends[index])
        shift = len(row) - (end - start)
        starts = self.starts.copy()
        ends = self.ends.copy()
        starts[index + 1:] += shift
        ends[index:] += shift
        return RowHeap(self.buf[:start - 4] + _U32.pack(len(row)) + row
                       + self.buf[end:], starts, ends)


class Tile:
    __slots__ = ("header", "columns", "heap", "first_row", "uid", "repeated",
                 "_merge")

    def __init__(self, header: TileHeader, columns: Dict[KeyPath, ColumnVector],
                 heap: RowHeap, first_row: int = 0,
                 repeated: Tuple[RepeatedColumn, ...] = ()):
        self.header = header
        self.columns = columns
        self.heap = heap
        self.first_row = first_row
        self.uid = next(_uid_counter)
        #: the repeated ``chain[*].key`` columns (DESIGN.md §5h), in
        #: ``(chain, key)`` order; replaced as a whole, never mutated
        self.repeated = repeated
        #: ``(merge trie, prefixes, merge paths, held columns)`` of
        #: :meth:`merges`, made on first use (the set of columns never
        #: changes)
        self._merge: Optional[Tuple[dict, FrozenSet[KeyPath],
                                    FrozenSet[KeyPath],
                                    List[ColumnVector]]] = None

    @property
    def row_count(self) -> int:
        return len(self.heap)

    def column(self, path: KeyPath) -> Optional[ColumnVector]:
        return self.columns.get(path)

    def repeated_on(self, chain: KeyPath,
                    key: Optional[str] = None) -> Optional[RepeatedColumn]:
        """The repeated column over the array at *chain* (of member *key*,
        or any member when ``None``), if the tile stores one."""
        for column in self.repeated:
            if column.chain == chain and key in (None, column.key):
                return column
        return None

    # ------------------------------------------------------------------
    # one copy of every value (see the module docstring)

    def _merge_state(self) -> Tuple[dict, FrozenSet[KeyPath],
                                    FrozenSet[KeyPath], List[ColumnVector]]:
        state = self._merge
        if state is None:
            held = [path for path, meta in self.header.columns.items()
                    if holds_exactly(meta)]
            trie = _trie((path.steps, index)
                         for index, path in enumerate(held))
            # every proper prefix of a column, the root included
            prefixes = frozenset(KeyPath(path.steps[:depth]) for path in held
                                 for depth in range(len(path.steps)))
            state = self._merge = (trie, prefixes, prefixes.union(held),
                                   [self.columns[path] for path in held])
        return state

    def merges(self, path: KeyPath) -> bool:
        """Whether a read of the JSONB value at *path* needs column
        values put back: *path* is a column the rows leave out, or a
        proper prefix of one (the root included)."""
        return path in self._merge_state()[2]

    def merges_below(self, path: KeyPath) -> bool:
        """Whether *path* is a proper prefix of a column the rows leave
        out: where such a column is NULL, the row still holds its own
        value, so only a read above it needs values put back."""
        return path in self._merge_state()[1]

    def documents(self, rows: Optional[Sequence[int]] = None
                  ) -> List[object]:
        """The documents of *rows* (default: every row), decoded from
        the heap with the column values put back."""
        heap = self.heap
        if rows is None:
            rows = range(len(heap))
        buf, starts, ends = heap.buf, heap.starts.tolist(), heap.ends.tolist()
        documents = [jsonb_decode(buf[starts[row]:ends[row]])
                     for row in rows]
        trie, _prefixes, _paths, held = self._merge_state()
        if held and documents:
            index = np.asarray(rows, dtype=np.int64)
            values = []
            for vector in held:
                column = vector.data[index].tolist()
                for row in np.flatnonzero(vector.null_mask[index]).tolist():
                    column[row] = None
                values.append(column)
            for row, document in enumerate(documents):
                if type(document) is dict:
                    _merge_object(document, trie, values, row)
        return documents

    def full_rows(self, rows: Sequence[int]) -> "RowHeap":
        """A heap of *rows*' complete JSONB (column values put back):
        the bytes the rows had before any value was left out."""
        return RowHeap.from_rows([jsonb_encode(document)
                                  for document in self.documents(rows)])

    def row_ids(self) -> np.ndarray:
        """Global row ids of the tuples in this tile."""
        return np.arange(self.first_row, self.first_row + self.row_count,
                         dtype=np.int64)

    def size_bytes(self, shared_strings: bool = False) -> int:
        """Footprint of the materialized columns, repeated ones included
        (the +Tiles overhead of Table 6; the JSONB rows are accounted
        separately).  See :meth:`ColumnVector.nbytes` for the
        shared-strings mode."""
        return sum(column.nbytes(shared_strings)
                   for column in self.columns.values()) + sum(
            column.nbytes() for column in self.repeated)

    def jsonb_size_bytes(self) -> int:
        """The JSONB bytes of the complete rows — Table 6's ``jsonb``,
        which the tiles are stored in addition to in the paper (the
        heap itself holds fewer: ``heap.payload_bytes()``)."""
        if not self._merge_state()[3]:
            return self.heap.payload_bytes()
        full = self.full_rows(range(len(self.heap)))
        return full.payload_bytes()
