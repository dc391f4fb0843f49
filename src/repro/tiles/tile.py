"""The tile: a chunk of tuples with materialized columns + JSONB rows.

A tile owns its slice of binary JSON documents (the always-correct
fallback representation) and, when the storage format extracts, one
:class:`~repro.storage.column.ColumnVector` per materialized key path.
Scans stream the vectors; accesses to non-extracted paths (or to
type-conflicting NULL slots) traverse the JSONB bytes.

The JSONB rows live in one immutable :class:`RowHeap` per tile
(DESIGN.md §5e): the bytes of the ``.jtile`` ``row_heap`` blob, so a
checkpoint writes the heap as it is and a load keeps the blob it read,
plus the start and end of every row.  The fallback scan navigates all
selected rows of a tile in that one buffer (``repro.jsonb.vector_shred``).
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.jsonb.vector_shred import HeapView
from repro.storage.column import ColumnVector
from repro.tiles.header import TileHeader
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
    __slots__ = ("header", "columns", "heap", "first_row", "uid", "repeated")

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
        return self.heap.payload_bytes()
