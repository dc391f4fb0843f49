"""Repeated dictionary-coded columns for arrays of objects (DESIGN.md §5h).

Plain extraction reaches an array only through its leading slots
(``chain[0].key`` … ``chain[max_array_elements - 1].key``, Section
3.5), so ``json_contains`` / ``json_length`` and every slot past the
extracted ones walk the JSONB.  The paper hands such arrays to Tiles-*
child relations; this module keeps them inside the tile instead, with
the Dremel-style repetition of "Columnar Formats for Schemaless
LSM-based Document Stores": when mining would extract STRING slot
columns ``chain[k].key``, the tile stores one :class:`RepeatedColumn`
``chain[*].key`` in their place.  It covers every element of every
row, with no cap:

* ``values``: the sorted distinct STRING / NUMSTR payloads of the
  member *key* in the tile, decoded;
* ``codes``: one ``u8`` / ``u16`` (``u32`` past 65,535 values) code per
  array element, indexing ``values``; :attr:`RepeatedColumn.sentinel`
  (the code type's maximum) where the element is no object, lacks the
  member or holds another type;
* ``lengths``: per row, the element count of the row's array,
  :data:`ABSENT` when the row lacks ``chain`` and :data:`OTHER` when
  ``chain`` holds anything but an array (those rows keep the JSONB
  path); ``offsets`` is their running sum.

A column is built from the tile's row heap by the
``repro.jsonb.vector_shred`` kernels, concatenated by ``extend_tile``
(:meth:`RepeatedColumn.concat` equals a rebuild over both heaps, so it
is associative) and persisted as one ``.jtile`` blob
(:meth:`RepeatedColumn.to_blob`).  The scan answers from it (DESIGN.md
§5h): ``json_contains(chain, key, '<string>')`` is one dictionary
lookup plus ``codes == c`` reduced per row, ``json_length(chain)`` the
row lengths, and a read of ``chain[k].key`` a gather of the codes.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.jsonb.shred import compile_paths
from repro.jsonb.vector_shred import array_members, locate
from repro.storage.column import ColumnVector

#: ``lengths`` of a row without ``chain``
ABSENT = -1
#: ``lengths`` of a row whose ``chain`` holds no array (JSON null, an
#: object, a scalar): the JSONB answers for it
OTHER = -2


def repeated_slot(path: KeyPath) -> Optional[Tuple[KeyPath, int, str]]:
    """``(chain, k, key)`` when *path* is a slot path ``chain[k].key``
    (``chain`` a non-empty run of object keys, ``k >= 0``), else
    ``None``."""
    steps = path.steps
    if len(steps) < 3:
        return None
    *chain, slot, key = steps
    if not isinstance(slot, int) or slot < 0 or not isinstance(key, str) \
            or not all(isinstance(step, str) for step in chain):
        return None
    return KeyPath(tuple(chain)), slot, key


def code_type(distinct: int) -> np.dtype:
    """The narrowest unsigned code type whose maximum (the sentinel)
    is no value's code."""
    for code in (np.uint8, np.uint16, np.uint32):
        if distinct <= np.iinfo(code).max:
            return np.dtype(code)
    raise ValueError(f"{distinct} distinct values exceed a u32 code")


def pack_dictionary(values: Sequence[bytes]) -> bytes:
    """A dictionary as stored: ``u32`` byte lengths, then the bytes."""
    sizes = np.array([len(value) for value in values], dtype="<u4")
    return b"".join([sizes.tobytes(), *values])


def unpack_dictionary(blob: bytes, count: int) -> Tuple[List[bytes], int]:
    """The *count* values :func:`pack_dictionary` wrote at the start of
    *blob*, and the position past them."""
    pos = 4 * count
    values = []
    for size in np.frombuffer(blob[:pos], dtype="<u4").tolist():
        values.append(blob[pos:pos + size])
        pos += size
    return values, pos


def _length_type(lengths: np.ndarray) -> np.dtype:
    """The narrowest signed type holding every row length."""
    top = int(lengths.max()) if len(lengths) else 0
    for code in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(code).max:
            return np.dtype(code)
    return np.dtype(np.int64)


class RepeatedColumn:
    """One ``chain[*].key`` column of a tile (see the module docstring).
    Immutable: updates and appends build a new one."""

    __slots__ = ("chain", "key", "values", "codes", "lengths", "offsets")

    def __init__(self, chain: KeyPath, key: str, values: Sequence[str],
                 codes: np.ndarray, lengths: np.ndarray):
        self.chain = chain
        self.key = key
        self.values: Tuple[str, ...] = tuple(values)
        self.codes = codes
        self.lengths = lengths
        self.offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.maximum(lengths, 0), out=self.offsets[1:])

    @property
    def sentinel(self) -> int:
        """The code of an element whose member is no string."""
        return int(np.iinfo(self.codes.dtype).max)

    # ------------------------------------------------------------------
    # build

    @classmethod
    def build(cls, heap, chain: KeyPath, key: str,
              column: Optional[ColumnVector] = None) -> "RepeatedColumn":
        """The column of every row of *heap* (a tile's ``RowHeap``):
        ``chain`` located in all rows at once, the member *key* of every
        element searched like any object step, payloads factorized.
        *column* is the tile's extracted column over ``chain``, if any:
        a row the heap lacks ``chain`` in but that column holds a value
        for holds a scalar there (the rows leave out what a column
        holds), so it is :data:`OTHER`, not :data:`ABSENT`."""
        view = heap.view()
        pos, _end = locate(compile_paths((chain,)), view, heap.starts,
                           heap.ends)
        lengths, start, size = array_members(view, pos[0], key)
        if column is not None:
            lengths[(lengths == ABSENT) & ~column.null_mask] = OTHER
        strings = (size >= 0).nonzero()[0]
        buf = heap.buf
        payloads = [buf[first:first + count] for first, count
                    in zip(start[strings].tolist(), size[strings].tolist())]
        # UTF-8 byte order is code point order: the decoded values stay
        # sorted
        distinct = sorted(set(payloads))
        codes_type = code_type(len(distinct))
        codes = np.full(len(size), np.iinfo(codes_type).max,
                        dtype=codes_type)
        if payloads:
            index = {payload: code for code, payload in enumerate(distinct)}
            codes[strings] = [index[payload] for payload in payloads]
        return cls(chain, key, [payload.decode("utf-8")
                                for payload in distinct], codes, lengths)

    def concat(self, other: "RepeatedColumn") -> "RepeatedColumn":
        """This column's rows followed by *other*'s: the union
        dictionary and both code runs re-coded into it — the column a
        build over both heaps produces."""
        values = sorted(set(self.values).union(other.values))
        index = {value: code for code, value in enumerate(values)}
        codes_type = code_type(len(values))
        codes = []
        for part in (self, other):
            # each part's codes re-coded into the union, its sentinel
            # (the only code past its values) into the new sentinel
            remap = np.array([index[value] for value in part.values]
                             + [np.iinfo(codes_type).max], dtype=codes_type)
            codes.append(remap[np.minimum(part.codes, len(part.values))])
        return RepeatedColumn(self.chain, self.key, values,
                              np.concatenate(codes),
                              np.concatenate([self.lengths, other.lengths]))

    # ------------------------------------------------------------------
    # scan answers over rows [start, stop)

    def others(self, start: int, stop: int) -> np.ndarray:
        """``bool`` rows of the slice whose ``chain`` holds no array:
        the scan answers them from the JSONB."""
        return self.lengths[start:stop] == OTHER

    def contains(self, needle: str, start: int, stop: int) -> ColumnVector:
        """``json_contains(chain, key, needle)`` for the array rows of the
        slice (NULL elsewhere): TRUE where an element's member is the
        string *needle*."""
        data = np.zeros(stop - start, dtype=bool)
        index = bisect.bisect_left(self.values, needle)
        if index < len(self.values) and self.values[index] == needle:
            lo, hi = self.offsets[start], self.offsets[stop]
            hits = (self.codes[lo:hi] == index).nonzero()[0] + lo
            # an element's row: the last one whose offset is not past it
            data[np.searchsorted(self.offsets, hits, side="right")
                 - 1 - start] = True
        return ColumnVector(ColumnType.BOOL, data,
                            self.lengths[start:stop] < 0)

    def length(self, start: int, stop: int) -> ColumnVector:
        """``json_length(chain)`` for the array rows of the slice (NULL
        elsewhere)."""
        lengths = self.lengths[start:stop]
        arrays = lengths >= 0
        return ColumnVector(ColumnType.INT64,
                            np.where(arrays, lengths, 0).astype(np.int64),
                            ~arrays)

    def gather(self, slot: int, start: int, stop: int
               ) -> Tuple[ColumnVector, np.ndarray]:
        """``chain[slot].key`` over the slice as a STRING column, plus the
        ``bool`` rows whose element exists but whose code is the
        sentinel: only the JSONB knows their member (absent, JSON null
        or another type)."""
        lengths = self.lengths[start:stop]
        held = (lengths > slot).nonzero()[0]
        codes = self.codes[self.offsets[start:stop][held] + slot]
        strings = codes != self.sentinel
        data = np.empty(stop - start, dtype=object)
        nulls = np.ones(stop - start, dtype=bool)
        if strings.any():
            values = np.array(self.values, dtype=object)
            rows = held[strings]
            data[rows] = values[codes[strings]]
            nulls[rows] = False
        unknown = np.zeros(stop - start, dtype=bool)
        unknown[held[~strings]] = True
        return ColumnVector(ColumnType.STRING, data, nulls), unknown

    # ------------------------------------------------------------------
    # size and persistence

    def nbytes(self) -> int:
        """In-memory footprint: codes, row lengths and offsets, and the
        dictionary."""
        return (self.codes.nbytes + self.lengths.nbytes + self.offsets.nbytes
                + sum(len(value.encode("utf-8")) + 4
                      for value in self.values))

    def to_blob(self) -> bytes:
        """The ``.jtile`` blob: the dictionary (``u32`` byte lengths, then
        the UTF-8 bytes), the codes, the row lengths — widths and counts
        go to the catalog entry (:meth:`meta`)."""
        width = _length_type(self.lengths).itemsize
        return b"".join([
            pack_dictionary([value.encode("utf-8") for value in self.values]),
            self.codes.astype(f"<u{self.codes.itemsize}").tobytes(),
            self.lengths.astype(f"<i{width}").tobytes()])

    def meta(self) -> dict:
        """The catalog entry beside :meth:`to_blob` (without the blob
        id)."""
        return {"chain": list(self.chain.steps), "key": self.key,
                "values": len(self.values), "elements": len(self.codes),
                "rows": len(self.lengths),
                "length_width": _length_type(self.lengths).itemsize}

    @classmethod
    def from_blob(cls, meta: dict, blob: bytes) -> "RepeatedColumn":
        count, elements, rows = meta["values"], meta["elements"], meta["rows"]
        values, pos = unpack_dictionary(blob, count)
        codes_type = code_type(count)
        end = pos + elements * codes_type.itemsize
        codes = np.frombuffer(blob[pos:end],
                              dtype=f"<u{codes_type.itemsize}")
        lengths = np.frombuffer(blob[end:],
                                dtype=f"<i{meta['length_width']}")
        if len(codes) != elements or len(lengths) != rows:
            raise ValueError(f"repeated column {meta['key']!r}: "
                             f"{len(blob)} blob bytes do not hold "
                             f"{elements} codes and {rows} rows")
        return cls(KeyPath(tuple(meta["chain"])), meta["key"],
                   [value.decode("utf-8") for value in values],
                   codes.astype(codes_type), lengths.astype(np.int64))
