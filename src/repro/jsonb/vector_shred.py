"""Vectorized multi-path shredding over a tile's row heap (DESIGN.md §5d).

:func:`repro.jsonb.shred.shred_jsonb` walks one document at a time in
Python.  A tile keeps its documents in one buffer (the row heap,
``repro.tiles.tile.RowHeap``), and the JSONB layout of Section 5.1 —
sorted offset table, contiguous depth-first slots — lets numpy walk
*every* selected row of that buffer at once.  This module runs the
same compiled :class:`~repro.jsonb.shred.ShredPlan` that way:

* :func:`locate` gives, per plan slot, each row's value position and
  value end (``-1`` when the path is absent), with ``shred_jsonb``'s
  semantics.  An object step probes, in all rows at once, the slot the
  key was last found in (``TrieNode.obj_hints``): rows repeat shapes,
  so one key compare settles most rows holding the key.  The rows it
  misses are settled by one equality pass over all their slots (any
  offset width, compact counts and key lengths).  Given the tile
  header's per-row presence, both search only the rows that hold the
  key.  An array step reads one offset.  A value ends where the next
  slot of its container starts, or where its container ends.
* :func:`typed_column` turns the positions into the column that
  ``ColumnBuilder`` builds from the scan's typed getters, decoding the
  common encodings (integers, floats, strings, literals, JSON null) in
  numpy and handing every other value to the getter.
* :func:`length_kernel` / :func:`contains_kernel` are the ``json_length``
  / ``json_contains`` probes over the same positions; a string needle
  is compared against all array elements of all rows at once.
* :func:`array_members` reads one member of every element of the
  arrays at the positions: the input of a repeated column
  (``repro.tiles.repeated``).

Every read clips at the heap's last byte instead of padding the heap
(padding would copy it): clipped bytes are never part of a result.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.jsonb import format as fmt
from repro.jsonb.access import JsonbValue, contains_probe, text_as_int
from repro.jsonb.shred import ShredPlan, TrieNode
from repro.storage.column import (ColumnBuilder, ColumnVector, fits_int64,
                                  null_vector)

_WIDTHS = np.array(fmt.OFFSET_WIDTHS, dtype=np.int64)
#: payload width of the compact-uint markers 251..255 (254 and 255 are
#: never written)
_COMPACT_WIDTHS = np.array([2, 4, 8, 8, 8], dtype=np.int64)
_NULL_HEADER = fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_NULL)
#: per INT header byte (info 0-15; the other bytes never index these):
#: the offset from the header of the word ending at the value's last
#: byte (the header itself for an inline value), the arithmetic shift
#: that brings those bytes down from the word's top, and what to
#: subtract after (an inline value's type bits)
def _int_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    last, shifts, bias = (np.zeros(256, dtype=np.int64) for _ in range(3))
    for info in range(16):
        nbytes = max(0, info - fmt.MAX_INLINE_INT)
        header = fmt.make_header(fmt.TYPE_INT, info)
        last[header] = nbytes - 7
        shifts[header] = 64 - 8 * nbytes if nbytes else 56
        bias[header] = 0 if nbytes else fmt.TYPE_INT << 5
    return last, shifts, bias


_INT_LAST_WORD, _INT_SHIFTS, _INT_BIAS = _int_tables()
#: targets an INT value decodes to in numpy
_INT_TARGETS = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL,
                ColumnType.TIMESTAMP, ColumnType.BOOL, ColumnType.STRING)
#: cells of one (rows x key bytes) comparison block
_GATHER_CELLS = 1 << 16

#: ``kernel(view, pos, end, before, after) -> ColumnVector``: the column
#: of one request over located values, with *before* / *after* NULL
#: rows around them
Kernel = Callable[["HeapView", np.ndarray, np.ndarray, int, int],
                  ColumnVector]


def _rows(mask: np.ndarray) -> np.ndarray:
    """The indices of the true entries of a 1-D mask
    (``np.flatnonzero`` without its Python-level ``ravel``)."""
    return mask.nonzero()[0]


class HeapView:
    """A zero-copy ``uint8`` view of a row heap (``RowHeap.buf``) plus
    clipped reads, and ``words``: the heap's 8-byte little-endian words
    at *every* byte offset (an unaligned ``int64`` view, no copy).  No
    value of a heap ends before its byte 8 (the row count and the first
    length prefix come first), so the word *ending* at a value's last
    byte always exists and carries the value's bytes at its top."""

    __slots__ = ("buf", "data", "words")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.data = np.frombuffer(buf, dtype=np.uint8)
        self.words = self.every("<i8")

    def every(self, code: str) -> np.ndarray:
        """The buffer's values of numpy type *code* starting at every
        byte offset (an unaligned view)."""
        size = np.dtype(code).itemsize
        return np.ndarray((max(0, len(self.buf) - size + 1),), dtype=code,
                          buffer=self.buf, strides=(1,))

    def byte(self, pos: np.ndarray) -> np.ndarray:
        return self.data.take(pos, mode="clip")

    def window(self, pos: np.ndarray, size: int) -> np.ndarray:
        """The *size* bytes at each of *pos*: a ``(len(pos), size)``
        array gathered from a strided view of the buffer (no index
        matrix); bytes past the end read as the last byte."""
        data = self.data
        last = len(data) - size
        if last < 0:
            return self.byte(pos[:, None] + np.arange(size))
        windows = np.ndarray((last + 1, size), dtype=np.uint8,
                             buffer=self.buf, strides=(1, 1))
        out = windows[np.minimum(pos, last)]
        over = _rows(pos > last)
        if over.size:
            out[over] = self.byte(pos[over, None] + np.arange(size))
        return out

    def matches(self, pos: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Which of the ``len(target)``-byte strings at *pos* (inside
        the heap, at byte 8 or later) are the bytes *target*: one
        8-byte word compare up to 8 bytes (the word ending at the
        string's last byte, shifted down), two up to 16 (its first and
        last words), a byte gather beyond."""
        size = len(target)
        if size == 0:
            return np.ones(len(pos), dtype=bool)
        if size > 16:
            out = np.zeros(len(pos), dtype=bool)
            step = max(1, _GATHER_CELLS // size)
            for lo in range(0, len(pos), step):
                out[lo:lo + step] = (self.window(pos[lo:lo + step], size)
                                     == target).all(axis=1)
            return out
        tail = self.words[pos + (size - 8)].view(np.uint64)
        if size < 8:
            expected = np.uint64(int.from_bytes(target.tobytes(), "little"))
            return tail >> np.uint64(64 - 8 * size) == expected
        last = np.frombuffer(target[-8:].tobytes(), dtype="<u8")[0]
        first = np.frombuffer(target[:8].tobytes(), dtype="<i8")[0]
        return (tail == last) & (self.words[pos] == first)

    def uint(self, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
        """The little-endian unsigned integers of *width* (1..8, per
        element) bytes at *pos* (at byte 8 or later), as ``uint64``:
        the word ending at each integer's last byte, shifted down."""
        if not len(pos) or int(width.max()) == 1:
            return self.byte(pos).astype(np.uint64)
        top = self.words[pos + width - 8].view(np.uint64)
        return top >> (64 - 8 * width).astype(np.uint64)

    def offsets(self, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
        return self.uint(pos, width).astype(np.int64)

    def compact(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compact unsigned integers at *pos*: ``(value, next_pos)``."""
        value = self.byte(pos).astype(np.int64)
        following = pos + 1
        big = _rows(value > 250)
        if big.size:
            width = _COMPACT_WIDTHS[value[big] - 251]
            value[big] = self.offsets(pos[big] + 1, width)
            following[big] += width
        return value, following


class _Containers:
    """The header fields of a set of objects or arrays."""

    __slots__ = ("width", "count", "table", "slots")

    def __init__(self, view: HeapView, pos: np.ndarray, header: np.ndarray):
        self.width = _WIDTHS[header & 0x3]
        self.count, self.table = view.compact(pos + 1)
        self.slots = self.table + self.count * self.width

    def slot(self, view: HeapView, index: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
        """Position of slot ``index[i]`` of container ``rows[i]``."""
        width = self.width[rows]
        return self.slots[rows] + view.offsets(
            self.table[rows] + index * width, width)

    def value_end(self, view: HeapView, rows: np.ndarray, index: np.ndarray,
                  parent_end: np.ndarray) -> np.ndarray:
        """End of the value in slot *index* of *rows*: where the next
        slot starts, or where the container ends."""
        end = parent_end.copy()
        inner = _rows(index + 1 < self.count[rows])
        if inner.size:
            end[inner] = self.slot(view, index[inner] + 1, rows[inner])
        return end


def _equals(view: HeapView, key_pos: np.ndarray, key_len: np.ndarray,
            target: np.ndarray) -> np.ndarray:
    """Which candidate keys ``[key_pos, key_pos + key_len)`` are the
    bytes *target*: a length test, then one comparison of the
    candidates of the right length."""
    equal = key_len == len(target)
    same = _rows(equal)
    if same.size:
        equal[same] = view.matches(key_pos[same], target)
    return equal


def _find(view: HeapView, objects: _Containers, target: np.ndarray,
          hints: List[Tuple[bool, int]], item: int,
          held: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Find the key *target* among every object's slots.

    Returns ``(index, value_pos)``: the member's slot index and value
    position, ``-1`` as the position when the key is absent.  *held*
    (``bool`` per object, from the tile header's per-row presence)
    marks the objects that may hold the key; the others stay ``-1``
    without a compare.  The first
    probe is at the hint ``hints[item]``; rows repeat shapes, so it
    settles most objects holding the key.  The others are settled by
    one equality pass over all their slots (object keys are unique, so
    an object has at most one hit).  When that pass finds a key, the
    hint is reset to the most common index found, counted from the
    object's first or last slot, whichever repeats more often: optional
    members on one side of the key shift its position from that side
    only."""
    count = objects.count
    value_pos = np.full(len(count), -1, dtype=np.int64)
    index = np.zeros(len(count), dtype=np.int64)
    rows = _rows(count > 0 if held is None else held & (count > 0))
    if not rows.size:
        return index, value_pos
    from_end, hint = hints[item]
    seed = count[rows] - hint if from_end else np.full(rows.size, hint)
    seed = np.minimum(np.maximum(seed, 0), count[rows] - 1)
    key_len, key_pos = view.compact(objects.slot(view, seed, rows))
    equal = _equals(view, key_pos, key_len, target)
    hit = rows[equal]
    value_pos[hit] = key_pos[equal] + key_len[equal]
    index[hit] = seed[equal]
    missed = rows[~equal]
    if not missed.size:
        return index, value_pos  # the hint found every key: keep it
    sizes = count[missed]
    owner = np.repeat(missed, sizes)
    slot = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    key_len, key_pos = view.compact(objects.slot(view, slot, owner))
    equal = _equals(view, key_pos, key_len, target)
    if not equal.any():
        return index, value_pos  # nowhere else: the hint stays as good
    found = owner[equal]
    value_pos[found] = key_pos[equal] + key_len[equal]
    index[found] = slot[equal]
    present = value_pos >= 0
    forward = np.bincount(index[present])
    backward = np.bincount(count[present] - index[present])
    hints[item] = (False, int(forward.argmax())) \
        if forward.max() >= backward.max() \
        else (True, int(backward.argmax()))
    return index, value_pos


def locate(plan: ShredPlan, view: HeapView, starts: np.ndarray,
           ends: np.ndarray,
           rows_of: Optional[Callable[[KeyPath], np.ndarray]] = None,
           run: Optional[np.ndarray] = None
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Shred the documents ``[starts[i], ends[i])`` of *view* for every
    path of *plan*: ``(pos, end)``, each of shape ``(len(plan), rows)``,
    the value's position and end per slot and row, ``-1`` when absent
    (where ``shred_jsonb`` answers ``None``).

    *rows_of* (the tile header's :meth:`~repro.tiles.header.TileHeader.rows_of`)
    with *run* (the tile rows of the documents) guides every object
    step: only the rows holding the key are searched for it.  Presence
    never under-reports a row, so the positions are the same without
    it."""
    shape = (len(plan), len(starts))
    pos = np.full(shape, -1, dtype=np.int64)
    end = np.full(shape, -1, dtype=np.int64)
    held = None if rows_of is None else \
        (lambda path: rows_of(path)[run])
    _walk(view, plan.root, np.arange(len(starts)),
          starts.astype(np.int64), ends.astype(np.int64), pos, end,
          KeyPath(), held)
    return pos, end


def _walk(view: HeapView, node: TrieNode, rows: np.ndarray,
          pos: np.ndarray, end: np.ndarray,
          out_pos: np.ndarray, out_end: np.ndarray, prefix: KeyPath,
          held: Optional[Callable[[KeyPath], np.ndarray]]) -> None:
    if node.terminal >= 0:
        out_pos[node.terminal, rows] = pos
        out_end[node.terminal, rows] = end
    if not rows.size or not (node.obj_items or node.arr_items):
        return
    header = view.byte(pos)
    kind = header >> 5
    if node.obj_items:
        on = _rows(kind == fmt.TYPE_OBJECT)
        if on.size:
            objects = _Containers(view, pos[on], header[on])
            for item, (key, child, _leaf) in enumerate(node.obj_items):
                path = prefix.child(node.obj_items_text[item][0])
                index, found = _find(view, objects,
                                     np.frombuffer(key, dtype=np.uint8),
                                     node.obj_hints, item,
                                     None if held is None
                                     else held(path)[rows[on]])
                hit = _rows(found >= 0)
                if hit.size:
                    _walk(view, child, rows[on[hit]], found[hit],
                          objects.value_end(view, hit, index[hit],
                                            end[on[hit]]),
                          out_pos, out_end, path, held)
    if node.arr_items:
        on = _rows(kind == fmt.TYPE_ARRAY)
        if on.size:
            arrays = _Containers(view, pos[on], header[on])
            for index, child, _leaf in node.arr_items:
                hit = _rows(arrays.count > index) if index >= 0 \
                    else np.zeros(0, dtype=np.int64)
                if hit.size:
                    at = np.full(hit.size, index, dtype=np.int64)
                    _walk(view, child, rows[on[hit]],
                          arrays.slot(view, at, hit),
                          arrays.value_end(view, hit, at, end[on[hit]]),
                          out_pos, out_end, prefix.child(index), held)


# ----------------------------------------------------------------------
# typed values

def _frame(target: ColumnType, before: int, count: int,
           after: int) -> Tuple[np.ndarray, np.ndarray]:
    """All-NULL ``(data, nulls)`` of ``before + count + after`` rows, as
    ``ColumnBuilder`` fills NULL rows."""
    vector = null_vector(target, before + count + after)
    return vector.data, vector.null_mask


def _ints(view: HeapView, pos: np.ndarray, header: np.ndarray) -> np.ndarray:
    """INT values (*header*: their header bytes), from the word ending
    at each value's last byte, arithmetically shifted down: 1-8
    sign-extended payload bytes, or the header byte itself for an
    inline value, less its type bits."""
    word = view.words[pos + _INT_LAST_WORD[header]]
    return (word >> _INT_SHIFTS[header]) - _INT_BIAS[header]


def _string_spans(view: HeapView, pos: np.ndarray,
                  info: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, length)`` of the payloads of STRING / NUMSTR values."""
    start = pos + 1
    length = info.astype(np.int64)
    long = _rows(info > fmt.MAX_INLINE_STRLEN)
    if long.size:
        width = _WIDTHS[info[long] - (fmt.MAX_INLINE_STRLEN + 1)]
        length[long] = view.offsets(pos[long] + 1, width)
        start[long] += width
    return start, length


#: decode classes of a (header byte, target) pair in :func:`typed_column`
(_NULL, _INT, _FLOAT2, _FLOAT4, _FLOAT8, _TEXT, _NUMTEXT, _BOOL,
 _OTHER) = range(9)
#: targets a numeric string (NUMSTR) decodes to from its text
_NUMTEXT_TARGETS = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL)


def _class_table(target: ColumnType) -> np.ndarray:
    """The decode class of every header byte for *target*."""
    table = np.full(256, _OTHER, dtype=np.int64)
    for header in range(256):
        kind, info = header >> 5, header & 0x1F
        if header == _NULL_HEADER:
            table[header] = _NULL
        elif kind == fmt.TYPE_INT and info <= 15 and target in _INT_TARGETS:
            table[header] = _INT
        elif kind == fmt.TYPE_FLOAT and target in (ColumnType.FLOAT64,
                                                   ColumnType.DECIMAL):
            table[header] = {2: _FLOAT2, 4: _FLOAT4, 8: _FLOAT8}.get(
                info, _OTHER)
        elif kind in (fmt.TYPE_STRING, fmt.TYPE_NUMSTR) \
                and target == ColumnType.STRING:
            table[header] = _TEXT
        elif kind == fmt.TYPE_NUMSTR and target in _NUMTEXT_TARGETS:
            table[header] = _NUMTEXT
        elif kind == fmt.TYPE_LITERAL and target == ColumnType.BOOL \
                and info in (fmt.LITERAL_TRUE, fmt.LITERAL_FALSE):
            table[header] = _BOOL
    return table


_CLASSES = {target: _class_table(target) for target in ColumnType}
_FLOAT_READS = {_FLOAT2: "<f2", _FLOAT4: "<f4", _FLOAT8: "<f8"}


def typed_column(target: ColumnType, getter: Callable[[JsonbValue], object],
                 view: HeapView, pos: np.ndarray, end: np.ndarray,
                 before: int = 0, after: int = 0) -> ColumnVector:
    """The column a ``ColumnBuilder(target)`` finishes to after
    *before* NULLs, ``getter(JsonbValue(buf, p))`` for every located
    position (NULL where ``p < 0``) and *after* NULLs: one row of
    :func:`typed_columns`."""
    return typed_columns(target, getter, view, pos[None, :],
                         before, after)[0]


def typed_columns(target: ColumnType, getter: Callable[[JsonbValue], object],
                  view: HeapView, pos: np.ndarray, before: int = 0,
                  after: int = 0) -> List[ColumnVector]:
    """:func:`typed_column` of every row of the position matrix *pos*
    (one row per request of the same target and getter), decoded in
    one pass: a fallback group's requests share the fixed numpy cost.

    Integers (to INT64 / FLOAT64 / DECIMAL / TIMESTAMP / BOOL, and to
    STRING as their decimal text), floats (to FLOAT64 / DECIMAL),
    strings and numeric strings (to STRING), numeric strings' text (to
    INT64 / FLOAT64 / DECIMAL, by the getters' rule), true / false (to
    BOOL) and JSON null (NULL for every target) are decoded here, one
    numpy pass per encoding present; every other (encoding, target) pair calls
    *getter*, under the builder's NULL-on-uncoercible rule.  A JSONB
    target builds its Python values through the builder as the row
    walk does."""
    buf = view.buf
    requests, count = pos.shape
    size = before + count + after
    if target == ColumnType.JSONB:
        columns = []
        for row in pos.tolist():
            builder = ColumnBuilder(target)
            builder.extend_nulls(before)
            for value_pos in row:
                builder.append(None if value_pos < 0
                               else getter(JsonbValue(buf, value_pos)))
            builder.extend_nulls(after)
            columns.append(builder.finish())
        return columns
    data, nulls = _frame(target, 0, requests * size, 0)
    flat = pos.ravel()
    present = (flat >= 0).nonzero()[0]
    if present.size:
        # row r, column c of *pos* lands at r * size + before + c
        where = present + before
        if requests > 1 and before + after:
            where += present // count * (before + after)
        _decode(target, getter, view, flat[present], where, data, nulls)
    return [ColumnVector(target, data[index * size:(index + 1) * size],
                         nulls[index * size:(index + 1) * size])
            for index in range(requests)]


def _decode(target: ColumnType, getter: Callable[[JsonbValue], object],
            view: HeapView, at: np.ndarray, where: np.ndarray,
            data: np.ndarray, nulls: np.ndarray) -> None:
    """Decode the values at positions *at* into ``data[where]`` and
    clear ``nulls[where]`` (left set for JSON null and uncoercible
    values)."""
    buf = view.buf
    header = view.data[at]
    classes = _CLASSES[target][header]
    counts = np.bincount(classes, minlength=_OTHER + 1)
    for kind in counts.nonzero()[0].tolist():
        if kind == _NULL:
            continue  # JSON null is NULL for every target
        if counts[kind] == len(at):
            rows, into, headers = at, where, header
        else:
            chosen = (classes == kind).nonzero()[0]
            rows, into, headers = at[chosen], where[chosen], header[chosen]
        if kind == _OTHER:
            builder = ColumnBuilder(target)
            for value_pos in rows.tolist():
                builder.append(getter(JsonbValue(buf, value_pos)))
            generic = builder.finish()
            data[into] = generic.data
            nulls[into] = generic.null_mask
            continue
        if kind == _INT:
            values = _ints(view, rows, headers)
            if target == ColumnType.BOOL:
                values = values != 0
            elif target == ColumnType.STRING:
                # ``->>`` on an integer is its decimal text
                values = list(map(str, values.tolist()))
        elif kind in _FLOAT_READS:
            values = view.every(_FLOAT_READS[kind])[rows + 1]
        elif kind == _TEXT or kind == _NUMTEXT:
            start, length = _string_spans(view, rows, headers & 0x1F)
            values = [buf[first:first + size].decode("utf-8")
                      for first, size in zip(start.tolist(),
                                             length.tolist())]
            if kind == _NUMTEXT:
                # the getters' rule for a numeric string's text
                if target != ColumnType.INT64:
                    values = list(map(float, values))
                else:
                    values = [text_as_int(text, True) for text in values]
                    held = [value is not None and fits_int64(value)
                            for value in values]
                    if not all(held):
                        into = into[np.array(held, dtype=bool)]
                        values = [value for value, ok in zip(values, held)
                                  if ok]
        else:  # _BOOL
            values = headers == fmt.make_header(fmt.TYPE_LITERAL,
                                                fmt.LITERAL_TRUE)
        data[into] = values
        nulls[into] = False


# ----------------------------------------------------------------------
# probes

def length_kernel() -> Kernel:
    """``json_length``: the element count of objects and arrays, read
    from their headers; NULL for everything else."""

    def column(view: HeapView, pos: np.ndarray, end: np.ndarray,
               before: int, after: int) -> ColumnVector:
        data, nulls = _frame(ColumnType.INT64, before, len(pos), after)
        present = _rows(pos >= 0)
        kind = view.byte(pos[present]) >> 5
        rows = _rows((kind == fmt.TYPE_OBJECT) | (kind == fmt.TYPE_ARRAY))
        if rows.size:
            where = present[rows] + before
            data[where] = view.compact(pos[present[rows]] + 1)[0]
            nulls[where] = False
        return ColumnVector(ColumnType.INT64, data, nulls)

    return column


def _elements(view: HeapView, arrays: _Containers
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Every element of *arrays*, in order: ``(owner, position)``, the
    index of its array and its value position."""
    count = arrays.count
    owner = np.repeat(np.arange(len(count)), count)
    index = np.arange(owner.size) - np.repeat(np.cumsum(count) - count,
                                              count)
    return owner, arrays.slot(view, index, owner)


def _members(view: HeapView, elements: np.ndarray, target: np.ndarray,
             hints: List[Tuple[bool, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """The member *target* of the object elements at *elements*:
    ``(objects, found)``, the indices of the object elements and, per
    object, the member's value position (``-1`` when it lacks it)."""
    objects = _rows(view.byte(elements) >> 5 == fmt.TYPE_OBJECT)
    if not objects.size:
        return objects, objects
    return objects, _find(view, _Containers(view, elements[objects],
                                            view.byte(elements[objects])),
                          target, hints, 0)[1]


def array_members(view: HeapView, pos: np.ndarray, key: str
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The member *key* of every element of the arrays at *pos* (``-1``:
    absent), the input of a repeated column (``repro.tiles.repeated``).

    Returns ``(lengths, start, size)``.  *lengths* has one entry per
    position: the element count of an array, ``-1`` where the value is
    absent and ``-2`` for any other value.  *start* / *size* have one
    entry per array element, arrays in order: the UTF-8 payload of a
    STRING or NUMSTR member, ``size`` ``-1`` where the element is no
    object, lacks the member or holds another type."""
    lengths = np.full(len(pos), -1, dtype=np.int64)
    present = _rows(pos >= 0)
    at = pos[present]
    header = view.byte(at)
    lengths[present] = -2
    on = _rows(header >> 5 == fmt.TYPE_ARRAY)
    if not on.size:
        empty = np.zeros(0, dtype=np.int64)
        return lengths, empty, empty
    arrays = _Containers(view, at[on], header[on])
    lengths[present[on]] = arrays.count
    _owner, elements = _elements(view, arrays)
    start = np.zeros(len(elements), dtype=np.int64)
    size = np.full(len(elements), -1, dtype=np.int64)
    objects, found = _members(view, elements,
                              np.frombuffer(key.encode("utf-8"), np.uint8),
                              [(False, 0)])
    hit = _rows(found >= 0)
    member = found[hit]
    kind = view.byte(member) >> 5
    text = _rows((kind == fmt.TYPE_STRING) | (kind == fmt.TYPE_NUMSTR))
    if text.size:
        where = objects[hit[text]]
        start[where], size[where] = _string_spans(
            view, member[text], view.byte(member[text]) & 0x1F)
    return lengths, start, size


def _string_equals(view: HeapView, pos: np.ndarray,
                   needle: np.ndarray) -> np.ndarray:
    """Which values at *pos* are STRING / NUMSTR with payload *needle*."""
    header = view.byte(pos)
    kind = header >> 5
    out = np.zeros(len(pos), dtype=bool)
    text = _rows((kind == fmt.TYPE_STRING) | (kind == fmt.TYPE_NUMSTR))
    if not text.size:
        return out
    start, length = _string_spans(view, pos[text], header[text] & 0x1F)
    same = _rows(length == len(needle))
    out[text[same[view.matches(start[same], needle)]]] = True
    return out


def contains_kernel(key: object, value: object) -> Kernel:
    """``json_contains(array, key, value)`` (see
    :func:`repro.jsonb.access.contains_probe`).  A string needle with
    an empty or string *key* is answered for all rows at once: every
    array's elements are expanded with ``np.repeat``, object elements
    are searched for the member *key* like any object step, and the
    compared values' lengths and bytes are matched against the needle.
    Other needles run the scalar probe on each value, bounded by the
    value's end."""
    scalar = contains_probe(key, value)
    member = key.encode("utf-8") if key and isinstance(key, str) else None
    vectorized = isinstance(value, str) and (not key or member is not None)
    needle = np.frombuffer(value.encode("utf-8"), dtype=np.uint8) \
        if vectorized else None
    target = None if member is None else np.frombuffer(member, np.uint8)
    hints = [(False, 0)]

    def column(view: HeapView, pos: np.ndarray, end: np.ndarray,
               before: int, after: int) -> ColumnVector:
        data, nulls = _frame(ColumnType.BOOL, before, len(pos), after)
        present = _rows(pos >= 0)
        at = pos[present]
        if not vectorized:
            builder = ColumnBuilder(ColumnType.BOOL)
            for value_pos, value_end in zip(at.tolist(),
                                            end[present].tolist()):
                builder.append(scalar(JsonbValue(view.buf, value_pos),
                                      value_end))
            answers = builder.finish()
            data[present + before] = answers.data
            nulls[present + before] = answers.null_mask
            return ColumnVector(ColumnType.BOOL, data, nulls)
        header = view.byte(at)
        # JSON null answers NULL, any other non-array FALSE
        nulls[present[header != _NULL_HEADER] + before] = False
        on = _rows(header >> 5 == fmt.TYPE_ARRAY)
        if not on.size:
            return ColumnVector(ColumnType.BOOL, data, nulls)
        owner, elements = _elements(view, _Containers(view, at[on],
                                                      header[on]))
        if target is not None:
            objects, found = _members(view, elements, target, hints)
            owner = owner[objects[found >= 0]]
            elements = found[found >= 0]
        hit = np.zeros(on.size, dtype=bool)
        hit[owner[_string_equals(view, elements, needle)]] = True
        data[present[on] + before] = hit
        return ColumnVector(ColumnType.BOOL, data, nulls)

    return column
