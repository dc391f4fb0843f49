"""Vectorized multi-path shredding over a tile's row heap (DESIGN.md §5d).

:func:`repro.jsonb.shred.shred_jsonb` walks one document at a time in
Python.  A tile keeps its documents in one buffer (the row heap,
``repro.tiles.tile.RowHeap``), and the JSONB layout of Section 5.1 —
sorted offset table, contiguous depth-first slots — lets numpy walk
*every* selected row of that buffer at once.  This module runs the
same compiled :class:`~repro.jsonb.shred.ShredPlan` that way:

* :func:`locate` gives, per plan slot, each row's value position and
  value end (``-1`` when the path is absent), with ``shred_jsonb``'s
  semantics.  An object step is a vectorized binary search over the
  sorted offset tables of all rows (any offset width, compact counts
  and key lengths, byte-order keys).  Rows repeat shapes, so the
  search starts at the slot the key was last found in
  (``TrieNode.obj_hints``): one key compare settles most rows, two an
  absent key.  An array step reads one offset.  A value ends where the
  next slot of its container starts, or where its container ends.
* :func:`typed_column` turns the positions into the column that
  ``ColumnBuilder`` builds from the scan's typed getters, decoding the
  common encodings (integers, floats, strings, literals, JSON null) in
  numpy and handing every other value to the getter.
* :func:`length_kernel` / :func:`contains_kernel` are the ``json_length``
  / ``json_contains`` probes over the same positions; a string needle
  is compared against all array elements of all rows at once.

Every read clips at the heap's last byte instead of padding the heap
(padding would copy it): clipped bytes are never part of a result.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.core.types import ColumnType
from repro.jsonb import format as fmt
from repro.jsonb.access import JsonbValue, contains_probe
from repro.jsonb.shred import ShredPlan, TrieNode
from repro.storage.column import ColumnBuilder, ColumnVector, null_vector

_WIDTHS = np.array(fmt.OFFSET_WIDTHS, dtype=np.int64)
#: payload width of the compact-uint markers 251..255 (254 and 255 are
#: never written)
_COMPACT_WIDTHS = np.array([2, 4, 8, 8, 8], dtype=np.int64)
_NULL_HEADER = fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_NULL)
_FLOAT_CODES = ((2, "<f2"), (4, "<f4"), (8, "<f8"))
#: cells of one (rows x key bytes) comparison block
_GATHER_CELLS = 1 << 16

#: ``kernel(view, pos, end, before, after) -> ColumnVector``: the column
#: of one request over located values, with *before* / *after* NULL
#: rows around them
Kernel = Callable[["HeapView", np.ndarray, np.ndarray, int, int],
                  ColumnVector]


class HeapView:
    """A zero-copy ``uint8`` view of a buffer plus clipped reads."""

    __slots__ = ("buf", "data")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.data = np.frombuffer(buf, dtype=np.uint8)

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
        windows = np.lib.stride_tricks.as_strided(
            data, shape=(last + 1, size), strides=(1, 1), writeable=False)
        out = windows[np.minimum(pos, last)]
        over = np.flatnonzero(pos > last)
        if over.size:
            out[over] = self.byte(pos[over, None] + np.arange(size))
        return out

    def uint(self, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
        """The little-endian unsigned integers of *width* (1..8, per
        element) bytes at *pos*, as ``uint64``."""
        value = self.byte(pos).astype(np.uint64)
        top = int(width.max()) if len(width) else 1
        for k in range(1, top):
            wide = np.flatnonzero(width > k)
            value[wide] |= self.byte(pos[wide] + k).astype(np.uint64) \
                << np.uint64(8 * k)
        return value

    def offsets(self, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
        return self.uint(pos, width).astype(np.int64)

    def compact(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compact unsigned integers at *pos*: ``(value, next_pos)``."""
        value = self.byte(pos).astype(np.int64)
        following = pos + 1
        big = np.flatnonzero(value > 250)
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
        inner = np.flatnonzero(index + 1 < self.count[rows])
        if inner.size:
            end[inner] = self.slot(view, index[inner] + 1, rows[inner])
        return end


def _compare(view: HeapView, key_pos: np.ndarray, key_len: np.ndarray,
             target: np.ndarray) -> np.ndarray:
    """Sign of ``candidate - target`` in byte order for each candidate
    key ``[key_pos, key_pos + key_len)``."""
    size = len(target)
    out = np.sign(key_len - size)
    if size == 0 or len(key_pos) == 0:
        return out
    step = max(1, _GATHER_CELLS // size)
    for lo in range(0, len(key_pos), step):
        got = view.window(key_pos[lo:lo + step], size)
        differs = got != target
        # the first difference decides when it lies inside the
        # candidate; past its end, the common prefix is equal
        first = differs.argmax(axis=1)
        rows = np.flatnonzero(differs[np.arange(len(first)), first]
                              & (first < key_len[lo:lo + step]))
        if rows.size:
            at = first[rows]
            out[lo + rows] = np.where(got[rows, at] < target[at], -1, 1)
    return out


def _find(view: HeapView, objects: _Containers, target: np.ndarray,
          hints: List[Tuple[bool, int]],
          item: int) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-search every object's sorted slots for the key *target*.

    Returns ``(index, value_pos)``: the member's slot index and value
    position, or the insertion point and ``-1`` when the key is absent.
    The first probe is at the hint ``hints[item]``, the second at its
    neighbour on the side the first one pointed to, then the search
    halves.  The hint is then reset to the most common index found (or
    insertion point, when most objects lack the key), counted from the
    object's first or last slot, whichever repeats more often: optional
    members on one side of the key shift its position from that side
    only."""
    count = objects.count
    lo = np.zeros(len(count), dtype=np.int64)
    hi = count - 1
    value_pos = np.full(len(count), -1, dtype=np.int64)
    index = np.zeros(len(count), dtype=np.int64)
    active = np.flatnonzero(hi >= 0)
    from_end, hint = hints[item]
    last = None
    probe = 0
    while active.size:
        a_lo, a_hi = lo[active], hi[active]
        if probe == 0:
            seed = count[active] - hint if from_end else hint
            mid = np.minimum(np.maximum(seed, a_lo), a_hi)
        elif probe == 1:
            mid = np.where(last < 0, a_lo, a_hi)
        else:
            mid = (a_lo + a_hi) >> 1
        key_len, key_pos = view.compact(objects.slot(view, mid, active))
        cmp = _compare(view, key_pos, key_len, target)
        equal = cmp == 0
        if equal.any():
            hit = active[equal]
            value_pos[hit] = key_pos[equal] + key_len[equal]
            index[hit] = mid[equal]
        a_lo = np.where(cmp < 0, mid + 1, a_lo)
        a_hi = np.where(cmp > 0, mid - 1, a_hi)
        lo[active] = a_lo
        hi[active] = a_hi
        keep = ~equal & (a_lo <= a_hi)
        active = active[keep]
        last = cmp[keep]
        probe += 1
    absent = value_pos < 0
    index[absent] = lo[absent]
    pick = ~absent if 2 * np.count_nonzero(~absent) >= len(index) \
        else absent
    if pick.any():
        forward = np.bincount(index[pick])
        backward = np.bincount(count[pick] - index[pick])
        hints[item] = (False, int(forward.argmax())) \
            if forward.max() >= backward.max() \
            else (True, int(backward.argmax()))
    return index, value_pos


def locate(plan: ShredPlan, view: HeapView, starts: np.ndarray,
           ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shred the documents ``[starts[i], ends[i])`` of *view* for every
    path of *plan*: ``(pos, end)``, each of shape ``(len(plan), rows)``,
    the value's position and end per slot and row, ``-1`` when absent
    (where ``shred_jsonb`` answers ``None``)."""
    shape = (len(plan), len(starts))
    pos = np.full(shape, -1, dtype=np.int64)
    end = np.full(shape, -1, dtype=np.int64)
    _walk(view, plan.root, np.arange(len(starts)),
          starts.astype(np.int64), ends.astype(np.int64), pos, end)
    return pos, end


def _walk(view: HeapView, node: TrieNode, rows: np.ndarray,
          pos: np.ndarray, end: np.ndarray,
          out_pos: np.ndarray, out_end: np.ndarray) -> None:
    if node.terminal >= 0:
        out_pos[node.terminal, rows] = pos
        out_end[node.terminal, rows] = end
    if not rows.size or not (node.obj_items or node.arr_items):
        return
    header = view.byte(pos)
    kind = header >> 5
    if node.obj_items:
        on = np.flatnonzero(kind == fmt.TYPE_OBJECT)
        if on.size:
            objects = _Containers(view, pos[on], header[on])
            for item, (key, child, _leaf) in enumerate(node.obj_items):
                index, found = _find(view, objects,
                                     np.frombuffer(key, dtype=np.uint8),
                                     node.obj_hints, item)
                hit = np.flatnonzero(found >= 0)
                if hit.size:
                    _walk(view, child, rows[on[hit]], found[hit],
                          objects.value_end(view, hit, index[hit],
                                            end[on[hit]]),
                          out_pos, out_end)
    if node.arr_items:
        on = np.flatnonzero(kind == fmt.TYPE_ARRAY)
        if on.size:
            arrays = _Containers(view, pos[on], header[on])
            for index, child, _leaf in node.arr_items:
                hit = np.flatnonzero(arrays.count > index) if index >= 0 \
                    else np.zeros(0, dtype=np.int64)
                if hit.size:
                    at = np.full(hit.size, index, dtype=np.int64)
                    _walk(view, child, rows[on[hit]],
                          arrays.slot(view, at, hit),
                          arrays.value_end(view, hit, at, end[on[hit]]),
                          out_pos, out_end)


# ----------------------------------------------------------------------
# typed values

def _frame(target: ColumnType, before: int, count: int,
           after: int) -> Tuple[np.ndarray, np.ndarray]:
    """All-NULL ``(data, nulls)`` of ``before + count + after`` rows, as
    ``ColumnBuilder`` fills NULL rows."""
    vector = null_vector(target, before + count + after)
    return vector.data, vector.null_mask


def _ints(view: HeapView, pos: np.ndarray, info: np.ndarray) -> np.ndarray:
    """INT values: inline in the header, or 1-8 sign-extended bytes."""
    values = info.astype(np.int64)
    wide = np.flatnonzero(info > fmt.MAX_INLINE_INT)
    if wide.size:
        nbytes = values[wide] - fmt.MAX_INLINE_INT
        shift = (64 - 8 * nbytes).astype(np.uint64)
        raw = view.uint(pos[wide] + 1, nbytes) << shift
        values[wide] = raw.view(np.int64) >> shift.astype(np.int64)
    return values


def _string_spans(view: HeapView, pos: np.ndarray,
                  info: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, length)`` of the payloads of STRING / NUMSTR values."""
    start = pos + 1
    length = info.astype(np.int64)
    long = np.flatnonzero(info > fmt.MAX_INLINE_STRLEN)
    if long.size:
        width = _WIDTHS[info[long] - (fmt.MAX_INLINE_STRLEN + 1)]
        length[long] = view.offsets(pos[long] + 1, width)
        start[long] += width
    return start, length


def typed_column(target: ColumnType, getter: Callable[[JsonbValue], object],
                 view: HeapView, pos: np.ndarray, end: np.ndarray,
                 before: int = 0, after: int = 0) -> ColumnVector:
    """The column a ``ColumnBuilder(target)`` finishes to after
    *before* NULLs, ``getter(JsonbValue(buf, p))`` for every located
    position (NULL where ``p < 0``) and *after* NULLs.

    Integers (to INT64 / FLOAT64 / DECIMAL / TIMESTAMP / BOOL), floats
    (to FLOAT64 / DECIMAL), strings (to STRING), true / false (to BOOL)
    and JSON null (NULL for every target) are decoded here; every other
    (encoding, target) pair calls *getter*, under the builder's
    NULL-on-uncoercible rule.  A JSONB target builds its Python values
    through the builder as the row walk does."""
    buf = view.buf
    if target == ColumnType.JSONB:
        builder = ColumnBuilder(target)
        builder.extend_nulls(before)
        for value_pos in pos.tolist():
            builder.append(None if value_pos < 0
                           else getter(JsonbValue(buf, value_pos)))
        builder.extend_nulls(after)
        return builder.finish()
    data, nulls = _frame(target, before, len(pos), after)
    present = np.flatnonzero(pos >= 0)
    where = present + before
    at = pos[present]
    header = view.byte(at)
    kind = header >> 5
    info = header & 0x1F
    rest = header != _NULL_HEADER

    def fill(rows: np.ndarray, values) -> None:
        data[where[rows]] = values
        nulls[where[rows]] = False
        rest[rows] = False

    if target in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL,
                  ColumnType.TIMESTAMP, ColumnType.BOOL):
        rows = np.flatnonzero((kind == fmt.TYPE_INT) & (info <= 15))
        if rows.size:
            values = _ints(view, at[rows], info[rows])
            fill(rows, values != 0 if target == ColumnType.BOOL else values)
    if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
        for width, code in _FLOAT_CODES:
            rows = np.flatnonzero((kind == fmt.TYPE_FLOAT) & (info == width))
            if rows.size:
                raw = view.window(at[rows] + 1, width)
                fill(rows, raw.view(code).ravel())
    elif target == ColumnType.STRING:
        rows = np.flatnonzero(kind == fmt.TYPE_STRING)
        if rows.size:
            start, length = _string_spans(view, at[rows], info[rows])
            fill(rows, [buf[first:first + size].decode("utf-8")
                        for first, size in zip(start.tolist(),
                                               length.tolist())])
    elif target == ColumnType.BOOL:
        rows = np.flatnonzero((kind == fmt.TYPE_LITERAL)
                              & ((info == fmt.LITERAL_TRUE)
                                 | (info == fmt.LITERAL_FALSE)))
        if rows.size:
            fill(rows, info[rows] == fmt.LITERAL_TRUE)
    rows = np.flatnonzero(rest)
    if rows.size:
        builder = ColumnBuilder(target)
        for value_pos in at[rows].tolist():
            builder.append(getter(JsonbValue(buf, value_pos)))
        generic = builder.finish()
        data[where[rows]] = generic.data
        nulls[where[rows]] = generic.null_mask
    return ColumnVector(target, data, nulls)


# ----------------------------------------------------------------------
# probes

def length_kernel() -> Kernel:
    """``json_length``: the element count of objects and arrays, read
    from their headers; NULL for everything else."""

    def column(view: HeapView, pos: np.ndarray, end: np.ndarray,
               before: int, after: int) -> ColumnVector:
        data, nulls = _frame(ColumnType.INT64, before, len(pos), after)
        present = np.flatnonzero(pos >= 0)
        kind = view.byte(pos[present]) >> 5
        rows = np.flatnonzero((kind == fmt.TYPE_OBJECT)
                              | (kind == fmt.TYPE_ARRAY))
        if rows.size:
            where = present[rows] + before
            data[where] = view.compact(pos[present[rows]] + 1)[0]
            nulls[where] = False
        return ColumnVector(ColumnType.INT64, data, nulls)

    return column


def _string_equals(view: HeapView, pos: np.ndarray,
                   needle: np.ndarray) -> np.ndarray:
    """Which values at *pos* are STRING / NUMSTR with payload *needle*."""
    header = view.byte(pos)
    kind = header >> 5
    out = np.zeros(len(pos), dtype=bool)
    text = np.flatnonzero((kind == fmt.TYPE_STRING)
                          | (kind == fmt.TYPE_NUMSTR))
    if not text.size:
        return out
    start, length = _string_spans(view, pos[text], header[text] & 0x1F)
    same = np.flatnonzero(length == len(needle))
    if not len(needle):
        out[text[same]] = True
        return out
    step = max(1, _GATHER_CELLS // len(needle))
    for lo in range(0, same.size, step):
        part = same[lo:lo + step]
        equal = (view.window(start[part], len(needle)) == needle).all(axis=1)
        out[text[part[equal]]] = True
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
        present = np.flatnonzero(pos >= 0)
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
        on = np.flatnonzero(header >> 5 == fmt.TYPE_ARRAY)
        if not on.size:
            return ColumnVector(ColumnType.BOOL, data, nulls)
        arrays = _Containers(view, at[on], header[on])
        owner = np.repeat(np.arange(on.size), arrays.count)
        index = np.arange(owner.size) - np.repeat(
            np.cumsum(arrays.count) - arrays.count, arrays.count)
        elements = arrays.slot(view, index, owner)
        if target is not None:
            kind = view.byte(elements) >> 5
            objects = np.flatnonzero(kind == fmt.TYPE_OBJECT)
            found = _find(view, _Containers(view, elements[objects],
                                            view.byte(elements[objects])),
                          target, hints, 0)[1]
            owner = owner[objects[found >= 0]]
            elements = found[found >= 0]
        hit = np.zeros(on.size, dtype=bool)
        hit[owner[_string_equals(view, elements, needle)]] = True
        data[present[on] + before] = hit
        return ColumnVector(ColumnType.BOOL, data, nulls)

    return column
