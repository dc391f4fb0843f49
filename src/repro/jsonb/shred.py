"""Single-pass multi-path shredding of JSONB documents.

The fallback scan path (non-extracted key paths, Sections 4.2-4.5)
traverses the binary JSON per tuple.  Resolving each access request
independently walks every document once *per path*, repeating the
O(log n) sorted-key binary search at every shared nesting level,
re-encoding the searched keys to UTF-8 and allocating a fresh
:class:`~repro.jsonb.access.JsonbValue` per step.  Sinew (Tahara et
al.) and Dremel (Melnik et al.) instead shred all requested paths in
one pass over each record; this module does the same for our JSONB
layout:

* :func:`compile_paths` turns the requested key paths into a *trie*
  whose object keys are pre-encoded to UTF-8 once per plan and sorted
  in byte order — the order object slots are stored in (Section 5.1);
* :func:`shred_jsonb` walks one document's buffer depth-first and
  fills every requested path simultaneously (:func:`locate_rows` runs
  the same walk over several rows and keeps only value positions).  Common prefixes like
  ``a.b.c`` / ``a.b.d`` descend once.  At an object node the sorted
  trie children binary-search the sorted offset table with a
  *shrinking window*: once child *j* is located (or proven absent) at
  insertion point *m*, child *j+1* only searches slots above *m* — at
  most the per-path O(k log n) probes, with no re-encoded keys, no
  intermediate ``JsonbValue`` allocations and one shared header
  decode per container;
* :func:`shred_python` is the parsed-JSON twin used by the raw-text
  storage format after its single ``json.loads`` per row;
* :mod:`repro.jsonb.vector_shred` runs the same plan over all selected
  rows of a tile's row heap at once (long fallback runs).

The output is positional: slot *i* of the result list corresponds to
``plan.paths[i]``, holding a :class:`JsonbValue` view (or a raw Python
value for :func:`shred_python`) or ``None`` when the path is absent —
exactly the contract of ``JsonbValue.get_path`` / ``KeyPath.lookup``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.jsonpath import KeyPath
from repro.jsonb import format as fmt
from repro.jsonb.access import JsonbValue

_TYPE_OBJECT = fmt.TYPE_OBJECT
_TYPE_ARRAY = fmt.TYPE_ARRAY
_OFFSET_WIDTHS = fmt.OFFSET_WIDTHS

#: ``unpack_from`` callables for the 2/4/8-byte offset widths (width 1
#: reads the byte directly in the walk loops)
_UNPACK_OFFSET = {
    2: struct.Struct("<H").unpack_from,
    4: struct.Struct("<I").unpack_from,
    8: struct.Struct("<Q").unpack_from,
}


class TrieNode:
    """One step of the compiled path trie."""

    __slots__ = ("obj_children", "arr_children", "terminal",
                 "obj_items", "arr_items", "obj_items_text", "obj_hints")

    def __init__(self) -> None:
        #: UTF-8-encoded object key -> child (encoded once per plan)
        self.obj_children: Dict[bytes, TrieNode] = {}
        #: array slot -> child
        self.arr_children: Dict[int, TrieNode] = {}
        #: result slot index when a requested path ends here, else -1
        self.terminal = -1
        #: frozen ``obj_children`` as ``(key, child, leaf_slot)`` in
        #: key byte order (the storage order of object slots), for the
        #: shrinking-window search; ``leaf_slot >= 0`` marks a child
        #: with no further descent, letting the parent loop fill the
        #: result slot without a recursive call
        self.obj_items: Tuple[Tuple[bytes, "TrieNode", int], ...] = ()
        self.arr_items: Tuple[Tuple[int, "TrieNode", int], ...] = ()
        #: decoded twin of ``obj_items`` for the parsed-JSON walk
        self.obj_items_text: Tuple[Tuple[str, "TrieNode", int], ...] = ()
        #: per ``obj_items`` entry, the slot the vectorized search
        #: starts at (``repro.jsonb.vector_shred``): ``(from_end,
        #: index)``, where the key was last found, counted from the
        #: object's first or last slot.  It only steers the search,
        #: never its result, so concurrent scans may overwrite it.
        self.obj_hints: List[Tuple[bool, int]] = []

    def _leaf_slot(self) -> int:
        if self.obj_children or self.arr_children:
            return -1
        return self.terminal

    def _freeze(self) -> None:
        self.obj_items = tuple(
            (key, child, child._leaf_slot())
            for key, child in sorted(self.obj_children.items()))
        self.arr_items = tuple(
            (index, child, child._leaf_slot())
            for index, child in sorted(self.arr_children.items()))
        self.obj_items_text = tuple(
            (key.decode("utf-8"), child, leaf)
            for key, child, leaf in self.obj_items)
        self.obj_hints = [(False, 0)] * len(self.obj_items)
        for _key, child, _leaf in self.obj_items:
            child._freeze()
        for _index, child, _leaf in self.arr_items:
            child._freeze()


class ShredPlan:
    """A compiled set of key paths: one trie + the slot assignment."""

    __slots__ = ("paths", "root", "slots")

    def __init__(self, paths: Tuple[KeyPath, ...], root: TrieNode):
        self.paths = paths
        self.root = root
        #: path -> result slot, for callers holding KeyPath handles
        self.slots: Dict[KeyPath, int] = {
            path: index for index, path in enumerate(paths)}

    def __len__(self) -> int:
        return len(self.paths)


def compile_paths(paths: Sequence[KeyPath]) -> ShredPlan:
    """Build a :class:`ShredPlan` for *paths* (duplicates collapse to
    one slot)."""
    unique: List[KeyPath] = []
    seen: Dict[KeyPath, int] = {}
    root = TrieNode()
    for path in paths:
        if path in seen:
            continue
        seen[path] = len(unique)
        unique.append(path)
        node = root
        for step in path.steps:
            if isinstance(step, str):
                key = step.encode("utf-8")
                child = node.obj_children.get(key)
                if child is None:
                    child = node.obj_children[key] = TrieNode()
            else:
                child = node.arr_children.get(step)
                if child is None:
                    child = node.arr_children[step] = TrieNode()
            node = child
        node.terminal = seen[path]
    root._freeze()
    return ShredPlan(tuple(unique), root)


def shred_jsonb(plan: ShredPlan, buf: bytes,
                pos: int = 0) -> List[Optional[JsonbValue]]:
    """Walk the document at *pos* of *buf* (a tile's row heap, or one
    row's bytes) once; return one ``JsonbValue`` (or ``None``) per plan
    slot."""
    out = [-1] * len(plan.paths)
    _walk(buf, pos, plan.root, out)
    return [None if found < 0 else JsonbValue(buf, found) for found in out]


def locate_rows(plan: ShredPlan, buf: bytes,
                starts: Sequence[int]) -> List[int]:
    """Walk the documents at *starts* of *buf* one at a time: every
    row's value position for each plan slot (``-1`` when absent), row
    after row — the per-tuple twin of ``vector_shred.locate``."""
    width = len(plan.paths)
    root = plan.root
    out: List[int] = []
    for start in starts:
        found = [-1] * width
        _walk(buf, start, root, found)
        out += found
    return out


def _walk(buf: bytes, pos: int, node: TrieNode, out: List[int]) -> None:
    if node.terminal >= 0:
        out[node.terminal] = pos
    header = buf[pos]
    type_id = header >> 5
    if type_id == _TYPE_OBJECT:
        items = node.obj_items
        if not items:
            return
        width = _OFFSET_WIDTHS[header & 0x3]
        count = buf[pos + 1]
        if count <= 250:
            table = pos + 2
        else:
            count, table = fmt.read_compact_uint(buf, pos + 1)
        if count == 0:
            return
        slot_area = table + count * width
        unpack = _UNPACK_OFFSET[width] if width != 1 else None
        base = 0
        for target, child, leaf in items:
            lo, hi = base, count - 1
            while lo <= hi:
                mid = (lo + hi) >> 1
                if unpack is None:
                    slot = slot_area + buf[table + mid]
                else:
                    slot = slot_area + unpack(buf, table + mid * width)[0]
                key_len = buf[slot]
                if key_len <= 250:
                    key_pos = slot + 1
                else:
                    key_len, key_pos = fmt.read_compact_uint(buf, slot)
                value_pos = key_pos + key_len
                candidate = buf[key_pos:value_pos]
                if candidate == target:
                    if leaf >= 0:
                        out[leaf] = value_pos
                    else:
                        _walk(buf, value_pos, child, out)
                    base = mid + 1
                    break
                if candidate < target:
                    lo = mid + 1
                else:
                    hi = mid - 1
            else:
                # not found: *lo* is the insertion point, and every
                # later (larger) trie key can only live above it
                base = lo
    elif type_id == _TYPE_ARRAY:
        items = node.arr_items
        if not items:
            return
        width = _OFFSET_WIDTHS[header & 0x3]
        count = buf[pos + 1]
        if count <= 250:
            table = pos + 2
        else:
            count, table = fmt.read_compact_uint(buf, pos + 1)
        slot_area = table + count * width
        unpack = _UNPACK_OFFSET[width] if width != 1 else None
        for index, child, leaf in items:
            if 0 <= index < count:
                if unpack is None:
                    offset = buf[table + index]
                else:
                    offset = unpack(buf, table + index * width)[0]
                if leaf >= 0:
                    out[leaf] = slot_area + offset
                else:
                    _walk(buf, slot_area + offset, child, out)


def shred_python(plan: ShredPlan, document: object) -> List[object]:
    """One-pass trie walk over a parsed JSON value; slot semantics of
    ``KeyPath.lookup`` (absent paths stay ``None``)."""
    out: List[object] = [None] * len(plan.paths)
    _walk_python(document, plan.root, out)
    return out


def _walk_python(value: object, node: TrieNode, out: List[object]) -> None:
    if node.terminal >= 0:
        out[node.terminal] = value
    if node.obj_items_text and isinstance(value, dict):
        for text, child, leaf in node.obj_items_text:
            if text in value:
                if leaf >= 0:
                    out[leaf] = value[text]
                else:
                    _walk_python(value[text], child, out)
    if node.arr_items and isinstance(value, list):
        count = len(value)
        for index, child, leaf in node.arr_items:
            if 0 <= index < count:
                if leaf >= 0:
                    out[leaf] = value[index]
                else:
                    _walk_python(value[index], child, out)
