"""The two-pass JSONB encoder of Section 5.3, kept as a test oracle.

``repro.jsonb.encoder`` builds every node's bytes bottom-up from its
children's bytes in one walk.  This module is the encoder it replaced:

1. a validation/measure pass walks the input depth-first, detects
   numeric strings, picks the lossless float width (through numpy
   scalars) and the minimal integer/offset widths, and records the byte
   size of every node;
2. a write pass allocates one exact-size buffer and serializes the plan.

``tests/test_encoder_differential.py`` asserts that both produce the
same bytes, the same ``ItemSink`` state and the same rejections.
"""

from __future__ import annotations

import math
import struct
from typing import List, Optional, Tuple

import numpy as np

from repro.core.types import JsonType, is_numeric_string
from repro.errors import JsonbEncodeError
from repro.jsonb import format as fmt


class _Plan:
    """Measured encoding plan of one value (pass 1 output)."""

    __slots__ = ("kind", "size", "info", "payload", "children")

    def __init__(self, kind: int, size: int, info: int,
                 payload: object = None, children: Optional[list] = None):
        self.kind = kind
        self.size = size
        self.info = info
        self.payload = payload
        self.children = children


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise JsonbEncodeError(
            f"string is not valid UTF-8 ({exc.reason} at index "
            f"{exc.start})") from exc


def _measure_string(text: str, kind: int) -> _Plan:
    data = _utf8(text)
    length = len(data)
    if length <= fmt.MAX_INLINE_STRLEN:
        return _Plan(kind, 1 + length, length, data)
    for code, width in enumerate(fmt.OFFSET_WIDTHS):
        if length < 1 << (8 * width):
            return _Plan(kind, 1 + width + length, 28 + code, data)
    raise JsonbEncodeError("string exceeds 2^64 bytes")


def _measure_float(value: float) -> _Plan:
    # Narrow to half/single precision when the round trip is lossless
    # (Section 5.1).  NaN is kept as a double: NaN != NaN would defeat
    # the equality check below.
    if math.isfinite(value):
        if abs(value) <= 65504.0 and float(np.float16(value)) == value:
            return _Plan(fmt.TYPE_FLOAT, 3, 2, struct.pack("<e", np.float16(value)))
        if abs(value) <= 3.4028235e38 and float(np.float32(value)) == value:
            return _Plan(fmt.TYPE_FLOAT, 5, 4, struct.pack("<f", value))
    elif math.isinf(value):
        return _Plan(fmt.TYPE_FLOAT, 3, 2, struct.pack("<e", np.float16(value)))
    return _Plan(fmt.TYPE_FLOAT, 9, 8, struct.pack("<d", value))


def _measure(value: object, detect_numeric_strings: bool,
             sink=None, node=None) -> _Plan:
    """Measure pass.  With an item *sink* (``repro.mining.ItemSink``)
    the same walk also reports every leaf and empty container at *node*,
    typed as stored (a numeric string is a NUMSTR item)."""
    if value is None:
        plan = _Plan(fmt.TYPE_LITERAL, 1, fmt.LITERAL_NULL)
    elif isinstance(value, bool):
        info = fmt.LITERAL_TRUE if value else fmt.LITERAL_FALSE
        plan = _Plan(fmt.TYPE_LITERAL, 1, info)
    elif isinstance(value, int):
        nbytes = fmt.int_payload_size(value)
        if nbytes == 0:
            plan = _Plan(fmt.TYPE_INT, 1, value)
        else:
            plan = _Plan(fmt.TYPE_INT, 1 + nbytes, 7 + nbytes, value)
    elif isinstance(value, float):
        plan = _measure_float(value)
    elif isinstance(value, str):
        if detect_numeric_strings and is_numeric_string(value):
            plan = _measure_string(value, fmt.TYPE_NUMSTR)
        else:
            plan = _measure_string(value, fmt.TYPE_STRING)
    elif isinstance(value, dict):
        return _measure_object(value, detect_numeric_strings, sink, node)
    elif isinstance(value, (list, tuple)):
        return _measure_array(value, detect_numeric_strings, sink, node)
    else:
        raise JsonbEncodeError(
            f"cannot encode value of type {type(value).__name__}")
    if sink is not None:
        sink.add(node, _item_type(plan))
    return plan


_ITEM_TYPES = {fmt.TYPE_INT: JsonType.INT, fmt.TYPE_FLOAT: JsonType.FLOAT,
               fmt.TYPE_STRING: JsonType.STRING,
               fmt.TYPE_NUMSTR: JsonType.NUMSTR}


def _item_type(plan: _Plan) -> JsonType:
    """The mining item type of a measured scalar."""
    if plan.kind == fmt.TYPE_LITERAL:
        return JsonType.NULL if plan.info == fmt.LITERAL_NULL else JsonType.BOOL
    return _ITEM_TYPES[plan.kind]


def _measure_object(value: dict, detect: bool, sink, node) -> _Plan:
    slots: List[Tuple[bytes, _Plan]] = []
    for key, child in value.items():
        if not isinstance(key, str):
            raise JsonbEncodeError(f"object key must be a string, got {key!r}")
        if sink is None:
            plan = _measure(child, detect)
        else:
            plan = _measure(child, detect, sink, sink.child(node, key))
        slots.append((_utf8(key), plan))
    if sink is not None and not slots:
        sink.add(node, JsonType.OBJECT)
    # Keys are stored sorted so lookups can binary-search (Section 5.1).
    slots.sort(key=lambda slot: slot[0])
    slot_bytes = sum(
        fmt.compact_uint_size(len(key)) + len(key) + plan.size for key, plan in slots
    )
    count = len(slots)
    code = fmt.offset_width_code(max(slot_bytes, 1))
    width = fmt.OFFSET_WIDTHS[code]
    size = 1 + fmt.compact_uint_size(count) + count * width + slot_bytes
    return _Plan(fmt.TYPE_OBJECT, size, code, None, slots)


def _measure_array(value: object, detect: bool, sink, node) -> _Plan:
    if sink is None:
        children = [_measure(child, detect) for child in value]
    else:
        # only the leading slots are mining items (Section 3.5); the
        # rest is encoded without reporting
        limit = sink.max_array_elements
        children = [
            _measure(child, detect, sink, sink.child(node, slot))
            if slot < limit else _measure(child, detect)
            for slot, child in enumerate(value)
        ]
        if not children:
            sink.add(node, JsonType.ARRAY)
    payload_bytes = sum(plan.size for plan in children)
    count = len(children)
    code = fmt.offset_width_code(max(payload_bytes, 1))
    width = fmt.OFFSET_WIDTHS[code]
    size = 1 + fmt.compact_uint_size(count) + count * width + payload_bytes
    return _Plan(fmt.TYPE_ARRAY, size, code, None, children)


def _write(plan: _Plan, buf: bytearray, pos: int) -> int:
    buf[pos] = fmt.make_header(plan.kind, plan.info)
    pos += 1
    if plan.kind == fmt.TYPE_LITERAL:
        return pos
    if plan.kind == fmt.TYPE_INT:
        if plan.payload is None:
            return pos
        return fmt.write_int_payload(buf, pos, plan.payload, plan.info - 7)
    if plan.kind == fmt.TYPE_FLOAT:
        data = plan.payload
        buf[pos : pos + len(data)] = data
        return pos + len(data)
    if plan.kind in (fmt.TYPE_STRING, fmt.TYPE_NUMSTR):
        data = plan.payload
        if plan.info >= 28:
            width = fmt.OFFSET_WIDTHS[plan.info - 28]
            buf[pos : pos + width] = len(data).to_bytes(width, "little")
            pos += width
        buf[pos : pos + len(data)] = data
        return pos + len(data)
    if plan.kind == fmt.TYPE_OBJECT:
        return _write_object(plan, buf, pos)
    assert plan.kind == fmt.TYPE_ARRAY
    return _write_array(plan, buf, pos)


def _write_object(plan: _Plan, buf: bytearray, pos: int) -> int:
    slots = plan.children
    width = fmt.OFFSET_WIDTHS[plan.info]
    pos = fmt.write_compact_uint(buf, pos, len(slots))
    table_pos = pos
    pos += len(slots) * width
    slot_area = pos
    for key, child in slots:
        table_pos = fmt.write_offset(buf, table_pos, pos - slot_area, width)
        pos = fmt.write_compact_uint(buf, pos, len(key))
        buf[pos : pos + len(key)] = key
        pos += len(key)
        pos = _write(child, buf, pos)
    return pos


def _write_array(plan: _Plan, buf: bytearray, pos: int) -> int:
    children = plan.children
    width = fmt.OFFSET_WIDTHS[plan.info]
    pos = fmt.write_compact_uint(buf, pos, len(children))
    table_pos = pos
    pos += len(children) * width
    slot_area = pos
    for child in children:
        table_pos = fmt.write_offset(buf, table_pos, pos - slot_area, width)
        pos = _write(child, buf, pos)
    return pos


def encode(value: object, detect_numeric_strings: bool = True,
           sink=None) -> bytes:
    """Encode a parsed JSON value into JSONB bytes.

    ``detect_numeric_strings`` enables the numeric-string type of
    Section 5.2; turning it off stores all strings verbatim (used by the
    format ablation tests).  An item *sink* (``repro.mining.ItemSink``)
    additionally receives the document's typed key paths from the
    measure pass, as one transaction — the loader's single walk per
    document.
    """
    if sink is None:
        plan = _measure(value, detect_numeric_strings)
    else:
        plan = _measure(value, detect_numeric_strings, sink, sink.root)
        sink.end_document()
    buf = bytearray(plan.size)
    end = _write(plan, buf, 0)
    assert end == plan.size, "measure/write size mismatch"
    return bytes(buf)


def encoded_size(value: object, detect_numeric_strings: bool = True) -> int:
    """Size in bytes the value would occupy, without writing it."""
    return _measure(value, detect_numeric_strings).size
