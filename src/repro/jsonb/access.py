"""Access expressions over JSONB bytes (Sections 5.4 and 4.3).

:class:`JsonbValue` is a zero-copy *view* into a JSONB buffer.  Object
key lookup binary-searches the sorted offset table (O(log n)); array
indexing reads one offset (O(1)).  The typed getters implement the cast
rewriting of Section 4.3: ``x->>'k'::BigInt`` reads the integer payload
directly instead of materializing text and parsing it back.  The same
holds for the JSON functions the scan evaluates as probes:
:meth:`JsonbValue.length` reads a container header and
:func:`contains_probe` compares array elements without decoding them
into Python.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, Optional, Tuple, Union

from repro.core.datetimes import parse_datetime_string
from repro.core.jsonpath import KeyPath
from repro.core.types import JsonType, float_to_int
from repro.jsonb import format as fmt
from repro.jsonb.decoder import decode_value, skip_value

_NULL_HEADER = fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_NULL)

_JSON_TYPE_BY_ID = {
    fmt.TYPE_INT: JsonType.INT,
    fmt.TYPE_FLOAT: JsonType.FLOAT,
    fmt.TYPE_STRING: JsonType.STRING,
    fmt.TYPE_NUMSTR: JsonType.NUMSTR,
    fmt.TYPE_OBJECT: JsonType.OBJECT,
    fmt.TYPE_ARRAY: JsonType.ARRAY,
}


# ----------------------------------------------------------------------
# casts of scalar text (Section 4.3): the getters below apply them to
# STRING / NUMSTR values, and every other access path — an extracted
# string column, a repeated column's gather, the JSON text format —
# calls the same functions, so a cast answers alike whichever stores
# the value

def text_as_int(text: str, numeric: bool) -> Optional[int]:
    """``::int`` of a string: ``int()`` of its text; failing that, a
    numeric string (*numeric*: Section 5.2's test, ``is_numeric_string``)
    reads as its number truncated (:func:`float_to_int`), any other
    string as NULL."""
    try:
        return int(text)
    except ValueError:
        return float_to_int(float(text)) if numeric else None


def text_as_float(text: str) -> Optional[float]:
    """``::float`` of a string: ``float()`` of its text, else NULL."""
    try:
        return float(text)
    except ValueError:
        return None


def text_as_bool(text: Optional[str]) -> Optional[bool]:
    """``::bool`` of a value's text (``->>``): ``true`` / ``t`` / ``1``
    and ``false`` / ``f`` / ``0``, else NULL."""
    if text in ("true", "t", "1"):
        return True
    if text in ("false", "f", "0"):
        return False
    return None


def text_as_timestamp(text: str, numeric: bool) -> Optional[int]:
    """``::timestamp`` of a string (Section 4.9): a parsed date/time in
    epoch microseconds; a numeric string is no date (NULL)."""
    return None if numeric else parse_datetime_string(text)


def float_text(value: float) -> str:
    """``->>`` of a float: integral values print as integers, others
    (NaN and ±Infinity too) as their shortest round-trip ``repr``."""
    return repr(int(value)) if value.is_integer() else repr(value)


class JsonbValue:
    """A view of one value inside a JSONB buffer."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    # ------------------------------------------------------------------
    # type inspection

    def type_id(self) -> int:
        return self.buf[self.pos] >> 5

    def json_type(self) -> JsonType:
        type_id, info = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_LITERAL:
            return JsonType.NULL if info == fmt.LITERAL_NULL else JsonType.BOOL
        return _JSON_TYPE_BY_ID[type_id]

    def is_null(self) -> bool:
        return self.buf[self.pos] == _NULL_HEADER

    # ------------------------------------------------------------------
    # navigation (the `->` operator)

    def get(self, step: Union[str, int]) -> Optional["JsonbValue"]:
        """Follow one object key or array slot; ``None`` when absent
        or when the value is not a container of the right kind."""
        if isinstance(step, str):
            return self._object_get(step)
        return self._array_at(step)

    def get_path(self, path: KeyPath) -> Optional["JsonbValue"]:
        """Follow a whole key path; ``None`` when any step is absent."""
        current: Optional[JsonbValue] = self
        for step in path.steps:
            current = current.get(step)
            if current is None:
                return None
        return current

    def _object_get(self, key: str) -> Optional["JsonbValue"]:
        if self.buf[self.pos] >> 5 != fmt.TYPE_OBJECT:
            return None
        found = _member_pos(self.buf, self.pos, key.encode("utf-8"))
        return None if found < 0 else JsonbValue(self.buf, found)

    def _array_at(self, index: int) -> Optional["JsonbValue"]:
        buf, pos = self.buf, self.pos
        type_id, info = fmt.split_header(buf[pos])
        if type_id != fmt.TYPE_ARRAY:
            return None
        width = fmt.OFFSET_WIDTHS[info & 0x3]
        count, pos = fmt.read_compact_uint(buf, pos + 1)
        if index < 0:
            index += count
        if not 0 <= index < count:
            return None
        slot_area = pos + count * width
        offset = fmt.read_offset(buf, pos + index * width, width)
        return JsonbValue(buf, slot_area + offset)

    def __len__(self) -> int:
        """Element count of an object or array (0 for scalars)."""
        return self.length() or 0

    def length(self) -> Optional[int]:
        """``json_length``: the element count of an object or array,
        read from the container header; ``None`` for scalars and JSON
        null."""
        if self.buf[self.pos] >> 5 not in (fmt.TYPE_OBJECT, fmt.TYPE_ARRAY):
            return None
        return fmt.read_compact_uint(self.buf, self.pos + 1)[0]

    def contains(self, key: object, value: object) -> Optional[bool]:
        """``json_contains`` on the bytes (see :func:`contains_probe`)."""
        return contains_probe(key, value)(self)

    def iter_items(self) -> Iterator[Tuple[Optional[str], "JsonbValue"]]:
        """Forward-iterate the slots of an object (key, value) or array
        (None, value) without touching the offset table — the layout is
        contiguous (Section 5.1)."""
        buf, pos = self.buf, self.pos
        type_id, info = fmt.split_header(buf[pos])
        if type_id not in (fmt.TYPE_OBJECT, fmt.TYPE_ARRAY):
            return
        width = fmt.OFFSET_WIDTHS[info & 0x3]
        count, pos = fmt.read_compact_uint(buf, pos + 1)
        pos += count * width
        for _ in range(count):
            key = None
            if type_id == fmt.TYPE_OBJECT:
                key_len, pos = fmt.read_compact_uint(buf, pos)
                key = buf[pos : pos + key_len].decode("utf-8")
                pos += key_len
            yield key, JsonbValue(buf, pos)
            pos = skip_value(buf, pos)

    # ------------------------------------------------------------------
    # extraction

    def as_python(self) -> object:
        """Materialize this value as a Python object."""
        value, _ = decode_value(self.buf, self.pos)
        return value

    def slice_bytes(self) -> bytes:
        """The standalone JSONB bytes of this sub-value."""
        end = skip_value(self.buf, self.pos)
        return self.buf[self.pos : end]

    def as_text(self) -> Optional[str]:
        """PostgreSQL ``->>`` semantics: scalars become their text,
        containers their JSON text, JSON null becomes SQL NULL."""
        type_id, info = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_LITERAL:
            if info == fmt.LITERAL_NULL:
                return None
            return "true" if info == fmt.LITERAL_TRUE else "false"
        if type_id in (fmt.TYPE_STRING, fmt.TYPE_NUMSTR):
            return self.as_python()
        if type_id == fmt.TYPE_INT:
            return str(self.as_python())
        if type_id == fmt.TYPE_FLOAT:
            # the extracted-column rendering
            return float_text(self.as_python())
        return json.dumps(self.as_python(), separators=(",", ":"))

    # ------------------------------------------------------------------
    # typed getters (cast rewriting, Section 4.3)

    def as_int(self) -> Optional[int]:
        """``->>'k'::BigInt`` without going through text."""
        type_id, info = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_INT:
            if info <= fmt.MAX_INLINE_INT:
                return info
            return fmt.read_int_payload(self.buf, self.pos + 1, info - 7)
        if type_id == fmt.TYPE_FLOAT:
            return float_to_int(self.as_python())
        if type_id == fmt.TYPE_NUMSTR or type_id == fmt.TYPE_STRING:
            return text_as_int(self.as_python(),
                               type_id == fmt.TYPE_NUMSTR)
        if type_id == fmt.TYPE_LITERAL and info != fmt.LITERAL_NULL:
            return int(info == fmt.LITERAL_TRUE)
        return None

    def as_float(self) -> Optional[float]:
        """``->>'k'::Float`` without going through text."""
        type_id, info = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_FLOAT or type_id == fmt.TYPE_INT:
            return float(self.as_python())
        if type_id in (fmt.TYPE_NUMSTR, fmt.TYPE_STRING):
            return text_as_float(self.as_python())
        if type_id == fmt.TYPE_LITERAL and info != fmt.LITERAL_NULL:
            return float(info == fmt.LITERAL_TRUE)
        return None

    def as_bool(self) -> Optional[bool]:
        type_id, info = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_LITERAL:
            if info == fmt.LITERAL_NULL:
                return None
            return info == fmt.LITERAL_TRUE
        if type_id == fmt.TYPE_INT:
            return self.as_int() != 0
        return text_as_bool(self.as_text())

    def as_timestamp(self) -> Optional[int]:
        """``::Date`` / ``::Timestamp`` access: parse supported string
        formats into epoch microseconds (Section 4.9)."""
        type_id, _ = fmt.split_header(self.buf[self.pos])
        if type_id == fmt.TYPE_STRING or type_id == fmt.TYPE_NUMSTR:
            return text_as_timestamp(self.as_python(),
                                     type_id == fmt.TYPE_NUMSTR)
        if type_id == fmt.TYPE_INT:
            return self.as_int()
        return None

    def __repr__(self) -> str:
        return f"JsonbValue({self.as_python()!r})"


def jsonb_get_path(buf: bytes, path: KeyPath) -> Optional[JsonbValue]:
    """Convenience root-level path lookup."""
    return JsonbValue(buf, 0).get_path(path)


def _member_pos(buf: bytes, pos: int, key: bytes) -> int:
    """Binary-search the sorted slots of the object at *pos* for the
    UTF-8 *key* (Section 5.4); the position of the member's value, or
    -1 when the key is absent."""
    width = fmt.OFFSET_WIDTHS[buf[pos] & 0x3]
    count, table = fmt.read_compact_uint(buf, pos + 1)
    slot_area = table + count * width
    lo, hi = 0, count - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        slot = slot_area + fmt.read_offset(buf, table + mid * width, width)
        key_len, key_pos = fmt.read_compact_uint(buf, slot)
        candidate = buf[key_pos : key_pos + key_len]
        if candidate == key:
            return key_pos + key_len
        if candidate < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return -1


def _string_payload(buf: bytes, pos: int) -> Tuple[int, int]:
    """``(start, end)`` of the UTF-8 payload of the STRING / NUMSTR
    value at *pos*."""
    info = buf[pos] & 0x1F
    if info <= fmt.MAX_INLINE_STRLEN:
        return pos + 1, pos + 1 + info
    start = pos + 1 + fmt.OFFSET_WIDTHS[info - 28]
    return start, start + int.from_bytes(buf[pos + 1 : start], "little")


def contains_probe(key: object, value: object
                   ) -> Callable[[JsonbValue], Optional[bool]]:
    """Compile ``json_contains(array, key, value)`` into a kernel over
    JSONB views, with the key and a string needle encoded once.

    The kernel answers what ``repro.engine.functions.json_contains``
    answers for the decoded value — ``None`` for JSON null, ``False``
    for a non-array, else whether an element (``key == ''``) or an
    object element's member *key* (missing reads as ``None``) equals
    *value* under Python ``==`` — but decodes only the compared values,
    and none at all when the type settles the comparison.  A string
    needle first searches the buffer from the array's first element on:
    STRING and NUMSTR payloads are stored as verbatim UTF-8 (Section
    5.1), so when the needle's bytes occur nowhere there, no element
    holds an equal string and none is visited.  The kernel's optional
    *end* bounds that search: the end of the row (or of the array
    itself, when the caller knows it) inside a buffer that holds more
    than this document, such as a tile's row heap.  Without it the
    search runs to the end of the buffer: finding the array's end
    costs a walk down its last element, and a hit past the array only
    costs the exact element scan that follows.
    """
    member = key.encode("utf-8") if isinstance(key, str) else None
    needle = value.encode("utf-8") if isinstance(value, str) else None
    # a scalar needle never equals a container, so those stay undecoded
    scalar = not isinstance(value, (list, dict))

    def equals(buf: bytes, pos: int) -> bool:
        type_id = buf[pos] >> 5
        if type_id == fmt.TYPE_STRING or type_id == fmt.TYPE_NUMSTR:
            if needle is None:
                return False
            start, end = _string_payload(buf, pos)
            return buf[start:end] == needle
        if needle is not None or (
                scalar and type_id in (fmt.TYPE_OBJECT, fmt.TYPE_ARRAY)):
            return False
        return decode_value(buf, pos)[0] == value

    def probe(view: JsonbValue, end: Optional[int] = None) -> Optional[bool]:
        buf, pos = view.buf, view.pos
        header = buf[pos]
        if header >> 5 != fmt.TYPE_ARRAY:
            return None if header == _NULL_HEADER else False
        width = fmt.OFFSET_WIDTHS[header & 0x3]
        count, table = fmt.read_compact_uint(buf, pos + 1)
        slot_area = table + count * width
        if needle is not None and buf.find(
                needle, slot_area, len(buf) if end is None else end) < 0:
            return False
        for index in range(count):
            element = slot_area + fmt.read_offset(buf, table + index * width,
                                                  width)
            if not key:
                if equals(buf, element):
                    return True
            elif buf[element] >> 5 == fmt.TYPE_OBJECT:
                # a non-string key never names a member: always missing
                found = -1 if member is None else \
                    _member_pos(buf, element, member)
                if (value is None) if found < 0 else equals(buf, found):
                    return True
        return False

    return probe
