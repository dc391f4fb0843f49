"""Byte-level layout of the JSONB binary format (Section 5.1).

Every value starts with an 8-bit header ``(type_id << 5) | info``:

=========  =======  ====================================================
type_id    name     info bits
=========  =======  ====================================================
0          LITERAL  0 = null, 1 = false, 2 = true
1          INT      0..7: the value itself (small ints < 2^3 live in
                    the header); 8..15: ``info - 7`` bytes of
                    little-endian two's-complement integer follow
2          FLOAT    byte width of the IEEE 754 payload (2, 4 or 8);
                    narrower widths are used whenever the conversion
                    from double precision is lossless
3          STRING   0..27: inline byte length; 28..31: the length is
                    stored in 1/2/4/8 following bytes; UTF-8 payload
4          NUMSTR   same layout as STRING; the payload is the exact
                    numeric text of a "numeric string" (Section 5.2)
5          OBJECT   low 2 bits: offset width code (1/2/4/8 bytes)
6          ARRAY    low 2 bits: offset width code (1/2/4/8 bytes)
=========  =======  ====================================================

Objects continue with the element count (compact uint), an offset table
with one entry per element, and then the element slots stored
contiguously in sorted key order.  Each offset is the byte distance of
its slot from the start of the slot area, so a binary search can jump
to slot *i*, read the key, and compare — an O(log n) lookup.  A slot is
the compact-length-prefixed UTF-8 key followed by the recursively
encoded value, hence nested objects live inside their parent and the
whole document is forward-iterable without memory address jumps.

Arrays are identical but have no keys, so indexing is O(1) via the
offset table.

Compact unsigned integers (counts, string lengths >= 28, key lengths):
one byte ``0..250`` inline, or a marker byte ``251/252/253`` followed by
a 2/4/8-byte little-endian value.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import JsonbDecodeError, JsonbEncodeError

TYPE_LITERAL = 0
TYPE_INT = 1
TYPE_FLOAT = 2
TYPE_STRING = 3
TYPE_NUMSTR = 4
TYPE_OBJECT = 5
TYPE_ARRAY = 6

LITERAL_NULL = 0
LITERAL_FALSE = 1
LITERAL_TRUE = 2

#: Largest integer stored inline in the header (Section 5.1: values < 2^3).
MAX_INLINE_INT = 7
#: Largest string length stored inline in the header info bits.
MAX_INLINE_STRLEN = 27

OFFSET_WIDTHS = (1, 2, 4, 8)

_STRUCT_BY_WIDTH = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}


def make_header(type_id: int, info: int) -> int:
    assert 0 <= type_id <= 7 and 0 <= info <= 31
    return (type_id << 5) | info


def split_header(header: int) -> Tuple[int, int]:
    return header >> 5, header & 0x1F


def offset_width_code(max_offset: int) -> int:
    """Smallest offset width code able to address *max_offset*."""
    for code, width in enumerate(OFFSET_WIDTHS):
        if max_offset < (1 << (8 * width)):
            return code
    raise OverflowError(f"offset {max_offset} exceeds 8 bytes")


def int_payload_size(value: int) -> int:
    """Bytes needed for a signed little-endian integer (0 if inline)."""
    if 0 <= value <= MAX_INLINE_INT:
        return 0
    for nbytes in range(1, 9):
        limit = 1 << (8 * nbytes - 1)
        if -limit <= value < limit:
            return nbytes
    raise JsonbEncodeError(f"integer {value} exceeds 64 bits")


def write_int_payload(buf: bytearray, pos: int, value: int, nbytes: int) -> int:
    buf[pos : pos + nbytes] = value.to_bytes(nbytes, "little", signed=True)
    return pos + nbytes


def read_int_payload(buf: bytes, pos: int, nbytes: int) -> int:
    return int.from_bytes(buf[pos : pos + nbytes], "little", signed=True)


def compact_uint_size(value: int) -> int:
    if value <= 250:
        return 1
    if value < 1 << 16:
        return 3
    if value < 1 << 32:
        return 5
    return 9


def write_compact_uint(buf: bytearray, pos: int, value: int) -> int:
    if value <= 250:
        buf[pos] = value
        return pos + 1
    if value < 1 << 16:
        buf[pos] = 251
        struct.pack_into("<H", buf, pos + 1, value)
        return pos + 3
    if value < 1 << 32:
        buf[pos] = 252
        struct.pack_into("<I", buf, pos + 1, value)
        return pos + 5
    buf[pos] = 253
    struct.pack_into("<Q", buf, pos + 1, value)
    return pos + 9


def read_compact_uint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Return ``(value, next_pos)``."""
    try:
        first = buf[pos]
    except IndexError:
        raise JsonbDecodeError("truncated compact integer") from None
    if first <= 250:
        return first, pos + 1
    width = {251: 2, 252: 4, 253: 8}.get(first)
    if width is None:
        raise JsonbDecodeError(f"invalid compact integer marker {first}")
    end = pos + 1 + width
    if end > len(buf):
        raise JsonbDecodeError("truncated compact integer payload")
    return int.from_bytes(buf[pos + 1 : end], "little"), end


def write_offset(buf: bytearray, pos: int, value: int, width: int) -> int:
    struct.pack_into(_STRUCT_BY_WIDTH[width], buf, pos, value)
    return pos + width


def read_offset(buf: bytes, pos: int, width: int) -> int:
    return struct.unpack_from(_STRUCT_BY_WIDTH[width], buf, pos)[0]
