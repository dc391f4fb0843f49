"""One-pass JSONB encoder (the layout of Section 5.1).

Nested objects live *inside* their parent, so an object's size depends
on everything below it.  The paper's encoder (Section 5.3) measures
every node in a first pass and writes into one exact-size buffer in a
second, to allocate once.  In Python a pass costs function calls, not
allocations, so this encoder walks the value once and builds each
node's bytes bottom-up from its children's — the same bytes.  On the
way it detects numeric strings (Section 5.2), narrows floats to the
smallest lossless IEEE width and picks minimal integer/offset widths.
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.types import JsonType, is_numeric_string
from repro.errors import JsonbEncodeError
from repro.jsonb import format as fmt

_BYTE = [bytes((value,)) for value in range(256)]

_SMALL_INTS = [_BYTE[fmt.make_header(fmt.TYPE_INT, value)]
               for value in range(fmt.MAX_INLINE_INT + 1)]
#: INT header by payload width (1..8 bytes)
_INT_HEADERS = [b""] + [_BYTE[fmt.make_header(fmt.TYPE_INT, 7 + nbytes)]
                        for nbytes in range(1, 9)]
_LITERALS = {None: _BYTE[fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_NULL)],
             False: _BYTE[fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_FALSE)],
             True: _BYTE[fmt.make_header(fmt.TYPE_LITERAL, fmt.LITERAL_TRUE)]}

_HALF = _BYTE[fmt.make_header(fmt.TYPE_FLOAT, 2)]
_SINGLE = _BYTE[fmt.make_header(fmt.TYPE_FLOAT, 4)]
_DOUBLE = _BYTE[fmt.make_header(fmt.TYPE_FLOAT, 8)]
_pack_half, _unpack_half = struct.Struct("<e").pack, struct.Struct("<e").unpack
_pack_single, _unpack_single = struct.Struct("<f").pack, struct.Struct("<f").unpack
_pack_double = struct.Struct("<d").pack

_STRING = fmt.TYPE_STRING << 5
_NUMSTR = fmt.TYPE_NUMSTR << 5
_OBJECT = fmt.TYPE_OBJECT << 5
_ARRAY = fmt.TYPE_ARRAY << 5
_OFFSET_FORMATS = ("B", "H", "I", "Q")
_first = itemgetter(0)
#: header and count byte of a container with 1-byte offsets and at most
#: 250 elements, by count (most containers)
_SMALL_HEADS = {base: [bytes((base, count)) for count in range(251)]
                for base in (_OBJECT, _ARRAY)}

#: first characters of an RFC 8259 number (skips the numeric-string
#: test for most text)
_NUMBER_START = frozenset("-0123456789")
#: the exact types the walk dispatches on without ``isinstance``
_EXACT = frozenset((str, int, float, dict, list, tuple, bool, type(None)))

# the mining item type of each stored kind, as plain constants (enum
# member lookups are a measurable share of the walk)
(_NULL_ITEM, _BOOL_ITEM, _INT_ITEM, _FLOAT_ITEM, _STRING_ITEM, _NUMSTR_ITEM,
 _OBJECT_ITEM, _ARRAY_ITEM) = (
    JsonType.NULL, JsonType.BOOL, JsonType.INT, JsonType.FLOAT,
    JsonType.STRING, JsonType.NUMSTR, JsonType.OBJECT, JsonType.ARRAY)

#: key text -> (UTF-8 bytes, length-prefixed UTF-8 bytes); a document
#: stream repeats its keys, so each is encoded once
_KEYS: Dict[str, Tuple[bytes, bytes]] = {}
_MAX_CACHED_KEYS = 1 << 14


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise JsonbEncodeError(
            f"string is not valid UTF-8 ({exc.reason} at index "
            f"{exc.start})") from exc


def _compact_uint(value: int) -> bytes:
    if value <= 250:
        return _BYTE[value]
    buf = bytearray(fmt.compact_uint_size(value))
    fmt.write_compact_uint(buf, 0, value)
    return bytes(buf)


def _key(key: str) -> Tuple[bytes, bytes]:
    raw = _utf8(key)
    entry = (raw, _compact_uint(len(raw)) + raw)
    if len(_KEYS) >= _MAX_CACHED_KEYS:
        _KEYS.clear()
    _KEYS[key] = entry
    return entry


def _long_string(base: int, data: bytes) -> bytes:
    """A string of more than ``MAX_INLINE_STRLEN`` bytes: its length
    follows the header in the fewest of 1/2/4/8 bytes."""
    length = len(data)
    for code, width in enumerate(fmt.OFFSET_WIDTHS):
        if length < 1 << (8 * width):
            return (_BYTE[base | (28 + code)]
                    + length.to_bytes(width, "little") + data)
    raise JsonbEncodeError("string exceeds 2^64 bytes")


def _float(value: float) -> bytes:
    # Narrow to half/single precision when the round trip is lossless
    # (Section 5.1).  The range tests are False for NaN, which stays a
    # double (NaN != NaN would defeat the round-trip check); ±Infinity
    # is exact in half precision.
    if -3.4028235e38 <= value <= 3.4028235e38:
        if -65504.0 <= value <= 65504.0:
            data = _pack_half(value)
            if _unpack_half(data)[0] == value:
                return _HALF + data
        data = _pack_single(value)
        if _unpack_single(data)[0] == value:
            return _SINGLE + data
    elif value == math.inf or value == -math.inf:
        return _HALF + _pack_half(value)
    return _DOUBLE + _pack_double(value)


def _int(value: int) -> bytes:
    """An integer outside the header's inline range."""
    # signed little-endian two's complement in the fewest bytes
    nbytes = ((value if value >= 0 else ~value).bit_length() >> 3) + 1
    if nbytes > 8:
        raise JsonbEncodeError(f"integer {value} exceeds 64 bits")
    return _INT_HEADERS[nbytes] + value.to_bytes(nbytes, "little", signed=True)


def _container(base: int, slots: List[bytes]) -> bytes:
    """Header, element count and offset table of an object or array,
    followed by its encoded *slots*."""
    count = len(slots)
    offsets = list(accumulate(map(len, slots), initial=0))
    total = offsets.pop()
    if total < 256 and count <= 250:
        return b"".join([_SMALL_HEADS[base][count], bytes(offsets), *slots])
    code = fmt.offset_width_code(total)
    table = struct.pack(f"<{count}{_OFFSET_FORMATS[code]}", *offsets)
    return b"".join([_BYTE[base | code], _compact_uint(count), table, *slots])


def _json_kind(value: object) -> type:
    """The JSON type a subclass instance encodes as (``bool`` before
    ``int``: bool is an int subclass)."""
    for kind in (bool, int, float, str, dict, list, tuple):
        if isinstance(value, kind):
            return kind
    raise JsonbEncodeError(
        f"cannot encode value of type {type(value).__name__}")


def _encode(value: object, detect: bool, sink, node) -> bytes:
    """Encode *value*.  With an item *sink* (``repro.mining.ItemSink``)
    the walk also reports every leaf and empty container at *node*,
    typed as stored (a numeric string is a NUMSTR item), in document
    order."""
    kind = type(value)
    if kind not in _EXACT:
        kind = _json_kind(value)
    if kind is str:
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError:
            data = _utf8(value)  # raises JsonbEncodeError
        if detect and value[:1] in _NUMBER_START and is_numeric_string(value):
            base, jtype = _NUMSTR, _NUMSTR_ITEM
        else:
            base, jtype = _STRING, _STRING_ITEM
        if len(data) <= fmt.MAX_INLINE_STRLEN:
            data = _BYTE[base | len(data)] + data
        else:
            data = _long_string(base, data)
    elif kind is int:
        data = (_SMALL_INTS[value] if 0 <= value <= fmt.MAX_INLINE_INT
                else _int(value))
        jtype = _INT_ITEM
    elif kind is dict:
        slots = []
        for key, child in value.items():
            if not isinstance(key, str):
                raise JsonbEncodeError(
                    f"object key must be a string, got {key!r}")
            data = _encode(child, detect, sink,
                           None if sink is None else sink.child(node, key))
            raw, prefixed = _KEYS.get(key) or _key(key)
            slots.append((raw, prefixed + data))
        if sink is not None and not slots:
            sink.add(node, _OBJECT_ITEM)
        # Keys are stored sorted so lookups can binary-search (Section 5.1).
        slots.sort(key=_first)
        return _container(_OBJECT, [slot for _raw, slot in slots])
    elif kind is float:
        data = _float(value)
        jtype = _FLOAT_ITEM
    elif kind is list or kind is tuple:
        if sink is None:
            slots = [_encode(child, detect, None, None) for child in value]
        else:
            # only the leading slots are mining items (Section 3.5); the
            # rest is encoded without reporting
            limit = sink.max_array_elements
            slots = [
                _encode(child, detect, sink, sink.child(node, slot))
                if slot < limit else _encode(child, detect, None, None)
                for slot, child in enumerate(value)
            ]
            if not slots:
                sink.add(node, _ARRAY_ITEM)
        return _container(_ARRAY, slots)
    else:
        data = _LITERALS[value]
        jtype = _NULL_ITEM if value is None else _BOOL_ITEM
    if sink is not None:
        sink.add(node, jtype)
    return data


def encode(value: object, detect_numeric_strings: bool = True,
           sink=None) -> bytes:
    """Encode a parsed JSON value into JSONB bytes.

    ``detect_numeric_strings`` enables the numeric-string type of
    Section 5.2; turning it off stores all strings verbatim (used by the
    format ablation tests).  An item *sink* (``repro.mining.ItemSink``)
    additionally receives the document's typed key paths from the same
    walk, as one transaction (what :func:`collect_items` reports).
    """
    if sink is None:
        return _encode(value, detect_numeric_strings, None, None)
    data = _encode(value, detect_numeric_strings, sink, sink.root)
    sink.end_document()
    return data


def _items(value: object, sink, node) -> None:
    """The item reports of :func:`_encode` (with numeric-string
    detection), without building bytes."""
    kind = type(value)
    if kind not in _EXACT:
        kind = _json_kind(value)
    if kind is str:
        jtype = (_NUMSTR_ITEM if value[:1] in _NUMBER_START
                 and is_numeric_string(value) else _STRING_ITEM)
    elif kind is int:
        jtype = _INT_ITEM
    elif kind is dict:
        if not value:
            sink.add(node, _OBJECT_ITEM)
        for key, child in value.items():
            if not isinstance(key, str):
                raise JsonbEncodeError(
                    f"object key must be a string, got {key!r}")
            _items(child, sink, sink.child(node, key))
        return
    elif kind is float:
        jtype = _FLOAT_ITEM
    elif kind is list or kind is tuple:
        if not value:
            sink.add(node, _ARRAY_ITEM)
        for slot, child in enumerate(value[:sink.max_array_elements]):
            _items(child, sink, sink.child(node, slot))
        return
    else:
        jtype = _NULL_ITEM if value is None else _BOOL_ITEM
    sink.add(node, jtype)


def collect_items(value: object, sink) -> None:
    """Report a document's typed key paths to an item *sink* as one
    transaction — the items ``encode(value, sink=sink)`` reports — but
    build no bytes: the loader mines a partition first and encodes each
    row once, under its tile's schema (:func:`encode_stripped`).  Values
    the encoder rejects raise there, not here."""
    _items(value, sink, sink.root)
    sink.end_document()


def _held(value: object) -> bool:
    """Whether a leaf of its column's exact type is one the column holds:
    an integer in int64 range, a string that encodes as UTF-8 (raises
    :class:`JsonbEncodeError` as :func:`encode` would), any float or
    bool."""
    kind = type(value)
    if kind is int:
        return _INT_MIN <= value <= _INT_MAX
    if kind is str and not value.isascii():
        _utf8(value)
    return True


def _encode_stripped(value: dict, strip: dict) -> bytes:
    """An object under a strip trie (see :func:`encode_stripped`)."""
    slots = []
    for key, child in value.items():
        if not isinstance(key, str):
            raise JsonbEncodeError(f"object key must be a string, got {key!r}")
        entry = strip.get(key)
        if entry is None:
            data = _encode(child, True, None, None)
        else:
            exact, below = entry
            if type(child) is exact and _held(child):
                continue  # the column holds this value
            if below is not None and type(child) is dict:
                data = _encode_stripped(child, below)
            else:
                data = _encode(child, True, None, None)
        raw, prefixed = _KEYS.get(key) or _key(key)
        slots.append((raw, prefixed + data))
    slots.sort(key=_first)
    return _container(_OBJECT, [slot for _raw, slot in slots])


def encode_stripped(value: object, strip: Optional[dict]) -> bytes:
    """:func:`encode` (numeric strings detected) without the leaves that
    a tile's extracted columns hold exactly (DESIGN.md §3, "one copy of
    every value").

    *strip* is a trie over object keys: ``{key: (exact type or None,
    trie below or None)}``.  A member whose value's type is exactly the
    entry's type (``int``, ``float``, ``str`` or ``bool``; see
    :func:`_held`) is left out; every other value is encoded as usual,
    and objects on the trie keep their slot even when it ends up
    empty.  ``None`` (or a non-object document) encodes in full."""
    if not strip or type(value) is not dict:
        return _encode(value, True, None, None)
    return _encode_stripped(value, strip)


def encoded_size(value: object, detect_numeric_strings: bool = True) -> int:
    """Size in bytes of the value's encoding."""
    return len(encode(value, detect_numeric_strings))


#: deepest container nesting :func:`check_encodable` accepts.  Encoding,
#: decoding and scanning a row recurse once or twice per level, so a
#: bound far below Python's recursion limit keeps every walk over an
#: accepted document finishing, whichever thread runs it
MAX_ACCEPT_DEPTH = 256

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


def check_encodable(value: object, _depth: int = 0) -> None:
    """Raise :class:`JsonbEncodeError` if :func:`encode` would reject
    *value* — a non-string key, a lone surrogate, an integer outside
    int64, a type JSON has no form for — or if containers nest deeper
    than ``MAX_ACCEPT_DEPTH``.

    The acceptance check writers run before they acknowledge a
    document: it applies the encoder's rules without building bytes.
    Any type other than the exact JSON types goes through the encoder
    itself, so subclasses follow its own ``isinstance`` rules."""
    kind = type(value)
    if kind is str:
        if not value.isascii():
            _utf8(value)
    elif kind is dict or kind is list or kind is tuple:
        if _depth >= MAX_ACCEPT_DEPTH:
            raise JsonbEncodeError(
                f"containers nest deeper than {MAX_ACCEPT_DEPTH} levels")
        if kind is dict:
            for key, child in value.items():
                if not isinstance(key, str):
                    raise JsonbEncodeError(
                        f"object key must be a string, got {key!r}")
                if not key.isascii():
                    _utf8(key)
                check_encodable(child, _depth + 1)
        else:
            for child in value:
                check_encodable(child, _depth + 1)
    elif kind is int:
        if not _INT_MIN <= value <= _INT_MAX:
            raise JsonbEncodeError(f"integer {value} exceeds 64 bits")
    elif value is None or kind is bool or kind is float:
        pass
    else:
        encode(value)
