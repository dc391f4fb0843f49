"""Primitive JSON types and SQL column types.

The extraction algorithm of Section 3.4 treats a key path together with
its *primitive JSON type* as the itemset item: two key paths only match
if their value types match as well.  :class:`JsonType` enumerates those
primitive types, and :class:`ColumnType` enumerates the SQL types a
materialized tile column can carry.
"""

from __future__ import annotations

import enum
import math
import re
from typing import Optional


class JsonType(enum.IntEnum):
    """Primitive type of a JSON value, as used in itemset items.

    ``NUMSTR`` is the paper's "numeric string" (Section 5.2): a JSON
    string whose content is an exact decimal number.  It is detected at
    encoding time so that typed accesses avoid expensive string casts
    while round-trip safety is preserved.
    """

    NULL = 0
    BOOL = 1
    INT = 2
    FLOAT = 3
    STRING = 4
    NUMSTR = 5
    OBJECT = 6
    ARRAY = 7

    @property
    def is_scalar(self) -> bool:
        return self not in (JsonType.OBJECT, JsonType.ARRAY)


class ColumnType(enum.IntEnum):
    """SQL type of a materialized tile column."""

    BOOL = 1
    INT64 = 2
    FLOAT64 = 3
    STRING = 4
    DECIMAL = 5
    TIMESTAMP = 6
    JSONB = 7

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL)


#: Mapping from the primitive JSON type of extracted values to the SQL
#: column type the tile column uses (Section 3.4).
COLUMN_TYPE_FOR_JSON = {
    JsonType.BOOL: ColumnType.BOOL,
    JsonType.INT: ColumnType.INT64,
    JsonType.FLOAT: ColumnType.FLOAT64,
    JsonType.STRING: ColumnType.STRING,
    JsonType.NUMSTR: ColumnType.DECIMAL,
}

# RFC 8259 number grammar, anchored.  Used both by the numeric-string
# detection (Section 5.2) and by tests.
_NUMERIC_STRING_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")


def is_numeric_string(text: str) -> bool:
    """Return True if *text* is exactly an RFC 8259 number.

    Such strings are stored as the JSONB "numeric string" type so typed
    accesses can read them without a string-to-number cast while the
    exact textual representation is preserved (Section 5.2).
    """
    # Keep pathologically long inputs as plain strings: they are almost
    # certainly identifiers, and Decimal conversion cost would not pay off.
    if not text or len(text) > 64:
        return False
    return _NUMERIC_STRING_RE.match(text) is not None


def float_to_int(value: float) -> Optional[int]:
    """``int(value)``, except that NaN and ±Infinity have no integer
    value and become ``None`` (SQL NULL), as in the scan's vectorized
    float-to-int64 cast."""
    return int(value) if math.isfinite(value) else None


def json_type_of(value: object) -> JsonType:
    """Classify a parsed Python JSON value into its primitive type."""
    if value is None:
        return JsonType.NULL
    # bool must be tested before int: bool is an int subclass.
    if isinstance(value, bool):
        return JsonType.BOOL
    if isinstance(value, int):
        return JsonType.INT
    if isinstance(value, float):
        return JsonType.FLOAT
    if isinstance(value, str):
        if is_numeric_string(value):
            return JsonType.NUMSTR
        return JsonType.STRING
    if isinstance(value, dict):
        return JsonType.OBJECT
    if isinstance(value, (list, tuple)):
        return JsonType.ARRAY
    raise TypeError(f"value of type {type(value).__name__} is not a JSON value")
