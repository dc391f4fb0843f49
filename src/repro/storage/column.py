"""Typed columnar vectors with null masks.

Extracted tile columns are numpy arrays plus a boolean null mask; the
query engine operates on these vectors batch-at-a-time, which is what
makes materialized scans an order of magnitude faster than per-tuple
JSONB traversal (the paper's central performance argument).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core.types import ColumnType
from repro.errors import StorageError

_DTYPE_FOR_TYPE = {
    ColumnType.BOOL: np.bool_,
    ColumnType.INT64: np.int64,
    ColumnType.FLOAT64: np.float64,
    ColumnType.STRING: object,
    ColumnType.DECIMAL: np.float64,
    ColumnType.TIMESTAMP: np.int64,
    ColumnType.JSONB: object,
}


def dtype_for(column_type: ColumnType):
    return _DTYPE_FOR_TYPE[column_type]


class ColumnVector:
    """An immutable typed vector: ``data`` array + ``null_mask``
    (True marks NULL).  Values under the mask are unspecified."""

    __slots__ = ("type", "data", "null_mask")

    def __init__(self, column_type: ColumnType, data: np.ndarray,
                 null_mask: Optional[np.ndarray] = None):
        if null_mask is None:
            null_mask = np.zeros(len(data), dtype=bool)
        if len(null_mask) != len(data):
            raise StorageError(
                f"null mask length mismatch: data has {len(data)} rows, "
                f"null mask has {len(null_mask)}")
        if null_mask.dtype != np.bool_:
            # a non-bool mask (e.g. int 0/1) silently turns boolean
            # indexing into fancy indexing inside the batch kernels —
            # reject it here instead of failing with an opaque numpy
            # broadcast error later
            raise StorageError(
                f"null mask dtype must be bool, got {null_mask.dtype}")
        self.type = column_type
        self.data = data
        self.null_mask = null_mask

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_values(cls, column_type: ColumnType,
                    values: Iterable[object]) -> "ColumnVector":
        """Build a vector from Python values; ``None`` becomes NULL."""
        builder = ColumnBuilder(column_type)
        for value in values:
            builder.append(value)
        return builder.finish()

    @classmethod
    def all_null(cls, column_type: ColumnType, length: int) -> "ColumnVector":
        data = np.zeros(length, dtype=dtype_for(column_type))
        return cls(column_type, data, np.ones(length, dtype=bool))

    def value(self, row: int) -> object:
        """Python value at *row* (``None`` when NULL)."""
        if self.null_mask[row]:
            return None
        item = self.data[row]
        if self.type in (ColumnType.INT64, ColumnType.TIMESTAMP):
            return int(item)
        if self.type in (ColumnType.FLOAT64, ColumnType.DECIMAL):
            return float(item)
        if self.type == ColumnType.BOOL:
            return bool(item)
        return item

    def to_list(self) -> List[object]:
        return [self.value(row) for row in range(len(self))]

    def take(self, indices: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.type, self.data[indices], self.null_mask[indices])

    def filter(self, keep: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.type, self.data[keep], self.null_mask[keep])

    def non_null_count(self) -> int:
        return int(len(self) - np.count_nonzero(self.null_mask))

    def nbytes(self, shared_strings: bool = False) -> int:
        """Approximate storage footprint (Table 6 accounting).

        With ``shared_strings=True``, variable-length payloads live in
        a shared region referenced by 8-byte ``(offset, length)`` pairs
        — Umbra's design (Section 4.7: "variable-length data is tracked
        in a separate memory region with offsets"), the paper's Table 6
        accounting.  (A ``.jtile`` file stores an extracted string
        column as a per-tile dictionary plus codes instead.)
        """
        if self.data.dtype == object:
            if shared_strings:
                payload = 8 * len(self)
            else:
                payload = sum(
                    len(item.encode("utf-8")) + 4 if isinstance(item, str)
                    else len(item) + 4 if isinstance(item, bytes) else 8
                    for item in self.data[~self.null_mask].tolist()
                )
        else:
            payload = self.data.nbytes
        return payload + (len(self) + 7) // 8  # null bitmap

    def raw_bytes(self, shared_strings: bool = False) -> bytes:
        """Serialized payload used as compression input (Table 6)."""
        if self.data.dtype == object:
            if shared_strings:
                # offsets into the shared variable-length region
                lengths = np.fromiter(
                    (len(item.encode("utf-8")) if isinstance(item, str)
                     else len(item) if isinstance(item, bytes) else 8
                     for item in self.data),
                    dtype=np.int64, count=len(self.data),
                )
                return np.cumsum(lengths).tobytes()
            parts = []
            for item, is_null in zip(self.data, self.null_mask):
                if is_null:
                    parts.append(b"\x00")
                elif isinstance(item, bytes):
                    parts.append(len(item).to_bytes(4, "little") + item)
                else:
                    encoded = str(item).encode("utf-8")
                    parts.append(len(encoded).to_bytes(4, "little") + encoded)
            return b"".join(parts)
        return self.data.tobytes() + np.packbits(self.null_mask).tobytes()


def null_vector(column_type: ColumnType, length: int) -> ColumnVector:
    """The all-NULL vector a :class:`ColumnBuilder` finishes to after
    *length* :meth:`~ColumnBuilder.append_null` calls (same type, same
    values under the mask)."""
    dtype = dtype_for(column_type)
    # zeros are every numeric type's NULL value, and an empty object
    # array holds None (``_ZERO_FOR_TYPE``)
    data = np.empty(length, dtype=object) if dtype is object \
        else np.zeros(length, dtype=dtype)
    nulls = np.empty(length, dtype=bool)
    nulls.fill(True)
    return ColumnVector(column_type, data, nulls)


def fits_int64(value: int) -> bool:
    """Whether an integer is representable in an INT64 column."""
    return -(2**63) <= value < 2**63


class ColumnBuilder:
    """Row-at-a-time builder for a :class:`ColumnVector`."""

    __slots__ = ("type", "_values", "_nulls")

    def __init__(self, column_type: ColumnType):
        self.type = column_type
        self._values: List[object] = []
        self._nulls: List[bool] = []

    def append(self, value: object) -> None:
        if value is None:
            self.append_null()
            return
        try:
            coerced = self._coerce(value)
        except (TypeError, ValueError, OverflowError):
            # uncoercible outliers (e.g. a float beyond int64 range
            # cast to an integer column) become SQL NULL
            self.append_null()
            return
        self._values.append(coerced)
        self._nulls.append(False)

    def append_null(self) -> None:
        self._values.append(_ZERO_FOR_TYPE[self.type])
        self._nulls.append(True)

    def extend_nulls(self, count: int) -> None:
        """*count* :meth:`append_null` calls at once."""
        if count > 0:
            self._values.extend([_ZERO_FOR_TYPE[self.type]] * count)
            self._nulls.extend([True] * count)

    def _coerce(self, value: object) -> object:
        if self.type == ColumnType.INT64:
            coerced = int(value)
            if not fits_int64(coerced):
                raise OverflowError("value exceeds int64")
            return coerced
        if self.type in (ColumnType.FLOAT64, ColumnType.DECIMAL):
            return float(value)
        if self.type == ColumnType.BOOL:
            return bool(value)
        if self.type == ColumnType.TIMESTAMP:
            return int(value)
        if self.type == ColumnType.STRING:
            return value if isinstance(value, str) else str(value)
        return value

    def __len__(self) -> int:
        return len(self._values)

    def finish(self) -> ColumnVector:
        dtype = dtype_for(self.type)
        if dtype is object:
            # one element per value: np.array would turn equal-length
            # lists (JSONB arrays) into a second dimension
            data = np.fromiter(self._values, dtype=object,
                               count=len(self._values))
        else:
            data = np.array(self._values, dtype=dtype)
            if len(data) == 0:
                data = np.zeros(0, dtype=dtype)
        null_mask = np.array(self._nulls, dtype=bool)
        return ColumnVector(self.type, data, null_mask)


_ZERO_FOR_TYPE = {
    ColumnType.BOOL: False,
    ColumnType.INT64: 0,
    ColumnType.FLOAT64: 0.0,
    ColumnType.STRING: None,
    ColumnType.DECIMAL: 0.0,
    ColumnType.TIMESTAMP: 0,
    ColumnType.JSONB: None,
}
