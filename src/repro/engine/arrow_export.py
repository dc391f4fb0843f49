"""Zero-copy Arrow export of resolved tile columns.

The engine's :class:`~repro.storage.column.ColumnVector` layout —
a contiguous numpy value array plus a boolean null mask — is one
``np.packbits`` away from Arrow's physical layout, so fixed-width
columns (INT64 / FLOAT64 / DECIMAL / TIMESTAMP) are handed to
``pyarrow.Array.from_buffers`` without copying or re-serializing the
values: the Arrow array wraps the scan's own numpy buffer.  BOOL
bit-packs its values, STRING builds an Arrow string array, and JSONB
columns (including cross-tile type conflicts) serialize each document
fragment to a JSON string.

``pyarrow`` is strictly optional: importing this module never imports
it, and every entry point raises a clean
:class:`~repro.errors.ExecutionError` when it is missing.

Export reads through :class:`~repro.engine.scan.TableScan` with one
batch per tile (``batch_rows = tile_size``), so cast rewriting,
type-conflict NULL re-checks and JSONB fallback all apply exactly as
they do for queries — a path extracted in one tile and fallback-only
in another still exports as one coherent Arrow column.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.scan import AccessRequest, TableScan
from repro.errors import ExecutionError
from repro.storage.column import ColumnVector

#: alias used for the export scan's access-request names
_ALIAS = "arrow"


def _pyarrow():
    try:
        import pyarrow
    except ImportError:
        raise ExecutionError(
            "Arrow export requires the optional 'pyarrow' dependency "
            "(install the 'arrow' extra: pip install repro[arrow])")
    return pyarrow


def default_export_paths(relation) -> List[Tuple[KeyPath, ColumnType]]:
    """The exportable schema of a relation: the union of every sealed
    tile's extracted paths with their header types, ordered by path
    string for determinism.  A path whose type differs across tiles
    (or is flagged conflicting within one) degrades to JSONB — exported
    as JSON text rather than a lossy cast."""
    types: Dict[KeyPath, ColumnType] = {}
    for tile in relation.tiles:
        for path, column in tile.header.columns.items():
            column_type = (ColumnType.JSONB if column.has_type_conflicts
                           else column.column_type)
            seen = types.get(path)
            if seen is None:
                types[path] = column_type
            elif seen != column_type:
                types[path] = ColumnType.JSONB
    return sorted(types.items(), key=lambda item: str(item[0]))


def _arrow_type(pa, column_type: ColumnType):
    if column_type == ColumnType.INT64:
        return pa.int64()
    if column_type in (ColumnType.FLOAT64, ColumnType.DECIMAL):
        return pa.float64()
    if column_type == ColumnType.TIMESTAMP:
        return pa.timestamp("us")  # tiles store epoch microseconds
    if column_type == ColumnType.BOOL:
        return pa.bool_()
    return pa.string()  # STRING and JSON-serialized JSONB


def _validity(pa, mask: np.ndarray):
    """(validity buffer, null count) for one null mask; ``(None, 0)``
    when every row is valid so Arrow omits the bitmap entirely."""
    nulls = int(np.count_nonzero(mask))
    if not nulls:
        return None, 0
    return pa.py_buffer(np.packbits(~mask, bitorder="little")), nulls


def vector_to_arrow(vector: ColumnVector, pa=None):
    """One ColumnVector → one Arrow array (fixed-width types wrap the
    numpy buffer in place; no value is re-serialized)."""
    pa = pa or _pyarrow()
    length = len(vector)
    arrow_type = _arrow_type(pa, vector.type)
    validity, nulls = _validity(pa, vector.null_mask)
    if vector.type in (ColumnType.INT64, ColumnType.TIMESTAMP,
                       ColumnType.FLOAT64, ColumnType.DECIMAL):
        values = pa.py_buffer(np.ascontiguousarray(vector.data))
        return pa.Array.from_buffers(arrow_type, length,
                                     [validity, values], nulls)
    if vector.type == ColumnType.BOOL:
        bits = np.packbits(vector.data.astype(bool), bitorder="little")
        return pa.Array.from_buffers(arrow_type, length,
                                     [validity, pa.py_buffer(bits)], nulls)
    mask = vector.null_mask
    if vector.type == ColumnType.STRING:
        # values under the mask are unspecified — normalize to None
        values = [None if mask[row] else vector.data[row]
                  for row in range(length)]
        return pa.array(values, type=arrow_type)
    # JSONB: resolved vectors hold plain Python fragments
    values = [None if mask[row]
              else json.dumps(vector.data[row], separators=(",", ":"),
                              sort_keys=False)
              for row in range(length)]
    return pa.array(values, type=arrow_type)


def relation_to_arrow(relation,
                      paths: Optional[List[Tuple[KeyPath,
                                                 ColumnType]]] = None):
    """Export *relation* as a ``pyarrow.Table``.

    *paths* defaults to :func:`default_export_paths`; pass an explicit
    ``[(KeyPath, ColumnType), ...]`` list to project or re-type.
    """
    pa = _pyarrow()
    if paths is None:
        paths = default_export_paths(relation)
    requests = [AccessRequest.make(_ALIAS, path, target, False)
                for path, target in paths]
    fields = [pa.field(str(path), _arrow_type(pa, target))
              for path, target in paths]
    schema = pa.schema(fields)
    names = [request.name for request in requests]
    scan = TableScan(relation, requests,
                     batch_rows=max(1, relation.config.tile_size),
                     enable_skipping=False)
    record_batches = []
    for batch in scan.batches():
        arrays = [vector_to_arrow(batch.column(name), pa)
                  for name in names]
        record_batches.append(
            pa.RecordBatch.from_arrays(arrays, schema=schema))
    if not record_batches:
        return schema.empty_table()
    return pa.Table.from_batches(record_batches, schema=schema)


def table_to_ipc_bytes(table) -> bytes:
    """Serialize an Arrow table to the IPC stream format (the server's
    ``export_arrow`` wire payload)."""
    pa = _pyarrow()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()
