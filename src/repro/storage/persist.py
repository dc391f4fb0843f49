"""On-disk persistence for relations.

Format v4 (``JTIL4``) lays a relation out for *random* access so the
tile store can page individual tiles in and out, and stores each tile
smaller than its JSON text:

* magic ``JTIL4`` (5 bytes),
* the blobs, streamed in write order,
* the JSON *catalog* (a footer): structural metadata (format, config,
  tiles, extracted columns, statistics, row spans) where every bulk
  payload is replaced by a blob id, plus
  - ``blob_index``: ``[offset, stored length, codec, decoded length]``
    of every blob, the codec an index into ``codecs``,
  - ``codecs``: ``["raw", "zlib"]``.  Every blob is deflated with
    ``zlib`` level 1 and kept that way when it came out smaller,
  - ``stored``: the blobs' stored bytes per kind,
* a little-endian u64 with the catalog length, then the magic again
  as a trailer (its presence proves the file is complete).

Every value is stored once (DESIGN.md §3).  The blob kinds
(``BLOB_KINDS``; ``Relation.size_report()["stored"]`` adds ``catalog``
— magic, footer and trailer — so the kinds sum to the file size):

* ``row_heap``: each tile's JSONB rows, without the leaves its
  columns hold exactly (``repro.tiles.tile``); a JSON-format
  relation's text rows,
* ``string_columns``: one blob per extracted string column, its sorted
  per-tile dictionary (``u32`` byte lengths, then the UTF-8 bytes) and
  one ``u8`` / ``u16`` (``u32`` past 65,535 values) code per row —
  the layout of the repeated columns; NULL rows code 0 and the null
  bitmap marks them,
* ``fixed_columns``: the other extracted columns' numpy values,
* ``null_bitmaps``, ``statistics`` (HyperLogLog registers and
  histograms), ``presence`` (one blob of every tile's row-presence
  bitmaps), ``repeated`` (``chain[*].key`` columns) and
  ``insert_buffer`` (the pending inserts as JSON text).

Older files (v1–v3 and early v4) may carry more: a ``bloom`` blob per
tile (the §4.4 bloom filter, which the row spans replace) and per-block
zone maps under ``block_rows`` / ``block_bounds``.  The reader ignores
them; their stored bytes still count under their own kind.

In memory a string column stays an object array (the dictionary
gathered by the codes), and each tile's catalog entry records its
in-memory size (``nbytes``), which the tile store charges while the
tile is resident.

Because every blob is independently addressable, ``load_relation``
reads only the catalog eagerly: tile headers, statistics and sketches
are restored up front (they drive planning and tile skipping), while
each tile's columns and JSONB heap stay behind a
:class:`TileSegment` that the :mod:`~repro.storage.tilestore` faults
in on first pin.  Only v4 is written.  Older files stay readable and
load through the same lazy path: v3 (rows holding every value, string
columns as ``u32`` ``(offset, length)`` refs into the row heap, with
an overflow blob for values no row holds), v2 (v3's layout with raw
blobs, ``[offset, length]`` index entries, strings as length-prefixed
copies) and v1 (leading catalog with ``blob_sizes``, blobs
concatenated after it — offsets are the running sum of the sizes).

Durability: files are written to a temp sibling, fsynced, atomically
renamed into place, and the containing directory is fsynced, so a
crash mid-checkpoint can never leave a torn ``.jtile`` where a
complete one used to be.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType, JsonType
from repro.errors import StorageError
from repro.stats.hyperloglog import HyperLogLog
from repro.stats.table_stats import (
    ColumnStatistics,
    TableStatistics,
    TileStatistics,
)
from repro.storage.column import ColumnVector, dtype_for
from repro.storage.formats import StorageFormat
from repro.storage.relation import Relation
from repro.storage.tilestore import (
    GLOBAL_TILE_STORE,
    TileHandle,
    TileStore,
    tile_nbytes,
)
from repro.tiles.extractor import ExtractionConfig
from repro.tiles.header import ExtractedColumn, TileHeader
from repro.tiles.repeated import (RepeatedColumn, code_type, pack_dictionary,
                                  unpack_dictionary)
from repro.tiles.tile import RowHeap, Tile

MAGIC_V1 = b"JTIL1"
MAGIC_V2 = b"JTIL2"
MAGIC_V3 = b"JTIL3"
MAGIC = b"JTIL4"

#: blob codecs of a v3 / v4 file, by the id its ``blob_index`` entries
#: carry
CODECS = ("raw", "zlib")
_RAW, _ZLIB = 0, 1
#: zlib level 1 deflates a Yelp JSONB heap to 0.22 at 81 MB/s; level 6
#: reaches 0.18 at 31 MB/s, which checkpoints would pay on every load
_ZLIB_LEVEL = 1
#: the offset of a v3 string ref whose bytes live in the overflow blob
_OVERFLOW = 0xFFFFFFFF

#: what each stored blob of a v4 file holds (see the module docstring);
#: ``Relation.size_report()["stored"]`` adds ``"catalog"`` (magic,
#: footer, trailer) so the parts sum to the file size
BLOB_KINDS = ("row_heap", "string_columns", "fixed_columns",
              "null_bitmaps", "statistics", "insert_buffer", "presence",
              "repeated")


class _BlobWriter:
    """Streams blobs straight into the file being written, recording
    the ``[offset, stored length, codec, decoded length]`` of each and
    the stored bytes per kind — tiles are pinned one at a time during
    a save, so peak memory stays one tile, not one relation."""

    def __init__(self, handle: BinaryIO):
        self._handle = handle
        self.index: List[List[int]] = []
        self.stored: Dict[str, int] = {}
        #: tiles' hole bitmaps, gathered into one blob at the end
        self.presence_parts: List[bytes] = []
        self.presence_size = 0

    def add_presence(self, bitmap: bytes) -> None:
        self.presence_parts.append(bitmap)
        self.presence_size += len(bitmap)

    def add(self, data: bytes, kind: str) -> int:
        packed = zlib.compress(data, _ZLIB_LEVEL)
        codec, stored = (_ZLIB, packed) if len(packed) < len(data) \
            else (_RAW, data)
        self.index.append([self._handle.tell(), len(stored), codec,
                           len(data)])
        self._handle.write(stored)
        self.stored[kind] = self.stored.get(kind, 0) + len(stored)
        return len(self.index) - 1


class _BlobSource:
    """Random access to the blobs of one ``.jtile`` file.

    Reads use ``os.pread`` so concurrent tile loads never contend on a
    shared file position.  The open descriptor keeps the *inode* alive:
    when a checkpoint atomically replaces the path, segments bound to
    the old file keep reading consistent bytes until they are re-bound
    to the new snapshot.
    """

    def __init__(self, path: Union[str, Path], index: List[List[int]]):
        self.path = Path(path)
        self.index = index
        self._file = self.path.open("rb")

    def length(self, blob_id: int) -> int:
        """Stored (on-disk) bytes of a blob."""
        return self.index[blob_id][1]

    def decoded_length(self, blob_id: int) -> int:
        """Bytes of a blob once read (v1/v2 entries are always raw)."""
        entry = self.index[blob_id]
        return entry[3] if len(entry) > 2 else entry[1]

    def __getitem__(self, blob_id: int) -> bytes:
        entry = self.index[blob_id]
        offset, length = entry[0], entry[1]
        data = os.pread(self._file.fileno(), length, offset)
        if len(data) != length:
            raise StorageError(f"{self.path} is truncated (blob {blob_id})")
        if len(entry) > 2 and entry[2] == _ZLIB:
            try:
                data = zlib.decompress(data)
            except zlib.error as exc:
                raise StorageError(
                    f"{self.path} has a corrupt blob {blob_id}: {exc}") \
                    from exc
            if len(data) != entry[3]:
                raise StorageError(
                    f"{self.path} has a corrupt blob {blob_id}: "
                    f"{len(data)} bytes decoded, {entry[3]} recorded")
        return data

    def close(self) -> None:
        self._file.close()


class TileSegment:
    """The on-disk footprint of one tile: its catalog entry plus the
    blob source to read payload bytes from.  ``nbytes`` is what the
    residency budget charges: the loaded tile's in-memory size
    (``tilestore.tile_nbytes``, recorded at save; v1/v2 files, which
    stored every string in full, fall back to the payload blobs'
    length).  ``disk_bytes`` is the blobs' stored (compressed) length."""

    def __init__(self, meta: dict, source: _BlobSource):
        self.meta = meta
        self.source = source
        blob_ids = [meta["rows"]]
        for column_meta in meta["columns"]:
            vector = column_meta["vector"]
            blob_ids.append(vector["data"])
            blob_ids.append(vector["nulls"])
            if "overflow" in vector:
                blob_ids.append(vector["overflow"])
        blob_ids.extend(entry["blob"] for entry in meta.get("repeated", ()))
        self.nbytes = meta["nbytes"] if "nbytes" in meta else sum(
            source.decoded_length(blob_id) for blob_id in blob_ids)
        self.disk_bytes = sum(source.length(blob_id) for blob_id in blob_ids)

    def load(self, header: TileHeader, first_row: int) -> Tile:
        """Fault the payload in (columns + JSONB heap) under *header*."""
        return _restore_tile_payload(self.meta, header, self.source,
                                     first_row)


def _encode_rows(rows: List[bytes]) -> bytes:
    parts = [struct.pack("<I", len(rows))]
    for row in rows:
        parts.append(struct.pack("<I", len(row)))
        parts.append(row)
    return b"".join(parts)


def _decode_rows(blob: bytes) -> List[bytes]:
    (count,) = struct.unpack_from("<I", blob, 0)
    rows = []
    pos = 4
    for _ in range(count):
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        rows.append(blob[pos : pos + length])
        pos += length
    return rows


def _string_column(vector: ColumnVector) -> Tuple[bytes, int]:
    """The ``string_columns`` blob of an object-dtype column and its
    dictionary size: the sorted distinct non-NULL values
    (:func:`~repro.tiles.repeated.pack_dictionary`; a ``str`` as UTF-8,
    whose byte order is its code point order), then one code per row
    (0 under NULL)."""
    present = ~vector.null_mask
    values = [item if isinstance(item, bytes) else str(item).encode("utf-8")
              for item in vector.data[present].tolist()]
    distinct = sorted(set(values))
    index = {value: code for code, value in enumerate(distinct)}
    codes = np.zeros(len(vector),
                     dtype=f"<u{code_type(len(distinct)).itemsize}")
    codes[present] = [index[value] for value in values]
    return pack_dictionary(distinct) + codes.tobytes(), len(distinct)


def _restore_string_column(blob: bytes, count: int, nulls: np.ndarray,
                           column_type: ColumnType) -> np.ndarray:
    """Inverse of :func:`_string_column`: the dictionary decoded once,
    gathered by the codes (``None`` under NULL)."""
    values, pos = unpack_dictionary(blob, count)
    dictionary = np.empty(count, dtype=object)
    dictionary[:] = [value.decode("utf-8") for value in values] \
        if column_type != ColumnType.JSONB else values
    codes = np.frombuffer(blob[pos:],
                          dtype=f"<u{code_type(count).itemsize}")
    if len(codes) != len(nulls):
        raise StorageError(f"string column blob holds {len(codes)} codes "
                           f"for {len(nulls)} rows")
    out = np.empty(len(codes), dtype=object)
    present = ~nulls
    out[present] = dictionary[codes[present]]
    return out


def _resolve_string_refs(refs: bytes, heap: bytes, overflow: bytes,
                         nulls: np.ndarray,
                         column_type: ColumnType) -> np.ndarray:
    """A v3 string column: each non-NULL value is a ``u32`` ``(offset,
    length)`` ref into the row heap, or into the overflow blob (in
    order) under the offset ``_OVERFLOW``; slice every value out and
    decode it once."""
    pairs = np.frombuffer(refs, dtype="<u4").reshape(-1, 2).tolist()
    as_text = column_type != ColumnType.JSONB
    out = np.empty(len(pairs), dtype=object)
    spilled = 0
    for index in np.flatnonzero(~nulls).tolist():
        offset, length = pairs[index]
        if offset == _OVERFLOW:
            value = overflow[spilled : spilled + length]
            spilled += length
        else:
            value = heap[offset : offset + length]
        out[index] = value.decode("utf-8") if as_text else value
    return out


def _decode_object_column(blob: bytes) -> np.ndarray:
    """A v1/v2 object column: length-prefixed copies of every value."""
    (count,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    out = np.empty(count, dtype=object)
    for index in range(count):
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if length == 0xFFFFFFFF:
            out[index] = None
        else:
            out[index] = blob[pos : pos + length].decode("utf-8")
            pos += length
    return out


def _column_meta(vector: ColumnVector, blobs: _BlobWriter) -> dict:
    meta = {"type": vector.type.value, "length": len(vector)}
    if vector.data.dtype == object:
        blob, meta["values"] = _string_column(vector)
        meta["layout"] = "dict"
        meta["data"] = blobs.add(blob, "string_columns")
    else:
        meta["layout"] = "raw"
        meta["data"] = blobs.add(vector.data.tobytes(), "fixed_columns")
    meta["nulls"] = blobs.add(np.packbits(vector.null_mask).tobytes(),
                              "null_bitmaps")
    return meta


def _restore_column(meta: dict, blobs, heap: bytes) -> ColumnVector:
    column_type = ColumnType(meta["type"])
    length = meta["length"]
    nulls = np.unpackbits(
        np.frombuffer(blobs[meta["nulls"]], dtype=np.uint8),
        count=length).astype(bool) if length else np.zeros(0, dtype=bool)
    layout = meta["layout"]
    if layout == "dict":
        data = _restore_string_column(blobs[meta["data"]], meta["values"],
                                      nulls, column_type)
    elif layout == "refs":
        overflow = blobs[meta["overflow"]] if "overflow" in meta else b""
        data = _resolve_string_refs(blobs[meta["data"]], heap, overflow,
                                    nulls, column_type)
    elif layout == "object":
        data = _decode_object_column(blobs[meta["data"]])
    else:
        data = np.frombuffer(blobs[meta["data"]],
                             dtype=dtype_for(column_type)).copy()
    return ColumnVector(column_type, data[:length], nulls)


def _sketch_meta(sketch: HyperLogLog, blobs: _BlobWriter) -> dict:
    return {"precision": sketch.precision,
            "registers": blobs.add(sketch.registers.tobytes(),
                                   "statistics")}


def _restore_sketch(meta: dict, blobs) -> HyperLogLog:
    sketch = HyperLogLog(meta["precision"])
    sketch.registers = np.frombuffer(blobs[meta["registers"]],
                                     dtype=np.uint8).copy()
    return sketch


def _histogram_meta(histogram, blobs: _BlobWriter) -> Optional[dict]:
    if histogram is None:
        return None
    return {"boundaries": blobs.add(histogram.boundaries.tobytes(),
                                    "statistics"),
            "counts": blobs.add(histogram.counts.tobytes(), "statistics")}


def _restore_histogram(meta: Optional[dict], blobs):
    if meta is None:
        return None
    from repro.stats.histogram import EquiDepthHistogram

    boundaries = np.frombuffer(blobs[meta["boundaries"]],
                               dtype=np.float64).copy()
    counts = np.frombuffer(blobs[meta["counts"]], dtype=np.float64).copy()
    return EquiDepthHistogram(boundaries, counts)


def _column_stats_meta(stats: ColumnStatistics, blobs: _BlobWriter) -> dict:
    return {
        "sketch": _sketch_meta(stats.sketch, blobs),
        "non_null": stats.non_null_count,
        "min": stats.min_value,
        "max": stats.max_value,
        "histogram": _histogram_meta(stats.histogram, blobs),
    }


def _restore_column_stats(meta: dict, blobs) -> ColumnStatistics:
    stats = ColumnStatistics()
    stats.sketch = _restore_sketch(meta["sketch"], blobs)
    stats.non_null_count = meta["non_null"]
    stats.min_value = meta["min"]
    stats.max_value = meta["max"]
    stats.histogram = _restore_histogram(meta.get("histogram"), blobs)
    return stats


def _tile_payload_meta(tile: Tile, blobs: _BlobWriter) -> dict:
    header = tile.header
    heap_blob = blobs.add(tile.heap.buf, "row_heap")
    columns = []
    for path, column in tile.columns.items():
        meta = header.columns[path]
        columns.append({
            "path": str(path),
            "json_type": meta.json_type.value,
            "column_type": meta.column_type.value,
            "conflicts": meta.has_type_conflicts,
            "nullable": meta.nullable,
            "datetime": meta.is_datetime,
            "vector": _column_meta(column, blobs),
        })
    tile_meta = {
        "tile_number": header.tile_number,
        "row_count": header.row_count,
        "first_row": tile.first_row,
        "max_array_elements": header.max_array_elements,
        "level": header.level,
        "key_counts": header.key_counts,
        "stats_keys": header.statistics.key_counts,
        "stats_columns": {
            str(path): _column_stats_meta(stats, blobs)
            for path, stats in header.statistics.columns.items()
        },
        "columns": columns,
        "rows": heap_blob,
        # the residency charge of the loaded tile (TileSegment.nbytes):
        # strings are codes on disk but full objects once loaded
        "nbytes": tile_nbytes(tile),
    }
    if tile.repeated:
        # repeated chain[*].key columns (DESIGN.md §5h): one blob each;
        # files written before them have no entry
        tile_meta["repeated"] = [
            {**column.meta(), "blob": blobs.add(column.to_blob(),
                                                "repeated")}
            for column in tile.repeated]
    if header.leaf_spans is not None:
        # leaf row spans (DESIGN.md §5i), grouped by span as
        # [first, end, steps, steps, ...] (most paths of a tile share
        # one span): raw step lists, not path text, so keys with dots
        # or empty keys round-trip; container spans are re-derived at
        # load
        groups: Dict[Tuple[int, int], List[KeyPath]] = {}
        for path, span in header.leaf_spans.items():
            groups.setdefault(span, []).append(path)
        tile_meta["spans"] = [[first, end, *(list(path.steps)
                                             for path in paths)]
                              for (first, end), paths in groups.items()]
        if header.leaf_holes:
            # hole bitmaps: [offset, i, j, ...] where i, j, ... number
            # the paths in the order "spans" lists them and their
            # bitmaps lie back to back from *offset* in the file's one
            # presence blob
            order = [path for paths in groups.values() for path in paths]
            numbered = [index for index, path in enumerate(order)
                        if path in header.leaf_holes]
            tile_meta["holes"] = [blobs.presence_size, *numbered]
            for index in numbered:
                blobs.add_presence(header.leaf_holes[order[index]])
    return tile_meta


def _tile_meta(tile, blobs: _BlobWriter) -> dict:
    # *tile* is a TileHandle on every normal path; raw Tiles are still
    # accepted so hand-assembled relations (tests, tools) serialize.
    if isinstance(tile, TileHandle):
        with tile.pinned() as payload:
            return _tile_payload_meta(payload, blobs)
    return _tile_payload_meta(tile, blobs)


def _restore_tile_header(meta: dict, blobs,
                         presence: Optional[bytes] = None) -> TileHeader:
    """The eagerly-resident part of a tile: schema, zone maps, row
    spans and presence — everything planning and tile skipping
    consult (an older file's bloom filter and block bounds are not
    read).  *presence* is the file's presence blob, ``None`` for
    files written before per-row presence: their spans count as full."""
    header = TileHeader(meta["tile_number"], meta["row_count"],
                        max_array_elements=meta["max_array_elements"],
                        # pre-LSM snapshots have no level key: level 0
                        level=int(meta.get("level", 0)))
    header.key_counts = dict(meta["key_counts"])
    header.statistics = TileStatistics(row_count=meta["row_count"])
    header.statistics.key_counts = dict(meta["stats_keys"])
    for path_text, stats_meta in meta["stats_columns"].items():
        header.statistics.columns[KeyPath.parse(path_text)] = \
            _restore_column_stats(stats_meta, blobs)
    for column_meta in meta["columns"]:
        header.add_column(ExtractedColumn(
            path=KeyPath.parse(column_meta["path"]),
            json_type=JsonType(column_meta["json_type"]),
            column_type=ColumnType(column_meta["column_type"]),
            has_type_conflicts=column_meta["conflicts"],
            nullable=column_meta["nullable"],
            is_datetime=column_meta["datetime"],
        ))
    header.repeated = tuple((KeyPath(tuple(entry["chain"])), entry["key"])
                            for entry in meta.get("repeated", ()))
    # files written without row spans leave them None: those tiles
    # decode every row and are never skipped for a missing path
    if "spans" in meta:
        spans = {KeyPath(tuple(steps)): (first, end)
                 for first, end, *paths in meta["spans"] for steps in paths}
        holes = None
        if presence is not None:
            # a file with presence lists the hole bitmaps of a tile
            # whose spans have holes; no entry means none has
            holes = {}
            order = list(spans)
            offset, *numbered = meta.get("holes", [0])
            for index in numbered:
                path = order[index]
                first, end = spans[path]
                size = (end - first + 7) // 8
                holes[path] = presence[offset:offset + size]
                offset += size
        header.set_leaf_spans(spans, holes)
    return header


def _restore_tile_payload(meta: dict, header: TileHeader, blobs,
                          first_row: int) -> Tile:
    """The demand-loaded part: column vectors and the JSONB heap."""
    heap = blobs[meta["rows"]]
    columns = {}
    for column_meta in meta["columns"]:
        columns[KeyPath.parse(column_meta["path"])] = \
            _restore_column(column_meta["vector"], blobs, heap)
    repeated = tuple(RepeatedColumn.from_blob(entry, blobs[entry["blob"]])
                     for entry in meta.get("repeated", ()))
    return Tile(header, columns, RowHeap.from_blob(heap), first_row,
                repeated)


def _table_stats_meta(stats: TableStatistics, blobs: _BlobWriter) -> dict:
    return {
        "row_count": stats.row_count,
        "frequencies": {key: list(entry)
                        for key, entry in stats.frequencies._slots.items()},
        "sketches": {
            str(path): {"sketch": _sketch_meta(sketch, blobs), "tile": tile}
            for path, (sketch, tile) in stats._sketches.items()
        },
        "bounds": {str(path): list(bounds)
                   for path, bounds in stats._bounds.items()},
        "histograms": {
            str(path): _histogram_meta(histogram, blobs)
            for path, histogram in stats._histograms.items()
        },
    }


def _restore_table_stats(meta: dict, blobs) -> TableStatistics:
    stats = TableStatistics()
    stats.row_count = meta["row_count"]
    for key, (count, tile) in meta["frequencies"].items():
        stats.frequencies._slots[key] = (count, tile)
    for path_text, entry in meta["sketches"].items():
        stats._sketches[KeyPath.parse(path_text)] = (
            _restore_sketch(entry["sketch"], blobs), entry["tile"])
    for path_text, bounds in meta["bounds"].items():
        stats._bounds[KeyPath.parse(path_text)] = tuple(bounds)
    for path_text, histogram_meta in meta.get("histograms", {}).items():
        restored = _restore_histogram(histogram_meta, blobs)
        if restored is not None:
            stats._histograms[KeyPath.parse(path_text)] = restored
    return stats


def _config_meta(config: ExtractionConfig) -> dict:
    return {
        "tile_size": config.tile_size,
        "partition_size": config.partition_size,
        "threshold": config.threshold,
        "mining_budget": config.mining_budget,
        "max_array_elements": config.max_array_elements,
        "detect_dates": config.detect_dates,
        "enable_reordering": config.enable_reordering,
    }


def _relation_meta(relation: Relation, blobs: _BlobWriter,
                   rebinds: Optional[list] = None) -> dict:
    meta = {
        "name": relation.name,
        "format": relation.format.value,
        "config": _config_meta(relation.config),
        "statistics": _table_stats_meta(relation.statistics, blobs),
        "array_paths": [str(path) for path in relation.array_paths],
        "children": {
            path_text: _relation_meta(child, blobs, rebinds)
            for path_text, child in relation.children.items()
        },
    }
    if relation.text_rows is not None:
        meta["text_rows"] = blobs.add(_encode_rows(
            [row.encode("utf-8") for row in relation.text_rows]),
            "row_heap")
    else:
        tiles_meta = []
        for tile in relation.tiles:
            tile_meta = _tile_meta(tile, blobs)
            tiles_meta.append(tile_meta)
            if rebinds is not None and isinstance(tile, TileHandle):
                rebinds.append((tile, tile_meta))
        meta["tiles"] = tiles_meta
        # pending (unsealed) inserts round-trip as documents instead of
        # being force-sealed into an undersized tile at save time
        buffered = relation.snapshot_insert_buffer()
        if buffered:
            meta["insert_buffer"] = blobs.add(_encode_rows(
                [json.dumps(document, separators=(",", ":")).encode("utf-8")
                 for document in buffered]), "insert_buffer")
    return meta


def _restore_relation(meta: dict, source: _BlobSource,
                      store: TileStore,
                      presence: Optional[bytes] = None) -> Relation:
    config = ExtractionConfig(**meta["config"])
    relation = Relation(meta["name"], StorageFormat(meta["format"]), config)
    relation.statistics = _restore_table_stats(meta["statistics"], source)
    relation.array_paths = [KeyPath.parse(p) for p in meta["array_paths"]]
    for path_text, child_meta in meta["children"].items():
        relation.children[path_text] = _restore_relation(
            child_meta, source, store, presence)
    if "text_rows" in meta:
        relation.text_rows = [row.decode("utf-8") for row in
                              _decode_rows(source[meta["text_rows"]])]
    else:
        relation.text_rows = None
        for tile_meta in meta["tiles"]:
            header = _restore_tile_header(tile_meta, source, presence)
            segment = TileSegment(tile_meta, source)
            handle = TileHandle.stored(header, tile_meta["first_row"],
                                       segment, store, relation.name)
            handle.owner = relation
            relation.tiles.append(handle)
        if "insert_buffer" in meta:
            relation._insert_buffer = [
                json.loads(row.decode("utf-8"))
                for row in _decode_rows(source[meta["insert_buffer"]])]
    return relation


def _fsync_directory(directory: Path) -> None:
    """Make a just-renamed file's directory entry durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_relation(relation: Relation, path: Union[str, Path],
                  extra: Optional[dict] = None,
                  rebind: bool = True) -> int:
    """Write the relation (and its Tiles-* children) to *path*;
    returns the number of bytes written.

    The file is written to a temp sibling, fsynced, atomically renamed
    into place, and the directory entry fsynced, so a crash mid-save
    never leaves a torn ``.jtile`` behind.  Tiles are pinned one at a
    time while streaming, so saving never needs the whole relation
    resident.  With *rebind* (the default) every tile handle is
    re-pointed at its segment in the new snapshot afterwards and
    becomes clean — i.e. evictable — which is how dirty (freshly
    sealed or updated) tiles re-enter the paging pool.

    *extra* is an optional JSON-serializable dict stored alongside the
    catalog (read back with :func:`read_relation_extra`) — the server
    records its WAL position there so snapshot + position commit
    atomically.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    rebinds: list = []
    with temp.open("wb") as handle:
        handle.write(MAGIC)
        blobs = _BlobWriter(handle)
        catalog = _relation_meta(relation, blobs,
                                 rebinds if rebind else None)
        # the hole bitmaps of every tile, as the file's last blob
        # (empty when no span has holes: its presence alone tells a
        # load that spans without bitmaps are full)
        catalog["presence"] = blobs.add(b"".join(blobs.presence_parts),
                                        "presence")
        catalog["codecs"] = list(CODECS)
        catalog["stored"] = blobs.stored
        catalog["blob_index"] = blobs.index
        if extra is not None:
            catalog["extra"] = extra
        footer = json.dumps(catalog, separators=(",", ":")).encode("utf-8")
        handle.write(footer)
        handle.write(struct.pack("<Q", len(footer)))
        handle.write(MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    _fsync_directory(path.parent)
    if rebinds:
        source = _BlobSource(path, blobs.index)
        for tile_handle, tile_meta in rebinds:
            tile_handle.rebind(TileSegment(tile_meta, source))
    size = path.stat().st_size
    relation.stored_bytes = _stored_breakdown(blobs.stored, size)
    return size


def _stored_breakdown(stored: Dict[str, int], file_size: int) -> Dict[str, int]:
    """Stored bytes per blob kind plus ``catalog`` (everything that is
    not a blob), summing to *file_size*."""
    breakdown = {kind: stored.get(kind, 0) for kind in BLOB_KINDS}
    # a v3 file's string refs and overflow keep their own kinds
    breakdown.update(stored)
    breakdown["catalog"] = file_size - sum(breakdown.values())
    return breakdown


def _open_catalog(path: Path) -> Tuple[dict, List[List[int]]]:
    """Read the catalog of any format version; returns it together
    with the blob index (``[offset, length]`` entries computed from the
    running sum of ``blob_sizes`` for v1 files)."""
    size = path.stat().st_size
    trailer_len = 8 + len(MAGIC)
    with path.open("rb") as handle:
        magic = handle.read(len(MAGIC))
        try:
            if magic in (MAGIC, MAGIC_V3, MAGIC_V2):
                if size < len(MAGIC) + trailer_len:
                    raise StorageError(f"{path} is truncated")
                handle.seek(size - trailer_len)
                tail = handle.read(trailer_len)
                (footer_len,) = struct.unpack("<Q", tail[:8])
                if tail[8:] != magic:
                    raise StorageError(
                        f"{path} is truncated (footer trailer missing)")
                footer_start = size - trailer_len - footer_len
                if footer_start < len(MAGIC):
                    raise StorageError(f"{path} is truncated")
                handle.seek(footer_start)
                catalog = json.loads(
                    handle.read(footer_len).decode("utf-8"))
                if magic != MAGIC_V2 \
                        and catalog.get("codecs") != list(CODECS):
                    raise StorageError(f"{path} uses unknown blob codecs "
                                       f"{catalog.get('codecs')}")
                return catalog, catalog["blob_index"]
            if magic == MAGIC_V1:
                (header_len,) = struct.unpack("<Q", handle.read(8))
                raw = handle.read(header_len)
                if len(raw) != header_len:
                    raise StorageError(f"{path} is truncated")
                catalog = json.loads(raw.decode("utf-8"))
                offset = len(MAGIC_V1) + 8 + header_len
                index = []
                for blob_size in catalog["blob_sizes"]:
                    index.append([offset, blob_size])
                    offset += blob_size
                if offset > size:
                    raise StorageError(f"{path} is truncated")
                return catalog, index
        except (struct.error, ValueError, UnicodeDecodeError, KeyError) as exc:
            raise StorageError(f"{path} has a corrupt catalog: {exc}") from exc
    raise StorageError(f"{path} is not a JSON-tiles relation file")


def load_relation(path: Union[str, Path],
                  store: Optional[TileStore] = None) -> Relation:
    """Open a relation written by :func:`save_relation` (any format
    version).  Only headers and statistics are read eagerly; tile
    payloads page in through *store* (default: the process-wide
    :data:`~repro.storage.tilestore.GLOBAL_TILE_STORE`) on first use.
    """
    path = Path(path)
    catalog, index = _open_catalog(path)
    source = _BlobSource(path, index)
    try:
        # files written before per-row presence have no presence blob
        presence = source[catalog["presence"]] \
            if "presence" in catalog else None
        relation = _restore_relation(
            catalog, source, store if store is not None else GLOBAL_TILE_STORE,
            presence)
    except (KeyError, IndexError, ValueError, struct.error) as exc:
        raise StorageError(f"{path} is corrupt: {exc}") from exc
    if "stored" in catalog:  # v1/v2 files carry no per-kind tally
        relation.stored_bytes = _stored_breakdown(catalog["stored"],
                                                  path.stat().st_size)
    return relation


def read_relation_extra(path: Union[str, Path]) -> dict:
    """The ``extra`` dict stored with :func:`save_relation` (reads only
    the catalog, not the blob payloads)."""
    catalog, _index = _open_catalog(Path(path))
    return catalog.get("extra", {})


def save_database(db, directory: Union[str, Path]) -> Dict[str, int]:
    """Persist every (non-child) table of a Database into *directory*;
    returns bytes written per table."""
    from repro.database import Database

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    child_names = set()
    for name, relation in db.tables.items():
        for path_text in relation.children:
            child_names.add(Database._child_table_name(name, path_text))
    seen = set()
    for name, relation in db.tables.items():
        if name in child_names or id(relation) in seen:
            continue
        seen.add(id(relation))
        written[name] = save_relation(relation, directory / f"{name}.jtile")
    _fsync_directory(directory)
    return written


def open_database(directory: Union[str, Path], database_cls=None):
    """Open a directory written by :func:`save_database`."""
    from repro.database import Database

    directory = Path(directory)
    db = (database_cls or Database)()
    for path in sorted(directory.glob("*.jtile")):
        relation = load_relation(path)
        db.register(path.stem, relation)
    return db
