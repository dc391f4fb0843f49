"""Bulk loading (Sections 3.2, 6.8).

The loader turns a stream of documents (parsed dicts or JSON text
lines) into a :class:`~repro.storage.relation.Relation`:

1. *parse* the text (when text is given),
2. *walk* — one walk per document collects its typed key paths into
   the partition's item dictionary (the mining input); without
   extraction the same walk writes the document's JSONB,
3. *reorder* each partition of ``partition_size`` tiles (TILES only),
4. *mine + extract* tiles (TILES/SINEW) and collect statistics; each
   tile encodes its rows once, under its schema, without the values
   its columns hold (``repro.tiles.tile``),
5. for TILES_STAR, detect high-cardinality arrays and load them into
   child relations first.

Each phase is timed into ``relation.load_breakdown`` (Figure 16):
``write_jsonb`` is the encoding of the rows, ``mining`` the item walk
of extracting formats plus per-tile dictionaries, schema choice and
date detection.  The walk runs in the calling process; partitions are
disjoint, so ``num_workers > 1`` then builds them in parallel worker
processes (Figure 17's parallel loading).
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.jsonpath import KeyPath
from repro.mining.dictionary import (
    ItemDictionary,
    encode_documents,
    subset_dictionary,
)
from repro.storage.formats import StorageFormat
from repro.storage.relation import Relation
from repro.tiles.arrays import (
    detect_high_cardinality_arrays,
    extract_array_documents,
    strip_extracted_arrays,
)
from repro.tiles.extractor import (
    ExtractionConfig,
    TileSchema,
    build_tile,
    choose_schema,
    walk_documents,
)
from repro.tiles.reorder import apply_order, reorder_transactions
from repro.tiles.tile import Tile

DocumentInput = Union[str, dict, list]


def _parse_documents(rows: Sequence[DocumentInput],
                     timings: Dict[str, float]) -> List[object]:
    started = time.perf_counter()
    documents = [json.loads(row) if isinstance(row, str) else row
                 for row in rows]
    timings["parse"] = timings.get("parse", 0.0) + time.perf_counter() - started
    return documents


def _encode_partition(documents: Sequence[object], config: ExtractionConfig,
                      timings: Dict[str, float], extract: bool,
                      ) -> Tuple[Optional[List[bytes]], ItemDictionary,
                                 List[List[int]]]:
    """The one walk per document (:func:`walk_documents`): the
    partition's transactions, plus its JSONB rows when nothing is
    extracted."""
    started = time.perf_counter()
    rows, (dictionary, transactions) = walk_documents(
        documents, config, encode=not extract)
    phase = "mining" if extract else "write_jsonb"
    timings[phase] = (timings.get(phase, 0.0)
                      + time.perf_counter() - started)
    return rows, dictionary, transactions


def _sinew_schema(documents: Sequence[object],
                  config: ExtractionConfig) -> TileSchema:
    """Sinew's global schema: keys above the table-wide 60 % frequency
    cutoff [57].  Computed from a single-threaded pass over all key
    paths, which is exactly why Sinew's loading is slower (Figure 17)."""
    dictionary, _transactions = encode_documents(
        documents, config.max_array_elements
    )
    return choose_schema(dictionary, len(documents), config)


def _build_partition(args: Tuple) -> Tuple[List[Tile], Dict[str, float]]:
    """Build all tiles of one partition (worker-process entry point).

    The partition's documents were walked once; the transactions of
    that walk drive both the reordering and the per-tile extraction.
    """
    (documents, jsonb_rows, dictionary, transactions, config,
     first_tile_number, first_row, storage_format, schema) = args
    timings: Dict[str, float] = {}
    extract = storage_format.extracts_columns
    if storage_format in (StorageFormat.TILES, StorageFormat.TILES_STAR) \
            and config.enable_reordering:
        started = time.perf_counter()
        order = reorder_transactions(transactions, config)
        documents = apply_order(documents, order)
        transactions = apply_order(transactions, order)
        timings["reorder"] = time.perf_counter() - started
    tiles = []
    tile_size = config.tile_size
    for offset in range(0, len(documents), tile_size):
        started = time.perf_counter()
        encoded = subset_dictionary(
            dictionary, transactions[offset : offset + tile_size])
        timings["mining"] = (timings.get("mining", 0.0)
                             + time.perf_counter() - started)
        tiles.append(
            build_tile(documents[offset : offset + tile_size],
                       None if jsonb_rows is None
                       else jsonb_rows[offset : offset + tile_size], config,
                       first_tile_number + offset // tile_size,
                       first_row + offset,
                       schema=schema if extract and schema else None,
                       mine=extract, timings=timings, encoded=encoded,
                       repeat_arrays=storage_format.repeats_arrays)
        )
    return tiles, timings


# partitions handed to forked workers by index (fork shares the parent
# address space, so the documents are not pickled per job)
_WORKER_JOBS: List[Tuple] = []


def _build_partition_by_index(index: int):
    return _build_partition(_WORKER_JOBS[index])


def _run_jobs_parallel(jobs: List[Tuple], num_workers: int):
    import multiprocessing

    global _WORKER_JOBS
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
        with context.Pool(num_workers) as pool:
            return pool.map(_build_partition, jobs)
    _WORKER_JOBS = jobs
    try:
        with context.Pool(num_workers) as pool:
            return pool.map(_build_partition_by_index, range(len(jobs)))
    finally:
        _WORKER_JOBS = []


def load_documents(
    name: str,
    rows: Sequence[DocumentInput],
    storage_format: StorageFormat = StorageFormat.TILES,
    config: Optional[ExtractionConfig] = None,
    array_paths: Optional[Sequence[KeyPath]] = None,
    auto_detect_arrays: bool = False,
    num_workers: int = 1,
) -> Relation:
    """Bulk-load *rows* (JSON text lines or parsed documents) into a new
    relation stored in *storage_format*.

    ``array_paths`` explicitly lists high-cardinality arrays for
    TILES_STAR; ``auto_detect_arrays`` detects them instead.
    """
    config = config or ExtractionConfig()
    relation = Relation(name, storage_format, config)
    timings: Dict[str, float] = {}
    total_start = time.perf_counter()

    documents = _parse_documents(rows, timings)

    if storage_format == StorageFormat.JSON:
        relation.text_rows = [
            row if isinstance(row, str) else json.dumps(row) for row in rows
        ]
        relation.load_breakdown = timings
        relation.load_breakdown["total"] = time.perf_counter() - total_start
        return relation

    # Tiles-*: pull high-cardinality arrays into child relations first
    if storage_format == StorageFormat.TILES_STAR:
        paths = list(array_paths or [])
        if auto_detect_arrays and not paths:
            paths = [d.path for d in detect_high_cardinality_arrays(documents)]
        relation.array_paths = paths
        for path in paths:
            children = extract_array_documents(documents, path)
            child = load_documents(
                f"{name}.{path}", children, StorageFormat.TILES, config,
                num_workers=num_workers,
            )
            relation.children[str(path)] = child
        if paths:
            documents = [strip_extracted_arrays(doc, paths)
                         for doc in documents]

    schema: Optional[TileSchema] = None
    if storage_format == StorageFormat.SINEW:
        started = time.perf_counter()
        schema = _sinew_schema(documents, config)
        timings["mining"] = (timings.get("mining", 0.0)
                             + time.perf_counter() - started)

    # without extraction nothing is reordered or mined across tiles, so
    # each tile is its own partition (and its dictionary is the one its
    # own documents produce)
    partition_rows = config.tile_size * (
        config.partition_size if storage_format.extracts_columns else 1)
    parallel = num_workers > 1 and len(documents) > partition_rows

    def encode_job(start: int) -> Tuple:
        part = documents[start : start + partition_rows]
        part_rows, dictionary, transactions = _encode_partition(
            part, config, timings, storage_format.extracts_columns)
        return (part, part_rows, dictionary, transactions, config,
                start // config.tile_size, start, storage_format, schema)

    starts = range(0, len(documents), partition_rows)
    if parallel:
        results = _run_jobs_parallel([encode_job(start) for start in starts],
                                     num_workers)
    else:
        # walk each partition just before it is built
        results = (_build_partition(encode_job(start)) for start in starts)
    for tiles, job_timings in results:
        # bulk-loaded tiles enter as dirty handles (no on-disk copy
        # until the first checkpoint), so the store never evicts them
        relation.tiles.extend(relation.adopt_tile(tile) for tile in tiles)
        for phase, seconds in job_timings.items():
            timings[phase] = timings.get(phase, 0.0) + seconds
    for tile in relation.tiles:
        relation.statistics.absorb_tile(tile.header.tile_number,
                                        tile.header.statistics)
    relation.load_breakdown = timings
    relation.load_breakdown["total"] = time.perf_counter() - total_start
    return relation


def load_json_lines(
    name: str,
    lines: Iterable[str],
    storage_format: StorageFormat = StorageFormat.TILES,
    **kwargs,
) -> Relation:
    """Convenience wrapper over :func:`load_documents` for ndjson."""
    return load_documents(name, list(lines), storage_format, **kwargs)
