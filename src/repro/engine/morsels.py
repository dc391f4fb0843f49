"""Morsel-driven parallelism (Section 4: "tiles integrate into the
relational engine like any other scan; morsel-driven parallelism
dispatches tile-granular work to worker threads").

A *morsel* is one batch-sized slice of one tile — the unit of work a
worker thread picks up.  The module owns the process-wide worker pool
shared by every parallel operator (and by all of the server's
concurrent queries): numpy kernels release the GIL, so scan
conversion, predicate evaluation and vectorized aggregation overlap
across threads even in CPython.

Determinism contract: :func:`run_ordered` yields results in morsel
order regardless of which worker finishes first, and the merge stages
in ``operators.py`` fold partial states in that same order — parallel
execution replays the exact float-operation sequence of the serial
engine, so results are bit-identical at any worker count.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Morsel:
    """One unit of scan work: a row range of one tile.

    ``tile`` is a :class:`~repro.storage.tilestore.TileHandle`; the
    worker that resolves the morsel pins it for the duration, so a
    paged-out payload is faulted in at most once per morsel and can't
    be evicted mid-resolution.  ``tile`` is ``None`` for the raw-text
    storage format, where the range indexes the relation's text rows
    instead.

    Morsels are enumerated from an epoch-stamped level manifest
    (``relation.manifest()``, DESIGN.md §8), so the handle may belong
    to a tile set an LSM compaction has since superseded; the handle
    stays resolvable for the scan that enumerated it (ordinary
    reference semantics plus the pin protocol), and the append guard
    keeps swaps out of read critical sections.
    """

    index: int
    tile: Optional[object]
    start: int
    stop: int


def default_parallelism() -> int:
    """Worker count from ``REPRO_PARALLELISM`` (default: serial)."""
    raw = os.environ.get("REPRO_PARALLELISM", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ----------------------------------------------------------------------
# the shared worker pool

_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0

_stats_lock = threading.Lock()
_tasks_submitted = 0
_tasks_completed = 0
_tasks_active = 0
_busy_seconds = 0.0


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared morsel pool, grown to at least *workers* threads.

    One pool serves every query in the process: tasks are independent
    (no task ever submits to the pool itself), so sharing cannot
    deadlock — it only queues.  The server keeps its per-connection
    query pool separate from this one for the same reason.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < workers:
            old = _pool
            _pool = ThreadPoolExecutor(
                max_workers=max(2, workers),
                thread_name_prefix="repro-morsel")
            _pool_size = max(2, workers)
            if old is not None:
                old.shutdown(wait=False)
        return _pool


def shutdown_pool() -> None:
    """Tear down the shared pool (tests / interpreter exit)."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
            _pool_size = 0


def _tracked(fn: Callable[[], T]) -> T:
    global _tasks_completed, _tasks_active, _busy_seconds
    with _stats_lock:
        _tasks_active += 1
    started = time.perf_counter()
    try:
        return fn()
    finally:
        elapsed = time.perf_counter() - started
        with _stats_lock:
            _tasks_active -= 1
            _tasks_completed += 1
            _busy_seconds += elapsed


def pool_stats() -> dict:
    """Worker-pool utilization counters for the server's ``stats``."""
    with _stats_lock:
        return {
            "workers": _pool_size,
            "active": _tasks_active,
            "tasks_submitted": _tasks_submitted,
            "tasks_completed": _tasks_completed,
            "busy_seconds": round(_busy_seconds, 6),
        }


def run_ordered(fns: Sequence[Callable[[], T]], workers: int,
                window: Optional[int] = None) -> Iterator[T]:
    """Run *fns* on the shared pool, yielding results in input order.

    A bounded submission window (default ``2 * workers``) keeps memory
    flat on large scans: at most ``window`` morsels are in flight or
    buffered ahead of the consumer.  With ``workers <= 1`` the tasks
    run inline — the serial engine, untouched.
    """
    global _tasks_submitted
    fns = list(fns)
    if workers <= 1 or len(fns) <= 1:
        for fn in fns:
            yield fn()
        return
    pool = get_pool(workers)
    limit = window or max(2, 2 * workers)
    pending: deque = deque()
    index = 0
    try:
        while pending or index < len(fns):
            while index < len(fns) and len(pending) < limit:
                with _stats_lock:
                    _tasks_submitted += 1
                pending.append(pool.submit(_tracked, fns[index]))
                index += 1
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def map_ordered(fn: Callable[..., T], items: Iterable,
                workers: int) -> list:
    """Eager ordered map over the shared pool (small fan-outs)."""
    thunks = [(lambda item=item: fn(item)) for item in items]
    return list(run_ordered(thunks, workers))


def canonical_chop(batch_rows: int, tile_size: int) -> int:
    """The canonical scan block: tiles are chopped at multiples of
    ``min(batch_rows, tile_size)`` rows, not at their physical row
    counts.  Legacy tiles never exceed ``tile_size`` rows, so nothing
    changes for them — but an LSM-merged tile (fanout × tile_size
    rows) is sliced exactly where its inputs' boundaries were, which
    keeps per-batch float folds bit-exact with compaction on or off.
    The per-block zone maps (DESIGN.md §9) are defined over the same
    chop, so ``TableScan.morsels`` and the cluster's
    ``partial._chunk_spans`` prune identical row ranges."""
    return max(1, min(batch_rows, tile_size))


def block_ranges(total: int, block: int) -> Iterator[tuple]:
    """Aligned ``[start, stop)`` ranges of size *block* covering
    ``range(total)`` (the last range may be short).

    This is the unit the cluster's process-external partial merge is
    defined over (``repro.engine.partial``): slicing a shard's local
    rows at multiples of the tile size — independent of where the
    shard's actual tile boundaries drifted to — reproduces the batch
    boundaries a canonical single-node load would have used, which is
    what makes cross-process partial-aggregate merges bit-identical.
    """
    if block <= 0:
        raise ValueError(f"block size must be positive, got {block}")
    for start in range(0, total, block):
        yield start, min(start + block, total)
