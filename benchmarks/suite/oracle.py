"""Correctness oracle: the same documents in ``StorageFormat.JSONB``
(no tiles, no extraction) queried with skipping, statistics and the
batch kernels off — the per-tuple reference paths of the engine."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import common  # noqa: F401  (puts src/ on sys.path)

from repro import Database, QueryOptions, StorageFormat

ORACLE_OPTIONS = QueryOptions(enable_skipping=False, use_statistics=False,
                              enable_kernels=False, tile_cache=False)


def oracle_database(table: str, documents: Sequence[object],
                    aliases: Iterable[str] = ()) -> Database:
    db = Database(StorageFormat.JSONB)
    relation = db.load_table(table, documents, StorageFormat.JSONB)
    for alias in aliases:
        db.register(alias, relation)
    return db


def _same(left: object, right: object) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) \
                or not isinstance(right, (int, float)):
            return False
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
    return left == right


def rows_differ(got: Sequence[Sequence], want: Sequence[Sequence]
                ) -> Optional[str]:
    """None when the row lists agree (floats to 1e-9 relative),
    otherwise where they first differ."""
    if len(got) != len(want):
        return f"{len(got)} rows, oracle has {len(want)}"
    for index, (left, right) in enumerate(zip(got, want)):
        if len(left) != len(right) or not all(map(_same, left, right)):
            return f"row {index}: {tuple(left)!r} != oracle {tuple(right)!r}"
    return None
