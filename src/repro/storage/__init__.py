"""Columnar storage: relations of tiles, bulk loading, formats,
compression.

* :class:`StorageFormat` — the five internal competitors of Section 6.
* :func:`load_documents` / :func:`load_json_lines` — bulk loading with
  reordering, extraction and the Figure 16 phase breakdown.
* :class:`Relation` — tiles + statistics + updates (Section 4.7).
* :mod:`repro.storage.persist` — the ``.jtile`` file format (shared
  strings, ``zlib``-compressed blobs) and save/open.
* :mod:`repro.storage.compression` — from-scratch LZ4 block codec for
  the Table 6 accounting in :meth:`Relation.size_report`; it is not on
  the write path (pure Python, far too slow for checkpoints).
"""

from repro.storage.column import ColumnBuilder, ColumnVector
from repro.storage.formats import StorageFormat
from repro.storage.loader import load_documents, load_json_lines
from repro.storage.persist import (
    load_relation,
    open_database,
    save_database,
    save_relation,
)
from repro.storage.relation import Relation

__all__ = [
    "ColumnBuilder",
    "ColumnVector",
    "Relation",
    "StorageFormat",
    "load_documents",
    "load_json_lines",
    "load_relation",
    "open_database",
    "save_database",
    "save_relation",
]
