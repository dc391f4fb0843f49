"""Per-table write-ahead logging for the ingest path.

Durability contract (the paper's §4.7 visibility rule, made crash
safe): an ``insert`` is acknowledged only after its document is
appended (and optionally fsync'ed) to the table's WAL segment.  Tiles
are sealed from the in-memory buffer later, in the background; a
checkpoint persists the relation — sealed tiles *and* the still
buffered tail — via ``storage/persist.py`` and then truncates the WAL.

Crash-recovery bookkeeping uses epochs instead of a separate position
file, so there is no window where the snapshot and the WAL disagree:

* every WAL segment carries an *epoch* in its header; truncation
  atomically replaces the segment with an empty one at ``epoch + 1``;
* a checkpoint stores ``(epoch, record_count)`` *inside* the ``.jtile``
  snapshot (``save_relation(extra=...)``), committing snapshot and WAL
  position in one atomic rename;
* replay skips the first ``record_count`` records when the on-disk
  epoch still equals the snapshot's epoch (crash after snapshot
  rename, before truncate) and replays everything when the epoch is
  newer (normal restart).

Replication (DESIGN.md §7) adds a *cumulative* coordinate system on
top of the per-segment one: each segment header also stores ``base``,
the number of records that lived in earlier epochs of the same table.
``base + record_count`` is the table's total acknowledged record count
across all epochs — a monotone shipping offset that survives
checkpoint truncation.  Truncation archives the sealed segment under
``wal/archive/`` (pruned to the newest few) so a replica that is a few
epochs behind can still :meth:`~WriteAheadLog.fetch` the records it
missed; a replica further behind than the archive window must resync
from the primary's documents instead.

File layout: magic ``JWAL2``, little-endian u32 epoch, u64 base, then
records of ``u32 length | u32 crc32 | payload`` where the payload is
the UTF-8 JSON document.  ``JWAL1`` segments (no base field) are still
readable — their base is taken as zero.  A torn tail (partial record
or crc mismatch) is dropped on open — those records were never
acknowledged.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import StorageError

WAL_MAGIC = b"JWAL2"
WAL_MAGIC_V1 = b"JWAL1"
_HEADER = struct.Struct("<IQ")         # epoch, cumulative base
_HEADER_V1 = struct.Struct("<I")       # epoch only
_RECORD = struct.Struct("<II")         # payload length, crc32
_HEADER_BYTES = len(WAL_MAGIC) + _HEADER.size

#: how many archived (truncated) segments to keep per table for
#: replica catch-up before they are pruned
ARCHIVE_KEEP = 16


def _scan(data: bytes, path: Path) -> Tuple[int, int, int, List[bytes]]:
    """Validate *data*; returns (epoch, base, valid prefix bytes,
    payloads).  Accepts both the current ``JWAL2`` and the legacy
    ``JWAL1`` layout (base 0)."""
    magic = data[:len(WAL_MAGIC)]
    if magic == WAL_MAGIC:
        if len(data) < _HEADER_BYTES:
            raise StorageError(f"{path} is not a WAL segment")
        epoch, base = _HEADER.unpack_from(data, len(WAL_MAGIC))
        pos = _HEADER_BYTES
    elif magic == WAL_MAGIC_V1:
        if len(data) < len(WAL_MAGIC_V1) + _HEADER_V1.size:
            raise StorageError(f"{path} is not a WAL segment")
        (epoch,) = _HEADER_V1.unpack_from(data, len(WAL_MAGIC_V1))
        base = 0
        pos = len(WAL_MAGIC_V1) + _HEADER_V1.size
    else:
        raise StorageError(f"{path} is not a WAL segment")
    payloads: List[bytes] = []
    while pos + _RECORD.size <= len(data):
        length, crc = _RECORD.unpack_from(data, pos)
        end = pos + _RECORD.size + length
        if end > len(data):
            break  # torn tail: record was cut mid-write
        payload = data[pos + _RECORD.size : end]
        if zlib.crc32(payload) != crc:
            break  # torn tail: payload corrupted
        payloads.append(payload)
        pos = end
    return epoch, base, pos, payloads


class WriteAheadLog:
    """One append-only segment file for one table."""

    def __init__(self, path: Union[str, Path], sync: bool = True,
                 archive: bool = True, archive_keep: int = ARCHIVE_KEEP):
        self.path = Path(path)
        self.sync = sync
        #: keep truncated segments under ``archive/`` for replica
        #: catch-up; off for journals, whose history has no reader
        self.archive = archive
        self.archive_keep = archive_keep
        self._lock = threading.Lock()
        self._handle = None
        self.epoch = 1
        self.base = 0
        self.record_count = 0
        self._open()

    def _open(self) -> None:
        if self.path.exists():
            data = self.path.read_bytes()
            epoch, base, valid, payloads = _scan(data, self.path)
            self.epoch = epoch
            self.base = base
            self.record_count = len(payloads)
            self._handle = self.path.open("r+b")
            if valid < len(data):  # drop the unacknowledged torn tail
                self._handle.truncate(valid)
            self._handle.seek(valid)
        else:
            self._handle = self.path.open("w+b")
            self._handle.write(WAL_MAGIC + _HEADER.pack(self.epoch,
                                                        self.base))
            self._flush()

    def _flush(self) -> None:
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------

    def append(self, document: object) -> int:
        """Durably log one document; returns the new record count."""
        return self.append_many([document])

    def append_many(self, documents: Iterable[object]) -> int:
        """Durably log a batch with a single flush/fsync (group commit)."""
        parts = []
        count = 0
        for document in documents:
            # the whole batch is serialized before the first byte is
            # written, so a string UTF-8 cannot hold (a lone surrogate)
            # raises here with nothing of the batch logged; the server
            # refuses such documents earlier (Relation.accept_document)
            payload = json.dumps(document, ensure_ascii=False,
                                 separators=(",", ":")).encode("utf-8")
            parts.append(_RECORD.pack(len(payload), zlib.crc32(payload)))
            parts.append(payload)
            count += 1
        if not count:
            return self.record_count
        with self._lock:
            self._handle.write(b"".join(parts))
            self._flush()
            self.record_count += count
            return self.record_count

    def replay(self) -> List[object]:
        """Every acknowledged document in the segment, in append order."""
        with self._lock:
            data = self.path.read_bytes()
        _epoch, _base, _valid, payloads = _scan(data, self.path)
        return [json.loads(payload.decode("utf-8")) for payload in payloads]

    def position(self) -> Dict[str, int]:
        """The ``(epoch, records)`` pair a checkpoint stores in its
        snapshot — see :func:`records_to_skip`."""
        with self._lock:
            return {"epoch": self.epoch, "records": self.record_count}

    def total_records(self) -> int:
        """Cumulative acknowledged records across all epochs — the
        monotone offset replicas ship against."""
        with self._lock:
            return self.base + self.record_count

    def truncate(self) -> None:
        """Atomically replace the segment with an empty next-epoch one
        (called after a checkpoint made its records redundant).  The
        sealed segment is archived for replica catch-up first."""
        with self._lock:
            next_epoch = self.epoch + 1
            next_base = self.base + self.record_count
            if self.archive and self.record_count:
                archive_dir = self.path.parent / "archive"
                archive_dir.mkdir(exist_ok=True)
                final = archive_dir / \
                    f"{self.path.stem}.{self.epoch:08d}.wal"
                # copy to a .tmp name then rename, so a concurrent
                # ``fetch`` never observes a half-copied archive (the
                # .tmp suffix also keeps it out of the archive glob)
                temp_archive = final.with_name(final.name + ".tmp")
                shutil.copy2(self.path, temp_archive)
                os.replace(temp_archive, final)
                self._prune_archives(archive_dir)
            temp = self.path.with_name(self.path.name + ".tmp")
            with temp.open("wb") as handle:
                handle.write(WAL_MAGIC + _HEADER.pack(next_epoch, next_base))
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(temp, self.path)
            self.epoch = next_epoch
            self.base = next_base
            self.record_count = 0
            self._handle = self.path.open("r+b")
            self._handle.seek(0, os.SEEK_END)

    def _prune_archives(self, archive_dir: Path) -> None:
        archives = sorted(archive_dir.glob(f"{self.path.stem}.*.wal"))
        stale = archives[:-self.archive_keep]
        # a crash between copy and rename can strand a .tmp copy
        stale += list(archive_dir.glob(f"{self.path.stem}.*.wal.tmp"))
        for path in stale:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass

    # ------------------------------------------------------------------

    def fetch(self, from_total: int, limit: int = 10000
              ) -> Tuple[List[object], int]:
        """Records starting at cumulative offset *from_total*, reading
        archived segments when the offset predates the live one.
        Returns ``(documents, next_total)``.  Raises
        :class:`StorageError` when the offset has been pruned — or when
        a concurrent prune opened a gap mid-assembly — because the
        returned stream must be contiguous; the caller resyncs from the
        primary's documents instead."""
        with self._lock:
            base = self.base
            data = self.path.read_bytes()
        segments: List[Tuple[int, List[bytes]]] = []
        if from_total < base:
            archive_dir = self.path.parent / "archive"
            for archived in sorted(archive_dir.glob(
                    f"{self.path.stem}.*.wal")):
                try:
                    raw = archived.read_bytes()
                except OSError:
                    continue  # pruned between glob and read
                _a_epoch, a_base, _valid, payloads = _scan(raw, archived)
                if a_base + len(payloads) > from_total:
                    segments.append((a_base, payloads))
        _epoch, _base, _valid, live = _scan(data, self.path)
        segments.append((base, live))
        documents: List[object] = []
        for seg_base, payloads in segments:
            if len(documents) >= limit:
                break
            needed = from_total + len(documents)
            if seg_base > needed:
                # a gap: the records at ``needed`` were pruned (or an
                # archive vanished mid-read) — never paper over it by
                # skipping ahead, the stream must stay contiguous
                raise StorageError(
                    f"WAL records at offset {needed} of "
                    f"{self.path.stem} are no longer available; "
                    f"resync required")
            start = needed - seg_base
            for payload in payloads[start:start + (limit - len(documents))]:
                documents.append(json.loads(payload.decode("utf-8")))
        return documents, from_total + len(documents)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def records_to_skip(wal: WriteAheadLog, snapshot_position: dict) -> int:
    """How many leading WAL records the ``.jtile`` snapshot already
    contains.  Same epoch → the snapshot covered the first ``records``
    entries (crash happened before truncation); newer WAL epoch → the
    segment was truncated after the snapshot, nothing to skip."""
    if not snapshot_position:
        return 0
    if wal.epoch == snapshot_position.get("epoch"):
        return int(snapshot_position.get("records", 0))
    return 0


class WalManager:
    """The ``wal/`` directory of a data dir: one segment per table."""

    def __init__(self, directory: Union[str, Path], sync: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self._segments: Dict[str, WriteAheadLog] = {}
        self._lock = threading.Lock()

    def for_table(self, table: str) -> WriteAheadLog:
        with self._lock:
            segment = self._segments.get(table)
            if segment is None:
                segment = WriteAheadLog(self.directory / f"{table}.wal",
                                        sync=self.sync)
                self._segments[table] = segment
            return segment

    def journal(self, name: str) -> WriteAheadLog:
        """A non-table WAL segment (``<name>.journal``) for subsystem
        bookkeeping — e.g. the maintenance action journal.  Excluded
        from :meth:`existing_tables` (which only globs ``*.wal``) so
        recovery never mistakes it for an ingest log.  Never fsynced
        or archived: the journal records *that* an action ran, not row
        data."""
        key = f"{name}.journal"
        with self._lock:
            segment = self._segments.get(key)
            if segment is None:
                segment = WriteAheadLog(self.directory / key, sync=False,
                                        archive=False)
                self._segments[key] = segment
            return segment

    def existing_tables(self) -> List[str]:
        return sorted(path.stem for path in self.directory.glob("*.wal"))

    def close(self) -> None:
        with self._lock:
            for segment in self._segments.values():
                segment.close()
            self._segments.clear()
