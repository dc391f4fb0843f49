"""The statement cache: parse and bind each repeated SQL text once.

A bound :class:`~repro.engine.plan.QueryBlock` depends on nothing but
the SQL text, the :class:`~repro.engine.plan.QueryOptions` (cast
rewriting picks typed accesses) and *which* relation object every
table name resolved to — never on a relation's rows or statistics,
which the planner reads afresh at every execution.  So a cached block
stays correct for as long as every relation it bound to is still the
catalog's object under that name, and the planner never writes to it
(``Planner`` keeps scalar-subquery results to itself).

* **key** — ``(sql text, QueryOptions field values)``;
* **validity** — every ``(name, relation)`` the binder looked up,
  including subquery, CTE and derived-table sources, is still
  ``catalog[name]``; ``Database.drop_table`` / ``register`` / ``close``
  also purge entries eagerly, so the cache never keeps a dropped
  relation alive;
* **admission** — a text is cached on its second sighting, so a stream
  that never repeats a text (fresh literals every query) holds no
  blocks, only a bounded ring of the hashes of texts seen once;
* **bound** — fixed LRU capacities, counted hits / misses /
  admissions / evictions / invalidations (:meth:`StatementCache.stats`).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.engine.plan import QueryBlock, QueryOptions
from repro.sql import parser
from repro.sql.binder import Binder
from repro.storage.relation import Relation

#: bound blocks kept (a bound TPC-H block is about 13.5 KiB)
CAPACITY = 128
#: hashes of texts seen once, awaiting their second sighting
SEEN_CAPACITY = 512

_OPTION_FIELDS = tuple(field.name
                       for field in dataclasses.fields(QueryOptions))


def _options_key(options: QueryOptions) -> Tuple:
    """The hashable identity of *options* (``QueryOptions`` is a
    mutable dataclass, hence unhashable)."""
    return tuple(getattr(options, name) for name in _OPTION_FIELDS)


class _RecordingCatalog:
    """The binder's view of the catalog, remembering every relation it
    resolved (the binder only calls ``get``)."""

    def __init__(self, catalog: Mapping[str, Relation]):
        self.catalog = catalog
        self.bound: Dict[str, Relation] = {}

    def get(self, name: str) -> Optional[Relation]:
        relation = self.catalog.get(name)
        if relation is not None:
            self.bound[name] = relation
        return relation


class BoundStatement:
    """A bound block plus the relations it was bound against."""

    __slots__ = ("block", "bindings", "tables")

    def __init__(self, block: QueryBlock, bindings: Dict[str, Relation]):
        self.block = block
        self.bindings: Tuple[Tuple[str, Relation], ...] = \
            tuple(bindings.items())
        #: every table name the statement reads — the server's lock set
        self.tables: FrozenSet[str] = frozenset(bindings)

    def valid(self, catalog: Mapping[str, Relation]) -> bool:
        """Is every relation this block bound to still the catalog's?"""
        return all(catalog.get(name) is relation
                   for name, relation in self.bindings)


def bind_statement(sql: str, options: QueryOptions,
                   catalog: Mapping[str, Relation]) -> BoundStatement:
    """Parse and bind *sql* against *catalog* (uncached)."""
    recording = _RecordingCatalog(catalog)
    block = Binder(recording, options).bind(parser.parse(sql))
    return BoundStatement(block, recording.bound)


class StatementCache:
    """Bounded, thread-safe map ``(sql, options) -> BoundStatement``."""

    def __init__(self):
        self.capacity = CAPACITY
        self.seen_capacity = SEEN_CAPACITY
        self._entries: "OrderedDict[Tuple, BoundStatement]" = OrderedDict()
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def prepare(self, sql: str, options: QueryOptions,
                catalog: Mapping[str, Relation]) -> BoundStatement:
        """The bound statement for *sql* under *options*: the cached one
        while it is valid against *catalog*, a fresh bind otherwise
        (cached when this is the text's second sighting)."""
        key = (sql, _options_key(options))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.valid(catalog):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                # a relation was replaced behind the cache's back (a
                # direct catalog write): rebind, and re-admit at once
                del self._entries[key]
                self.invalidations += 1
                admit = True
            else:
                # the ring keeps hashes, not texts: a stream of long
                # unrepeated texts must not grow the heap, and a rare
                # collision only admits a text one sighting early
                seen = hash(key)
                admit = seen in self._seen
                if admit:
                    del self._seen[seen]
                else:
                    self._seen[seen] = None
                    if len(self._seen) > self.seen_capacity:
                        self._seen.popitem(last=False)
            self.misses += 1
        statement = bind_statement(sql, options, catalog)
        if admit:
            with self._lock:
                # re-checked under the lock :meth:`invalidate` takes: a
                # table dropped while binding must not be kept, and a
                # concurrent miss on the same text may have won
                if key not in self._entries and statement.valid(catalog):
                    self._entries[key] = statement
                    self.admissions += 1
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
        return statement

    def invalidate(self, names) -> None:
        """Drop every entry bound to one of the table *names*."""
        names = frozenset(names)
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if entry.tables & names]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._seen.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
