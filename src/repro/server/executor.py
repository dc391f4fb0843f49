"""Concurrent query execution over immutable sealed tiles.

SELECTs run on a :class:`~concurrent.futures.ThreadPoolExecutor` so
multiple client sessions make progress at once (scans are numpy-heavy,
which releases the GIL for the vectorized kernels).  Each query takes
the *read* side of every referenced table's readers/writer lock for
its whole lifetime; tile sealing and checkpointing take the write side
— so a scan can never observe a half-appended tile.

Visibility: acknowledged inserts sit in the relation's insert buffer
until sealed.  By default the executor seals a table's pending buffer
(under the write lock) before scanning it, so a query observes every
insert acknowledged before it started — the tile-granular snapshot the
paper's §4.7 rule implies, extended with read-your-writes.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterator, Optional, Set

from repro.engine.executor import QueryResult, execute_block
from repro.engine.plan import QueryOptions
from repro.sql.ast import Node, SelectStmt, TableRefAst
from repro.sql.statements import BoundStatement, bind_statement

from repro.server.locks import TableLockRegistry

_OPTION_FIELDS = {field.name for field in dataclasses.fields(QueryOptions)}


def options_from_dict(raw: Optional[dict],
                      defaults: Optional[QueryOptions] = None) -> QueryOptions:
    """Build :class:`QueryOptions` from a wire dict, ignoring unknown
    keys so older clients keep working against newer servers.

    *defaults* supplies the server's execution policy (query
    parallelism, resolved-tile cache) for every key the client leaves
    unspecified — a client can still pin any option explicitly.
    """
    base = defaults if defaults is not None else QueryOptions()
    known = {key: value for key, value in (raw or {}).items()
             if key in _OPTION_FIELDS}
    return dataclasses.replace(base, **known)


def _tables_of(node: object, scope: frozenset) -> Set[str]:
    if isinstance(node, SelectStmt):
        return referenced_tables(node, scope)
    if isinstance(node, TableRefAst) and node.subquery is None:
        return {node.name} if node.name and node.name not in scope \
            else set()
    if isinstance(node, (tuple, list)):
        names: Set[str] = set()
        for item in node:
            names |= _tables_of(item, scope)
        return names
    if isinstance(node, Node):
        return _tables_of(tuple(getattr(node, field.name)
                                for field in dataclasses.fields(node)),
                          scope)
    return set()


def referenced_tables(statement: SelectStmt,
                      cte_names: frozenset = frozenset()) -> Set[str]:
    """Every base-table name a statement touches (CTEs excluded),
    across FROM items, LEFT JOINs, derived tables, UNION branches and
    the subqueries inside expressions (EXISTS, IN, scalar)."""
    scope = cte_names | frozenset(name for name, _ in statement.ctes)
    return _tables_of(tuple(getattr(statement, field.name)
                            for field in dataclasses.fields(statement)),
                      scope)


class QueryExecutor:
    """Runs SELECTs for the server, one worker thread per in-flight
    query, with per-table read locks held for the query's duration."""

    def __init__(self, db, locks: Optional[TableLockRegistry] = None,
                 max_workers: int = 8, auto_flush: bool = True):
        self.db = db
        self.locks = locks or TableLockRegistry()
        self.auto_flush = auto_flush
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-query")
        self._counter_lock = threading.Lock()
        self.queries_executed = 0
        self._active = 0

    @property
    def active_queries(self) -> int:
        """Queries currently executing (not merely queued) — the
        maintenance daemon's backpressure signal."""
        with self._counter_lock:
            return self._active

    # ------------------------------------------------------------------

    def _prepare(self, tables: Set[str]) -> None:
        """Seal pending inserts of every referenced table so the scan
        observes all acknowledged documents (write lock guards the
        instant each new tile becomes visible).

        Called unconditionally — not only when the buffer looks
        non-empty — because ``flush_inserts`` serializes on the
        relation's seal lock: it therefore also *waits out* an
        in-flight background seal, whose documents are momentarily in
        neither the buffer nor the tiles."""
        if not self.auto_flush:
            return
        for name in sorted(tables):
            relation = self.db.tables.get(name)
            if relation is not None:
                relation.flush_inserts(
                    append_guard=lambda name=name:
                        self.locks.write_locked(name))

    @contextmanager
    def _locked_statement(self, sql: str, options: QueryOptions,
                          cached: bool = False) -> Iterator[BoundStatement]:
        """Bind *sql* (through the database's statement cache when
        *cached*), seal its tables' pending inserts and hold their read
        locks.  The lock set is the bound statement's table set, so a
        text is parsed at most once.  A table dropped or replaced
        between binding and locking forces a rebind under the new
        catalog."""
        while True:
            if cached:
                statement = self.db.statements.prepare(sql, options,
                                                       self.db.tables)
            else:
                statement = bind_statement(sql, options, self.db.tables)
            self._prepare(statement.tables)
            with self.locks.read_locked(statement.tables):
                if statement.valid(self.db.tables):
                    yield statement
                    return

    def execute(self, sql: str,
                options: Optional[QueryOptions] = None) -> QueryResult:
        """Blocking execution with locking; called from pool threads."""
        options = options or QueryOptions()
        with self._counter_lock:
            self._active += 1
        try:
            with self._locked_statement(sql, options,
                                        cached=True) as statement:
                result = execute_block(statement.block, options)
        finally:
            with self._counter_lock:
                self._active -= 1
                self.queries_executed += 1
        return result

    def execute_partial(self, sql: str, options: Optional[QueryOptions],
                        shard_index: int, shard_count: int,
                        expected_mode: Optional[str] = None,
                        fragment: Optional[dict] = None) -> dict:
        """Shard side of a coordinator's scatter/gather query
        (DESIGN.md §7): bind locally, then compute JSON-serializable
        partial states over this shard's rows.  Same flush-then-lock
        discipline as :meth:`execute`, so the partial observes every
        insert acknowledged before it started.

        With *fragment*, runs one half of a broadcast join instead
        (DESIGN.md §10): ``{"phase": "build", "build": alias}`` scans
        the build alias and ships its surviving rows;
        ``{"phase": "probe", "probe", "build", "columns", "types",
        "rows"}`` joins this shard's probe chunks against the
        broadcast build relation.
        """
        from repro.engine.partial import (
            execute_build_fragment,
            execute_partial,
            execute_probe_fragment,
        )

        options = options or QueryOptions()
        with self._counter_lock:
            self._active += 1
        try:
            # never cached: partial execution adds a rowid request to
            # the block it runs
            with self._locked_statement(sql, options) as statement:
                block = statement.block
                if fragment is not None:
                    if fragment.get("phase") == "build":
                        return execute_build_fragment(
                            block, options, shard_index, shard_count,
                            fragment["build"])
                    return execute_probe_fragment(
                        block, options, shard_index, shard_count,
                        fragment, expected_mode)
                return execute_partial(block, options,
                                       shard_index, shard_count,
                                       expected_mode)
        finally:
            with self._counter_lock:
                self._active -= 1
                self.queries_executed += 1

    def plan_fragments(self, sql: str,
                       options: Optional[QueryOptions]) -> dict:
        """Plan (never execute) a statement as a fragment DAG from this
        shard's local statistics — the coordinator's consensus vote
        (its own catalog skeleton carries no sketches, so orientation
        is decided where the data lives)."""
        from repro.engine.fragments import plan_fragments

        options = options or QueryOptions()
        with self._locked_statement(sql, options) as statement:
            return plan_fragments(statement.block, options).to_dict()

    def explain(self, sql: str,
                options: Optional[QueryOptions] = None) -> str:
        options = options or QueryOptions()
        with self._locked_statement(sql, options) as statement:
            return self.db.explain_block(statement.block, options)

    def submit(self, sql: str,
               options: Optional[QueryOptions] = None) -> Future:
        return self._pool.submit(self.execute, sql, options)

    def submit_call(self, fn, *args) -> Future:
        """Run an arbitrary callable on the query pool (used by the
        server for explain and background sealing)."""
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
