"""The public entry point: a tiny embedded analytical database.

    from repro import Database, StorageFormat

    db = Database()
    db.load_table("tweets", documents, StorageFormat.TILES)
    result = db.sql(
        "select t.data->>'lang' as lang, count(*) as n "
        "from tweets t group by t.data->>'lang' order by n desc limit 5"
    )
    print(result.format_table())

Every table is one JSON document column (named ``data``) queried with
PostgreSQL-style ``->`` / ``->>`` operators; the storage format decides
whether queries run over raw text, binary JSON, Sinew's global
extraction, or JSON tiles.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.engine.executor import QueryResult, execute_block
from repro.engine.plan import QueryBlock, QueryOptions
from repro.errors import SqlBindError, StorageError
from repro.sql.statements import StatementCache, bind_statement
from repro.storage.formats import StorageFormat
from repro.storage.loader import load_documents
from repro.storage.relation import Relation
from repro.tiles.extractor import ExtractionConfig


class Database:
    """A named collection of relations plus the SQL front end."""

    def __init__(self, default_format: StorageFormat = StorageFormat.TILES,
                 config: Optional[ExtractionConfig] = None,
                 directory: Optional[Union[str, Path]] = None):
        self.default_format = default_format
        self.config = config or ExtractionConfig()
        self.tables: Dict[str, Relation] = {}
        #: when set, :meth:`checkpoint` persists every table here and
        #: :meth:`close` checkpoints before releasing the tables.
        self.directory: Optional[Path] = \
            Path(directory) if directory is not None else None
        #: the embedded maintenance daemon, see :meth:`start_maintenance`
        self._maintenance = None
        #: bound blocks of repeated SQL texts (repro.sql.statements)
        self.statements = StatementCache()

    # ------------------------------------------------------------------

    @staticmethod
    def _child_table_name(name: str, path_text: str) -> str:
        """The queryable table name of a Tiles-* child relation
        (array path text sanitized into an identifier suffix)."""
        safe = path_text.replace(".", "_").replace("[", "_").replace("]", "")
        return f"{name}__{safe}"

    def load_table(self, name: str, rows: Sequence,
                   storage_format: Optional[StorageFormat] = None,
                   config: Optional[ExtractionConfig] = None,
                   **kwargs) -> Relation:
        """Bulk-load documents (dicts or JSON text lines) as a table."""
        relation = load_documents(
            name, rows,
            storage_format or self.default_format,
            config or self.config,
            **kwargs,
        )
        self.register(name, relation)
        return relation

    def create_table(self, name: str,
                     storage_format: Optional[StorageFormat] = None,
                     config: Optional[ExtractionConfig] = None) -> Relation:
        """Create an empty table that grows through :meth:`Relation.insert`."""
        if name in self.tables:
            raise SqlBindError(f"table {name!r} already exists")
        relation = Relation(name, storage_format or self.default_format,
                            config or self.config)
        self.register(name, relation)
        return relation

    def _catalog_entries(self, name: str,
                         relation: Relation) -> Dict[str, Relation]:
        """The catalog names a table occupies: its own, plus one per
        Tiles-* child relation (queryable side tables)."""
        entries = {name: relation}
        for path_text, child in relation.children.items():
            entries[self._child_table_name(name, path_text)] = child
        return entries

    def register(self, name: str, relation: Relation) -> None:
        entries = self._catalog_entries(name, relation)
        self.tables.update(entries)
        self.statements.invalidate(entries)

    def table(self, name: str) -> Relation:
        if name not in self.tables:
            raise SqlBindError(f"unknown table {name!r}")
        return self.tables[name]

    def drop_table(self, name: str) -> None:
        relation = self.tables.get(name)
        if relation is not None:
            entries = self._catalog_entries(name, relation)
            for entry in entries:
                self.tables.pop(entry, None)
            self.statements.invalidate(entries)
            # release residency charges and cached columns eagerly
            # instead of waiting for the handles to be collected
            from repro.storage.tile_cache import GLOBAL_TILE_CACHE
            from repro.storage.tilestore import GLOBAL_TILE_STORE

            GLOBAL_TILE_STORE.discard_table(relation.name)
            GLOBAL_TILE_CACHE.invalidate_table(relation.name)
            for child in relation.children.values():
                GLOBAL_TILE_STORE.discard_table(child.name)
                GLOBAL_TILE_CACHE.invalidate_table(child.name)

    # ------------------------------------------------------------------
    # durable lifecycle (used by repro.server)

    @classmethod
    def open(cls, directory: Union[str, Path],
             default_format: StorageFormat = StorageFormat.TILES,
             config: Optional[ExtractionConfig] = None) -> "Database":
        """Open (or initialize) a durable database directory."""
        from repro.storage.persist import open_database

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        db = open_database(directory, database_cls=cls)
        db.default_format = default_format
        if config is not None:
            db.config = config
        db.directory = directory
        return db

    def checkpoint(self) -> Dict[str, int]:
        """Persist every table into :attr:`directory` (atomic per table:
        written to a temp file, then renamed over the ``.jtile``).
        Returns bytes written per table."""
        from repro.storage.persist import save_database

        if self.directory is None:
            raise StorageError("database has no durable directory attached")
        return save_database(self, self.directory)

    def close(self) -> None:
        """Checkpoint (when durable) and release all tables."""
        self.stop_maintenance()
        if self.directory is not None:
            self.checkpoint()
        self.tables.clear()
        self.statements.clear()

    # ------------------------------------------------------------------
    # online maintenance (DESIGN.md §6d)

    def start_maintenance(self, config=None):
        """Start the embedded background maintenance daemon: tile
        health tracking, Section 3.2 partition reordering and tile
        re-extraction on a rate-limited thread.  *config* is a
        :class:`~repro.maintenance.MaintenanceConfig` (defaults come
        from the ``REPRO_MAINT_*`` environment).  Returns the daemon —
        idempotent while one is running."""
        from repro.maintenance import MaintenanceConfig, MaintenanceDaemon

        if self._maintenance is None:
            self._maintenance = MaintenanceDaemon(
                lambda: dict(self.tables),
                config or MaintenanceConfig.from_env())
            self._maintenance.start()
        return self._maintenance

    def stop_maintenance(self) -> None:
        daemon, self._maintenance = self._maintenance, None
        if daemon is not None:
            daemon.stop()

    @property
    def maintenance(self):
        """The running embedded daemon, or None."""
        return self._maintenance

    # ------------------------------------------------------------------

    def sql(self, query: str,
            options: Optional[QueryOptions] = None) -> QueryResult:
        """Parse, bind, optimize and execute one SELECT statement.  A
        repeated text reuses its bound block from :attr:`statements`."""
        options = options or QueryOptions()
        statement = self.statements.prepare(query, options, self.tables)
        return execute_block(statement.block, options)

    def statement_cache_stats(self) -> Dict[str, int]:
        """Counters of the statement cache: entries, capacity, hits,
        misses, admissions, evictions and invalidations."""
        return self.statements.stats()

    def explain(self, query: str,
                options: Optional[QueryOptions] = None,
                analyze: bool = False) -> str:
        """The chosen join order, the operator tree and the per-table
        access requests (push-down visibility).

        With *analyze*, the query is actually executed and every scan
        is annotated with its counters (tiles scanned/skipped, rows,
        fallback lookups, cache hits/misses), followed by worker-pool
        utilization — EXPLAIN ANALYZE for the morsel engine.
        """
        options = options or QueryOptions()
        block = bind_statement(query, options, self.tables).block
        return self.explain_block(block, options, analyze)

    def explain_block(self, block: QueryBlock, options: QueryOptions,
                      analyze: bool = False) -> str:
        """:meth:`explain` for an already bound *block*."""
        from repro.engine.explain import render_plan
        from repro.engine.optimizer import Planner

        planner = Planner(options)
        tree = planner.plan_block(block)
        if analyze:
            batch = tree.materialize() if hasattr(tree, "materialize") \
                else None
            if batch is None:
                from repro.engine.batch import concat_batches
                batch = concat_batches(list(tree.batches()))
            rows = batch.length if batch is not None else 0
        lines = [f"join order: {' -> '.join(planner.last_join_order) or '-'}"]
        from repro.engine.explain import render_fragments
        from repro.engine.fragments import plan_fragments

        lines.append(render_fragments(plan_fragments(block, options)))
        lines.append(render_plan(tree, analyze=analyze))
        for source in block.sources:
            requests = getattr(source, "requests", None)
            if requests:
                lines.append(f"scan {source.alias}:")
                for request in requests.values():
                    lines.append(f"  {request.path} :: {request.label}")
        if analyze:
            from repro.engine.morsels import pool_stats

            lines.append(f"rows: {rows}")
            if options.parallelism > 1:
                stats = pool_stats()
                lines.append(
                    "pool: workers={workers} tasks={tasks_completed} "
                    "busy={busy_seconds}s".format(**stats))
        return "\n".join(lines)
