"""Logical query blocks — the binder's output, the optimizer's input.

A :class:`QueryBlock` is a single SELECT after normalization: a set of
*sources* (base-table scans with pushed-down access requests, or
derived sub-blocks), WHERE conjuncts, decorrelated semi/anti-join
filters, left joins, grouping, aggregation and presentation clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.core.env import env_flag
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.expressions import ColumnRef, Expression
from repro.engine.morsels import default_parallelism as _default_parallelism
from repro.engine.operators import AggregateSpec, JoinKind, SortKey
from repro.engine.scan import AccessRequest
from repro.storage.relation import Relation


def _env_default(key: str, default: bool):
    """``default_factory`` for a switch read from *key* at construction."""
    return field(default_factory=partial(env_flag, key, default))


def alias_of_column(name: str) -> str:
    """Recover the source alias from a column name.

    Scan placeholders are ``alias$path::TYPE$mode``; derived-table
    outputs are ``alias.column``.
    """
    dollar = name.find("$")
    dot = name.find(".")
    if dollar != -1 and (dot == -1 or dollar < dot):
        return name[:dollar]
    if dot != -1:
        return name[:dot]
    return name


@dataclass
class ScanSource:
    """A base-table scan with its pushed-down access requests."""

    alias: str
    relation: Relation
    requests: Dict[str, AccessRequest] = field(default_factory=dict)
    filters: List[Expression] = field(default_factory=list)

    def request(self, path: KeyPath, target: ColumnType, as_text: bool,
                probe: Optional[Tuple[object, ...]] = None) -> ColumnRef:
        """Register (or reuse) an access request; returns the
        placeholder column reference (Section 4.2's placeholders)."""
        request = AccessRequest.make(self.alias, path, target, as_text,
                                     probe)
        self.requests.setdefault(request.name, request)
        result_type = (ColumnType.FLOAT64 if target == ColumnType.DECIMAL
                       else target)
        return ColumnRef(request.name, result_type)

    def request_paths(self) -> Dict[str, KeyPath]:
        return {name: request.path for name, request in self.requests.items()}

    def value_paths(self) -> Dict[str, KeyPath]:
        """:meth:`request_paths` without probes: a probe's column holds
        a function of the value at its path, so the path's statistics
        and zone maps say nothing about it (tile skipping still holds:
        an absent path makes the probe NULL)."""
        return {name: request.path for name, request in self.requests.items()
                if request.probe is None}


@dataclass
class DerivedSource:
    """A derived table: a nested block exposing named output columns."""

    alias: str
    block: "QueryBlock"
    #: exposed name ("alias.column") -> type
    output_types: Dict[str, ColumnType] = field(default_factory=dict)
    filters: List[Expression] = field(default_factory=list)


Source = Union[ScanSource, DerivedSource]


@dataclass
class SubqueryFilter:
    """A decorrelated EXISTS / IN: semi or anti join against a block.

    ``raw=True`` (EXISTS) joins against the block's un-projected join
    tree so correlated residuals can reference any inner placeholder;
    ``raw=False`` (IN) joins against the block's projected output.
    ``null_aware`` marks ``NOT IN``, whose anti join follows SQL NULL
    semantics (``HashJoinOp``); ``NOT EXISTS`` leaves it off.
    """

    kind: JoinKind  # SEMI or ANTI
    block: "QueryBlock"
    outer_keys: List[Expression]
    inner_keys: List[Expression]
    residual: Optional[Expression] = None
    raw: bool = True
    null_aware: bool = False


@dataclass
class LeftJoinSpec:
    source: Source
    #: (outer expression, inner expression) equi conditions
    keys: List[Tuple[Expression, Expression]]
    residual: Optional[Expression] = None


@dataclass
class QueryBlock:
    sources: List[Source] = field(default_factory=list)
    predicates: List[Expression] = field(default_factory=list)
    subquery_filters: List[SubqueryFilter] = field(default_factory=list)
    left_joins: List[LeftJoinSpec] = field(default_factory=list)
    group_keys: List[Tuple[str, Expression]] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    having: Optional[Expression] = None
    select: List[Tuple[str, Expression]] = field(default_factory=list)
    order_by: List[SortKey] = field(default_factory=list)
    limit: Optional[int] = None
    #: UNION ALL branches; ORDER BY / LIMIT above apply to the
    #: concatenation, column names come from this (the first) block
    union_blocks: List["QueryBlock"] = field(default_factory=list)

    @property
    def is_aggregated(self) -> bool:
        return bool(self.group_keys or self.aggregates)

    def source(self, alias: str) -> Source:
        for source in self.sources:
            if source.alias == alias:
                return source
        raise KeyError(alias)

    def output_names(self) -> List[str]:
        return [name for name, _ in self.select]


@dataclass
class QueryOptions:
    """Execution/optimization switches (the Figure 14 / 15 ablations)."""

    enable_skipping: bool = True
    use_statistics: bool = True
    enable_cast_rewriting: bool = True
    batch_rows: int = 4096
    #: Section 4.6: sample documents statically at plan time to refine
    #: scan selectivities (creates estimates where no sketch exists).
    enable_sampling: bool = False
    sample_size: int = 128
    #: per-tile min/max zone maps prune tiles whose value range cannot
    #: satisfy a pushed comparison (Data Blocks-style extension of
    #: Section 4.8 skipping).
    enable_zone_maps: bool = True
    #: morsel-driven parallelism: worker threads per query (1 = the
    #: serial engine).  Results are bit-identical at any setting.
    parallelism: int = field(default_factory=_default_parallelism)
    #: share resolved fallback columns across queries through the
    #: process-wide LRU (server default; embedded opt-in via
    #: ``REPRO_TILE_CACHE``).
    tile_cache: bool = _env_default("REPRO_TILE_CACHE", False)
    #: batch kernels (engine/kernels.py): vectorized generic GROUP BY,
    #: composite/string-key join probe, lexsort ORDER BY.  Off
    #: (``REPRO_KERNELS=0``) runs the per-tuple reference paths; results
    #: are bit-identical either way (the differential suite asserts it).
    enable_kernels: bool = _env_default("REPRO_KERNELS", True)
    #: ceiling on the estimated global build-side cardinality a
    #: shard-side broadcast join (DESIGN.md §10) will ship; larger
    #: build sides decline to the gather path, and ``0`` declines every
    #: join (the topology file may override this per cluster).  Results
    #: are bit-identical either way.
    broadcast_max_rows: int = 100_000
