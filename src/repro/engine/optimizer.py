"""Cost-based planning (Section 4.6).

The optimizer turns a :class:`QueryBlock` into a physical operator
tree:

1. uncorrelated scalar subqueries are evaluated eagerly, into a copy
   of the block (a bound block is never written, so it can be cached
   and shared by concurrent executions);
2. WHERE conjuncts are classified into single-source scan filters,
   equi-join edges and residual predicates;
3. base cardinalities of joined sources come from the tile statistics
   — key-path frequency counters give the presence fraction (crucial on
   combined relations, where one physical table holds many document
   types) and HyperLogLog sketches give distinct counts for equality
   and join estimates;
4. join orders are enumerated with dynamic programming over connected
   subsets, minimizing the sum of intermediate cardinalities (C_out);
   with ``use_statistics=False`` the FROM-clause order is kept, which
   reproduces the bad plans the paper observes for statistics-blind
   systems;
5. every scan gets its tile-skipping paths: the key paths whose absence
   in a tile makes all its predicates non-true (Section 4.8).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine import expressions as ex
from repro.engine.operators import (
    ChainOp,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    JoinKind,
    LimitOp,
    Operator,
    ProjectOp,
    SortOp,
    TopKOp,
)
from repro.engine.plan import (
    DerivedSource,
    QueryBlock,
    QueryOptions,
    ScanSource,
    Source,
    alias_of_column,
)
from repro.engine.scan import ROWID_PATH, RangePrune, TableScan
from repro.errors import ExecutionError


class ScalarResult(ex.Expression):
    """One execution's result of an uncorrelated scalar subquery.  It
    evaluates like a literal but is not an :class:`ex.Literal`, so the
    plan around it (selectivities, zone-map prunes) is the one the
    unresolved subquery gets."""

    def __init__(self, value: object, result_type: ColumnType):
        self.value = value
        self.result_type = result_type

    def evaluate(self, batch):
        return ex.Literal(self.value, self.result_type).evaluate(batch)


class PlannedScan:
    """Bookkeeping per source during planning."""

    def __init__(self, source: Source):
        self.source = source
        self.filters: List[ex.Expression] = list(source.filters)
        #: paths null-rejected by a predicate, join or semi-join key
        self.skip_paths: Set[KeyPath] = set()
        #: per aggregate of a null-skipping global aggregation, the
        #: paths it null-rejects (Section 4.8's aggregate case)
        self.aggregate_skip_paths: List[List[KeyPath]] = []
        self.cardinality: float = 1.0


class Planner:
    def __init__(self, options: Optional[QueryOptions] = None):
        self.options = options or QueryOptions()
        self.scans: List[TableScan] = []
        #: kernel-gated operators (joins, aggregates, sorts) planned for
        #: this query; the executor merges their kernel_rows /
        #: fallback_rows counters into the result, mirroring self.scans
        self.kernel_ops: List[Operator] = []
        #: filled by plan_block for introspection / tests
        self.last_join_order: List[str] = []

    def _kernel_op(self, op: Operator) -> Operator:
        """Register a kernel-capable operator for counter collection."""
        self.kernel_ops.append(op)
        return op

    # ------------------------------------------------------------------

    def plan_block(self, block: QueryBlock, raw: bool = False) -> Operator:
        block = self._resolve_scalar_subqueries(block)
        planned = {source.alias: PlannedScan(source)
                   for source in block.sources}
        join_edges, residuals = self._classify_predicates(block, planned)
        self._derive_skip_paths(block, planned, join_edges, residuals)
        if len(block.sources) > 1:
            # only join ordering reads the cardinalities
            for item in planned.values():
                item.cardinality = self._estimate_source(item)

        tree, tree_aliases = self._join_tree(block, planned, join_edges)

        for spec in block.left_joins:
            right_plan = self._plan_source(spec.source,
                                           planned.get(spec.source.alias))
            left_keys = [outer for outer, _inner in spec.keys]
            right_keys = [inner for _outer, inner in spec.keys]
            right_schema = self._source_schema(spec.source)
            tree = self._kernel_op(HashJoinOp(
                tree, right_plan, left_keys, right_keys,
                JoinKind.LEFT, residual=spec.residual,
                right_schema=right_schema,
                enable_kernels=self.options.enable_kernels))

        for residual in residuals:
            if isinstance(tree, TableScan):
                # a residual directly above a scan is row-local by
                # construction: push it into the scan (where the
                # late-materialization split can use it) and keep the
                # FilterOp as a pre-applied marker so plan shape and
                # EXPLAIN output stay stable
                tree.add_predicate(residual)
                tree = FilterOp(tree, residual, pre_applied=True)
            else:
                tree = FilterOp(tree, residual)

        for subquery in block.subquery_filters:
            inner = self.plan_block(subquery.block, raw=subquery.raw)
            tree = self._kernel_op(HashJoinOp(
                tree, inner, subquery.outer_keys,
                subquery.inner_keys, subquery.kind,
                residual=subquery.residual,
                enable_kernels=self.options.enable_kernels,
                null_aware=subquery.null_aware))

        if raw:
            return tree

        if block.is_aggregated:
            tree = self._kernel_op(HashAggregateOp(
                tree, block.group_keys, block.aggregates,
                enable_kernels=self.options.enable_kernels))
            if block.having is not None:
                tree = FilterOp(tree, block.having)
        if block.select:
            tree = ProjectOp(tree, block.select)
        if block.union_blocks:
            branches = [tree]
            main_names = block.output_names()
            for union_block in block.union_blocks:
                sub = self.plan_block(union_block)
                renames = [
                    (main_name, ex.ColumnRef(sub_name, sub_expr.result_type))
                    for main_name, (sub_name, sub_expr)
                    in zip(main_names, union_block.select)
                ]
                branches.append(ProjectOp(sub, renames))
            tree = ChainOp(branches)
        if block.order_by and block.limit is not None:
            tree = self._kernel_op(TopKOp(
                tree, block.order_by, block.limit,
                enable_kernels=self.options.enable_kernels))
        elif block.order_by:
            tree = self._kernel_op(SortOp(
                tree, block.order_by,
                enable_kernels=self.options.enable_kernels))
        elif block.limit is not None:
            tree = LimitOp(tree, block.limit)
        return tree

    # ------------------------------------------------------------------
    # scalar subqueries

    def _resolve_scalar_subqueries(self, block: QueryBlock) -> QueryBlock:
        """Run every uncorrelated scalar subquery of *block* and return
        the block with each one replaced by its result.  The bound
        block itself is never written: a cached block is shared by
        repeated and concurrent executions, each of which must see its
        own subquery result.  A block without subqueries is returned
        as is; one with them is copied where they occur."""
        from repro.sql.binder import UnresolvedScalarExpr

        found: Dict[int, UnresolvedScalarExpr] = {}

        def visit(expr: ex.Expression) -> None:
            if isinstance(expr, UnresolvedScalarExpr):
                found.setdefault(id(expr), expr)
            for child in expr.children():
                visit(child)

        for predicate in block.predicates:
            visit(predicate)
        for _name, expr in block.select:
            visit(expr)
        if block.having is not None:
            visit(block.having)
        for source in block.sources:
            for flt in source.filters:
                visit(flt)
        if not found:
            return block

        replacements: Dict[int, ex.Expression] = {}
        for key, expr in found.items():
            sub_planner = Planner(self.options)
            result = sub_planner.plan_block(expr.block).materialize()
            self.scans.extend(sub_planner.scans)
            self.kernel_ops.extend(sub_planner.kernel_ops)
            if result is None or result.length == 0:
                value = None
            else:
                value = result.column(expr.block.select[0][0]).value(0)
            replacements[key] = ScalarResult(value, expr.result_type)

        def sub(expr: ex.Expression) -> ex.Expression:
            return ex.substitute(expr, replacements)

        return dataclasses.replace(
            block,
            predicates=[sub(predicate) for predicate in block.predicates],
            select=[(name, sub(expr)) for name, expr in block.select],
            having=None if block.having is None else sub(block.having),
            sources=[dataclasses.replace(
                         source, filters=[sub(flt) for flt in source.filters])
                     for source in block.sources])

    # ------------------------------------------------------------------
    # predicate classification

    def _classify_predicates(self, block: QueryBlock,
                             planned: Dict[str, PlannedScan]):
        join_edges: List[Tuple[str, str, ex.Expression, ex.Expression]] = []
        residuals: List[ex.Expression] = []
        for predicate in block.predicates:
            aliases = {alias_of_column(name)
                       for name in predicate.referenced_columns()}
            aliases &= set(planned)
            if len(aliases) == 1:
                planned[next(iter(aliases))].filters.append(predicate)
            elif (len(aliases) == 2 and isinstance(predicate, ex.Comparison)
                    and predicate.op == "="):
                left_aliases = {alias_of_column(name) for name
                                in predicate.left.referenced_columns()}
                right_aliases = {alias_of_column(name) for name
                                 in predicate.right.referenced_columns()}
                if len(left_aliases) == 1 and len(right_aliases) == 1:
                    join_edges.append((next(iter(left_aliases)),
                                       next(iter(right_aliases)),
                                       predicate.left, predicate.right))
                else:
                    residuals.append(predicate)
            elif not aliases:
                # constant predicate: apply to the first scan
                residuals.append(predicate)
            else:
                residuals.append(predicate)
        return join_edges, residuals

    def _derive_skip_paths(self, block, planned, join_edges, residuals) -> None:
        """Section 4.8: a predicate that skips NULLs or evaluates them
        as false makes every key path it rejects a skip candidate."""

        def scan_paths(names: Set[str]):
            for name in names:
                alias = alias_of_column(name)
                item = planned.get(alias)
                if item is None or not isinstance(item.source, ScanSource):
                    continue
                path = item.source.request_paths().get(name)
                if path is not None and path != ROWID_PATH:
                    yield item, path

        def add(names: Set[str]) -> None:
            for item, path in scan_paths(names):
                item.skip_paths.add(path)

        for item in planned.values():
            for flt in item.filters:
                add(flt.null_rejected_refs())
        for _a, _b, left, right in join_edges:
            add(left.null_rejected_refs())
            add(right.null_rejected_refs())
        for residual in residuals:
            add(residual.null_rejected_refs())
        for subquery in block.subquery_filters:
            if subquery.kind == JoinKind.SEMI:
                for key in subquery.outer_keys:
                    add(key.null_rejected_refs())
        # Section 4.8's aggregate case: a global aggregation whose
        # aggregates all skip NULLs (sum/avg/min/max/count(x)) gains
        # nothing from tiles lacking, for *every* aggregate, a path it
        # reads — one aggregate's absent path leaves the others' rows
        # to count.  Restricted to single-source blocks without
        # grouping — with GROUP BY the all-NULL group would be
        # observable, and with joins a skipped row could still feed
        # another table's aggregate.
        null_skipping = {"sum", "avg", "min", "max", "count",
                         "count_distinct"}
        if (not block.group_keys and block.aggregates
                and len(block.sources) == 1
                and not block.left_joins and not block.subquery_filters
                and all(spec.func in null_skipping
                        for spec in block.aggregates)):
            groups = [[] if spec.expr is None else sorted(
                          {path for _item, path
                           in scan_paths(spec.expr.null_rejected_refs())},
                          key=str)
                      for spec in block.aggregates]
            item = planned.get(block.sources[0].alias)
            if item is not None and all(groups):
                item.aggregate_skip_paths = groups

    # ------------------------------------------------------------------
    # cardinality estimation

    def _estimate_source(self, item: PlannedScan) -> float:
        source = item.source
        if isinstance(source, DerivedSource):
            return self._estimate_block(source.block)
        base = float(source.relation.row_count)
        if not self.options.use_statistics:
            return base
        if self.options.enable_sampling and item.filters:
            sampled = self._sampled_selectivity(item)
            if sampled is not None:
                return max(1.0, base * sampled)
        stats = source.relation.statistics
        presence = 1.0
        for path in item.skip_paths:
            presence = min(presence, stats.presence_fraction(path))
        selectivity = 1.0
        for predicate in item.filters:
            selectivity *= self._predicate_selectivity(source, predicate)
        return max(1.0, base * presence * selectivity)

    def _sampled_selectivity(self, item: PlannedScan) -> Optional[float]:
        """Section 4.6: evaluate the scan's predicates on a static,
        evenly-spaced document sample.  Subsumes key presence and value
        selectivity in one number, and works for predicates no sketch
        covers (LIKE, CASE, functions)."""
        source = item.source
        relation = source.relation
        total = relation.row_count
        if total == 0:
            return None
        sample_size = min(self.options.sample_size, total)
        # deterministic pseudo-random sample: evenly-spaced rows would
        # alias with periodic data, and a fixed seed keeps plans stable
        import random

        rng = random.Random(0x9E3779B9 ^ total)
        rows = sorted(rng.sample(range(total), sample_size))
        batch = _sample_batch(relation, source, rows)
        if batch is None:
            return None
        matched = np.ones(len(rows), dtype=bool)
        for predicate in item.filters:
            verdict = predicate.evaluate(batch)
            matched &= verdict.data.astype(bool) & ~verdict.null_mask
        hits = int(np.count_nonzero(matched))
        # clamp: an empty sample still leaves a sliver of probability
        return max(hits, 0.5) / len(rows)

    def _estimate_block(self, block: QueryBlock) -> float:
        total = 1.0
        for source in block.sources:
            if isinstance(source, ScanSource):
                total *= max(1.0, source.relation.row_count * 0.1)
            else:
                total *= self._estimate_block(source.block)
        if block.is_aggregated:
            total = max(1.0, total * 0.1)
        return total

    def _predicate_selectivity(self, source: ScanSource,
                               predicate: ex.Expression) -> float:
        stats = source.relation.statistics
        paths = source.value_paths()
        if isinstance(predicate, ex.Comparison):
            column, literal = _column_and_literal(predicate)
            if column is None:
                return 0.3
            path = paths.get(column.name)
            if path is None:
                return 0.3
            if predicate.op == "=":
                return stats.equality_selectivity(path)
            if predicate.op == "<>":
                return 1.0 - stats.equality_selectivity(path)
            value = literal.value if literal is not None else None
            if predicate.op in ("<", "<="):
                return stats.range_selectivity(path, high=value)
            return stats.range_selectivity(path, low=value)
        if isinstance(predicate, ex.BoolAnd):
            return (self._predicate_selectivity(source, predicate.left)
                    * self._predicate_selectivity(source, predicate.right))
        if isinstance(predicate, ex.BoolOr):
            left = self._predicate_selectivity(source, predicate.left)
            right = self._predicate_selectivity(source, predicate.right)
            return min(1.0, left + right - left * right)
        if isinstance(predicate, ex.Not):
            return max(0.0, 1.0 - self._predicate_selectivity(
                source, predicate.operand))
        if isinstance(predicate, ex.IsNull):
            return 1.0 if predicate.negated else 0.1
        if isinstance(predicate, ex.InList):
            refs = list(predicate.referenced_columns())
            if len(refs) == 1 and refs[0] in paths:
                ndv = stats.distinct(paths[refs[0]])
                return min(1.0, len(predicate.values) / max(1.0, ndv))
            return 0.3
        if isinstance(predicate, ex.Like):
            return 0.75 if predicate.negated else 0.25
        return 0.5

    def _edge_ndv(self, planned: Dict[str, PlannedScan], alias: str,
                  key: ex.Expression) -> float:
        item = planned[alias]
        if isinstance(item.source, DerivedSource):
            return max(1.0, item.cardinality)
        refs = list(key.referenced_columns())
        if len(refs) == 1:
            path = item.source.value_paths().get(refs[0])
            if path is not None and path != ROWID_PATH:
                return max(1.0, item.source.relation.statistics.distinct(path))
            if path == ROWID_PATH:
                return max(1.0, item.source.relation.row_count)
        return max(1.0, item.cardinality)

    # ------------------------------------------------------------------
    # fragment planning front half (engine/fragments.py)

    def fragment_inputs(self, block: QueryBlock):
        """Classify predicates, derive skip paths and estimate base
        cardinalities without building any operators — the shared
        front half of :meth:`plan_block`.  The fragment planner calls
        this so shard-side planning and the fused single-node plan
        make identical ordering/orientation decisions from the same
        statistics."""
        planned = {source.alias: PlannedScan(source)
                   for source in block.sources}
        join_edges, residuals = self._classify_predicates(block, planned)
        self._derive_skip_paths(block, planned, join_edges, residuals)
        for item in planned.values():
            item.cardinality = self._estimate_source(item)
        return planned, join_edges, residuals

    def join_order(self, aliases: Sequence[str],
                   planned: Dict[str, PlannedScan],
                   join_edges) -> List[str]:
        """The alias sequence :meth:`_join_tree` would realize: C_out
        DP over connected subsets under ``use_statistics`` for up to
        11 aliases, the syntactic FROM order otherwise."""
        if self.options.use_statistics and len(aliases) <= 11:
            return self._dp_order(list(aliases), planned, join_edges)
        return self._syntactic_order(list(aliases), join_edges)

    def probe_build_orientation(self, order: Sequence[str],
                                planned: Dict[str, PlannedScan]
                                ) -> Tuple[str, str]:
        """``(probe, build)`` sides :meth:`_build_join_tree` realizes
        for a two-source order — the 4x swap rule, verbatim: the new
        source probes only when it is estimated well larger than the
        tree, otherwise it is the hash build side."""
        first, second = order
        if planned[second].cardinality > planned[first].cardinality * 4:
            return second, first
        return first, second

    # ------------------------------------------------------------------
    # join ordering

    def _join_tree(self, block: QueryBlock, planned: Dict[str, PlannedScan],
                   join_edges) -> Tuple[Operator, FrozenSet[str]]:
        aliases = [source.alias for source in block.sources]
        if not aliases:
            raise ExecutionError("query block without sources")
        if len(aliases) == 1:
            alias = aliases[0]
            return self._plan_source_with_filters(planned[alias]), \
                frozenset({alias})

        if self.options.use_statistics and len(aliases) <= 11:
            order = self._dp_order(aliases, planned, join_edges)
        else:
            order = self._syntactic_order(aliases, join_edges)
        self.last_join_order = list(order)
        return self._build_join_tree(order, planned, join_edges)

    def _syntactic_order(self, aliases, join_edges) -> List[str]:
        return list(aliases)

    def _dp_order(self, aliases, planned, join_edges) -> List[str]:
        """DP over subsets, C_out cost; returns an alias sequence that a
        left-deep fold realizes."""
        n = len(aliases)
        index = {alias: i for i, alias in enumerate(aliases)}
        connects: Dict[int, Set[int]] = {i: set() for i in range(n)}
        for a, b, _l, _r in join_edges:
            if a in index and b in index:
                connects[index[a]].add(index[b])
                connects[index[b]].add(index[a])

        best: Dict[FrozenSet[int], Tuple[float, float, List[str]]] = {}
        for i, alias in enumerate(aliases):
            best[frozenset({i})] = (0.0, planned[alias].cardinality, [alias])
        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                fs = frozenset(subset)
                entry = None
                for member in subset:
                    rest = fs - {member}
                    if rest not in best:
                        continue
                    if not (connects[member] & rest) and len(rest) < n - 1:
                        # keep connected unless forced (cross products
                        # only when nothing else remains)
                        if any(connects[other] & rest for other in
                               (set(range(n)) - fs)):
                            continue
                    rest_cost, rest_card, rest_order = best[rest]
                    card = self._join_cardinality(
                        rest_card, rest_order, aliases[member],
                        planned, join_edges)
                    cost = rest_cost + card
                    if entry is None or cost < entry[0]:
                        entry = (cost, card, rest_order + [aliases[member]])
                if entry is not None:
                    best[fs] = entry
        full = frozenset(range(n))
        if full not in best:
            return list(aliases)
        return best[full][2]

    def _join_cardinality(self, left_card: float, left_order: List[str],
                          right_alias: str, planned, join_edges) -> float:
        right_card = planned[right_alias].cardinality
        card = left_card * right_card
        left_set = set(left_order)
        for a, b, left_key, right_key in join_edges:
            if a == right_alias and b in left_set:
                a, b = b, a
                left_key, right_key = right_key, left_key
            if a in left_set and b == right_alias:
                ndv = max(self._edge_ndv(planned, a, left_key),
                          self._edge_ndv(planned, b, right_key))
                card /= ndv
        return max(1.0, card)

    def _build_join_tree(self, order: List[str], planned,
                         join_edges) -> Tuple[Operator, FrozenSet[str]]:
        first = order[0]
        tree = self._plan_source_with_filters(planned[first])
        joined: Set[str] = {first}
        tree_card = planned[first].cardinality
        for alias in order[1:]:
            left_keys: List[ex.Expression] = []
            right_keys: List[ex.Expression] = []
            for a, b, lkey, rkey in join_edges:
                if a in joined and b == alias:
                    left_keys.append(lkey)
                    right_keys.append(rkey)
                elif b in joined and a == alias:
                    left_keys.append(rkey)
                    right_keys.append(lkey)
            right_plan = self._plan_source_with_filters(planned[alias])
            if not left_keys:
                # cross product via constant keys (rare: disconnected
                # join graphs)
                left_keys = [ex.Literal(1, ColumnType.INT64)]
                right_keys = [ex.Literal(1, ColumnType.INT64)]
            # probe side = current tree; build = new source.  When the
            # new source is (estimated) larger, swap so the hash table
            # stays small.
            right_card = planned[alias].cardinality
            if right_card > tree_card * 4:
                tree = self._kernel_op(HashJoinOp(
                    right_plan, tree, right_keys, left_keys,
                    enable_kernels=self.options.enable_kernels))
            else:
                tree = self._kernel_op(HashJoinOp(
                    tree, right_plan, left_keys, right_keys,
                    enable_kernels=self.options.enable_kernels))
            tree_card = max(1.0, self._join_cardinality(
                tree_card, list(joined), alias, planned, join_edges))
            joined.add(alias)
        return tree, frozenset(joined)

    # ------------------------------------------------------------------
    # sources

    def _plan_source_with_filters(self, item: PlannedScan) -> Operator:
        source = item.source
        if isinstance(source, ScanSource):
            # the conjunct list (not a folded tree) reaches the scan so
            # late materialization can split it per tile into
            # extracted-only vs fallback-dependent conjuncts
            scan = TableScan(
                source.relation,
                list(source.requests.values()),
                predicates=list(item.filters),
                skip_paths=sorted(item.skip_paths),
                aggregate_skip_paths=item.aggregate_skip_paths,
                range_prunes=self._range_prunes(source, item.filters),
                enable_skipping=self.options.enable_skipping,
                batch_rows=self.options.batch_rows,
                parallelism=self.options.parallelism,
                use_cache=self.options.tile_cache,
            )
            self.scans.append(scan)
            return scan
        plan = self._plan_derived(source)
        for flt in item.filters:
            plan = FilterOp(plan, flt)
        return plan

    def _range_prunes(self, source: ScanSource,
                      filters: Sequence[ex.Expression]) -> List[RangePrune]:
        """Derive zone-map prunes from ANDed comparison conjuncts of the
        form ``access op literal``."""
        if not self.options.enable_zone_maps:
            return []
        paths = source.value_paths()
        prunes: List[RangePrune] = []
        for conjunct in filters:
            stack = [conjunct]
            while stack:
                expr = stack.pop()
                if isinstance(expr, ex.BoolAnd):
                    stack.extend((expr.left, expr.right))
                    continue
                if not isinstance(expr, ex.Comparison) or expr.op == "<>":
                    continue
                column, literal = _column_and_literal(expr)
                if column is None or literal is None or literal.value is None:
                    continue
                path = paths.get(column.name)
                if path is None or path == ROWID_PATH:
                    continue
                op = expr.op
                if isinstance(expr.right, ex.ColumnRef):
                    # literal on the left: flip so the column leads
                    op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                        op, op)
                prunes.append(RangePrune(path, op, literal.value))
        return prunes

    def _plan_source(self, source: Source,
                     item: Optional[PlannedScan]) -> Operator:
        if item is not None:
            return self._plan_source_with_filters(item)
        return self._plan_source_with_filters(PlannedScan(source))

    def _plan_derived(self, source: DerivedSource) -> Operator:
        sub_planner = Planner(self.options)
        inner = sub_planner.plan_block(source.block)
        self.scans.extend(sub_planner.scans)
        self.kernel_ops.extend(sub_planner.kernel_ops)
        outputs = [
            (f"{source.alias}.{name}", ex.ColumnRef(name, expr.result_type))
            for name, expr in source.block.select
        ]
        return ProjectOp(inner, outputs)

    def _source_schema(self, source: Source) -> Dict[str, ColumnType]:
        if isinstance(source, ScanSource):
            return {request.name:
                    (ColumnType.FLOAT64
                     if request.target == ColumnType.DECIMAL
                     else request.target)
                    for request in source.requests.values()}
        return dict(source.output_types)


def _sample_batch(relation, source: ScanSource, rows: List[int]):
    """Resolve the source's access requests for a handful of sampled
    rows (per-tuple lookups; the sample is small by construction)."""
    import json

    from repro.engine.batch import Batch
    from repro.engine.scan import (ROWID_PATH, _typed_from_jsonb,
                                   _typed_from_python)
    from repro.jsonb.access import JsonbValue
    from repro.storage.column import ColumnBuilder, ColumnVector
    from repro.storage.formats import StorageFormat

    columns = {}
    for request in source.requests.values():
        if request.path == ROWID_PATH:
            data = np.array(rows, dtype=np.int64)
            columns[request.name] = ColumnVector(ColumnType.INT64, data)
            continue
        builder = ColumnBuilder(request.target)
        for row in rows:
            if relation.format == StorageFormat.JSON:
                document = json.loads(relation.text_rows[row])
                builder.append(_typed_from_python(
                    request.path.lookup(document), request))
            else:
                with relation.tile_of_row(row).pinned() as tile:
                    local = row - tile.first_row
                    # the scan's rule: the complete row when the value
                    # read may be one the rows leave out
                    data = tile.full_rows([local]).row(0) \
                        if tile.merges(request.path) \
                        else tile.heap.row(local)
                value = JsonbValue(data).get_path(request.path)
                builder.append(_typed_from_jsonb(value, request))
        columns[request.name] = builder.finish()
    if not columns:
        return None
    return Batch(columns, len(rows))


def _column_and_literal(predicate: ex.Comparison):
    left, right = predicate.left, predicate.right
    if isinstance(left, ex.ColumnRef) and isinstance(right, ex.Literal):
        return left, right
    if isinstance(right, ex.ColumnRef) and isinstance(left, ex.Literal):
        return right, left
    if isinstance(left, ex.ColumnRef):
        return left, None
    if isinstance(right, ex.ColumnRef):
        return right, None
    return None, None
