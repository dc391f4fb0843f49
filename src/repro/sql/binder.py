"""Binder: SQL AST -> logical :class:`~repro.engine.plan.QueryBlock`.

The binder performs, in one pass, the plan rewrites the paper describes:

* **access push-down** (Section 4.2): every ``->`` / ``->>`` chain on a
  table's document column becomes an :class:`AccessRequest` registered
  at the scan, and the expression tree references only the placeholder
  column;
* **cast rewriting** (Section 4.3): ``x->>'k'::BigInt`` requests a
  typed access directly instead of materializing text (disable with
  ``QueryOptions.enable_cast_rewriting=False`` to measure the
  overhead);
* **decorrelation**: EXISTS / IN become semi/anti-join filters (NOT IN
  a null-aware one, per SQL's three-valued logic),
  correlated scalar aggregates become grouped derived tables joined on
  their correlation keys, and uncorrelated scalar subqueries are left
  for the planner to evaluate eagerly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.datetimes import add_interval, date_literal
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine import expressions as ex
from repro.engine.operators import AggregateSpec, JoinKind, SortKey
from repro.engine.plan import (
    DerivedSource,
    LeftJoinSpec,
    QueryBlock,
    QueryOptions,
    ScanSource,
    Source,
    SubqueryFilter,
    alias_of_column,
)
from repro.engine.scan import ROWID_PATH
from repro.errors import SqlBindError
from repro.sql import ast
from repro.storage.relation import Relation

_TYPE_NAMES = {
    "int": ColumnType.INT64, "integer": ColumnType.INT64,
    "bigint": ColumnType.INT64, "smallint": ColumnType.INT64,
    "float": ColumnType.FLOAT64, "double": ColumnType.FLOAT64,
    "real": ColumnType.FLOAT64, "decimal": ColumnType.FLOAT64,
    "numeric": ColumnType.FLOAT64,
    "text": ColumnType.STRING, "varchar": ColumnType.STRING,
    "char": ColumnType.STRING, "string": ColumnType.STRING,
    "bool": ColumnType.BOOL, "boolean": ColumnType.BOOL,
    "date": ColumnType.TIMESTAMP, "timestamp": ColumnType.TIMESTAMP,
}

#: default document column name of every relation
DOC_COLUMN = "data"

_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}

_LITERAL_NODES = (ast.NumberLit, ast.StringLit, ast.NullLit, ast.BoolLit,
                  ast.DateLit)


class _DocRef(ex.Expression):
    """Bind-time marker: a bare reference to a table's document column,
    only meaningful as the base of a JSON access chain."""

    def __init__(self, source: ScanSource):
        self.source = source
        self.result_type = ColumnType.JSONB

    def evaluate(self, batch):
        raise SqlBindError(
            f"the document column of {self.source.alias!r} can only be "
            f"used with -> / ->> access operators"
        )


class UnresolvedScalarExpr(ex.Expression):
    """An uncorrelated scalar subquery; the planner executes the block
    eagerly and substitutes the literal result."""

    def __init__(self, block: QueryBlock, result_type: ColumnType):
        self.block = block
        self.result_type = result_type

    def evaluate(self, batch):
        raise SqlBindError("scalar subquery was not resolved by the planner")

    def null_rejected_refs(self) -> Set[str]:
        return set()


class _Scope:
    """Alias resolution chain (inner block -> outer block)."""

    def __init__(self, block: QueryBlock, parent: Optional["_Scope"] = None):
        self.block = block
        self.parent = parent

    def find(self, alias: str) -> Optional[Tuple[Source, "_Scope"]]:
        for source in self.block.sources:
            if source.alias == alias:
                return source, self
        for spec in self.block.left_joins:
            if spec.source.alias == alias:
                return spec.source, self
        if self.parent is not None:
            return self.parent.find(alias)
        return None

    def local_aliases(self) -> Set[str]:
        aliases = {source.alias for source in self.block.sources}
        aliases |= {spec.source.alias for spec in self.block.left_joins}
        return aliases


class Binder:
    def __init__(self, catalog: Dict[str, Relation],
                 options: Optional[QueryOptions] = None):
        self.catalog = catalog
        self.options = options or QueryOptions()
        self._counter = 0
        #: CTEs visible to the block currently being bound (so scalar
        #: subqueries inside expressions can reference them too)
        self._current_ctes: Dict[str, ast.SelectStmt] = {}

    # ------------------------------------------------------------------

    def bind(self, stmt: ast.SelectStmt) -> QueryBlock:
        return self._bind_select(stmt, outer=None, ctes={})

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # ------------------------------------------------------------------
    # statement binding

    def _bind_select(self, stmt: ast.SelectStmt, outer: Optional[_Scope],
                     ctes: Dict[str, ast.SelectStmt]) -> QueryBlock:
        ctes = dict(ctes)
        for name, query in stmt.ctes:
            ctes[name] = query
        saved_ctes = self._current_ctes
        self._current_ctes = ctes
        try:
            return self._bind_select_body(stmt, outer, ctes)
        finally:
            self._current_ctes = saved_ctes

    def _bind_select_body(self, stmt: ast.SelectStmt, outer: Optional[_Scope],
                          ctes: Dict[str, ast.SelectStmt]) -> QueryBlock:
        block = QueryBlock()
        scope = _Scope(block, outer)

        for table in stmt.from_tables:
            block.sources.append(self._bind_table(table, ctes))
        for join in stmt.left_joins:
            block.left_joins.append(
                self._bind_left_join(join, scope, ctes)
            )

        if stmt.where is not None:
            for conjunct in _conjuncts(stmt.where):
                self._bind_where_conjunct(conjunct, scope, ctes)

        self._bind_presentation(stmt, block, scope, ctes)
        for union_stmt in stmt.unions:
            union_block = self._bind_select(union_stmt, outer=None,
                                            ctes=ctes)
            if len(union_block.select) != len(block.select):
                raise SqlBindError(
                    "UNION ALL branches must select the same number of "
                    "columns")
            block.union_blocks.append(union_block)
        return block

    def _bind_table(self, table: ast.TableRefAst,
                    ctes: Dict[str, ast.SelectStmt]) -> Source:
        if table.subquery is not None:
            return self._derived(table.alias, table.subquery, ctes)
        if table.name in ctes:
            return self._derived(table.alias, ctes[table.name], ctes)
        relation = self.catalog.get(table.name)
        if relation is None:
            raise SqlBindError(f"unknown table {table.name!r}")
        return ScanSource(alias=table.alias, relation=relation)

    def _derived(self, alias: str, stmt: ast.SelectStmt,
                 ctes: Dict[str, ast.SelectStmt]) -> DerivedSource:
        block = self._bind_select(stmt, outer=None, ctes=ctes)
        source = DerivedSource(alias=alias, block=block)
        for name, expr in block.select:
            source.output_types[f"{alias}.{name}"] = expr.result_type
        return source

    def _bind_left_join(self, join: ast.LeftJoinAst, scope: _Scope,
                        ctes: Dict[str, ast.SelectStmt]) -> LeftJoinSpec:
        source = self._bind_table(join.right, ctes)
        # temporarily visible for condition binding
        spec = LeftJoinSpec(source=source, keys=[])
        scope.block.left_joins.append(spec)
        try:
            keys: List[Tuple[ex.Expression, ex.Expression]] = []
            residuals: List[ex.Expression] = []
            for conjunct in _conjuncts(join.condition):
                bound = self._bind_expr(conjunct, scope)
                sides = _split_by_alias(bound, {source.alias})
                if sides == "mixed_eq":
                    left, right = bound.left, bound.right
                    if source.alias in _aliases(right):
                        keys.append((left, right))
                    else:
                        keys.append((right, left))
                elif sides == "inner_only":
                    source.filters.append(bound)
                else:
                    residuals.append(bound)
            spec.keys = keys
            spec.residual = _and_all(residuals)
            return spec
        finally:
            scope.block.left_joins.remove(spec)

    # ------------------------------------------------------------------
    # WHERE conjuncts: decorrelation entry points

    def _bind_where_conjunct(self, conjunct: ast.Node, scope: _Scope,
                             ctes: Dict[str, ast.SelectStmt]) -> None:
        block = scope.block
        negated = False
        node = conjunct
        while isinstance(node, ast.Unary) and node.op == "not":
            negated = not negated
            node = node.operand
        if isinstance(node, ast.ExistsExpr):
            kind = JoinKind.ANTI if (negated != node.negated) else JoinKind.SEMI
            block.subquery_filters.append(
                self._bind_exists(node.query, scope, ctes, kind))
            return
        if isinstance(node, ast.InSubquery):
            kind = JoinKind.ANTI if (negated != node.negated) else JoinKind.SEMI
            block.subquery_filters.append(
                self._bind_in_subquery(node, scope, ctes, kind))
            return
        if isinstance(node, ast.Binary) and node.op in ("=", "<>", "<", "<=",
                                                        ">", ">="):
            scalar_side = None
            other = None
            op = node.op
            if isinstance(node.right, ast.ScalarSubquery):
                scalar_side, other = node.right, node.left
            elif isinstance(node.left, ast.ScalarSubquery):
                scalar_side, other = node.left, node.right
                op = _flip(op)
            if scalar_side is not None:
                bound = self._bind_scalar_comparison(
                    op, other, scalar_side.query, scope, ctes)
                if negated:
                    bound = ex.Not(bound)
                block.predicates.append(bound)
                return
        bound = self._bind_expr(conjunct, scope)
        block.predicates.append(bound)

    def _bind_exists(self, query: ast.SelectStmt, scope: _Scope,
                     ctes: Dict[str, ast.SelectStmt],
                     kind: JoinKind) -> SubqueryFilter:
        inner_block = QueryBlock()
        inner_scope = _Scope(inner_block, scope)
        for table in query.from_tables:
            inner_block.sources.append(self._bind_table(table, ctes))
        correlated: List[ex.Expression] = []
        if query.where is not None:
            for conjunct in _conjuncts(query.where):
                bound = self._bind_expr(conjunct, inner_scope)
                if _aliases(bound) & scope.local_aliases():
                    correlated.append(bound)
                else:
                    inner_block.predicates.append(bound)
        outer_keys, inner_keys, residuals = self._split_correlations(
            correlated, inner_scope)
        if not outer_keys:
            raise SqlBindError(
                "EXISTS subqueries need at least one equality correlation")
        return SubqueryFilter(kind=kind, block=inner_block,
                              outer_keys=outer_keys, inner_keys=inner_keys,
                              residual=_and_all(residuals), raw=True)

    def _bind_in_subquery(self, node: ast.InSubquery, scope: _Scope,
                          ctes: Dict[str, ast.SelectStmt],
                          kind: JoinKind) -> SubqueryFilter:
        outer_key = self._bind_expr(node.operand, scope)
        inner_block = self._bind_select(node.query, outer=scope, ctes=ctes)
        if len(inner_block.select) != 1:
            raise SqlBindError("IN subquery must select exactly one column")
        name, expr = inner_block.select[0]
        return SubqueryFilter(
            kind=kind, block=inner_block, outer_keys=[outer_key],
            inner_keys=[ex.ColumnRef(name, expr.result_type)],
            residual=None, raw=False, null_aware=kind == JoinKind.ANTI,
        )

    def _bind_scalar_comparison(self, op: str, other: ast.Node,
                                query: ast.SelectStmt, scope: _Scope,
                                ctes: Dict[str, ast.SelectStmt]) -> ex.Expression:
        """``expr CMP (SELECT agg(...) FROM ... WHERE corr)``: decorrelate
        into a grouped derived table joined on the correlation keys, or
        leave uncorrelated subqueries for eager evaluation."""
        bound_other = self._bind_expr(other, scope)
        inner_block = self._bind_select(query, outer=scope, ctes=ctes)

        correlated: List[ex.Expression] = []
        remaining: List[ex.Expression] = []
        for predicate in inner_block.predicates:
            if _aliases(predicate) - _own_aliases(inner_block):
                correlated.append(predicate)
            else:
                remaining.append(predicate)
        inner_block.predicates = remaining

        if not correlated:
            scalar = UnresolvedScalarExpr(
                inner_block, inner_block.select[0][1].result_type)
            return ex.Comparison(op, bound_other, scalar)

        inner_scope = _Scope(inner_block, scope)
        outer_keys, inner_keys, residuals = self._split_correlations(
            correlated, inner_scope)
        if residuals:
            raise SqlBindError(
                "only equality correlations are supported in scalar "
                "subqueries")
        if len(inner_block.select) != 1 or not inner_block.aggregates:
            raise SqlBindError(
                "correlated scalar subqueries must compute one aggregate")
        alias = self._fresh("_sq")
        agg_name, agg_expr = inner_block.select[0]
        for index, key in enumerate(inner_keys):
            key_name = f"k{index}"
            inner_block.group_keys.append((key_name, key))
            inner_block.select.append((key_name, ex.ColumnRef(
                key_name, key.result_type)))
        derived = DerivedSource(alias=alias, block=inner_block)
        for name, expr in inner_block.select:
            derived.output_types[f"{alias}.{name}"] = expr.result_type
        scope.block.sources.append(derived)
        for index, outer_key in enumerate(outer_keys):
            scope.block.predicates.append(ex.Comparison(
                "=", outer_key,
                ex.ColumnRef(f"{alias}.k{index}",
                             inner_keys[index].result_type)))
        return ex.Comparison(op, bound_other, ex.ColumnRef(
            f"{alias}.{agg_name}", agg_expr.result_type))

    def _split_correlations(self, correlated: Sequence[ex.Expression],
                            inner_scope: _Scope):
        """Split bound correlated conjuncts into equality key pairs and
        residual predicates."""
        inner_aliases = inner_scope.local_aliases()
        outer_keys: List[ex.Expression] = []
        inner_keys: List[ex.Expression] = []
        residuals: List[ex.Expression] = []
        for bound in correlated:
            is_eq = isinstance(bound, ex.Comparison) and bound.op == "="
            if is_eq:
                left_aliases = _aliases(bound.left)
                right_aliases = _aliases(bound.right)
                if left_aliases <= inner_aliases and \
                        right_aliases.isdisjoint(inner_aliases):
                    inner_keys.append(bound.left)
                    outer_keys.append(bound.right)
                    continue
                if right_aliases <= inner_aliases and \
                        left_aliases.isdisjoint(inner_aliases):
                    inner_keys.append(bound.right)
                    outer_keys.append(bound.left)
                    continue
            residuals.append(bound)
        return outer_keys, inner_keys, residuals

    # ------------------------------------------------------------------
    # SELECT / GROUP BY / HAVING / ORDER BY

    def _bind_presentation(self, stmt: ast.SelectStmt, block: QueryBlock,
                           scope: _Scope,
                           ctes: Dict[str, ast.SelectStmt]) -> None:
        has_aggregates = any(_contains_aggregate(item.expr)
                             for item in stmt.items)
        if stmt.having is not None:
            has_aggregates = True
        aggregated = bool(stmt.group_by) or has_aggregates

        select_asts: List[Tuple[str, ast.Node]] = []
        if aggregated:
            group_names: Dict[ast.Node, str] = {}
            for index, group_ast in enumerate(stmt.group_by):
                bound = self._bind_expr(group_ast, scope)
                name = self._select_alias(stmt, group_ast) or f"g{index}"
                block.group_keys.append((name, bound))
                group_names[group_ast] = name
            context = _AggContext(self, scope, block, group_names)
            for index, item in enumerate(stmt.items):
                name = item.alias or _default_name(item.expr, index)
                block.select.append((name, context.bind(item.expr)))
                select_asts.append((name, item.expr))
            if stmt.having is not None:
                block.having = context.bind(stmt.having)
        else:
            for index, item in enumerate(stmt.items):
                name = item.alias or _default_name(item.expr, index)
                block.select.append((name, self._bind_expr(item.expr, scope)))
                select_asts.append((name, item.expr))
            if stmt.distinct:
                # desugar DISTINCT into GROUP BY over all outputs
                for name, expr in block.select:
                    block.group_keys.append((name, expr))
                block.select = [
                    (name, ex.ColumnRef(name, expr.result_type))
                    for name, expr in block.select
                ]

        for item in stmt.order_by:
            block.order_by.append(
                self._bind_order_item(item, block, select_asts))
        block.limit = stmt.limit

    def _select_alias(self, stmt: ast.SelectStmt,
                      expr: ast.Node) -> Optional[str]:
        for item in stmt.items:
            if item.expr == expr and item.alias:
                return item.alias
        return None

    def _bind_order_item(self, item: ast.OrderItem, block: QueryBlock,
                         select_asts: List[Tuple[str, ast.Node]]) -> SortKey:
        target = item.target
        if isinstance(target, int):
            if not 1 <= target <= len(block.select):
                raise SqlBindError(f"ORDER BY position {target} out of range")
            return SortKey(block.select[target - 1][0], item.descending)
        if isinstance(target, str):
            for name, _expr in block.select:
                if name == target:
                    return SortKey(name, item.descending)
            target = ast.Identifier((target,))
        for name, select_ast in select_asts:
            if select_ast == target:
                return SortKey(name, item.descending)
        raise SqlBindError(
            "ORDER BY expressions must appear in the SELECT list")

    # ------------------------------------------------------------------
    # expression binding (pre-aggregation scope)

    def _bind_expr(self, node: ast.Node, scope: _Scope) -> ex.Expression:
        if isinstance(node, ast.NumberLit):
            if isinstance(node.value, int):
                return ex.Literal(node.value, ColumnType.INT64)
            return ex.Literal(node.value, ColumnType.FLOAT64)
        if isinstance(node, ast.StringLit):
            return ex.Literal(node.value, ColumnType.STRING)
        if isinstance(node, ast.NullLit):
            return ex.Literal(None, ColumnType.STRING)
        if isinstance(node, ast.BoolLit):
            return ex.Literal(node.value, ColumnType.BOOL)
        if isinstance(node, ast.DateLit):
            return ex.Literal(date_literal(node.text), ColumnType.TIMESTAMP)
        if isinstance(node, ast.IntervalLit):
            raise SqlBindError(
                "INTERVAL literals are only supported next to date "
                "literals (they are folded at bind time)")
        if isinstance(node, ast.Identifier):
            return self._bind_identifier(node, scope)
        if isinstance(node, (ast.JsonAccess, ast.CastExpr)):
            return self._bind_access_or_cast(node, scope)
        if isinstance(node, ast.Unary):
            if node.op == "not":
                return ex.Not(self._bind_expr(node.operand, scope))
            operand = self._bind_expr(node.operand, scope)
            zero_type = operand.result_type
            if zero_type not in (ColumnType.INT64, ColumnType.FLOAT64):
                zero_type = ColumnType.FLOAT64
            return ex.Arithmetic("-", ex.Literal(0, zero_type), operand)
        if isinstance(node, ast.Binary):
            return self._bind_binary(node, scope)
        if isinstance(node, ast.IsNullExpr):
            return ex.IsNull(self._bind_expr(node.operand, scope),
                             negated=node.negated)
        if isinstance(node, ast.BetweenExpr):
            operand = self._bind_expr(node.operand, scope)
            low = self._fold_datetime(node.low, scope)
            high = self._fold_datetime(node.high, scope)
            between = ex.BoolAnd(ex.Comparison(">=", operand, low),
                                 ex.Comparison("<=", operand, high))
            return ex.Not(between) if node.negated else between
        if isinstance(node, ast.LikeExpr):
            return ex.Like(self._bind_expr(node.operand, scope),
                           node.pattern, negated=node.negated)
        if isinstance(node, ast.InListExpr):
            operand = self._bind_expr(node.operand, scope)
            values = []
            for item in node.items:
                literal = self._bind_expr(item, scope)
                if not isinstance(literal, ex.Literal):
                    raise SqlBindError("IN lists must contain literals")
                values.append(literal.value)
            return ex.InList(operand, values, negated=node.negated)
        if isinstance(node, ast.CaseExpr):
            branches = []
            result_type = None
            for condition, value in node.branches:
                bound_value = self._bind_expr(value, scope)
                result_type = result_type or bound_value.result_type
                branches.append((self._bind_expr(condition, scope),
                                 bound_value))
            default = (self._bind_expr(node.default, scope)
                       if node.default is not None else None)
            if result_type is None and default is not None:
                result_type = default.result_type
            return ex.Case(branches, default, result_type or ColumnType.FLOAT64)
        if isinstance(node, ast.ExtractExpr):
            if node.field_name != "year":
                raise SqlBindError(f"extract({node.field_name}) not supported")
            return ex.ExtractYear(self._bind_expr(node.operand, scope))
        if isinstance(node, ast.SubstringExpr):
            return ex.Substring(self._bind_expr(node.operand, scope),
                                node.start, node.length)
        if isinstance(node, ast.ScalarSubquery):
            inner = self._bind_select(node.query, outer=None,
                                      ctes=self._current_ctes)
            if len(inner.select) != 1:
                raise SqlBindError("scalar subquery must select one column")
            return UnresolvedScalarExpr(inner, inner.select[0][1].result_type)
        if isinstance(node, ast.FuncCall):
            if node.name in _AGG_FUNCS:
                raise SqlBindError(
                    f"aggregate {node.name}() is not allowed here")
            return self._bind_function(node, scope)
        if isinstance(node, (ast.ExistsExpr, ast.InSubquery)):
            raise SqlBindError(
                "EXISTS/IN subqueries are only supported as top-level "
                "WHERE conjuncts")
        raise SqlBindError(f"cannot bind {type(node).__name__}")

    def _bind_function(self, node: ast.FuncCall, scope: _Scope) -> ex.Expression:
        from repro.engine.functions import (PROBES, bind_scalar_function,
                                            probe_for)
        chain = node.args[0] if node.args else None
        if node.name in PROBES and isinstance(chain, ast.JsonAccess) \
                and not chain.as_text:
            # push the call into the scan as one access request that a
            # byte kernel answers (Section 4.2 applied to a predicate,
            # as cast rewriting is in 4.3).  Literals bind without side
            # effects; anything else fails here, before the chain
            # registers a request.
            probe = probe_for(node.name, [
                self._bind_expr(arg, scope)
                if isinstance(arg, _LITERAL_NODES) else None
                for arg in node.args[1:]])
            source, path = self._access_path(chain, scope)
            return source.request(path, PROBES[node.name].result_type,
                                  as_text=False, probe=probe)
        args = [self._bind_expr(arg, scope) for arg in node.args]
        return bind_scalar_function(node.name, args)

    def _bind_binary(self, node: ast.Binary, scope: _Scope) -> ex.Expression:
        if node.op == "and":
            return ex.BoolAnd(self._bind_expr(node.left, scope),
                              self._bind_expr(node.right, scope))
        if node.op == "or":
            return ex.BoolOr(self._bind_expr(node.left, scope),
                             self._bind_expr(node.right, scope))
        if node.op in ("+", "-"):
            folded = self._try_fold_interval(node, scope)
            if folded is not None:
                return folded
        left = self._bind_expr(node.left, scope)
        right = self._bind_expr(node.right, scope)
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return ex.Comparison(node.op, left, right)
        return ex.Arithmetic(node.op, left, right)

    def _try_fold_interval(self, node: ast.Binary,
                           scope: _Scope) -> Optional[ex.Expression]:
        """Fold ``date_literal +/- interval`` into a timestamp literal."""
        if not isinstance(node.right, ast.IntervalLit):
            return None
        base = self._bind_expr(node.left, scope)
        if not isinstance(base, ex.Literal) or \
                base.result_type != ColumnType.TIMESTAMP:
            raise SqlBindError(
                "interval arithmetic needs a date/timestamp literal")
        interval = node.right
        sign = 1 if node.op == "+" else -1
        unit = interval.unit.rstrip("s")
        if unit == "year":
            value = add_interval(base.value, years=sign * interval.amount)
        elif unit == "month":
            value = add_interval(base.value, months=sign * interval.amount)
        else:
            value = base.value + sign * ex.interval_micros(interval.amount,
                                                           interval.unit)
        return ex.Literal(value, ColumnType.TIMESTAMP)

    def _fold_datetime(self, node: ast.Node, scope: _Scope) -> ex.Expression:
        return self._bind_expr(node, scope)

    def _bind_identifier(self, node: ast.Identifier,
                         scope: _Scope) -> ex.Expression:
        parts = node.parts
        if len(parts) == 2:
            found = scope.find(parts[0])
            if found is None:
                raise SqlBindError(f"unknown table alias {parts[0]!r}")
            source, _owner = found
            return self._resolve_member(source, parts[1])
        if len(parts) == 1:
            # search all sources for a unique match
            matches: List[ex.Expression] = []
            current: Optional[_Scope] = scope
            while current is not None:
                for source in list(current.block.sources) + [
                        spec.source for spec in current.block.left_joins]:
                    member = self._try_member(source, parts[0])
                    if member is not None:
                        matches.append(member)
                if matches:
                    break
                current = current.parent
            if len(matches) == 1:
                return matches[0]
            if not matches:
                raise SqlBindError(f"unknown column {parts[0]!r}")
            raise SqlBindError(f"ambiguous column {parts[0]!r}")
        raise SqlBindError(f"cannot resolve identifier {'.'.join(parts)!r}")

    def _resolve_member(self, source: Source, member: str) -> ex.Expression:
        resolved = self._try_member(source, member)
        if resolved is None:
            raise SqlBindError(
                f"unknown column {member!r} on {source.alias!r}")
        return resolved

    def _try_member(self, source: Source,
                    member: str) -> Optional[ex.Expression]:
        if isinstance(source, ScanSource):
            if member == DOC_COLUMN:
                return _DocRef(source)
            if member == "rowid":
                return source.request(ROWID_PATH, ColumnType.INT64, False)
            return None
        qualified = f"{source.alias}.{member}"
        column_type = source.output_types.get(qualified)
        if column_type is None:
            return None
        return ex.ColumnRef(qualified, column_type)

    # -- JSON access chains + cast rewriting -----------------------------

    def _bind_access_or_cast(self, node: ast.Node,
                             scope: _Scope) -> ex.Expression:
        if isinstance(node, ast.CastExpr):
            target = _TYPE_NAMES.get(node.type_name)
            if target is None:
                raise SqlBindError(f"unknown type {node.type_name!r}")
            if isinstance(node.operand, ast.JsonAccess):
                return self._bind_json_access(node.operand, scope, target)
            operand = self._bind_expr(node.operand, scope)
            if operand.result_type == target:
                return operand
            return ex.Cast(operand, target)
        assert isinstance(node, ast.JsonAccess)
        return self._bind_json_access(node, scope, None)

    def _access_path(self, node: ast.JsonAccess,
                     scope: _Scope) -> Tuple[ScanSource, KeyPath]:
        """The scan and key path an access chain reads."""
        steps: List[Union[str, int]] = []
        current: ast.Node = node
        while isinstance(current, ast.JsonAccess):
            steps.append(current.step)
            if isinstance(current.base, ast.JsonAccess) and current.base.as_text:
                raise SqlBindError(
                    "->> returns text; only -> can be chained further")
            current = current.base
        steps.reverse()
        base = self._bind_expr(current, scope)
        if not isinstance(base, _DocRef):
            raise SqlBindError(
                "JSON access operators require a table's document column")
        return base.source, KeyPath(tuple(steps))

    def _bind_json_access(self, node: ast.JsonAccess, scope: _Scope,
                          cast_target: Optional[ColumnType]) -> ex.Expression:
        source, path = self._access_path(node, scope)
        if not node.as_text:
            target = cast_target or ColumnType.JSONB
            if target == ColumnType.JSONB:
                return source.request(path, ColumnType.JSONB, as_text=False)
            # `->` with a cast behaves like a typed text access
        target = cast_target or ColumnType.STRING
        if self.options.enable_cast_rewriting:
            # Section 4.3: the cast type selects the specialized access
            request_type = (ColumnType.DECIMAL
                            if target == ColumnType.FLOAT64 else target)
            return source.request(path, request_type, as_text=True)
        # ablation: always fetch text, cast in the expression layer
        text = source.request(path, ColumnType.STRING, as_text=True)
        if target == ColumnType.STRING:
            return text
        return ex.Cast(text, target)


# ---------------------------------------------------------------------------
# aggregation context


class _AggContext:
    """Binds post-aggregation expressions: group-by sub-expressions map
    to key columns, aggregate calls map to aggregate outputs."""

    def __init__(self, binder: Binder, scope: _Scope, block: QueryBlock,
                 group_names: Dict[ast.Node, str]):
        self.binder = binder
        self.scope = scope
        self.block = block
        self.group_names = group_names
        self._agg_cache: Dict[ast.Node, str] = {}

    def bind(self, node: ast.Node) -> ex.Expression:
        if node in self.group_names:
            name = self.group_names[node]
            for key_name, key_expr in self.block.group_keys:
                if key_name == name:
                    return ex.ColumnRef(name, key_expr.result_type)
        if isinstance(node, ast.FuncCall) and (node.name in _AGG_FUNCS):
            return self._bind_aggregate(node)
        if isinstance(node, ast.Binary):
            if node.op in ("and",):
                return ex.BoolAnd(self.bind(node.left), self.bind(node.right))
            if node.op == "or":
                return ex.BoolOr(self.bind(node.left), self.bind(node.right))
            if node.op in ("=", "<>", "<", "<=", ">", ">="):
                return ex.Comparison(node.op, self.bind(node.left),
                                     self.bind(node.right))
            return ex.Arithmetic(node.op, self.bind(node.left),
                                 self.bind(node.right))
        if isinstance(node, ast.Unary):
            if node.op == "not":
                return ex.Not(self.bind(node.operand))
            operand = self.bind(node.operand)
            return ex.Arithmetic("-", ex.Literal(0, operand.result_type),
                                 operand)
        if isinstance(node, ast.CastExpr) and not isinstance(
                node.operand, ast.JsonAccess):
            target = _TYPE_NAMES.get(node.type_name)
            if target is None:
                raise SqlBindError(f"unknown type {node.type_name!r}")
            return ex.Cast(self.bind(node.operand), target)
        if isinstance(node, (ast.NumberLit, ast.StringLit, ast.NullLit,
                             ast.BoolLit, ast.DateLit)):
            return self.binder._bind_expr(node, self.scope)
        if isinstance(node, ast.ScalarSubquery):
            return self.binder._bind_expr(node, self.scope)
        if isinstance(node, ast.IsNullExpr):
            return ex.IsNull(self.bind(node.operand), negated=node.negated)
        if isinstance(node, ast.LikeExpr):
            return ex.Like(self.bind(node.operand), node.pattern,
                           negated=node.negated)
        if isinstance(node, ast.ExtractExpr):
            return ex.ExtractYear(self.bind(node.operand))
        if isinstance(node, ast.SubstringExpr):
            return ex.Substring(self.bind(node.operand), node.start,
                                node.length)
        raise SqlBindError(
            f"{type(node).__name__} must be part of GROUP BY or inside "
            f"an aggregate")

    def _bind_aggregate(self, node: ast.FuncCall) -> ex.Expression:
        cached = self._agg_cache.get(node)
        if cached is None:
            if node.star:
                spec = AggregateSpec("count_star", None,
                                     f"a{len(self.block.aggregates)}")
            else:
                arg = self.binder._bind_expr(node.args[0], self.scope)
                func = node.name
                if func == "count" and node.distinct:
                    func = "count_distinct"
                spec = AggregateSpec(func, arg,
                                     f"a{len(self.block.aggregates)}")
            self.block.aggregates.append(spec)
            cached = spec.name
            self._agg_cache[node] = cached
        for spec in self.block.aggregates:
            if spec.name == cached:
                return ex.ColumnRef(cached, spec.output_type())
        raise AssertionError("aggregate vanished")


# ---------------------------------------------------------------------------
# helpers


def _conjuncts(node: ast.Node) -> List[ast.Node]:
    if isinstance(node, ast.Binary) and node.op == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _contains_aggregate(node: ast.Node) -> bool:
    if isinstance(node, ast.FuncCall) and (node.name in _AGG_FUNCS):
        return True
    for value in vars(node).values():
        if isinstance(value, ast.Node) and _contains_aggregate(value):
            return True
        if isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.Node) and _contains_aggregate(item):
                    return True
                if isinstance(item, tuple):
                    if any(isinstance(sub, ast.Node) and
                           _contains_aggregate(sub) for sub in item):
                        return True
    return False


def _aliases(expr: ex.Expression) -> Set[str]:
    return {alias_of_column(name) for name in expr.referenced_columns()}


def _own_aliases(block: QueryBlock) -> Set[str]:
    aliases = {source.alias for source in block.sources}
    aliases |= {spec.source.alias for spec in block.left_joins}
    return aliases


def _split_by_alias(bound: ex.Expression, inner_aliases: Set[str]) -> str:
    """Classify a LEFT JOIN conjunct: equality across sides, inner-only
    filter, or residual."""
    refs = _aliases(bound)
    if refs <= inner_aliases:
        return "inner_only"
    if isinstance(bound, ex.Comparison) and bound.op == "=":
        left, right = _aliases(bound.left), _aliases(bound.right)
        if (left <= inner_aliases) != (right <= inner_aliases):
            if left and right:
                return "mixed_eq"
    return "residual"


def _and_all(exprs: List[ex.Expression]) -> Optional[ex.Expression]:
    result: Optional[ex.Expression] = None
    for expr in exprs:
        result = expr if result is None else ex.BoolAnd(result, expr)
    return result


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _default_name(expr: ast.Node, index: int) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.parts[-1]
    if isinstance(expr, ast.JsonAccess) and isinstance(expr.step, str):
        return expr.step
    if isinstance(expr, ast.CastExpr):
        return _default_name(expr.operand, index)
    return f"col{index}"
