"""Plan rendering: a readable operator tree for EXPLAIN output."""

from __future__ import annotations

from typing import List

from repro.engine import operators as op
from repro.engine.scan import TableScan


def render_plan(root, indent: str = "", analyze: bool = False) -> str:
    """Render a physical operator tree as indented text.

    With *analyze*, scans are annotated with their (already executed)
    counters — tiles scanned/skipped, fallback lookups, cache hits.
    """
    lines: List[str] = []
    _render(root, lines, 0, analyze)
    return "\n".join(lines)


def render_fragments(plan) -> str:
    """Render a :class:`~repro.engine.fragments.FragmentPlan`: the
    one-line summary, then one line per fragment with its partitioning
    and exchange — the boundaries a cluster would ship across."""
    lines = [plan.describe()]
    for fragment in plan.fragments:
        alias = f"[{fragment.alias}]" if fragment.alias else ""
        mode = f" mode={fragment.mode}" if fragment.mode else ""
        inputs = ("  <- " + ", ".join(f"F{i}" for i in fragment.inputs)
                  if fragment.inputs else "")
        lines.append(f"  F{fragment.fragment_id} {fragment.kind}{alias} "
                     f"on {fragment.partitioning} -> "
                     f"{fragment.exchange}{mode}{inputs}")
    if plan.join is not None:
        lines.append(f"  broadcast build estimate: "
                     f"{plan.join.build_estimate:.1f} rows")
    return "\n".join(lines)


def _describe(node, analyze: bool = False) -> str:
    if isinstance(node, TableScan):
        skips = ""
        if node.skip_paths:
            skips = f", skip on {[str(p) for p in node.skip_paths]}"
        prunes = ""
        if node.range_prunes:
            prunes = f", zone maps on " \
                     f"{sorted({str(p.path) for p in node.range_prunes})}"
        predicate = ", filtered" if node.predicates else ""
        workers = (f", parallelism={node.parallelism}"
                   if node.parallelism > 1 else "")
        cache = ", cached" if node.use_cache else ""
        text = (f"TableScan {node.relation.name} "
                f"[{node.relation.format.value}] "
                f"({len(node.requests)} accesses{predicate}{skips}{prunes}"
                f"{workers}{cache})")
        if analyze:
            stats = ", ".join(f"{name}={value}" for name, value
                              in node.counters.as_dict().items())
            text += f"  [{stats}]"
            if node.levels_scanned:
                # per-LSM-level tile counts this scan actually touched
                levels = ", ".join(
                    f"L{level}={count}" for level, count
                    in sorted(node.levels_scanned.items()))
                text += f"  [levels: {levels}]"
        return text
    if isinstance(node, op.HashJoinOp):
        null_aware = ", null-aware" if node.null_aware else ""
        return (f"HashJoin [{node.kind.value}{null_aware}] on "
                f"{len(node.left_keys)} key(s)"
                + (", residual" if node.residual is not None else "")
                + _kernel_stats(node, analyze))
    if isinstance(node, op.HashAggregateOp):
        keys = [name for name, _ in node.keys]
        aggs = [f"{spec.func}->{spec.name}" for spec in node.aggregates]
        return f"HashAggregate keys={keys} aggs={aggs}" \
            + _kernel_stats(node, analyze)
    if isinstance(node, op.FilterOp):
        return "Filter (pushed into scan)" if node.pre_applied else "Filter"
    if isinstance(node, op.ProjectOp):
        return f"Project {[name for name, _ in node.outputs]}"
    if isinstance(node, op.SortOp):
        keys = [f"{k.name}{' desc' if k.descending else ''}" for k in node.keys]
        return f"Sort by {keys}" + _kernel_stats(node, analyze)
    if isinstance(node, op.TopKOp):
        keys = [f"{k.name}{' desc' if k.descending else ''}" for k in node.keys]
        return f"TopK limit={node.limit} by {keys}" \
            + _kernel_stats(node, analyze)
    if isinstance(node, op.LimitOp):
        return f"Limit {node.limit}"
    if isinstance(node, op.ChainOp):
        return f"UnionAll ({len(node.children)} branches)"
    if isinstance(node, op.BatchSource):
        return "BatchSource"
    return type(node).__name__


def _kernel_stats(node, analyze: bool) -> str:
    """Batch-kernel coverage annotation for EXPLAIN ANALYZE."""
    if not analyze:
        return ""
    counters = node.counters
    return (f"  [kernel_rows={counters.kernel_rows}, "
            f"fallback_rows={counters.fallback_rows}]")


def _children(node):
    if isinstance(node, op.HashJoinOp):
        return [node.left, node.right]
    if isinstance(node, op.ChainOp):
        return list(node.children)
    child = getattr(node, "child", None)
    return [child] if child is not None else []


def _render(node, lines: List[str], depth: int, analyze: bool = False) -> None:
    prefix = "  " * depth + ("-> " if depth else "")
    lines.append(prefix + _describe(node, analyze))
    for child in _children(node):
        _render(child, lines, depth + 1, analyze)
