"""Query execution: plan a block, run it, collect results + counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.optimizer import Planner
from repro.engine.plan import QueryBlock, QueryOptions
from repro.engine.scan import ScanCounters


@dataclass
class QueryResult:
    columns: List[str]
    rows: List[Tuple]
    counters: ScanCounters = field(default_factory=ScanCounters)
    join_order: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError("result is not scalar")
        return self.rows[0][0]

    def format_table(self, limit: int = 20) -> str:
        headers = self.columns
        shown = self.rows[:limit]
        cells = [[_text(value) for value in row] for row in shown]
        widths = [max(len(header), *(len(row[i]) for row in cells))
                  if cells else len(header)
                  for i, header in enumerate(headers)]
        lines = [
            " | ".join(header.ljust(widths[i])
                       for i, header in enumerate(headers)),
            "-+-".join("-" * width for width in widths),
        ]
        for row in cells:
            lines.append(" | ".join(cell.ljust(widths[i])
                                    for i, cell in enumerate(row)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


def _text(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def execute_block(block: QueryBlock,
                  options: Optional[QueryOptions] = None) -> QueryResult:
    """Plan and run one query block on the fused operator tree — the
    one single-node executor.  The plan-fragment IR (DESIGN.md §10)
    serves the cluster coordinator only."""
    options = options or QueryOptions()
    planner = Planner(options)
    operator = planner.plan_block(block)
    batch = operator.materialize()
    columns = block.output_names()
    rows: List[Tuple] = []
    if batch is not None:
        vectors = [batch.column(name) for name in columns]
        for row in range(batch.length):
            rows.append(tuple(vector.value(row) for vector in vectors))
    counters = ScanCounters()
    for scan in planner.scans:
        counters.merge(scan.counters)
        # per-table running totals for the server's `stats` command
        scan.relation.record_scan(scan.counters)
    for kernel_op in planner.kernel_ops:
        # joins/aggregates/sorts report kernel_rows / fallback_rows
        counters.merge(kernel_op.counters)
    return QueryResult(columns, rows, counters, planner.last_join_order)
