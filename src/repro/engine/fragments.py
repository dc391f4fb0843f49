"""Plan fragments — the two-phase IR the cluster executes
(DESIGN.md §10).

The optimizer's output for a partial-capable block is a small DAG of
:class:`PlanFragment`\\ s — leaf scans producing partial states, an
exchange edge, and a final merge — with the partitioning of every edge
declared.  The cluster coordinator ships the leaf fragments to shards
over the JSON-lines protocol and runs only the merge fragment itself
(``cluster/coordinator.py``); a single node runs the fused operator
tree instead (``engine/executor.py``).

Location transparency holds because fragment *planning* is purely
shape-driven (it never reads data) and fragment *execution* reuses the
chunk machinery of ``partial.py``, whose ``(block, chunk)``-ordered
merge is bit-identical to the fused operator tree by construction.

Broadcast joins.  A two-table equi-join plans as::

    build[b] ==broadcast==> probe[a] --partials--> merge

The build side's surviving rows are broadcast once to every shard;
each probe fragment joins its canonical chunks against one shared hash
index and feeds joined chunks through the ordinary per-mode chunk
builders.  Whether the build side is *small enough* to broadcast is
the coordinator's decision (it compares the shards' unanimous estimate
against ``broadcast_max_rows``); the planner here only pins the
orientation — probe/build and join order come from the same DP
ordering and 4x swap rule as the fused plan, so the shipped plan is
the fused plan.

Anything the IR cannot express declines with a ``reason`` and the
coordinator falls back to the gather path.  Results are bit-identical
either way; decline is a performance event, never a correctness event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.optimizer import Planner
from repro.engine.partial import (
    GATHER,
    _has_scalar_subquery,
    classify_block,
    classify_output,
)
from repro.engine.plan import QueryBlock, QueryOptions, ScanSource


@dataclass(frozen=True)
class PlanFragment:
    """One node of the fragment DAG.

    ``kind``
        ``"partial"`` — scan one alias, emit per-chunk partial states;
        ``"build"`` — scan one alias, emit its surviving rows for a
        broadcast; ``"merge"`` — fold upstream pieces in global
        ``(block, chunk)`` order and run the finishing tail.
    ``exchange``
        How this fragment's *output* moves: ``"partials"`` (chunk
        states to the merge), ``"broadcast"`` (build rows replicated to
        every probe executor) or ``"result"`` (the merge's final rows).
    ``partitioning``
        Where the fragment runs: ``"canonical-blocks"`` (every shard
        over its round-robin blocks) or ``"coordinator"`` (exactly one
        executor).
    """

    fragment_id: int
    kind: str
    exchange: str
    partitioning: str
    alias: Optional[str] = None
    mode: Optional[str] = None
    inputs: Tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out = {"id": self.fragment_id, "kind": self.kind,
               "exchange": self.exchange,
               "partitioning": self.partitioning}
        if self.alias is not None:
            out["alias"] = self.alias
        if self.mode is not None:
            out["mode"] = self.mode
        if self.inputs:
            out["inputs"] = list(self.inputs)
        return out


@dataclass(frozen=True)
class JoinSpec:
    """Pinned broadcast-join orientation (shipped with the fragments
    so every executor obeys one plan regardless of local statistics)."""

    probe: str
    build: str
    order: Tuple[str, ...]
    #: planner estimate of the build side's surviving cardinality —
    #: shard-local when planned on a shard; the coordinator sums the
    #: shards' estimates before comparing against ``broadcast_max_rows``
    build_estimate: float

    def to_dict(self) -> dict:
        return {"probe": self.probe, "build": self.build,
                "order": list(self.order),
                "build_estimate": float(self.build_estimate)}


@dataclass
class FragmentPlan:
    """The planned DAG, or a decline with its reason."""

    mode: str  # partial merge mode, or GATHER when declined
    fragments: List[PlanFragment] = field(default_factory=list)
    join: Optional[JoinSpec] = None
    reason: Optional[str] = None

    @property
    def declined(self) -> bool:
        return self.mode == GATHER

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode}
        if self.reason:
            out["reason"] = self.reason
        if self.join is not None:
            out["join"] = self.join.to_dict()
        if self.fragments:
            out["fragments"] = [fragment.to_dict()
                                for fragment in self.fragments]
        return out

    def describe(self) -> str:
        """One-line rendering for EXPLAIN / the coordinator's stats."""
        if self.declined:
            return f"fragments: gather (reason={self.reason})"
        if self.join is not None:
            return (f"fragments: build[{self.join.build}] =broadcast=> "
                    f"probe[{self.join.probe}] -> merge "
                    f"(mode={self.mode})")
        alias = self.fragments[0].alias
        return f"fragments: partial[{alias}] -> merge (mode={self.mode})"


def plan_fragments(block: QueryBlock,
                   options: Optional[QueryOptions] = None) -> FragmentPlan:
    """Plan a block as a fragment DAG, or decline with a reason.

    Deterministic and shape-driven except for the broadcast join's
    probe/build orientation, which follows the statistics-fed DP order
    and 4x swap rule — exactly the fused plan's choice, so executing
    the fragments replays the fused operator tree.
    """
    options = options or QueryOptions()
    mode = classify_block(block)
    if mode != GATHER:
        # single-source partial: scan fragment feeding the merge
        scan = PlanFragment(0, "partial", "partials", "canonical-blocks",
                            alias=block.sources[0].alias, mode=mode)
        merge = PlanFragment(1, "merge", "result", "coordinator",
                             mode=mode, inputs=(0,))
        return FragmentPlan(mode, [scan, merge])

    # two-table broadcast join?
    reason = _join_decline_reason(block)
    if reason is not None:
        return FragmentPlan(GATHER, reason=reason)
    mode = classify_output(block)
    if mode == GATHER:
        return FragmentPlan(GATHER, reason="output-mode")

    planner = Planner(options)
    planned, join_edges, _residuals = planner.fragment_inputs(block)
    if not join_edges:
        return FragmentPlan(GATHER, reason="cross-product")
    aliases = [source.alias for source in block.sources]
    order = planner.join_order(aliases, planned, join_edges)
    probe, build = planner.probe_build_orientation(order, planned)
    join = JoinSpec(probe, build, tuple(order),
                    planned[build].cardinality)
    fragments = [
        PlanFragment(0, "build", "broadcast", "canonical-blocks",
                     alias=build),
        PlanFragment(1, "partial", "partials", "canonical-blocks",
                     alias=probe, mode=mode, inputs=(0,)),
        PlanFragment(2, "merge", "result", "coordinator", mode=mode,
                     inputs=(1,)),
    ]
    return FragmentPlan(mode, fragments, join=join)


def _join_decline_reason(block: QueryBlock) -> Optional[str]:
    """Why a non-single-source block cannot plan as a broadcast join
    (``None`` when it can, shape-wise)."""
    # LEFT JOINs and IN-subqueries bind as one source plus side
    # blocks, so test them before the source count for the telling
    # reason
    if block.left_joins:
        return "left-join"
    if block.subquery_filters:
        return "subquery-filter"
    if block.union_blocks:
        return "union"
    if _has_scalar_subquery(block):
        return "scalar-subquery"
    if len(block.sources) != 2:
        return "not-two-tables"
    if not all(isinstance(source, ScanSource)
               for source in block.sources):
        return "derived-table"
    return None
