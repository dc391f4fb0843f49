"""Tile partitions and tuple reordering (Section 3.2).

When insertion order has little spatial locality (shuffled data,
combined logs, Figure 3's per-type news items), per-tile mining finds
nothing above the threshold.  Reordering groups ``partition_size``
neighbouring tiles into a partition, mines with a reduced threshold,
matches every tuple to the frequent itemset that describes it best, and
redistributes tuples so that each itemset cluster satisfies the
*original* threshold inside a single tile.

The implementation follows the paper's six steps:

1. mine each tile with ``threshold / partition_size``;
2. exchange itemsets between the tiles of the partition — itemsets with
   an aggregate frequency above ``threshold * tile_size`` survive;
3. match every tuple to its best itemset (largest overlap, largest
   itemset, ties resolved by the minimal sum of item ids so ties are
   deterministic);
4. aggregate itemset counts per tile and partition in a hash table and
   greedily map itemset clusters to tiles so the original threshold is
   reached where possible;
5. compute swap positions between tiles — tuples already where they are
   needed stay, everything else is exchanged pairwise;
6. the final extraction mining runs on the reordered tiles (performed
   by the regular tile construction that follows).

Partitions are disjoint, so partitions can be processed by independent
workers without interaction (the parallel-loading story of Figure 4).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.mining.dictionary import encode_documents
from repro.mining.fpgrowth import FPGrowth, ItemsetMatcher, closed_itemsets
from repro.tiles.extractor import ExtractionConfig

Itemset = FrozenSet[int]


def _tile_boundaries(num_rows: int, tile_size: int,
                     occupancy: Optional[Sequence[int]]) -> List[int]:
    """Start offsets of each tile.  Without *occupancy* the classic
    bulk-load layout is assumed (every tile full except the last); with
    it, the actual per-tile row counts of already-sealed tiles are used
    (online maintenance reorders tiles that partial flushes may have
    sealed below ``tile_size``)."""
    if occupancy is None:
        return list(range(0, num_rows, tile_size))
    starts = []
    offset = 0
    for count in occupancy:
        starts.append(offset)
        offset += count
    if offset != num_rows:
        raise ValueError(
            f"occupancy covers {offset} rows, partition has {num_rows}")
    return starts


def mine_partition_itemsets(
    transactions: Sequence[Sequence[int]], config: ExtractionConfig,
    occupancy: Optional[Sequence[int]] = None,
) -> List[Itemset]:
    """Steps 1-2: per-tile mining with the reduced threshold, then the
    itemset exchange.  Returns surviving itemsets, largest first."""
    tile_size = config.tile_size
    reduced_fraction = config.threshold / max(1, config.partition_size)
    aggregate: Dict[Itemset, int] = defaultdict(int)
    starts = _tile_boundaries(len(transactions), tile_size, occupancy)
    sizes = (occupancy if occupancy is not None
             else [tile_size] * len(starts))
    for start, size in zip(starts, sizes):
        chunk = transactions[start : start + size]
        min_count = max(1, math.ceil(reduced_fraction * len(chunk)))
        miner = FPGrowth(min_count, config.mining_budget)
        for itemset, support in miner.mine(chunk).items():
            aggregate[itemset] += support
    survive_count = config.threshold * tile_size
    survivors = {
        itemset: count for itemset, count in aggregate.items()
        if count > survive_count
    }
    # Matching wants descriptions, not every frequent fragment of one:
    # the closed itemsets are exactly the distinct document signatures
    # (a fragment shared by several types keeps its higher support and
    # survives; a fragment of a single type is dominated).
    survivors = closed_itemsets(survivors)
    ranked = sorted(survivors,
                    key=lambda s: (-len(s), -survivors[s], sorted(s)))
    # When the eq. (1) budget caps the mined itemset size, many small
    # closed fragments survive; matching only needs the best
    # descriptions, so bound the candidate list (largest, most frequent
    # first — ties in matching stay deterministic).
    return ranked[:MAX_MATCH_ITEMSETS]


#: upper bound on the itemsets considered during matching (step 3)
MAX_MATCH_ITEMSETS = 64


def match_tuples(
    transactions: Sequence[Sequence[int]], itemsets: Sequence[Itemset]
) -> List[Optional[Itemset]]:
    """Step 3: the itemset that describes each tuple best (or None).

    The match depends on the transaction alone, and a partition holds
    few distinct transactions (document types repeat), so each distinct
    one is matched once."""
    matcher = ItemsetMatcher(itemsets)
    memo: Dict[Tuple[int, ...], Optional[Itemset]] = {}
    matches = []
    for transaction in transactions:
        key = tuple(transaction)
        if key in memo:
            match = memo[key]
        else:
            match = memo[key] = matcher.match(transaction)
        matches.append(match)
    return matches


def assign_rows_to_tiles(
    matches: Sequence[Optional[Itemset]],
    tile_of_row: Sequence[int],
    tile_occupancy: Sequence[int],
    threshold: float,
    tile_size: int,
) -> List[int]:
    """Step 4: greedy cluster-to-tile mapping.

    Returns ``desired[row] -> tile`` with the feasibility invariant that
    every tile receives exactly as many rows as it currently holds (the
    redistribution is a permutation).  Clusters are placed largest
    first; a cluster claims tiles as long as it can fill at least the
    extraction threshold of each; rows of unplaced clusters and
    unmatched rows keep their tile when possible.
    """
    num_tiles = len(tile_occupancy)
    slots = list(tile_occupancy)
    desired = [-1] * len(matches)

    rows_by_cluster: Dict[Itemset, List[int]] = defaultdict(list)
    for row, match in enumerate(matches):
        if match is not None:
            rows_by_cluster[match].append(row)
    ranked = sorted(rows_by_cluster.items(),
                    key=lambda entry: (-len(entry[1]), sorted(entry[0])))

    for itemset, rows in ranked:
        remaining = list(rows)
        while remaining:
            if len(remaining) < threshold * tile_size:
                break  # cannot satisfy the threshold anywhere: leave them
            # pick the tile that already holds most of this cluster
            # (minimizes swaps), among tiles with free slots
            per_tile: Dict[int, int] = defaultdict(int)
            for row in remaining:
                if slots[tile_of_row[row]] > 0:
                    per_tile[tile_of_row[row]] += 1
            candidates = [t for t in range(num_tiles) if slots[t] > 0]
            if not candidates:
                break
            tile = max(candidates, key=lambda t: (per_tile.get(t, 0), -t))
            take = min(slots[tile], len(remaining))
            # residents of the chosen tile first (they stay in place)
            remaining.sort(key=lambda row: tile_of_row[row] != tile)
            for row in remaining[:take]:
                desired[row] = tile
            slots[tile] -= take
            remaining = remaining[take:]

    # unmatched / leftover rows: keep the current tile when it has slots
    homeless: List[int] = []
    for row, tile in enumerate(desired):
        if tile != -1:
            continue
        home = tile_of_row[row]
        if slots[home] > 0:
            desired[row] = home
            slots[home] -= 1
        else:
            homeless.append(row)
    free_tiles = [t for t in range(num_tiles) for _ in range(slots[t])]
    for row, tile in zip(homeless, free_tiles):
        desired[row] = tile
    return desired


def plan_swaps(
    tile_of_row: Sequence[int], desired: Sequence[int]
) -> List[Tuple[int, int]]:
    """Step 5: pairwise swap positions realizing the mapping.

    A tuple needed in its current tile is never touched.  Misplaced
    tuples are exchanged pairwise; whenever possible the counterpart is
    a tuple that benefits from the same swap (it wants to move exactly
    where this one lives), otherwise any tuple of the target tile that
    has to leave it.
    """
    num_rows = len(desired)
    current = list(tile_of_row)
    # misplaced rows living in tile t, grouped by the tile they want
    misplaced: Dict[int, Dict[int, List[int]]] = defaultdict(
        lambda: defaultdict(list)
    )
    worklist: List[int] = []
    for row in range(num_rows):
        if current[row] != desired[row]:
            misplaced[current[row]][desired[row]].append(row)
            worklist.append(row)

    def _take_counterpart(target_tile: int, preferred_destination: int):
        groups = misplaced[target_tile]
        rows = groups.get(preferred_destination)
        if rows:
            return rows.pop()
        for rows in groups.values():
            if rows:
                return rows.pop()
        return None

    swaps: List[Tuple[int, int]] = []
    while worklist:
        row = worklist.pop()
        if current[row] == desired[row]:
            continue
        target_tile = desired[row]
        # mutual swap first (benefits both tiles), else any occupant
        # that has to leave the target tile.  Flow conservation (the
        # desired mapping is a permutation) guarantees one exists.
        counterpart = _take_counterpart(target_tile, current[row])
        if counterpart is None:
            continue
        # this row leaves its own misplaced bucket
        bucket = misplaced[current[row]][desired[row]]
        if row in bucket:
            bucket.remove(row)
        swaps.append((row, counterpart))
        current[row], current[counterpart] = current[counterpart], current[row]
        if current[counterpart] != desired[counterpart]:
            misplaced[current[counterpart]][desired[counterpart]].append(
                counterpart
            )
            worklist.append(counterpart)
    return swaps


def reorder_partition(
    documents: Sequence[object], config: ExtractionConfig
) -> List[int]:
    """Reorder one partition; returns the permutation ``order`` such
    that ``[documents[i] for i in order]`` clusters tuples of the same
    frequent itemset into the same tile."""
    _dictionary, transactions = encode_documents(
        documents, config.max_array_elements
    )
    return reorder_transactions(transactions, config)


def reorder_transactions(
    transactions: Sequence[Sequence[int]], config: ExtractionConfig,
    occupancy: Optional[Sequence[int]] = None,
) -> List[int]:
    """Reordering over pre-encoded transactions (the loader encodes a
    partition once and reuses the transactions for tile construction).

    *occupancy* gives the actual row count of each tile in the
    partition; without it every tile is assumed full except the last
    (the bulk-load layout).  The maintenance daemon passes the sealed
    tiles' real sizes so partitions containing partially-flushed tiles
    reorder correctly.
    """
    num_rows = len(transactions)
    tile_size = config.tile_size
    if occupancy is None:
        num_tiles = math.ceil(num_rows / tile_size)
    else:
        num_tiles = len(occupancy)
        if sum(occupancy) != num_rows:
            raise ValueError(
                f"occupancy covers {sum(occupancy)} rows, "
                f"partition has {num_rows}")
    if num_tiles <= 1:
        return list(range(num_rows))
    itemsets = mine_partition_itemsets(transactions, config, occupancy)
    if not itemsets:
        return list(range(num_rows))
    matches = match_tuples(transactions, itemsets)
    if occupancy is None:
        tile_of_row = [min(row // tile_size, num_tiles - 1)
                       for row in range(num_rows)]
        tile_occupancy = [0] * num_tiles
        for tile in tile_of_row:
            tile_occupancy[tile] += 1
    else:
        tile_of_row = []
        for tile, count in enumerate(occupancy):
            tile_of_row.extend([tile] * count)
        tile_occupancy = list(occupancy)
    desired = assign_rows_to_tiles(matches, tile_of_row, tile_occupancy,
                                   config.threshold, tile_size)

    swaps = plan_swaps(tile_of_row, desired)
    order = list(range(num_rows))
    position_of = list(range(num_rows))  # row -> slot
    for left, right in swaps:
        left_slot, right_slot = position_of[left], position_of[right]
        order[left_slot], order[right_slot] = order[right_slot], order[left_slot]
        position_of[left], position_of[right] = right_slot, left_slot
    return order


def apply_order(documents: Sequence[object], order: Sequence[int]) -> List[object]:
    """Materialize a permutation produced by :func:`reorder_partition`."""
    return [documents[index] for index in order]
