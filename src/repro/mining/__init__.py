"""Frequent itemset mining over typed key paths (Section 3.3).

* :class:`FPGrowth` — budgeted FPGrowth miner (equation 1 bounds the
  itemset size so tile creation is never overloaded).
* :class:`ItemDictionary` / :func:`encode_documents` — per-tile
  dictionary encoding of (key path, type) items; :class:`ItemSink`
  collects the same items during JSONB encoding.
* :func:`maximal_itemsets` / :func:`best_match` — helpers used by
  extraction (Section 3.1) and reordering (Section 3.2).
"""

from repro.mining.dictionary import ItemDictionary, ItemSink, encode_documents
from repro.mining.fpgrowth import (
    DEFAULT_BUDGET,
    FPGrowth,
    best_match,
    closed_itemsets,
    max_itemset_size,
    maximal_itemsets,
)

__all__ = [
    "DEFAULT_BUDGET",
    "FPGrowth",
    "ItemDictionary",
    "ItemSink",
    "best_match",
    "closed_itemsets",
    "encode_documents",
    "max_itemset_size",
    "maximal_itemsets",
]
