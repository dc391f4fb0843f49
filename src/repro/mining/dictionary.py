"""Dictionary encoding of (key path, type) items (Section 3.3).

"We collect all keys from the documents and store them dictionary
encoded.  Dictionaries are created for every JSON tile and are used as
the database to mine."  The dictionary maps a typed key path to a dense
integer id; FPGrowth then operates on integer transactions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.jsonpath import KeyPath, Step, collect_key_paths
from repro.core.types import JsonType

Item = Tuple[KeyPath, JsonType]


class ItemDictionary:
    """Dense integer encoding of typed key paths, with occurrence counts."""

    __slots__ = ("_ids", "_items", "counts")

    def __init__(self):
        self._ids: Dict[Item, int] = {}
        self._items: List[Item] = []
        self.counts: List[int] = []

    def encode(self, item: Item) -> int:
        item_id = self._ids.get(item)
        if item_id is None:
            item_id = len(self._items)
            self._ids[item] = item_id
            self._items.append(item)
            self.counts.append(0)
        self.counts[item_id] += 1
        return item_id

    def lookup(self, item: Item) -> int:
        """Id of an item that must already exist."""
        return self._ids[item]

    def decode(self, item_id: int) -> Item:
        return self._items[item_id]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._ids

    def items(self) -> Iterable[Tuple[Item, int]]:
        return iter(self._ids.items())

    def key_counts(self) -> Dict[str, int]:
        """Key-path frequency database stored in the tile header
        (Section 4.4): textual path -> tuples containing it."""
        merged: Dict[str, int] = {}
        for (path, _jtype), item_id in self._ids.items():
            text = str(path)
            merged[text] = merged.get(text, 0) + self.counts[item_id]
        return merged


class _PathNode:
    """One interned key path of an :class:`ItemSink`: its children by
    step, and the item id of every (path, type) seen so far (-1: none)."""

    __slots__ = ("path", "children", "ids")

    def __init__(self, path: KeyPath):
        self.path = path
        self.children: Dict[Step, "_PathNode"] = {}
        self.ids = [-1] * len(JsonType)


class ItemSink:
    """Collects the typed key paths of documents while the JSONB encoder
    walks them (``repro.jsonb.encode(document, sink=sink)``), so one
    traversal yields both the bytes and the mining input.

    After every document has been encoded, ``dictionary`` and
    ``transactions`` equal what :func:`encode_documents` returns for the
    same documents: the same item ids in the same order, the same counts
    and one sorted transaction per document.  Child paths are interned
    per ``(parent, step)``, so a key path object is built once per
    partition rather than once per node.
    """

    __slots__ = ("dictionary", "transactions", "max_array_elements",
                 "root", "_items")

    def __init__(self, max_array_elements: int = 8):
        self.dictionary = ItemDictionary()
        self.transactions: List[List[int]] = []
        #: arrays contribute their leading slots only (Section 3.5)
        self.max_array_elements = max_array_elements
        self.root = _PathNode(KeyPath())
        self._items: List[int] = []

    def child(self, node: _PathNode, step: Step) -> _PathNode:
        found = node.children.get(step)
        if found is None:
            found = node.children[step] = _PathNode(node.path.child(step))
        return found

    def add(self, node: _PathNode, jtype: JsonType) -> None:
        """Record that the current document has a *jtype* value at
        *node* (a leaf, or an empty object / array)."""
        item_id = node.ids[jtype]
        if item_id < 0:
            item_id = node.ids[jtype] = self.dictionary.encode(
                (node.path, jtype))
        else:
            self.dictionary.counts[item_id] += 1
        self._items.append(item_id)

    def end_document(self) -> None:
        self.transactions.append(sorted(set(self._items)))
        self._items = []


def encode_documents(
    documents: Sequence[object], max_array_elements: int = 8
) -> Tuple[ItemDictionary, List[List[int]]]:
    """Collect the typed key paths of every document and dictionary-encode
    them into integer transactions (Section 3.1 steps 1-2 input).

    For callers that only need the items; the loader gets the same
    result from its JSONB encoding walk through an :class:`ItemSink`."""
    dictionary = ItemDictionary()
    transactions: List[List[int]] = []
    for document in documents:
        paths = collect_key_paths(document, max_array_elements)
        transaction = sorted({dictionary.encode(item) for item in paths})
        transactions.append(transaction)
    return dictionary, transactions


def combined_key_counts(key_counts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Merge several tiles' key-path frequency databases (Section 4.4)
    into one, as if their documents formed a single tile.

    The LSM compaction planner uses this to *predict* merge-time mining
    from resident headers alone: a path whose combined frequency clears
    the extraction threshold over the merged rows becomes a column of
    the output tile even when individual inputs fell short — without
    decoding a single document.
    """
    merged: Dict[str, int] = {}
    for counts in key_counts:
        for text, count in counts.items():
            merged[text] = merged.get(text, 0) + count
    return merged


def subset_dictionary(
    parent: ItemDictionary, transactions: Sequence[Sequence[int]]
) -> Tuple[ItemDictionary, List[List[int]]]:
    """Re-encode a slice of transactions with tile-local ids and counts.

    Tile construction after partition reordering reuses the partition's
    already-collected transactions instead of traversing every document
    a second time; this builds the tile-local dictionary the extraction
    step expects.
    """
    local = ItemDictionary()
    counts = local.counts
    remapped: List[List[int]] = []
    local_ids: Dict[int, int] = {}  # parent id -> local id
    for transaction in transactions:
        row = []
        for item_id in transaction:
            local_id = local_ids.get(item_id)
            if local_id is None:
                local_id = local_ids[item_id] = local.encode(
                    parent.decode(item_id))
            else:
                counts[local_id] += 1
            row.append(local_id)
        row.sort()
        remapped.append(row)
    return local, remapped
