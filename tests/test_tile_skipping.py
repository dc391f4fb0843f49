"""Tile skipping from the row spans (Section 4.8, DESIGN.md §5i).

``TileHeader.may_contain(path)`` is ``span_of(path) != EMPTY_SPAN``.
It must be true for every path some row of the tile holds.  With spans
and within the array cap it is also false for every path no row holds.
These tests check both after every operation that builds or changes a
tile header: ``build_tile``, ``extend_tile``, ``Relation.update`` and a
``.jtile`` save / load.  A skipped tile that is paged out costs no load.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.storage.persist import load_relation, save_relation
from repro.storage.tile_cache import ResolvedTileCache
from repro.storage.tilestore import TileStore
from repro.tiles.extractor import build_tile, extend_tile

_KEYS = ("a", "b", "c")
# slot 1 lies above a cap of 1, slot 3 above both caps, -1 counts
# from the end
_STEPS = _KEYS + (0, 1, 3, -1)
PROBE_PATHS = [KeyPath((s1,)) for s1 in _STEPS] + \
    [KeyPath((s1, s2)) for s1 in _STEPS for s2 in _STEPS] + \
    [KeyPath((s1, s2, s3)) for s1 in _KEYS for s2 in _STEPS
     for s3 in _STEPS]

_scalars = st.one_of(st.none(), st.integers(-3, 3),
                     st.sampled_from(["x", "y"]))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(_KEYS), children, max_size=2)),
    max_leaves=6)
_documents = st.dictionaries(st.sampled_from(_KEYS), _values, max_size=3)
_caps = st.sampled_from([0, 1, 2])


def holds(document, path: KeyPath) -> bool:
    """Whether *document* has a value (JSON null included) at *path*."""
    value = document
    for step in path.steps:
        if isinstance(step, str):
            if not isinstance(value, dict) or step not in value:
                return False
        elif not isinstance(value, list) or \
                not -len(value) <= step < len(value):
            return False
        value = value[step]
    return True


def within_cap(path: KeyPath, cap: int) -> bool:
    return all(0 <= step < cap for step in path.steps
               if isinstance(step, int))


def assert_may_contain(header, documents, exact: bool = True) -> None:
    """Every path a row holds may be contained; with *exact*, spans and
    a path within the cap, every path no row holds may not."""
    paths = set(PROBE_PATHS) | set(header.spans or ())
    for path in paths:
        held = any(holds(document, path) for document in documents)
        if held:
            assert header.may_contain(path), path
        elif exact and header.spans is not None and \
                within_cap(path, header.max_array_elements):
            assert not header.may_contain(path), path


def assert_relation(relation, exact: bool = True) -> None:
    for handle in relation.tiles:
        with handle.pinned() as tile:
            documents = tile.documents()
        assert_may_contain(handle.header, documents, exact)


def config_for(cap: int) -> ExtractionConfig:
    return ExtractionConfig(tile_size=8, partition_size=2,
                            max_array_elements=cap)


class TestMayContainProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_documents, min_size=1, max_size=12),
           st.lists(_documents, min_size=1, max_size=6), _caps)
    def test_build_and_extend(self, documents, batch, cap):
        config = config_for(cap)
        tile = build_tile(documents, None, config, 0, 0)
        assert (tile.header.spans is not None) == (cap > 0)
        assert_may_contain(tile.header, documents)
        extended, _delta = extend_tile(tile, batch, config)
        assert_may_contain(extended.header, documents + batch)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_documents, min_size=1, max_size=20),
           st.lists(st.tuples(st.integers(0, 10**6), _documents),
                    min_size=1, max_size=4), _caps)
    def test_update_and_save_load(self, documents, updates, cap):
        config = config_for(cap)
        with tempfile.TemporaryDirectory() as directory:
            db = Database(StorageFormat.TILES, config)
            relation = db.load_table("t", documents)
            path = Path(directory) / "t.jtile"
            save_relation(relation, path, rebind=False)
            assert_relation(load_relation(path))
            for row, document in updates:
                relation.update(row % relation.row_count, document)
            # spans never shrink on update: only soundness holds
            assert_relation(relation, exact=False)
            save_relation(relation, path, rebind=False)
            assert_relation(load_relation(path), exact=False)


class TestPagedOutSkipping:
    def test_skipped_tiles_cost_no_tile_loads(self, tmp_path):
        documents = [{"k": i, "y": i} if i >= 64 else {"k": i}
                     for i in range(128)]
        config = ExtractionConfig(tile_size=32, partition_size=2,
                                  enable_reordering=False)
        db = Database(StorageFormat.TILES, config)
        save_relation(db.load_table("t", documents), tmp_path / "t.jtile")
        relation = load_relation(tmp_path / "t.jtile",
                                 store=TileStore(cache=ResolvedTileCache()))
        assert not any(handle.resident for handle in relation.tiles)
        paged = Database(StorageFormat.TILES, config)
        paged.register("t", relation)
        result = paged.sql("select count(*) as n from t t "
                           "where t.data->>'y'::int >= 0")
        assert result.scalar() == 64
        assert result.counters.tiles_skipped == 2
        assert result.counters.tile_loads == 2  # the two scanned tiles
        assert not any(handle.resident for handle in relation.tiles[:2])
