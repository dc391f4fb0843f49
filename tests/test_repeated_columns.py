"""Repeated ``chain[*].key`` columns (``repro.tiles.repeated``, DESIGN.md
§5h).

When mining extracts STRING slot columns ``chain[k].key``, a tile stores
one dictionary-coded repeated column over every array element instead.
Covered here:

* the differential: ``json_contains`` / ``json_length`` answers and
  reads of ``chain[k].key`` (any slot, any requested type) equal the
  JSONB format's (``contains_probe``, ``json_length``) and the slot
  columns plus Section 3.4 patch that Tiles-* tiles still store, over
  generated documents with empty and over-cap arrays, non-object
  elements, missing members, numeric-string and non-string members,
  JSON null and non-array chains;
* the build against the decoded documents;
* ``.jtile`` round trips, and files written without the column;
* ``extend_tile`` byte identity and associativity, ``Relation.update``
  and ``_rewrite`` against a rebuild;
* the benchmark suite's Twitter queries, bit-identical at parallelism
  1 and 4;
* TPC-H and Yelp tiles build no repeated column.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.core.jsonpath import KeyPath
from repro.core.types import ColumnType
from repro.engine.functions import json_contains, json_length
from repro.jsonb import decode, encode
from repro.storage.formats import StorageFormat
from repro.storage.persist import (
    _open_catalog,
    load_relation,
    open_database,
    save_database,
    save_relation,
)
from repro.tiles import ExtractionConfig, TileSchema, build_tile, extend_tile
from repro.tiles.repeated import (
    ABSENT,
    OTHER,
    RepeatedColumn,
    repeated_slot,
)
from repro.workloads import tpch, twitter, yelp

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"
CONFIG = ExtractionConfig(tile_size=16, partition_size=2, threshold=0.3,
                          enable_reordering=False)
CHAIN = KeyPath.parse("a.arr")
ARR = "t.data->'a'->'arr'"
#: ``12`` and ``1e3`` are stored as numeric strings (NUMSTR)
NEEDLES = ("x", "y", "12", "1e3", "", "é", "nope")
#: slots read through ``chain[k].key``: mined ones and one past the cap
SLOTS = (0, 1, 2, 9)

_MISSING = object()
members = st.one_of(st.sampled_from(["x", "y", "z", "12", "1e3", "", "é"]),
                    st.integers(-3, 3), st.none(), st.booleans(),
                    st.just({"n": 1}))
elements = st.one_of(
    members.map(lambda value: {"k": value, "o": 1}),
    st.just({"o": 1}),  # lacks the member
    st.just({}),
    st.sampled_from(["x", 5, None, [{"k": "x"}]]),  # no object
)
chains = st.one_of(st.just(_MISSING), st.none(), st.integers(0, 9),
                   st.just("x"), st.just({"k": "x"}),
                   st.lists(elements, max_size=11))  # past the cap of 8


def document(index: int, chain: object) -> dict:
    inner = {"b": index % 3}
    if chain is not _MISSING:
        inner["arr"] = chain
    return {"id": index, "a": inner}


def interleave(chains_drawn) -> list:
    """Two regular documents per drawn one, so every tile mines the
    STRING slot columns ``a.arr[0].k`` / ``a.arr[1].k``."""
    docs = []
    for chain in chains_drawn:
        for regular in ([{"k": "x", "o": 1}, {"k": "y"}],
                        [{"k": "y"}, {"k": "12"}, {"k": "x"}]):
            docs.append(document(len(docs), regular))
        docs.append(document(len(docs), chain))
    return docs


def databases(docs, config=CONFIG, table="t"):
    """Repeated columns (TILES), slot columns (Tiles-* without child
    relations mines exactly what TILES did before them) and the JSONB
    format, over the same documents."""
    out = {}
    for label, fmt in (("repeated", StorageFormat.TILES),
                       ("slots", StorageFormat.TILES_STAR),
                       ("jsonb", StorageFormat.JSONB)):
        db = Database(fmt, config)
        db.load_table(table, docs, fmt, config)
        out[label] = db
    return out


_SELECT = "select t.data->>'id'::int as id, {} as v from t t order by id"


def differential_queries():
    """Probes and slot reads whose answers every storage path shares."""
    texts = [_SELECT.format(f"json_contains({ARR}, 'k', '{needle}')")
             for needle in NEEDLES]
    texts.append(_SELECT.format(f"json_contains({ARR}, 'k', 3)"))
    texts.append(_SELECT.format(f"json_contains({ARR}, 'o', 'x')"))
    texts.append(_SELECT.format(f"json_length({ARR})"))
    for slot in SLOTS:
        texts.append(_SELECT.format(f"{ARR}->{slot}->>'k'"))
        texts.append(_SELECT.format(f"{ARR}->{slot}->'k'"))
    texts.append(f"select count(*) as n from t t "
                 f"where json_contains({ARR}, 'k', 'x')")
    texts.append(f"select count(*) as n from t t where {ARR}->0->>'k' = 'y'")
    texts.append(f"select json_length({ARR}) as n, count(*) as c from t t "
                 f"where json_contains({ARR}, 'k', 'y') "
                 f"group by json_length({ARR}) order by n")
    return texts


def cast_queries():
    """Typed slot reads: a string column, a repeated column's gather and
    the JSONB read a numeric string like ``'1e3'`` as its number."""
    return [_SELECT.format(f"{ARR}->{slot}->>'k'::{target}")
            for slot in SLOTS for target in ("int", "float", "bool")]


def repeated_tiles(relation):
    out = []
    for handle in relation.tiles:
        with handle.pinned() as tile:
            out.append(tile.repeated)
    return out


def column_facts(column: RepeatedColumn) -> tuple:
    return (column.chain, column.key, column.values, column.codes.dtype,
            column.codes.tobytes(), column.lengths.tolist())


# ----------------------------------------------------------------------


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(drawn=st.lists(chains, min_size=4, max_size=20))
    def test_answers_equal_slot_columns_and_jsonb(self, drawn):
        docs = interleave(drawn)
        dbs = databases(docs)
        relation = dbs["repeated"].table("t")
        assert repeated_tiles(relation)[0]
        # the STRING slot columns they replace are gone from the headers
        assert not any(meta.column_type == ColumnType.STRING
                       and repeated_slot(path) is not None
                       for handle in relation.tiles
                       for path, meta in handle.header.columns.items())
        options = QueryOptions(tile_cache=False)
        for text in differential_queries():
            expected = dbs["jsonb"].sql(text, options).rows
            assert dbs["slots"].sql(text, options).rows == expected, text
            assert dbs["repeated"].sql(text, options).rows == expected, text
        for text in cast_queries():
            expected = dbs["jsonb"].sql(text, options).rows
            assert dbs["slots"].sql(text, options).rows == expected, text
            assert dbs["repeated"].sql(text, options).rows == expected, text

    @settings(max_examples=25, deadline=None)
    @given(drawn=st.lists(chains, min_size=4, max_size=20),
           needle=st.sampled_from(NEEDLES))
    def test_probes_equal_the_python_functions(self, drawn, needle):
        docs = interleave(drawn)
        db = databases(docs)["repeated"]
        rows = db.sql(f"select t.data->>'id'::int as id, "
                      f"json_contains({ARR}, 'k', '{needle}') as c, "
                      f"json_length({ARR}) as n from t t order by id",
                      QueryOptions(tile_cache=False)).rows
        decoded = [decode(encode(doc)) for doc in docs]
        assert rows == [(doc["id"],
                         json_contains(CHAIN.lookup(doc), "k", needle),
                         json_length(CHAIN.lookup(doc)))
                        for doc in decoded]

    @settings(max_examples=40, deadline=None)
    @given(drawn=st.lists(chains, max_size=24))
    def test_build_against_decoded_documents(self, drawn):
        docs = [document(index, chain) for index, chain in enumerate(drawn)]
        tile = build_tile(docs, [encode(doc) for doc in docs], CONFIG, 0, 0,
                          schema=TileSchema(repeated=[(CHAIN, "k")]))
        (column,) = tile.repeated
        assert list(column.values) == sorted(column.values)
        for row, doc in enumerate(decode(encode(doc)) for doc in docs):
            value = CHAIN.lookup(doc)
            if "arr" not in doc["a"]:
                assert column.lengths[row] == ABSENT
            elif not isinstance(value, list):
                assert column.lengths[row] == OTHER
            else:
                codes = column.codes[column.offsets[row]:
                                     column.offsets[row + 1]].tolist()
                expected = [element["k"] if isinstance(element, dict)
                            and isinstance(element.get("k"), str)
                            else None for element in value]
                assert [None if code == column.sentinel
                        else column.values[code] for code in codes] == \
                    expected

    def test_contains_counts_no_fallback_lookups(self):
        docs = interleave([[{"k": "x"}]] * 10)
        db = databases(docs)["repeated"]
        result = db.sql(f"select count(*) as n from t t "
                        f"where json_contains({ARR}, 'k', 'x')",
                        QueryOptions(tile_cache=False))
        assert result.scalar() == len(docs)
        assert result.counters.fallback_lookups == 0
        assert result.counters.fallback_tiles == 0

    def test_non_array_rows_take_the_jsonb(self):
        docs = interleave([{"k": "x"}, None, 7, [{"k": "x"}]] * 2)
        db = databases(docs)["repeated"]
        result = db.sql(f"select count(*) as n from t t "
                        f"where json_contains({ARR}, 'k', 'x')",
                        QueryOptions(tile_cache=False))
        assert result.scalar() == 2 * 8 + 2
        # the object, null and integer rows are the only JSONB visits
        assert result.counters.fallback_lookups == 6


class TestPersistence:
    def test_round_trip(self, tmp_path):
        docs = interleave([[{"k": "z"}, {"k": 5}], None, "x", []] * 3)
        db = databases(docs)["repeated"]
        relation = db.table("t")
        before = [[column_facts(column) for column in columns]
                  for columns in repeated_tiles(relation)]
        save_relation(relation, tmp_path / "t.jtile", rebind=False)
        loaded = load_relation(tmp_path / "t.jtile")
        assert [[column_facts(column) for column in columns]
                for columns in repeated_tiles(loaded)] == before
        assert loaded.stored_bytes["repeated"] > 0
        reopened = Database(StorageFormat.TILES, CONFIG)
        reopened.register("t", loaded)
        options = QueryOptions(tile_cache=False)
        for text in differential_queries():
            assert reopened.sql(text, options).rows == \
                db.sql(text, options).rows, text

    def test_file_without_the_column(self, tmp_path):
        """Tiles-* tiles store slot columns and no repeated column: their
        catalog entries look like those of files written before it."""
        docs = interleave([[{"k": "z"}], None] * 4)
        dbs = databases(docs)
        save_database(dbs["slots"], tmp_path / "old")
        catalog, _index = _open_catalog(tmp_path / "old" / "t.jtile")
        assert all("repeated" not in tile for tile in catalog["tiles"])
        reopened = open_database(tmp_path / "old")
        assert not any(repeated_tiles(reopened.table("t")))
        options = QueryOptions(tile_cache=False)
        for text in differential_queries():
            assert reopened.sql(text, options).rows == \
                dbs["jsonb"].sql(text, options).rows, text


class TestMaintenance:
    CONFIG = ExtractionConfig(tile_size=64, threshold=0.3)

    def mined(self, docs):
        return build_tile(docs, [encode(doc) for doc in docs], self.CONFIG,
                          0, 0)

    @staticmethod
    def schema_of(tile) -> TileSchema:
        return TileSchema(list(tile.header.columns.values()),
                          [(column.chain, column.key)
                           for column in tile.repeated])

    def test_extension_equals_rebuild(self):
        docs = interleave([[{"k": "q"}] * 9, 3, None, [{"k": 1}]] * 4)
        tail = self.mined(docs[:9])
        assert tail.repeated
        extended = tail
        for start, stop in ((9, 10), (10, 30), (30, len(docs))):
            extended, _delta = extend_tile(extended, docs[start:stop],
                                           self.CONFIG)
        rebuilt = build_tile(docs, [encode(doc) for doc in docs],
                             self.CONFIG, 0, 0, schema=self.schema_of(tail))
        assert [column_facts(column) for column in extended.repeated] == \
            [column_facts(column) for column in rebuilt.repeated]

    @settings(max_examples=25, deadline=None)
    @given(drawn=st.lists(chains, min_size=6, max_size=16),
           cut=st.integers(1, 20))
    def test_extension_is_associative(self, drawn, cut):
        docs = interleave(drawn)
        tail = self.mined(docs[:6])
        stepwise, _ = extend_tile(tail, docs[6:6 + cut], self.CONFIG)
        stepwise, _ = extend_tile(stepwise, docs[6 + cut:], self.CONFIG)
        at_once, _ = extend_tile(tail, docs[6:], self.CONFIG)
        assert [column_facts(column) for column in stepwise.repeated] == \
            [column_facts(column) for column in at_once.repeated]

    def test_update_and_rewrite_equal_a_rebuild(self):
        docs = interleave([[{"k": "z"}], None, 4] * 6)
        dbs = databases(docs)
        relation = dbs["repeated"].table("t")
        updates = {1: document(1, [{"k": "new"}] * 10),
                   4: document(4, None),
                   20: document(20, {"k": "x"}),
                   30: document(30, [])}
        for row, new in updates.items():
            relation.update(row, new)
            for other in (dbs["slots"], dbs["jsonb"]):
                other.table("t").update(row, new)
        for handle in relation.tiles:
            with handle.pinned() as tile:
                for column in tile.repeated:
                    assert column_facts(column) == column_facts(
                        RepeatedColumn.build(tile.heap, column.chain,
                                             column.key))
        options = QueryOptions(tile_cache=False)
        for text in differential_queries():
            assert dbs["repeated"].sql(text, options).rows == \
                dbs["jsonb"].sql(text, options).rows, text
        handle = relation.tiles[0]
        assert relation.recompute_tile(handle)
        with relation.tiles[0].pinned() as tile:
            assert tile.repeated
            rebuilt = build_tile(
                [decode(row) for row in tile.heap.rows()], tile.heap.rows(),
                CONFIG, 0, 0)
            assert [column_facts(column) for column in tile.repeated] == \
                [column_facts(column) for column in rebuilt.repeated]
        for text in differential_queries():
            assert dbs["repeated"].sql(text, options).rows == \
                dbs["jsonb"].sql(text, options).rows, text


class TestWorkloads:
    @pytest.fixture(scope="class")
    def suite_queries(self):
        sys.path.insert(0, str(SUITE))
        try:
            import queries
        finally:
            sys.path.remove(str(SUITE))
        query_set = queries.QuerySet("twitter_fallback", 1)
        return [text for index in range(3)
                for _key, text in query_set.queries(index)]

    def test_suite_twitter_queries_at_parallelism_1_and_4(self,
                                                         suite_queries):
        docs = twitter.TwitterGenerator(1500, seed=1, evolving=True).stream()
        config = ExtractionConfig(tile_size=256, partition_size=4)
        dbs = databases(docs, config, "tweets")
        assert any(repeated_tiles(dbs["repeated"].table("tweets")))
        for text in suite_queries:
            expected = dbs["slots"].sql(
                text, QueryOptions(tile_cache=False, parallelism=1)).rows
            for parallelism in (1, 4):
                assert dbs["repeated"].sql(text, QueryOptions(
                    tile_cache=False, parallelism=parallelism)).rows == \
                    expected, (parallelism, text)

    @pytest.mark.parametrize("make", [
        lambda: tpch.make_database(0.001, config=ExtractionConfig(
            tile_size=256)).table("lineitem"),
        lambda: yelp.make_database(60, config=ExtractionConfig(
            tile_size=256)).table("yelp")], ids=["tpch", "yelp"])
    def test_no_repeated_column(self, make):
        relation = make()
        assert relation.tiles
        assert not any(repeated_tiles(relation))
