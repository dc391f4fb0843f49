"""Tests for the cost-based optimizer: join ordering, cardinality
estimation, skip-path derivation (Section 4.6 / 4.8)."""

import pytest

from repro import Database, ExtractionConfig, QueryOptions, StorageFormat

CONFIG = ExtractionConfig(tile_size=64, partition_size=2)


@pytest.fixture(scope="module")
def db():
    database = Database(config=CONFIG)
    # a big fact table and two small dimensions
    facts = [{"f_id": i, "f_dim1": i % 20, "f_dim2": i % 5,
              "f_value": float(i)} for i in range(2000)]
    dim1 = [{"d1_id": i, "d1_name": f"d1-{i}", "d1_group": i % 4}
            for i in range(20)]
    dim2 = [{"d2_id": i, "d2_name": f"d2-{i}"} for i in range(5)]
    database.load_table("facts", facts)
    database.load_table("dim1", dim1)
    database.load_table("dim2", dim2)
    return database


THREE_WAY = """
select count(*) as n
from dim2 b, facts f, dim1 a
where f.data->>'f_dim1'::int = a.data->>'d1_id'::int
  and f.data->>'f_dim2'::int = b.data->>'d2_id'::int
  and a.data->>'d1_group'::int = 0
"""


class TestJoinOrdering:
    def test_dp_starts_with_filtered_small_table(self, db):
        result = db.sql(THREE_WAY)
        # the filtered dim1 (5 rows) should come before the 2000-row
        # fact table in the chosen order
        order = result.join_order
        assert order.index("a") < order.index("f")

    def test_syntactic_order_without_statistics(self, db):
        result = db.sql(THREE_WAY, QueryOptions(use_statistics=False))
        assert result.join_order == ["b", "f", "a"]  # FROM-clause order

    def test_results_identical_either_way(self, db):
        smart = db.sql(THREE_WAY)
        naive = db.sql(THREE_WAY, QueryOptions(use_statistics=False))
        assert smart.rows == naive.rows

    def test_single_table_no_order(self, db):
        result = db.sql("select count(*) as n from facts f")
        assert result.scalar() == 2000


class TestDPOrderCorners:
    """`_dp_order` edge behaviour: forced cross products, the >11-alias
    syntactic fallback, and order-sensitivity under statistics."""

    DISCONNECTED = """
select count(*) as n
from facts f, dim1 a, dim2 b
where f.data->>'f_dim1'::int = a.data->>'d1_id'::int
"""

    NO_EDGES = """
select count(*) as n from facts f, dim1 a, dim2 b
"""

    def _join_order(self, database, sql, **kw):
        from repro.engine.optimizer import Planner
        from repro.sql.binder import Binder
        from repro.sql.parser import parse

        options = QueryOptions(**kw)
        block = Binder(database.tables, options).bind(parse(sql))
        planner = Planner(options)
        planned, edges, _residuals = planner.fragment_inputs(block)
        aliases = [source.alias for source in block.sources]
        return planner.join_order(aliases, planned, edges)

    def test_disconnected_graph_forces_cross_product_last(self, db):
        # dim2 has no edge to anyone: the DP admits its cross product
        # only against subsets nothing else connects to, and C_out
        # pushes the 2000-row fact fold to the end (tiny b x a first)
        order = self._join_order(db, self.DISCONNECTED)
        assert sorted(order) == ["a", "b", "f"]
        assert order[-1] == "f"

    def test_fully_disconnected_graph_orders_by_cardinality(self, db):
        # no edges at all: every join is a cross product and the DP
        # folds smallest-first (5 x 20, then x 2000)
        order = self._join_order(db, self.NO_EDGES)
        assert order == ["b", "a", "f"]

    def test_disconnected_results_match_syntactic(self, db):
        smart = db.sql(self.DISCONNECTED)
        naive = db.sql(self.DISCONNECTED,
                       QueryOptions(use_statistics=False))
        # every fact matches exactly one dim1 row, crossed with dim2
        assert smart.scalar() == 2000 * 5
        assert smart.rows == naive.rows

    def test_twelve_aliases_fall_back_to_syntactic(self, db):
        aliases = [f"t{i}" for i in range(12)]
        froms = ", ".join(f"dim2 {alias}" for alias in aliases)
        chain = " and ".join(
            f"{a}.data->>'d2_id'::int = {b}.data->>'d2_id'::int"
            for a, b in zip(aliases, aliases[1:]))
        sql = f"select count(*) as n from {froms} where {chain}"
        # 12 aliases exceed the DP's subset budget: written order
        assert self._join_order(db, sql) == aliases
        # the chained self-equi-join keeps one row per d2_id
        assert db.sql(sql).scalar() == 5

    def test_statistics_change_the_order(self, db):
        # the differential that shows ordering is statistics-driven:
        # same rows, different join order with stats off
        smart = db.sql(THREE_WAY)
        naive = db.sql(THREE_WAY, QueryOptions(use_statistics=False))
        assert smart.join_order != naive.join_order
        assert smart.rows == naive.rows


class TestCardinalityEstimation:
    def test_scan_estimate_uses_equality_selectivity(self, db):
        from repro.engine.optimizer import PlannedScan, Planner
        from repro.sql.binder import Binder
        from repro.sql.parser import parse

        stmt = parse("select count(*) as n from facts f "
                     "where f.data->>'f_dim1'::int = 3")
        block = Binder(db.tables, QueryOptions()).bind(stmt)
        planner = Planner(QueryOptions())
        planned = {s.alias: PlannedScan(s) for s in block.sources}
        _edges, _residuals = planner._classify_predicates(block, planned)
        planner._derive_skip_paths(block, planned, _edges, _residuals)
        estimate = planner._estimate_source(planned["f"])
        # true cardinality is 100 (2000 / 20 distinct values)
        assert 30 < estimate < 350

    def test_presence_fraction_discounts_combined_relations(self):
        database = Database(config=CONFIG)
        docs = [{"kind_a": i} for i in range(900)] + \
               [{"kind_b": i} for i in range(100)]
        database.load_table("mixed", docs)
        from repro.engine.optimizer import Planner, PlannedScan
        from repro.sql.binder import Binder
        from repro.sql.parser import parse

        stmt = parse("select count(*) as n from mixed m "
                     "where m.data->>'kind_b'::int >= 0")
        block = Binder(database.tables, QueryOptions()).bind(stmt)
        planner = Planner(QueryOptions())
        planned = {s.alias: PlannedScan(s) for s in block.sources}
        edges, residuals = planner._classify_predicates(block, planned)
        planner._derive_skip_paths(block, planned, edges, residuals)
        estimate = planner._estimate_source(planned["m"])
        assert estimate < 300  # ~100 once presence is considered


class TestSkipPathDerivation:
    def _skip_paths(self, db, query):
        from repro.engine.optimizer import Planner, PlannedScan
        from repro.sql.binder import Binder
        from repro.sql.parser import parse

        block = Binder(db.tables, QueryOptions()).bind(parse(query))
        planner = Planner(QueryOptions())
        planned = {s.alias: PlannedScan(s) for s in block.sources}
        edges, residuals = planner._classify_predicates(block, planned)
        planner._derive_skip_paths(block, planned, edges, residuals)
        # predicate-derived paths and the per-aggregate groups alike
        return {alias: {str(p) for p in item.skip_paths}
                | {str(p) for group in item.aggregate_skip_paths
                   for p in group}
                for alias, item in planned.items()}

    def test_predicates_reject(self, db):
        paths = self._skip_paths(
            db, "select count(*) as n from facts f "
                "where f.data->>'f_value'::float > 1.0")
        assert "f_value" in paths["f"]

    def test_is_null_does_not_reject(self, db):
        paths = self._skip_paths(
            db, "select count(*) as n from facts f "
                "where f.data->>'f_value' is null")
        assert "f_value" not in paths["f"]

    def test_or_rejects_only_common_refs(self, db):
        paths = self._skip_paths(
            db, "select count(*) as n from facts f "
                "where f.data->>'f_value'::float > 1.0 "
                "or f.data->>'f_id'::int = 1")
        # neither side alone is required
        assert paths["f"] == set()

    def test_join_keys_reject(self, db):
        paths = self._skip_paths(db, THREE_WAY)
        assert "f_dim1" in paths["f"] and "f_dim2" in paths["f"]
        assert "d1_id" in paths["a"]

    def test_global_null_skipping_aggregate(self, db):
        paths = self._skip_paths(
            db, "select sum(f.data->>'f_value'::float) as s from facts f")
        assert "f_value" in paths["f"]

    def test_count_star_prevents_aggregate_skipping(self, db):
        paths = self._skip_paths(
            db, "select sum(f.data->>'f_value'::float) as s, "
                "count(*) as n from facts f")
        assert "f_value" not in paths["f"]

    def test_group_by_prevents_aggregate_skipping(self, db):
        paths = self._skip_paths(
            db, "select f.data->>'f_dim2'::int as g, "
                "sum(f.data->>'f_value'::float) as s "
                "from facts f group by f.data->>'f_dim2'::int")
        assert paths["f"] == set()


class TestScalarSubqueryResolution:
    def test_resolved_once_and_reused(self, db):
        query = ("select count(*) as n from facts f where "
                 "f.data->>'f_value'::float > "
                 "(select avg(g.data->>'f_value'::float) from facts g)")
        first = db.sql(query)
        second = db.sql(query)
        assert first.scalar() == second.scalar() == 1000

    def test_empty_scalar_subquery_is_null(self, db):
        result = db.sql(
            "select count(*) as n from facts f where "
            "f.data->>'f_value'::float > (select max(g.data->>'f_value'"
            "::float) from facts g where g.data->>'f_id'::int < 0)")
        assert result.scalar() == 0  # NULL comparison -> no rows
