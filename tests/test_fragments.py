"""Tests for the plan-fragment IR (DESIGN.md §10).

The fragment planner must (a) emit the documented DAG shapes and
decline reasons purely from block shape, (b) survive a JSON wire
round-trip (the coordinator ships plans to shards), and (c) execute
bit-identically to the fused operator tree — checked here in process,
as a 1-shard cluster, which is what makes the cluster's broadcast
joins trustworthy by construction.
"""

import json
import struct

import pytest

from repro import Database, ExtractionConfig, QueryOptions
from repro.engine.fragments import FragmentPlan, plan_fragments
from repro.engine.partial import (
    execute_build_fragment,
    execute_probe_fragment,
    merge_build_pieces,
    merge_partial_results,
)
from repro.server import protocol
from repro.sql.binder import Binder
from repro.sql.parser import parse

CONFIG = ExtractionConfig(tile_size=64, partition_size=2)


def bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


@pytest.fixture(scope="module")
def db():
    database = Database(config=CONFIG)
    orders = [{"o_id": i, "cust": i % 40, "amount": float(i % 97),
               "region": f"r{i % 7}"} for i in range(1000)]
    custs = [{"c_id": i, "name": f"c-{i}", "tier": i % 3}
             for i in range(40)]
    database.load_table("orders", orders)
    database.load_table("custs", custs)
    return database


def _bind(db, sql, options=None):
    options = options or QueryOptions()
    return Binder(db.tables, options).bind(parse(sql))


JOIN_SQL = """
select c.data->>'tier'::int as tier, count(*) as n,
       sum(o.data->>'amount'::float) as total
from orders o, custs c
where o.data->>'cust'::int = c.data->>'c_id'::int
group by c.data->>'tier'::int
order by tier
"""


class TestPlanning:
    def test_single_source_plan_shape(self, db):
        block = _bind(db, "select count(*) as n from orders o")
        plan = plan_fragments(block)
        assert not plan.declined
        assert plan.mode == "scalar"
        assert [f.kind for f in plan.fragments] == ["partial", "merge"]
        assert plan.fragments[0].partitioning == "canonical-blocks"
        assert plan.fragments[1].partitioning == "coordinator"
        assert plan.join is None

    def test_join_plan_shape_and_orientation(self, db):
        block = _bind(db, JOIN_SQL)
        plan = plan_fragments(block)
        assert not plan.declined
        assert [f.kind for f in plan.fragments] == \
            ["build", "partial", "merge"]
        assert plan.fragments[0].exchange == "broadcast"
        # the 40-row custs table is the hash build side, the 1000-row
        # orders table probes (the 4x swap rule)
        assert plan.join.build == "c"
        assert plan.join.probe == "o"
        assert plan.join.build_estimate > 0

    def test_decline_reasons(self, db):
        cases = {
            "select o.data->>'o_id'::int as a, c.data->>'c_id'::int "
            "as b from orders o, custs c": "cross-product",
            "select count(*) as n from orders o left join custs c on "
            "o.data->>'cust'::int = c.data->>'c_id'::int": "left-join",
            "select count(*) as n from orders o, orders b, custs c "
            "where o.data->>'cust'::int = c.data->>'c_id'::int and "
            "b.data->>'cust'::int = c.data->>'c_id'::int":
                "not-two-tables",
            "select count(*) as n from orders o where "
            "o.data->>'cust'::int in (select c.data->>'c_id'::int "
            "from custs c)": "subquery-filter",
        }
        for sql, reason in cases.items():
            plan = plan_fragments(_bind(db, sql))
            assert plan.declined, sql
            assert plan.reason == reason, sql

    def test_float_sum_composite_keys_decline_output_mode(self, db):
        # float sums under composite keys have no exact partial state
        sql = ("select o.data->>'region' as r, c.data->>'name' as m, "
               "sum(o.data->>'amount'::float) as s from orders o, "
               "custs c where o.data->>'cust'::int = "
               "c.data->>'c_id'::int "
               "group by o.data->>'region', c.data->>'name'")
        plan = plan_fragments(_bind(db, sql))
        assert plan.declined
        assert plan.reason == "output-mode"

    def test_plan_round_trips_the_wire(self, db):
        plan = plan_fragments(_bind(db, JOIN_SQL))
        wire = json.loads(protocol.encode(plan.to_dict()))
        assert wire["mode"] == plan.mode
        assert wire["join"]["build"] == "c"
        assert [f["kind"] for f in wire["fragments"]] == \
            ["build", "partial", "merge"]

    def test_describe_lines(self, db):
        assert "=broadcast=>" in plan_fragments(_bind(db, JOIN_SQL)) \
            .describe()
        assert "gather" in FragmentPlan("gather", reason="x").describe()


def run_join_fragments(block, options):
    """Run a broadcast-join fragment plan in process as a 1-shard
    cluster: the build, merge and probe calls the coordinator makes,
    without the sockets.  Returns ``(plan, columns, rows, build_rows)``."""
    plan = plan_fragments(block, options)
    assert plan.join is not None, plan.reason
    built = execute_build_fragment(block, options, shard_index=0,
                                   shard_count=1,
                                   build_alias=plan.join.build)
    build_rows = merge_build_pieces(built["pieces"])
    fragment = {"probe": plan.join.probe, "build": plan.join.build,
                "columns": built["columns"], "types": built["types"],
                "rows": build_rows}
    probed = execute_probe_fragment(block, options, shard_index=0,
                                    shard_count=1, fragment=fragment,
                                    expected_mode=plan.mode)
    columns, rows = merge_partial_results(block, plan.mode,
                                          probed["pieces"])
    return plan, columns, rows, build_rows


class TestLocalExecution:
    """Join fragments run in process vs the fused tree, bit for bit."""

    QUERIES = [
        # scalar over a join
        "select count(*) as n, min(c.data->>'name') as lo "
        "from orders o, custs c "
        "where o.data->>'cust'::int = c.data->>'c_id'::int",
        # single-key
        JOIN_SQL,
        # generic (composite keys, exact aggregates)
        "select o.data->>'region' as r, c.data->>'tier'::int as t, "
        "count(*) as n from orders o, custs c "
        "where o.data->>'cust'::int = c.data->>'c_id'::int "
        "group by o.data->>'region', c.data->>'tier'::int "
        "order by n desc, r, t limit 10",
        # rows mode with residual filter and order/limit
        "select o.data->>'o_id'::int as oid, c.data->>'name' as name "
        "from orders o, custs c "
        "where o.data->>'cust'::int = c.data->>'c_id'::int "
        "and o.data->>'amount'::float > 50 "
        "order by oid limit 20",
    ]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_join_fragments_match_fused(self, db, parallelism):
        for sql in self.QUERIES:
            options = QueryOptions(parallelism=parallelism,
                                   batch_rows=48)
            fused = db.sql(sql, options)
            plan, columns, rows, build_rows = \
                run_join_fragments(_bind(db, sql, options), options)
            assert columns == fused.columns, sql
            assert [[bits(v) for v in row] for row in rows] == \
                [[bits(v) for v in row] for row in fused.rows], sql
            assert build_rows, sql
            assert list(plan.join.order) == ["c", "o"], sql

    def test_empty_build_side(self, db):
        sql = ("select count(*) as n from orders o, custs c "
               "where o.data->>'cust'::int = c.data->>'c_id'::int "
               "and c.data->>'tier'::int = 99")
        options = QueryOptions()
        _plan, columns, rows, build_rows = \
            run_join_fragments(_bind(db, sql, options), options)
        assert columns == ["n"]
        assert rows == [(0,)]
        assert build_rows == []

    def test_declined_plan_is_flagged(self, db):
        block = _bind(db, "select count(*) as n from orders o "
                          "left join custs c on o.data->>'cust'::int "
                          "= c.data->>'c_id'::int")
        plan = plan_fragments(block, QueryOptions())
        assert plan.declined
        assert plan.join is None

    def test_explain_renders_fragments(self, db):
        text = db.explain(JOIN_SQL)
        assert "fragments: build[c] =broadcast=> probe[o]" in text
        assert "broadcast build estimate" in text
