"""Smoke test of the benchmark suite itself.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Lives outside ``tests/`` on purpose: tier-1 (``testpaths = ["tests"]``)
does not collect it.  Runs all four workloads at ``--smoke`` sizes,
untraced and traced, in subprocesses — the way the driver does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import common
import compare
import embedded
import queries
import trace

SPEC = json.loads((common.REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
RUN = common.SUITE / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*arguments, cwd=None):
    return subprocess.run([sys.executable, str(RUN), *map(str, arguments)],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=180)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{(workload, traced): final JSON line}`` plus the output dir."""
    out = tmp_path_factory.mktemp("suite")
    results = {}
    for traced in (0, 1):
        for workload in WORKLOADS:
            done = _run("--workload", workload, "--smoke", "--seed", 3,
                        "--trace", traced, "--out", out)
            assert done.returncode == 0, done.stderr + done.stdout
            lines = done.stdout.strip().splitlines()
            results[workload, traced] = (json.loads(lines[-1]), lines[:-1])
    return results, out


def test_benchmark_json_matches_the_code():
    import run

    assert WORKLOADS == list(run.WORKLOADS)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == common.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == common.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and NAME.match(entry["name"])
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    runs = 4 + 22 * len(WORKLOADS)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert runs * SPEC["run_seconds"] < 3420


def test_every_declared_metric_is_reported(smoke):
    results, _out = smoke
    for (workload, traced), (result, lines) in results.items():
        declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry
                in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in declared}
        if not traced:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values()), result
        printed = {tuple(line.split()[:2]) for line in lines}
        for name in [m["name"] for m in declared] \
                + ["ops_attempted", "ops_failed"]:
            assert (workload, name) in printed


def test_layers_a_workload_bypasses_read_zero(smoke):
    results, _out = smoke
    bulk = results["bulk_load", 1][0]["metrics"]
    tpch = results["tpch_analytics", 1][0]["metrics"]
    assert bulk["engine.execute_ms"]["value"] == 0
    assert bulk["mining.mine_ms_per_tile"]["value"] > 0
    assert tpch["engine.execute_ms"]["value"] > 0
    assert tpch["server.ping_rtt_ms"]["value"] == 0


def test_trace_spans_nest_and_self_times_add_up(smoke):
    _results, out = smoke
    for workload in WORKLOADS:
        spans = trace.read(out / f"trace-{workload}.jsonl")
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans) > 0
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                assert span["request"] == parent["request"]
        roots = sum(span["end"] - span["start"]
                    for span in spans if span["parent"] is None)
        layers = trace.self_times(spans)
        assert min(layers.values()) >= 0
        assert sum(layers.values()) == pytest.approx(roots, rel=0.02)
        if workload != "serve_mixed":   # its server runs out of process
            assert trace.coverage(spans) >= 0.9


def test_same_seed_same_inputs():
    queries.self_test()
    for spec in embedded.SPECS.values():
        assert spec.documents(1, True) == spec.documents(1, True)
        assert spec.documents(1, True) != spec.documents(2, True)


def test_compare_verdicts():
    spec = {"workloads": [{"name": "w"}], "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]

    def verdicts(lat, qps):
        rows = compare.compare(
            {"values": {"w": {"lat": steady, "qps": steady}}},
            {"values": {"w": {"lat": lat, "qps": qps}}}, spec)
        return [row["verdict"] for row in rows]

    assert verdicts(steady, steady) == ["ok", "ok"]
    assert verdicts([v * 1.2 for v in steady], [v * 1.2 for v in steady]) \
        == ["regressed", "ok"]
    assert verdicts(steady, [v * 0.8 for v in steady]) == ["ok", "regressed"]
    assert verdicts([60.0, 80.0, 100.0, 120.0, 140.0], steady) \
        == ["unresolved", "ok"]
    assert "of 100" in compare.render(compare.compare(
        {"values": {"w": {"lat": steady, "qps": steady}}},
        {"values": {"w": {"lat": steady, "qps": steady}}}, spec))


def test_fails_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite the
    benchmark exits non-zero and prints no result."""
    shutil.copy(common.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("_work", "out",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "bulk_load", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
