"""The repo's benchmark: four seeded workloads, bounded end-to-end
metrics, an outside-in per-layer trace.  See README.md in this
directory for the metric and workload tables.

    python3 benchmarks/suite/run.py --workload tpch_analytics --seed 1 \\
        --seconds 10 --trace 0            # one run, as the driver calls it
    python3 benchmarks/suite/run.py --workload all --seed 1 --out DIR
    python3 benchmarks/suite/run.py --workload all --trace 1 --out DIR
    python3 benchmarks/suite/run.py --sets 2 --runs 10 --out DIR
    python3 benchmarks/suite/run.py --smoke

Every run prints one ``workload metric value unit`` line per metric and
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
on any oracle mismatch, failed shape guard or failed durability check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import common
from common import Outcome

import bulk_load
import compare
import embedded
import serve_mixed
from trace import Tracer, self_times

WORKLOADS = {
    "tpch_analytics": embedded.run,
    "twitter_fallback": embedded.run,
    "bulk_load": bulk_load.run,
    "serve_mixed": serve_mixed.run,
}
SPEC = json.loads((common.REPO / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 2


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool, out_dir: Path) -> Outcome:
    dropped = common.clear_repro_env()
    tracer = Tracer() if traced else None
    try:
        outcome = WORKLOADS[workload](workload, seed, seconds, tracer, smoke)
    finally:
        common.remove_work_dirs()
    document = {
        "workload": workload, "traced": traced, "smoke": smoke,
        "seconds": seconds, "environment": common.environment(seed),
        "dropped_environment": dropped,
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": outcome.problems,
        "metrics": outcome.contract_metrics(traced) if outcome.metrics else {},
        "notes": outcome.notes,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "traced" if traced else "untraced"
    if tracer is not None:
        tracer.write(out_dir / f"trace-{workload}.jsonl")
        document["layer_self_time_s"] = {
            layer: round(value, 6)
            for layer, value in sorted(self_times(tracer.spans).items())}
    (out_dir / f"result-{workload}-{suffix}.json").write_text(
        json.dumps(document, indent=1, default=str) + "\n")
    return outcome


def report(outcome: Outcome, traced: bool) -> int:
    """Print the run the way the driver reads it; returns the exit code."""
    for problem in outcome.problems:
        print(f"FAILED {outcome.workload}: {problem}", file=sys.stderr)
    if not outcome.metrics:
        return 1
    for row in common.metric_lines(outcome, traced):
        print(" ".join(row))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": outcome.contract_metrics(traced)}))
    return 0 if outcome.correct else 1


def child(workload: str, seed: int, seconds: float, traced: bool,
          smoke: bool, out_dir: Path) -> dict:
    """One run in a fresh process, so peak RSS and caches start clean;
    returns its final JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced)),
               "--out", str(out_dir)] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def run_all(names: Sequence[str], seed: int, seconds: float, traced: bool,
            smoke: bool, out_dir: Path) -> int:
    """Every workload untraced, then (``--trace 1``) traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for mode in ([False, True] if traced else [False]):
        for workload in names:
            result = child(workload, seed, seconds, mode, smoke, out_dir)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = entry
    (out_dir / "results.json").write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def run_sets(names: Sequence[str], sets: int, runs: int, seed: int,
             seconds: float, smoke: bool, out_dir: Path) -> int:
    """*sets* complete sets of *runs* seeds each, then the
    self-agreement check: ``compare.py`` on the first two sets must
    report ``ok`` for every (workload, end-to-end metric)."""
    seeds = list(range(seed, seed + runs))
    paths = []
    for index in range(1, sets + 1):
        values: Dict[str, Dict[str, List[float]]] = {
            workload: {} for workload in names}
        failed = 0
        for run_seed in seeds:
            for workload in names:
                result = child(workload, run_seed, seconds, False, smoke,
                               out_dir)
                failed += result["failed"] + (not result["correct"])
                for name, entry in result["metrics"].items():
                    values[workload].setdefault(name, []).append(
                        entry["value"])
        paths.append(out_dir / f"set{index}.json")
        paths[-1].write_text(json.dumps({
            "environment": common.environment(seed), "seeds": seeds,
            "seconds": seconds, "failed": failed, "values": values,
        }, indent=1) + "\n")
        if failed:
            print(f"set {index}: {failed} failed operations", file=sys.stderr)
            return 1
    if sets < 2:
        return 0
    first, second = (json.loads(path.read_text()) for path in paths[:2])
    rows = compare.compare(first, second,
                           dict(SPEC, workloads=[{"name": n} for n in names]))
    table = compare.render(rows)
    (out_dir / "compare.txt").write_text(table + "\n")
    print(table)
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = traced run: per-layer metrics and "
                             "trace-<workload>.jsonl in --out")
    parser.add_argument("--out", type=Path, default=common.SUITE / "out",
                        help="directory for result documents and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no latency-sample minimum")
    parser.add_argument("--sets", type=int, default=0,
                        help="run this many complete sets of --runs seeds "
                             "and compare the first two")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else \
        (SMOKE_SECONDS if args.smoke else SPEC["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.sets:
        return run_sets(names, args.sets, args.runs, args.seed, seconds,
                        args.smoke, args.out)
    if args.workload == "all":
        return run_all(names, args.seed, seconds, bool(args.trace),
                       args.smoke, args.out)
    outcome = run_one(args.workload, args.seed, seconds, bool(args.trace),
                      args.smoke, args.out)
    return report(outcome, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
