"""Shared plumbing of the benchmark suite: paths, environment reset,
order statistics, resource usage and the per-workload result record.

Importing this module puts the repository's ``src`` directory on
``sys.path`` so ``run.py`` works from any checkout without
``PYTHONPATH`` (the benchmark command may not name paths outside
``benchmarks/suite``).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
SRC = REPO / "src"
#: scratch space for data directories; removed when a run ends
WORK = SUITE / "_work"

if not (SRC / "repro").is_dir():
    raise SystemExit(f"{SRC / 'repro'} not found: the benchmark runs "
                     f"from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def clear_repro_env() -> List[str]:
    """Drop every ``REPRO_*`` variable so the code's defaults are what
    is measured; returns the names that were set."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (running
    ``git`` would search parent directories outside the checkout)."""
    head = REPO / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment(seed: int) -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy
    from repro import QueryOptions

    return {
        "seed": seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.platform(),
        "query_options": dataclasses.asdict(QueryOptions()),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def template_latency_ms(by_template: Dict[str, Sequence[float]]) -> float:
    """The end-to-end latency metric: the geometric mean over the
    workload's operation templates of each template's median latency.
    The plain median over all samples sits between the two middle
    templates and jumped 8-12 % from seed to seed; this moves by x %
    when every template gets x % slower and by a share of it when one
    does, whichever template that is."""
    from repro.bench.harness import geomean

    return geomean(median(samples) for samples in by_template.values()) * 1e3


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *share* of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))  # ceil
    return float(ordered[int(rank) - 1])


def freeze_heap() -> None:
    """Before the clock starts: collect, then move everything alive
    (the benchmark's own documents and JSON lines above all) out of the
    collector's sight, so full collections during the timed phase do
    not walk the inputs again and again."""
    gc.collect()
    gc.freeze()


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


#: set-up repetitions of an untraced full-size run (their median is
#: ``setup_s``); traced and smoke runs set up once
SETUP_REPEATS = 3


def setup_repeats(traced: bool, smoke: bool) -> int:
    return 1 if traced or smoke else SETUP_REPEATS


def fresh_dir(label: str) -> Path:
    """A new empty directory under :data:`WORK`."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-{os.getpid()}-", dir=WORK))


def remove_work_dirs() -> None:
    """Delete this process's scratch directories (and :data:`WORK`
    itself once nothing else is using it)."""
    for path in WORK.glob(f"*-{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def jtile_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in Path(directory).glob("*.jtile"))


#: the end-to-end and per-layer metric names with their units; the
#: single source ``BENCHMARK.json`` is checked against in test_suite.py
END_TO_END: Dict[str, str] = {
    "op_latency_ms": "ms",
    "throughput_per_s": "1/s",
    "stored_bytes_per_doc_byte": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "query_p95_ms": "ms",
    "sql.parse_bind_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.rows_scanned_per_result_row": "ratio",
    "engine.tiles_skipped_share": "ratio",
    "engine.blocks_pruned_per_pass": "count",
    "engine.kernel_rows_share": "ratio",
    "engine.fallback_rows_per_pass": "count",
    "jsonb.fallback_lookups_per_query": "count",
    "jsonb.shred_paths_per_pass": "count",
    "jsonb.fallback_rows_skipped_per_pass": "count",
    "jsonb.get_path_us": "us",
    "jsonb.encode_us_per_doc": "us",
    "mining.mine_ms_per_tile": "ms",
    "tiles.build_ms_per_tile": "ms",
    "tiles.reorder_ms_per_partition": "ms",
    "tiles.extracted_fraction": "ratio",
    "storage.checkpoint_s": "s",
    "storage.reopen_s": "s",
    "storage.cold_scan_s": "s",
    "storage.cold_tile_loads": "count",
    "storage.cold_tile_evictions": "count",
    "storage.cache_hit_rate": "ratio",
    "lsm.compact_s": "s",
    "lsm.bytes_rewritten_per_doc_byte": "ratio",
    "lsm.extracted_fraction_l0": "ratio",
    "lsm.extracted_fraction_l1": "ratio",
    "lsm.extracted_fraction_l2": "ratio",
    "server.ping_rtt_ms": "ms",
    "server.query_overhead_ms": "ms",
    "server.query_p95_under_ingest_ms": "ms",
    "server.insert_ack_p50_ms": "ms",
    "server.writer_late_max_ms": "ms",
    "server.wal_bytes_per_doc_byte": "ratio",
    "server.seals": "count",
    "server.tiles_after_run": "count",
    "server.recover_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_coverage": "ratio",
}


@dataclasses.dataclass
class Outcome:
    """What one run of one workload produced."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: metric name -> value; units come from the tables above
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: human-readable facts about the run (sizes, sample counts)
    notes: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: failed correctness checks and shape guards, one line each
    problems: List[str] = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)

    def guard(self, condition: bool, message: str) -> None:
        """A workload-shape guard: the run is invalid when it no longer
        stresses what it was chosen for."""
        if not condition:
            self.problems.append(f"shape guard: {message}")

    def contract_metrics(self, traced: bool) -> Dict[str, Dict[str, object]]:
        """Every declared metric of the mode, in the driver's format;
        a per-layer metric the workload does not exercise reads 0."""
        table = PER_LAYER if traced else END_TO_END
        missing = [name for name in table if name not in self.metrics]
        if missing and not traced:
            raise KeyError(f"{self.workload}: no value for {missing}")
        return {name: {"value": float(self.metrics.get(name, 0.0)),
                       "unit": unit}
                for name, unit in table.items()}


def metric_lines(outcome: Outcome, traced: bool) -> List[Tuple[str, ...]]:
    rows = [(outcome.workload, name, repr(entry["value"]), entry["unit"])
            for name, entry in outcome.contract_metrics(traced).items()]
    rows.append((outcome.workload, "ops_attempted",
                 str(outcome.attempted), "count"))
    rows.append((outcome.workload, "ops_failed", str(outcome.failed), "count"))
    return rows
