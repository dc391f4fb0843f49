"""Span recorder for the traced run.

Every call the benchmark makes into a layer's public function is
wrapped in a span: name (``<layer>.<function>``), start, end, the span
that caused it and a request id shared by all spans of one query,
batch or load repetition.  Spans stay in memory and are written as
JSON lines when the workload ends.  A layer's *self time* is its spans'
duration minus the part their child spans cover; the root spans
(``op.*``) are the benchmark's own operations, so their self time is
what the trace could not attribute to a layer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT_LAYER = "op"


class Tracer:
    """Thread-safe: each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else request,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def child(self, parent: dict, name: str, start: float, end: float) -> None:
        """Record a span measured by the callee itself (e.g. the mining
        share ``build_tile`` reports through its ``timings``)."""
        self.spans.append({"id": next(self._ids), "name": name,
                           "parent": parent["id"],
                           "request": parent["request"],
                           "start": start, "end": end})

    # ------------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"]
                for span in self.spans if span["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda span: span["id"]):
                handle.write(json.dumps(span) + "\n")


def self_times(spans: List[dict]) -> Dict[str, float]:
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                + span["end"] - span["start"]
    layers: Dict[str, float] = {}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def coverage(spans: List[dict]) -> float:
    total = sum(span["end"] - span["start"]
                for span in spans if span["parent"] is None)
    if total <= 0.0:
        return 0.0
    return 1.0 - self_times(spans).get(ROOT_LAYER, 0.0) / total


def read(path: Path) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
