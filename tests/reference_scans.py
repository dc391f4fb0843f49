"""Reference variants of the one fallback scan path, for differentials.

The scan has one physical path; these context managers swap a single
step of it for the reference that step must equal, leaving everything
around it — extracted columns, row spans, conflict patching, selection
vectors and the counters — the scan's own:

* :func:`per_path_walk` replaces the single-pass shredder — the
  per-tuple walk and the vectorized heap kernel alike — with one
  ``JsonbValue(heap, row start).get_path(path)`` traversal per (tuple,
  path), and ``KeyPath.lookup`` on the parsed document for the
  raw-text format; the column kernels that decode the located values
  give way to a ``ColumnBuilder`` fed by the scan's typed getters and
  scalar probes, one value at a time;
* :func:`all_conjuncts_late` makes every pushed-down conjunct *late*:
  no selection vector is built, every row of a tile slice is decoded
  and the conjuncts filter the completed batch (eager materialization).
"""

import contextlib
import sys

import pytest

from repro.engine import scan
from repro.jsonb.access import JsonbValue
from repro.storage.column import ColumnBuilder


def _jsonb_per_path(plan, buffer, pos=0):
    return [JsonbValue(buffer, pos).get_path(path) for path in plan.paths]


def _locate_per_path(plan, buffer, starts):
    return [-1 if value is None else value.pos
            for start in starts
            for value in _jsonb_per_path(plan, buffer, start)]


def _built(view, positions, ends, before, after, target, convert):
    """A column built one value at a time: *convert(value, end)* of
    every located value, NULL elsewhere."""
    builder = ColumnBuilder(target)
    builder.extend_nulls(before)
    for value_pos, value_end in zip(positions, ends):
        builder.append(None if value_pos < 0 else
                       convert(JsonbValue(view.buf, value_pos), value_end))
    builder.extend_nulls(after)
    return builder.finish()


def _builder_probe_kernel(self, request):
    """The probe column of *request* from the scalar probe."""
    probe = scan._jsonb_getter(request)

    def column(view, pos, end, before, after):
        return _built(view, pos.tolist(), end.tolist(), before, after,
                      request.target, probe)

    return column


def _builder_typed_columns(target, getter, view, pos, before, after):
    """The typed columns from the scalar getter."""
    return [_built(view, row, row, before, after, target,
                   lambda value, _end: getter(value))
            for row in pos.tolist()]


def _python_per_path(plan, document):
    return [path.lookup(document) for path in plan.paths]


@contextlib.contextmanager
def per_path_walk(enabled=True):
    """Swap in the per-path walk (a no-op when *enabled* is false, so
    callers can draw the variant as a parameter)."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            # every run takes the per-tuple walk, so the vectorized
            # kernel is never its own reference
            patch.setattr(scan, "VECTOR_MIN_ROWS", sys.maxsize)
            patch.setattr(scan, "shred_jsonb", _jsonb_per_path)
            patch.setattr(scan, "locate_rows", _locate_per_path)
            patch.setattr(scan.TableScan, "_probe_kernel",
                          _builder_probe_kernel)
            patch.setattr(scan, "typed_columns", _builder_typed_columns)
            patch.setattr(scan, "shred_python", _python_per_path)
        yield


@contextlib.contextmanager
def all_conjuncts_late():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan.TableScan, "_split_predicates",
                      lambda self, resolved: ([], list(self.predicates)))
        yield
