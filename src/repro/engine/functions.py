"""Scalar SQL functions beyond the operator grammar.

Notable members are the JSON helpers that queries use against
non-extracted structures (e.g. scanning a high-cardinality array with
plain Tiles, the slow path that Tiles-* replaces with a child-relation
join):

* ``json_contains(x -> 'arr', 'key', value)`` — true when any element
  of the array has ``element[key] == value`` (scalar elements compare
  directly when ``key`` is ``''``);
* ``json_length(x -> 'arr')`` — element count;
* ``lower`` / ``upper`` / ``coalesce``.

The two JSON functions are *probes*: when their argument is a ``->``
chain on a table's document column, the binder pushes the whole call
into the scan as one access request (Section 4.2), and the scan
answers it with a byte kernel over the JSONB value instead of
decoding the array into Python (:data:`PROBES`).  The Python functions
below define the semantics every path shares; the expressions only
evaluate operands that are not scan accesses, such as derived-table
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.types import ColumnType
from repro.engine.batch import Batch
from repro.engine.expressions import Expression, Literal
from repro.errors import SqlBindError
from repro.jsonb.access import JsonbValue, contains_probe
from repro.jsonb.vector_shred import Kernel, contains_kernel, length_kernel
from repro.storage.column import ColumnBuilder, ColumnVector


def json_contains(array: object, key: object,
                  value: object) -> Optional[bool]:
    """``json_contains`` over a decoded JSON value: NULL for SQL/JSON
    null, False for a non-array, else whether any element matches."""
    if array is None:
        return None
    if not isinstance(array, list):
        return False
    if key:
        return any(isinstance(element, dict) and element.get(key) == value
                   for element in array)
    return any(element == value for element in array)


def json_length(value: object) -> Optional[int]:
    """``json_length`` over a decoded JSON value: the element count of
    an array or object, NULL for anything else."""
    return len(value) if isinstance(value, (list, dict)) else None


@dataclass(frozen=True)
class Probe:
    """A JSON function the scan can evaluate as an access request.

    A request's probe is the tuple ``(name, *literal_args)``;
    ``jsonb(*literal_args)`` compiles the byte kernel applied to the
    value at the request's path (``kernel(value, end)``, *end* bounding
    the value's document inside its buffer), ``vector(*literal_args)``
    the kernel over all located values of a tile run
    (``repro.jsonb.vector_shred``), ``python(value, *literal_args)``
    the same function over a parsed value (raw-text format)."""

    result_type: ColumnType
    jsonb: Callable[..., Callable[[JsonbValue, Optional[int]], object]]
    vector: Callable[..., Kernel]
    python: Callable[..., object]
    #: number of literal arguments after the array argument
    arity: int
    usage: str


def _length_probe(view: JsonbValue,
                  end: Optional[int] = None) -> Optional[int]:
    return view.length()


PROBES = {
    "json_contains": Probe(ColumnType.BOOL, contains_probe, contains_kernel,
                           json_contains, 2,
                           "json_contains(array, 'key', literal) expects "
                           "literals"),
    "json_length": Probe(ColumnType.INT64, lambda: _length_probe,
                         length_kernel, json_length, 0,
                         "json_length(array) expects one argument"),
}


def probe_for(name: str, literals: Sequence[object]) -> Tuple[object, ...]:
    """Validate the arguments after the array argument of a probe
    function — all :class:`Literal` — and return the probe tuple."""
    spec = PROBES[name]
    if len(literals) != spec.arity or \
            not all(isinstance(arg, Literal) for arg in literals):
        raise SqlBindError(spec.usage)
    return (name, *(arg.value for arg in literals))


def probe_text(probe: Tuple[object, ...]) -> str:
    """EXPLAIN rendering of a probe: ``json_contains('text', '#COVID')``."""
    name, *args = probe
    return f"{name}({', '.join(repr(arg) for arg in args)})"


class ProbeCall(Expression):
    """A probe function over an operand that is not a scan access (a
    derived-table column, say): the Python definition, per row."""

    def __init__(self, operand: Expression, probe: Tuple[object, ...]):
        self.operand = operand
        self.probe = probe
        self.result_type = PROBES[probe[0]].result_type

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        name, *args = self.probe
        function = PROBES[name].python
        column = self.operand.evaluate(batch)
        builder = ColumnBuilder(self.result_type)
        for item, null in zip(column.data, column.null_mask):
            builder.append(None if null else function(item, *args))
        return builder.finish()


class StringTransform(Expression):
    def __init__(self, operand: Expression, transform: str):
        self.operand = operand
        self.transform = transform
        self.result_type = ColumnType.STRING

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        convert = str.lower if self.transform == "lower" else str.upper
        data = np.array(
            [convert(item) if isinstance(item, str) else item
             for item in value.data],
            dtype=object,
        )
        return ColumnVector(ColumnType.STRING, data, value.null_mask.copy())


class Coalesce(Expression):
    def __init__(self, operands: List[Expression]):
        self.operands = operands
        self.result_type = operands[0].result_type

    def children(self) -> Sequence[Expression]:
        return tuple(self.operands)

    def null_rejected_refs(self) -> Set[str]:
        return set()

    def evaluate(self, batch: Batch) -> ColumnVector:
        result = self.operands[0].evaluate(batch)
        data = result.data.copy()
        nulls = result.null_mask.copy()
        for operand in self.operands[1:]:
            if not nulls.any():
                break
            other = operand.evaluate(batch)
            fill = nulls & ~other.null_mask
            data[fill] = other.data[fill]
            nulls &= ~fill
        return ColumnVector(result.type, data, nulls)


def bind_scalar_function(name: str, args: List[Expression]) -> Expression:
    if name in PROBES:
        if not args:
            raise SqlBindError(PROBES[name].usage)
        return ProbeCall(args[0], probe_for(name, args[1:]))
    if name in ("lower", "upper"):
        if len(args) != 1:
            raise SqlBindError(f"{name}(text) expects one argument")
        return StringTransform(args[0], name)
    if name == "coalesce":
        if not args:
            raise SqlBindError("coalesce needs at least one argument")
        return Coalesce(args)
    raise SqlBindError(f"unknown function {name!r}")
