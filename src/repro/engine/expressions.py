"""Vectorized expressions with SQL three-valued logic.

Expressions evaluate over a :class:`~repro.engine.batch.Batch` and
return a :class:`~repro.storage.column.ColumnVector`.  NULL handling
follows SQL: comparisons and arithmetic propagate NULL, AND/OR use
Kleene logic, ``IS NULL`` observes it.

Every expression reports the column references for which a NULL input
forces a non-TRUE result (:meth:`Expression.null_rejected_refs`); the
optimizer uses this to derive the tile-skipping property of Section
4.8 ("null values are skipped or evaluated as false").
"""

from __future__ import annotations

import copy
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.datetimes import MICROS_PER_DAY
from repro.core.types import ColumnType
from repro.engine.batch import Batch
from repro.errors import ExecutionError
from repro.storage.column import ColumnVector, dtype_for


class Expression:
    """Base class; subclasses set ``result_type`` and ``evaluate``."""

    result_type: ColumnType

    def evaluate(self, batch: Batch) -> ColumnVector:
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        return ()

    def null_rejected_refs(self) -> Set[str]:
        """Column names whose NULL forces this expression non-TRUE.

        Used when the expression is a predicate: if a referenced path
        cannot occur in a tile at all, every row evaluates non-TRUE and
        the tile can be skipped.
        """
        refs: Set[str] = set()
        for child in self.children():
            refs |= child.null_rejected_refs()
        return refs

    def referenced_columns(self) -> Set[str]:
        refs: Set[str] = set()
        for child in self.children():
            refs |= child.referenced_columns()
        return refs

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


class Literal(Expression):
    def __init__(self, value: object, result_type: ColumnType):
        self.value = value
        self.result_type = result_type

    def evaluate(self, batch: Batch) -> ColumnVector:
        length = batch.length
        if self.value is None:
            return ColumnVector.all_null(self.result_type, length)
        data = np.full(length, self.value, dtype=dtype_for(self.result_type))
        return ColumnVector(self.result_type, data)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ColumnRef(Expression):
    def __init__(self, name: str, result_type: ColumnType,
                 null_rejecting: bool = True):
        self.name = name
        self.result_type = result_type
        #: scan placeholders for JSON accesses set this so skipping can
        #: trace predicates back to key paths
        self.null_rejecting = null_rejecting

    def evaluate(self, batch: Batch) -> ColumnVector:
        return batch.column(self.name)

    def null_rejected_refs(self) -> Set[str]:
        return {self.name} if self.null_rejecting else set()

    def referenced_columns(self) -> Set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"ColumnRef({self.name})"


def substitute(expr: Expression,
               replacements: Dict[int, Expression]) -> Expression:
    """*expr* with every node whose ``id`` is in *replacements* swapped
    for its replacement.  Never modifies *expr*: subtrees without a
    replaced node are shared, the others are shallow copies."""
    replacement = replacements.get(id(expr))
    if replacement is not None:
        return replacement
    changed = {}
    for name, value in vars(expr).items():
        fresh = _substitute_value(value, replacements)
        if fresh is not value:
            changed[name] = fresh
    if not changed:
        return expr
    clone = copy.copy(expr)
    vars(clone).update(changed)
    return clone


def _substitute_value(value: object,
                      replacements: Dict[int, Expression]) -> object:
    """:func:`substitute` through attribute values: expressions, and
    lists / tuples of them (``Case.branches``, ``Coalesce.operands``)."""
    if isinstance(value, Expression):
        return substitute(value, replacements)
    if isinstance(value, (list, tuple)):
        items = [_substitute_value(item, replacements) for item in value]
        if all(new is old for new, old in zip(items, value)):
            return value
        return type(value)(items)
    return value


def _combined_nulls(vectors: Sequence[ColumnVector]) -> np.ndarray:
    mask = vectors[0].null_mask.copy()
    for vector in vectors[1:]:
        mask |= vector.null_mask
    return mask


_NUMERIC = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL,
            ColumnType.TIMESTAMP)


class Comparison(Expression):
    """``=, <>, <, <=, >, >=`` with NULL propagation."""

    OPS = {"=", "<>", "<", "<=", ">", ">="}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ExecutionError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, batch: Batch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        ldata, rdata = _align_numeric(left, right)
        if self.op == "=":
            data = ldata == rdata
        elif self.op == "<>":
            data = ldata != rdata
        elif self.op == "<":
            data = ldata < rdata
        elif self.op == "<=":
            data = ldata <= rdata
        elif self.op == ">":
            data = ldata > rdata
        else:
            data = ldata >= rdata
        data = np.asarray(data, dtype=bool)
        return ColumnVector(ColumnType.BOOL, data, _combined_nulls((left, right)))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _align_numeric(left: ColumnVector,
                   right: ColumnVector) -> Tuple[np.ndarray, np.ndarray]:
    """Make two vectors comparable (int vs float widening; strings and
    other object arrays compare elementwise as-is, with NULL slots
    replaced by a harmless placeholder)."""
    ldata, rdata = left.data, right.data
    if left.type in _NUMERIC and right.type in _NUMERIC:
        if left.type == ColumnType.FLOAT64 or right.type == ColumnType.FLOAT64 \
                or left.type == ColumnType.DECIMAL or right.type == ColumnType.DECIMAL:
            ldata = ldata.astype(np.float64)
            rdata = rdata.astype(np.float64)
        return ldata, rdata
    if left.data.dtype == object or right.data.dtype == object:
        # NULL slots of object arrays hold None, which breaks < on the
        # payload type; substitute a comparable placeholder (the slots
        # are masked out of the verdict anyway).
        ldata = _fill_object_nulls(left, right)
        rdata = _fill_object_nulls(right, left)
        return ldata, rdata
    return ldata, rdata


def _first_non_null(vector: ColumnVector):
    slots = np.flatnonzero(~vector.null_mask)
    if len(slots):
        return vector.data[slots[0]]
    return None


def _fill_object_nulls(vector: ColumnVector,
                       other: Optional[ColumnVector] = None) -> np.ndarray:
    """Replace NULL slots of an object array with a placeholder drawn
    from the column's own values (or the other side's, when this side
    is all NULL).  An empty string is only right for string payloads —
    a decimal-as-object column needs a numeric placeholder or ``<``
    raises TypeError on the unmasked compare."""
    if vector.data.dtype != object or not vector.null_mask.any():
        return vector.data
    placeholder = _first_non_null(vector)
    if placeholder is None and other is not None:
        placeholder = _first_non_null(other)
    if placeholder is None:
        placeholder = ""
    data = vector.data.copy()
    data[vector.null_mask] = placeholder
    return data


class Arithmetic(Expression):
    OPS = {"+", "-", "*", "/"}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ExecutionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        if op == "/":
            self.result_type = ColumnType.FLOAT64
        elif (left.result_type == ColumnType.INT64
              and right.result_type == ColumnType.INT64):
            self.result_type = ColumnType.INT64
        else:
            self.result_type = ColumnType.FLOAT64

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, batch: Batch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        nulls = _combined_nulls((left, right))
        ldata = left.data.astype(np.float64) \
            if self.result_type != ColumnType.INT64 else left.data
        rdata = right.data.astype(np.float64) \
            if self.result_type != ColumnType.INT64 else right.data
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.op == "+":
                data = ldata + rdata
            elif self.op == "-":
                data = ldata - rdata
            elif self.op == "*":
                data = ldata * rdata
            else:
                data = ldata / np.where(rdata == 0, np.nan, rdata)
                nulls = nulls | (np.asarray(rdata) == 0)
        return ColumnVector(self.result_type, np.asarray(data), nulls)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolAnd(Expression):
    """Kleene AND; null-rejected refs are the union of both sides."""

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, batch: Batch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        ltrue = left.data & ~left.null_mask
        rtrue = right.data & ~right.null_mask
        lfalse = ~left.data & ~left.null_mask
        rfalse = ~right.data & ~right.null_mask
        data = ltrue & rtrue
        nulls = ~(data | lfalse | rfalse)
        return ColumnVector(ColumnType.BOOL, data, nulls)


class BoolOr(Expression):
    """Kleene OR; only refs rejected by *both* sides stay rejected."""

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def null_rejected_refs(self) -> Set[str]:
        return self.left.null_rejected_refs() & self.right.null_rejected_refs()

    def evaluate(self, batch: Batch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        ltrue = left.data & ~left.null_mask
        rtrue = right.data & ~right.null_mask
        lfalse = ~left.data & ~left.null_mask
        rfalse = ~right.data & ~right.null_mask
        data = ltrue | rtrue
        nulls = ~(data | (lfalse & rfalse))
        return ColumnVector(ColumnType.BOOL, data, nulls)


class Not(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        return ColumnVector(ColumnType.BOOL, ~value.data.astype(bool),
                            value.null_mask.copy())


class IsNull(Expression):
    """``IS NULL`` / ``IS NOT NULL``; never NULL itself and never
    null-rejecting (a NULL input produces TRUE for IS NULL)."""

    def __init__(self, operand: Expression, negated: bool = False):
        self.operand = operand
        self.negated = negated
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def null_rejected_refs(self) -> Set[str]:
        if self.negated:
            # IS NOT NULL is false on NULL: it rejects
            return self.operand.null_rejected_refs()
        return set()

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        data = value.null_mask.copy()
        if self.negated:
            data = ~data
        return ColumnVector(ColumnType.BOOL, data,
                            np.zeros(batch.length, dtype=bool))


class InList(Expression):
    def __init__(self, operand: Expression, values: Sequence[object],
                 negated: bool = False):
        self.operand = operand
        self.values = list(values)
        self.negated = negated
        self.result_type = ColumnType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        nulls = value.null_mask
        if value.data.dtype == object:
            members = set(self.values)
            if nulls.any():
                # membership-test only the non-null slots; NULL slots
                # are masked out of the verdict regardless
                data = np.zeros(len(value.data), dtype=bool)
                slots = np.flatnonzero(~nulls)
                data[slots] = np.fromiter(
                    (item in members for item in value.data[slots]),
                    dtype=bool, count=len(slots))
            else:
                data = np.fromiter((item in members for item in value.data),
                                   dtype=bool, count=len(value.data))
        else:
            data = np.isin(value.data, np.array(self.values))
        if self.negated:
            data = ~data
        return ColumnVector(ColumnType.BOOL, data, nulls)


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    def __init__(self, operand: Expression, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.result_type = ColumnType.BOOL
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._regex = re.compile(regex + r"\Z", re.DOTALL)

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        match = self._regex.match
        nulls = value.null_mask
        if nulls.any():
            # match only the non-null slots; NULL slots are masked out
            # of the verdict regardless
            data = np.zeros(len(value.data), dtype=bool)
            slots = np.flatnonzero(~nulls)
            data[slots] = np.fromiter(
                (bool(match(item)) if isinstance(item, str) else False
                 for item in value.data[slots]),
                dtype=bool, count=len(slots))
        else:
            data = np.fromiter(
                (bool(match(item)) if isinstance(item, str) else False
                 for item in value.data),
                dtype=bool, count=len(value.data),
            )
        if self.negated:
            data = ~data
        return ColumnVector(ColumnType.BOOL, data, nulls)


class Case(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    def __init__(self, branches: Sequence[Tuple[Expression, Expression]],
                 default: Optional[Expression], result_type: ColumnType):
        self.branches = list(branches)
        self.default = default
        self.result_type = result_type

    def children(self) -> Sequence[Expression]:
        out: List[Expression] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return out

    def null_rejected_refs(self) -> Set[str]:
        return set()  # CASE can turn NULL inputs into non-NULL outputs

    def evaluate(self, batch: Batch) -> ColumnVector:
        length = batch.length
        data = np.zeros(length, dtype=dtype_for(self.result_type))
        nulls = np.ones(length, dtype=bool)
        undecided = np.ones(length, dtype=bool)
        for cond, value in self.branches:
            cond_vec = cond.evaluate(batch)
            hit = undecided & cond_vec.data.astype(bool) & ~cond_vec.null_mask
            if hit.any():
                value_vec = value.evaluate(batch)
                data[hit] = value_vec.data[hit]
                nulls[hit] = value_vec.null_mask[hit]
            undecided &= ~hit
        if self.default is not None and undecided.any():
            value_vec = self.default.evaluate(batch)
            data[undecided] = value_vec.data[undecided]
            nulls[undecided] = value_vec.null_mask[undecided]
        return ColumnVector(self.result_type, data, nulls)


class ExtractYear(Expression):
    """``extract(year from timestamp_expr)`` — vectorized."""

    def __init__(self, operand: Expression):
        self.operand = operand
        self.result_type = ColumnType.INT64

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        micros = value.data.astype("int64")
        years = micros.astype("datetime64[us]").astype("datetime64[Y]")
        data = years.astype(np.int64) + 1970
        return ColumnVector(ColumnType.INT64, data, value.null_mask.copy())


class Substring(Expression):
    """``substring(x from start for length)`` (1-based, SQL style)."""

    def __init__(self, operand: Expression, start: int, length: int):
        self.operand = operand
        self.start = start
        self.length = length
        self.result_type = ColumnType.STRING

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        lo = self.start - 1
        hi = lo + self.length
        data = np.array(
            [item[lo:hi] if isinstance(item, str) else None
             for item in value.data],
            dtype=object,
        )
        return ColumnVector(ColumnType.STRING, data, value.null_mask.copy())


class Cast(Expression):
    """Runtime cast between engine types (the cheap kind that survives
    cast rewriting, e.g. INT64 column accessed as Float, Section 4.3)."""

    def __init__(self, operand: Expression, target: ColumnType):
        self.operand = operand
        self.result_type = target

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, batch: Batch) -> ColumnVector:
        value = self.operand.evaluate(batch)
        if value.type == self.result_type:
            return value
        target = self.result_type
        nulls = value.null_mask.copy()
        if target in (ColumnType.FLOAT64, ColumnType.DECIMAL):
            if value.data.dtype == object:
                out, extra_nulls = _object_to_float(value.data)
                return ColumnVector(target, out, nulls | extra_nulls)
            return ColumnVector(target, value.data.astype(np.float64), nulls)
        if target == ColumnType.INT64:
            if value.data.dtype == object:
                out, extra_nulls = _object_to_int(value.data)
                return ColumnVector(target, out, nulls | extra_nulls)
            data = value.data
            if data.dtype == np.float64:
                # out-of-range floats become NULL rather than wrapping
                bad = ~np.isfinite(data) | (data >= 2.0**63) | \
                    (data < -(2.0**63))
                safe = np.where(bad, 0.0, data)
                return ColumnVector(target, safe.astype(np.int64),
                                    nulls | bad)
            return ColumnVector(target, data.astype(np.int64), nulls)
        if target == ColumnType.STRING:
            data = np.array([_to_text(item) for item in value.data.tolist()],
                            dtype=object)
            return ColumnVector(target, data, nulls)
        if target == ColumnType.BOOL:
            return ColumnVector(target, value.data.astype(bool), nulls)
        if target == ColumnType.TIMESTAMP:
            from repro.core.datetimes import parse_datetime_string
            out = np.zeros(len(value.data), dtype=np.int64)
            extra = np.zeros(len(value.data), dtype=bool)
            for index, item in enumerate(value.data):
                if isinstance(item, str):
                    parsed = parse_datetime_string(item)
                    if parsed is None:
                        extra[index] = True
                    else:
                        out[index] = parsed
                elif isinstance(item, (int, np.integer)):
                    out[index] = int(item)
                else:
                    extra[index] = True
            return ColumnVector(target, out, nulls | extra)
        raise ExecutionError(f"unsupported cast to {target}")


def _object_to_float(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    out = np.zeros(len(data), dtype=np.float64)
    nulls = np.zeros(len(data), dtype=bool)
    for index, item in enumerate(data):
        try:
            out[index] = float(item)
        except (TypeError, ValueError):
            nulls[index] = True
    return out, nulls


def _object_to_int(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    out = np.zeros(len(data), dtype=np.int64)
    nulls = np.zeros(len(data), dtype=bool)
    for index, item in enumerate(data):
        try:
            out[index] = int(item)
        except (TypeError, ValueError, OverflowError):
            try:
                out[index] = int(float(item))
            except (TypeError, ValueError, OverflowError):
                nulls[index] = True
    return out, nulls


def _to_text(item: object) -> Optional[str]:
    if item is None:
        return None
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float) and item == int(item):
        return str(int(item))
    return str(item)


def interval_micros(amount: int, unit: str) -> int:
    """``INTERVAL 'amount' unit`` in epoch microseconds (day-based units
    only; month/year intervals are folded at bind time)."""
    unit = unit.lower().rstrip("s")
    scale = {"day": MICROS_PER_DAY, "hour": MICROS_PER_DAY // 24,
             "minute": 60_000_000, "second": 1_000_000}
    if unit not in scale:
        raise ExecutionError(f"unsupported interval unit {unit!r}")
    return amount * scale[unit]
