"""HyperLogLog cardinality sketches (Flajolet et al., used in Section 4.6).

Umbra's primary source of domain statistics is the HyperLogLog sketch;
JSON tiles samples inserted values directly into per-tile sketches and
merges them into relation-level sketches (merging is a register-wise
maximum, which is why "HyperLogLog sketches are easy to combine").
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Optional

import numpy as np

_ALPHA = {16: 0.673, 32: 0.697, 64: 0.709}


def _alpha(m: int) -> float:
    if m in _ALPHA:
        return _ALPHA[m]
    return 0.7213 / (1.0 + 1.079 / m)


def hash64(value: object) -> int:
    """Stable 64-bit hash of any JSON scalar.

    Python's builtin ``hash`` is randomized per process for strings, so
    sketches would not be reproducible across runs; blake2b keeps every
    experiment deterministic.
    """
    if value is None:
        data = b"\x00null"
    elif isinstance(value, bool):
        data = b"\x01T" if value else b"\x01F"
    elif isinstance(value, int):
        data = b"\x02" + value.to_bytes(16, "little", signed=True)
    elif isinstance(value, float):
        # NaN / +-inf have no integer value: they hash by their bits
        if math.isfinite(value) and value == int(value) \
                and abs(value) < 2**63:
            # ints and equal floats hash identically (SQL equality)
            data = b"\x02" + int(value).to_bytes(16, "little", signed=True)
        else:
            data = b"\x03" + struct.pack("<d", value)
    elif isinstance(value, str):
        data = b"\x04" + value.encode("utf-8")
    elif isinstance(value, bytes):
        data = b"\x05" + value
    else:
        data = b"\x06" + repr(value).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class HyperLogLog:
    """A HyperLogLog sketch with 2**precision registers.

    The default precision of 9 (512 registers, ~4.6 % standard error)
    keeps the 64-sketches-per-relation budget of Section 4.6 small.
    """

    __slots__ = ("precision", "registers")

    def __init__(self, precision: int = 9):
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.precision = precision
        self.registers = np.zeros(1 << precision, dtype=np.uint8)

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    def add(self, value: object) -> None:
        self.add_hash(hash64(value))

    def add_hash(self, hashed: int) -> None:
        index = hashed & (self.num_registers - 1)
        remainder = hashed >> self.precision
        rank = (64 - self.precision) - remainder.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_many(self, values: Iterable[object]) -> None:
        """:meth:`add` every value; a register keeps the largest rank,
        so the order of the updates does not matter."""
        hashes = [hash64(value) for value in values]
        if not hashes:
            return
        shift = self.precision
        mask = self.num_registers - 1
        top = 65 - shift
        np.maximum.at(
            self.registers,
            np.array([hashed & mask for hashed in hashes], dtype=np.intp),
            np.array([top - (hashed >> shift).bit_length()
                      for hashed in hashes], dtype=np.uint8))

    def estimate(self) -> float:
        m = self.num_registers
        raw = _alpha(m) * m * m / float(np.sum(np.exp2(-self.registers.astype(np.float64))))
        if raw <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * math.log(m / zeros)  # linear counting
        return raw

    def merge(self, other: "HyperLogLog") -> None:
        """Register-wise maximum; the merged sketch estimates the union."""
        if other.precision != self.precision:
            raise ValueError("cannot merge sketches of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog(self.precision)
        clone.registers = self.registers.copy()
        return clone

    def __len__(self) -> int:
        return round(self.estimate())


def estimate_distinct(values: Iterable[object], precision: int = 9) -> float:
    """One-shot distinct-count estimate."""
    sketch = HyperLogLog(precision)
    sketch.add_many(values)
    return sketch.estimate()
