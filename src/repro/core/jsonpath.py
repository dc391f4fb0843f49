"""Typed key paths.

A *key path* (Section 3.1) is the path of nested objects and arrays
followed to an actual key-value pair.  Object steps are key strings,
array steps are integer slots.  The extraction algorithm encodes the
nesting into the path (Section 3.5), so ``{"geo": {"lat": 1.9}}``
contributes the key path ``geo.lat`` and ``{"a": [7, 8]}`` contributes
``a[0]`` and ``a[1]``.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple, Union

Step = Union[str, int]

_STEP_RE = re.compile(r"\[(\d+)\]|((?:[^.\[\\]|\\.)+)")


def _escape(key: str) -> str:
    return key.replace("\\", "\\\\").replace(".", "\\.").replace("[", "\\[")


def _unescape(key: str) -> str:
    return re.sub(r"\\(.)", r"\1", key)


class KeyPath:
    """Immutable sequence of object-key / array-slot steps.

    Instances are hashable and are used as dictionary keys throughout
    tile headers, itemset mining and the query engine.
    """

    __slots__ = ("steps", "_hash", "_text")

    def __init__(self, steps: Tuple[Step, ...] = ()):
        for step in steps:
            if not isinstance(step, (str, int)) or isinstance(step, bool):
                raise TypeError(f"invalid key path step: {step!r}")
        self.steps = tuple(steps)
        self._hash = hash(self.steps)
        #: the textual form, rendered on first use
        self._text: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "KeyPath":
        """Parse the dotted/bracketed textual form, e.g. ``user.id`` or
        ``entities.hashtags[0].text``.  Dots, brackets and backslashes
        inside keys are backslash-escaped."""
        if text == "":
            return cls(())
        steps: List[Step] = []
        pos = 0
        while pos < len(text):
            if text[pos] == ".":
                pos += 1
                continue
            match = _STEP_RE.match(text, pos)
            if match is None:
                raise ValueError(f"invalid key path text: {text!r}")
            if match.group(1) is not None:
                steps.append(int(match.group(1)))
            else:
                steps.append(_unescape(match.group(2)))
            pos = match.end()
        return cls(tuple(steps))

    def child(self, step: Step) -> "KeyPath":
        return KeyPath(self.steps + (step,))

    def parent(self) -> "KeyPath":
        if not self.steps:
            raise ValueError("the root path has no parent")
        return KeyPath(self.steps[:-1])

    def startswith(self, prefix: "KeyPath") -> bool:
        return self.steps[: len(prefix.steps)] == prefix.steps

    def relative_to(self, prefix: "KeyPath") -> "KeyPath":
        if not self.startswith(prefix):
            raise ValueError(f"{self} does not start with {prefix}")
        return KeyPath(self.steps[len(prefix.steps) :])

    @property
    def depth(self) -> int:
        """Nesting level: number of steps followed to reach the value."""
        return len(self.steps)

    @property
    def leaf(self) -> Step:
        if not self.steps:
            raise ValueError("the root path has no leaf step")
        return self.steps[-1]

    def lookup(self, value: object) -> object:
        """Follow this path inside a parsed JSON value.

        Returns ``None`` when any step is absent, mirroring the
        PostgreSQL semantics the paper adopts (Section 4.1).
        """
        current = value
        for step in self.steps:
            if isinstance(step, str):
                if not isinstance(current, dict) or step not in current:
                    return None
                current = current[step]
            else:
                if not isinstance(current, list) or step >= len(current) or step < 0:
                    return None
                current = current[step]
        return current

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeyPath) and self.steps == other.steps

    def __lt__(self, other: "KeyPath") -> bool:
        # Mixed str/int steps: order by textual form for determinism.
        return str(self) < str(other)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            parts: List[str] = []
            for step in self.steps:
                if isinstance(step, int):
                    parts.append(f"[{step}]")
                else:
                    if parts:
                        parts.append(".")
                    parts.append(_escape(step))
            text = self._text = "".join(parts)
        return text

    def __repr__(self) -> str:
        return f"KeyPath({str(self)!r})"


def collect_key_paths(
    document: object,
    max_array_elements: int = 8,
    _prefix: Optional[KeyPath] = None,
    _out: Optional[List[Tuple[KeyPath, "JsonType"]]] = None,
) -> List[Tuple[KeyPath, "JsonType"]]:
    """Collect all typed leaf key paths of *document* (Section 3.1 step 1).

    Arrays contribute their leading ``max_array_elements`` slots only
    (Section 3.5): when element counts vary between documents, only the
    leading elements can be frequent across a tile, so deeper slots are
    never extraction candidates and are left to the JSONB fallback.

    Empty objects/arrays contribute themselves as a single item so that
    their presence is still visible to the itemset miner.
    """
    from repro.core.types import JsonType, json_type_of

    if _out is None:
        _out = []
    prefix = _prefix if _prefix is not None else KeyPath()
    jtype = json_type_of(document)
    if jtype == JsonType.OBJECT:
        assert isinstance(document, dict)
        if not document:
            _out.append((prefix, JsonType.OBJECT))
        for key, value in document.items():
            collect_key_paths(value, max_array_elements, prefix.child(key), _out)
    elif jtype == JsonType.ARRAY:
        assert isinstance(document, (list, tuple))
        if not document:
            _out.append((prefix, JsonType.ARRAY))
        for slot, value in enumerate(document):
            if slot >= max_array_elements:
                break
            collect_key_paths(value, max_array_elements, prefix.child(slot), _out)
    else:
        if prefix.steps:
            _out.append((prefix, jtype))
        else:
            _out.append((KeyPath(), jtype))
    return _out
