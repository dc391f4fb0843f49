"""Tests for typed key paths (repro.core.jsonpath)."""

import functools
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jsonpath import KeyPath, _escape, collect_key_paths
from repro.core.types import JsonType


def rendered(path: KeyPath) -> str:
    """The textual form, rendered afresh (no cached text)."""
    parts: List[str] = []
    for step in path.steps:
        if isinstance(step, int):
            parts.append(f"[{step}]")
        else:
            if parts:
                parts.append(".")
            parts.append(_escape(step))
    return "".join(parts)


#: keys with the characters the textual form escapes
_KEYS = st.text(alphabet="ab.[]\\0", max_size=4)
_PATHS = st.lists(st.one_of(_KEYS, st.integers(0, 12)),
                  max_size=4).map(lambda steps: KeyPath(tuple(steps)))


class TestKeyPathBasics:
    def test_roundtrip_simple(self):
        path = KeyPath(("user", "id"))
        assert str(path) == "user.id"
        assert KeyPath.parse("user.id") == path

    def test_roundtrip_array_slots(self):
        path = KeyPath(("entities", "hashtags", 0, "text"))
        assert str(path) == "entities.hashtags[0].text"
        assert KeyPath.parse(str(path)) == path

    def test_roundtrip_escaped_keys(self):
        path = KeyPath(("a.b", "c[d"))
        assert KeyPath.parse(str(path)) == path

    def test_root(self):
        assert KeyPath.parse("") == KeyPath(())
        assert KeyPath(()).depth == 0

    def test_child_parent_leaf(self):
        root = KeyPath(())
        path = root.child("geo").child("lat")
        assert path.depth == 2
        assert path.leaf == "lat"
        assert path.parent() == KeyPath(("geo",))
        with pytest.raises(ValueError):
            root.parent()

    def test_prefix_relations(self):
        outer = KeyPath(("user",))
        inner = KeyPath(("user", "id"))
        assert inner.startswith(outer)
        assert not outer.startswith(inner)
        assert inner.relative_to(outer) == KeyPath(("id",))

    def test_hashable_and_sortable(self):
        paths = {KeyPath(("a",)), KeyPath(("a",)), KeyPath(("b",))}
        assert len(paths) == 2
        assert sorted([KeyPath(("b",)), KeyPath(("a",))])[0] == KeyPath(("a",))

    def test_rejects_bad_steps(self):
        with pytest.raises(TypeError):
            KeyPath((1.5,))
        with pytest.raises(TypeError):
            KeyPath((True,))


class TestCachedText:
    """``str`` is rendered once per path; ordering is still the order
    of the freshly rendered text."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_PATHS, max_size=12))
    def test_sort_order_equals_rendered_text_order(self, paths):
        by_text = sorted(paths, key=functools.cmp_to_key(
            lambda a, b: (rendered(a) > rendered(b))
            - (rendered(a) < rendered(b))))
        assert [rendered(p) for p in sorted(paths)] == \
            [rendered(p) for p in by_text]

    @settings(max_examples=200, deadline=None)
    @given(_PATHS, _PATHS)
    def test_lt_and_str_match_fresh_rendering(self, left, right):
        assert (left < right) == (rendered(left) < rendered(right))
        assert str(left) == rendered(left)
        assert str(left) == rendered(left)  # the cached text, again

    def test_text_is_rendered_once(self):
        path = KeyPath(("entities", "hashtags", 0, "text"))
        assert str(path) is str(path)


class TestKeyPathLookup:
    DOC = {"id": 5, "user": {"id": 7}, "geo": None,
           "tags": [{"t": "a"}, {"t": "b"}]}

    def test_lookup_present(self):
        assert KeyPath(("id",)).lookup(self.DOC) == 5
        assert KeyPath(("user", "id")).lookup(self.DOC) == 7
        assert KeyPath(("tags", 1, "t")).lookup(self.DOC) == "b"

    def test_lookup_absent_returns_none(self):
        assert KeyPath(("missing",)).lookup(self.DOC) is None
        assert KeyPath(("user", "name")).lookup(self.DOC) is None
        assert KeyPath(("tags", 9, "t")).lookup(self.DOC) is None
        assert KeyPath(("geo", "lat")).lookup(self.DOC) is None


class TestCollectKeyPaths:
    def test_flat_document(self):
        paths = collect_key_paths({"id": 1, "text": "a"})
        assert (KeyPath(("id",)), JsonType.INT) in paths
        assert (KeyPath(("text",)), JsonType.STRING) in paths

    def test_nested_paths_encode_nesting(self):
        paths = collect_key_paths({"user": {"id": 1}, "geo": {"lat": 1.9}})
        assert (KeyPath(("user", "id")), JsonType.INT) in paths
        assert (KeyPath(("geo", "lat")), JsonType.FLOAT) in paths

    def test_null_value_has_null_type(self):
        paths = collect_key_paths({"geo": None})
        assert (KeyPath(("geo",)), JsonType.NULL) in paths

    def test_array_leading_elements_only(self):
        doc = {"a": list(range(20))}
        paths = collect_key_paths(doc, max_array_elements=4)
        slots = [p for p, _ in paths]
        assert KeyPath(("a", 0)) in slots
        assert KeyPath(("a", 3)) in slots
        assert KeyPath(("a", 4)) not in slots

    def test_empty_containers_are_visible(self):
        paths = collect_key_paths({"o": {}, "l": []})
        assert (KeyPath(("o",)), JsonType.OBJECT) in paths
        assert (KeyPath(("l",)), JsonType.ARRAY) in paths

    def test_paper_tile2_example(self):
        """Tuple 5 of Figure 2 has key paths {i, c, t, u_i, r, g_l}."""
        doc = {"id": 5, "create": "1/10", "text": "b", "user": {"id": 7},
               "replies": 3, "geo": {"lat": 1.9}}
        slots = {str(p) for p, _ in collect_key_paths(doc)}
        assert slots == {"id", "create", "text", "user.id", "replies", "geo.lat"}
