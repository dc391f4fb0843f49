"""Tests for the JSONB binary format: encoder, decoder, access layer."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jsonpath import KeyPath
from repro.core.types import JsonType
from repro.errors import JsonbDecodeError, JsonbEncodeError
from repro.jsonb import JsonbValue, decode, encode, encoded_size
from repro.jsonb import format as fmt
from repro.jsonb.encoder import MAX_ACCEPT_DEPTH, check_encodable


class TestScalarRoundTrip:
    @pytest.mark.parametrize("value", [None, True, False])
    def test_literals(self, value):
        assert decode(encode(value)) is value

    @pytest.mark.parametrize("value", [0, 1, 7, 8, -1, 255, -256, 2**31,
                                       -(2**31) - 1, 2**63 - 1, -(2**63)])
    def test_integers(self, value):
        assert decode(encode(value)) == value

    def test_small_int_lives_in_header(self):
        # values < 2^3 take exactly one byte (Section 5.1)
        for value in range(8):
            assert len(encode(value)) == 1
        assert len(encode(8)) == 2
        assert len(encode(-1)) == 2

    def test_integer_overflow_rejected(self):
        for value in (2**63, -2**63 - 1, 2**64):
            with pytest.raises(JsonbEncodeError):
                encode(value)

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.25, 3.141592653589793,
                                       1e300, -1e-300, 6.1e-5])
    def test_floats(self, value):
        assert decode(encode(value)) == value

    def test_float_narrowing_is_lossless(self):
        # 1.5 is representable as half precision: 1 header + 2 bytes
        assert len(encode(1.5)) == 3
        # 1/3 needs full double precision
        assert len(encode(1.0 / 3.0)) == 9
        # float32-exact value
        import numpy as np
        single = float(np.float32(1.1))
        assert len(encode(single)) == 5

    def test_float_specials(self):
        assert decode(encode(float("inf"))) == float("inf")
        assert decode(encode(float("-inf"))) == float("-inf")
        assert math.isnan(decode(encode(float("nan"))))

    @pytest.mark.parametrize("value", ["", "a", "hello world", "ünïcodé ✓",
                                       "x" * 27, "x" * 28, "x" * 1000])
    def test_strings(self, value):
        assert decode(encode(value)) == value

    def test_numeric_string_exact_roundtrip(self):
        # Section 5.2: a decimal-valued price stays textually exact.
        for text in ["19.99", "-0.001", "123456789012345678901234567890"]:
            assert decode(encode(text)) == text

    def test_numeric_string_detection_can_be_disabled(self):
        buf = encode("19.99", detect_numeric_strings=False)
        assert JsonbValue(buf).json_type() == JsonType.STRING
        buf = encode("19.99")
        assert JsonbValue(buf).json_type() == JsonType.NUMSTR


class TestContainerRoundTrip:
    def test_empty_containers(self):
        assert decode(encode({})) == {}
        assert decode(encode([])) == []

    def test_object_keys_sorted(self):
        buf = encode({"b": 1, "a": 2, "c": 3})
        assert list(decode(buf).keys()) == ["a", "b", "c"]

    def test_object_values_preserved(self):
        doc = {"id": 0, "name": "JSON"}
        assert decode(encode(doc)) == doc

    def test_nested(self):
        doc = {"user": {"id": 7, "tags": [1, 2, {"deep": True}]}, "geo": None}
        assert decode(encode(doc)) == doc

    def test_tuple_encodes_as_array(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_paper_twitter_example(self):
        doc = json.loads(
            '{"id":5, "create": "1/10", "text": "b", "user": {"id": 7},'
            ' "replies": 3, "geo": {"lat": 1.9}}'
        )
        assert decode(encode(doc)) == doc

    def test_non_string_key_rejected(self):
        with pytest.raises(JsonbEncodeError):
            encode({1: "x"})

    def test_unencodable_value_rejected(self):
        with pytest.raises(JsonbEncodeError):
            encode({"x": object()})

    def test_encoded_size_matches(self):
        doc = {"a": [1, 2.5, "three"], "b": {"c": None}}
        assert encoded_size(doc) == len(encode(doc))

    def test_large_object_uses_wide_offsets(self):
        doc = {f"key{i:05d}": "v" * 50 for i in range(200)}
        assert decode(encode(doc)) == doc


class TestDecoderRobustness:
    def test_truncated_document(self):
        buf = encode({"a": "hello"})
        with pytest.raises(JsonbDecodeError):
            decode(buf[:-2])

    def test_trailing_garbage(self):
        with pytest.raises(JsonbDecodeError):
            decode(encode(1) + b"\x00")

    def test_empty_buffer(self):
        with pytest.raises(JsonbDecodeError):
            decode(b"")

    def test_invalid_type_id(self):
        with pytest.raises(JsonbDecodeError):
            decode(bytes([0xFF]))


class TestAccess:
    DOC = {"id": 5, "create": "2020-06-01", "text": "b",
           "user": {"id": 7, "name": "bob"},
           "replies": 3, "geo": {"lat": 1.9},
           "tags": ["x", "y", "z"], "price": "19.99", "flag": True}

    @pytest.fixture()
    def root(self):
        return JsonbValue(encode(self.DOC))

    def test_object_get(self, root):
        assert root.get("id").as_python() == 5
        assert root.get("text").as_python() == "b"
        assert root.get("missing") is None

    def test_binary_search_finds_every_key(self):
        doc = {f"k{i:04d}": i for i in range(100)}
        root = JsonbValue(encode(doc))
        for i in range(100):
            assert root.get(f"k{i:04d}").as_python() == i

    def test_nested_path(self, root):
        assert root.get_path(KeyPath(("user", "id"))).as_python() == 7
        assert root.get_path(KeyPath(("geo", "lat"))).as_python() == 1.9
        assert root.get_path(KeyPath(("user", "zip"))) is None

    def test_array_index(self, root):
        tags = root.get("tags")
        assert tags.get(0).as_python() == "x"
        assert tags.get(2).as_python() == "z"
        assert tags.get(3) is None
        assert tags.get(-1).as_python() == "z"
        assert len(tags) == 3

    def test_scalar_navigation_fails_gracefully(self, root):
        assert root.get("id").get("x") is None
        assert root.get("id").get(0) is None

    def test_iter_items_object(self, root):
        items = {key: value.as_python() for key, value in root.iter_items()}
        assert items["id"] == 5
        assert items["user"] == {"id": 7, "name": "bob"}

    def test_iter_items_array(self, root):
        values = [value.as_python() for _, value in root.get("tags").iter_items()]
        assert values == ["x", "y", "z"]

    def test_as_text_matches_postgres_semantics(self, root):
        assert root.get("id").as_text() == "5"
        assert root.get("text").as_text() == "b"
        assert root.get("flag").as_text() == "true"
        assert root.get("geo").get("lat").as_text() == "1.9"
        # ->> on a container yields JSON text
        assert json.loads(root.get("user").as_text()) == {"id": 7, "name": "bob"}

    def test_null_as_text_is_sql_null(self):
        root = JsonbValue(encode({"geo": None}))
        assert root.get("geo").as_text() is None
        assert root.get("geo").is_null()

    def test_typed_getters(self, root):
        assert root.get("id").as_int() == 5
        assert root.get("id").as_float() == 5.0
        assert root.get("price").as_float() == 19.99
        assert root.get("price").as_int() == 19
        assert root.get("flag").as_bool() is True
        assert root.get("text").as_int() is None

    def test_timestamp_getter(self, root):
        micros = root.get("create").as_timestamp()
        assert micros is not None
        from repro.core.datetimes import date_string
        assert date_string(micros) == "2020-06-01"
        assert root.get("text").as_timestamp() is None

    def test_slice_bytes_is_standalone(self, root):
        sub = root.get("user").slice_bytes()
        assert decode(sub) == {"id": 7, "name": "bob"}


# ---------------------------------------------------------------------------
# property-based round-trip

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=12), children, max_size=6),
    max_leaves=25,
)


class TestPropertyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_roundtrip(self, value):
        assert decode(encode(value)) == _sorted_keys(value)

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_size_matches(self, value):
        assert encoded_size(value) == len(encode(value))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=10), json_values,
                           min_size=1, max_size=8))
    def test_every_key_reachable(self, doc):
        root = JsonbValue(encode(doc))
        for key, value in doc.items():
            hit = root.get(key)
            assert hit is not None
            assert hit.as_python() == _sorted_keys(value)


#: JSON-ish values including what the encoder rejects: integers outside
#: int64, lone surrogates in strings and keys, non-string keys, tuples
#: and types JSON has no form for
_any_text = st.text(max_size=4) | st.text(
    st.sampled_from(["a", "\u00e9", "\U0001f600", "\ud800", "\udfff"]),
    max_size=4)
unchecked_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1])
    | _any_text | st.sampled_from([{1, 2}, b"raw"]),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.one_of(_any_text, _any_text, _any_text,
                                st.integers(0, 3), st.none()),
                      children, max_size=4),
    max_leaves=12,
)


class TestCheckEncodable:
    @settings(max_examples=300, deadline=None)
    @given(unchecked_values)
    def test_agrees_with_the_measure_pass(self, value):
        try:
            encoded_size(value)
        except JsonbEncodeError:
            with pytest.raises(JsonbEncodeError):
                check_encodable(value)
        else:
            check_encodable(value)

    def test_nesting_bound(self):
        value = 0
        for _ in range(MAX_ACCEPT_DEPTH):
            value = [value]
        check_encodable(value)
        assert decode(encode(value)) == value
        with pytest.raises(JsonbEncodeError):
            check_encodable({"a": value})


def _sorted_keys(value):
    """Expected decode result: JSONB sorts object keys."""
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key])
                for key in sorted(value, key=lambda k: k.encode("utf-8"))}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value


class TestHeaderHelpers:
    def test_header_split(self):
        header = fmt.make_header(fmt.TYPE_STRING, 12)
        assert fmt.split_header(header) == (fmt.TYPE_STRING, 12)

    def test_compact_uint_roundtrip(self):
        for value in (0, 1, 250, 251, 65535, 65536, 2**32 - 1, 2**32, 2**63):
            buf = bytearray(16)
            end = fmt.write_compact_uint(buf, 0, value)
            assert fmt.compact_uint_size(value) == end
            read, pos = fmt.read_compact_uint(bytes(buf), 0)
            assert (read, pos) == (value, end)

    def test_offset_width_code(self):
        assert fmt.offset_width_code(0) == 0
        assert fmt.offset_width_code(255) == 0
        assert fmt.offset_width_code(256) == 1
        assert fmt.offset_width_code(2**16) == 2
        assert fmt.offset_width_code(2**32) == 3
