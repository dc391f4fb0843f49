"""The one-pass JSONB encoder against the two-pass reference.

``repro.jsonb.encoder`` builds each node's bytes bottom-up in one walk;
``tests/reference_encoder.py`` is the measure/write encoder it replaced.
Both must produce the same bytes, leave an ``ItemSink`` in the same
state (same item ids in the same order, same counts, same transactions)
and reject the same values — on generated values that reach every width
boundary of the format, and on the Python types that only pass the
encoder's ``isinstance`` rules.
"""

import enum
import math
import struct
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JsonbEncodeError
from repro.jsonb import encode, encoded_size
from repro.jsonb.encoder import check_encodable, collect_items
from repro.mining.dictionary import ItemSink
from tests import reference_encoder as reference

FLOAT32_MAX = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]

#: floats on every narrowing boundary: half / single / double, the
#: subnormals of each width, signed zero and the non-finite values
BOUNDARY_FLOATS = [
    0.0, -0.0, 1.5, -2.25, 0.1, 1 / 3, 6.1e-5,
    65504.0, -65504.0, 65505.0, 65504.5, 65520.0,
    2.0 ** -14, 2.0 ** -24, 2.0 ** -25, 3 * 2.0 ** -25,
    2.0 ** -126, 2.0 ** -149, 2.0 ** -150, 5e-324, -5e-324,
    FLOAT32_MAX, -FLOAT32_MAX, 3.4028235e38, -3.4028235e38,
    3.4028236e38, float.fromhex("0x1.fffffe8p127"), 1e39, 1e300,
    float("inf"), float("-inf"), float("nan"),
]

#: integers on every byte-width boundary of the INT payload (the
#: 8-byte edges are the first ones past 64 bits)
BOUNDARY_INTS = sorted(
    {value for nbytes in range(1, 9)
     for edge in (1 << (8 * nbytes - 1),)
     for value in (edge - 1, edge, -edge, -edge - 1)}
    | set(range(-2, 10)))
INT64_INTS = [value for value in BOUNDARY_INTS
              if -(2 ** 63) <= value < 2 ** 63]


def _text(byte_length: int, char: str = "a") -> str:
    """A string of exactly *byte_length* UTF-8 bytes, made of *char*
    with ASCII padding."""
    width = len(char.encode("utf-8"))
    return char * (byte_length // width) + "a" * (byte_length % width)


#: strings around the inline limit (27 / 28 bytes) and the 1-, 2- and
#: 4-byte length prefixes, in ASCII and multi-byte UTF-8
BOUNDARY_STRINGS = [
    _text(length, char)
    for length in (0, 1, 27, 28, 255, 256, 65535, 65536)
    for char in ("a", "é", "漢", "\U0001f600")
] + ["1", "-0", "12.5", "1e5", "1e5x", "01", "-", "2014-08-26", "١"]

scalars = (
    st.none() | st.booleans()
    | st.sampled_from(INT64_INTS) | st.integers(-(2 ** 63), 2 ** 63 - 1)
    | st.sampled_from(BOUNDARY_FLOATS) | st.floats(width=16)
    | st.floats(width=32) | st.floats()
    | st.sampled_from(BOUNDARY_STRINGS) | st.text(max_size=40)
    | st.from_regex(r"-?(0|[1-9][0-9]{0,12})(\.[0-9]{1,6})?([eE][+-]?[0-9]{1,3})?",
                    fullmatch=True)
)
keys = st.text(max_size=12) | st.sampled_from(
    ["a", "b", "ключ", "日本", "\U0001f600", "", "10", "a.b", "[0]"])
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=12)
    | st.dictionaries(keys, children, max_size=12),
    max_leaves=40,
)


def _sink_state(sink):
    return (list(sink.dictionary.items()), list(sink.dictionary.counts),
            sink.transactions)


def _assert_same(documents, detect=True, max_array_elements=8):
    """Both encoders, with and without a sink, on a document stream;
    with numeric-string detection also the byte-free item walk."""
    ours, theirs = ItemSink(max_array_elements), ItemSink(max_array_elements)
    walked = ItemSink(max_array_elements)
    for document in documents:
        expected = reference.encode(document, detect)
        assert encode(document, detect) == expected
        assert encoded_size(document, detect) == len(expected)
        assert encode(document, detect, sink=ours) == \
            reference.encode(document, detect, sink=theirs)
        if detect:
            collect_items(document, walked)
    assert _sink_state(ours) == _sink_state(theirs)
    if detect:
        assert _sink_state(walked) == _sink_state(ours)


class TestGenerated:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(values, min_size=1, max_size=4), st.booleans(),
           st.sampled_from([8, 2, 0]))
    def test_bytes_and_items_match(self, documents, detect, max_array):
        _assert_same(documents, detect, max_array)

    @pytest.mark.parametrize("value", BOUNDARY_FLOATS)
    def test_float_boundaries(self, value):
        _assert_same([value, [value], {"f": value}])

    @pytest.mark.parametrize("value", INT64_INTS)
    def test_int_boundaries(self, value):
        _assert_same([value, {"i": value}])

    @pytest.mark.parametrize("length", [27, 28, 255, 256, 65535, 65536])
    def test_string_lengths(self, length):
        _assert_same([_text(length), _text(length, "é"),
                      {"s": _text(length)}, {_text(length): 1}])

    @pytest.mark.parametrize("count", [250, 251, 300, 65536])
    def test_many_elements(self, count):
        array = list(range(count))
        obj = {f"k{index}": index for index in range(count)}
        _assert_same([array, obj, {"a": array, "o": obj}])

    def test_offset_widths(self):
        # slot areas of < 2^8, < 2^16 and >= 2^16 bytes
        for payload in (_text(200), _text(300), _text(70000)):
            _assert_same([{"x": payload, "y": [payload, 1]}, [payload] * 3])

    def test_nested_numeric_strings_and_unicode_keys(self):
        _assert_same([{"ключ": {"日本": ["12.5", "-0", "1e5x"]},
                       "": [[{"z": "7"}], {}], "\U0001f600": []}],
                     max_array_elements=1)


class _Color(enum.IntEnum):
    RED = 1
    BIG = 1 << 40


class _Text(str):
    pass


class _Number(float):
    pass


class TestPythonTypes:
    @pytest.mark.parametrize("document", [
        OrderedDict([("b", 1), ("a", [2, 3])]),
        {"c": _Color.RED, "d": _Color.BIG, "e": [_Color.RED]},
        {_Text("k"): _Text("v"), "n": _Text("12")},
        {"f": _Number(1.5), "g": _Number(0.1)},
        (1, "two", (3.0, None)),
        {"t": (True, False), "o": OrderedDict()},
    ])
    def test_subclasses_encode_as_the_reference(self, document):
        _assert_same([document])


class TestRejections:
    @pytest.mark.parametrize("document", [
        {1: "x"},
        {"a": 1, None: 2},
        "\ud800",
        {"a": ["ok", "\udfff"]},
        {"\ud800": 1},
        2 ** 63,
        -(2 ** 63) - 1,
        2 ** 64,
        {"a": [1, 2 ** 70]},
        {1, 2},
        {"a": {"b": {1, 2}}},
        b"raw",
    ])
    def test_same_errors_and_sink_state(self, document):
        with pytest.raises(JsonbEncodeError) as expected:
            reference.encode(document)
        with pytest.raises(JsonbEncodeError) as got:
            encode(document)
        assert str(got.value) == str(expected.value)
        with pytest.raises(JsonbEncodeError):
            check_encodable(document)
        # the walk reported the same items before it stopped
        ours, theirs = ItemSink(), ItemSink()
        with pytest.raises(JsonbEncodeError):
            reference.encode(document, sink=theirs)
        with pytest.raises(JsonbEncodeError):
            encode(document, sink=ours)
        assert _sink_state(ours) == _sink_state(theirs)
        assert ours._items == theirs._items


def test_nan_payload_is_a_double():
    data = encode(float("nan"))
    assert len(data) == 9 and math.isnan(struct.unpack("<d", data[1:])[0])
