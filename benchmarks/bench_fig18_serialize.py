"""Figure 18: (de-)serialization slowdown of BSON and CBOR relative to
our JSONB format, over the eight SIMD-JSON-style corpora.

Paper: JSONB is the fastest serializer on all corpora; CBOR wins three
deserialization workloads.  Corpora are synthetic stand-ins with the
same structural character (see repro.workloads.docs).
"""

from repro import jsonb
from repro.bench.harness import time_call
from repro.jsonb import bson, cbor
from repro.workloads.docs import CORPORA


def test_fig18_serialization(benchmark, report):
    serialize = {}
    deserialize = {}
    for name, generate in CORPORA.items():
        document = generate()
        encoders = {
            "JSONB": (jsonb.encode, jsonb.decode),
            "BSON": (bson.encode, bson.decode),
            "CBOR": (cbor.encode, cbor.decode),
        }
        ser_times = {}
        de_times = {}
        for label, (encode, decode) in encoders.items():
            encoded = encode(document)
            # round-trip gate (JSONB decodes objects with sorted keys,
            # which dict equality ignores; a BSON document is an object)
            if label != "BSON" or isinstance(document, dict):
                assert decode(encoded) == document, (name, label)
            ser_times[label] = time_call(lambda e=encode: e(document),
                                         repeats=3)
            de_times[label] = time_call(lambda d=decode, b=encoded: d(b),
                                        repeats=3)
        serialize[name] = {
            label: ser_times[label] / ser_times["JSONB"]
            for label in ("BSON", "CBOR")}
        deserialize[name] = {
            label: de_times[label] / de_times["JSONB"]
            for label in ("BSON", "CBOR")}
    benchmark.pedantic(lambda: jsonb.encode(CORPORA["twitter_api"]()),
                       rounds=2, iterations=1)

    out = report("fig18_serialize",
                 "Figure 18 - slowdown vs JSONB (1.0 = JSONB speed)")
    out.section("serialize")
    out.table(["corpus", "BSON", "CBOR"],
              [[name, row["BSON"], row["CBOR"]]
               for name, row in serialize.items()])
    out.section("deserialize")
    out.table(["corpus", "BSON", "CBOR"],
              [[name, row["BSON"], row["CBOR"]]
               for name, row in deserialize.items()])
    out.emit()

    # Substrate deviation (recorded in EXPERIMENTS.md): the paper's
    # C++ encoder wins on every corpus; ours is one bottom-up pass in
    # Python and wins on most, not all, so the bench asserts the
    # comparison stays within a sane band rather than the paper's
    # absolute winner.
    for table in (serialize, deserialize):
        for name, row in table.items():
            assert 0.05 < row["BSON"] < 20, name
            assert 0.05 < row["CBOR"] < 20, name
    # the paper's deserialize observation (CBOR wins some workloads)
    cbor_wins = sum(row["CBOR"] < 1.0 for row in deserialize.values())
    assert cbor_wins >= 1
