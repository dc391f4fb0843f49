"""JSONB: the optimized binary JSON format of Section 5.

Public surface:

* :func:`encode` / :func:`decode` — one-pass serialization and full
  materialization (round-trip safe apart from key order / whitespace).
* :class:`JsonbValue` — zero-copy navigation with O(log n) object key
  lookup, O(1) array indexing, typed getters (cast rewriting).
* :mod:`repro.jsonb.bson` / :mod:`repro.jsonb.cbor` — baseline binary
  formats used by the Section 6.9 comparison.
"""

from repro.jsonb.access import JsonbValue, jsonb_get_path
from repro.jsonb.decoder import decode
from repro.jsonb.encoder import encode, encoded_size

__all__ = ["JsonbValue", "decode", "encode", "encoded_size", "jsonb_get_path"]
