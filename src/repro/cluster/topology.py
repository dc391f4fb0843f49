"""Static cluster topology (DESIGN.md §7).

A cluster is described by one JSON file shared by the operator, the
coordinator and the tooling::

    {
      "shards": [
        {"host": "127.0.0.1", "port": 7701,
         "replicas": [{"host": "127.0.0.1", "port": 7711}]},
        {"host": "127.0.0.1", "port": 7702}
      ],
      "max_replica_lag": 0,
      "read_from_replicas": true
    }

Shard order is load-bearing: shard *i* in the list owns every global
row block ``k`` with ``k % len(shards) == i`` (see
``repro.engine.partial``).  Growing or reordering the shard list
changes where existing rows are expected to live — resharding is out
of scope, so the topology is static for the life of the data.

``max_replica_lag`` is the staleness bound in *WAL records*: a replica
may serve a read only while it has applied all but at most this many
of the records the coordinator has routed to its primary.  ``0``
(default) means a replica must be fully caught up at check time.
``max_broadcast_rows`` (optional) caps the build side a broadcast join
may ship for every query on the cluster; ``0`` turns broadcast joins
off (DESIGN.md §10).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ReproError


class TopologyError(ReproError):
    """The topology file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class ShardSpec:
    primary: Endpoint
    replicas: List[Endpoint] = field(default_factory=list)


@dataclass(frozen=True)
class ClusterTopology:
    shards: List[ShardSpec]
    max_replica_lag: int = 0
    read_from_replicas: bool = True
    #: per-cluster ceiling on the estimated global build-side rows a
    #: broadcast join may ship (DESIGN.md §10); ``None`` defers to the
    #: query's ``broadcast_max_rows`` option
    max_broadcast_rows: Optional[int] = None

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusterTopology":
        shards_raw = raw.get("shards")
        if not isinstance(shards_raw, list) or not shards_raw:
            raise TopologyError(
                'topology needs a non-empty "shards" list')
        shards = []
        for index, entry in enumerate(shards_raw):
            shards.append(ShardSpec(
                primary=_endpoint(entry, f"shards[{index}]"),
                replicas=[_endpoint(rep, f"shards[{index}].replicas[{j}]")
                          for j, rep in enumerate(
                              entry.get("replicas") or [])],
            ))
        seen = set()
        for spec in shards:
            for endpoint in [spec.primary] + spec.replicas:
                if endpoint in seen:
                    raise TopologyError(
                        f"endpoint {endpoint.address} appears twice in "
                        f"the topology")
                seen.add(endpoint)
        return cls(shards=shards,
                   max_replica_lag=_count(raw, "max_replica_lag", 0),
                   read_from_replicas=bool(
                       raw.get("read_from_replicas", True)),
                   max_broadcast_rows=_count(raw, "max_broadcast_rows",
                                             None))


def _count(raw: dict, key: str, default: Optional[int]) -> Optional[int]:
    value = raw.get(key, default)
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int) or value < 0):
        raise TopologyError(f'"{key}" must be a non-negative integer, '
                            f'got {value!r}')
    return value


def _endpoint(entry: dict, where: str) -> Endpoint:
    try:
        return Endpoint(host=str(entry.get("host", "127.0.0.1")),
                        port=int(entry["port"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f'{where} needs a "port" (and optional '
                            f'"host"): {exc}') from exc


def load_topology(path: Union[str, Path]) -> ClusterTopology:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TopologyError(f"cannot read topology file {path}: "
                            f"{exc}") from exc
    except json.JSONDecodeError as exc:
        raise TopologyError(f"topology file {path} is not valid JSON: "
                            f"{exc}") from exc
    return ClusterTopology.from_dict(raw)


def shard_rows(total: int, tile_rows: int, shard_count: int,
               shard_index: int) -> int:
    """How many of the first *total* globally-routed rows live on
    shard *shard_index* under block round-robin routing."""
    full_blocks, remainder = divmod(total, tile_rows)
    if full_blocks > shard_index:
        blocks = (full_blocks - shard_index - 1) // shard_count + 1
    else:
        blocks = 0
    rows = blocks * tile_rows
    if remainder and full_blocks % shard_count == shard_index:
        rows += remainder
    return rows
