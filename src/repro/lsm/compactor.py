"""Leveled tile compaction: config, planning and merge prediction.

Fresh sealed tiles are level 0.  Once ``fanout`` adjacent tiles of the
same level sit next to each other in the tiles list, the planner
proposes merging them into one tile of the next level, re-mining
frequent itemsets over the union of their documents (the paper's §3
mining applied at merge time, following the AsterixDB tuple-compaction
idea).  Deeper levels therefore see strictly more documents per mining
run: a path that is frequent across the run but fell below the 60 %
threshold in some individual input becomes an extracted column of the
merged tile — extraction quality is monotone in level for such paths.

Planning is header-only: candidate runs come from the level stamps and
the run's merge *gain* is predicted from the headers' key-path
frequency databases (``combined_key_counts``), so a planner cycle never
faults a paged-out payload in.  The merge itself is
:meth:`repro.storage.relation.Relation.compact_tiles`, an entry point
over the relation's one tile-rewrite primitive (``_rewrite``, shared
with recomputation and §3.2 reorganization); it preserves row
order (the output is the concatenation of the inputs), which keeps
global row ids, morsel spans and the cluster's canonical block layout
intact — this is why cluster shards may compact even though §3.2
reordering is forced off for them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.env import env_flag, env_value
from repro.mining.dictionary import combined_key_counts


@dataclasses.dataclass
class LsmConfig:
    """Knobs of the LSM tier (``serve --lsm`` / ``REPRO_LSM_*``)."""

    #: master switch; off keeps the flat (level-0 only) legacy layout
    enabled: bool = False
    #: adjacent same-level tiles merged into one next-level tile
    fanout: int = 4
    #: deepest level compaction may produce (L0..max_level)
    max_level: int = 2
    #: propose a merge only when the predicted extraction gain is at
    #: least this many new columns, or the run has grown past
    #: ``fanout`` tiles anyway (size pressure wins eventually)
    min_gain_columns: int = 0

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides) -> "LsmConfig":
        """Build a config from ``REPRO_LSM_*`` variables; keyword
        *overrides* (e.g. from CLI flags) win over the environment."""
        fields = {
            "enabled": env_flag("REPRO_LSM", False, env),
            "fanout": max(2, env_value("REPRO_LSM_FANOUT", int, 4, env)),
            "max_level": max(0, env_value("REPRO_LSM_MAX_LEVEL", int, 2, env)),
            "min_gain_columns": env_value("REPRO_LSM_MIN_GAIN", int, 0, env),
        }
        fields.update({key: value for key, value in overrides.items()
                       if value is not None})
        return cls(**fields)


@dataclasses.dataclass(frozen=True)
class CompactionCandidate:
    """One plannable merge: ``count`` adjacent tiles at ``level``
    starting at the tile numbered ``start_number``."""

    start_number: int
    level: int
    count: int
    #: predicted newly-extractable columns of the merged tile (paths
    #: clearing the threshold combined but not extracted in every input)
    predicted_gain: int

    @property
    def score(self) -> float:
        # lower levels first (L0 backlog hurts scans most), then runs
        # whose merge is predicted to actually improve extraction
        return float(self.count + self.predicted_gain)


def predicted_extraction_gain(tiles: Sequence[object],
                              threshold: float) -> int:
    """Paths that clear *threshold* over the merged rows but are not
    extracted in every input tile — a header-only lower bound on the
    columns merge-time re-mining adds.  (A lower bound because type
    splits within a path can only be resolved by the real mining pass.)
    """
    total_rows = sum(tile.row_count for tile in tiles)
    if total_rows == 0:
        return 0
    combined = combined_key_counts(tile.header.key_counts
                                   for tile in tiles)
    min_count = threshold * total_rows
    everywhere = None
    for tile in tiles:
        extracted = {str(path) for path in tile.header.columns}
        everywhere = extracted if everywhere is None \
            else everywhere & extracted
    gain = 0
    for text, count in combined.items():
        if count >= min_count and text not in (everywhere or set()):
            gain += 1
    return gain


def plan_compactions(relation, config: LsmConfig,
                     ) -> List[CompactionCandidate]:
    """Candidate merges over the relation's current manifest.

    Scans the tiles list for maximal runs of adjacent tiles sharing a
    level below ``max_level``; every complete ``fanout``-sized prefix of
    such a run becomes one candidate (only the first is usually
    executed per cycle — the others document the backlog).  Runs with no
    predicted gain are still proposed once they exist — tiered storage
    must bound the tile count even for perfectly homogeneous data — but
    gain breaks ties through the score.
    """
    if not config.enabled or relation.text_rows is not None:
        return []
    tiles = list(relation.manifest().tiles)
    candidates: List[CompactionCandidate] = []
    index = 0
    while index < len(tiles):
        level = tiles[index].header.level
        run = [tiles[index]]
        cursor = index + 1
        while cursor < len(tiles) \
                and tiles[cursor].header.level == level:
            run.append(tiles[cursor])
            cursor += 1
        if level < config.max_level:
            offset = 0
            while len(run) - offset >= config.fanout:
                inputs = run[offset : offset + config.fanout]
                gain = predicted_extraction_gain(
                    inputs, relation.config.threshold)
                if gain >= config.min_gain_columns:
                    candidates.append(CompactionCandidate(
                        inputs[0].header.tile_number, level,
                        config.fanout, gain))
                offset += config.fanout
        index = cursor
    return candidates


def level_histogram(relation) -> Dict[int, int]:
    """Cheap ``level -> tile count`` summary from resident headers."""
    histogram: Dict[int, int] = {}
    for tile in relation.manifest().tiles:
        level = tile.header.level
        histogram[level] = histogram.get(level, 0) + 1
    return histogram
