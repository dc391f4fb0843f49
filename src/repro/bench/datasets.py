"""Shared, cached benchmark databases.

Loading the combined TPC-H relation dominates bench wall time, so every
bench file pulls its databases from this module-level cache.  Scales
are deliberately small (Python engine); `REPRO_BENCH_SCALE` multiplies
them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.bench.harness import SCALE
from repro.storage.formats import StorageFormat
from repro.tiles.extractor import ExtractionConfig
from repro.workloads import twitter, yelp
from repro.workloads import tpch

#: defaults from Section 6: tile size 2^10, partition size 8,
#: threshold 60% — the tile size is scaled down with the data so the
#: tiles-per-relation ratio resembles the paper's.
TILE_SIZE = 256
PARTITION_SIZE = 8

TPCH_SF = 0.002 * SCALE
YELP_BUSINESSES = int(250 * SCALE)
TWITTER_TWEETS = int(3000 * SCALE)

INTERNAL_FORMATS = (StorageFormat.JSON, StorageFormat.JSONB,
                    StorageFormat.SINEW, StorageFormat.TILES)


def default_config(**overrides) -> ExtractionConfig:
    kwargs = dict(tile_size=TILE_SIZE, partition_size=PARTITION_SIZE)
    kwargs.update(overrides)
    return ExtractionConfig(**kwargs)


@lru_cache(maxsize=None)
def tpch_db(storage_format: StorageFormat, shuffled: bool = False,
            tile_size: int = TILE_SIZE, partition_size: int = PARTITION_SIZE,
            detect_dates: bool = True, enable_reordering: bool = True):
    config = ExtractionConfig(tile_size=tile_size,
                              partition_size=partition_size,
                              detect_dates=detect_dates,
                              enable_reordering=enable_reordering)
    return tpch.make_database(TPCH_SF, storage_format, config,
                              combined=True, shuffled=shuffled)


@lru_cache(maxsize=None)
def tpch_split_db(storage_format: StorageFormat):
    return tpch.make_database(TPCH_SF, storage_format, default_config(),
                              combined=False)


@lru_cache(maxsize=None)
def yelp_db(storage_format: StorageFormat, tile_size: int = TILE_SIZE,
            partition_size: int = PARTITION_SIZE,
            detect_dates: bool = True):
    config = ExtractionConfig(tile_size=tile_size,
                              partition_size=partition_size,
                              detect_dates=detect_dates)
    return yelp.make_database(YELP_BUSINESSES, storage_format, config)


@lru_cache(maxsize=None)
def twitter_db(storage_format: StorageFormat, evolving: bool = False,
               tile_size: int = TILE_SIZE,
               partition_size: int = PARTITION_SIZE,
               child_arrays: bool = True):
    config = ExtractionConfig(tile_size=tile_size,
                              partition_size=partition_size)
    return twitter.make_database(TWITTER_TWEETS, storage_format, config,
                                 evolving=evolving,
                                 child_arrays=child_arrays)
