"""Out-of-core paging benchmark: query cost vs residency budget.

Not a paper figure — this measures the tile store added for the
out-of-core refactor.  A Twitter-workload relation is checkpointed to
disk and reopened through a private :class:`TileStore` at a sweep of
residency budgets (unlimited down to 1/8 of the working set).  For
each budget the query suite runs twice:

* **cold** — every tile faults in from the ``.jtile`` segment (and,
  under tight budgets, tiles evicted mid-suite fault again);
* **warm** — whatever the budget let stay resident is reused; with an
  unlimited budget this is the fully-resident legacy behavior.

Reported per budget: cold/warm suite seconds, tile loads, evictions
and peak resident bytes — the cost curve an operator trades against
``serve --memory-mb``.

Run with::

    pytest benchmarks/bench_outofcore.py --benchmark-only
"""

from __future__ import annotations

import time

from repro import Database, ExtractionConfig, StorageFormat
from repro.bench.harness import scaled
from repro.storage.persist import load_relation, save_database
from repro.storage.tile_cache import ResolvedTileCache
from repro.storage.tilestore import TileStore
from repro.workloads import twitter

N_TWEETS = int(scaled(4000))
CONFIG = ExtractionConfig(tile_size=256, partition_size=8)

#: budget as a fraction of the on-disk working set; None = unlimited
BUDGET_FRACTIONS = (None, 1.0, 0.5, 0.25, 0.125)


def _run_suite(db) -> float:
    started = time.perf_counter()
    for text in twitter.TWITTER_QUERIES.values():
        db.sql(text)
    return time.perf_counter() - started


def test_outofcore_budget_sweep(benchmark, report, tmp_path):
    resident_db = twitter.make_database(N_TWEETS, StorageFormat.TILES,
                                        CONFIG)
    expected = {name: resident_db.sql(text).rows
                for name, text in twitter.TWITTER_QUERIES.items()}
    save_database(resident_db, tmp_path / "db")
    path = tmp_path / "db" / "tweets.jtile"
    probe = load_relation(path)
    working_set = sum(h.nbytes for h in probe.tiles)
    # a budget below one tile can only be honored transiently (the
    # pinned tile itself overruns it), so clamp the sweep to two tiles
    floor = 2 * max(h.nbytes for h in probe.tiles)

    rows = []
    for fraction in BUDGET_FRACTIONS:
        budget = None if fraction is None \
            else max(int(working_set * fraction), floor)
        store = TileStore(budget, cache=ResolvedTileCache())
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("tweets", load_relation(path, store=store))
        cold_s = _run_suite(db)
        warm_s = _run_suite(db)
        for name, text in twitter.TWITTER_QUERIES.items():
            assert db.sql(text).rows == expected[name], (fraction, name)
        stats = store.stats()
        assert budget is None or stats["peak_resident_bytes"] <= budget
        rows.append([
            "unlimited" if fraction is None else f"{fraction:.0%}",
            1e3 * cold_s, 1e3 * warm_s, stats["loads"],
            stats["evictions"], stats["peak_resident_bytes"] // 1024,
        ])

    # the benchmark hook times the tightest-budget cold suite
    tight = TileStore(max(int(working_set * 0.125), floor),
                      cache=ResolvedTileCache())
    tight_db = Database(StorageFormat.TILES, CONFIG)
    tight_db.register("tweets", load_relation(path, store=tight))
    benchmark.pedantic(lambda: _run_suite(tight_db), rounds=3, iterations=1)

    out = report("outofcore",
                 "out-of-core tile store - query cost vs residency budget")
    out.section(f"{N_TWEETS} tweets, tile_size=256, working set "
                f"{working_set // 1024} KiB on disk, Twitter suite "
                f"({len(twitter.TWITTER_QUERIES)} queries)")
    out.table(
        ["budget", "cold suite ms", "warm suite ms", "tile loads",
         "evictions", "peak resident KiB"],
        rows)
    out.note("budget = fraction of the on-disk working set; results are "
             "bit-identical across all budgets (asserted)")
    out.emit()

    unlimited, tightest = rows[0], rows[-1]
    assert tightest[4] > 0, "tightest budget never evicted"
    assert unlimited[4] == 0, "unlimited budget should never evict"
