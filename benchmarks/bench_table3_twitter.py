"""Table 3: execution times for the five Twitter queries, including
Tiles-* (high-cardinality array extraction).

Paper (seconds): e.g. Q3 JSONB 0.191 / Sinew 0.204 / Tiles 0.215 /
Tiles-* 0.017 — plain tiles cannot materialize the mention/hashtag
arrays, so Q3/Q4 only win once the arrays live in child relations.

The paper's plain Tiles column is measured as the paper defines it:
tiles that mine slot columns only, i.e. the Tiles-* format without
child relations (``StorageFormat.repeats_arrays`` is False for it).
This repository's TILES format also stores repeated ``chain[*].key``
columns (DESIGN.md §5h), which answer Q3 / Q4 from the tile; it is
reported as a column of its own, "Tiles+rep".
"""

from repro.bench import datasets, geomean, time_query
from repro.storage.formats import StorageFormat
from repro.workloads.twitter import TWITTER_QUERIES, TWITTER_QUERIES_STAR

PAPER = {
    1: (0.419, 0.255, 0.116, 0.116),
    2: (0.181, 0.191, 0.091, 0.091),
    3: (0.191, 0.204, 0.215, 0.017),
    4: (0.229, 0.212, 0.206, 0.022),
    5: (0.164, 0.049, 0.057, 0.058),
}
#: column label -> (format, child relations for the arrays)
COLUMNS = {
    "JSON": (StorageFormat.JSON, False),
    "JSONB": (StorageFormat.JSONB, False),
    "Sinew": (StorageFormat.SINEW, False),
    "Tiles": (StorageFormat.TILES_STAR, False),
    "Tiles-*": (StorageFormat.TILES_STAR, True),
    "Tiles+rep": (StorageFormat.TILES, False),
}
STAR = list(COLUMNS).index("Tiles-*")


def test_table3_twitter(benchmark, report):
    dbs = {label: datasets.twitter_db(fmt, child_arrays=children)
           for label, (fmt, children) in COLUMNS.items()}
    measured = {}
    for query in sorted(TWITTER_QUERIES):
        row = []
        for label, (_fmt, children) in COLUMNS.items():
            queries = TWITTER_QUERIES_STAR if children else TWITTER_QUERIES
            row.append(time_query(dbs[label], queries[query]))
        measured[query] = tuple(row)
    benchmark.pedantic(
        lambda: dbs["Tiles-*"].sql(TWITTER_QUERIES_STAR[4]),
        rounds=3, iterations=1)

    out = report("table3_twitter", "Table 3 - Twitter query times [s]")
    out.note("paper: JSONB/Sinew/Tiles/Tiles-* columns shown per query")
    rows = [
        [f"Q{query}", *measured[query],
         *(f"p:{v:.3f}" for v in PAPER[query])]
        for query in sorted(TWITTER_QUERIES)
    ]
    out.table(["query", *COLUMNS,
               "p:JSONB", "p:Sinew", "p:Tiles", "p:Tiles-*"], rows)
    out.emit()

    # array queries: Tiles-* beats JSON, JSONB, Sinew and Tiles clearly
    for query in (3, 4):
        star = measured[query][STAR]
        for index in range(STAR):
            assert star < measured[query][index], (query, index)
    # correctness: star and base variants agree
    for query in (3, 4):
        star = dbs["Tiles-*"].sql(TWITTER_QUERIES_STAR[query]).rows
        for label in ("Tiles", "Tiles+rep"):
            assert dbs[label].sql(TWITTER_QUERIES[query]).rows == star, \
                (query, label)
