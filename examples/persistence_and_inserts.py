"""Durability and trickle inserts: save a database, reopen it, keep
inserting.

Shows the on-disk ``.jtile`` format (tiles, headers, row spans and
statistics survive a round trip) and the Section 3.2 insert path: new
documents buffer until a full tile can be sealed and extracted.

Run with::

    python examples/persistence_and_inserts.py
"""

import random
import tempfile
from pathlib import Path

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.storage.persist import open_database, save_database


def make_events(n, start=0, seed=13):
    rng = random.Random(seed + start)
    return [
        {"seq": start + i,
         "sensor": f"s{rng.randint(1, 8)}",
         "reading": round(rng.gauss(20.0, 4.0), 3),
         "at": f"2026-07-{rng.randint(1, 6):02d}"}
        for i in range(n)
    ]


def main() -> None:
    config = ExtractionConfig(tile_size=128, partition_size=4)
    db = Database(StorageFormat.TILES, config)
    relation = db.load_table("events", make_events(1000))
    print(f"loaded {relation.row_count} events into "
          f"{len(relation.tiles)} tiles")

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        written = save_database(db, store)
        for name, size in written.items():
            print(f"saved {name!r}: {size / 1024:.1f} KiB on disk")

        reopened = open_database(store)
        events = reopened.table("events")
        sensors = events.statistics.distinct(KeyPath.parse("sensor"))
        print(f"\nreopened: {events.row_count} rows, "
              f"{len(events.tiles)} tiles, statistics intact "
              f"(~{sensors:.0f} sensors)")

        # trickle inserts: tiles seal automatically at tile_size
        print("\ninserting 300 fresh events one by one...")
        for event in make_events(300, start=1000):
            events.insert(event)
        print(f"tiles now: {len(events.tiles)} "
              f"({events.pending_inserts} rows still buffered)")
        events.flush_inserts()

        result = reopened.sql("""
            select e.data->>'sensor' as sensor,
                   count(*) as readings,
                   avg(e.data->>'reading'::float) as avg_reading
            from events e
            where e.data->>'at'::date >= date '2026-07-03'
            group by e.data->>'sensor'
            order by readings desc
            limit 5
        """)
        print("\n=== top sensors since July 3 (fresh inserts included) ===")
        print(result.format_table())
        print(f"tiles skipped by zone maps / row spans: "
              f"{result.counters.tiles_skipped}")


if __name__ == "__main__":
    main()
