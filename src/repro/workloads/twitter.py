"""Twitter-like tweet stream (Sections 2.2, 6.3).

The generator reproduces the structural properties the paper leans on:

* the historical field timeline — replies (2007), hashtags (2007),
  retweets (2009), geo tags (2010) — so a "changing" stream (Table 4)
  starts with minimal 2006-style tweets and grows richer over time,
  while the default stream is all-modern (a June-2020 excerpt);
* interleaved *delete* records with a completely different structure
  (``{"delete": {"status": ...}}``), globally infrequent but locally
  minable after reordering;
* high-cardinality ``entities.hashtags`` / ``entities.user_mentions``
  arrays for the Tiles-* experiments.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.core.jsonpath import KeyPath
from repro.database import Database
from repro.storage.formats import StorageFormat
from repro.tiles.extractor import ExtractionConfig

LANGS = ["en", "ja", "es", "pt", "ar", "ko", "fr", "de"]
SOURCES = ["Twitter for iPhone", "Twitter for Android", "Twitter Web App",
           "TweetDeck"]
HASHTAGS = ["#COVID", "#News", "#Music", "#Sports", "#Gaming", "#Art",
            "#Crypto", "#Food", "#Travel", "#Science"]
MENTIONS = ["ladygaga", "katyperry", "BarackObama", "nasa", "nytimes",
            "elonmusk", "BBCBreaking", "CNN"]
_WORDS = ("breaking just saw this amazing thread about the new update "
          "cannot believe what happened today stream starts soon follow "
          "for more check out our latest drop").split()

_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

#: feature introduction years (Section 2.2)
FEATURE_YEARS = {"reply": 2007, "hashtags": 2007, "retweet": 2009,
                 "geo": 2010}

ARRAY_PATHS = [KeyPath.parse("entities.hashtags"),
               KeyPath.parse("entities.user_mentions")]


def _created_at(rng: random.Random, year: int) -> str:
    month = rng.randint(1, 12)
    return (f"{rng.choice(['Mon','Tue','Wed','Thu','Fri','Sat','Sun'])} "
            f"{_MONTHS[month - 1]} {rng.randint(1, 28):02d} "
            f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:"
            f"{rng.randint(0, 59):02d} +0000 {year}")


class TwitterGenerator:
    def __init__(self, num_tweets: int = 2000, seed: int = 11,
                 evolving: bool = False, delete_fraction: float = 0.08):
        self.num_tweets = num_tweets
        self.seed = seed
        #: evolving=True replays the 2006-2020 timeline ("Changing");
        #: evolving=False emits uniform modern tweets (2020 excerpt)
        self.evolving = evolving
        self.delete_fraction = delete_fraction

    def _year_of(self, index: int) -> int:
        if not self.evolving:
            return 2020
        return 2006 + round((index / max(1, self.num_tweets - 1)) * 14)

    def _tweet(self, rng: random.Random, index: int) -> dict:
        year = self._year_of(index)
        user_id = rng.randint(1, max(10, self.num_tweets // 20))
        doc = {
            "id": 10**15 + index,
            "created_at": _created_at(rng, year),
            "text": " ".join(rng.choice(_WORDS)
                             for _ in range(rng.randint(8, 40))),
            "source": rng.choice(SOURCES),
            "lang": rng.choice(LANGS),
            "user": {
                "id": user_id,
                "name": f"user-{user_id}",
                "screen_name": f"user{user_id}",
                "followers_count": int(rng.paretovariate(1.2) * 50),
                "friends_count": rng.randint(0, 2000),
                "verified": rng.random() < 0.03,
            },
            "favorite_count": rng.randint(0, 500),
            "retweet_count": rng.randint(0, 800),
        }
        if year >= FEATURE_YEARS["reply"] and rng.random() < 0.3:
            doc["in_reply_to_status_id"] = 10**15 + rng.randrange(
                max(1, index))
            doc["in_reply_to_user_id"] = rng.randint(
                1, max(10, self.num_tweets // 20))
        if year >= FEATURE_YEARS["hashtags"]:
            entities = {"urls": []}
            entities["hashtags"] = [
                {"text": rng.choice(HASHTAGS),
                 "indices": [0, 5]}
                for _ in range(rng.randint(0, 6))
            ]
            entities["user_mentions"] = [
                {"screen_name": rng.choice(MENTIONS),
                 "id": rng.randint(1, 10**6)}
                for _ in range(rng.randint(0, 4))
            ]
            doc["entities"] = entities
        if year >= FEATURE_YEARS["retweet"] and rng.random() < 0.2:
            doc["retweeted_status"] = {
                "id": 10**14 + rng.randrange(10**6),
                "user": {"id": rng.randint(1, 10**6),
                         "screen_name": f"rt{rng.randint(1, 999)}"},
                "retweet_count": rng.randint(0, 10**4),
            }
        if year >= FEATURE_YEARS["geo"] and rng.random() < 0.1:
            doc["geo"] = {
                "coordinates": [round(rng.uniform(-90, 90), 6),
                                round(rng.uniform(-180, 180), 6)],
                "type": "Point",
            }
        return doc

    def _delete(self, rng: random.Random, index: int) -> dict:
        return {
            "delete": {
                "status": {
                    "id": 10**15 + rng.randrange(max(1, index + 1)),
                    "user_id": rng.randint(1, max(10, self.num_tweets // 20)),
                },
                "timestamp_ms": str(1591000000000 + index),
            }
        }

    def stream(self) -> List[dict]:
        """Tweets with interleaved delete records, insertion-ordered."""
        rng = random.Random(self.seed)
        documents = []
        for index in range(self.num_tweets):
            if rng.random() < self.delete_fraction:
                documents.append(self._delete(rng, index))
            documents.append(self._tweet(rng, index))
        return documents


#: Queries modeled on Section 6.3: influential users, deletions,
#: mention lookup, hashtag lookup, per-language stats.
TWITTER_QUERIES: Dict[int, str] = {
    1: """
select t.data->'user'->>'screen_name' as screen_name,
       t.data->'user'->>'followers_count'::int as followers,
       count(*) as tweets
from tweets t
where t.data->'user'->>'followers_count'::int > 1000
group by t.data->'user'->>'screen_name',
         t.data->'user'->>'followers_count'::int
order by followers desc, screen_name
limit 20
""",
    2: """
select t.data->'delete'->'status'->>'user_id'::int as user_id,
       count(*) as deleted
from tweets t
where t.data->'delete'->'status'->>'id' is not null
group by t.data->'delete'->'status'->>'user_id'::int
order by deleted desc, user_id
limit 20
""",
    3: """
select count(*) as mentions
from tweets t
where json_contains(t.data->'entities'->'user_mentions',
                    'screen_name', 'ladygaga')
""",
    4: """
select count(*) as tagged
from tweets t
where json_contains(t.data->'entities'->'hashtags', 'text', '#COVID')
""",
    5: """
select t.data->>'lang' as lang, count(*) as tweets,
       avg(t.data->>'retweet_count'::int) as avg_retweets
from tweets t
where t.data->>'retweet_count' is not null
group by t.data->>'lang'
order by tweets desc, lang
""",
}

#: Tiles-* variants of Q3/Q4: join the extracted array child relations
#: instead of traversing the arrays per tuple (Section 6.3).
TWITTER_QUERIES_STAR: Dict[int, str] = dict(TWITTER_QUERIES)
TWITTER_QUERIES_STAR[3] = """
select count(distinct m.data->>'_parent_row'::int) as mentions
from tweets__entities_user_mentions m
where m.data->>'screen_name' = 'ladygaga'
"""
TWITTER_QUERIES_STAR[4] = """
select count(distinct h.data->>'_parent_row'::int) as tagged
from tweets__entities_hashtags h
where h.data->>'text' = '#COVID'
"""


def make_database(num_tweets: int = 2000,
                  storage_format: StorageFormat = StorageFormat.TILES,
                  config: Optional[ExtractionConfig] = None,
                  evolving: bool = False,
                  seed: int = 11,
                  num_workers: int = 1,
                  child_arrays: bool = True) -> Database:
    """Load the tweet stream as the ``tweets`` table (plus array child
    tables for TILES_STAR, unless *child_arrays* is False: then the
    arrays stay in the tweets, as in the paper's plain Tiles)."""
    generator = TwitterGenerator(num_tweets, seed, evolving)
    db = Database(storage_format, config)
    kwargs = {}
    if storage_format == StorageFormat.TILES_STAR and child_arrays:
        kwargs["array_paths"] = ARRAY_PATHS
    db.load_table("tweets", generator.stream(), storage_format, config,
                  num_workers=num_workers, **kwargs)
    return db
