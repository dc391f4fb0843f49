"""Seeded query rewriting.

No two timed executions of ``tpch_analytics`` and ``twitter_fallback``
share SQL text: each pass rewrites the repo's query strings by
replacing their default literals (dates, segments, regions, thresholds,
screen names, hashtags) with seed-drawn values from the generators'
domains, so a future result cache cannot turn those workloads into
dictionary lookups.  Every rule asserts that its literal is still in
the query.  Templates whose literal domain is small (or empty) also
get a semantically neutral ``LIMIT`` with a drawn bound far above the
result size, which changes the text but not the work.

``serve_mixed`` is the opposite case on purpose: 70 % of its requests
come from a hot set of 20 fixed texts, which is where a plan cache
legitimately helps.

Run ``python benchmarks/suite/queries.py`` for the self-test.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Set, Tuple

import common  # noqa: F401  (puts src/ on sys.path)

from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpch.generator import (
    COLORS, CONTAINER_1, CONTAINER_2, NATIONS, REGIONS, SEGMENTS,
    SHIP_MODES, TYPE_SYLL_1, TYPE_SYLL_2, TYPE_SYLL_3)
from repro.workloads.twitter import HASHTAGS, LANGS, MENTIONS, TWITTER_QUERIES

Draw = Callable[[random.Random], List[Tuple[str, str]]]


def substitute(text: str, pairs: Sequence[Tuple[str, str]]) -> str:
    """Replace every ``old`` by its ``new``; all occurrences of one
    literal get the same value.  Two-phase through placeholders so a
    replacement can never be re-replaced by a later rule."""
    for index, (old, _new) in enumerate(pairs):
        if old not in text:
            raise AssertionError(f"literal {old!r} not found in query")
        text = text.replace(old, f"\x00{index}\x00")
    for index, (_old, new) in enumerate(pairs):
        text = text.replace(f"\x00{index}\x00", new)
    return text


def _neutral_limit(text: str, rng: random.Random) -> str:
    return f"{text.rstrip()}\nlimit {rng.randint(1000, 10**6)}\n"


# ----------------------------------------------------------------------
# TPC-H: one rule per query, literal -> drawn replacement

def _month(rng: random.Random, first: int = 1993, last: int = 1997) -> str:
    return f"date '{rng.randint(first, last)}-{rng.randint(1, 12):02d}-01'"


def _nation(rng: random.Random) -> str:
    return f"'{rng.choice(NATIONS)[0]}'"


def _brand(rng: random.Random) -> str:
    return f"'Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}'"


def _quantity_range(rng: random.Random, low: int) -> str:
    start = rng.randint(low, low + 10)
    return f"between {start} and {start + 10}"


def _q8(rng: random.Random) -> List[Tuple[str, str]]:
    nation, region = rng.choice(NATIONS)
    return [("'BRAZIL'", f"'{nation}'"),
            ("'AMERICA'", f"'{REGIONS[region]}'"),
            ("'ECONOMY ANODIZED STEEL'",
             f"'{rng.choice(TYPE_SYLL_1)} {rng.choice(TYPE_SYLL_2)} "
             f"{rng.choice(TYPE_SYLL_3)}'")]


def _q6(rng: random.Random) -> List[Tuple[str, str]]:
    discount = rng.randint(2, 9) / 100
    return [("date '1994-01-01'", f"date '{rng.randint(1993, 1997)}-01-01'"),
            ("between 0.05 and 0.07",
             f"between {discount - 0.01:.2f} and {discount + 0.01:.2f}"),
            ("< 24", f"< {rng.randint(24, 25)}")]


def _q7(rng: random.Random) -> List[Tuple[str, str]]:
    first, second = rng.sample([name for name, _ in NATIONS], 2)
    return [("'FRANCE'", f"'{first}'"), ("'GERMANY'", f"'{second}'")]


def _q12(rng: random.Random) -> List[Tuple[str, str]]:
    first, second = rng.sample(SHIP_MODES, 2)
    return [("('MAIL', 'SHIP')", f"('{first}', '{second}')"),
            ("date '1994-01-01'", f"date '{rng.randint(1993, 1997)}-01-01'")]


#: words of the generator's comment vocabulary (Q13's LIKE pattern)
_COMMENT_WORDS_1 = ("special", "express", "regular", "ironic", "final",
                    "bold", "quiet")
_COMMENT_WORDS_2 = ("requests", "deposits", "accounts", "platelets",
                    "theodolites")

TPCH_RULES: Dict[int, Draw] = {
    1: lambda r: [("interval '90' day", f"interval '{r.randint(60, 120)}' day")],
    2: lambda r: [("= 15", f"= {r.randint(1, 50)}"),
                  ("'%BRASS'", f"'%{r.choice(TYPE_SYLL_3)}'"),
                  ("'EUROPE'", f"'{r.choice(REGIONS)}'")],
    3: lambda r: [("'BUILDING'", f"'{r.choice(SEGMENTS)}'"),
                  ("date '1995-03-15'", f"date '1995-03-{r.randint(1, 31):02d}'")],
    4: lambda r: [("date '1993-07-01'", _month(r))],
    5: lambda r: [("'ASIA'", f"'{r.choice(REGIONS)}'"),
                  ("date '1994-01-01'", _month(r, 1993, 1996))],
    6: _q6,
    7: _q7,
    8: _q8,
    9: lambda r: [("'%green%'", f"'%{r.choice(COLORS)}%'")],
    10: lambda r: [("date '1993-10-01'", _month(r, 1993, 1996)),
                   ("limit 20", f"limit {r.randint(20, 25)}")],
    11: lambda r: [("'GERMANY'", _nation(r)),
                   ("0.0001", f"0.{r.randint(1, 20):04d}")],
    12: _q12,
    13: lambda r: [("'%special%requests%'",
                    f"'%{r.choice(_COMMENT_WORDS_1)}%"
                    f"{r.choice(_COMMENT_WORDS_2)}%'")],
    14: lambda r: [("date '1995-09-01'", _month(r))],
    15: lambda r: [("date '1996-01-01'", _month(r))],
    16: lambda r: [("'Brand#45'", _brand(r)),
                   ("'MEDIUM POLISHED%'",
                    f"'{r.choice(TYPE_SYLL_1)} {r.choice(TYPE_SYLL_2)}%'"),
                   ("(49, 14, 23, 45, 19, 3, 36, 9)",
                    "(" + ", ".join(map(str, r.sample(range(1, 51), 8))) + ")")],
    17: lambda r: [("'Brand#23'", _brand(r)),
                   ("'MED BOX'",
                    f"'{r.choice(CONTAINER_1)} {r.choice(CONTAINER_2)}'")],
    18: lambda r: [("> 300", f"> {r.randint(150, 280)}")],
    19: lambda r: [("'Brand#12'", _brand(r)), ("'Brand#23'", _brand(r)),
                   ("'Brand#34'", _brand(r)),
                   ("between 1 and 11", _quantity_range(r, 1)),
                   ("between 10 and 20", _quantity_range(r, 10)),
                   ("between 20 and 30", _quantity_range(r, 20))],
    20: lambda r: [("'forest%'", f"'{r.choice(COLORS)}%'"),
                   ("date '1994-01-01'", f"date '{r.randint(1993, 1997)}-01-01'"),
                   ("'CANADA'", _nation(r))],
    21: lambda r: [("'SAUDI ARABIA'", _nation(r)),
                   ("limit 100", f"limit {r.randint(100, 199)}")],
    22: lambda r: [("('13', '31', '23', '29', '30', '18', '17')",
                    "(" + ", ".join(f"'{code}'" for code in
                                    r.sample(range(10, 35), 7)) + ")")],
}

#: queries with under 64 literal combinations and no LIMIT of their own
_TPCH_NEUTRAL_LIMIT = (9, 13)

# ----------------------------------------------------------------------
# Twitter: the five repo queries plus five sparse-key templates

TWITTER_RULES: Dict[int, Draw] = {
    1: lambda r: [("> 1000", f"> {r.randint(500, 5000)}")],
    2: lambda r: [("limit 20", f"limit {r.randint(20, 400)}")],
    3: lambda r: [("'ladygaga'", f"'{r.choice(MENTIONS)}'")],
    4: lambda r: [("'#COVID'", f"'{r.choice(HASHTAGS)}'")],
    5: lambda r: [],
}
#: repo queries that get the neutral LIMIT (domain of at most ten values)
_TWITTER_NEUTRAL_LIMIT = (3, 4, 5)

#: Keys present in under 60 % of the stream (``in_reply_to_*`` 27 %,
#: ``retweeted_status.*`` 16 %, ``geo.*`` 7 %), so most tiles cannot
#: extract them and every access goes through the JSONB fallback.
#: s1/s3/s5 sit behind a selective predicate on an extracted column
#: (late materialization can skip rows); s2/s4 filter on a sparse key
#: itself, so every row is shredded.
SPARSE_TEMPLATES: Dict[str, str] = {
    "s1": """
select count(*) as n,
       sum(t.data->'retweeted_status'->>'retweet_count'::int) as rts,
       max(t.data->>'in_reply_to_user_id'::int) as top_reply,
       count(t.data->'geo'->>'type') as geo
from tweets t
where t.data->'user'->>'followers_count'::int > {followers}
""",
    "s2": """
select count(*) as n,
       sum(t.data->'retweeted_status'->>'retweet_count'::int) as rts,
       max(t.data->>'in_reply_to_user_id'::int) as top_reply,
       count(t.data->'geo'->>'type') as geo
from tweets t
where t.data->'retweeted_status'->>'retweet_count'::int > {retweets}
""",
    "s3": """
select t.data->>'id'::int as id, t.data->'geo'->>'type' as geo,
       t.data->>'in_reply_to_status_id'::int as reply_to,
       t.data->'retweeted_status'->'user'->>'screen_name' as rt_user
from tweets t
where t.data->>'lang' = '{lang}'
  and t.data->>'favorite_count'::int > {favorites}
order by id
limit 50
""",
    "s4": """
select t.data->'retweeted_status'->'user'->>'screen_name' as rt_user,
       count(*) as n,
       avg(t.data->'retweeted_status'->>'retweet_count'::int) as avg_rt
from tweets t
where t.data->'retweeted_status'->>'retweet_count'::int >= {retweets}
group by t.data->'retweeted_status'->'user'->>'screen_name'
order by n desc, rt_user
limit 10
""",
    "s5": """
select t.data->>'lang' as lang,
       count(t.data->>'in_reply_to_user_id') as replies,
       count(t.data->'geo'->>'type') as geotagged,
       max(t.data->'retweeted_status'->>'id'::int) as last_rt
from tweets t
where t.data->>'retweet_count'::int < {own_retweets}
group by t.data->>'lang'
order by lang
""",
}
SPARSE_KEYS = tuple(SPARSE_TEMPLATES)
#: the paths the sparse templates read through the fallback
SPARSE_PATHS = ("retweeted_status.retweet_count", "in_reply_to_user_id",
                "geo.type", "in_reply_to_status_id",
                "retweeted_status.user.screen_name", "retweeted_status.id")


def _sparse(key: str, rng: random.Random) -> str:
    text = SPARSE_TEMPLATES[key].format(
        followers=rng.randint(2000, 8000),
        retweets=rng.randint(1000, 9000),
        lang=rng.choice(LANGS),
        favorites=rng.randint(350, 480),
        own_retweets=rng.randint(40, 160))
    return _neutral_limit(text, rng) if key == "s5" else text


class QuerySet:
    """The SQL of pass *p* for one embedded workload, a pure function
    of ``(seed, workload, p)`` apart from the no-repeat redraw."""

    def __init__(self, workload: str, seed: int):
        if workload not in ("tpch_analytics", "twitter_fallback"):
            raise ValueError(workload)
        self.workload = workload
        self.seed = seed
        self._seen: Set[str] = set()
        self.keys: List[str] = (
            [f"q{n}" for n in sorted(TPCH_QUERIES)]
            if workload == "tpch_analytics"
            else [f"q{n}" for n in sorted(TWITTER_QUERIES)]
            + list(SPARSE_KEYS))

    def _draw(self, key: str, rng: random.Random) -> str:
        if key in SPARSE_TEMPLATES:
            return _sparse(key, rng)
        number = int(key[1:])
        if self.workload == "tpch_analytics":
            texts, rules, neutral = \
                TPCH_QUERIES, TPCH_RULES, _TPCH_NEUTRAL_LIMIT
        else:
            texts, rules, neutral = \
                TWITTER_QUERIES, TWITTER_RULES, _TWITTER_NEUTRAL_LIMIT
        text = substitute(texts[number], rules[number](rng))
        return _neutral_limit(text, rng) if number in neutral else text

    def queries(self, pass_index: int) -> List[Tuple[str, str]]:
        """``(key, sql)`` for every template, never repeating a text
        this query set has produced before."""
        out = []
        for key in self.keys:
            rng = random.Random(
                f"{self.workload}:{self.seed}:{pass_index}:{key}")
            for _ in range(200):
                text = self._draw(key, rng)
                if text not in self._seen:
                    break
            else:
                raise RuntimeError(
                    f"{key}: literal domain exhausted at pass {pass_index}")
            self._seen.add(text)
            out.append((key, text))
        return out


# ----------------------------------------------------------------------
# serve_mixed: hot set + fresh constants

SERVE_TEMPLATES: Dict[str, str] = {
    # zone maps on the extracted id column skip most tiles
    "lookup": "select t.data->>'id'::int as id, t.data->>'lang' as lang, "
              "t.data->'user'->>'screen_name' as screen_name "
              "from tweets t where t.data->>'id'::int = {id}",
    # top-k with LIMIT inside a range of preloaded ids
    "topk": "select t.data->>'id'::int as id, "
            "t.data->>'retweet_count'::int as retweets from tweets t "
            "where t.data->>'id'::int between {low} and {high} "
            "order by retweets desc, id limit {k}",
    # whole-table group-by: grows with the concurrent inserts
    "langs": "select t.data->>'lang' as lang, count(*) as n from tweets t "
             "where t.data->>'favorite_count'::int >= {favorites} "
             "group by t.data->>'lang' order by lang",
    # delete records are rare, so their keys are mostly not extracted
    "deletes": "select count(*) as n from tweets t "
               "where t.data->'delete'->'status'->>'user_id'::int <= {user}",
}
#: templates whose rows cannot change while documents with larger ids
#: are inserted, so every reply can be checked during the run
SERVE_STABLE = ("lookup", "topk")
_HOT_MIX = ("lookup",) * 8 + ("topk",) * 4 + ("langs",) * 4 + ("deletes",) * 4
HOT_SHARE = 0.7


class ServeMixer:
    """Request stream of the ``serve_mixed`` reader: :data:`HOT_SHARE`
    of the requests repeat one of 20 fixed texts, the rest carry fresh
    seed-drawn constants.  *first_id*/*last_id* bound the preloaded
    tweets, *users* the generator's user-id domain."""

    def __init__(self, seed: int, first_id: int, last_id: int, users: int):
        self._first, self._last, self._users = first_id, last_id, users
        self._rng = random.Random(f"serve_mixed:{seed}")
        #: ``(kind, sql, params)``
        self.hot: List[Tuple[str, str, Dict[str, int]]] = [
            self._fill(kind) for kind in _HOT_MIX]

    def _fill(self, kind: str) -> Tuple[str, str, Dict[str, int]]:
        rng = self._rng
        low = rng.randint(self._first, max(self._first, self._last - 1000))
        params = {
            "id": rng.randint(self._first, self._last),
            "low": low,
            "high": min(self._last, low + rng.randint(200, 1000)),
            "k": rng.randint(5, 20),
            "favorites": rng.randint(100, 450),
            "user": rng.randint(1, self._users),
        }
        return kind, SERVE_TEMPLATES[kind].format(**params), params

    def next(self) -> Tuple[str, str, Dict[str, int], bool]:
        """``(kind, sql, params, is_hot)``"""
        if self._rng.random() < HOT_SHARE:
            return (*self._rng.choice(self.hot), True)
        return (*self._fill(self._rng.choice(_HOT_MIX)), False)


# ----------------------------------------------------------------------

def self_test() -> None:
    """Same seed -> identical SQL sequence, different seed -> a
    different one, no repeated text, every substitution hit its
    literal (``substitute`` raises otherwise)."""
    for workload in ("tpch_analytics", "twitter_fallback"):
        first = [QuerySet(workload, 1).queries(p) for p in range(3)]
        again = [QuerySet(workload, 1).queries(p) for p in range(3)]
        other = [QuerySet(workload, 2).queries(p) for p in range(3)]
        assert first == again, f"{workload}: seed 1 is not reproducible"
        assert first != other, f"{workload}: seeds 1 and 2 agree"
        one = QuerySet(workload, 1)
        texts = [text for p in range(60) for _key, text in one.queries(p)]
        assert len(texts) == len(set(texts)), f"{workload}: repeated SQL"
    for number, text in TPCH_QUERIES.items():
        rewritten = substitute(text, TPCH_RULES[number](random.Random(0)))
        assert rewritten != text, f"tpch q{number} unchanged"

    def stream(seed: int) -> list:
        mixer = ServeMixer(seed, 10**15, 10**15 + 5000, 300)
        return mixer.hot + [mixer.next() for _ in range(200)]

    assert stream(1) == stream(1) and stream(1) != stream(2)
    hot = sum(1 for item in stream(1)[20:] if item[3]) / 200
    assert 0.55 < hot < 0.85, hot


if __name__ == "__main__":
    self_test()
    print("queries self-test ok")
