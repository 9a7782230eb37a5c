"""Statistics over stored activity: counts, time histograms, token tables,
and word co-occurrence networks.

Every aggregate here is an order-independent function of its input, so
results are identical under any shuffling of the records.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import journal as jn
from .errors import JournalError
from .model import MessageKind, Session, Shout, ValidationReview

_TOKEN_RE = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*", re.UNICODE)
_SMALL_NUMBER_RE = re.compile(r"\d{1,2}")


class Scale(str, Enum):
    SECOND_OF_MINUTE = "second_of_minute"
    MINUTE_OF_HOUR = "minute_of_hour"
    HOUR_OF_DAY = "hour_of_day"
    DAY_OF_WEEK = "day_of_week"
    DAY_OF_MONTH = "day_of_month"
    MONTH = "month"
    YEAR = "year"


_WEEKDAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
           "jul", "aug", "sep", "oct", "nov", "dec")

# fixed bin labels per scale; the year scale is open-ended
_FIXED_BINS: dict[Scale, tuple[str, ...]] = {
    Scale.SECOND_OF_MINUTE: tuple(str(i) for i in range(60)),
    Scale.MINUTE_OF_HOUR: tuple(str(i) for i in range(60)),
    Scale.HOUR_OF_DAY: tuple(str(i) for i in range(24)),
    Scale.DAY_OF_WEEK: _WEEKDAYS,
    Scale.DAY_OF_MONTH: tuple(str(i) for i in range(1, 32)),
    Scale.MONTH: _MONTHS,
}


@dataclass(frozen=True)
class ActivityStats:
    by_kind: dict[MessageKind, int]
    by_user: dict[str, int]
    sessions: int
    reviews: int
    mean_score: float | None

    def to_dict(self) -> dict:
        payload = {
            "by_kind": {k.value: v for k, v in sorted(self.by_kind.items())},
            "by_user": dict(sorted(self.by_user.items())),
            "sessions": self.sessions,
            "reviews": self.reviews,
        }
        if self.mean_score is not None:
            payload["mean_score"] = self.mean_score
        return payload


@dataclass(frozen=True)
class TemporalHistogram:
    scale: Scale
    bins: tuple[tuple[str, int], ...]

    def total(self) -> int:
        return sum(count for _, count in self.bins)


@dataclass(frozen=True)
class TokenTable:
    tokens: dict[str, int]
    radicals: dict[str, int]
    vocabulary_size: int
    token_count: int


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Undirected weighted graph of tokens co-appearing in shouts."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]

    def degree(self) -> dict[str, int]:
        deg = {node: 0 for node in self.nodes}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def strength(self) -> dict[str, int]:
        strength = {node: 0 for node in self.nodes}
        for (a, b), weight in self.edges.items():
            strength[a] += weight
            strength[b] += weight
        return strength

    def component_count(self) -> int:
        parent = {node: node for node in self.nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(node) for node in self.nodes})


def summarize(shouts: Sequence[Shout], sessions: Iterable[Session] = (),
              reviews: Iterable[ValidationReview] = ()) -> ActivityStats:
    """Exact counts by kind and user, plus session/review tallies."""
    by_kind = Counter(s.kind for s in shouts)
    by_user = Counter(s.nick for s in shouts)
    review_list = list(reviews)
    mean = (sum(r.score for r in review_list) / len(review_list)
            if review_list else None)
    return ActivityStats(by_kind=dict(by_kind), by_user=dict(by_user),
                         sessions=len(list(sessions)), reviews=len(review_list),
                         mean_score=mean)


def _bucket(ts: int, scale: Scale) -> str:
    dt = datetime.fromtimestamp(ts, timezone.utc)
    if scale is Scale.SECOND_OF_MINUTE:
        return str(dt.second)
    if scale is Scale.MINUTE_OF_HOUR:
        return str(dt.minute)
    if scale is Scale.HOUR_OF_DAY:
        return str(dt.hour)
    if scale is Scale.DAY_OF_WEEK:
        return _WEEKDAYS[dt.weekday()]
    if scale is Scale.DAY_OF_MONTH:
        return str(dt.day)
    if scale is Scale.MONTH:
        return _MONTHS[dt.month - 1]
    return str(dt.year)


def histogram(shouts: Sequence[Shout], scale: Scale) -> TemporalHistogram:
    """Bucket creation times by one calendar field; zero bins stay present."""
    counts = Counter(_bucket(s.created, scale) for s in shouts)
    if scale is Scale.YEAR:
        if not counts:
            return TemporalHistogram(scale, ())
        years = sorted(int(y) for y in counts)
        labels = [str(y) for y in range(years[0], years[-1] + 1)]
    else:
        labels = list(_FIXED_BINS[scale])
    return TemporalHistogram(scale, tuple((label, counts.get(label, 0))
                                          for label in labels))


def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset(),
             keep_tags: bool = False) -> list[str]:
    """Lowercase word tokens, internal hyphens and apostrophes kept.

    Tag tokens are dropped unless asked for (they are counted separately),
    as are stopwords and bare numbers of up to two digits.
    """
    pieces = [tok for tok in text.split()
              if keep_tags or tok[0] not in "#+"]
    tokens = []
    for raw in _TOKEN_RE.findall(" ".join(pieces).lower()):
        if raw in stopwords:
            continue
        if _SMALL_NUMBER_RE.fullmatch(raw):
            continue
        tokens.append(raw)
    return tokens


_SUFFIXES = ("ções", "ção", "ing", "ed", "es", "s")


def default_stemmer(token: str) -> str:
    """Naive suffix stripping; not a linguistic stemmer."""
    for suffix in _SUFFIXES:
        if token.endswith(suffix):
            if suffix in ("ções", "ção"):
                return token[:-len(suffix)] + "ç"
            stem = token[:-len(suffix)]
            if len(stem) >= 3:
                return stem
    return token


def token_table(shouts: Sequence[Shout],
                stemmer: Callable[[str], str] = default_stemmer,
                stopwords: frozenset[str] | set[str] = frozenset(),
                include_machine: bool = False) -> TokenTable:
    """Token and radical frequencies; radicals aggregate token counts."""
    tokens: Counter = Counter()
    for shout in shouts:
        if not include_machine and shout.kind is MessageKind.LOST_TIMESLOT:
            continue
        tokens.update(tokenize(shout.message, stopwords))
    radicals: Counter = Counter()
    for token, count in tokens.items():
        radicals[stemmer(token)] += count
    return TokenTable(tokens=dict(tokens), radicals=dict(radicals),
                      vocabulary_size=len(tokens),
                      token_count=sum(tokens.values()))


def cooccurrence(shouts: Sequence[Shout],
                 stopwords: frozenset[str] | set[str] = frozenset(),
                 include_machine: bool = False) -> CooccurrenceGraph:
    """Edge weight counts the shouts where both tokens appear.

    Tokens are distinct within one shout, edges are unordered, and no
    self-loops exist; single-token shouts still contribute their node.
    """
    nodes: set[str] = set()
    edges: Counter = Counter()
    for shout in shouts:
        if not include_machine and shout.kind is MessageKind.LOST_TIMESLOT:
            continue
        distinct = sorted(set(tokenize(shout.message, stopwords)))
        nodes.update(distinct)
        edges.update(combinations(distinct, 2))
    return CooccurrenceGraph(nodes=frozenset(nodes), edges=dict(edges))


# -- command line --------------------------------------------------------


def _load_stopwords(path: str | None) -> frozenset[str]:
    if not path:
        return frozenset()
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def _write_json(payload, **options) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, **options) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa-stats",
                                     description="Statistics over a journal")
    parser.add_argument("--journal", required=True)
    parser.add_argument("--report", default="summary",
                        help="summary | histogram:<scale> | tokens | graph")
    parser.add_argument("--stopwords", help="file with one stopword per line")
    parser.add_argument("--include-machine", action="store_true",
                        help="include machine-generated lost-timeslot records")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true")
    args = parser.parse_args(argv)

    try:
        state = jn.replay(args.journal)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shouts = state.shouts
    stopwords = _load_stopwords(args.stopwords)

    if args.report == "summary":
        stats = summarize(shouts, state.sessions.values(), state.reviews.values())
        if args.tsv:
            lines = []
            for key, value in stats.to_dict().items():
                if isinstance(value, dict):
                    lines += [f"{key}.{k}\t{v}\n" for k, v in value.items()]
                else:
                    lines.append(f"{key}\t{value}\n")
            sys.stdout.write("".join(lines))
        else:
            _write_json(stats.to_dict(), sort_keys=True)
        return 0

    if args.report.startswith("histogram:"):
        try:
            scale = Scale(args.report.split(":", 1)[1])
        except ValueError:
            parser.error(f"unknown scale; pick one of "
                         f"{', '.join(s.value for s in Scale)}")
        hist = histogram(shouts, scale)
        if args.json:
            _write_json({"scale": scale.value, "bins": list(hist.bins)})
        else:
            sys.stdout.write("".join(f"{label}\t{count}\n"
                                     for label, count in hist.bins))
        return 0

    if args.report == "tokens":
        table = token_table(shouts, stopwords=stopwords,
                            include_machine=args.include_machine)
        if args.tsv:
            ranked = sorted(table.tokens.items(), key=lambda kv: (-kv[1], kv[0]))
            sys.stdout.write("".join(f"{token}\t{count}\n" for token, count in ranked))
        else:
            _write_json({"tokens": table.tokens, "radicals": table.radicals,
                         "vocabulary_size": table.vocabulary_size,
                         "token_count": table.token_count}, sort_keys=True)
        return 0

    if args.report == "graph":
        graph = cooccurrence(shouts, stopwords=stopwords,
                             include_machine=args.include_machine)
        # the keys are unique, so sorting them alone gives the order of the items
        edges = [(a, b, graph.edges[a, b]) for a, b in sorted(graph.edges)]
        if args.json:
            _write_json({"edges": [list(edge) for edge in edges],
                         "nodes": sorted(graph.nodes),
                         "components": graph.component_count()})
        else:
            sys.stdout.write("".join(f"{a}\t{b}\t{w}\n" for a, b, w in edges))
        return 0

    parser.error(f"unknown report {args.report!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
