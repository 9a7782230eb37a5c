import itertools
import random

from aa.model import MessageKind, ValidationReview
from aa.stats import (
    Scale,
    cooccurrence,
    default_stemmer,
    histogram,
    summarize,
    token_table,
    tokenize,
)
from conftest import make_session, make_shout


def shout_batch(texts, start=0):
    return [make_shout(f"s{i}", message=t, created=start + i)
            for i, t in enumerate(texts)]


class TestSummarize:
    def test_empty_input(self):
        stats = summarize([])
        assert stats.by_kind == {}
        assert stats.by_user == {}
        assert stats.mean_score is None

    def test_counts_by_kind(self):
        shouts = shout_batch(["a", "b", "c"])
        shouts += [make_shout("x", message="start", kind=MessageKind.START),
                   make_shout("y", message="stop", kind=MessageKind.STOP)]
        stats = summarize(shouts)
        assert stats.by_kind == {MessageKind.SHOUT: 3, MessageKind.START: 1,
                                 MessageKind.STOP: 1}
        assert sum(stats.by_kind.values()) == len(shouts)

    def test_mean_score(self):
        reviews = [ValidationReview("s", "a", 0.4, None, 0),
                   ValidationReview("t", "b", 0.8, None, 0)]
        stats = summarize([], sessions=[make_session()], reviews=reviews)
        assert abs(stats.mean_score - 0.6) < 1e-12
        assert stats.sessions == 1
        assert stats.reviews == 2


class TestHistogram:
    def test_single_shout_hour_bucket(self):
        shout = make_shout("s", created=14 * 3600 + 7 * 60)  # 14:07 UTC
        hist = histogram([shout], Scale.HOUR_OF_DAY)
        bins = dict(hist.bins)
        assert bins["14"] == 1
        assert sum(bins.values()) == 1
        assert len(hist.bins) == 24

    def test_empty_input_keeps_zero_bins(self):
        hist = histogram([], Scale.DAY_OF_WEEK)
        assert len(hist.bins) == 7
        assert hist.total() == 0

    def test_year_scale_contiguous(self):
        shouts = [make_shout("a", created=0),
                  make_shout("b", created=3 * 365 * 86400)]
        hist = histogram(shouts, Scale.YEAR)
        assert [label for label, _ in hist.bins] == ["1970", "1971", "1972"]
        assert hist.total() == 2

    def test_uniform_day_of_week(self):
        rng = random.Random(11)
        n = 10_000
        shouts = [make_shout(f"s{i}", created=rng.randrange(0, 10**9))
                  for i in range(n)]
        hist = histogram(shouts, Scale.DAY_OF_WEEK)
        assert hist.total() == n
        mean = n / 7
        sigma = (n * (1 / 7) * (6 / 7)) ** 0.5
        for _, count in hist.bins:
            assert abs(count - mean) < 5 * sigma

    def test_conservation_across_scales(self):
        shouts = shout_batch([f"m{i}" for i in range(50)], start=123456)
        for scale in Scale:
            assert histogram(shouts, scale).total() == 50


class TestTokenize:
    def test_hand_oracle(self):
        assert tokenize("Fixing the slot-grid timer", {"the"}) == \
            ["fixing", "slot-grid", "timer"]

    def test_empty(self):
        assert tokenize("") == []

    def test_tags_excluded(self):
        assert tokenize("#aa reading") == ["reading"]

    def test_small_numbers_dropped(self):
        assert tokenize("port 80 rfc 1459") == ["port", "rfc", "1459"]

    def test_apostrophes_kept(self):
        assert tokenize("don't panic") == ["don't", "panic"]


class TestTokenTable:
    def test_stemmer_merges_inflections(self):
        table = token_table(shout_batch(["coding", "coded"]))
        # oracle: the default stemmer maps both tokens to the same stem
        assert default_stemmer("coding") == default_stemmer("coded") == "cod"
        assert table.radicals["cod"] == 2

    def test_empty_corpus(self):
        table = token_table([])
        assert table.tokens == {}
        assert table.vocabulary_size == table.token_count == 0

    def test_identity_stemmer(self):
        table = token_table(shout_batch(["alpha beta", "beta gamma"]),
                            stemmer=lambda t: t)
        assert table.radicals == table.tokens

    def test_radical_counts_aggregate_token_counts(self):
        texts = ["tests pass", "test passes", "testing passed"]
        table = token_table(shout_batch(texts))
        assert sum(table.radicals.values()) == sum(table.tokens.values())

    def test_machine_records_excluded_by_default(self):
        shouts = shout_batch(["real work"])
        shouts.append(make_shout("m", message="lost timeslot",
                                 kind=MessageKind.LOST_TIMESLOT))
        table = token_table(shouts)
        assert "timeslot" not in table.tokens
        included = token_table(shouts, include_machine=True)
        assert "timeslot" in included.tokens

    def test_portuguese_suffix_rule(self):
        assert default_stemmer("programação") == default_stemmer("programações")


def brute_force_cooccurrence(shouts, stopwords=frozenset()):
    """O(n^2) oracle: recount every pair across every shout."""
    token_sets = [set(tokenize(s.message, stopwords)) for s in shouts
                  if s.kind is not MessageKind.LOST_TIMESLOT]
    nodes = set().union(*token_sets) if token_sets else set()
    weights = {}
    for a, b in itertools.combinations(sorted(nodes), 2):
        w = sum(1 for toks in token_sets if a in toks and b in toks)
        if w:
            weights[(a, b)] = w
    return nodes, weights


class TestCooccurrence:
    def test_two_token_shout(self):
        graph = cooccurrence(shout_batch(["alpha beta"]))
        assert graph.edges == {("alpha", "beta"): 1}
        assert graph.degree() == {"alpha": 1, "beta": 1}
        assert graph.component_count() == 1

    def test_disjoint_shouts_two_components(self):
        graph = cooccurrence(shout_batch(["alpha beta", "gamma delta"]))
        assert graph.component_count() == 2

    def test_repeated_token_in_one_shout_counts_once(self):
        graph = cooccurrence(shout_batch(["alpha alpha beta"]))
        assert graph.edges[("alpha", "beta")] == 1

    def test_standalone_token_still_a_node(self):
        graph = cooccurrence(shout_batch(["solitary"]))
        assert graph.nodes == frozenset({"solitary"})
        assert graph.edges == {}
        assert graph.component_count() == 1

    def test_matches_brute_force_recount(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)]
        texts = [" ".join(rng.sample(vocab, rng.randrange(1, 6)))
                 for _ in range(50)]
        shouts = shout_batch(texts)
        graph = cooccurrence(shouts)
        nodes, weights = brute_force_cooccurrence(shouts)
        assert graph.nodes == frozenset(nodes)
        assert graph.edges == weights
        strength = graph.strength()
        for node in nodes:
            assert strength[node] == sum(w for pair, w in weights.items()
                                         if node in pair)


class TestShuffleInvariance:
    def test_all_aggregates_order_independent(self):
        rng = random.Random(3)
        vocab = ["alpha", "beta", "gamma", "delta"]
        shouts = [make_shout(f"s{i}",
                             message=" ".join(rng.sample(vocab, 2)),
                             created=rng.randrange(0, 10**8))
                  for i in range(200)]
        shuffled = shouts[:]
        rng.shuffle(shuffled)
        assert summarize(shouts) == summarize(shuffled)
        for scale in Scale:
            assert histogram(shouts, scale) == histogram(shuffled, scale)
        assert token_table(shouts) == token_table(shuffled)
        assert cooccurrence(shouts) == cooccurrence(shuffled)
