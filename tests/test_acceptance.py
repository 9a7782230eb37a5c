"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``. Everything here is
property-based or parameter-fidelity checking at desk scale; the whole
module stays under a minute on an ordinary machine.
"""

import itertools
import json
import random
import string
import subprocess
import sys
import threading
import time

import pytest

from aa import journal as jn
from aa import miner, rdf, stats
from aa.client import ClientConfig, api_shout
from aa.errors import EmptyMessage, NoOpenSession, SelfReview, UnknownSession
from aa.ircbot import ChatEvent, handle_line
from aa.model import MessageKind, Session, SessionOrigin, User
from aa.parsing import ParserConfig, flag_deviation, parse
from aa.sessions import assign_validator, conformance
from aa.server import ShoutServer
from aa.store import Store
from conftest import FakeClock, make_session, make_shout, on_grid_shouts

from test_miner import brute_force_dedup
from test_stats import brute_force_cooccurrence


def passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_session_fidelity():
    """15-minute grid, +-5 minutes, 8 shouts, 2 hours."""
    session = make_session(start=0, end=6300, slot=900)
    baseline = conformance(session, on_grid_shouts(), tolerance=300)
    assert baseline.ideal is True
    assert baseline.lost_slots == ()

    for k in range(8):
        shouts = on_grid_shouts()
        shouts[k] = make_shout(f"s{k}", message=f"task step {k}",
                               created=k * 900 + 360)
        shifted = make_session(start=0, end=max(s.created for s in shouts))
        report = conformance(shifted, shouts, tolerance=300)
        flags = {r.shout_id: r.within_tolerance for r in report.per_shout}
        assert flags[f"s{k}"] is False, f"shout {k} must leave tolerance"
        assert all(ok for sid, ok in flags.items() if sid != f"s{k}")
        assert report.ideal is False
    passed(1, "session fidelity")


def test_criterion_2_dedup_oracle_equivalence():
    rng = random.Random(20170508)
    pool = [f"{a} {b} {c}" for a, b, c in
            itertools.product("abcd", "xyz", ("one", "two", "three"))]

    def sample_texts(size):
        return [rng.choice(pool) + (f" {rng.randrange(4)}" if rng.random() < 0.4 else "")
                for _ in range(size)]

    for trial in range(1000):
        size = rng.randint(120, 1000) if trial % 500 == 137 else rng.randint(0, 50)
        corpus_size = rng.randint(0, 40) if size <= 50 else rng.randint(0, 600)
        candidates = [miner.make_mined_shout(f"u{rng.randrange(3)}", text, created=i)
                      for i, text in enumerate(sample_texts(size))]
        corpus_list = [t.rstrip() for t in sample_texts(corpus_size)]
        corpus = set(corpus_list)

        kept, report = miner.dedup(candidates, corpus)
        oracle = brute_force_dedup(candidates, corpus_list)
        assert [s.id for s in kept] == [s.id for s in oracle]
        assert report.kept == len(kept)
        assert report.kept + report.duplicates_discarded == len(candidates)

        if trial % 100 == 0:
            covering = corpus | {c.message.rstrip() for c in candidates}
            total_kept, _ = miner.dedup(candidates, covering)
            assert total_kept == []
    passed(2, "dedup oracle equivalence")


def test_criterion_3_journal_replay_equivalence(tmp_path):
    clock = FakeClock()
    store = Store(str(tmp_path / "ops.jsonl"), clock=clock)
    rng = random.Random(424242)
    nicks = ["ana", "bto", "cid"]
    sessions_seen = []

    ops = 0
    while ops < 500:
        ops += 1
        clock.advance(rng.randrange(0, 1200))
        nick = rng.choice(nicks)
        roll = rng.random()
        try:
            if roll < 0.50:
                store.receive_shout(nick, f"note {ops} #t{rng.randrange(5)}")
            elif roll < 0.62:
                sessions_seen.append(store.receive_message(nick, "start")["session"])
            elif roll < 0.74:
                store.receive_message(nick, "stop")
            elif roll < 0.82:
                store.receive_message(nick, "push", batch=[
                    {"message": f"spooled {ops}", "client_created": 1000 + ops}])
            elif roll < 0.92 and sessions_seen:
                store.record_review(rng.choice(sessions_seen),
                                    rng.choice(nicks), round(rng.random(), 3))
            elif sessions_seen:
                store.attach_screencast(rng.choice(sessions_seen),
                                        f"https://v.example/{ops}")
        except (NoOpenSession, SelfReview, UnknownSession, EmptyMessage):
            pass  # rejected requests must leave no trace

    live_listing = store.shouts_json()
    live_report = json.dumps(store.report(), sort_keys=True)
    store.close()

    reloaded = Store(str(tmp_path / "ops.jsonl"), clock=clock)
    assert reloaded.shouts_json() == live_listing
    assert json.dumps(reloaded.report(), sort_keys=True) == live_report

    # stored-session membership invariant over the whole random history
    state = reloaded.state
    stored = {id(s) for s in state.shouts}
    for sid, session in state.sessions.items():
        if sid in state.open_sessions.values():
            continue
        for member in state.members.get(sid, ()):
            assert id(member) in stored
            assert member.nick == session.user
            assert session.start <= member.created <= session.end
    reloaded.close()
    passed(3, "journal replay equivalence")


def test_criterion_4_parser_grammar_and_fuzz():
    # kinds
    assert parse("start").kind is MessageKind.START
    assert parse("stop wrapping up refactor").kind is MessageKind.STOP
    assert parse("push").kind is MessageKind.PUSH
    assert parse("writing parser tests #aa").kind is MessageKind.SHOUT
    assert parse("tickets").kind is MessageKind.QUERY
    assert parse("milestones").kind is MessageKind.QUERY
    # tags
    assert [t.surface for t in parse("fixing build #coding").tags] == ["#coding"]
    assert [t.surface for t in parse("+django models for sessions +sna").tags] == \
        ["+django", "+sna"]
    assert parse("no tags here").tags == ()
    ubiq = parse("shipping #aao0 from twitter")
    assert ubiq.ubiquitous and [t.surface for t in ubiq.tags] == ["#aao0"]
    # word tags at the edges of the message
    lex = ParserConfig(word_lexicon=frozenset({"coding"}))
    assert [t.name for t in parse("coding refactor of timer", lex).tags] == ["coding"]
    assert parse("refactor of timer", lex).tags == ()
    assert [t.name for t in parse("timer refactor coding", lex).tags] == ["coding"]
    # deviations
    promo = ParserConfig(promo_keywords=frozenset({"meetup"}))
    assert flag_deviation(parse("come to our meetup! http://x.example", promo),
                          promo) is not None
    assert flag_deviation(parse("test")) is not None
    assert flag_deviation(parse("implemented slot grid, writing tests")) is None
    # chat prefix handling
    logged = []
    assert "logged" in handle_line(
        ChatEvent("n", "#aa", "bob", ";aa reading RFC 1459", 0),
        lambda nick, msg: logged.append((nick, msg)) or "id1")
    assert logged == [("bob", "reading RFC 1459")]
    assert handle_line(ChatEvent("n", "#aa", "bob", "hello folks", 0),
                       lambda *a: "x") is None
    assert "usage" in handle_line(ChatEvent("n", "#aa", "bob", ";aa", 0),
                                  lambda *a: "x")

    rng = random.Random(99)
    alphabet = string.printable + "#+áçãàé漢字 \t\n"
    for _ in range(10_000):
        raw = "".join(rng.choice(alphabet)
                      for _ in range(rng.randrange(0, 60)))
        try:
            result = parse(raw)
        except EmptyMessage:
            assert not raw.strip()
            continue
        if result.clean_text.strip():
            assert parse(result.clean_text).tags == ()
        for tag in result.tags:
            assert tag.name and tag.name[0] not in "#+"
    passed(4, "parser grammar and fuzz")


def test_criterion_5_rdf_constraint_suite():
    vocab = rdf.Vocabulary()
    shouts = [make_shout(f"s{i}", nick=f"u{i % 3}", message=f"work {i}",
                         created=i * 60) for i in range(9)]
    session = Session(id="x", user="u0", origin=SessionOrigin.EXPLICIT,
                      start=0, end=900)
    triples = rdf.export_ontology(vocab) + rdf.export_data(
        shouts, [session], vocab=vocab)
    assert rdf.validate_graph(triples, vocab) == []

    # duplicate functional value
    seeded = triples + [rdf.Triple(vocab.instance("shout", "s1"),
                                   vocab.term("created"),
                                   rdf.literal("2001-01-01T00:00:00Z",
                                               rdf.XSD_DATETIME))]
    violations = rdf.validate_graph(seeded, vocab)
    assert len(violations) == 1 and violations[0].rule == "functional"

    # missing existential property on a shout
    seeded = [t for t in triples
              if not (t.subject == vocab.instance("shout", "s2")
                      and t.predicate == vocab.term("shoutMessage"))]
    violations = rdf.validate_graph(seeded, vocab)
    assert len(violations) == 1 and violations[0].rule == "existential"

    # user without a nick
    seeded = [t for t in triples
              if not (t.subject == vocab.instance("user", "u1")
                      and t.predicate == vocab.term("nick"))]
    violations = rdf.validate_graph(seeded, vocab)
    assert len(violations) == 1 and violations[0].rule == "existential"

    first = rdf.serialize_ntriples(triples)
    shuffled = triples[:]
    random.Random(5).shuffle(shuffled)
    assert rdf.serialize_ntriples(shuffled) == first
    assert first.splitlines() == sorted(first.splitlines())
    passed(5, "rdf constraint suite")


def test_criterion_6_validator_fairness():
    users = [User(id=n, nicks=frozenset({n}))
             for n in ("owner", "peer-a", "peer-b", "peer-c")]
    session = make_session(user="owner")
    counts = {"peer-a": 0, "peer-b": 0, "peer-c": 0, "owner": 0}
    n = 10_000
    for seed in range(n):
        counts[assign_validator(session, users, seed).id] += 1
    assert counts["owner"] == 0
    for peer in ("peer-a", "peer-b", "peer-c"):
        assert abs(counts[peer] / n - 1 / 3) <= 0.05
    passed(6, "validator fairness")


def test_criterion_7_stats_conservation():
    rng = random.Random(77)
    vocab_words = [f"term{i}" for i in range(30)]
    n = 10_000
    shouts = [
        make_shout(f"s{i}", nick=f"u{rng.randrange(6)}",
                   message=" ".join(rng.sample(vocab_words, rng.randrange(1, 5))),
                   created=rng.randrange(0, 10**9))
        for i in range(n)
    ]
    for scale in stats.Scale:
        assert stats.histogram(shouts, scale).total() == n, scale

    sample = shouts[:50]
    graph = stats.cooccurrence(sample)
    nodes, weights = brute_force_cooccurrence(sample)
    assert graph.nodes == frozenset(nodes)
    assert graph.edges == weights
    strength = graph.strength()
    degree = graph.degree()
    for node in nodes:
        assert strength[node] == sum(w for pair, w in weights.items() if node in pair)
        assert degree[node] == sum(1 for pair in weights if node in pair)

    shuffled = shouts[:]
    rng.shuffle(shuffled)
    assert stats.summarize(shouts) == stats.summarize(shuffled)
    assert stats.token_table(shouts) == stats.token_table(shuffled)
    for scale in stats.Scale:
        assert stats.histogram(shouts, scale) == stats.histogram(shuffled, scale)
    assert stats.cooccurrence(sample) == stats.cooccurrence(list(reversed(sample)))
    passed(7, "stats conservation")


def test_criterion_8_end_to_end(tmp_path, capsys):
    journal = str(tmp_path / "e2e-journal.jsonl")
    store = Store(journal, slot=5, tolerance=2)
    server = ShoutServer(store)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                              daemon=True)
    thread.start()
    url = f"http://{server.server_address[0]}:{server.server_address[1]}"
    started = time.monotonic()

    try:
        # chat adapter against the live server
        def submit(nick, message):
            return api_shout(ClientConfig(server=url, nick=nick,
                                          spool=str(tmp_path / "unused.jsonl"),
                                          timeout=5),
                             message, source="chat")["id"]

        reply = handle_line(
            ChatEvent("net", "#aa", "rui", ";aa reviewing the merge queue", 0),
            submit)
        assert "shout logged" in reply

        # timed CLI session: 8 prompts on the server's 5 s slots, 2 s tolerance
        answers = "\n".join(f"prompt answer {k}" for k in range(8)) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "aa", "--server", url, "--nick", "pat",
             "--spool", str(tmp_path / "spool.jsonl"),
             "start", "--slots", "8"],
            input=answers, capture_output=True, text=True, timeout=70)
        assert proc.returncode == 0, proc.stderr
        assert '"ideal": true' in proc.stdout

        session_id = next(iter(store.state.reports))
        assert store.state.reports[session_id]["ideal"] is True
    finally:
        server.shutdown()
        server.server_close()
        store.close()

    # mine a historical chat log against the same journal
    log = tmp_path / "channel.log"
    log.write_text(
        "[2013-05-02 14:30:11] <mara> ;aa polishing the exporter\n"
        "[2013-05-02 14:45:12] <mara> ;aa prompt answer 3\n"  # duplicate text
        "[2013-05-02 14:50:00] <mara> ordinary chatter\n")
    spec = tmp_path / "source.conf"
    spec.write_text(f"kind = chatlog\npath = {log}\n")
    assert miner.main(["--source", str(spec), "--corpus", journal]) == 0
    mining_report = json.loads(capsys.readouterr().out)
    assert mining_report["kept"] == 1
    assert mining_report["duplicates_discarded"] == 1

    # export twice: valid both times, byte-identical output
    out_a, out_b = tmp_path / "a.nt", tmp_path / "b.nt"
    assert rdf.main(["--journal", journal, "--validate", "-o", str(out_a)]) == 0
    assert json.loads(capsys.readouterr().err) == []
    assert rdf.main(["--journal", journal, "--validate", "-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()

    # statistics over everything the run produced
    assert stats.main(["--journal", journal]) == 0
    summary = json.loads(capsys.readouterr().out)
    state = jn.replay(journal)
    assert sum(summary["by_kind"].values()) == len(state.shouts)
    assert summary["by_kind"]["shout"] == 10  # 8 prompts + chat + mined
    assert summary["by_kind"]["start"] == 1
    assert summary["by_kind"]["stop"] == 1
    assert summary["by_user"]["mara"] == 1
    assert stats.main(["--journal", journal,
                       "--report", "histogram:hour_of_day"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(int(line.split("\t")[1]) for line in lines) == len(state.shouts)

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"end-to-end took {elapsed:.1f}s"
    passed(8, "end to end")
