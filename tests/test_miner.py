import json
import random
import re
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aa import journal as jn
from aa import parsing
from aa.errors import BadPattern, UnreadableSource
from aa.miner import (
    SourceKind,
    SourceSpec,
    corpus_from_journal,
    dedup,
    dedup_key,
    import_shouts,
    load_source_spec,
    make_mined_shout,
    mine,
    parse_source,
    select_shouts,
)
from aa.miner import main as mine_main
from aa.model import Source
from aa.parsing import DEFAULT_CONFIG


def chatlog_spec(path, **kwargs):
    return SourceSpec(kind=SourceKind.CHAT_LOG, path=str(path), **kwargs)


def json_spec(path):
    return SourceSpec(kind=SourceKind.JSON_DUMP, path=str(path),
                      mapping={"nick": "author", "message": "text", "created": "when"})


class TestParseSource:
    def test_default_pattern_line(self, tmp_path):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa fixing timer\n")
        outcome = parse_source(chatlog_spec(log))
        assert outcome.rows == [("bob", ";aa fixing timer", 1367505011)]

    def test_empty_file(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("")
        outcome = parse_source(chatlog_spec(log))
        assert outcome.rows == []
        assert outcome.scanned == 0

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        rng = random.Random(7)
        lines, good = [], 0
        for i in range(1000):
            if i % 100 == 13:  # 10 malformed lines by construction
                lines.append(f"*** mode change by services {i}")
            else:
                good += 1
                ts = f"2013-05-02 {i // 60 % 24:02d}:{i % 60:02d}:00"
                lines.append(f"[{ts}] <u{rng.randrange(5)}> line {i}")
        log = tmp_path / "big.log"
        log.write_text("\n".join(lines) + "\n")
        outcome = parse_source(chatlog_spec(log))
        assert len(outcome.rows) == good == 990
        assert outcome.skipped == 10
        assert outcome.scanned == 1000

    def test_rows_are_normalized_and_blank_rows_skipped(self, tmp_path):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] < Bob > ;aa  two\tspaces \n"
                       "[2013-05-02 14:30:12] <bob>    \n"
                       "[2013-05-02 14:30:13] <  > no nick\n"
                       "[2013-13-02 14:30:14] <bob> bad month\n")
        outcome = parse_source(chatlog_spec(log))
        assert outcome.rows == [("bob", ";aa two spaces", 1367505011)]
        assert (outcome.scanned, outcome.skipped) == (4, 3)

    def test_timezone_offset_applied(self, tmp_path):
        log = tmp_path / "tz.log"
        log.write_text("[2013-05-02 14:30:11] <bob> note\n")
        shifted = parse_source(chatlog_spec(log, timezone="+0300"))
        utc = parse_source(chatlog_spec(log))
        assert utc.rows[0][2] - shifted.rows[0][2] == 3 * 3600

    def test_unreadable_source(self, tmp_path):
        with pytest.raises(UnreadableSource):
            parse_source(chatlog_spec(tmp_path / "missing.log"))

    def test_pattern_must_name_captures(self, tmp_path):
        log = tmp_path / "x.log"
        log.write_text("y\n")
        with pytest.raises(BadPattern):
            parse_source(chatlog_spec(log, pattern=r"(?P<nick>\w+)"))

    def test_json_dump_with_mapping(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        rows = [{"author": "bob", "text": "from mongo", "when": 1367505011},
                {"author": "eve", "text": "another", "when": "2013-05-02 14:31:00"}]
        dump.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        spec = SourceSpec(kind=SourceKind.JSON_DUMP, path=str(dump),
                          mapping={"nick": "author", "message": "text",
                                   "created": "when"})
        outcome = parse_source(spec)
        assert [nick for nick, _, _ in outcome.rows] == ["bob", "eve"]

    def test_tabular_dump(self, tmp_path):
        dump = tmp_path / "dump.tsv"
        dump.write_text("user\tbody\ttime\nbob\tfrom mysql\t2013-05-02 14:30:11\n")
        spec = SourceSpec(kind=SourceKind.TABULAR_DUMP, path=str(dump),
                          mapping={"nick": "user", "message": "body",
                                   "created": "time"})
        outcome = parse_source(spec)
        assert outcome.rows[0][1] == "from mysql"

    def test_json_line_that_is_not_json_is_skipped(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        dump.write_text('{"author": "bob", "text": "kept", "when": 1367505011}\n'
                        'not json\n'
                        '{"author": "eve", "text": "also kept", "when": 1367505012}\n')
        outcome = parse_source(json_spec(dump))
        assert [message for _, message, _ in outcome.rows] == ["kept", "also kept"]
        assert (outcome.scanned, outcome.skipped) == (3, 1)

    def test_json_array_that_does_not_parse_is_unreadable(self, tmp_path):
        dump = tmp_path / "dump.json"
        dump.write_text('[{"author": "bob", "text": "x", "when": 1367505011},\n')
        with pytest.raises(UnreadableSource, match="not a JSON array"):
            parse_source(json_spec(dump))

    def test_json_array_after_leading_whitespace(self, tmp_path):
        dump = tmp_path / "dump.json"
        rows = [{"author": "bob", "text": "first", "when": 1367505011},
                {"author": "eve", "text": "second", "when": 1367505012}]
        dump.write_text("  \n\t" + json.dumps(rows, indent=1) + "\n")
        outcome = parse_source(json_spec(dump))
        assert [message for _, message, _ in outcome.rows] == ["first", "second"]
        assert (outcome.scanned, outcome.skipped) == (2, 0)

    def test_spec_built_in_code_checks_its_delimiter(self, tmp_path):
        with pytest.raises(BadPattern, match="^delimiter ',,' is not one character$"):
            SourceSpec(kind=SourceKind.TABULAR_DUMP, path=str(tmp_path / "x.tsv"),
                       mapping={"nick": "u", "message": "m", "created": "t"},
                       delimiter=",,")

    def test_dump_mapping_required(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("{}\n")
        with pytest.raises(BadPattern):
            parse_source(SourceSpec(kind=SourceKind.JSON_DUMP, path=str(dump)))


def mined(text, nick="bob", created=0):
    return make_mined_shout(nick, text, created)


def row(text, nick="bob", created=0):
    return (nick, text, created)


def without_id(shouts):
    return [replace(s, id="") for s in shouts]


class TestSelect:
    def test_prefix_mode_strips(self):
        kept = select_shouts([row(";aa reading #aa")], "prefix")
        assert without_id(kept) == without_id([mined("reading #aa")])

    def test_prefix_mode_drops_others(self):
        assert select_shouts([row("just chat"), row(";aa")], "prefix") == []

    def test_tags_mode_keeps_tagged(self):
        kept = select_shouts([row("shipping release #aao0")], "tags")
        assert without_id(kept) == without_id([mined("shipping release #aao0")])

    def test_tags_mode_drops_untagged(self):
        assert select_shouts([row("no tags")], "tags") == []

    def test_tags_mode_reads_the_configured_ubiquitous_tags(self):
        config = replace(DEFAULT_CONFIG, ubiquitous_tags=frozenset({"ship"}))
        rows = [row("release #ship"), row("release #aao0")]
        kept = select_shouts(rows, "tags", parser_config=config)
        assert [s.message for s in kept] == ["release #ship"]

    def test_all_mode(self):
        kept = select_shouts([row("a"), row("tickets", nick="eve", created=5)], "all")
        assert without_id(kept) == without_id([mined("a"),
                                               mined("tickets", "eve", 5)])
        assert all(s.source is Source.MINED for s in kept)

    def test_prefix_mode_parses_kept_lines_only(self, tmp_path, monkeypatch):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa  first  note\n"
                       "[2013-05-02 14:30:12] <bob> just chat\n"
                       "[2013-05-02 14:30:13] <bob> ;aa\n"
                       "[2013-05-02 14:30:14] <eve> ;aa second #aao0\n"
                       "[2013-05-02 14:30:15] <eve> chat #aao0\n")
        parsed = []
        real_parse = parsing.parse

        def counting(text, config=DEFAULT_CONFIG):
            parsed.append(text)
            return real_parse(text, config)

        # prefix mode parses inside the shared shout builder
        monkeypatch.setattr("aa.parsing.parse", counting)
        report = mine([chatlog_spec(log)], "prefix", None, dry_run=True)
        assert report.candidates == 2
        assert parsed == ["first note", "second #aao0"]


# every shape a chat-log line takes: prefixed or not, ";aa" with only
# spaces after it, blank texts, whitespace runs, unmatched lines and tags
WORDS = st.sampled_from(["fix", "timer", "#aao0", "#AAO0,", "+aao0", "#ship",
                         "tickets", "start", "stop", "push", "test", "hello",
                         "http://x.example", "buy", "fix."])
GAPS = st.sampled_from([" ", "  ", "\t", " \t "])
TEXTS = st.tuples(st.sampled_from(["", ";aa ", ";aa", ";aa  ", ";aa\t", " ;aa "]),
                  st.lists(st.tuples(WORDS, GAPS), max_size=4),
                  GAPS | st.just("")).map(
    lambda t: t[0] + "".join(word + gap for word, gap in t[1]) + t[2])
LINES = st.one_of(
    st.tuples(st.integers(0, 86_399), st.sampled_from(["bob", " Eve ", "ANA", "  "]),
              TEXTS).map(lambda t: "[2013-05-02 %02d:%02d:%02d] <%s> %s" % (
                  t[0] // 3600, t[0] // 60 % 60, t[0] % 60, t[1], t[2])),
    st.sampled_from(["*** mode change", "[2013-05-02 99:00:00] <bob> bad time",
                     "[2013-05-02 10:00:00] bob: no brackets"]))
CONFIGS = [DEFAULT_CONFIG,
           replace(DEFAULT_CONFIG, ubiquitous_tags=frozenset({"aao0", "ship"})),
           replace(DEFAULT_CONFIG, word_lexicon=frozenset({"fix"}),
                   ubiquitous_tags=frozenset({"fix"}), promo_keywords=frozenset({"buy"}))]


def mine_the_old_way(spec, mode, config, prefix=";aa "):
    """Reference: a parsed shout for every line, then selection over shouts."""
    pattern = re.compile(spec.pattern)
    candidates, scanned = [], 0
    with open(spec.path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            scanned += 1
            match = pattern.match(line.rstrip("\n"))
            try:
                created = int(datetime.strptime(match["timestamp"], "%Y-%m-%d %H:%M:%S")
                              .replace(tzinfo=timezone.utc).timestamp())
                candidates.append(make_mined_shout(match["nick"], match["text"],
                                                   created, config))
            except Exception:  # noqa: BLE001 - the row is skipped
                pass
    if mode == "prefix":
        selected = [make_mined_shout(c.nick, c.message[len(prefix):], c.created, config)
                    for c in candidates
                    if c.message.startswith(prefix) and c.message[len(prefix):].strip()]
    elif mode == "tags":
        selected = [c for c in candidates
                    if any(t.name in config.ubiquitous_tags for t in c.tags)]
    else:
        selected = candidates
    per_source = {spec.path: {"scanned": scanned, "skipped": scanned - len(candidates),
                              "candidates": len(selected)}}
    _, report = dedup(selected, set(), scanned=scanned, per_source=per_source)
    return selected, report


class TestMineEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(LINES | st.just(""), max_size=30),
           st.sampled_from(["prefix", "tags", "all"]),
           st.sampled_from(CONFIGS))
    def test_select_before_parse_matches_parsing_every_line(self, lines, mode, config):
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "irc.log"
            log.write_text("\n".join(lines) + "\n", encoding="utf-8")
            spec = chatlog_spec(log)
            expected, expected_report = mine_the_old_way(spec, mode, config)
            kept = select_shouts(parse_source(spec).rows, mode, parser_config=config)
            report = mine([spec], mode, None, dry_run=True, parser_config=config)
        assert without_id(kept) == without_id(expected)
        assert report.to_dict() == expected_report.to_dict()


def brute_force_dedup(candidates, corpus_texts, key="text"):
    """Oracle: nested loops over the corpus and all earlier candidates."""
    kept = []
    for candidate in candidates:
        duplicate = False
        for text in corpus_texts:
            if dedup_key(candidate, key) == text:
                duplicate = True
                break
        if not duplicate:
            for earlier in kept:
                if dedup_key(earlier, key) == dedup_key(candidate, key):
                    duplicate = True
                    break
        if not duplicate:
            kept.append(candidate)
    return kept


class TestDedup:
    def test_corpus_hit_discarded(self):
        kept, report = dedup([mined("known text")], {"known text"})
        assert kept == []
        assert report.duplicates_discarded == 1

    def test_empty_corpus_keeps_all_minus_internal(self):
        candidates = [mined("a"), mined("b"), mined("a", nick="eve")]
        kept, report = dedup(candidates, set())
        assert [s.message for s in kept] == ["a", "b"]
        assert report.kept == 2

    def test_synthetic_mixed_case(self):
        corpus = {"in corpus 1", "in corpus 2", "in corpus 3"}
        candidates = (
            [mined(f"in corpus {i}") for i in (1, 2, 3)]
            + [mined("fresh a"), mined("fresh b"), mined("fresh c"),
               mined("fresh d"), mined("fresh e")]
            + [mined("fresh a"), mined("fresh b")]  # internal duplicates
        )
        kept, report = dedup(candidates, corpus)
        assert report.kept == 5
        assert report.duplicates_discarded == 5
        assert [s.message for s in kept] == \
            ["fresh a", "fresh b", "fresh c", "fresh d", "fresh e"]

    def test_text_only_keying_conflates_users(self):
        candidates = [mined("same words", nick="bob"),
                      mined("same words", nick="eve")]
        kept, _ = dedup(candidates, set())
        assert len(kept) == 1  # over-discarding is the documented behavior

    def test_nick_text_keying_option(self):
        candidates = [mined("same words", nick="bob"),
                      mined("same words", nick="eve")]
        kept, _ = dedup(candidates, set(), key="nick-text")
        assert len(kept) == 2

    def test_trailing_whitespace_trimmed_for_comparison(self):
        kept, _ = dedup([mined("padded")], {"padded"})
        assert kept == []

    def test_report_invariant(self):
        candidates = [mined(f"c{i % 4}") for i in range(10)]
        kept, report = dedup(candidates, {"c0"})
        assert report.kept == report.candidates - report.duplicates_discarded
        assert report.kept <= report.candidates <= report.scanned

    @given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=4), max_size=40),
           st.sets(st.text(alphabet="abc ", min_size=1, max_size=4), max_size=20))
    def test_matches_brute_force_oracle(self, texts, corpus):
        candidates = [mined(t, created=i) for i, t in enumerate(texts)
                      if t.strip()]
        corpus_keys = {t.rstrip() for t in corpus}
        kept, report = dedup(candidates, corpus_keys)
        oracle = brute_force_dedup(candidates, corpus_keys)
        assert [s.id for s in kept] == [s.id for s in oracle]
        assert report.kept + report.duplicates_discarded == len(candidates)


class TestImport:
    def test_empty_import_is_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with jn.Journal(str(path)) as journal:
            assert import_shouts(journal, []) == 0
        assert path.read_bytes() == b""

    def test_import_appends_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        kept = [mined(f"note {i}", created=i) for i in range(5)]
        with jn.Journal(path) as journal:
            assert import_shouts(journal, kept) == 5
        state = jn.replay(path)
        assert len(state.shouts) == 5
        assert all(s.source is Source.MINED for s in state.shouts)

    def test_import_continues_sequence(self, tmp_path, store, clock):
        store.receive_shout("bob", "existing")
        store.close()
        with jn.Journal(store.journal.path) as journal:
            import_shouts(journal, [mined("mined in")])
        seqs = [r.seq for r in jn.read_records(store.journal.path)]
        assert seqs == [1, 2]

    def test_remine_keeps_zero(self, tmp_path):
        """Import then re-mine the same source: the refreshed corpus blocks all."""
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa fixing timer\n"
                       "[2013-05-02 14:45:12] <bob> ;aa slot grid\n")
        journal = str(tmp_path / "j.jsonl")
        spec = chatlog_spec(log)
        first = mine([spec], "prefix", journal)
        assert first.kept == 2
        second = mine([spec], "prefix", journal)
        assert second.kept == 0
        assert second.duplicates_discarded == 2


class TestPipeline:
    def test_mine_reports_per_source(self, tmp_path):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa mined note\n"
                       "[2013-05-02 14:31:11] <bob> off topic\n"
                       "not a log line\n")
        report = mine([chatlog_spec(log)], "prefix", None, dry_run=True)
        assert report.scanned == 3
        assert report.candidates == 1
        per_source = report.per_source[str(log)]
        assert per_source == {"scanned": 3, "skipped": 1, "candidates": 1}

    def test_spec_file_round_trip(self, tmp_path):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa from spec file\n")
        spec_file = tmp_path / "source.conf"
        spec_file.write_text(f"kind = chatlog\npath = {log}\ntimezone = +0000\n")
        spec = load_source_spec(str(spec_file))
        outcome = parse_source(spec)
        assert outcome.rows[0][1] == ";aa from spec file"

    def test_spec_file_values_keep_a_hash(self, tmp_path):
        logs = tmp_path / "#aa"
        logs.mkdir()
        log = logs / "team.log"
        log.write_text("[2013-05-02 14:30:11] <bob> #aa ;aa hashed channel\n"
                       "[2013-05-02 14:30:12] <eve> #other ;aa elsewhere\n")
        pattern = r"^\[(?P<timestamp>[^]]+)\] <(?P<nick>[^>]+)> #aa (?P<text>.*)$"
        spec_file = tmp_path / "source.conf"
        spec_file.write_text(f"# a full-line comment\npath = {log}\n"
                             f"pattern = {pattern}\n")
        spec = load_source_spec(str(spec_file))
        assert (spec.path, spec.pattern) == (str(log), pattern)
        outcome = parse_source(spec)
        assert outcome.rows == [("bob", ";aa hashed channel", 1367505011)]
        assert (outcome.scanned, outcome.skipped) == (2, 1)

    def test_corpus_from_journal(self, store, clock):
        store.receive_shout("bob", "stored text")
        store.close()
        corpus = corpus_from_journal(jn.replay(store.journal.path))
        assert corpus == {"stored text"}


class TestCliErrors:
    def test_missing_spec_file_reports_cleanly(self, tmp_path, capsys):
        code = mine_main(["--source", str(tmp_path / "nope.conf")])
        assert code == 2
        assert "cannot read source spec" in capsys.readouterr().err

    def test_spec_without_path_rejected(self, tmp_path, capsys):
        spec = tmp_path / "bad.conf"
        spec.write_text("kind = chatlog\n")
        code = mine_main(["--source", str(spec)])
        assert code == 2
        assert "'path'" in capsys.readouterr().err

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        spec = tmp_path / "bad.conf"
        spec.write_text("kind = carrier-pigeon\npath = x\n")
        code = mine_main(["--source", str(spec)])
        assert code == 2
        assert "unknown source kind" in capsys.readouterr().err

    def test_broken_json_array_dump_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "dump.json"
        dump.write_text('[{"author": "bob"')
        spec = tmp_path / "source.conf"
        spec.write_text(f"kind = jsondump\npath = {dump}\n"
                        f"mapping = nick=author,message=text,created=when\n")
        code = mine_main(["--source", str(spec), "--dry-run"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("aa-mine: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line, message", [
        ("delimeter = ,", "unknown source spec keys ['delimeter']"),
        ("delimiter = \\t", "delimiter '\\\\t' is not one character"),
        ("delimiter =", "delimiter '' is not one character"),
        ("no equals sign", "expected key=value"),
    ], ids=["misspelled-key", "escaped-tab", "empty-delimiter", "not-key-value"])
    def test_bad_spec_line_rejected(self, tmp_path, capsys, line, message):
        spec = tmp_path / "bad.conf"
        spec.write_text(f"kind = tabulardump\npath = x.tsv\n{line}\n")
        with pytest.raises(BadPattern, match=re.escape(message)):
            load_source_spec(str(spec))
        assert mine_main(["--source", str(spec)]) == 2
        assert message in capsys.readouterr().err

    def test_corpus_held_by_a_live_store_is_refused(self, tmp_path, store, capsys):
        store.receive_shout("bob", "the server wrote first")
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa mined note\n")
        spec = tmp_path / "source.conf"
        spec.write_text(f"kind = chatlog\npath = {log}\ntimezone = +0000\n")
        code = mine_main(["--source", str(spec), "--corpus", store.journal.path])
        assert code == 2
        assert f"journal {store.journal.path} is locked" in capsys.readouterr().err
        assert [r.seq for r in jn.read_records(store.journal.path)] == [1]
