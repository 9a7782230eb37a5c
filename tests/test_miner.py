import json
import random

import pytest
from hypothesis import given, strategies as st

from aa import journal as jn
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


def chatlog_spec(path, **kwargs):
    return SourceSpec(kind=SourceKind.CHAT_LOG, path=str(path), **kwargs)


class TestParseSource:
    def test_default_pattern_line(self, tmp_path):
        log = tmp_path / "irc.log"
        log.write_text("[2013-05-02 14:30:11] <bob> ;aa fixing timer\n")
        outcome = parse_source(chatlog_spec(log))
        assert len(outcome.candidates) == 1
        candidate = outcome.candidates[0]
        assert candidate.nick == "bob"
        assert candidate.message == ";aa fixing timer"
        assert candidate.created == 1367505011
        assert candidate.source is Source.MINED

    def test_empty_file(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("")
        outcome = parse_source(chatlog_spec(log))
        assert outcome.candidates == []
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
        assert len(outcome.candidates) == good == 990
        assert outcome.skipped == 10
        assert outcome.scanned == 1000

    def test_timezone_offset_applied(self, tmp_path):
        log = tmp_path / "tz.log"
        log.write_text("[2013-05-02 14:30:11] <bob> note\n")
        shifted = parse_source(chatlog_spec(log, timezone="+0300"))
        utc = parse_source(chatlog_spec(log))
        assert utc.candidates[0].created - shifted.candidates[0].created == 3 * 3600

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
        assert [c.nick for c in outcome.candidates] == ["bob", "eve"]

    def test_tabular_dump(self, tmp_path):
        dump = tmp_path / "dump.tsv"
        dump.write_text("user\tbody\ttime\nbob\tfrom mysql\t2013-05-02 14:30:11\n")
        spec = SourceSpec(kind=SourceKind.TABULAR_DUMP, path=str(dump),
                          mapping={"nick": "user", "message": "body",
                                   "created": "time"})
        outcome = parse_source(spec)
        assert outcome.candidates[0].message == "from mysql"

    def test_dump_mapping_required(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("{}\n")
        with pytest.raises(BadPattern):
            parse_source(SourceSpec(kind=SourceKind.JSON_DUMP, path=str(dump)))


def mined(text, nick="bob", created=0):
    return make_mined_shout(nick, text, created)


class TestSelect:
    def test_prefix_mode_strips(self):
        kept = select_shouts([mined(";aa reading")], "prefix")
        assert [s.message for s in kept] == ["reading"]

    def test_prefix_mode_drops_others(self):
        assert select_shouts([mined("just chat")], "prefix") == []

    def test_tags_mode_keeps_tagged(self):
        kept = select_shouts([mined("shipping release #aao0")], "tags")
        assert [s.message for s in kept] == ["shipping release #aao0"]

    def test_tags_mode_drops_untagged(self):
        assert select_shouts([mined("no tags")], "tags") == []

    def test_all_mode(self):
        candidates = [mined("a"), mined("b")]
        assert select_shouts(candidates, "all") == candidates


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
        journal = str(tmp_path / "j.jsonl")
        assert import_shouts(journal, [], 1) == 0
        assert not (tmp_path / "j.jsonl").exists()

    def test_import_appends_records(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        kept = [mined(f"note {i}", created=i) for i in range(5)]
        assert import_shouts(journal, kept, 1) == 5
        state = jn.replay(journal)
        assert len(state.shouts) == 5
        assert all(s.source is Source.MINED for s in state.shouts)

    def test_import_continues_sequence(self, tmp_path, store, clock):
        store.receive_shout("bob", "existing")
        store.close()
        import_shouts(store.journal.path, [mined("mined in")], 2)
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
        assert outcome.candidates[0].message == ";aa from spec file"

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
