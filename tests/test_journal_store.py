import errno
import fcntl
import json
import logging
import os
import sys
import tempfile
import threading
import uuid
from collections import Counter
from pathlib import Path

import pytest
from conftest import FakeClock, make_shout
from hypothesis import given, settings, strategies as st

from aa import journal as jn
from aa.errors import (
    BadFilter,
    BadUrl,
    EmptyMessage,
    EmptySession,
    EmptyNick,
    JournalError,
    NoOpenSession,
    NotLost,
    ScoreOutOfRange,
    SelfReview,
    UnknownSession,
)
from aa.miner import import_shouts
from aa.model import (
    DeviationKind,
    MessageKind,
    Shout,
    Source,
    Tag,
    TagForm,
    TagScope,
    ValidationReview,
    iso8601,
    users_from_shouts,
)
from aa.store import Store, render_text_line, shout_listing_entry


def shout_item(shout_id: str) -> tuple[str, dict]:
    return "shout", jn.shout_to_dict(make_shout(shout_id))


class TestJournal:
    def test_seq_increases_without_gaps(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = jn.Journal(path)
        journal.append_many([shout_item("a")], written=1)
        journal.append_many([shout_item("b"), shout_item("c")], written=2)
        journal.close()
        seqs = [r.seq for r in jn.read_records(path)]
        assert seqs == [1, 2, 3]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = jn.Journal(str(path))
        journal.append_many([shout_item("a")], written=1)
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "writ')  # crash mid-write
        assert [r.seq for r in jn.read_records(str(path))] == [1]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"seq": 1}\n')
        with pytest.raises(JournalError):
            list(jn.read_records(str(path)))

    def test_malformed_last_line_with_newline_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"seq": 1, "written": 1, "type": "shout", "data": {}}\n'
                        '{"seq": 2, "writ\n')
        with pytest.raises(JournalError, match=":2: malformed record"):
            list(jn.read_records(str(path)))

    def test_torn_tail_cut_is_logged(self, tmp_path, caplog):
        path = tmp_path / "j.jsonl"
        journal = jn.Journal(str(path))
        journal.append_many([shout_item("a")], written=1)
        journal.close()
        torn = '{"seq": 2, "writ'
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)  # crash mid-write
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            restarted = jn.Journal(str(path))
        restarted.append_many([shout_item("b")], written=2)
        restarted.close()
        assert [(r.name, r.levelno) for r in caplog.records] == \
            [("aa.journal", logging.WARNING)]
        message = caplog.records[0].getMessage()
        assert str(path) in message
        assert f" {len(torn)} bytes" in message
        assert [r.seq for r in jn.read_records(str(path))] == [1, 2]

    def test_unterminated_whole_record_is_not_logged(self, tmp_path, caplog):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"seq": 1, "written": 1, "type": "shout",
                                    "data": shout_item("a")[1]}))
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            journal = jn.Journal(str(path))
        journal.append_many([shout_item("b")], written=2)
        journal.close()
        assert caplog.records == []
        assert [r.seq for r in jn.read_records(str(path))] == [1, 2]

    @pytest.mark.parametrize("seqs", [[1, 3], [1, 1], [1, 2, 1], [2]],
                             ids=["gap", "duplicate", "decrease", "late-start"])
    def test_replay_rejects_broken_seq_run(self, tmp_path, seqs):
        path = tmp_path / "j.jsonl"
        data = {"id": "a", "nick": "bob", "message": "x", "created": 1}
        path.write_text("".join(
            json.dumps({"seq": n, "written": 1, "type": "shout", "data": data}) + "\n"
            for n in seqs))
        with pytest.raises(JournalError, match=rf":{len(seqs)}: seq {seqs[-1]}, "):
            jn.replay(str(path))

    def test_second_writer_is_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with jn.Journal(path) as first:
            with pytest.raises(JournalError, match=f"journal {path} is locked"):
                jn.Journal(path)
            first.append_many([shout_item("a")], written=1)
            # readers take no lock
            assert [r.seq for r in jn.read_records(path)] == [1]
            first.append_many([shout_item("b")], written=2)
        with jn.Journal(path) as second:
            second.append_many([shout_item("c")], written=3)
        assert [r.data["id"] for r in jn.read_records(path)] == ["a", "b", "c"]

    def test_import_beside_a_replayed_store_is_refused(self, tmp_path, clock):
        path = str(tmp_path / "j.jsonl")
        writer = Store(path, clock=clock)
        writer.receive_shout("bob", "first")
        writer.close()
        mined = Shout(id="m", nick="eve", message="mined", created=0,
                      source=Source.MINED)
        store = Store(path, clock=clock)  # replayed, has not written yet
        try:
            with pytest.raises(JournalError, match=f"journal {path} is locked"):
                with jn.Journal(path) as journal:
                    import_shouts(journal, [mined])
            store.receive_shout("bob", "second")
        finally:
            store.close()
        assert [r.seq for r in jn.read_records(path)] == [1, 2]
        assert [s.message for s in jn.replay(path).shouts] == ["first", "second"]

    @pytest.mark.parametrize("n", [1, 3])
    def test_import_numbers_on_from_the_records_it_replayed(self, tmp_path, n):
        path = str(tmp_path / "j.jsonl")
        with jn.Journal(path) as journal:
            journal.append_many([shout_item(f"s{i}") for i in range(n)], written=1)
        mined = Shout(id="m", nick="eve", message="mined", created=0,
                      source=Source.MINED)
        with jn.Journal(path) as journal:
            import_shouts(journal, [mined])
            assert journal.state == jn.replay(path)
        assert [r.seq for r in jn.read_records(path)] == list(range(1, n + 2))

    def test_store_state_is_its_journals(self, store):
        assert store.state is store.journal.state
        store.receive_shout("bob", "x")
        assert store.state is store.journal.state
        assert store.state.last_seq == 1

    def test_store_refused_by_replay_releases_the_lock(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"seq": 1}\n')
        with pytest.raises(JournalError, match="malformed record"):
            Store(str(path))
        with open(path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_restart_after_crash_at_every_byte_of_last_record(self, tmp_path, clock):
        seed = tmp_path / "seed.jsonl"
        store = Store(str(seed), clock=clock)
        store.receive_shout("bob", "first")
        store.receive_shout("bob", "second")
        store.close()
        whole = seed.read_bytes()
        last_line = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        for cut in range(last_line, len(whole) + 1):
            path = tmp_path / f"cut-{cut}.jsonl"
            path.write_bytes(whole[:cut])
            restarted = Store(str(path), clock=clock)
            restarted.receive_shout("eve", "after the crash")
            live = restarted.shouts_json()
            restarted.close()

            reloaded = Store(str(path), clock=clock)
            seqs = [r.seq for r in jn.read_records(str(path))]
            # the last record survives the cut once its JSON is whole
            kept = 2 if cut >= len(whole) - 1 else 1
            assert seqs == list(range(1, kept + 2)), cut
            assert reloaded.shouts_json() == live, cut
            reloaded.close()


class TestIngest:
    def test_receive_shout_parses_and_stores(self, store):
        shout = store.receive_shout("bob", "slot grid done #coding")
        assert shout.kind is MessageKind.SHOUT
        assert [t.surface for t in shout.tags] == ["#coding"]
        assert store.list_shouts()[0].id == shout.id

    def test_empty_nick_rejected(self, store):
        with pytest.raises(EmptyNick):
            store.receive_shout("", "x")

    def test_empty_message_rejected(self, store):
        with pytest.raises(EmptyMessage):
            store.receive_shout("bob", "   ")

    def test_no_dedup_at_ingest(self, store, clock):
        first = store.receive_shout("bob", "same text")
        clock.advance(5)
        second = store.receive_shout("bob", "same text")
        assert first.id != second.id
        assert len(store.list_shouts()) == 2

    def test_arrival_time_monotonic(self, store, clock):
        a = store.receive_shout("bob", "one")
        clock.advance(-100)  # wall clock stepping backwards
        b = store.receive_shout("bob", "two")
        assert b.created >= a.created

    def test_every_accepted_shout_journaled_once(self, store, clock):
        for i in range(5):
            store.receive_shout("bob", f"msg {i}")
            clock.advance(1)
        records = list(jn.read_records(store.journal.path))
        assert len([r for r in records if r.type == "shout"]) == 5


def fail_once(monkeypatch, store, name, fault):
    """Make the next ``os.<name>`` call on the store's journal run ``fault``."""
    real = getattr(os, name)
    fd = store.journal._fh.fileno()
    armed = [True]

    def faulty(target, *args):
        if target == fd and armed:
            armed.clear()
            return fault(real, target, *args)
        return real(target, *args)

    monkeypatch.setattr(os, name, faulty)


def no_space(real, fd, data):
    raise OSError(errno.ENOSPC, "No space left on device")


def half_written(real, fd, data):
    return real(fd, data[:len(data) // 2])


def io_error(real, fd, *args):
    raise OSError(errno.EIO, "Input/output error")


FAULTS = {
    "write": ("write", no_space),
    "short-write": ("write", half_written),
    "fsync": ("fsync", io_error),
}


class TestCommit:
    MUTATIONS = {
        "shout": lambda store, ids: store.receive_shout("carol", "will not stick"),
        "start": lambda store, ids: store.receive_message("carol", "start"),
        "stop": lambda store, ids: store.receive_message("eve", "stop"),
        "push": lambda store, ids: store.receive_message(
            "carol", "push", batch=[{"message": "spooled"}]),
        "query": lambda store, ids: store.receive_message("carol", "tickets"),
        "lost": lambda store, ids: store.emit_lost(ids["open"], 1),
        "screencast": lambda store, ids: store.attach_screencast(
            ids["closed"], "https://v.example/x"),
        "review": lambda store, ids: store.record_review(ids["closed"], "alice", 0.5),
    }

    @staticmethod
    def refuse(store, clock, mutation, arm):
        """Run ``mutation`` on a store with closed and open sessions after
        ``arm`` sets up a fault; it must be refused and leave no trace."""
        closed = store.receive_message("bob", "start")["session"]
        store.receive_shout("bob", "work")
        clock.advance(900)
        store.receive_message("bob", "stop")
        open_ = store.receive_message("eve", "start")["session"]
        store.receive_shout("eve", "slot zero")
        clock.advance(2 * 900 + 10)  # slot 1 of eve's session passes silently

        def snapshot():
            return (store.list_shouts(), store.report(), dict(store.state.sessions),
                    dict(store.state.reviews), Path(store.journal.path).read_bytes())

        before = snapshot()
        arm()
        with pytest.raises(JournalError):
            TestCommit.MUTATIONS[mutation](store, {"open": open_, "closed": closed})
        assert snapshot() == before

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_failed_journal_write_leaves_no_state(self, store, clock, monkeypatch,
                                                  mutation):
        def boom(*args, **kwargs):
            raise JournalError("disk full")

        self.refuse(store, clock, mutation,
                    lambda: monkeypatch.setattr(store.journal, "append_many", boom))

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_failed_write_or_fsync_leaves_no_state(self, store, clock, monkeypatch,
                                                   mutation, fault):
        self.refuse(store, clock, mutation,
                    lambda: fail_once(monkeypatch, store, *FAULTS[fault]))

    @pytest.mark.parametrize("fault", ["write", "short-write"])
    def test_after_a_failed_write_the_next_shout_takes_the_next_seq(
            self, store, clock, monkeypatch, fault):
        store.receive_shout("bob", "first")
        fail_once(monkeypatch, store, *FAULTS[fault])
        with pytest.raises(JournalError, match="journal write failed"):
            store.receive_shout("bob", "refused")
        clock.advance(1)
        store.receive_shout("bob", "second")
        assert [r.seq for r in jn.read_records(store.journal.path)] == [1, 2]
        replayed = jn.replay(store.journal.path)
        assert replayed == store.state
        assert replayed.by_created.ordered() == store.list_shouts()
        assert [s.message for s in store.list_shouts()] == ["first", "second"]

    @pytest.mark.parametrize("faults, failed", [
        ([FAULTS["fsync"]], "fsync"),
        ([FAULTS["short-write"], ("ftruncate", io_error)], "write"),
    ], ids=["fsync", "short-write-and-cut"])
    def test_after_a_failed_fsync_or_cut_every_write_is_refused_until_restart(
            self, store, clock, monkeypatch, faults, failed):
        store.receive_shout("bob", "first")
        for fault in faults:
            fail_once(monkeypatch, store, *fault)
        with pytest.raises(JournalError, match=f"journal {failed} failed"):
            store.receive_shout("bob", "refused")
        written = Path(store.journal.path).read_bytes()
        for attempt in (lambda: store.receive_shout("bob", "also refused"),
                        lambda: store.receive_message("bob", "start")):
            with pytest.raises(JournalError,
                               match=f"refuses writes after a failed {failed}"):
                attempt()
        assert Path(store.journal.path).read_bytes() == written
        store.close()

        restarted = Store(store.journal.path, clock=clock)
        try:
            assert restarted.state == store.state
            restarted.receive_shout("bob", "after the restart")
            assert [r.seq for r in jn.read_records(store.journal.path)] == [1, 2]
        finally:
            restarted.close()


class TestListings:
    def test_empty_json_listing(self, store):
        assert store.shouts_json() == "[]"

    def test_text_lines_in_created_order(self, store, clock):
        for i in range(3):
            store.receive_shout("bob", f"msg {i}")
            clock.advance(60)
        # oracle: rebuild the listing from a journal replay
        state = jn.replay(store.journal.path)
        expected = sorted(state.shouts, key=lambda s: s.created)
        lines = store.shouts_text().splitlines()
        assert len(lines) == 3
        assert [line.split("\t")[2] for line in lines] == \
            [s.message for s in expected]

    def test_nick_filter(self, store, clock):
        store.receive_shout("bob", "from bob")
        clock.advance(1)
        store.receive_shout("eve", "from eve")
        assert [s.nick for s in store.list_shouts(nick="Bob")] == ["bob"]

    def test_time_range_filter(self, store, clock):
        store.receive_shout("bob", "early")
        clock.advance(3600)
        store.receive_shout("bob", "late")
        since = "2014-05-13T16:53:21Z"  # 1 s after the first arrival
        hits = store.list_shouts(since=since)
        assert [s.message for s in hits] == ["late"]

    def test_bad_filter_rejected(self, store):
        with pytest.raises(BadFilter):
            store.list_shouts(since="yesterday-ish")

    def test_format_duality(self, store, clock):
        for i in range(4):
            store.receive_shout("bob", f"note {i} #aa")
            clock.advance(30)
        entries = json.loads(store.shouts_json())
        rebuilt = "".join(
            render_text_line(e["created"], e["nick"], e["message"]) + "\n"
            for e in entries
        )
        assert rebuilt == store.shouts_text()


class TestMessageDispatch:
    def test_start_opens_session(self, store):
        result = store.receive_message("bob", "start")
        assert result["result"] == "start"
        assert store.state.open_sessions["bob"] == result["session"]

    def test_stop_without_start(self, store):
        with pytest.raises(NoOpenSession):
            store.receive_message("bob", "stop")

    def test_nested_start_reanchors_same_session(self, store, clock):
        first = store.receive_message("bob", "start")
        clock.advance(100)
        store.receive_shout("bob", "early note")
        clock.advance(100)
        second = store.receive_message("bob", "start")
        assert second["event"] == "reanchored"
        assert second["session"] == first["session"]
        assert store.state.members[first["session"]] == []

    def test_stop_closes_and_reports(self, store, clock):
        store.receive_message("bob", "start")
        for _ in range(8):
            store.receive_shout("bob", "on the grid")
            clock.advance(900)
        result = store.receive_message("bob", "stop")
        # stop arrives a whole slot after the last shout, losing slot 8
        assert result["report"]["ideal"] is False
        assert result["report"]["lost_slots"] == [8]
        assert result["result"] == "stop"
        assert "bob" not in store.state.open_sessions

    def test_stop_on_grid_session_is_ideal(self, store, clock):
        store.receive_message("bob", "start")
        for k in range(8):
            store.receive_shout("bob", f"slot {k} work")
            clock.advance(900)
        # the 8th shout lands at 6300; stop arrives shortly after
        clock.advance(-900 + 30)
        result = store.receive_message("bob", "stop")
        assert result["report"]["ideal"] is True
        assert result["report"]["lost_slots"] == []

    def test_stop_emits_markers_for_lost_slots(self, store, clock):
        store.receive_message("bob", "start")
        store.receive_shout("bob", "only slot zero")
        clock.advance(1800)  # slot 1 passes silently
        result = store.receive_message("bob", "stop")
        assert result["report"]["lost_slots"] == [1, 2]
        markers = [s for s in store.list_shouts()
                   if s.kind is MessageKind.LOST_TIMESLOT]
        assert len(markers) == 2

    def test_immediate_stop_is_empty_session_safe(self, store):
        store.receive_message("bob", "start")
        result = store.receive_message("bob", "stop")
        assert result["report"] == {"per_shout": [], "lost_slots": [],
                                    "ideal": False}

    def test_control_messages_recorded_with_kind(self, store):
        store.receive_message("bob", "start")
        store.receive_message("bob", "stop")
        kinds = [s.kind for s in store.list_shouts()]
        assert kinds == [MessageKind.START, MessageKind.STOP]

    def test_query_returns_stub(self, store):
        result = store.receive_message("bob", "tickets")
        assert result == {"result": "query", "topic": "tickets", "items": [],
                          "code": "no_backend"}

    def test_push_flushes_batch(self, store):
        result = store.receive_message(
            "bob", "push",
            batch=[{"message": "spooled one", "client_created": 1000},
                   {"message": "spooled two", "client_created": 2000}])
        assert result["accepted"] == 2
        stored = {s.id: s for s in store.list_shouts()}
        for shout_id in result["ids"]:
            assert stored[shout_id].client_created in (1000, 2000)


    def test_push_during_open_session_attaches_members(self, store):
        sid = store.receive_message("bob", "start")["session"]
        result = store.receive_message(
            "bob", "push", batch=[{"message": "caught up", "client_created": 5}])
        assert store.state.members[sid] == result["ids"]

    def test_plain_message_is_shout(self, store):
        result = store.receive_message("bob", "plain working note")
        assert result["result"] == "shout"


class TestLostSlots:
    def test_emit_lost_marks_past_slot(self, store, clock):
        sid = store.receive_message("bob", "start")["session"]
        store.receive_shout("bob", "slot zero")
        clock.advance(2 * 900 + 10)
        marker = store.emit_lost(sid, 1)
        assert marker.kind is MessageKind.LOST_TIMESLOT

    def test_duplicate_emission_rejected(self, store, clock):
        sid = store.receive_message("bob", "start")["session"]
        store.receive_shout("bob", "slot zero")
        clock.advance(2 * 900 + 10)
        store.emit_lost(sid, 1)
        with pytest.raises(NotLost):
            store.emit_lost(sid, 1)

    def test_unknown_session(self, store):
        with pytest.raises(UnknownSession):
            store.emit_lost("nope", 0)

    def test_stop_skips_slot_already_marked(self, store, clock):
        sid = store.receive_message("bob", "start")["session"]
        store.receive_shout("bob", "slot zero")
        clock.advance(2 * 900 + 10)
        store.emit_lost(sid, 1)
        store.receive_message("bob", "stop")
        start = store.state.sessions[sid].start
        marked = [(s.created - start) // 900 for s in store.list_shouts()
                  if s.kind is MessageKind.LOST_TIMESLOT]
        assert marked == [1, 2]


class TestScreencastAndReview:
    def _closed_session(self, store, clock):
        sid = store.receive_message("bob", "start")["session"]
        store.receive_shout("bob", "work")
        clock.advance(900)
        store.receive_message("bob", "stop")
        return sid

    def test_attach_screencast(self, store, clock):
        sid = self._closed_session(store, clock)
        session = store.attach_screencast(sid, "https://v.example/abc")
        assert session.screencast == "https://v.example/abc"

    def test_attach_to_missing_session(self, store):
        with pytest.raises(UnknownSession):
            store.attach_screencast("missing", "https://v.example/abc")

    def test_bad_url_rejected(self, store, clock):
        sid = self._closed_session(store, clock)
        with pytest.raises(BadUrl):
            store.attach_screencast(sid, "not a url")

    def test_second_attach_replaces_and_both_journaled(self, store, clock):
        sid = self._closed_session(store, clock)
        store.attach_screencast(sid, "https://v.example/one")
        store.attach_screencast(sid, "https://v.example/two")
        assert store.state.sessions[sid].screencast == "https://v.example/two"
        urls = [r.data["screencast"] for r in jn.read_records(store.journal.path)
                if r.type == "session" and r.data.get("event") == "screencast"]
        assert urls == ["https://v.example/one", "https://v.example/two"]

    def test_review_stored(self, store, clock):
        sid = self._closed_session(store, clock)
        review = store.record_review(sid, "alice", 0.9)
        assert review.score == 0.9

    def test_self_review_rejected(self, store, clock):
        sid = self._closed_session(store, clock)
        with pytest.raises(SelfReview):
            store.record_review(sid, "bob", 0.5)

    def test_out_of_range_score(self, store, clock):
        sid = self._closed_session(store, clock)
        with pytest.raises(ScoreOutOfRange):
            store.record_review(sid, "alice", 1.2)

    def test_replacement_review_journaled(self, store, clock):
        sid = self._closed_session(store, clock)
        store.record_review(sid, "alice", 0.4)
        store.record_review(sid, "carol", 0.8)
        assert store.state.reviews[sid].reviewer == "carol"
        records = [r for r in jn.read_records(store.journal.path)
                   if r.type == "review"]
        assert len(records) == 2


class TestReport:
    def test_empty_report(self, store):
        report = store.report()
        assert report == {"latest": [], "open_sessions": [],
                          "latest_reviews": [], "counts_by_user": {}}

    def test_latest_counts(self, store, clock):
        for i in range(5):
            store.receive_shout("bob", f"note {i}")
            clock.advance(10)
        assert len(store.report()["latest"]) == 5
        assert store.report()["counts_by_user"] == {"bob": 5}

    def test_latest_is_capped_and_most_recent(self, store, clock):
        for i in range(5):
            store.receive_shout("bob", f"note {i}")
            clock.advance(10)
        # oracle: sort by creation time, take the last two, newest first
        ordered = sorted(store.list_shouts(), key=lambda s: s.created)
        expected = [s.message for s in reversed(ordered[-2:])]
        latest = [e["message"] for e in store.report(n=2)["latest"]]
        assert latest == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=12), st.integers(1, 14))
    def test_latest_reviews_equal_full_sort_with_ties(self, created, n):
        with tempfile.TemporaryDirectory() as tmp:
            store = Store(f"{tmp}/j.jsonl")
            try:
                store.state.reviews = {
                    f"s{i}": ValidationReview(session=f"s{i}", reviewer="eve",
                                              score=0.5, comment=None, created=c)
                    for i, c in enumerate(created)}
                expected = sorted(store.state.reviews.values(),
                                  key=lambda r: r.created, reverse=True)[:n]
                assert store.report(n)["latest_reviews"] == \
                    [jn.review_to_dict(r) for r in expected]
            finally:
                store.close()


class ExplodingList(list):
    """Stands in for ``state.shouts``; a read path that scans it fails."""

    def __iter__(self):
        raise AssertionError("a read path iterated state.shouts")


NICKS = ("bob", "eve", "ann")
START = int(FakeClock().now)

# one step against a live store: a plain shout, a start or stop (a stop may
# mark lost slots in the past), an explicit lost mark, an import of older
# mined shouts through the journal (the store is then rebuilt), or a read
STEPS = st.one_of(
    st.tuples(st.just("shout"), st.sampled_from(NICKS),
              st.sampled_from([0, 0, 1, 30, 1000])),
    st.tuples(st.sampled_from(["start", "stop"]), st.sampled_from(NICKS),
              st.sampled_from([0, 1, 2000])),
    st.tuples(st.just("lost"), st.sampled_from(NICKS), st.integers(0, 3)),
    st.tuples(st.just("import"), st.sampled_from(NICKS),
              st.lists(st.integers(-3000, 3000), min_size=1, max_size=4)),
    st.tuples(st.just("read"), st.none(), st.none()),
)
TIMES = st.one_of(st.none(), st.integers(START - 3500, START + 40_000))
QUERY_NICKS = st.one_of(st.none(), st.sampled_from(NICKS + ("Bob", "zed")))
QUERIES = st.lists(st.tuples(QUERY_NICKS, TIMES, TIMES, st.integers(1, 25)),
                   min_size=1, max_size=4)


def naive_listing(shouts, nick, lo, hi):
    return [s for s in sorted(shouts, key=lambda s: s.created)
            if (nick is None or s.nick == nick.lower())
            and (lo is None or s.created >= lo) and (hi is None or s.created <= hi)]


def assert_reads_match_naive_sort(store, queries):
    shouts = list(store.state.shouts)
    store.state.shouts = ExplodingList(shouts)
    try:
        for nick, lo, hi, n in queries:
            since = iso8601(lo) if lo is not None else None
            until = iso8601(hi) if hi is not None else None
            assert store.list_shouts(nick, since, until) == \
                naive_listing(shouts, nick, lo, hi)
            report = store.report(n)
            ordered = naive_listing(shouts, None, None, None)
            assert report["latest"] == \
                [shout_listing_entry(s) for s in reversed(ordered[-n:])]
            assert report["counts_by_user"] == \
                dict(sorted(Counter(s.nick for s in shouts).items()))
        assert list(store.users().items()) == \
            list(users_from_shouts(shouts).items())
    finally:
        store.state.shouts = shouts


def run_steps(steps, check):
    """Drive a fresh store through ``steps``; ``check`` it at every read, at
    the end, and once more on a store rebuilt from the journal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/j.jsonl"
        clock = FakeClock()
        store = Store(path, clock=clock)
        try:
            for op, nick, arg in steps:
                if op == "shout":
                    clock.advance(arg)
                    store.receive_shout(nick, f"work {clock.now}")
                elif op in ("start", "stop"):
                    clock.advance(arg)
                    try:
                        store.receive_message(nick, op)
                    except NoOpenSession:
                        pass
                elif op == "lost":
                    sid = store.state.open_sessions.get(nick)
                    try:
                        store.emit_lost(sid or "none", arg)
                    except (EmptySession, NotLost, UnknownSession):
                        pass
                elif op == "import":
                    store.close()
                    mined = [Shout(id=uuid.uuid4().hex, nick=nick,
                                   message=f"mined {age}", source=Source.MINED,
                                   created=store.state.last_created - age)
                             for age in arg]
                    with jn.Journal(path) as journal:
                        import_shouts(journal, mined)
                    store = Store(path, clock=clock)
                else:
                    check(store)
            check(store)
            store.close()
            store = Store(path, clock=clock)
            check(store)
        finally:
            store.close()


class TestCreatedIndex:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(STEPS, max_size=25), QUERIES)
    def test_reads_equal_sorted_arrival_order(self, steps, queries):
        run_steps(steps, lambda store: assert_reads_match_naive_sort(store, queries))


def assert_json_is_fresh_encoding(store, queries):
    for nick, lo, hi, _ in queries:
        since = iso8601(lo) if lo is not None else None
        until = iso8601(hi) if hi is not None else None
        listed = store.list_shouts(nick, since, until)
        fresh = json.dumps([shout_listing_entry(s) for s in listed], sort_keys=True)
        assert store.shouts_json(nick=nick, since=since, until=until) == fresh


def shout_record(seq, shout_id, nick, message, created):
    return json.dumps({"seq": seq, "written": created, "type": "shout",
                       "data": {"id": shout_id, "nick": nick, "message": message,
                                "created": created}}) + "\n"


class TestListingCache:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(STEPS, max_size=25), QUERIES)
    def test_json_equals_fresh_encoding(self, steps, queries):
        run_steps(steps, lambda store: assert_json_is_fresh_encoding(store, queries))

    def test_duplicate_id_lists_each_shouts_own_fields(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(shout_record(1, "dup", "bob", "first", 100)
                        + shout_record(2, "dup", "eve", "second", 200))
        store = Store(str(path))
        try:
            for _ in range(2):
                for nick in ("bob", "eve", None):
                    listed = store.list_shouts(nick=nick)
                    assert store.shouts_json(nick=nick) == json.dumps(
                        [shout_listing_entry(s) for s in listed], sort_keys=True)
            entries = json.loads(store.shouts_json())
            assert [(e["id"], e["nick"], e["message"]) for e in entries] == \
                [("dup", "bob", "first"), ("dup", "eve", "second")]
        finally:
            store.close()

    def test_each_entry_is_encoded_once(self, tmp_path, clock, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        writer = Store(path, clock=clock)
        for i in range(5):
            writer.receive_shout("bob" if i % 2 else "eve", f"note {i}")
            clock.advance(60)
        writer.close()
        calls = Counter()

        def counting(shout):
            calls[shout.id] += 1
            return shout_listing_entry(shout)

        monkeypatch.setattr("aa.store.shout_listing_entry", counting)
        store = Store(path, clock=clock)
        try:
            assert sum(calls.values()) == 0
            first = store.shouts_json()
            assert sum(calls.values()) == 5
            assert store.shouts_json() == first
            assert store.shouts_json(nick="bob") == json.dumps(
                [e for e in json.loads(first) if e["nick"] == "bob"], sort_keys=True)
            assert sum(calls.values()) == 5
            store.receive_shout("bob", "one more")
            store.shouts_json()
            assert calls == Counter({s.id: 1 for s in store.list_shouts()})
        finally:
            store.close()

    def test_concurrent_cold_listings_agree(self, store, clock):
        for i in range(200):
            store.receive_shout("bob", f"note {i} #aa")
            clock.advance(1)
        expected = json.dumps([shout_listing_entry(s) for s in store.list_shouts()],
                              sort_keys=True)
        results, errors = [], []

        def reader():
            try:
                for _ in range(5):
                    results.append(store.shouts_json(nick="bob"))
            except Exception as exc:  # reported below; a thread cannot raise
                errors.append(exc)

        def writer():
            try:
                for i in range(50):
                    store.receive_shout("eve", f"beside the readers {i}")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * 30


TAGS = st.builds(Tag, st.sampled_from(TagForm), st.text(max_size=8),
                 st.sampled_from(TagScope))
SHOUTS = st.builds(
    Shout, id=st.text(min_size=1, max_size=8), nick=st.text(max_size=8),
    message=st.text(max_size=20), created=st.integers(0, 2**40),
    source=st.sampled_from(Source), kind=st.sampled_from(MessageKind),
    tags=st.lists(TAGS, max_size=3).map(tuple),
    session_ref=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
    deviation=st.one_of(st.none(), st.sampled_from(DeviationKind)),
    client_created=st.one_of(st.none(), st.integers(0, 2**40)),
    topic=st.one_of(st.none(), st.text(max_size=8)))


class TestShoutCodec:
    @settings(max_examples=300, deadline=None)
    @given(SHOUTS)
    def test_round_trip_through_json(self, shout):
        data = json.loads(json.dumps(jn.shout_to_dict(shout)))
        assert jn.shout_from_dict(data) == shout

    def test_every_enum_value_decodes(self):
        for source in Source:
            for kind in MessageKind:
                for deviation in (None, *DeviationKind):
                    tags = tuple(Tag(form, "t", scope)
                                 for form in TagForm for scope in TagScope)
                    shout = Shout("i", "n", "m", 1, source=source, kind=kind,
                                  tags=tags, deviation=deviation)
                    assert jn.shout_from_dict(jn.shout_to_dict(shout)) == shout

    def test_decoded_values_are_the_enum_members(self):
        shout = jn.shout_from_dict({"id": "i", "nick": "n", "message": "m",
                                    "created": 1, "source": "chat", "kind": "push",
                                    "deviation": "intro_test",
                                    "tags": [{"form": "plus", "name": "x",
                                              "scope": "session"}]})
        assert shout.source is Source.CHAT and shout.kind is MessageKind.PUSH
        assert shout.deviation is DeviationKind.INTRO_TEST
        assert shout.tags[0].form is TagForm.PLUS
        assert shout.tags[0].scope is TagScope.SESSION

    def test_optional_fields_default(self):
        shout = jn.shout_from_dict({"id": "i", "nick": "n", "message": "m",
                                    "created": 1})
        assert shout == Shout("i", "n", "m", 1)


class TestReplayEquivalence:
    def test_state_survives_restart(self, store, clock, tmp_path):
        store.receive_message("bob", "start")
        for i in range(3):
            store.receive_shout("bob", f"note {i} #aa")
            clock.advance(900)
        store.receive_message("bob", "stop")
        store.receive_shout("eve", "tickets")
        sid = store.state.shouts[1].session_ref
        store.attach_screencast(sid, "https://v.example/x")
        store.record_review(sid, "eve", 0.7)
        store.close()  # the journal has one writer at a time

        reloaded = Store(store.journal.path, clock=clock)
        assert reloaded.shouts_json() == store.shouts_json()
        assert json.dumps(reloaded.report(), sort_keys=True) == \
            json.dumps(store.report(), sort_keys=True)
        reloaded.close()
