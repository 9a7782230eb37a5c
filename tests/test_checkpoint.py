"""Checkpoints: a journal opened through its checkpoint holds the state a
full replay builds, and a checkpoint that is damaged, stale, foreign or not
trusted is refused with one INFO line and a full replay."""

from __future__ import annotations

import hashlib
import logging
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from conftest import FakeClock, make_shout, post_json
from hypothesis import given, settings, strategies as st
from test_journal_store import (
    FAULTS,
    STEPS,
    assert_state_invariants,
    fail_once,
    io_error,
    run_steps,
)

from aa import journal as jn, miner, rdf, server, stats
from aa.errors import JournalError
from aa.model import Session, Shout, Tag, ValidationReview
from aa.store import Store

DATA = Path(__file__).parent / "data"


def full_replay(path: str) -> jn.ReplayState:
    """The state every record of ``path`` makes, with no checkpoint involved."""
    state = jn.ReplayState()
    for record in jn.read_records(path):
        state.apply(record)
    return state


def assert_same_state(got: jn.ReplayState, want: jn.ReplayState) -> None:
    assert got == want
    assert got.last_seq == want.last_seq
    assert got.by_created.ordered() == want.by_created.ordered()
    assert [(nick, index.ordered()) for nick, index in got.by_nick.items()] == \
        [(nick, index.ordered()) for nick, index in want.by_nick.items()]
    assert list(got.members.items()) == list(want.members.items())


def ckpt(path) -> Path:
    return Path(str(path) + jn.CHECKPOINT_SUFFIX)


def history(store: Store, clock: FakeClock) -> None:
    """Shouts, a closed and an open session, a screencast and a review."""
    closed = store.receive_message("bob", "start")["session"]
    for i in range(3):
        store.receive_shout("bob", f"step {i} #aa")
        clock.advance(900)
    store.receive_message("bob", "stop")
    store.receive_message("eve", "start")
    store.receive_shout("eve", "slot zero")
    store.attach_screencast(closed, "https://v.example/x")
    store.record_review(closed, "eve", 0.7)


@pytest.fixture
def journal(tmp_path, clock) -> str:
    """A closed journal and the checkpoint its store wrote at close."""
    path = str(tmp_path / "j.jsonl")
    store = Store(path, clock=clock)
    history(store, clock)
    store.close()
    assert ckpt(path).exists()
    return path


def append_shout(path: str, seq: int, shout_id: str) -> None:
    """A record appended to the file itself, not through a Journal."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"seq": {seq}, "written": 1, "type": "shout", "data": {{"id": '
                 f'"{shout_id}", "nick": "ann", "message": "late", "created": 5}}}}\n')


class TestReopen:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(STEPS, max_size=25))
    def test_reopened_state_equals_full_replay(self, steps):
        seen = []

        def check(store):
            assert_same_state(store.state, full_replay(store.journal.path))
            assert_state_invariants(store.state, store.journal.path)
            seen.append((store.state.checkpoint_seq, store.state.last_seq))

        # every close after a write leaves a checkpoint, and an import step
        # reopens the store through it, with the records after it as a tail
        with mock.patch.object(jn, "CHECKPOINT_AFTER", 1):
            run_steps(steps, check)
        checkpoint_seq, last_seq = seen[-1]  # the store reopened at the end
        assert checkpoint_seq == last_seq

    def test_a_store_reopens_from_its_checkpoint(self, journal, clock):
        written = full_replay(journal)
        store = Store(journal, clock=clock)
        try:
            assert store.state.checkpoint_seq == written.last_seq
            assert_same_state(store.state, written)
            store.receive_shout("bob", "after the reopen")
        finally:
            store.close()
        assert_same_state(jn.replay(journal), full_replay(journal))

    def test_model_objects_load_through_their_constructors(self, journal, monkeypatch):
        # as replay builds them, which keeps attribute reads as fast
        built = Counter()
        for cls in (Shout, Session, ValidationReview):
            def counting(cls, *args, new=cls.__new__, name=cls.__name__):
                built[name] += 1
                return new(cls, *args)
            monkeypatch.setattr(cls, "__new__", counting)
        state = jn.load_checkpoint(journal)[0]
        assert state.checkpoint_seq > 0
        assert built == Counter({"Shout": len(state.shouts), "Session": len(state.sessions),
                                 "ValidationReview": len(state.reviews)})

    def test_every_loaded_object_has_its_exact_model_type(self, journal):
        state = jn.load_checkpoint(journal)[0]
        assert state.checkpoint_seq > 0
        shouts = [*state.shouts, *state.by_created.ordered(),
                  *(s for index in state.by_nick.values() for s in index.ordered()),
                  *(s for members in state.members.values() for s in members)]
        assert {type(s) for s in shouts} == {Shout}
        assert {type(t) for s in shouts for t in s.tags} == {Tag}
        assert {type(s) for s in state.sessions.values()} == {Session}
        assert {type(r) for r in state.reviews.values()} == {ValidationReview}

    def test_a_tail_appended_behind_its_back_is_replayed(self, journal, caplog):
        covered = full_replay(journal).last_seq
        append_shout(journal, covered + 1, "tail-1")
        append_shout(journal, covered + 2, "tail-2")
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            state = jn.replay(journal)
        assert caplog.records == []
        assert state.checkpoint_seq == covered
        assert state.last_seq == covered + 2
        assert_same_state(state, full_replay(journal))

    def test_a_tail_error_names_the_files_own_line(self, journal):
        lines = len(Path(journal).read_bytes().splitlines())
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(JournalError) as through_checkpoint:
            jn.replay(journal)
        ckpt(journal).unlink()
        with pytest.raises(JournalError) as from_the_start:
            jn.replay(journal)
        assert f":{lines + 1}: malformed record" in str(through_checkpoint.value)
        assert str(through_checkpoint.value) == str(from_the_start.value)

    def test_the_file_has_mode_600(self, tmp_path, clock):
        old = os.umask(0)
        try:
            store = Store(str(tmp_path / "j.jsonl"), clock=clock)
            history(store, clock)
            store.close()
        finally:
            os.umask(old)
        assert stat.S_IMODE(ckpt(store.journal.path).stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["j.jsonl", "j.jsonl.ckpt"]


def flip(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def header_byte(path: Path) -> int:
    return path.read_bytes().index(b'"offset"') + 2


def format_1(path: Path) -> None:
    """Make the checkpoint's header name format 1, as the dataclass model's
    did, with a digest that matches: only the format is then wrong."""
    _, rest = path.read_bytes().split(b"\n", 1)
    current = f'"format": {jn.CHECKPOINT_FORMAT}, '.encode()
    assert jn.CHECKPOINT_FORMAT == 2 and rest.count(current) == 1
    rest = rest.replace(current, b'"format": 1, ')
    path.write_bytes(hashlib.sha256(rest).hexdigest().encode() + b"\n" + rest)


def other_journal(path: str, text: bytes) -> None:
    """Replace the journal with one whose first shout says ``text`` instead."""
    data = Path(path).read_bytes()
    assert data.count(b"step 0") == 1
    Path(path).write_bytes(data.replace(b"step 0", text))


def foreign_uid(monkeypatch):
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)


SPOILS = {
    "truncated": lambda path, mp: os.truncate(ckpt(path), ckpt(path).stat().st_size // 2),
    "header-byte": lambda path, mp: flip(ckpt(path), header_byte(ckpt(path))),
    "digest-byte": lambda path, mp: flip(ckpt(path), 3),
    "payload-byte": lambda path, mp: flip(ckpt(path), ckpt(path).stat().st_size - 40),
    "other-journal-equal-length": lambda path, mp: other_journal(path, b"step 9"),
    "other-journal-longer": lambda path, mp: other_journal(path, b"step 0 and more"),
    # a cut mid-record leaves a torn tail, which replay drops
    "shorter-journal": lambda path, mp: os.truncate(path, os.path.getsize(path) // 2),
    "group-writable": lambda path, mp: os.chmod(ckpt(path), 0o620),
    "world-writable": lambda path, mp: os.chmod(ckpt(path), 0o602),
    "other-uid": lambda path, mp: foreign_uid(mp),
    "foreign-fingerprint": lambda path, mp: mp.setitem(jn._VERSION, "fingerprint", "0" * 64),
    "other-python": lambda path, mp: mp.setitem(jn._VERSION, "python", [2, 7]),
    "a-directory": lambda path, mp: (ckpt(path).unlink(), ckpt(path).mkdir()),
    "format-1": lambda path, mp: format_1(ckpt(path)),
}


class TestSpoiled:
    @pytest.mark.parametrize("spoil", list(SPOILS))
    def test_falls_back_to_a_full_replay(self, journal, monkeypatch, caplog, spoil):
        SPOILS[spoil](journal, monkeypatch)
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            state = jn.replay(journal)
        assert_same_state(state, full_replay(journal))
        assert state.checkpoint_seq == 0
        assert [(r.levelno, r.getMessage().split(":")[0]) for r in caplog.records] == \
            [(logging.INFO, str(ckpt(journal)))]
        assert "checkpoint not used" in caplog.records[0].getMessage()

    def test_a_store_on_a_spoiled_checkpoint_writes_a_fresh_one(self, journal, clock):
        flip(ckpt(journal), header_byte(ckpt(journal)))
        Store(journal, clock=clock).close()
        state = jn.replay(journal)
        assert state.checkpoint_seq == state.last_seq
        assert_same_state(state, full_replay(journal))

    def test_a_stale_checkpoint_past_the_journal_is_refused_and_replaced(
            self, journal, clock, caplog):
        covered = full_replay(journal).last_seq
        records = Path(journal).read_bytes().splitlines(keepends=True)
        Path(journal).write_bytes(b"".join(records[:jn.CHECKPOINT_AFTER + 1]))
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            store = Store(journal, clock=clock)
        assert store.state.checkpoint_seq == 0
        assert [r.levelno for r in caplog.records] == [logging.INFO]
        store.close()  # more than CHECKPOINT_AFTER records past no checkpoint
        state = jn.replay(journal)
        assert state.last_seq == jn.CHECKPOINT_AFTER + 1 < covered
        assert state.checkpoint_seq == state.last_seq
        assert_same_state(state, full_replay(journal))


class TestWrites:
    def test_a_reopen_without_enough_new_records_keeps_the_checkpoint(self, journal,
                                                                      clock):
        before = ckpt(journal).read_bytes()
        store = Store(journal, clock=clock)
        for i in range(jn.CHECKPOINT_AFTER - 1):
            store.receive_shout("ann", f"note {i}")
        store.close()
        assert ckpt(journal).read_bytes() == before
        store = Store(journal, clock=clock)
        store.receive_shout("ann", "one more")
        store.close()
        assert jn.replay(journal).checkpoint_seq == full_replay(journal).last_seq

    def test_replay_writes_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        shutil.copyfile(DATA / "golden.jsonl", path)
        jn.replay(str(path))
        assert not ckpt(path).exists()

    @pytest.mark.parametrize("fault", ["fsync", "short-write"])
    def test_after_a_refused_append_nothing_is_written(self, journal, clock,
                                                       monkeypatch, fault):
        before = ckpt(journal).read_bytes()
        store = Store(journal, clock=clock)
        for i in range(jn.CHECKPOINT_AFTER):
            store.receive_shout("ann", f"note {i}")
        fail_once(monkeypatch, store, *FAULTS[fault])
        if fault == "short-write":  # and the cut back fails: writes are refused
            fail_once(monkeypatch, store, "ftruncate", io_error)
        with pytest.raises(JournalError):
            store.receive_shout("ann", "refused")
        monkeypatch.undo()
        store.close()
        assert ckpt(journal).read_bytes() == before
        assert sorted(p.name for p in Path(journal).parent.iterdir()) == \
            ["j.jsonl", "j.jsonl.ckpt"]

    def test_an_interrupt_after_the_fsync_refuses_appends_and_writes_nothing(
            self, journal, clock, monkeypatch):
        # the record is on disk but not in the state: a checkpoint of that
        # state, or a second record with its seq, would disagree with the file
        def fsynced_then_interrupted(real, fd):
            real(fd)
            raise KeyboardInterrupt

        before = ckpt(journal).read_bytes()
        store = Store(journal, clock=clock)
        for i in range(jn.CHECKPOINT_AFTER):
            store.receive_shout("ann", f"note {i}")
        fail_once(monkeypatch, store, "fsync", fsynced_then_interrupted)
        with pytest.raises(KeyboardInterrupt):
            store.receive_shout("ann", "on disk only")
        with pytest.raises(JournalError, match="after an interrupted append"):
            store.receive_shout("ann", "refused")
        store.close()
        assert ckpt(journal).read_bytes() == before
        store = Store(journal, clock=clock)
        try:
            assert store.state.shouts[-1].message == "on disk only"
            store.receive_shout("ann", "after the reopen")
        finally:
            store.close()
        assert_same_state(jn.replay(journal), full_replay(journal))

    def test_a_failed_checkpoint_write_is_logged_and_leaves_the_old_one(
            self, journal, clock, monkeypatch, caplog):
        before = ckpt(journal).read_bytes()
        store = Store(journal, clock=clock)
        for i in range(jn.CHECKPOINT_AFTER):
            store.receive_shout("ann", f"note {i}")

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with caplog.at_level(logging.INFO, logger="aa.journal"):
            store.close()
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"{journal}: checkpoint not written: "
                              "[Errno 28] No space left on device")]
        assert ckpt(journal).read_bytes() == before
        assert sorted(p.name for p in Path(journal).parent.iterdir()) == \
            ["j.jsonl", "j.jsonl.ckpt"]
        monkeypatch.undo()
        assert_same_state(jn.replay(journal), full_replay(journal))

    def test_a_state_it_cannot_pickle_is_logged_and_the_journal_closes(self, tmp_path,
                                                                      caplog):
        path = str(tmp_path / "j.jsonl")
        journal = jn.Journal(path)
        journal.append_many([make_shout(f"s{i}") for i in range(jn.CHECKPOINT_AFTER)],
                            written=1)
        journal.state.reports["held"] = threading.Lock()  # as instrumentation may add
        with caplog.at_level(logging.WARNING, logger="aa.journal"):
            journal.close()
        assert [r.getMessage() for r in caplog.records] == \
            [f"{path}: checkpoint not written"]
        assert caplog.records[0].exc_info[0] is TypeError
        assert sorted(p.name for p in tmp_path.iterdir()) == ["j.jsonl"]
        jn.Journal(path).close()  # the file and its lock were released

    def test_aa_mine_leaves_one_and_a_dry_run_none(self, tmp_path, capsys):
        log = tmp_path / "channel.log"
        log.write_text("".join(f"[2013-05-02 14:{m:02}:00] <mara> ;aa step {m}\n"
                               for m in range(jn.CHECKPOINT_AFTER)))
        spec = tmp_path / "source.conf"
        spec.write_text(f"kind = chatlog\npath = {log}\n")
        corpus = tmp_path / "corpus.jsonl"
        shutil.copyfile(DATA / "golden.jsonl", corpus)
        argv = ["--source", str(spec), "--corpus", str(corpus)]
        assert miner.main(argv + ["--dry-run"]) == 0
        assert not ckpt(corpus).exists()
        assert miner.main(argv) == 0
        capsys.readouterr()
        state = jn.replay(str(corpus))
        assert state.checkpoint_seq == state.last_seq == full_replay(str(corpus)).last_seq


GOLDEN_CASES = [(tool, argv, out) for tool, argv, out in [
    (rdf, [], "export.nt"),
    (rdf, ["--format", "turtle"], "export.ttl"),
    (stats, ["--report", "summary"], "stats-summary.out"),
    (stats, ["--report", "graph"], "stats-graph.out"),
    (stats, ["--report", "histogram:year", "--json"], "stats-histogram-year-json.out"),
]]


@pytest.mark.parametrize("tool,argv,out", GOLDEN_CASES,
                         ids=[f"{t.__name__[3:]} {' '.join(a)}" for t, a, _ in GOLDEN_CASES])
def test_golden_bytes_through_a_checkpoint(tmp_path, capsys, tool, argv, out):
    path = str(tmp_path / "golden.jsonl")
    shutil.copyfile(DATA / "golden.jsonl", path)
    jn.Journal(path).close()
    assert jn.replay(path).checkpoint_seq == full_replay(path).last_seq
    assert tool.main(["--journal", path, *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (DATA / "golden" / out).read_bytes()
    assert captured.err == ""


class TestServerStartup:
    def run_server(self, tmp_path, monkeypatch, journal) -> None:
        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(server.ShoutServer, "serve_forever", interrupted)
        handler = signal.getsignal(signal.SIGTERM)
        assert server.main(["--journal", journal, "--host", "127.0.0.1",
                            "--port", "0"]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler  # restored for its caller

    def opened(self, caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records
                if r.name in ("aa.journal", "aa.server")
                and not r.getMessage().startswith("serving on")]

    def test_logs_records_from_checkpoint_and_replayed(self, tmp_path, monkeypatch,
                                                         caplog):
        journal = str(tmp_path / "j.jsonl")
        shutil.copyfile(DATA / "golden.jsonl", journal)
        records = full_replay(journal).last_seq
        caplog.set_level(logging.INFO)
        self.run_server(tmp_path, monkeypatch, journal)  # replays, then writes one
        self.run_server(tmp_path, monkeypatch, journal)
        flip(ckpt(journal), 3)
        self.run_server(tmp_path, monkeypatch, journal)
        messages = self.opened(caplog)
        assert len(messages) == 4, messages
        for message in messages[:2] + messages[3:]:
            assert message.startswith(f"opened journal {journal} in ")
        assert messages[0].endswith(f" ms: 0 records from its checkpoint, "
                                    f"{records} replayed")
        assert messages[1].endswith(f" ms: {records} records from its checkpoint, "
                                    f"0 replayed")
        assert messages[2].startswith(f"{ckpt(journal)}: checkpoint not used: ")
        assert messages[3].endswith(f" ms: 0 records from its checkpoint, "
                                    f"{records} replayed")


class TestSigterm:
    """SIGTERM, what kill and service managers send, stops a real aa-server
    the way SIGINT does: it exits 0 and leaves a checkpoint."""

    @staticmethod
    def serve(journal: str, log: Path) -> tuple[subprocess.Popen, str]:
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "aa.server", "--journal", journal,
                 "--host", "127.0.0.1", "--port", "0"], stderr=err,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and proc.poll() is None:
            found = re.search(r"serving on (http://\S+)", log.read_text())
            if found:
                return proc, found.group(1)
            time.sleep(0.05)
        proc.kill()
        proc.wait()
        pytest.fail(f"aa-server did not start: {log.read_text()}")

    @staticmethod
    def terminate(proc: subprocess.Popen) -> int:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait()

    def test_a_terminated_server_exits_0_and_restarts_from_its_checkpoint(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        shutil.copyfile(DATA / "golden.jsonl", journal)
        proc, url = self.serve(journal, tmp_path / "first.log")
        try:
            status, answer = post_json(url + "/shout", body={"nick": "bob", "msg": "late"})
        finally:
            code = self.terminate(proc)
        assert status == 200, answer
        assert code == 0
        assert stat.S_IMODE(ckpt(journal).stat().st_mode) == 0o600
        state = jn.replay(journal)
        assert state.checkpoint_seq == state.last_seq == full_replay(journal).last_seq
        proc, url = self.serve(journal, tmp_path / "restart.log")
        assert self.terminate(proc) == 0
        assert re.search(r"opened journal .* ms: \d+ records from its checkpoint, "
                         r"0 replayed\n", (tmp_path / "restart.log").read_text())
