"""A journal that cannot be opened or decoded stops replay with a JournalError
naming the file (and the seq or line), and aa-export, aa-stats and aa-server
report it, like any other path they cannot open, in one line, exit 2."""

import errno
import json
import subprocess
import sys
from pathlib import Path

import pytest

from aa import journal as jn
from aa import rdf, stats
from aa.errors import JournalError

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOOD = {"id": "a", "nick": "bob", "message": "hello", "created": 1,
        "source": "http", "kind": "shout", "deviation": None,
        "tags": [{"form": "hash", "name": "aa", "scope": "shout_only"}]}


def broken(**changes) -> dict:
    data = {**GOOD, **changes}
    return {k: v for k, v in data.items() if v is not ...}


# (case, second record's data, what the message must say)
BAD_SHOUTS = [
    ("kind", broken(kind="bogus"), "unknown kind 'bogus'"),
    ("source", broken(source="fax"), "unknown source 'fax'"),
    ("deviation", broken(deviation="spam"), "unknown deviation 'spam'"),
    ("tag-form", broken(tags=[{"form": "caret", "name": "x", "scope": "session"}]),
     "unknown tag form 'caret'"),
    ("tag-scope", broken(tags=[{"form": "hash", "name": "x", "scope": "forever"}]),
     "unknown tag scope 'forever'"),
    ("missing-key", broken(nick=...), "missing key 'nick'"),
    ("tags-not-list", broken(tags="#aa"), "tags is not a list"),
    ("tags-object", broken(tags={}), "tags is not a list"),
    ("created-past-9999", broken(created=10**20),
     "created: timestamp 100000000000000000000 is outside UTC years 1-9999"),
    ("client-created-before-year-1", broken(client_created=-62135596801),
     "client_created: timestamp -62135596801 is outside UTC years 1-9999"),
    ("created-text", broken(created="1"), "created is not an int: '1'"),
    ("nick-not-text", broken(nick=5), "id, nick and message must be text"),
]


def write_journal(path: Path, records: list[tuple[int, str, dict]]) -> str:
    path.write_text("".join(
        json.dumps({"seq": seq, "written": 1, "type": rtype, "data": data}) + "\n"
        for seq, rtype, data in records), encoding="utf-8")
    return str(path)


def bad_shout_journal(tmp_path: Path, data: dict) -> str:
    return write_journal(tmp_path / "bad.jsonl",
                         [(1, "shout", GOOD), (2, "shout", {**data, "id": "b"})])


@pytest.mark.parametrize("case,data,problem", BAD_SHOUTS,
                         ids=[c[0] for c in BAD_SHOUTS])
def test_replay_names_path_seq_and_problem(tmp_path, case, data, problem):
    path = bad_shout_journal(tmp_path, data)
    with pytest.raises(JournalError) as info:
        jn.replay(path)
    message = str(info.value)
    assert message.startswith(f"{path}: seq 2: bad shout record: ")
    assert problem in message


def test_bad_session_data_and_unknown_type_are_named(tmp_path):
    path = write_journal(tmp_path / "s.jsonl", [
        (1, "session", {"event": "open", "id": "s", "user": "bob",
                        "origin": "guessed", "start": 0, "end": 0})])
    with pytest.raises(JournalError, match=r": seq 1: bad session record: "):
        jn.replay(path)
    path = write_journal(tmp_path / "d.jsonl", [(1, "shout", ["not", "an", "object"])])
    with pytest.raises(JournalError, match=r": seq 1: bad shout record: "):
        jn.replay(path)
    path = write_journal(tmp_path / "t.jsonl", [(1, "vote", {})])
    with pytest.raises(JournalError,
                       match=r": seq 1: bad vote record: unknown record type 'vote'"):
        jn.replay(path)


# (case, second record's type and data, what the message must say)
BAD_TIMESTAMPS = [
    ("session-start-past-9999", "session",
     {"event": "open", "id": "s", "user": "bob", "start": 10**20, "end": 10**20},
     "start: timestamp 100000000000000000000 is outside UTC years 1-9999"),
    ("review-created-text", "review",
     {"session": "s", "reviewer": "alice", "score": 0.5, "created": "yesterday"},
     "created is not an int: 'yesterday'"),
]


@pytest.mark.parametrize("case,rtype,data,problem", BAD_TIMESTAMPS,
                         ids=[c[0] for c in BAD_TIMESTAMPS])
def test_session_and_review_timestamps_follow_the_shout_rule(tmp_path, case, rtype,
                                                             data, problem):
    path = write_journal(tmp_path / "bad.jsonl", [(1, "shout", GOOD), (2, rtype, data)])
    with pytest.raises(JournalError) as info:
        jn.replay(path)
    assert f"{path}: seq 2: bad {rtype} record: {problem}" == str(info.value)
    assert_one_line_error(run_tool("export", path), f"seq 2: bad {rtype} record: {problem}")


TOOLS = {"export": ("aa.rdf", []), "stats": ("aa.stats", ["--report", "graph"])}


def run_tool(tool: str, journal: str, *args: str) -> subprocess.CompletedProcess:
    module, extra = TOOLS[tool]
    return subprocess.run([sys.executable, "-m", module, "--journal", journal,
                           *extra, *args],
                          env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=60)


def assert_one_line_error(done: subprocess.CompletedProcess, expected: str) -> None:
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: ") and expected in lines[0]


@pytest.mark.parametrize("tool", sorted(TOOLS))
@pytest.mark.parametrize("case,data,problem", BAD_SHOUTS,
                         ids=[c[0] for c in BAD_SHOUTS])
def test_tool_reports_bad_record_in_one_line(tmp_path, tool, case, data, problem):
    path = bad_shout_journal(tmp_path, data)
    assert_one_line_error(run_tool(tool, path), f"seq 2: bad shout record: {problem}")


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_tool_reports_seq_gap_in_one_line(tmp_path, tool):
    path = write_journal(tmp_path / "gap.jsonl",
                         [(1, "shout", GOOD), (3, "shout", {**GOOD, "id": "b"})])
    assert_one_line_error(run_tool(tool, path), ":2: seq 3, expected 2")


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_tool_reports_missing_journal_in_one_line(tmp_path, tool):
    path = str(tmp_path / "typo.jsonl")
    assert_one_line_error(run_tool(tool, path), f"{path}: No such file or directory")


@pytest.mark.parametrize("main", [rdf.main, stats.main], ids=["export", "stats"])
def test_tool_reports_unreadable_journal_in_one_line(tmp_path, monkeypatch, capsys, main):
    path = write_journal(tmp_path / "j.jsonl", [(1, "shout", GOOD)])

    def refuse(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", file)

    monkeypatch.setattr(jn, "open", refuse, raising=False)  # even root is refused
    assert main(["--journal", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: Permission denied\n")


def test_export_reports_an_unwritable_output_in_one_line(tmp_path):
    path = write_journal(tmp_path / "j.jsonl", [(1, "shout", GOOD)])
    output = str(tmp_path / "missing" / "x.nt")
    assert_one_line_error(run_tool("export", path, "-o", output),
                          f"error: {output}: No such file or directory")


def test_stats_reports_a_missing_stopword_file_in_one_line(tmp_path):
    path = write_journal(tmp_path / "j.jsonl", [(1, "shout", GOOD)])
    stopwords = str(tmp_path / "sw.txt")
    assert_one_line_error(run_tool("stats", path, "--stopwords", stopwords),
                          f"error: {stopwords}: No such file or directory")


def test_stats_reads_a_bad_byte_in_the_stopword_file_as_replacement(tmp_path, capsys):
    path = write_journal(tmp_path / "j.jsonl", [(1, "shout", GOOD)])
    stopwords = tmp_path / "sw.txt"
    stopwords.write_bytes(b"caf\xe9\nhello\n")
    assert stats._load_stopwords(str(stopwords)) == {"caf\ufffd", "hello"}
    assert stats.main(["--journal", path, "--report", "tokens", "--tsv",
                       "--stopwords", str(stopwords)]) == 0
    assert "hello" not in capsys.readouterr().out


GOLDEN = Path(__file__).resolve().parent / "data" / "golden.jsonl"


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_tool_reports_a_journal_line_that_is_not_utf8_in_one_line(tmp_path, tool):
    first, rest = GOLDEN.read_bytes().split(b"\n", 1)
    assert b'"start"' in first
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(first.replace(b'"start"', b'"st\xe9rt"', 1) + b"\n" + rest)
    assert_one_line_error(run_tool(tool, str(path)), f"{path}:1: not UTF-8 (")


def run_server(journal: str) -> subprocess.CompletedProcess:
    # a server that got past its journal would bind and serve until the timeout
    return subprocess.run([sys.executable, "-m", "aa.server", "--journal", journal,
                           "--host", "127.0.0.1", "--port", "0"],
                          env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=60)


def test_server_reports_a_seq_gap_in_one_line(tmp_path):
    path = write_journal(tmp_path / "gap.jsonl",
                         [(1, "shout", GOOD), (3, "shout", {**GOOD, "id": "b"})])
    assert_one_line_error(run_server(path), f"error: {path}:2: seq 3, expected 2")


def test_server_reports_a_journal_held_by_another_writer_in_one_line(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with jn.Journal(path):
        done = run_server(path)
    assert_one_line_error(done, f"error: journal {path} is locked by another writer")


def test_server_reports_a_missing_directory_in_one_line(tmp_path):
    path = str(tmp_path / "missing" / "j.jsonl")
    assert_one_line_error(run_server(path), f"error: cannot open journal {path}: ")


def test_a_created_past_year_9999_stops_the_year_histogram_in_one_line(tmp_path):
    path = bad_shout_journal(tmp_path, broken(created=10**20))
    done = subprocess.run([sys.executable, "-m", "aa.stats", "--journal", path,
                           "--report", "histogram:year"],
                          env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=60)
    assert_one_line_error(done, "seq 2: bad shout record: created: timestamp")
