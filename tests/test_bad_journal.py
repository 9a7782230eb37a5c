"""A journal that cannot be decoded stops replay with a JournalError naming the
file and the seq, and aa-export and aa-stats report it in one line, exit 2."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from aa import journal as jn
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


TOOLS = {"export": ("aa.rdf", []), "stats": ("aa.stats", ["--report", "graph"])}


def run_tool(tool: str, journal: str) -> subprocess.CompletedProcess:
    module, extra = TOOLS[tool]
    return subprocess.run([sys.executable, "-m", module, "--journal", journal, *extra],
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
