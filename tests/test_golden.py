"""Golden outputs: aa-export and aa-stats on a small fixture journal, byte for byte.

``data/golden.jsonl`` covers the text an export has to escape (quote,
backslash, tab, CR, LF, other C0 controls, U+007F, non-ASCII and astral
characters), a nick and a session id that need percent-encoding, a
screencast, ``client_created``, a lost-slot marker, every message kind,
source and deviation, tags in every form and scope, and a review that
replaces an earlier one. ``data/golden-dup-id.jsonl`` is the same journal
with one more shout record reusing an id, which breaks a functional
property. The expected outputs under ``data/golden/`` were written by an
earlier version of the tools, and every version must reproduce them
exactly: the exit code, stdout and stderr of each tool's ``main``.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from aa import rdf, stats

DATA = os.path.join(os.path.dirname(__file__), "data")
JOURNAL = os.path.join(DATA, "golden.jsonl")
DUP_JOURNAL = os.path.join(DATA, "golden-dup-id.jsonl")

SCALES = ("second_of_minute", "minute_of_hour", "hour_of_day", "day_of_week",
          "day_of_month", "month", "year")
REPORTS = ("summary", *(f"histogram:{s}" for s in SCALES), "tokens", "graph")

# (tool, argv, exit code, expected stdout file, expected stderr file);
# no file means the stream must stay empty
CASES = [
    (rdf, ["--journal", JOURNAL], 0, "export.nt", None),
    (rdf, ["--journal", JOURNAL, "--data-only"], 0, "export-data-only.nt", None),
    (rdf, ["--journal", JOURNAL, "--format", "turtle"], 0, "export.ttl", None),
    (rdf, ["--journal", JOURNAL, "--validate"], 0, "export.nt", "validate.json"),
    (rdf, ["--journal", DUP_JOURNAL, "--validate"], 1, "export-dup-id.nt",
     "validate-dup-id.json"),
]
for report in REPORTS:
    for form in ("", "--json", "--tsv"):
        name = "stats-" + report.replace(":", "-") + (form and "-" + form[2:])
        argv = ["--journal", JOURNAL, "--report", report] + ([form] if form else [])
        CASES.append((stats, argv, 0, name + ".out", None))
for report in ("tokens", "graph"):
    CASES.append((stats, ["--journal", JOURNAL, "--report", report,
                          "--include-machine"], 0, f"stats-{report}-machine.out", None))


def run_tool(tool, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tool.main(argv)
    return code, out.getvalue(), err.getvalue()


def expected(name: str | None) -> bytes:
    if name is None:
        return b""
    with open(os.path.join(DATA, "golden", name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("tool,argv,code,out_file,err_file", CASES,
                         ids=[" ".join([c[0].__name__[3:], os.path.basename(c[1][1]),
                                        *c[1][2:]]) for c in CASES])
def test_output_matches_golden(tool, argv, code, out_file, err_file):
    got_code, out, err = run_tool(tool, argv)
    assert got_code == code
    assert out.encode("utf-8") == expected(out_file)
    assert err.encode("utf-8") == expected(err_file)
