"""The offline workload: mine a chat log into a journal, export it, run stats.

Each pass starts from a fresh copy of the seeded journal and runs, as
separate processes through each tool's ``main``:
``aa-mine --mode prefix --corpus``, ``aa-export --format ntriples
--validate`` and four ``aa-stats`` reports. Every tool replays the journal
on its own, so replay cost repeats once per tool.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import gen
from proc import Bench, BenchError

RECORDS = 6_000
LINES = 6_000
USERS = 40
SETUPS_PER_PAUSE = 2
REFERENCE_RUNS = 2
STATS_REPORTS = ("summary", "histogram:hour_of_day", "tokens", "graph")
MINING_FIELDS = ("scanned", "candidates", "duplicates_discarded", "kept")


@dataclass
class Invocation:
    label: str
    code: int
    wall_s: float


@dataclass
class Pass:
    invocations: list[Invocation]
    records: int
    journal_bytes: int
    problems: list[str]


@dataclass
class Phase:
    passes: list[Pass]
    elapsed_s: float
    spans: list[dict] = field(default_factory=list)


def _shout_count(journal: str) -> tuple[int, int]:
    """Records and shout records, read straight from the file format."""
    records = shouts = 0
    with open(journal, encoding="utf-8") as fh:
        for line in fh:
            records += 1
            shouts += json.loads(line)["type"] == "shout"
    return records, shouts


class History:
    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        texts = gen.Texts(random.Random(seed + 1))
        items = gen.build_journal(seed, RECORDS, USERS, texts)
        self.seeded = bench.path("seed.jsonl")
        gen.write_journal(self.seeded, items)
        self.chatlog = bench.path("channel.log")
        self.planted = gen.write_chatlog(self.chatlog, seed, LINES,
                                         gen.shout_texts(items), texts)
        self.spec = bench.path("channel.conf")
        with open(self.spec, "w", encoding="utf-8") as fh:
            fh.write(f"kind = chatlog\npath = {self.chatlog}\n")
        self.seeded_records = len(items)
        self.seeded_shouts = sum(1 for rtype, _ in items if rtype == "shout")
        self.inputs = {"journal": gen.sha256_of(self.seeded),
                       "chatlog": gen.sha256_of(self.chatlog)}

    def setup(self, spawns: int) -> list[float]:
        """Cold start of a tool: spawn, import, replay the seeded journal."""
        walls = []
        for _ in range(spawns):
            code, wall, _, err = self.bench.run_tool("replay", [self.seeded])
            if code != 0:
                raise BenchError(f"replay of the seeded journal failed: {err[-500:]}")
            walls.append(wall)
        return walls

    def one_pass(self, spans_prefix: str | None) -> tuple[Pass, list[dict]]:
        journal = self.bench.path("pass.jsonl")
        shutil.copyfile(self.seeded, journal)
        size_before = os.path.getsize(journal)
        export = self.bench.path("export.nt")
        steps = [("mine", "mine", ["--source", self.spec, "--mode", "prefix",
                                   "--corpus", journal]),
                 ("export", "export", ["--journal", journal, "--format", "ntriples",
                                       "--validate", "-o", export])]
        steps += [("stats", f"stats:{report}", ["--journal", journal, "--report", report])
                  for report in STATS_REPORTS]
        invocations, outputs, summaries = [], {}, []
        for k, (entry, label, args) in enumerate(steps):
            spans = f"{spans_prefix}-{k}.json" if spans_prefix else None
            code, wall, out, err = self.bench.run_tool(entry, args, spans)
            invocations.append(Invocation(label, code, wall))
            outputs[label] = (code, out, err)
            if spans and code == 0:
                with open(spans, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
        records, shouts = _shout_count(journal)
        done = Pass(invocations, records, os.path.getsize(journal) - size_before,
                    self.check(outputs, shouts))
        os.remove(journal)
        os.remove(export)
        return done, summaries

    def check(self, outputs: dict, shouts: int) -> list[str]:
        problems = [f"{label} exited with code {code}: {err.strip()[-300:]}"
                    for label, (code, _, err) in outputs.items() if code != 0]
        if problems:
            return problems
        report = json.loads(outputs["mine"][1])
        for name in MINING_FIELDS:
            if report[name] != self.planted[name]:
                problems.append(f"mining report {name}={report[name]}, "
                                f"planted {self.planted[name]}")
        violations = json.loads(outputs["export"][2])
        if violations:
            problems.append(f"aa-export --validate found {len(violations)} violations")
        expected = self.seeded_shouts + self.planted["kept"]
        if shouts != expected:
            problems.append(f"journal holds {shouts} shouts after mining, "
                            f"expected {expected}")
        summary = json.loads(outputs["stats:summary"][1])
        for key in ("by_kind", "by_user"):
            total = sum(summary[key].values())
            if total != shouts:
                problems.append(f"aa-stats summary {key} totals {total}, "
                                f"journal holds {shouts} shouts")
        return problems

    def passes(self, seconds: float, traced: bool, between=None) -> Phase:
        """Passes until their summed wall time reaches ``seconds``.

        ``between`` runs before the first pass and after each one, outside
        the measured time.
        """
        phase = Phase([], 0.0)
        while phase.elapsed_s < seconds:
            if between:
                between()
            prefix = self.bench.path(f"spans-{len(phase.passes)}") if traced else None
            start = perf_counter()
            done, summaries = self.one_pass(prefix)
            phase.elapsed_s += perf_counter() - start
            phase.passes.append(done)
            phase.spans += summaries
        if between:
            between()
        return phase


def run(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    history = History(bench, seed)
    setups: list[float] = []
    reference: list[float] = []

    def pause() -> None:
        setups.extend(history.setup(SETUPS_PER_PAUSE))
        reference.extend(bench.reference(REFERENCE_RUNS))

    if not trace:
        # set-up and the reference work are timed in every pause between
        # passes, so their samples span the same stretch of time as the passes
        phases = {"untraced": history.passes(seconds, traced=False, between=pause)}
    else:
        phases = {"untraced": history.passes(seconds / 2, traced=False),
                  "traced": history.passes(seconds / 2, traced=True)}
    return {"inputs": history.inputs, "planted": history.planted,
            "setup_s": setups, "reference_s": reference, "phases": phases,
            "seeded_records": history.seeded_records}
