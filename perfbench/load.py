"""The server workloads: closed-loop clients against ``aa-server``.

Each client sends its next request only after the previous reply, through
``aa.client``'s transport with a fresh connection per request, as ``aa``
and ``aa-bot`` do. Every request carries a ``rid`` query parameter, which
the server ignores and the traced launcher uses to match server spans to
client latencies.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import gen
from proc import Bench, BenchError, Server

CLIENTS = 2
# ingest restarts the server on an empty journal for each epoch of
# EPOCH_CYCLES script rounds per client, so its journal never outgrows
# what one epoch writes and every epoch does the same work
EPOCH_CYCLES = 80
READMIX_SLICES = 8
READMIX_SETUPS_PER_PAUSE = 2
REFERENCE_RUNS = 2
READMIX_RECORDS = 20_000
READMIX_USERS = 40
READMIX_SCRIPT_OPS = 20_000
SHOUTS_PER_SESSION = 8
CLIENT_TIMEOUT_S = 10.0


@dataclass
class Sample:
    kind: str
    ms: float
    ok: bool
    rid: int
    done_s: float


@dataclass
class Acked:
    shouts: list[str] = field(default_factory=list)
    opened: list[str] = field(default_factory=list)
    closed: list[str] = field(default_factory=list)
    user_bytes: int = 0


@dataclass
class Phase:
    """What the clients of a phase saw, over all its servers and slices."""
    samples: list[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    slice_rates: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    journal_bytes: int = 0
    records: int = 0
    user_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    rids: itertools.count = field(default_factory=lambda: itertools.count(1))


def ingest_ops(client: dict):
    """EPOCH_CYCLES rounds of the `aa start` script without its waits:
    start, 8 shouts, stop, report."""
    nick = client["nick"]
    texts = iter(client["shouts"])
    for _ in range(EPOCH_CYCLES):
        yield "session", "POST", "/message", {}, {"nick": nick, "msg": "start"}
        for _ in range(SHOUTS_PER_SESSION):
            yield "shout", "POST", "/shout", {"nick": nick, "msg": next(texts),
                                              "source": "http"}, None
        yield "session", "POST", "/message", {}, {"nick": nick, "msg": "stop"}
        yield "report", "GET", "/report", {"n": 20}, None


def readmix_ops(ops: list[dict]):
    for op in itertools.cycle(ops):
        if op["op"] == "shout":
            yield "shout", "POST", "/shout", {"nick": op["nick"], "msg": op["msg"],
                                              "source": "http"}, None
        elif op["op"] == "report":
            yield "report", "GET", "/report", {"n": 20}, None
        else:
            yield "listing", "GET", "/shouts", {"format": "json",
                                                "nick": op["nick"]}, None


def _acknowledge(acked: Acked, method: str, params: dict, body: dict | None,
                 reply) -> None:
    if method != "POST":
        return
    msg = (body or params)["msg"]
    acked.user_bytes += len(msg.encode())
    if "id" in reply:
        acked.shouts.append(reply["id"])
    elif reply.get("result") == "start":
        acked.opened.append(reply["session"])
    elif reply.get("result") == "stop":
        acked.closed.append(reply["session"])


def drive(url: str, streams: list, seconds: float, spool: str, phase: Phase,
          acked: Acked) -> None:
    """Run one closed-loop client thread per stream until the deadline or
    the end of its stream.

    A stream is taken up where the previous slice left it, and the slice's
    completion times continue the phase's clock.
    """
    from aa.client import ClientConfig, _call

    lock = threading.Lock()
    done: list[int] = []
    offset = phase.elapsed_s
    started = perf_counter()
    deadline = started + seconds

    def client(stream) -> None:
        config = ClientConfig(server=url, spool=spool, timeout=CLIENT_TIMEOUT_S)
        mine: list[Sample] = []
        for kind, method, path, params, body in stream:
            if perf_counter() >= deadline:
                break
            with lock:
                rid = next(phase.rids)
            start = perf_counter()
            try:
                reply = _call(config, method, path, params={**params, "rid": rid},
                              body=body)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                mine.append(Sample(kind, math.inf, False, rid,
                                   offset + perf_counter() - started))
                with lock:
                    phase.failures.append(f"{method} {path}: {exc!r}")
                continue
            end = perf_counter()
            mine.append(Sample(kind, (end - start) * 1e3, True, rid,
                               offset + end - started))
            with lock:
                _acknowledge(acked, method, params, body, reply)
        with lock:
            phase.samples.extend(mine)
            done.append(sum(sample.ok for sample in mine))

    threads = [threading.Thread(target=client, args=(s,)) for s in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - started
    phase.elapsed_s += elapsed
    phase.slice_rates.append(sum(done) / elapsed)


def check_journal(journal: str, acked: Acked, live: list) -> list[str]:
    """Replay the stopped server's journal and hold it to what was acknowledged."""
    from aa import journal as jn
    from aa.store import Store

    problems = []
    seqs = []
    events: Counter = Counter()
    for record in jn.read_records(journal):
        seqs.append(record.seq)
        if record.type == "session":
            events[(record.data["id"], record.data.get("event"))] += 1
    if seqs != list(range(1, len(seqs) + 1)):
        problems.append(f"journal seq is not 1..{len(seqs)} without gaps")

    store = Store(journal)
    try:
        stored = Counter(s.id for s in store.state.shouts)
        replayed = json.loads(store.shouts_json())
    finally:
        store.close()
    acked_twice = [i for i, n in Counter(acked.shouts).items() if n > 1]
    not_once = [i for i in acked.shouts if stored[i] != 1]
    if acked_twice or not_once:
        problems.append(f"{len(not_once)} acknowledged shout ids not stored exactly "
                        f"once, {len(acked_twice)} acknowledged twice")
    for event, ids in (("open", acked.opened), ("close", acked.closed)):
        wrong = [i for i in ids if events[(i, event)] != 1]
        if wrong:
            problems.append(f"{len(wrong)} acknowledged session {event} events "
                            f"not journaled exactly once")
    if replayed != live:
        problems.append(f"replayed listing ({len(replayed)} shouts) differs from "
                        f"the last live GET /shouts ({len(live)} shouts)")
    return problems


def serve(bench: Bench, journal: str, streams: list, seconds: float, phase: Phase,
          spans: str | None = None, between=None, slices: int = 1) -> float:
    """One server lifetime on ``journal``, driven for ``seconds`` in
    ``slices`` equal slices; returns the server's set-up time.

    ``between`` runs before the first slice and after each one, while the
    clients are paused; the pause is not measured. After the server stops,
    its journal is held to what the clients saw acknowledged.
    """
    from aa.client import ClientConfig, _call

    size_before = os.path.getsize(journal) if os.path.exists(journal) else 0
    spool = bench.path("spool.jsonl")
    acked = Acked()
    server = Server(bench, journal, spans)
    try:
        for _ in range(slices):
            if between:
                between()
            drive(server.url, streams, seconds / slices, spool, phase, acked)
        if between:
            between()
        live = _call(ClientConfig(server=server.url, spool=spool, timeout=60),
                     "GET", "/shouts", params={"format": "json"})
    finally:
        code = server.stop()
    problems = [] if code == 0 else [f"server exited with code {code}"]
    problems += check_journal(journal, acked, live)
    phase.problems += [f"server {len(phase.slice_rates)}: {p}" for p in problems]
    with open(journal, "rb") as fh:
        phase.records += sum(1 for _ in fh)
    phase.journal_bytes += os.path.getsize(journal) - size_before
    phase.user_bytes += acked.user_bytes
    if spans:
        with open(spans, encoding="utf-8") as fh:
            phase.spans.append(json.load(fh))
    return server.setup_s


def set_up(bench: Bench, journal: str, spawns: int) -> list[float]:
    """Start and stop the server on a journal; each start's time to accept."""
    times = []
    for _ in range(spawns):
        server = Server(bench, journal, None)
        times.append(server.setup_s)
        server.wait_serving()
        code = server.stop()
        if code != 0:
            raise BenchError(f"server exited with code {code} after set-up:\n"
                             f"{server.log_tail()}")
    return times


def run(bench: Bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: the whole run, timing every server start. Traced: half the
    time untraced, then half traced."""
    seeded = None
    seeded_records = 0
    inputs = {}
    if workload == "read-mix":
        seeded = bench.path("seed.jsonl")
        items = gen.build_journal(seed, READMIX_RECORDS, READMIX_USERS,
                                  gen.Texts(random.Random(seed + 1)))
        gen.write_journal(seeded, items)
        seeded_records = len(items)
        inputs["journal"] = gen.sha256_of(seeded)
        script = gen.readmix_script(seed, CLIENTS, READMIX_SCRIPT_OPS, READMIX_USERS)
    else:
        script = gen.ingest_script(seed, CLIENTS, EPOCH_CYCLES * SHOUTS_PER_SESSION)
    gen.write_json(bench.path("script.json"), script)
    inputs["script"] = gen.sha256_of(bench.path("script.json"))

    def fresh_journal(name: str) -> str:
        path = bench.path(name)
        if seeded:
            shutil.copyfile(seeded, path)
        elif os.path.exists(path):
            os.remove(path)
        return path

    setups: list[float] = []
    reference: list[float] = []

    def phase_of(seconds: float, spans: bool) -> Phase:
        phase = Phase()
        spans_file = bench.path("spans-server.json") if spans else None
        if workload == "ingest":
            # every epoch starts a server on an empty journal: one set-up each
            while phase.elapsed_s < seconds:
                if not trace:
                    reference.extend(bench.reference(REFERENCE_RUNS))
                setups.append(serve(bench, fresh_journal("load.jsonl"),
                                    [ingest_ops(client) for client in script],
                                    seconds, phase, spans_file))
            if not trace:
                reference.extend(bench.reference(REFERENCE_RUNS))
            return phase
        # read-mix starts one server; set-up and the reference work are
        # timed again on an unloaded copy of the journal in every pause of
        # the load, so their samples span the same stretch of time as the
        # load's
        idle = fresh_journal("setup.jsonl")

        def pause() -> None:
            setups.extend(set_up(bench, idle, READMIX_SETUPS_PER_PAUSE))
            reference.extend(bench.reference(REFERENCE_RUNS))

        setups.append(serve(bench, fresh_journal("load.jsonl"),
                            [readmix_ops(ops) for ops in script], seconds, phase,
                            spans_file, None if trace else pause, READMIX_SLICES))
        return phase

    if trace:
        phases = {"untraced": phase_of(seconds / 2, False),
                  "traced": phase_of(seconds / 2, True)}
        setups.clear()
    else:
        phases = {"untraced": phase_of(seconds, False)}
    return {"inputs": inputs, "setup_s": setups, "reference_s": reference,
            "phases": phases, "seeded_records": seeded_records}
