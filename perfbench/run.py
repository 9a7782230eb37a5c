"""aa-suite benchmark: seeded workloads against the unmodified suite.

    python3 perfbench/run.py --workload ingest|read-mix|history|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from ``--seed``;
the server runs as its own process started through ``aa.server.main``
and the tools through their ``main``. Every run checks the suite's
outputs and fails, without reporting numbers, if a check fails.

With ``--trace 0`` the run measures untraced for ``--seconds`` and prints
the end-to-end metrics. With ``--trace 1`` it measures half the time
untraced and half traced, and prints the per-layer metrics plus the
tracing overhead. The last line of output is one JSON object carrying the
metrics named in BENCHMARK.json; the lines before it print every metric by
name and unit. A fuller record goes to ``.bench_build/BENCH_<workload>.json``.
The gated timings and rates are in reference time: scaled by the run's
median wall time of ``reference.py``, which runs in the pauses of the load
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys

import history
import load
from proc import ROOT, SRC, Bench, BenchError

WORKLOADS = ("ingest", "read-mix", "history")
FLUSH_POLICY = "fsync per append (server and aa-mine)"
REPORTED = (
    ("setup_s", "s"), ("ops_per_ref_s", "1/ref_s"), ("write_p50_ref_ms", "ref_ms"),
    ("read_p50_ref_ms", "ref_ms"), ("reference_s", "s"),
    ("ops_per_s", "1/s"), ("write_p50_ms", "ms"), ("read_p50_ms", "ms"),
    ("error_rate", "ratio"),
    ("shout_p50_ms", "ms"), ("shout_p99_ms", "ms"),
    ("session_p50_ms", "ms"), ("session_p95_ms", "ms"),
    ("report_p50_ms", "ms"), ("report_p95_ms", "ms"),
    ("listing_p50_ms", "ms"), ("listing_p95_ms", "ms"),
    ("mine_lines_per_s", "1/s"), ("export_records_per_s", "1/s"),
    ("stats_records_per_s", "1/s"),
)
# one run of reference.py counts as this many reference seconds
REFERENCE_S = 0.1
ROUTE_TAILS = (("shout", 0.99), ("session", 0.95), ("report", 0.95),
               ("listing", 0.95))
SPAN_OF = {"server.self_ms": "server.handle",
           "store.receive_shout_self_ms": "store.receive_shout",
           "store.receive_message_self_ms": "store.receive_message"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations sit at +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_supported(n: int, q: float) -> bool:
    """A tail percentile needs at least ten samples beyond it."""
    return n * (1 - q) >= 10


def better_quartile(values: list[float], better: str) -> float:
    """The quartile on the better side of a run's per-window figures.

    Interference from other tenants of the machine only ever slows a window
    down. The better quartile is blind to a stall that covers less than
    three quarters of the run, while a change to the program moves every
    window.
    """
    if len(values) < 2:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low if better == "lower" else high


# -- end-to-end ----------------------------------------------------------------


def in_reference_time(values: dict, counts: dict, reference: list[float]) -> None:
    """Add the gated figures in reference time.

    The machine's speed drifts by up to 2x within minutes, and every timing
    of a run drifts with it. The reference work does not touch the suite,
    so the run's median reference time measures the machine alone: a
    timing is scaled by REFERENCE_S over it, a rate by its inverse.
    """
    measured = statistics.median(reference)
    scale = REFERENCE_S / measured
    values["reference_s"], counts["reference_s"] = measured, len(reference)
    values["ops_per_ref_s"] = values["ops_per_s"] / scale
    counts["ops_per_ref_s"] = counts["ops_per_s"]
    for name in ("write_p50", "read_p50"):
        values[f"{name}_ref_ms"] = values[f"{name}_ms"] * scale
        counts[f"{name}_ref_ms"] = counts[f"{name}_ms"]


def server_metrics(result: dict) -> tuple[dict, dict, int, int]:
    """Completion rate: the better quartile of the rates of the run's load
    slices (ingest: one slice per server). Latency: pooled over the run."""
    phase = result["phases"]["untraced"]
    samples = phase.samples
    ok = sum(s.ok for s in samples)
    values = {"ops_per_s": better_quartile(phase.slice_rates, "higher"),
              "error_rate": (len(samples) - ok) / max(1, len(samples))}
    counts = {"ops_per_s": len(samples), "error_rate": len(samples)}
    if result["setup_s"]:
        values["setup_s"] = statistics.median(result["setup_s"])
        counts["setup_s"] = len(result["setup_s"])
    for kind, tail in ROUTE_TAILS:
        ms = [s.ms for s in samples if s.kind == kind]
        if not ms:
            continue
        values[f"{kind}_p50_ms"] = statistics.median(ms)
        counts[f"{kind}_p50_ms"] = len(ms)
        if tail_supported(len(ms), tail):
            values[f"{kind}_p{round(tail * 100)}_ms"] = percentile(ms, tail)
            counts[f"{kind}_p{round(tail * 100)}_ms"] = len(ms)
    # each route counts once: a median pooled over routes of different cost
    # falls in the gap between their clusters and jumps with the mix
    for name, kinds in (("write_p50_ms", ("shout", "session")),
                        ("read_p50_ms", ("report", "listing"))):
        routes = [k for k in kinds if f"{k}_p50_ms" in values]
        if routes:
            values[name] = statistics.fmean(values[f"{k}_p50_ms"] for k in routes)
            counts[name] = sum(counts[f"{k}_p50_ms"] for k in routes)
    if result["reference_s"]:
        in_reference_time(values, counts, result["reference_s"])
    return values, counts, len(samples), len(samples) - ok


def history_metrics(result: dict) -> tuple[dict, dict, int, int]:
    """Each pass is one window: figures per pass, then the better quartile."""
    phase = result["phases"]["untraced"]
    planted = result["planted"]
    calls = [i for p in phase.passes for i in p.invocations]
    ok = sum(i.code == 0 for i in calls)
    walls: dict[str, list[float]] = {}
    for i in calls:
        walls.setdefault(i.label, []).append(i.wall_s * 1e3)
    per_pass = {"ops_per_s": [], "mine_lines_per_s": [], "export_records_per_s": [],
                "stats_records_per_s": []}
    for p in phase.passes:
        wall = {i.label: i.wall_s for i in p.invocations}
        stats_wall = sum(w for label, w in wall.items() if label.startswith("stats:"))
        per_pass["ops_per_s"].append(sum(i.code == 0 for i in p.invocations)
                                     / sum(wall.values()))
        per_pass["mine_lines_per_s"].append(planted["scanned"] / wall["mine"])
        per_pass["export_records_per_s"].append(p.records / wall["export"])
        per_pass["stats_records_per_s"].append(
            p.records * sum(label.startswith("stats:") for label in wall) / stats_wall)
    values = {name: better_quartile(series, "higher") for name, series in per_pass.items()}
    counts = {name: len(series) for name, series in per_pass.items()}
    counts["ops_per_s"] = len(calls)
    values["error_rate"], counts["error_rate"] = (len(calls) - ok) / max(1, len(calls)), len(calls)
    route = {label: better_quartile(ms, "lower") for label, ms in walls.items()}
    values["write_p50_ms"], counts["write_p50_ms"] = route["mine"], len(walls["mine"])
    reads = [label for label in walls if label != "mine"]
    values["read_p50_ms"] = statistics.fmean(route[label] for label in reads)
    counts["read_p50_ms"] = sum(len(walls[label]) for label in reads)
    if result["setup_s"]:
        values["setup_s"] = statistics.median(result["setup_s"])
        counts["setup_s"] = len(result["setup_s"])
    if result["reference_s"]:
        in_reference_time(values, counts, result["reference_s"])
    return values, counts, len(calls), len(calls) - ok


# -- per layer -------------------------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    merged = {"spans": {}, "counters": {}, "requests": {}, "request_self_ms": {}}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_ms": 0.0,
                                                     "self_ms": 0.0})
            for key in into:
                into[key] += entry[key]
        for key in ("counters", "request_self_ms"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["requests"].update(summary["requests"])
    return merged


def layer_metrics(workload: str, result: dict, layers: list[dict]) -> tuple[dict, dict, dict]:
    """Per-layer values, call counts beside the timings, and latency accounting."""
    traced, untraced = result["phases"]["traced"], result["phases"]["untraced"]
    server = workload != "history"
    summary = merge(traced.spans)
    if server:
        ops = sum(s.ok for s in traced.samples)
        units, records, user_bytes = len(traced.spans), traced.records, traced.user_bytes
        journal_bytes = traced.journal_bytes
        lines = 0
        ops_ratio = ((ops / traced.elapsed_s)
                     / (sum(s.ok for s in untraced.samples) / untraced.elapsed_s))
    else:
        ops = sum(i.code == 0 for p in traced.passes for i in p.invocations)
        units = len(traced.passes)
        records = traced.passes[-1].records
        user_bytes = result["planted"]["kept_bytes"] * units
        journal_bytes = sum(p.journal_bytes for p in traced.passes)
        lines = result["planted"]["scanned"] * units
        untraced_calls = sum(i.code == 0 for p in untraced.passes for i in p.invocations)
        ops_ratio = (ops / traced.elapsed_s) / (untraced_calls / untraced.elapsed_s)
    spans, counters = summary["spans"], summary["counters"]

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values, call_counts = {}, {}
    for layer in layers:
        name = layer["name"]
        if layer["unit"] == "ms" and name != "client.gap_ms":
            span = SPAN_OF.get(name, name[:-len("_ms")])
            values[name] = ratio(spans.get(span, {}).get("self_ms", 0.0), calls(span))
            call_counts[name] = calls(span)
    examined = sum(counters.get(f"examined:store.{q}", 0) for q in ("report", "list_shouts"))
    returned = sum(counters.get(f"returned:store.{q}", 0) for q in ("report", "list_shouts"))
    values.update({
        "server.requests": counters.get("server.requests", 0),
        "server.errors": counters.get("server.errors", 0),
        "store.shouts_examined_per_returned": ratio(examined, returned),
        "parsing.calls": ratio(calls("parsing.parse"), ops),
        "journal.records_per_fsync": ratio(counters.get("journal.records_appended", 0),
                                           calls("journal.fsync")),
        "journal.bytes_per_user_byte": ratio(journal_bytes, user_bytes),
        "journal.replay_calls": ratio(calls("journal.replay"), units),
        "journal.records_replayed_per_record": ratio(
            counters.get("journal.read_records.items", 0),
            result["seeded_records"] * units),
        "miner.kept_per_candidate": ratio(result.get("planted", {}).get("kept", 0),
                                          result.get("planted", {}).get("candidates", 0)),
        "miner.parses_per_line": ratio(calls("parsing.parse"), lines),
        "rdf.triples_per_record": ratio(counters.get("rdf.triples", 0), records * units),
        "trace.ops_ratio": ops_ratio,
    })
    accounting = {}
    matched = [s for s in traced.samples if s.ok and str(s.rid) in summary["requests"]] \
        if server else []
    if matched:
        n = len(matched)
        client = sum(s.ms for s in matched) / n
        gap = sum(s.ms - summary["requests"][str(s.rid)] for s in matched) / n
        values["client.gap_ms"] = gap
        call_counts["client.gap_ms"] = n
        accounting = {"requests": n, "client_ms": client, "gap_ms": gap}
        for layer, total in sorted(summary["request_self_ms"].items()):
            accounting[f"{layer}_self_ms"] = total / n
        accounting["unattributed_ms"] = client - gap - sum(
            total / n for total in summary["request_self_ms"].values())
    else:
        values["client.gap_ms"] = 0.0
        call_counts["client.gap_ms"] = 0
    return values, call_counts, accounting


# -- output ----------------------------------------------------------------------


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "flush_policy": FLUSH_POLICY}


def problems_of(workload: str, result: dict) -> list[str]:
    problems = []
    for mode, phase in result["phases"].items():
        found = (phase.problems if workload != "history"
                 else [q for p in phase.passes for q in p.problems])
        problems += [f"{mode}: {q}" for q in found]
    return problems


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 bench_json: dict, layers: list[dict]) -> dict:
    """Run one workload, print its metrics and return the result line."""
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{workload}-{os.getpid()}")
    bench = Bench(workdir)
    try:
        if workload == "history":
            result = history.run(bench, seed, seconds, trace)
        else:
            result = load.run(bench, workload, seed, seconds, trace)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)} "
          + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, digest in result["inputs"].items():
        print(f"input {name} sha256 {digest}")
    for mode, phase in result["phases"].items():
        for failure in getattr(phase, "failures", [])[:5]:
            print(f"failed operation ({mode}): {failure}")
    problems = problems_of(workload, result)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    values, counts, attempted, failed = (history_metrics(result) if workload == "history"
                                         else server_metrics(result))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "inputs": result["inputs"], "problems": problems,
              "attempted": attempted, "failed": failed}
    if trace:
        layer_values, call_counts, accounting = layer_metrics(workload, result, layers)
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
                   for m in bench_json["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values.get(m["name"], math.nan), "unit": m["unit"]}
                   for m in bench_json["end_to_end"]}
    unusable = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if unusable:
        problems.append(f"no finite value for {', '.join(unusable)}")
        print(f"CHECK FAILED no finite value for {', '.join(unusable)}", file=sys.stderr)
    if not problems:
        record["end_to_end"] = {name: {"value": values[name], "unit": unit,
                                       "samples": counts[name]}
                                for name, unit in REPORTED if name in values}
        print(f"{'metric':34} {'value':>14} {'unit':6} samples")
        for name, unit in REPORTED:
            shown = fmt(values[name]) if name in values else "n/a"
            print(f"{name:34} {shown:>14} {unit:6} {counts.get(name, '')}")
    if trace and not problems:
        record["per_layer"] = {layer["name"]: {"value": layer_values[layer["name"]],
                                               "unit": layer["unit"],
                                               "calls": call_counts.get(layer["name"])}
                               for layer in layers}
        record["latency_accounting"] = accounting
        for layer in layers:
            name = layer["name"]
            calls = call_counts.get(name)
            print(f"{name:34} {fmt(layer_values[name]):>14} {layer['unit']:6} "
                  + (f"calls={calls}" if calls is not None else ""))
        if accounting:
            print("latency accounting per request: " + " ".join(
                f"{k}={fmt(v)}" for k, v in accounting.items()))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", f"BENCH_{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    correct = not problems
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics if correct else {}}
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "aa", "server.py")):
        print(f"perfbench: no aa-suite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_json = json.load(fh)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            lines[workload] = run_workload(workload, args.seed, args.seconds,
                                              bool(args.trace), bench_json, layers)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{w}.{name}": m for w, l in lines.items()
                            for name, m in l["metrics"].items()}}
    else:
        line = lines[args.workload]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
