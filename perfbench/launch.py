"""Run one suite entry point in this process, optionally traced.

    python3 perfbench/launch.py ENTRY SPANS_FILE -- ARGS...

ENTRY is ``server`` (``aa.server.main``, the ``aa-server`` entry point),
``mine``, ``export`` or ``stats`` (each tool's ``main``), or ``replay``
(``aa.journal.replay`` of the journal named in ARGS, the replay every tool
starts with). SPANS_FILE is ``-`` for an untraced run. Otherwise the
launcher wraps the suite's functions before the entry point runs and, at
exit, writes the span summary there as JSON.

Names bound with ``from x import y`` are wrapped where they are imported
as well: ``aa.miner.parse`` is a different binding from
``aa.parsing.parse``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import CountingList, Tracer, TracedLock  # noqa: E402


def instrument(tracer: Tracer) -> None:
    import aa.journal as journal
    import aa.miner as miner
    import aa.parsing as parsing
    import aa.rdf as rdf
    import aa.server as server
    import aa.sessions as sessions
    import aa.stats as stats
    import aa.store as store

    def returned(name, size):
        return lambda args, result: tracer.count(name, size(result))

    # journal, write side
    tracer.wrap(journal.Journal, "append_many", "journal.append",
                returned("journal.records_appended", len))
    tracer.wrap(os, "fsync", "journal.fsync")
    # journal, replay side
    tracer.wrap(journal, "replay", "journal.replay")
    tracer.wrap_generator(journal, "read_records", "journal.read_records")
    tracer.wrap(journal.ReplayState, "apply", "journal.apply")

    for module in (parsing, miner):
        tracer.wrap(module, "parse", "parsing.parse")
        tracer.wrap(module, "flag_deviation", "parsing.flag_deviation")

    tracer.wrap(sessions, "conformance", "sessions.conformance")
    tracer.wrap(sessions, "assign_validator", "sessions.assign_validator")

    init = store.Store.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._lock = TracedLock(self._lock, tracer, "store.lock_wait")
        self.state.shouts = CountingList(self.state.shouts, tracer)

    store.Store.__init__ = traced_init
    tracer.wrap(store.Store, "receive_shout", "store.receive_shout")
    tracer.wrap(store.Store, "receive_message", "store.receive_message")
    tracer.wrap(store.Store, "report", "store.report",
                returned("returned:store.report", lambda r: len(r["latest"])))
    tracer.wrap(store.Store, "list_shouts", "store.list_shouts",
                returned("returned:store.list_shouts", len))
    tracer.wrap(store.Store, "shouts_json", "store.shouts_json")
    tracer.wrap(store.Store, "users", "store.users")

    handler = server.ShoutHandler
    tracer.wrap(handler, "handle", "server.handle",
                lambda args, result: tracer.end_request())
    tracer.wrap_request(handler, "_dispatch")
    send_response = handler.send_response

    def counted_send_response(self, code, *args, **kwargs):
        tracer.count("server.requests")
        if not 200 <= code < 300:
            tracer.count("server.errors")
        return send_response(self, code, *args, **kwargs)

    handler.send_response = counted_send_response

    for attr in ("parse_source", "select_shouts", "corpus_from_journal",
                 "dedup", "import_shouts"):
        tracer.wrap(miner, attr, f"miner.{attr}")

    tracer.wrap(rdf, "export_data", "rdf.export_data",
                returned("rdf.triples", len))
    tracer.wrap(rdf, "serialize_ntriples", "rdf.serialize_ntriples")
    tracer.wrap(rdf, "validate_graph", "rdf.validate_graph")

    for attr in ("summarize", "histogram", "token_table", "cooccurrence"):
        tracer.wrap(stats, attr, f"stats.{attr}")


def run(entry: str, argv: list[str]) -> int:
    if entry == "server":
        from aa.server import main
    elif entry == "mine":
        from aa.miner import main
    elif entry == "export":
        from aa.rdf import main
    elif entry == "stats":
        from aa.stats import main
    elif entry == "replay":
        from aa.journal import replay
        replay(argv[0])
        return 0
    else:
        raise SystemExit(f"launch.py: unknown entry {entry!r}")
    return main(argv)


def main() -> int:
    entry, spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py ENTRY SPANS_FILE -- ARGS...")
    # a shell starts a background job with SIGINT ignored, and Python then
    # never turns it into KeyboardInterrupt: the server could not be stopped
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if spans_file != "-":
        tracer = Tracer()
        instrument(tracer)
    try:
        return run(entry, argv)
    finally:
        if tracer is not None:
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
