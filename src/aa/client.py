"""Terminal client: one-call shouting, timed sessions, spool, and push.

Shouts that cannot reach the server are appended to a local spool (same
JSON-lines shape as the server journal) and pushed later in order.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib import error, request
from urllib.parse import urlencode

from .config import load_settings
from .model import DEFAULT_SLOT, DEFAULT_TOLERANCE
from .sessions import SlotGrid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_SPOOLED = 3

DEFAULT_SERVER = "http://127.0.0.1:8484"


class TransportError(Exception):
    """The server could not be reached or answered a server-side failure."""


class RequestFailed(Exception):
    """The server rejected the request (4xx) with a machine-readable code."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code


@dataclass
class ClientConfig:
    server: str = DEFAULT_SERVER
    nick: str = "anon"
    slot: float = DEFAULT_SLOT
    tolerance: float = DEFAULT_TOLERANCE
    spool: str = str(Path.home() / ".config" / "aa" / "spool.jsonl")
    timeout: float = 10.0

    def __post_init__(self) -> None:
        SlotGrid(0, self.slot, self.tolerance)


# timeout is set by code only, never by a file or the environment
SETTABLE_KEYS = ("server", "nick", "slot", "tolerance", "spool")


def default_config_path() -> str:
    return str(Path.home() / ".config" / "aa" / "client.conf")


def load_client_config(path: str | None = None,
                       env: dict[str, str] | None = None) -> ClientConfig:
    """Config file (if it exists), then AA_* environment, as load_config does."""
    path = path or default_config_path()
    return load_settings(ClientConfig, path if os.path.exists(path) else None,
                         env, keys=SETTABLE_KEYS)


# -- transport -------------------------------------------------------------


def _call(config: ClientConfig, method: str, path: str,
          params: dict | None = None, body: dict | None = None) -> dict:
    url = config.server.rstrip("/") + path
    if params:
        url += "?" + urlencode({k: v for k, v in params.items() if v is not None})
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    req = request.Request(url, data=data, headers=headers, method=method)
    try:
        with request.urlopen(req, timeout=config.timeout) as resp:
            payload = resp.read()
    except error.HTTPError as exc:
        detail = exc.read()
        if exc.code >= 500:
            raise TransportError(f"server failure {exc.code}") from exc
        try:
            parsed = json.loads(detail)
            raise RequestFailed(parsed.get("error", "error"),
                                parsed.get("detail", "")) from exc
        except json.JSONDecodeError:
            raise RequestFailed("error", detail.decode(errors="replace")) from exc
    except (error.URLError, OSError, TimeoutError) as exc:
        raise TransportError(str(exc)) from exc
    return json.loads(payload)


def api_shout(config: ClientConfig, message: str, *, source: str = "http",
              client_created: int | None = None) -> dict:
    params = {"nick": config.nick, "msg": message, "source": source,
              "client_created": client_created}
    return _call(config, "POST", "/shout", params=params)


def api_message(config: ClientConfig, msg: str, batch: list | None = None,
                nick: str | None = None) -> dict:
    body = {"nick": nick or config.nick, "msg": msg, "batch": batch}
    return _call(config, "POST", "/message", body=body)


def api_lost(config: ClientConfig, session_id: str, slot: int) -> dict:
    return _call(config, "POST", f"/session/{session_id}/lost",
                 params={"slot": slot})


def api_report(config: ClientConfig, n: int = 20) -> dict:
    return _call(config, "GET", "/report", params={"n": n})


# -- spool -------------------------------------------------------------------


def spool_append(config: ClientConfig, message: str) -> None:
    path = Path(config.spool)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"type": "shout", "data": {"nick": config.nick, "message": message,
                                        "client_created": int(time.time())}}
    line = json.dumps(record, sort_keys=True) + "\n"
    with open(path, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line  # end a last line cut off mid-append
        fh.write(line.encode())


def spool_read(config: ClientConfig) -> tuple[list[dict], int]:
    """The spool's records, and the number of lines skipped because they are
    not a JSON object (such as a line cut off mid-append)."""
    records, skipped = [], 0
    if not os.path.exists(config.spool):
        return records, skipped
    with open(config.spool, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if isinstance(record, dict):
                    records.append(record)
                else:
                    skipped += 1
    return records, skipped


def spool_load(config: ClientConfig) -> list[dict]:
    return spool_read(config)[0]


def spool_write(config: ClientConfig, records: list[dict]) -> None:
    path = Path(config.spool)
    if not records:
        if path.exists():
            path.unlink()
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    tmp.replace(path)


# -- commands ------------------------------------------------------------------


def cmd_shout(config: ClientConfig, message: str, out=print) -> int:
    if not message.strip():
        out("error: empty message")
        return EXIT_USAGE
    try:
        result = api_shout(config, message)
    except RequestFailed as exc:
        out(f"rejected: {exc}")
        return EXIT_ERROR
    except TransportError:
        spool_append(config, message)
        out(f"server unreachable; spooled to {config.spool}")
        return EXIT_SPOOLED
    out(result["id"])
    return EXIT_OK


def push(config: ClientConfig, out=print) -> int:
    """Send spooled shouts in order; the spool keeps any unsent suffix.

    Lines that are not a record are dropped from the spool first.
    """
    records, skipped = spool_read(config)
    if skipped:
        spool_write(config, records)
        out(f"dropped {skipped} unreadable spool line(s)")
    if not records:
        out("spool empty")
        return EXIT_OK
    sent = 0
    for i, record in enumerate(records):
        data = record["data"]
        item = {"message": data["message"],
                "client_created": data.get("client_created")}
        try:
            # records keep their own nick so bot spools stay attributed
            api_message(config, "push", batch=[item],
                        nick=data.get("nick") or config.nick)
        except (TransportError, RequestFailed) as exc:
            spool_write(config, records[i:])
            out(f"pushed {sent}, {len(records) - i} left spooled ({exc})")
            return EXIT_SPOOLED
        sent += 1
        spool_write(config, records[i + 1:])
    out(f"pushed {sent}")
    return EXIT_OK


@dataclass
class SessionResult:
    session_id: str | None = None
    prompt_times: list[float] = field(default_factory=list)
    sent: int = 0
    lost: list[int] = field(default_factory=list)
    report: dict | None = None
    stopped_early: bool = False


def _read_line(stream, timeout: float) -> tuple[str, str | None]:
    """One answer from the stream: ("line", text), ("timeout", None), or ("eof", None)."""
    try:
        fd = stream.fileno()
    except (OSError, AttributeError, ValueError):
        fd = None
    if fd is not None:
        sel = selectors.DefaultSelector()
        try:
            sel.register(fd, selectors.EVENT_READ)
            if not sel.select(timeout):
                return "timeout", None
        finally:
            sel.close()
    line = stream.readline()
    if not line:
        return "eof", None
    return "line", line.rstrip("\n")


def session_loop(config: ClientConfig, slots: int = 8, stdin=None,
                 out=print, sleep=time.sleep) -> SessionResult:
    """Run one timed session: prompt each slot, record skips as lost slots.

    An empty answer (or no answer within the tolerance) marks the slot
    lost; answering "stop" ends the session early.
    """
    stdin = sys.stdin if stdin is None else stdin
    result = SessionResult()
    start = api_message(config, "start")
    result.session_id = start["session"]
    out(f"session {result.session_id} started; "
        f"{slots} slots of {config.slot:g}s, answer 'stop' to end early")
    t0 = time.monotonic()
    exhausted = False
    for k in range(slots):
        mark = t0 + k * config.slot
        delay = mark - time.monotonic()
        if delay > 0:
            sleep(delay)
        result.prompt_times.append(time.monotonic())
        out(f"[slot {k}] shout> ")
        status, answer = ("eof", None) if exhausted else _read_line(stdin, config.tolerance)
        if status == "eof":
            exhausted = True
        if answer is not None and answer.strip().lower() == "stop":
            result.stopped_early = True
            break
        if answer is None or not answer.strip():
            result.lost.append(k)
            try:
                api_lost(config, result.session_id, k)
            except (TransportError, RequestFailed) as exc:
                out(f"could not record lost slot {k}: {exc}")
            continue
        try:
            api_shout(config, answer)
            result.sent += 1
        except (TransportError, RequestFailed) as exc:
            spool_append(config, answer)
            out(f"spooled (server unreachable: {exc})")
    if spool_load(config):
        push(config, out=out)
    stop = api_message(config, "stop")
    result.report = stop.get("report")
    out(json.dumps(stop, sort_keys=True, indent=2))
    return result


def cmd_status(config: ClientConfig, out=print) -> int:
    depth = len(spool_load(config))
    try:
        api_report(config, n=1)
        reachable = "up"
    except (TransportError, RequestFailed):
        reachable = "unreachable"
    out(f"server {config.server}: {reachable}")
    out(f"nick: {config.nick}  slot: {config.slot:g}s  tolerance: {config.tolerance:g}s")
    out(f"spool: {config.spool} ({depth} pending)")
    return EXIT_OK


def cmd_stop(config: ClientConfig, out=print) -> int:
    if spool_load(config):
        push(config, out=out)
    try:
        result = api_message(config, "stop")
    except RequestFailed as exc:
        out(f"stop failed: {exc}")
        return EXIT_ERROR
    except TransportError as exc:
        out(f"server unreachable: {exc}")
        return EXIT_ERROR
    out(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa", description="Work-logging client")
    parser.add_argument("--server", help="server base URL")
    parser.add_argument("--nick")
    parser.add_argument("--slot", type=float, help="slot duration in seconds")
    parser.add_argument("--tolerance", type=float, help="prompt tolerance in seconds")
    parser.add_argument("--config", help="client config file")
    parser.add_argument("--spool", help="offline spool path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_shout = sub.add_parser("shout", help="log one message")
    p_shout.add_argument("text", nargs="+")
    p_start = sub.add_parser("start", help="run a timed session")
    p_start.add_argument("--slots", type=int, default=8)
    sub.add_parser("stop", help="close the open session")
    sub.add_parser("push", help="send spooled shouts")
    sub.add_parser("status", help="show client and server state")
    p_report = sub.add_parser("report", help="show the server activity report")
    p_report.add_argument("-n", type=int, default=20)

    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in SETTABLE_KEYS
                 if getattr(args, key) is not None}
    try:
        config = replace(load_client_config(args.config), **overrides)
    except (OSError, ValueError) as exc:
        print(f"error: bad client config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "shout":
            return cmd_shout(config, " ".join(args.text))
        if args.command == "start":
            session_loop(config, slots=args.slots)
            return EXIT_OK
        if args.command == "stop":
            return cmd_stop(config)
        if args.command == "push":
            return push(config)
        if args.command == "status":
            return cmd_status(config)
        if args.command == "report":
            print(json.dumps(api_report(config, n=args.n), sort_keys=True, indent=2))
            return EXIT_OK
    except RequestFailed as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except TransportError as exc:
        print(f"server unreachable: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
