"""Terminal client: one-call shouting, timed sessions, spool, and push.

Shouts that cannot reach the server are appended to a local JSON-lines
spool; a push sends them later in order, marks each with an appended line,
and removes the spool once no unsent record is left.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import fcntl
import json
import os
import re
import selectors
import socket
import ssl
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from .config import load_settings
from .journal import sync_directory
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

    def __init__(self, status: int, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.status, self.code = status, code


@dataclass
class ClientConfig:
    server: str = DEFAULT_SERVER
    nick: str = "anon"
    spool: str = str(Path.home() / ".config" / "aa" / "spool.jsonl")
    timeout: float = 10.0


# timeout is set by code only, never by a file or the environment
SETTABLE_KEYS = ("server", "nick", "spool")


def default_config_path() -> str:
    return str(Path.home() / ".config" / "aa" / "client.conf")


def load_client_config(path: str | None = None,
                       env: dict[str, str] | None = None) -> ClientConfig:
    """Config file (if it exists), then AA_* environment, as load_config does."""
    path = path or default_config_path()
    return load_settings(ClientConfig, path if os.path.exists(path) else None,
                         env, keys=SETTABLE_KEYS)


# -- transport -------------------------------------------------------------


_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/([0-9]\.[0-9]) ([0-9]{3})[ \r\n]")

# A kept connection is reused only while it has been idle for less than half
# of aa-server's ShoutServer.IDLE_TIMEOUT (10 s), so that the server does not
# close it while a request is on its way.
KEEP_IDLE_S = 5.0


class _Pool:
    """Idle connections kept for reuse (RFC 9112 §9.3), by (scheme, host,
    port): ``take`` hands one to a single caller, and ``keep`` takes it back
    after a clean answer. A caller closes a connection it does not keep."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[tuple[socket.socket, float]]] = {}  # oldest first

    def take(self, key: tuple, timeout: float) -> socket.socket | None:
        """The newest idle connection to ``key`` that is still fit for a
        request, set to ``timeout``; the unfit ones met on the way are closed."""
        while True:
            with self._lock:
                if not (idle := self._idle.get(key)):
                    return None
                sock, since = idle.pop()
            if time.monotonic() - since < KEEP_IDLE_S and _quiet(sock):
                sock.settimeout(timeout)
                return sock
            sock.close()

    def keep(self, key: tuple, sock: socket.socket) -> None:
        """Keep ``sock`` idle for reuse, and close every idle connection past
        ``KEEP_IDLE_S``."""
        now, stale = time.monotonic(), []
        with self._lock:
            for other in list(self._idle):
                idle = self._idle[other]
                while idle and now - idle[0][1] >= KEEP_IDLE_S:
                    stale.append(idle.pop(0)[0])
                if not idle:
                    del self._idle[other]
            self._idle.setdefault(key, []).append((sock, now))
        for old in stale:
            old.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for entries in idle.values():
            for sock, _ in entries:
                sock.close()


_POOL = _Pool()
atexit.register(_POOL.close)


def _quiet(sock: socket.socket) -> bool:
    """Whether an idle connection has nothing to read: neither the server's
    EOF nor stray bytes, which would be taken for the next answer."""
    if isinstance(sock, ssl.SSLSocket) and sock.pending():
        return False
    with selectors.DefaultSelector() as sel:
        sel.register(sock, selectors.EVENT_READ)
        return not sel.select(0)


def _call(config: ClientConfig, method: str, path: str,
          params: dict | None = None, body: dict | None = None) -> dict | list:
    """One request to ``config.server`` and its JSON answer. A 4xx raises
    RequestFailed; anything else that is not a 2xx with a JSON body (no
    answer, a cut or unreadable one, a 3xx, a 5xx) raises TransportError.

    The request goes on an idle connection to the server kept from an
    earlier call, else on a new one. The connection is kept again only
    after a clean 2xx JSON or 4xx answer. A failure on a kept connection is
    not retried, as the server may have acted on the request (RFC 9112
    §9.3.1)."""
    url = urlsplit(config.server)
    target = url.path.rstrip("/") + path
    if params:
        target += "?" + urlencode({k: v for k, v in params.items() if v is not None})
    data = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {target} HTTP/1.1\r\nHost: {url.netloc}\r\n"
            f"Content-Length: {len(data)}\r\n")
    if body is not None:
        head += "Content-Type: application/json\r\n"
    try:
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http or https URL: {url.geturl()!r}")
        key = (url.scheme, url.hostname, url.port or (443 if url.scheme == "https" else 80))
        sock = _POOL.take(key, config.timeout) or _connect(key, config.timeout)
        try:
            status, payload, clean = _exchange(sock, (head + "\r\n").encode() + data)
            try:
                parsed = json.loads(payload)
            except (ValueError, RecursionError):  # not JSON, or nested too deep
                parsed = None
            answered = 200 <= status < 300 and parsed is not None or 400 <= status < 500
            if clean and answered:
                _POOL.keep(key, sock)
                sock = None
        finally:
            if sock is not None:
                sock.close()
    except (OSError, ValueError) as exc:  # ssl errors are OSErrors
        raise TransportError(str(exc)) from exc
    if not answered:
        raise TransportError(f"server answered {status}"
                             + (" without JSON" if status < 300 else ""))
    if status < 300:
        return parsed
    if isinstance(parsed, dict):
        raise RequestFailed(status, parsed.get("error", "error"), parsed.get("detail", ""))
    raise RequestFailed(status, "error", payload.decode(errors="replace"))


def _connect(key: tuple, timeout: float) -> socket.socket:
    """A new connection to the server at ``key``, (scheme, host, port)."""
    scheme, host, port = key
    sock = socket.create_connection((host, port), timeout)
    if scheme == "https":
        try:
            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
    return sock


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, bytes, bool]:
    """Send ``request`` on ``sock`` and read its answer: the status, the body
    up to its Content-Length (or to EOF without one), and whether the answer
    leaves the connection clean for another request: HTTP/1.1 without
    ``Connection: close``, and a body of exactly its Content-Length."""
    sock.sendall(request)
    answer = bytearray()
    while not (end := _HEAD_END.search(answer)):
        chunk = sock.recv(65536)
        if not chunk:
            raise ValueError("answer head cut short")
        answer += chunk
    status = _STATUS_LINE.match(answer)
    if not status:
        raise ValueError(f"bad status line {bytes(answer[:40])!r}")
    length, close = None, False
    for line in answer[:end.start()].split(b"\n")[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
            if length < 0:
                raise ValueError(f"Content-Length {length}")
        elif name == b"connection":
            close = close or b"close" in [t.strip() for t in value.lower().split(b",")]
        elif name == b"transfer-encoding":
            raise ValueError("a Transfer-Encoding answer is not read")
    body = answer[end.end():]
    while length is None or len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            if length is None:
                break
            raise ValueError(f"answer body of {len(body)} bytes, "
                             f"Content-Length {length}")
        body += chunk
    clean = status[1] == b"1.1" and not close and len(body) == length
    return int(status[2]), bytes(body[:length]), clean


def _call_object(config: ClientConfig, method: str, path: str, **kwargs) -> dict:
    """``_call`` to a route that answers a JSON object; a 2xx with other JSON
    (``GET /shouts`` answers an array) raises TransportError too."""
    answer = _call(config, method, path, **kwargs)
    if not isinstance(answer, dict):
        raise TransportError(f"server answered {type(answer).__name__}, not an object")
    return answer


def _field(answer: dict, key: str, types: tuple[type, ...] = (str,)):
    """``answer[key]`` when its type is exactly one of ``types``, else TransportError."""
    if type(value := answer.get(key)) not in types:
        raise TransportError(f"server answered no usable {key!r}: {value!r:.40}")
    return value


def api_shout(config: ClientConfig, message: str, *, source: str = "http",
              client_created: int | None = None) -> dict:
    body = {"nick": config.nick, "msg": message, "source": source,
            "client_created": client_created}
    answer = _call_object(config, "POST", "/shout", body=body)
    _field(answer, "id")
    return answer


def api_message(config: ClientConfig, msg: str) -> dict:
    return _call_object(config, "POST", "/message",
                        body={"nick": config.nick, "msg": msg})


def api_report(config: ClientConfig, n: int = 20) -> dict:
    return _call_object(config, "GET", "/report", params={"n": n})


# -- spool -------------------------------------------------------------------


SENT = {"type": "sent"}  # the marker of the oldest record not yet sent or refused


@contextlib.contextmanager
def _locked(path: Path):
    """The spool at ``path``, open for appending under an exclusive flock;
    opened again when a push removed the file while this waited for it."""
    while True:
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            if os.fstat(fh.fileno()).st_nlink:
                yield fh
                return


def _append(fh, record: dict) -> int:
    """Append ``record`` to the locked spool ``fh`` and fsync it; the size before."""
    line = json.dumps(record, sort_keys=True).encode() + b"\n"
    if size := fh.seek(0, os.SEEK_END):
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            line = b"\n" + line  # end a last line cut off mid-append
    fh.write(line)
    fh.flush()
    os.fsync(fh.fileno())
    return size


def spool_append(config: ClientConfig, message: str, source: str = "http") -> None:
    """Append a shout to the spool and fsync it, and the spool's directory
    when the spool was new or empty, so that the shout outlives a crash."""
    path = Path(config.spool)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"type": "shout", "data": {"nick": config.nick, "message": message,
                                        "source": source,
                                        "client_created": int(time.time())}}
    with _locked(path) as fh:
        if not _append(fh, record):
            sync_directory(path)


def spool_read(lines) -> tuple[list[dict], int]:
    """The records among spool ``lines`` that no marker stands for, in
    order, and the number of lines skipped because they are neither a
    marker nor a JSON object with a text ``data.message`` (such as a line
    cut off mid-append)."""
    records, sent, skipped = [], 0, 0
    for line in lines:
        if line.strip():
            try:
                record = json.loads(line)
                if record == SENT:
                    sent += 1
                    continue
                message = record["data"]["message"]
            except (ValueError, RecursionError, LookupError, TypeError):
                message = None
            if isinstance(message, str):
                records.append(record)
            else:
                skipped += 1
    return records[sent:], skipped


def spool_load(config: ClientConfig) -> list[dict]:
    try:
        with open(config.spool, "rb") as fh:
            return spool_read(fh)[0]
    except FileNotFoundError:
        return []


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


# the codes of a 400 that refuses a record's own content: sending it again cannot help
REFUSED_RECORD = ("empty_message", "empty_nick", "bad_request")


def push(config: ClientConfig, out=print) -> int:
    """Send the spool's unsent records in order, append a marker after each,
    and remove the spool once none is left. The spool stays locked meanwhile,
    so a shout spooled during a push waits and is kept, and pushes take turns.
    Unreadable lines go with the spool; a record refused for its own content
    (``REFUSED_RECORD``) is marked as if sent."""
    path = Path(config.spool)
    if not path.exists():
        out("spool empty")
        return EXIT_OK
    with _locked(path) as fh:
        fh.seek(0)
        records, skipped = spool_read(fh)
        if skipped:
            out(f"dropped {skipped} unreadable spool line(s)")
        sent = 0
        for i, record in enumerate(records):
            data = record["data"]
            try:
                # records keep their own nick so bot spools stay attributed
                api_shout(replace(config, nick=data.get("nick") or config.nick),
                          data["message"], source=data.get("source") or "http",
                          client_created=data.get("client_created"))
                sent += 1
            except (TransportError, RequestFailed) as exc:
                if not (isinstance(exc, RequestFailed) and exc.status == 400
                        and exc.code in REFUSED_RECORD):
                    out(f"pushed {sent}, {len(records) - i} left spooled ({exc})")
                    return EXIT_SPOOLED
                out(f"rejected: {exc}")
            _append(fh, SENT)
        path.unlink()
        sync_directory(path)
    if not records:
        out("spool empty")
        return EXIT_OK
    out(f"pushed {sent}")
    return EXIT_OK if sent == len(records) else EXIT_ERROR


@dataclass
class SessionResult:
    session_id: str | None = None
    prompt_times: list[float] = field(default_factory=list)
    sent: int = 0
    report: dict | None = None
    stopped_early: bool = False


def _start_grid(started: dict) -> tuple[str, SlotGrid]:
    """The session id and slot grid of a start answer, else TransportError."""
    session_id = _field(started, "session")
    try:
        return session_id, SlotGrid(0, *(_field(started, key, (int, float))
                                         for key in ("slot", "tolerance")))
    except ValueError as exc:
        raise TransportError(f"server answered a bad slot grid: {exc}") from None


def _read_line(stream, timeout: float) -> tuple[str, str | None]:
    """One answer from the stream: ("line", text), ("timeout", None), or ("eof", None)."""
    try:
        fd = stream.fileno()
    except (OSError, AttributeError, ValueError):
        fd = None
    if fd is not None:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            if not sel.select(timeout):
                return "timeout", None
    line = stream.readline()
    if not line:
        return "eof", None
    return "line", line.rstrip("\n")


def session_loop(config: ClientConfig, slots: int = 8, stdin=None, out=print,
                 sleep=time.sleep, monotonic=time.monotonic) -> SessionResult:
    """Run one timed session on the slot grid of the start answer, prompting
    each slot; the stop's report names the lost slots.

    An empty answer (or no answer within the tolerance) sends nothing for
    the slot; answering "stop" ends the session early. A start answer
    without a session or a usable grid is a TransportError, raised after
    one stop closes whatever session the server opened.
    """
    stdin = sys.stdin if stdin is None else stdin
    result = SessionResult()
    started = api_message(config, "start")
    try:
        result.session_id, grid = _start_grid(started)
    except TransportError:
        with contextlib.suppress(TransportError, RequestFailed):
            api_message(config, "stop")
        raise
    out(f"session {result.session_id} started; "
        f"{slots} slots of {grid.slot:g}s, answer 'stop' to end early")
    t0 = monotonic()
    exhausted = False
    for k in range(slots):
        sleep(max(0.0, t0 + k * grid.slot - monotonic()))
        result.prompt_times.append(monotonic())
        out(f"[slot {k}] shout> ")
        status, answer = ("eof", None) if exhausted else _read_line(stdin, grid.tolerance)
        if status == "eof":
            exhausted = True
        if answer is not None and answer.strip().lower() == "stop":
            result.stopped_early = True
            break
        if answer is None or not answer.strip():
            continue
        try:
            api_shout(config, answer)
            result.sent += 1
        except RequestFailed as exc:
            out(f"rejected: {exc}")
        except TransportError as exc:
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
    out(f"nick: {config.nick}")
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
    except OSError as exc:  # the spool: a full disk, an unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
