"""HTTP front end for the shout store.

Endpoints and their parameters:
  GET/POST /shout                      nick, msg [, client_created, source]
  GET      /shouts                     format=text|json, nick, since, until
  POST     /message                    nick, msg
  POST     /session/<id>/screencast    url
  POST     /session/<id>/review        reviewer, score, comment
  GET      /report                     n

``ROUTES`` is the table. A handler's keyword-only parameters are its route's,
read from the query, a form or a JSON body by their annotated types; a value
of the wrong type answers 400 "bad_request" naming the parameter. Other client
errors answer 4xx with a machine-readable "error" code, journal failures 500.
So does text with a lone surrogate, which no view can render. A /message with
the removed ``batch`` answers 410, which an old client's push keeps spooled.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import selectors
import signal
import socket
import sys
import threading
from dataclasses import replace
from http import HTTPStatus
from inspect import Parameter, signature
from time import gmtime, monotonic, perf_counter, strftime
from typing import Callable, NamedTuple
from urllib.parse import parse_qs, urlsplit

from .config import load_config
from .errors import AAError, JournalError
from .model import Source, check_timestamp, parse_iso8601
from .store import Store

log = logging.getLogger("aa.server")

MAX_BODY = 1 << 20  # bytes; far above any real request, as aa sends one shout each

Timestamp = int  # epoch seconds in UTC years 1-9999: an int, a decimal string or ISO 8601


def _timestamp(value: int | str) -> int:
    ts = int(value) if type(value) is int or value.isdecimal() else parse_iso8601(value)
    return check_timestamp(ts)


# per annotated type: its reader, and the JSON types a value may have besides text
_READERS = {"str": (str, ()), "int": (int, (int,)), "float": (float, (int, float)),
            "Source": (Source, ()), "Timestamp": (_timestamp, (int,))}


def decode(params: dict, spec: dict[str, tuple[str, object]]) -> dict:
    """Read each ``name: (type, default)`` of ``spec``; ValueError names a bad one."""
    values = {}
    for name, (kind, default) in spec.items():
        value = params.get(name)  # JSON null counts as absent
        if value is None and default is not Parameter.empty:
            values[name] = default
            continue
        read, json_types = _READERS[kind]
        try:
            if type(value) is str:
                value.encode()  # a lone surrogate (JSON "\ud800") has no UTF-8
            elif type(value) not in json_types:  # exact: a bool is no int
                raise TypeError
            values[name] = read(value)
        except (OverflowError, TypeError, ValueError) as exc:  # float() of a huge int
            why = f": {exc}" if exc.args else ""  # a bad ISO 8601 date, a surrogate
            raise ValueError(f"parameter {name!r} must be {kind}, "
                             f"got {value!r:.60}{why}") from None
    return values


def _entry(name: str, methods: tuple[str, ...], path: str, handler: Callable) -> tuple:
    """A ROUTES entry: its spec maps each keyword-only parameter to (type, default)."""
    return name, methods, path, handler, {
        p.name: (p.annotation.removesuffix(" | None"), p.default)
        for p in signature(handler).parameters.values() if p.kind is p.KEYWORD_ONLY}


class ShoutHandler:
    """Answers one request that ``ShoutServer`` has read whole (its parsed head
    and exact body bytes), or the refusal read in place of a head. It has no
    socket: ``answer`` collects the whole answer, and the loop sends it."""

    def __init__(self, store: Store, head: Head | tuple, body: bytes = b""):
        self.store, self.head, self.body = store, head, body
        served = type(head) is Head
        self.path = head.target if served else ""
        self.close_connection = not (served and head.keep_alive)
        self.answer = bytearray()

    def handle(self) -> None:
        """Answer the request, or its refusal, into ``answer``."""
        if type(self.head) is Head:
            self._dispatch(self.head.method)
        else:
            self._send_error_code(*self.head)

    # -- plumbing ---------------------------------------------------------

    def _params(self, query: str) -> dict:
        params = {k: v[0] for k, v in parse_qs(query).items()}
        if self.body:
            if "json" in self.head.headers.get("content-type", ""):
                try:
                    payload = json.loads(self.body)
                except RecursionError:
                    raise ValueError("JSON body is nested too deeply") from None
                if not isinstance(payload, dict):
                    raise ValueError("JSON body must be an object")
                params.update(payload)
            else:
                params.update({k: v[0] for k, v in parse_qs(self.body.decode()).items()})
        return params

    def send_response(self, status: int, body: bytes, content_type: str) -> None:
        """Add the whole answer to ``answer``: status line, headers and body."""
        close = "Connection: close\r\n" if self.close_connection else ""
        self.answer += (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                        f"Date: {strftime('%a, %d %b %Y %H:%M:%S GMT', gmtime())}\r\n{close}"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n").encode() + body

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status, body, "application/json")

    def _send_error_code(self, code: str, detail: str, status: int) -> None:
        self._send_json({"error": code, "detail": detail}, status=status)

    def _dispatch(self, method: str) -> None:
        try:
            parts = urlsplit(self.path)
            params = self._params(parts.query)
            for name, methods, pattern, handler, spec in ROUTES:
                found = re.fullmatch(pattern.replace("<id>", "([^/]*)"), parts.path)
                if found and method in methods:
                    if name == "message" and params.get("batch") is not None:
                        detail = "parameter 'batch' is gone: send each shout to POST /shout"
                        return self._send_error_code("batch_removed", detail, 410)
                    return handler(self, *found.groups(), **decode(params, spec))
            self._send_error_code("not_found", f"no route {method} {parts.path}", 404)
        except AAError as exc:
            self._send_error_code(exc.code, str(exc), exc.http_status)
        except ValueError as exc:
            self._send_error_code("bad_request", str(exc), 400)
        except Exception:  # noqa: BLE001 - keep the server alive
            log.exception("unhandled error for %s", self.path)
            self._send_error_code("internal", "unhandled server error", 500)

    # -- routes: each takes the path's <id>, then its decoded parameters --

    def _handle_shout(self, *, nick: str = "", msg: str = "",
                      source: Source = Source.HTTP,
                      client_created: Timestamp | None = None) -> None:
        if source is Source.MINED:
            raise ValueError("mined records enter through the journal, not HTTP")
        shout = self.store.receive_shout(nick, msg, source=source,
                                         client_created=client_created)
        self._send_json({"id": shout.id, "created": shout.created,
                         "kind": shout.kind.value})

    def _handle_shouts(self, *, format: str = "text", nick: str | None = None,
                       since: Timestamp | None = None,
                       until: Timestamp | None = None) -> None:
        filters = {"nick": nick, "since": since, "until": until}
        if format == "json":
            body = self.store.shouts_json(**filters).encode()
            self.send_response(200, body, "application/json")
        elif format == "text":
            body = self.store.shouts_text(**filters).encode()
            self.send_response(200, body, "text/plain; charset=utf-8")
        else:
            raise ValueError(f"parameter 'format' must be text or json, got {format!r:.60}")

    def _handle_message(self, *, nick: str = "", msg: str = "") -> None:
        self._send_json(self.store.receive_message(nick, msg))

    def _handle_screencast(self, session_id: str, *, url: str = "") -> None:
        self.store.attach_screencast(session_id, url)
        self._send_json(self.store.session_view(session_id))

    def _handle_review(self, session_id: str, *, reviewer: str = "",
                       score: float = float("nan"), comment: str | None = None) -> None:
        review = self.store.record_review(session_id, reviewer, score, comment)
        self._send_json({"session": review.session, "reviewer": review.reviewer,
                         "score": review.score, "comment": review.comment})

    def _handle_report(self, *, n: int = 20) -> None:
        self._send_json(self.store.report(n=n))


ROUTES = (
    _entry("shout", ("GET", "POST"), "/shout", ShoutHandler._handle_shout),
    _entry("shouts", ("GET",), "/shouts", ShoutHandler._handle_shouts),
    _entry("message", ("POST",), "/message", ShoutHandler._handle_message),
    _entry("report", ("GET",), "/report", ShoutHandler._handle_report),
    _entry("screencast", ("POST",), "/session/<id>/screencast",
           ShoutHandler._handle_screencast),
    _entry("review", ("POST",), "/session/<id>/review", ShoutHandler._handle_review),
)


_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_MAX_LINE = 65536  # most bytes in a request line (else 414) or a header line (else 431)
_MAX_HEADERS = 100  # lines after the request line, the empty one included (else 431)
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_FIELD_NAME = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # a token (RFC 9110 section 5.6.2)


class Head(NamedTuple):
    """A request head as ``_read_head`` read it (RFC 9112 sections 2-3, 6, 9)."""

    end: int  # where the body starts in the connection's buffer
    method: str
    target: str
    headers: dict[str, str]  # lower-cased names, each with its first value
    length: int  # of the body, from Content-Length
    expect: bool  # an HTTP/1.1 client waits for an interim 100 Continue
    keep_alive: bool


def _read_head(buf: bytearray, start: int, eof: bool) -> Head | tuple | None:
    """The head of the request at ``buf[start:]``, or the refusal it gets
    (error code, detail, status; the connection then closes); None while
    the head is incomplete and more may come, or at EOF with nothing left.
    Lines end at LF with or without CR; each may take 64 KiB, and the empty
    line ending the head must come within 100 lines.
    """
    headers: dict[str, str] = {}
    for count in range(_MAX_HEADERS + 1):
        end = buf.find(b"\n", start, start + _MAX_LINE) + 1
        if not end:
            if len(buf) - start > _MAX_LINE:
                return (("headers_too_large", f"a header line over {_MAX_LINE} bytes", 431)
                        if count else
                        ("uri_too_long", f"a request line over {_MAX_LINE} bytes", 414))
            if eof and (count or start < len(buf)):
                return "bad_request", "request head cut short", 400
            return None
        line, start = buf[start:end].decode("latin-1"), end
        if not count:
            words = line.split()  # method, target and version
            found = len(words) >= 3 and _VERSION.fullmatch(words[-1])
            if found and int(found[1]) >= 2:
                return "version_not_supported", f"{words[-1]:.20} is not served", 505
            if len(words) != 3 or not found:
                return "bad_request", f"bad request line {line.strip()!r:.80}", 400
            version = int(found[1]), int(found[2])
        elif line in ("\r\n", "\n"):
            break
        else:
            name, colon, value = line.partition(":")
            if not (colon and _FIELD_NAME.fullmatch(name)):  # an obs-fold too (section 5.2)
                return "bad_request", f"bad header line {line.rstrip()!r:.80}", 400
            name, value = name.lower(), value.strip()
            if name not in headers:
                headers[name] = value
            elif name == "content-length" and value != headers[name]:
                return ("bad_request",
                        f"Content-Length {headers[name]:.20} and {value:.20} differ", 400)
    else:
        return "headers_too_large", f"over {_MAX_HEADERS - 1} header lines", 431
    method, target, _ = words
    if method not in ("GET", "POST"):
        return "not_implemented", f"method {method:.20} is not served", 501
    if "transfer-encoding" in headers:
        return "not_implemented", "Transfer-Encoding is not served", 501
    text = headers.get("content-length") or "0"
    digits = text.lstrip("0") or "0"  # int() refuses more than 4300 digits
    length = int(digits) if digits.isdecimal() and len(digits) <= len(str(MAX_BODY)) else -1
    if not 0 <= length <= MAX_BODY:
        return "bad_request", f"Content-Length {text:.20} outside 0..{MAX_BODY}", 400
    connection = headers.get("connection", "").lower()
    if target.startswith("//"):  # else urlsplit reads a host name from the target
        target = "/" + target.lstrip("/")
    return Head(start, method, target, headers, length,
                version >= (1, 1) and headers.get("expect", "").lower() == "100-continue",
                connection == "keep-alive" or version >= (1, 1) and connection != "close")


class _Connection:
    """A client socket and the bytes the loop holds for it."""

    __slots__ = ("sock", "address", "inbuf", "outbuf", "deadline", "events",
                 "continued", "closing")

    def __init__(self, sock: socket.socket, address):
        self.sock, self.address, self.deadline = sock, address, 0.0
        self.inbuf, self.outbuf = bytearray(), bytearray()
        self.events = selectors.EVENT_READ
        self.continued = self.closing = False


class ShoutServer:
    """Serves every connection from one ``selectors`` loop, in the thread that
    calls ``serve_forever``: the single-process event-driven design of Pai et
    al., "Flash: An Efficient and Portable Web Server" (USENIX ATC 1999).

    The loop buffers a connection's bytes until a request's head and body are
    complete, serves the request inline through ``ShoutHandler``, and sends
    the answer with non-blocking writes. Bytes left after a request are the
    next one. Requests are served one at a time in arrival order, so a
    write's fsync blocks the loop for its duration. That costs no
    concurrency: each write fsyncs under the store lock, which would hold
    every other request as long.
    """

    REQUEST_TIMEOUT = 10.0  # seconds from a request's first byte to its last
    IDLE_TIMEOUT = 10.0  # seconds a client may take to read more of an answer,
                         # or to start its next request
    MAX_CONNECTIONS = 256  # open at once; one more is answered 503 and closed

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        self.socket = socket.create_server((host, port))
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._connections: set[_Connection] = set()
        self._next_expiry = float("inf")
        self._stop = False
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until ``shutdown``, which this loop sees within ``poll_interval`` s."""
        self._stopped.clear()
        try:
            while not self._stop:
                now = monotonic()
                if now >= self._next_expiry:
                    self._expire(now)
                timeout = min(poll_interval, self._next_expiry - now)
                for key, events in self._selector.select(max(timeout, 0)):
                    if key.data is None:
                        self._accept()
                    else:
                        self._on_event(key.data, events)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever``, running in another thread, and wait for it."""
        self._stop = True
        self._stopped.wait()

    def server_close(self) -> None:
        """Close every connection and the listening socket."""
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()

    # -- the loop's steps ---------------------------------------------------

    def _wait(self, conn: _Connection, seconds: float) -> None:
        conn.deadline = monotonic() + seconds
        self._next_expiry = min(self._next_expiry, conn.deadline)

    def _expire(self, now: float) -> None:
        self._next_expiry = float("inf")
        for conn in list(self._connections):
            if conn.deadline <= now and conn.outbuf:
                try:  # a client still reading its answer keeps the connection
                    self._send(conn)
                except OSError:
                    pass
            if conn.deadline <= now:
                log.debug("%s: closed after its deadline", conn.address[0])
                self._close(conn)
            else:
                self._next_expiry = min(self._next_expiry, conn.deadline)

    def _accept(self) -> None:
        try:
            sock, address = self.socket.accept()
        except BlockingIOError:
            return
        except OSError as exc:  # say, out of file descriptors: serve the others
            log.warning("accept failed: %s", exc)
            return
        sock.setblocking(False)
        if len(self._connections) >= self.MAX_CONNECTIONS:
            handler = ShoutHandler(self.store, (
                "busy", f"over {self.MAX_CONNECTIONS} open connections", 503))
            handler.handle()
            try:
                sock.send(handler.answer)
            except OSError:
                pass
            _hang_up(sock)
            return
        conn = _Connection(sock, address)
        self._wait(conn, self.IDLE_TIMEOUT)
        self._connections.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _on_event(self, conn: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_READ:
                data = conn.sock.recv(1 << 16)
                if not conn.inbuf:
                    self._wait(conn, self.REQUEST_TIMEOUT)
                conn.inbuf += data
                self._serve(conn, eof=not data)
            if conn.outbuf:
                self._send(conn)
        except BlockingIOError:
            pass
        except OSError:  # a reset or a broken pipe: no one is left to answer
            self._close(conn)
            return
        except Exception:  # noqa: BLE001 - keep serving the other connections
            log.exception("unhandled error on %s", conn.address[0])
            self._close(conn)
            return
        if conn.closing and not conn.outbuf:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.outbuf else selectors.EVENT_READ
        if events != conn.events:  # no reading while an answer waits to go out
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _serve(self, conn: _Connection, eof: bool) -> None:
        """Serve each complete request in ``conn.inbuf``; at EOF, what is left."""
        buf, served = conn.inbuf, 0
        while not conn.closing:
            while buf.startswith(b"\n", served) or buf.startswith(b"\r\n", served):
                served = buf.index(b"\n", served) + 1  # empty lines before a request
            head, body = _read_head(buf, served, eof), b""
            if head is None:
                break
            if type(head) is Head:
                end = head.end + head.length
                if end <= len(buf):
                    body, served = bytes(buf[head.end:end]), end
                elif not eof:
                    if head.expect and not conn.continued:
                        conn.outbuf += _CONTINUE
                        conn.continued = True
                    break
                else:  # the client stopped sending inside the body
                    head = ("bad_request", f"body of {len(buf) - head.end} bytes, "
                                           f"Content-Length {head.length}", 400)
            handler = ShoutHandler(self.store, head, body)
            try:
                handler.handle()
            except Exception:  # noqa: BLE001 - keep serving the other connections
                log.exception("unhandled error serving %s", conn.address[0])
                conn.closing = True
                break
            conn.outbuf += handler.answer
            conn.continued = False
            conn.closing = handler.close_connection
        del buf[:served]
        conn.closing = conn.closing or eof

    def _send(self, conn: _Connection) -> None:
        """Send what the kernel takes of ``conn.outbuf``; progress renews the
        connection's deadline."""
        sent = conn.sock.send(conn.outbuf)
        del conn.outbuf[:sent]
        if sent:
            self._wait(conn, self.IDLE_TIMEOUT)

    def _close(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        self._selector.unregister(conn.sock)
        _hang_up(conn.sock)


def _hang_up(sock: socket.socket) -> None:
    """Close ``sock`` after reading what the client sent: closing with bytes
    unread resets the connection, and a reset can discard the answer."""
    try:
        for _ in range(16):
            if not sock.recv(1 << 16):
                break
    except OSError:  # BlockingIOError: nothing more has arrived
        pass
    sock.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa-server",
                                     description="Run the shout-logging server")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--host")
    parser.add_argument("--port", type=int)
    parser.add_argument("--journal", help="journal file path")
    args = parser.parse_args(argv)

    overrides = {key: getattr(args, key) for key in ("host", "port", "journal")
                 if getattr(args, key) not in (None, "")}
    try:
        config = replace(load_config(args.config), **overrides)
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    started = perf_counter()
    try:
        store = Store(config.journal, slot=config.slot, tolerance=config.tolerance,
                      parser_config=config)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = store.state
    log.info("opened journal %s in %.0f ms: %d records from its checkpoint, "
             "%d replayed", config.journal, (perf_counter() - started) * 1000,
             state.checkpoint_seq, state.last_seq - state.checkpoint_seq)
    server = ShoutServer(store, config.host, config.port)
    host, port = server.server_address[:2]
    log.info("serving on http://%s:%s journal=%s", host, port, config.journal)
    # SIGTERM, what kill and service managers send, ends the loop between
    # requests; the store then closes and writes its checkpoint, as on SIGINT
    previous = signal.signal(signal.SIGTERM, lambda *_: setattr(server, "_stop", True))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
