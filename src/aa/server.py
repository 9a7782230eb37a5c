"""HTTP front end for the shout store.

Endpoints and their parameters:
  GET/POST /shout                      nick, msg [, client_created, source]
  GET      /shouts                     format=text|json, nick, since, until
  POST     /message                    nick, msg; JSON body may add batch
  POST     /session/<id>/screencast    url
  POST     /session/<id>/review        reviewer, score, comment
  POST     /session/<id>/lost          slot
  GET      /report                     n

``ROUTES`` is the table. A handler's keyword-only parameters are its route's,
read from the query, a form or a JSON body by their annotated types; a value
of the wrong type answers 400 "bad_request" naming the parameter. Other client
errors answer 4xx with a machine-readable "error" code, journal failures 500.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from inspect import Parameter, signature
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from .config import load_config
from .errors import AAError, JournalError
from .model import Source, check_timestamp, parse_iso8601
from .store import Store

log = logging.getLogger("aa.server")

MAX_BODY = 1 << 20  # bytes; far above any real request, as aa push sends one item each

Timestamp = int  # epoch seconds in UTC years 1-9999: an int, a decimal string or ISO 8601


def _timestamp(value: int | str) -> int:
    ts = int(value) if type(value) is int or value.isdecimal() else parse_iso8601(value)
    return check_timestamp(ts)


# per annotated type: its reader, and the JSON types a value may have besides text
_READERS = {"str": (str, ()), "int": (int, (int,)), "float": (float, (int, float)),
            "Source": (Source, ()), "Timestamp": (_timestamp, (int,)),
            "list[dict]": (lambda items: [decode(i, _BATCH_ITEM) for i in items], (list,))}
_BATCH_ITEM = {"message": ("str", Parameter.empty), "client_created": ("Timestamp", None)}


def decode(params: dict, spec: dict[str, tuple[str, object]]) -> dict:
    """Read each ``name: (type, default)`` of ``spec``; ValueError names a bad one."""
    if type(params) is not dict:
        raise TypeError("expected an object")
    values = {}
    for name, (kind, default) in spec.items():
        value = params.get(name)  # JSON null counts as absent
        if value is None and default is not Parameter.empty:
            values[name] = default
            continue
        read, json_types = _READERS[kind]
        try:
            if type(value) not in (str, *json_types):  # exact: a bool is no int
                raise TypeError
            values[name] = read(value)
        except (OverflowError, TypeError, ValueError) as exc:  # float() of a huge int
            why = f": {exc}" if exc.args else ""  # names a bad field of a batch item
            raise ValueError(f"parameter {name!r} must be {kind}, "
                             f"got {value!r:.60}{why}") from None
    return values


def _entry(name: str, methods: tuple[str, ...], path: str, handler: Callable) -> tuple:
    """A ROUTES entry: its spec maps each keyword-only parameter to (type, default)."""
    return name, methods, path, handler, {
        p.name: (p.annotation.removesuffix(" | None"), p.default)
        for p in signature(handler).parameters.values() if p.kind is p.KEYWORD_ONLY}


class ShoutHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def store(self) -> Store:
        return self.server.store

    def log_message(self, fmt, *args):
        log.debug("%s - %s", self.address_string(), fmt % args)

    # -- plumbing ---------------------------------------------------------

    def _params(self, query: str) -> dict:
        params = {k: v[0] for k, v in parse_qs(query).items()}
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 <= length <= MAX_BODY:
            # an unread body would be read as the next request
            self.close_connection = True
            raise ValueError(f"Content-Length {length} outside 0..{MAX_BODY}")
        if length:
            body = self.rfile.read(length)
            if len(body) != length:
                self.close_connection = True  # the client stopped sending
                raise ValueError(f"body of {len(body)} bytes, Content-Length {length}")
            if "json" in self.headers.get("Content-Type", ""):
                payload = json.loads(body)
                if not isinstance(payload, dict):
                    raise ValueError("JSON body must be an object")
                params.update(payload)
            else:
                params.update({k: v[0] for k, v in parse_qs(body.decode()).items()})
        return params

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(status, body, "application/json")

    def _send_error_code(self, code: str, detail: str, status: int) -> None:
        self._send_json({"error": code, "detail": detail}, status=status)

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:  # a broken pipe or a reset: the client hung up,
            self.close_connection = True  # so no one is left to answer

    def _dispatch(self, method: str) -> None:
        try:
            parts = urlsplit(self.path)
            params = self._params(parts.query)
            for _, methods, pattern, handler, spec in ROUTES:
                found = re.fullmatch(pattern.replace("<id>", "([^/]*)"), parts.path)
                if found and method in methods:
                    return handler(self, *found.groups(), **decode(params, spec))
            self._send_error_code("not_found", f"no route {method} {parts.path}", 404)
        except AAError as exc:
            self._send_error_code(exc.code, str(exc), exc.http_status)
        except ValueError as exc:
            self._send_error_code("bad_request", str(exc), 400)
        except ConnectionError:
            raise  # for handle_one_request
        except Exception:  # noqa: BLE001 - keep the server alive
            log.exception("unhandled error for %s", self.path)
            self._send_error_code("internal", "unhandled server error", 500)

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

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
                       since: str | None = None, until: str | None = None) -> None:
        filters = {"nick": nick, "since": since, "until": until}
        if format == "json":
            body = self.store.shouts_json(**filters).encode()
            self._send(200, body, "application/json")
        else:
            body = self.store.shouts_text(**filters).encode()
            self._send(200, body, "text/plain; charset=utf-8")

    def _handle_message(self, *, nick: str = "", msg: str = "",
                        batch: list[dict] | None = None) -> None:
        self._send_json(self.store.receive_message(nick, msg, batch=batch))

    def _handle_screencast(self, session_id: str, *, url: str = "") -> None:
        self.store.attach_screencast(session_id, url)
        self._send_json(self.store.session_view(session_id))

    def _handle_review(self, session_id: str, *, reviewer: str = "",
                       score: float = float("nan"), comment: str | None = None) -> None:
        review = self.store.record_review(session_id, reviewer, score, comment)
        self._send_json({"session": review.session, "reviewer": review.reviewer,
                         "score": review.score, "comment": review.comment})

    def _handle_lost(self, session_id: str, *, slot: int) -> None:
        marker = self.store.emit_lost(session_id, slot)
        self._send_json({"id": marker.id, "slot": slot, "created": marker.created})

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
    _entry("lost", ("POST",), "/session/<id>/lost", ShoutHandler._handle_lost),
)


def create_server(store: Store, host: str = "127.0.0.1",
                  port: int = 0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer((host, port), ShoutHandler)
    server.store = store
    return server


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
    try:
        store = Store(config.journal, slot=config.slot, tolerance=config.tolerance,
                      parser_config=config.parser_config())
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = create_server(store, config.host, config.port)
    host, port = server.server_address[:2]
    log.info("serving on http://%s:%s journal=%s", host, port, config.journal)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
