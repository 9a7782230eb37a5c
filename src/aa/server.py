"""HTTP front end for the shout store.

Endpoints:
  GET/POST /shout                      params: nick, msg [, client_created, source]
  GET      /shouts                     params: format=text|json, nick, since, until
  POST     /message                    params: nick, msg; JSON body may add batch
  POST     /session/<id>/screencast    params: url
  POST     /session/<id>/review        params: reviewer, score, comment
  POST     /session/<id>/lost          params: slot
  GET      /report                     params: n

Client errors answer 4xx with a JSON body carrying a machine-readable
"error" code; journal failures answer 500.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .config import SuiteConfig, load_config
from .errors import AAError
from .model import Source
from .store import Store

log = logging.getLogger("aa.server")

MAX_BODY = 1 << 20  # bytes; far above any real request, as aa push sends one item each


class ShoutHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def store(self) -> Store:
        return self.server.store

    def log_message(self, fmt, *args):
        log.debug("%s - %s", self.address_string(), fmt % args)

    # -- plumbing ---------------------------------------------------------

    def _params(self) -> dict:
        parts = urlsplit(self.path)
        params = {k: v[0] for k, v in parse_qs(parts.query).items()}
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 <= length <= MAX_BODY:
            # an unread body would be read as the next request
            self.close_connection = True
            raise ValueError(f"Content-Length {length} outside 0..{MAX_BODY}")
        if length:
            body = self.rfile.read(length)
            ctype = self.headers.get("Content-Type", "")
            if "json" in ctype:
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

    def _dispatch(self, method: str) -> None:
        try:
            params = self._params()
            self._route(method, urlsplit(self.path).path, params)
        except AAError as exc:
            self._send_error_code(exc.code, str(exc), exc.http_status)
        except (ValueError, KeyError) as exc:
            self._send_error_code("bad_request", str(exc), 400)
        except Exception:  # noqa: BLE001 - keep the server alive
            log.exception("unhandled error for %s", self.path)
            self._send_error_code("internal", "unhandled server error", 500)

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    # -- routes ------------------------------------------------------------

    def _route(self, method: str, path: str, params: dict) -> None:
        if path == "/shout":
            return self._handle_shout(params)
        if path == "/shouts" and method == "GET":
            return self._handle_shouts(params)
        if path == "/message" and method == "POST":
            return self._handle_message(params)
        if path == "/report" and method == "GET":
            return self._handle_report(params)
        if path.startswith("/session/") and method == "POST":
            rest = path[len("/session/"):]
            session_id, _, action = rest.partition("/")
            if action == "screencast":
                return self._handle_screencast(session_id, params)
            if action == "review":
                return self._handle_review(session_id, params)
            if action == "lost":
                return self._handle_lost(session_id, params)
        self._send_error_code("not_found", f"no route {method} {path}", 404)

    def _handle_shout(self, params: dict) -> None:
        source = Source(params.get("source", "http"))
        if source is Source.MINED:
            raise ValueError("mined records enter through the journal, not HTTP")
        shout = self.store.receive_shout(
            params.get("nick", ""), params.get("msg", ""),
            source=source, client_created=params.get("client_created"))
        self._send_json({"id": shout.id, "created": shout.created,
                         "kind": shout.kind.value})

    def _handle_shouts(self, params: dict) -> None:
        filters = {
            "nick": params.get("nick"),
            "since": params.get("since"),
            "until": params.get("until"),
        }
        if params.get("format", "text") == "json":
            body = self.store.shouts_json(**filters).encode()
            self._send(200, body, "application/json")
        else:
            body = self.store.shouts_text(**filters).encode()
            self._send(200, body, "text/plain; charset=utf-8")

    def _handle_message(self, params: dict) -> None:
        batch = params.get("batch")
        if batch is not None and not isinstance(batch, list):
            raise ValueError("batch must be a list")
        result = self.store.receive_message(params.get("nick", ""),
                                            params.get("msg", ""), batch=batch)
        self._send_json(result)

    def _handle_screencast(self, session_id: str, params: dict) -> None:
        self.store.attach_screencast(session_id, params.get("url", ""))
        self._send_json(self.store.session_view(session_id))

    def _handle_review(self, session_id: str, params: dict) -> None:
        review = self.store.record_review(
            session_id, params.get("reviewer", ""),
            float(params.get("score", "nan")), params.get("comment"))
        self._send_json({"session": review.session, "reviewer": review.reviewer,
                         "score": review.score, "comment": review.comment})

    def _handle_lost(self, session_id: str, params: dict) -> None:
        marker = self.store.emit_lost(session_id, int(params["slot"]))
        self._send_json({"id": marker.id, "slot": int(params["slot"]),
                         "created": marker.created})

    def _handle_report(self, params: dict) -> None:
        n = int(params.get("n", "20"))
        self._send_json(self.store.report(n=n))


def create_server(store: Store, host: str = "127.0.0.1",
                  port: int = 0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer((host, port), ShoutHandler)
    server.store = store
    return server


def store_from_config(config: SuiteConfig, clock=None) -> Store:
    kwargs = {"clock": clock} if clock else {}
    return Store(config.journal, slot=config.slot, tolerance=config.tolerance,
                 parser_config=config.parser_config(), **kwargs)


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
    store = store_from_config(config)
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
