import collections
import contextlib
import errno
import io
import json
import os
import socket
import stat
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from aa import client
from aa import journal as jn
from aa.client import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SPOOLED,
    EXIT_USAGE,
    ClientConfig,
    RequestFailed,
    TransportError,
    _call,
    api_report,
    api_shout,
    cmd_shout,
    load_client_config,
    push,
    session_loop,
    spool_append,
    spool_load,
)
from aa.model import MessageKind
from aa.server import ShoutServer


@pytest.fixture
def client_config(tmp_path, live_server):
    return ClientConfig(server=live_server.url, nick="bob",
                        spool=str(tmp_path / "spool.jsonl"), timeout=5)


def offline_config(tmp_path):
    # nothing listens on this port
    return ClientConfig(server="http://127.0.0.1:1", nick="bob",
                        spool=str(tmp_path / "spool.jsonl"), timeout=0.5)


class FlakyHandler(BaseHTTPRequestHandler):
    """Accepts a fixed number of requests as /shout does, then answers 500."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.requests.append(f"{self.command} {self.path}")
        if self.server.budget > 0:
            self.server.budget -= 1
            body = json.dumps({"id": "x", "created": 1, "kind": "shout"}).encode()
            self.send_response(200)
        else:
            body = b'{"error": "journal_failure"}'
            self.send_response(500)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), FlakyHandler)
    server.budget = 1
    server.requests = []
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class CannedServer:
    """Answers requests with ``answers`` in turn, as raw bytes, on connections
    kept the way an HTTP/1.1 server keeps them: after an answer it reads the
    next request on the same connection, unless the answer ends it (see
    ``ends_connection``). When the client closes a kept connection, the next
    request is read from a new one. ``connections`` counts those accepted."""

    def __init__(self, answers: list[bytes]):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.requests: list[bytes] = []
        self.connections = 0
        self.thread = threading.Thread(target=self._serve, args=(answers,), daemon=True)
        self.thread.start()

    def _serve(self, answers: list[bytes]) -> None:
        conn = None
        try:
            for answer in answers:
                request = conn and self._read(conn)
                if not request:  # no connection kept, or the client closed it
                    if conn:
                        conn.close()
                    conn, _ = self.sock.accept()
                    conn.settimeout(5)
                    self.connections += 1
                    request = self._read(conn)
                self.requests.append(request)
                conn.sendall(answer)
                if ends_connection(answer):
                    conn.close()
                    conn = None
        finally:
            if conn:
                conn.close()

    @staticmethod
    def _read(conn: socket.socket) -> bytes:
        """One whole request, or b"" if the client closes the connection first."""
        request = b""
        while b"\r\n\r\n" not in request:
            if not (chunk := conn.recv(65536)):
                return b""
            request += chunk
        head = request.split(b"\r\n\r\n")[0].lower()
        length = int(head.partition(b"content-length:")[2].split(b"\r\n")[0] or 0)
        while len(request) < len(head) + 4 + length:
            request += conn.recv(65536)
        return request

    def close(self) -> None:
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.sock.close()


def ends_connection(answer: bytes) -> bool:
    """Whether a server closes its connection after sending ``answer``: an
    HTTP/1.0 or ``Connection: close`` answer says so, and an answer cut short
    (its head unended, or less body than its Content-Length) is cut by the close."""
    head, ended, body = answer.partition(b"\r\n\r\n")
    fields = head.lower().split(b"\r\n")
    length = [int(f.partition(b":")[2]) for f in fields if f.startswith(b"content-length:")]
    return (not ended or head.startswith(b"HTTP/1.0") or b"connection: close" in fields
            or bool(length) and len(body) < length[0])


@pytest.fixture
def canned():
    servers = []

    def start(*answers: bytes) -> CannedServer:
        servers.append(CannedServer(list(answers)))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def canned_config(tmp_path, url: str) -> ClientConfig:
    return ClientConfig(server=url, nick="bob", spool=str(tmp_path / "spool.jsonl"),
                        timeout=5)


def json_answer(status: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


def start_answer(slot: float, tolerance: float) -> bytes:
    return json_answer("200 OK", {"result": "start", "session": "s1", "event": "opened",
                                  "slot": slot, "tolerance": tolerance})


STOP_ANSWER = json_answer("200 OK", {"result": "stop", "session": "s1", "report": None})


def assert_start_then_stop(server: CannedServer) -> None:
    """The client sent a start, then one stop, and nothing else."""
    bodies = [json.loads(r.partition(b"\r\n\r\n")[2]) for r in server.requests]
    assert [r.split(b" ")[1] for r in server.requests] == [b"/message", b"/message"]
    assert [b["msg"] for b in bodies] == ["start", "stop"]


class TestTransport:
    def test_an_answer_without_content_length_is_read_to_eof(self, tmp_path, canned):
        server = canned(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n"
                        b'{"latest": []}')
        config = canned_config(tmp_path, server.url + "/aa/")
        assert _call(config, "GET", "/report", params={"n": 1, "skip": None}) == \
            {"latest": []}
        assert server.requests == [b"GET /aa/report?n=1 HTTP/1.1\r\n"
                                   + f"Host: {server.url[7:]}\r\n".encode()
                                   + b"Content-Length: 0\r\n\r\n"]

    def test_a_json_body_is_sent_with_its_type_and_length(self, tmp_path, canned):
        server = canned(b'HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}')
        assert _call(canned_config(tmp_path, server.url), "POST", "/message",
                     body={"msg": "start"}) == {}
        head, _, body = server.requests[0].partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"POST /message HTTP/1.1"
        assert b"Content-Type: application/json" in head.split(b"\r\n")
        assert b"Content-Length: 16" in head.split(b"\r\n")
        assert json.loads(body) == {"msg": "start"}

    def test_a_json_array_is_the_answer_of_a_listing(self, tmp_path, canned):
        # GET /shouts?format=json answers an array; the api_* calls want an object
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]")
        assert _call(canned_config(tmp_path, server.url), "GET", "/shouts") == []

    def test_a_body_cut_short_is_a_transport_error_and_the_shout_spools(self, tmp_path,
                                                                         canned):
        cut = b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"id": "x'
        server = canned(cut, cut)
        config = canned_config(tmp_path, server.url)
        with pytest.raises(TransportError, match="body of 9 bytes, Content-Length 40"):
            _call(config, "GET", "/report")
        assert cmd_shout(config, "cut off", out=lambda *_: None) == EXIT_SPOOLED
        assert [r["data"]["message"] for r in spool_load(config)] == ["cut off"]

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 0\r\n\r\n",
        b'HTTP/1.1 503 Service Unavailable\r\nContent-Length: 17\r\n\r\n{"error": "busy"}',
        b"SMTP ready\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.0 200 OK\r\nContent-Length: 15\r\n\r\n<html>hi</html>",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]",
        b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000,
    ], ids=["302", "503", "garbage-status-line", "head-cut-short", "negative-length",
            "chunked", "200-html", "200-array", "200-nested-too-deep"])
    def test_no_usable_answer_is_a_transport_error(self, tmp_path, canned, answer):
        server = canned(answer, answer)
        config = canned_config(tmp_path, server.url)
        with pytest.raises(TransportError):
            api_report(config)
        assert cmd_shout(config, "no answer", out=lambda *_: None) == EXIT_SPOOLED
        assert [r["data"]["message"] for r in spool_load(config)] == ["no answer"]

    @pytest.mark.parametrize("payload", [{"ok": True}, {"id": 7}], ids=["no-id", "int-id"])
    def test_a_shout_answer_without_a_text_id_spools_the_shout(self, tmp_path, canned,
                                                                 payload):
        server = canned(json_answer("200 OK", payload))
        config = canned_config(tmp_path, server.url)
        assert cmd_shout(config, "no id", out=lambda *_: None) == EXIT_SPOOLED
        assert [r["data"]["message"] for r in spool_load(config)] == ["no id"]

    def test_a_4xx_with_a_text_body_is_refused_with_that_text(self, tmp_path, canned):
        server = canned(b"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nno route\n")
        with pytest.raises(RequestFailed) as refused:
            _call(canned_config(tmp_path, server.url), "GET", "/nope")
        assert (refused.value.code, str(refused.value)) == ("error", "error: no route\n")

    def test_an_https_url_at_a_plain_server_is_a_transport_error(self, tmp_path,
                                                                 live_server):
        config = ClientConfig(server="https" + live_server.url[4:], nick="bob",
                              spool=str(tmp_path / "spool.jsonl"), timeout=1)
        with pytest.raises(TransportError):
            _call(config, "GET", "/report")
        assert cmd_shout(config, "over tls", out=lambda *_: None) == EXIT_SPOOLED


class TestConnectionPool:
    def test_calls_to_a_live_server_share_one_connection(self, client_config,
                                                         live_server, monkeypatch):
        accepted = []
        accept = live_server._accept
        monkeypatch.setattr(live_server, "_accept",
                            lambda: (accepted.append(1), accept()))
        for i in range(4):
            api_shout(client_config, f"step {i}")
        api_report(client_config)
        assert _call(client_config, "GET", "/shouts", params={"format": "json"})
        assert len(accepted) == 1
        assert len(live_server.store.list_shouts()) == 4

    def test_a_connection_the_server_closed_is_replaced_without_spooling(
            self, client_config, live_server, monkeypatch):
        monkeypatch.setattr(live_server, "IDLE_TIMEOUT", 0.2)
        assert cmd_shout(client_config, "before", out=lambda *_: None) == EXIT_OK
        [[(kept, _)]] = client._POOL._idle.values()
        deadline = time.monotonic() + 5
        while client._quiet(kept) and time.monotonic() < deadline:
            time.sleep(0.02)  # until the server's close reaches the client
        assert not client._quiet(kept)
        assert cmd_shout(client_config, "after", out=lambda *_: None) == EXIT_OK
        assert kept.fileno() == -1
        assert not os.path.exists(client_config.spool)
        assert [s.message for s in live_server.store.list_shouts()] == ["before", "after"]

    @pytest.mark.parametrize("answer", [
        json_answer("200 OK", {"n": 1}),
        json_answer("404 Not Found", {"error": "not_found", "detail": "no route"}),
        b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}",
    ], ids=["200", "404", "keep-alive"])
    def test_a_clean_answer_keeps_its_connection(self, tmp_path, canned, answer):
        server = canned(answer, json_answer("200 OK", {"n": 2}))
        config = canned_config(tmp_path, server.url)
        with contextlib.suppress(RequestFailed):
            _call(config, "GET", "/report")
        assert _call(config, "GET", "/report") == {"n": 2}
        assert server.connections == 1

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nConnection: Keep-Alive, Close\r\nContent-Length: 2\r\n"
        b"\r\n{}",
        b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"id": "x',
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n<>",
        b"SMTP ready\r\n\r\n",
        b'HTTP/1.1 503 Service Unavailable\r\nContent-Length: 17\r\n\r\n{"error": "busy"}',
    ], ids=["http-1.0", "connection-close", "close-among-tokens", "cut", "over-long",
            "not-json", "bad-status-line", "503"])
    def test_an_answer_that_is_not_clean_closes_its_connection(self, tmp_path, canned,
                                                                 answer):
        server = canned(answer, json_answer("200 OK", {"n": 2}))
        config = canned_config(tmp_path, server.url)
        with contextlib.suppress(TransportError):
            _call(config, "GET", "/report")
        assert client._POOL._idle == {}
        assert _call(config, "GET", "/report") == {"n": 2}
        assert server.connections == 2

    @pytest.mark.parametrize("stray", [b"HTTP/1.1 200 OK\r\n", b""], ids=["bytes", "eof"])
    def test_an_idle_connection_with_something_to_read_is_not_reused(self, stray):
        mine, theirs = socket.socketpair()
        with mine, theirs:
            assert client._quiet(mine)
            if stray:
                theirs.sendall(stray)
            else:
                theirs.shutdown(socket.SHUT_WR)
            assert not client._quiet(mine)

    def test_a_connection_idle_past_the_limit_is_closed_not_reused(self, tmp_path,
                                                                   canned, monkeypatch):
        assert client.KEEP_IDLE_S <= ShoutServer.IDLE_TIMEOUT / 2
        server = canned(json_answer("200 OK", {"n": 1}), json_answer("200 OK", {"n": 2}))
        config = canned_config(tmp_path, server.url)
        assert _call(config, "GET", "/report") == {"n": 1}
        [[(kept, _)]] = client._POOL._idle.values()
        real = time.monotonic
        monkeypatch.setattr(time, "monotonic", lambda: real() + client.KEEP_IDLE_S)
        assert _call(config, "GET", "/report") == {"n": 2}
        assert kept.fileno() == -1
        assert server.connections == 2

    def test_a_failure_on_a_kept_connection_is_not_retried(self, tmp_path, canned):
        # the server takes the second request and closes without an answer
        server = canned(json_answer("200 OK", {"id": "x1"}), b"")
        config = canned_config(tmp_path, server.url)
        assert cmd_shout(config, "first", out=lambda *_: None) == EXIT_OK
        assert cmd_shout(config, "second", out=lambda *_: None) == EXIT_SPOOLED
        assert [r["data"]["message"] for r in spool_load(config)] == ["second"]
        assert (len(server.requests), server.connections) == (2, 1)

    def test_two_threads_never_share_a_connection(self, client_config, live_server,
                                                  monkeypatch):
        in_use, shared, lock = set(), [], threading.Lock()
        exchange = client._exchange

        def exclusive(sock, request):
            with lock:
                shared.extend([sock] if sock in in_use else [])
                in_use.add(sock)
            try:
                return exchange(sock, request)
            finally:
                with lock:
                    in_use.discard(sock)

        monkeypatch.setattr(client, "_exchange", exclusive)
        errors = []

        def shout(n: int) -> None:
            try:
                for i in range(10):
                    api_report(client_config, n=1)
                    api_shout(replace(client_config, nick=f"t{n}"), f"step {i}")
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=shout, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and shared == []
        assert len(live_server.store.list_shouts()) == 60
        assert 1 <= sum(map(len, client._POOL._idle.values())) <= 6

    def test_kept_connections_are_closed_at_exit(self, live_server):
        script = ("from aa.client import ClientConfig, api_report\n"
                  f"config = ClientConfig(server={live_server.url!r}, timeout=5)\n"
                  "api_report(config)\napi_report(config)\n")
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert (done.returncode, done.stderr) == (0, "")


class TestShoutCommand:
    def test_shout_prints_id(self, client_config):
        lines = []
        code = cmd_shout(client_config, "wiring journal replay", out=lines.append)
        assert code == EXIT_OK
        assert len(lines) == 1 and lines[0]  # the returned id

    def test_empty_message_not_sent(self, client_config):
        lines = []
        assert cmd_shout(client_config, "   ", out=lines.append) == EXIT_USAGE

    def test_api_shout_sends_client_created(self, client_config, live_server):
        result = api_shout(client_config, "x", client_created=1700000000)
        assert result["kind"] == "shout"
        assert [s.client_created for s in live_server.store.list_shouts()] == \
            [1700000000]

    def test_server_down_spools_with_distinct_exit(self, tmp_path):
        config = offline_config(tmp_path)
        lines = []
        code = cmd_shout(config, "offline note", out=lines.append)
        assert code == EXIT_SPOOLED
        spooled = spool_load(config)
        assert [r["data"]["message"] for r in spooled] == ["offline note"]
        assert spooled[0]["type"] == "shout"


class TestPush:
    def test_empty_spool_is_noop(self, client_config):
        assert push(client_config, out=lambda *_: None) == EXIT_OK

    def test_push_drains_in_order(self, tmp_path, live_server, client_config):
        offline = offline_config(tmp_path)
        offline.spool = client_config.spool
        for i in range(3):
            cmd_shout(offline, f"spooled {i}", out=lambda *_: None)
        assert len(spool_load(client_config)) == 3

        code = push(client_config, out=lambda *_: None)
        assert code == EXIT_OK
        assert spool_load(client_config) == []
        assert [s.message for s in live_server.store.list_shouts()] == \
            ["spooled 0", "spooled 1", "spooled 2"]
        by_msg = {s.message: s for s in live_server.store.list_shouts()}
        assert by_msg["spooled 0"].client_created is not None

    def test_partial_failure_keeps_suffix(self, tmp_path, flaky_server):
        config = ClientConfig(server=f"http://127.0.0.1:{flaky_server.server_address[1]}",
                              nick="bob", spool=str(tmp_path / "spool.jsonl"),
                              timeout=5)
        for i in range(3):
            spool_append(config, f"queued {i}")
        code = push(config, out=lambda *_: None)
        assert code == EXIT_SPOOLED
        left = [r["data"]["message"] for r in spool_load(config)]
        assert left == ["queued 1", "queued 2"]
        assert flaky_server.requests == ["POST /shout", "POST /shout"]

    def test_a_record_is_pushed_with_its_source_or_as_http_without_one(self, tmp_path,
                                                                        canned):
        server = canned(json_answer("200 OK", {"id": "x1"}),
                        json_answer("200 OK", {"id": "x2"}))
        config = canned_config(tmp_path, server.url)
        spool_append(config, "from the chat", source="chat")
        with open(config.spool, "a", encoding="utf-8") as fh:  # spooled before sources
            fh.write('{"type": "shout", "data": {"nick": "bob", "message": "older"}}\n')
        assert push(config, out=lambda *_: None) == EXIT_OK
        bodies = [json.loads(r.partition(b"\r\n\r\n")[2]) for r in server.requests]
        assert [(b["msg"], b["source"]) for b in bodies] == [("from the chat", "chat"),
                                                           ("older", "http")]

    def test_push_sends_each_record_as_a_post_shout(self, tmp_path, canned):
        server = canned(json_answer("200 OK", {"id": "x1"}),
                        json_answer("200 OK", {"id": "x2"}))
        config = canned_config(tmp_path, server.url)
        spool_append(replace(config, nick="alice"), "from the bot spool")
        spool_append(config, "from the terminal")
        created = [r["data"]["client_created"] for r in spool_load(config)]
        assert push(config, out=lambda *_: None) == EXIT_OK
        heads = [r.split(b"\r\n")[0] for r in server.requests]
        assert heads == [b"POST /shout HTTP/1.1"] * 2
        assert [json.loads(r.partition(b"\r\n\r\n")[2]) for r in server.requests] == [
            {"nick": "alice", "msg": "from the bot spool", "source": "http",
             "client_created": created[0]},
            {"nick": "bob", "msg": "from the terminal", "source": "http",
             "client_created": created[1]}]

    def test_push_journals_one_shout_record_per_spooled_shout(self, client_config,
                                                              live_server):
        spool_append(client_config, "stop the flaky test first")
        spool_append(replace(client_config, nick="alice"), "second note")
        spooled = [r["data"] for r in spool_load(client_config)]
        assert push(client_config, out=lambda *_: None) == EXIT_OK
        records = list(jn.read_records(live_server.store.journal.path))
        assert [(r.type, r.data["kind"], r.data["nick"], r.data["message"],
                 r.data["client_created"]) for r in records] == \
            [("shout", "shout", d["nick"], d["message"], d["client_created"])
             for d in spooled]

    def test_a_message_past_the_request_line_limit_gets_through(self, client_config,
                                                                live_server):
        long = "x" * 70_000
        assert cmd_shout(client_config, long, out=lambda *_: None) == EXIT_OK
        spool_append(client_config, "y" * 70_000)
        assert push(client_config, out=lambda *_: None) == EXIT_OK
        assert [s.message for s in live_server.store.list_shouts()] == \
            [long, "y" * 70_000]

    def test_a_record_refused_for_its_content_is_dropped(self, client_config,
                                                         live_server):
        spool_append(client_config, "   ")
        spool_append(client_config, "good one")
        lines = []
        assert push(client_config, out=lines.append) == EXIT_ERROR
        assert lines[0].startswith("rejected: empty_message: ")
        assert lines[1:] == ["pushed 1"]
        assert spool_load(client_config) == []
        assert "good one" in [s.message for s in live_server.store.list_shouts()]

    def test_a_404_keeps_every_record(self, tmp_path, live_server, canned):
        wrong_path = ClientConfig(server=live_server.url + "/wrong", nick="bob",
                                  spool=str(tmp_path / "spool.jsonl"), timeout=5)
        spool_append(wrong_path, "   ")
        spool_append(wrong_path, "good one")
        assert push(wrong_path, out=lambda *_: None) == EXIT_SPOOLED
        assert len(spool_load(wrong_path)) == 2
        # a 404 drops nothing, whatever its code
        server = canned(json_answer("404 Not Found", {"error": "empty_message",
                                                      "detail": "elsewhere"}))
        refused = canned_config(tmp_path, server.url)
        assert push(refused, out=lambda *_: None) == EXIT_SPOOLED
        assert len(spool_load(refused)) == 2
        assert server.requests[0].startswith(b"POST /shout HTTP/1.1\r\n")


def tear_last_line(spool):
    """Cut the spool inside its last record, as a crash mid-append would."""
    with open(spool, "rb+") as fh:
        fh.truncate(fh.seek(0, 2) - 10)


@pytest.fixture
def synced(monkeypatch):
    """Each fsync, as "file" or "dir", and each os.unlink, in order."""
    events, fsync, unlink = [], os.fsync, os.unlink

    def counting_fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        fsync(fd)

    def counting_unlink(*args):
        events.append("unlink")
        unlink(*args)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "unlink", counting_unlink)
    return events


class KeptWrites:
    """A file that aa.client opened, whose writes are kept in ``writes``;
    the write numbered ``cut_at`` (from 1) writes half its bytes and fails,
    as a full disk or a crash would leave it."""

    def __init__(self, fh, writes: list[bytes], cut_at: int | None = None):
        self._fh, self._writes, self._cut_at = fh, writes, cut_at

    def write(self, data):
        self._writes.append(data)
        if len(self._writes) == self._cut_at:
            self._fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "injected")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __iter__(self):
        return iter(self._fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def keep_writes(monkeypatch, cut_at: int | None = None) -> list[bytes]:
    """Every write to a file that aa.client opens from now on, in order."""
    writes, real_open = [], open
    monkeypatch.setattr(client, "open", lambda *args, **kwargs: KeptWrites(
        real_open(*args, **kwargs), writes, cut_at), raising=False)
    return writes


def stub_sends(monkeypatch, sends: list) -> None:
    """Answer each api_shout at once and keep its message in ``sends``."""
    monkeypatch.setattr(client, "api_shout",
                        lambda config, message, **_: sends.append(message) or {"id": "x"})


class TestSpoolDurability:
    def test_a_spooled_shout_is_fsynced_before_it_is_reported(self, tmp_path, synced):
        config = offline_config(tmp_path)
        cmd_shout(config, "first", out=synced.append)
        assert synced == ["file", "dir", f"server unreachable; spooled to {config.spool}"]
        synced.clear()
        cmd_shout(config, "second", out=synced.append)
        assert synced == ["file", f"server unreachable; spooled to {config.spool}"]

    def test_each_marker_is_fsynced_before_the_next_send(self, tmp_path, synced,
                                                         monkeypatch):
        config = offline_config(tmp_path)
        spool_append(config, "first")
        spool_append(config, "second")
        synced.clear()
        stub_sends(monkeypatch, synced)
        assert push(config, out=lambda *_: None) == EXIT_OK
        # the spool is removed, and that made durable, once both are marked
        assert synced == ["first", "file", "second", "file", "unlink", "dir"]
        assert not os.path.exists(config.spool)


class TestAppendOnlySpool:
    def test_a_push_writes_a_short_marker_per_record(self, tmp_path, monkeypatch,
                                                     synced):
        config = offline_config(tmp_path)
        n = 2000
        with open(config.spool, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(json.dumps({"type": "shout", "data": {
                    "nick": "bob", "message": f"queued {i}", "source": "http",
                    "client_created": 1}}) + "\n")
        writes, sends = keep_writes(monkeypatch), []
        stub_sends(monkeypatch, sends)
        synced.clear()
        assert push(config, out=lambda *_: None) == EXIT_OK
        assert sends == [f"queued {i}" for i in range(n)]
        assert set(writes) == {b'{"type": "sent"}\n'}
        assert sum(map(len, writes)) <= 64 * n
        assert synced.count("file") + synced.count("dir") <= n + 1
        assert not os.path.exists(config.spool)

    @pytest.mark.parametrize("cut", ["write", "fsync"])
    def test_a_failed_marker_resends_at_most_its_own_record(self, tmp_path,
                                                            monkeypatch, cut):
        config = offline_config(tmp_path)
        for i in range(5):
            spool_append(config, f"queued {i}")
        sends = []
        stub_sends(monkeypatch, sends)
        with monkeypatch.context() as failing:
            # the marker after the third send fails: cut off mid-write, or
            # written but refused by fsync
            if cut == "write":
                keep_writes(failing, cut_at=3)
            else:
                calls, fsync = [], os.fsync

                def failing_fsync(fd):
                    calls.append(fd)
                    if len(calls) == 3:
                        raise OSError(errno.EIO, "injected")
                    fsync(fd)

                failing.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="injected"):
                push(config, out=lambda *_: None)
        assert sends == ["queued 0", "queued 1", "queued 2"]
        assert push(config, out=lambda *_: None) == EXIT_OK
        counts = collections.Counter(sends)
        assert list(counts) == [f"queued {i}" for i in range(5)]
        assert counts["queued 2"] <= 2
        assert all(counts[f"queued {i}"] == 1 for i in (0, 1, 3, 4))
        assert not os.path.exists(config.spool)

    def test_a_shout_spooled_by_another_process_during_a_push_is_kept(
            self, tmp_path, monkeypatch):
        config = offline_config(tmp_path)
        spool_append(config, "first")
        spool_append(config, "second")
        script = ("from aa.client import ClientConfig, spool_append\n"
                  f"config = ClientConfig(nick='alice', spool={config.spool!r})\n"
                  "print('ready', flush=True)\n"
                  "spool_append(config, 'spooled meanwhile')\n")
        children, sends = [], []

        def api_shout(config, message, **_):
            sends.append(message)
            if not children:
                children.append(subprocess.Popen(
                    [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                    env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}))
                assert children[0].stdout.readline() == "ready\n"
                # time for the child to spool, if nothing makes it wait
                with contextlib.suppress(subprocess.TimeoutExpired):
                    children[0].wait(timeout=0.5)
            return {"id": "x"}

        monkeypatch.setattr(client, "api_shout", api_shout)
        try:
            assert push(config, out=lambda *_: None) == EXIT_OK
        finally:
            for child in children:
                assert child.wait(timeout=30) == 0
                child.stdout.close()
        assert sends == ["first", "second"]
        assert [(r["data"]["nick"], r["data"]["message"]) for r in spool_load(config)] \
            == [("alice", "spooled meanwhile")]


class TestTornSpool:
    def test_status_and_push_skip_a_torn_line(self, client_config, live_server):
        from aa.client import cmd_status
        spool_append(client_config, "whole")
        spool_append(client_config, "torn")
        tear_last_line(client_config.spool)
        lines = []
        assert cmd_status(client_config, out=lines.append) == EXIT_OK
        assert any("1 pending" in line for line in lines)

        lines = []
        assert push(client_config, out=lines.append) == EXIT_OK
        assert lines == ["dropped 1 unreadable spool line(s)", "pushed 1"]
        assert [s.message for s in live_server.store.list_shouts()] == ["whole"]
        assert spool_load(client_config) == []

    def test_push_skips_a_line_nested_too_deep_to_decode(self, client_config,
                                                         live_server):
        spool_append(client_config, "whole")
        with open(client_config.spool, "a", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "\n")
        lines = []
        assert push(client_config, out=lines.append) == EXIT_OK
        assert lines == ["dropped 1 unreadable spool line(s)", "pushed 1"]
        assert [s.message for s in live_server.store.list_shouts()] == ["whole"]

    def test_next_shout_after_a_torn_line_is_kept(self, tmp_path):
        offline = offline_config(tmp_path)
        spool_append(offline, "torn")
        tear_last_line(offline.spool)
        assert cmd_shout(offline, "after the crash", out=lambda *_: None) == EXIT_SPOOLED
        assert [r["data"]["message"] for r in spool_load(offline)] == ["after the crash"]

    def test_a_spool_of_only_torn_lines_is_removed_by_push(self, client_config):
        spool_append(client_config, "torn")
        tear_last_line(client_config.spool)
        lines = []
        assert push(client_config, out=lines.append) == EXIT_OK
        assert lines == ["dropped 1 unreadable spool line(s)", "spool empty"]
        assert not os.path.exists(client_config.spool)

    def test_push_drops_objects_without_a_text_message(self, client_config, live_server):
        spool_append(client_config, "whole")
        with open(client_config.spool, "a", encoding="utf-8") as fh:
            fh.write('{"type": "shout"}\n{"data": []}\n{"data": {"message": 5}}\n')
        lines = []
        assert push(client_config, out=lines.append) == EXIT_OK
        assert lines == ["dropped 3 unreadable spool line(s)", "pushed 1"]
        assert [s.message for s in live_server.store.list_shouts()] == ["whole"]
        assert not os.path.exists(client_config.spool)


def run_on_clock(config: ClientConfig, clock, lines: list[str], out=None):
    """An 8-slot session whose sleeps advance the live server's fake clock,
    so each prompt lands on the server's 900 s grid without waiting."""
    return session_loop(config, slots=8, stdin=io.StringIO("\n".join(lines) + "\n"),
                        out=out or (lambda *_: None), sleep=clock.advance,
                        monotonic=clock)


class TestSessionLoop:
    def test_all_prompts_answered_is_ideal(self, client_config, clock):
        result = run_on_clock(client_config, clock, [f"answer {k}" for k in range(8)])
        assert result.sent == 8
        assert result.report["lost_slots"] == []
        assert result.report["ideal"] is True

    def test_answers_that_begin_with_a_control_word_are_graded(self, client_config,
                                                               clock, live_server):
        words = ("start", "stop", "push", "tickets")
        result = run_on_clock(client_config, clock,
                              [f"{words[k % 4]} step {k}" for k in range(8)])
        assert result.sent == 8
        assert result.report["lost_slots"] == []
        assert result.report["ideal"] is True
        members = live_server.store.state.members[result.session_id]
        assert [s.kind for s in members] == [MessageKind.SHOUT] * 8

    def test_skipped_prompt_records_lost_slot(self, client_config, clock, live_server):
        result = run_on_clock(client_config, clock, ["a", "b", "c", "", "e", "f", "g", "h"])
        assert result.sent == 7
        # the stop marks the slot: the server's report names it
        assert result.report["lost_slots"] == [3]
        assert result.report["ideal"] is False
        store = live_server.store
        start = store.state.sessions[result.session_id].start
        markers = [s for s in store.list_shouts() if s.kind is MessageKind.LOST_TIMESLOT]
        assert [m.created for m in markers] == [start + 3 * 900]

    def test_a_skipped_slot_sends_no_request(self, tmp_path, canned):
        report = {"per_shout": [], "lost_slots": [1], "ideal": False}
        server = canned(start_answer(900, 300),
                        json_answer("200 OK", {"id": "x1"}),
                        json_answer("200 OK", {"id": "x2"}),
                        json_answer("200 OK", {"result": "stop", "report": report}))
        config = canned_config(tmp_path, server.url)
        result = session_loop(config, slots=3, stdin=io.StringIO("a\n\nc\n"),
                              out=lambda *_: None, sleep=lambda _: None)
        assert result.report["lost_slots"] == [1]
        assert [r.split(b" ")[1] for r in server.requests] == \
            [b"/message", b"/shout", b"/shout", b"/message"]

    def test_immediate_stop_closes_empty_session(self, client_config):
        result = session_loop(client_config, slots=8, stdin=io.StringIO("stop\n"),
                              out=lambda *_: None)
        assert result.stopped_early is True
        assert result.sent == 0
        assert result.report == {"per_shout": [], "lost_slots": [],
                                 "ideal": False}

    def test_a_start_answer_without_a_session_is_a_transport_error(self, tmp_path,
                                                                    canned, capsys):
        from aa.client import EXIT_ERROR, main
        server = canned(json_answer("200 OK", {"ok": True}), STOP_ANSWER)
        code = main(["--server", server.url, "--spool", str(tmp_path / "s.jsonl"),
                     "start", "--slots", "1"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("server unreachable: ")
        assert_start_then_stop(server)

    @pytest.mark.parametrize("grid", [
        {}, {"slot": 900}, {"slot": True, "tolerance": 0}, {"slot": "900", "tolerance": 300},
        {"slot": 10, "tolerance": 6}, {"slot": 0, "tolerance": 0},
        {"slot": float("nan"), "tolerance": 1}, {"slot": float("inf"), "tolerance": 1},
    ], ids=["none", "no-tolerance", "bool", "text", "tolerance-too-wide", "zero", "nan",
            "inf"])
    def test_a_start_answer_without_a_usable_grid_is_a_transport_error(
            self, tmp_path, canned, capsys, grid):
        from aa.client import main
        server = canned(json_answer("200 OK", {"result": "start", "session": "s1",
                                               "event": "opened", **grid}), STOP_ANSWER)
        code = main(["--server", server.url, "--spool", str(tmp_path / "s.jsonl"),
                     "start", "--slots", "1"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("server unreachable: ")
        assert err.count("\n") == 1
        assert_start_then_stop(server)

    @pytest.mark.parametrize("stop", [
        json_answer("500 Internal Server Error", {"error": "journal_failure"}),
        b"not an answer",
    ], ids=["stop-refused", "stop-unreadable"])
    def test_a_refused_start_answer_is_raised_whatever_the_stop_answers(
            self, tmp_path, canned, stop):
        server = canned(json_answer("200 OK", {"result": "start", "session": "s1",
                                               "event": "opened"}), stop)
        with pytest.raises(TransportError, match="no usable 'slot'"):
            session_loop(canned_config(tmp_path, server.url), slots=1,
                         stdin=io.StringIO("a\n"), out=lambda *_: None)
        assert_start_then_stop(server)

    def test_a_refused_start_answer_leaves_no_open_session(self, client_config,
                                                           live_server, monkeypatch):
        """A server from before the grid was in the start answer opens the
        session; the client refuses the answer and closes the session."""
        store = live_server.store
        receive = store.receive_message

        def without_slot(*args, **kwargs):
            answer = receive(*args, **kwargs)
            answer.pop("slot", None)
            return answer

        monkeypatch.setattr(store, "receive_message", without_slot)
        with pytest.raises(TransportError, match="no usable 'slot'"):
            session_loop(client_config, slots=1, stdin=io.StringIO("a\n"),
                         out=lambda *_: None)
        assert store.report()["open_sessions"] == []
        assert [s.kind for s in store.list_shouts()] == [MessageKind.START,
                                                         MessageKind.STOP]

    def test_a_refused_shout_is_rejected_not_spooled(self, tmp_path, canned):
        server = canned(
            start_answer(900, 300),
            json_answer("400 Bad Request", {"error": "bad_request", "detail": "nope"}),
            STOP_ANSWER)
        config = canned_config(tmp_path, server.url)
        lines = []
        result = session_loop(config, slots=1, stdin=io.StringIO("refused\n"),
                              out=lines.append)
        assert result.sent == 0
        assert "rejected: bad_request: nope" in lines
        assert not any(line.startswith("spooled") for line in lines)
        assert spool_load(config) == []
        assert [r.split(b" ")[1] for r in server.requests] == \
            [b"/message", b"/shout", b"/message"]
        assert json.loads(server.requests[1].partition(b"\r\n\r\n")[2]) == \
            {"nick": "bob", "msg": "refused", "source": "http", "client_created": None}

    def test_prompt_cadence_tracks_slot(self, tmp_path, canned):
        server = canned(start_answer(0.5, 0.2),
                        *[json_answer("200 OK", {"id": f"x{k}"}) for k in range(4)],
                        STOP_ANSWER)
        config = canned_config(tmp_path, server.url)
        answers = io.StringIO("\n".join("abcd") + "\n")
        lines = []
        result = session_loop(config, slots=4, stdin=answers, out=lines.append)
        assert "4 slots of 0.5s" in lines[0]
        gaps = [b - a for a, b in zip(result.prompt_times,
                                      result.prompt_times[1:])]
        assert len(gaps) == 3
        for gap in gaps:
            assert abs(gap - 0.5) < 0.4  # scheduler jitter stays well under 1 s


class TestClientConfigLoading:
    def test_file_then_env_precedence(self, tmp_path):
        conf = tmp_path / "client.conf"
        conf.write_text("server = http://file.example\nnick = filenick\n")
        config = load_client_config(str(conf), env={"AA_NICK": "envnick"})
        assert config.server == "http://file.example"
        assert config.nick == "envnick"

    def test_defaults_without_file(self, tmp_path):
        # the grid variables configure only aa-server
        config = load_client_config(str(tmp_path / "missing.conf"),
                                    env={"AA_SLOT": "5", "AA_TOLERANCE": "2"})
        assert config == ClientConfig()

    def test_a_grid_key_is_unknown(self, tmp_path, capsys):
        from aa.client import main
        conf = tmp_path / "client.conf"
        conf.write_text("nick = bob\nslot = 600\n")
        code = main(["--config", str(conf), "--spool", str(tmp_path / "s.jsonl"),
                     "status"])
        assert code == EXIT_USAGE
        assert "unknown config key 'slot'" in capsys.readouterr().err


class TestStopAndStatus:
    def test_stop_closes_open_session(self, client_config, live_server):
        from aa.client import api_message, cmd_stop
        api_message(client_config, "start")
        lines = []
        assert cmd_stop(client_config, out=lines.append) == EXIT_OK
        assert "bob" not in live_server.store.state.open_sessions

    def test_stop_replays_spool_first(self, client_config, live_server, tmp_path):
        from aa.client import api_message, cmd_stop
        api_message(client_config, "start")
        offline = offline_config(tmp_path)
        offline.spool = client_config.spool
        cmd_shout(offline, "stranded note", out=lambda *_: None)
        assert cmd_stop(client_config, out=lambda *_: None) == EXIT_OK
        assert spool_load(client_config) == []
        messages = [s.message for s in live_server.store.list_shouts()]
        assert "stranded note" in messages

    def test_stop_without_session_fails_cleanly(self, client_config):
        from aa.client import EXIT_ERROR, cmd_stop
        assert cmd_stop(client_config, out=lambda *_: None) == EXIT_ERROR

    def test_status_reports_spool_depth(self, client_config):
        from aa.client import cmd_status, spool_append
        spool_append(client_config, "queued")
        lines = []
        assert cmd_status(client_config, out=lines.append) == EXIT_OK
        assert any("1 pending" in line for line in lines)
        assert any("up" in line for line in lines)


class TestMainRouting:
    def test_shout_subcommand(self, live_server, tmp_path, capsys):
        from aa.client import main
        code = main(["--server", live_server.url, "--nick", "cli",
                     "--spool", str(tmp_path / "s.jsonl"),
                     "shout", "routed", "through", "main"])
        assert code == EXIT_OK
        shout = live_server.store.list_shouts()[0]
        assert shout.message == "routed through main"
        assert capsys.readouterr().out.strip() == shout.id

    def test_report_subcommand(self, live_server, tmp_path, capsys):
        from aa.client import main
        code = main(["--server", live_server.url,
                     "--spool", str(tmp_path / "s.jsonl"), "report", "-n", "3"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["latest"] == []

    def test_unreachable_server_exit_code(self, tmp_path, capsys):
        from aa.client import EXIT_ERROR, main
        code = main(["--server", "http://127.0.0.1:1",
                     "--spool", str(tmp_path / "s.jsonl"), "report"])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("command", ["shout", "push"])
    def test_a_spool_error_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                             command):
        from aa.client import EXIT_ERROR, main
        config = offline_config(tmp_path)
        spool = config.spool
        if command == "shout":  # the spool's directory cannot be made
            (tmp_path / "file").write_text("")
            spool = str(tmp_path / "file" / "s.jsonl")
        else:  # the marker after the first send is refused by fsync
            spool_append(config, "queued")
            stub_sends(monkeypatch, [])

            def failing_fsync(fd):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(os, "fsync", failing_fsync)
        code = main(["--server", config.server, "--spool", spool,
                     command, *(["offline"] if command == "shout" else [])])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("flag", ["--slot", "--tolerance"])
    def test_a_grid_flag_is_a_usage_error(self, tmp_path, flag):
        from aa.client import main
        with pytest.raises(SystemExit) as exited:
            main([flag, "5", "--spool", str(tmp_path / "s.jsonl"), "status"])
        assert exited.value.code == EXIT_USAGE
