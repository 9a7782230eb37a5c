"""Shared fixtures: shout factories, a fake clock, and a live HTTP server."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from urllib.parse import urlencode

import pytest

from aa import client
from aa.model import MessageKind, Session, SessionOrigin, Shout
from aa.server import ShoutServer
from aa.store import Store


def make_shout(id: str, nick: str = "bob", message: str = "working",
               created: int = 0, kind: MessageKind = MessageKind.SHOUT,
               **kwargs) -> Shout:
    return Shout(id=id, nick=nick, message=message, created=created,
                 kind=kind, **kwargs)


def make_session(id: str = "sess", user: str = "bob", start: int = 0,
                 end: int = 6300, slot: int = 900,
                 origin: SessionOrigin = SessionOrigin.EXPLICIT, **kwargs) -> Session:
    return Session(id=id, user=user, origin=origin, start=start, end=end,
                   slot_duration=slot, **kwargs)


def on_grid_shouts(n: int = 8, slot: int = 900, nick: str = "bob") -> list[Shout]:
    return [make_shout(f"s{k}", nick=nick, message=f"task step {k}",
                       created=k * slot) for k in range(n)]


class FakeClock:
    """Settable clock for deterministic stores."""

    def __init__(self, start: float = 1_400_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(tmp_path, clock):
    s = Store(str(tmp_path / "journal.jsonl"), clock=clock)
    yield s
    s.close()


@pytest.fixture(autouse=True)
def no_kept_connections():
    """Each test starts with no idle client connection kept by an earlier one."""
    yield
    client._POOL.close()


@pytest.fixture
def live_server(tmp_path, clock):
    """A real HTTP server, its loop in a thread, over a fresh store on an ephemeral port."""
    store = Store(str(tmp_path / "server-journal.jsonl"), clock=clock)
    server = ShoutServer(store)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                              daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    server.url = f"http://{host}:{port}"
    yield server
    server.shutdown()
    server.server_close()
    store.close()


def http_get(url: str, params: dict | None = None):
    if params:
        url += "?" + urlencode(params)
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def http_post(url: str, params: dict | None = None, body: dict | None = None):
    if params:
        url += "?" + urlencode(params)
    data = json.dumps(body).encode() if body is not None else b""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    req = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def get_json(url: str, params: dict | None = None):
    status, body = http_get(url, params)
    assert status == 200, body
    return json.loads(body)


def post_json(url: str, params: dict | None = None, body: dict | None = None):
    status, payload = http_post(url, params, body)
    return status, json.loads(payload) if payload else None
