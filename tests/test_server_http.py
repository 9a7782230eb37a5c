import gc
import io
import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from email.utils import formatdate
from pathlib import Path

import pytest
from conftest import get_json, http_get, http_post, post_json
from hypothesis import given, settings, strategies as st

from aa import server
from aa.model import iso8601
from aa.server import MAX_BODY, ROUTES, ShoutServer
from aa.store import Store

ROOT = Path(__file__).resolve().parent.parent


def get_with_json_body(url: str, body: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(url, data=json.dumps(body).encode(), method="GET",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


class TestShoutEndpoint:
    def test_post_shout(self, live_server):
        status, result = post_json(live_server.url + "/shout",
                                   params={"nick": "bob", "msg": "grid done #coding"})
        assert status == 200
        assert result["id"]
        assert result["kind"] == "shout"

    def test_get_shout_for_minimal_clients(self, live_server):
        status, body = http_get(live_server.url + "/shout",
                                params={"nick": "bob", "msg": "one call"})
        assert status == 200
        assert json.loads(body)["id"]

    def test_empty_nick_is_client_error(self, live_server):
        status, result = post_json(live_server.url + "/shout",
                                   params={"nick": "", "msg": "x"})
        assert status == 400
        assert result["error"] == "empty_nick"

    def test_empty_message_is_client_error(self, live_server):
        status, result = post_json(live_server.url + "/shout",
                                   params={"nick": "bob", "msg": ""})
        assert status == 400
        assert result["error"] == "empty_message"

    def test_duplicate_sends_get_distinct_ids(self, live_server):
        _, first = post_json(live_server.url + "/shout",
                             params={"nick": "bob", "msg": "same"})
        _, second = post_json(live_server.url + "/shout",
                              params={"nick": "bob", "msg": "same"})
        assert first["id"] != second["id"]

    def test_iso_client_created_stored_as_epoch_seconds(self, live_server):
        for value in ("2023-11-14T22:13:20Z", 1700000000):
            status, _ = post_json(live_server.url + "/shout",
                                  body={"nick": "bob", "msg": "note",
                                        "client_created": value})
            assert status == 200
        stored = [s.client_created for s in live_server.store.list_shouts()]
        assert stored == [1700000000, 1700000000]

    def test_bad_client_created_is_client_error(self, live_server):
        status, result = post_json(live_server.url + "/shout",
                                   body={"nick": "bob", "msg": "note",
                                         "client_created": "yesterday"})
        assert status == 400
        assert result["error"] == "bad_request"
        assert live_server.store.list_shouts() == []


class TestShoutsListing:
    def test_empty_store_json(self, live_server):
        status, body = http_get(live_server.url + "/shouts",
                                params={"format": "json"})
        assert status == 200
        assert body == b"[]"

    def test_text_format_and_ordering(self, live_server, clock):
        for i in range(3):
            post_json(live_server.url + "/shout",
                      params={"nick": "bob", "msg": f"note {i}"})
            clock.advance(60)
        status, body = http_get(live_server.url + "/shouts",
                                params={"format": "text"})
        lines = body.decode().splitlines()
        assert [line.split("\t")[2] for line in lines] == \
            ["note 0", "note 1", "note 2"]

    def test_nick_filter(self, live_server):
        post_json(live_server.url + "/shout", params={"nick": "bob", "msg": "b"})
        post_json(live_server.url + "/shout", params={"nick": "eve", "msg": "e"})
        entries = get_json(live_server.url + "/shouts",
                           params={"format": "json", "nick": "bob"})
        assert [e["nick"] for e in entries] == ["bob"]

    def test_listing_fields(self, live_server):
        post_json(live_server.url + "/shout",
                  params={"nick": "bob", "msg": "note #aa"})
        entry = get_json(live_server.url + "/shouts", params={"format": "json"})[0]
        assert set(entry) == {"id", "nick", "message", "created", "kind",
                              "tags", "source"}
        assert entry["tags"] == ["#aa"]

    def test_bad_filter(self, live_server):
        status, result = post_json(live_server.url + "/shouts")
        assert status == 404  # POST not routed for listings
        status, body = http_get(live_server.url + "/shouts",
                                params={"since": "whenever"})
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"

    def test_since_and_until_are_timestamps(self, live_server, clock):
        created = []
        for i in range(3):
            _, result = post_json(live_server.url + "/shout",
                                  params={"nick": "bob", "msg": f"t{i}"})
            created.append(result["created"])
            clock.advance(60)

        def listed(**params):
            entries = get_json(live_server.url + "/shouts",
                               params={"format": "json", **params})
            return [e["message"] for e in entries]

        assert listed(since=str(created[1])) == ["t1", "t2"]
        assert listed(since=str(created[1] + 1), until=str(created[2])) == ["t2"]
        for bound in (created[0] - 1, *created, created[2] + 1):
            assert listed(since=iso8601(bound)) == listed(since=str(bound))
            assert listed(until=iso8601(bound)) == listed(until=str(bound))
        status, body = get_with_json_body(live_server.url + "/shouts",
                                          {"format": "json", "until": created[1]})
        assert status == 200
        assert [e["message"] for e in json.loads(body)] == ["t0", "t1"]
        # an empty bound in a JSON body is refused, as an empty client_created is
        status, body = get_with_json_body(live_server.url + "/shouts", {"since": ""})
        assert (status, json.loads(body)["error"]) == (400, "bad_request")

    @pytest.mark.parametrize("name, value", [("since", "99999999999999"),
                                             ("until", "whenever")])
    def test_a_bad_bound_is_a_bad_request_naming_it(self, live_server, name, value):
        status, body = http_get(live_server.url + "/shouts", params={name: value})
        assert status == 400
        result = json.loads(body)
        assert result["error"] == "bad_request"
        assert repr(name) in result["detail"]

    @pytest.mark.parametrize("value", ["xml", "JSON"])
    def test_an_unknown_format_is_a_bad_request_naming_it(self, live_server, value):
        status, body = http_get(live_server.url + "/shouts", params={"format": value})
        assert status == 400
        result = json.loads(body)
        assert result["error"] == "bad_request"
        assert "'format'" in result["detail"]

    def test_format_duality_over_http(self, live_server, clock):
        for i in range(3):
            post_json(live_server.url + "/shout",
                      params={"nick": "bob", "msg": f"dual {i}"})
            clock.advance(30)
        entries = get_json(live_server.url + "/shouts", params={"format": "json"})
        _, text = http_get(live_server.url + "/shouts", params={"format": "text"})
        rebuilt = "".join(f"{e['created']}\t{e['nick']}\t{e['message']}\n"
                          for e in entries)
        assert rebuilt.encode() == text


class TestMessageEndpoint:
    def test_start_stop_cycle(self, live_server, clock):
        status, started = post_json(live_server.url + "/message",
                                    body={"nick": "bob", "msg": "start"})
        assert status == 200
        clock.advance(30)
        post_json(live_server.url + "/shout",
                  params={"nick": "bob", "msg": "work"})
        status, stopped = post_json(live_server.url + "/message",
                                    body={"nick": "bob", "msg": "stop"})
        assert status == 200
        assert stopped["session"] == started["session"]
        assert "report" in stopped

    def test_stop_without_session(self, live_server):
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "stop"})
        assert status == 400
        assert result["error"] == "no_open_session"

    @pytest.mark.parametrize("batch", [
        [{"message": "spooled", "client_created": 1000}], [], [5], "x"],
        ids=["items", "empty", "non-object-item", "text"])
    def test_a_batch_is_gone_and_an_old_client_keeps_its_spool(self, live_server, batch):
        journal = Path(live_server.store.journal.path)
        before = journal.read_bytes()
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "push", "batch": batch})
        # a client from before POST /shout took spooled shouts dropped a record
        # refused with 400 and one of these codes, and kept any other refusal
        old_refused_record = ("empty_message", "empty_nick", "bad_request")
        assert status == 410 and result["error"] not in old_refused_record
        assert result["error"] == "batch_removed"
        assert "'batch'" in result["detail"] and "POST /shout" in result["detail"]
        assert journal.read_bytes() == before
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "push", "batch": None})
        assert (status, result["result"], result["accepted"]) == (200, "push", 0)

    def test_query_stub(self, live_server):
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "milestones"})
        assert status == 200
        assert result["topic"] == "milestones"
        assert result["items"] == []

    def test_form_encoded_body_accepted(self, live_server):
        import urllib.request
        req = urllib.request.Request(
            live_server.url + "/message",
            data=b"nick=bob&msg=start",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert json.loads(resp.read())["result"] == "start"


class TestSessionEndpoints:
    def _closed_session(self, live_server, clock):
        _, started = post_json(live_server.url + "/message",
                               body={"nick": "bob", "msg": "start"})
        post_json(live_server.url + "/shout",
                  params={"nick": "bob", "msg": "work"})
        clock.advance(900)
        post_json(live_server.url + "/message",
                  body={"nick": "bob", "msg": "stop"})
        return started["session"]

    def test_screencast_attach(self, live_server, clock):
        sid = self._closed_session(live_server, clock)
        status, view = post_json(
            live_server.url + f"/session/{sid}/screencast",
            params={"url": "https://v.example/abc"})
        assert status == 200
        assert view["screencast"] == "https://v.example/abc"

    def test_screencast_unknown_session(self, live_server):
        status, result = post_json(
            live_server.url + "/session/missing/screencast",
            params={"url": "https://v.example/abc"})
        assert status == 404
        assert result["error"] == "unknown_session"

    def test_review_endpoint(self, live_server, clock):
        sid = self._closed_session(live_server, clock)
        status, review = post_json(
            live_server.url + f"/session/{sid}/review",
            params={"reviewer": "alice", "score": "0.9", "comment": "solid"})
        assert status == 200
        assert review["score"] == 0.9

    def test_review_bounds_checked(self, live_server, clock):
        sid = self._closed_session(live_server, clock)
        status, result = post_json(
            live_server.url + f"/session/{sid}/review",
            params={"reviewer": "alice", "score": "1.2"})
        assert status == 400
        assert result["error"] == "score_out_of_range"

    def test_stop_marks_the_silent_slots(self, live_server, clock):
        _, started = post_json(live_server.url + "/message",
                               body={"nick": "bob", "msg": "start"})
        _, shout = post_json(live_server.url + "/shout",
                             params={"nick": "bob", "msg": "slot zero"})
        clock.advance(2 * 900 + 10)
        status, stopped = post_json(live_server.url + "/message",
                                    body={"nick": "bob", "msg": "stop"})
        assert status == 200
        assert stopped["report"]["lost_slots"] == [1, 2]
        entries = get_json(live_server.url + "/shouts", params={"format": "json"})
        lost = [e["created"] for e in entries if e["kind"] == "lost_timeslot"]
        assert lost == [iso8601(shout["created"] + k * 900) for k in (1, 2)]


class TestReportEndpoint:
    def test_empty_report(self, live_server):
        report = get_json(live_server.url + "/report")
        assert report["latest"] == []
        assert report["counts_by_user"] == {}

    def test_latest_n(self, live_server, clock):
        for i in range(5):
            post_json(live_server.url + "/shout",
                      params={"nick": "bob", "msg": f"n{i}"})
            clock.advance(10)
        report = get_json(live_server.url + "/report", params={"n": 2})
        assert [e["message"] for e in report["latest"]] == ["n4", "n3"]

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_client_error(self, live_server, n):
        for i in range(5):
            post_json(live_server.url + "/shout",
                      params={"nick": "bob", "msg": f"n{i}"})
        status, body = http_get(live_server.url + "/report", params={"n": n})
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"


class TestTypedParameters:
    """Query, form and JSON values are read by each route's declared types."""

    @pytest.mark.parametrize("path, body, name", [
        ("/shout", {"nick": 5, "msg": "x"}, "nick"),
        ("/shout", {"nick": "bob", "msg": 5}, "msg"),
        ("/shout", {"nick": "bob", "msg": "x", "client_created": [1]}, "client_created"),
        ("/shout", {"nick": "bob", "msg": "x", "client_created": 1.5}, "client_created"),
        ("/shout", {"nick": "bob", "msg": "x", "client_created": True}, "client_created"),
        ("/session/{sid}/screencast", {"url": 5}, "url"),
        ("/session/{sid}/review",
         {"reviewer": "alice", "score": 0.5, "comment": 7}, "comment"),
        ("/shout", {"nick": "bob", "msg": "x", "client_created": 10**20},
         "client_created"),
        ("/session/{sid}/review", {"reviewer": "alice", "score": 10**400}, "score"),
        ("/session/{sid}/review", {"reviewer": "alice", "score": True}, "score"),
    ], ids=["nick", "msg", "client_created-list", "client_created-float",
            "client_created-bool", "url", "comment", "client_created-past-9999",
            "score-too-large-for-float", "score-bool"])
    def test_ill_typed_value_is_bad_request(self, live_server, caplog, path, body, name):
        _, started = post_json(live_server.url + "/message",
                               body={"nick": "bob", "msg": "start"})
        journal = Path(live_server.store.journal.path)
        before = journal.read_bytes()
        status, result = post_json(
            live_server.url + path.format(sid=started["session"]), body=body)
        assert (status, result["error"]) == (400, "bad_request")
        assert repr(name) in result["detail"]
        assert journal.read_bytes() == before
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_text_with_a_lone_surrogate_is_bad_request(self, tmp_path, clock):
        """A JSON escape can carry a lone surrogate, which has no UTF-8, so no
        view could render it; every text parameter refuses it."""
        store = Store(str(tmp_path / "j.jsonl"), clock=clock)
        sid = store.receive_message("bob", "start")["session"]
        journal = Path(store.journal.path)
        before = journal.read_bytes()
        bodies = {"/shout": {"nick": "bob", "msg": "x"},
                  "/message": {"nick": "bob", "msg": "x"},
                  f"/session/{sid}/screencast": {"url": "https://v.example/a"},
                  f"/session/{sid}/review": {"reviewer": "alice", "comment": "ok"}}
        texts = [(path, name) for path, body in bodies.items() for name in body]
        lone = st.tuples(st.text(max_size=5), st.characters(codec=None, categories=["Cs"]),
                         st.text(max_size=5)).map("".join)

        @settings(max_examples=200, deadline=None)
        @given(st.sampled_from(texts), lone)
        def refused(where, text):
            path, name = where
            data = json.dumps({**bodies[path], "score": 0.5, name: text}).encode()
            status, _, body = served(store, request(
                path, "POST", body=data, head="Content-Type: application/json\r\n"))
            result = json.loads(body)
            assert (status, result["error"]) == (400, "bad_request")
            assert repr(name) in result["detail"] and "surrogates" in result["detail"]
            assert journal.read_bytes() == before

        try:
            refused()
        finally:
            store.close()

    def test_a_lone_surrogate_never_reaches_the_text_listing(self, live_server):
        status, result = post_json(live_server.url + "/shout",
                                   body={"nick": "bob", "msg": "\ud800"})
        assert (status, result["error"]) == (400, "bad_request")
        status, _ = http_get(live_server.url + "/shouts", params={"format": "text"})
        assert status == 200 and live_server.store.list_shouts() == []

    def test_a_json_body_nested_too_deep_is_bad_request(self, live_server, caplog):
        journal = Path(live_server.store.journal.path)
        before = journal.read_bytes()
        request = urllib.request.Request(
            live_server.url + "/shout", data=b"[" * 400_000, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=10)
        with refused.value:
            assert refused.value.code == 400
            assert json.loads(refused.value.read()) == {
                "error": "bad_request", "detail": "JSON body is nested too deeply"}
        assert journal.read_bytes() == before
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    @pytest.mark.parametrize("value", ["99999999999999999999", "-62135596801",
                                       "0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:59:59-01:00"])
    def test_client_created_outside_years_1_to_9999_is_bad_request(self, live_server,
                                                                     value):
        url = live_server.url + "/shout"
        note = {"nick": "bob", "msg": "note", "client_created": value}
        for status, body in (http_post(url, params=note), http_post(url, body=note)):
            assert (status, json.loads(body)["error"]) == (400, "bad_request")
            assert "'client_created'" in json.loads(body)["detail"]
        edges = ("0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z")
        for edge in edges:
            assert http_post(url, params={**note, "client_created": edge})[0] == 200
        assert [s.client_created for s in live_server.store.list_shouts()] == \
            [-62135596800, 253402300799]

    def test_numeric_client_created_same_from_query_form_and_json(self, live_server):
        url = live_server.url + "/shout"
        note = {"nick": "bob", "msg": "note"}
        assert http_post(url, params={**note, "client_created": 1700000000})[0] == 200
        form = urllib.request.Request(
            url, data=b"nick=bob&msg=note&client_created=1700000000", method="POST",
            headers={"Content-Type": "application/x-www-form-urlencoded"})
        with urllib.request.urlopen(form, timeout=10) as resp:
            assert resp.status == 200
        for value in (1700000000, "1700000000"):
            assert post_json(url, body={**note, "client_created": value})[0] == 200
        assert [s.client_created for s in live_server.store.list_shouts()] == \
            [1700000000] * 4


def _documented_routes(text: str) -> set[tuple[str, str]]:
    found = re.findall(r"(GET/POST|GET|POST)`? +(/[\w/<>]+)", text)
    return {(method, path) for methods, path in found for method in methods.split("/")}


def test_route_table_and_docs_agree():
    table = {(method, path) for _, methods, path, _, _ in ROUTES for method in methods}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    surface = readme[readme.index("Server HTTP surface"):readme.index("Notes on storage")]
    assert _documented_routes(server.__doc__) == table
    assert _documented_routes(surface) == table


@pytest.mark.parametrize("method, path", [
    ("POST", "/nope"), ("GET", "/message"), ("POST", "/report"),
    ("GET", "/session/x/review"), ("POST", "/session/x/frob"),
    ("POST", "/session/x/lost"), ("POST", "/session/x/y/lost"),
])
def test_unrouted_method_or_path_is_404(live_server, method, path):
    send = http_get if method == "GET" else http_post
    status, body = send(live_server.url + path)
    assert (status, json.loads(body)["error"]) == (404, "not_found")


def test_unknown_route_is_404(live_server):
    status, body = http_get(live_server.url + "/nope")
    assert status == 404
    assert json.loads(body)["error"] == "not_found"


def test_journal_failure_maps_to_500(live_server, monkeypatch):
    from aa.errors import JournalError

    def boom(*args, **kwargs):
        raise JournalError("disk full")

    monkeypatch.setattr(live_server.store.journal, "append_many", boom)
    status, result = post_json(live_server.url + "/shout",
                               params={"nick": "bob", "msg": "x"})
    assert status == 500
    assert result["error"] == "journal_failure"


class TestRequestBody:
    @pytest.mark.parametrize("length", [-1, MAX_BODY + 1, "1x", "+5",
                                        pytest.param("1" * 5000, id="5000-digits")])
    def test_bad_content_length_rejected_before_reading(self, live_server, length):
        host, port = live_server.server_address[:2]
        request = (f"POST /shout?nick=bob&msg=x HTTP/1.1\r\nHost: {host}\r\n"
                   f"Content-Length: {length}\r\n\r\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request.encode())
            reply = sock.makefile("rb").read()  # the server closes the connection
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(body)["error"] == "bad_request"
        assert get_json(live_server.url + "/shouts", {"format": "json"}) == []

    def test_body_shorter_than_content_length_is_refused(self, live_server):
        host, port = live_server.server_address[:2]
        body = b"nick=alice&msg=hello+wor"
        request = (f"POST /shout HTTP/1.1\r\nHost: {host}\r\nContent-Length: 40\r\n"
                   "Content-Type: application/x-www-form-urlencoded\r\n\r\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request.encode() + body)
            sock.shutdown(socket.SHUT_WR)  # the client stops sending
            reply = sock.makefile("rb").read()  # the server closes the connection
        head, _, answer = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(answer) == {"error": "bad_request",
                                      "detail": "body of 24 bytes, Content-Length 40"}
        assert Path(live_server.store.journal.path).read_bytes() == b""

    @pytest.mark.parametrize("head, body, status, detail", [
        ("Transfer-Encoding: chunked\r\n", b"13\r\nnick=bob&msg=chunked\r\n0\r\n\r\n",
         501, "Transfer-Encoding is not served"),
        ("Content-Length: 0\r\nContent-Length: 21\r\n", b"nick=bob&msg=conflict",
         400, "Content-Length 0 and 21 differ"),
        ("Content-Length : 21\r\n", b"nick=bob&msg=conflict",
         400, "bad header line 'Content-Length : 21'"),
        ("Transfer-Encoding : chunked\r\n", b"13\r\nnick=bob&msg=chunked\r\n0\r\n\r\n",
         400, "bad header line 'Transfer-Encoding : chunked'"),
        ("Content-Length: 21\r\n X-Folded: on\r\n", b"nick=bob&msg=conflict",
         400, "bad header line ' X-Folded: on'"),
        ("Content-Length 21\r\n", b"nick=bob&msg=conflict",
         400, "bad header line 'Content-Length 21'"),
    ], ids=["transfer-encoding", "content-lengths-differ", "space-before-colon",
            "space-before-colon-transfer-encoding", "obs-fold", "no-colon"])
    def test_a_body_it_cannot_frame_is_refused_and_closed(self, live_server, head, body,
                                                           status, detail):
        raw = (f"POST /shout?nick=bob&msg=head HTTP/1.1\r\nHost: aa\r\n{head}"
               "Content-Type: application/x-www-form-urlencoded\r\n\r\n")
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(raw.encode() + body)
            answered, headers, answer = read_answer(reader)
            assert reader.read() == b""  # no part of the body answered as a request
        error = "not_implemented" if status == 501 else "bad_request"
        assert (answered, json.loads(answer)) == (status, {"error": error, "detail": detail})
        assert headers["connection"] == "close"
        assert Path(live_server.store.journal.path).read_bytes() == b""

    def test_a_client_that_hangs_up_is_closed_quietly(self, live_server, monkeypatch,
                                                      caplog, capsys):
        sent = []

        def reset(sock, data, *flags):  # the server's write of each answer
            sent.append(int(bytes(data).split()[1]))
            raise ConnectionResetError(104, "Connection reset by peer")

        monkeypatch.setattr(socket.socket, "send", reset)
        host, port = live_server.server_address[:2]
        with caplog.at_level(logging.DEBUG, logger="aa.server"):
            for path in ("/shout?nick=bob&msg=gone", "/nope"):
                with socket.create_connection((host, port), timeout=5) as sock:
                    sock.sendall(f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                                 "Content-Length: 0\r\n\r\n".encode())
                    assert sock.makefile("rb").read() == b""  # closed, no answer
        assert sent == [200, 404]  # no 500 after either
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert "Traceback" not in capsys.readouterr().err
        assert [s.message for s in live_server.store.list_shouts()] == ["gone"]


def read_answer(reader) -> tuple[int, dict, bytes]:
    """One HTTP answer from a socket's binary reader: status, headers, body."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", 0)))


def request(path: str, method: str = "GET", version: str = "HTTP/1.1",
            body: bytes = b"", head: str = "") -> bytes:
    return (f"{method} {path} {version}\r\nHost: aa\r\n{head}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def connect(live_server) -> socket.socket:
    return socket.create_connection(live_server.server_address[:2], timeout=5)


def messages(live_server) -> list[str]:
    return [s.message for s in live_server.store.list_shouts()]


def served(store: Store, raw: bytes) -> tuple[int, dict, bytes]:
    """The answer ``ShoutHandler`` gives the one whole request in ``raw``, in process."""
    head = server._read_head(bytearray(raw), 0, eof=True)
    handler = server.ShoutHandler(store, head, raw[head.end:])
    handler.handle()
    return read_answer(io.BytesIO(handler.answer))


class TestConnectionLoop:
    """What http.server did on a thread per connection, the one loop keeps."""

    def test_two_requests_on_one_keep_alive_connection(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("/shout?nick=bob&msg=one", "POST"))
            assert read_answer(reader)[0] == 200
            sock.sendall(request("/shouts?format=json"))
            status, headers, body = read_answer(reader)
        assert status == 200 and "connection" not in headers
        assert [e["message"] for e in json.loads(body)] == ["one"]

    def test_pipelined_requests_are_answered_in_order(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("/shout", "POST", body=b"nick=bob&msg=first",
                                 head="Content-Type: application/x-www-form-urlencoded\r\n")
                         + request("/nope") + request("/shout?nick=bob&msg=second", "POST"))
            statuses = [read_answer(reader)[0] for _ in range(3)]
        assert statuses == [200, 404, 200]
        assert messages(live_server) == ["first", "second"]

    def test_expect_100_continue_gets_one_interim_answer(self, live_server):
        body = b"nick=bob&msg=after+the+interim"
        head = request("/shout", "POST", body=body,
                       head="Expect: 100-continue\r\n"
                            "Content-Type: application/x-www-form-urlencoded\r\n")
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head[:-len(body)])
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            assert read_answer(reader)[0] == 200  # no second 100 before it
        assert messages(live_server) == ["after the interim"]

    def test_bare_lf_head_is_framed_as_http_server_reads_it(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"POST /shout?nick=bob&msg=lf HTTP/1.1\nHost: aa\n\n"
                         + request("/nope"))
            assert [read_answer(reader)[0] for _ in range(2)] == [200, 404]
        assert messages(live_server) == ["lf"]

    @pytest.mark.parametrize("raw, status, error", [
        (request("/" + "a" * 70_000), 414, "uri_too_long"),
        (request("/nope", head=f"X-Long: {'a' * 70_000}\r\n"), 431, "headers_too_large"),
        (request("/nope", head="X: y\r\n" * 101), 431, "headers_too_large"),
        (request("/shouts", "PUT"), 501, "not_implemented"),
        (request("/shouts", version="HTTP/2.0"), 505, "version_not_supported"),
        (request("/shouts", version="HTTP/1.x"), 400, "bad_request"),
        (request("/shouts", version=""), 400, "bad_request"),
    ], ids=["request-line", "header-line", "header-count", "method", "version-2",
            "bad-version", "http-0.9"])
    def test_oversized_head_is_refused_and_closed(self, live_server, raw, status, error):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(raw)
            answered, headers, body = read_answer(reader)  # a status line, not bare HTML
            assert (answered, json.loads(body)["error"]) == (status, error)
            assert headers["connection"] == "close"
            assert reader.read() == b""

    def test_empty_lines_before_a_request_are_skipped(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"\r\n" + request("/shout?nick=bob&msg=after+crlf", "POST")
                         + b"\n\r\n" + request("/nope"))
            assert [read_answer(reader)[0] for _ in range(2)] == [200, 404]
        assert messages(live_server) == ["after crlf"]

    def test_head_cut_by_eof_is_refused_and_journals_nothing(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"POST /shout?nick=bob&msg=cut HTTP/1.1\r\nHost: aa\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert read_answer(reader)[0] == 400
            assert reader.read() == b""
        assert messages(live_server) == []

    def test_http_1_0_request_is_closed_after_its_answer(self, live_server):
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("/shouts", version="HTTP/1.0"))
            assert read_answer(reader)[0] == 200
            assert reader.read() == b""

    def test_a_stalled_client_does_not_delay_another(self, live_server):
        with connect(live_server) as stalled, stalled.makefile("rb") as reader:
            stalled.sendall(b"GET /shouts HTTP/1.1\r\nHo")
            started = time.monotonic()
            assert http_get(live_server.url + "/shouts")[0] == 200
            assert time.monotonic() - started < 2
            stalled.sendall(b"st: aa\r\n\r\n")
            assert read_answer(reader)[0] == 200

    def test_handle_runs_once_per_request(self, live_server, monkeypatch):
        calls = []
        handle = server.ShoutHandler.handle

        def counted(handler):
            handle(handler)
            calls.append(handler.path)

        monkeypatch.setattr(server.ShoutHandler, "handle", counted)
        paths = [f"/report?n={n}" for n in (1, 2, 3)]
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            for path in paths:
                sock.sendall(request(path))
                assert read_answer(reader)[0] == 200
        assert calls == paths

    def test_errors_in_a_handler_or_accept_do_not_stop_the_loop(self, live_server,
                                                                 monkeypatch, caplog):
        handle, accept = server.ShoutHandler.handle, socket.socket.accept
        faults = {"handle": 1, "accept": 1}

        def failing(fault, real):
            def wrapper(self, *args):
                if faults[fault]:
                    faults[fault] -= 1
                    raise (RuntimeError if fault == "handle" else OSError)(fault)
                return real(self, *args)
            return wrapper

        monkeypatch.setattr(server.ShoutHandler, "handle", failing("handle", handle))
        with connect(live_server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("/nope"))
            assert reader.read() == b""  # closed with no answer
        monkeypatch.setattr(socket.socket, "accept", failing("accept", accept))
        assert http_get(live_server.url + "/nope")[0] == 404
        assert faults == {"handle": 0, "accept": 0}
        assert [(r.levelname, r.getMessage()) for r in caplog.records
                if r.levelno >= logging.WARNING] == [
            ("ERROR", "unhandled error serving 127.0.0.1"),
            ("WARNING", "accept failed: accept")]

    def test_an_error_outside_a_handler_closes_only_its_connection(self, live_server,
                                                                   monkeypatch, caplog):
        read_head, faults = server._read_head, [RuntimeError("read_head")]

        def failing(*args):
            if faults:
                raise faults.pop()
            return read_head(*args)

        monkeypatch.setattr(server, "_read_head", failing)
        with connect(live_server) as sock:
            sock.sendall(request("/nope"))
            assert sock.recv(1) == b""  # closed with no answer
        assert http_get(live_server.url + "/nope")[0] == 404
        assert [(r.levelname, r.getMessage()) for r in caplog.records
                if r.levelno >= logging.WARNING] == [
            ("ERROR", "unhandled error on 127.0.0.1")]

    def test_shutdown_closes_open_connections(self, tmp_path):
        store = Store(str(tmp_path / "journal.jsonl"))
        srv = ShoutServer(store)
        thread = threading.Thread(target=srv.serve_forever, args=(0.05,))
        thread.start()
        try:
            idle = socket.create_connection(srv.server_address, timeout=5)
            half = socket.create_connection(srv.server_address, timeout=5)
            half.sendall(b"GET /shouts HTTP/1.1\r\n")
            with idle, half:  # accepted before the served one is answered
                served = socket.create_connection(srv.server_address, timeout=5)
                with served, served.makefile("rb") as answers:
                    served.sendall(request("/shouts"))
                    assert read_answer(answers)[0] == 200
                    srv.shutdown()
                    thread.join(timeout=5)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        srv.server_close()
                        gc.collect()
                    assert not thread.is_alive()
                    assert [w for w in caught if w.category is ResourceWarning] == []
                    for client in (idle, half, served):
                        assert client.recv(1) == b""
        finally:
            store.close()


class TestDateHeader:
    """The Date header is RFC 9110's IMF-fixdate, written without ``email.utils``."""

    def test_date_equals_formatdate_at_a_fixed_clock(self, store, monkeypatch):
        for now in [0, 951782400, 1700000000, 253402300799,
                    *range(0, 253402300799, 253402300799 // 97)]:
            monkeypatch.setattr(server, "gmtime", lambda: time.gmtime(now))
            _, headers, _ = served(store, request("/report"))
            assert headers["date"] == formatdate(now, usegmt=True)

    def test_importing_the_server_does_not_import_email(self):
        code = "import sys, aa.server; print([m for m in sys.modules if 'email' in m])"
        found = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                               check=True, timeout=60)
        assert found.stdout == "[]\n"


class TestLimits:
    """Deadlines and the connection cap; the tests patch the class constants."""

    def test_idle_connections_are_closed_after_the_idle_deadline(self, live_server,
                                                                 monkeypatch):
        monkeypatch.setattr(ShoutServer, "IDLE_TIMEOUT", 0.3)
        with connect(live_server) as fresh, connect(live_server) as served, \
                served.makefile("rb") as reader:
            served.sendall(request("/shouts"))
            assert read_answer(reader)[0] == 200
            started = time.monotonic()
            assert fresh.recv(1) == b"" and served.recv(1) == b""
            assert 0.1 < time.monotonic() - started < 3

    def test_a_half_sent_head_is_closed_after_the_request_deadline(self, live_server,
                                                                   monkeypatch):
        monkeypatch.setattr(ShoutServer, "REQUEST_TIMEOUT", 0.3)
        with connect(live_server) as sock:
            sock.sendall(b"POST /shout?nick=bob&msg=slow HTTP/1.1\r\nHost: aa\r\n")
            started = time.monotonic()
            assert sock.recv(1) == b""  # closed, with no answer
            assert 0.2 < time.monotonic() - started < 3
        assert messages(live_server) == []

    def test_a_slow_reader_gets_the_whole_answer(self, live_server, monkeypatch):
        monkeypatch.setattr(ShoutServer, "IDLE_TIMEOUT", 0.3)
        live_server.store.receive_shout("bob", "x" * 300_000)
        # accepted sockets inherit the listener's small send buffer
        live_server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5)
            sock.connect(live_server.server_address[:2])
            sock.sendall(request("/shouts", version="HTTP/1.0"))
            started, reply = time.monotonic(), b""
            while chunk := sock.recv(8192):
                reply += chunk
                time.sleep(0.02)  # each gap well inside the deadline
        assert time.monotonic() - started > 0.6  # the answer outlasted the deadline
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert len(body) == int(re.search(rb"Content-Length: (\d+)", head)[1]) > 300_000

    def test_a_connection_past_the_cap_gets_503(self, live_server, monkeypatch):
        monkeypatch.setattr(ShoutServer, "MAX_CONNECTIONS", 2)
        with connect(live_server) as first, connect(live_server) as second, \
                first.makefile("rb") as reader:
            first.sendall(request("/shouts"))  # both are open once it is answered
            assert read_answer(reader)[0] == 200
            with connect(live_server) as third, third.makefile("rb") as refused:
                third.sendall(request("/shout?nick=bob&msg=refused", "POST"))
                status, headers, body = read_answer(refused)
                assert refused.read() == b""
            second.sendall(request("/shouts"))
            with second.makefile("rb") as still_served:
                assert read_answer(still_served)[0] == 200
        assert status == 503
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"error": "busy", "detail": "over 2 open connections"}
        assert messages(live_server) == []


class TestServerMain:
    """aa-server refuses a bad config with one error line, before any journal exists."""

    @pytest.mark.parametrize("text", [
        "frobnicate = yes\n",
        "port = eighty\n",
        "slot = 900\ntolerance = 500\n",
    ], ids=["unknown-key", "non-integer-port", "invalid-grid"])
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys, text):
        from aa.server import main
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "aa.conf"
        conf.write_text(f"journal = {tmp_path / 'j.jsonl'}\n" + text)
        assert main(["--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aa.conf"]
