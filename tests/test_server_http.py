import json
import re
import socket
import urllib.request
from pathlib import Path

import pytest
from conftest import get_json, http_get, http_post, post_json

from aa import server
from aa.server import MAX_BODY, ROUTES

ROOT = Path(__file__).resolve().parent.parent


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
        assert json.loads(body)["error"] == "bad_filter"

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

    def test_push_batch(self, live_server):
        status, result = post_json(
            live_server.url + "/message",
            body={"nick": "bob", "msg": "push",
                  "batch": [{"message": "spooled", "client_created": 1000}]})
        assert status == 200
        assert result["accepted"] == 1

    def test_push_iso_client_created_stored_as_epoch_seconds(self, live_server):
        batch = [{"message": "offline a", "client_created": "2023-11-14T22:13:20Z"},
                 {"message": "offline b", "client_created": 1700000000}]
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "push", "batch": batch})
        assert status == 200 and result["accepted"] == 2
        stored = {s.message: s.client_created for s in live_server.store.list_shouts()}
        assert stored["offline a"] == stored["offline b"] == 1700000000

    def test_push_bad_client_created_is_client_error(self, live_server):
        batch = [{"message": "offline", "client_created": "yesterday"}]
        status, result = post_json(live_server.url + "/message",
                                   body={"nick": "bob", "msg": "push", "batch": batch})
        assert status == 400
        assert result["error"] == "bad_request"
        assert live_server.store.list_shouts() == []

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

    def test_lost_endpoint(self, live_server, clock):
        _, started = post_json(live_server.url + "/message",
                               body={"nick": "bob", "msg": "start"})
        post_json(live_server.url + "/shout",
                  params={"nick": "bob", "msg": "slot zero"})
        clock.advance(1900)
        status, marker = post_json(
            live_server.url + f"/session/{started['session']}/lost",
            params={"slot": "1"})
        assert status == 200
        assert marker["slot"] == 1


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
        ("/message", {"nick": "bob", "msg": "push", "batch": [5]}, "batch"),
        ("/message", {"nick": "bob", "msg": "push", "batch": [{"message": 5}]}, "batch"),
        ("/session/{sid}/screencast", {"url": 5}, "url"),
        ("/session/{sid}/review",
         {"reviewer": "alice", "score": 0.5, "comment": 7}, "comment"),
        ("/session/{sid}/lost", {"slot": True}, "slot"),
    ], ids=["nick", "msg", "client_created-list", "client_created-float",
            "client_created-bool", "batch-item", "batch-message", "url", "comment",
            "slot-bool"])
    def test_ill_typed_value_is_bad_request(self, live_server, path, body, name):
        _, started = post_json(live_server.url + "/message",
                               body={"nick": "bob", "msg": "start"})
        journal = Path(live_server.store.journal.path)
        before = journal.read_bytes()
        status, result = post_json(
            live_server.url + path.format(sid=started["session"]), body=body)
        assert (status, result["error"]) == (400, "bad_request")
        assert repr(name) in result["detail"]
        assert journal.read_bytes() == before

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
    ("POST", "/session/x/y/lost"),
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
    @pytest.mark.parametrize("length", [-1, MAX_BODY + 1])
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
