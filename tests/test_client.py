import io
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from aa.client import (
    EXIT_OK,
    EXIT_SPOOLED,
    EXIT_USAGE,
    ClientConfig,
    api_shout,
    cmd_shout,
    load_client_config,
    push,
    session_loop,
    spool_append,
    spool_load,
)


@pytest.fixture
def client_config(tmp_path, live_server):
    return ClientConfig(server=live_server.url, nick="bob", slot=900,
                        tolerance=300, spool=str(tmp_path / "spool.jsonl"),
                        timeout=5)


def offline_config(tmp_path):
    # nothing listens on this port
    return ClientConfig(server="http://127.0.0.1:1", nick="bob",
                        spool=str(tmp_path / "spool.jsonl"), timeout=0.5)


class FlakyHandler(BaseHTTPRequestHandler):
    """Accepts a fixed number of requests, then answers 500."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.server.budget > 0:
            self.server.budget -= 1
            body = json.dumps({"result": "push", "accepted": 1,
                               "ids": ["x"]}).encode()
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
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


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
        messages = [s.message for s in live_server.store.list_shouts()]
        # originals arrive in spool order, each alongside its push control record
        assert [m for m in messages if m.startswith("spooled")] == \
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


def tear_last_line(spool):
    """Cut the spool inside its last record, as a crash mid-append would."""
    with open(spool, "rb+") as fh:
        fh.truncate(fh.seek(0, 2) - 10)


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
        assert [s.message for s in live_server.store.list_shouts()
                if not s.message.startswith("push")] == ["whole"]
        assert spool_load(client_config) == []

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
        assert [s.message for s in live_server.store.list_shouts()
                if not s.message.startswith("push")] == ["whole"]
        assert not os.path.exists(client_config.spool)


class TestSessionLoop:
    def test_all_prompts_answered_is_ideal(self, tmp_path, live_server):
        config = ClientConfig(server=live_server.url, nick="bob",
                              slot=0.2, tolerance=0.05,
                              spool=str(tmp_path / "spool.jsonl"), timeout=5)
        answers = io.StringIO("\n".join(f"answer {k}" for k in range(8)) + "\n")
        result = session_loop(config, slots=8, stdin=answers,
                              out=lambda *_: None)
        assert result.sent == 8
        assert result.lost == []
        assert result.report is not None

    def test_skipped_prompt_records_lost_slot(self, tmp_path, live_server):
        config = ClientConfig(server=live_server.url, nick="bob",
                              slot=0.2, tolerance=0.05,
                              spool=str(tmp_path / "spool.jsonl"), timeout=5)
        lines = ["a", "b", "c", "", "e", "f", "g", "h"]
        answers = io.StringIO("\n".join(lines) + "\n")
        result = session_loop(config, slots=8, stdin=answers,
                              out=lambda *_: None)
        assert result.lost == [3]
        assert result.sent == 7

    def test_immediate_stop_closes_empty_session(self, tmp_path, live_server):
        config = ClientConfig(server=live_server.url, nick="bob",
                              slot=0.2, tolerance=0.05,
                              spool=str(tmp_path / "spool.jsonl"), timeout=5)
        result = session_loop(config, slots=8, stdin=io.StringIO("stop\n"),
                              out=lambda *_: None)
        assert result.stopped_early is True
        assert result.sent == 0
        assert result.report == {"per_shout": [], "lost_slots": [],
                                 "ideal": False}

    def test_prompt_cadence_tracks_slot(self, tmp_path, live_server):
        config = ClientConfig(server=live_server.url, nick="bob",
                              slot=0.5, tolerance=0.2,
                              spool=str(tmp_path / "spool.jsonl"), timeout=5)
        answers = io.StringIO("\n".join("abcd") + "\n")
        result = session_loop(config, slots=4, stdin=answers,
                              out=lambda *_: None)
        gaps = [b - a for a, b in zip(result.prompt_times,
                                      result.prompt_times[1:])]
        assert len(gaps) == 3
        for gap in gaps:
            assert abs(gap - 0.5) < 0.4  # scheduler jitter stays well under 1 s


class TestClientConfigLoading:
    def test_file_then_env_precedence(self, tmp_path):
        conf = tmp_path / "client.conf"
        conf.write_text("server = http://file.example\nnick = filenick\n"
                        "slot = 600\ntolerance = 120\n")
        config = load_client_config(str(conf), env={"AA_NICK": "envnick"})
        assert config.server == "http://file.example"
        assert config.nick == "envnick"
        assert config.slot == 600
        assert config.tolerance == 120

    def test_defaults_without_file(self, tmp_path):
        config = load_client_config(str(tmp_path / "missing.conf"), env={})
        assert config.slot == 900
        assert config.tolerance == 300

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(slot=10, tolerance=6)


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

    def test_invalid_grid_rejected_by_main(self, tmp_path, capsys):
        from aa.client import main
        code = main(["--slot", "10", "--tolerance", "9",
                     "--spool", str(tmp_path / "s.jsonl"), "status"])
        assert code == EXIT_USAGE

    def test_zero_slot_rejected_by_main(self, tmp_path, capsys):
        from aa.client import main
        code = main(["--slot", "0", "--spool", str(tmp_path / "s.jsonl"), "status"])
        assert code == EXIT_USAGE
        assert "need slot > 0" in capsys.readouterr().err
