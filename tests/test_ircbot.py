import itertools
import socket
import threading
import time

import pytest

from aa.ircbot import INFO_LINES, Bot, BotConfig, ChatEvent, handle_line


def event(text, nick="bob"):
    return ChatEvent(network="irc.example", channel="#aa", nick=nick,
                     text=text, received=0)


class TestHandleLine:
    def test_prefixed_line_logged_and_confirmed(self):
        seen = []

        def submit(nick, message):
            seen.append((nick, message))
            return "abc123"

        reply = handle_line(event(";aa reading RFC 1459"), submit)
        assert seen == [("bob", "reading RFC 1459")]
        assert "abc123" in reply
        assert reply.startswith("bob:")

    def test_unprefixed_line_ignored(self):
        reply = handle_line(event("hello folks"), lambda *a: "x")
        assert reply is None

    def test_near_prefix_ignored(self):
        assert handle_line(event(";aarrr matey"), lambda *a: "x") is None

    def test_bare_prefix_yields_usage(self):
        called = []
        reply = handle_line(event(";aa"), lambda *a: called.append(a))
        assert called == []
        assert "usage" in reply

    def test_prefix_with_blank_remainder_yields_usage(self):
        reply = handle_line(event(";aa   "), lambda *a: "x")
        assert "usage" in reply

    def test_submit_failure_becomes_error_reply(self):
        def submit(nick, message):
            raise ConnectionError("server down")

        reply = handle_line(event(";aa x"), submit)
        assert "NOT logged" in reply

    def test_attribution_uses_sender_nick(self):
        seen = []
        handle_line(event(";aa note", nick="  Alice "),
                    lambda nick, msg: seen.append(nick) or "id")
        assert seen == ["alice"]

    def test_rotating_info_line_appended(self):
        info = itertools.cycle(INFO_LINES)
        first = handle_line(event(";aa one"), lambda *a: "id1", info=info)
        second = handle_line(event(";aa two"), lambda *a: "id2", info=info)
        assert INFO_LINES[0] in first
        assert INFO_LINES[1] in second

    def test_message_body_preserved_verbatim(self):
        seen = []
        handle_line(event(";aa spaced   out   text"),
                    lambda nick, msg: seen.append(msg) or "id")
        assert seen == ["spaced   out   text"]


def welcome_after_user(text):
    return [":irc.example 001 bot :welcome"] if text.startswith("USER ") else []


class FakeIrcServer:
    """Scripted IRC endpoint: accepts connections, records client lines.

    ``replies(line)`` gives the lines sent back for each client line; by
    default the server welcomes the client once it sends USER.
    """

    def __init__(self, replies=welcome_after_user):
        self.replies = replies
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.received = []
        self.connections = 0
        self._conn = None
        self._lock = threading.Lock()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.stopping = False
        self.thread.start()

    def _serve(self):
        while not self.stopping:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with self._lock:
                self._conn = conn
                self.connections += 1
            threading.Thread(target=self._pump, args=(conn,), daemon=True).start()

    def _pump(self, conn):
        buffer = b""
        conn.settimeout(0.2)
        while not self.stopping:
            try:
                chunk = conn.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            while b"\r\n" in buffer:
                line, buffer = buffer.split(b"\r\n", 1)
                text = line.decode()
                self.received.append(text)
                for reply in self.replies(text):
                    self.send(reply)

    def send(self, line):
        with self._lock:
            if self._conn is not None:
                self._conn.sendall((line + "\r\n").encode())

    def drop_connection(self):
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def wait_for(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.02)
        return False

    def close(self):
        self.stopping = True
        self.drop_connection()
        self.sock.close()


@pytest.fixture
def irc():
    server = FakeIrcServer()
    yield server
    server.close()


@pytest.fixture
def running_bot(irc, live_server, tmp_path):
    config = BotConfig(host="127.0.0.1", port=irc.port, channel="#aa",
                       nick="lalenia", server_url=live_server.url,
                       spool=str(tmp_path / "bot-spool.jsonl"),
                       reconnect_base=0.05, max_reconnects=5)
    bot = Bot(config)
    stop = threading.Event()
    thread = threading.Thread(target=bot.run, kwargs={"stop": stop}, daemon=True)
    thread.start()
    assert irc.wait_for(lambda: any("JOIN" in r for r in irc.received))
    yield bot, irc
    stop.set()
    irc.drop_connection()
    thread.join(timeout=5)


class TestBotWire:
    def test_registration_and_join(self, running_bot):
        _, irc = running_bot
        assert any(r.startswith("NICK lalenia") for r in irc.received)
        assert any(r.startswith("USER ") for r in irc.received)
        assert any(r.startswith("JOIN #aa") for r in irc.received)

    def test_prefixed_privmsg_logged_to_server(self, running_bot, live_server):
        _, irc = running_bot
        irc.send(":alice!a@h PRIVMSG #aa :;aa testing the bot wire")
        assert irc.wait_for(
            lambda: len(live_server.store.list_shouts()) == 1)
        shout = live_server.store.list_shouts()[0]
        assert shout.nick == "alice"
        assert shout.message == "testing the bot wire"
        assert shout.source.value == "chat"
        assert irc.wait_for(
            lambda: any("shout logged" in r for r in irc.received
                        if r.startswith("PRIVMSG #aa")))

    def test_one_line_one_record(self, running_bot, live_server):
        _, irc = running_bot
        irc.send(":alice!a@h PRIVMSG #aa :;aa exactly once")
        assert irc.wait_for(lambda: len(live_server.store.list_shouts()) == 1)
        time.sleep(0.2)
        assert len(live_server.store.list_shouts()) == 1

    def test_unprefixed_privmsg_ignored(self, running_bot, live_server):
        _, irc = running_bot
        irc.send(":alice!a@h PRIVMSG #aa :just chatting")
        time.sleep(0.3)
        assert live_server.store.list_shouts() == []

    def test_keepalive_answered(self, running_bot):
        _, irc = running_bot
        irc.send("PING :challenge-42")
        assert irc.wait_for(
            lambda: any(r.startswith("PONG") and "challenge-42" in r
                        for r in irc.received))

    def test_reconnect_after_disconnect(self, running_bot):
        _, irc = running_bot
        first = irc.connections
        joins = sum(1 for r in irc.received if r.startswith("JOIN"))
        irc.drop_connection()
        assert irc.wait_for(lambda: irc.connections > first)
        assert irc.wait_for(
            lambda: sum(1 for r in irc.received if r.startswith("JOIN")) > joins)

    def test_error_reply_when_server_down(self, irc, tmp_path):
        config = BotConfig(host="127.0.0.1", port=irc.port, channel="#aa",
                           nick="lalenia", server_url="http://127.0.0.1:1",
                           spool=str(tmp_path / "bot-spool.jsonl"),
                           reconnect_base=0.05, max_reconnects=2)
        bot = Bot(config)
        bot.http.timeout = 0.3
        stop = threading.Event()
        thread = threading.Thread(target=bot.run, kwargs={"stop": stop},
                                  daemon=True)
        thread.start()
        assert irc.wait_for(lambda: any("JOIN" in r for r in irc.received))
        irc.send(":alice!a@h PRIVMSG #aa :;aa will fail")
        assert irc.wait_for(
            lambda: any("NOT logged" in r for r in irc.received))
        # the failed shout is spooled for a later push
        from aa.client import ClientConfig, spool_load
        spooled = spool_load(ClientConfig(spool=config.spool))
        assert [r["data"]["message"] for r in spooled] == ["will fail"]
        stop.set()
        irc.drop_connection()
        thread.join(timeout=5)


@pytest.fixture
def scripted_irc():
    """Make FakeIrcServers with scripted replies; all are closed afterwards."""
    servers = []

    def make(replies):
        servers.append(FakeIrcServer(replies))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def start_bot(irc, tmp_path):
    """Run a bot against ``irc`` in a thread; return (stop event, thread, [status])."""
    config = BotConfig(host="127.0.0.1", port=irc.port, channel="#aa",
                       nick="lalenia", server_url="http://127.0.0.1:1",
                       spool=str(tmp_path / "bot-spool.jsonl"),
                       reconnect_base=0.05, max_reconnects=2)
    stop, status = threading.Event(), []
    thread = threading.Thread(target=lambda: status.append(Bot(config).run(stop)),
                              daemon=True)
    thread.start()
    return stop, thread, status


class TestRegistration:
    def test_ping_before_welcome_is_answered(self, scripted_irc, tmp_path):
        irc = scripted_irc(lambda text: (
            ["PING :before-welcome"] if text.startswith("USER ") else
            [":irc.example 001 lalenia :welcome"] if text == "PONG :before-welcome" else
            []))
        stop, thread, _ = start_bot(irc, tmp_path)
        assert irc.wait_for(lambda: "JOIN #aa" in irc.received)
        assert "PONG :before-welcome" in irc.received
        stop.set()
        thread.join(timeout=5)

    def test_nick_in_use_retries_with_underscore_then_joins(self, scripted_irc,
                                                            tmp_path):
        irc = scripted_irc(lambda text: (
            [":irc.example 433 * lalenia :Nickname is already in use"]
            if text == "NICK lalenia" else
            [":irc.example 001 lalenia_ :welcome"] if text == "NICK lalenia_" else
            []))
        stop, thread, _ = start_bot(irc, tmp_path)
        assert irc.wait_for(lambda: "JOIN #aa" in irc.received)
        assert [r for r in irc.received if r.startswith("NICK ")] == \
            ["NICK lalenia", "NICK lalenia_"]
        assert irc.received.index("NICK lalenia_") < irc.received.index("JOIN #aa")
        stop.set()
        thread.join(timeout=5)

    def test_fourth_nick_in_use_gives_up_without_reconnecting(self, scripted_irc,
                                                             tmp_path):
        irc = scripted_irc(lambda text: [":irc.example 433 * x :in use"]
                           if text.startswith("NICK ") else [])
        _, thread, status = start_bot(irc, tmp_path)
        thread.join(timeout=5)
        assert status == [1]
        assert irc.connections == 1
        assert [r for r in irc.received if r.startswith("NICK ")] == [
            "NICK lalenia", "NICK lalenia_", "NICK lalenia__", "NICK lalenia___"]
        assert not any(r.startswith("JOIN") for r in irc.received)

    def test_error_before_welcome_gives_up_without_reconnecting(self, scripted_irc,
                                                               tmp_path):
        irc = scripted_irc(lambda text: ["ERROR :Closing link: banned"]
                           if text.startswith("USER ") else [])
        _, thread, status = start_bot(irc, tmp_path)
        thread.join(timeout=5)
        assert status == [1]
        assert irc.connections == 1
        assert not any(r.startswith("JOIN") for r in irc.received)


def test_spooled_bot_shouts_push_with_original_nick(irc, live_server, tmp_path):
    """A shout spooled while the server was down pushes under the sender's nick."""
    from aa.client import ClientConfig, push, spool_append

    spool = str(tmp_path / "bot-spool.jsonl")
    downed = ClientConfig(server="http://127.0.0.1:1", nick="alice",
                          spool=spool, timeout=0.3)
    spool_append(downed, "written while down")

    pusher = ClientConfig(server=live_server.url, nick="lalenia", spool=spool,
                          timeout=5)
    assert push(pusher, out=lambda *_: None) == 0
    shouts = [s for s in live_server.store.list_shouts()
              if s.message == "written while down"]
    assert [s.nick for s in shouts] == ["alice"]
