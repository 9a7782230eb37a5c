"""IRC bot: logs channel messages that start with SHOUT_PREFIX as shouts and replies.

The bot speaks the client protocol directly over a TCP socket: register
with NICK/USER, JOIN the configured channel, answer PING, and dispatch
every channel PRIVMSG through handle_line. On disconnect it reconnects
with exponential backoff.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import socket
import ssl
import time
from dataclasses import dataclass

from . import client as http_client
from .client import ClientConfig, TransportError
from .model import normalize_nick
from .parsing import SHOUT_PREFIX

log = logging.getLogger("aa.bot")

USAGE_REPLY = 'usage: ";aa <what you are working on>" logs a shout under your nick'

INFO_LINES = (
    "a shout is a one-line note about what you are doing right now",
    "shouts every 15 minutes build a reviewable session of your work",
    "8 on-time shouts within two hours make an ideal session",
    "tag shouts with #topic or +tool to ease later mining and statistics",
)


@dataclass
class BotConfig:
    host: str
    port: int = 6667
    tls: bool = False
    channel: str = "#aa"
    nick: str = "lalenia"
    server_url: str = http_client.DEFAULT_SERVER
    reply_private: bool = False
    spool: str = "aa-bot-spool.jsonl"
    reconnect_base: float = 1.0
    reconnect_cap: float = 60.0
    max_reconnects: int | None = None


@dataclass(frozen=True)
class ChatEvent:
    """One channel line as received, text preserved verbatim."""

    network: str
    channel: str
    nick: str
    text: str
    received: int


def handle_line(event: ChatEvent, submit, info=None) -> str | None:
    """Reply for one channel line; non-prefixed lines produce none.

    ``submit(nick, text) -> shout id`` performs the actual logging and may
    raise; the reply then reports the failure instead of a confirmation.
    """
    text = event.text
    if text == SHOUT_PREFIX.strip():
        return f"{event.nick}: {USAGE_REPLY}"
    if not text.startswith(SHOUT_PREFIX):
        return None
    body = text[len(SHOUT_PREFIX):]
    if not body.strip():
        return f"{event.nick}: {USAGE_REPLY}"
    try:
        shout_id = submit(normalize_nick(event.nick), body)
    except Exception as exc:  # noqa: BLE001 - any failure becomes an error reply
        return f"{event.nick}: shout NOT logged ({exc})"
    reply = f"{event.nick}: shout logged ({shout_id})"
    if info is not None:
        reply += " | " + next(info)
    return reply


class Bot:
    """One IRC connection driving the shout-logging behavior."""

    def __init__(self, config: BotConfig):
        self.config = config
        self._info = itertools.cycle(INFO_LINES)
        self._sock: socket.socket | None = None
        self._buffer = b""
        self.http = ClientConfig(server=config.server_url, nick=config.nick,
                                 spool=config.spool, timeout=10.0)

    # -- shout submission --------------------------------------------------

    def submit(self, nick: str, message: str) -> str:
        send_as = ClientConfig(server=self.http.server, nick=nick,
                               spool=self.http.spool, timeout=self.http.timeout)
        try:
            return http_client.api_shout(send_as, message, source="chat")["id"]
        except TransportError:
            # keep the shout for a later push, then report the failure
            http_client.spool_append(send_as, message)
            raise

    # -- wire --------------------------------------------------------------

    def _send(self, line: str) -> None:
        log.debug(">> %s", line)
        assert self._sock is not None
        self._sock.sendall((line + "\r\n").encode())

    def _lines(self, stop=None):
        """Decode complete IRC lines from the socket until it closes."""
        assert self._sock is not None
        while True:
            if stop is not None and stop.is_set():
                return
            try:
                chunk = self._sock.recv(4096)
            except socket.timeout:
                continue
            if not chunk:
                return
            self._buffer += chunk
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                line = line.rstrip(b"\r")
                if line:
                    yield line.decode(errors="replace")

    def _connect(self) -> None:
        raw = socket.create_connection((self.config.host, self.config.port),
                                       timeout=30)
        if self.config.tls:
            context = ssl.create_default_context()
            raw = context.wrap_socket(raw, server_hostname=self.config.host)
        raw.settimeout(1.0)
        self._sock = raw
        self._buffer = b""

    def _serve(self, stop=None) -> None:
        """Register, join once welcomed, then log the channel's shouts.

        PING is answered throughout. Before the welcome, ERROR gives up and
        a 433 (nick in use) retries with "_" appended, at most 3 times.
        """
        nick = self.config.nick
        self._send(f"NICK {nick}")
        self._send(f"USER {nick} 0 * :{nick}")
        retries, joined = 0, False
        for line in self._lines(stop):
            log.debug("<< %s", line)
            parts = line.split(" ", 3)
            command = parts[1] if len(parts) > 1 else None
            if parts[0] == "PING":
                self._send("PONG " + line[5:])
            elif joined:
                if (len(parts) < 4 or command != "PRIVMSG"
                        or parts[2].lower() != self.config.channel.lower()):
                    continue
                sender = parts[0][1:].split("!", 1)[0]
                text = parts[3][1:] if parts[3].startswith(":") else parts[3]
                event = ChatEvent(network=self.config.host, channel=parts[2],
                                  nick=sender, text=text, received=int(time.time()))
                reply = handle_line(event, self.submit, info=self._info)
                if reply is not None:
                    self._send(f"NOTICE {sender} :{reply}" if self.config.reply_private
                               else f"PRIVMSG {self.config.channel} :{reply}")
            elif parts[0] == "ERROR":
                raise PermissionError(f"registration refused: {line}")
            elif command == "433":
                retries += 1
                if retries > 3:
                    raise PermissionError("nick exhausted after 433 replies")
                nick += "_"
                self._send(f"NICK {nick}")
            elif command in ("001", "376", "422"):
                self._send(f"JOIN {self.config.channel}")
                log.info("joined %s on %s:%s", self.config.channel,
                         self.config.host, self.config.port)
                self._backoff = self.config.reconnect_base
                joined = True
        raise ConnectionError("connection closed")

    def run(self, stop=None) -> int:
        """Connect, serve, and reconnect until stopped or refused."""
        attempts = 0
        self._backoff = self.config.reconnect_base
        while stop is None or not stop.is_set():
            try:
                self._connect()
                self._serve(stop)
            except PermissionError as exc:
                log.error("giving up: %s", exc)
                return 1
            except (ConnectionError, OSError) as exc:
                log.warning("disconnected: %s", exc)
            finally:
                if self._sock is not None:
                    self._sock.close()
                    self._sock = None
            if stop is not None and stop.is_set():
                break
            attempts += 1
            if (self.config.max_reconnects is not None
                    and attempts > self.config.max_reconnects):
                log.error("reconnect budget exhausted")
                return 1
            time.sleep(self._backoff)
            self._backoff = min(self._backoff * 2, self.config.reconnect_cap)
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa-bot",
                                     description="IRC shout-logging bot")
    parser.add_argument("--irc-host", required=True)
    parser.add_argument("--irc-port", type=int, default=6667)
    parser.add_argument("--tls", action="store_true")
    parser.add_argument("--channel", default="#aa")
    parser.add_argument("--bot-nick", default="lalenia")
    parser.add_argument("--server", default=http_client.DEFAULT_SERVER,
                        help="shout server base URL")
    parser.add_argument("--private-replies", action="store_true",
                        help="reply with NOTICE to the sender instead of the channel")
    parser.add_argument("--spool", default="aa-bot-spool.jsonl")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(asctime)s %(message)s")
    config = BotConfig(host=args.irc_host, port=args.irc_port, tls=args.tls,
                       channel=args.channel, nick=args.bot_nick,
                       server_url=args.server, reply_private=args.private_replies,
                       spool=args.spool)
    return Bot(config).run()


if __name__ == "__main__":
    raise SystemExit(main())
