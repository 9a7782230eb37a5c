"""Core domain types shared by every other module.

All types are immutable values (frozen dataclasses) and do no I/O.
Timestamps are UTC seconds since the epoch, second precision.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable

from .errors import EmptyNick

# the slot grid: slot length and prompt tolerance, in seconds
DEFAULT_SLOT = 900
DEFAULT_TOLERANCE = 300


class MessageKind(str, enum.Enum):
    """Classification of a raw message, dictated by its first word."""

    START = "start"
    STOP = "stop"
    PUSH = "push"
    SHOUT = "shout"
    LOST_TIMESLOT = "lost_timeslot"
    QUERY = "query"


class Source(str, enum.Enum):
    HTTP = "http"
    CHAT = "chat"
    MINED = "mined"


class TagForm(str, enum.Enum):
    HASH = "hash"
    PLUS = "plus"
    WORD = "word"


class TagScope(str, enum.Enum):
    SHOUT_ONLY = "shout_only"
    SESSION = "session"
    UNTIL_NEXT_TAG = "until_next_tag"


class SessionOrigin(str, enum.Enum):
    EXPLICIT = "explicit"
    INFERRED = "inferred"


class DeviationKind(str, enum.Enum):
    """The three recognized departures from ordinary working shouts."""

    ADVERTISING = "advertising"
    PRODUCT_EXHIBITIONISM = "product_exhibitionism"
    INTRO_TEST = "intro_test"


@dataclass(frozen=True)
class Tag:
    """One classification marker attached to a message.

    ``name`` is lowercase and free of leading marker characters.
    """

    form: TagForm
    name: str
    scope: TagScope = TagScope.SHOUT_ONLY

    @property
    def surface(self) -> str:
        """The tag as it would appear in message text."""
        marker = {TagForm.HASH: "#", TagForm.PLUS: "+", TagForm.WORD: ""}[self.form]
        return marker + self.name


@dataclass(frozen=True)
class Shout:
    """One timestamped message from a user; the atomic record."""

    id: str
    nick: str
    message: str
    created: int
    source: Source = Source.HTTP
    kind: MessageKind = MessageKind.SHOUT
    tags: tuple[Tag, ...] = ()
    session_ref: str | None = None
    deviation: DeviationKind | None = None
    client_created: int | None = None
    topic: str | None = None


@dataclass(frozen=True)
class User:
    """A participant, identified by one or more nicks."""

    id: str
    nicks: frozenset[str]


def users_from_nicks(nicks: Iterable[str]) -> dict[str, User]:
    """One user per distinct nick, keyed and identified by that nick."""
    return {nick: User(id=nick, nicks=frozenset({nick})) for nick in nicks}


def users_from_shouts(shouts: Iterable[Shout]) -> dict[str, User]:
    """Users derived from the shouts' distinct nicks, in first-seen order."""
    return users_from_nicks(s.nick for s in shouts)


@dataclass(frozen=True)
class ValidationReview:
    """Peer review of a session; score lives in the unit interval."""

    session: str
    reviewer: str
    score: float
    comment: str | None
    created: int


@dataclass(frozen=True)
class Session:
    """A time-contiguous group of shouts from one user.

    ``shouts`` holds member shout ids ordered by creation time.
    """

    id: str
    user: str
    origin: SessionOrigin
    start: int
    end: int
    slot_duration: int = DEFAULT_SLOT
    shouts: tuple[str, ...] = ()
    screencast: str | None = None


def normalize_nick(raw: str) -> str:
    """Trim and lowercase a handle; idempotent. Raises EmptyNick on blank."""
    nick = raw.strip().lower()
    if not nick:
        raise EmptyNick("nick is empty after trimming")
    return nick


def normalize_message(raw: str) -> str:
    """Collapse whitespace runs to single spaces; listings are line-oriented."""
    return " ".join(raw.split())


def iso8601(ts: int) -> str:
    """Render epoch seconds as an ISO 8601 UTC timestamp."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def parse_iso8601(text: str) -> int:
    """Parse an ISO 8601 timestamp (naive values are taken as UTC)."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())
