"""Core domain types shared by every other module.

The record types are immutable NamedTuples that do no I/O: hashable, equal
by fields, and changed only through ``_replace``, which returns a new value.
Timestamps are UTC seconds since the epoch, second precision.
"""

from __future__ import annotations

import enum
from datetime import datetime, timezone
from time import gmtime
from typing import Iterable, NamedTuple

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


class Tag(NamedTuple):
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


class Shout(NamedTuple):
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


class User(NamedTuple):
    """A participant, identified by one or more nicks."""

    id: str
    nicks: frozenset[str]


def users_from_nicks(nicks: Iterable[str]) -> dict[str, User]:
    """One user per distinct nick, keyed and identified by that nick."""
    return {nick: User(id=nick, nicks=frozenset({nick})) for nick in nicks}


class ValidationReview(NamedTuple):
    """Peer review of a session; score lives in the unit interval."""

    session: str
    reviewer: str
    score: float
    comment: str | None
    created: int


class Session(NamedTuple):
    """A time-contiguous group of shouts from one user.

    ``shouts`` holds member shout ids in arrival order, with the lost-slot
    markers made at the session's close last.
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


# epoch seconds of the first and last second of UTC years 1-9999
FIRST_TIMESTAMP, LAST_TIMESTAMP = -62135596800, 253402300799


def check_timestamp(ts: int) -> int:
    """``ts`` itself if it falls in UTC years 1-9999, the years datetime holds."""
    if not FIRST_TIMESTAMP <= ts <= LAST_TIMESTAMP:
        raise ValueError(f"timestamp {ts} is outside UTC years 1-9999")
    return ts


def iso8601(ts: int) -> str:
    """Render epoch seconds in UTC as the xsd:dateTime lexical form."""
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % gmtime(ts)[:6]


def parse_iso8601(text: str) -> int:
    """Parse an ISO 8601 timestamp (naive values are taken as UTC)."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())
