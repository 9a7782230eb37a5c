"""The shout store: arrival stamping, journaling, sessions, and listings.

State is held in memory and every accepted mutation is journaled before it
becomes visible, so replaying the journal reproduces the live state. The
store's state is its ``Journal``'s: each mutation hands its records to
``Journal.append_many``, which writes them in one write and applies them
only once that write is durable.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Callable, Sequence
from urllib.parse import urlsplit

from . import journal as jn
from . import parsing, sessions as eng
from .errors import (
    BadFilter,
    BadUrl,
    EmptySession,
    NoEligibleValidator,
    NoOpenSession,
    NotLost,
    UnknownSession,
)
from .model import (
    MessageKind,
    Session,
    SessionOrigin,
    Shout,
    Source,
    User,
    ValidationReview,
    iso8601,
    normalize_nick,
    parse_iso8601,
    users_from_nicks,
)

def render_text_line(created_iso: str, nick: str, message: str) -> str:
    return f"{created_iso}\t{nick}\t{message}"


def shout_listing_entry(shout: Shout) -> dict:
    """Listing shape for one shout; tags rendered in their surface form."""
    return {
        "id": shout.id,
        "nick": shout.nick,
        "message": shout.message,
        "created": iso8601(shout.created),
        "kind": shout.kind.value,
        "tags": [t.surface for t in shout.tags],
        "source": shout.source.value,
    }


class Store:
    """Journal-backed state with serialized mutations."""

    def __init__(self, journal_path: str, *,
                 clock: Callable[[], float] = time.time,
                 slot: int = eng.DEFAULT_SLOT,
                 tolerance: int = eng.DEFAULT_TOLERANCE,
                 parser_config: parsing.ParserConfig = parsing.DEFAULT_CONFIG):
        # not re-entrant: each public method takes it once
        self._lock = threading.Lock()
        self._clock = clock
        self.slot = slot
        self.tolerance = tolerance
        self.parser_config = parser_config
        self.journal = jn.Journal(journal_path)
        self.state = self.journal.state
        # shout id -> (shout, its encoded listing entry); filled by listings
        self._listing: dict[str, tuple[Shout, str]] = {}

    # -- time ------------------------------------------------------------

    def _now(self) -> int:
        return int(self._clock())

    def _arrival(self) -> int:
        # arrival times never go backwards within one process
        return max(self._now(), self.state.last_created)

    # -- ingest ----------------------------------------------------------

    def receive_shout(self, nick: str, message: str, *,
                      source: Source = Source.HTTP,
                      client_created: int | None = None) -> Shout:
        """Stamp, parse, journal, and store one message as a shout record."""
        with self._lock:
            session_ref = self.state.open_sessions.get(normalize_nick(nick))
            shout = parsing.build_shout(
                uuid.uuid4().hex, nick, message, self._arrival(), self.parser_config,
                source=source, session_ref=session_ref, client_created=client_created)
            self.journal.append_many([(jn.SHOUT, jn.shout_to_dict(shout))], self._now())
            return shout

    # -- sessions ----------------------------------------------------------

    def _session(self, session_id: str) -> Session:
        session = self.state.sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no session {session_id}")
        return session

    def _member_shouts(self, session_id: str) -> list[Shout]:
        ids = self.state.members.get(session_id, ())
        return [self.state.shouts_by_id[i] for i in ids]

    def _close_session(self, handle: str,
                       now: int) -> tuple[Session, dict, str | None, list[Shout]]:
        session_id = self.state.open_sessions.get(handle)
        if session_id is None:
            raise NoOpenSession(f"{handle} has no open session")
        session = replace(self.state.sessions[session_id], end=now)
        members = self._member_shouts(session_id)
        try:
            report = eng.conformance(session, members, tolerance=self.tolerance)
        except EmptySession:
            report = eng.EMPTY_REPORT
        markers = []
        for index in report.lost_slots:
            try:
                markers.append(eng.emit_lost_timeslot(session, members, index,
                                                      tolerance=self.tolerance))
            except NotLost:
                pass  # already marked while the session was open
        validator = None
        try:
            users = users_from_nicks(self.state.by_nick).values()
            validator = eng.assign_validator(session, users,
                                             seed=self.state.last_seq + 1).id
        except NoEligibleValidator:
            pass
        session = replace(session, shouts=tuple(s.id for s in members + markers))
        return session, report.to_dict(), validator, markers

    def receive_message(self, nick: str, message: str,
                        batch: Sequence[dict] | None = None) -> dict:
        """Dispatch one message: start, stop, push, query, or plain shout."""
        with self._lock:
            handle = normalize_nick(nick)
            kind = parsing.classify_kind(message)  # raises EmptyMessage
            now = self._arrival()
            written = self._now()

            # the message itself is journaled as a shout, with the records it brings
            session_ref = self.state.open_sessions.get(handle)
            before: list[tuple[str, dict]] = []
            after: list[tuple[str, dict]] = []
            if kind is MessageKind.START:
                # a start inside an open session re-anchors that session
                event = "reanchored" if session_ref else "opened"
                session = Session(id=session_ref or uuid.uuid4().hex, user=handle,
                                  origin=SessionOrigin.EXPLICIT, start=now, end=now,
                                  slot_duration=self.slot)
                session_ref = session.id
                after = [(jn.SESSION, jn.session_to_dict(session, jn.EVENT_OPEN))]
                result = {"result": "start", "session": session.id, "event": event}
            elif kind is MessageKind.STOP:
                session, report, validator, markers = self._close_session(handle, now)
                session_ref = session.id
                after = [(jn.SHOUT, jn.shout_to_dict(m)) for m in markers]
                after.append((jn.SESSION, jn.session_to_dict(
                    session, jn.EVENT_CLOSE, report=report, validator=validator)))
                result = {"result": "stop", "session": session.id,
                          "report": report, "validator": validator}
            elif kind is MessageKind.PUSH:
                flushed = [parsing.build_shout(
                    uuid.uuid4().hex, handle, item["message"], now, self.parser_config,
                    session_ref=session_ref, client_created=item.get("client_created"))
                    for item in batch or ()]
                before = [(jn.SHOUT, jn.shout_to_dict(s)) for s in flushed]
                result = {"result": "push", "accepted": len(flushed),
                          "ids": [s.id for s in flushed]}
            control = parsing.build_shout(uuid.uuid4().hex, handle, message, now,
                                          self.parser_config, session_ref=session_ref)
            if kind is MessageKind.SHOUT:
                result = {"result": "shout", "id": control.id}
            elif kind is MessageKind.QUERY:
                result = {"result": "query", "topic": control.topic, "items": [],
                          "code": "no_backend"}
            self.journal.append_many(
                before + [(jn.SHOUT, jn.shout_to_dict(control))] + after, written)
            return result

    def emit_lost(self, session_id: str, slot_index: int) -> Shout:
        """Mark one past slot of a session as lost; duplicates are rejected."""
        with self._lock:
            session = self._session(session_id)
            if self.state.open_sessions.get(session.user) == session_id:
                session = replace(session, end=max(session.start, self._arrival()))
            marker = eng.emit_lost_timeslot(session, self._member_shouts(session_id),
                                            slot_index, tolerance=self.tolerance)
            self.journal.append_many([(jn.SHOUT, jn.shout_to_dict(marker))], self._now())
            return marker

    def attach_screencast(self, session_id: str, url: str) -> Session:
        """Record (or replace) a session's screencast reference."""
        with self._lock:
            session = self._session(session_id)
            parts = urlsplit(url)
            if parts.scheme not in ("http", "https") or not parts.netloc:
                raise BadUrl(f"not an http(s) url: {url!r}")
            updated = replace(session, screencast=url,
                              shouts=tuple(self.state.members.get(session_id, ())))
            data = jn.session_to_dict(updated, jn.EVENT_SCREENCAST)
            self.journal.append_many([(jn.SESSION, data)], self._now())
            return updated

    def record_review(self, session_id: str, reviewer: str, score: float,
                      comment: str | None = None) -> ValidationReview:
        """Attach a peer review; a second review replaces the first."""
        with self._lock:
            session = self._session(session_id)
            review = eng.make_review(session, normalize_nick(reviewer), score,
                                     comment, created=self._arrival())
            self.journal.append_many([(jn.REVIEW, jn.review_to_dict(review))],
                                     self._now())
            return review

    # -- queries -----------------------------------------------------------

    def users(self) -> dict[str, User]:
        with self._lock:
            return users_from_nicks(self.state.by_nick)

    def list_shouts(self, nick: str | None = None, since: str | None = None,
                    until: str | None = None) -> list[Shout]:
        """Shouts ordered by creation time (arrival order breaks ties).

        ``since`` and ``until`` are inclusive ISO 8601 bounds on ``created``.
        """
        try:
            lo = parse_iso8601(since) if since else None
            hi = parse_iso8601(until) if until else None
        except ValueError as exc:
            raise BadFilter(f"bad time range: {exc}") from exc
        handle = normalize_nick(nick) if nick else None
        with self._lock:
            index = self.state.by_nick.get(handle) if handle else self.state.by_created
            ordered = index.ordered() if index else []
            start = 0 if lo is None else bisect_left(ordered, lo, key=jn.created_of)
            end = (len(ordered) if hi is None
                   else bisect_right(ordered, hi, key=jn.created_of))
            return ordered[start:end]

    def shouts_text(self, **filters) -> str:
        lines = [render_text_line(iso8601(s.created), s.nick, s.message)
                 for s in self.list_shouts(**filters)]
        return "\n".join(lines) + ("\n" if lines else "")

    def shouts_json(self, **filters) -> str:
        """The listing as a JSON array, joined from per-shout encodings.

        Shouts never change once stored, so each entry is encoded on its first
        listing and kept. An entry is re-encoded when the cached shout is not
        the one listed (a journal holding a duplicate id). The fill runs
        outside the lock; racing threads store equal strings.
        """
        parts = []
        for shout in self.list_shouts(**filters):
            cached = self._listing.get(shout.id)
            if cached is None or cached[0] is not shout:
                entry = json.dumps(shout_listing_entry(shout), sort_keys=True)
                cached = self._listing[shout.id] = (shout, entry)
            parts.append(cached[1])
        # json.dumps separates list items with ", "
        return "[" + ", ".join(parts) + "]"

    def session_view(self, session_id: str) -> dict:
        session = self._session(session_id)
        return {
            "id": session.id,
            "user": session.user,
            "origin": session.origin.value,
            "start": iso8601(session.start),
            "end": iso8601(session.end),
            "slot": session.slot_duration,
            "shouts": list(self.state.members.get(session_id, ())),
            "screencast": session.screencast,
            "open": self.state.open_sessions.get(session.user) == session_id,
            "report": self.state.reports.get(session_id),
            "validator": self.state.validators.get(session_id),
        }

    def report(self, n: int = 20) -> dict:
        """Latest n shouts and reviews, open sessions, per-user counts; n >= 1."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        with self._lock:
            ordered = self.state.by_created.ordered()
            latest = [shout_listing_entry(s) for s in reversed(ordered[-n:])]
            open_sessions = [self.session_view(sid)
                             for sid in sorted(self.state.open_sessions.values())]
            reviews = sorted(self.state.reviews.values(),
                             key=lambda r: r.created, reverse=True)[:n]
            counts = {nick: len(index)
                      for nick, index in sorted(self.state.by_nick.items())}
        return {
            "latest": latest,
            "open_sessions": open_sessions,
            "latest_reviews": [jn.review_to_dict(r) for r in reviews],
            "counts_by_user": counts,
        }

    def close(self) -> None:
        self.journal.close()
