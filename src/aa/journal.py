"""Append-only JSON-lines journal: one record per line, replayable.

Records are never mutated in place; corrections append superseding records.
Sequence numbers strictly increase with no gaps within one file.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Iterator

from .errors import JournalError
from .model import (
    DEFAULT_SLOT,
    DeviationKind,
    MessageKind,
    Session,
    SessionOrigin,
    Shout,
    Source,
    Tag,
    TagForm,
    TagScope,
    ValidationReview,
)

SHOUT = "shout"
SESSION = "session"
REVIEW = "review"

EVENT_OPEN = "open"
EVENT_CLOSE = "close"
EVENT_SCREENCAST = "screencast"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JournalRecord:
    seq: int
    written: int
    type: str
    data: dict


def shout_to_dict(shout: Shout) -> dict:
    return {
        "id": shout.id,
        "nick": shout.nick,
        "message": shout.message,
        "created": shout.created,
        "source": shout.source.value,
        "kind": shout.kind.value,
        "tags": [{"form": t.form.value, "name": t.name, "scope": t.scope.value}
                 for t in shout.tags],
        "session": shout.session_ref,
        "deviation": shout.deviation.value if shout.deviation else None,
        "client_created": shout.client_created,
        "topic": shout.topic,
    }


class _Members(dict):
    """Value -> member of one enum; an unknown value is a ValueError."""

    def __init__(self, enum_type: type[Enum], field_name: str):
        super().__init__({m.value: m for m in enum_type})
        self.field_name = field_name

    def __missing__(self, value):
        raise ValueError(f"unknown {self.field_name} {value!r}")


_SOURCES = _Members(Source, "source")
_KINDS = _Members(MessageKind, "kind")
_DEVIATIONS = _Members(DeviationKind, "deviation")
_TAG_FORMS = _Members(TagForm, "tag form")
_TAG_SCOPES = _Members(TagScope, "tag scope")


# bounded, so a server that runs for months does not keep every tag it decodes
@lru_cache(maxsize=4096)
def _tag(form: str, name: str, scope: str) -> Tag:
    return Tag(_TAG_FORMS[form], name, _TAG_SCOPES[scope])


def shout_from_dict(data: dict) -> Shout:
    tags = data.get("tags", [])
    if type(tags) is not list:
        raise ValueError(f"tags is not a list: {tags!r}")
    deviation = data.get("deviation")
    return Shout(
        id=data["id"],
        nick=data["nick"],
        message=data["message"],
        created=data["created"],
        source=_SOURCES[data.get("source", "http")],
        kind=_KINDS[data.get("kind", "shout")],
        tags=tuple(_tag(t["form"], t["name"], t["scope"]) for t in tags),
        session_ref=data.get("session"),
        deviation=_DEVIATIONS[deviation] if deviation else None,
        client_created=data.get("client_created"),
        topic=data.get("topic"),
    )


def session_to_dict(session: Session, event: str, *,
                    report: dict | None = None, validator: str | None = None) -> dict:
    return {
        "event": event,
        "id": session.id,
        "user": session.user,
        "origin": session.origin.value,
        "start": session.start,
        "end": session.end,
        "slot": session.slot_duration,
        "shouts": list(session.shouts),
        "screencast": session.screencast,
        "report": report,
        "validator": validator,
    }


def session_from_dict(data: dict) -> Session:
    return Session(
        id=data["id"],
        user=data["user"],
        origin=SessionOrigin(data.get("origin", "explicit")),
        start=data["start"],
        end=data["end"],
        slot_duration=data.get("slot", DEFAULT_SLOT),
        shouts=tuple(data.get("shouts", ())),
        screencast=data.get("screencast"),
    )


def review_to_dict(review: ValidationReview) -> dict:
    return {
        "session": review.session,
        "reviewer": review.reviewer,
        "score": review.score,
        "comment": review.comment,
        "created": review.created,
    }


def review_from_dict(data: dict) -> ValidationReview:
    return ValidationReview(
        session=data["session"],
        reviewer=data["reviewer"],
        score=data["score"],
        comment=data.get("comment"),
        created=data["created"],
    )


class Journal:
    """The one writer of a journal file, and the state its records make.

    Opening a journal takes an exclusive advisory lock on the file, held
    until ``close``; a second writer is refused with JournalError. Under the
    lock it repairs a torn final line and replays the file into ``state``,
    so no other writer can append in between.
    """

    def __init__(self, path: str):
        self.path = path
        self._refusal = ""
        try:
            fh = open(path, "a+b", buffering=0)  # one os.write per append
        except OSError as exc:
            raise JournalError(f"cannot open journal {path}: {exc}") from exc
        try:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                _end_last_line(fh.fileno(), path)
                self.state = replay(path)
            except BlockingIOError as exc:
                raise JournalError(f"journal {path} is locked by another writer") from exc
            except OSError as exc:
                raise JournalError(f"cannot open journal {path}: {exc}") from exc
        except BaseException:
            fh.close()
            raise
        self._fh = fh

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def append_many(self, items: list[tuple[str, dict]],
                    written: int) -> list[JournalRecord]:
        """Append records in one write and fsync, then apply them to ``state``.

        A failed write or fsync is cut back off the file, leaving the file and
        ``state`` as they were, and raises JournalError. A failed fsync is not
        retried, as the kernel may have dropped the pages it could not write:
        after one, or after a failed cut, every append is refused until the
        journal is reopened, which replays what the file really holds.
        """
        if self._refusal:
            raise JournalError(self._refusal)
        first = self.state.last_seq + 1
        records = [JournalRecord(seq=first + i, written=written, type=rtype, data=data)
                   for i, (rtype, data) in enumerate(items)]
        payload = "".join(
            json.dumps({"seq": r.seq, "written": r.written, "type": r.type,
                        "data": r.data}, sort_keys=True) + "\n"
            for r in records
        ).encode()
        fd = self._fh.fileno()
        size = os.fstat(fd).st_size
        step = "write"
        try:
            if os.write(fd, payload) != len(payload):
                raise OSError("short write")
            step = "fsync"
            os.fsync(fd)
        except OSError as exc:
            refuse = step == "fsync"
            try:
                os.ftruncate(fd, size)
            except OSError:
                refuse = True
            if refuse:
                self._refusal = (f"journal {self.path} refuses writes after a failed "
                                 f"{step} ({exc}); reopen it")
            raise JournalError(f"journal {step} failed: {exc}") from exc
        for record in records:
            self.state.apply(record)
        return records

    def close(self) -> None:
        self._fh.close()


def _end_last_line(fd: int, path: str) -> None:
    """Make an unterminated final line agree with read_records.

    A crash mid-write leaves the last line without its newline. If that line
    is not JSON, read_records drops it as torn, so it is cut off; otherwise
    it reads as a whole record and only gains its newline. Either way the
    next append starts a line of its own. A cut is logged with its size.
    """
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return
    data = os.pread(fd, size, 0)
    line = data[data.rfind(b"\n") + 1:]
    try:
        json.loads(line)
    except ValueError:
        os.ftruncate(fd, size - len(line))
        log.warning("%s: cut a torn final line of %d bytes", path, len(line))
    else:
        os.write(fd, b"\n")


def read_records(path: str) -> Iterator[JournalRecord]:
    """Yield journal records in order; a torn final line is tolerated.

    Raises JournalError unless the seqs run 1, 2, 3, ... without a gap.
    """
    if not os.path.exists(path):
        return
    expected = 1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                record = JournalRecord(seq=raw["seq"], written=raw["written"],
                                       type=raw["type"], data=raw["data"])
            except json.JSONDecodeError as exc:
                # only the last line can lack its newline: a torn tail
                if not line.endswith("\n"):
                    return
                raise JournalError(f"{path}:{lineno}: malformed record") from exc
            except (KeyError, TypeError) as exc:
                raise JournalError(f"{path}:{lineno}: incomplete record") from exc
            if record.seq != expected:
                raise JournalError(f"{path}:{lineno}: seq {record.seq}, "
                                   f"expected {expected}")
            expected += 1
            yield record


created_of = attrgetter("created")


class CreatedIndex:
    """Shouts ordered by creation time; arrival order breaks ties.

    Adding a shout appends it. A shout older than the last entry (a lost-slot
    marker, a mined import) leaves the list unsorted until the next read,
    which sorts it once; the sort is stable, so arrival order is kept.
    """

    __slots__ = ("_shouts", "_sorted")

    def __init__(self):
        self._shouts: list[Shout] = []
        self._sorted = True

    def __len__(self) -> int:
        return len(self._shouts)

    def add(self, shout: Shout) -> None:
        if self._shouts and shout.created < self._shouts[-1].created:
            self._sorted = False
        self._shouts.append(shout)

    def ordered(self) -> list[Shout]:
        """The shouts in created order; the caller must not modify the list."""
        if not self._sorted:
            self._shouts.sort(key=created_of)
            self._sorted = True
        return self._shouts


@dataclass
class ReplayState:
    """State rebuilt from a journal file, in record order.

    ``shouts`` keeps arrival order. ``by_created`` and ``by_nick`` hold the
    same shouts in created order, all of them and per nick; being derived
    from ``shouts``, they take no part in comparing two states.
    """

    shouts: list[Shout] = field(default_factory=list)
    by_created: CreatedIndex = field(default_factory=CreatedIndex,
                                     compare=False, repr=False)
    by_nick: dict[str, CreatedIndex] = field(default_factory=dict,
                                             compare=False, repr=False)
    shouts_by_id: dict[str, Shout] = field(default_factory=dict)
    sessions: dict[str, Session] = field(default_factory=dict)
    open_sessions: dict[str, str] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)
    validators: dict[str, str] = field(default_factory=dict)
    reviews: dict[str, ValidationReview] = field(default_factory=dict)
    members: dict[str, list[str]] = field(default_factory=dict)
    last_seq: int = 0
    last_created: int = 0

    def apply(self, record: JournalRecord) -> None:
        self.last_seq = record.seq
        if record.type == SHOUT:
            shout = shout_from_dict(record.data)
            self.shouts.append(shout)
            self.by_created.add(shout)
            index = self.by_nick.get(shout.nick)
            if index is None:
                index = self.by_nick[shout.nick] = CreatedIndex()
            index.add(shout)
            self.shouts_by_id[shout.id] = shout
            self.last_created = max(self.last_created, shout.created)
            if shout.session_ref and shout.kind in (MessageKind.SHOUT,
                                                    MessageKind.LOST_TIMESLOT):
                self.members.setdefault(shout.session_ref, []).append(shout.id)
        elif record.type == SESSION:
            session = session_from_dict(record.data)
            event = record.data.get("event", EVENT_CLOSE)
            if event == EVENT_OPEN:
                # a (re)opened session starts with a clean member list
                self.members[session.id] = []
                self.open_sessions[session.user] = session.id
            elif event == EVENT_CLOSE:
                if self.open_sessions.get(session.user) == session.id:
                    del self.open_sessions[session.user]
                if record.data.get("report") is not None:
                    self.reports[session.id] = record.data["report"]
                if record.data.get("validator"):
                    self.validators[session.id] = record.data["validator"]
            self.sessions[session.id] = session
        elif record.type == REVIEW:
            review = review_from_dict(record.data)
            self.reviews[review.session] = review
        else:
            raise JournalError(f"unknown record type {record.type!r}")


def replay(path: str) -> ReplayState:
    """Rebuild state by applying every record of a journal in order.

    A record whose data cannot be decoded (a missing key, an unknown enum
    value, a field of the wrong shape) raises JournalError naming its seq.
    """
    state = ReplayState()
    for record in read_records(path):
        try:
            state.apply(record)
        except KeyError as exc:
            raise JournalError(f"{path}: seq {record.seq}: bad {record.type} "
                               f"record: missing key {exc}") from exc
        except (AttributeError, JournalError, TypeError, ValueError) as exc:
            raise JournalError(f"{path}: seq {record.seq}: bad {record.type} "
                               f"record: {exc}") from exc
    return state
