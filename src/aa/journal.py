"""Append-only JSON-lines journal: one record per line, replayable.

Records are never mutated in place; corrections append superseding records.
Sequence numbers strictly increase with no gaps within one file.

Beside a journal, ``<journal>.ckpt`` may hold a checkpoint: the state its
first records make, which replay loads instead of replaying them. It is a
cache that may always be deleted; the journal stays the only source of truth.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import logging
import os
import pickle
import stat
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, NamedTuple

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
    check_timestamp,
)

EVENT_OPEN = "open"
EVENT_CLOSE = "close"
EVENT_SCREENCAST = "screencast"

CHECKPOINT_SUFFIX = ".ckpt"
CHECKPOINT_FORMAT = 2
# a close writes a checkpoint once this many records follow the one its
# journal was loaded from; fewer replay in well under a millisecond
CHECKPOINT_AFTER = 4

log = logging.getLogger(__name__)


class JournalRecord(NamedTuple):
    seq: int
    written: int
    type: str
    data: dict


def check_shout(shout: Shout) -> Shout:
    """``shout`` itself if its id, nick and message are text and its
    timestamps ints in UTC years 1-9999; ValueError otherwise.

    The one rule of both sides: the journal writes no shout that replay
    would refuse, and replay installs no shout that a writer would refuse.
    """
    if not type(shout.id) is type(shout.nick) is type(shout.message) is str:
        raise ValueError(f"id, nick and message must be text: {shout.id!r:.30}, "
                         f"{shout.nick!r:.30}, {shout.message!r:.30}")
    _check_field("created", shout.created)
    if shout.client_created is not None:
        _check_field("client_created", shout.client_created)
    return shout


def _check_field(name: str, ts) -> int:
    if type(ts) is not int:  # exact: a bool is no int
        raise ValueError(f"{name} is not an int: {ts!r:.60}")
    try:
        return check_timestamp(ts)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def shout_to_dict(shout: Shout) -> dict:
    check_shout(shout)
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


class _Table(dict):
    """A lookup table whose missing key is a ValueError naming what was sought."""

    def __init__(self, entries: dict, what: str):
        super().__init__(entries)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"unknown {self.what} {key!r}")


_SOURCES = _Table({m.value: m for m in Source}, "source")
_KINDS = _Table({m.value: m for m in MessageKind}, "kind")
_DEVIATIONS = _Table({m.value: m for m in DeviationKind}, "deviation")
_TAG_FORMS = _Table({m.value: m for m in TagForm}, "tag form")
_TAG_SCOPES = _Table({m.value: m for m in TagScope}, "tag scope")
_ORIGINS = _Table({m.value: m for m in SessionOrigin}, "origin")


# bounded, so a server that runs for months does not keep every tag it decodes
@lru_cache(maxsize=4096)
def _tag(form: str, name: str, scope: str) -> Tag:
    return Tag(_TAG_FORMS[form], name, _TAG_SCOPES[scope])


def shout_from_dict(data: dict) -> Shout:
    tags = data.get("tags", [])
    if type(tags) is not list:
        raise ValueError(f"tags is not a list: {tags!r}")
    deviation = data.get("deviation")
    # positional, in field order, as keywords cost a third more per shout
    return check_shout(Shout(
        data["id"], data["nick"], data["message"], data["created"],
        _SOURCES[data.get("source", "http")], _KINDS[data.get("kind", "shout")],
        tuple(_tag(t["form"], t["name"], t["scope"]) for t in tags),
        data.get("session"), _DEVIATIONS[deviation] if deviation else None,
        data.get("client_created"), data.get("topic")))


class SessionEvent(NamedTuple):
    """A session record: the event, the session after it, and, for a close,
    the conformance report and the validator."""

    event: str
    session: Session
    report: dict | None = None
    validator: str | None = None


def session_to_dict(item: SessionEvent) -> dict:
    session = item.session
    return {
        "event": item.event,
        "id": session.id,
        "user": session.user,
        "origin": session.origin.value,
        "start": _check_field("start", session.start),
        "end": _check_field("end", session.end),
        "slot": session.slot_duration,
        "shouts": list(session.shouts),
        "screencast": session.screencast,
        "report": item.report,
        "validator": item.validator,
    }


def session_from_dict(data: dict) -> SessionEvent:
    # positional, in field order, like shout_from_dict
    session = Session(data["id"], data["user"], _ORIGINS[data.get("origin", "explicit")],
                      _check_field("start", data["start"]), _check_field("end", data["end"]),
                      data.get("slot", DEFAULT_SLOT),
                      tuple(data.get("shouts", ())), data.get("screencast"))
    return SessionEvent(data.get("event", EVENT_CLOSE), session, data.get("report"),
                        data.get("validator"))


def review_to_dict(review: ValidationReview) -> dict:
    return {
        "session": review.session,
        "reviewer": review.reviewer,
        "score": review.score,
        "comment": review.comment,
        "created": _check_field("created", review.created),
    }


def review_from_dict(data: dict) -> ValidationReview:
    return ValidationReview(data["session"], data["reviewer"], data["score"],
                            data.get("comment"), _check_field("created", data["created"]))


Item = Shout | SessionEvent | ValidationReview

# model type -> (record type, encoder), and record type -> decoder: with the
# codecs above, the only code that knows a record's shape
_ENCODERS = _Table({Shout: ("shout", shout_to_dict),
                    SessionEvent: ("session", session_to_dict),
                    ValidationReview: ("review", review_to_dict)}, "journal item type")
DECODERS = _Table({"shout": shout_from_dict, "session": session_from_dict,
                   "review": review_from_dict}, "record type")


def encode(item: Item) -> tuple[str, dict]:
    """A model object's record type and data; ValueError for another type."""
    rtype, to_dict = _ENCODERS[type(item)]
    return rtype, to_dict(item)


class Journal:
    """The one writer of a journal file, and the state its records make.

    Opening a journal takes an exclusive advisory lock on the file, held
    until ``close``; a second writer is refused with JournalError. Under the
    lock it repairs a torn final line and replays the file into ``state``,
    so no other writer can append in between. Being the one writer, it is
    also the one writer of the journal's checkpoint (see ``close``).
    """

    def __init__(self, path: str):
        self.path = path
        self._refusal = ""
        created = not os.path.exists(path)
        try:
            fh = open(path, "a+b", buffering=0)  # one os.write per append
        except OSError as exc:
            raise JournalError(f"cannot open journal {path}: {exc}") from exc
        try:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if created:  # a new file's name is durable once its directory is
                    sync_directory(path)
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

    def append_many(self, items: list[Item], written: int) -> list[JournalRecord]:
        """Encode model objects, append them in one write and fsync, then
        install them in ``state``.

        An item that cannot be encoded raises before anything is written. A
        failed write or fsync is cut back off the file and raises JournalError.
        Either way the file and ``state`` stay as they were. A failed fsync is
        not retried, as the kernel may have dropped the pages it could not
        write: after one, or after a failed cut, every append is refused until
        the journal is reopened, which replays what the file really holds.
        Any other exception, such as an interrupt, that escapes once the write
        has begun refuses every later append the same way.
        """
        if self._refusal:
            raise JournalError(self._refusal)
        first = self.state.last_seq + 1
        records = [JournalRecord(first + i, written, *encode(item))
                   for i, item in enumerate(items)]
        payload = "".join(json.dumps(r._asdict(), sort_keys=True) + "\n"
                          for r in records).encode()
        fd = self._fh.fileno()
        size = os.fstat(fd).st_size
        # refused until installed: an interrupt from here on may leave records
        # in the file that ``state`` lacks, and a checkpoint would hide them
        self._refusal = (f"journal {self.path} refuses writes after an interrupted "
                         f"append; reopen it")
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
            self._refusal = (f"journal {self.path} refuses writes after a failed "
                             f"{step} ({exc}); reopen it") if refuse else ""
            raise JournalError(f"journal {step} failed: {exc}") from exc
        for record, item in zip(records, items):
            self.state.install(record.seq, item)
        self._refusal = ""
        return records

    def close(self) -> None:
        """Release the file and its lock, first writing a checkpoint of
        ``state`` if at least CHECKPOINT_AFTER records follow the checkpoint
        it was loaded from and no append was refused. A checkpoint that
        cannot be written is logged and left out."""
        if self._fh.closed:
            return
        try:
            state = self.state
            if (not self._refusal
                    and state.last_seq >= state.checkpoint_seq + CHECKPOINT_AFTER):
                try:
                    write_checkpoint(self.path, self._fh.fileno(), state)
                except OSError as exc:
                    log.warning("%s: checkpoint not written: %s", self.path, exc)
                except Exception:  # a cache: a state that will not pickle fails no close
                    log.warning("%s: checkpoint not written", self.path, exc_info=True)
        finally:
            self._fh.close()


def sync_directory(path) -> None:
    """fsync the directory holding ``path``, which makes a file created,
    renamed or removed there durable."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
    except (ValueError, RecursionError):
        os.ftruncate(fd, size - len(line))
        log.warning("%s: cut a torn final line of %d bytes", path, len(line))
    else:
        os.write(fd, b"\n")


def read_records(path: str, offset: int = 0, seq: int = 1,
                 lineno: int = 1) -> Iterator[JournalRecord]:
    """Yield journal records in order from byte ``offset``, the start of
    line ``lineno``, where seq ``seq`` is due; a torn final line is tolerated.

    Raises JournalError if the file cannot be opened, if a whole line is not
    UTF-8, or unless the seqs run ``seq``, ``seq + 1``, ... without a gap.
    Errors name the file's own line numbers.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise JournalError(f"{path}: {exc.strerror}") from exc
    expected = seq
    with fh:
        fh.seek(offset)
        for lineno, line in enumerate(fh, lineno):
            if not line.strip():
                continue
            try:
                raw = json.loads(line.decode())
                record = JournalRecord(raw["seq"], raw["written"], raw["type"],
                                       raw["data"])
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON,
                # or nested too deep to decode; only the last line can lack
                # its newline: a torn tail
                if not line.endswith(b"\n"):
                    return
                if isinstance(exc, UnicodeDecodeError):
                    raise JournalError(f"{path}:{lineno}: not UTF-8 "
                                       f"({exc.reason} at offset {exc.start})") from exc
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
    from ``shouts``, they take no part in comparing two states. ``members``
    holds each session's shouts and lost-slot markers, in arrival order.
    ``checkpoint_seq`` is the ``last_seq`` of the checkpoint the state was
    loaded from, 0 if none; it says how the state was built, not what it
    holds, so it takes no part in comparing either.
    """

    shouts: list[Shout] = field(default_factory=list)
    by_created: CreatedIndex = field(default_factory=CreatedIndex,
                                     compare=False, repr=False)
    by_nick: dict[str, CreatedIndex] = field(default_factory=dict,
                                             compare=False, repr=False)
    sessions: dict[str, Session] = field(default_factory=dict)
    open_sessions: dict[str, str] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)
    validators: dict[str, str] = field(default_factory=dict)
    reviews: dict[str, ValidationReview] = field(default_factory=dict)
    members: dict[str, list[Shout]] = field(default_factory=dict)
    last_seq: int = 0
    last_created: int = 0
    checkpoint_seq: int = field(default=0, compare=False)

    def apply(self, record: JournalRecord) -> None:
        """Decode a record and install it; a decode that raises changes nothing."""
        self.install(record.seq, DECODERS[record.type](record.data))

    def install(self, seq: int, item: Item) -> None:
        """Add the model object of record ``seq``; reads only its attributes."""
        self.last_seq = seq
        if type(item) is Shout:
            self.shouts.append(item)
            self.by_created.add(item)
            index = self.by_nick.get(item.nick)
            if index is None:
                index = self.by_nick[item.nick] = CreatedIndex()
            index.add(item)
            if item.created > self.last_created:
                self.last_created = item.created
            if item.session_ref and item.kind in (MessageKind.SHOUT,
                                                  MessageKind.LOST_TIMESLOT):
                self.members.setdefault(item.session_ref, []).append(item)
        elif type(item) is SessionEvent:
            session = item.session
            if item.event == EVENT_OPEN:
                # a (re)opened session starts with a clean member list
                self.members[session.id] = []
                self.open_sessions[session.user] = session.id
            elif item.event == EVENT_CLOSE:
                if self.open_sessions.get(session.user) == session.id:
                    del self.open_sessions[session.user]
                if item.report is not None:
                    self.reports[session.id] = item.report
                if item.validator:
                    self.validators[session.id] = item.validator
            self.sessions[session.id] = session
        else:
            self.reviews[item.session] = item


def replay(path: str) -> ReplayState:
    """Rebuild state by applying every record of a journal in order, or by
    loading its checkpoint and applying the records after it.

    A record whose data cannot be decoded (a missing key, an unknown enum
    value, a field of the wrong shape) raises JournalError naming its seq.
    A checkpoint never raises and never changes the result: one that does
    not match the journal is logged at INFO and replay starts from seq 1.
    """
    state, offset, lines = load_checkpoint(path)
    for record in read_records(path, offset, state.last_seq + 1, lines + 1):
        try:
            state.apply(record)
        except KeyError as exc:
            raise JournalError(f"{path}: seq {record.seq}: bad {record.type} "
                               f"record: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise JournalError(f"{path}: seq {record.seq}: bad {record.type} "
                               f"record: {exc}") from exc
    return state


# -- checkpoints ---------------------------------------------------------------
#
# A checkpoint is the sha256 of the rest of the file on one line, a JSON
# header on the next, and then the pickled ReplayState. The header names the
# format, the Python version and the model's field names it was written
# with, and the journal prefix it covers: its length in bytes and in lines,
# the last seq in it and its sha256.
# Loading a pickle can run code, so only a file of this user's that no one
# else may write is loaded, and only the state's own classes are allowed in.

_MODEL_CLASSES = (Shout, Tag, Session, ValidationReview)
_LOADABLE = {(cls.__module__, cls.__qualname__) for cls in (
    *_MODEL_CLASSES, ReplayState, CreatedIndex, Source, MessageKind, TagForm,
    TagScope, SessionOrigin, DeviationKind)}
# what a checkpoint must have been written with to be loaded
_VERSION = {
    "format": CHECKPOINT_FORMAT,
    "python": list(sys.version_info[:2]),
    "fingerprint": hashlib.sha256(json.dumps(
        [[cls.__qualname__, list(cls._fields)] for cls in _MODEL_CLASSES]
        + [["ReplayState", [f.name for f in fields(ReplayState)]],
           ["CreatedIndex", list(CreatedIndex.__slots__)]]).encode()).hexdigest(),
}


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        """Only the classes of a ReplayState: a checkpoint holds nothing else."""
        if (module, name) not in _LOADABLE:
            raise pickle.UnpicklingError(f"{module}.{name} is not part of a state")
        return super().find_class(module, name)


def _prefix(fd: int, size: int, count_lines: bool = True) -> tuple[str, int]:
    """The sha256 and, if ``count_lines``, the line count of the first
    ``size`` bytes of the journal open at ``fd``; ValueError if it holds fewer."""
    if os.fstat(fd).st_size < size:
        raise ValueError(f"it covers {size} bytes, more than the journal holds")
    digest, lines, done = hashlib.sha256(), 0, 0
    while done < size:
        chunk = os.pread(fd, min(1 << 20, size - done), done)
        if not chunk:  # cut meanwhile
            raise ValueError(f"the journal ends before byte {size}")
        digest.update(chunk)
        if count_lines:
            lines += chunk.count(b"\n")
        done += len(chunk)
    return digest.hexdigest(), lines


def write_checkpoint(path: str, fd: int, state: ReplayState) -> None:
    """Write ``state``, the replay of the whole journal ``path`` open at
    ``fd``, as that journal's checkpoint.

    The file is written with mode 0600 and fsynced under a temporary name,
    then renamed into place and its directory fsynced: a crash leaves the
    old checkpoint or the new one. Only the journal's writer calls this.
    """
    offset = os.fstat(fd).st_size
    journal_sha256, lines = _prefix(fd, offset)
    header = {**_VERSION, "offset": offset, "lines": lines, "last_seq": state.last_seq,
              "journal_sha256": journal_sha256}
    buffer = io.BytesIO()
    buffer.write(json.dumps(header).encode() + b"\n")
    pickle.dump(state, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    body = buffer.getbuffer()
    target = path + CHECKPOINT_SUFFIX
    temp = target + ".tmp"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(temp)  # left by a crash; O_EXCL below makes a fresh 0600 file
    out = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(out, "wb") as fh:
            fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    sync_directory(target)


def load_checkpoint(path: str) -> tuple[ReplayState, int, int]:
    """The state in the checkpoint of the journal ``path``, with the byte
    offset and the line count of the journal prefix it covers.

    Without a checkpoint, or with one that is not trusted or does not match
    the journal, this is an empty state at offset 0 and line 0; a refused
    checkpoint is logged at INFO with its reason.
    """
    target = path + CHECKPOINT_SUFFIX
    try:
        with open(target, "rb") as fh:
            return _checked(path, fh)
    except FileNotFoundError:
        pass  # no checkpoint; or no journal, which read_records reports
    except Exception as exc:  # a cache: whatever is wrong, the journal is replayed
        log.info("%s: checkpoint not used: %s: %s", target, type(exc).__name__, exc)
    return ReplayState(), 0, 0


def _checked(path: str, fh) -> tuple[ReplayState, int, int]:
    info = os.fstat(fh.fileno())
    if info.st_uid != os.getuid():
        raise ValueError(f"owned by uid {info.st_uid}, not {os.getuid()}")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise ValueError(f"mode {stat.S_IMODE(info.st_mode):o} lets others write it")
    # the header is checked against the journal before its digest, so a
    # checkpoint of another journal is refused without reading its state
    digest, head = fh.readline().rstrip(b"\n"), fh.readline()
    header = json.loads(head)
    if {key: header.get(key) for key in _VERSION} != _VERSION:
        raise ValueError("written by another version of the format, Python or model")
    offset, lines = header["offset"], header["lines"]
    with open(path, "rb") as journal:  # equal bytes hold equal lines
        if _prefix(journal.fileno(), offset, False)[0] != header["journal_sha256"]:
            raise ValueError(f"the journal's first {offset} bytes are not the ones "
                             f"it was written from")
    payload = fh.read()
    content = hashlib.sha256(head)
    content.update(payload)
    if content.hexdigest().encode() != digest:
        raise ValueError("its content does not match its sha256")
    state = _Unpickler(io.BytesIO(payload)).load()
    if type(state) is not ReplayState or state.last_seq != header["last_seq"]:
        raise ValueError("its state is not the one its header names")
    state.checkpoint_seq = state.last_seq
    return state, offset, lines
