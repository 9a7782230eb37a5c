"""Slot grid math, session assembly, lost timeslots, and peer validation."""

from __future__ import annotations

import random
import uuid
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BeforeAnchor,
    EmptySession,
    NoEligibleValidator,
    NotLost,
    ScoreOutOfRange,
    SelfReview,
)
from .model import (
    DEFAULT_SLOT,
    DEFAULT_TOLERANCE,
    MessageKind,
    Session,
    Shout,
    Source,
    User,
    ValidationReview,
)

IDEAL_SHOUT_COUNT = 8
IDEAL_MAX_SPAN = 7200

LOST_TIMESLOT_TEXT = "lost timeslot"


@dataclass(frozen=True)
class SlotGrid:
    """A session's timing grid: anchor, slot length, and tolerance.

    Tolerance below half a slot keeps slot assignment unambiguous.
    """

    anchor: int
    slot: int = DEFAULT_SLOT
    tolerance: int = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.slot <= 0 or not 0 <= self.tolerance < self.slot / 2:
            raise ValueError("need slot > 0 and 0 <= tolerance < slot/2")


@dataclass(frozen=True)
class SlotReading:
    shout_id: str
    index: int
    offset: int
    within_tolerance: bool


@dataclass(frozen=True)
class ConformanceReport:
    """How a session's shouts sit on its slot grid."""

    per_shout: tuple[SlotReading, ...]
    lost_slots: tuple[int, ...]
    ideal: bool

    def to_dict(self) -> dict:
        return {
            "per_shout": [
                [r.shout_id, r.index, r.offset, r.within_tolerance]
                for r in self.per_shout
            ],
            "lost_slots": list(self.lost_slots),
            "ideal": self.ideal,
        }


EMPTY_REPORT = ConformanceReport(per_shout=(), lost_slots=(), ideal=False)


def assign_slot(grid: SlotGrid, t: int) -> tuple[int, int, bool]:
    """Nearest grid slot for a timestamp: (index, signed offset, in tolerance)."""
    delta = t - grid.anchor
    if delta < -grid.tolerance:
        raise BeforeAnchor(f"timestamp {t} precedes grid anchor {grid.anchor}")
    index = (2 * delta + grid.slot) // (2 * grid.slot)
    offset = delta - index * grid.slot
    return index, offset, abs(offset) <= grid.tolerance


def conformance(session: Session, shouts: Sequence[Shout],
                tolerance: int = DEFAULT_TOLERANCE) -> ConformanceReport:
    """Grade a session's member shouts against its slot grid.

    Machine-generated lost-timeslot markers are not graded; a slot they sit
    on stays lost, and their presence rules out an ideal session.
    """
    content = [s for s in shouts if s.kind is not MessageKind.LOST_TIMESLOT]
    if not content:
        raise EmptySession(f"session {session.id} has no shouts to grade")
    grid = SlotGrid(session.start, session.slot_duration, tolerance)
    readings = []
    assigned = set()
    for shout in content:
        index, offset, within = assign_slot(grid, shout.created)
        readings.append(SlotReading(shout.id, index, offset, within))
        assigned.add(index)
    last_whole_slot = (session.end - session.start) // session.slot_duration
    lost = tuple(i for i in range(last_whole_slot + 1) if i not in assigned)
    has_markers = len(content) != len(shouts)
    ideal = (
        not lost
        and not has_markers
        and all(r.within_tolerance for r in readings)
        and len(content) == IDEAL_SHOUT_COUNT
        and session.end - session.start <= IDEAL_MAX_SPAN
    )
    return ConformanceReport(tuple(readings), lost, ideal)


def emit_lost_timeslot(session: Session, shouts: Sequence[Shout], slot_index: int,
                       tolerance: int = DEFAULT_TOLERANCE,
                       shout_id: str | None = None) -> Shout:
    """Machine-generated marker for a slot that received no shout.

    Rejected when the slot has an assigned shout, and rejected as a
    duplicate when a marker for the same slot already exists.
    """
    for existing in shouts:
        if existing.kind is MessageKind.LOST_TIMESLOT:
            marker_index = (existing.created - session.start) // session.slot_duration
            if marker_index == slot_index:
                raise NotLost(f"slot {slot_index} already marked lost")
    report = conformance(session, shouts, tolerance=tolerance)
    if slot_index not in report.lost_slots:
        raise NotLost(f"slot {slot_index} of session {session.id} is not lost")
    return Shout(
        id=shout_id or uuid.uuid4().hex,
        nick=session.user,
        message=LOST_TIMESLOT_TEXT,
        created=session.start + slot_index * session.slot_duration,
        source=Source.HTTP,
        kind=MessageKind.LOST_TIMESLOT,
        session_ref=session.id,
    )


def assign_validator(session: Session, users: Iterable[User], seed: int) -> User:
    """Seeded uniform pick of a reviewer among everyone but the owner."""
    eligible = sorted(
        (u for u in users if u.id != session.user and session.user not in u.nicks),
        key=lambda u: u.id,
    )
    if not eligible:
        raise NoEligibleValidator(f"no peer available for session {session.id}")
    return random.Random(seed).choice(eligible)


def make_review(session: Session, reviewer: str, score: float,
                comment: str | None, created: int) -> ValidationReview:
    """Validated peer review; owners cannot review their own sessions."""
    if reviewer == session.user:
        raise SelfReview(f"{reviewer} owns session {session.id}")
    if not 0 <= score <= 1:
        raise ScoreOutOfRange(f"score {score} outside [0, 1]")
    return ValidationReview(session=session.id, reviewer=reviewer, score=score,
                            comment=comment, created=created)
