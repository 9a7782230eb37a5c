import pytest
from hypothesis import given, strategies as st

from aa.errors import (
    BeforeAnchor,
    EmptySession,
    NoEligibleValidator,
    ScoreOutOfRange,
    SelfReview,
)
from aa.model import MessageKind, User
from aa.sessions import (
    SlotGrid,
    assign_slot,
    assign_validator,
    conformance,
    lost_markers,
    make_review,
)
from conftest import make_session, make_shout, on_grid_shouts

NOON = 12 * 3600


class TestAssignSlot:
    GRID = SlotGrid(anchor=NOON)

    def test_near_grid_mark(self):
        assert assign_slot(self.GRID, NOON + 14 * 60) == (1, -60, True)

    def test_anchor_point(self):
        assert assign_slot(self.GRID, NOON) == (0, 0, True)

    def test_outside_tolerance(self):
        assert assign_slot(self.GRID, NOON + 21 * 60) == (1, 360, False)

    def test_before_anchor(self):
        with pytest.raises(BeforeAnchor):
            assign_slot(self.GRID, NOON - 301)

    def test_just_inside_leading_tolerance(self):
        assert assign_slot(self.GRID, NOON - 300) == (0, -300, True)

    def test_grid_invariants_enforced(self):
        with pytest.raises(ValueError):
            SlotGrid(anchor=0, slot=0)
        with pytest.raises(ValueError):
            SlotGrid(anchor=0, slot=900, tolerance=450)

    @given(st.integers(min_value=-300, max_value=10 * 900))
    def test_unambiguous_assignment(self, t):
        index, offset, _ = assign_slot(self.GRID, NOON + t)
        # exactly one slot index: the offset never reaches half a slot
        assert index >= 0
        assert -450 <= offset < 450
        assert index * 900 + offset == t


class TestConformance:
    def test_ideal_session(self):
        report = conformance(make_session(), on_grid_shouts())
        assert report.ideal is True
        assert report.lost_slots == ()
        assert [r.index for r in report.per_shout] == list(range(8))

    def test_single_shout_not_ideal(self):
        session = make_session(end=0)
        report = conformance(session, [make_shout("s0", created=0)])
        assert len(report.per_shout) == 1
        assert report.ideal is False

    def test_lost_slot_enumeration(self):
        shouts = [s for s in on_grid_shouts() if s.id != "s3"]
        # oracle: grid indices 0..7 minus the assigned ones
        assigned = {s.created // 900 for s in shouts}
        expected = tuple(i for i in range(8) if i not in assigned)
        report = conformance(make_session(), shouts)
        assert report.lost_slots == expected == (3,)
        assert report.ideal is False

    def test_span_longer_than_two_hours_not_ideal(self):
        session = make_session(end=7300)
        report = conformance(session, on_grid_shouts())
        assert report.ideal is False

    def test_empty_session_rejected(self):
        with pytest.raises(EmptySession):
            conformance(make_session(), [])

    def test_marker_presence_breaks_ideality(self):
        shouts = on_grid_shouts()[:7] + [
            make_shout("m", message="lost timeslot", created=7 * 900,
                       kind=MessageKind.LOST_TIMESLOT)
        ]
        report = conformance(make_session(), shouts)
        assert report.ideal is False

    def test_perturbing_one_shout_breaks_ideality(self):
        for k in range(8):
            shouts = on_grid_shouts()
            moved = make_shout(f"s{k}", message=f"task step {k}",
                               created=k * 900 + 360)
            shouts[k] = moved
            session = make_session(end=max(s.created for s in shouts))
            report = conformance(session, shouts)
            flags = {r.shout_id: r.within_tolerance for r in report.per_shout}
            assert flags[f"s{k}"] is False
            assert all(v for sid, v in flags.items() if sid != f"s{k}")
            assert report.ideal is False


class TestLostMarkers:
    def test_marker_sits_on_its_slot(self):
        shouts = [s for s in on_grid_shouts() if s.id != "s3"]
        [marker] = lost_markers(make_session(), shouts, (3,))
        assert marker.kind is MessageKind.LOST_TIMESLOT
        assert marker.created == 3 * 900  # 12:45 for a noon anchor
        assert marker.session_ref == "sess"

    def test_ideal_session_has_no_lost_slot_to_mark(self):
        session, shouts = make_session(), on_grid_shouts()
        assert lost_markers(session, shouts, conformance(session, shouts).lost_slots) == []

    def test_markers_follow_the_slots_on_the_session_grid(self):
        session = make_session(start=100, slot=600)
        markers = lost_markers(session, [], (0, 2, 5))
        assert [m.created for m in markers] == [100, 100 + 2 * 600, 100 + 5 * 600]
        assert {m.nick for m in markers} == {session.user}
        assert len({m.id for m in markers}) == 3

    def test_slot_already_marked_gets_no_second_marker(self):
        shouts = [s for s in on_grid_shouts() if s.id != "s3"]
        [marker] = lost_markers(make_session(), shouts, (3,))
        again = lost_markers(make_session(), shouts + [marker], (3, 5))
        assert [m.created for m in again] == [5 * 900]


class TestValidator:
    USERS = [User(id=n, nicks=frozenset({n})) for n in ("owner", "a", "b", "c")]

    def test_single_eligible(self):
        users = self.USERS[:2]
        session = make_session(user="owner")
        for seed in range(20):
            assert assign_validator(session, users, seed).id == "a"

    def test_owner_alone_rejected(self):
        with pytest.raises(NoEligibleValidator):
            assign_validator(make_session(user="owner"), self.USERS[:1], 1)

    def test_same_seed_same_validator(self):
        session = make_session(user="owner")
        assert assign_validator(session, self.USERS, 42) == \
            assign_validator(session, self.USERS, 42)

    def test_frequencies_uniform(self):
        session = make_session(user="owner")
        counts = {"a": 0, "b": 0, "c": 0}
        n = 10_000
        for seed in range(n):
            counts[assign_validator(session, self.USERS, seed).id] += 1
        for nick in counts:
            assert abs(counts[nick] / n - 1 / 3) <= 0.05


class TestReview:
    def test_in_range_score_stored(self):
        review = make_review(make_session(), "alice", 0.9, None, created=10)
        assert review.score == 0.9
        assert review.session == "sess"

    def test_self_review_rejected(self):
        with pytest.raises(SelfReview):
            make_review(make_session(user="bob"), "bob", 0.5, None, created=10)

    def test_score_bounds(self):
        with pytest.raises(ScoreOutOfRange):
            make_review(make_session(), "alice", 1.2, None, created=10)
        with pytest.raises(ScoreOutOfRange):
            make_review(make_session(), "alice", -0.1, None, created=10)

