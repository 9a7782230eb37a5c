from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from aa.errors import EmptyNick
from aa.model import (
    Session,
    SessionOrigin,
    Shout,
    Tag,
    TagForm,
    User,
    ValidationReview,
    check_timestamp,
    iso8601,
    normalize_nick,
    parse_iso8601,
)

VALUES = [
    Tag(TagForm.HASH, "aa"),
    Shout("s1", "bob", "fixed #aa", 5, tags=(Tag(TagForm.HASH, "aa"),)),
    User("bob", frozenset({"bob"})),
    ValidationReview("sess", "eve", 0.5, None, 5),
    Session("sess", "bob", SessionOrigin.EXPLICIT, 0, 900, shouts=("s1",)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_model_value_refuses_attribute_assignment(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.added = 1


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_model_value_is_equal_by_fields_and_replace_keeps_its_type(value):
    cls = type(value)
    twin = cls(**{name: getattr(value, name) for name in cls._fields})
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    changed = value._replace(**{cls._fields[0]: "other"})
    assert type(changed) is cls
    assert changed != value and getattr(changed, cls._fields[0]) == "other"
    assert changed._replace(**{cls._fields[0]: getattr(value, cls._fields[0])}) == value


def test_normalize_trims_and_lowercases():
    assert normalize_nick("  Bob ") == "bob"


def test_normalize_identity_on_normalized():
    assert normalize_nick("bob") == "bob"


def test_normalize_rejects_blank():
    with pytest.raises(EmptyNick):
        normalize_nick("   ")


@given(st.text())
def test_normalize_idempotent(raw):
    try:
        once = normalize_nick(raw)
    except EmptyNick:
        return
    assert normalize_nick(once) == once


def test_iso8601_round_trip():
    ts = 1367505011
    assert iso8601(ts) == "2013-05-02T14:30:11Z"
    assert parse_iso8601(iso8601(ts)) == ts


@given(st.integers(-62_135_596_800, 253_402_300_799))  # years 1 to 9999
def test_iso8601_equals_datetime_rendering(ts):
    expected = datetime.fromtimestamp(ts, timezone.utc).isoformat()
    assert iso8601(ts) == expected.removesuffix("+00:00") + "Z"


@pytest.mark.parametrize("ts, text", [
    (-62_135_596_800, "0001-01-01T00:00:00Z"),
    (-30_610_224_001, "0999-12-31T23:59:59Z"),
    (-30_610_224_000, "1000-01-01T00:00:00Z"),
    (253_402_300_799, "9999-12-31T23:59:59Z"),
])
def test_iso8601_years_have_four_digits(ts, text):
    assert iso8601(ts) == text
    assert parse_iso8601(text) == ts


def test_parse_iso8601_naive_is_utc():
    assert parse_iso8601("2013-05-02T14:30:11") == 1367505011


def test_check_timestamp_holds_exactly_the_years_datetime_holds():
    first = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
    last = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())
    for ts in (first, 0, last):
        assert check_timestamp(ts) == ts
        datetime.fromtimestamp(ts, timezone.utc)
    for ts in (first - 1, last + 1, 99999999999999999999):
        with pytest.raises(ValueError, match=f"^timestamp {ts} is outside UTC years"):
            check_timestamp(ts)
