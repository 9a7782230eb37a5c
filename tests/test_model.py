from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from aa.errors import EmptyNick
from aa.model import iso8601, normalize_nick, parse_iso8601


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
    expected = datetime.fromtimestamp(ts, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    assert iso8601(ts) == expected


def test_parse_iso8601_naive_is_utc():
    assert parse_iso8601("2013-05-02T14:30:11") == 1367505011
