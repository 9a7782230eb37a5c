"""Error types shared across the suite.

Every error carries a machine-readable ``code`` so the HTTP layer and the
CLIs can report failures uniformly.
"""


class AAError(Exception):
    code = "error"
    http_status = 400


class EmptyNick(AAError):
    code = "empty_nick"


class EmptyMessage(AAError):
    code = "empty_message"


class BeforeAnchor(AAError):
    code = "before_anchor"


class EmptySession(AAError):
    code = "empty_session"


class NotLost(AAError):
    code = "not_lost"


class NoEligibleValidator(AAError):
    code = "no_eligible_validator"


class SelfReview(AAError):
    code = "self_review"


class ScoreOutOfRange(AAError):
    code = "score_out_of_range"


class UnknownSession(AAError):
    code = "unknown_session"
    http_status = 404


class NoOpenSession(AAError):
    code = "no_open_session"


class BadFilter(AAError):
    code = "bad_filter"


class BadUrl(AAError):
    code = "bad_url"


class BadPattern(AAError):
    code = "bad_pattern"


class UnreadableSource(AAError):
    code = "unreadable_source"


class JournalError(AAError):
    code = "journal_failure"
    http_status = 500
