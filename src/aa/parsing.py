"""Message grammar: classify raw text into a kind, tags, and deviation flags,
and build the shout record a message becomes.

All functions here are pure and deterministic; parsing the same text twice
yields identical results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EmptyMessage
from .model import (DeviationKind, MessageKind, Shout, Source, Tag, TagForm, TagScope,
                    normalize_message, normalize_nick)

# a chat line starting with this is a shout: aa-bot logs it, and aa-mine's
# prefix mode keeps it, each with the prefix stripped
SHOUT_PREFIX = ";aa "
TRAILING_PUNCT = ".,;:!?"
QUERY_KEYWORDS = ("tickets", "milestones")

_KIND_BY_WORD = {
    "start": MessageKind.START,
    "stop": MessageKind.STOP,
    "push": MessageKind.PUSH,
}

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


@dataclass(frozen=True)
class ParserConfig:
    """Tunable vocabulary for parsing; all sets hold lowercase entries."""

    ubiquitous_tags: frozenset[str] = frozenset({"aao0"})
    word_lexicon: frozenset[str] = frozenset()
    promo_keywords: frozenset[str] = frozenset()
    intro_lexicon: frozenset[str] = frozenset({"test", "teste", "hello", "oi"})
    min_content_words: int = 3


DEFAULT_CONFIG = ParserConfig()


@dataclass(frozen=True)
class ParseResult:
    """Outcome of parsing one message."""

    kind: MessageKind
    clean_text: str
    tags: tuple[Tag, ...] = ()
    ubiquitous: bool = False
    topic: str | None = None


def _tag_name(token: str) -> str:
    """Tag name for a marker token: markers and trailing punctuation removed."""
    return token.lstrip("#+").rstrip(TRAILING_PUNCT).lower()


def _scan(raw: str) -> tuple[list[tuple[int, Tag]], list[tuple[int, str]]]:
    """Split into positioned marker tags and positioned plain tokens."""
    tags: list[tuple[int, Tag]] = []
    plain: list[tuple[int, str]] = []
    for pos, token in enumerate(raw.split()):
        if token[0] in "#+":
            name = _tag_name(token)
            if name:
                form = TagForm.HASH if token[0] == "#" else TagForm.PLUS
                tags.append((pos, Tag(form, name)))
        else:
            plain.append((pos, token))
    return tags, plain


def classify_kind(raw: str) -> MessageKind:
    """Kind from the first whitespace-delimited word, case-insensitively."""
    if not raw or not raw.strip():
        raise EmptyMessage("blank message")
    head = raw.split()[0].lower()
    if head in _KIND_BY_WORD:
        return _KIND_BY_WORD[head]
    if head in QUERY_KEYWORDS:
        return MessageKind.QUERY
    return MessageKind.SHOUT


def extract_tags(raw: str) -> tuple[list[Tag], str]:
    """Pull #-tags and +-tags out of a message.

    Returns the tags in order of appearance and the remaining text with
    every marker token removed (so re-extraction finds nothing).
    """
    tags, plain = _scan(raw)
    clean_text = " ".join(token for _, token in plain)
    return [tag for _, tag in tags], clean_text


def _word_tags(plain: list[tuple[int, str]],
               lexicon: frozenset[str] | set[str]) -> list[tuple[int, Tag]]:
    """Positioned word tags for lexicon words at the first and last plain token.

    A word at both ends yields two tags.
    """
    ends = [plain[0], plain[-1]] if len(plain) > 1 else plain
    found = []
    for pos, token in ends:
        word = token.rstrip(TRAILING_PUNCT).lower()
        if word in lexicon:
            found.append((pos, Tag(TagForm.WORD, word, TagScope.UNTIL_NEXT_TAG)))
    return found


def detect_word_tags(raw: str, lexicon: frozenset[str] | set[str]) -> list[Tag]:
    """Lexicon words at the first or last position become word tags.

    Marker tokens are not words, so positions are taken over the tag-free
    token sequence; interior occurrences are ignored.
    """
    _, plain = _scan(raw)
    return list(dict.fromkeys(tag for _, tag in _word_tags(plain, lexicon)))


def parse(raw: str, config: ParserConfig = DEFAULT_CONFIG) -> ParseResult:
    """Full parse of one message: kind, ordered tags, clean text, flags."""
    kind = classify_kind(raw)
    topic = raw.split()[0].lower() if kind is MessageKind.QUERY else None

    marker_tags, plain = _scan(raw)
    positioned = marker_tags
    if config.word_lexicon:
        positioned += _word_tags(plain, config.word_lexicon)
    positioned.sort(key=lambda item: item[0])

    tags = tuple(tag for _, tag in positioned)
    clean_text = " ".join(token for _, token in plain)
    ubiquitous = any(tag.name in config.ubiquitous_tags for tag in tags)
    return ParseResult(kind=kind, clean_text=clean_text, tags=tags,
                       ubiquitous=ubiquitous, topic=topic)


def flag_deviation(parsed: ParseResult,
                   config: ParserConfig = DEFAULT_CONFIG) -> DeviationKind | None:
    """Rule-based deviation flag for ordinary shouts.

    Promotion keyword plus a URL reads as advertising; a URL with almost no
    accompanying words reads as exhibiting a finished product; a lone
    greeting or test word reads as a first-contact trial message.
    """
    if parsed.kind is not MessageKind.SHOUT:
        return None
    urls = _URL_RE.findall(parsed.clean_text)
    words = []
    for token in parsed.clean_text.split():
        if _URL_RE.match(token):
            continue
        word = token.rstrip(TRAILING_PUNCT).lower()
        if word:
            words.append(word)
    if urls and any(word in config.promo_keywords for word in words):
        return DeviationKind.ADVERTISING
    if urls and len(words) < config.min_content_words:
        return DeviationKind.PRODUCT_EXHIBITIONISM
    if not urls and not parsed.tags and len(words) == 1 and words[0] in config.intro_lexicon:
        return DeviationKind.INTRO_TEST
    return None


def build_shout(shout_id: str, nick: str, message: str, created: int,
                config: ParserConfig = DEFAULT_CONFIG, *, source: Source = Source.HTTP,
                session_ref: str | None = None, client_created: int | None = None,
                parsed: ParseResult | None = None) -> Shout:
    """The shout a message becomes: nick and whitespace normalized, parsed, flagged.

    ``parsed`` is the caller's own parse of the normalized message, if any.
    """
    handle = normalize_nick(nick)
    text = normalize_message(message)
    if parsed is None:
        parsed = parse(text, config)
    return Shout(id=shout_id, nick=handle, message=text, created=created,
                 source=source, kind=parsed.kind, tags=parsed.tags,
                 session_ref=session_ref, deviation=flag_deviation(parsed, config),
                 client_created=client_created, topic=parsed.topic)
