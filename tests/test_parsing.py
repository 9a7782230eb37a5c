import pytest
from hypothesis import given, strategies as st

from aa.errors import EmptyMessage
from aa.model import DeviationKind, MessageKind, Tag, TagForm, TagScope
from aa.parsing import ParserConfig, classify_kind, flag_deviation, parse

LEXICON = ParserConfig(word_lexicon=frozenset({"coding"}))


class TestClassifyKind:
    def test_start(self):
        assert classify_kind("start") is MessageKind.START

    def test_stop_with_trailing_text(self):
        assert classify_kind("stop wrapping up refactor") is MessageKind.STOP

    def test_push(self):
        assert classify_kind("push") is MessageKind.PUSH

    def test_default_is_shout(self):
        assert classify_kind("writing parser tests #aa") is MessageKind.SHOUT

    def test_query_keywords(self):
        assert classify_kind("tickets") is MessageKind.QUERY
        assert classify_kind("milestones for the sprint") is MessageKind.QUERY

    def test_case_insensitive(self):
        assert classify_kind("START now") is MessageKind.START

    def test_blank_rejected(self):
        with pytest.raises(EmptyMessage):
            classify_kind("   ")


class TestExtractTags:
    """Marker tags and the text left without them, as parse extracts them."""

    def test_hash_tag(self):
        result = parse("fixing build #coding")
        assert result.tags == (Tag(TagForm.HASH, "coding"),)
        assert result.clean_text == "fixing build"

    def test_plus_tags_in_order(self):
        result = parse("+django models for sessions +sna")
        assert result.tags == (Tag(TagForm.PLUS, "django"), Tag(TagForm.PLUS, "sna"))

    def test_no_tags(self):
        result = parse("no tags here")
        assert result.tags == ()
        assert result.clean_text == "no tags here"

    def test_trailing_punctuation_stripped(self):
        assert parse("done with #coding.").tags == (Tag(TagForm.HASH, "coding"),)

    def test_names_lowercased(self):
        assert parse("#Coding stuff").tags == (Tag(TagForm.HASH, "coding"),)

    def test_bare_marker_removed_without_tag(self):
        result = parse("look # here +")
        assert result.tags == ()
        assert result.clean_text == "look here"

    def test_empty_input(self):
        # markers only leave no tags and no text; an empty message is refused
        result = parse("# +")
        assert result.tags == ()
        assert result.clean_text == ""
        with pytest.raises(EmptyMessage):
            parse("")


class TestWordTags:
    def test_first_token_match(self):
        tags = parse("coding refactor of timer", LEXICON).tags
        assert tags == (Tag(TagForm.WORD, "coding", TagScope.UNTIL_NEXT_TAG),)

    def test_lexicon_miss(self):
        assert parse("refactor of timer", LEXICON).tags == ()

    def test_last_token_match(self):
        # position rule: scan only the first and last token
        words = "timer refactor coding".split()
        expected = [w for w in (words[0], words[-1]) if w in {"coding"}]
        tags = parse("timer refactor coding", LEXICON).tags
        assert [t.name for t in tags] == expected

    def test_interior_occurrence_ignored(self):
        assert parse("x coding y", LEXICON).tags == ()

    def test_single_token_yields_one_tag(self):
        assert len(parse("coding", LEXICON).tags) == 1


class TestParse:
    def test_ubiquitous_flag(self):
        result = parse("shipping #aao0 from twitter")
        assert result.tags == (Tag(TagForm.HASH, "aao0"),)
        assert result.ubiquitous is True

    def test_not_ubiquitous(self):
        assert parse("fixing build #coding").ubiquitous is False

    def test_kind_tag_independence(self):
        result = parse("start #aa")
        assert result.kind is MessageKind.START
        assert result.tags == (Tag(TagForm.HASH, "aa"),)

    def test_query_topic(self):
        result = parse("tickets")
        assert result.kind is MessageKind.QUERY
        assert result.topic == "tickets"

    def test_word_tag_position_order(self):
        result = parse("#aa coding stuff", LEXICON)
        assert [t.name for t in result.tags] == ["aa", "coding"]

    def test_word_at_both_ends_tagged_twice(self):
        # parse output is journaled, so it keeps both positions
        tag = Tag(TagForm.WORD, "coding", TagScope.UNTIL_NEXT_TAG)
        assert parse("coding x coding", LEXICON).tags == (tag, tag)


class TestDeviation:
    PROMO = ParserConfig(promo_keywords=frozenset({"meetup"}))

    def test_advertising(self):
        parsed = parse("come to our meetup! http://x.example", self.PROMO)
        assert flag_deviation(parsed, self.PROMO) is DeviationKind.ADVERTISING

    def test_intro_test(self):
        assert flag_deviation(parse("test")) is DeviationKind.INTRO_TEST

    def test_ordinary_shout_unflagged(self):
        parsed = parse("implemented slot grid, writing tests")
        assert flag_deviation(parsed) is None

    def test_product_exhibitionism(self):
        parsed = parse("https://v.example/demo done")
        assert flag_deviation(parsed) is DeviationKind.PRODUCT_EXHIBITIONISM

    def test_url_with_enough_words_passes(self):
        parsed = parse("wrote the deploy docs at https://docs.example")
        assert flag_deviation(parsed) is None

    def test_non_shout_kinds_unflagged(self):
        assert flag_deviation(parse("start")) is None


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_parse_deterministic(raw):
    assert parse(raw) == parse(raw)


MESSAGES = st.text().filter(str.strip)


@given(MESSAGES)
def test_tag_removal_soundness(raw):
    clean = parse(raw).clean_text
    if clean.strip():
        assert parse(clean).tags == ()
    assert not any(tok[0] in "#+" for tok in clean.split())


@given(MESSAGES)
def test_tag_closure(raw):
    for tag in parse(raw).tags:
        assert tag.name
        assert tag.name[0] not in "#+"
        assert tag.name == tag.name.lower()
