import pytest
from hypothesis import given, strategies as st

from aa.errors import EmptyMessage
from aa.model import DeviationKind, MessageKind, Tag, TagForm, TagScope
from aa.parsing import (
    ParserConfig,
    classify_kind,
    detect_word_tags,
    extract_tags,
    flag_deviation,
    parse,
)


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
    def test_hash_tag(self):
        tags, clean = extract_tags("fixing build #coding")
        assert tags == [Tag(TagForm.HASH, "coding")]
        assert clean == "fixing build"

    def test_plus_tags_in_order(self):
        tags, _ = extract_tags("+django models for sessions +sna")
        assert tags == [Tag(TagForm.PLUS, "django"), Tag(TagForm.PLUS, "sna")]

    def test_no_tags(self):
        tags, clean = extract_tags("no tags here")
        assert tags == []
        assert clean == "no tags here"

    def test_trailing_punctuation_stripped(self):
        tags, _ = extract_tags("done with #coding.")
        assert tags == [Tag(TagForm.HASH, "coding")]

    def test_names_lowercased(self):
        tags, _ = extract_tags("#Coding stuff")
        assert tags == [Tag(TagForm.HASH, "coding")]

    def test_bare_marker_removed_without_tag(self):
        tags, clean = extract_tags("look # here +")
        assert tags == []
        assert clean == "look here"

    def test_empty_input(self):
        assert extract_tags("") == ([], "")


class TestWordTags:
    def test_first_token_match(self):
        tags = detect_word_tags("coding refactor of timer", {"coding"})
        assert tags == [Tag(TagForm.WORD, "coding", TagScope.UNTIL_NEXT_TAG)]

    def test_lexicon_miss(self):
        assert detect_word_tags("refactor of timer", {"coding"}) == []

    def test_last_token_match(self):
        # position rule: scan only the first and last token
        words = "timer refactor coding".split()
        expected = [w for w in (words[0], words[-1]) if w in {"coding"}]
        tags = detect_word_tags("timer refactor coding", {"coding"})
        assert [t.name for t in tags] == expected

    def test_interior_occurrence_ignored(self):
        assert detect_word_tags("x coding y", {"coding"}) == []

    def test_single_token_yields_one_tag(self):
        assert len(detect_word_tags("coding", {"coding"})) == 1


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
        config = ParserConfig(word_lexicon=frozenset({"coding"}))
        result = parse("#aa coding stuff", config)
        assert [t.name for t in result.tags] == ["aa", "coding"]

    def test_word_at_both_ends_tagged_twice(self):
        # parse output is journaled, so it keeps both positions;
        # detect_word_tags reports the word once
        config = ParserConfig(word_lexicon=frozenset({"coding"}))
        tag = Tag(TagForm.WORD, "coding", TagScope.UNTIL_NEXT_TAG)
        assert parse("coding x coding", config).tags == (tag, tag)
        assert detect_word_tags("coding x coding", {"coding"}) == [tag]


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


@given(st.text())
def test_tag_removal_soundness(raw):
    tags, clean = extract_tags(raw)
    assert extract_tags(clean)[0] == []
    assert not any(tok[0] in "#+" for tok in clean.split())


@given(st.text())
def test_tag_closure(raw):
    tags, _ = extract_tags(raw)
    for tag in tags:
        assert tag.name
        assert tag.name[0] not in "#+"
        assert tag.name == tag.name.lower()
