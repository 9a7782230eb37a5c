"""Terms are their N-Triples strings: equivalence with the per-character
escape loop and the validator that hashed term objects, plus the value
semantics of terms."""

from urllib.parse import quote

from hypothesis import given, settings, strategies as st

from aa.rdf import (
    RDF_TYPE,
    XSD_NS,
    XSD_STRING,
    Triple,
    Violation,
    Vocabulary,
    _escape,
    export_data,
    iri,
    literal,
    validate_graph,
)
from conftest import make_shout

VOCAB = Vocabulary()

# any code point, lone surrogates included, weighted towards what escaping touches
TEXT = st.text(st.one_of(st.characters(min_codepoint=0, max_codepoint=0x7F),
                         st.characters(exclude_categories=())), max_size=40)


def escape_oracle(lexical: str) -> str:
    """The per-character N-Triples escape the translate table replaced."""
    out = []
    for ch in lexical:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def literal_render_oracle(lexical: str, datatype: str) -> str:
    rendered = f'"{escape_oracle(lexical)}"'
    if datatype != XSD_NS + "string":
        rendered += f"^^<{datatype}>"
    return rendered


def validate_oracle(triples, vocab):
    """The validator that grouped term objects and rendered inside sort keys."""
    functional = vocab.functional_properties()
    values: dict[tuple, set] = {}
    types: dict = {}
    for triple in triples:
        values.setdefault((triple.subject, triple.predicate), set()).add(triple.object)
        if triple.predicate == RDF_TYPE:
            types.setdefault(triple.subject, set()).add(triple.object)
    violations = []
    for (subject, predicate), objects in sorted(
            values.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if predicate in functional and len(objects) > 1:
            violations.append(Violation(subject, predicate, "functional"))
    for subject in sorted(types):
        for class_name, props in vocab.EXISTENTIAL.items():
            if vocab.term(class_name) not in types[subject]:
                continue
            for prop in props:
                if (subject, vocab.term(prop)) not in values:
                    violations.append(Violation(subject, vocab.term(prop),
                                                "existential"))
    return violations


class TestEscape:
    @settings(max_examples=300, deadline=None)
    @given(TEXT)
    def test_escape_equals_per_character_loop(self, text):
        assert _escape(text) == escape_oracle(text)

    @settings(max_examples=300, deadline=None)
    @given(TEXT, st.sampled_from([XSD_NS + "string", XSD_NS + "dateTime", "http://x/t"]))
    def test_literal_render_equals_oracle(self, text, datatype):
        assert literal(text, iri(datatype)) == literal_render_oracle(text, datatype)

    def test_every_control_character(self):
        text = "".join(map(chr, range(0x80)))
        assert _escape(text) == escape_oracle(text)
        assert "\x7f" in _escape(text)


NICKS = st.sampled_from(["bob", "eve", "zoë r/d", "a b"])


@st.composite
def graphs(draw):
    """An export, with functional values duplicated and mandatory triples cut."""
    count = draw(st.integers(0, 6))
    shouts = [make_shout(f"s{draw(st.integers(0, 4))}", nick=draw(NICKS),
                         message=draw(TEXT), created=draw(st.integers(0, 10**9)))
              for _ in range(count)]
    triples = export_data(shouts, vocab=VOCAB)
    properties = [VOCAB.term(p) for p in ("user", "shoutMessage", "created", "nick",
                                          "score", "session")]
    classes = [VOCAB.term(c) for c in ("User", "Shout", "Session")]
    for _ in range(draw(st.integers(0, 4))):
        subject = draw(st.sampled_from(
            [t.subject for t in triples] or [VOCAB.instance("shout", "x")]))
        obj = draw(st.one_of(TEXT.map(literal), TEXT.map(lambda label: f"_:{label}"),
                             NICKS.map(lambda n: VOCAB.instance("user", n))))
        triples.append(Triple(subject, draw(st.sampled_from(properties)), obj))
        if draw(st.booleans()):  # a second class, so both rule sets apply
            triples.append(Triple(subject, RDF_TYPE, draw(st.sampled_from(classes))))
    keep = draw(st.lists(st.booleans(), min_size=len(triples),
                         max_size=len(triples)))
    triples = [t for t, kept in zip(triples, keep)
               if kept or t.predicate == RDF_TYPE]
    return draw(st.permutations(triples))


class TestValidateGraph:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_equals_old_algorithm_in_order(self, triples):
        assert validate_graph(triples, VOCAB) == validate_oracle(triples, VOCAB)

    def test_both_rules_reported_in_order(self):
        shout = VOCAB.instance("shout", "s")
        triples = [Triple(shout, RDF_TYPE, VOCAB.term("Shout")),
                   Triple(shout, VOCAB.term("created"), literal("1")),
                   Triple(shout, VOCAB.term("created"), literal("2"))]
        assert validate_graph(triples, VOCAB) == validate_oracle(triples, VOCAB)
        assert [v.rule for v in validate_graph(triples, VOCAB)] == [
            "functional", "existential", "existential"]


class TestTermValues:
    def test_plain_literal_equals_explicit_string_type(self):
        assert literal("x") == literal("x", XSD_STRING) == '"x"'

    def test_kinds_with_the_same_text_differ(self):
        terms = [iri("x"), "_:x", literal("x")]
        for i, a in enumerate(terms):
            for b in terms[i + 1:]:
                assert a != b
        assert len(set(terms)) == 3

    def test_instance_iris_match_percent_encoding(self):
        for identifier in ("abc-1_2.~", "", "a b", "zoë", "a/b", "50%", "x#y"):
            assert VOCAB.instance("user", identifier) == iri(
                f"{VOCAB.base}user/{quote(identifier, safe='')}")

    def test_vocabulary_terms_are_shared(self):
        assert VOCAB.term("created") is VOCAB.term("created")
        assert VOCAB.term("created") == iri(VOCAB.ns + "created")
