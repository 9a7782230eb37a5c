import re

from aa.model import Session, SessionOrigin, User, ValidationReview
from aa.rdf import (
    RDF_TYPE,
    OWL_FUNCTIONAL,
    Triple,
    Vocabulary,
    XSD_DATETIME,
    export_data,
    export_ontology,
    iri,
    literal,
    serialize_ntriples,
    serialize_turtle,
    validate_graph,
)
from conftest import make_shout

VOCAB = Vocabulary()


def has(triples, s, p, o):
    return Triple(s, p, o) in set(triples)


class TestOntology:
    TRIPLES = export_ontology(VOCAB)

    def test_created_is_functional(self):
        assert has(self.TRIPLES, VOCAB.term("created"), RDF_TYPE, OWL_FUNCTIONAL)

    def test_nick_and_email_are_not_functional(self):
        assert not has(self.TRIPLES, VOCAB.term("nick"), RDF_TYPE, OWL_FUNCTIONAL)
        assert not has(self.TRIPLES, VOCAB.term("email"), RDF_TYPE, OWL_FUNCTIONAL)

    def test_user_mapped_under_foaf_agent(self):
        assert has(self.TRIPLES, VOCAB.term("User"),
                   iri("http://www.w3.org/2000/01/rdf-schema#subClassOf"),
                   iri("http://xmlns.com/foaf/0.1/Agent"))

    def test_existential_restrictions_present(self):
        subclass = iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
        on_property = iri("http://www.w3.org/2002/07/owl#onProperty")
        restricted = {t.object for t in self.TRIPLES
                      if t.subject == VOCAB.term("Shout") and t.predicate == subclass
                      and t.object.startswith("_:")}
        props = {t.object for t in self.TRIPLES
                 if t.subject in restricted and t.predicate == on_property}
        assert props == {VOCAB.term("user"), VOCAB.term("shoutMessage"),
                         VOCAB.term("created")}

    def test_extension_terms_flagged(self):
        comment = iri("http://www.w3.org/2000/01/rdf-schema#comment")
        flagged = {t.subject for t in self.TRIPLES
                   if t.predicate == comment
                   and "extension" in t.object}
        assert VOCAB.term("session") in flagged
        assert VOCAB.term("score") in flagged


class TestExportData:
    def test_empty_store_has_no_instance_triples(self):
        assert export_data([]) == []

    def test_single_shout_template_expansion(self):
        shout = make_shout("s1", nick="bob", message="hi all", created=100)
        triples = export_data([shout], vocab=VOCAB)
        node = VOCAB.instance("shout", "s1")
        # count oracle: type/user/message/created for the shout,
        # type/nick for its derived user
        assert len([t for t in triples if t.subject == node]) == 4
        assert has(triples, node, VOCAB.term("user"), VOCAB.instance("user", "bob"))
        assert has(triples, node, VOCAB.term("shoutMessage"), literal("hi all"))
        assert has(triples, node, VOCAB.term("created"),
                   literal("1970-01-01T00:01:40Z", XSD_DATETIME))
        assert len(triples) == 6

    def test_same_user_one_node(self):
        shouts = [make_shout("s1", created=0), make_shout("s2", created=1)]
        triples = export_data(shouts, vocab=VOCAB)
        user_nodes = {t.subject for t in triples
                      if t.predicate == RDF_TYPE and t.object == VOCAB.term("User")}
        assert len(user_nodes) == 1

    def test_distinct_records_distinct_iris(self):
        shouts = [make_shout(f"s{i}", created=i) for i in range(10)]
        triples = export_data(shouts, vocab=VOCAB)
        shout_nodes = {t.subject for t in triples
                       if t.predicate == RDF_TYPE and t.object == VOCAB.term("Shout")}
        assert len(shout_nodes) == 10

    def test_sessions_and_reviews_exported(self):
        session = Session(id="x", user="bob", origin=SessionOrigin.EXPLICIT,
                          start=0, end=900, screencast="https://v.example/a")
        review = ValidationReview(session="x", reviewer="eve", score=0.9,
                                  comment=None, created=1000)
        triples = export_data([], [session], [review], vocab=VOCAB)
        assert has(triples, VOCAB.instance("session", "x"),
                   VOCAB.term("screencast"), literal("https://v.example/a"))
        assert has(triples, VOCAB.instance("review", "x"),
                   VOCAB.term("score"), literal("0.9"))

    def test_client_created_extension_property(self):
        shout = make_shout("s1", created=100, client_created=50)
        triples = export_data([shout], vocab=VOCAB)
        assert has(triples, VOCAB.instance("shout", "s1"),
                   VOCAB.term("clientCreated"),
                   literal("1970-01-01T00:00:50Z", XSD_DATETIME))


class TestValidation:
    def valid_export(self):
        shouts = [make_shout(f"s{i}", created=i) for i in range(5)]
        return export_data(shouts, vocab=VOCAB)

    def test_valid_export_has_zero_violations(self):
        assert validate_graph(self.valid_export(), VOCAB) == []

    def test_duplicate_functional_value_detected(self):
        triples = self.valid_export()
        triples.append(Triple(VOCAB.instance("shout", "s1"),
                              VOCAB.term("created"),
                              literal("2020-01-01T00:00:00Z", XSD_DATETIME)))
        violations = validate_graph(triples, VOCAB)
        assert len(violations) == 1
        assert violations[0].rule == "functional"

    def test_two_nicks_are_allowed(self):
        triples = self.valid_export()
        triples.append(Triple(VOCAB.instance("user", "bob"),
                              VOCAB.term("nick"), literal("bobby")))
        assert validate_graph(triples, VOCAB) == []

    def test_missing_message_detected(self):
        triples = [t for t in self.valid_export()
                   if not (t.predicate == VOCAB.term("shoutMessage")
                           and t.subject == VOCAB.instance("shout", "s2"))]
        violations = validate_graph(triples, VOCAB)
        assert len(violations) == 1
        assert violations[0].rule == "existential"
        assert violations[0].property == VOCAB.term("shoutMessage")

    def test_missing_nick_detected(self):
        triples = [t for t in self.valid_export()
                   if t.predicate != VOCAB.term("nick")]
        violations = validate_graph(triples, VOCAB)
        assert len(violations) == 1  # one user node backs all five shouts
        assert violations[0].rule == "existential"

    def test_deleting_any_mandatory_triple_yields_one_violation(self):
        base = self.valid_export()
        mandatory = {VOCAB.term(p) for p in ("user", "shoutMessage", "created")}
        for i, triple in enumerate(base):
            if triple.predicate not in mandatory:
                continue
            violations = validate_graph(base[:i] + base[i + 1:], VOCAB)
            assert len(violations) == 1, triple


NT_LINE = re.compile(
    r"^(?P<s><[^>]*>|_:\S+) (?P<p><[^>]*>) (?P<o>.+) \.$")


def parse_ntriples(document):
    """Minimal independent reader used only to check round-tripping."""
    triples = []
    for line in document.splitlines():
        match = NT_LINE.match(line)
        assert match, line
        s, p, o = match.group("s"), match.group("p"), match.group("o")

        def term(text):
            if text.startswith("<"):
                return iri(text[1:-1])
            if text.startswith("_:"):
                return text
            body, _, dtype = text.rpartition("^^")
            if not body:
                body, dtype = text, ""
            lexical = (body[1:-1].replace("\\n", "\n").replace("\\r", "\r")
                       .replace("\\t", "\t").replace('\\"', '"')
                       .replace("\\\\", "\\"))
            if dtype:
                return literal(lexical, iri(dtype[1:-1]))
            return literal(lexical)

        triples.append(Triple(term(s), term(p), term(o)))
    return triples


class TestSerialization:
    def test_empty_stream(self):
        assert serialize_ntriples([]) == ""

    def test_single_triple_line(self):
        doc = serialize_ntriples([Triple(iri("http://x/s"), iri("http://x/p"),
                                         literal("v"))])
        assert doc == '<http://x/s> <http://x/p> "v" .\n'

    def test_sorted_and_deterministic(self):
        triples = export_ontology(VOCAB) + export_data(
            [make_shout(f"s{i}", created=i) for i in range(5)], vocab=VOCAB)
        first = serialize_ntriples(triples)
        second = serialize_ntriples(list(reversed(triples)))
        assert first == second
        assert first.splitlines() == sorted(first.splitlines())

    def test_round_trip_byte_identical(self):
        shout = make_shout("s1", message='tricky "quotes" and\tt tabs', created=3)
        triples = export_ontology(VOCAB) + export_data([shout], vocab=VOCAB)
        document = serialize_ntriples(triples)
        reparsed = parse_ntriples(document)
        assert serialize_ntriples(reparsed) == document

    def test_turtle_has_prefixes_and_groups(self):
        triples = export_data([make_shout("s1", created=0)], vocab=VOCAB)
        doc = serialize_turtle(triples, VOCAB)
        assert "@prefix aa:" in doc
        assert "aa:shoutMessage" in doc
        assert doc.count("shout/s1") == 1  # grouped under one subject
