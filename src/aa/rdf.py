"""RDF export of the activity vocabulary and stored data, plus validation.

The vocabulary declares users, shouts, sessions, and reviews. Every
property is functional except nick and email; shouts must carry a user,
a message, and a creation time, and users must carry a nick. Those two
constraint families are what validate_graph checks.

A term is its N-Triples string, as Canonical N-Triples makes the rendered
form a term's identity: an IRI is ``<...>``, a blank node ``_:label``, a
literal its quoted, escaped lexical form, tagged unless it is a string.
Validation and both serializers group, sort and compare those strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence
from urllib.parse import quote

from . import journal as jn
from .errors import JournalError
from .model import Session, Shout, ValidationReview, iso8601, users_from_nicks

DEFAULT_BASE = "http://aa.example.org/"

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
FOAF_NS = "http://xmlns.com/foaf/0.1/"
DCT_NS = "http://purl.org/dc/terms/"
SCHEMA_NS = "http://schema.org/"
SIOC_NS = "http://rdfs.org/sioc/ns#"


# backslash, quote, CR, LF and tab take their short escapes, the other C0
# controls \uXXXX; everything else, U+007F included, stays as it is
_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
                 ord("\r"): "\\r", ord("\t"): "\\t"})
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _escape(lexical: str) -> str:
    if _NEEDS_ESCAPE.search(lexical) is None:
        return lexical
    return lexical.translate(_ESCAPES)


def iri(value: str) -> str:
    return f"<{value}>"


XSD_STRING = iri(XSD_NS + "string")
XSD_DATETIME = iri(XSD_NS + "dateTime")


def literal(lexical: str, datatype: str = XSD_STRING) -> str:
    """A typed literal; strings render plain, other datatypes are tagged."""
    if datatype == XSD_STRING:
        return f'"{_escape(lexical)}"'
    return f'"{_escape(lexical)}"^^{datatype}'


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


RDF_TYPE = iri(RDF_NS + "type")
RDFS_SUBCLASS = iri(RDFS_NS + "subClassOf")
RDFS_SUBPROP = iri(RDFS_NS + "subPropertyOf")
RDFS_COMMENT = iri(RDFS_NS + "comment")
RDFS_DOMAIN = iri(RDFS_NS + "domain")
RDFS_RANGE = iri(RDFS_NS + "range")
RDFS_LITERAL = iri(RDFS_NS + "Literal")
OWL_CLASS = iri(OWL_NS + "Class")
OWL_ONTOLOGY = iri(OWL_NS + "Ontology")
OWL_OBJECT_PROP = iri(OWL_NS + "ObjectProperty")
OWL_DATA_PROP = iri(OWL_NS + "DatatypeProperty")
OWL_FUNCTIONAL = iri(OWL_NS + "FunctionalProperty")
OWL_RESTRICTION = iri(OWL_NS + "Restriction")
OWL_ON_PROPERTY = iri(OWL_NS + "onProperty")
OWL_SOME_VALUES = iri(OWL_NS + "someValuesFrom")


# characters quote() leaves as they are
_UNRESERVED = re.compile(r"[A-Za-z0-9_.~-]*")


class Vocabulary:
    """Term mint for a configurable base IRI.

    Vocabulary terms live under ``<base>ns#``, one shared string per name;
    instances under ``<base><kind>/<id>``, the id percent-encoded.
    """

    CLASSES = ("User", "Shout", "Session", "ValidationReview")
    OBJECT_PROPS = {"user": ("Shout", "User"),
                    "session": ("Shout", "Session"),
                    "reviewer": ("ValidationReview", "User")}
    DATA_PROPS = {"nick": "User", "email": "User",
                  "shoutMessage": "Shout", "created": "Shout",
                  "score": "ValidationReview",
                  "sessionStart": "Session", "sessionEnd": "Session",
                  "screencast": "Session", "clientCreated": "Shout"}
    NON_FUNCTIONAL = frozenset({"nick", "email"})
    # class -> properties every instance must carry
    EXISTENTIAL = {"Shout": ("user", "shoutMessage", "created"),
                   "User": ("nick",)}
    # terms beyond the pictured core vocabulary
    EXTENSIONS = frozenset({"session", "reviewer", "score", "sessionStart",
                            "sessionEnd", "screencast", "clientCreated",
                            "Session", "ValidationReview"})

    def __init__(self, base: str = DEFAULT_BASE):
        self.base = base if base.endswith(("/", "#")) else base + "/"
        self.ns = self.base + "ns#"
        self._terms: dict[str, str] = {}

    def term(self, name: str) -> str:
        term = self._terms.get(name)
        if term is None:
            term = self._terms[name] = iri(self.ns + name)
        return term

    def instance(self, kind: str, identifier: str) -> str:
        if _UNRESERVED.fullmatch(identifier) is None:
            identifier = quote(identifier, safe="")
        return iri(f"{self.base}{kind}/{identifier}")

    def functional_properties(self) -> set[str]:
        names = set(self.OBJECT_PROPS) | set(self.DATA_PROPS)
        return {self.term(n) for n in names - self.NON_FUNCTIONAL}

    def prefixes(self) -> dict[str, str]:
        return {"aa": self.ns, "rdf": RDF_NS, "rdfs": RDFS_NS, "owl": OWL_NS,
                "xsd": XSD_NS, "foaf": FOAF_NS, "dcterms": DCT_NS,
                "schema": SCHEMA_NS, "sioc": SIOC_NS}


# class/property links into widely used vocabularies
UPPER_MAPPINGS = (
    ("User", RDFS_SUBCLASS, iri(FOAF_NS + "Agent")),
    ("Shout", RDFS_SUBCLASS, iri(SIOC_NS + "Post")),
    ("Shout", RDFS_SUBCLASS, iri(SCHEMA_NS + "Message")),
    ("Session", RDFS_SUBCLASS, iri(SCHEMA_NS + "Event")),
    ("ValidationReview", RDFS_SUBCLASS, iri(SCHEMA_NS + "Review")),
    ("nick", RDFS_SUBPROP, iri(FOAF_NS + "nick")),
    ("email", RDFS_SUBPROP, iri(SCHEMA_NS + "email")),
    ("shoutMessage", RDFS_SUBPROP, iri(SIOC_NS + "content")),
    ("created", RDFS_SUBPROP, iri(DCT_NS + "created")),
    ("score", RDFS_SUBPROP, iri(SCHEMA_NS + "ratingValue")),
)


def export_ontology(vocab: Vocabulary | None = None) -> list[Triple]:
    """Class, property, constraint, and upper-vocabulary mapping axioms."""
    vocab = vocab or Vocabulary()
    triples: list[Triple] = []
    ontology = iri(vocab.ns.rstrip("#"))
    triples.append(Triple(ontology, RDF_TYPE, OWL_ONTOLOGY))
    triples.append(Triple(ontology, RDFS_COMMENT, literal(
        "Activity-logging vocabulary; also aligned, by intent only, with the "
        "GNDO and OPS vocabularies (no term IRIs are asserted for those).")))

    for name in vocab.CLASSES:
        triples.append(Triple(vocab.term(name), RDF_TYPE, OWL_CLASS))
    for name, (domain, range_) in vocab.OBJECT_PROPS.items():
        prop = vocab.term(name)
        triples.append(Triple(prop, RDF_TYPE, OWL_OBJECT_PROP))
        triples.append(Triple(prop, RDFS_DOMAIN, vocab.term(domain)))
        triples.append(Triple(prop, RDFS_RANGE, vocab.term(range_)))
    for name, domain in vocab.DATA_PROPS.items():
        prop = vocab.term(name)
        triples.append(Triple(prop, RDF_TYPE, OWL_DATA_PROP))
        triples.append(Triple(prop, RDFS_DOMAIN, vocab.term(domain)))

    for name in sorted(set(vocab.OBJECT_PROPS) | set(vocab.DATA_PROPS)):
        if name not in vocab.NON_FUNCTIONAL:
            triples.append(Triple(vocab.term(name), RDF_TYPE, OWL_FUNCTIONAL))

    for class_name, props in vocab.EXISTENTIAL.items():
        for prop in props:
            node = f"_:must-{class_name.lower()}-{prop.lower()}"
            values_from = (vocab.term(vocab.OBJECT_PROPS[prop][1])
                           if prop in vocab.OBJECT_PROPS else RDFS_LITERAL)
            triples.append(Triple(vocab.term(class_name), RDFS_SUBCLASS, node))
            triples.append(Triple(node, RDF_TYPE, OWL_RESTRICTION))
            triples.append(Triple(node, OWL_ON_PROPERTY, vocab.term(prop)))
            triples.append(Triple(node, OWL_SOME_VALUES, values_from))

    for name, relation, target in UPPER_MAPPINGS:
        triples.append(Triple(vocab.term(name), relation, target))
    for name in sorted(vocab.EXTENSIONS):
        triples.append(Triple(vocab.term(name), RDFS_COMMENT,
                              literal("extension term beyond the core vocabulary")))
    return triples


def export_data(shouts: Sequence[Shout], sessions: Iterable[Session] = (),
                reviews: Iterable[ValidationReview] = (),
                vocab: Vocabulary | None = None) -> list[Triple]:
    """Instance triples for a store snapshot; IRIs are minted from record ids."""
    vocab = vocab or Vocabulary()
    term = vocab.term
    triples: list[Triple] = []
    add = triples.append
    # user and session IRIs recur on every shout; mint each one once per export
    minted: dict[tuple[str, str], str] = {}

    def instance(kind: str, identifier: str) -> str:
        node = minted.get((kind, identifier))
        if node is None:
            node = minted[kind, identifier] = vocab.instance(kind, identifier)
        return node

    for user in users_from_nicks(s.nick for s in shouts).values():
        node = instance("user", user.id)
        add(Triple(node, RDF_TYPE, term("User")))
        for nick in sorted(user.nicks):
            add(Triple(node, term("nick"), literal(nick)))

    for shout in shouts:
        node = vocab.instance("shout", shout.id)
        add(Triple(node, RDF_TYPE, term("Shout")))
        add(Triple(node, term("user"), instance("user", shout.nick)))
        add(Triple(node, term("shoutMessage"), literal(shout.message)))
        add(Triple(node, term("created"),
                   literal(iso8601(shout.created), XSD_DATETIME)))
        if shout.session_ref:
            add(Triple(node, term("session"), instance("session", shout.session_ref)))
        if shout.client_created is not None:
            add(Triple(node, term("clientCreated"),
                       literal(iso8601(shout.client_created), XSD_DATETIME)))

    for session in sessions:
        node = instance("session", session.id)
        add(Triple(node, RDF_TYPE, term("Session")))
        add(Triple(node, term("sessionStart"),
                   literal(iso8601(session.start), XSD_DATETIME)))
        add(Triple(node, term("sessionEnd"),
                   literal(iso8601(session.end), XSD_DATETIME)))
        if session.screencast:
            add(Triple(node, term("screencast"), literal(session.screencast)))

    for review in reviews:
        node = vocab.instance("review", review.session)
        add(Triple(node, RDF_TYPE, term("ValidationReview")))
        add(Triple(node, term("session"), instance("session", review.session)))
        add(Triple(node, term("reviewer"), instance("user", review.reviewer)))
        add(Triple(node, term("score"), literal(f"{review.score:g}")))
        add(Triple(node, term("created"),
                   literal(iso8601(review.created), XSD_DATETIME)))
    return triples


@dataclass(frozen=True)
class Violation:
    subject: str
    property: str
    rule: str


def _group(triples: Iterable[Triple]) -> dict[str, dict[str, set[str]]]:
    """Subject -> predicate -> objects."""
    grouped: dict[str, dict[str, set[str]]] = {}
    for subject, predicate, obj in triples:
        predicates = grouped.get(subject)
        if predicates is None:
            predicates = grouped[subject] = {}
        objects = predicates.get(predicate)
        if objects is None:
            predicates[predicate] = {obj}
        else:
            objects.add(obj)
    return grouped


def validate_graph(triples: Iterable[Triple],
                   vocab: Vocabulary | None = None) -> list[Violation]:
    """Check functional and mandatory-property constraints over a graph.

    Violations are data, not errors: one entry per offending
    (subject, property) pair.
    """
    vocab = vocab or Vocabulary()
    functional = vocab.functional_properties()
    values = _group(triples)
    clashes = sorted((subject, predicate)
                     for subject, predicates in values.items()
                     for predicate, objects in predicates.items()
                     if len(objects) > 1 and predicate in functional)
    violations = [Violation(subject, predicate, "functional")
                  for subject, predicate in clashes]
    required = [(vocab.term(class_name), [vocab.term(p) for p in props])
                for class_name, props in vocab.EXISTENTIAL.items()]
    for subject in sorted(values):
        predicates = values[subject]
        types = predicates.get(RDF_TYPE)
        if types is None:
            continue
        for class_term, props in required:
            if class_term in types:
                violations.extend(Violation(subject, prop, "existential")
                                  for prop in props if prop not in predicates)
    return violations


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Canonical N-Triples: sorted (subject, predicate, object), one per line."""
    lines = sorted({f"{s} {p} {o} ." for s, p, o in triples})
    return "\n".join(lines) + ("\n" if lines else "")


def _qname(value: str, prefixes: dict[str, str]) -> str:
    """The Turtle form of an IRI: a prefixed name where one fits."""
    for prefix, ns in prefixes.items():
        if value.startswith(ns):
            local = value[len(ns):]
            if local and all(c.isalnum() or c in "_-" for c in local):
                return f"{prefix}:{local}"
    return f"<{value}>"


def serialize_turtle(triples: Iterable[Triple],
                     vocab: Vocabulary | None = None) -> str:
    """Deterministic Turtle: prefixed, grouped by subject."""
    vocab = vocab or Vocabulary()
    prefixes = vocab.prefixes()
    qnames: dict[str, str] = {}

    def term(nt: str) -> str:
        if nt[0] != "<":
            return nt  # a blank node or a literal
        name = qnames.get(nt)
        if name is None:
            name = qnames[nt] = _qname(nt[1:-1], prefixes)
        return name

    grouped = _group(triples)
    out = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.items())]
    out.append("")
    for subject in sorted(grouped):
        preds = grouped[subject]
        lines = []
        for predicate in sorted(preds):
            rendered = "a" if predicate == RDF_TYPE else term(predicate)
            objects = ", ".join(sorted(term(o) for o in preds[predicate]))
            lines.append(f"    {rendered} {objects}")
        out.append(term(subject) + "\n" + " ;\n".join(lines) + " .")
    return "\n".join(out) + "\n"


def export_journal(journal_path: str, vocab: Vocabulary,
                   include_ontology: bool = True) -> list[Triple]:
    """Ontology plus instance triples for everything in a journal."""
    state = jn.replay(journal_path)
    triples = export_ontology(vocab) if include_ontology else []
    triples += export_data(state.shouts, state.sessions.values(),
                           state.reviews.values(), vocab=vocab)
    return triples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa-export",
                                     description="Export a journal as RDF")
    parser.add_argument("--journal", required=True)
    parser.add_argument("--format", choices=("ntriples", "turtle"),
                        default="ntriples")
    parser.add_argument("--base", default=DEFAULT_BASE)
    parser.add_argument("--validate", action="store_true",
                        help="report constraint violations as JSON on stderr")
    parser.add_argument("--data-only", action="store_true",
                        help="skip the ontology axioms")
    parser.add_argument("-o", "--output", help="write to a file instead of stdout")
    args = parser.parse_args(argv)

    vocab = Vocabulary(args.base)
    try:
        triples = export_journal(args.journal, vocab,
                                 include_ontology=not args.data_only)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "ntriples":
        document = serialize_ntriples(triples)
    else:
        document = serialize_turtle(triples, vocab)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            print(f"error: {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(document)

    if args.validate:
        violations = validate_graph(triples, vocab)
        json.dump([asdict(v) for v in violations], sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1 if violations else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
