"""RDF export of the activity vocabulary and stored data, plus validation.

The vocabulary declares users, shouts, sessions, and reviews. Every
property is functional except nick and email; shouts must carry a user,
a message, and a creation time, and users must carry a nick. Those two
constraint families are what validate_graph checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence
from urllib.parse import quote

from . import journal as jn
from .model import Session, Shout, ValidationReview, iso8601, users_from_shouts

DEFAULT_BASE = "http://aa.example.org/"

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
FOAF_NS = "http://xmlns.com/foaf/0.1/"
DCT_NS = "http://purl.org/dc/terms/"
SCHEMA_NS = "http://schema.org/"
SIOC_NS = "http://rdfs.org/sioc/ns#"


@dataclass(frozen=True)
class Iri:
    value: str

    def render(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class Blank:
    label: str

    def render(self) -> str:
        return f"_:{self.label}"


XSD_STRING = Iri(XSD_NS + "string")
XSD_DATETIME = Iri(XSD_NS + "dateTime")


def _escape(lexical: str) -> str:
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


@dataclass(frozen=True)
class Literal:
    """Typed literal; strings render plain, other datatypes are tagged."""

    lexical: str
    datatype: Iri = XSD_STRING

    def render(self) -> str:
        rendered = f'"{_escape(self.lexical)}"'
        if self.datatype != XSD_STRING:
            rendered += f"^^{self.datatype.render()}"
        return rendered


Term = Iri | Blank | Literal


@dataclass(frozen=True)
class Triple:
    subject: Iri | Blank
    predicate: Iri
    object: Term

    def render(self) -> str:
        return (f"{self.subject.render()} {self.predicate.render()} "
                f"{self.object.render()} .")


RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASS = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROP = Iri(RDFS_NS + "subPropertyOf")
RDFS_COMMENT = Iri(RDFS_NS + "comment")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_LITERAL = Iri(RDFS_NS + "Literal")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_ONTOLOGY = Iri(OWL_NS + "Ontology")
OWL_OBJECT_PROP = Iri(OWL_NS + "ObjectProperty")
OWL_DATA_PROP = Iri(OWL_NS + "DatatypeProperty")
OWL_FUNCTIONAL = Iri(OWL_NS + "FunctionalProperty")
OWL_RESTRICTION = Iri(OWL_NS + "Restriction")
OWL_ON_PROPERTY = Iri(OWL_NS + "onProperty")
OWL_SOME_VALUES = Iri(OWL_NS + "someValuesFrom")


class Vocabulary:
    """Term mint for a configurable base IRI.

    Vocabulary terms live under ``<base>ns#``; instances under
    ``<base><kind>/<id>``.
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

    def term(self, name: str) -> Iri:
        return Iri(self.ns + name)

    def instance(self, kind: str, identifier: str) -> Iri:
        return Iri(f"{self.base}{kind}/{quote(identifier, safe='')}")

    def functional_properties(self) -> set[Iri]:
        names = set(self.OBJECT_PROPS) | set(self.DATA_PROPS)
        return {self.term(n) for n in names - self.NON_FUNCTIONAL}

    def prefixes(self) -> dict[str, str]:
        return {"aa": self.ns, "rdf": RDF_NS, "rdfs": RDFS_NS, "owl": OWL_NS,
                "xsd": XSD_NS, "foaf": FOAF_NS, "dcterms": DCT_NS,
                "schema": SCHEMA_NS, "sioc": SIOC_NS}


# class/property links into widely used vocabularies
UPPER_MAPPINGS = (
    ("User", RDFS_SUBCLASS, Iri(FOAF_NS + "Agent")),
    ("Shout", RDFS_SUBCLASS, Iri(SIOC_NS + "Post")),
    ("Shout", RDFS_SUBCLASS, Iri(SCHEMA_NS + "Message")),
    ("Session", RDFS_SUBCLASS, Iri(SCHEMA_NS + "Event")),
    ("ValidationReview", RDFS_SUBCLASS, Iri(SCHEMA_NS + "Review")),
    ("nick", RDFS_SUBPROP, Iri(FOAF_NS + "nick")),
    ("email", RDFS_SUBPROP, Iri(SCHEMA_NS + "email")),
    ("shoutMessage", RDFS_SUBPROP, Iri(SIOC_NS + "content")),
    ("created", RDFS_SUBPROP, Iri(DCT_NS + "created")),
    ("score", RDFS_SUBPROP, Iri(SCHEMA_NS + "ratingValue")),
)


def export_ontology(vocab: Vocabulary | None = None) -> list[Triple]:
    """Class, property, constraint, and upper-vocabulary mapping axioms."""
    vocab = vocab or Vocabulary()
    triples: list[Triple] = []
    ontology = Iri(vocab.ns.rstrip("#"))
    triples.append(Triple(ontology, RDF_TYPE, OWL_ONTOLOGY))
    triples.append(Triple(ontology, RDFS_COMMENT, Literal(
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
            node = Blank(f"must-{class_name.lower()}-{prop.lower()}")
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
                              Literal("extension term beyond the core vocabulary")))
    return triples


def export_data(shouts: Sequence[Shout], sessions: Iterable[Session] = (),
                reviews: Iterable[ValidationReview] = (),
                vocab: Vocabulary | None = None) -> list[Triple]:
    """Instance triples for a store snapshot; IRIs are minted from record ids."""
    vocab = vocab or Vocabulary()
    triples: list[Triple] = []

    for user in users_from_shouts(shouts).values():
        node = vocab.instance("user", user.id)
        triples.append(Triple(node, RDF_TYPE, vocab.term("User")))
        for nick in sorted(user.nicks):
            triples.append(Triple(node, vocab.term("nick"), Literal(nick)))
        for email in sorted(user.emails):
            triples.append(Triple(node, vocab.term("email"), Literal(email)))

    for shout in shouts:
        node = vocab.instance("shout", shout.id)
        triples.append(Triple(node, RDF_TYPE, vocab.term("Shout")))
        triples.append(Triple(node, vocab.term("user"),
                              vocab.instance("user", shout.nick)))
        triples.append(Triple(node, vocab.term("shoutMessage"),
                              Literal(shout.message)))
        triples.append(Triple(node, vocab.term("created"),
                              Literal(iso8601(shout.created), XSD_DATETIME)))
        if shout.session_ref:
            triples.append(Triple(node, vocab.term("session"),
                                  vocab.instance("session", shout.session_ref)))
        if shout.client_created is not None:
            triples.append(Triple(node, vocab.term("clientCreated"),
                                  Literal(iso8601(shout.client_created),
                                          XSD_DATETIME)))

    for session in sessions:
        node = vocab.instance("session", session.id)
        triples.append(Triple(node, RDF_TYPE, vocab.term("Session")))
        triples.append(Triple(node, vocab.term("sessionStart"),
                              Literal(iso8601(session.start), XSD_DATETIME)))
        triples.append(Triple(node, vocab.term("sessionEnd"),
                              Literal(iso8601(session.end), XSD_DATETIME)))
        if session.screencast:
            triples.append(Triple(node, vocab.term("screencast"),
                                  Literal(session.screencast)))

    for review in reviews:
        node = vocab.instance("review", review.session)
        triples.append(Triple(node, RDF_TYPE, vocab.term("ValidationReview")))
        triples.append(Triple(node, vocab.term("session"),
                              vocab.instance("session", review.session)))
        triples.append(Triple(node, vocab.term("reviewer"),
                              vocab.instance("user", review.reviewer)))
        triples.append(Triple(node, vocab.term("score"),
                              Literal(f"{review.score:g}")))
        triples.append(Triple(node, vocab.term("created"),
                              Literal(iso8601(review.created), XSD_DATETIME)))
    return triples


@dataclass(frozen=True)
class Violation:
    subject: str
    property: str
    rule: str

    def to_dict(self) -> dict:
        return {"subject": self.subject, "property": self.property,
                "rule": self.rule}


def validate_graph(triples: Iterable[Triple],
                   vocab: Vocabulary | None = None) -> list[Violation]:
    """Check functional and mandatory-property constraints over a graph.

    Violations are data, not errors: one entry per offending
    (subject, property) pair.
    """
    vocab = vocab or Vocabulary()
    functional = vocab.functional_properties()
    values: dict[tuple, set] = {}
    types: dict = {}
    for triple in triples:
        values.setdefault((triple.subject, triple.predicate), set()).add(triple.object)
        if triple.predicate == RDF_TYPE:
            types.setdefault(triple.subject, set()).add(triple.object)

    violations = []
    for (subject, predicate), objects in sorted(
            values.items(), key=lambda kv: (kv[0][0].render(), kv[0][1].render())):
        if predicate in functional and len(objects) > 1:
            violations.append(Violation(subject.render(), predicate.render(),
                                        "functional"))
    for subject in sorted(types, key=lambda s: s.render()):
        for class_name, props in vocab.EXISTENTIAL.items():
            if vocab.term(class_name) not in types[subject]:
                continue
            for prop in props:
                if (subject, vocab.term(prop)) not in values:
                    violations.append(Violation(subject.render(),
                                                vocab.term(prop).render(),
                                                "existential"))
    return violations


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Canonical N-Triples: sorted (subject, predicate, object), one per line."""
    lines = sorted({t.render() for t in triples})
    return "\n".join(lines) + ("\n" if lines else "")


def _qname(iri: Iri, prefixes: dict[str, str]) -> str:
    for prefix, ns in prefixes.items():
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if local and all(c.isalnum() or c in "_-" for c in local):
                return f"{prefix}:{local}"
    return iri.render()


def serialize_turtle(triples: Iterable[Triple],
                     vocab: Vocabulary | None = None) -> str:
    """Deterministic Turtle: prefixed, grouped by subject."""
    vocab = vocab or Vocabulary()
    prefixes = vocab.prefixes()

    def term(t: Term) -> str:
        if isinstance(t, Iri):
            return _qname(t, prefixes)
        return t.render()

    grouped: dict = {}
    for triple in triples:
        grouped.setdefault(triple.subject, {}).setdefault(
            triple.predicate, set()).add(triple.object)

    out = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.items())]
    out.append("")
    for subject in sorted(grouped, key=lambda s: s.render()):
        preds = grouped[subject]
        lines = []
        for predicate in sorted(preds, key=lambda p: p.render()):
            rendered = "a" if predicate == RDF_TYPE else term(predicate)
            objects = ", ".join(sorted(term(o) for o in preds[predicate]))
            lines.append(f"    {rendered} {objects}")
        out.append(term(subject) + "\n" + " ;\n".join(lines) + " .")
    return "\n".join(out) + "\n"


def export_journal(journal_path: str, base: str = DEFAULT_BASE,
                   include_ontology: bool = True) -> list[Triple]:
    """Ontology plus instance triples for everything in a journal."""
    vocab = Vocabulary(base)
    state = jn.replay(journal_path)
    triples = export_ontology(vocab) if include_ontology else []
    sessions = [state.session_with_members(sid) for sid in sorted(state.sessions)]
    triples += export_data(state.shouts, sessions, state.reviews.values(), vocab=vocab)
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
    triples = export_journal(args.journal, args.base,
                             include_ontology=not args.data_only)
    if args.format == "ntriples":
        document = serialize_ntriples(triples)
    else:
        document = serialize_turtle(triples, vocab)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)

    if args.validate:
        violations = validate_graph(triples, vocab)
        json.dump([v.to_dict() for v in violations], sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1 if violations else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
