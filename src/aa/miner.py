"""Mine historical sources for shouts and import them without duplicates.

Sources are chat logs (regex with named captures), JSON dumps, or tabular
dumps. A candidate whose message text exactly matches any text already in
the corpus is discarded; comparison keys on the text alone by default, so
identical texts from different users are conflated on purpose.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import uuid
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from enum import Enum
from typing import Iterator

from . import journal as jn
from .config import csv_set, parse_kv
from .errors import BadPattern, JournalError, UnreadableSource
from .model import Shout, Source, check_timestamp, normalize_message, normalize_nick
from .parsing import DEFAULT_CONFIG, SHOUT_PREFIX, ParserConfig, build_shout, parse
from .parsing import flag_deviation  # noqa: F401 - wrapped by perfbench/launch.py

DEFAULT_CHATLOG_PATTERN = (
    r"^\[(?P<timestamp>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})\] "
    r"<(?P<nick>[^>]+)> (?P<text>.*)$"
)

_TS_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)
# the zero-padded ASCII texts of _TS_FORMATS, which datetime.fromisoformat
# reads alike and much faster than strptime; [0-9], as \d takes any digit
_TS_ISO = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?: [0-9]{2}:[0-9]{2}(?::[0-9]{2})?|T[0-9]{2}:[0-9]{2}:[0-9]{2})?")
_TS_EPOCH = re.compile(r"\d{9,}")


class SourceKind(str, Enum):
    CHAT_LOG = "chatlog"
    JSON_DUMP = "jsondump"
    TABULAR_DUMP = "tabulardump"


@dataclass(frozen=True)
class SourceSpec:
    """Where and how to read one historical source; a delimiter is one character."""

    kind: SourceKind
    path: str
    pattern: str = DEFAULT_CHATLOG_PATTERN
    mapping: dict | None = None
    timezone: str = "+0000"
    delimiter: str = "\t"

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise BadPattern(f"delimiter {self.delimiter!r} is not one character")

    def compiled_pattern(self) -> re.Pattern:
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise BadPattern(f"bad line pattern: {exc}") from exc
        missing = {"timestamp", "nick", "text"} - set(compiled.groupindex)
        if missing:
            raise BadPattern(f"pattern lacks named groups {sorted(missing)}")
        return compiled

    def field_map(self) -> dict:
        mapping = self.mapping or {}
        missing = {"nick", "message", "created"} - set(mapping)
        if missing:
            raise BadPattern(f"mapping lacks fields {sorted(missing)}")
        return mapping

    def utc_offset(self) -> int:
        tz = self.timezone.strip().upper()
        if tz in ("", "UTC", "Z"):
            return 0
        match = re.fullmatch(r"([+-])(\d{2}):?(\d{2})", tz)
        if not match:
            raise BadPattern(f"bad timezone offset {self.timezone!r}")
        sign = 1 if match.group(1) == "+" else -1
        return sign * (int(match.group(2)) * 3600 + int(match.group(3)) * 60)


@dataclass
class MiningReport:
    scanned: int = 0
    candidates: int = 0
    duplicates_discarded: int = 0
    kept: int = 0
    per_source: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ParsedSource:
    """A source's usable rows, each (normalized nick, message, created).

    The message is whitespace-normalized and not blank. Rows are not parsed
    here; select_shouts parses the ones it needs.
    """

    rows: list[tuple[str, str, int]]
    scanned: int
    skipped: int


def _parse_timestamp(value, offset: int) -> int:
    if isinstance(value, (int, float)):
        return int(value)
    text = str(value).strip()
    if _TS_EPOCH.fullmatch(text):
        return int(text)
    return int(_naive_datetime(text).replace(tzinfo=timezone.utc).timestamp()) - offset


def _naive_datetime(text: str) -> datetime:
    if _TS_ISO.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass  # a field out of range, which strptime refuses too
    for fmt in _TS_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp {text!r}")


def make_mined_shout(nick: str, text: str, created: int,
                     parser_config: ParserConfig = DEFAULT_CONFIG) -> Shout:
    """A candidate shout: parsed, whitespace-normalized, source=mined."""
    return build_shout(uuid.uuid4().hex, nick, text, created, parser_config,
                       source=Source.MINED)


def parse_source(spec: SourceSpec) -> ParsedSource:
    """Extract a source's rows; unusable rows are counted, not fatal.

    A row is skipped when it is unmatched (a log line the pattern does not
    match, a dump line that is not JSON) or incomplete, or when its
    timestamp is bad or outside UTC years 1-9999, or its nick or text is blank.
    """
    offset = spec.utc_offset()
    rows, (nick_key, text_key, time_key) = _rows(spec)
    usable, scanned, skipped = [], 0, 0
    try:
        for row in rows:
            scanned += 1
            try:
                created = check_timestamp(_parse_timestamp(row[time_key], offset))
                message = normalize_message(row[text_key])
                nick = normalize_nick(row[nick_key])
            except Exception:  # noqa: BLE001 - unmatched (None) or malformed row
                message = ""
            if message:
                usable.append((nick, message, created))
            else:
                skipped += 1
    except OSError as exc:
        raise UnreadableSource(f"cannot read {spec.path}: {exc}") from exc
    return ParsedSource(usable, scanned, skipped)


def _rows(spec: SourceSpec) -> tuple[Iterator, tuple[str, str, str]]:
    """The rows of one source, and the keys of a row's nick, text and timestamp.

    A chat-log row is the pattern match of one non-blank line, None when the
    line does not match; a dump row is one record.
    """
    if spec.kind is SourceKind.CHAT_LOG:
        return (_chatlog_rows(spec.path, spec.compiled_pattern()),
                ("nick", "text", "timestamp"))
    mapping = spec.field_map()
    keys = (mapping["nick"], mapping["message"], mapping["created"])
    if spec.kind is SourceKind.JSON_DUMP:
        return _json_rows(spec.path), keys
    return _tabular_rows(spec.path, spec.delimiter), keys


def _chatlog_rows(path: str, pattern: re.Pattern) -> Iterator[re.Match | None]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.strip():
                yield pattern.match(line.rstrip("\n"))


def _json_rows(path: str) -> Iterator:
    """The records of a JSON array, or of JSON lines, told apart by the first
    non-blank character; a line that is not JSON is a None row, skipped like
    an unmatched log line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        head = " "
        while head.isspace():
            head = fh.read(1)
        fh.seek(0)
        if head == "[":
            try:
                rows = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise UnreadableSource(f"{path} is not a JSON array: {exc}") from exc
            yield from rows
        else:
            for line in fh:
                if line.strip():
                    try:
                        row = json.loads(line)
                    except (ValueError, RecursionError):
                        row = None
                    yield row


def _tabular_rows(path: str, delimiter: str) -> Iterator[dict]:
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        yield from csv.DictReader(fh, delimiter=delimiter)


def select_shouts(rows: list[tuple[str, str, int]], mode: str = "prefix", *,
                  parser_config: ParserConfig = DEFAULT_CONFIG) -> list[Shout]:
    """Build a candidate shout from each row that is actually a shout.

    prefix: keep messages starting with SHOUT_PREFIX, prefix stripped; tags:
    keep messages carrying one of ``parser_config.ubiquitous_tags``, text
    untouched; all: keep everything. Each kept row is parsed once, and in
    prefix mode a dropped row is not parsed at all.
    """
    if mode == "all":
        return [make_mined_shout(*row, parser_config) for row in rows]
    if mode == "prefix":
        cut = len(SHOUT_PREFIX)
        return [make_mined_shout(nick, message[cut:], created, parser_config)
                for nick, message, created in rows
                if message.startswith(SHOUT_PREFIX) and message[cut:].strip()]
    if mode == "tags":
        kept = []
        for nick, message, created in rows:
            parsed = parse(message, parser_config)
            if parsed.ubiquitous:
                kept.append(build_shout(uuid.uuid4().hex, nick, message, created,
                                        parser_config, source=Source.MINED, parsed=parsed))
        return kept
    raise ValueError(f"unknown selection mode {mode!r}")


def dedup_key(shout: Shout, key: str = "text") -> object:
    """Comparison key: text alone by default, optionally (nick, text)."""
    text = shout.message.rstrip()
    if key == "nick-text":
        return (shout.nick, text)
    if key == "text":
        return text
    raise ValueError(f"unknown dedup key {key!r}")


def dedup(candidates: list[Shout], corpus: set, *, key: str = "text",
          scanned: int | None = None,
          per_source: dict | None = None) -> tuple[list[Shout], MiningReport]:
    """Discard candidates already present; first occurrence wins internally."""
    kept: list[Shout] = []
    seen: set = set()
    discarded = 0
    for candidate in candidates:
        k = dedup_key(candidate, key)
        if k in corpus or k in seen:
            discarded += 1
            continue
        seen.add(k)
        kept.append(candidate)
    report = MiningReport(
        scanned=len(candidates) if scanned is None else scanned,
        candidates=len(candidates),
        duplicates_discarded=discarded,
        kept=len(kept),
        per_source=per_source or {},
    )
    return kept, report


def corpus_from_journal(state: jn.ReplayState, key: str = "text") -> set:
    """The set of stored message texts (or nick/text pairs) in a replayed journal."""
    return {dedup_key(s, key) for s in state.shouts}


def import_shouts(journal: jn.Journal, kept: list[Shout]) -> int:
    """Append kept shouts to an open journal in one staged write."""
    if not kept:
        return 0
    written = int(datetime.now(timezone.utc).timestamp())
    journal.append_many(kept, written)
    return len(kept)


def load_source_spec(path: str) -> SourceSpec:
    """Read one source spec from a key=value file; each key names a SourceSpec field."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = parse_kv(fh.read())
    except OSError as exc:
        raise UnreadableSource(f"cannot read source spec {path}: {exc}") from exc
    except ValueError as exc:
        raise BadPattern(f"{path}: {exc}") from exc
    unknown = sorted(set(values) - {f.name for f in fields(SourceSpec)})
    if unknown:
        raise BadPattern(f"{path}: unknown source spec keys {unknown}")
    if "path" not in values:
        raise BadPattern(f"{path}: source spec needs a 'path' entry")
    try:
        values["kind"] = SourceKind(values.get("kind", "chatlog"))
    except ValueError as exc:
        raise BadPattern(f"{path}: unknown source kind {values['kind']!r}") from exc
    if "mapping" in values:
        pairs = (pair.partition("=") for pair in values["mapping"].split(","))
        values["mapping"] = {target.strip(): source.strip()
                             for target, _, source in pairs}
    try:
        return SourceSpec(**values)
    except BadPattern as exc:
        raise BadPattern(f"{path}: {exc}") from exc


def mine(specs: list[SourceSpec], mode: str, corpus_path: str | None, *,
         key: str = "text", dry_run: bool = False,
         parser_config: ParserConfig = DEFAULT_CONFIG) -> MiningReport:
    """Full pipeline: read every source, select, dedup, and import.

    An import dedups against the state its Journal replayed under the lock,
    so no other writer can append between the replay and the import.
    """
    all_candidates: list[Shout] = []
    per_source: dict = {}
    scanned = 0
    for spec in specs:
        outcome = parse_source(spec)
        selected = select_shouts(outcome.rows, mode, parser_config=parser_config)
        per_source[spec.path] = {
            "scanned": outcome.scanned,
            "skipped": outcome.skipped,
            "candidates": len(selected),
        }
        scanned += outcome.scanned
        all_candidates.extend(selected)
    importing = bool(corpus_path) and not dry_run
    with (jn.Journal(corpus_path) if importing else nullcontext()) as journal:
        # a dry run may name a corpus that only the real import creates
        state = (journal.state if journal else
                 jn.replay(corpus_path) if corpus_path and os.path.exists(corpus_path)
                 else jn.ReplayState())
        kept, report = dedup(all_candidates, corpus_from_journal(state, key),
                             key=key, scanned=scanned, per_source=per_source)
        if journal:
            import_shouts(journal, kept)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aa-mine",
                                     description="Mine historical logs for shouts")
    parser.add_argument("--source", action="append", required=True,
                        help="source spec file (repeatable)")
    parser.add_argument("--mode", choices=("prefix", "tags", "all"),
                        default="prefix")
    parser.add_argument("--corpus", help="journal to dedup against and import into")
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--key", choices=("text", "nick-text"), default="text",
                        help="dedup key; nick-text departs from text-only matching")
    parser.add_argument("--tags",
                        default=",".join(sorted(DEFAULT_CONFIG.ubiquitous_tags)),
                        help="comma-separated ubiquitous tag names for tags mode")
    args = parser.parse_args(argv)

    parser_config = replace(DEFAULT_CONFIG, ubiquitous_tags=csv_set(args.tags))
    try:
        specs = [load_source_spec(p) for p in args.source]
        report = mine(specs, args.mode, args.corpus, key=args.key,
                      dry_run=args.dry_run, parser_config=parser_config)
    except (BadPattern, JournalError, UnreadableSource) as exc:
        print(f"aa-mine: {exc}", file=sys.stderr)
        return 2
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
