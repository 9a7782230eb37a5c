"""Seeded inputs for the benchmark: journals, chat logs and request scripts.

Everything here is a pure function of the seed and writes files in the
formats the suite reads: the JSON-lines journal and the
``[YYYY-MM-DD HH:MM:SS] <nick> text`` chat log. A journal and the chat log
mined into it draw their message texts from one pool, without
replacement, so an exact duplicate exists only where ``write_chatlog``
plants one on purpose.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from datetime import datetime, timezone

BASE_TIME = 1_600_000_000
SLOT = 900
SHOUTS_PER_SESSION = 8
# shares of a chat log: lines with the ``;aa`` prefix, and of those, the
# planted copies of a journal text and repeats of an earlier prefixed line
PREFIXED_SHARE = 0.4
JOURNAL_DUP_SHARE = 0.1
REPEAT_SHARE = 0.05

_SYLLABLES = ("ka", "lo", "mi", "ru", "te", "sa", "po", "ni", "ve", "do",
              "gu", "fe", "ha", "zi", "bo", "ty", "ar", "en", "ul", "os")
WORDS = tuple(a + b + c for a in _SYLLABLES for b in _SYLLABLES
              for c in ("", "n", "s"))
TAGS = ("coding", "review", "docs", "ops", "design", "test", "aao0", "infra")


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def nicks(count: int) -> list[str]:
    return [f"user{i:02d}" for i in range(count)]


class Texts:
    """Unique message texts; Zipf-skewed words so token statistics have a head."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()
        self._cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(len(WORDS))))

    def fresh(self) -> str:
        while True:
            words = self.rng.choices(WORDS, cum_weights=self._cum_weights,
                                     k=self.rng.randint(4, 9))
            if self.rng.random() < 0.35:
                words.append("#" + self.rng.choice(TAGS))
            if self.rng.random() < 0.1:
                words.insert(0, "+" + self.rng.choice(TAGS))
            text = " ".join(words)
            if text not in self.taken:
                self.taken.add(text)
                return text


def _hex_id(rng: random.Random) -> str:
    return f"{rng.getrandbits(128):032x}"


def _tags(text: str) -> list[dict]:
    tags = []
    for token in text.split():
        if token[0] in "#+" and token[1:]:
            form = "hash" if token[0] == "#" else "plus"
            tags.append({"form": form, "name": token[1:], "scope": "shout_only"})
    return tags


def _shout(rng, nick, text, created, kind="shout", session=None) -> dict:
    return {"id": _hex_id(rng), "nick": nick, "message": text,
            "created": created, "source": "http", "kind": kind,
            "tags": _tags(text), "session": session, "deviation": None,
            "client_created": None, "topic": None}


def _session(event, sid, nick, start, end, shouts=(), report=None,
             validator=None) -> dict:
    return {"event": event, "id": sid, "user": nick, "origin": "explicit",
            "start": start, "end": end, "slot": SLOT, "shouts": list(shouts),
            "screencast": None, "report": report, "validator": validator}


def build_journal(seed: int, records: int, user_count: int,
                  texts: Texts) -> list[tuple[str, dict]]:
    """Record items of a journal with sessions, lost slots and reviews.

    Users take turns on one timeline. The sessions begun within the last
    few dozen records stay open, so listings have open sessions to render.
    """
    rng = random.Random(seed)
    users = nicks(user_count)
    items: list[tuple[str, dict]] = []
    t = BASE_TIME
    turn = 0
    while len(items) < records:
        nick = users[turn % user_count]
        turn += 1
        if rng.random() < 0.15:
            items.append(("shout", _shout(rng, nick, texts.fresh(), t)))
            t += rng.randint(60, 600)
            continue
        sid = _hex_id(rng)
        start = t
        items.append(("shout", _shout(rng, nick, "start", start, "start", sid)))
        items.append(("session", _session("open", sid, nick, start, start)))
        lost = rng.randrange(SHOUTS_PER_SESSION) if rng.random() < 0.2 else None
        members = []
        for k in range(SHOUTS_PER_SESSION):
            if k == lost:
                members.append(_shout(rng, nick, "lost timeslot", start + k * SLOT,
                                      "lost_timeslot", sid))
            else:
                created = start + k * SLOT + rng.randint(-240 if k else 0, 240)
                members.append(_shout(rng, nick, texts.fresh(), created, "shout", sid))
        members.sort(key=lambda s: s["created"])
        items.extend(("shout", s) for s in members)
        end = start + (SHOUTS_PER_SESSION - 1) * SLOT + rng.randint(0, 300)
        t = end + rng.randint(300, 3600)
        if records - len(items) < 50:
            continue
        items.append(("shout", _shout(rng, nick, "stop", end, "stop", sid)))
        validator = users[(turn + rng.randrange(user_count - 1)) % user_count]
        report = {"ideal": lost is None, "per_shout": [],
                  "lost_slots": [] if lost is None else [lost]}
        items.append(("session", _session("close", sid, nick, start, end,
                                          [s["id"] for s in members],
                                          report, validator)))
        if rng.random() < 0.5:
            items.append(("review", {"session": sid, "reviewer": validator,
                                     "score": round(rng.random(), 2),
                                     "comment": None, "created": end + 600}))
    return items[:records]


def write_journal(path: str, items: list[tuple[str, dict]]) -> None:
    """Write items in the journal's on-disk format, seq 1..N."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq, (rtype, data) in enumerate(items, start=1):
            written = data.get("created", data.get("end", BASE_TIME))
            fh.write(json.dumps({"seq": seq, "written": written, "type": rtype,
                                 "data": data}, sort_keys=True) + "\n")


def shout_texts(items: list[tuple[str, dict]]) -> list[str]:
    return [data["message"] for rtype, data in items
            if rtype == "shout" and data["kind"] == "shout"]


def write_chatlog(path: str, seed: int, lines: int, journal_texts: list[str],
                  texts: Texts) -> dict:
    """A chat log with planted ``;aa`` lines and planted exact duplicates.

    Returns the counts a prefix-mode mining run must report.
    """
    rng = random.Random(seed + 2)
    users = nicks(12)
    prefixed = round(lines * PREFIXED_SHARE)
    journal_dups = round(prefixed * JOURNAL_DUP_SHARE)
    repeats = round(prefixed * REPEAT_SHARE)
    kinds = (["dup"] * journal_dups + ["repeat"] * repeats
             + ["new"] * (prefixed - journal_dups - repeats)
             + ["chatter"] * (lines - prefixed))
    rng.shuffle(kinds)
    # a repeat needs an earlier prefixed original to copy
    first_new = kinds.index("new")
    if "repeat" in kinds[:first_new]:
        kinds[kinds.index("repeat")], kinds[first_new] = "new", "repeat"
    dup_pool = rng.sample(journal_texts, journal_dups)
    sent: list[str] = []
    kept_bytes = 0
    t = BASE_TIME - 86_400 * 30
    with open(path, "w", encoding="utf-8") as fh:
        for kind in kinds:
            t += rng.randint(1, 180)
            stamp = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
            if kind == "chatter":
                text = texts.fresh()
            elif kind == "dup":
                text = ";aa " + dup_pool.pop()
            elif kind == "repeat":
                text = ";aa " + rng.choice(sent)
            else:
                body = texts.fresh()
                sent.append(body)
                kept_bytes += len(body.encode())
                text = ";aa " + body
            fh.write(f"[{stamp}] <{rng.choice(users)}> {text}\n")
    return {"scanned": lines, "candidates": prefixed,
            "duplicates_discarded": journal_dups + repeats,
            "kept": prefixed - journal_dups - repeats, "kept_bytes": kept_bytes}


def ingest_script(seed: int, clients: int, shouts: int) -> list[dict]:
    """Per client: a nick and the shout texts its `aa start` loops send."""
    rng = random.Random(seed + 3)
    texts = Texts(random.Random(seed + 4))
    return [{"nick": f"bench{c}-{rng.randrange(1000):03d}",
             "shouts": [texts.fresh() for _ in range(shouts)]}
            for c in range(clients)]


def readmix_script(seed: int, clients: int, ops: int, user_count: int) -> list[list[dict]]:
    """Per client: GET /report, GET /shouts for one nick, 1 in 10 a POST /shout."""
    rng = random.Random(seed + 5)
    texts = Texts(random.Random(seed + 6))
    users = nicks(user_count)
    script = []
    for _ in range(clients):
        ops_list = []
        for _ in range(ops):
            draw = rng.random()
            if draw < 0.1:
                ops_list.append({"op": "shout", "nick": rng.choice(users),
                                 "msg": texts.fresh()})
            elif draw < 0.55:
                ops_list.append({"op": "report"})
            else:
                ops_list.append({"op": "listing", "nick": rng.choice(users)})
        script.append(ops_list)
    return script


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
