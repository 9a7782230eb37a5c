"""Suite configuration: key=value files with AA_-prefixed env overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .parsing import ParserConfig

ENV_PREFIX = "AA_"


def parse_kv(text: str) -> dict[str, str]:
    """Parse simple ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _csv_set(value: str) -> frozenset[str]:
    return frozenset(part.strip().lower() for part in value.split(",") if part.strip())


@dataclass
class SuiteConfig:
    """Server-side settings shared by the suite's tools."""

    port: int = 8484
    host: str = "127.0.0.1"
    journal: str = "aa-journal.jsonl"
    slot: int = 900
    tolerance: int = 300
    ubiquitous_tags: frozenset[str] = frozenset({"aao0"})
    word_lexicon: frozenset[str] = frozenset()
    promo_keywords: frozenset[str] = frozenset()
    intro_lexicon: frozenset[str] = frozenset({"test", "teste", "hello", "oi"})
    min_content_words: int = 3

    _INT_KEYS = ("port", "slot", "tolerance", "min_content_words")
    _SET_KEYS = ("ubiquitous_tags", "word_lexicon", "promo_keywords", "intro_lexicon")

    def apply(self, values: dict[str, str]) -> None:
        known = {f.name for f in fields(self) if not f.name.startswith("_")}
        for key, value in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key in self._INT_KEYS:
                setattr(self, key, int(value))
            elif key in self._SET_KEYS:
                setattr(self, key, _csv_set(value))
            else:
                setattr(self, key, value)

    def parser_config(self) -> ParserConfig:
        return ParserConfig(
            ubiquitous_tags=self.ubiquitous_tags,
            word_lexicon=self.word_lexicon,
            promo_keywords=self.promo_keywords,
            intro_lexicon=self.intro_lexicon,
            min_content_words=self.min_content_words,
        )


def load_config(path: str | None = None,
                env: dict[str, str] | None = None) -> SuiteConfig:
    """Config from an optional file, then AA_* environment overrides."""
    config = SuiteConfig()
    if path:
        with open(path, encoding="utf-8") as fh:
            config.apply(parse_kv(fh.read()))
    env = os.environ if env is None else env
    overrides = {
        key[len(ENV_PREFIX):].lower(): value
        for key, value in env.items()
        if key.startswith(ENV_PREFIX)
    }
    known = {f.name for f in fields(SuiteConfig) if not f.name.startswith("_")}
    config.apply({k: v for k, v in overrides.items() if k in known})
    return config
