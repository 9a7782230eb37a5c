"""Settings for every tool: key=value files with AA_-prefixed env overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import TypeVar

from .model import DEFAULT_SLOT, DEFAULT_TOLERANCE
from .parsing import ParserConfig
from .sessions import SlotGrid

ENV_PREFIX = "AA_"

T = TypeVar("T")


def parse_kv(text: str) -> dict[str, str]:
    """Parse simple ``key = value`` lines.

    A line whose first non-blank character is ``#`` is a comment; a ``#``
    anywhere else is part of the line, so a value may contain one.
    """
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def csv_set(value: str) -> frozenset[str]:
    """A comma-separated list as a set of lowercase, non-empty entries."""
    return frozenset(part.strip().lower() for part in value.split(",") if part.strip())


# how a setting's text is read, by its field's annotation
_READERS = {"int": int, "float": float, "str": str, "frozenset[str]": csv_set}


def load_settings(cls: type[T], path: str | None, env: dict[str, str] | None,
                  keys: tuple[str, ...] | None = None) -> T:
    """Build ``cls`` from its defaults, then a key=value file, then AA_<KEY> variables.

    ``keys`` names the settable fields (default: all of them). A file key
    that names no setting is an error; such an AA_ variable is ignored.
    """
    readers = {f.name: _READERS[f.type] for f in fields(cls)
               if keys is None or f.name in keys}
    values: dict[str, str] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            values = parse_kv(fh.read())
        for key in values:
            if key not in readers:
                raise ValueError(f"unknown config key {key!r}")
    env = os.environ if env is None else env
    for name, value in env.items():
        key = name[len(ENV_PREFIX):].lower()
        if name.startswith(ENV_PREFIX) and key in readers:
            values[key] = value
    return cls(**{key: readers[key](value) for key, value in values.items()})


@dataclass(frozen=True)
class SuiteConfig(ParserConfig):
    """Server-side settings: the parser vocabulary plus where and how to serve."""

    port: int = 8484
    host: str = "127.0.0.1"
    journal: str = "aa-journal.jsonl"
    slot: int = DEFAULT_SLOT
    tolerance: int = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        SlotGrid(0, self.slot, self.tolerance)


def load_config(path: str | None = None,
                env: dict[str, str] | None = None) -> SuiteConfig:
    """Config from an optional file, then AA_* environment overrides."""
    return load_settings(SuiteConfig, path, env)
