import pytest

from aa.client import load_client_config
from aa.config import load_config, parse_kv
from aa.store import Store


def test_parse_kv_basics():
    values = parse_kv("a = 1\n# comment\nb=two words  \n\n")
    assert values == {"a": "1", "b": "two words"}


def test_parse_kv_rejects_bare_words():
    with pytest.raises(ValueError):
        parse_kv("not-a-pair\n")


def test_defaults():
    config = load_config(env={})
    assert config.slot == 900
    assert config.tolerance == 300
    assert config.ubiquitous_tags == frozenset({"aao0"})


def test_file_values(tmp_path):
    path = tmp_path / "aa.conf"
    path.write_text("port = 9999\njournal = /tmp/x.jsonl\n"
                    "ubiquitous_tags = aao0, AAO1\n"
                    "promo_keywords = meetup,webinar\n")
    config = load_config(str(path), env={})
    assert config.port == 9999
    assert config.journal == "/tmp/x.jsonl"
    assert config.ubiquitous_tags == frozenset({"aao0", "aao1"})
    assert config.promo_keywords == frozenset({"meetup", "webinar"})


def test_env_overrides_file(tmp_path):
    path = tmp_path / "aa.conf"
    path.write_text("port = 9999\nslot = 600\ntolerance = 120\n")
    # AA_GAP names no config key: ignored, not an error
    config = load_config(str(path), env={"AA_PORT": "7777", "AA_GAP": "60"})
    assert config.port == 7777
    assert config.slot == 600


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "aa.conf"
    path.write_text("frobnicate = yes\n")
    with pytest.raises(ValueError):
        load_config(str(path), env={})


def test_suite_config_is_the_store_parser_config(tmp_path):
    config = load_config(env={"AA_WORD_LEXICON": "coding,reading"})
    store = Store(str(tmp_path / "j.jsonl"), parser_config=config)
    try:
        shout = store.receive_shout("bob", "reading the spec")
    finally:
        store.close()
    assert [t.surface for t in shout.tags] == ["reading"]


def test_invalid_grid_refused_on_load(tmp_path):
    path = tmp_path / "aa.conf"
    path.write_text("slot = 900\ntolerance = 500\n")
    with pytest.raises(ValueError, match="need slot > 0"):
        load_config(str(path), env={})
    empty = tmp_path / "empty.conf"
    empty.write_text("")
    with pytest.raises(ValueError, match="need slot > 0"):
        load_config(str(empty), env={"AA_TOLERANCE": "450"})


def test_client_unknown_key_rejected(tmp_path):
    path = tmp_path / "client.conf"
    path.write_text("nick = bob\ntimeout = 5\n")  # timeout is not settable
    with pytest.raises(ValueError, match="unknown config key 'timeout'"):
        load_client_config(str(path), env={})


def test_client_env_ignores_unknown_names(tmp_path):
    config = load_client_config(str(tmp_path / "missing.conf"),
                                env={"AA_NICK": "eve", "AA_TIMEOUT": "1", "AA_GAP": "9"})
    assert config.nick == "eve"
    assert config.timeout == 10.0


def test_parse_kv_hash_inside_a_value_is_kept():
    values = parse_kv("pattern = ^<(?P<nick>[^>]+)> #aa (?P<text>.*)$\n"
                      "path = /logs/#aa/team.log\n"
                      "   # an indented full-line comment\n")
    assert values == {"pattern": "^<(?P<nick>[^>]+)> #aa (?P<text>.*)$",
                      "path": "/logs/#aa/team.log"}
