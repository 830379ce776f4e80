"""Lexicon file format, validation, and overrides."""

from __future__ import annotations

import pytest

from amr_logic_aug.lexicon import (
    ENV_LEXICON_PATH,
    Lexicon,
    LexiconError,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
    with_overrides,
)


def make_source(
    entities=("the cat", "Alan"),
    relations=("is", "is not"),
    attributes=("strong", "weak", "round"),
    ext_entities=("the sheep",),
    ext_attributes=("sleepy",),
    antonyms=(("strong", "weak"), ("weak", "strong")),
):
    def section(name, rows):
        lines = [f"{name}\t{len(rows)}"]
        lines += list(rows)
        return "\n".join(lines)

    return "\n".join(
        [
            "# test lexicon",
            section("ENTITY", entities),
            section("RELATION", relations),
            section("ATTRIBUTE", attributes),
            section("EXTENSION_ENTITY", ext_entities),
            section("EXTENSION_ATTRIBUTE", ext_attributes),
            section("ANTONYM", [f"{a}\t{b}" for a, b in antonyms]),
        ]
    )


def test_default_lexicon_shape():
    lexicon = default_lexicon()
    assert len(lexicon.entities) == 23
    assert len(lexicon.relations) == 2
    assert len(lexicon.attributes) == 40
    assert len(lexicon.extension_entities) == 15
    assert len(lexicon.extension_attributes) == 10
    assert lexicon.entities[0] == "the bald eagle"
    assert lexicon.relations == ("is", "is not")
    assert lexicon.attributes[0] == "kind"
    assert lexicon.checksum and len(lexicon.checksum) == 64


def test_default_antonyms_are_symmetric():
    lexicon = default_lexicon()
    assert lexicon.antonym_of("strong") == "weak"
    assert lexicon.antonym_of("weak") == "strong"
    assert lexicon.antonym_of("round") is None
    for word, opposite in lexicon.antonyms.items():
        assert lexicon.antonyms[opposite] == word
        assert word != opposite
    assert lexicon.antonym_of("beautiful") == "ugly"


def test_parse_round_trip():
    lexicon = parse_lexicon(make_source())
    assert lexicon.entities == ("the cat", "Alan")
    assert lexicon.antonym_of("strong") == "weak"
    assert lexicon.is_entity("the cat") and lexicon.is_entity("the sheep")
    assert not lexicon.is_entity("the fox")
    assert "sleepy" in lexicon.all_attributes
    assert "the sheep" in lexicon.all_entities


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(entities=("the cat", "the cat")), "duplicate"),
        (dict(antonyms=(("strong", "weak"),)), "asymmetric"),
        (dict(antonyms=(("strong", "strong"), ("weak", "weak"))), "reflexive"),
        (
            dict(antonyms=(("strong", "weak"), ("weak", "strong"), ("round", "weak"), ("weak", "round"))),
            "to both",
        ),
        (dict(antonyms=(("strong", "missing"), ("missing", "strong"))), "unknown"),
        (dict(ext_attributes=("strong",)), "duplicate"),
    ],
)
def test_validation_errors(change, message):
    base = dict(
        entities=("the cat", "Alan"),
        relations=("is", "is not"),
        attributes=("strong", "weak", "round"),
        ext_entities=("the sheep",),
        ext_attributes=("sleepy",),
        antonyms=(("strong", "weak"), ("weak", "strong")),
    )
    base.update(change)
    with pytest.raises(LexiconError, match=message):
        parse_lexicon(make_source(**base))


def test_count_mismatch_is_rejected():
    text = make_source().replace("ENTITY\t2", "ENTITY\t3")
    with pytest.raises(LexiconError, match="declares 3 entries but has 2"):
        parse_lexicon(text)


def test_count_header_and_line_numbers():
    text = make_source().replace("ENTITY\t2", "ENTITY\ttwo")
    with pytest.raises(LexiconError, match="line"):
        parse_lexicon(text)


def test_load_lexicon_checksum_tracks_bytes(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(make_source(), encoding="utf-8")
    first = load_lexicon(path)
    assert first.checksum
    path.write_text(make_source() + "\n# trailing comment\n", encoding="utf-8")
    second = load_lexicon(path)
    assert first.checksum != second.checksum
    # content identical apart from the comment
    assert first.entities == second.entities


def test_env_override(tmp_path, monkeypatch):
    path = tmp_path / "custom.tsv"
    path.write_text(make_source(entities=("the fox", "Bob")), encoding="utf-8")
    monkeypatch.setenv(ENV_LEXICON_PATH, str(path))
    lexicon = default_lexicon()
    assert lexicon.entities == ("the fox", "Bob")


def test_with_overrides_rebuilds_and_revalidates():
    base = parse_lexicon(make_source())
    replaced = with_overrides(base, entities=["the owl"])
    assert replaced.entities == ("the owl",)
    assert replaced.attributes == base.attributes
    swapped = with_overrides(base, antonym_pairs=[("strong", "round")])
    assert swapped.antonym_of("round") == "strong"
    with pytest.raises(LexiconError):
        with_overrides(base, attributes=["solo"], antonym_pairs=[("solo", "gone")])
    with pytest.raises(LexiconError):
        with_overrides(base, entities=["dup", "dup"])


def test_lexicon_is_frozen():
    lexicon = parse_lexicon(make_source())
    with pytest.raises(AttributeError):
        lexicon.entities = ()
    assert isinstance(lexicon, Lexicon)
