"""Lexicon file format and validation."""

from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from amr_logic_aug.lexicon import (
    Lexicon,
    LexiconError,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
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
    assert len(lexicon.attributes) == 40
    assert len(lexicon.extension_entities) == 15
    assert len(lexicon.extension_attributes) == 10
    assert lexicon.entities[0] == "the bald eagle"
    assert lexicon.attributes[0] == "kind"
    assert lexicon.checksum and len(lexicon.checksum) == 64


def test_default_antonyms_are_symmetric():
    lexicon = default_lexicon()
    assert lexicon.antonyms.get("strong") == "weak"
    assert lexicon.antonyms.get("weak") == "strong"
    assert lexicon.antonyms.get("round") is None
    for word, opposite in lexicon.antonyms.items():
        assert lexicon.antonyms[opposite] == word
        assert word != opposite
    assert lexicon.antonyms.get("beautiful") == "ugly"


def test_parse_round_trip():
    lexicon = parse_lexicon(make_source())
    assert lexicon.entities == ("the cat", "Alan")
    assert lexicon.antonyms.get("strong") == "weak"
    assert "the sheep" in lexicon.extension_entities
    assert "the fox" not in lexicon.entities + lexicon.extension_entities
    assert "sleepy" in lexicon.extension_attributes


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
        (dict(entities=("the (odd) dog", "Alan")), "section ENTITY .* line 3"),
        (dict(entities=("the a/b dog", "Alan")), "section ENTITY .* line 3"),
        (dict(entities=('the "odd" dog', "Alan")), "section ENTITY .* line 3"),
        (dict(attributes=("strong", "weak", "round)")), "section ATTRIBUTE .* line 11"),
        (dict(ext_entities=("the (sheep",)), "section EXTENSION_ENTITY .* line 13"),
        (dict(ext_attributes=('sle"epy',)), "section EXTENSION_ATTRIBUTE .* line 15"),
        (
            dict(antonyms=(("strong", "we(ak"), ("we(ak", "strong"))),
            "section ANTONYM .* line 17",
        ),
        (
            dict(antonyms=(("strong", "weak\texternal"), ("weak", "strong"))),
            "antonym rows must be 'word<TAB>antonym' at line 17",
        ),
        # RELATION words are read by nothing, but still checked.
        (dict(relations=("is\tnot",)), "section RELATION entries must have one column at line 6"),
        (dict(relations=("is", "is")), "duplicate entry 'is' in section RELATION"),
        (dict(antonyms=(("strong", ""),)), "empty antonym cell at line 17"),
        (dict(ext_entities=("the cat",)), r"duplicate across entity sections: \['the cat'\]"),
        # A whitespace-only entry is a blank line, so no entry is ever empty.
        (dict(entities=("the cat", " \t ")), "section ENTITY declares 2 entries but has 1"),
        # A (old, new) pair edits the text of the default source.
        (("ENTITY\t2", "ENTITY\t2\t2"), "section header needs exactly one count column at line 2"),
        (("# test lexicon", "the dog"), "entry before any section header at line 1"),
    ],
)
def test_validation_errors(change, message):
    text = make_source().replace(*change) if isinstance(change, tuple) else make_source(**change)
    with pytest.raises(LexiconError, match=message):
        parse_lexicon(text)


def test_count_mismatch_is_rejected():
    text = make_source().replace("ENTITY\t2", "ENTITY\t3")
    with pytest.raises(LexiconError, match="declares 3 entries but has 2"):
        parse_lexicon(text)


def test_the_relation_section_is_required():
    text = make_source().replace("RELATION\t2\nis\nis not\n", "")
    with pytest.raises(LexiconError, match="^missing required section RELATION$"):
        parse_lexicon(text)


def test_count_header_and_line_numbers():
    text = make_source().replace("ENTITY\t2", "ENTITY\ttwo")
    with pytest.raises(LexiconError, match="line"):
        parse_lexicon(text)


def test_a_lexicon_file_error_names_the_file(tmp_path):
    text = make_source() + "\nENTITY\t0"  # a second ENTITY header on line 19
    with pytest.raises(LexiconError, match="^duplicate section header 'ENTITY' at line 19$"):
        parse_lexicon(text)
    path = tmp_path / "lex.tsv"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: duplicate section header 'ENTITY' at line 19"
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert str(err.value) == message
    missing = tmp_path / "missing.tsv"
    with pytest.raises(LexiconError) as err:
        load_lexicon(missing)
    assert str(err.value).startswith(f"cannot read lexicon file {missing}: ")


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


def test_environment_does_not_change_default_lexicon(tmp_path, monkeypatch):
    shipped = resources.files("amr_logic_aug").joinpath("data", "lexicon.tsv").read_bytes()
    path = tmp_path / "custom.tsv"
    path.write_text(make_source(entities=("the fox", "Bob")), encoding="utf-8")
    monkeypatch.setenv("AMR_LOGIC_AUG_LEXICON", str(path))
    lexicon = default_lexicon()
    assert lexicon.checksum == hashlib.sha256(shipped).hexdigest()
    assert lexicon.checksum != load_lexicon(path).checksum
    assert "the fox" not in lexicon.entities


def test_lexicon_is_frozen():
    lexicon = parse_lexicon(make_source())
    with pytest.raises(AttributeError):
        lexicon.entities = ()
    assert isinstance(lexicon, Lexicon)
