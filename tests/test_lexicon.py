"""Lexicon file format and validation."""

from __future__ import annotations

import hashlib
import re
from importlib import resources

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from amr_logic_aug import logic
from amr_logic_aug.corpus import build_corpus, corpus_from_jsonl, corpus_to_jsonl
from amr_logic_aug.files import InputError
from amr_logic_aug.lexicon import (
    Lexicon,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
)
from amr_logic_aug.pairs import build_pairs, verify_records

SHIPPED = resources.files("amr_logic_aug").joinpath("data", "lexicon.tsv").read_bytes()


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
    # The ten extension attributes are checked, not kept; "cautious" is one,
    # and the shipped antonym row reckless -> cautious needs it.
    assert lexicon.antonyms["reckless"] == "cautious"
    assert "cautious" not in lexicon.attributes
    assert lexicon.entities[0] == "the bald eagle"
    assert lexicon.attributes[0] == "kind"
    assert lexicon.checksum == hashlib.sha256(SHIPPED).hexdigest()
    assert lexicon.checksum.startswith("f025777b")


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
        # Entries whose sentences the grammar would read another way.
        (dict(attributes=("strong", "weak", "then")),
         "entry 'then' in section ATTRIBUTE holds the grammar word 'then' at line 11"),
        (dict(entities=("the cat is", "Alan")),
         "entry 'the cat is' in section ENTITY holds the grammar word 'is' at line 3"),
        (dict(entities=("If", "Alan")),
         "entry 'If' in section ENTITY holds the grammar word 'if' at line 3"),
        (dict(ext_entities=("But the sheep",)),
         "entry 'But the sheep' in section EXTENSION_ENTITY holds the grammar word 'but' "
         "at line 13"),
        (dict(entities=("the cat", "Alan", "alan")),
         "entry 'alan' in section ENTITY is 'Alan' once lower-cased at line 5"),
        (dict(ext_entities=("The  Cat",)),
         "entry 'The  Cat' in section EXTENSION_ENTITY is 'the cat' once lower-cased at line 13"),
        # A sentence capitalizes its first word and the parser reads it
        # lower-cased: "ı" comes back "i", "ß" "ss", and "İ" one letter longer.
        (dict(entities=("the cat", "ıo")),
         "entry 'ıo' in section ENTITY does not read back once capitalized and lower-cased "
         "at line 4"),
        (dict(entities=("ßen", "Alan")),
         "entry 'ßen' in section ENTITY does not read back once capitalized and "
         "lower-cased at line 3"),
        (dict(ext_entities=("İa",)),
         "entry 'İa' in section EXTENSION_ENTITY does not read back once capitalized and "
         "lower-cased at line 13"),
        # An attribute fills the one-word predicate slot, an extension
        # attribute through double negation's antonym.
        (dict(attributes=("strong", "weak", "k9")),
         re.escape("entry 'k9' in section ATTRIBUTE is not one word [A-Za-z][A-Za-z-]* "
                   "at line 11")),
        (dict(ext_attributes=("-odd",)),
         re.escape("entry '-odd' in section EXTENSION_ATTRIBUTE is not one word "
                   "[A-Za-z][A-Za-z-]* at line 15")),
        (dict(attributes=("strong", "weak", "very tall")),
         re.escape("entry 'very tall' in section ATTRIBUTE is not one word "
                   "[A-Za-z][A-Za-z-]* at line 11")),
        (dict(ext_attributes=("able to swim",)),
         re.escape("entry 'able to swim' in section EXTENSION_ATTRIBUTE is not one word "
                   "[A-Za-z][A-Za-z-]* at line 15")),
    ],
)
def test_validation_errors(change, message):
    text = make_source().replace(*change) if isinstance(change, tuple) else make_source(**change)
    with pytest.raises(InputError, match=message):
        parse_lexicon(text)


@pytest.mark.parametrize(
    "change, words",
    [
        (dict(entities=("the bald eagle", "the jack-o-lantern", "Zoë")),
         {"the bald eagle", "the jack-o-lantern", "Zoë"}),
        (dict(entities=("the cat", "you"), attributes=("strong", "weak", "bob")), {"you", "bob"}),
        # An extension attribute is kept only as an antonym target.
        (dict(ext_attributes=("blue-green",),
              antonyms=(("round", "blue-green"), ("blue-green", "round"))), {"blue-green"}),
    ],
    ids=["multi-word-hyphen-non-ascii", "you-and-bob", "extension-attributes"],
)
def test_entries_that_hold_no_grammar_word_load(change, words):
    lexicon = parse_lexicon(make_source(**change))
    assert words <= {*lexicon.entities, *lexicon.attributes, *lexicon.antonyms}


_WORD = st.lists(
    st.text(st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo")), min_size=1, max_size=6),
    min_size=1, max_size=3,
).map("-".join)


@settings(max_examples=150, deadline=None)
@given(
    entities=st.lists(
        st.one_of(st.just("you"), _WORD, _WORD.map("the {}".format),
                  st.lists(_WORD, min_size=2, max_size=3).map(" ".join)),
        min_size=1, max_size=5, unique=True,
    ),
    attributes=st.lists(st.from_regex(r"[A-Za-z][A-Za-z-]{0,7}", fullmatch=True),
                        min_size=2, max_size=6, unique=True),
    count=st.integers(2, 40),
    seed=st.integers(0, 99),
)
def test_the_sentences_of_every_loaded_lexicon_round_trip(
    tmp_path_factory, entities, attributes, count, seed
):
    """Entities of multi-word, hyphenated and non-ASCII words and "you",
    and one mirrored antonym pair: a lexicon that loads makes a corpus that
    reads back equal, and 1:3 pairs whose oracle replay finds no problem,
    unless the corpus holds fewer than four meanings, which can leave the
    sample arm no nonequivalent sentence to draw."""
    pair = attributes[:2]
    source = make_source(entities=entities, attributes=attributes, ext_entities=(),
                         ext_attributes=(), antonyms=(pair, pair[::-1]))
    try:
        lexicon = parse_lexicon(source)
    except InputError:
        reject()
    try:
        built = build_corpus(lexicon, count, None, seed)
    except InputError as err:  # more sentences than the lexicon makes
        assert str(err).startswith("unreachable target: "), err
        reject()
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    corpus_to_jsonl(built, path)
    assert corpus_from_jsonl(path, lexicon) == built
    try:
        records = build_pairs(built, lexicon, "1:3", seed)
    except InputError:  # e.g. "You are A." and "You are B." alone, A and B antonyms
        if len({logic.meaning(sentence.struct, lexicon) for sentence in built}) >= 4:
            raise
        reject()
    assert len(records) == 4 * count
    assert verify_records(records, lexicon) == []


def test_count_mismatch_is_rejected():
    text = make_source().replace("ENTITY\t2", "ENTITY\t3")
    with pytest.raises(InputError, match="declares 3 entries but has 2"):
        parse_lexicon(text)


def test_the_relation_section_is_required():
    text = make_source().replace("RELATION\t2\nis\nis not\n", "")
    with pytest.raises(InputError, match="^missing required section RELATION$"):
        parse_lexicon(text)


def test_count_header_and_line_numbers():
    text = make_source().replace("ENTITY\t2", "ENTITY\ttwo")
    with pytest.raises(InputError, match="line"):
        parse_lexicon(text)


def test_a_lexicon_file_error_names_the_file(tmp_path):
    text = make_source() + "\nENTITY\t0"  # a second ENTITY header on line 19
    with pytest.raises(InputError, match="^duplicate section header 'ENTITY' at line 19$"):
        parse_lexicon(text)
    path = tmp_path / "lex.tsv"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: duplicate section header 'ENTITY' at line 19"
    with pytest.raises(InputError) as err:
        load_lexicon(path)
    assert str(err.value) == message
    missing = tmp_path / "missing.tsv"
    with pytest.raises(InputError) as err:
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


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c", "\x0b"],
                         ids=["U+2028", "U+0085", "form-feed", "vertical-tab"])
def test_only_a_line_end_breaks_a_lexicon_line(tmp_path, separator):
    """A lexicon's lines break as every data file's do, at ``\\n``,
    ``\\r\\n`` and ``\\r`` only."""
    text = SHIPPED.decode("utf-8")
    path = tmp_path / "lexicon.tsv"
    path.write_text(text.replace("# Default lexicon", f"# Default{separator}lexicon"),
                    encoding="utf-8")
    assert load_lexicon(path)[:-1] == default_lexicon()[:-1]  # all but the checksum
    path.write_text(text.replace("\nquiet\n", f"\nqu{separator}iet\n"), encoding="utf-8")
    word = repr(f"qu{separator}iet")
    message = f"{path}: entry {word} in section ATTRIBUTE is not one word [A-Za-z][A-Za-z-]* "
    with pytest.raises(InputError, match="^" + re.escape(message + "at line 33") + "$"):
        load_lexicon(path)


def test_a_byte_that_is_not_utf8_is_located_in_a_cr_only_lexicon(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(SHIPPED.replace(b"\n", b"\r").replace(b"Alan", b"Al\xe1n"))
    with pytest.raises(InputError, match="^" + re.escape(f"{path}: line 20 is not UTF-8 text")):
        load_lexicon(path)


def test_environment_does_not_change_default_lexicon(tmp_path, monkeypatch):
    path = tmp_path / "custom.tsv"
    path.write_text(make_source(entities=("the fox", "Bob")), encoding="utf-8")
    monkeypatch.setenv("AMR_LOGIC_AUG_LEXICON", str(path))
    lexicon = default_lexicon()
    assert lexicon.checksum == hashlib.sha256(SHIPPED).hexdigest()
    assert lexicon.checksum != load_lexicon(path).checksum
    assert "the fox" not in lexicon.entities


def test_lexicon_is_frozen():
    lexicon = parse_lexicon(make_source())
    with pytest.raises(AttributeError):
        lexicon.entities = ()
    assert isinstance(lexicon, Lexicon)
