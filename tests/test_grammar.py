"""Controlled-grammar parsing, graph encoding, and realization."""

from __future__ import annotations

import random
import re
import sys

import pytest

from amr_logic_aug import grammar
from amr_logic_aug.graph import Constant, parse_penman, serialize
from amr_logic_aug.grammar import (
    CORE,
    EXTENDED,
    Clause,
    GrammarError,
    GrammarSentence,
    GrammarStructureError,
    Shape,
    build_graph,
    canonicalize,
    parse_sentence,
    parse_sentence_struct,
    read_graph,
    realize,
    realize_struct,
)
from amr_logic_aug.lexicon import with_overrides


# ---------------------------------------------------------------------------
# Text normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("The bald eagle isn't kind.", "The bald eagle is not kind."),
        ("The bald eagle wasn't kind.", "The bald eagle is not kind."),
        ("The bald eagle  is   kind.", "The bald eagle is kind."),
        ("And the bald eagle is kind.", "The bald eagle is kind."),
        ("But the bald eagle is kind.", "The bald eagle is kind."),
        # Unicode apostrophes normalize like ASCII ones.
        ("The bald eagle isn’t kind.", "The bald eagle is not kind."),
    ],
)
def test_canonicalize_normalizes_surface(lexicon, text, canonical):
    assert canonicalize(text, lexicon) == canonical


def normalize_reference(text):
    """The normalizer as strip, contraction expansion, then whitespace collapse."""
    text = text.replace("’", "'").strip()
    text = grammar._CONTRACTION_RE.sub(
        lambda m: grammar._CONTRACTIONS[m.group(1).lower()], text
    )
    return re.sub(r"\s+", " ", text)


_NORMALIZER_PIECES = (
    "the", "bald", "eagle", "Alan", "is", "not", "kind", ",", ".", "x",
    "isn't", "ISN'T", "Isn’t", "doesn’t", "Doesn’t", "DOESN'T", "can't",
    "won’t", "WeReN't", "aren’t", "don't", "wasn't", "'", "’", "isn", "t",
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\u00a0", "\u2003",
    "\u001c", "\u001f", "\u0085", "\u2028", "\u3000", "\u200b",
)


@pytest.mark.parametrize(
    "text",
    [
        "\tThe bald eagle\tisn't\nkind.\n",
        "The\u00a0bald eagle\u2003is\u001ckind.",
        "ISN'T Doesn’t doesn't CAN’T won't",
        "The cat isn’tkind",
        "xisn't isn'tx isn''t",
        "  \u00a0 ",
        "",
    ],
)
def test_normalize_text_matches_the_reference(text):
    assert grammar._normalize_text(text) == normalize_reference(text)


def test_normalize_text_matches_the_reference_on_seeded_texts():
    rng = random.Random(0)
    for _ in range(3000):
        pieces = rng.choices(_NORMALIZER_PIECES, k=rng.randint(0, 12))
        text = "".join(
            piece + rng.choice(("", " ", "", "\t")) for piece in pieces
        )
        assert grammar._normalize_text(text) == normalize_reference(text), repr(text)


def test_regex_whitespace_is_str_isspace():
    # The normalizer collapses whitespace with str.split, the reference
    # with \s; they agree because both classes hold the same code points.
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", every_code_point)) == {
        ch for ch in every_code_point if ch.isspace()
    }


def test_past_tense_recorded_then_normalized(lexicon):
    struct = parse_sentence_struct("The lion was thin.", lexicon)
    assert struct.clauses[0].tense == "past"
    assert realize(build_graph(struct)) == "The lion is thin."


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def test_atomic_shape(lexicon):
    struct = parse_sentence_struct("The bald eagle is kind.", lexicon)
    assert struct.shape is Shape.ATOMIC
    assert struct.clauses == (Clause("the bald eagle", "kind"),)


def test_and_pair_shape(lexicon):
    struct = parse_sentence_struct(
        "The bald eagle is kind and the wolf is not dull.", lexicon
    )
    assert struct.shape is Shape.AND_PAIR
    assert struct.clauses == (
        Clause("the bald eagle", "kind"),
        Clause("the wolf", "dull", negated=True),
    )


def test_or_pair_shape(lexicon):
    struct = parse_sentence_struct(
        "The bear is not sleepy or Bob is not cute.", lexicon
    )
    assert struct.shape is Shape.OR_PAIR
    assert struct.clauses == (
        Clause("the bear", "sleepy", negated=True),
        Clause("Bob", "cute", negated=True),
    )


def test_leading_conditional(lexicon):
    struct = parse_sentence_struct(
        "If the lion is funny, then the tiger is beautiful.", lexicon
    )
    assert struct.shape is Shape.IF_THEN
    assert not struct.trailing_condition
    # Clause order is always (antecedent, consequent).
    assert struct.clauses[0].subject == "the lion"
    assert struct.clauses[1].subject == "the tiger"


def test_leading_conditional_without_then(lexicon):
    struct = parse_sentence_struct(
        "If the lion is funny, the tiger is beautiful.", lexicon
    )
    assert struct.shape is Shape.IF_THEN
    assert struct.clauses[0].subject == "the lion"


def test_trailing_conditional(lexicon):
    struct = parse_sentence_struct("The wolf is dull if the lion is funny.", lexicon)
    assert struct.shape is Shape.IF_THEN
    assert struct.trailing_condition
    assert struct.clauses[0].subject == "the lion"
    assert struct.clauses[1].subject == "the wolf"
    assert realize(build_graph(struct)) == "The wolf is dull if the lion is funny."


def test_unless_parses_as_trailing_condition(lexicon):
    struct = parse_sentence_struct(
        "The bald eagle isn't small, unless the mouse is small.", lexicon
    )
    assert struct.shape is Shape.UNLESS
    assert struct.trailing_condition
    assert struct.clauses == (
        Clause("the mouse", "small"),
        Clause("the bald eagle", "small", negated=True),
    )
    # UNLESS is parse-only: realization falls back to the trailing-if surface.
    assert (
        realize(build_graph(struct))
        == "The bald eagle is not small if the mouse is small."
    )


def test_sentence_struct_arity_is_checked():
    with pytest.raises(GrammarError, match="needs 2 clause"):
        GrammarSentence(Shape.AND_PAIR, (Clause("you", "kind"),))
    with pytest.raises(GrammarError, match="needs 1 clause"):
        GrammarSentence(
            Shape.ATOMIC, (Clause("you", "kind"), Clause("you", "dull"))
        )


# ---------------------------------------------------------------------------
# Graph encoding
# ---------------------------------------------------------------------------


def test_build_graph_exact_serialization(lexicon):
    graph = parse_sentence(
        "The bald eagle is kind and the bald eagle is clever.", lexicon
    )
    # Variable names collide on first letters and get numeric suffixes.
    assert serialize(graph) == (
        "(a / and"
        " :op1 (k / kind :domain (t / the-bald-eagle))"
        " :op2 (c / clever :domain (t2 / the-bald-eagle)))"
    )


def test_negation_becomes_polarity_edge(lexicon):
    graph = parse_sentence("The bald eagle is not kind.", lexicon)
    assert serialize(graph) == "(k / kind :polarity - :domain (t / the-bald-eagle))"


def test_conditional_edge_order_tracks_surface(lexicon):
    leading = parse_sentence(
        "If the lion is funny, then the tiger is beautiful.", lexicon
    )
    trailing = parse_sentence(
        "The tiger is beautiful if the lion is funny.", lexicon
    )
    assert [role for _, role, _ in leading.out_edges(leading.root)] == [
        ":condition",
        ":domain",
    ]
    assert [role for _, role, _ in trailing.out_edges(trailing.root)] == [
        ":domain",
        ":condition",
    ]
    assert read_graph(leading).trailing_condition is False
    assert read_graph(trailing).trailing_condition is True


@pytest.mark.parametrize(
    "text",
    [
        "The bald eagle is kind.",
        "The bald eagle is not kind.",
        "The bald eagle is kind and the wolf is not dull.",
        "The lion is funny or the tiger is beautiful.",
        "If the lion is funny, then the tiger is beautiful.",
        "The tiger is beautiful if the lion is funny.",
        "Alan is kind.",
    ],
)
def test_parse_realize_round_trip(lexicon, text):
    graph = parse_sentence(text, lexicon)
    assert realize(graph) == text
    # The graph itself survives a struct round trip.
    assert build_graph(read_graph(graph)) == graph


# ---------------------------------------------------------------------------
# Extended grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, negated, predicate, realized",
    [
        (
            "You can use a computer.",
            False,
            "able to use a computer",
            "You are able to use a computer.",
        ),
        (
            "You cannot write your essays.",
            True,
            "able to write your essays",
            "You are not able to write your essays.",
        ),
        (
            "You can not use a computer.",
            True,
            "able to use a computer",
            "You are not able to use a computer.",
        ),
        (
            "You have no keyboarding skills.",
            True,
            "have keyboarding skills",
            "You do not have keyboarding skills.",
        ),
        (
            "You have at least some keyboarding skills.",
            False,
            "have keyboarding skills",
            "You have keyboarding skills.",
        ),
        (
            "You do not have keyboarding skills.",
            True,
            "have keyboarding skills",
            "You do not have keyboarding skills.",
        ),
        ("You will be tired.", False, "tired", "You are tired."),
        ("You will not be tired at all.", True, "tired", "You are not tired."),
    ],
)
def test_extended_verb_phrases(lexicon, text, negated, predicate, realized):
    struct = parse_sentence_struct(text, lexicon, grammar=EXTENDED)
    clause = struct.clauses[0]
    assert clause.subject == "you"
    assert clause.negated is negated
    assert clause.predicate == predicate
    assert realize(build_graph(struct)) == realized


def test_extended_round_trip_is_stable(lexicon):
    text = "You are not able to use a computer if you have no keyboarding skills."
    once = canonicalize(text, lexicon, grammar=EXTENDED)
    assert once == (
        "You are not able to use a computer if you do not have keyboarding skills."
    )
    assert canonicalize(once, lexicon, grammar=EXTENDED) == once


def test_core_rejects_extended_phrases(lexicon):
    with pytest.raises(GrammarError, match="expected copula"):
        parse_sentence_struct("You have keyboarding skills.", lexicon, grammar=CORE)
    with pytest.raises(GrammarError, match="expected copula"):
        parse_sentence_struct("Alan can swim.", lexicon, grammar=CORE)


def test_unknown_grammar_level(lexicon):
    with pytest.raises(ValueError, match="unknown grammar level"):
        parse_sentence_struct("The bald eagle is kind.", lexicon, grammar="loose")


# ---------------------------------------------------------------------------
# Out-of-grammar text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, reason",
    [
        ("", "empty sentence"),
        ("   ", "empty sentence"),
        ("Is the bald eagle kind?", "not a declarative sentence"),
        ("Run!", "not a declarative sentence"),
        # "The" alone matches as a capitalized name, so the error lands on
        # the would-be verb phrase.
        ("The weather is kind.", "expected copula"),
        ("The bald eagle.", "expected copula"),
        ("042 is broken.", "no recognizable subject"),
        ("The bald eagle is.", "clause has no attribute"),
        ("If the lion is funny then the tiger is beautiful.", "missing a comma"),
        ("The bald eagle is kind%.", "unexpected token"),
        ("The bald eagle is kind, clever.", "single-word attribute"),
        ("Alan is very kind.", "single-word attribute"),
        ("And.", "no recognizable subject"),
    ],
)
def test_out_of_grammar_text(lexicon, text, reason):
    with pytest.raises(GrammarError, match=reason):
        parse_sentence_struct(text, lexicon)


def test_grammar_error_messages_carry_prefix(lexicon):
    with pytest.raises(GrammarError) as info:
        parse_sentence_struct("What a day.", lexicon)
    assert str(info.value).startswith("outside grammar:")


# ---------------------------------------------------------------------------
# Out-of-grammar graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "penman, reason",
    [
        ("(a / and :op1 (k / kind :domain (t / the-cat)))", "exactly :op1 and :op2"),
        (
            "(a / and :op1 (o / or :op1 (k / kind :domain (t / the-cat))"
            " :op2 (d / dull :domain (u / the-cow)))"
            " :op2 (c / clever :domain (v / the-hen)))",
            "nested compound clause",
        ),
        ("(a / and :op1 - :op2 (k / kind :domain (t / the-cat)))", "not a constant"),
        ("(k / kind :polarity + :domain (t / the-cat))", "unsupported polarity value"),
        (
            "(k / kind :polarity - :polarity - :domain (t / the-cat))",
            "duplicate polarity",
        ),
        ("(k / kind :domain (t / the-cat) :domain (u / the-cow))", "multiple subjects"),
        ("(k / kind :domain 42)", "subject must be a node"),
        ("(k / kind :domain (t / tall :domain (u / the-cat)))", "subject must be a leaf"),
        ("(k / kind :ARG0 (t / the-cat))", "unexpected role"),
        ("(k / kind)", "has no :domain subject"),
        (
            "(k / kind :condition (d / dull :domain (t / the-cat))"
            " :condition (c / clever :domain (u / the-cow))"
            " :domain (v / the-hen))",
            "multiple :condition edges",
        ),
        (
            "(k / kind :polarity - :condition (d / dull :domain (t / the-cat))"
            " :domain (v / the-hen))",
            ":condition edge must come before or after",
        ),
        (
            "(k / kind :condition - :domain (t / the-cat))",
            "antecedent must be a node",
        ),
    ],
)
def test_out_of_grammar_graphs(penman, reason):
    with pytest.raises(GrammarStructureError, match=reason):
        read_graph(parse_penman(penman))


def test_structure_error_is_a_grammar_error():
    assert issubclass(GrammarStructureError, GrammarError)


# ---------------------------------------------------------------------------
# Realization details
# ---------------------------------------------------------------------------


def test_realize_struct_capitalizes_and_punctuates():
    sentence = GrammarSentence(Shape.ATOMIC, (Clause("the cat", "kind"),))
    assert realize_struct(sentence) == "The cat is kind."


def test_realize_uses_plural_copula_for_you():
    sentence = GrammarSentence(
        Shape.ATOMIC, (Clause("you", "able to use a computer", negated=True),)
    )
    assert realize_struct(sentence) == "You are not able to use a computer."


def test_subject_match_prefers_longest_entity(lexicon):
    # "the bald eagle" must win over any shorter prefix entity.
    struct = parse_sentence_struct("The bald eagle is kind.", lexicon)
    assert struct.clauses[0].subject == "the bald eagle"
    assert "the bald eagle" in lexicon.all_entities


def match_subject_reference(words, lexicon):
    """The matching rule: longest entity first, then alphabetical, ignoring case."""
    for entity in sorted(lexicon.all_entities, key=lambda e: (-len(e.split()), e)):
        parts = entity.split()
        if len(words) > len(parts) and [w.lower() for w in words[: len(parts)]] == [
            p.lower() for p in parts
        ]:
            return entity, words[len(parts) :]
    if words[0].lower() == "you" and len(words) > 1:
        return "you", words[1:]
    if grammar._PROPER_NAME_RE.fullmatch(words[0]) and len(words) > 1:
        return words[0], words[1:]
    return None


def subject_probes(lexicon):
    lengths = {len(entity.split()) for entity in lexicon.all_entities}
    for entity in lexicon.all_entities + ("you", "Alan", "the bald", "the"):
        words = entity.split()
        for variant in (words, [w.upper() for w in words], [words[0].capitalize()] + words[1:]):
            yield variant
            yield variant + ["is", "kind"]
            yield variant + ["eagle", "is", "not", "kind"]
            # Clauses exactly as long as an entity: no entity of that length
            # may match, since a subject needs a verb phrase after it.
            for length in lengths:
                yield (variant + ["eagle"] * length)[:length]


def probe_lexicon(lexicon, overridden):
    if not overridden:
        return lexicon
    # "The Big Dog", "the Big Dog" and "the big dog" differ only in case.
    return with_overrides(
        lexicon,
        entities=["the bald", "the bald eagle", "The Big Dog", "the big dog",
                  "the Big Dog", "alan", "the"],
    )


@pytest.mark.parametrize("overridden", [False, True])
def test_indexed_subject_match_agrees_with_the_sorted_rule(lexicon, overridden):
    lexicon = probe_lexicon(lexicon, overridden)
    for words in subject_probes(lexicon):
        assert grammar._match_subject(words, lexicon) == match_subject_reference(
            words, lexicon
        ), words


def test_subject_table_is_per_lexicon(lexicon):
    overridden = with_overrides(lexicon, entities=["the bald", "the big dog"])
    words = "the big dog is kind".split()
    assert grammar._match_subject(words, overridden) == ("the big dog", ["is", "kind"])
    assert grammar._match_subject(words, lexicon) is None
    words = "the bald eagle is kind".split()
    assert grammar._match_subject(words, overridden) == ("the bald", ["eagle", "is", "kind"])
    assert grammar._match_subject(words, lexicon) == ("the bald eagle", ["is", "kind"])
