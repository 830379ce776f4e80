"""Controlled-grammar parsing, graph encoding, and realization."""

from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from amr_logic_aug import grammar
from amr_logic_aug.corpus import build_corpus
from amr_logic_aug.graph import Constant, ParseError, parse_penman, serialize
from amr_logic_aug.grammar import (
    CORE,
    EXTENDED,
    Clause,
    GrammarError,
    GrammarSentence,
    Shape,
    build_graph,
    parse_sentence_struct,
    penman_of_struct,
    read_canonical_penman,
    read_graph,
    realize,
    realize_struct,
)
from amr_logic_aug.laws import LawKind, applicable_laws, apply_law
from amr_logic_aug.logic import to_formula
from amr_logic_aug.pairs import build_pairs


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
    assert realize_struct(parse_sentence_struct(text, lexicon)) == canonical


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


def test_past_tense_parses_like_present(lexicon):
    # The struct, like its graph, holds no tense.
    for past, present in (
        ("The lion was thin.", "The lion is thin."),
        ("You were not kind.", "You are not kind."),
        ("The bear wasn't sleepy or Bob weren't cute.",
         "The bear is not sleepy or Bob is not cute."),
    ):
        struct = parse_sentence_struct(past, lexicon)
        assert struct == parse_sentence_struct(present, lexicon)
        assert realize(build_graph(struct)) == present


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
    trailing_if = GrammarSentence(
        Shape.IF_THEN,
        (Clause("the mouse", "small"), Clause("the bald eagle", "small", negated=True)),
        trailing_condition=True,
    )
    for text in (
        "The bald eagle isn't small, unless the mouse is small.",
        "The bald eagle isn't small unless the mouse is small.",
    ):
        assert parse_sentence_struct(text, lexicon) == trailing_if
    assert realize_struct(trailing_if) == "The bald eagle is not small if the mouse is small."


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
    graph = build_graph(parse_sentence_struct(
        "The bald eagle is kind and the bald eagle is clever.", lexicon
    ))
    # Variable names collide on first letters and get numeric suffixes.
    assert serialize(graph) == (
        "(a / and"
        " :op1 (k / kind :domain (t / the-bald-eagle))"
        " :op2 (c / clever :domain (t2 / the-bald-eagle)))"
    )


def test_negation_becomes_polarity_edge(lexicon):
    graph = build_graph(parse_sentence_struct("The bald eagle is not kind.", lexicon))
    assert serialize(graph) == "(k / kind :polarity - :domain (t / the-bald-eagle))"


def test_conditional_edge_order_tracks_surface(lexicon):
    leading = build_graph(parse_sentence_struct(
        "If the lion is funny, then the tiger is beautiful.", lexicon
    ))
    trailing = build_graph(parse_sentence_struct(
        "The tiger is beautiful if the lion is funny.", lexicon
    ))
    assert [role for source, role, _ in leading.edges if source == leading.root] == [
        ":condition",
        ":domain",
    ]
    assert [role for source, role, _ in trailing.edges if source == trailing.root] == [
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
    graph = build_graph(parse_sentence_struct(text, lexicon))
    assert realize(graph) == text
    # The graph itself survives a struct round trip.
    assert build_graph(read_graph(graph)) == graph


# The Penman bytes of every shape, recorded from the graph builder and
# serializer the writer replaced.
KIND, NOT_DULL = Clause("Alan", "kind"), Clause("the wolf", "dull", negated=True)
PENMAN_CASES = [
    (GrammarSentence(Shape.ATOMIC, (KIND,)), "(k / kind :domain (a / Alan))"),
    (GrammarSentence(Shape.ATOMIC, (Clause("you", "able to use a computer", True),)),
     "(a / able-to-use-a-computer :polarity - :domain (y / you))"),
    (GrammarSentence(Shape.ATOMIC, (NOT_DULL,)),
     "(d / dull :polarity - :domain (t / the-wolf))"),
    (GrammarSentence(Shape.AND_PAIR, (KIND, NOT_DULL)),
     "(a / and :op1 (k / kind :domain (a2 / Alan))"
     " :op2 (d / dull :polarity - :domain (t / the-wolf)))"),
    (GrammarSentence(Shape.OR_PAIR, (NOT_DULL, KIND)),
     "(o / or :op1 (d / dull :polarity - :domain (t / the-wolf))"
     " :op2 (k / kind :domain (a / Alan)))"),
    # Leading: :condition first, before the consequent's own polarity.
    (GrammarSentence(Shape.IF_THEN, (KIND, NOT_DULL)),
     "(d / dull :condition (k / kind :domain (a / Alan))"
     " :polarity - :domain (t / the-wolf))"),
    # Trailing: :condition last.
    (GrammarSentence(Shape.IF_THEN, (NOT_DULL, KIND), trailing_condition=True),
     "(k / kind :domain (a / Alan)"
     " :condition (d / dull :polarity - :domain (t / the-wolf)))"),
    # "The wolf is not dull unless Alan is kind."
    (GrammarSentence(Shape.IF_THEN, (KIND, NOT_DULL), trailing_condition=True),
     "(d / dull :polarity - :domain (t / the-wolf)"
     " :condition (k / kind :domain (a / Alan)))"),
    # Colliding variables count up from 2; the antecedent is named first.
    (GrammarSentence(Shape.IF_THEN, (Clause("the tiger", "tall"), Clause("the tiger", "tame"))),
     "(t3 / tame :condition (t / tall :domain (t2 / the-tiger)) :domain (t4 / the-tiger))"),
    # A concept takes its first letter, lower-cased, or x without one.
    (GrammarSentence(Shape.OR_PAIR, (Clause("3 Owls", "able to fly"), Clause("_", "9", True))),
     "(o / or :op1 (a / able-to-fly :domain (o2 / 3-Owls))"
     " :op2 (x / 9 :polarity - :domain (x2 / _)))"),
]


@pytest.mark.parametrize("struct, penman", PENMAN_CASES)
def test_penman_of_struct_bytes(struct, penman):
    assert penman_of_struct(struct) == penman
    graph = build_graph(struct)
    assert graph == parse_penman(penman)
    assert serialize(graph) == penman  # the writer's output is canonical


@pytest.mark.parametrize("struct, penman", PENMAN_CASES)
def test_penman_of_struct_reads_back(struct, penman):
    assert read_graph(parse_penman(penman_of_struct(struct))) == struct


# Parses that a struct and its graph must hold alike: both "unless" forms,
# past tense, contractions and hyphen-free extended-grammar sentences, with
# every shape among them.
IDENTITY_TEXTS = [
    ("The bald eagle is kind.", CORE),
    ("The bald eagle wasn't kind and the wolf is not dull.", CORE),
    ("The bear is not sleepy or Bob isn't cute.", CORE),
    ("If the lion was funny, then the tiger is beautiful.", CORE),
    ("If the lion is funny, the tiger were not beautiful.", CORE),
    ("The wolf is dull if the lion is funny.", CORE),
    ("The bald eagle isn't small, unless the mouse is small.", CORE),
    ("The bald eagle is big unless the mouse was small.", CORE),
    ("You aren't kind.", CORE),
    ("You will not be able to use a computer if you have no keyboarding skills at all.",
     EXTENDED),
    ("You cannot write your essays unless you can use a computer.", EXTENDED),
    ("You can't vote or you don't have keyboarding skills.", EXTENDED),
]


@pytest.mark.parametrize("text, level", IDENTITY_TEXTS)
def test_a_struct_and_its_graph_hold_the_same(lexicon, text, level):
    struct = parse_sentence_struct(text, lexicon, level)
    assert read_graph(build_graph(struct)) == struct


def test_every_shape_is_the_parse_of_a_listed_sentence(lexicon):
    # A shape no parse returns would be a struct its graph cannot hold.
    shapes = {
        parse_sentence_struct(text, lexicon, level).shape for text, level in IDENTITY_TEXTS
    }
    assert shapes == set(Shape)


def test_every_corpus_struct_is_its_graph(full_corpus, lexicon):
    for record in full_corpus:
        struct = parse_sentence_struct(record.text, lexicon)
        assert struct == record.struct, record.text
        assert read_graph(build_graph(struct)) == struct, record.text


def test_build_graph_rejects_a_concept_penman_cannot_hold():
    struct = GrammarSentence(Shape.ATOMIC, (Clause(":odd", "kind"),))
    assert penman_of_struct(struct) == "(k / kind :domain (o / :odd))"
    with pytest.raises(ParseError, match="expected concept"):
        build_graph(struct)


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
    once = realize_struct(parse_sentence_struct(text, lexicon, grammar=EXTENDED))
    assert once == (
        "You are not able to use a computer if you do not have keyboarding skills."
    )
    assert realize_struct(parse_sentence_struct(once, lexicon, grammar=EXTENDED)) == once


@pytest.mark.parametrize(
    "text, negated, predicate",
    [
        ("You can use some tools daily.", False, "able to use tools daily"),
        ("You will not be able to use at least some tools daily.", True,
         "able to use tools daily"),
        ("You have some keyboarding skills at all.", False, "have keyboarding skills"),
        # Only a trailing "at all" is dropped.
        ("You are tired at all hours.", False, "tired at all hours"),
    ],
)
def test_extended_determiners_are_dropped_mid_predicate(lexicon, text, negated, predicate):
    clause = parse_sentence_struct(text, lexicon, grammar=EXTENDED).clauses[0]
    assert (clause.negated, clause.predicate) == (negated, predicate)


@pytest.mark.parametrize(
    "text, message",
    [
        ("You can use a computer, daily.", "outside grammar: unexpected token 'computer,'"),
        ("You have some 3 skills 4.", "outside grammar: unexpected token '3'"),
        ("You will not be at all.", "outside grammar: clause has no attribute"),
        ("You are some at all.", "outside grammar: clause has no attribute"),
        ("Alan will go.", "outside grammar: expected 'be' after 'will'"),
        ("If , then Alan is kind.", "outside grammar: empty clause"),
    ],
)
def test_extended_grammar_error_messages(lexicon, text, message):
    with pytest.raises(GrammarError) as info:
        parse_sentence_struct(text, lexicon, grammar=EXTENDED)
    assert str(info.value) == message


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


@pytest.mark.parametrize(
    "text, predicate",
    [
        ("If Bob is if, then Alan is kind.", "if"),
        ("Bob is and.", "and"),
        ("Bob is not not.", "not"),
        ("Alan is kind or Bob is Unless.", "Unless"),
        ("Alan is kind if Bob is THEN.", "THEN"),
    ],
)
@pytest.mark.parametrize("level", [CORE, EXTENDED])
def test_a_routing_word_is_no_predicate(lexicon, text, predicate, level):
    message = f"outside grammar: predicate {predicate!r} is a routing word"
    with pytest.raises(GrammarError, match=re.escape(message)):
        parse_sentence_struct(text, lexicon, level)


def test_grammar_error_messages_carry_prefix(lexicon):
    with pytest.raises(GrammarError) as info:
        parse_sentence_struct("What a day.", lexicon)
    assert str(info.value).startswith("outside grammar:")


# ---------------------------------------------------------------------------
# Out-of-grammar graphs
# ---------------------------------------------------------------------------


OUT_OF_GRAMMAR_GRAPHS = [
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
]


@pytest.mark.parametrize("penman, reason", OUT_OF_GRAMMAR_GRAPHS)
def test_out_of_grammar_graphs(penman, reason):
    with pytest.raises(GrammarError, match=f"^graph outside grammar: .*{re.escape(reason)}"):
        read_graph(parse_penman(penman))


@pytest.mark.parametrize("penman, reason", OUT_OF_GRAMMAR_GRAPHS)
def test_every_graph_entry_point_refuses_an_out_of_grammar_graph_alike(lexicon, penman, reason):
    graph = parse_penman(penman)
    entry_points = [read_graph, realize, lambda g: to_formula(g, lexicon)]
    entry_points += [lambda g, law=law: apply_law(g, law, lexicon) for law in LawKind]
    refusals = set()
    for entry_point in entry_points:
        with pytest.raises(GrammarError, match=re.escape(reason)) as info:
            entry_point(graph)
        refusals.add((type(info.value), str(info.value)))
    ((kind, text),) = refusals
    assert kind is GrammarError and text.startswith("graph outside grammar: ")
    assert applicable_laws(graph, lexicon) == frozenset()


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
    assert "the bald eagle" in lexicon.entities


def match_subject_reference(words, lexicon):
    """The matching rule: longest entity first, then alphabetical, ignoring case."""
    all_entities = lexicon.entities + lexicon.extension_entities
    for entity in sorted(all_entities, key=lambda e: (-len(e.split()), e)):
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
    all_entities = lexicon.entities + lexicon.extension_entities
    lengths = {len(entity.split()) for entity in all_entities}
    for entity in all_entities + ("you", "Alan", "the bald", "the"):
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
    return lexicon._replace(
        entities=("the bald", "the bald eagle", "The Big Dog", "the big dog",
                  "the Big Dog", "alan", "the"),
    )


@pytest.mark.parametrize("overridden", [False, True])
def test_indexed_subject_match_agrees_with_the_sorted_rule(lexicon, overridden):
    lexicon = probe_lexicon(lexicon, overridden)
    for words in subject_probes(lexicon):
        assert grammar._match_subject(words, lexicon) == match_subject_reference(
            words, lexicon
        ), words


def test_subject_table_is_per_lexicon(lexicon):
    overridden = lexicon._replace(entities=("the bald", "the big dog"))
    words = "the big dog is kind".split()
    assert grammar._match_subject(words, overridden) == ("the big dog", ["is", "kind"])
    assert grammar._match_subject(words, lexicon) is None
    words = "the bald eagle is kind".split()
    assert grammar._match_subject(words, overridden) == ("the bald", ["eagle", "is", "kind"])
    assert grammar._match_subject(words, lexicon) == ("the bald eagle", ["is", "kind"])


# ---------------------------------------------------------------------------
# Canonical core sentences: one compiled pattern per lexicon
# ---------------------------------------------------------------------------


def outcome(parse, text, lexicon, level=CORE):
    try:
        return "struct", parse(text, lexicon, level)
    except GrammarError as err:
        return type(err), str(err)


def assert_as_general(text, lexicon, level=CORE):
    assert outcome(parse_sentence_struct, text, lexicon, level) == outcome(
        grammar._parse_general, text, lexicon, level
    ), text


# Variant lexicons keep the default's extension entities ("the duck",
# "James"); "copula-entity" holds an entity the pattern cannot take.
PATTERN_LEXICONS = {
    "default": None,
    "overlapping": ("the big dog", "the big", "the", "the bald eagle", "alan"),
    "case-duplicates": ("Bob", "bob", "the Big Dog", "the big dog"),
    "copula-entity": ("the cat is", "the cat", "bob"),
}


@pytest.fixture(scope="module")
def pattern_lexicons(lexicon):
    return {
        name: lexicon if entities is None else lexicon._replace(entities=entities)
        for name, entities in PATTERN_LEXICONS.items()
    }


def test_which_lexicons_get_a_pattern(pattern_lexicons):
    assert {name: lex.core_parser is not None for name, lex in pattern_lexicons.items()} == {
        "default": True,
        "overlapping": True,
        "case-duplicates": True,
        "copula-entity": False,
    }


def test_canonical_core_sentences_never_reach_the_general_parser(
    full_corpus, lexicon, monkeypatch
):
    records = build_pairs(build_corpus(lexicon, 400), lexicon, "1:3")
    texts = [sentence.text for sentence in full_corpus] + [
        text for record in records for text in (record.sentence1, record.sentence2)
    ]
    expected = [grammar._parse_general(text, lexicon, CORE) for text in texts]

    def unreachable(text, lexicon, level):
        raise AssertionError(f"general parser reached on {text!r}")

    monkeypatch.setattr(grammar, "_parse_general", unreachable)
    assert [parse_sentence_struct(text, lexicon) for text in texts] == expected


@pytest.mark.parametrize("name", PATTERN_LEXICONS)
def test_core_pattern_agrees_with_the_general_parser_on_the_corpus(
    pattern_lexicons, full_corpus, name
):
    for sentence in full_corpus:
        assert_as_general(sentence.text, pattern_lexicons[name])


@pytest.mark.parametrize(
    "text",
    [
        "The bald eagle is kind.",
        "THE BALD EAGLE is kind.",
        "The bald eagle IS kind.",
        "The bald eagle is NOT kind.",
        "The bald eagle is not.",
        "The bald eagle is notable.",
        "The bald eagle is not not.",
        "The bald eagle is kind .",
        " The bald eagle is kind.",
        "The bald eagle is kind.\n",
        "The bald eagle is kind",
        "The bald eagle is well-off.",
        "The bald eagle is -off.",
        "The bald eagle is kind and the cat is big and bob is red.",
        "The bald eagle is kind if the cat is big if bob is red.",
        "Alan is AND or Bob is kind.",
        "Alan is IF and Bob is kind.",
        "If the cat is kind, Then bob is big.",
        "If the cat is kind, then then is big.",
        "IF the cat is kind, then bob is big.",
        "The cat is kind If bob is big.",
        "The cat is kind, unless bob is big.",
        "The ſnake is kind.",  # long s: matches "s" ignoring Unicode case; lower() keeps it
        "The snaKe is kind.",  # Kelvin sign: lower() gives an ASCII "k"
        "İf the cat is kind, then bob is big.",
        "The bald eagle is kïnd.",
        "The duck is kind.",
        "James is not kind or the goose is big.",
        "You are kind.",
        "Zed is kind.",
    ],
)
def test_core_pattern_agrees_with_the_general_parser_on_edge_cases(pattern_lexicons, text):
    for lex in pattern_lexicons.values():
        assert_as_general(text, lex)


@pytest.mark.parametrize("entity", ["the cat is", "but", "And", "if", "the dog not", "o'neil", "the émeu"])
def test_an_entity_the_pattern_cannot_take_turns_it_off(lexicon, entity):
    lex = lexicon._replace(entities=(entity, "the cat", "bob"))
    assert lex.core_parser is None
    for template in ("{} is kind.", "{} kind.", "{} is not kind.", "{} is kind and bob is big.",
                     "If {} is kind, then bob is big.", "Bob is big if {} is kind."):
        for text in (template.format(entity), template.format(entity.capitalize())):
            assert_as_general(text, lex)


# "some" is a predicate of the core grammar that the extended one drops.
_PATTERN_PREDICATES = ("kind", "big", "well-off", "notable", "x", "is", "but", "some")
# The words the parser routes on, in several cases.
_ROUTING_PREDICATES = ("if", "IF", "Unless", "then", "And", "or", "OR", "not", "Not")


def _recase(text, draw):
    words = text.split(" ")
    i = draw(st.integers(0, len(words) - 1))
    words[i] = draw(st.sampled_from([str.upper, str.lower, str.capitalize, str.swapcase]))(words[i])
    return " ".join(words)


def _routing_word(text, draw):
    words = text.split(" ")
    i = draw(st.integers(0, len(words) - 1))
    words[i] = draw(st.sampled_from(["if", "unless", "then", "and", "or", "not", "If", "AND"]))
    return " ".join(words)


def _spacing(text, draw):
    spaces = [i for i, char in enumerate(text) if char == " "]
    if not spaces:
        return text
    i = draw(st.sampled_from(spaces))
    return text[:i] + draw(st.sampled_from(["  ", "\t", ", ", " ,", ",", "\u00a0"])) + text[i + 1:]


def _lead_in(text, draw):
    return draw(st.sampled_from(["And ", "But ", "If ", "and ", "but ", "if "])) + text


def _ending(text, draw):
    return text[:-1] + draw(st.sampled_from(["?", "!", "", " .", ".."]))


def _apostrophe(text, draw):
    if " is not " in text and draw(st.booleans()):
        return text.replace(" is not ", draw(st.sampled_from([" isn't ", " isn’t ", " ISN'T "])), 1)
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(["'", "’"])) + text[i:]


@st.composite
def near_canonical(draw, subjects):
    predicates = draw(st.sampled_from([_PATTERN_PREDICATES, _ROUTING_PREDICATES]))

    def clause():
        return Clause(
            draw(st.sampled_from(subjects)),
            draw(st.sampled_from(predicates + ("kind",))),
            draw(st.booleans()),
        )

    shape = draw(st.sampled_from(list(Shape)))
    clauses = (clause(),) if shape is Shape.ATOMIC else (clause(), clause())
    trailing = shape is Shape.IF_THEN and draw(st.booleans())
    text = realize_struct(GrammarSentence(shape, clauses, trailing))
    mutations = [_recase, _routing_word, _spacing, _lead_in, _ending, _apostrophe]
    for mutate in draw(st.lists(st.sampled_from(mutations), max_size=2)):
        text = mutate(text, draw)
    return text


@pytest.mark.parametrize("name", PATTERN_LEXICONS)
def test_core_pattern_agrees_with_the_general_parser_near_canonical(pattern_lexicons, name):
    lex = pattern_lexicons[name]
    subjects = lex.entities + lex.extension_entities
    subjects += ("you", "Alan", "Zed", "the", "the big dogs")

    @seed(20231017)
    @settings(max_examples=500, deadline=None, database=None)
    @given(st.data())
    def check(data):
        text = data.draw(near_canonical(subjects))
        assert_as_general(text, lex)
        assert_as_general(text, lex, EXTENDED)

    check()


# ---------------------------------------------------------------------------
# Canonical Penman lines: one compiled pattern
# ---------------------------------------------------------------------------


def general_penman(text):
    """What the general path makes of ``text``: its struct, or its error."""
    try:
        return read_graph(parse_penman(text))
    except (ParseError, GrammarError) as err:
        return type(err), str(err)


def test_canonical_penman_reads_every_corpus_struct(full_corpus):
    for sentence in full_corpus:
        assert read_canonical_penman(penman_of_struct(sentence.struct)) == sentence.struct


def test_canonical_penman_agrees_with_the_general_path_on_the_corpus(full_corpus):
    for sentence in full_corpus:
        text = penman_of_struct(sentence.struct)
        assert read_canonical_penman(text) == general_penman(text), text


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("(k / kind :domain (k / Alan))", False),  # a duplicate declaration
        ("(a / and :op1 (o / or :domain (b / Bob)) :op2 (k / kind :domain (a2 / Alan)))",
         False),  # a nested compound clause
        ("(k / kind :polarity - :condition (c / clever :domain (b / Bob)) :domain (a / Alan))",
         False),  # a :condition between the clause's own edges
        ("(k / kind :domain (a / Alan) :polarity -)", False),
        ("(k / kind :domain (j / José))", False),
        ("(k / kind :domain (a / \"Alan\"))", False),
        ("(k / kind  :domain (a / Alan))", False),
        ("(k / kind :domain (a / Alan))\n", False),
        ("(K / kind :domain (a / Alan))", False),
        ("(k / and :domain (a / Alan))", False),
        ("(k / kind :condition (c / clever :domain (b / Bob)) :domain (a / Alan)"
         " :condition (d / dull :domain (d2 / Dan)))", False),
        ("(k / kind :domain (a / and))", True),
        ("(a / And :domain (o / or))", True),
        ("(w / well-off :domain (a / Alan))", True),
        ("(k9 / kind :domain (k10 / Alan))", True),  # any distinct variables
        ("(c / clever :condition (k / kind :domain (a / Alan)) :polarity - :domain (b / Bob))",
         True),
    ],
)
def test_canonical_penman_edge_cases(text, accepted):
    struct = read_canonical_penman(text)
    assert (struct is not None) == accepted
    if accepted:
        assert struct == general_penman(text)


def test_a_hyphen_in_a_penman_concept_reads_as_a_space():
    struct = read_canonical_penman("(w / well-off :domain (t / the-bald-eagle))")
    assert struct.clauses == (Clause("the bald eagle", "well off"),)


# Tokens that turn a canonical line into a near-canonical one.
_PENMAN_TOKENS = (
    "and", "or", "And", "-", "+", "0", "42", ":polarity -", ":condition", ":op1",
    '"s"', "José", "  ",
)


def _join_penman(tokens):
    """Tokens spaced as Penman is written: no space after '(' or before ')'."""
    text = " ".join(tokens)
    return text.replace("( ", "(").replace(" )", ")")


@st.composite
def penman_mutants(draw, lines):
    """A canonical line with one to three tokens replaced, inserted or deleted."""
    line = draw(st.sampled_from(lines))
    tokens = re.findall(r"[()]|[^ ()]+", line)
    assert _join_penman(tokens) == line
    variables = re.findall(r"\(([^ ]+) /", line)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        token = draw(st.sampled_from(_PENMAN_TOKENS + (draw(st.sampled_from(variables)),)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "replace":
            tokens[i] = token
        elif action == "insert":
            tokens.insert(i, token)
        elif len(tokens) > 1:
            del tokens[i]
    return _join_penman(tokens)


def accepted_as_general(text):
    """Whether the reader accepts ``text``; what it accepts, it reads as the
    general path does."""
    struct = read_canonical_penman(text)
    if struct is not None:
        assert struct == general_penman(text), text
    return struct is not None


def test_canonical_penman_agrees_with_the_general_path_after_one_edit(full_corpus):
    # One corpus line per shape, surface form and polarity pattern.
    lines = {}
    for sentence in full_corpus:
        struct = sentence.struct
        key = (struct.shape, struct.trailing_condition, [c.negated for c in struct.clauses])
        lines.setdefault(repr(key), penman_of_struct(struct))
    assert len(lines) == 8
    accepted = 0
    for line in lines.values():
        tokens = re.findall(r"[()]|[^ ()]+", line)
        edits = _PENMAN_TOKENS + tuple(re.findall(r"\(([^ ]+) /", line))
        for i in range(len(tokens) + 1):
            accepted += accepted_as_general(_join_penman(tokens[:i] + tokens[i + 1:]))
            for token in edits:
                accepted += accepted_as_general(_join_penman([*tokens[:i], token, *tokens[i:]]))
                accepted += accepted_as_general(
                    _join_penman([*tokens[:i], token, *tokens[i + 1:]])
                )
    assert accepted > 200  # polarity added, concepts renamed, lines unchanged


def test_canonical_penman_agrees_with_the_general_path_near_canonical(full_corpus):
    lines = sorted({penman_of_struct(sentence.struct) for sentence in full_corpus})

    @seed(20261019)
    @settings(max_examples=500, deadline=None, database=None)
    @given(st.data())
    def check(data):
        accepted_as_general(data.draw(penman_mutants(lines)))

    check()
