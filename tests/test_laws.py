"""The four equivalence rewrites, their negatives, and the oracle gates."""

from __future__ import annotations

import random

import pytest

from amr_logic_aug import logic
from amr_logic_aug.graph import parse_penman
from amr_logic_aug.grammar import parse_sentence, parse_sentence_struct, realize_struct
from amr_logic_aug.laws import (
    LawError,
    LawKind,
    OracleViolation,
    RewriteOutcome,
    applicable_laws,
    apply_commutative,
    apply_contraposition,
    apply_double_negation,
    apply_implication,
    apply_law,
    flip_polarity_negative,
    verify_outcome,
)

# (law, original, expected positive, expected negative) reference rewrites.
REFERENCE_ROWS = [
    (
        LawKind.CONTRAPOSITION,
        "If Alan is kind, then Bob is clever.",
        "Alan is not kind if Bob is not clever.",
        "Alan is not kind if Bob is clever.",
    ),
    (
        LawKind.IMPLICATION,
        "If Alan is kind, then Bob is clever.",
        "Alan is not kind or Bob is clever.",
        "Alan is kind or Bob is clever.",
    ),
    (
        LawKind.DOUBLE_NEGATION,
        "The bald eagle is strong.",
        "The bald eagle is not weak.",
        "The bald eagle is weak.",
    ),
    (
        LawKind.COMMUTATIVE,
        "The bald eagle is clever and the wolf is fierce.",
        "The wolf is fierce and the bald eagle is clever.",
        "The wolf is not fierce and the bald eagle is not clever.",
    ),
]


@pytest.mark.parametrize("law, original, positive, negative", REFERENCE_ROWS)
def test_reference_rewrites(lexicon, law, original, positive, negative):
    graph = parse_sentence(original, lexicon)
    outcome = apply_law(graph, law, lexicon)
    assert outcome.law is law
    assert realize_struct(outcome.positive) == positive
    assert [realize_struct(s) for s in outcome.negatives] == [negative]
    source = logic.to_formula(graph, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))
    assert not logic.equivalent(
        source, logic.formula_of_struct(outcome.negatives[0], lexicon)
    )


# ---------------------------------------------------------------------------
# Preconditions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "If Alan is kind, then Bob is clever.",
            {LawKind.CONTRAPOSITION, LawKind.IMPLICATION},
        ),
        ("Bob is dull if Alan is kind.", {LawKind.CONTRAPOSITION, LawKind.IMPLICATION}),
        ("Alan is kind or Bob is clever.", {LawKind.IMPLICATION}),
        ("Alan is kind and Bob is clever.", {LawKind.COMMUTATIVE}),
        ("The bald eagle is strong.", {LawKind.DOUBLE_NEGATION}),
        # Polarity already present: the double-negation precondition fails.
        ("Alan is not kind.", set()),
        # No lexicon antonym for the attribute.
        ("The bald eagle is round.", set()),
    ],
)
def test_applicable_laws(lexicon, text, expected):
    assert applicable_laws(parse_sentence(text, lexicon), lexicon) == expected


def test_applicable_laws_outside_grammar(lexicon):
    graph = parse_penman("(w / want-01 :ARG0 (b / boy))")
    assert applicable_laws(graph, lexicon) == set()


@pytest.mark.parametrize(
    "law, text, reason",
    [
        (LawKind.CONTRAPOSITION, "Alan is kind.", "requires a conditional root"),
        (
            LawKind.CONTRAPOSITION,
            "Alan is kind and Bob is clever.",
            "requires a conditional root",
        ),
        (
            LawKind.IMPLICATION,
            "Alan is kind and Bob is clever.",
            "conditional or disjunction root",
        ),
        (LawKind.IMPLICATION, "Alan is kind.", "conditional or disjunction root"),
        (
            LawKind.COMMUTATIVE,
            "If Alan is kind, then Bob is clever.",
            "requires a conjunction root",
        ),
        (
            LawKind.DOUBLE_NEGATION,
            "If Alan is kind, then Bob is clever.",
            "requires an atomic predicate",
        ),
        (
            LawKind.DOUBLE_NEGATION,
            "Alan is not kind.",
            "without polarity",
        ),
        (LawKind.DOUBLE_NEGATION, "The bald eagle is round.", "no antonym for 'round'"),
    ],
)
def test_precondition_errors(lexicon, law, text, reason):
    graph = parse_sentence(text, lexicon)
    with pytest.raises(LawError, match=reason):
        apply_law(graph, law, lexicon)


def test_law_on_non_grammar_graph(lexicon):
    graph = parse_penman("(w / want-01 :ARG0 (b / boy))")
    with pytest.raises(LawError, match="graph outside grammar"):
        apply_law(graph, LawKind.CONTRAPOSITION, lexicon)


# ---------------------------------------------------------------------------
# Law-specific shapes
# ---------------------------------------------------------------------------


def test_contraposition_of_trailing_conditional(lexicon):
    sentence = parse_sentence_struct("Bob is clever if Alan is kind.", lexicon)
    outcome = apply_contraposition(sentence)
    assert realize_struct(outcome.positive) == "Alan is not kind if Bob is not clever."


def test_contraposition_toggles_existing_negation(lexicon):
    sentence = parse_sentence_struct(
        "If the bald eagle is kind, then Dave is not short.", lexicon
    )
    outcome = apply_contraposition(sentence)
    assert realize_struct(outcome.positive) == "The bald eagle is not kind if Dave is short."
    source = logic.formula_of_struct(sentence, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))


def test_implication_from_disjunction(lexicon):
    sentence = parse_sentence_struct("The bear is not sleepy or Bob is not cute.", lexicon)
    outcome = apply_implication(sentence)
    assert (
        realize_struct(outcome.positive) == "If the bear is sleepy, then Bob is not cute."
    )
    source = logic.formula_of_struct(sentence, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))


def test_commutative_is_a_graph_level_involution(lexicon):
    sentence = parse_sentence_struct("Alan is kind and Bob is clever.", lexicon)
    once = apply_commutative(sentence).positive
    twice = apply_commutative(once).positive
    assert twice == sentence


def test_contraposition_is_a_formula_level_involution(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is not clever.", lexicon)
    twice = apply_contraposition(apply_contraposition(sentence).positive).positive
    assert logic.equivalent(
        logic.formula_of_struct(sentence, lexicon), logic.formula_of_struct(twice, lexicon)
    )


def test_implication_round_trip(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    as_or = apply_implication(sentence).positive
    back = apply_implication(as_or).positive
    assert logic.equivalent(
        logic.formula_of_struct(sentence, lexicon), logic.formula_of_struct(back, lexicon)
    )


def test_double_negation_never_stacks_negations(lexicon):
    outcome = apply_double_negation(
        parse_sentence_struct("The bald eagle is beautiful.", lexicon), lexicon
    )
    text = realize_struct(outcome.positive)
    assert text == "The bald eagle is not ugly."
    assert text.count("not") == 1


# ---------------------------------------------------------------------------
# Oracle gating
# ---------------------------------------------------------------------------


def test_verify_outcome_rejects_nonequivalent_positive(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    honest = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon)
    corrupt = RewriteOutcome(
        honest.law,
        parse_sentence_struct("Alan is kind.", lexicon),
        honest.negatives,
    )
    with pytest.raises(OracleViolation, match="not equivalent"):
        verify_outcome(sentence, logic.formula_of_struct(sentence, lexicon), corrupt, lexicon)


def test_verify_outcome_rejects_equivalent_negative(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    honest = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon)
    corrupt = RewriteOutcome(honest.law, honest.positive, (sentence,))
    with pytest.raises(OracleViolation, match="accidentally equivalent"):
        verify_outcome(sentence, logic.formula_of_struct(sentence, lexicon), corrupt, lexicon)


def test_oracle_violation_is_an_assertion_error():
    assert issubclass(OracleViolation, AssertionError)


def test_apply_law_verify_flag(lexicon):
    graph = parse_sentence("Alan is kind and Bob is clever.", lexicon)
    gated = apply_law(graph, LawKind.COMMUTATIVE, lexicon, verify=True)
    ungated = apply_law(graph, LawKind.COMMUTATIVE, lexicon, verify=False)
    assert gated == ungated


# ---------------------------------------------------------------------------
# Negative-sample construction
# ---------------------------------------------------------------------------


def test_flip_polarity_negative_atomic(lexicon):
    sentence = parse_sentence_struct("The bald eagle is strong.", lexicon)
    source = logic.formula_of_struct(sentence, lexicon)
    flipped = flip_polarity_negative(sentence, source, lexicon, random.Random(0))
    assert realize_struct(flipped) == "The bald eagle is not strong."


def test_flip_polarity_negative_is_nonequivalent(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    source = logic.formula_of_struct(sentence, lexicon)
    flipped = flip_polarity_negative(sentence, source, lexicon, random.Random(7))
    assert not logic.equivalent(source, logic.formula_of_struct(flipped, lexicon))
