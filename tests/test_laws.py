"""The four equivalence rewrites, their negatives, and the oracle gates."""

from __future__ import annotations

import itertools
import random

import pytest

from amr_logic_aug import logic
from amr_logic_aug.graph import parse_penman
from amr_logic_aug.grammar import (
    Clause,
    GrammarSentence,
    Shape,
    build_graph,
    parse_sentence_struct,
    realize,
    realize_struct,
)
from amr_logic_aug.laws import (
    LawError,
    LawKind,
    OracleViolation,
    RewriteOutcome,
    applicable_laws,
    apply_law,
    flip_polarity_negative,
    refusal,
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
    graph = build_graph(parse_sentence_struct(original, lexicon))
    outcome = apply_law(graph, law, lexicon)
    assert outcome.law is law
    assert realize_struct(outcome.positive) == positive
    assert realize_struct(outcome.negative) == negative
    source = logic.to_formula(graph, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))
    assert not logic.equivalent(
        source, logic.formula_of_struct(outcome.negative, lexicon)
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
        # A contradictory conjunction: one atom, opposite signs.
        ("Alan is kind and Alan is not kind.", set()),
        ("Alan is strong and Alan is strong.", {LawKind.COMMUTATIVE}),
        ("Alan is strong and Alan is weak.", set()),
        ("Alan is not weak and Alan is weak.", set()),
        ("Alan is strong and Bob is weak.", {LawKind.COMMUTATIVE}),
    ],
)
def test_applicable_laws(lexicon, text, expected):
    assert applicable_laws(build_graph(parse_sentence_struct(text, lexicon)), lexicon) == expected


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
        (
            LawKind.COMMUTATIVE,
            "Alan is kind and Alan is not kind.",
            "contradictory conjunction",
        ),
        (
            LawKind.COMMUTATIVE,
            "Alan is strong and Alan is weak.",
            "contradictory conjunction",
        ),
    ],
)
def test_precondition_errors(lexicon, law, text, reason):
    graph = build_graph(parse_sentence_struct(text, lexicon))
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
    outcome = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon)
    assert realize_struct(outcome.positive) == "Alan is not kind if Bob is not clever."


def test_contraposition_toggles_existing_negation(lexicon):
    sentence = parse_sentence_struct(
        "If the bald eagle is kind, then Dave is not short.", lexicon
    )
    outcome = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon)
    assert realize_struct(outcome.positive) == "The bald eagle is not kind if Dave is short."
    source = logic.formula_of_struct(sentence, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))


def test_implication_from_disjunction(lexicon):
    sentence = parse_sentence_struct("The bear is not sleepy or Bob is not cute.", lexicon)
    outcome = apply_law(sentence, LawKind.IMPLICATION, lexicon)
    assert (
        realize_struct(outcome.positive) == "If the bear is sleepy, then Bob is not cute."
    )
    source = logic.formula_of_struct(sentence, lexicon)
    assert logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon))


def test_commutative_is_a_graph_level_involution(lexicon):
    sentence = parse_sentence_struct("Alan is kind and Bob is clever.", lexicon)
    once = apply_law(sentence, LawKind.COMMUTATIVE, lexicon).positive
    twice = apply_law(once, LawKind.COMMUTATIVE, lexicon).positive
    assert twice == sentence


def test_contraposition_is_a_formula_level_involution(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is not clever.", lexicon)
    once = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon).positive
    twice = apply_law(once, LawKind.CONTRAPOSITION, lexicon).positive
    assert logic.equivalent(
        logic.formula_of_struct(sentence, lexicon), logic.formula_of_struct(twice, lexicon)
    )


def test_implication_round_trip(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    as_or = apply_law(sentence, LawKind.IMPLICATION, lexicon).positive
    back = apply_law(as_or, LawKind.IMPLICATION, lexicon).positive
    assert logic.equivalent(
        logic.formula_of_struct(sentence, lexicon), logic.formula_of_struct(back, lexicon)
    )


def test_double_negation_never_stacks_negations(lexicon):
    outcome = apply_law(
        parse_sentence_struct("The bald eagle is beautiful.", lexicon),
        LawKind.DOUBLE_NEGATION,
        lexicon,
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
        honest.negative,
    )
    with pytest.raises(OracleViolation, match="not equivalent"):
        verify_outcome(sentence, corrupt, lexicon)


def test_verify_outcome_rejects_equivalent_negative(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    honest = apply_law(sentence, LawKind.CONTRAPOSITION, lexicon)
    corrupt = RewriteOutcome(honest.law, honest.positive, sentence)
    with pytest.raises(OracleViolation, match="accidentally equivalent"):
        verify_outcome(sentence, corrupt, lexicon)


def test_oracle_violation_is_an_assertion_error():
    assert issubclass(OracleViolation, AssertionError)


# ---------------------------------------------------------------------------
# Negative-sample construction
# ---------------------------------------------------------------------------


def test_flip_polarity_negative_atomic(lexicon):
    sentence = parse_sentence_struct("The bald eagle is strong.", lexicon)
    flipped = flip_polarity_negative(sentence, lexicon, random.Random(0))
    assert realize_struct(flipped) == "The bald eagle is not strong."


def test_flip_polarity_negative_is_nonequivalent(lexicon):
    sentence = parse_sentence_struct("If Alan is kind, then Bob is clever.", lexicon)
    source = logic.formula_of_struct(sentence, lexicon)
    flipped = flip_polarity_negative(sentence, lexicon, random.Random(7))
    assert not logic.equivalent(source, logic.formula_of_struct(flipped, lexicon))


# ---------------------------------------------------------------------------
# The law table over the whole struct space
# ---------------------------------------------------------------------------


def every_struct(subjects, predicates):
    """Every struct over the clauses of ``subjects`` x ``predicates`` x both
    polarities: atomic, conjunction, disjunction, and the leading and
    trailing conditionals ("unless" parses as the trailing one)."""
    clauses = [
        Clause(subject, predicate, negated)
        for subject in subjects for predicate in predicates for negated in (False, True)
    ]
    structs = [GrammarSentence(Shape.ATOMIC, (clause,)) for clause in clauses]
    for first, second in itertools.product(clauses, repeat=2):
        structs += [
            GrammarSentence(Shape.AND_PAIR, (first, second)),
            GrammarSentence(Shape.OR_PAIR, (first, second)),
            GrammarSentence(Shape.IF_THEN, (first, second)),
            GrammarSentence(Shape.IF_THEN, (first, second), trailing_condition=True),
        ]
    return structs


def test_realize_struct_words_a_struct_as_its_graph_does(lexicon):
    for struct in every_struct(lexicon.entities[:2], ("strong", "weak", "round")):
        assert realize_struct(struct) == realize(build_graph(struct)), struct


class FirstClause:
    """An rng whose shuffle puts clause ``first`` at the front."""

    def __init__(self, first):
        self.first = first

    def shuffle(self, order):
        order.sort(key=lambda index: index != self.first)


def test_a_polarity_flip_of_either_clause_never_raises_on_the_whole_struct_space(lexicon):
    # flip_polarity_negative raises OracleViolation if a flip is equivalent.
    for struct in every_struct(lexicon.entities[:2], ("strong", "weak", "round")):
        for index, clause in enumerate(struct.clauses):
            clauses = list(struct.clauses)
            clauses[index] = clause.negate()
            flipped = flip_polarity_negative(struct, lexicon, FirstClause(index))
            assert flipped == struct._replace(clauses=tuple(clauses)), struct


def test_an_equivalent_polarity_flip_is_an_oracle_violation(lexicon, monkeypatch):
    sentence = parse_sentence_struct("The bald eagle is strong.", lexicon)
    monkeypatch.setattr(logic, "structs_equivalent", lambda *args: True)
    with pytest.raises(OracleViolation, match="polarity flip is accidentally equivalent"):
        flip_polarity_negative(sentence, lexicon, random.Random(0))


def test_every_applicable_law_passes_its_gate_on_the_whole_struct_space(lexicon):
    # An antonym pair and a plain attribute give every way two clauses can
    # share, oppose or differ in an atom.
    assert lexicon.antonym_of("strong") == "weak" and lexicon.antonym_of("round") is None
    structs = every_struct(lexicon.entities[:2], ("strong", "weak", "round"))
    assert len(structs) == 588
    passed, refused = [], []
    for struct in structs:
        for law in LawKind:
            try:
                apply_law(struct, law, lexicon)  # an OracleViolation fails the test
            except LawError as err:
                assert str(err) == refusal(struct, law, lexicon)
                refused.append((law, struct))
            else:
                passed.append((law, struct))
    assert (len(passed), len(refused)) == (848, 1504)
    assert passed == [
        (law, struct) for struct in structs for law in LawKind
        if law in applicable_laws(struct, lexicon)
    ]

    def complementary(struct):
        (atom1, negated1), (atom2, negated2) = (
            logic.clause_literal(clause, lexicon) for clause in struct.clauses
        )
        return atom1 == atom2 and negated1 != negated2

    # Commutative is left out exactly on a self-contradictory conjunction,
    # whose swapped negation is the same contradiction.
    conjunctions = [struct for struct in structs if struct.shape is Shape.AND_PAIR]
    contradictions = [struct for struct in conjunctions if complementary(struct)]
    assert len(contradictions) == 20
    assert [
        struct for struct in conjunctions
        if LawKind.COMMUTATIVE not in applicable_laws(struct, lexicon)
    ] == contradictions
