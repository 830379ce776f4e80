"""The four logical-equivalence rewrites, on grammar structs.

Every rewrite takes a :class:`~amr_logic_aug.grammar.GrammarSentence` and
produces a positive (logically equivalent) struct plus one law-specific
negative (logically nonequivalent) struct.  :func:`apply_law` and
:func:`applicable_laws` also accept an :class:`AmrGraph`, which they read
into its struct once at entry; that is the only place the laws meet a graph.

This module alone decides whether a law applies: :func:`applicable_laws`
returns exactly the laws for which :func:`apply_law` returns, and
:func:`apply_law` raises :class:`LawError`, naming the precondition, for
every other law.  It then always runs the oracle gate
(:func:`verify_outcome`), which no sentence that meets the preconditions
fails (the tests sweep the whole struct space): an
:class:`OracleViolation` is a bug in a law, never a skip.  The gate and
:func:`flip_polarity_negative` work on the structs themselves through
:func:`~amr_logic_aug.logic.structs_equivalent`.
Conventions, each checked by that gate on every :func:`apply_law` call:

contraposition (conditional only)
    positive: swap antecedent/consequent, negate both halves;
    realized in the trailing "B if A." form.
    negative: the positive with its antecedent's negation undone.
implication (conditional → disjunction)
    positive: disjunction with the antecedent negated.
    negative: the positive with its first operand's negation undone.
implication (disjunction → conditional)
    positive: leading "If A, then B." with the first operand negated
    (the negated operand becomes the antecedent).
    negative: the positive with its consequent negated.
commutative (conjunction only, not a contradictory one)
    positive: operands swapped.
    negative: the swapped conjunction with both operands negated.  For
    "A and not A" (one atom, opposite signs, antonyms normalized) that is
    the same contradiction, so the law does not apply there.
double negation (un-negated atomic with a lexicon antonym)
    positive: negate and substitute the antonym ("strong" → "not weak"),
    so realized text never stacks two "not" tokens.
    negative: substitute the antonym without negating ("weak").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import logic
from .grammar import (
    AmrGraph,
    Clause,
    GrammarSentence,
    GrammarStructureError,
    Shape,
    read_graph,
    realize_struct,
)
from .lexicon import Lexicon

# Module-level aliases: reading an enum member through its class is slow.
_ATOMIC, _AND_PAIR, _OR_PAIR = Shape.ATOMIC, Shape.AND_PAIR, Shape.OR_PAIR
_IF_THEN = Shape.IF_THEN


class LawError(ValueError):
    """A rewrite was applied to a sentence outside its precondition."""


class OracleViolation(AssertionError):
    """A constructed pair failed its truth-table gate — a bug, not data."""


class LawKind(str, Enum):
    CONTRAPOSITION = "contraposition"
    IMPLICATION = "implication"
    COMMUTATIVE = "commutative"
    DOUBLE_NEGATION = "double-negation"


_CONTRAPOSITION, _IMPLICATION = LawKind.CONTRAPOSITION, LawKind.IMPLICATION
_COMMUTATIVE, _DOUBLE_NEGATION = LawKind.COMMUTATIVE, LawKind.DOUBLE_NEGATION


@dataclass(frozen=True)
class RewriteOutcome:
    law: LawKind
    positive: GrammarSentence
    negatives: tuple[GrammarSentence, ...]


def _read(sentence: Union[GrammarSentence, AmrGraph]) -> GrammarSentence:
    """The struct of a sentence given as a struct or as a grammar graph."""
    if not isinstance(sentence, AmrGraph):
        return sentence
    try:
        return read_graph(sentence)
    except GrammarStructureError as err:
        raise LawError(f"graph outside grammar: {err}") from err


# The answers of :func:`applicable_laws`, built once.
_NO_LAWS = frozenset()
_CONDITIONAL_LAWS = frozenset({_CONTRAPOSITION, _IMPLICATION})
_OR_LAWS, _AND_LAWS = frozenset({_IMPLICATION}), frozenset({_COMMUTATIVE})
_ATOMIC_LAWS = frozenset({_DOUBLE_NEGATION})


def applicable_laws(
    sentence: Union[GrammarSentence, AmrGraph], lexicon: Lexicon
) -> frozenset[LawKind]:
    """Laws whose preconditions the sentence meets; empty for non-grammar graphs."""
    try:
        sentence = _read(sentence)
    except LawError:
        return _NO_LAWS
    shape = sentence.shape
    if shape is _IF_THEN:
        return _CONDITIONAL_LAWS
    if shape is _OR_PAIR:
        return _OR_LAWS
    if shape is _AND_PAIR:
        return _NO_LAWS if _contradictory(sentence, lexicon) else _AND_LAWS
    clause = sentence.clauses[0]
    if not clause.negated and lexicon.antonym_of(clause.predicate) is not None:
        return _ATOMIC_LAWS
    return _NO_LAWS


def _contradictory(conjunction: GrammarSentence, lexicon: Lexicon) -> bool:
    """Whether the two clauses are one atom with opposite signs."""
    (atom1, negated1), (atom2, negated2) = (
        logic.clause_literal(clause, lexicon) for clause in conjunction.clauses
    )
    return atom1 == atom2 and negated1 != negated2


def apply_contraposition(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape is not _IF_THEN:
        raise LawError("contraposition requires a conditional root")
    ante, cons = sentence.clauses
    not_ante = ante.negate()
    positive = GrammarSentence(_IF_THEN, (cons.negate(), not_ante), trailing_condition=True)
    negative = GrammarSentence(_IF_THEN, (cons, not_ante), trailing_condition=True)
    return RewriteOutcome(_CONTRAPOSITION, positive, (negative,))


def apply_implication(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape is _IF_THEN:
        ante, cons = sentence.clauses
        positive = GrammarSentence(_OR_PAIR, (ante.negate(), cons))
        negative = GrammarSentence(_OR_PAIR, (ante, cons))
    elif sentence.shape is _OR_PAIR:
        first, second = sentence.clauses
        positive = GrammarSentence(_IF_THEN, (first.negate(), second))
        negative = GrammarSentence(_IF_THEN, (first.negate(), second.negate()))
    else:
        raise LawError("implication requires a conditional or disjunction root")
    return RewriteOutcome(_IMPLICATION, positive, (negative,))


def apply_commutative(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape is not _AND_PAIR:
        raise LawError("commutative requires a conjunction root")
    first, second = sentence.clauses
    positive = GrammarSentence(_AND_PAIR, (second, first))
    negative = GrammarSentence(_AND_PAIR, (second.negate(), first.negate()))
    return RewriteOutcome(_COMMUTATIVE, positive, (negative,))


def apply_double_negation(sentence: GrammarSentence, lexicon: Lexicon) -> RewriteOutcome:
    if sentence.shape is not _ATOMIC:
        raise LawError("double negation requires an atomic predicate")
    clause = sentence.clauses[0]
    if clause.negated:
        raise LawError("double negation requires a predicate without polarity")
    antonym = lexicon.antonym_of(clause.predicate)
    if antonym is None:
        raise LawError(f"no antonym for {clause.predicate!r}")
    positive = GrammarSentence(_ATOMIC, (Clause(clause.subject, antonym, True),))
    negative = GrammarSentence(_ATOMIC, (Clause(clause.subject, antonym, False),))
    return RewriteOutcome(_DOUBLE_NEGATION, positive, (negative,))


def apply_law(
    sentence: Union[GrammarSentence, AmrGraph], law: LawKind, lexicon: Lexicon
) -> RewriteOutcome:
    """Dispatch a rewrite and gate it through the truth-table oracle."""
    sentence = _read(sentence)
    if law is _CONTRAPOSITION:
        outcome = apply_contraposition(sentence)
    elif law is _IMPLICATION:
        outcome = apply_implication(sentence)
    elif law is _COMMUTATIVE:
        if sentence.shape is _AND_PAIR and _contradictory(sentence, lexicon):
            raise LawError("commutative does not apply to a contradictory conjunction")
        outcome = apply_commutative(sentence)
    else:
        outcome = apply_double_negation(sentence, lexicon)
    verify_outcome(sentence, outcome, lexicon)
    return outcome


def verify_outcome(original: GrammarSentence, outcome: RewriteOutcome, lexicon: Lexicon) -> None:
    """Raise :class:`OracleViolation` unless labels are semantically right."""
    if not logic.structs_equivalent(original, outcome.positive, lexicon):
        raise OracleViolation(
            f"{outcome.law.value} positive is not equivalent: "
            f"{realize_struct(original)!r} vs {realize_struct(outcome.positive)!r}"
        )
    for negative in outcome.negatives:
        if logic.structs_equivalent(original, negative, lexicon):
            raise OracleViolation(
                f"{outcome.law.value} negative is accidentally equivalent: "
                f"{realize_struct(original)!r} vs {realize_struct(negative)!r}"
            )


def flip_polarity_negative(
    sentence: GrammarSentence, lexicon: Lexicon, rng: random.Random
) -> GrammarSentence:
    """Negate one random clause, oracle-checked against ``sentence``.

    Negating either clause of any struct changes its truth table, so the
    check failing is an :class:`OracleViolation`, never a skip.
    """
    order = list(range(len(sentence.clauses)))
    rng.shuffle(order)  # the shuffle's draws keep the stream after it as it was
    clauses = list(sentence.clauses)
    clauses[order[0]] = clauses[order[0]].negate()
    candidate = GrammarSentence(sentence.shape, tuple(clauses), sentence.trailing_condition)
    if logic.structs_equivalent(sentence, candidate, lexicon):
        raise OracleViolation(
            "polarity flip is accidentally equivalent: "
            f"{realize_struct(sentence)!r} vs {realize_struct(candidate)!r}"
        )
    return candidate


__all__ = [
    "LawError",
    "OracleViolation",
    "LawKind",
    "RewriteOutcome",
    "applicable_laws",
    "apply_contraposition",
    "apply_implication",
    "apply_commutative",
    "apply_double_negation",
    "apply_law",
    "verify_outcome",
    "flip_polarity_negative",
]
