"""The four logical-equivalence rewrites, on grammar structs.

Every rewrite takes a :class:`~amr_logic_aug.grammar.GrammarSentence` and
produces a positive (logically equivalent) struct plus one law-specific
negative (logically nonequivalent) struct.  :func:`apply_law` and
:func:`applicable_laws` also accept an :class:`AmrGraph`, which they read
into its struct once at entry; that is the only place the laws meet a graph.
A graph outside the grammar raises ``read_graph``'s ``GrammarError`` from
:func:`apply_law` and gets no law from :func:`applicable_laws`.

Each law's precondition is stated once, in :func:`refusal`, which every
caller that asks whether a law applies reads.  :func:`applicable_laws`
returns the laws it passes, and :func:`apply_law`, the only public way to
rewrite, raises its :class:`LawError` text for every other law before it
runs the law's guard-free entry in ``_REWRITES``.  It
then always runs the oracle gate (:func:`verify_outcome`), which no
sentence that meets the preconditions fails (the tests sweep the whole
struct space): an :class:`OracleViolation` is a bug in a law, never a skip.
The gate and :func:`flip_polarity_negative` compare the structs' canonical
keys, :func:`~amr_logic_aug.logic.meaning`.
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
from enum import Enum
from typing import NamedTuple, Union

from . import logic
from .grammar import (
    AmrGraph,
    Clause,
    GrammarError,
    GrammarSentence,
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
_LAWS = tuple(LawKind)  # iterating the enum class is slow too


class RewriteOutcome(NamedTuple):
    law: LawKind
    positive: GrammarSentence
    negative: GrammarSentence


def _read(sentence: Union[GrammarSentence, AmrGraph]) -> GrammarSentence:
    """The struct of a sentence given as a struct or as a graph (``read_graph``'s)."""
    return read_graph(sentence) if isinstance(sentence, AmrGraph) else sentence


def refusal(sentence: GrammarSentence, law: LawKind, lexicon: Lexicon) -> str:
    """Why ``law`` does not apply to ``sentence`` (the text :func:`apply_law`
    raises), or ``''`` when it does."""
    shape = sentence.shape
    if law is _CONTRAPOSITION:
        return "" if shape is _IF_THEN else "contraposition requires a conditional root"
    if law is _IMPLICATION:
        if shape is _IF_THEN or shape is _OR_PAIR:
            return ""
        return "implication requires a conditional or disjunction root"
    if law is _COMMUTATIVE:
        if shape is not _AND_PAIR:
            return "commutative requires a conjunction root"
        (atom1, negated1), (atom2, negated2) = (
            logic.clause_literal(clause, lexicon) for clause in sentence.clauses
        )
        if atom1 == atom2 and negated1 != negated2:
            return "commutative does not apply to a contradictory conjunction"
        return ""
    if shape is not _ATOMIC:
        return "double negation requires an atomic predicate"
    clause = sentence.clauses[0]
    if clause.negated:
        return "double negation requires a predicate without polarity"
    if clause.predicate not in lexicon.antonyms:
        return f"no antonym for {clause.predicate!r}"
    return ""


def applicable_laws(
    sentence: Union[GrammarSentence, AmrGraph], lexicon: Lexicon
) -> frozenset[LawKind]:
    """Laws whose preconditions the sentence meets; empty for non-grammar graphs."""
    try:
        sentence = _read(sentence)
    except GrammarError:
        return frozenset()
    return frozenset([law for law in _LAWS if not refusal(sentence, law, lexicon)])


def _contraposition(sentence: GrammarSentence, lexicon: Lexicon):
    ante, cons = sentence.clauses
    not_ante = ante.negate()
    return (
        GrammarSentence(_IF_THEN, (cons.negate(), not_ante), True),
        GrammarSentence(_IF_THEN, (cons, not_ante), True),
    )


def _implication(sentence: GrammarSentence, lexicon: Lexicon):
    first, second = sentence.clauses
    if sentence.shape is _IF_THEN:
        return (
            GrammarSentence(_OR_PAIR, (first.negate(), second)),
            GrammarSentence(_OR_PAIR, (first, second)),
        )
    return (
        GrammarSentence(_IF_THEN, (first.negate(), second)),
        GrammarSentence(_IF_THEN, (first.negate(), second.negate())),
    )


def _commutative(sentence: GrammarSentence, lexicon: Lexicon):
    first, second = sentence.clauses
    return (
        GrammarSentence(_AND_PAIR, (second, first)),
        GrammarSentence(_AND_PAIR, (second.negate(), first.negate())),
    )


def _double_negation(sentence: GrammarSentence, lexicon: Lexicon):
    subject, predicate, _ = sentence.clauses[0]
    antonym = lexicon.antonyms.get(predicate)
    return (
        GrammarSentence(_ATOMIC, (Clause(subject, antonym, True),)),
        GrammarSentence(_ATOMIC, (Clause(subject, antonym, False),)),
    )


# ``(positive, negative)`` of a sentence that meets the law's precondition.
_REWRITES = {
    _CONTRAPOSITION: _contraposition,
    _IMPLICATION: _implication,
    _COMMUTATIVE: _commutative,
    _DOUBLE_NEGATION: _double_negation,
}


def apply_law(
    sentence: Union[GrammarSentence, AmrGraph], law: LawKind, lexicon: Lexicon
) -> RewriteOutcome:
    """Rewrite by ``law`` and gate the result through the truth-table oracle."""
    sentence = _read(sentence)
    reason = refusal(sentence, law, lexicon)
    if reason:
        raise LawError(reason)
    outcome = RewriteOutcome(law, *_REWRITES[law](sentence, lexicon))
    verify_outcome(sentence, outcome, lexicon)
    return outcome


def verify_outcome(original: GrammarSentence, outcome: RewriteOutcome, lexicon: Lexicon) -> None:
    """Raise :class:`OracleViolation` unless labels are semantically right."""
    key = logic.meaning(original, lexicon)
    if logic.meaning(outcome.positive, lexicon) != key:
        raise OracleViolation(
            f"{outcome.law.value} positive is not equivalent: "
            f"{realize_struct(original)!r} vs {realize_struct(outcome.positive)!r}"
        )
    if logic.meaning(outcome.negative, lexicon) == key:
        raise OracleViolation(
            f"{outcome.law.value} negative is accidentally equivalent: "
            f"{realize_struct(original)!r} vs {realize_struct(outcome.negative)!r}"
        )


def flip_polarity_negative(
    sentence: GrammarSentence, lexicon: Lexicon, rng: random.Random, key: tuple
) -> GrammarSentence:
    """Negate one random clause, oracle-checked against ``key``, the
    caller's :func:`~amr_logic_aug.logic.meaning` of ``sentence``.

    Negating either clause of any struct changes its truth table, so the
    check failing is an :class:`OracleViolation`, never a skip.
    """
    order = list(range(len(sentence.clauses)))
    rng.shuffle(order)  # the shuffle's draws keep the stream after it as it was
    clauses = list(sentence.clauses)
    clauses[order[0]] = clauses[order[0]].negate()
    candidate = GrammarSentence(sentence.shape, tuple(clauses), sentence.trailing_condition)
    if logic.meaning(candidate, lexicon) == key:
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
    "refusal",
    "applicable_laws",
    "apply_law",
    "verify_outcome",
    "flip_polarity_negative",
]
