"""The four logical-equivalence rewrites, on grammar structs.

Every rewrite takes a :class:`~amr_logic_aug.grammar.GrammarSentence` and
produces a positive (logically equivalent) struct plus one law-specific
negative (logically nonequivalent) struct.  :func:`apply_law` and
:func:`applicable_laws` also accept an :class:`AmrGraph`, which they read
into its struct once at entry; that is the only place the laws meet a graph.
A "B unless A" struct rewrites exactly like the trailing conditional
"B if A.".  Conventions, all oracle-checked at construction time via
:func:`apply_law`:

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
commutative (conjunction only)
    positive: operands swapped.
    negative: the swapped conjunction with both operands negated.
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

_CONDITIONALS = (Shape.IF_THEN, Shape.UNLESS)


class LawError(ValueError):
    """A rewrite was applied to a sentence outside its precondition."""


class OracleViolation(AssertionError):
    """A constructed pair failed its truth-table gate — a bug, not data."""


class LawKind(str, Enum):
    CONTRAPOSITION = "contraposition"
    IMPLICATION = "implication"
    COMMUTATIVE = "commutative"
    DOUBLE_NEGATION = "double-negation"


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


def applicable_laws(
    sentence: Union[GrammarSentence, AmrGraph], lexicon: Lexicon
) -> set[LawKind]:
    """Laws whose preconditions the sentence meets; {} for non-grammar graphs."""
    try:
        sentence = _read(sentence)
    except LawError:
        return set()
    if sentence.shape in _CONDITIONALS:
        return {LawKind.CONTRAPOSITION, LawKind.IMPLICATION}
    if sentence.shape is Shape.OR_PAIR:
        return {LawKind.IMPLICATION}
    if sentence.shape is Shape.AND_PAIR:
        return {LawKind.COMMUTATIVE}
    clause = sentence.clauses[0]
    if not clause.negated and lexicon.antonym_of(clause.predicate) is not None:
        return {LawKind.DOUBLE_NEGATION}
    return set()


def apply_contraposition(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape not in _CONDITIONALS:
        raise LawError("contraposition requires a conditional root")
    ante, cons = sentence.clauses
    positive = GrammarSentence(
        Shape.IF_THEN, (cons.negate(), ante.negate()), trailing_condition=True
    )
    negative = GrammarSentence(
        Shape.IF_THEN, (cons, ante.negate()), trailing_condition=True
    )
    return RewriteOutcome(LawKind.CONTRAPOSITION, positive, (negative,))


def apply_implication(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape in _CONDITIONALS:
        ante, cons = sentence.clauses
        positive = GrammarSentence(Shape.OR_PAIR, (ante.negate(), cons))
        negative = GrammarSentence(Shape.OR_PAIR, (ante, cons))
    elif sentence.shape is Shape.OR_PAIR:
        first, second = sentence.clauses
        positive = GrammarSentence(Shape.IF_THEN, (first.negate(), second))
        negative = GrammarSentence(Shape.IF_THEN, (first.negate(), second.negate()))
    else:
        raise LawError("implication requires a conditional or disjunction root")
    return RewriteOutcome(LawKind.IMPLICATION, positive, (negative,))


def apply_commutative(sentence: GrammarSentence) -> RewriteOutcome:
    if sentence.shape is not Shape.AND_PAIR:
        raise LawError("commutative requires a conjunction root")
    first, second = sentence.clauses
    positive = GrammarSentence(Shape.AND_PAIR, (second, first))
    negative = GrammarSentence(Shape.AND_PAIR, (second.negate(), first.negate()))
    return RewriteOutcome(LawKind.COMMUTATIVE, positive, (negative,))


def apply_double_negation(sentence: GrammarSentence, lexicon: Lexicon) -> RewriteOutcome:
    if sentence.shape is not Shape.ATOMIC:
        raise LawError("double negation requires an atomic predicate")
    clause = sentence.clauses[0]
    if clause.negated:
        raise LawError("double negation requires a predicate without polarity")
    antonym = lexicon.antonym_of(clause.predicate)
    if antonym is None:
        raise LawError(f"no antonym for {clause.predicate!r}")
    positive = GrammarSentence(Shape.ATOMIC, (Clause(clause.subject, antonym, True),))
    negative = GrammarSentence(Shape.ATOMIC, (Clause(clause.subject, antonym, False),))
    return RewriteOutcome(LawKind.DOUBLE_NEGATION, positive, (negative,))


def apply_law(
    sentence: Union[GrammarSentence, AmrGraph],
    law: LawKind,
    lexicon: Lexicon,
    verify: bool = True,
) -> RewriteOutcome:
    """Dispatch a rewrite and gate it through the truth-table oracle."""
    sentence = _read(sentence)
    if law is LawKind.CONTRAPOSITION:
        outcome = apply_contraposition(sentence)
    elif law is LawKind.IMPLICATION:
        outcome = apply_implication(sentence)
    elif law is LawKind.COMMUTATIVE:
        outcome = apply_commutative(sentence)
    else:
        outcome = apply_double_negation(sentence, lexicon)
    if verify:
        verify_outcome(
            sentence, logic.formula_of_struct(sentence, lexicon), outcome, lexicon
        )
    return outcome


def verify_outcome(
    original: GrammarSentence,
    source: logic.Formula,
    outcome: RewriteOutcome,
    lexicon: Lexicon,
) -> None:
    """Raise :class:`OracleViolation` unless labels are semantically right.

    ``source`` is the formula of ``original``.
    """
    if not logic.equivalent(source, logic.formula_of_struct(outcome.positive, lexicon)):
        raise OracleViolation(
            f"{outcome.law.value} positive is not equivalent: "
            f"{realize_struct(original)!r} vs {realize_struct(outcome.positive)!r}"
        )
    for negative in outcome.negatives:
        if logic.equivalent(source, logic.formula_of_struct(negative, lexicon)):
            raise OracleViolation(
                f"{outcome.law.value} negative is accidentally equivalent: "
                f"{realize_struct(original)!r} vs {realize_struct(negative)!r}"
            )


def flip_polarity_negative(
    sentence: GrammarSentence,
    source: logic.Formula,
    lexicon: Lexicon,
    rng: random.Random,
) -> GrammarSentence:
    """Negate one random clause, oracle-checked against ``source``, its formula."""
    order = list(range(len(sentence.clauses)))
    rng.shuffle(order)
    for index in order:
        clauses = list(sentence.clauses)
        clauses[index] = clauses[index].negate()
        candidate = GrammarSentence(
            sentence.shape, tuple(clauses), sentence.trailing_condition
        )
        if not logic.equivalent(source, logic.formula_of_struct(candidate, lexicon)):
            return candidate
    raise LawError("no polarity flip yields a nonequivalent sentence")


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
