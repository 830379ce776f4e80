"""Propositional semantics for grammar structs.

A sentence struct is interpreted as a formula over atoms
``(subject, attribute)``.  Atom construction normalizes antonyms: when a
lexicon pairs two attributes, the lexicographically smaller one is the base
form and the other side is represented as ``Not(Atom(subject, base))``.
That makes e.g. "weak" and "not strong" the same literal, which is what lets
a truth-table check recognise antonym substitutions as equivalences.

The oracle compiles each formula into its truth table over the union of
the ``n`` distinct atoms of the formulas it compares: an integer of
``2**n`` bits whose bit ``row`` is the formula's value under the assignment
that makes atom ``i`` true exactly when bit ``i`` of ``row`` is set.  Atoms
are numbered in first-occurrence order, atom ``i`` is a fixed bit mask,
``~``, ``&`` and ``|`` are bitwise operations, and two formulas are
equivalent exactly when their tables are equal integers (the canonical-form
idea of Bryant's BDDs, without the sharing).  This is exact for the small
formulas this package produces; a budget of :data:`MAX_ORACLE_ATOMS`
distinct atoms keeps the tables small and is enforced with an error rather
than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .grammar import GrammarSentence, GrammarStructureError, Shape, read_graph
from .graph import AmrGraph
from .lexicon import Lexicon

MAX_ORACLE_ATOMS = 8

# _ATOM_MASKS[i]: the truth table of atom i over MAX_ORACLE_ATOMS atoms.
_ATOM_MASKS: tuple[int, ...] = tuple(
    sum(1 << row for row in range(1 << MAX_ORACLE_ATOMS) if row >> i & 1)
    for i in range(MAX_ORACLE_ATOMS)
)


class LogicError(ValueError):
    """Raised for non-grammar graphs and oracle budget violations."""


@dataclass(frozen=True)
class Atom:
    subject: str
    attribute: str

    def __str__(self) -> str:
        return f"{self.subject}:{self.attribute}"


@dataclass(frozen=True)
class Not:
    operand: "Formula"

    def __str__(self) -> str:
        return f"~{self.operand}"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


Formula = Union[Atom, Not, And, Or, Implies]


def negate(formula: Formula) -> Formula:
    """Logical negation with double negations collapsed at construction."""
    if isinstance(formula, Not):
        return formula.operand
    return Not(formula)


def make_atom(subject: str, attribute: str, negated: bool, lexicon: Lexicon) -> Formula:
    """Build a normalized literal for one clause.

    The attribute is mapped to the base side of its antonym pair (if any)
    before the clause's own negation is applied.
    """
    partner = lexicon.antonym_of(attribute)
    literal: Formula
    if partner is not None and partner < attribute:
        literal = Not(Atom(subject, partner))
    else:
        literal = Atom(subject, attribute)
    return negate(literal) if negated else literal


def atoms(formula: Formula) -> tuple[Atom, ...]:
    """All distinct atoms in first-occurrence order."""
    seen: dict[Atom, None] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.setdefault(node)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        else:
            stack.append(node.consequent)
            stack.append(node.antecedent)
    return tuple(seen)


def _truth_table(formula: Formula, index: dict[tuple[str, str], int]) -> int:
    """The formula's table; an atom not yet in ``index`` takes the next number.

    Raises IndexError once more than MAX_ORACLE_ATOMS atoms are numbered.
    Python's ``~`` is two's complement, so only the low bits are meaningful.
    """
    if isinstance(formula, Atom):
        return _ATOM_MASKS[index.setdefault((formula.subject, formula.attribute), len(index))]
    if isinstance(formula, Not):
        return ~_truth_table(formula.operand, index)
    if isinstance(formula, And):
        return _truth_table(formula.left, index) & _truth_table(formula.right, index)
    if isinstance(formula, Or):
        return _truth_table(formula.left, index) | _truth_table(formula.right, index)
    return ~_truth_table(formula.antecedent, index) | _truth_table(formula.consequent, index)


def _truth_tables(formulas: tuple[Formula, ...]) -> tuple[list[int], int]:
    """The formulas' 2**n-bit tables over the union of their n atoms, and
    the all-true table."""
    index: dict[tuple[str, str], int] = {}
    try:
        tables = [_truth_table(formula, index) for formula in formulas]
    except IndexError:
        n = len(dict.fromkeys(atom for formula in formulas for atom in atoms(formula)))
        raise LogicError(f"atom budget exceeded: {n} atoms > {MAX_ORACLE_ATOMS}") from None
    full = (1 << (1 << len(index))) - 1
    return [table & full for table in tables], full


def equivalent(first: Formula, second: Formula) -> bool:
    """Truth-table equivalence over the union of both formulas' atoms."""
    (first_table, second_table), _ = _truth_tables((first, second))
    return first_table == second_table


def is_tautology(formula: Formula) -> bool:
    (table,), full = _truth_tables((formula,))
    return table == full


def to_formula(graph: AmrGraph, lexicon: Lexicon) -> Formula:
    """Interpret a grammar graph as a propositional formula.

    Raises :class:`LogicError` with ``unsupported structure`` for graphs the
    sentence grammar cannot produce (multi-operand connectives, missing
    subjects, nested compounds).
    """
    try:
        sentence = read_graph(graph)
    except GrammarStructureError as err:
        raise LogicError(f"unsupported structure: {err}") from err
    return formula_of_struct(sentence, lexicon)


def formula_of_struct(sentence: GrammarSentence, lexicon: Lexicon) -> Formula:
    """Interpret a grammar struct directly (clauses in struct order)."""
    literals = [
        make_atom(clause.subject, clause.predicate, clause.negated, lexicon)
        for clause in sentence.clauses
    ]
    if sentence.shape is Shape.ATOMIC:
        return literals[0]
    if sentence.shape is Shape.AND_PAIR:
        return And(*literals)
    if sentence.shape is Shape.OR_PAIR:
        return Or(*literals)
    return Implies(*literals)


def graphs_equivalent(first: AmrGraph, second: AmrGraph, lexicon: Lexicon) -> bool:
    return equivalent(to_formula(first, lexicon), to_formula(second, lexicon))


__all__ = [
    "MAX_ORACLE_ATOMS",
    "LogicError",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Formula",
    "negate",
    "make_atom",
    "atoms",
    "equivalent",
    "is_tautology",
    "to_formula",
    "formula_of_struct",
    "graphs_equivalent",
]
