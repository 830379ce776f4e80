"""Propositional semantics for grammar structs.

A struct means a formula over atoms ``(subject, attribute)``.
:func:`clause_literal` normalizes antonyms: of a lexicon antonym pair, the
lexicographically smaller attribute is the base atom and the other is its
negation, so "weak" and "not strong" are the same literal.

A truth table over ``n`` atoms is an integer of ``2**n`` bits whose bit
``row`` is the value when atom ``i`` is true exactly if bit ``i`` of ``row``
is set.  Atoms are numbered in first-occurrence order, atom ``i`` is a
fixed bit mask, ``~``, ``&`` and ``|`` are bitwise, and two formulas are
equivalent exactly when their tables are equal (Bryant's canonical-form
idea, without the sharing).

:func:`meaning` is the production oracle.  A struct names at most two
atoms, so its meaning has a canonical key: its essential atoms (those its
table depends on), sorted, and its 4-row table over them.  Two structs are
equivalent exactly when their keys are equal, which makes equivalence an
identity test (Bryant's reduced ordered form, for at most two inputs).  The
:data:`Formula` tree, :func:`formula_of_struct` and :func:`equivalent` are the
reference surface that defines these semantics; the acceptance tests and
the key's differential test are written against it.  It keeps the budget of
:data:`MAX_ORACLE_ATOMS` atoms (256-row tables), enforced with an error
rather than silently degrading.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .files import InputError
from .grammar import AND_PAIR, ATOMIC, OR_PAIR, Clause, GrammarSentence, read_graph
from .lexicon import Lexicon

if TYPE_CHECKING:
    from .graph import AmrGraph

MAX_ORACLE_ATOMS = 8

# _ATOM_MASKS[i]: the truth table of atom i over MAX_ORACLE_ATOMS atoms.
_ATOM_MASKS: tuple[int, ...] = tuple(
    sum(1 << row for row in range(1 << MAX_ORACLE_ATOMS) if row >> i & 1)
    for i in range(MAX_ORACLE_ATOMS)
)


class Atom(NamedTuple):
    subject: str
    attribute: str


class Not(NamedTuple):
    operand: "Formula"


class And(NamedTuple):
    left: "Formula"
    right: "Formula"


class Or(NamedTuple):
    left: "Formula"
    right: "Formula"


class Implies(NamedTuple):
    antecedent: "Formula"
    consequent: "Formula"


def _node_eq(self, other: object) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _node_ne(self, other: object) -> bool:
    return type(self) is not type(other) or tuple.__ne__(self, other)


def _node_hash(self) -> int:
    return hash((type(self), tuple.__hash__(self)))


# Tuple equality ignores the type, so And(p, q) would equal Or(p, q): each
# node compares and hashes by its class and its fields.
for _node in (Atom, Not, And, Or, Implies):
    _node.__eq__, _node.__ne__, _node.__hash__ = _node_eq, _node_ne, _node_hash


Formula = Union[Atom, Not, And, Or, Implies]


def clause_literal(clause: Clause, lexicon: Lexicon) -> tuple[tuple[str, str], bool]:
    """The clause's atom ``(subject, base attribute)`` and whether the clause
    negates it, the attribute mapped to the base side of its antonym pair
    through ``lexicon.antonym_bases``."""
    base = lexicon.antonym_bases.get(clause.predicate)
    if base is not None:
        return (clause.subject, base), not clause.negated
    return (clause.subject, clause.predicate), clause.negated


def _truth_table(formula: Formula, index: dict[tuple[str, str], int]) -> int:
    """The formula's table; an atom not yet in ``index`` takes the next number.

    An atom numbered past MAX_ORACLE_ATOMS has the table 0, so the caller
    tells an exceeded budget by the size of ``index``.  Python's ``~`` is
    two's complement, so only the low bits are meaningful.
    """
    if isinstance(formula, Atom):
        number = index.setdefault((formula.subject, formula.attribute), len(index))
        return _ATOM_MASKS[number] if number < MAX_ORACLE_ATOMS else 0
    if isinstance(formula, Not):
        return ~_truth_table(formula.operand, index)
    if isinstance(formula, And):
        return _truth_table(formula.left, index) & _truth_table(formula.right, index)
    if isinstance(formula, Or):
        return _truth_table(formula.left, index) | _truth_table(formula.right, index)
    return ~_truth_table(formula.antecedent, index) | _truth_table(formula.consequent, index)


def equivalent(first: Formula, second: Formula) -> bool:
    """Truth-table equivalence over the union of both formulas' atoms."""
    index: dict[tuple[str, str], int] = {}
    table = _truth_table(first, index) ^ _truth_table(second, index)
    if len(index) > MAX_ORACLE_ATOMS:
        raise InputError(f"atom budget exceeded: {len(index)} atoms > {MAX_ORACLE_ATOMS}")
    full = (1 << (1 << len(index))) - 1
    return table & full == 0


def to_formula(graph: AmrGraph, lexicon: Lexicon) -> Formula:
    """Interpret a grammar graph as a propositional formula.

    A graph outside the grammar raises ``read_graph``'s ``GrammarError``.
    """
    return formula_of_struct(read_graph(graph), lexicon)


def formula_of_struct(sentence: GrammarSentence, lexicon: Lexicon) -> Formula:
    """Interpret a grammar struct directly (clauses in struct order)."""
    literals = [Not(Atom(*atom)) if negated else Atom(*atom)
                for atom, negated in (clause_literal(c, lexicon) for c in sentence.clauses)]
    if sentence.shape is ATOMIC:
        return literals[0]
    if sentence.shape is AND_PAIR:
        return And(*literals)
    if sentence.shape is OR_PAIR:
        return Or(*literals)
    return Implies(*literals)


def meaning(
    sentence: GrammarSentence, lexicon: Lexicon
) -> tuple[Optional[tuple[str, str]], Optional[tuple[str, str]], int]:
    """The canonical key ``(atom 0, atom 1, table)``: the struct's essential
    :func:`clause_literal` atoms, sorted, ``None`` for an absent one, and its
    4-row table over them (atom 0 is ``0b1010``, atom 1 ``0b1100``).  Two
    clauses on one atom collapse to it, or to no atom for a tautology or a
    contradiction."""
    clauses = sentence.clauses
    first, first_negated = clause_literal(clauses[0], lexicon)
    if len(clauses) == 1:
        return first, None, 0b0101 if first_negated else 0b1010
    second, second_negated = clause_literal(clauses[1], lexicon)
    if first == second:
        left = right = 0b1010
    elif first < second:
        left, right = 0b1010, 0b1100
    else:
        left, right = 0b1100, 0b1010
    if first_negated:
        left ^= 0b1111
    if second_negated:
        right ^= 0b1111
    shape = sentence.shape
    if shape is AND_PAIR:
        table = left & right
    elif shape is OR_PAIR:
        table = left | right
    else:
        table = (left ^ 0b1111) | right
    if first == second:
        return (None, None, table) if table in (0, 0b1111) else (first, None, table)
    return (first, second, table) if first < second else (second, first, table)
