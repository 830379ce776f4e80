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

:func:`structs_equivalent` is the production oracle: it compiles each struct
(at most two clauses, one connective) in one pass, a literal mask per clause
combined by shape; :func:`equivalence_to` compiles one side once for a
run of comparisons against it.  A pair of structs names at most 4 atoms,
so its tables have 16 rows: small ints, negated with ``^ 0xFFFF`` and
compared with ``==``.  The :data:`Formula` tree, :func:`formula_of_struct` and
:func:`equivalent` are the reference surface that defines these semantics;
the acceptance tests and the compile's differential test are written
against it.  It keeps the budget of :data:`MAX_ORACLE_ATOMS` atoms (256-row
tables), enforced with an error rather than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .grammar import Clause, GrammarSentence, GrammarStructureError, Shape, read_graph
from .graph import AmrGraph
from .lexicon import Lexicon

MAX_ORACLE_ATOMS = 8

# _ATOM_MASKS[i]: the truth table of atom i over MAX_ORACLE_ATOMS atoms.
_ATOM_MASKS: tuple[int, ...] = tuple(
    sum(1 << row for row in range(1 << MAX_ORACLE_ATOMS) if row >> i & 1)
    for i in range(MAX_ORACLE_ATOMS)
)
# A pair of structs names at most 4 atoms (two clauses each), so its tables
# need only the 16 rows over atoms 0-3: small ints, negated with ``^ 0xFFFF``.
_PAIR_MASKS: tuple[int, ...] = tuple(mask & 0xFFFF for mask in _ATOM_MASKS[:4])
# Reading an enum member through its class costs more than the bit algebra.
_AND_PAIR, _OR_PAIR = Shape.AND_PAIR, Shape.OR_PAIR


class LogicError(ValueError):
    """Raised for non-grammar graphs and oracle budget violations."""


@dataclass(frozen=True)
class Atom:
    subject: str
    attribute: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


def clause_literal(clause: Clause, lexicon: Lexicon) -> tuple[tuple[str, str], bool]:
    """The clause's atom ``(subject, base attribute)`` and whether the clause
    negates it, the attribute mapped to the base side of its antonym pair
    through ``lexicon.antonym_bases``."""
    base = lexicon.antonym_bases.get(clause.predicate)
    if base is not None:
        return (clause.subject, base), not clause.negated
    return (clause.subject, clause.predicate), clause.negated


def make_atom(subject: str, attribute: str, negated: bool, lexicon: Lexicon) -> Formula:
    """The normalized literal of one clause (see :func:`clause_literal`)."""
    (subject, base), negated = clause_literal(Clause(subject, attribute, negated), lexicon)
    return Not(Atom(subject, base)) if negated else Atom(subject, base)


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


def equivalent(first: Formula, second: Formula) -> bool:
    """Truth-table equivalence over the union of both formulas' atoms."""
    index: dict[tuple[str, str], int] = {}
    try:
        table = _truth_table(first, index) ^ _truth_table(second, index)
    except IndexError:
        n = len(dict.fromkeys(atoms(first) + atoms(second)))
        raise LogicError(f"atom budget exceeded: {n} atoms > {MAX_ORACLE_ATOMS}") from None
    full = (1 << (1 << len(index))) - 1
    return table & full == 0


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
    literals = [make_atom(c.subject, c.predicate, c.negated, lexicon) for c in sentence.clauses]
    if sentence.shape is Shape.ATOMIC:
        return literals[0]
    if sentence.shape is Shape.AND_PAIR:
        return And(*literals)
    if sentence.shape is Shape.OR_PAIR:
        return Or(*literals)
    return Implies(*literals)


def _struct_table(sentence: GrammarSentence, lexicon: Lexicon, index: dict) -> int:
    """The struct's 16-row table, compiled like ``formula_of_struct`` without
    the tree; ``index`` numbers the atoms seen so far (at most 4 in a pair)."""
    clauses = sentence.clauses
    key, negated = clause_literal(clauses[0], lexicon)
    first = _PAIR_MASKS[index.setdefault(key, len(index))]
    if negated:
        first ^= 0xFFFF
    if len(clauses) == 1:
        return first
    key, negated = clause_literal(clauses[1], lexicon)
    second = _PAIR_MASKS[index.setdefault(key, len(index))]
    if negated:
        second ^= 0xFFFF
    shape = sentence.shape
    if shape is _AND_PAIR:
        return first & second
    if shape is _OR_PAIR:
        return first | second
    return (first ^ 0xFFFF) | second


def structs_equivalent(first: GrammarSentence, second: GrammarSentence, lexicon: Lexicon) -> bool:
    """``equivalent(formula_of_struct(first), formula_of_struct(second))``
    without the trees, on 16-row tables."""
    index: dict[tuple[str, str], int] = {}
    return _struct_table(first, lexicon, index) == _struct_table(second, lexicon, index)


def equivalence_to(
    first: GrammarSentence, lexicon: Lexicon
) -> Callable[[GrammarSentence], bool]:
    """``lambda second: structs_equivalent(first, second, lexicon)`` with
    ``first``'s table compiled once: each ``second`` is compiled against a
    copy of ``first``'s atom index."""
    index: dict[tuple[str, str], int] = {}
    table = _struct_table(first, lexicon, index)

    def equivalent_to_first(second: GrammarSentence) -> bool:
        return _struct_table(second, lexicon, index.copy()) == table

    return equivalent_to_first


__all__ = [
    "MAX_ORACLE_ATOMS",
    "LogicError",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Formula",
    "clause_literal",
    "make_atom",
    "atoms",
    "equivalent",
    "to_formula",
    "formula_of_struct",
    "structs_equivalent",
    "equivalence_to",
]
