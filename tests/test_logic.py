"""Formula construction, the truth-table oracle, and graph-to-formula reading."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from amr_logic_aug.corpus import PATTERN_LAW
from amr_logic_aug.files import InputError
from amr_logic_aug.grammar import (
    Clause,
    GrammarError,
    GrammarSentence,
    Shape,
    build_graph,
    parse_sentence_struct,
)
from amr_logic_aug.laws import apply_law
from amr_logic_aug.lexicon import parse_lexicon
from amr_logic_aug.logic import (
    MAX_ORACLE_ATOMS,
    And,
    Atom,
    Implies,
    Not,
    Or,
    clause_literal,
    equivalent,
    formula_of_struct,
    meaning,
    to_formula,
)
from amr_logic_aug.graph import parse_penman

from test_laws import every_struct
from test_lexicon import make_source


# --- independent re-implementation of the oracle, for cross-checking -------


def eval2(formula, assignment):
    if isinstance(formula, Atom):
        return assignment[(formula.subject, formula.attribute)]
    if isinstance(formula, Not):
        return not eval2(formula.operand, assignment)
    if isinstance(formula, And):
        return eval2(formula.left, assignment) and eval2(formula.right, assignment)
    if isinstance(formula, Or):
        return eval2(formula.left, assignment) or eval2(formula.right, assignment)
    if isinstance(formula, Implies):
        return (not eval2(formula.antecedent, assignment)) or eval2(
            formula.consequent, assignment
        )
    raise TypeError(formula)


def atoms2(formula):
    if isinstance(formula, Atom):
        return {(formula.subject, formula.attribute)}
    if isinstance(formula, Not):
        return atoms2(formula.operand)
    if isinstance(formula, Implies):
        return atoms2(formula.antecedent) | atoms2(formula.consequent)
    return atoms2(formula.left) | atoms2(formula.right)


def equivalent2(f, g):
    names = sorted(atoms2(f) | atoms2(g))
    for values in itertools.product([False, True], repeat=len(names)):
        assignment = dict(zip(names, values))
        if eval2(f, assignment) != eval2(g, assignment):
            return False
    return True


def tautology(formula):
    """The bitset oracle's tautology verdict: a formula is a tautology exactly
    when it is equivalent to ``f or not f``, which has the same atoms."""
    return equivalent(formula, Or(formula, Not(formula)))


def random_formula(rng: random.Random, depth: int = 3):
    # 3 subjects x 2 attributes = 6 possible atoms, inside the oracle budget
    # even across a formula pair.
    if depth == 0 or rng.random() < 0.3:
        atom = Atom(rng.choice("pqr"), rng.choice("ab"))
        return Not(atom) if rng.random() < 0.5 else atom
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    left = random_formula(rng, depth - 1)
    right = random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def test_oracle_agrees_with_independent_enumerator():
    rng = random.Random(42)
    agree = 0
    for _ in range(1000):
        f, g = random_formula(rng), random_formula(rng)
        assert equivalent(f, g) == equivalent2(f, g)
        agree += 1
    assert agree == 1000


# --- construction and normalization ----------------------------------------


def literal(attribute, negated, lexicon):
    """The formula of the one-clause sentence "the cat is [not] <attribute>"."""
    clause = Clause("the cat", attribute, negated)
    return formula_of_struct(GrammarSentence(Shape.ATOMIC, (clause,)), lexicon)


def test_a_literal_normalizes_antonyms(lexicon):
    # the antonym-side adjective becomes a negated base atom
    weak = literal("weak", False, lexicon)
    strong = literal("strong", False, lexicon)
    assert weak == Not(strong)
    assert equivalent(literal("weak", True, lexicon), strong)
    # the base attribute is the lexicographically smaller of the pair
    assert isinstance(strong, Atom) and strong.attribute == "strong"
    assert clause_literal(Clause("the cat", "weak"), lexicon) == (("the cat", "strong"), True)
    assert clause_literal(Clause("the cat", "weak", True), lexicon) == (("the cat", "strong"), False)


def test_clause_literal_follows_the_antonym_rule(lexicon):
    # "round" is paired with the extension attribute "flat", which sorts
    # first, so an attribute maps to a base atom outside the attributes.
    source = make_source(
        entities=("the owl",),
        ext_attributes=("sleepy", "flat"),
        antonyms=(("strong", "weak"), ("weak", "strong"),
                  ("round", "flat"), ("flat", "round")),
    )
    extended = parse_lexicon(source)
    assert extended.antonyms.get("flat") == "round"
    for lex in (lexicon, extended):
        # "sleepy" is an extension attribute that no antonym row pairs.
        words = set(lex.attributes) | set(lex.antonyms) | {"sleepy"}
        for word in sorted(words):
            partner = lex.antonyms.get(word)
            base = word if partner is None else min(word, partner)
            for negated in (False, True):
                expected = (("the owl", base), negated != (base != word))
                assert clause_literal(Clause("the owl", word, negated), lex) == expected


def test_a_literal_without_antonym(lexicon):
    atom = literal("round", False, lexicon)
    assert atom == Atom("the cat", "round")
    assert literal("round", True, lexicon) == Not(atom)
    assert clause_literal(Clause("the cat", "round", True), lexicon) == (("the cat", "round"), True)


def test_equivalence_basics():
    p, q = Atom("p", "a"), Atom("q", "a")
    assert equivalent(Implies(p, q), Or(Not(p), q))
    assert equivalent(Implies(p, q), Implies(Not(q), Not(p)))
    assert equivalent(And(p, q), And(q, p))
    assert not equivalent(Implies(p, q), Implies(q, p))
    assert tautology(Or(p, Not(p)))
    assert not tautology(p)


def test_formula_nodes_compare_and_hash_by_type():
    # Each node is a named tuple; plain tuple equality would make And(p, q)
    # equal Or(p, q), and the == asserts on rewrites would pass on a wrong
    # connective.
    p, q = Atom("p", "a"), Atom("q", "a")
    assert len({And(p, q), Or(p, q), Implies(p, q)}) == 3
    assert Not(p) != (p,) and (p,) != Not(p)
    assert Atom("p", "a") != ("p", "a")
    assert And(p, q) != Or(p, q) and not And(p, q) == Or(p, q)
    assert And(p, q) == And(Atom("p", "a"), q) and not And(p, q) != And(p, q)
    assert hash(And(p, q)) == hash(And(Atom("p", "a"), q))


def test_oracle_budget_is_enforced():
    atoms = [Atom(f"s{i}", "a") for i in range(MAX_ORACLE_ATOMS + 1)]
    big = atoms[0]
    for atom in atoms[1:]:
        big = And(big, atom)
    with pytest.raises(InputError, match="^atom budget exceeded: 9 atoms > 8$"):
        tautology(big)
    # at the budget boundary it still works
    ok = atoms[0]
    for atom in atoms[1 : MAX_ORACLE_ATOMS]:
        ok = And(ok, atom)
    assert not tautology(ok)


# --- reading formulas off graphs --------------------------------------------


def test_to_formula_shapes(lexicon):
    def formula_of(text):
        return to_formula(build_graph(parse_sentence_struct(text, lexicon)), lexicon)

    atom = formula_of("The cat is kind.")
    assert atom == Atom("the cat", "kind")
    assert formula_of("The cat is not kind.") == Not(atom)
    conj = formula_of("The cat is kind and the dog is quiet.")
    assert conj == And(Atom("the cat", "kind"), Atom("the dog", "quiet"))
    cond = formula_of("If the cat is kind, then the dog is quiet.")
    assert cond == Implies(Atom("the cat", "kind"), Atom("the dog", "quiet"))
    trailing = formula_of("The dog is quiet if the cat is kind.")
    assert trailing == cond
    disj = formula_of("The cat is kind or the dog is quiet.")
    assert disj == Or(Atom("the cat", "kind"), Atom("the dog", "quiet"))


def test_to_formula_applies_antonym_normalization(lexicon):
    f = to_formula(build_graph(parse_sentence_struct("The cat is weak.", lexicon)), lexicon)
    assert f == Not(Atom("the cat", "strong"))


def test_to_formula_rejects_non_grammar_graph(lexicon):
    graph = parse_penman("(w / want-01 :ARG0 (b / boy))")
    with pytest.raises(GrammarError, match="^graph outside grammar: "):
        to_formula(graph, lexicon)


# --- bitset oracle against the enumeration reference -----------------------


def tautology2(formula):
    names = sorted(atoms2(formula))
    return all(
        eval2(formula, dict(zip(names, values)))
        for values in itertools.product([False, True], repeat=len(names))
    )


def formula_over(rng: random.Random, pool, depth: int = 4):
    if depth == 0 or rng.random() < 0.25:
        atom = rng.choice(pool)
        return Not(atom) if rng.random() < 0.5 else atom
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return Not(formula_over(rng, pool, depth - 1))
    left = formula_over(rng, pool, depth - 1)
    right = formula_over(rng, pool, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def without_implications(formula):
    """An equivalent formula with every ``a -> b`` written as ``~a | b``."""
    if isinstance(formula, Atom):
        return formula
    if isinstance(formula, Not):
        return Not(without_implications(formula.operand))
    if isinstance(formula, Implies):
        return Or(
            Not(without_implications(formula.antecedent)),
            without_implications(formula.consequent),
        )
    return type(formula)(without_implications(formula.left), without_implications(formula.right))


@pytest.mark.parametrize("n", range(1, MAX_ORACLE_ATOMS + 1))
def test_bitset_oracle_matches_enumeration(n):
    rng = random.Random(1000 + n)
    pool = [Atom(f"s{i}", "a") for i in range(n)]
    verdicts = set()
    for _ in range(150):
        f, g = formula_over(rng, pool), formula_over(rng, pool)
        for first, second in ((f, g), (f, without_implications(f)), (f, And(g, Not(g)))):
            verdict = equivalent(first, second)
            assert verdict == equivalent2(first, second)
            verdicts.add(verdict)
        for formula in (f, Or(f, Not(f)), Implies(And(f, g), f)):
            assert tautology(formula) == tautology2(formula)
    assert verdicts == {True, False}


def test_bitset_oracle_budget_is_the_union_of_atoms():
    pool = [Atom(f"s{i}", "a") for i in range(MAX_ORACLE_ATOMS + 1)]
    left = pool[0]
    for atom in pool[1:MAX_ORACLE_ATOMS]:
        left = Or(left, atom)
    right = Or(pool[0], pool[MAX_ORACLE_ATOMS])
    assert equivalent(left, left)
    with pytest.raises(InputError, match="^atom budget exceeded: 9 atoms > 8$"):
        equivalent(left, right)
    with pytest.raises(InputError, match="^atom budget exceeded: 9 atoms > 8$"):
        tautology(Or(left, right))


# --- the canonical key against the Formula reference -----------------------


def reference_equivalent(first, second, lexicon):
    return equivalent(formula_of_struct(first, lexicon), formula_of_struct(second, lexicon))


def one_clause_flips(struct):
    for index in range(len(struct.clauses)):
        clauses = list(struct.clauses)
        clauses[index] = clauses[index].negate()
        yield GrammarSentence(struct.shape, tuple(clauses), struct.trailing_condition)


def test_meaning_matches_reference_on_corpus_rewrites(lexicon, full_corpus):
    verdicts = Counter()
    for sentence in full_corpus:
        struct = sentence.struct
        key = meaning(struct, lexicon)
        outcome = apply_law(struct, PATTERN_LAW[sentence.pattern], lexicon)
        for other in (outcome.positive, outcome.negative, *one_clause_flips(struct)):
            verdict = meaning(other, lexicon) == key
            assert verdict == reference_equivalent(struct, other, lexicon), (struct, other)
            verdicts[verdict] += 1
    assert verdicts[True] == len(full_corpus)
    assert verdicts[False] > 2 * len(full_corpus)


def random_struct(rng, subjects, attributes):
    shape = rng.choice(list(Shape))
    count = 1 if shape is Shape.ATOMIC else 2
    clauses = tuple(
        Clause(rng.choice(subjects), rng.choice(attributes), rng.random() < 0.5)
        for _ in range(count)
    )
    return GrammarSentence(shape, clauses, rng.random() < 0.5)


def test_meaning_matches_reference_on_random_pairs(lexicon):
    # Few subjects and attributes make shared atoms common.  One antonym pair
    # is listed base-first and one base-last, so both sides of the
    # normalization are exercised.
    attributes = ("weak", "strong", "old", "young", "round")
    small = lexicon._replace(
        attributes=attributes,
        antonyms={"weak": "strong", "strong": "weak", "old": "young", "young": "old"},
    )
    subjects = lexicon.entities[:2]
    rng = random.Random(2021)
    verdicts = Counter()
    # Pairs that name 4 distinct atoms share none, so only the sorted atoms
    # of each key can tell them apart.
    four_atom_pairs = 0
    for _ in range(50_000):
        first = random_struct(rng, subjects, attributes)
        second = random_struct(rng, subjects, attributes)
        verdict = meaning(first, small) == meaning(second, small)
        assert verdict == reference_equivalent(first, second, small), (first, second)
        verdicts[verdict] += 1
        keys = {clause_literal(c, small)[0] for c in first.clauses + second.clauses}
        four_atom_pairs += len(keys) == 4
    assert verdicts[True] > 500 and verdicts[False] > 40_000
    assert four_atom_pairs > 5_000  # 7,973 at this seed


def test_meaning_matches_reference_on_the_whole_struct_space(lexicon):
    structs = every_struct(lexicon.entities[:2], ("strong", "weak", "round"))
    keys = [meaning(struct, lexicon) for struct in structs]
    formulas = [formula_of_struct(struct, lexicon) for struct in structs]
    verdicts = Counter()
    for first, first_key, first_formula in zip(structs, keys, formulas):
        for second, second_key, second_formula in zip(structs, keys, formulas):
            verdict = first_key == second_key
            assert verdict == equivalent(first_formula, second_formula), (first, second)
            verdicts[verdict] += 1
    assert (verdicts[True], verdicts[False]) == (10_676, 335_068)  # 588 ** 2 ordered pairs


def test_meaning_is_canonical_on_the_whole_struct_space(lexicon):
    # Each key names exactly the atoms its reference table depends on, in
    # sorted order, and its table is that function over them.
    shapes = Counter()
    for struct in every_struct(lexicon.entities[:2], ("strong", "weak", "round")):
        formula = formula_of_struct(struct, lexicon)
        names = sorted(atoms2(formula))
        rows = [dict(zip(names, values))
                for values in itertools.product([False, True], repeat=len(names))]
        essential = [
            name for name in names
            if any(eval2(formula, row) != eval2(formula, {**row, name: not row[name]})
                   for row in rows)
        ]
        first, second, table = meaning(struct, lexicon)
        named = [atom for atom in (first, second) if atom is not None]
        assert named == essential, struct
        assert second is None or first is not None, struct
        for row in range(4):
            values = {**rows[0], **{atom: bool(row >> i & 1) for i, atom in enumerate(named)}}
            assert bool(table >> row & 1) == eval2(formula, values), (struct, row)
        shapes[len(named)] += 1
    assert shapes == {0: 80, 1: 92, 2: 416}
