"""Synthetic corpus generation: counts, determinism, and serialization."""

from __future__ import annotations

import inspect
import json
import math
from collections import Counter

import pytest

import amr_logic_aug
from amr_logic_aug import pairs
from amr_logic_aug.corpus import (
    DEFAULT_SEED,
    DEFAULT_TARGET,
    PatternKind,
    build_corpus,
    corpus_from_jsonl,
    corpus_to_jsonl,
    family_capacity,
)
from amr_logic_aug.files import InputError
from amr_logic_aug.grammar import (
    Clause,
    Shape,
    build_graph,
    parse_sentence_struct,
    penman_of_struct,
    read_graph,
    realize,
)
from amr_logic_aug.graph import serialize
from amr_logic_aug.lexicon import parse_lexicon
from amr_logic_aug.logic import clause_literal


def atoms_of(record, lexicon):
    """(subject, base attribute, sign) of each clause of a corpus sentence."""
    literals = (clause_literal(clause, lexicon) for clause in record.struct.clauses)
    return tuple((*key, not negated) for key, negated in literals)


# ---------------------------------------------------------------------------
# Enumeration and capacities
# ---------------------------------------------------------------------------


def test_family_capacities(lexicon):
    assert family_capacity(lexicon, PatternKind.ATOMIC_DN) == 483
    for pattern in (
        PatternKind.COMMUTATIVE_PAIR,
        PatternKind.CONDITIONAL_CONTRA,
        PatternKind.IMPLICATION_PAIR,
    ):
        assert family_capacity(lexicon, pattern) == 845_480


TINY_LEXICON = parse_lexicon(
    "ENTITY\t2\nthe cat\nAlan\n"
    "RELATION\t1\nis\n"
    "ATTRIBUTE\t3\nstrong\nweak\nround\n"
    "ANTONYM\t2\nstrong\tweak\nweak\tstrong\n"
)
PAIR_FAMILIES = [kind for kind in PatternKind if kind is not PatternKind.ATOMIC_DN]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_atomic_family_fills_its_capacity(seed):
    capacity = family_capacity(TINY_LEXICON, PatternKind.ATOMIC_DN)
    assert capacity == 4  # two entities times the two attributes with an antonym
    built = build_corpus(TINY_LEXICON, capacity, {PatternKind.ATOMIC_DN: 1.0}, seed)
    assert {s.struct.clauses for s in built} == {
        (Clause(subject, attribute),)
        for subject in ("the cat", "Alan")
        for attribute in ("strong", "weak")
    }
    with pytest.raises(InputError, match="^unreachable target: 5 exceeds total capacity 4$"):
        build_corpus(TINY_LEXICON, capacity + 1, {PatternKind.ATOMIC_DN: 1.0}, seed)


# With no reserve the first draw takes exactly the quota's slots, so the
# degenerate ones among them leave gaps that only the top-up loop fills.
@pytest.mark.parametrize("topup_reserve", [256, 0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", PAIR_FAMILIES)
def test_a_pair_family_reaches_every_nondegenerate_slot(kind, seed, topup_reserve, monkeypatch):
    monkeypatch.setattr("amr_logic_aug.corpus._TOPUP_RESERVE", topup_reserve)
    cells = [
        Clause(subject, attribute)
        for subject in TINY_LEXICON.entities
        for attribute in TINY_LEXICON.attributes
    ]
    ordered = [(one, two) for one in cells for two in cells if one != two]
    assert family_capacity(TINY_LEXICON, kind) == len(ordered) == 30
    reachable = {
        (one, two)
        for one, two in ordered
        if clause_literal(one, TINY_LEXICON)[0] != clause_literal(two, TINY_LEXICON)[0]
    }
    assert len(ordered) - len(reachable) == 4  # strong/weak on one subject, both orders

    built = build_corpus(TINY_LEXICON, len(reachable), {kind: 1.0}, seed)
    positive = {
        tuple(clause._replace(negated=False) for clause in s.struct.clauses) for s in built
    }
    assert positive == reachable
    assert build_corpus(TINY_LEXICON, len(reachable), {kind: 1.0}, seed) == built
    with pytest.raises(
        InputError,
        match=f"^unreachable target: {kind.value} family exhausted at 26 of 27 "
        "requested sentences$",
    ):
        build_corpus(TINY_LEXICON, len(reachable) + 1, {kind: 1.0}, seed)


def kind_mean_tall(*entities):
    """A lexicon of ``entities``, the attributes kind, mean and tall, and the
    antonyms kind and mean."""
    return parse_lexicon(
        f"ENTITY\t{len(entities)}\n" + "".join(f"{entity}\n" for entity in entities)
        + "RELATION\t1\nis\nATTRIBUTE\t3\nkind\nmean\ntall\n"
        "ANTONYM\t2\nkind\tmean\nmean\tkind\n"
    )


def test_a_family_that_runs_dry_passes_its_shortfall_on():
    """Two conditional families can write one text: "If A, then B." with
    both clauses positive.  At seed 2021 implication-pair loses such a text
    to conditional-contra and runs dry at 22 of its 23 sentences, so
    commutative-pair, which has room, writes the 73rd."""
    built = build_corpus(kind_mean_tall("Alan", "Bob"), 73, None, 2021)
    assert len({s.text.lower() for s in built}) == 73
    assert Counter(s.pattern for s in built) == {
        PatternKind.ATOMIC_DN: 4,
        PatternKind.COMMUTATIVE_PAIR: 24,
        PatternKind.CONDITIONAL_CONTRA: 23,
        PatternKind.IMPLICATION_PAIR: 22,
    }
    kinds = [s.pattern for s in built]
    assert [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k] == list(PatternKind)
    assert build_corpus(kind_mean_tall("Alan", "Bob"), 73, None, 2021) == built


def test_a_shortfall_no_family_has_room_for_is_refused():
    """With one entity each pair family has four nondegenerate slots, and at
    seed 0 the corpus holds every one of them.  At 15 commutative-pair runs
    dry at 4 of 5; its shortfall passes to conditional-contra, which runs dry
    too, and then to implication-pair, after which no family has room."""
    lexicon = kind_mean_tall("Alan")
    built = build_corpus(lexicon, 14, None, 0)
    assert Counter(s.pattern for s in built) == {
        PatternKind.ATOMIC_DN: 2,
        PatternKind.COMMUTATIVE_PAIR: 4,
        PatternKind.CONDITIONAL_CONTRA: 4,
        PatternKind.IMPLICATION_PAIR: 4,
    }
    with pytest.raises(
        InputError,
        match="^unreachable target: implication-pair family exhausted at 4 of 5 "
        "requested sentences$",
    ):
        build_corpus(lexicon, 15, None, 0)


# ---------------------------------------------------------------------------
# The default corpus
# ---------------------------------------------------------------------------


def test_default_corpus_counts(full_corpus):
    assert DEFAULT_TARGET == 14_962
    assert len(full_corpus) == DEFAULT_TARGET
    assert len({s.text for s in full_corpus}) == DEFAULT_TARGET
    counts = Counter(s.pattern for s in full_corpus)
    # The atomic family caps at capacity; the overflow is spread evenly.
    assert counts == {
        PatternKind.ATOMIC_DN: 483,
        PatternKind.COMMUTATIVE_PAIR: 4_827,
        PatternKind.CONDITIONAL_CONTRA: 4_826,
        PatternKind.IMPLICATION_PAIR: 4_826,
    }


def test_corpus_is_grouped_by_family(small_corpus):
    kinds = [s.pattern for s in small_corpus]
    boundaries = [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k]
    assert boundaries == list(PatternKind)


def test_build_corpus_is_deterministic(lexicon):
    first = build_corpus(lexicon, 300, seed=5)
    second = build_corpus(lexicon, 300, seed=5)
    assert first == second
    shifted = build_corpus(lexicon, 300, seed=6)
    assert [s.text for s in shifted] != [s.text for s in first]


def test_build_corpus_respects_mix(lexicon):
    mix = {PatternKind.CONDITIONAL_CONTRA: 0.5, PatternKind.COMMUTATIVE_PAIR: 0.5}
    corpus = build_corpus(lexicon, 101, mix=mix, seed=1)
    counts = Counter(s.pattern for s in corpus)
    assert sum(counts.values()) == 101
    # Largest remainder: the earlier enum member takes the odd sentence.
    assert counts[PatternKind.COMMUTATIVE_PAIR] == 51
    assert counts[PatternKind.CONDITIONAL_CONTRA] == 50


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mix, reason",
    [
        ({PatternKind.ATOMIC_DN: 0.5}, "must sum to 1"),
        ({PatternKind.ATOMIC_DN: -0.5, PatternKind.COMMUTATIVE_PAIR: 1.5}, "non-negative"),
        ({"atomic-dn": 1.0}, "unknown pattern kinds"),
        ({PatternKind.ATOMIC_DN: math.nan}, "must be finite"),
        ({PatternKind.ATOMIC_DN: math.inf}, "must be finite"),
        ({PatternKind.ATOMIC_DN: math.nan, PatternKind.COMMUTATIVE_PAIR: 1.0}, "must be finite"),
    ],
)
def test_mix_validation(lexicon, mix, reason):
    with pytest.raises(InputError, match=reason):
        build_corpus(lexicon, 10, mix=mix)


@pytest.mark.parametrize("mix", [None, {PatternKind.ATOMIC_DN: 1.0}])
def test_negative_target_is_rejected(lexicon, mix):
    with pytest.raises(InputError, match="^target size must be non-negative$"):
        build_corpus(lexicon, -1, mix)


def test_unreachable_family_target(lexicon):
    assert family_capacity(lexicon, PatternKind.ATOMIC_DN) == 483
    with pytest.raises(InputError, match="^unreachable target: 484 exceeds total capacity 483$"):
        build_corpus(lexicon, 484, mix={PatternKind.ATOMIC_DN: 1.0})


# ---------------------------------------------------------------------------
# Record invariants
# ---------------------------------------------------------------------------


def test_records_are_canonical(lexicon, small_corpus):
    for record in small_corpus:
        assert realize(record.graph) == record.text
        assert build_graph(parse_sentence_struct(record.text, lexicon)) == record.graph
        # The written Penman is the serializer's canonical form of its graph.
        assert serialize(record.graph) == penman_of_struct(record.struct)


def test_atoms_use_the_base_attribute_side(lexicon, small_corpus):
    for record in small_corpus:
        for _, attribute, _ in atoms_of(record, lexicon):
            antonym = lexicon.antonyms.get(attribute)
            assert antonym is None or attribute < antonym


def test_pair_records_are_never_degenerate(lexicon, small_corpus):
    for record in small_corpus:
        atoms = atoms_of(record, lexicon)
        if len(atoms) == 2:
            assert atoms[0][:2] != atoms[1][:2]


def test_conditional_family_cycles_polarity_scenarios(lexicon):
    records = build_corpus(lexicon, 8, {PatternKind.CONDITIONAL_CONTRA: 1.0}, 2)
    flags = set()
    for record in records:
        struct = read_graph(record.graph)
        assert struct.shape is Shape.IF_THEN
        flags.add((struct.clauses[0].negated, struct.clauses[1].negated))
    assert flags == {(False, False), (False, True), (True, False), (True, True)}


def test_implication_family_alternates_directions(lexicon):
    records = build_corpus(lexicon, 6, {PatternKind.IMPLICATION_PAIR: 1.0}, 2)
    shapes = [read_graph(record.graph).shape for record in records]
    assert shapes == [Shape.IF_THEN, Shape.OR_PAIR] * 3
    # Disjunctions carry the "A is not X or B is Y." template polarity.
    struct = read_graph(records[1].graph)
    assert struct.clauses[0].negated and not struct.clauses[1].negated


def test_commutative_family_alternates_polarity(lexicon):
    records = build_corpus(lexicon, 4, {PatternKind.COMMUTATIVE_PAIR: 1.0}, 2)
    for index, record in enumerate(records):
        struct = read_graph(record.graph)
        assert struct.shape is Shape.AND_PAIR
        expected = index % 2 == 1
        assert struct.clauses[0].negated is expected
        assert struct.clauses[1].negated is expected


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


def test_jsonl_round_trip(lexicon, small_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert corpus_to_jsonl(small_corpus, path) == len(small_corpus)
    loaded = corpus_from_jsonl(path, lexicon)
    assert loaded == small_corpus


def test_jsonl_blank_lines_are_skipped(lexicon, tmp_path):
    corpus = build_corpus(lexicon, 2, seed=3)
    path = tmp_path / "corpus.jsonl"
    corpus_to_jsonl(corpus, path)
    padded = tmp_path / "padded.jsonl"
    padded.write_text(
        "\n" + path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8"
    )
    assert corpus_from_jsonl(padded, lexicon) == corpus


@pytest.mark.parametrize(
    "line, reason",
    [
        ("{not json", "line 1:"),
        ('["text", "pattern"]', "line 1:"),
        ('{"text": "The bald eagle is kind."}', "line 1:"),
        ('{"pattern": "atomic-dn"}', "line 1: missing key 'text'"),
        (
            '{"text": "The bald eagle is kind.", "pattern": "mystery"}',
            "line 1:",
        ),
        (
            '{"text": "Colorless green ideas sleep.", "pattern": "atomic-dn"}',
            "line 1:",
        ),
        (
            '{"text": "the bald eagle is kind.", "pattern": "atomic-dn"}',
            "not canonical",
        ),
        (
            '{"text": "The bald eagle is kind.", "pattern": "atomic-dn"}',
            "line 1: missing key 'penman'",
        ),
        (
            '{"text": "The bald eagle is kind.", "penman": "(x / nonsense)", '
            '"pattern": "atomic-dn"}',
            r"line 1: penman '\(x / nonsense\)' is not the text's",
        ),
        ("[1, 2]", "line 1: not a JSON object, got list"),
        ('"x"', "line 1: not a JSON object, got str"),
        (
            '{"text": "If Alan is kind, then Bob is tall.", "penman": "(t / tall '
            ':condition (k / kind :domain (a / Alan)) :domain (b / Bob))", '
            '"pattern": "commutative-pair"}',
            "line 1: pattern 'commutative-pair' needs the commutative law",
        ),
        (
            '{"text": "Alan is kind.", "penman": "(k / kind :domain (a / Alan))", '
            '"pattern": "atomic-dn"}',
            "line 1: pattern 'atomic-dn' needs the double-negation law",
        ),
    ],
)
def test_jsonl_load_errors(lexicon, tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=reason):
        corpus_from_jsonl(path, lexicon)


def test_jsonl_error_reports_correct_line(lexicon, tmp_path):
    corpus = build_corpus(lexicon, 1, seed=3)
    path = tmp_path / "bad.jsonl"
    corpus_to_jsonl(corpus, path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{broken\n")
    with pytest.raises(InputError, match="line 2:"):
        corpus_from_jsonl(path, lexicon)


def test_default_seed_value():
    """The seed is stated once, in the package root; ``corpus`` re-exports
    it for the CLI and the scripts, and every seeded step defaults to it."""
    defaults = [inspect.signature(function).parameters["seed"].default
                for function in (build_corpus, pairs.build_pairs, pairs.split)]
    assert DEFAULT_SEED is amr_logic_aug.DEFAULT_SEED
    assert [DEFAULT_SEED, *defaults] == [2021] * 4
