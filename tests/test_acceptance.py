"""Release-gate acceptance tests.

Each ``test_criterion_<n>`` function checks one release criterion at the
scale and tolerance the gate requires; the reporter in ``conftest.py``
prints one ``ACCEPTANCE n (...): PASS|FAIL`` line per criterion in the
terminal summary.  Reference fixtures (the four-law rewrite table, the
keyboard-skills record, the rule-alteration lists) are shared with the
module suites so there is a single authoritative copy of each.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from test_graph import per_source, random_graph
from test_laws import REFERENCE_ROWS
from test_pararule import DEPTH1_ALTERED, DEPTH1_RULES, DEPTH2_ALTERED_PAIRS
from test_prompt import KEYBOARD_PAYLOAD, KEYBOARD_RECORD

from amr_logic_aug.corpus import DEFAULT_TARGET, PatternKind, build_corpus
from amr_logic_aug.grammar import EXTENDED, build_graph, parse_sentence_struct, realize
from amr_logic_aug.graph import ParseError, parse_penman, serialize
from amr_logic_aug.laws import LawKind, OracleViolation, apply_law, applicable_laws
from amr_logic_aug.logic import Atom, Not, equivalent, to_formula
from amr_logic_aug.pairs import build_pairs, split
from amr_logic_aug.pararule import alter_pararule_rules, alter_rule
from amr_logic_aug.prompt import augment_file, augment_record, split_sentences
from amr_logic_aug.scoring import Triplet, triplet_loss, triplet_loss_gradient, triplet_scores


def test_criterion_1_reference_rewrites(lexicon):
    """All four reference rows: exact surfaces, equivalent positive,
    nonequivalent negative, in under a second."""
    start = time.perf_counter()
    for law, original, positive_text, negative_text in REFERENCE_ROWS:
        graph = build_graph(parse_sentence_struct(original, lexicon))
        outcome = apply_law(graph, law, lexicon)  # runs the oracle gate
        positive = build_graph(outcome.positive)
        negative = build_graph(outcome.negative)
        assert realize(positive) == positive_text
        assert realize(negative) == negative_text
        source = to_formula(graph, lexicon)
        assert equivalent(source, to_formula(positive, lexicon))
        assert not equivalent(source, to_formula(negative, lexicon))
    assert time.perf_counter() - start < 1.0


# Paired sentences for the three binary law definitions (the double-negation
# definition is propositional, checked directly below) and the eight case
# studies.  Case studies are checked at formula level because some reference
# surfaces use "unless" or past tense.
DEFINITION_PAIRS = [
    ("If Alan is kind, then Bob is clever.", "If Bob is not clever, then Alan is not kind."),
    ("If Alan is kind, then Bob is clever.", "Alan is not kind or Bob is clever."),
    ("Alan is kind and Bob is clever.", "Bob is clever and Alan is kind."),
]

CASE_STUDY_PAIRS = [
    (
        "If the bald eagle is small, then the mouse is not small.",
        "The bald eagle isn't small, unless the mouse is small.",
    ),
    (
        "If the bald eagle is kind, then Dave is not short.",
        "If Dave is short, the bald eagle is not kind.",
    ),
    (
        "The bear is not sleepy or Bob is not cute.",
        "If the bear is sleepy, then Bob is not cute.",
    ),
    ("The bald eagle is beautiful.", "The bald eagle isn't ugly."),
    (
        "If the lion is not funny, then the tiger is beautiful.",
        "The lion is funny or the tiger is beautiful.",
    ),
    ("The bald eagle is strong.", "The bald eagle is not weak."),
    (
        "The bald eagle is kind and the wolf is not dull.",
        "The wolf is not dull and the bald eagle is kind.",
    ),
    (
        "The lion is thin and the dinosaur is not angry.",
        "The dinosaur was not angry and the lion was thin.",
    ),
]


def test_criterion_2_definitions_and_case_studies(lexicon):
    """Every definition pair and case-study pair is oracle-equivalent."""
    for first, second in DEFINITION_PAIRS + CASE_STUDY_PAIRS:
        formula_1 = to_formula(build_graph(parse_sentence_struct(first, lexicon)), lexicon)
        formula_2 = to_formula(build_graph(parse_sentence_struct(second, lexicon)), lexicon)
        assert equivalent(formula_1, formula_2), (first, second)
    # Double negation on an arbitrary proposition: p == ~~p, p != ~p.
    raining = Atom("it", "raining")
    assert equivalent(raining, Not(Not(raining)))
    assert not equivalent(raining, Not(raining))


def test_criterion_3_full_corpus_soundness(full_corpus, lexicon):
    """Every applicable law over the full default corpus: zero oracle
    violations (positives equivalent, negatives nonequivalent), < 60 s."""
    start = time.perf_counter()
    violations = 0
    applications = 0
    for record in full_corpus:
        laws = applicable_laws(record.struct, lexicon)
        assert laws, f"no applicable law for {record.text!r}"
        for law in laws:
            applications += 1
            try:
                apply_law(record.struct, law, lexicon)
            except OracleViolation:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert applications >= len(full_corpus)
    assert elapsed < 60.0


def test_criterion_4_involutions(lexicon):
    """Applying a law twice (or there-and-back) recovers the original."""

    def apply_twice(law, struct):
        return apply_law(apply_law(struct, law, lexicon).positive, law, lexicon)

    conditionals = build_corpus(lexicon, 1000, {PatternKind.CONDITIONAL_CONTRA: 1.0}, 404)
    for record in conditionals:
        twice = apply_twice(LawKind.CONTRAPOSITION, record.struct)
        assert equivalent(
            to_formula(record.graph, lexicon), to_formula(build_graph(twice.positive), lexicon)
        )

    conjunctions = build_corpus(lexicon, 1000, {PatternKind.COMMUTATIVE_PAIR: 1.0}, 404)
    for record in conjunctions:
        twice = apply_twice(LawKind.COMMUTATIVE, record.struct)
        assert build_graph(twice.positive) == record.graph  # graph-identical, not just equivalent

    mixed = build_corpus(lexicon, 1000, {PatternKind.IMPLICATION_PAIR: 1.0}, 404)
    for record in mixed:
        back = apply_twice(LawKind.IMPLICATION, record.struct)
        assert equivalent(
            to_formula(record.graph, lexicon), to_formula(build_graph(back.positive), lexicon)
        )


def test_criterion_5_corpus_and_dataset_counts(full_corpus, lexicon):
    """Exactly 14,962 unique sentences; pair counts scale exactly with the
    ratio; the validation split is 80/20 within one record per label."""
    assert len(full_corpus) == DEFAULT_TARGET == 14_962
    assert len({record.text for record in full_corpus}) == 14_962

    datasets = {}
    for ratio, negatives_per in (("1:1", 1), ("1:2", 2), ("1:3", 3)):
        records = build_pairs(full_corpus, lexicon, ratio=ratio)
        datasets[ratio] = records
        positives = sum(1 for record in records if record.label == 1)
        negatives = sum(1 for record in records if record.label == 0)
        assert positives == 14_962
        assert negatives == 14_962 * negatives_per

    train, validation = split(datasets["1:1"])
    total = len(datasets["1:1"])
    assert len(train) + len(validation) == total
    assert abs(len(validation) - total * 0.2) <= 1
    for label in (0, 1):
        group = sum(1 for record in datasets["1:1"] if record.label == label)
        in_validation = sum(1 for record in validation if record.label == label)
        assert abs(in_validation - group * 0.2) <= 1


def test_criterion_6_round_trip_and_fuzz(full_corpus):
    """parse∘serialize is the identity on every corpus graph and on
    structured fuzz cases; malformed input never crashes the parser."""
    for record in full_corpus:
        assert parse_penman(serialize(record.graph)) == record.graph

    rng = random.Random(606)
    for _ in range(10_000):
        graph = random_graph(rng)
        canonical = parse_penman(serialize(graph))
        assert canonical.root == graph.root
        assert canonical.nodes == graph.nodes
        assert per_source(canonical) == per_source(graph)
        assert parse_penman(serialize(canonical)) == canonical

    rng = random.Random(707)
    alphabet = '()/:~- abcdefgh"\'0123\n\t'
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 48)))
        try:
            parse_penman(text)  # must either parse or raise ParseError
        except ParseError:
            continue


# Reference augmented forms of the keyboard-skills record: the Option-B
# rewrite and the two context rewrites, as leading-if sentences.
QUOTED_OPTION_B_REWRITE = (
    "If you have no keyboarding skills, then you are not able to write your "
    "essays using a word processing program."
)
QUOTED_CONTEXT_REWRITES = (
    "If you are able to use a computer, then you have keyboarding skills.",
    "If you are able to write your essays using a word processing program, "
    "then you are able to use a computer.",
)


def test_criterion_7_prompt_augmentation(lexicon, tmp_path):
    """The keyboard-skills record gains an Option-B rewrite and context
    rewrites formula-equivalent to the reference sentences; labels and
    answer order survive a full validation file."""

    def formula(text):
        graph = build_graph(parse_sentence_struct(text, lexicon, grammar=EXTENDED))
        return to_formula(graph, lexicon)

    augmented, _ = augment_record(KEYBOARD_RECORD, lexicon)
    option_b = split_sentences(augmented.answers[1])
    assert option_b[0] == KEYBOARD_RECORD.answers[1]
    # Position 1 is the option's own contraposition rewrite; positions 3-4
    # are the contraposition rewrites of the two context sentences.
    assert equivalent(formula(option_b[1]), formula(QUOTED_OPTION_B_REWRITE))
    assert equivalent(formula(option_b[3]), formula(QUOTED_CONTEXT_REWRITES[0]))
    assert equivalent(formula(option_b[4]), formula(QUOTED_CONTEXT_REWRITES[1]))

    # A validation-style file: the keyboard record plus free-text records
    # with every label value, including unlabeled.
    payloads = [KEYBOARD_PAYLOAD]
    for index, label in enumerate([0, 1, 2, 3, None]):
        payload = {
            "context": "If Alan is kind, then Bob is clever. The wolf is fierce.",
            "question": f"Which option follows? (variant {index})",
            "answers": [
                "Alan is not kind.",
                "Bob is clever or the wolf is fierce.",
                f"No conclusion follows from record {index}.",
                "The weather report mentioned rain, hail, and sleet.",
            ],
            "id_string": f"val-{index}",
        }
        if label is not None:
            payload["label"] = label
        payloads.append(payload)
    in_path = tmp_path / "val.json"
    out_path = tmp_path / "val_aug.json"
    in_path.write_text(json.dumps(payloads), encoding="utf-8")

    stats = augment_file(in_path, out_path, file_format="reclor", lexicon=lexicon)
    results = json.loads(out_path.read_text(encoding="utf-8"))
    assert stats["records_processed"] == len(payloads)
    assert len(results) == len(payloads)
    for before, after in zip(payloads, results):
        assert after.get("label") == before.get("label")
        assert after.get("id_string", "") == before.get("id_string", "")
        assert after["question"] == before["question"]
        assert len(after["answers"]) == len(before["answers"])
        for original, rewritten in zip(before["answers"], after["answers"]):
            assert rewritten.startswith(original)  # order preserved in place


def test_criterion_8_rule_alteration():
    """Both reference rule sets transform verbatim."""
    assert alter_pararule_rules(DEPTH1_RULES, depth=1) == DEPTH1_ALTERED
    for original, altered in DEPTH2_ALTERED_PAIRS:
        text, matched = alter_rule(original, depth=2)
        assert matched
        assert text == altered


def test_criterion_9_loss_numerics():
    """ln 2 at equal scores; raising the positive score strictly lowers the
    loss; the analytic gradient matches finite differences."""
    for value in (-100.0, -3.0, 0.0, 0.25, 10.0, 100.0):
        assert abs(triplet_loss(value, value) - math.log(2)) < 1e-9

    rng = random.Random(909)
    eps = 1e-6
    for index in range(1_000):
        kind = "cosine" if index % 2 == 0 else "dot"
        dim = rng.randint(2, 8)
        triplet = Triplet(
            anchor=[rng.uniform(-2, 2) for _ in range(dim)],
            positive=[rng.uniform(-2, 2) for _ in range(dim)],
            negative=[rng.uniform(-2, 2) for _ in range(dim)],
        )
        h_pos, h_neg = triplet_scores(triplet, kind=kind)
        assert triplet_loss(h_pos + 0.05, h_neg) < triplet_loss(h_pos, h_neg)
        numeric = (triplet_loss(h_pos + eps, h_neg) - triplet_loss(h_pos - eps, h_neg)) / (2 * eps)
        assert abs(numeric - triplet_loss_gradient(h_pos, h_neg)) < 1e-6
