"""Contrastive pair construction, splitting, serialization, verification."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter

import pytest

from amr_logic_aug import grammar, logic, pairs
from amr_logic_aug.cli import main
from amr_logic_aug.corpus import PatternKind, SynthSentence, build_corpus
from amr_logic_aug.laws import LawKind
from amr_logic_aug.prompt import rewrite_sentence
from amr_logic_aug.pairs import (
    DEFAULT_VAL_FRACTION,
    RANDOM_SAMPLE_LAW,
    DatasetError,
    PairRecord,
    build_manifest,
    build_pairs,
    emit_jsonl,
    load_jsonl,
    make_pair_id,
    parse_ratio,
    split,
    verify_records,
)


@pytest.fixture(scope="module")
def tiny_corpus(lexicon):
    return build_corpus(lexicon, 60, seed=7)


@pytest.fixture(scope="module")
def tiny_pairs(lexicon, tiny_corpus):
    return build_pairs(tiny_corpus, lexicon, ratio="1:1", seed=7)


# ---------------------------------------------------------------------------
# Identifiers and record validation
# ---------------------------------------------------------------------------


def test_make_pair_id_shape():
    pair_id = make_pair_id("A is kind.", "A is not weak.", 1, "double-negation")
    assert len(pair_id) == 16
    assert int(pair_id, 16) >= 0
    payload = "\x1f".join(["A is kind.", "A is not weak.", "1", "double-negation"])
    assert pair_id == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def test_make_pair_id_sensitivity():
    base = make_pair_id("a", "b", 1, "commutative")
    assert make_pair_id("a", "c", 1, "commutative") != base
    assert make_pair_id("a", "b", 0, "commutative") != base
    assert make_pair_id("a", "b", 1, "implication") != base


def test_pair_record_fills_in_pair_id():
    record = PairRecord("A is kind.", "A is not weak.", 1, "double-negation")
    assert record.pair_id == make_pair_id(
        "A is kind.", "A is not weak.", 1, "double-negation"
    )


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        (dict(label=2), "label must be 0 or 1"),
        (dict(law="osmosis"), "law must be one of"),
        (dict(sentence2="A is kind."), "sentence1 == sentence2"),
        (dict(pair_id="0" * 16), "pair_id mismatch"),
        (dict(label=True), "label must be 0 or 1, got True"),
        (dict(label=1.0), "label must be 0 or 1, got 1.0"),
    ],
)
def test_pair_record_validation(kwargs, reason):
    base = dict(
        sentence1="A is kind.",
        sentence2="A is not weak.",
        label=1,
        law="double-negation",
    )
    base.update(kwargs)
    with pytest.raises(DatasetError, match=reason):
        PairRecord(**base)


@pytest.mark.parametrize("ratio, expected", [("1:1", 1), ("1:2", 2), ("1:3", 3)])
def test_parse_ratio(ratio, expected):
    assert parse_ratio(ratio) == expected


@pytest.mark.parametrize(
    "ratio",
    ["2:1", "1:0", "1:-1", "1:x", "3", "1:1:1", "",
     "1:1_0", "1:+3", "1: 3", "1:3 ", " 1:3", "1:\uff13", "1:03", "01:3", "1:3\n"],
)
def test_parse_ratio_rejects(ratio):
    with pytest.raises(DatasetError, match="ratio must be '1:k'"):
        parse_ratio(ratio)


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------


def test_build_pairs_counts_and_order(tiny_corpus, tiny_pairs):
    assert len(tiny_pairs) == 2 * len(tiny_corpus)
    labels = Counter(record.label for record in tiny_pairs)
    assert labels == {0: len(tiny_corpus), 1: len(tiny_corpus)}
    ids = [record.pair_id for record in tiny_pairs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("negatives", [2, 3])
def test_build_pairs_ratios(lexicon, tiny_corpus, negatives):
    records = build_pairs(tiny_corpus, lexicon, ratio=f"1:{negatives}", seed=7)
    labels = Counter(record.label for record in records)
    assert labels[1] == len(tiny_corpus)
    assert labels[0] == negatives * len(tiny_corpus)


def test_build_pairs_is_deterministic(lexicon, tiny_corpus):
    first = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    second = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    assert first == second


def test_build_pairs_seed_moves_sampled_negatives(lexicon, tiny_corpus):
    def sampled(records):
        return {
            (r.sentence1, r.sentence2)
            for r in records
            if r.law == RANDOM_SAMPLE_LAW
        }

    first = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    second = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=8)
    assert sampled(first) and sampled(first) != sampled(second)


def test_build_pairs_survives_oracle_replay(lexicon, tiny_pairs):
    assert verify_records(tiny_pairs, lexicon) == []


def test_build_pairs_oracle_call_count(lexicon, tiny_corpus, monkeypatch):
    # Per sentence here: three keys for the law gate (the original, the
    # positive, the negative), the anchor's once for the flip check and the
    # sample draw, the flip's, and one sample's.
    calls = []
    meaning = logic.meaning

    def counting(struct, lexicon):
        calls.append(struct)
        return meaning(struct, lexicon)

    monkeypatch.setattr(logic, "meaning", counting)
    build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    assert len(calls) == 6 * len(tiny_corpus) == 360


def test_the_sample_arm_passes_over_a_candidate_equivalent_to_its_anchor(lexicon):
    # The first two sentences differ in text but not in meaning.  At seed 7
    # a sample draw of one meets the other, so without the meaning check a
    # random-sample negative would be equivalent to its anchor.
    texts = ("Alan is strong and Bob is kind.", "Alan is not weak and Bob is kind.",
             "Alan is clever and Bob is quiet.")
    corpus = [
        SynthSentence(text, grammar.parse_sentence_struct(text, lexicon),
                      PatternKind.COMMUTATIVE_PAIR)
        for text in texts
    ]
    records = build_pairs(corpus, lexicon, ratio="1:3", seed=7)
    sampled = [record for record in records if record.law == RANDOM_SAMPLE_LAW]
    assert len(sampled) == len(corpus)
    for record in sampled:
        anchor, negative = (
            logic.meaning(grammar.parse_sentence_struct(text, lexicon), lexicon)
            for text in (record.sentence1, record.sentence2)
        )
        assert anchor != negative


def test_build_pairs_ratio_unreachable(lexicon):
    corpus = build_corpus(lexicon, 1, seed=7)
    with pytest.raises(DatasetError, match="ratio unreachable"):
        build_pairs(corpus, lexicon, ratio="1:3", seed=7)


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------


def test_split_is_stratified_within_one_record(tiny_pairs):
    train, validation = split(tiny_pairs)
    assert DEFAULT_VAL_FRACTION == 0.2
    total = len(tiny_pairs)
    assert len(train) + len(validation) == total
    assert abs(len(validation) - total * 0.2) <= 1
    for label in (0, 1):
        group = sum(1 for r in tiny_pairs if r.label == label)
        val_group = sum(1 for r in validation if r.label == label)
        assert abs(val_group - group * 0.2) <= 1


def test_split_partitions_without_overlap(tiny_pairs):
    train, validation = split(tiny_pairs)
    train_ids = {r.pair_id for r in train}
    val_ids = {r.pair_id for r in validation}
    assert not train_ids & val_ids
    assert train_ids | val_ids == {r.pair_id for r in tiny_pairs}


def test_split_is_deterministic(tiny_pairs):
    assert split(tiny_pairs, seed=1) == split(tiny_pairs, seed=1)
    assert split(tiny_pairs, seed=1) != split(tiny_pairs, seed=2)


@pytest.mark.parametrize(
    "count, fraction, sizes", [(2, 0.2, (2, 0)), (10, 0.01, (10, 0)), (10, 0.99, (0, 10))]
)
def test_split_refuses_an_empty_side(tiny_pairs, count, fraction, sizes):
    with pytest.raises(DatasetError) as info:
        split(tiny_pairs[:count], val_fraction=fraction)
    assert str(info.value) == (
        f"a {fraction} validation split of {count} records leaves "
        f"{sizes[0]} training and {sizes[1]} validation records"
    )


def reference_split(records, val_fraction, seed):
    """The label-stratified split restated plainly: each label's records in
    input order, shuffled with the split RNG, the first ``cut`` held out,
    then each side sorted by ``pair_id``."""
    rng = random.Random(f"{seed}:split")
    train, validation = [], []
    for label in (1, 0):
        group = [record for record in records if record.label == label]
        rng.shuffle(group)
        cut = int(len(group) * val_fraction + 0.5)
        validation.extend(group[:cut])
        train.extend(group[cut:])
    if not train or not validation:
        raise DatasetError(f"a {val_fraction} validation split of {len(records)} records leaves "
                           f"{len(train)} training and {len(validation)} validation records")
    return (sorted(train, key=lambda r: r.pair_id), sorted(validation, key=lambda r: r.pair_id))


def outcome(function, *args):
    try:
        return function(*args)
    except DatasetError as err:
        return str(err)


@pytest.mark.parametrize("size", [3, 5, 40])
@pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
def test_split_matches_the_reference(lexicon, tiny_corpus, size, order):
    records = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    rng = random.Random(size)
    chosen = rng.sample([r for r in records if r.label], size // 2)
    chosen += rng.sample([r for r in records if not r.label], size - size // 2)
    chosen.sort(key=lambda r: r.pair_id, reverse=order == "reversed")
    if order == "shuffled":
        rng.shuffle(chosen)
    for seed in range(6):
        for fraction in (0.2, 0.5, 0.7):
            expected = outcome(reference_split, chosen, fraction, seed)
            assert outcome(split, chosen, fraction, seed) == expected
            assert outcome(split, tuple(chosen), fraction, seed) == expected


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_split_fraction_validation(tiny_pairs, fraction):
    with pytest.raises(DatasetError, match="val_fraction"):
        split(tiny_pairs, val_fraction=fraction)


# ---------------------------------------------------------------------------
# Serialization and tamper detection
# ---------------------------------------------------------------------------


def test_emit_load_round_trip(tiny_pairs, tmp_path):
    path = tmp_path / "pairs.jsonl"
    assert emit_jsonl(tiny_pairs, path) == len(tiny_pairs)
    assert load_jsonl(path) == tiny_pairs


def test_emitted_bytes_are_reproducible(lexicon, tiny_corpus, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit_jsonl(build_pairs(tiny_corpus, lexicon, ratio="1:2", seed=7), first)
    emit_jsonl(build_pairs(tiny_corpus, lexicon, ratio="1:2", seed=7), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_tampered_sentence(tiny_pairs, tmp_path):
    path = tmp_path / "pairs.jsonl"
    emit_jsonl(tiny_pairs, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(lines[0])
    payload["sentence2"] = payload["sentence2"] + " Extra."
    lines[0] = json.dumps(payload, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1: pair_id mismatch"):
        load_jsonl(path)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("{oops", "malformed JSON on line 1"),
        ('["not", "an", "object"]', "line 1: not a JSON object, got list"),
        ('{"sentence1": "a"}', "line 1: missing key 'sentence2'"),
        (
            '{"sentence1": "a", "sentence2": "b", "label": 3, "law": "commutative"}',
            "line 1: label must be 0 or 1",
        ),
        (
            '{"sentence1": "a", "sentence2": "b", "label": 1, "law": "commutative"}',
            "line 1: missing key 'pair_id'",
        ),
        (
            '{"sentence1": "a", "sentence2": "b", "label": 1, "law": "commutative", "pair_id": ""}',
            "line 1: pair_id mismatch: got '', expected '8df97a35b48d9323'",
        ),
    ],
)
def test_load_line_errors(tmp_path, line, reason):
    path = tmp_path / "pairs.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=reason):
        load_jsonl(path)


def test_load_skips_blank_lines(tiny_pairs, tmp_path):
    path = tmp_path / "pairs.jsonl"
    emit_jsonl(tiny_pairs[:3], path)
    path.write_text(
        "\n" + path.read_text(encoding="utf-8") + "\n", encoding="utf-8"
    )
    assert load_jsonl(path) == tiny_pairs[:3]


# ---------------------------------------------------------------------------
# Oracle replay
# ---------------------------------------------------------------------------


def test_verify_records_catches_flipped_label(lexicon, tiny_pairs):
    victim = tiny_pairs[0]
    flipped = PairRecord(
        victim.sentence1, victim.sentence2, 1 - victim.label, victim.law
    )
    problems = verify_records([flipped], lexicon)
    assert len(problems) == 1
    index, message = problems[0]
    assert index == 0
    assert "contradicts oracle" in message


def test_verify_records_reports_unparseable(lexicon):
    record = PairRecord(
        "Colorless green ideas sleep furiously.",
        "The bald eagle is kind.",
        0,
        RANDOM_SAMPLE_LAW,
    )
    problems = verify_records([record], lexicon)
    assert problems and "unparseable pair" in problems[0][1]


def reference_replay(records, lexicon):
    """Both sentences of every record parsed afresh, in record order."""
    problems = []
    for index, record in enumerate(records):
        try:
            first = grammar.parse_sentence_struct(record.sentence1, lexicon)
            second = grammar.parse_sentence_struct(record.sentence2, lexicon)
        except grammar.GrammarError as err:
            problems.append((index, f"unparseable pair: {err}"))
            continue
        verdict = logic.equivalent(
            logic.formula_of_struct(first, lexicon), logic.formula_of_struct(second, lexicon)
        )
        if verdict != bool(record.label):
            problems.append(
                (index, f"label {record.label} contradicts oracle "
                        f"({record.sentence1!r} vs {record.sentence2!r})")
            )
    return problems


IF_A = "If Alan is kind, then Bob is clever."
A_AND_B = "Alan is kind and Bob is clever."
NONSENSE = "Colorless green ideas sleep furiously."
REPLAY_RECORDS = [
    PairRecord(*fields)
    for fields in [
        (IF_A, "If Bob is not clever, then Alan is not kind.", 1, "contraposition"),
        (A_AND_B, "Bob is clever and Alan is kind.", 0, "commutative"),  # flipped
        (NONSENSE, "Alan is kind.", 0, RANDOM_SAMPLE_LAW),
        ("Bob is not clever.", "Alan is kind.", 0, RANDOM_SAMPLE_LAW),
        (IF_A, "Alan is not kind or Bob is clever.", 0, "implication"),  # flipped
        (A_AND_B, "Green ideas sleep.", 0, RANDOM_SAMPLE_LAW),  # bad sentence2
        (NONSENSE, "Bob is clever.", 1, RANDOM_SAMPLE_LAW),
        ("Alan is kind.", "Alan is not kind.", 0, "double-negation"),
        (IF_A, "If Alan is kind, then Bob is not clever.", 0, "contraposition"),
        (A_AND_B, "Bob is not clever and Alan is not kind.", 0, "commutative"),
        (NONSENSE, "Alan is not kind.", 0, RANDOM_SAMPLE_LAW),
        ("Bob is not clever.", "Bob is clever.", 1, "double-negation"),  # flipped
    ]
]


def test_verify_records_matches_a_per_record_replay(lexicon):
    expected = reference_replay(REPLAY_RECORDS, lexicon)
    assert [index for index, _ in expected] == [1, 2, 4, 5, 6, 10, 11]
    assert verify_records(REPLAY_RECORDS, lexicon) == expected


def test_verify_records_parses_each_anchor_once(lexicon, monkeypatch):
    records = [record for record in REPLAY_RECORDS
               if record.sentence1 != NONSENSE and record.sentence2 != "Green ideas sleep."]
    texts = []

    def counting(text, *args):
        texts.append(text)
        return grammar.parse_sentence_struct(text, *args)

    monkeypatch.setattr(pairs, "parse_sentence_struct", counting)
    assert verify_records(records, lexicon) == reference_replay(records, lexicon)
    anchors = {record.sentence1 for record in records}
    assert len(texts) == len(anchors) + len(records)


def test_verify_records_keys_each_anchor_once_and_each_parsed_sentence2_once(
    lexicon, monkeypatch
):
    keyed = []
    meaning = logic.meaning

    def counting(struct, *args):
        keyed.append(struct)
        return meaning(struct, *args)

    expected = reference_replay(REPLAY_RECORDS, lexicon)
    monkeypatch.setattr(logic, "meaning", counting)
    assert verify_records(REPLAY_RECORDS, lexicon) == expected
    anchors = {record.sentence1 for record in REPLAY_RECORDS} - {NONSENSE}
    parsed = [record.sentence2 for record in REPLAY_RECORDS
              if record.sentence1 != NONSENSE and record.sentence2 != "Green ideas sleep."]
    texts = [*anchors, *parsed]
    assert sorted(keyed) == sorted(grammar.parse_sentence_struct(t, lexicon) for t in texts)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def test_build_manifest_counts(lexicon, tiny_corpus, tiny_pairs):
    manifest = build_manifest(
        tiny_pairs,
        seed=7,
        ratio="1:1",
        val_fraction=0.2,
        lexicon=lexicon,
        corpus_size=len(tiny_corpus),
    )
    assert manifest["command"] == "pairs"
    assert manifest["records_total"] == len(tiny_pairs)
    assert manifest["positives"] == manifest["negatives"] == len(tiny_corpus)
    assert manifest["lexicon_checksum"] == lexicon.checksum
    assert sum(manifest["by_law"].values()) == len(tiny_pairs)
    assert list(manifest["by_law"]) == sorted(manifest["by_law"])


def test_text_paths_never_build_or_read_graphs(lexicon, tiny_corpus, tmp_path, monkeypatch):
    graph_functions = {grammar.read_graph, grammar.build_graph}

    def refuse(*args, **kwargs):
        raise AssertionError("a text path built or read an AMR graph")

    stubbed = set()
    for name, module in list(sys.modules.items()):
        if name == "amr_logic_aug" or name.startswith("amr_logic_aug."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in graph_functions:
                    monkeypatch.setattr(module, attr, refuse)
                    stubbed.add(f"{name}.{attr}")
    assert {"amr_logic_aug.grammar.read_graph", "amr_logic_aug.grammar.build_graph"} <= stubbed

    records = build_pairs(tiny_corpus, lexicon, ratio="1:3", seed=7)
    assert verify_records(records, lexicon) == []
    for text in (
        "If Alan is kind, then Bob is clever.",
        "You are able to vote unless you are young.",
        "The bald eagle is strong.",
    ):
        assert rewrite_sentence(text, lexicon, LawKind).rewrites
    src, out = tmp_path / "in.txt", tmp_path / "out.jsonl"
    src.write_text("If Alan is kind, then Bob is clever.\n", encoding="utf-8")
    assert main(["-q", "augment", "--law", "contraposition", "--negatives",
                 "--in", str(src), "--out", str(out)]) == 0
    assert "skipped" not in out.read_text(encoding="utf-8")
