"""Multiple-choice prompt augmentation and the sentence splitter."""

from __future__ import annotations

import gc
import json
import re

import pytest

from amr_logic_aug import prompt
from amr_logic_aug.files import InputError
from amr_logic_aug.laws import LawKind
from amr_logic_aug.prompt import (
    DEFAULT_PROMPT_LAWS,
    LOGIQA,
    RECLOR,
    McqRecord,
    TraceRow,
    augment_file,
    augment_record,
    rewrite_sentence,
    split_sentences,
)

KEYBOARD_CONTEXT = (
    "If you have no keyboarding skills at all, you will not be able to use a "
    "computer. And if you are not able to use a computer, you will not be able "
    "to write your essays using a word processing program."
)
KEYBOARD_ANSWERS = (
    "If you are not able to write your essays using a word processing program, "
    "you have no keyboarding skills.",
    "If you are able to write your essays using a word processing program, "
    "you have at least some keyboarding skills.",
    "If you are not able to write your essays using a word processing program, "
    "you are not able to use a computer.",
    "If you have some keyboarding skills, you will be able to write your essays "
    "using a word processing program.",
)
KEYBOARD_PAYLOAD = {
    "context": KEYBOARD_CONTEXT,
    "question": "If the statements above are true, which one of the following must be true?",
    "answers": list(KEYBOARD_ANSWERS),
    "label": 1,
    "id_string": "keyboard-1",
}
KEYBOARD_RECORD = McqRecord.from_dict(KEYBOARD_PAYLOAD)


# ---------------------------------------------------------------------------
# Record validation
# ---------------------------------------------------------------------------


def test_record_needs_four_answers():
    with pytest.raises(InputError, match="exactly 4 answers"):
        McqRecord("c", ("a", "b", "c"))


def test_record_label_range():
    payload = {"context": "c", "question": "q", "answers": ["a", "b", "c", "d"]}
    for label in (0, 3, None):
        assert McqRecord.from_dict(dict(payload, label=label)) == ("c", ("a", "b", "c", "d"), "")
    for label in (-1, 4):
        with pytest.raises(InputError, match="label must be 0-3"):
            McqRecord.from_dict(dict(payload, label=label))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"answers": ("a", "b", "c")}, "record needs exactly 4 answers, got 3"),
        ({"answers": ("a",) * 5, "id_string": "r"}, "record needs exactly 4 answers, got 5"),
    ],
)
def test_record_class_raises_its_messages(fields, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        McqRecord(context="c", **fields)


def test_record_from_dict_missing_key():
    with pytest.raises(InputError, match="missing key"):
        McqRecord.from_dict({"context": "c", "answers": ["a", "b", "c", "d"]})


def test_record_from_dict_bad_answers():
    with pytest.raises(InputError, match="answers must be a list"):
        McqRecord.from_dict({"context": "c", "question": "q", "answers": "abcd"})


@pytest.mark.parametrize("payload", [5, [5], "context"])
def test_record_from_dict_rejects_a_non_object(payload):
    with pytest.raises(InputError, match="must be a JSON object"):
        McqRecord.from_dict(payload)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("context", 5, "context and question must be strings"),
        ("question", None, "context and question must be strings"),
        ("answers", [1, "b", "c", "d"], "answers must be a list of strings"),
        # ``True in range(4)`` and ``1.0 in range(4)`` hold; neither is a label.
        ("label", True, "label must be 0-3, got True"),
        ("label", 1.0, "label must be 0-3, got 1.0"),
        ("label", 4, "label must be 0-3, got 4"),
        ("label", "1", "label must be 0-3, got '1'"),
        ("id_string", 7, "id_string must be a string, got int"),
        ("id_string", {"n": [1, "é"]}, "id_string must be a string, got dict"),
        ("id_string", None, "id_string must be a string, got NoneType"),
    ],
)
def test_record_from_dict_rejects_a_non_string_field(field, value, reason):
    payload = {"context": "c", "question": "q", "answers": ["a", "b", "c", "d"]}
    payload[field] = value
    with pytest.raises(InputError, match=reason):
        McqRecord.from_dict(payload)


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Alan is kind. Bob is dull.", ["Alan is kind.", "Bob is dull."]),
        ("Is it true? Yes. It is.", ["Is it true?", "Yes.", "It is."]),
        # Abbreviations and single-letter initials do not end sentences.
        ("Dr. Smith is kind. Bob runs fast.", ["Dr. Smith is kind.", "Bob runs fast."]),
        ("J. Smith is kind. Bob is dull.", ["J. Smith is kind.", "Bob is dull."]),
        ("Costs rose, e.g. rent. Wages fell.", ["Costs rose, e.g. rent.", "Wages fell."]),
        (
            "Alan voted (see fig. 2). Bob did not.",
            ["Alan voted (see fig. 2).", "Bob did not."],
        ),
        ("One sentence without trailing punctuation", ["One sentence without trailing punctuation"]),
        ("", []),
        ("   ", []),
    ],
)
def test_split_sentences(text, expected):
    assert split_sentences(text) == expected


def test_split_keeps_quoted_periods_together():
    text = 'He said "Go." "Fine." She left.'
    assert split_sentences(text) == [text]


# ---------------------------------------------------------------------------
# Single-sentence rewriting
# ---------------------------------------------------------------------------


def test_law_order_and_defaults():
    assert tuple(LawKind) == (
        LawKind.CONTRAPOSITION,
        LawKind.IMPLICATION,
        LawKind.COMMUTATIVE,
        LawKind.DOUBLE_NEGATION,
    )
    assert DEFAULT_PROMPT_LAWS == {LawKind.CONTRAPOSITION, LawKind.IMPLICATION}


def test_rewrite_sentence_emits_in_law_order(lexicon):
    row = rewrite_sentence(
        "If Alan is kind, then Bob is clever.", lexicon, DEFAULT_PROMPT_LAWS
    )
    assert [r.law for r in row.rewrites] == ["contraposition", "implication"]
    assert row.skipped_reason is None


def test_rewrite_sentence_respects_law_filter(lexicon):
    row = rewrite_sentence(
        "If Alan is kind, then Bob is clever.", lexicon, {LawKind.CONTRAPOSITION}
    )
    assert [r.law for r in row.rewrites] == ["contraposition"]


def test_rewrite_sentence_takes_laws_once_and_names_its_source(lexicon):
    row = rewrite_sentence(
        "If Alan is kind, then Bob is clever.", lexicon, iter(LawKind), "option 2"
    )
    assert row.source == "option 2"
    assert [r.law for r in row.rewrites] == ["contraposition", "implication"]


def test_rewrite_sentence_skips_free_text(lexicon):
    row = rewrite_sentence("Whatever happens, happens!", lexicon, DEFAULT_PROMPT_LAWS)
    assert row.rewrites == ()
    assert row.skipped_reason.startswith("outside grammar")


def test_rewrite_sentence_keeps_hyphenated_predicates(lexicon):
    row = rewrite_sentence(
        "If Alan is well-off, then Bob is kind.", lexicon, {LawKind.CONTRAPOSITION}
    )
    assert [r.text for r in row.rewrites] == ["Alan is not well-off if Bob is not kind."]


def test_rewrite_sentence_reads_unless_as_a_trailing_conditional(lexicon):
    # Pins the grammar's current reading of "B unless A" as "if A then B".
    row = rewrite_sentence(
        "The bald eagle is big, unless the mouse is small.", lexicon, DEFAULT_PROMPT_LAWS
    )
    assert [(r.law, r.text) for r in row.rewrites] == [
        ("contraposition", "The mouse is not small if the bald eagle is not big."),
        ("implication", "The mouse is not small or the bald eagle is big."),
    ]


def test_rewrite_sentence_no_applicable_law(lexicon):
    row = rewrite_sentence("Alan is not kind.", lexicon, DEFAULT_PROMPT_LAWS)
    assert row.rewrites == ()
    assert row.skipped_reason == "no applicable law"


# ---------------------------------------------------------------------------
# Record augmentation: the keyboarding-skills example
# ---------------------------------------------------------------------------


def test_keyboard_option_b_layout(lexicon):
    augmented, _ = augment_record(KEYBOARD_RECORD, lexicon)
    assert split_sentences(augmented.answers[1]) == [
        KEYBOARD_ANSWERS[1],
        # The option's own rewrites, law-major.
        "You are not able to write your essays using a word processing program "
        "if you do not have keyboarding skills.",
        "You are not able to write your essays using a word processing program "
        "or you have keyboarding skills.",
        # Context rewrites, law-major: both contrapositions, then both
        # implication forms.
        "You have keyboarding skills if you are able to use a computer.",
        "You are able to use a computer if you are able to write your essays "
        "using a word processing program.",
        "You have keyboarding skills or you are not able to use a computer.",
        "You are able to use a computer or you are not able to write your "
        "essays using a word processing program.",
    ]


def test_keyboard_untouched_fields(lexicon):
    augmented, _ = augment_record(KEYBOARD_RECORD, lexicon)
    assert augmented.context == KEYBOARD_RECORD.context
    assert augmented.id_string == KEYBOARD_RECORD.id_string
    for original, rewritten in zip(KEYBOARD_RECORD.answers, augmented.answers):
        assert rewritten.startswith(original)


def test_keyboard_trace_rows(lexicon):
    _, rows = augment_record(KEYBOARD_RECORD, lexicon)
    assert [row.source for row in rows] == [
        "context",
        "context",
        "option 0",
        "option 1",
        "option 2",
        "option 3",
    ]
    for row in rows:
        assert [r.law for r in row.rewrites] == ["contraposition", "implication"]


def test_augment_record_rewrites_each_sentence_once(lexicon, monkeypatch):
    texts = []

    def counting(text, *args):
        texts.append(text)
        return rewrite_sentence(text, *args)

    monkeypatch.setattr(prompt, "rewrite_sentence", counting)
    _, rows = augment_record(KEYBOARD_RECORD, lexicon)
    assert texts == split_sentences(KEYBOARD_CONTEXT) + list(KEYBOARD_ANSWERS)
    assert [row.original for row in rows] == texts


def test_augmentation_is_idempotent(lexicon):
    once, _ = augment_record(KEYBOARD_RECORD, lexicon)
    twice, _ = augment_record(once, lexicon)
    assert twice == once


def test_law_filter_drops_implication_rewrites(lexicon):
    augmented, rows = augment_record(
        KEYBOARD_RECORD, lexicon, laws={LawKind.CONTRAPOSITION}
    )
    assert all(
        rewrite.law == "contraposition"
        for row in rows
        for rewrite in row.rewrites
    )
    assert " or " not in augmented.answers[1]


def test_free_text_record_passes_through(lexicon):
    record = McqRecord(
        context="The committee deliberated at length!",
        answers=("Opinions, varied.", "Nobody knows?!", "So it goes...", "Hmm!"),
    )
    augmented, rows = augment_record(record, lexicon)
    assert augmented.answers == record.answers
    assert all(row.skipped_reason for row in rows)


# ---------------------------------------------------------------------------
# File-level augmentation
# ---------------------------------------------------------------------------


def _keyboard_payloads():
    return [
        KEYBOARD_PAYLOAD,
        {"context": "No answers here."},
        {
            "context": "Alan is kind and Bob is clever.",
            "question": "q",
            "answers": ["Alpha.", "Beta.", "Gamma.", "Delta."],
            "label": 3,
        },
    ]


def test_augment_file_reclor(lexicon, tmp_path):
    src = tmp_path / "val.json"
    dst = tmp_path / "val_aug.json"
    trace = tmp_path / "trace.jsonl"
    src.write_text(json.dumps(_keyboard_payloads()), encoding="utf-8")
    stats = augment_file(
        src, dst, file_format=RECLOR, lexicon=lexicon, trace_path=trace
    )
    assert stats["records_processed"] == 2
    assert stats["records_skipped"] == 1
    # keyboard record: 2 context + 4 options; third record: 1 context + 4.
    assert stats["sentences_seen"] == 11
    assert stats["sentences_augmented"] == 6
    assert stats["rewrites_per_law"] == {"contraposition": 6, "implication": 6}
    assert stats["skip_rate"] == round(1 - 6 / 11, 4)

    out = json.loads(dst.read_text(encoding="utf-8"))
    assert len(out) == 3
    assert out[0]["label"] == 1  # untouched
    assert out[1] == {"context": "No answers here."}  # passthrough
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 11
    assert rows[0]["record_id"] == "keyboard-1"
    assert {"source", "original", "rewrites", "skipped_reason"} <= set(rows[0])


def test_augment_file_holds_no_trace_rows_without_a_trace_file(lexicon, tmp_path, monkeypatch):
    # Rows of records already written out must be free by the time the
    # output is written; only the last record's rows may still be bound.
    # A tuple takes no weak reference, so the rows count their own frees.
    made, freed = [], []

    class CountedRow(TraceRow):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            made.append(1)
            return super().__new__(cls, *args, **kwargs)

        def __del__(self):
            freed.append(1)

    def writing(*args):
        gc.collect()
        alive.append(len(made) - len(freed))
        return write_text(*args)

    alive = []
    write_text = prompt.write_text
    monkeypatch.setattr(prompt, "TraceRow", CountedRow)
    monkeypatch.setattr(prompt, "write_text", writing)
    src, dst = tmp_path / "val.json", tmp_path / "val_aug.json"
    src.write_text(json.dumps([KEYBOARD_PAYLOAD] * 3), encoding="utf-8")
    augment_file(src, dst, lexicon, RECLOR)
    assert len(made) == 18 and alive == [6]


def test_augment_file_skips_a_record_whose_label_is_not_an_int(lexicon, tmp_path):
    src, dst = tmp_path / "val.json", tmp_path / "val_aug.json"
    payloads = [dict(KEYBOARD_PAYLOAD, label=label) for label in (True, 1.0, 1)]
    src.write_text(json.dumps(payloads), encoding="utf-8")
    stats = augment_file(src, dst, file_format=RECLOR, lexicon=lexicon)
    assert stats["records_processed"] == 1
    assert stats["records_skipped"] == 2
    out = json.loads(dst.read_text(encoding="utf-8"))
    assert out[:2] == payloads[:2]  # written back unchanged
    assert out[2]["answers"] != payloads[2]["answers"]


def test_augment_file_skips_a_record_whose_id_string_is_not_a_string(lexicon, tmp_path):
    src, dst = tmp_path / "val.json", tmp_path / "val_aug.json"
    trace = tmp_path / "trace.jsonl"
    payloads = [
        dict(KEYBOARD_PAYLOAD, id_string=id_string)
        for id_string in (7, {"n": [1, "é"]}, None, "r-1")
    ]
    src.write_text(json.dumps(payloads), encoding="utf-8")
    stats = augment_file(src, dst, file_format=RECLOR, lexicon=lexicon, trace_path=trace)
    assert (stats["records_processed"], stats["records_skipped"]) == (1, 3)
    out = json.loads(dst.read_text(encoding="utf-8"))
    assert out[:3] == payloads[:3]  # written back unchanged
    assert out[3]["answers"] != payloads[3]["answers"]
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["record_id"] for line in lines} == {"r-1"}


def test_trace_lines_are_the_json_of_their_rows(lexicon, tmp_path):
    # Each trace line is a row dict written by files.write_jsonl; its bytes
    # must stay those of json.dumps over the row's fields, whatever the
    # id_string holds.
    payloads = [
        {**KEYBOARD_PAYLOAD, "id_string": 'Zoë "7" \\ \u2028 \U0001f600'},
        {
            "context": 'If Alan is kind, then Bob is clever. Zoë said "no\\" \u2028 twice.',
            "question": "q",
            "answers": ["Alan is kind and Bob is clever.", "Beta.", "Gamma.", "Delta."],
            "id_string": "",
        },
    ]
    src = tmp_path / "in.jsonl"
    src.write_text("".join(json.dumps(p) + "\n" for p in payloads), encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    augment_file(src, tmp_path / "out.jsonl", lexicon, LOGIQA, LawKind, trace)
    expected = [
        json.dumps(
            {"record_id": p["id_string"], **row._asdict(),
             "rewrites": [rewrite._asdict() for rewrite in row.rewrites]},
            ensure_ascii=False,
        ) + "\n"
        for p in payloads
        for row in augment_record(McqRecord.from_dict(p), lexicon, LawKind)[1]
    ]
    lines = trace.read_text(encoding="utf-8").split("\n")
    assert [line + "\n" for line in lines[:-1]] == expected and lines[-1] == ""
    rows = [json.loads(line) for line in expected]
    assert {row["skipped_reason"] is None for row in rows} == {True, False}
    assert any('"' in row["original"] and "\\" in row["original"] for row in rows)


def test_augment_file_logiqa_round_trip(lexicon, tmp_path):
    src = tmp_path / "val.jsonl"
    dst = tmp_path / "val_aug.jsonl"
    payloads = [KEYBOARD_PAYLOAD]
    src.write_text(
        "\n".join(json.dumps(p) for p in payloads) + "\n", encoding="utf-8"
    )
    stats = augment_file(src, dst, file_format=LOGIQA, lexicon=lexicon)
    assert stats["records_processed"] == 1
    lines = [l for l in dst.read_text(encoding="utf-8").splitlines() if l.strip()]
    assert len(lines) == 1
    row = json.loads(lines[0])
    McqRecord.from_dict(row)
    assert row["label"] == 1 and row["question"] == KEYBOARD_PAYLOAD["question"]


def test_augment_file_rejects_bad_format(lexicon, tmp_path):
    src = tmp_path / "val.json"
    src.write_text("[]", encoding="utf-8")
    with pytest.raises(InputError, match="unknown format"):
        augment_file(src, tmp_path / "out.json", file_format="csv", lexicon=lexicon)


def test_augment_file_rejects_non_array_reclor(lexicon, tmp_path):
    src = tmp_path / "val.json"
    src.write_text('{"context": "not an array"}', encoding="utf-8")
    with pytest.raises(InputError, match="JSON array"):
        augment_file(src, tmp_path / "out.json", file_format=RECLOR, lexicon=lexicon)


def test_augment_file_reports_malformed_reclor_json(lexicon, tmp_path):
    src = tmp_path / "val.json"
    src.write_text('[{"context": "c"},\n  oops]', encoding="utf-8")
    with pytest.raises(InputError, match=r"malformed JSON in .*val\.json: .*line 2 column 3"):
        augment_file(src, tmp_path / "out.json", file_format=RECLOR, lexicon=lexicon)


def test_augment_file_reports_bad_jsonl_line(lexicon, tmp_path):
    src = tmp_path / "val.jsonl"
    src.write_text('{"context": "ok"}\n{broken\n', encoding="utf-8")
    with pytest.raises(InputError, match="malformed JSON on line 2"):
        augment_file(src, tmp_path / "out.jsonl", file_format=LOGIQA, lexicon=lexicon)
