"""Template-based alteration of closed-world rule strings."""

from __future__ import annotations

import json
import re

import pytest

from amr_logic_aug.cli import main
from amr_logic_aug.files import InputError
from amr_logic_aug.pararule import (
    alter_pararule_file,
    alter_pararule_rules,
    alter_record,
    alter_rule,
)

DEPTH1_RULES = [
    "If someone is tall then they are quiet.",
    "If someone is thin then they are little.",
    "If someone is dull and sad then they are bad.",
    "If someone is quiet and smart then they are kind.",
]
DEPTH1_ALTERED = [
    "If someone is not quiet then they are not tall.",
    "If someone is not little then they are not thin.",
    "If someone is sad and dull then they are bad.",
    "If someone is smart and quiet then they are kind.",
]

DEPTH2_ALTERED_PAIRS = [
    ("Strong people are kind.", "If someone is not kind then they are not strong."),
    (
        "If someone is kind and wealthy then they are nice.",
        "If someone is not nice then they are not both kind and wealthy.",
    ),
    ("All little people are small.", "There are no little people who are not small."),
    ("All dull people are rough.", "There are no dull people who are not rough."),
]


def test_depth1_reference_rules():
    assert alter_pararule_rules(DEPTH1_RULES, depth=1) == DEPTH1_ALTERED


@pytest.mark.parametrize("original, altered", DEPTH2_ALTERED_PAIRS)
def test_depth2_reference_rules(original, altered):
    text, matched = alter_rule(original, depth=2)
    assert matched
    assert text == altered


@pytest.mark.parametrize(
    "rule, depth, expected",
    [
        (
            "If someone is tall then they are quiet.",
            2,
            "If someone is not quiet then they are not tall.",
        ),
        (
            "Strong people are kind.",
            1,
            "If someone is not kind then they are not strong.",
        ),
        (
            "All little people are small.",
            1,
            "There are no little people who are not small.",
        ),
    ],
)
def test_rules_shared_across_depths(rule, depth, expected):
    assert alter_rule(rule, depth) == (expected, True)


def test_conjunction_policy_depends_on_depth():
    rule = "If someone is dull and sad then they are bad."
    assert alter_rule(rule, 1)[0] == "If someone is sad and dull then they are bad."
    assert (
        alter_rule(rule, 2)[0]
        == "If someone is not bad then they are not both dull and sad."
    )


def test_hyphenated_adjectives_match():
    text, matched = alter_rule(
        "If someone is well-read then they are smart.", depth=1
    )
    assert matched
    assert text == "If someone is not smart then they are not well-read."


@pytest.mark.parametrize(
    "rule",
    [
        "Someone is tall.",
        "If someone is tall then they are quiet",  # missing period
        "if someone is tall then they are quiet.",  # lowercase 'if'
        "All little people are small",  # missing period
        "The cat likes the dog.",
        "",
    ],
)
def test_unmatched_rules_pass_through(rule):
    assert alter_rule(rule, depth=1) == (rule, False)


def run_pararule(tmp_path, capsys, rules, depth):
    """The CLI's ``pararule`` on one record of ``rules``: the altered rules
    and the lines written to stderr."""
    src, out = tmp_path / "rules.jsonl", tmp_path / "altered.jsonl"
    src.write_text(json.dumps({"rules": rules}) + "\n", encoding="utf-8")
    argv = ["-q", "pararule", "--depth", str(depth), "--in", str(src), "--out", str(out)]
    assert main(argv) == 0
    (record,) = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    return record["rules"], capsys.readouterr().err.splitlines()


def test_unmatched_rule_logs_warning(tmp_path, capsys):
    rules = ["The cat likes the dog.", "If someone is tall then they are quiet."]
    altered, stderr = run_pararule(tmp_path, capsys, rules, depth=1)
    assert altered[0] == "The cat likes the dog."
    assert altered[1] == "If someone is not quiet then they are not tall."
    assert len(stderr) == 1
    assert "rule 0 matches no template" in stderr[0]


@pytest.mark.parametrize(
    "rule",
    [
        "Some people are kind.",  # existential: no contraposition over "some"
        "All people are kind.",
        "No people are kind.",
        "Many people are kind.",
    ],
)
def test_a_quantified_subject_is_no_bare_plural(rule, tmp_path, capsys):
    for depth in (1, 2):
        assert alter_rule(rule, depth) == (rule, False)
    altered, stderr = run_pararule(tmp_path, capsys, [rule], depth=2)
    assert altered == [rule]
    assert "rule 0 matches no template" in "\n".join(stderr)


@pytest.mark.parametrize("depth", [0, 3, -1, "1"])
def test_depth_validation(depth):
    with pytest.raises(InputError, match="depth must be 1 or 2"):
        alter_rule("If someone is tall then they are quiet.", depth)


# ---------------------------------------------------------------------------
# Records and files
# ---------------------------------------------------------------------------


def test_alter_record_touches_only_rules():
    record = {
        "context": "unchanged",
        "rules": DEPTH1_RULES,
        "questions": [{"text": "Is Bob quiet?", "label": "true"}],
    }
    result = alter_record(record, depth=1)
    assert result["rules"] == DEPTH1_ALTERED
    assert result["context"] == "unchanged"
    assert result["questions"] == record["questions"]
    assert record["rules"] == DEPTH1_RULES  # input not mutated


@pytest.mark.parametrize(
    "record, message",
    [
        ({"rules": "not a list"}, "record needs a 'rules' list"),
        ({"context": "no rules"}, "record needs a 'rules' list"),
        (["rules"], "record must be a JSON object, got list"),
    ],
)
def test_alter_record_requires_rules_list(record, message):
    with pytest.raises(InputError, match=re.escape(message)):
        alter_record(record, depth=1)


def test_alter_pararule_file(tmp_path):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    records = [
        {"id": "r1", "rules": DEPTH1_RULES},
        {"id": "r2", "rules": ["Strong people are kind."]},
    ]
    src.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n\n", encoding="utf-8"
    )
    assert alter_pararule_file(src, dst, depth=1) == 2
    out = [json.loads(line) for line in dst.read_text(encoding="utf-8").splitlines()]
    assert out[0]["rules"] == DEPTH1_ALTERED
    assert out[1]["rules"] == ["If someone is not kind then they are not strong."]


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[1, 2]", "line 2: not a JSON object, got list"),
        ('{"rules": [1]}', "line 2: every rule must be a string"),
        (
            '{"rules": "If someone is tall then they are quiet."}',
            "line 2: record needs a 'rules' list",
        ),
    ],
)
def test_alter_pararule_file_names_the_malformed_line(tmp_path, line, reason):
    src = tmp_path / "in.jsonl"
    src.write_text('{"rules": []}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(reason)):
        alter_pararule_file(src, tmp_path / "out.jsonl", depth=1)


def test_alter_pararule_file_bad_json(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"rules": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(InputError, match="malformed JSON on line 2"):
        alter_pararule_file(src, tmp_path / "out.jsonl", depth=1)
