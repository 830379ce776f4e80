"""End-to-end command-line pipeline tests (in-process)."""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_files import PAST_THE_DECODER_LIMITS
from test_lexicon import make_source
from test_surface import package_exception_classes

import amr_logic_aug
from amr_logic_aug import __version__, cli, grammar, laws, scoring
from amr_logic_aug.cli import build_parser, main
from amr_logic_aug.files import InputError
from amr_logic_aug.graph import ParseError, parse_penman
from amr_logic_aug.pairs import PairRecord, emit_jsonl, load_jsonl


def read_jsonl(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def logged(capsys, level="ERROR"):
    """The messages of the ``LEVEL amr_logic_aug: message`` lines on stderr so far."""
    prefix = f"{level} amr_logic_aug: "
    lines = capsys.readouterr().err.splitlines()
    return [line.removeprefix(prefix) for line in lines if line.startswith(prefix)]


def manifest_of(path):
    """The sidecar of ``path``; every sidecar carries ``version`` and ``command``."""
    manifest = json.loads((path.parent / f"{path.name}.manifest.json").read_text())
    assert manifest["version"] == __version__
    assert manifest["command"]
    assert list(manifest) == sorted(manifest)
    return manifest


# ---------------------------------------------------------------------------
# Parser-level behavior
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["synth"],  # missing --out
        ["synth", "--out", "x", "--format", "yaml"],
        ["synth", "--out", "x", "--mix", "nonsense"],
        ["augment", "--law", "osmosis", "--in", "a", "--out", "b"],
        ["pararule", "--depth", "3", "--in", "a", "--out", "b"],
        ["prompt-aug", "--in", "a", "--out", "b", "--laws", "gravity"],
        ["frobnicate"],
        ["check", "--in", "a", "--grammar", "extended"],  # pairs files are core-grammar
        # A lexicon comes only from the shipped file or --lexicon FILE.
        ["synth", "--out", "x", "--entities", "the cat,the dog"],
        ["pairs", "--out-train", "a", "--out-val", "b", "--attributes", "strong,weak"],
        ["check", "--in", "a", "--antonyms", "strong:weak"],
        # Penman input is not parsed by a sentence grammar.
        ["augment", "--law", "double-negation", "--format", "penman", "--grammar",
         "extended", "--in", "a", "--out", "b"],
        # --count sizes a regenerated corpus; --corpus is read as it is.
        ["pairs", "--corpus", "c.jsonl", "--count", "7", "--out-train", "a", "--out-val", "b"],
        # pairs takes no --mix: synth --mix then pairs --corpus shapes a corpus.
        ["pairs", "--corpus", "c.jsonl", "--mix", "atomic-dn=1.0", "--out-train", "a",
         "--out-val", "b"],
        # The files one run writes (outputs, sidecars, trace) would replace each other.
        ["pairs", "--out-train", "F", "--out-val", "F"],
        ["pairs", "--out-train", "d/F", "--out-val", "d/./F"],
        ["pairs", "--out-train", "t.jsonl", "--out-val", "t.jsonl.manifest.json"],
        ["prompt-aug", "--in", "r.json", "--out", "a.json", "--trace", "a.json"],
        ["prompt-aug", "--in", "r.json", "--out", "a.json", "--trace", "a.json.manifest.json"],
        # An output would replace the corpus its sidecar names.
        ["pairs", "--corpus", "c.jsonl", "--out-train", "c.jsonl", "--out-val", "v"],
        ["pairs", "--corpus", "d/c.jsonl", "--out-train", "t", "--out-val", "d/./c.jsonl"],
        # An output would replace the sidecar that vouches for the corpus's seed.
        ["pairs", "--corpus", "c.jsonl", "--out-train", "c.jsonl.manifest.json",
         "--out-val", "v"],
        ["pairs", "--corpus", "c.jsonl", "--out-train", "t",
         "--out-val", "d/../c.jsonl.manifest.json"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_pairs_refuses_to_replace_its_corpus_and_writes_nothing(tmp_path):
    corpus = tmp_path / "c.jsonl"
    assert main(["-q", "synth", "--count", "20", "--out", str(corpus)]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    sidecar = f"{corpus}.manifest.json"
    for argv in (["--out-train", str(corpus), "--out-val", str(tmp_path / "v.jsonl")],
                 ["--out-train", str(tmp_path / "t.jsonl"), "--out-val", str(corpus)],
                 ["--out-train", sidecar, "--out-val", str(tmp_path / "v.jsonl")],
                 ["--out-train", str(tmp_path / "t.jsonl"), "--out-val", sidecar]):
        with pytest.raises(SystemExit) as info:
            main(["-q", "pairs", "--corpus", str(corpus), *argv])
        assert info.value.code == 2
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_a_run_whose_files_would_replace_each_other_writes_nothing(tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_mcq_payload()), encoding="utf-8")
    out = str(tmp_path / "a.json")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    for argv in (
        ["prompt-aug", "--in", str(src), "--out", out, "--trace", out],
        ["prompt-aug", "--in", str(src), "--out", out, "--trace", f"{out}.manifest.json"],
        ["pairs", "--count", "20", "--out-train", out, "--out-val", f"{out}.manifest.json"],
    ):
        with pytest.raises(SystemExit) as info:
            main(["-q", *argv])
        assert info.value.code == 2
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def parser_options(parser):
    """Every option string of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= parser_options(subparser)
    return options


def subcommand_parsers():
    """Each subcommand's parser, from a parser built for that subcommand:
    ``build_parser`` defines only the subcommand it is named."""

    def choices(parser):
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return commands.choices

    return {name: choices(build_parser(name))[name] for name in choices(build_parser())}


def test_every_flag_the_readme_names_exists():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    named = {
        flag
        for line in lines
        if not line.lstrip().startswith("pip ")
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    assert named, "no flags found in README"
    defined = parser_options(build_parser()).union(
        *map(parser_options, subcommand_parsers().values())
    )
    assert named - defined == set()


def test_readme_commands_parse_and_name_their_own_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parsers = subcommand_parsers()
    # Every command line of a fenced sh block parses, continuations joined.
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [
        line.strip()
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("amr-logic-aug ")
    ]
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        build_parser(argv[0]).parse_args(argv)
    # An inline span that starts with a subcommand names only its options.
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    spans = [span.split() for span in re.findall(r"`([^`]+)`", prose)]
    checked = 0
    for words in spans:
        if words and words[0] in parsers:
            options = parser_options(parsers[words[0]])
            assert {w for w in words if w.startswith("--")} <= options, words
            checked += 1
    assert checked >= 5


TEXT_SURFACE = Path(__file__).resolve().parent / "cli_text_surface.json"


def test_the_help_usage_and_error_texts_are_pinned(capsys, monkeypatch):
    """Each argv's exit code, stdout and stderr, recorded on Python 3.11 at
    80 columns while ``build_parser`` still defined all seven subcommands
    in every process.  ``--help augment`` lists the six subcommands that
    ``main`` registers by name and help line only; ``chek`` defines none
    of the seven."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(TEXT_SURFACE.read_text(encoding="utf-8"))
    assert len(cases) == 11
    for case in cases:
        try:
            code = main(case["argv"])
        except SystemExit as info:
            code = info.code
        out, err = capsys.readouterr()
        assert {**case, "exit": code, "stdout": out, "stderr": err} == case


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_jsonl(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["-q", "synth", "--count", "24", "--seed", "9", "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert len(rows) == 24
    assert {"text", "penman", "pattern"} == set(rows[0])
    manifest = manifest_of(out)
    assert manifest["command"] == "synth"
    assert manifest["count"] == 24
    assert manifest["seed"] == 9
    assert manifest["version"] == __version__
    assert sum(manifest["by_pattern"].values()) == 24
    assert "lexicon_checksum" in manifest


def test_synth_text_format(tmp_path):
    out = tmp_path / "corpus.txt"
    assert main(["-q", "synth", "--count", "5", "--format", "text", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert all(line.endswith(".") for line in lines)


def test_synth_is_byte_reproducible(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (first, second):
        assert main(["-q", "synth", "--count", "30", "--seed", "4", "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    first_manifest = (tmp_path / "a.jsonl.manifest.json").read_bytes()
    second_manifest = (tmp_path / "b.jsonl.manifest.json").read_bytes()
    assert first_manifest == second_manifest


def test_synth_unreachable_count_exits_1(tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = main(
        ["-q", "synth", "--count", "999", "--mix", "atomic-dn=1.0", "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


def test_synth_reads_a_lexicon_file(tmp_path):
    lexicon = tmp_path / "custom.tsv"
    lexicon.write_text(make_source(entities=("the fox", "Zed")), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(
        ["-q", "synth", "--count", "4", "--mix", "atomic-dn=1.0",
         "--lexicon", str(lexicon), "--out", str(out)]
    )
    assert code == 0
    texts = sorted(row["text"] for row in read_jsonl(out))
    assert texts == [
        "The fox is strong.", "The fox is weak.", "Zed is strong.", "Zed is weak."
    ]
    checksum = hashlib.sha256(lexicon.read_bytes()).hexdigest()
    assert manifest_of(out)["lexicon_checksum"] == checksum


def test_synth_rejects_an_entity_holding_a_penman_delimiter(tmp_path):
    lexicon = tmp_path / "custom.tsv"
    lexicon.write_text(make_source(entities=("the (odd) dog", "Alan")), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(
        ["-q", "synth", "--count", "4", "--lexicon", str(lexicon), "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


def test_a_bad_lexicon_file_error_names_the_file(tmp_path, capsys):
    lexicon = tmp_path / "custom.tsv"
    lexicon.write_text(make_source() + "\nENTITY\t0\n", encoding="utf-8")
    code = main(["-q", "synth", "--lexicon", str(lexicon), "--out", str(tmp_path / "c")])
    assert code == 1
    errors = logged(capsys)
    assert errors == [f"{lexicon}: duplicate section header 'ENTITY' at line 19"]


@pytest.mark.parametrize("fraction", ["nan", "inf"])
def test_synth_non_finite_mix_exits_1_with_one_error(tmp_path, capsys, fraction):
    out = tmp_path / "corpus.jsonl"
    code = main(["-q", "synth", "--mix", f"atomic-dn={fraction}", "--count", "10",
                 "--out", str(out)])
    assert code == 1
    errors = logged(capsys)
    assert errors == ["mix fractions must be finite and non-negative"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


def test_augment_text_lines(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text(
        "If Alan is kind, then Bob is clever.\n"
        "This is not in the grammar at all!\n"
        "Alan is kind.\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    code = main(
        ["-q", "augment", "--law", "contraposition",
         "--in", str(src), "--out", str(out), "--negatives"]
    )
    assert code == 0
    rows = read_jsonl(out)
    assert rows[0] == {
        "input": "If Alan is kind, then Bob is clever.",
        "law": "contraposition",
        "positive": "Alan is not kind if Bob is not clever.",
        "negatives": ["Alan is not kind if Bob is clever."],
    }
    assert set(rows[1]) == {"input", "skipped"}
    assert set(rows[2]) == {"input", "skipped"}  # law not applicable to atomic
    manifest = manifest_of(out)
    assert manifest["processed"] == 1
    assert manifest["skipped"] == 2
    assert sum("skipped" in message for message in logged(capsys, "WARNING")) == 2


def test_augment_penman_lines(tmp_path):
    src = tmp_path / "in.penman"
    src.write_text(
        "(k / kind :domain (a / Alan) :condition (c / clever :domain (b / Bob)))\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(
        ["-q", "augment", "--law", "implication", "--format", "penman",
         "--in", str(src), "--out", str(out)]
    ) == 0
    row = read_jsonl(out)[0]
    assert row["law"] == "implication"
    assert row["positive"].startswith("(o / or")


def test_augment_skips_an_unbalanced_penman_line(tmp_path, capsys):
    line = "(x / kind :domain (y / Alan)"
    src, out = tmp_path / "in.penman", tmp_path / "out.jsonl"
    src.write_text(f"{line}\n", encoding="utf-8")
    assert main(["-q", "augment", "--law", "contraposition", "--format", "penman",
                 "--in", str(src), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        '{"input": "(x / kind :domain (y / Alan)", '
        '"skipped": "unbalanced parentheses at byte 28"}\n'
    )
    assert logged(capsys, "WARNING") == [f"skipped {line!r}: unbalanced parentheses at byte 28"]


# A good line, a line with a fault after a two-byte character, and a good
# line whose subject is a string holding '"' and '\\'.
AUGMENT_ROW_LINES = [
    "(c / clever :condition (k / kind :domain (a / Alan)) :domain (b / Bob))",
    "(c / clever :domain (j / José) / :condition)",
    '(c / clever :condition (k / kind :domain (a / "Al \\"A\\" \\\\")) :domain (b / Bob))',
]


@pytest.mark.parametrize("negatives", [[], ["--negatives"]])
def test_augment_rows_are_the_json_of_their_values(tmp_path, negatives):
    src = tmp_path / "in.penman"
    src.write_text("\n".join(AUGMENT_ROW_LINES) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(
        ["-q", "augment", "--law", "contraposition", "--format", "penman", *negatives,
         "--in", str(src), "--out", str(out)]
    ) == 0
    *lines, end = out.read_text(encoding="utf-8").split("\n")
    rows = [json.loads(line) for line in lines]
    assert end == "" and lines == [json.dumps(row, ensure_ascii=False) for row in rows]
    assert [row["input"] for row in rows] == AUGMENT_ROW_LINES
    keys = ["input", "law", "positive", *(["negatives"] if negatives else [])]
    assert [list(row) for row in rows] == [keys, ["input", "skipped"], keys]
    assert '"' in rows[2]["positive"] and "\\" in rows[2]["positive"]
    assert [len(row["negatives"]) for row in rows if "negatives" in row] == (
        [1, 1] if negatives else []
    )
    with pytest.raises(ParseError) as err:
        parse_penman(AUGMENT_ROW_LINES[1])
    assert rows[1]["skipped"] == str(err.value)
    fault = AUGMENT_ROW_LINES[1].index(" / :") + 1
    assert str(err.value).endswith(f" at byte {fault + 1}")  # "é" takes two bytes
    manifest = manifest_of(out)
    assert (manifest["processed"], manifest["skipped"]) == (2, 1)


def test_augment_skips_a_routing_word_predicate(tmp_path):
    # Its implication positive, "Bob is not if or Alan is kind.", would not
    # re-parse, so the input is refused.
    src = tmp_path / "in.txt"
    src.write_text("If Bob is if, then Alan is kind.\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["-q", "augment", "--law", "implication", "--in", str(src), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        '{"input": "If Bob is if, then Alan is kind.", '
        '"skipped": "outside grammar: predicate \'if\' is a routing word"}\n'
    )


CONTRADICTION = "Alan is kind and Alan is not kind."


def test_augment_skips_a_self_contradiction(tmp_path):
    # The swapped-and-negated conjunction of "A and not A" is equivalent to
    # it, so commutative does not apply to that line.
    src = tmp_path / "in.txt"
    src.write_text(
        f"Alan is kind and Bob is tall.\n{CONTRADICTION}\nBob is big and Alan is small.\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    code = main(
        ["-q", "augment", "--law", "commutative", "--negatives",
         "--in", str(src), "--out", str(out)]
    )
    assert code == 0
    rows = read_jsonl(out)
    assert [row["positive"] for row in (rows[0], rows[2])] == [
        "Bob is tall and Alan is kind.",
        "Alan is small and Bob is big.",
    ]
    assert rows[1]["input"] == CONTRADICTION
    assert "contradictory conjunction" in rows[1]["skipped"]
    manifest = manifest_of(out)
    assert (manifest["processed"], manifest["skipped"]) == (2, 1)


# Near-canonical lines the canonical Penman reader refuses, each with what
# the general path makes of it under implication: the skip message, or the
# positive and the negative.  Recorded while every Penman line still went
# through ``parse_penman``.
REFUSED_PENMAN = [
    ("(k / kind :domain (k / Alan))",  # a duplicate declaration
     "duplicate instance declaration for 'k' at byte 19"),
    ("(a / and :op1 (o / or :domain (b / Bob)) :op2 (k / kind :domain (a2 / Alan)))",
     "graph outside grammar: nested compound clause"),
    # Polarity before a leading :condition.
    ("(k / kind :polarity - :condition (c / clever :domain (b / Bob)) :domain (a / Alan))",
     "graph outside grammar: :condition edge must come before or after all clause edges"),
    # A :condition between the clause's own edges.
    ("(k / kind :domain (a / Alan) :condition (c / clever :domain (b / Bob)) :polarity -)",
     "graph outside grammar: :condition edge must come before or after all clause edges"),
    ("(k / kind :condition (c / clever :domain (b / Bob)) :domain (a / Alan)"
     " :condition (d / dull :domain (d2 / Dan)))",
     "graph outside grammar: multiple :condition edges on one node"),
    # Polarity after :domain.
    ("(k / kind :domain (a / Alan) :polarity - :condition (c / clever :domain (b / Bob)))",
     "(o / or :op1 (c / clever :polarity - :domain (b / Bob))"
     " :op2 (k / kind :polarity - :domain (a / Alan)))",
     "(o / or :op1 (c / clever :domain (b / Bob)) :op2 (k / kind :polarity - :domain (a / Alan)))"),
    ("(c / clever :condition (k / kind :domain (j / José)) :domain (b / Bob))",
     "(o / or :op1 (k / kind :polarity - :domain (j / José)) :op2 (c / clever :domain (b / Bob)))",
     "(o / or :op1 (k / kind :domain (j / José)) :op2 (c / clever :domain (b / Bob)))"),
    ('(o / or :op1 (k / kind :domain (a / "Alan")) :op2 (c / clever :domain (b / Bob)))',
     '(c / clever :condition (k / kind :polarity - :domain (a / "Alan")) :domain (b / Bob))',
     '(c / clever :condition (k / kind :polarity - :domain (a / "Alan"))'
     ' :polarity - :domain (b / Bob))'),
    ("(o / or :op1 (k / kind :domain (a / Alan))  :op2 (c / clever :domain (b / Bob)))",
     "(c / clever :condition (k / kind :polarity - :domain (a / Alan)) :domain (b / Bob))",
     "(c / clever :condition (k / kind :polarity - :domain (a / Alan))"
     " :polarity - :domain (b / Bob))"),
    ("(o / or :op1 (k / kind :domain (a / Alan)) :op2 (c / clever :domain (b / Bob))) x",
     "trailing content after graph at byte 80"),
    # An upper-case variable.
    ("(O / or :op1 (k / kind :polarity - :domain (a / Alan)) :op2 (c / clever :domain (b / Bob)))",
     "(c / clever :condition (k / kind :domain (a / Alan)) :domain (b / Bob))",
     "(c / clever :condition (k / kind :domain (a / Alan)) :polarity - :domain (b / Bob))"),
]
REFUSED_PENMAN_SHA256 = "68c4e0078acd3cba0cb0ea4fb5d18deba572eb483b601f8d841a2a4d397f2103"


def test_augment_rows_of_refused_penman_lines_are_pinned(tmp_path):
    lines = [line for line, *_ in REFUSED_PENMAN]
    assert [grammar.read_canonical_penman(line) for line in lines] == [None] * len(lines)
    src = tmp_path / "in.penman"
    src.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(
        ["-q", "augment", "--law", "implication", "--format", "penman", "--negatives",
         "--in", str(src), "--out", str(out)]
    ) == 0
    expected = [
        {"input": line, "skipped": outcome[0]} if len(outcome) == 1
        else {"input": line, "law": "implication", "positive": outcome[0],
              "negatives": [outcome[1]]}
        for line, *outcome in REFUSED_PENMAN
    ]
    assert read_jsonl(out) == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFUSED_PENMAN_SHA256
    manifest = manifest_of(out)
    assert (manifest["processed"], manifest["skipped"]) == (5, 6)


def test_augment_missing_input_exits_1(tmp_path):
    code = main(
        ["-q", "augment", "--law", "commutative",
         "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "out.jsonl")]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# pairs + check
# ---------------------------------------------------------------------------


def test_pairs_and_check_round_trip(tmp_path, capsys):
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code = main(
        ["-q", "pairs", "--count", "40", "--ratio", "1:2", "--seed", "3",
         "--out-train", str(train), "--out-val", str(val)]
    )
    assert code == 0
    train_rows, val_rows = load_jsonl(train), load_jsonl(val)
    total = len(train_rows) + len(val_rows)
    assert total == 40 * 3
    assert abs(len(val_rows) - total * 0.2) <= 1
    manifest = manifest_of(train)
    assert manifest["command"] == "pairs"
    assert manifest["ratio"] == "1:2"
    assert manifest["corpus_size"] == 40
    assert manifest["records_total"] == len(train_rows)
    assert manifest_of(val)["records_total"] == len(val_rows)

    assert main(["-q", "check", "--in", str(train)]) == 0
    out = capsys.readouterr().out
    assert f"checked {len(train_rows)} records: 0 violations" in out


def test_pairs_corpus_input(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["-q", "synth", "--count", "20", "--out", str(corpus_path)]) == 0
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code = main(
        ["-q", "pairs", "--corpus", str(corpus_path),
         "--out-train", str(train), "--out-val", str(val)]
    )
    assert code == 0
    assert len(load_jsonl(train)) + len(load_jsonl(val)) == 40


@pytest.mark.parametrize(
    "args, sizes",
    [
        (["--count", "1"], (2, 0)),
        (["--count", "2"], (4, 0)),
        (["--count", "10", "--val-frac", "0.01"], (20, 0)),
        (["--count", "10", "--val-frac", "0.99"], (0, 20)),
    ],
)
def test_pairs_with_an_empty_split_side_exits_1_and_writes_nothing(
    tmp_path, capsys, args, sizes
):
    # check refuses an empty pairs file, so pairs must not write one.
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code = main(["-q", "pairs", *args, "--out-train", str(train), "--out-val", str(val)])
    assert code == 1
    (error,) = logged(capsys)
    assert error.endswith(f"leaves {sizes[0]} training and {sizes[1]} validation records")
    assert list(tmp_path.iterdir()) == []


def test_every_sidecar_records_the_sha256_of_its_data_file(tmp_path):
    corpus_path, train, val = (tmp_path / name for name in ("c.jsonl", "t.jsonl", "v.jsonl"))
    lines, mcq, rules = (tmp_path / name for name in ("in.txt", "mcq.json", "rules.jsonl"))
    lines.write_text("If Alan is kind, then Bob is clever.\nNonsense here.\n", encoding="utf-8")
    mcq.write_text(json.dumps(_mcq_payload()), encoding="utf-8")
    rules.write_text(json.dumps({"rules": ["If someone is tall then they are quiet."]}) + "\n",
                     encoding="utf-8")
    runs = {
        corpus_path: ["synth", "--count", "20", "--out", str(corpus_path)],
        train: ["pairs", "--corpus", str(corpus_path), "--out-train", str(train),
                "--out-val", str(val)],
        tmp_path / "aug.jsonl": ["augment", "--law", "contraposition", "--in", str(lines),
                                 "--out", str(tmp_path / "aug.jsonl")],
        tmp_path / "mcq_aug.json": ["prompt-aug", "--in", str(mcq),
                                    "--out", str(tmp_path / "mcq_aug.json")],
        tmp_path / "alt.jsonl": ["pararule", "--depth", "1", "--in", str(rules),
                                 "--out", str(tmp_path / "alt.jsonl")],
    }
    for argv in runs.values():
        assert main(["-q", *argv]) == 0
    for path in (*runs, val):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest_of(path)["data_sha256"] == digest, path


@pytest.mark.parametrize("source", ["corpus", "count"])
def test_pairs_on_an_empty_corpus_exits_1_and_writes_nothing(tmp_path, capsys, source):
    # check refuses an empty pairs file, so pairs must not write one.
    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["-q", "synth", "--count", "0", "--out", str(corpus_path)]) == 0
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    args = ["--corpus", str(corpus_path)] if source == "corpus" else ["--count", "0"]
    code = main(["-q", "pairs", *args, "--out-train", str(train), "--out-val", str(val)])
    assert code == 1
    where = str(corpus_path) if source == "corpus" else "the --count 0 corpus"
    errors = logged(capsys)
    assert errors == [f"no sentences in {where}, so no pairs to write"]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "corpus.jsonl", "corpus.jsonl.manifest.json"
    ]


def test_synth_then_pairs_matches_pairs_alone(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["-q", "synth", "--count", "30", "--seed", "5", "--out", str(corpus_path)]) == 0
    outputs = {}
    for name, source in (("chain", ["--corpus", str(corpus_path)]), ("alone", ["--count", "30"])):
        train, val = tmp_path / f"{name}-train.jsonl", tmp_path / f"{name}-val.jsonl"
        code = main(
            ["-q", "pairs", *source, "--seed", "5", "--ratio", "1:2",
             "--out-train", str(train), "--out-val", str(val)]
        )
        assert code == 0
        assert manifest_of(train)["command"] == "pairs"
        outputs[name] = (train.read_bytes(), val.read_bytes())
    assert outputs["chain"] == outputs["alone"]


def test_pairs_corpus_sidecar_identifies_its_corpus(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["-q", "synth", "--count", "20", "--seed", "5", "--out", str(corpus_path)]) == 0
    digest = hashlib.sha256(corpus_path.read_bytes()).hexdigest()
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    outputs = ["--out-train", str(train), "--out-val", str(val)]
    assert main(["-q", "pairs", "--corpus", str(corpus_path), *outputs]) == 0
    for path in (train, val):
        manifest = manifest_of(path)
        assert manifest["corpus_path"] == str(corpus_path)
        assert manifest["corpus_sha256"] == digest
        assert manifest["corpus_seed"] == 5

    # A sidecar that hashes another file does not vouch for this corpus's seed.
    sidecar = Path(f"{corpus_path}.manifest.json")
    first_sidecar = sidecar.read_bytes()
    assert main(["-q", "synth", "--count", "20", "--seed", "6", "--out", str(corpus_path)]) == 0
    digest = hashlib.sha256(corpus_path.read_bytes()).hexdigest()
    sidecar.write_bytes(first_sidecar)
    assert json.loads(first_sidecar)["data_sha256"] != digest
    assert main(["-q", "pairs", "--corpus", str(corpus_path), *outputs]) == 0
    assert manifest_of(train)["corpus_seed"] is None
    assert f"corpus sidecar {sidecar} hashes another file" in capsys.readouterr().err
    assert manifest_of(train)["corpus_sha256"] == digest

    sidecar.write_text('{"seed": 5', encoding="utf-8")  # truncated
    assert main(["-q", "pairs", "--corpus", str(corpus_path), *outputs]) == 1
    sidecar.write_text("[5]", encoding="utf-8")  # not an object
    assert main(["-q", "pairs", "--corpus", str(corpus_path), *outputs]) == 1
    sidecar.unlink()
    assert main(["-q", "pairs", "--corpus", str(corpus_path), *outputs]) == 0
    assert manifest_of(train)["corpus_seed"] is None
    assert manifest_of(train)["corpus_sha256"] == digest

    # A regenerated corpus has no file to name: the sidecar keeps its keys.
    assert main(["-q", "pairs", "--count", "20", *outputs]) == 0
    assert not {"corpus_path", "corpus_sha256", "corpus_seed"} & set(manifest_of(train))


def test_make_preliminary_test_script(tmp_path):
    out = tmp_path / "preliminary.jsonl"
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_preliminary_test.py"),
         "-q", "--out", str(out)],
        env=env, check=True, timeout=120,
    )
    assert len(load_jsonl(out)) == 1_312
    manifest = manifest_of(out)
    assert manifest["command"] == "pairs"
    assert manifest["records_total"] == 1_312
    assert manifest["val_fraction"] is None  # one unsplit file


def test_check_flags_bad_labels(tmp_path, capsys):
    record = PairRecord(
        "Alan is kind and Bob is clever.",
        "Bob is clever and Alan is kind.",
        0,  # wrong: these are equivalent
        "commutative",
    )
    path = tmp_path / "pairs.jsonl"
    emit_jsonl([record], path)
    assert main(["-q", "check", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert "record 0: label 0 contradicts oracle" in out
    assert "checked 1 records: 1 violations" in out


IF_A = "If Alan is kind, then Bob is clever."
A_AND_B = "Alan is kind and Bob is clever."
NOT_B = "Bob is not clever."
# Anchors repeat out of order, two labels are flipped (records 1 and 5) and
# record 2's anchor is outside the grammar.
CHECK_RECORDS = [
    (IF_A, "If Bob is not clever, then Alan is not kind.", 1, "contraposition"),
    (A_AND_B, "Bob is clever and Alan is kind.", 0, "commutative"),
    ("Colorless green ideas sleep furiously.", "Alan is kind.", 0, "random-sample"),
    (NOT_B, "Alan is kind.", 0, "random-sample"),
    (IF_A, "Alan is not kind or Bob is clever.", 1, "implication"),
    (A_AND_B, "Alan is kind or Bob is clever.", 1, "commutative"),
    (NOT_B, "Bob is clever.", 0, "double-negation"),
    (IF_A, "If Alan is kind, then Bob is not clever.", 0, "contraposition"),
    (A_AND_B, "Bob is not clever and Alan is not kind.", 0, "commutative"),
]
# Recorded while ``verify_records`` still parsed both sentences of every
# record in file order; visiting the records grouped by anchor changed no byte.
CHECK_STDOUT = (
    "record 1: label 0 contradicts oracle ('Alan is kind and Bob is clever.' vs "
    "'Bob is clever and Alan is kind.')\n"
    "record 2: unparseable pair: outside grammar: expected copula, got 'green'\n"
    "record 5: label 1 contradicts oracle ('Alan is kind and Bob is clever.' vs "
    "'Alan is kind or Bob is clever.')\n"
    "checked 9 records: 3 violations\n"
)


def test_check_stdout_and_exit_code_are_pinned(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    emit_jsonl([PairRecord(*fields) for fields in CHECK_RECORDS], path)
    assert main(["-q", "check", "--in", str(path)]) == 1
    assert capsys.readouterr().out == CHECK_STDOUT


def test_check_empty_file_exits_1(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text("", encoding="utf-8")
    assert main(["-q", "check", "--in", str(path)]) == 1


def test_check_tampered_file_exits_1(tmp_path):
    record = PairRecord(
        "Alan is kind and Bob is clever.",
        "Bob is clever and Alan is kind.",
        1,
        "commutative",
    )
    path = tmp_path / "pairs.jsonl"
    emit_jsonl([record], path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["label"] = 0  # tamper without recomputing pair_id
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    assert main(["-q", "check", "--in", str(path)]) == 1


# ---------------------------------------------------------------------------
# prompt-aug
# ---------------------------------------------------------------------------


def _mcq_payload():
    return [
        {
            "context": "If Alan is kind, then Bob is clever.",
            "question": "Which must be true?",
            "answers": [
                "Alan is not kind or Bob is clever.",
                "Alan is kind.",
                "Bob is clever.",
                "Alan is kind and Bob is clever.",
            ],
            "label": 0,
            "id_string": "demo-1",
        }
    ]


def test_prompt_aug_reclor(tmp_path):
    src = tmp_path / "val.json"
    src.write_text(json.dumps(_mcq_payload()), encoding="utf-8")
    out = tmp_path / "val_aug.json"
    trace = tmp_path / "trace.jsonl"
    code = main(
        ["-q", "prompt-aug", "--in", str(src), "--out", str(out),
         "--trace", str(trace), "--laws", "contraposition,implication"]
    )
    assert code == 0
    records = json.loads(out.read_text(encoding="utf-8"))
    assert records[0]["label"] == 0
    assert records[0]["answers"][0].startswith("Alan is not kind or Bob is clever.")
    manifest = manifest_of(out)
    assert manifest["command"] == "prompt-aug"
    assert manifest["laws"] == ["contraposition", "implication"]
    assert manifest["records_processed"] == 1
    assert trace.exists()
    trace_rows = read_jsonl(trace)
    assert trace_rows[0]["record_id"] == "demo-1"


def test_prompt_aug_single_law(tmp_path):
    src = tmp_path / "val.json"
    src.write_text(json.dumps(_mcq_payload()), encoding="utf-8")
    out = tmp_path / "val_aug.json"
    code = main(
        ["-q", "prompt-aug", "--in", str(src), "--out", str(out),
         "--laws", "contraposition"]
    )
    assert code == 0
    assert manifest_of(out)["laws"] == ["contraposition"]


def test_prompt_aug_skips_a_self_contradiction(tmp_path):
    payload = _mcq_payload()
    payload[0]["context"] = f"Alan is kind and Bob is tall. {CONTRADICTION}"
    src = tmp_path / "val.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "val_aug.json"
    trace = tmp_path / "trace.jsonl"
    code = main(
        ["-q", "prompt-aug", "--in", str(src), "--out", str(out),
         "--trace", str(trace), "--laws", "commutative"]
    )
    assert code == 0
    context_rows = [row for row in read_jsonl(trace) if row["source"] == "context"]
    assert context_rows[0]["rewrites"] == [
        {"law": "commutative", "text": "Bob is tall and Alan is kind."}
    ]
    assert context_rows[1]["original"] == CONTRADICTION
    assert context_rows[1]["rewrites"] == []
    assert context_rows[1]["skipped_reason"] == "no applicable law"
    answers = json.loads(out.read_text(encoding="utf-8"))[0]["answers"]
    assert answers[3] == (
        "Alan is kind and Bob is clever. Bob is clever and Alan is kind. "
        "Bob is tall and Alan is kind."
    )


@pytest.mark.parametrize(
    "argv, text",
    [
        (["augment", "--law", "contraposition"], "If Alan is kind, then Bob is clever.\n"),
        (["prompt-aug"], json.dumps(_mcq_payload())),
    ],
    ids=["augment", "prompt-aug"],
)
def test_an_oracle_violation_is_a_fault_not_a_skip(tmp_path, monkeypatch, capsys, argv, text):
    def refuse(original, outcome, lexicon):
        raise laws.OracleViolation("forced")

    monkeypatch.setattr(laws, "verify_outcome", refuse)
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    code = main(["-q", *argv, "--in", str(src), "--out", str(tmp_path / "out")])
    assert code == 1
    assert logged(capsys) == ["forced"]
    assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]


def test_prompt_aug_manifest_does_not_depend_on_the_hash_seed(tmp_path):
    # The default laws are a frozenset, whose iteration order follows the
    # string hash seed (seeds 1 and 3 differ on CPython 3.11).
    src = tmp_path / "val.json"
    src.write_text(json.dumps(_mcq_payload()), encoding="utf-8")
    package_root = str(Path(amr_logic_aug.__file__).resolve().parents[1])
    manifests = set()
    for hash_seed in ("1", "2", "3"):
        out = tmp_path / f"aug-{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": package_root}
        subprocess.run(
            [sys.executable, "-m", "amr_logic_aug", "-q", "prompt-aug",
             "--in", str(src), "--out", str(out)],
            env=env, check=True, timeout=60,
        )
        manifests.add((tmp_path / f"{out.name}.manifest.json").read_bytes())
    assert len(manifests) == 1
    assert json.loads(manifests.pop())["laws"] == ["contraposition", "implication"]


def test_prompt_aug_passes_malformed_records_through(tmp_path):
    record = _mcq_payload()[0]
    malformed = [[5], {**record, "context": 5}, {**record, "answers": [1, "b", "c", "d"]}]
    src = tmp_path / "val.json"
    src.write_text(json.dumps(malformed + _mcq_payload()), encoding="utf-8")
    out = tmp_path / "val_aug.json"
    assert main(["-q", "prompt-aug", "--in", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))[:3] == malformed
    manifest = manifest_of(out)
    assert manifest["records_skipped"] == 3
    assert manifest["records_processed"] == 1


@pytest.mark.parametrize(
    "command, text, location",
    [
        (["prompt-aug"], '[{"context": "c"},\n  oops]', "in.txt: Expecting value: line 2"),
        (["pararule", "--depth", "1"], '{"rules": []}\n[1, 2]\n',
         "line 2: not a JSON object, got list"),
        (["pararule", "--depth", "1"], '{"rules": [1]}\n', "line 1: every rule must be a string"),
        (["pararule", "--depth", "1"], '{"rules": []}\n{"rules": [], "x": "\\ud800"}\n',
         "in.txt: line 2 escapes a lone surrogate, which is not UTF-8 text"),
    ],
)
def test_malformed_input_exits_1_with_one_located_error(
    tmp_path, capsys, command, text, location
):
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    code = main(["-q", *command, "--in", str(src), "--out", str(tmp_path / "out")])
    assert code == 1
    errors = logged(capsys)
    assert len(errors) == 1
    assert location in errors[0]


@pytest.mark.parametrize(
    "argv, location",
    [
        (["check"], "{src}: malformed JSON on line 1: "),
        (["prompt-aug", "--out", "OUT"], "malformed JSON in {src}: "),
        (["prompt-aug", "--format", "logiqa", "--out", "OUT"],
         "{src}: malformed JSON on line 1: "),
    ],
    ids=["check", "prompt-aug", "prompt-aug-logiqa"],
)
@pytest.mark.parametrize("text, reason", PAST_THE_DECODER_LIMITS.values(),
                         ids=PAST_THE_DECODER_LIMITS)
def test_json_past_the_decoder_limits_exits_1_with_one_located_error(
    tmp_path, capsys, argv, location, text, reason
):
    src = tmp_path / "in.txt"
    src.write_text(text + "\n", encoding="utf-8")
    out = str(tmp_path / "out")
    code = main(["-q", *(out if arg == "OUT" else arg for arg in argv), "--in", str(src)])
    assert code == 1
    errors = logged(capsys)
    assert len(errors) == 1
    assert errors[0].startswith(location.format(src=src) + reason)
    assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]


OTHER_FIELDS = '"sentence2": "b", "law": "commutative"'


@pytest.mark.parametrize(
    "argv, line, location",
    [
        (["check"], f'{{"sentence1": 5, "label": 1, {OTHER_FIELDS}}}',
         "line 1: sentence1 must be a string, got int"),
        (["check"], '{"sentence1": "a", "sentence2": "b", "label": 1, "law": ["x"]}',
         "line 1: law must be a string, got list"),
        (["check"], f'{{"sentence1": "a", "label": 1, "pair_id": 7, {OTHER_FIELDS}}}',
         "line 1: pair_id must be a string, got int"),
        (["check"], f'{{"sentence1": "a", "label": true, {OTHER_FIELDS}}}',
         "line 1: label must be 0 or 1, got True"),
        (["check"], f'{{"sentence1": "a", "label": 1.0, {OTHER_FIELDS}}}',
         "line 1: label must be 0 or 1, got 1.0"),
        (["pairs", "--out-train", "OUT", "--out-val", "OUT2"],
         '{"text": 5, "pattern": "atomic-dn"}', "line 1: text must be a string, got int"),
        (["pairs", "--out-train", "OUT", "--out-val", "OUT2"],
         '{"text": "Alan is kind.", "pattern": null}',
         "line 1: pattern must be a string, got NoneType"),
        (["pairs", "--out-train", "OUT", "--out-val", "OUT2"],
         '{"pattern": "atomic-dn"}', "line 1: missing key 'text'"),
        (["pairs", "--out-train", "OUT", "--out-val", "OUT2"],
         '{"text": "Alan is kind.", "penman": "(x / nonsense)", "pattern": "atomic-dn"}',
         "line 1: penman '(x / nonsense)' is not the text's"),
        (["check"], f'{{"label": 1, {OTHER_FIELDS}}}', "line 1: missing key 'sentence1'"),
        (["check"], '["sentence1", "a"]', "line 1: not a JSON object, got list"),
        (["check"], f'{{"sentence1": "a", "label": 1, {OTHER_FIELDS}}}',
         "line 1: missing key 'pair_id'"),
        (["check"], f'{{"sentence1": "a", "label": 1, "pair_id": "", {OTHER_FIELDS}}}',
         "line 1: pair_id mismatch: got '', expected '8df97a35b48d9323'"),
    ],
    ids=["sentence1", "law", "pair_id", "label-true", "label-float", "text", "pattern",
         "missing-text", "penman", "check-missing-key", "check-not-an-object",
         "check-missing-pair-id", "check-empty-pair-id"],
)
def test_a_wrong_field_type_exits_1_with_one_located_error(tmp_path, capsys, argv, line, location):
    src = tmp_path / "in.txt"
    src.write_text(line + "\n", encoding="utf-8")
    paths = {"OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
    flag = "--corpus" if argv[0] == "pairs" else "--in"
    code = main(["-q", *(str(paths.get(arg, arg)) for arg in argv), flag, str(src)])
    assert code == 1
    errors = logged(capsys)
    assert len(errors) == 1
    assert errors[0].startswith(f"{src}: {location}")
    assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]


# ---------------------------------------------------------------------------
# pararule
# ---------------------------------------------------------------------------


def test_pararule_cli(tmp_path):
    src = tmp_path / "rules.jsonl"
    src.write_text(
        json.dumps({"rules": ["If someone is tall then they are quiet."]}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "rules_alt.jsonl"
    assert main(["-q", "pararule", "--depth", "1", "--in", str(src), "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[0]["rules"] == ["If someone is not quiet then they are not tall."]
    manifest = manifest_of(out)
    assert manifest["depth"] == 1
    assert manifest["records"] == 1


# ---------------------------------------------------------------------------
# A killed run
# ---------------------------------------------------------------------------

# Run by ``python -c`` with the arguments N, then the CLI's: the process
# ends with exit 75 right after its N-th ``os.replace``.
KILLED_AFTER_REPLACE = """\
import os, sys
from amr_logic_aug.cli import main

limit, replace, calls = int(sys.argv[1]), os.replace, 0

def replace_then_die(source, target):
    global calls
    replace(source, target)
    calls += 1
    if calls == limit:
        os._exit(75)

os.replace = replace_then_die
sys.exit(main(sys.argv[2:]))
"""
KILL_INPUTS = {
    "old.txt": "If Alan is kind, then Bob is clever.\n",
    "new.txt": "If Bob is tall, then Alan is not kind.\n",
    "old.json": json.dumps(_mcq_payload()),
    "new.json": json.dumps([{**_mcq_payload()[0], "context": "Alan is kind or Bob is tall."}]),
    "old_rules.jsonl": json.dumps({"rules": ["If someone is tall then they are quiet."]}) + "\n",
    "new_rules.jsonl": json.dumps({"rules": ["If someone is sad then they are bad."]}) + "\n",
}
# Each writing subcommand's previous run, then the run that is killed over
# its files.
KILL_RUNS = {
    "synth": (["synth", "--count", "20", "--seed", "1", "--out", "corpus.jsonl"],
              ["synth", "--count", "20", "--seed", "2", "--out", "corpus.jsonl"]),
    "augment": (["augment", "--law", "contraposition", "--in", "old.txt", "--out", "aug.jsonl"],
                ["augment", "--law", "contraposition", "--in", "new.txt", "--out", "aug.jsonl"]),
    "pairs": (["pairs", "--count", "20", "--ratio", "1:3", "--seed", "1",
               "--out-train", "train.jsonl", "--out-val", "val.jsonl"],
              ["pairs", "--count", "20", "--ratio", "1:3", "--seed", "2",
               "--out-train", "train.jsonl", "--out-val", "val.jsonl"]),
    "prompt-aug-trace": (
        ["prompt-aug", "--in", "old.json", "--out", "aug.json", "--trace", "trace.jsonl"],
        ["prompt-aug", "--in", "new.json", "--out", "aug.json", "--trace", "trace.jsonl"]),
    "pararule": (["pararule", "--depth", "1", "--in", "old_rules.jsonl", "--out", "alt.jsonl"],
                 ["pararule", "--depth", "1", "--in", "new_rules.jsonl", "--out", "alt.jsonl"]),
}


def files_in(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def a_sidecar_disowns_its_data(files: dict[str, bytes]) -> bool:
    """Whether some sidecar's ``data_sha256`` is not the digest of its data file."""
    return any(
        json.loads(sidecar)["data_sha256"]
        != hashlib.sha256(files[name.removesuffix(".manifest.json")]).hexdigest()
        for name, sidecar in files.items()
        if name.endswith(".manifest.json")
    )


@pytest.mark.parametrize("old, new", KILL_RUNS.values(), ids=KILL_RUNS)
def test_a_run_killed_after_any_replace_leaves_one_run_or_a_disowning_sidecar(
    tmp_path, monkeypatch, old, new
):
    """The new run, ended after its N-th ``os.replace`` for every N short of
    its last, leaves the old run's files, the new run's, or a sidecar whose
    ``data_sha256`` is not its data file's."""
    monkeypatch.chdir(tmp_path)
    for name, text in KILL_INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    assert main(["-q", *old]) == 0
    before = files_in(tmp_path)
    replaced = []
    replace = os.replace

    def counted_replace(source, target):
        replaced.append(Path(target).name)
        replace(source, target)

    monkeypatch.setattr(os, "replace", counted_replace)
    assert main(["-q", *new]) == 0
    monkeypatch.setattr(os, "replace", replace)
    after = files_in(tmp_path)
    assert after.keys() == before.keys()
    assert all(after[name] != before[name] for name in replaced)  # every write shows
    assert not a_sidecar_disowns_its_data(before) and not a_sidecar_disowns_its_data(after)
    for limit in range(1, len(replaced)):
        for name, data in before.items():
            # Unlinked first: on some file systems truncating a file in
            # place is many times slower than writing a new one.
            (tmp_path / name).unlink()
            (tmp_path / name).write_bytes(data)
        done = run_fresh(["-c", KILLED_AFTER_REPLACE, str(limit), "-q", *new], tmp_path)
        assert done.returncode == 75, done.stderr
        left = files_in(tmp_path)
        assert left in (before, after) or a_sidecar_disowns_its_data(left), replaced[:limit]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_cli(tmp_path, capsys):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(
        "p1\tanchor\t1.0\t0.0\n"
        "p1\tpos\t1.0\t0.0\n"
        "p1\tneg\t0.0\t1.0\n",
        encoding="utf-8",
    )
    assert main(["-q", "loss", "--vectors", str(vectors)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    pair_id, h_pos, h_neg, loss = lines[0].split("\t")
    assert pair_id == "p1"
    assert float(h_pos) == pytest.approx(1.0)
    assert float(h_neg) == pytest.approx(0.0)
    total = lines[1].split("\t")
    assert total[0] == "TOTAL"
    assert total[1] == "1"
    assert total[2] == "cosine"
    assert float(total[3]) == pytest.approx(float(loss))


def test_loss_cli_scores_each_triplet_once(tmp_path, capsys, monkeypatch):
    calls = []
    triplet_scores = scoring.triplet_scores

    def counted(triplet, kind=scoring.COSINE):
        calls.append(triplet)
        return triplet_scores(triplet, kind)

    monkeypatch.setattr(scoring, "triplet_scores", counted)
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(
        "".join(
            f"p{i}\tanchor\t1.0\t{i}.0\np{i}\tpos\t1.0\t0.5\np{i}\tneg\t0.0\t1.0\n"
            for i in range(3)
        ),
        encoding="utf-8",
    )
    assert main(["-q", "loss", "--vectors", str(vectors)]) == 0
    assert len(calls) == 3
    lines = capsys.readouterr().out.splitlines()
    losses = [float(line.split("\t")[3]) for line in lines[:3]]
    assert lines[3].split("\t")[3] == repr(math.fsum(losses))


def test_loss_cli_total_is_permutation_invariant(tmp_path, capsys):
    # The TOTAL line is a math.fsum, so the triplet order cannot move it.
    rng = random.Random(3)
    triplets = []
    for i in range(100):
        angles = [rng.uniform(0, 6.28) for _ in range(3)]
        triplets.append("".join(
            f"p{i}\t{role}\t{math.cos(angle)!r}\t{math.sin(angle)!r}\n"
            for role, angle in zip(("anchor", "pos", "neg"), angles)
        ))
    shuffled = triplets[:]
    rng.shuffle(shuffled)
    totals = []
    for name, rows in (("ordered", triplets), ("shuffled", shuffled)):
        vectors = tmp_path / f"{name}.tsv"
        vectors.write_text("".join(rows), encoding="utf-8")
        assert main(["-q", "loss", "--vectors", str(vectors)]) == 0
        totals.append(capsys.readouterr().out.splitlines()[-1])
    assert totals[0].startswith("TOTAL\t100\tcosine\t")
    assert totals[0] == totals[1]


def test_loss_cli_dot_kind(tmp_path, capsys):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(
        "p1\tanchor\t2.0\t0.0\n"
        "p1\tpos\t2.0\t0.0\n"
        "p1\tneg\t0.0\t2.0\n",
        encoding="utf-8",
    )
    assert main(["-q", "loss", "--vectors", str(vectors), "--score", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split("\t")[2] == "dot"


def test_loss_cli_bad_file_exits_1(tmp_path):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("p1\tanchor\t1.0\n", encoding="utf-8")
    assert main(["-q", "loss", "--vectors", str(vectors)]) == 1
    assert main(["-q", "loss", "--vectors", str(tmp_path / "nope.tsv")]) == 1


@pytest.mark.parametrize(
    "rows, kind, error",
    [
        ("p1\tanchor\t1.0\t0.0\np1\tpos\tnan\t0.0\np1\tneg\t0.0\t1.0\n", "cosine",
         "{path}: line 2: vector values must be finite"),
        ("p1\tanchor\t1.0\t0.0\np1\tpos\t1.0\t0.0\np1\tneg\t0.0\t1.0\n"
         "p2\tanchor\t1.0\t0.0\np2\tpos\t0.0\t0.0\np2\tneg\t0.0\t1.0\n", "cosine",
         "pair 'p2': cosine is undefined for a zero vector"),
        ("p1\tanchor\t1e200\t0\np1\tpos\t1e200\t0\np1\tneg\t1\t0\n", "dot",
         "pair 'p1': the dot product overflows a float"),
        ("p1\tanchor\t1e154\t1e154\np1\tpos\t1e154\t1e154\np1\tneg\t1\t0\n", "dot",
         "pair 'p1': the dot product overflows a float"),
    ],
    ids=["nan", "zero-vector", "infinite-score", "overflow"],
)
def test_loss_cli_fault_names_its_line_or_pair(tmp_path, capsys, rows, kind, error):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(rows, encoding="utf-8")
    assert main(["-q", "loss", "--vectors", str(vectors), "--score", kind]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ERROR amr_logic_aug: {error.format(path=vectors)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "rows, h_pos",
    [
        ("p1\tanchor\t1e154\t1e154\np1\tpos\t1e154\t1e154\np1\tneg\t1\t0\n", 1.0),
        ("p2\tanchor\t1e160\t1e160\np2\tpos\t1e160\t-1e160\np2\tneg\t1\t0\n", 0.0),
        ("p3\tanchor\t1e-200\t0\np3\tpos\t1\t0\np3\tneg\t0\t1\n", 1.0),
    ],
    ids=["overflow", "overflow-to-nan", "underflow"],
)
def test_loss_cli_scores_cosine_beyond_the_square_root_of_the_float_range(
    tmp_path, capsys, rows, h_pos
):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(rows, encoding="utf-8")
    assert main(["-q", "loss", "--vectors", str(vectors)]) == 0
    assert float(capsys.readouterr().out.splitlines()[0].split("\t")[1]) == h_pos



# ---------------------------------------------------------------------------
# Data files: decoding, replacement into place, pinned output bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["check", "--in", "IN"], ""),
        (["augment", "--law", "commutative", "--in", "IN", "--out", "OUT"],
         "Alan is kind and Bob is tall."),
        (["pararule", "--depth", "1", "--in", "IN", "--out", "OUT"], '{"rules": []}'),
        (["prompt-aug", "--format", "logiqa", "--in", "IN", "--out", "OUT"], ""),
        (["prompt-aug", "--in", "IN", "--out", "OUT"], "["),
        (["pairs", "--corpus", "IN", "--out-train", "OUT", "--out-val", "OUT2"], ""),
        (["loss", "--vectors", "IN"], "# pair_id, role, floats"),
        (["synth", "--lexicon", "IN", "--count", "5", "--out", "OUT"], "# lexicon"),
    ],
    ids=["check", "augment", "pararule", "prompt-aug-logiqa", "prompt-aug-reclor",
         "pairs-corpus", "loss", "lexicon"],
)
def test_non_utf8_input_exits_1_with_one_located_error(tmp_path, capsys, argv, first_line):
    src = tmp_path / "in.txt"
    src.write_bytes(first_line.encode() + b"\ncaf\xe9\n")  # Latin-1, not UTF-8
    paths = {"IN": src, "OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
    code = main(["-q", *(str(paths.get(arg, arg)) for arg in argv)])
    assert code == 1
    errors = logged(capsys)
    assert errors == [f"{src}: line 2 is not UTF-8 text"]
    assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]


def test_a_utf16_file_fails_without_a_traceback(tmp_path):
    src = tmp_path / "in.json"
    src.write_bytes("[]".encode("utf-16"))  # starts with the byte-order mark \xff\xfe
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "amr_logic_aug", "prompt-aug",
         "--in", str(src), "--out", str(tmp_path / "out.json")],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"ERROR amr_logic_aug: {src}: line 1 is not UTF-8 text"]


@pytest.mark.parametrize(
    "argv, line, key, expected",
    [
        (["pararule", "--depth", "1"],
         json.dumps({"rules": ["If someone is tall then they are quiet."]}),
         "rules", ["If someone is not quiet then they are not tall."]),
        (["augment", "--law", "contraposition"],
         "If Alan is kind, then Bob is clever.",
         "positive", "Alan is not kind if Bob is not clever."),
    ],
    ids=["pararule", "augment"],
)
def test_an_output_may_name_its_own_input(tmp_path, argv, line, key, expected):
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["-q", *argv, "--in", str(path), "--out", str(path)]) == 0
    [row] = read_jsonl(path)
    assert row[key] == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.manifest.json"]


def test_prompt_aug_logiqa_keeps_a_line_separator_inside_a_record(tmp_path):
    record = _mcq_payload()[0]
    record["answers"][3] = "Alan is kind\u2028and Bob is clever."
    src, out, again = (tmp_path / name for name in ("in.jsonl", "out.jsonl", "again.jsonl"))
    src.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    for source, target in ((src, out), (out, again)):
        argv = ["-q", "prompt-aug", "--format", "logiqa", "--in", str(source), "--out", str(target)]
        assert main(argv) == 0
        assert manifest_of(target)["records_processed"] == 1
    assert "\u2028" in out.read_text(encoding="utf-8")  # written raw, not escaped
    [row] = [json.loads(line) for line in again.read_text(encoding="utf-8").split("\n") if line]
    assert row["answers"][3].startswith("Alan is kind\u2028and Bob is clever.")


PINNED_RUNS = [
    ["synth", "--count", "30", "--seed", "7", "--format", "text", "--out", "synth.txt"],
    ["synth", "--count", "30", "--seed", "7", "--out", "corpus.jsonl"],
    ["pairs", "--corpus", "corpus.jsonl", "--ratio", "1:2", "--seed", "7",
     "--out-train", "train.jsonl", "--out-val", "val.jsonl"],
    ["augment", "--law", "contraposition", "--negatives", "--in", "lines.txt",
     "--out", "augmented.jsonl"],
    ["augment", "--law", "implication", "--format", "penman", "--negatives",
     "--in", "graphs.penman", "--out", "graphs_aug.jsonl"],
    ["pararule", "--depth", "2", "--in", "rules.jsonl", "--out", "rules_alt.jsonl"],
    ["prompt-aug", "--format", "logiqa", "--laws", "contraposition,implication,commutative",
     "--in", "mcq.jsonl", "--out", "mcq_aug.jsonl", "--trace", "trace.jsonl"],
    ["prompt-aug", "--in", "mcq.json", "--out", "mcq_aug.json"],
]
PINNED_INPUTS = {
    "lines.txt": "If Alan is kind, then Bob is clever.\n\nZoë is kind.\n"
                 "Alan is kind and Bob is tall.\n",
    # One graph per shape: atomic, and, or (two subjects whose variables
    # collide), a leading conditional with a negated consequent, and a
    # trailing conditional.  Implication rewrites the last three and skips
    # the first two.
    "graphs.penman":
        "(k / kind :domain (z / Zoë))\n"
        "(a / and :op1 (k / kind :domain (a2 / Alan)) :op2 (t / tall :domain (b / Bob)))\n"
        "(o / or :op1 (k / kind :polarity - :domain (t / the-bald-eagle))"
        " :op2 (c / clever :domain (t2 / the-bald-eagle)))\n"
        "(c / clever :condition (k / kind :domain (a / Alan)) :polarity - :domain (b / Bob))\n"
        "(c / clever :domain (b / Bob) :condition (k / kind :polarity - :domain (z / Zoë)))\n",
    "rules.jsonl": json.dumps({"rules": [
        "If someone is tall then they are quiet.",
        "If someone is sad and dull then they are bad.",
        "Strong people are kind.",
        "All dull people are rough.",
        "Les gens sont gentils.",
    ]}) + "\n\n" + json.dumps({"rules": [], "id": "ünïcode"}, ensure_ascii=False) + "\n",
    "mcq.jsonl": "".join(
        json.dumps({**record, "answers": [*record["answers"][:3], "Zoë is kind."]},
                   ensure_ascii=False) + "\n"
        for record in _mcq_payload()
    ),
    "mcq.json": json.dumps(_mcq_payload() + [{"context": "Zoë"}], ensure_ascii=False),
}
# The sha256 of every file ``PINNED_RUNS`` writes, recorded before the readers
# and writers moved into ``amr_logic_aug.files``: that move changed no byte.
# The ``graphs_aug.jsonl`` pair was recorded while Penman output still went
# through ``serialize(build_graph(...))``; ``penman_of_struct`` changed no byte.
# The ``.manifest.json`` digests were re-recorded when every sidecar gained
# ``data_sha256``; with that key removed, each sidecar has its old bytes.
PINNED_SHA256 = {
    "augmented.jsonl":
        "60aa3a7507649120331b4fae3bef57124cc8aa5762908201a7cfe9588ad0b3de",
    "augmented.jsonl.manifest.json":
        "fc19ef0aaf9e91a9233ea3e81586508cafc1e0b94ee55a4fde932678de9fab3e",
    "corpus.jsonl":
        "47c10edcef8fd513acdc8713168394d857beb8ce32676c91ecc1d6a9e5fc125b",
    "corpus.jsonl.manifest.json":
        "49a64f9d2432c8e3c34497c6eecf36f19f3bf07f9423b86cb4a4785024c2d468",
    "graphs_aug.jsonl":
        "8c1c7610b8c626e36713cbdd330797193638073f06ecaab381a3d6dad1b58474",
    "graphs_aug.jsonl.manifest.json":
        "0858a5f02af2870eea6b0cc8acf2007700fbad06ac970c5080c8fb9e73d58164",
    "mcq_aug.json":
        "280881e547cd3c06925c91ae2ec44e2b393401fa7e63c411103da7ea77f62485",
    "mcq_aug.json.manifest.json":
        "670e8bd0f2487eabc0c4884b6fd29ae5fe76c0cb05ccd9b3065a85584bc8e573",
    "mcq_aug.jsonl":
        "024b09d5a9f6216fd2be8586379d0fd2f6c2e8e47ef4416ee0abebe87857f532",
    "mcq_aug.jsonl.manifest.json":
        "7cc17c55781e940d083b635d5748465428824f3cbecd86080c9741949e57eb96",
    "rules_alt.jsonl":
        "57bb5c4a763617f1986b563f4030007b4b8c3278247c14a572d93747cba3ded9",
    "rules_alt.jsonl.manifest.json":
        "b6a7febb3ce1f4f6fcce1a4c371901d5505a98533b178b9cd90dcc39491ed7d5",
    "synth.txt":
        "cd91ecc43a3d0bfeb840e5bd870645ec3f3ebb9220afc7a39ca428d1a4326069",
    "synth.txt.manifest.json":
        "7f6305dac96a107e812f1e2bccd3ac54ab1194c6015a8d4cd2387a08f2a60728",
    "trace.jsonl":
        "03497ee7aee7220f37dc6a6d05009a930717cf02a48e53d29421c557b6cdf269",
    "train.jsonl":
        "683cd57853ec4c11ac75122cb5df8ebce018e9349bfb3a4c6857393f59b61a66",
    "train.jsonl.manifest.json":
        "2feb648fc93ff3d45424fb7614e67585ece022d99f2d4d43fe89245726c8d46c",
    "val.jsonl":
        "e163f0fd9ffb2df2b44b2bbd22ef25bdfe46b534dad2d9b50694eb23ab805872",
    "val.jsonl.manifest.json":
        "31920f74960dd3730c0e3d3bf6581e285466f15c8e8efc8e4f91883ac602532e",
}


def pinned_outputs(workdir: Path) -> dict[str, str]:
    """Run ``PINNED_RUNS`` in ``workdir``; returns the sha256 of every file they write."""
    for name, text in PINNED_INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for argv in PINNED_RUNS:
        assert main(["-q", *argv]) == 0, argv
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.iterdir())
        if path.name not in PINNED_INPUTS
    }


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert pinned_outputs(tmp_path) == PINNED_SHA256


BENCHMARK_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_default_size_build_bytes_match_the_benchmark_digests(tmp_path, monkeypatch):
    """The benchmark's ``build`` workload at its pinned seed is default-seed
    ``synth`` then ``pairs --ratio 1:3``; its outputs keep their pinned bytes.
    ``pairs --corpus`` on that corpus, the documented path, writes the same
    pairs bytes, and only its sidecars name the corpus."""
    monkeypatch.chdir(tmp_path)
    assert main(["-q", "synth", "--out", "corpus.jsonl"]) == 0
    assert main(
        ["-q", "pairs", "--ratio", "1:3", "--out-train", "train.jsonl", "--out-val", "val.jsonl"]
    ) == 0
    assert main(
        ["-q", "pairs", "--corpus", "corpus.jsonl", "--ratio", "1:3",
         "--out-train", "read_train.jsonl", "--out-val", "read_val.jsonl"]
    ) == 0
    pinned = json.loads(BENCHMARK_DIGESTS.read_text(encoding="utf-8"))["build"]
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in pinned} == pinned
    for name in ("train.jsonl", "val.jsonl"):
        assert hashlib.sha256(Path(f"read_{name}").read_bytes()).hexdigest() == pinned[name]
        regenerated = json.loads(Path(f"{name}.manifest.json").read_text(encoding="utf-8"))
        read = json.loads(Path(f"read_{name}.manifest.json").read_text(encoding="utf-8"))
        provenance = {"corpus_path": "corpus.jsonl", "corpus_seed": 2021,
                      "corpus_sha256": pinned["corpus.jsonl"]}
        assert not provenance.keys() & regenerated.keys()
        assert read == {**regenerated, **provenance}


# sha256 of the seed-0 ``prompt`` workload's ``--trace`` sidecar; it holds the
# parser's error message for each of the 4,767 sentences the grammar skips.
PROMPT_TRACE_SHA256 = "3435c14ef61d10142beaa89cc30627d31c175c411c71c3cc98e40abd9499758b"


def test_default_size_prompt_bytes_match_the_benchmark_digests(tmp_path, monkeypatch):
    """The benchmark's ``prompt`` workload at its pinned seed is ``prompt-aug``
    on 1,000 generated ReClor records; its output and trace keep their bytes."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIGESTS.parent))
    inputs = importlib.import_module("inputs")
    monkeypatch.chdir(tmp_path)
    inputs.make_reclor_file(0, tmp_path / "reclor.json")
    assert main(
        ["-q", "prompt-aug", "--in", "reclor.json", "--out", "augmented.json",
         "--trace", "trace.jsonl"]
    ) == 0
    pinned = json.loads(BENCHMARK_DIGESTS.read_text(encoding="utf-8"))["prompt"]
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in pinned} == pinned
    assert hashlib.sha256(Path("trace.jsonl").read_bytes()).hexdigest() == PROMPT_TRACE_SHA256


def test_default_size_penman_bytes_match_the_benchmark_digests(tmp_path, monkeypatch):
    """The benchmark's ``penman`` workload at its pinned seed is ``augment
    --format penman --negatives`` on each default-corpus family with that
    family's law; its outputs keep their pinned bytes."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIGESTS.parent))
    inputs = importlib.import_module("inputs")
    monkeypatch.chdir(tmp_path)
    paths = inputs.make_penman_files(0, tmp_path)
    for family, law in inputs.PENMAN_FAMILY_LAW.items():
        assert main(
            ["-q", "augment", "--format", "penman", "--negatives", "--law", law,
             "--in", str(paths[family]), "--out", f"{family}.jsonl"]
        ) == 0
    pinned = json.loads(BENCHMARK_DIGESTS.read_text(encoding="utf-8"))["penman"]
    assert set(pinned) == {f"{family}.jsonl" for family in inputs.PENMAN_FAMILY_LAW}
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in pinned} == pinned


# ---------------------------------------------------------------------------
# Exit 1: the package's domain errors
# ---------------------------------------------------------------------------

# Real subcommand runs, each with the function it calls that is made to
# raise an exception: every class a package module defines, and OSError,
# has at least one run.  No input makes a GrammarError or a ParseError end
# a run (``augment`` skips the line, and ``read_objects`` reports a corpus
# row's as an InputError), so those two runs check only that the class
# exits 1.
PAIRS = ["pairs", "--count", "5", "--out-train", "OUT", "--out-val", "OUT2"]
SYNTH = ["synth", "--count", "5", "--out", "OUT"]
DOMAIN_ERROR_RUNS = {
    "synth-lexicon": (InputError, SYNTH, "cli.default_lexicon"),
    "synth-corpus": (InputError, SYNTH, "corpus.build_corpus"),
    "pairs-corpus-penman": (
        ParseError, ["pairs", "--corpus", "IN", "--out-train", "OUT", "--out-val", "OUT2"],
        "corpus.corpus_from_jsonl",
    ),
    "pairs-logic": (InputError, PAIRS, "logic.meaning"),
    "pairs-law": (laws.LawError, PAIRS, "pairs.build_pairs"),
    "pairs-oracle": (laws.OracleViolation, PAIRS, "laws.verify_outcome"),
    "augment-text": (grammar.GrammarError,
                     ["augment", "--law", "implication", "--in", "IN", "--out", "OUT"],
                     "cli.read_lines"),
    "augment-penman": (InputError, ["augment", "--format", "penman", "--law", "implication",
                                    "--in", "IN", "--out", "OUT"],
                       "grammar.read_canonical_penman"),
    "check": (InputError, ["check", "--in", "IN"], "pairs.load_jsonl"),
    "prompt-aug": (InputError, ["prompt-aug", "--in", "IN", "--out", "OUT"],
                   "prompt.augment_file"),
    "pararule": (InputError, ["pararule", "--depth", "1", "--in", "IN", "--out", "OUT"],
                 "pararule.alter_pararule_file"),
    "loss": (InputError, ["loss", "--vectors", "IN"], "scoring.load_triplets_tsv"),
    "pararule-oserror": (OSError, ["pararule", "--depth", "2", "--in", "IN", "--out", "OUT"],
                         "pararule.alter_pararule_file"),
}
# Builtin errors raised in package code are bugs, not input faults: the
# caller sees them raised.
PROPAGATED_RUNS = {
    RuntimeError: (["loss", "--vectors", "IN"], "scoring.load_triplets_tsv"),
    ValueError: (SYNTH, "corpus.build_corpus"),
    KeyError: (["prompt-aug", "--in", "IN", "--out", "OUT"], "prompt.augment_file"),
}


def forced(error):
    """An ``error`` whose message is ``forced <name>`` (a ParseError adds its offset)."""
    message = f"forced {error.__name__}"
    return error(message, 0) if error is ParseError else error(message)


def run_raising(tmp_path, monkeypatch, error, argv, target):
    """Run ``main`` with ``target`` raising ``forced(error)``."""

    def raise_it(*args, **kwargs):
        raise forced(error)

    monkeypatch.setattr(f"amr_logic_aug.{target}", raise_it)
    src = tmp_path / "in.txt"
    src.write_text("If Alan is kind, then Bob is clever.\n", encoding="utf-8")
    paths = {"IN": src, "OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
    return main(["-q", *(str(paths.get(arg, arg)) for arg in argv)])


def test_every_domain_error_has_a_run():
    defined = set(package_exception_classes().values())
    assert defined | {OSError} == {error for error, _, _ in DOMAIN_ERROR_RUNS.values()}


@pytest.mark.parametrize("run", DOMAIN_ERROR_RUNS)
def test_a_domain_error_exits_1_with_its_message(tmp_path, monkeypatch, capsys, run):
    error, argv, target = DOMAIN_ERROR_RUNS[run]
    assert run_raising(tmp_path, monkeypatch, error, argv, target) == 1
    errors = logged(capsys)
    assert errors == [str(forced(error))]
    assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]


@pytest.mark.parametrize("error", PROPAGATED_RUNS, ids=lambda error: error.__name__)
def test_any_other_error_propagates(tmp_path, monkeypatch, error):
    with pytest.raises(error) as raised:
        run_raising(tmp_path, monkeypatch, error, *PROPAGATED_RUNS[error])
    assert type(raised.value) is error and raised.value.args == (f"forced {error.__name__}",)


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["synth", "--count", "10", "--mix", "atomic-dn=0", "--out", "OUT"], "",
         "mix fractions must sum to 1, got 0.0"),
        (["check", "--in", "IN"], "", "no records in IN"),
        (["prompt-aug", "--in", "IN", "--out", "OUT"], "not json",
         "malformed JSON in IN: Expecting value: line 1 column 1 (char 0)"),
        (["pararule", "--depth", "1", "--in", "IN", "--out", "OUT"], '{"rules": [1]}\n',
         "IN: line 1: every rule must be a string"),
        (["loss", "--vectors", "IN"], "p1\tanchor\t1.0\n", "IN: pair 'p1' missing roles: pos, neg"),
    ],
    ids=["synth", "check", "prompt-aug", "pararule", "loss"],
)
def test_a_refused_input_exits_1_with_one_error_line_in_a_fresh_process(tmp_path, argv, text,
                                                                        message):
    """Each subcommand's refused input, run end to end by the entry point:
    exit 1 and one ERROR line on standard error."""
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    paths = {"IN": str(src), "OUT": str(tmp_path / "out")}
    done = subprocess.run(
        [sys.executable, "-m", "amr_logic_aug", "-q", *(paths.get(arg, arg) for arg in argv)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"ERROR amr_logic_aug: {message.replace('IN', str(src))}"]


# ---------------------------------------------------------------------------
# Standard error: one ``LEVEL name: message`` line per event
# ---------------------------------------------------------------------------


def run_fresh(argv, cwd):
    """``python argv...`` in a fresh interpreter in ``cwd``; stderr stays bytes."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )


def test_the_stderr_bytes_of_every_log_level_are_pinned(tmp_path):
    """Each run's whole standard error and exit code, in a fresh process
    with paths relative to its working directory."""
    (tmp_path / "in.txt").write_text(
        "If Alan is kind, then Bob is clever.\nThis is not in the grammar at all!\n",
        encoding="utf-8",
    )
    (tmp_path / "rules.jsonl").write_text(json.dumps({"rules": [
        "The cat likes the dog.", "If someone is tall then they are quiet.",
    ]}) + "\n", encoding="utf-8")

    def stderr_of(*argv):
        done = run_fresh(["-m", "amr_logic_aug", *argv], tmp_path)
        return done.returncode, done.stderr.decode("utf-8")

    assert stderr_of("synth", "--count", "8", "--out", "corpus.jsonl") == (0, (
        "INFO amr_logic_aug: wrote corpus.jsonl.manifest.json\n"
        "INFO amr_logic_aug: synth: 8 sentences -> corpus.jsonl\n"
    ))
    assert stderr_of(
        "augment", "--law", "contraposition", "--in", "in.txt", "--out", "out.jsonl"
    ) == (0, (
        "WARNING amr_logic_aug: skipped 'This is not in the grammar at all!': "
        "outside grammar: not a declarative sentence\n"
        "INFO amr_logic_aug: wrote out.jsonl.manifest.json\n"
        "INFO amr_logic_aug: augment: 1 rewritten, 1 skipped -> out.jsonl\n"
    ))
    assert stderr_of("check", "--in", "missing.jsonl") == (
        1, "ERROR amr_logic_aug: [Errno 2] No such file or directory: 'missing.jsonl'\n"
    )
    (tmp_path / "corpus.jsonl.manifest.json").write_text(
        json.dumps({"data_sha256": "0" * 64, "seed": 5}), encoding="utf-8"
    )
    assert stderr_of(
        "pairs", "--corpus", "corpus.jsonl", "--out-train", "train.jsonl",
        "--out-val", "val.jsonl",
    ) == (0, (
        "WARNING amr_logic_aug: corpus sidecar corpus.jsonl.manifest.json hashes another "
        "file, so corpus_seed is null\n"
        "INFO amr_logic_aug: wrote train.jsonl.manifest.json\n"
        "INFO amr_logic_aug: wrote val.jsonl.manifest.json\n"
        "INFO amr_logic_aug: pairs: 12 train, 4 validation records (ratio 1:1) "
        "-> train.jsonl, val.jsonl\n"
    ))
    assert stderr_of(
        "pararule", "--depth", "1", "--in", "rules.jsonl", "--out", "altered.jsonl"
    ) == (0, (
        "WARNING amr_logic_aug.pararule: rule 0 matches no template, passed through: "
        "'The cat likes the dog.'\n"
        "INFO amr_logic_aug: wrote altered.jsonl.manifest.json\n"
        "INFO amr_logic_aug: pararule: 1 records altered at depth 1 -> altered.jsonl\n"
    ))


def test_the_preliminary_script_writes_its_lines_without_logging(tmp_path):
    """The script's whole standard error and exit code, with and without
    ``-q``, and its process never imports ``logging``."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_preliminary_test.py"
    code = (
        "import runpy, sys\n"
        "del sys.argv[0]\n"
        "try:\n"
        "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "finally:\n"
        "    print('logging' in sys.modules)\n"
    )

    def run(*flags):
        done = run_fresh(["-c", code, str(script), *flags, "--out", "p.jsonl"], tmp_path)
        assert done.stdout == b"False\n"
        return done.returncode, done.stderr.decode("utf-8")

    assert run() == (0, (
        "INFO amr_logic_aug: wrote p.jsonl.manifest.json\n"
        "INFO make_preliminary_test: preliminary test set: 1312 records -> p.jsonl\n"
    ))
    assert run("-q") == (0, "")


def test_info_lines_go_to_the_stderr_of_the_moment(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert main(["synth", "--count", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"INFO amr_logic_aug: wrote {out}.manifest.json\n"
        f"INFO amr_logic_aug: synth: 4 sentences -> {out}\n"
    )


@pytest.mark.parametrize("quiet_first", [False, True], ids=["loud-first", "quiet-first"])
def test_quiet_holds_for_its_own_main_call_only(tmp_path, quiet_first):
    """Two ``main`` calls in one interpreter: only the call without ``-q``
    writes its INFO lines, whichever call comes first."""
    calls = [["synth", "--count", "4", "--out", "loud.jsonl"],
             ["-q", "synth", "--count", "4", "--out", "quiet.jsonl"]]
    if quiet_first:
        calls.reverse()
    code = (
        "import sys\n"
        "from amr_logic_aug.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split()) == 0\n"
    )
    done = run_fresh(["-c", code, *(" ".join(argv) for argv in calls)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr.decode("utf-8") == (
        "INFO amr_logic_aug: wrote loud.jsonl.manifest.json\n"
        "INFO amr_logic_aug: synth: 4 sentences -> loud.jsonl\n"
    )


# ---------------------------------------------------------------------------
# The cyclic garbage collector
# ---------------------------------------------------------------------------


@pytest.fixture
def collector():
    """Gives the test's caller its collector setting back."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["synth", "--count", "5", "--out", "{tmp}/c.jsonl"], 0),
        (["check", "--in", "{tmp}/missing.jsonl"], 1),
        (["pairs", "--out-train", "{tmp}/F", "--out-val", "{tmp}/F"], 2),
    ],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_main_gives_the_caller_its_collector_setting_back(tmp_path, collector, enabled, argv,
                                                          code):
    """Whatever the exit, ``main`` neither leaves the collector switched
    nor freezes the heap: only the process entry point freezes."""
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    argv = ["-q", *(arg.format(tmp=tmp_path) for arg in argv)]
    if code == 2:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    else:
        assert main(argv) == code
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


# Each probe reports at interpreter exit whether the heap was frozen.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
)


def test_a_process_ends_with_its_heap_frozen_and_the_same_bytes(tmp_path):
    """The entry point freezes the heap once ``main`` returns, so the
    collector's passes at exit skip it; a process that calls ``main``
    itself does not freeze, and both exit alike and write the same bytes."""
    calls = {
        "entry": "import runpy\nrunpy.run_module('amr_logic_aug', run_name='__main__')\n",
        "main": "from amr_logic_aug.cli import main\nsys.exit(main())\n",
    }
    ends = {}
    for name, call in calls.items():
        work = tmp_path / name
        work.mkdir()
        done = run_fresh(
            ["-c", FREEZE_PROBE + call, "synth", "--count", "8", "--out", "corpus.jsonl"], work
        )
        ends[name] = (done.stdout, done.returncode, done.stderr,
                      [(path.name, path.read_bytes()) for path in sorted(work.iterdir())])
    assert ends["entry"][0] == b"frozen: True\n"
    assert ends["main"][0] == b"frozen: False\n"
    assert ends["entry"][1:] == ends["main"][1:]
    assert ends["entry"][1] == 0
    assert [name for name, _ in ends["entry"][3]] == ["corpus.jsonl", "corpus.jsonl.manifest.json"]


def test_the_package_version_is_stated_once():
    """``pyproject.toml`` reads the version from ``amr_logic_aug.__version__``."""
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "amr_logic_aug.__version__"
    }
    assert __version__ not in path.read_text(encoding="utf-8")


def test_the_script_and_python_m_call_one_entry_function():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["amr-logic-aug"]
    source = (root / "src" / "amr_logic_aug" / "__main__.py").read_text(encoding="utf-8")
    called = re.search(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)\n\Z', source, re.M)
    assert called, "__main__ ends in no sys.exit(<entry>()) call"
    assert script == f"amr_logic_aug.__main__:{called.group(1)}"
    module, _, name = script.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_a_subcommand_runs_with_the_collector_paused(monkeypatch, collector):
    seen = []

    def probe(args):
        seen.append(gc.isenabled())
        raise RuntimeError("a bug, not a domain error")

    summary, define, _ = cli._COMMANDS["check"]
    monkeypatch.setitem(cli._COMMANDS, "check", (summary, define, probe))
    gc.enable()
    with pytest.raises(RuntimeError):
        main(["-q", "check", "--in", "x"])
    assert seen == [False]
    assert gc.isenabled()


def test_the_cyclic_garbage_of_a_subcommand_does_not_grow_with_its_input(tmp_path, collector):
    """What the paused collector leaves behind is a fixed amount per run
    (the argument parser's tables, and a few cycles per sidecar from
    ``json``'s indented encoder), not an amount per item."""

    def garbage(argv):
        gc.disable()
        gc.collect()
        assert main(["-q", *argv]) == 0
        return gc.collect()

    def run(size, name):
        work = tmp_path / f"{name}-{size}"
        work.mkdir()
        corpus = work / "corpus.jsonl"
        found = {"synth": garbage(["synth", "--count", str(size), "--out", str(corpus)])}
        rows = read_jsonl(corpus)
        penman = work / "in.penman"
        penman.write_text(
            "".join(f"{row['penman']}\n" for row in rows if row["pattern"] == "implication-pair"),
            encoding="utf-8",
        )
        texts = [row["text"] for row in rows]
        records = [
            {"context": " ".join(texts[i:i + 3]), "question": "Which must be true?",
             "answers": texts[i + 3:i + 7], "label": 0, "id_string": f"r{i}"}
            for i in range(0, len(texts) - 7, 7)
        ]
        mcq = work / "mcq.json"
        mcq.write_text(json.dumps(records), encoding="utf-8")
        train, val = work / "train.jsonl", work / "val.jsonl"
        found["pairs"] = garbage(["pairs", "--corpus", str(corpus), "--ratio", "1:3",
                                  "--out-train", str(train), "--out-val", str(val)])
        found["check"] = garbage(["check", "--in", str(train)])
        found["augment"] = garbage(["augment", "--law", "implication", "--format", "penman",
                                    "--negatives", "--in", str(penman),
                                    "--out", str(work / "augmented.jsonl")])
        found["prompt-aug"] = garbage(["prompt-aug", "--in", str(mcq),
                                       "--out", str(work / "mcq_aug.json"),
                                       "--trace", str(work / "trace.jsonl")])
        return found

    run(40, "warm-up")  # first-use tables are built once per process
    small, large = run(40, "small"), run(400, "large")
    assert small == large
