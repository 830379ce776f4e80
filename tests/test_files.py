"""Data-file readers and the replace-into-place writers."""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_logic_aug.corpus import PatternKind, SynthSentence, corpus_to_jsonl
from amr_logic_aug.files import (
    InputError, read_json, read_jsonl, read_lines, read_objects, write_jsonl, write_text,
)
from amr_logic_aug.grammar import Clause, GrammarError, GrammarSentence, Shape, penman_of_struct
from amr_logic_aug.pairs import PairRecord, emit_jsonl, load_jsonl

SRC = Path(__file__).resolve().parents[1] / "src"


def test_read_lines_breaks_only_where_text_mode_iteration_does(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("a\u2028b\x85c\r\n\n  \nd\re\n  f  ".encode("utf-8"))
    assert list(read_lines(path)) == [
        (1, "a\u2028b\x85c"), (4, "d"), (5, "e"), (6, "f"),
    ]


@pytest.mark.parametrize(
    "data, lineno",
    [
        (b"\xff\xfe{}\n", 1),
        ("ok\n\ncafé\n".encode("utf-8") + b"caf\xe9\n", 4),
        (b"ok\r\n\xed\xa0\x80\n", 2),  # an encoded surrogate is not UTF-8 either
    ],
)
def test_a_byte_that_is_not_utf8_is_located(tmp_path, data, lineno):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    message = re.escape(f"{path}: line {lineno} is not UTF-8 text")
    with pytest.raises(InputError, match=message):
        list(read_lines(path))
    with pytest.raises(InputError, match=message):
        read_json(path)


def test_read_jsonl_names_the_malformed_line(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "\u2028"}\n\n{oops\n', encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == (1, {"a": "\u2028"})
    with pytest.raises(InputError, match="^" + re.escape(f"{path}: malformed JSON on line 3: ")):
        next(rows)


def _refuse_b(row):
    if row["a"] == "b":
        raise GrammarError("outside grammar: b")
    return row["a"]


@pytest.mark.parametrize(
    "line, message",
    [
        ('["a"]', "line 3: not a JSON object, got list"),
        ('"a"', "line 3: not a JSON object, got str"),
        ('{"b": "a"}', "line 3: missing key 'a'"),
        ('{"a": "b"}', "line 3: outside grammar: b"),
    ],
)
def test_read_objects_names_the_line_a_row_fails_on(tmp_path, line, message):
    path = tmp_path / "in.jsonl"
    path.write_text(f'{{"a": "x"}}\n\n{line}\n{{"a": "y"}}\n', encoding="utf-8")
    rows = read_objects(path, _refuse_b)
    assert next(rows) == "x"
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {message}')}$"):
        next(rows)


@pytest.mark.parametrize("error", [AttributeError, TypeError])
def test_read_objects_relabels_no_bug(tmp_path, error):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "x"}\n', encoding="utf-8")

    def build(row):
        raise error("a bug")

    with pytest.raises(error, match="^a bug$"):
        list(read_objects(path, build))


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('[1,\n  oops]', encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"malformed JSON in {path}: ") + ".*line 2"):
        read_json(path)


# JSON that decodes to a ``ValueError`` or a ``RecursionError``, not to a
# ``json.JSONDecodeError``: an integer past the digit limit, and nesting
# past the recursion limit.
PAST_THE_DECODER_LIMITS = {
    "long-integer": ("[" + "7" * 4_301 + "]", "Exceeds the limit (4300 digits)"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("text, reason", PAST_THE_DECODER_LIMITS.values(),
                         ids=PAST_THE_DECODER_LIMITS)
def test_json_past_the_decoder_limits_is_malformed(tmp_path, text, reason):
    path = tmp_path / "in.json"
    path.write_text(f'{{"a": 1}}\n{text}\n', encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == (1, {"a": 1})
    message = f"{path}: malformed JSON on line 2: {reason}"
    with pytest.raises(InputError, match="^" + re.escape(message)):
        next(rows)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match="^" + re.escape(f"malformed JSON in {path}: {reason}")):
        read_json(path)


@pytest.mark.parametrize(
    "escape",
    ["\\ud800", "\\uDFFF", "\\ude00\\ud83d", "\\ud83d x", "\\\\\\ud800"],
    ids=["high", "low-upper-case", "pair-in-the-wrong-order", "high-alone", "after-a-backslash"],
)
def test_a_lone_surrogate_escape_is_located(tmp_path, escape):
    pair = '{"a": "\\ud83d\\ude00"}'  # an escaped pair decodes to one character
    lone = f'{{"b": ["x", "{escape}"]}}'
    jsonl, whole = tmp_path / "in.jsonl", tmp_path / "in.json"
    jsonl.write_text(f"{pair}\n\n{lone}\n", encoding="utf-8")
    whole.write_text(f"[{pair},\n\n{lone}]", encoding="utf-8")
    rows = read_jsonl(jsonl)
    assert next(rows) == (1, {"a": "\U0001f600"})
    for path, read in ((jsonl, lambda: next(rows)), (whole, lambda: read_json(whole))):
        message = f"{path}: line 3 escapes a lone surrogate, which is not UTF-8 text"
        with pytest.raises(InputError, match=re.escape(message)):
            read()


def test_surrogate_like_text_that_is_not_an_escape_loads(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "\\\\ud800", "\\ud83d\\ude00": 1}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [(1, {"a": "\\ud800", "\U0001f600": 1})]
    assert read_json(path) == {"a": "\\ud800", "\U0001f600": 1}


def test_write_jsonl_streams_utf8_rows_and_counts_them(tmp_path):
    path = tmp_path / "out.jsonl"
    assert write_jsonl(path, iter([{"a": "Zoë"}, [1]])) == 2
    assert path.read_bytes() == '{"a": "Zoë"}\n[1]\n'.encode("utf-8")
    assert write_text(path, ("x", "", "y\n")) == 3
    assert path.read_bytes() == b"xy\n"


def _dumps_lines(rows) -> bytes:
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


def assert_fixed_key_writers_match_json_dumps(texts: list[str], path: Path) -> None:
    """``emit_jsonl`` and ``corpus_to_jsonl`` write what ``json.dumps`` writes
    for the same rows, with every text as a sentence and inside a Penman."""
    records = [
        PairRecord(first, second, label, law)
        for first, second in zip(texts, texts[1:] + ["other"])
        if first != second
        for label, law in ((0, "random-sample"), (1, "commutative"))
    ]
    assert emit_jsonl(records, path) == len(records)
    assert path.read_bytes() == _dumps_lines(
        {"sentence1": r.sentence1, "sentence2": r.sentence2, "label": r.label,
         "law": r.law, "pair_id": r.pair_id}
        for r in records
    )
    sentences = [
        SynthSentence(text, GrammarSentence(Shape.ATOMIC, (Clause(text, text),)), pattern)
        for text, pattern in zip(texts, itertools.cycle(PatternKind))
    ]
    assert corpus_to_jsonl(sentences, path) == len(sentences)
    assert path.read_bytes() == _dumps_lines(
        {"text": s.text, "penman": penman_of_struct(s.struct), "pattern": s.pattern.value}
        for s in sentences
    )


def test_fixed_key_writers_escape_like_json_dumps(tmp_path):
    texts = [
        'say "hi"', "back\\slash", "nul\x00 bell\x07 tab\t nl\n cr\r us\x1f del\x7f",
        "Zoë Ærø 漢字 😀", "line\u2028separator", "next\x85line", "para\u2029", "",
    ]
    assert_fixed_key_writers_match_json_dumps(texts, tmp_path / "out.jsonl")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=8))
def test_fixed_key_writers_match_json_dumps_on_any_text(tmp_path_factory, texts):
    path = tmp_path_factory.mktemp("writers") / "out.jsonl"
    assert_fixed_key_writers_match_json_dumps(texts, path)


@pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["replaced", "created"])
def test_a_failed_write_leaves_the_old_file(tmp_path, old):
    path = tmp_path / "out.jsonl"
    if old is not None:
        path.write_bytes(old)

    def rows():
        yield {"n": 1}
        raise InputError("part-way")

    with pytest.raises(InputError, match="part-way"):
        write_jsonl(path, rows())
    assert sorted(tmp_path.iterdir()) == ([path] if old is not None else [])
    if old is not None:
        assert path.read_bytes() == old


def test_a_written_file_gets_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference"
    reference.write_text("", encoding="utf-8")
    write_text(tmp_path / "out", ["x"])
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == stat.S_IMODE(
        reference.stat().st_mode
    )


CHILD = textwrap.dedent(
    """
    import sys, time
    from amr_logic_aug.files import write_jsonl

    def rows():
        for n in range(1000):
            yield {"n": n, "pad": "x" * 1000}
            if n == 100:
                print("writing", flush=True)
                time.sleep(60)

    write_jsonl(sys.argv[1], rows())
    """
)


@pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["replaced", "created"])
def test_a_killed_writer_leaves_the_old_file(tmp_path, old):
    path = tmp_path / "out.jsonl"
    if old is not None:
        path.write_bytes(old)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "writing\n"
        [temp] = [p for p in tmp_path.iterdir() if p != path]
        assert temp.stat().st_size > 0  # part of the output is on disk
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old


# ---------------------------------------------------------------------------
# The row decoder agrees with json.loads
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def jsonl_lines(draw):
    """A ``json.dumps`` line, then one mutation that may make it malformed."""
    line = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    mutation = draw(st.sampled_from(
        ["none", "bom", "extra-item", "extra-value", "truncated", "non-finite",
         "duplicate-keys", "nested", "large-integer"]
    ))
    if mutation == "bom":
        return "\ufeff" + line
    if mutation == "extra-item":
        return line + ", 1"
    if mutation == "extra-value":
        return line + " 2"
    if mutation == "truncated":
        return line[:draw(st.integers(0, len(line) - 1))]
    if mutation == "non-finite":
        return f"[NaN, -Infinity, {line}, Infinity]"
    if mutation == "duplicate-keys":
        return f'{{"k": 0, "k": {line}, "j": 1, "j": {line}}}'
    if mutation == "nested":  # past the recursion limit, both decoders raise
        depth = draw(st.integers(1, 50) | st.just(100_000))
        return "[" * depth + line + "]" * depth
    if mutation == "large-integer":  # past 4,300 digits, both decoders raise
        digits = draw(st.sampled_from("123456789")) * draw(st.integers(19, 5_000))
        return f"[{draw(st.sampled_from(['', '-']))}{digits}, {line}]"
    return line


def expected_rows(path, lines):
    """What ``read_jsonl`` must give for ``lines``: ``(line number, value)``
    per non-blank line, ending with the located error of the first line
    ``json.loads`` refuses.  An integer past the digit limit (``ValueError``)
    and nesting past the recursion limit (``RecursionError``) are malformed
    JSON too."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append((lineno, json.loads(line)))
        except (ValueError, RecursionError) as err:
            return rows, InputError(f"{path}: malformed JSON on line {lineno}: {err}")
    return rows, None


@settings(max_examples=200, deadline=None)
@given(st.lists(jsonl_lines(), min_size=1, max_size=6))
def test_the_row_decoder_agrees_with_json_loads(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("decoder") / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want, error = expected_rows(path, lines)
    got = []
    try:
        got.extend(read_jsonl(path))
    except InputError as err:
        assert str(err) == str(error)
    else:
        assert error is None
    assert repr(got) == repr(want)  # repr tells 1 from 1.0 and matches NaN


def test_a_well_formed_file_decodes_without_json_loads(tmp_path, monkeypatch):
    rows = [
        {"a": 'Zoë "quoted" \\ back\tslash', "b": [1, -2.5e-7, None, True, {}]},
        ["x", 10**40], "a string", 7, {"\u00e9": "\u2028"},
    ]
    path, pairs_path = tmp_path / "in.jsonl", tmp_path / "pairs.jsonl"
    lines = [json.dumps(row, ensure_ascii=ascii) for row in rows for ascii in (True, False)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records = [
        PairRecord("Zoë 😀 is kind.", "Zoë 😀 is not unkind.", 1, "double-negation"),
        PairRecord("Alan is kind.", "Alan is not kind.", 0, "double-negation"),
    ]
    emit_jsonl(records, pairs_path)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *args: calls.append(args) or loads(*args))
    assert [value for _, value in read_jsonl(path)] == [row for row in rows for _ in "ab"]
    assert load_jsonl(pairs_path) == records
    assert calls == []
