"""Prompt augmentation for multiple-choice logical-reasoning records.

Records carry ``context``, ``question``, four ``answers``, an optional
``label``, and an ``id_string``.  Augmentation appends logically equivalent
rewrites: each option gains its own rewrites (per requested law, in the
order :class:`~amr_logic_aug.laws.LawKind` declares them: contraposition →
implication → commutative → double negation), followed by rewrites of
every context sentence (law-major: all sentences under the first law, then
all under the next).  The context field itself, the question, the label,
and the answer order are never touched.

Sentences are always parsed with the extended verb-phrase grammar so real
reading-comprehension phrasings ("you will not be able to use a computer",
"you have no keyboarding skills at all") normalize onto stable atoms.
Free text outside even the extended grammar is passed through unchanged
and recorded in its trace row with a skip reason.

:func:`augment_file` takes the lexicon from its caller and keeps each
record's trace rows only when a trace file is asked for.  A file that does
not parse raises :class:`InputError` naming where; a record that is not an
object with string ``context``, ``question`` and ``answers`` (and, when
present, a ``label`` from 0 to 3 and a string ``id_string``) is written out
unchanged and counted in ``records_skipped``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from . import grammar
from .files import InputError, read_json, read_jsonl, write_jsonl, write_text
from .laws import LawKind, apply_law, refusal
from .lexicon import Lexicon

RECLOR = "reclor"
LOGIQA = "logiqa"

DEFAULT_PROMPT_LAWS: frozenset[LawKind] = frozenset(
    {LawKind.CONTRAPOSITION, LawKind.IMPLICATION}
)
# Each law with its ``value``, read once: an enum property read is slow.
_LAW_VALUES: tuple[tuple[LawKind, str], ...] = tuple((law, law.value) for law in LawKind)


class _McqFields(NamedTuple):
    context: str
    answers: tuple[str, str, str, str]
    id_string: str = ""


class McqRecord(_McqFields):
    """The parts of one multiple-choice record that augmentation reads,
    validated on construction (``_make`` and ``_replace`` skip the checks).
    :meth:`from_dict` checks the record's question and label too, but keeps
    neither: the output row copies them from the payload."""

    __slots__ = ()

    def __new__(
        cls, context: str, answers: tuple[str, str, str, str], id_string: str = ""
    ) -> "McqRecord":
        if len(answers) != 4:
            raise InputError(f"record needs exactly 4 answers, got {len(answers)}")
        return tuple.__new__(cls, (context, answers, id_string))

    @staticmethod
    def from_dict(payload: dict) -> "McqRecord":
        if not isinstance(payload, dict):
            raise InputError(f"record must be a JSON object, got {type(payload).__name__}")
        try:
            answers, context, question = (
                payload["answers"], payload["context"], payload["question"]
            )
        except KeyError as err:
            raise InputError(f"record missing key {err}") from err
        if not isinstance(answers, (list, tuple)) or not all(
            isinstance(answer, str) for answer in answers
        ):
            raise InputError("answers must be a list of strings")
        if not isinstance(context, str) or not isinstance(question, str):
            raise InputError("context and question must be strings")
        id_string = payload.get("id_string", "")
        if not isinstance(id_string, str):
            raise InputError(f"id_string must be a string, got {type(id_string).__name__}")
        record = McqRecord(context, tuple(answers), id_string)
        label = payload.get("label")
        # checked by type, because a bool is an int
        if label is not None and (type(label) is not int or label not in range(4)):
            raise InputError(f"label must be 0-3, got {label!r}")
        return record


class Rewrite(NamedTuple):
    law: str
    text: str


class TraceRow(NamedTuple):
    source: str  # "context" or "option <k>"
    original: str
    rewrites: tuple[Rewrite, ...] = ()
    skipped_reason: Optional[str] = None


_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "no", "vs", "etc",
    "e.g", "i.e", "cf", "al", "inc", "ltd", "co", "fig", "approx",
}
_SENTENCE_END = re.compile(r"([.?!])\s+(?=[\"'(A-Z0-9])")


def split_sentences(text: str) -> list[str]:
    """Split on sentence punctuation with a trailing-abbreviation guard."""
    pieces: list[str] = []
    start = 0
    for match in _SENTENCE_END.finditer(text):
        end = match.end(1)
        candidate = text[start:end].strip()
        words = candidate[:-1].rsplit(None, 1)
        last_word = words[-1].lower() if words else ""
        if match.group(1) == "." and (
            last_word.rstrip(".") in _ABBREVIATIONS or len(last_word.rstrip(".")) == 1
        ):
            continue
        if candidate:
            pieces.append(candidate)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def rewrite_sentence(
    text: str, lexicon: Lexicon, laws: Iterable[LawKind], source: str = ""
) -> TraceRow:
    """All requested applicable rewrites of one sentence under the extended
    grammar, oracle-gated, as a trace row from ``source``.

    A sentence outside the grammar, or one that no requested law applies to
    (see :func:`~amr_logic_aug.laws.refusal`), is skipped with the
    reason.
    """
    if not isinstance(laws, (set, frozenset)):
        laws = set(laws)
    try:
        sentence = grammar.parse_sentence_struct(text, lexicon, grammar.EXTENDED)
    except grammar.GrammarError as err:
        return TraceRow(source, text, skipped_reason=str(err))
    rewrites = tuple(
        Rewrite(value, grammar.realize_struct(apply_law(sentence, law, lexicon).positive))
        for law, value in _LAW_VALUES
        if law in laws and not refusal(sentence, law, lexicon)
    )
    if not rewrites:
        return TraceRow(source, text, skipped_reason="no applicable law")
    return TraceRow(source, text, rewrites)


def augment_record(
    record: McqRecord,
    lexicon: Lexicon,
    laws: Iterable[LawKind] = DEFAULT_PROMPT_LAWS,
) -> tuple[McqRecord, tuple[TraceRow, ...]]:
    """Append option rewrites and context rewrites to every option; returns
    the augmented record and one trace row per context sentence, then one per
    option."""
    laws = frozenset(laws)
    rows = [
        rewrite_sentence(sentence, lexicon, laws, "context")
        for sentence in split_sentences(record.context)
    ]
    # Law-major ordering: every context sentence under law 1, then law 2, …
    context_rewrites: list[str] = []
    for law, value in _LAW_VALUES:
        if law not in laws:
            continue
        for row in rows:
            context_rewrites.extend(
                rewrite.text for rewrite in row.rewrites if rewrite.law == value
            )

    answers: list[str] = []
    for index, option in enumerate(record.answers):
        row = rewrite_sentence(option, lexicon, laws, f"option {index}")
        rows.append(row)
        # Sentence-level dedup makes augmentation idempotent: re-running on
        # already-augmented options appends nothing that is already present.
        seen = set(split_sentences(option))
        parts = [option]
        for text in [rewrite.text for rewrite in row.rewrites] + context_rewrites:
            if text not in seen:
                parts.append(text)
                seen.add(text)
        answers.append(" ".join(parts))

    # Still four answers, so the check is not rerun.
    return record._replace(answers=tuple(answers)), tuple(rows)


def _read_records(path: str | Path, file_format: str) -> Iterable:
    if file_format == RECLOR:
        payload = read_json(path)
        if not isinstance(payload, list):
            raise InputError("reclor input must be a JSON array of records")
        return payload
    if file_format == LOGIQA:
        return (payload for _, payload in read_jsonl(path))
    raise InputError(f"unknown format {file_format!r} (use {RECLOR} or {LOGIQA})")


def augment_file(
    in_path: str | Path,
    out_path: str | Path,
    lexicon: Lexicon,
    file_format: str = RECLOR,
    laws: Iterable[LawKind] = DEFAULT_PROMPT_LAWS,
    trace_path: Optional[str | Path] = None,
) -> dict:
    """Augment every record in a file; returns summary statistics.

    A record that :meth:`McqRecord.from_dict` rejects is counted in
    ``records_skipped`` and written out unchanged.
    """
    laws = frozenset(laws)
    payloads = _read_records(in_path, file_format)

    out_payloads: list[dict] = []
    traces: list[tuple[str, tuple[TraceRow, ...]]] = []
    stats = {
        "records_processed": 0,
        "records_skipped": 0,
        "sentences_seen": 0,
        "sentences_augmented": 0,
        "rewrites_per_law": {law.value: 0 for law in LawKind if law in laws},
    }
    for payload in payloads:
        try:
            record = McqRecord.from_dict(payload)
        except InputError:
            stats["records_skipped"] += 1
            out_payloads.append(payload)
            continue
        augmented, rows = augment_record(record, lexicon, laws)
        result = dict(payload)
        result["answers"] = list(augmented.answers)
        out_payloads.append(result)
        if trace_path is not None:
            traces.append((record.id_string, rows))
        stats["records_processed"] += 1
        for row in rows:
            stats["sentences_seen"] += 1
            if row.rewrites:
                stats["sentences_augmented"] += 1
            for rewrite in row.rewrites:
                stats["rewrites_per_law"][rewrite.law] += 1

    if file_format == RECLOR:
        write_text(out_path, (json.dumps(out_payloads, ensure_ascii=False, indent=2), "\n"))
    else:
        write_jsonl(out_path, out_payloads)
    if trace_path is not None:
        write_jsonl(trace_path, (
            {"record_id": record_id, "source": row.source, "original": row.original,
             "rewrites": [{"law": r.law, "text": r.text} for r in row.rewrites],
             "skipped_reason": row.skipped_reason}
            for record_id, rows in traces for row in rows
        ))
    seen = stats["sentences_seen"]
    stats["skip_rate"] = round(1 - stats["sentences_augmented"] / seen, 4) if seen else 0.0
    return stats
