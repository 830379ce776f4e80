"""Contrastive pair datasets: build, split, emit, load, verify.

Each corpus sentence yields one positive (its pattern family's law rewrite)
and ``k`` negatives for a ``1:k`` ratio.  The first negative is the law's
own near-miss negative construction; further negatives alternate polarity
flips and random corpus samples.  Every record passes the truth-table
oracle at construction time, and ``load_jsonl`` re-derives each record's
required ``pair_id`` so tampered files fail fast.

Output order is sorted by ``pair_id``, making emitted bytes a pure function
of (corpus, lexicon, ratio, seed).
"""

from __future__ import annotations

import hashlib
import random
import re
from array import array
from itertools import cycle, groupby, islice, pairwise
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import logic
from .corpus import DEFAULT_SEED, PATTERN_LAW, SynthSentence
from .files import json_string, read_objects, write_text
from .grammar import GrammarError, parse_sentence_struct, realize_struct
from .laws import LawKind, apply_law, flip_polarity_negative
from .lexicon import Lexicon

DEFAULT_VAL_FRACTION = 0.2
RANDOM_SAMPLE_LAW = "random-sample"
SAMPLE_ATTEMPTS = 100

_VALID_LAWS = {law.value for law in LawKind} | {RANDOM_SAMPLE_LAW}
_RATIO = re.compile(r"1:([1-9][0-9]*)")
_PAIR_ID = attrgetter("pair_id")


class DatasetError(ValueError):
    """Raised for infeasible ratios and malformed pair files."""


def make_pair_id(sentence1: str, sentence2: str, label: int, law: str) -> str:
    payload = f"{sentence1}\x1f{sentence2}\x1f{label}\x1f{law}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _PairFields(NamedTuple):
    sentence1: str
    sentence2: str
    label: int
    law: str
    pair_id: str = ""


class PairRecord(_PairFields):
    """One labelled pair, validated on construction (``_make`` and
    ``_replace`` skip the checks); an empty ``pair_id`` is filled in."""

    __slots__ = ()

    def __new__(
        cls, sentence1: str, sentence2: str, label: int, law: str, pair_id: str = ""
    ) -> "PairRecord":
        if type(label) is not int or label not in (0, 1):  # a bool is an int
            raise DatasetError(f"label must be 0 or 1, got {label!r}")
        if law not in _VALID_LAWS:
            raise DatasetError(f"law must be one of {sorted(_VALID_LAWS)}, got {law!r}")
        if sentence1 == sentence2:
            raise DatasetError("sentence1 == sentence2")
        expected = make_pair_id(sentence1, sentence2, label, law)
        if not pair_id:
            pair_id = expected
        elif pair_id != expected:
            raise DatasetError(f"pair_id mismatch: got {pair_id!r}, expected {expected!r}")
        return tuple.__new__(cls, (sentence1, sentence2, label, law, pair_id))


def parse_ratio(ratio: str) -> int:
    """``1:k`` → k (negatives per positive); k is ASCII digits with no sign,
    space, underscore or leading zero, so the sidecar records one spelling."""
    match = _RATIO.fullmatch(ratio)
    if match is None:
        raise DatasetError(f"ratio must be '1:k' with k >= 1, got {ratio!r}")
    return int(match.group(1))


def build_pairs(
    corpus: Sequence[SynthSentence],
    lexicon: Lexicon,
    ratio: str = "1:1",
    seed: int = DEFAULT_SEED,
) -> list[PairRecord]:
    """One oracle-gated positive and k negatives per corpus sentence."""
    wanted = 2 + parse_ratio(ratio)  # the anchor, its positive, then k negatives
    records: list[PairRecord] = []
    # Reseeding gives the stream a fresh Random(f"{seed}:neg:{text}") would.
    rng = random.Random()
    for text, struct, pattern in corpus:
        law = PATTERN_LAW[pattern]
        tag = law.value
        outcome = apply_law(struct, law, lexicon)
        positive_text = realize_struct(outcome.positive)
        records.append(PairRecord(text, positive_text, 1, tag))
        # Each sentence2 maps to its law tag in the order it was admitted;
        # the anchor and its positive come first, so no negative repeats
        # either, and a text already held is not admitted again.
        texts = {text: "", positive_text: ""}
        texts.setdefault(realize_struct(outcome.negative), tag)
        if len(texts) < wanted:
            rng.seed(f"{seed}:neg:{text}")
            anchor_key = logic.meaning(struct, lexicon)  # for the flip and the sample arm
            for kind in cycle(("flip", "sample")):
                if len(texts) >= wanted:
                    break
                if kind == "flip":
                    flipped = flip_polarity_negative(struct, lexicon, rng, anchor_key)
                    texts.setdefault(realize_struct(flipped), tag)
                    continue
                for _ in range(SAMPLE_ATTEMPTS):
                    candidate = corpus[rng.randrange(len(corpus))]
                    if candidate.text in texts:
                        continue
                    if logic.meaning(candidate.struct, lexicon) == anchor_key:
                        continue
                    texts[candidate.text] = RANDOM_SAMPLE_LAW
                    break
                else:
                    raise DatasetError(
                        "ratio unreachable: no distinct nonequivalent corpus "
                        f"sample found for {text!r} after {SAMPLE_ATTEMPTS} attempts"
                    )
        for negative_text, negative_tag in islice(texts.items(), 2, None):
            records.append(PairRecord(text, negative_text, 0, negative_tag))
    records.sort(key=_PAIR_ID)
    # Sorted, equal ids are neighbours.
    if any(first.pair_id == second.pair_id for first, second in pairwise(records)):
        raise DatasetError("pair_id collision in generated dataset")
    return records


def split(
    records: Sequence[PairRecord],
    val_fraction: float = DEFAULT_VAL_FRACTION,
    seed: int = DEFAULT_SEED,
) -> tuple[list[PairRecord], list[PairRecord]]:
    """Label-stratified seeded split; both sides nonempty, sorted by pair_id."""
    if not 0 < val_fraction < 1:
        raise DatasetError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = random.Random(f"{seed}:split")
    held_out = bytearray(len(records))
    for label in (1, 0):
        # Each label's indexes in input order, in an array so that no int
        # object per record stays alive; the shuffle takes a list's draws.
        group = array("L", (i for i, record in enumerate(records) if record.label == label))
        rng.shuffle(group)
        for index in group[: int(len(group) * val_fraction + 0.5)]:
            held_out[index] = 1
    train: list[PairRecord] = []
    validation: list[PairRecord] = []
    for record, out in zip(records, held_out):
        (validation if out else train).append(record)
    if not train or not validation:  # check refuses an empty pairs file
        raise DatasetError(f"a {val_fraction} validation split of {len(records)} records leaves "
                           f"{len(train)} training and {len(validation)} validation records")
    # One linear pass each when ``records`` is sorted, as build_pairs returns it.
    train.sort(key=_PAIR_ID)
    validation.sort(key=_PAIR_ID)
    return train, validation


def emit_jsonl(records: Iterable[PairRecord], path: str | Path) -> int:
    """Write one {sentence1, sentence2, label, law, pair_id} object per line,
    the bytes of ``json.dumps(row, ensure_ascii=False)``; returns the count."""
    quote = json_string
    return write_text(
        path,
        (
            f'{{"sentence1": {quote(r.sentence1)}, "sentence2": {quote(r.sentence2)}, '
            f'"label": {r.label}, "law": {quote(r.law)}, "pair_id": {quote(r.pair_id)}}}\n'
            for r in records
        ),
    )


def load_jsonl(path: str | Path) -> list[PairRecord]:
    """Load and re-validate records; ``pair_id`` is required and recomputed,
    not trusted."""

    def record_of(row: dict) -> PairRecord:
        # A missing key passes these checks and is reported by the lookups
        # below; a missing pair_id only after PairRecord's own checks.
        for key in ("sentence1", "sentence2", "law", "pair_id"):
            value = row.get(key, "")
            if not isinstance(value, str):
                raise DatasetError(f"{key} must be a string, got {type(value).__name__}")
        pair_id = row.get("pair_id", "")
        record = PairRecord(row["sentence1"], row["sentence2"], row["label"], row["law"], pair_id)
        if not pair_id:  # PairRecord filled it in, but a file must carry it
            if "pair_id" not in row:
                raise KeyError("pair_id")
            raise DatasetError(f"pair_id mismatch: got {pair_id!r}, expected {record.pair_id!r}")
        return record

    return list(read_objects(path, DatasetError, record_of))


def verify_records(records: Sequence[PairRecord], lexicon: Lexicon) -> list[tuple[int, str]]:
    """Oracle replay: re-check that each label matches truth-table semantics.

    Records are visited grouped by ``sentence1`` (a stable sort of their
    indexes by anchor text), so each anchor is parsed and keyed
    (:func:`~amr_logic_aug.logic.meaning`) once, and only the current
    anchor's key is alive; ``sentence2`` is parsed and keyed per record.
    An unparseable anchor is reported on every record that names it.
    Returns (record index, problem) tuples in record order; empty means a
    clean bill of health.
    """
    anchor_of = [record.sentence1 for record in records].__getitem__
    problems: list[tuple[int, str]] = []
    for anchor, group in groupby(sorted(range(len(records)), key=anchor_of), key=anchor_of):
        try:
            anchor_key = logic.meaning(parse_sentence_struct(anchor, lexicon), lexicon)
        except GrammarError as err:
            problems.extend((index, f"unparseable pair: {err}") for index in group)
            continue
        for index in group:
            record = records[index]
            try:
                key = logic.meaning(parse_sentence_struct(record.sentence2, lexicon), lexicon)
            except GrammarError as err:
                problems.append((index, f"unparseable pair: {err}"))
                continue
            if (key == anchor_key) != bool(record.label):
                problems.append(
                    (
                        index,
                        f"label {record.label} contradicts oracle "
                        f"({record.sentence1!r} vs {record.sentence2!r})",
                    )
                )
    problems.sort()
    return problems


def build_manifest(
    records: Sequence[PairRecord],
    seed: int,
    ratio: str,
    val_fraction: float | None,
    lexicon: Lexicon,
    corpus_size: int = 0,
) -> dict:
    """The ``pairs`` sidecar payload for ``records`` (see ``cli.write_manifest``);
    ``val_fraction`` is ``None`` for a set that was not split."""
    by_law: dict[str, int] = {}
    positives = 0
    for record in records:
        by_law[record.law] = by_law.get(record.law, 0) + 1
        positives += record.label
    return {
        "command": "pairs",
        "seed": seed,
        "ratio": ratio,
        "val_fraction": val_fraction,
        "lexicon_checksum": lexicon.checksum,
        "records_total": len(records),
        "positives": positives,
        "negatives": len(records) - positives,
        "by_law": dict(sorted(by_law.items())),
        "corpus_size": corpus_size,
    }


__all__ = [
    "DEFAULT_VAL_FRACTION",
    "RANDOM_SAMPLE_LAW",
    "DatasetError",
    "PairRecord",
    "make_pair_id",
    "parse_ratio",
    "build_pairs",
    "split",
    "emit_jsonl",
    "load_jsonl",
    "verify_records",
    "build_manifest",
]
