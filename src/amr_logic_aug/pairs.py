"""Contrastive pair datasets: build, split, emit, load, verify.

Each corpus sentence yields one positive (its pattern family's law rewrite)
and ``k`` negatives for a ``1:k`` ratio.  The first negative is the law's
own near-miss negative construction; further negatives alternate polarity
flips and random corpus samples.  Every record passes the truth-table
oracle at construction time, and ``load_jsonl`` re-derives each record's
``pair_id`` so tampered files fail fast.

Output order is sorted by ``pair_id``, making emitted bytes a pure function
of (corpus, lexicon, ratio, seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from itertools import cycle
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import logic
from .corpus import PATTERN_LAW, SynthSentence
from .grammar import GrammarError, parse_sentence_struct, realize_struct
from .laws import LawError, LawKind, apply_law, flip_polarity_negative, verify_outcome
from .lexicon import Lexicon

DEFAULT_SEED = 2021
DEFAULT_VAL_FRACTION = 0.2
RANDOM_SAMPLE_LAW = "random-sample"
SAMPLE_ATTEMPTS = 100

_VALID_LAWS = {law.value for law in LawKind} | {RANDOM_SAMPLE_LAW}


class DatasetError(ValueError):
    """Raised for infeasible ratios and malformed pair files."""


def make_pair_id(sentence1: str, sentence2: str, label: int, law: str) -> str:
    payload = "\x1f".join([sentence1, sentence2, str(label), law])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PairRecord:
    sentence1: str
    sentence2: str
    label: int
    law: str
    pair_id: str = ""

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DatasetError(f"label must be 0 or 1, got {self.label!r}")
        if self.law not in _VALID_LAWS:
            raise DatasetError(f"law must be one of {sorted(_VALID_LAWS)}, got {self.law!r}")
        if self.sentence1 == self.sentence2:
            raise DatasetError("sentence1 == sentence2")
        expected = make_pair_id(self.sentence1, self.sentence2, self.label, self.law)
        if not self.pair_id:
            object.__setattr__(self, "pair_id", expected)
        elif self.pair_id != expected:
            raise DatasetError(
                f"pair_id mismatch: got {self.pair_id!r}, expected {expected!r}"
            )


def parse_ratio(ratio: str) -> int:
    """``1:k`` → k (negatives per positive)."""
    parts = ratio.split(":")
    if len(parts) == 2 and parts[0].strip() == "1":
        try:
            negatives = int(parts[1])
        except ValueError:
            negatives = 0
        if negatives >= 1:
            return negatives
    raise DatasetError(f"ratio must be '1:k' with k >= 1, got {ratio!r}")


def build_pairs(
    corpus: Sequence[SynthSentence],
    lexicon: Lexicon,
    ratio: str = "1:1",
    seed: int = DEFAULT_SEED,
) -> list[PairRecord]:
    """One oracle-gated positive and k negatives per corpus sentence."""
    negatives_per = parse_ratio(ratio)
    records: list[PairRecord] = []
    for sentence in corpus:
        law = PATTERN_LAW[sentence.pattern]
        # The source formula is built once and shared by the oracle gate, the
        # flip arm and the sample arm.
        outcome = apply_law(sentence.struct, law, lexicon, verify=False)
        source_formula = logic.formula_of_struct(sentence.struct, lexicon)
        verify_outcome(sentence.struct, source_formula, outcome, lexicon)
        positive_text = realize_struct(outcome.positive)
        records.append(PairRecord(sentence.text, positive_text, 1, law.value))

        rng = random.Random(f"{seed}:neg:{sentence.text}")
        used = {sentence.text, positive_text}
        negatives: list[tuple[str, str]] = []

        def admit(text: str, tag: str) -> bool:
            if text in used:
                return False
            used.add(text)
            negatives.append((text, tag))
            return True

        admit(realize_struct(outcome.negatives[0]), law.value)
        for kind in cycle(("flip", "sample")):
            if len(negatives) >= negatives_per:
                break
            if kind == "flip":
                try:
                    flipped = flip_polarity_negative(
                        sentence.struct, source_formula, lexicon, rng
                    )
                    admit(realize_struct(flipped), law.value)
                except LawError:
                    pass  # no usable flip; the sample arm fills the slot
                continue
            for _ in range(SAMPLE_ATTEMPTS):
                candidate = corpus[rng.randrange(len(corpus))]
                if candidate.text in used:
                    continue
                if logic.equivalent(
                    source_formula, logic.formula_of_struct(candidate.struct, lexicon)
                ):
                    continue
                admit(candidate.text, RANDOM_SAMPLE_LAW)
                break
            else:
                raise DatasetError(
                    "ratio unreachable: no distinct nonequivalent corpus "
                    f"sample found for {sentence.text!r} after {SAMPLE_ATTEMPTS} attempts"
                )
        for text, tag in negatives:
            records.append(PairRecord(sentence.text, text, 0, tag))
    records.sort(key=lambda record: record.pair_id)
    ids = {record.pair_id for record in records}
    if len(ids) != len(records):
        raise DatasetError("pair_id collision in generated dataset")
    return records


def split(
    records: Sequence[PairRecord],
    val_fraction: float = DEFAULT_VAL_FRACTION,
    seed: int = DEFAULT_SEED,
) -> tuple[list[PairRecord], list[PairRecord]]:
    """Label-stratified seeded split; both sides sorted by pair_id."""
    if not 0 < val_fraction < 1:
        raise DatasetError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = random.Random(f"{seed}:split")
    train: list[PairRecord] = []
    validation: list[PairRecord] = []
    for label in (1, 0):
        group = [record for record in records if record.label == label]
        rng.shuffle(group)
        cut = int(len(group) * val_fraction + 0.5)
        validation.extend(group[:cut])
        train.extend(group[cut:])
    train.sort(key=lambda record: record.pair_id)
    validation.sort(key=lambda record: record.pair_id)
    return train, validation


def emit_jsonl(records: Iterable[PairRecord], path: str | Path) -> int:
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            payload = {
                "sentence1": record.sentence1,
                "sentence2": record.sentence2,
                "label": record.label,
                "law": record.law,
                "pair_id": record.pair_id,
            }
            handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
            count += 1
    return count


def load_jsonl(path: str | Path) -> list[PairRecord]:
    """Load and re-validate records; pair_id is recomputed, not trusted."""
    records: list[PairRecord] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"malformed JSON on line {lineno}: {err}") from err
            if not isinstance(payload, dict):
                raise DatasetError(f"line {lineno} is not a JSON object")
            try:
                records.append(
                    PairRecord(
                        sentence1=payload["sentence1"],
                        sentence2=payload["sentence2"],
                        label=payload["label"],
                        law=payload["law"],
                        pair_id=payload.get("pair_id", ""),
                    )
                )
            except KeyError as err:
                raise DatasetError(f"line {lineno} missing key {err}") from err
            except DatasetError as err:
                raise DatasetError(f"line {lineno}: {err}") from err
    return records


def verify_records(
    records: Sequence[PairRecord], lexicon: Lexicon, grammar_level: str = "core"
) -> list[tuple[int, str]]:
    """Oracle replay: re-check that each label matches truth-table semantics.

    Returns a list of (record index, problem) tuples; empty means a clean
    bill of health.
    """
    problems: list[tuple[int, str]] = []
    for index, record in enumerate(records):
        try:
            first = logic.formula_of_struct(
                parse_sentence_struct(record.sentence1, lexicon, grammar_level), lexicon
            )
            second = logic.formula_of_struct(
                parse_sentence_struct(record.sentence2, lexicon, grammar_level), lexicon
            )
        except GrammarError as err:
            problems.append((index, f"unparseable pair: {err}"))
            continue
        equivalent = logic.equivalent(first, second)
        if equivalent != bool(record.label):
            problems.append(
                (
                    index,
                    f"label {record.label} contradicts oracle "
                    f"({record.sentence1!r} vs {record.sentence2!r})",
                )
            )
    return problems


@dataclass(frozen=True)
class DatasetManifest:
    seed: int
    ratio: str
    val_fraction: float
    lexicon_checksum: str
    records_total: int
    positives: int
    negatives: int
    by_law: dict[str, int] = field(default_factory=dict)
    corpus_size: int = 0
    version: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "DatasetManifest":
        return DatasetManifest(**json.loads(text))


def build_manifest(
    records: Sequence[PairRecord],
    seed: int,
    ratio: str,
    val_fraction: float,
    lexicon: Lexicon,
    corpus_size: int = 0,
    version: Optional[str] = None,
) -> DatasetManifest:
    from . import __version__

    by_law: dict[str, int] = {}
    for record in records:
        by_law[record.law] = by_law.get(record.law, 0) + 1
    return DatasetManifest(
        seed=seed,
        ratio=ratio,
        val_fraction=val_fraction,
        lexicon_checksum=lexicon.checksum,
        records_total=len(records),
        positives=sum(1 for r in records if r.label == 1),
        negatives=sum(1 for r in records if r.label == 0),
        by_law=dict(sorted(by_law.items())),
        corpus_size=corpus_size,
        version=version if version is not None else __version__,
    )


__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_VAL_FRACTION",
    "RANDOM_SAMPLE_LAW",
    "DatasetError",
    "PairRecord",
    "DatasetManifest",
    "make_pair_id",
    "parse_ratio",
    "build_pairs",
    "split",
    "emit_jsonl",
    "load_jsonl",
    "verify_records",
    "build_manifest",
]
