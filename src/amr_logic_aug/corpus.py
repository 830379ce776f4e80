"""Controlled synthetic sentence corpus over the lexicon.

Four pattern families, one per law.  Each is one entry of the private
``_FAMILIES`` table: its law (``PATTERN_LAW``), its slot capacity
(:func:`family_capacity`) and a function from slot index and running
position to the slot's struct, or ``None`` for a degenerate slot.

AtomicDN
    ``subject is attribute`` for attributes with a lexicon antonym
    (positive polarity only, so double negation is always applicable).
CommutativePair
    ``A and B`` conjunctions; alternating both-positive / both-negative
    polarity scenarios.
ConditionalContra
    Leading ``If A, then B.`` conditionals cycling the four polarity
    scenarios (++, +-, -+, --).
ImplicationPair
    Alternating directions: leading conditionals (``If A, then B.``) and
    their disjunction counterparts (``A is not X or B is Y.``).

A pair family's slots are the off-diagonal (subject1, attribute1,
subject2, attribute2) cell pairs, sampled without replacement.  A pair whose
two clauses name one atom (``logic.clause_literal``'s key: same subject and
same base attribute, e.g. "the cat is strong"/"the cat is weak") is
degenerate, because law negatives over such sentences can collapse into
accidental equivalences.

:func:`build_corpus` assembles a deduplicated corpus of an exact target
size from per-family quotas (largest-remainder allocation of the mix,
capped at family capacity with deterministic redistribution).
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .files import json_string, read_objects, write_text
from .grammar import (
    AmrGraph,
    Clause,
    GrammarSentence,
    Shape,
    build_graph,
    parse_sentence_struct,
    penman_of_struct,
    realize_struct,
)
from .laws import LawKind, refusal
from .lexicon import Lexicon
from .logic import clause_literal

DEFAULT_TARGET = 14_962
DEFAULT_SEED = 2021

_TOPUP_RESERVE = 256


class CorpusError(ValueError):
    """Raised for infeasible corpus requests."""


class PatternKind(str, Enum):
    ATOMIC_DN = "atomic-dn"
    COMMUTATIVE_PAIR = "commutative-pair"
    CONDITIONAL_CONTRA = "conditional-contra"
    IMPLICATION_PAIR = "implication-pair"


DEFAULT_MIX: dict[PatternKind, float] = {kind: 0.25 for kind in PatternKind}


class SynthSentence(NamedTuple):
    text: str
    struct: GrammarSentence
    pattern: PatternKind

    @property
    def graph(self) -> AmrGraph:
        """The canonical graph, built on demand."""
        return build_graph(self.struct)


def _sentence(struct: GrammarSentence, pattern: PatternKind) -> SynthSentence:
    return SynthSentence(realize_struct(struct), struct, pattern)


# ---------------------------------------------------------------------------
# Pattern families
# ---------------------------------------------------------------------------


def _pair_space(lexicon: Lexicon) -> int:
    cells = len(lexicon.entities) * len(lexicon.attributes)
    return cells * (cells - 1)


def _atomic_struct(lexicon: Lexicon, index: int, position: int) -> GrammarSentence:
    mapped = lexicon.antonym_attributes
    subject_index, attribute_index = divmod(index, len(mapped))
    clause = Clause(lexicon.entities[subject_index], mapped[attribute_index])
    return GrammarSentence(Shape.ATOMIC, (clause,))


_SlotStruct = Callable[[Lexicon, int, int], Optional[GrammarSentence]]


def _pair_family(form: Callable[[int], tuple[Shape, bool, bool]]) -> _SlotStruct:
    """The slot → struct function of a pair family whose ``form(position)``
    gives the shape and the two clauses' negations."""

    def struct(lexicon: Lexicon, index: int, position: int) -> Optional[GrammarSentence]:
        cells = len(lexicon.entities) * len(lexicon.attributes)
        first, second = divmod(index, cells - 1)
        if second >= first:
            second += 1
        n_attr = len(lexicon.attributes)
        sub1, adj1 = divmod(first, n_attr)
        sub2, adj2 = divmod(second, n_attr)
        shape, negated1, negated2 = form(position)
        one = Clause(lexicon.entities[sub1], lexicon.attributes[adj1], negated1)
        two = Clause(lexicon.entities[sub2], lexicon.attributes[adj2], negated2)
        if clause_literal(one, lexicon)[0] == clause_literal(two, lexicon)[0]:
            return None
        return GrammarSentence(shape, (one, two))

    return struct


class _Family(NamedTuple):
    law: LawKind
    capacity: Callable[[Lexicon], int]
    struct: _SlotStruct


_FAMILIES: dict[PatternKind, _Family] = {
    PatternKind.ATOMIC_DN: _Family(
        LawKind.DOUBLE_NEGATION,
        lambda lexicon: len(lexicon.entities) * len(lexicon.antonym_attributes),
        _atomic_struct,
    ),
    PatternKind.COMMUTATIVE_PAIR: _Family(
        LawKind.COMMUTATIVE,
        _pair_space,
        _pair_family(lambda position: (Shape.AND_PAIR, position % 2 == 1, position % 2 == 1)),
    ),
    PatternKind.CONDITIONAL_CONTRA: _Family(
        LawKind.CONTRAPOSITION,
        _pair_space,
        _pair_family(lambda position: (Shape.IF_THEN, position % 4 >= 2, position % 2 == 1)),
    ),
    PatternKind.IMPLICATION_PAIR: _Family(
        LawKind.IMPLICATION,
        _pair_space,
        _pair_family(
            lambda position: (Shape.OR_PAIR, True, False) if position % 2
            else (Shape.IF_THEN, False, False)
        ),
    ),
}

PATTERN_LAW: dict[PatternKind, LawKind] = {kind: f.law for kind, f in _FAMILIES.items()}


def family_capacity(lexicon: Lexicon, pattern: PatternKind) -> int:
    return _FAMILIES[pattern].capacity(lexicon)


def _family_rng(seed: int, pattern: PatternKind) -> random.Random:
    return random.Random(f"{seed}:{pattern.name}")


def _generate_family(
    lexicon: Lexicon,
    pattern: PatternKind,
    count: int,
    rng: random.Random,
    seen_texts: set[str],
) -> list[SynthSentence]:
    """Fill a family quota, skipping degenerate slots and duplicate texts."""
    family = _FAMILIES[pattern]
    capacity = family.capacity(lexicon)
    accepted: list[SynthSentence] = []
    used: set[int] = set()

    def consume(indexes: Iterable[int]) -> None:
        for index in indexes:
            if len(accepted) >= count:
                return
            used.add(index)
            struct = family.struct(lexicon, index, len(accepted))
            if struct is None:
                continue
            sentence = _sentence(struct, pattern)
            key = sentence.text.lower()
            if key in seen_texts:
                continue
            seen_texts.add(key)
            accepted.append(sentence)

    draw = min(capacity, count + _TOPUP_RESERVE)
    consume(rng.sample(range(capacity), draw))
    while len(accepted) < count and len(used) < capacity:
        remaining = [i for i in range(capacity) if i not in used]
        extra = min(len(remaining), count - len(accepted) + _TOPUP_RESERVE)
        consume(rng.sample(remaining, extra))
    if len(accepted) < count:
        raise CorpusError(
            f"unreachable target: {pattern.value} family exhausted at "
            f"{len(accepted)} of {count} requested sentences"
        )
    return accepted


def _largest_remainder(target: int, weights: dict[PatternKind, float]) -> dict[PatternKind, int]:
    shares = {kind: target * weight for kind, weight in weights.items()}
    quotas = {kind: int(share) for kind, share in shares.items()}
    shortfall = target - sum(quotas.values())
    by_remainder = sorted(
        weights,
        key=lambda kind: (-(shares[kind] - quotas[kind]), list(PatternKind).index(kind)),
    )
    for kind in by_remainder[:shortfall]:
        quotas[kind] += 1
    return quotas


def build_corpus(
    lexicon: Lexicon,
    target_size: int = DEFAULT_TARGET,
    mix: Optional[dict[PatternKind, float]] = None,
    seed: int = DEFAULT_SEED,
) -> list[SynthSentence]:
    """Exactly ``target_size`` unique sentences in family order.

    Quotas follow ``mix`` by largest remainder; a family whose quota
    exceeds its capacity is capped, and the excess is redistributed evenly
    over families with headroom.
    """
    if target_size < 0:
        raise CorpusError("target size must be non-negative")
    mix = dict(DEFAULT_MIX) if mix is None else dict(mix)
    unknown = [kind for kind in mix if not isinstance(kind, PatternKind)]
    if unknown:
        raise CorpusError(f"unknown pattern kinds in mix: {unknown}")
    if not all(math.isfinite(fraction) and fraction >= 0 for fraction in mix.values()):
        raise CorpusError("mix fractions must be finite and non-negative")
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-9:
        raise CorpusError(f"mix fractions must sum to 1, got {total}")

    # Approximate capacities ignore degenerate-tuple and cross-family text
    # losses; the per-family generators raise if those bite at the margin.
    capacities = {kind: family_capacity(lexicon, kind) for kind in PatternKind}
    if target_size > sum(capacities[kind] for kind in mix):
        raise CorpusError(
            f"unreachable target: {target_size} exceeds total capacity "
            f"{sum(capacities[kind] for kind in mix)}"
        )

    quotas = _largest_remainder(target_size, mix)
    while True:
        overflow = 0
        headroom = {}
        for kind, quota in quotas.items():
            if quota > capacities[kind]:
                overflow += quota - capacities[kind]
                quotas[kind] = capacities[kind]
            elif quota < capacities[kind]:
                headroom[kind] = capacities[kind] - quota
        if not overflow:
            break
        if not headroom:
            raise CorpusError("unreachable target: no family headroom left")
        share = {kind: room / sum(headroom.values()) for kind, room in headroom.items()}
        extra = _largest_remainder(overflow, share)
        for kind, amount in extra.items():
            quotas[kind] += amount

    corpus: list[SynthSentence] = []
    seen_texts: set[str] = set()
    for kind in PatternKind:
        quota = quotas.get(kind, 0)
        if quota:
            corpus.extend(
                _generate_family(lexicon, kind, quota, _family_rng(seed, kind), seen_texts)
            )
    return corpus


def corpus_to_jsonl(corpus: Sequence[SynthSentence], path) -> int:
    """Write one {text, penman, pattern} object per line, the bytes of
    ``json.dumps(row, ensure_ascii=False)``; returns the count."""
    quote = json_string
    return write_text(
        path,
        (
            f'{{"text": {quote(s.text)}, "penman": {quote(penman_of_struct(s.struct))}, '
            f'"pattern": {quote(s.pattern.value)}}}\n'
            for s in corpus
        ),
    )


def corpus_from_jsonl(path, lexicon: Lexicon) -> list[SynthSentence]:
    """Rebuild sentences from a {text, penman, pattern} JSONL file.

    Structs are reconstructed by re-parsing the text, each line's
    ``penman`` must be the Penman of that struct, and its pattern's law must
    apply to it, so a file whose text drifted from the grammar, whose graph
    drifted from its text, or whose pattern does not fit its text fails
    loudly with a line number.
    """

    def sentence_of(row: dict) -> SynthSentence:
        for key in ("text", "pattern"):
            if not isinstance(row[key], str):
                raise CorpusError(f"{key} must be a string, got {type(row[key]).__name__}")
        struct = parse_sentence_struct(row["text"], lexicon)
        pattern = PatternKind(row["pattern"])
        sentence = _sentence(struct, pattern)
        if sentence.text != row["text"]:
            raise CorpusError(f"text is not canonical: {row['text']!r}")
        penman = row["penman"]
        expected = penman_of_struct(struct)
        if penman != expected:
            raise CorpusError(f"penman {penman!r} is not the text's {expected!r}")
        law = PATTERN_LAW[pattern]
        if refusal(struct, law, lexicon):
            raise CorpusError(
                f"pattern {pattern.value!r} needs the {law.value} law, "
                "which does not apply to this text"
            )
        return sentence

    return list(read_objects(path, CorpusError, sentence_of))


__all__ = [
    "DEFAULT_TARGET",
    "DEFAULT_SEED",
    "DEFAULT_MIX",
    "PATTERN_LAW",
    "CorpusError",
    "PatternKind",
    "SynthSentence",
    "build_corpus",
    "family_capacity",
    "corpus_to_jsonl",
    "corpus_from_jsonl",
]
