"""Controlled synthetic sentence corpus over the lexicon.

Four pattern families, one per logic-pattern template:

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

Pair families sample (subject1, attribute1, subject2, attribute2) tuples
without replacement from the off-diagonal combination space; tuples whose
two clauses normalize to the same atom (same subject and same base
attribute, e.g. "the cat is strong"/"the cat is weak") are excluded because
law negatives over such sentences can collapse into accidental equivalences.

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
from .laws import LawKind, applicable_laws
from .lexicon import Lexicon

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


PATTERN_LAW: dict[PatternKind, LawKind] = {
    PatternKind.ATOMIC_DN: LawKind.DOUBLE_NEGATION,
    PatternKind.COMMUTATIVE_PAIR: LawKind.COMMUTATIVE,
    PatternKind.CONDITIONAL_CONTRA: LawKind.CONTRAPOSITION,
    PatternKind.IMPLICATION_PAIR: LawKind.IMPLICATION,
}

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
    return SynthSentence(text=realize_struct(struct), struct=struct, pattern=pattern)


def _mapped_attributes(lexicon: Lexicon) -> list[str]:
    return [a for a in lexicon.attributes if lexicon.antonym_of(a) is not None]


# ---------------------------------------------------------------------------
# Pattern families
# ---------------------------------------------------------------------------


def _pair_space(lexicon: Lexicon) -> int:
    cells = len(lexicon.entities) * len(lexicon.attributes)
    return cells * (cells - 1)


def _decode_pair(lexicon: Lexicon, index: int) -> tuple[str, str, str, str]:
    """Index → (subject1, attribute1, subject2, attribute2), off-diagonal."""
    cells = len(lexicon.entities) * len(lexicon.attributes)
    first, second = divmod(index, cells - 1)
    if second >= first:
        second += 1
    n_attr = len(lexicon.attributes)
    sub1, adj1 = divmod(first, n_attr)
    sub2, adj2 = divmod(second, n_attr)
    return (
        lexicon.entities[sub1],
        lexicon.attributes[adj1],
        lexicon.entities[sub2],
        lexicon.attributes[adj2],
    )


def _degenerate(tuple4: tuple[str, str, str, str], lexicon: Lexicon) -> bool:
    """Whether both clauses name one atom (``logic.clause_literal``'s key)."""
    sub1, adj1, sub2, adj2 = tuple4
    bases = lexicon.antonym_bases
    return sub1 == sub2 and bases.get(adj1, adj1) == bases.get(adj2, adj2)


def _atomic_capacity(lexicon: Lexicon) -> int:
    return len(lexicon.entities) * len(_mapped_attributes(lexicon))


def _atomic_struct(lexicon: Lexicon, index: int) -> GrammarSentence:
    mapped = _mapped_attributes(lexicon)
    subject_index, attribute_index = divmod(index, len(mapped))
    clause = Clause(lexicon.entities[subject_index], mapped[attribute_index])
    return GrammarSentence(Shape.ATOMIC, (clause,))


def _commutative_struct(tuple4: tuple[str, str, str, str], position: int) -> GrammarSentence:
    sub1, adj1, sub2, adj2 = tuple4
    negated = position % 2 == 1
    return GrammarSentence(
        Shape.AND_PAIR,
        (Clause(sub1, adj1, negated), Clause(sub2, adj2, negated)),
    )


def _contra_struct(tuple4: tuple[str, str, str, str], position: int) -> GrammarSentence:
    sub1, adj1, sub2, adj2 = tuple4
    scenario = position % 4
    return GrammarSentence(
        Shape.IF_THEN,
        (
            Clause(sub1, adj1, scenario in (2, 3)),
            Clause(sub2, adj2, scenario in (1, 3)),
        ),
    )


def _implication_struct(tuple4: tuple[str, str, str, str], position: int) -> GrammarSentence:
    sub1, adj1, sub2, adj2 = tuple4
    if position % 2 == 0:
        return GrammarSentence(
            Shape.IF_THEN, (Clause(sub1, adj1), Clause(sub2, adj2))
        )
    return GrammarSentence(
        Shape.OR_PAIR, (Clause(sub1, adj1, True), Clause(sub2, adj2))
    )


_PAIR_BUILDERS: dict[
    PatternKind, Callable[[tuple[str, str, str, str], int], GrammarSentence]
] = {
    PatternKind.COMMUTATIVE_PAIR: _commutative_struct,
    PatternKind.CONDITIONAL_CONTRA: _contra_struct,
    PatternKind.IMPLICATION_PAIR: _implication_struct,
}


def family_capacity(lexicon: Lexicon, pattern: PatternKind) -> int:
    if pattern is PatternKind.ATOMIC_DN:
        return _atomic_capacity(lexicon)
    return _pair_space(lexicon)


def _family_rng(seed: int, pattern: PatternKind) -> random.Random:
    return random.Random(f"{seed}:{pattern.name}")


def _generate_family(
    lexicon: Lexicon,
    pattern: PatternKind,
    count: int,
    rng: random.Random,
    seen_texts: set[str],
) -> list[SynthSentence]:
    """Fill a family quota, skipping degenerate tuples and duplicate texts."""
    capacity = family_capacity(lexicon, pattern)
    accepted: list[SynthSentence] = []
    used: set[int] = set()

    def consume(indexes: Iterable[int]) -> None:
        for index in indexes:
            if len(accepted) >= count:
                return
            used.add(index)
            if pattern is PatternKind.ATOMIC_DN:
                struct = _atomic_struct(lexicon, index)
            else:
                tuple4 = _decode_pair(lexicon, index)
                if _degenerate(tuple4, lexicon):
                    continue
                struct = _PAIR_BUILDERS[pattern](tuple4, len(accepted))
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


def generate_pattern(
    lexicon: Lexicon, pattern: PatternKind, count: int, seed: int = DEFAULT_SEED
) -> list[SynthSentence]:
    """Seeded sampling without replacement of one pattern family."""
    if count < 0:
        raise CorpusError("count must be non-negative")
    capacity = family_capacity(lexicon, pattern)
    if count > capacity:
        raise CorpusError(
            f"count {count} exceeds distinct combinations {capacity} "
            f"for {pattern.value}"
        )
    return _generate_family(lexicon, pattern, count, _family_rng(seed, pattern), set())


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
        if law not in applicable_laws(struct, lexicon):
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
    "generate_pattern",
    "build_corpus",
    "family_capacity",
    "corpus_to_jsonl",
    "corpus_from_jsonl",
]
