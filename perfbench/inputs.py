"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes files; the program under
test only ever sees those files.  The same seed gives byte-identical files.

The package's own generators make the ``check`` and ``penman`` inputs
(``build_corpus``, ``build_pairs``, ``split``, ``serialize``), exactly as
the ``synth`` and ``pairs`` subcommands would, so workload seed ``n`` maps to
CLI seed ``corpus.DEFAULT_SEED + n``: seed 0 is the default seed, whose
outputs have pinned digests.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reclor_words as words

# The build and penman workloads run at the CLI's default corpus size,
# ``corpus.DEFAULT_TARGET``.  check replays the 1:3 train split of a smaller dataset so that one CLI
# call takes a few seconds and a run holds more than one call.
CHECK_CORPUS_SIZE = 4_000
CHECK_RATIO = "1:3"
CHECK_FLIP_EVERY = 100
PROMPT_RECORDS = 1_000

# Law applied to each corpus family by augment --format penman.
PENMAN_FAMILY_LAW = {
    "atomic-dn": "double-negation",
    "commutative-pair": "commutative",
    "conditional-contra": "contraposition",
    "implication-pair": "implication",
}


def cli_seed(seed: int) -> int:
    from amr_logic_aug import corpus

    return corpus.DEFAULT_SEED + seed


def make_check_file(seed: int, path: Path) -> list[int]:
    """A 1:3 train split with seeded planted label flips.

    Returns the sorted line indexes of the flipped records: exactly the
    records ``check`` must flag.  A flipped record gets its ``pair_id``
    recomputed, so ``load_jsonl`` accepts it and only the oracle replay can
    tell it is wrong.
    """
    from amr_logic_aug import corpus, pairs
    from amr_logic_aug.lexicon import default_lexicon

    lexicon = default_lexicon()
    sentences = corpus.build_corpus(lexicon, CHECK_CORPUS_SIZE, None, cli_seed(seed))
    records = pairs.build_pairs(sentences, lexicon, CHECK_RATIO, cli_seed(seed))
    train, _ = pairs.split(records, pairs.DEFAULT_VAL_FRACTION, cli_seed(seed))
    rng = random.Random(f"perfbench-check-flips:{seed}")
    planted = sorted(rng.sample(range(len(train)), len(train) // CHECK_FLIP_EVERY))
    for index in planted:
        record = train[index]
        train[index] = pairs.PairRecord(
            record.sentence1, record.sentence2, 1 - record.label, record.law
        )
    pairs.emit_jsonl(train, path)
    return planted


def make_penman_files(seed: int, directory: Path) -> dict[str, Path]:
    """The default-size corpus as Penman lines, one file per pattern family."""
    from amr_logic_aug import corpus
    from amr_logic_aug.graph import serialize
    from amr_logic_aug.lexicon import default_lexicon

    built = corpus.build_corpus(default_lexicon(), corpus.DEFAULT_TARGET, None, cli_seed(seed))
    lines: dict[str, list[str]] = {family: [] for family in PENMAN_FAMILY_LAW}
    for sentence in built:
        lines[sentence.pattern.value].append(serialize(sentence.graph) + "\n")
    paths = {}
    for family, family_lines in lines.items():
        paths[family] = directory / f"{family}.penman"
        paths[family].write_text("".join(family_lines), encoding="utf-8")
    return paths


# Sentence kinds and their weights.  Free text dominates, as in real
# reading-comprehension passages, so about two thirds of sentences skip.
_KINDS = ((words.CORE, 2), (words.EXTENDED, 2), (words.FREE, 6))


def _sentence(rng: random.Random) -> str:
    templates = rng.choices([kind for kind, _ in _KINDS], [w for _, w in _KINDS])[0]
    first, second = rng.sample(words.NAMES, 2)
    p, q = rng.sample(words.ADJECTIVES, 2)
    x, y = rng.sample(words.ABILITIES, 2)
    return rng.choice(templates).format(
        a=first, b=second, p=p, q=q, x=x, y=y,
        h=rng.choice(words.POSSESSIONS),
        o=rng.choice(words.ORGANIZATIONS),
        t=rng.choice(words.TOPICS),
        g=rng.choice(words.GROUPS),
        n=rng.choice(words.NOUNS),
        c=rng.choice(words.CITIES),
        d=rng.randrange(2, 90),
        yr=rng.randrange(1990, 2024),
    )


def make_reclor_file(seed: int, path: Path) -> list[dict]:
    """ReClor-format records: 3-6 context sentences and four options each."""
    rng = random.Random(f"perfbench-reclor:{seed}")
    records = [
        {
            "context": " ".join(_sentence(rng) for _ in range(rng.randint(3, 6))),
            "question": rng.choice(words.QUESTIONS),
            "answers": [_sentence(rng) for _ in range(4)],
            "label": rng.randrange(4),
            "id_string": f"perfbench-{seed}-{index}",
        }
        for index in range(PROMPT_RECORDS)
    ]
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return records
