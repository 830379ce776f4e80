#!/usr/bin/env python3
"""Emit a small seeded evaluation set of exactly 1,312 contrastive records.

Builds a 656-sentence corpus (equal shares of the four pattern families)
and pairs every sentence with one oracle-verified positive and one
verified negative, giving 656 + 656 = 1,312 labeled records in a single
JSONL file.  The sampling is seeded and reproducible but is one concrete
recipe among many that reach this size.

    python3 scripts/make_preliminary_test.py --out preliminary_test.jsonl
"""

from __future__ import annotations

import argparse

from amr_logic_aug import corpus, pairs
from amr_logic_aug.cli import log, write_manifest
from amr_logic_aug.lexicon import default_lexicon, load_lexicon

SENTENCE_COUNT = 656
RECORD_COUNT = 1_312


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSONL path")
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED,
                        help="seed for sampling and negatives (default %(default)s)")
    parser.add_argument("--lexicon", metavar="PATH", help="TSV lexicon file")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logs")
    args = parser.parse_args(argv)

    lexicon = load_lexicon(args.lexicon) if args.lexicon else default_lexicon()
    sentences = corpus.build_corpus(lexicon, SENTENCE_COUNT, seed=args.seed)
    records = pairs.build_pairs(sentences, lexicon, "1:1", args.seed)
    if len(records) != RECORD_COUNT:
        raise SystemExit(f"expected {RECORD_COUNT} records, got {len(records)}")

    pairs.emit_jsonl(records, args.out)
    manifest = pairs.build_manifest(records, args.seed, "1:1", None, lexicon, len(sentences))
    write_manifest(args.out, manifest, args.quiet)
    if not args.quiet:
        log("INFO", f"preliminary test set: {len(records)} records -> {args.out}",
            "make_preliminary_test")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
