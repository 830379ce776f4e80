"""Command-line interface for the full augmentation pipeline.

Subcommands:

* ``synth``       generate the controlled synthetic corpus
* ``augment``     apply one equivalence law per input line (text or Penman)
* ``pairs``       build contrastive training pairs with a train/val split
* ``check``       oracle-replay a pairs JSONL file
* ``prompt-aug``  augment multiple-choice reading-comprehension records
* ``pararule``    alter rule strings in deductive-reasoning records
* ``loss``        evaluate the contrastive loss over supplied vectors

Every subcommand is deterministic given its flags.  Data goes to files,
logs go to standard error, and each output file gets a
``<name>.manifest.json`` sidecar (see ``write_manifest``) recording the
package version, the data file's sha256, the subcommand, its seed and
counts, and the lexicon checksum.  Exit codes: 0 success, 1 validation or
oracle failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, corpus, grammar, laws, pairs, pararule, prompt, scoring
from .files import json_string, read_json, read_lines, sha256_of, write_text
from .graph import ParseError, parse_penman
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon

logger = logging.getLogger("amr_logic_aug")

_DOMAIN_ERRORS = (
    LexiconError,
    ParseError,
    grammar.GrammarError,
    laws.LawError,
    laws.OracleViolation,
    corpus.CorpusError,
    pairs.DatasetError,
    prompt.PromptError,
    pararule.PararuleError,
    scoring.ScoreError,
    OSError,
)


def _parse_mix(text: str) -> dict[corpus.PatternKind, float]:
    mix: dict[corpus.PatternKind, float] = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        try:
            mix[corpus.PatternKind(name.strip())] = float(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(
                f"bad mix entry {part!r} (want e.g. atomic-dn=0.25): {err}"
            ) from err
    return mix


def _parse_laws(text: str) -> list[laws.LawKind]:
    requested = []
    for name in text.split(","):
        try:
            requested.append(laws.LawKind(name.strip()))
        except ValueError as err:
            raise argparse.ArgumentTypeError(
                f"unknown law {name.strip()!r} "
                f"(choose from {', '.join(k.value for k in laws.LawKind)})"
            ) from err
    return requested


def _add_lexicon_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", metavar="PATH",
                        help="TSV lexicon file (default: the shipped lexicon)")


def _resolve_lexicon(args: argparse.Namespace) -> Lexicon:
    return load_lexicon(args.lexicon) if args.lexicon else default_lexicon()


def _sidecar(data_path: str | Path) -> Path:
    """The manifest sidecar of a data file, ``<data_path>.manifest.json``."""
    return Path(f"{data_path}.manifest.json")


def write_manifest(data_path: str | Path, payload: dict) -> None:
    """Write ``<data_path>.manifest.json``: ``version``, ``data_sha256`` and ``payload``."""
    manifest_path = _sidecar(data_path)
    manifest = {"version": __version__, "data_sha256": sha256_of(data_path), **payload}
    write_text(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True), "\n"))
    logger.info("wrote %s", manifest_path)


def cmd_synth(args: argparse.Namespace) -> int:
    lexicon = _resolve_lexicon(args)
    built = corpus.build_corpus(lexicon, args.count, args.mix, args.seed)
    if args.format == "jsonl":
        corpus.corpus_to_jsonl(built, args.out)
    else:
        write_text(args.out, (f"{sentence.text}\n" for sentence in built))
    by_pattern: dict[str, int] = {}
    for sentence in built:
        by_pattern[sentence.pattern.value] = by_pattern.get(sentence.pattern.value, 0) + 1
    write_manifest(
        args.out,
        {
            "command": "synth",
            "seed": args.seed,
            "count": len(built),
            "by_pattern": by_pattern,
            "mix": {kind.value: frac for kind, frac in (args.mix or corpus.DEFAULT_MIX).items()},
            "lexicon_checksum": lexicon.checksum,
        },
    )
    logger.info("synth: %d sentences -> %s", len(built), args.out)
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    lexicon = _resolve_lexicon(args)
    render = grammar.realize_struct if args.format == "text" else grammar.penman_of_struct
    quote = json_string
    law = quote(args.law.value)
    skipped = 0

    def rows():
        """One fixed-key JSON line per input line: ``{"input", "law",
        "positive"[, "negatives"]}`` or ``{"input", "skipped"}``, the bytes
        of ``json.dumps(row, ensure_ascii=False)``."""
        nonlocal skipped
        for _, line in read_lines(args.in_path, grammar.GrammarError):
            try:
                if args.format == "penman":
                    sentence = grammar.read_canonical_penman(line) or parse_penman(line)
                else:
                    sentence = grammar.parse_sentence_struct(
                        line, lexicon, args.grammar or grammar.CORE
                    )
                outcome = laws.apply_law(sentence, args.law, lexicon)
            except (ParseError, grammar.GrammarError, laws.LawError) as err:
                skipped += 1
                logger.warning("skipped %r: %s", line, err)
                yield f'{{"input": {quote(line)}, "skipped": {quote(str(err))}}}\n'
                continue
            positive = quote(render(outcome.positive))
            row = f'{{"input": {quote(line)}, "law": {law}, "positive": {positive}'
            if args.negatives:
                yield f'{row}, "negatives": [{quote(render(outcome.negative))}]}}\n'
            else:
                yield f"{row}}}\n"

    processed = write_text(args.out, rows()) - skipped
    write_manifest(
        args.out,
        {
            "command": "augment",
            "law": args.law.value,
            "format": args.format,
            "processed": processed,
            "skipped": skipped,
            "lexicon_checksum": lexicon.checksum,
        },
    )
    logger.info("augment: %d rewritten, %d skipped -> %s", processed, skipped, args.out)
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    lexicon = _resolve_lexicon(args)
    provenance = {}
    if args.corpus:
        sentences = corpus.corpus_from_jsonl(args.corpus, lexicon)
        digest = sha256_of(args.corpus)
        sidecar = _sidecar(args.corpus)
        recorded = read_json(sidecar, pairs.DatasetError) if sidecar.is_file() else {}
        if not isinstance(recorded, dict):
            raise pairs.DatasetError(f"corpus sidecar {sidecar} is not a JSON object")
        # A sidecar vouches for its seed only while it hashes this corpus.
        vouches = recorded.get("data_sha256") == digest
        if recorded and not vouches:
            logger.warning("corpus sidecar %s hashes another file, so corpus_seed is null", sidecar)
        provenance = {"corpus_path": args.corpus, "corpus_sha256": digest,
                      "corpus_seed": recorded.get("seed") if vouches else None}
    else:
        count = corpus.DEFAULT_TARGET if args.count is None else args.count
        sentences = corpus.build_corpus(lexicon, count, None, args.seed)
    if not sentences:  # the pairs files would hold no record for check to read
        source = args.corpus or "the --count 0 corpus"
        raise pairs.DatasetError(f"no sentences in {source}, so no pairs to write")
    records = pairs.build_pairs(sentences, lexicon, args.ratio, args.seed)
    train, validation = pairs.split(records, args.val_frac, args.seed)
    for path, part in ((args.out_train, train), (args.out_val, validation)):
        pairs.emit_jsonl(part, path)
        manifest = pairs.build_manifest(
            part, args.seed, args.ratio, args.val_frac, lexicon, len(sentences)
        )
        write_manifest(path, {**manifest, **provenance})
    logger.info(
        "pairs: %d train, %d validation records (ratio %s) -> %s, %s",
        len(train), len(validation), args.ratio, args.out_train, args.out_val,
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    lexicon = _resolve_lexicon(args)
    records = pairs.load_jsonl(args.in_path)
    if not records:
        raise pairs.DatasetError(f"no records in {args.in_path}")
    problems = pairs.verify_records(records, lexicon)
    for index, problem in problems:
        print(f"record {index}: {problem}")
    print(f"checked {len(records)} records: {len(problems)} violations")
    return 1 if problems else 0


def cmd_prompt_aug(args: argparse.Namespace) -> int:
    lexicon = _resolve_lexicon(args)
    stats = prompt.augment_file(
        args.in_path, args.out, lexicon, args.format, args.laws, args.trace
    )
    write_manifest(
        args.out,
        {
            "command": "prompt-aug",
            "format": args.format,
            "laws": [law.value for law in laws.LawKind if law in args.laws],
            "lexicon_checksum": lexicon.checksum,
            **stats,
        },
    )
    logger.info("prompt-aug: %s -> %s", json.dumps(stats), args.out)
    return 0


def cmd_pararule(args: argparse.Namespace) -> int:
    count = pararule.alter_pararule_file(args.in_path, args.out, args.depth)
    write_manifest(
        args.out, {"command": "pararule", "depth": args.depth, "records": count}
    )
    logger.info("pararule: %d records altered at depth %d -> %s", count, args.depth, args.out)
    return 0


def cmd_loss(args: argparse.Namespace) -> int:
    report = scoring.loss_report(scoring.load_triplets_tsv(args.vectors), args.score)
    for row in report:
        print(f"{row['pair_id']}\t{row['h_pos']!r}\t{row['h_neg']!r}\t{row['loss']!r}")
    total = math.fsum(row["loss"] for row in report)
    print(f"TOTAL\t{len(report)}\t{args.score}\t{total!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amr-logic-aug",
        description="Logic-driven data augmentation over AMR graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only warnings and errors on stderr"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate the synthetic corpus")
    synth.add_argument("--count", type=int, default=corpus.DEFAULT_TARGET)
    synth.add_argument("--mix", type=_parse_mix, default=None,
                       help="e.g. atomic-dn=0.25,commutative-pair=0.75")
    synth.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    synth.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    synth.add_argument("--out", required=True)
    _add_lexicon_flag(synth)
    synth.set_defaults(func=cmd_synth)

    augment = commands.add_parser("augment", help="apply one law per input line")
    augment.add_argument("--law", type=laws.LawKind, required=True,
                         choices=list(laws.LawKind),
                         metavar=f"{{{','.join(k.value for k in laws.LawKind)}}}")
    augment.add_argument("--in", dest="in_path", required=True)
    augment.add_argument("--out", required=True)
    augment.add_argument("--format", choices=("text", "penman"), default="text")
    augment.add_argument("--grammar", choices=(grammar.CORE, grammar.EXTENDED),
                         help=f"text input only (default: {grammar.CORE})")
    augment.add_argument("--negatives", action="store_true",
                         help="also emit oracle-checked non-equivalent variants")
    _add_lexicon_flag(augment)
    augment.set_defaults(func=cmd_augment)

    pairs_cmd = commands.add_parser("pairs", help="build contrastive pairs + split")
    pairs_cmd.add_argument("--ratio", default="1:1", help="positives:negatives, e.g. 1:3")
    pairs_cmd.add_argument("--val-frac", type=float, default=pairs.DEFAULT_VAL_FRACTION)
    pairs_cmd.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    pairs_cmd.add_argument("--corpus", help="corpus JSONL (default: regenerate)")
    pairs_cmd.add_argument("--count", type=int, help="corpus size when regenerating "
                           f"(default: {corpus.DEFAULT_TARGET})")
    pairs_cmd.add_argument("--out-train", required=True)
    pairs_cmd.add_argument("--out-val", required=True)
    _add_lexicon_flag(pairs_cmd)
    pairs_cmd.set_defaults(func=cmd_pairs)

    check = commands.add_parser("check", help="oracle-replay a pairs JSONL file")
    check.add_argument("--in", dest="in_path", required=True)
    _add_lexicon_flag(check)
    check.set_defaults(func=cmd_check)

    prompt_aug = commands.add_parser("prompt-aug", help="augment MCQ records")
    prompt_aug.add_argument("--format", choices=(prompt.RECLOR, prompt.LOGIQA),
                            default=prompt.RECLOR)
    prompt_aug.add_argument("--laws", type=_parse_laws,
                            default=list(prompt.DEFAULT_PROMPT_LAWS))
    prompt_aug.add_argument("--in", dest="in_path", required=True)
    prompt_aug.add_argument("--out", required=True)
    prompt_aug.add_argument("--trace", default=None, help="sidecar trace JSONL")
    _add_lexicon_flag(prompt_aug)
    prompt_aug.set_defaults(func=cmd_prompt_aug)

    pararule_cmd = commands.add_parser("pararule", help="alter deductive rule strings")
    pararule_cmd.add_argument("--depth", type=int, choices=(1, 2), required=True)
    pararule_cmd.add_argument("--in", dest="in_path", required=True)
    pararule_cmd.add_argument("--out", required=True)
    pararule_cmd.set_defaults(func=cmd_pararule)

    loss = commands.add_parser("loss", help="contrastive loss over vector file")
    loss.add_argument("--vectors", required=True, help="TSV: pair_id, role, floats")
    loss.add_argument("--score", choices=(scoring.COSINE, scoring.DOT),
                      default=scoring.COSINE)
    loss.set_defaults(func=cmd_loss)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "augment" and args.format == "penman" and args.grammar:
        parser.error("augment: --grammar applies to text input only, not --format penman")
    if args.command == "pairs" and args.corpus and args.count is not None:
        parser.error("pairs: --count applies to a regenerated corpus, not --corpus")
    # The files a run writes (each output, its sidecar, the trace) resolve to distinct paths.
    files = [(f"--{key.replace('_', '-')}", path) for key, path in vars(args).items()
             if key in ("out", "out_train", "out_val", "trace") and path]
    files += [(f"the {flag} sidecar", _sidecar(path))
              for flag, path in files if flag != "--trace"]
    written: dict[Path, str] = {}
    for label, path in files:
        other = written.setdefault(Path(path).resolve(), label)
        if other != label:
            parser.error(f"{args.command}: {other} and {label} name the same file")
    if args.command == "pairs" and args.corpus:
        # The corpus and the sidecar that vouches for its seed are read, never replaced.
        for label, path in (("file", args.corpus), ("sidecar", _sidecar(args.corpus))):
            writer = written.get(Path(path).resolve())
            if writer:
                parser.error(f"pairs: {writer} names the --corpus {label}, which it would replace")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # A subcommand makes no reference cycles that grow with its input, so
    # the cyclic collector would only rescan live objects; the caller gets
    # its own setting back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as err:
        logger.error("%s", err)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
