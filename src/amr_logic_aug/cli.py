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
logs go to standard error as ``LEVEL name: message`` lines (INFO only for a
``main`` call without ``-q``), and each output file gets a
``<name>.manifest.json`` sidecar (see ``write_manifest``) recording the
package version, the data file's sha256, the subcommand, its seed and
counts, and the lexicon checksum.  Exit codes: 0 success; 1 when an
``OSError`` or an exception of a class this package defines ends the run,
with one ERROR line holding its message; 2 usage error.  Any other
exception is a bug and propagates.

A process defines only the subcommand it runs (none for a missing or
misspelt one, which is a usage error), and imports only the modules that
subcommand needs: ``augment`` never loads ``corpus``,
``pairs``, ``prompt``, ``pararule`` or ``scoring``, ``check`` never loads
``corpus``, and only ``augment
--format penman`` loads ``graph``, for a line outside the Penman writer's
format.  Only a subcommand that reads a lexicon loads ``grammar`` and
``lexicon``: ``pararule``, ``loss`` and a usage error load neither.  No
process loads ``logging``.

A process starts at ``amr_logic_aug.__main__.run``, which calls
:func:`main` and then freezes the heap for a short exit.  :func:`main`
itself never freezes, so an in-process caller keeps its collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import __version__
from .files import InputError, json_string, read_json, read_lines, sha256_of, write_text

if TYPE_CHECKING:  # each subcommand imports the rest of the package itself
    from . import corpus, laws
    from .lexicon import Lexicon


def log(level: str, message: str, name: str = "amr_logic_aug") -> None:
    """Write one ``LEVEL name: message`` line to the current standard error."""
    print(f"{level} {name}: {message}", file=sys.stderr)


def _info(args: argparse.Namespace, message: str) -> None:
    """An INFO line, unless this run was given ``-q``."""
    if not args.quiet:
        log("INFO", message)


def _parse_mix(text: str) -> dict[corpus.PatternKind, float]:
    from . import corpus

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
    from . import laws

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


def default_lexicon() -> Lexicon:
    """The shipped lexicon; ``grammar`` and ``lexicon`` load on the first call."""
    from . import lexicon

    return lexicon.default_lexicon()


def _resolve_lexicon(args: argparse.Namespace) -> Lexicon:
    if args.lexicon:
        from .lexicon import load_lexicon

        return load_lexicon(args.lexicon)
    return default_lexicon()


def _sidecar(data_path: str | Path) -> Path:
    """The manifest sidecar of a data file, ``<data_path>.manifest.json``."""
    return Path(f"{data_path}.manifest.json")


def write_manifest(data_path: str | Path, payload: dict, quiet: bool) -> None:
    """Write ``<data_path>.manifest.json``: ``version``, ``data_sha256`` and
    ``payload``; say so in an INFO line unless ``quiet``."""
    manifest_path = _sidecar(data_path)
    manifest = {"version": __version__, "data_sha256": sha256_of(data_path), **payload}
    write_text(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True), "\n"))
    if not quiet:
        log("INFO", f"wrote {manifest_path}")


def cmd_synth(args: argparse.Namespace) -> int:
    from . import corpus

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
        args.quiet,
    )
    _info(args, f"synth: {len(built)} sentences -> {args.out}")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    from . import grammar, laws

    lexicon = _resolve_lexicon(args)
    if args.format == "penman":
        read, render = grammar.read_canonical_penman, grammar.penman_of_struct
    else:
        def read(line: str) -> grammar.GrammarSentence:
            return grammar.parse_sentence_struct(line, lexicon, args.grammar or grammar.CORE)

        render = grammar.realize_struct
    apply_law, law, negatives = laws.apply_law, args.law, args.negatives
    errors = (grammar.GrammarError, laws.LawError)  # graph.ParseError included
    quote = json_string
    # The row's fixed text between its input and its positive, quoted once a run.
    middle = f', "law": {quote(law.value)}, "positive": '
    skipped = 0

    def rows():
        """One fixed-key JSON line per input line: ``{"input", "law",
        "positive"[, "negatives"]}`` or ``{"input", "skipped"}``, the bytes
        of ``json.dumps(row, ensure_ascii=False)``."""
        nonlocal skipped
        for _, line in read_lines(args.in_path):
            try:
                sentence = read(line)
                if sentence is None:  # Penman outside the writer's format: only it loads graph
                    from .graph import parse_penman

                    sentence = parse_penman(line)
                outcome = apply_law(sentence, law, lexicon)
            except errors as err:
                skipped += 1
                log("WARNING", f"skipped {line!r}: {err}")
                yield f'{{"input": {quote(line)}, "skipped": {quote(str(err))}}}\n'
                continue
            if negatives:
                yield (f'{{"input": {quote(line)}{middle}{quote(render(outcome.positive))}, '
                       f'"negatives": [{quote(render(outcome.negative))}]}}\n')
            else:
                yield f'{{"input": {quote(line)}{middle}{quote(render(outcome.positive))}}}\n'

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
        args.quiet,
    )
    _info(args, f"augment: {processed} rewritten, {skipped} skipped -> {args.out}")
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    from . import corpus, pairs

    lexicon = _resolve_lexicon(args)
    provenance = {}
    if args.corpus:
        sentences = corpus.corpus_from_jsonl(args.corpus, lexicon)
        digest = sha256_of(args.corpus)
        sidecar = _sidecar(args.corpus)
        recorded = read_json(sidecar) if sidecar.is_file() else {}
        if not isinstance(recorded, dict):
            raise InputError(f"corpus sidecar {sidecar} is not a JSON object")
        # A sidecar vouches for its seed only while it hashes this corpus.
        vouches = recorded.get("data_sha256") == digest
        if recorded and not vouches:
            log("WARNING", f"corpus sidecar {sidecar} hashes another file, so corpus_seed is null")
        provenance = {"corpus_path": args.corpus, "corpus_sha256": digest,
                      "corpus_seed": recorded.get("seed") if vouches else None}
    else:
        count = corpus.DEFAULT_TARGET if args.count is None else args.count
        sentences = corpus.build_corpus(lexicon, count, None, args.seed)
    if not sentences:  # the pairs files would hold no record for check to read
        source = args.corpus or "the --count 0 corpus"
        raise InputError(f"no sentences in {source}, so no pairs to write")
    records = pairs.build_pairs(sentences, lexicon, args.ratio, args.seed)
    train, validation = pairs.split(records, args.val_frac, args.seed)
    # Both data files before either sidecar: a run killed between them
    # leaves a sidecar that no longer hashes its data file.
    parts = ((args.out_train, train), (args.out_val, validation))
    for path, part in parts:
        pairs.emit_jsonl(part, path)
    for path, part in parts:
        manifest = pairs.build_manifest(
            part, args.seed, args.ratio, args.val_frac, lexicon, len(sentences)
        )
        write_manifest(path, {**manifest, **provenance}, args.quiet)
    _info(args, f"pairs: {len(train)} train, {len(validation)} validation records "
                f"(ratio {args.ratio}) -> {args.out_train}, {args.out_val}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import pairs

    lexicon = _resolve_lexicon(args)
    records = pairs.load_jsonl(args.in_path)
    if not records:
        raise InputError(f"no records in {args.in_path}")
    problems = pairs.verify_records(records, lexicon)
    for index, problem in problems:
        print(f"record {index}: {problem}")
    print(f"checked {len(records)} records: {len(problems)} violations")
    return 1 if problems else 0


def cmd_prompt_aug(args: argparse.Namespace) -> int:
    from . import laws, prompt

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
        args.quiet,
    )
    _info(args, f"prompt-aug: {json.dumps(stats)} -> {args.out}")
    return 0


def cmd_pararule(args: argparse.Namespace) -> int:
    from . import pararule

    def unmatched(index: int, rule: str) -> None:
        log("WARNING", f"rule {index} matches no template, passed through: {rule!r}",
            "amr_logic_aug.pararule")

    count = pararule.alter_pararule_file(args.in_path, args.out, args.depth, unmatched)
    write_manifest(
        args.out, {"command": "pararule", "depth": args.depth, "records": count}, args.quiet
    )
    _info(args, f"pararule: {count} records altered at depth {args.depth} -> {args.out}")
    return 0


def cmd_loss(args: argparse.Namespace) -> int:
    from . import scoring

    report = scoring.loss_report(scoring.load_triplets_tsv(args.vectors), args.score)
    for row in report:
        print(f"{row['pair_id']}\t{row['h_pos']!r}\t{row['h_neg']!r}\t{row['loss']!r}")
    total = math.fsum(row["loss"] for row in report)
    print(f"TOTAL\t{len(report)}\t{args.score}\t{total!r}")
    return 0


def _define_synth(synth: argparse.ArgumentParser) -> None:
    from . import corpus

    synth.add_argument("--count", type=int, default=corpus.DEFAULT_TARGET)
    synth.add_argument("--mix", type=_parse_mix, default=None,
                       help="e.g. atomic-dn=0.25,commutative-pair=0.75")
    synth.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    synth.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    synth.add_argument("--out", required=True)
    _add_lexicon_flag(synth)


def _define_augment(augment: argparse.ArgumentParser) -> None:
    from . import grammar, laws

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


def _define_pairs(pairs_cmd: argparse.ArgumentParser) -> None:
    from . import corpus, pairs

    pairs_cmd.add_argument("--ratio", default="1:1", help="positives:negatives, e.g. 1:3")
    pairs_cmd.add_argument("--val-frac", type=float, default=pairs.DEFAULT_VAL_FRACTION)
    pairs_cmd.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    pairs_cmd.add_argument("--corpus", help="corpus JSONL (default: regenerate)")
    pairs_cmd.add_argument("--count", type=int, help="corpus size when regenerating "
                           f"(default: {corpus.DEFAULT_TARGET})")
    pairs_cmd.add_argument("--out-train", required=True)
    pairs_cmd.add_argument("--out-val", required=True)
    _add_lexicon_flag(pairs_cmd)


def _define_check(check: argparse.ArgumentParser) -> None:
    check.add_argument("--in", dest="in_path", required=True)
    _add_lexicon_flag(check)


def _define_prompt_aug(prompt_aug: argparse.ArgumentParser) -> None:
    from . import prompt

    prompt_aug.add_argument("--format", choices=(prompt.RECLOR, prompt.LOGIQA),
                            default=prompt.RECLOR)
    prompt_aug.add_argument("--laws", type=_parse_laws,
                            default=list(prompt.DEFAULT_PROMPT_LAWS))
    prompt_aug.add_argument("--in", dest="in_path", required=True)
    prompt_aug.add_argument("--out", required=True)
    prompt_aug.add_argument("--trace", default=None, help="sidecar trace JSONL")
    _add_lexicon_flag(prompt_aug)


def _define_pararule(pararule_cmd: argparse.ArgumentParser) -> None:
    pararule_cmd.add_argument("--depth", type=int, choices=(1, 2), required=True)
    pararule_cmd.add_argument("--in", dest="in_path", required=True)
    pararule_cmd.add_argument("--out", required=True)


def _define_loss(loss: argparse.ArgumentParser) -> None:
    from . import scoring

    loss.add_argument("--vectors", required=True, help="TSV: pair_id, role, floats")
    loss.add_argument("--score", choices=(scoring.COSINE, scoring.DOT),
                      default=scoring.COSINE)


# Each subcommand's help line, the function that defines its arguments and
# the one that runs it.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None],
                           Callable[[argparse.Namespace], int]]] = {
    "synth": ("generate the synthetic corpus", _define_synth, cmd_synth),
    "augment": ("apply one law per input line", _define_augment, cmd_augment),
    "pairs": ("build contrastive pairs + split", _define_pairs, cmd_pairs),
    "check": ("oracle-replay a pairs JSONL file", _define_check, cmd_check),
    "prompt-aug": ("augment MCQ records", _define_prompt_aug, cmd_prompt_aug),
    "pararule": ("alter deductive rule strings", _define_pararule, cmd_pararule),
    "loss": ("contrastive loss over vector file", _define_loss, cmd_loss),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed with its help line,
    but only ``command``'s arguments are defined (and its modules
    imported); a missing or unknown ``command`` defines none."""
    parser = argparse.ArgumentParser(
        prog="amr-logic-aug",
        description="Logic-driven data augmentation over AMR graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only warnings and errors on stderr"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, define, _) in _COMMANDS.items():
        subparser = commands.add_parser(name, help=summary)
        if name == command:
            define(subparser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No top-level option takes a value, so the first word that is not an
    # option names the subcommand.
    parser = build_parser(next((word for word in argv if not word.startswith("-")), None))
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
    # A subcommand makes no reference cycles that grow with its input, so
    # the cyclic collector would only rescan live objects; the caller gets
    # its own setting back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command][2](args)
    except Exception as err:
        # An input or environment fault: a class of this package, or OSError.
        # Any other exception is a bug, and the caller sees it raised.
        if isinstance(err, OSError) or type(err).__module__.startswith(f"{__package__}."):
            log("ERROR", str(err))
            return 1
        raise
    finally:
        if collecting:
            gc.enable()
