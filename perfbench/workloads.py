"""The four workloads: their inputs, CLI calls, and output checks.

Each workload class prepares its inputs from the seed when it is built,
outside the timed region, and has ``name``, ``items`` (items per
iteration), ``calls()`` and ``verify()``.  One iteration is the list of CLI
calls, each a fresh process whose working directory is the iteration's
output directory, where call ``k``'s standard output lands in
``stdout-k.txt``.  ``verify`` checks one iteration's outputs and returns
how many items failed together with the reasons.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Workload seed whose outputs are pinned by sha256 in digests.json.
PINNED_SEED = 0
REPLAY_SAMPLE = 400


@dataclass(frozen=True)
class Call:
    args: tuple[str, ...]
    expect_exit: int = 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned(workload: str, seed: int) -> dict[str, str]:
    if seed != PINNED_SEED:
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


def _digest_problems(outdir: Path, pinned: dict[str, str]) -> list[str]:
    problems = []
    for name, digest in pinned.items():
        actual = sha256_file(outdir / name)
        if actual != digest:
            problems.append(f"{name}: sha256 {actual[:16]}... is not the pinned {digest[:16]}...")
    return problems


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Build:
    """``synth``, then ``pairs --ratio 1:3``, both at the CLI defaults."""

    name = "build"

    def __init__(self, seed: int, inputs_dir: Path) -> None:
        from amr_logic_aug import corpus

        self.seed = seed
        self.cli_seed = str(inputs.cli_seed(seed))
        self.items = corpus.DEFAULT_TARGET
        self.pinned = _pinned(self.name, seed)

    def calls(self) -> list[Call]:
        return [
            Call(("synth", "--seed", self.cli_seed, "--out", "corpus.jsonl")),
            Call((
                "pairs", "--ratio", "1:3", "--seed", self.cli_seed,
                "--out-train", "train.jsonl", "--out-val", "val.jsonl",
            )),
        ]

    def verify(self, outdir: Path) -> tuple[int, list[str]]:
        from amr_logic_aug import grammar, logic
        from amr_logic_aug.lexicon import default_lexicon

        problems = _digest_problems(outdir, self.pinned)
        texts = [row["text"] for row in _read_jsonl(outdir / "corpus.jsonl")]
        if len(texts) != self.items:
            problems.append(f"corpus has {len(texts)} sentences, expected {self.items}")
        records = _read_jsonl(outdir / "train.jsonl") + _read_jsonl(outdir / "val.jsonl")
        if len(records) != 4 * self.items:
            problems.append(f"pairs has {len(records)} records, expected {4 * self.items}")
        labels = Counter((row["sentence1"], row["label"]) for row in records)
        for text in texts:
            if labels[(text, 1)] != 1 or labels[(text, 0)] != 3:
                problems.append(f"{text!r} has not exactly 1 positive and 3 negatives")
                break
        lexicon = default_lexicon()

        def formula(text: str):
            return logic.formula_of_struct(grammar.parse_sentence_struct(text, lexicon), lexicon)

        rng = random.Random(f"perfbench-build-replay:{self.seed}")
        for row in rng.sample(records, min(REPLAY_SAMPLE, len(records))):
            if logic.equivalent(formula(row["sentence1"]), formula(row["sentence2"])) != bool(row["label"]):
                problems.append(f"oracle replay contradicts label of {row['pair_id']}")
        return (self.items if problems else 0), problems


class Check:
    """``check`` on a 1:3 train split with planted label flips."""

    name = "check"

    def __init__(self, seed: int, inputs_dir: Path) -> None:
        self.path = inputs_dir / "check.jsonl"
        self.planted = set(inputs.make_check_file(seed, self.path))
        with self.path.open(encoding="utf-8") as handle:
            self.items = sum(1 for _ in handle)

    def calls(self) -> list[Call]:
        # Planted faults make a correct check exit 1.
        return [Call(("check", "--in", str(self.path)), expect_exit=1)]

    def verify(self, outdir: Path) -> tuple[int, list[str]]:
        lines = (outdir / "stdout-0.txt").read_text(encoding="utf-8").splitlines()
        summary = f"checked {self.items} records: {len(lines) - 1} violations"
        if not lines or lines[-1] != summary:
            return self.items, [f"summary line {lines[-1:]!r}, expected {summary!r}"]
        flagged = {int(line.split(":", 1)[0].removeprefix("record ")) for line in lines[:-1]}
        wrong = flagged ^ self.planted
        problems = [f"record {index}: verdict differs from the planted fault set" for index in sorted(wrong)]
        return len(wrong), problems


class Prompt:
    """``prompt-aug`` with the default laws on a generated ReClor file."""

    name = "prompt"

    def __init__(self, seed: int, inputs_dir: Path) -> None:
        self.path = inputs_dir / "reclor.json"
        self.records = inputs.make_reclor_file(seed, self.path)
        self.items = len(self.records)
        self.pinned = _pinned(self.name, seed)

    def calls(self) -> list[Call]:
        return [Call(("prompt-aug", "--in", str(self.path), "--out", "augmented.json"))]

    def verify(self, outdir: Path) -> tuple[int, list[str]]:
        from amr_logic_aug.lexicon import default_lexicon

        problems = _digest_problems(outdir, self.pinned)
        if problems:
            return self.items, problems
        augmented = json.loads((outdir / "augmented.json").read_text(encoding="utf-8"))
        if len(augmented) != len(self.records):
            return self.items, [f"{len(augmented)} records out, {len(self.records)} in"]
        lexicon = default_lexicon()
        problems = []
        for source, result in zip(self.records, augmented):
            problem = prompt_record_problem(source, result, lexicon)
            if problem:
                problems.append(f"{source['id_string']}: {problem}")
        return len(problems), problems


def prompt_record_problem(source: dict, result: dict, lexicon) -> str:
    """Why an augmented record breaks the prompt-aug contract, or ''.

    Every appended sentence must re-parse under the extended grammar and be
    equivalent to a source sentence, and every source sentence that some
    default law applies to must have an equivalent rewrite in the option:
    an output with no rewrites at all fails.
    """
    from amr_logic_aug import grammar, logic
    from amr_logic_aug.laws import applicable_laws
    from amr_logic_aug.prompt import DEFAULT_PROMPT_LAWS, split_sentences

    parsed: dict = {}

    def parse(text: str):
        """(formula, whether a default law applies), or None outside the extended grammar."""
        # Context sentences recur in all four options; parse each once.
        if text not in parsed:
            try:
                struct = grammar.parse_sentence_struct(text, lexicon, grammar.EXTENDED)
            except grammar.GrammarError:
                parsed[text] = None
            else:
                rewritable = applicable_laws(grammar.build_graph(struct), lexicon) & DEFAULT_PROMPT_LAWS
                parsed[text] = (logic.formula_of_struct(struct, lexicon), bool(rewritable))
        return parsed[text]

    for key in ("context", "question", "label", "id_string"):
        if result.get(key) != source[key]:
            return f"{key} changed"
    if len(result.get("answers", ())) != len(source["answers"]):
        return "answer count changed"
    context = split_sentences(source["context"])
    for original, answer in zip(source["answers"], result["answers"]):
        if not answer.startswith(original):
            return "an option does not start with its original text"
        own = split_sentences(original)
        parses = [parse(text) for text in context + own]
        formulas = [entry[0] for entry in parses if entry is not None]
        appended = split_sentences(answer[len(original):])
        for sentence in appended:
            if parse(sentence) is None:
                return f"appended {sentence!r} does not re-parse under the extended grammar"
            if not any(logic.equivalent(parse(sentence)[0], other) for other in formulas):
                return f"appended {sentence!r} is equivalent to no source sentence"
        present = [(text, parse(text)) for text in own + appended]
        for text, entry in zip(context + own, parses):
            if entry is not None and entry[1] and not any(
                other != text and found is not None and logic.equivalent(found[0], entry[0])
                for other, found in present
            ):
                return f"{text!r} has an applicable default law but no rewrite in the option"
    return ""


class Penman:
    """``augment --format penman --negatives``, one call per corpus family."""

    name = "penman"

    def __init__(self, seed: int, inputs_dir: Path) -> None:
        self.seed = seed
        self.paths = inputs.make_penman_files(seed, inputs_dir)
        self.lines = {
            family: path.read_text(encoding="utf-8").splitlines()
            for family, path in self.paths.items()
        }
        self.items = sum(len(lines) for lines in self.lines.values())
        self.pinned = _pinned(self.name, seed)

    def calls(self) -> list[Call]:
        return [
            Call((
                "augment", "--format", "penman", "--negatives", "--law", law,
                "--in", str(self.paths[family]), "--out", f"{family}.jsonl",
            ))
            for family, law in inputs.PENMAN_FAMILY_LAW.items()
        ]

    def verify(self, outdir: Path) -> tuple[int, list[str]]:
        from amr_logic_aug import logic
        from amr_logic_aug.graph import parse_penman
        from amr_logic_aug.lexicon import default_lexicon

        lexicon = default_lexicon()

        def formula(text: str):
            return logic.to_formula(parse_penman(text), lexicon)

        failed = 0
        problems = []
        rng = random.Random(f"perfbench-penman-replay:{self.seed}")
        for family, law in inputs.PENMAN_FAMILY_LAW.items():
            name = f"{family}.jsonl"
            family_problems = _digest_problems(
                outdir, {name: self.pinned[name]} if name in self.pinned else {}
            )
            rows = _read_jsonl(outdir / name)
            lines = self.lines[family]
            if [row.get("input") for row in rows] != lines:
                family_problems.append(f"{name}: output rows do not match the input lines")
            elif any(row.get("law") != law or "skipped" in row for row in rows):
                family_problems.append(f"{name}: a line was skipped or has the wrong law")
            else:
                for row in rng.sample(rows, min(REPLAY_SAMPLE // 4, len(rows))):
                    source = formula(row["input"])
                    if not logic.equivalent(source, formula(row["positive"])) or any(
                        logic.equivalent(source, formula(negative)) for negative in row["negatives"]
                    ):
                        family_problems.append(f"{name}: oracle replay fails on {row['input']!r}")
            if family_problems:
                failed += len(lines)
                problems.extend(family_problems)
        return failed, problems


WORKLOADS = {workload.name: workload for workload in (Build, Check, Prompt, Penman)}
