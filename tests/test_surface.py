"""The package surface that outside code depends on.

``perfbench/tracer.py`` wraps functions by ``(layer, name)``; a name it can
no longer find breaks every traced benchmark run.  ``perfbench/inputs.py``
writes every workload's input through the package; an input it can no
longer make breaks every benchmark run.  Both are loaded by path, as the
benchmark runs them, and left unchanged.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amr_logic_aug
from amr_logic_aug import corpus, pairs
from amr_logic_aug.corpus import PatternKind, SynthSentence
from amr_logic_aug.grammar import (
    Clause, GrammarError, GrammarSentence, Shape, penman_of_struct, read_canonical_penman,
)
from amr_logic_aug.graph import Constant
from amr_logic_aug.laws import LawKind, RewriteOutcome
from amr_logic_aug.lexicon import default_lexicon
from amr_logic_aug.logic import And, Atom, Not
from amr_logic_aug.pairs import PairRecord
from amr_logic_aug.prompt import McqRecord, Rewrite, TraceRow
from amr_logic_aug.scoring import Triplet

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
INPUTS = ROOT / "perfbench" / "inputs.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(amr_logic_aug.__path__))
READERS_AND_WRITERS = ("open", "read_text", "write_text", "read_bytes", "write_bytes")


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_by_path("perfbench_tracer", TRACER)


def test_every_traced_layer_resolves():
    layers = load_tracer().LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"amr_logic_aug.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"amr_logic_aug.{layer}.{name}"


# Public names and class members that nothing outside the tests reads, with
# the reason each is kept.
UNUSED_EXPORTS = {
    "scoring.triplet_loss_gradient": "ACCEPTANCE 9 checks it against finite differences",
    "graph.ParseError.offset": "a caller of parse_penman locates the fault in its text by it",
}


@functools.cache
def reads_outside_the_tests() -> tuple[frozenset[str], frozenset[str]]:
    """The names and the attribute names that the Python files of ``src``,
    ``perfbench`` and ``scripts`` read; every name the tracer wraps counts
    as a name read."""
    names = {traced for traced_names in load_tracer().LAYERS.values() for traced in traced_names}
    attributes = set()
    for path in sorted(path for part in ("src", "perfbench", "scripts")
                       for path in (ROOT / part).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return frozenset(names), frozenset(attributes)


def module_body(name: str) -> list[ast.stmt]:
    path = Path(importlib.import_module(f"amr_logic_aug.{name}").__file__)
    return ast.parse(path.read_text(encoding="utf-8")).body


def public_names(name: str) -> list[str]:
    """The top-level functions, classes and assigned names of module
    ``name`` that do not start with an underscore."""
    defined = []
    for node in module_body(name):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [leaf.id for target in targets for leaf in ast.walk(target)
                        if isinstance(leaf, ast.Name)]
    return [public for public in defined if not public.startswith("_")]


def class_members(cls: ast.ClassDef) -> list[str]:
    """The named-tuple fields, methods and properties that a class body
    defines, and the attributes its ``__init__`` sets on ``self``."""
    members = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
            members.append(node.name)
        elif isinstance(node, ast.FunctionDef):
            members += [target.attr for statement in ast.walk(node)
                        if isinstance(statement, ast.Assign) for target in statement.targets
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name) and target.value.id == "self"]
    return members


def public_members(name: str) -> list[str]:
    """``Class.member`` for each public member of each public class of
    module ``name``; a named tuple's fields may sit on a private base."""
    classes = {node.name: node for node in module_body(name) if isinstance(node, ast.ClassDef)}
    public = []
    for class_name, cls in classes.items():
        if class_name.startswith("_"):
            continue
        bases = [classes[base.id] for base in cls.bases
                 if isinstance(base, ast.Name) and base.id.startswith("_") and base.id in classes]
        public += [f"{class_name}.{member}" for body in (*bases, cls)
                   for member in class_members(body) if not member.startswith("_")]
    return public


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_use_outside_the_tests(name):
    """A public name or class member that only its own tests read is dead
    code; the tracer's ``LAYERS`` count as uses, because the benchmark
    wraps them.  A member counts as read when any file reads an attribute
    of its name, so the rule misses a member that shares its name."""
    names, attributes = reads_outside_the_tests()
    unused = [f"{name}.{public}" for public in public_names(name)
              if public not in names | attributes]
    unused += [f"{name}.{member}" for member in public_members(name)
               if member.rpartition(".")[2] not in attributes]
    assert unused == [export for export in UNUSED_EXPORTS if export.startswith(f"{name}.")]


@pytest.mark.parametrize("seed", [0, 3])
def test_the_benchmark_inputs_are_made_at_a_small_size(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(INPUTS.parent))  # inputs.py imports its word lists
    inputs = load_by_path("perfbench_inputs", INPUTS)
    monkeypatch.setattr(inputs, "CHECK_CORPUS_SIZE", 40)
    monkeypatch.setattr(inputs, "PROMPT_RECORDS", 12)
    monkeypatch.setattr(corpus, "DEFAULT_TARGET", 48)
    lexicon = default_lexicon()

    reclor = tmp_path / "reclor.json"
    records = inputs.make_reclor_file(seed, reclor)
    assert len(records) == 12
    assert json.loads(reclor.read_text(encoding="utf-8")) == records

    check = tmp_path / "check.jsonl"
    planted = inputs.make_check_file(seed, check)
    assert planted  # the 128-record train split holds one planted flip
    problems = pairs.verify_records(pairs.load_jsonl(check), lexicon)
    assert [index for index, _ in problems] == planted

    paths = inputs.make_penman_files(seed, tmp_path)
    assert sorted(paths) == sorted(kind.value for kind in PatternKind)
    # The penman workload rewrites each family's file with that family's law.
    assert inputs.PENMAN_FAMILY_LAW == {
        kind.value: law.value for kind, law in corpus.PATTERN_LAW.items()
    }
    built = corpus.build_corpus(lexicon, 48, None, inputs.cli_seed(seed))
    for kind in PatternKind:
        structs = [s.struct for s in built if s.pattern is kind]
        lines = paths[kind.value].read_text(encoding="utf-8").splitlines()
        assert lines == [penman_of_struct(struct) for struct in structs]
        # Every line takes augment's canonical Penman reader, not parse_penman.
        assert [read_canonical_penman(line) for line in lines] == structs


def package_exception_classes():
    """``{"module.Class": class}`` for each exception class a package module
    defines."""
    defined = {}
    for name in MODULES:
        module = importlib.import_module(f"amr_logic_aug.{name}")
        defined.update((f"{name}.{value.__name__}", value)
                       for value in vars(module).values()
                       if isinstance(value, type) and issubclass(value, BaseException)
                       and value.__module__ == module.__name__)
    return defined


def test_the_package_defines_one_exception_class_per_role():
    """Refused input ends a run with exit 1; text or a graph outside the
    grammar, and a sentence outside a law's precondition, are skipped line
    by line by the free-text readers; an oracle violation is a bug."""
    defined = {name: error.__bases__ for name, error in package_exception_classes().items()}
    assert defined == {
        "files.InputError": (ValueError,),
        "grammar.GrammarError": (ValueError,),
        "graph.ParseError": (GrammarError,),
        "laws.LawError": (ValueError,),
        "laws.OracleViolation": (AssertionError,),
    }


def test_package_root_exports_only_the_version_and_the_default_seed():
    public = {name for name in vars(amr_logic_aug) if not name.startswith("_")}
    assert public - {"DEFAULT_SEED"} <= set(MODULES)  # submodules bind themselves once imported
    assert amr_logic_aug.__version__


def test_only_the_files_module_opens_data_files():
    offenders = []
    for name in sorted(set(MODULES) - {"files"}):
        path = Path(importlib.import_module(f"amr_logic_aug.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in READERS_AND_WRITERS
            ):
                offenders.append(f"{name}.py:{node.lineno}")
    assert offenders == []


def test_readme_library_quick_start_prints_what_its_comments_say(capsys):
    """Each ``print`` of the README's python block is followed by its
    output, as a comment on the same line or as the next line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start$.*?^```python\n(.*?)^```", readme, re.M | re.S)
    lines = block.group(1).splitlines()
    expected = []
    for index, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("  # ")[2] or lines[index + 1].removeprefix("# ")
            expected.append(comment)
    assert len(expected) == 3
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_every_source_file_parses_as_the_oldest_declared_python():
    """``ast.parse`` with ``feature_version`` refuses syntax newer than the
    ``requires-python`` floor, ``except*`` for one (a best-effort check: it
    does not catch every newer construct, nor a newer library call)."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (3, int(floor.group(1)))
    assert version == (3, 10)
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def _clause():
    return Clause("the cat", "strong", negated=True)


def _struct():
    return GrammarSentence(Shape.IF_THEN, (_clause(), Clause("you", "kind")), True)


# Each engine value type: a factory for a fresh instance, and its fields in order.
VALUE_TYPES = {
    "Clause": (_clause, ("subject", "predicate", "negated")),
    "GrammarSentence": (_struct, ("shape", "clauses", "trailing_condition")),
    "SynthSentence": (
        lambda: SynthSentence(
            "You are kind if the cat is not strong.", _struct(), PatternKind.IMPLICATION_PAIR
        ),
        ("text", "struct", "pattern"),
    ),
    "PairRecord": (
        lambda: PairRecord("The cat is strong.", "The cat is not weak.", 1, "double-negation"),
        ("sentence1", "sentence2", "label", "law", "pair_id"),
    ),
    "Constant": (lambda: Constant("-"), ("raw",)),
    "Atom": (lambda: Atom("the cat", "strong"), ("subject", "attribute")),
    "Not": (lambda: Not(Atom("the cat", "strong")), ("operand",)),
    "And": (lambda: And(Atom("you", "kind"), Atom("the cat", "strong")), ("left", "right")),
    "RewriteOutcome": (
        lambda: RewriteOutcome(LawKind.CONTRAPOSITION, _struct(), _struct()),
        ("law", "positive", "negative"),
    ),
    "Rewrite": (lambda: Rewrite("implication", "You are kind."), ("law", "text")),
    "TraceRow": (
        lambda: TraceRow("option 0", "x.", (Rewrite("implication", "y."),)),
        ("source", "original", "rewrites", "skipped_reason"),
    ),
    "McqRecord": (
        lambda: McqRecord("c", ("a", "b", "c", "d"), "r-1"),
        ("context", "answers", "id_string"),
    ),
    "Triplet": (
        lambda: Triplet((1.0, 0.0), (0.5, 0.5), (0.0, -1.0)),
        ("anchor", "positive", "negative"),
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_and_compare_by_value(name):
    """Validation messages are pinned where each type is tested:
    ``test_grammar.py::test_sentence_struct_arity_is_checked``,
    ``test_pairs.py::test_pair_record_validation``, and the record checks of
    ``test_prompt.py`` and ``test_scoring.py``.  ``AmrGraph`` and ``Lexicon``
    hold a dict, so they are not hashable and are left out."""
    make, fields = VALUE_TYPES[name]
    value, twin = make(), make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
    assert value is not twin and value == twin and hash(value) == hash(twin)
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({shown})"


def test_cli_cold_start_imports_no_dataclasses():
    """Each CLI call imports the package and reads the shipped lexicon in a
    fresh interpreter.  ``dataclasses`` (which pulls in ``inspect``, ``ast``
    and ``dis``) and its code generation cost 15-19 ms of that, so no module
    may bring it in.  ``logging`` (with ``traceback``) cost 5-8 ms and the
    Penman ``graph`` module 3-4.6 ms; only a subcommand that reads Penman
    loads the latter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import amr_logic_aug.cli\n"
        "from amr_logic_aug.lexicon import default_lexicon\n"
        "default_lexicon()\n"
        "unwanted = {'dataclasses', 'inspect', 'logging', 'traceback', 'amr_logic_aug.graph'}\n"
        "print(sorted(unwanted & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n", done.stdout


# The package modules each subcommand loads beyond the ones every one loads,
# ``cli`` and ``files``.  A subcommand that reads a lexicon loads ``grammar``
# and ``lexicon``; ``pararule`` and ``loss`` read none.  ``laws`` brings in
# ``logic``.  ``augment --format penman`` reads a line in the Penman writer's
# format without ``graph``, and loads it only for a line in another format.
# A misspelt subcommand is a usage error (exit 2) that loads none of them.
LEXICON_MODULES = {"grammar", "lexicon"}
SUBCOMMAND_MODULES = {
    "synth": LEXICON_MODULES | {"corpus", "laws", "logic"},
    "augment": LEXICON_MODULES | {"laws", "logic"},
    "augment --format penman": LEXICON_MODULES | {"laws", "logic"},
    "augment --format penman, another format": LEXICON_MODULES | {"graph", "laws", "logic"},
    "pairs": LEXICON_MODULES | {"corpus", "laws", "logic", "pairs"},
    "check": LEXICON_MODULES | {"laws", "logic", "pairs"},
    "prompt-aug": LEXICON_MODULES | {"laws", "logic", "prompt"},
    "pararule": {"pararule"},
    "loss": {"scoring"},
    "chek": set(),
}
SHARED_MODULES = {"cli", "files"}


def test_each_subcommand_loads_only_its_own_modules(tmp_path):
    """``cli`` defines and imports only the subcommand a process runs, so
    ``augment`` compiles and runs none of ``corpus``, ``pairs``, ``prompt``,
    ``pararule`` and ``scoring``, and not ``graph`` either unless a Penman
    line is outside the writer's format; ``check`` loads ``pairs`` but not
    ``corpus``, which only ``build_pairs`` needs, while ``pairs`` loads
    both; ``pararule`` and ``loss`` load no ``grammar`` or ``lexicon``.  A misspelt subcommand defines none, so its
    usage error loads no subcommand module.  No process loads
    ``logging``, which would be listed too."""
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('amr_logic_aug', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    print(exit.code)\n"
        "print(' '.join(sorted([name.partition('.')[2] for name in sys.modules\n"
        "                       if name.startswith('amr_logic_aug.')]\n"
        "                      + [name for name in ('logging',) if name in sys.modules])))\n"
    )
    (tmp_path / "in.txt").write_text("If Alan is kind, then Bob is clever.\n", encoding="utf-8")
    (tmp_path / "in.penman").write_text(
        "(c / clever :condition (k / kind :domain (a / Alan)) :domain (b / Bob))\n",
        encoding="utf-8",
    )
    # Upper-case variables: the writer names its variables in lower case.
    (tmp_path / "other.penman").write_text("(C / clever :domain (B / Bob))\n", encoding="utf-8")
    record = {"context": "Alan is kind.", "question": "Which must be true?",
              "answers": ["Bob is clever.", "a", "b", "c"], "label": 0, "id_string": "r1"}
    (tmp_path / "mcq.json").write_text(json.dumps([record]), encoding="utf-8")
    (tmp_path / "rules.jsonl").write_text(
        json.dumps({"rules": ["Strong people are kind."]}) + "\n", encoding="utf-8"
    )
    (tmp_path / "vectors.tsv").write_text(
        "p1\tanchor\t1.0\t0.0\np1\tpos\t1.0\t0.0\np1\tneg\t0.0\t1.0\n", encoding="utf-8"
    )
    augment = ["augment", "--law", "contraposition", "--out", "out.jsonl"]
    runs = {
        "synth": ["synth", "--count", "8", "--out", "corpus.jsonl"],
        "augment": [*augment, "--in", "in.txt"],
        "augment --format penman": [*augment, "--format", "penman", "--in", "in.penman"],
        "augment --format penman, another format": [*augment, "--format", "penman",
                                                    "--in", "other.penman"],
        "pairs": ["pairs", "--corpus", "corpus.jsonl", "--out-train", "train.jsonl",
                  "--out-val", "val.jsonl"],
        "check": ["check", "--in", "train.jsonl"],
        "prompt-aug": ["prompt-aug", "--in", "mcq.json", "--out", "mcq_aug.json"],
        "pararule": ["pararule", "--depth", "2", "--in", "rules.jsonl",
                     "--out", "rules_alt.jsonl"],
        "loss": ["loss", "--vectors", "vectors.tsv"],
        "chek": ["chek", "--in", "train.jsonl"],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = {}
    for command, argv in runs.items():
        done = subprocess.run(
            [sys.executable, "-c", code, "-q", *argv], cwd=tmp_path,
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        *_, status, modules = done.stdout.splitlines()  # check and loss print first
        loaded[command] = int(status), set(modules.split())
    assert loaded == {
        command: (2 if command == "chek" else 0, SHARED_MODULES | modules)
        for command, modules in SUBCOMMAND_MODULES.items()
    }
