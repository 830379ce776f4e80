"""The package surface that outside code depends on.

``perfbench/tracer.py`` wraps functions by ``(layer, name)``; a name it can
no longer find breaks every traced benchmark run.  It is loaded by path, as
the benchmark runs it, and left unchanged.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import amr_logic_aug
from amr_logic_aug.corpus import PatternKind, SynthSentence
from amr_logic_aug.grammar import Clause, GrammarSentence, Shape
from amr_logic_aug.pairs import PairRecord

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(amr_logic_aug.__path__))
READERS_AND_WRITERS = ("open", "read_text", "write_text", "read_bytes", "write_bytes")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load_tracer().LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"amr_logic_aug.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"amr_logic_aug.{layer}.{name}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"amr_logic_aug.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


# Exports that only the acceptance tests call, with the criterion that does.
UNUSED_EXPORTS = {
    "corpus.generate_pattern": "ACCEPTANCE 4 samples single pattern families with it",
    "scoring.triplet_loss_gradient": "ACCEPTANCE 9 checks it against finite differences",
}


def loaded_names(directory: Path) -> set[str]:
    """Every name and attribute the Python files under ``directory`` read."""
    names = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_use_outside_the_tests():
    """An exported name that only its own tests call is dead code; the
    tracer's ``LAYERS`` count as uses, because the benchmark wraps them."""
    used = set().union(*(loaded_names(ROOT / part) for part in ("src", "perfbench", "scripts")))
    used.update(name for names in load_tracer().LAYERS.values() for name in names)
    unused = [
        f"{name}.{export}"
        for name in MODULES
        for export in getattr(importlib.import_module(f"amr_logic_aug.{name}"), "__all__", ())
        if export not in used
    ]
    assert sorted(unused) == sorted(UNUSED_EXPORTS)


def test_package_root_exports_only_the_version():
    public = {name for name in vars(amr_logic_aug) if not name.startswith("_")}
    assert public <= set(MODULES)  # submodules bind themselves once imported
    assert amr_logic_aug.__version__


def test_only_the_files_module_opens_data_files():
    """``lexicon`` is exempt: it hashes the raw bytes of its file."""
    offenders = []
    for name in sorted(set(MODULES) - {"files", "lexicon"}):
        path = Path(importlib.import_module(f"amr_logic_aug.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in READERS_AND_WRITERS
            ):
                offenders.append(f"{name}.py:{node.lineno}")
    assert offenders == []



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
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_and_compare_by_value(name):
    """Validation messages are pinned where each type is tested:
    ``test_grammar.py::test_sentence_struct_arity_is_checked`` and
    ``test_pairs.py::test_pair_record_validation``."""
    make, fields = VALUE_TYPES[name]
    value, twin = make(), make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
    assert value is not twin and value == twin and hash(value) == hash(twin)
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({shown})"
