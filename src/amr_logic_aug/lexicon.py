"""Entity/relation/attribute lexicons and the adjective antonym map.

The lexicon is a TSV file with section header rows (``SECTION<TAB>count``)
followed by one entry per line.  Sections:

ENTITY, ATTRIBUTE
    Core generation vocabulary, one string per row, order significant.
RELATION
    Required and checked as a one-column word section, but never read.
EXTENSION_ENTITY, EXTENSION_ATTRIBUTE
    Extra vocabulary for robustness variants; never used by default
    generation but valid antonym targets.
ANTONYM
    Directed rows ``word<TAB>antonym``.  Every row must have its mirror row
    (symmetry is validated, not assumed), no word maps to itself or to two
    different words, and the target must be an ATTRIBUTE or
    EXTENSION_ATTRIBUTE entry.

Entries of every section but RELATION can become Penman concepts, so
none may contain ``(``, ``)``, ``/`` or ``"``.

Lines starting with ``#`` and blank lines are ignored.  The declared count
in each header must match the number of entry rows in that section.

:func:`default_lexicon` always returns the shipped file; another lexicon is
read with :func:`load_lexicon` (the CLI's ``--lexicon FILE``).
"""

from __future__ import annotations

import hashlib
import re
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .grammar import GrammarSentence, compile_core_parser

DEFAULT_RESOURCE = "lexicon.tsv"

_SECTIONS = (
    "ENTITY",
    "RELATION",
    "ATTRIBUTE",
    "EXTENSION_ENTITY",
    "EXTENSION_ATTRIBUTE",
    "ANTONYM",
)
_PENMAN_DELIMITERS = re.compile(r'[()/"]')


class LexiconError(ValueError):
    """Raised for malformed or inconsistent lexicon files."""


class _LexiconFields(NamedTuple):
    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    antonyms: dict[str, str]
    extension_entities: tuple[str, ...] = ()
    extension_attributes: tuple[str, ...] = ()
    checksum: str = ""


class Lexicon(_LexiconFields):
    # No __slots__: the cached_property tables live in the instance __dict__.

    @cached_property
    def antonym_bases(self) -> dict[str, str]:
        """The literal table: each antonym word that is the larger of its pair,
        mapped to its partner, the pair's base word.  A word in the table
        means "not base"; a word outside it is its own base.  Built once
        per lexicon."""
        return {word: partner for word, partner in self.antonyms.items() if partner < word}

    @cached_property
    def antonym_attributes(self) -> tuple[str, ...]:
        """The core attributes that have an antonym, in lexicon order: the
        atomic corpus family's predicates.  Built once per lexicon."""
        return tuple(a for a in self.attributes if a in self.antonyms)

    @cached_property
    def subject_table(self) -> tuple[dict[tuple[str, ...], str], tuple[int, ...]]:
        """Exact-lookup table for the sentence parser's subject match.

        Returns ``(entities, lengths)``: ``entities`` maps each entity's
        lower-cased word tuple to the entity, and ``lengths`` lists the
        distinct entity word counts, longest first.  The table is filled
        longest first, then alphabetically, and keeps the first entity for a
        key, so entities that differ only in case resolve to the one the
        sorted rule would try first.  Built once per lexicon.
        """
        entities: dict[tuple[str, ...], str] = {}
        for entity in sorted(self.entities + self.extension_entities,
                             key=lambda e: (-len(e.split()), e)):
            entities.setdefault(tuple(word.lower() for word in entity.split()), entity)
        lengths = tuple(sorted({len(words) for words in entities}, reverse=True))
        return entities, lengths

    @cached_property
    def core_parser(self) -> Optional[Callable[[str], Optional[GrammarSentence]]]:
        """The sentence parser's reader of canonical core sentences over
        these entities, or None when the lexicon allows none (see
        :func:`grammar.compile_core_parser`).  Built once per lexicon, on
        its first core parse."""
        return compile_core_parser(self.subject_table[0])


def _parse_rows(text: str) -> dict[str, list[tuple[int, list[str]]]]:
    """Split the file into per-section (line number, cells) rows."""
    sections: dict[str, list[tuple[int, list[str]]]] = {name: [] for name in _SECTIONS}
    declared: dict[str, int] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if cells[0] in _SECTIONS:
            name = cells[0]
            if name in declared:
                raise LexiconError(f"duplicate section header {name!r} at line {lineno}")
            if len(cells) != 2:
                raise LexiconError(
                    f"section header needs exactly one count column at line {lineno}"
                )
            try:
                declared[name] = int(cells[1])
            except ValueError:
                raise LexiconError(
                    f"non-integer count {cells[1]!r} for section {name} at line {lineno}"
                ) from None
            current = name
            continue
        if current is None:
            raise LexiconError(f"entry before any section header at line {lineno}")
        if current != "RELATION" and _PENMAN_DELIMITERS.search(line):
            raise LexiconError(
                f"entry {line!r} in section {current} holds one of ()/\" at line {lineno}"
            )
        sections[current].append((lineno, cells))

    for name in ("ENTITY", "RELATION", "ATTRIBUTE", "ANTONYM"):
        if name not in declared:
            raise LexiconError(f"missing required section {name}")
    for name, count in declared.items():
        actual = len(sections[name])
        if actual != count:
            raise LexiconError(
                f"section {name} declares {count} entries but has {actual}"
            )
    return sections


def _word_section(name: str, rows: list[tuple[int, list[str]]]) -> tuple[str, ...]:
    words: list[str] = []
    seen: set[str] = set()
    for lineno, cells in rows:
        if len(cells) != 1:
            raise LexiconError(
                f"section {name} entries must have one column at line {lineno}"
            )
        word = cells[0].strip()  # not empty: _parse_rows skips blank lines
        if word in seen:
            raise LexiconError(f"duplicate entry {word!r} in section {name}")
        seen.add(word)
        words.append(word)
    return tuple(words)


def _antonym_map(
    rows: list[tuple[int, list[str]]], known_attributes: set[str]
) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, cells in rows:
        if len(cells) != 2:
            raise LexiconError(f"antonym rows must be 'word<TAB>antonym' at line {lineno}")
        source, target = cells[0].strip(), cells[1].strip()
        if not source or not target:
            raise LexiconError(f"empty antonym cell at line {lineno}")
        if source == target:
            raise LexiconError(f"reflexive antonym row {source!r} at line {lineno}")
        if source in mapping:
            raise LexiconError(
                f"antonym maps {source!r} to both {mapping[source]!r} and {target!r}"
            )
        mapping[source] = target
    for source, target in mapping.items():
        if mapping.get(target) != source:
            raise LexiconError(
                f"asymmetric antonym rows: {source!r}→{target!r} "
                f"without {target!r}→{source!r}"
            )
        if target not in known_attributes:
            raise LexiconError(f"unknown antonym word {target!r} (not an attribute)")
    return mapping


def parse_lexicon(text: str, checksum: str = "") -> Lexicon:
    sections = _parse_rows(text)
    entities = _word_section("ENTITY", sections["ENTITY"])
    _word_section("RELATION", sections["RELATION"])  # checked, never read
    attributes = _word_section("ATTRIBUTE", sections["ATTRIBUTE"])
    ext_entities = _word_section("EXTENSION_ENTITY", sections["EXTENSION_ENTITY"])
    ext_attributes = _word_section("EXTENSION_ATTRIBUTE", sections["EXTENSION_ATTRIBUTE"])

    overlap = set(entities) & set(ext_entities)
    if overlap:
        raise LexiconError(f"duplicate across entity sections: {sorted(overlap)}")
    overlap = set(attributes) & set(ext_attributes)
    if overlap:
        raise LexiconError(f"duplicate across attribute sections: {sorted(overlap)}")

    antonyms = _antonym_map(sections["ANTONYM"], set(attributes) | set(ext_attributes))
    return Lexicon(
        entities=entities,
        attributes=attributes,
        antonyms=antonyms,
        extension_entities=ext_entities,
        extension_attributes=ext_attributes,
        checksum=checksum,
    )


def _from_bytes(data: bytes, source: str | Path) -> Lexicon:
    """The lexicon of a file's bytes; every error is prefixed ``<source>: ``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise LexiconError(f"{source}: line {lineno} is not UTF-8 text") from None
    try:
        return parse_lexicon(text, checksum=hashlib.sha256(data).hexdigest())
    except LexiconError as err:
        raise LexiconError(f"{source}: {err}") from None


def load_lexicon(path: str | Path) -> Lexicon:
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise LexiconError(f"cannot read lexicon file {path}: {err}") from err
    return _from_bytes(data, path)


def default_lexicon() -> Lexicon:
    """The shipped ``data/lexicon.tsv``."""
    resource = resources.files(__package__).joinpath("data", DEFAULT_RESOURCE)
    return _from_bytes(resource.read_bytes(), DEFAULT_RESOURCE)


__all__ = [
    "LexiconError",
    "Lexicon",
    "parse_lexicon",
    "load_lexicon",
    "default_lexicon",
]
