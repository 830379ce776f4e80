"""Rule alteration for closed-world deductive-reasoning rule sets.

Rules are short templated English strings ("If someone is tall then they
are quiet.", "All little people are small.").  Alteration rewrites each
rule into a logically equivalent form:

* single-condition conditionals: contraposition
  ("If someone is not quiet then they are not tall.")
* conjunctive conditionals at depth 1: commutative swap of the conjuncts
  ("If someone is sad and dull then they are bad.")
* conjunctive conditionals at depth 2: contraposition with the negated
  conjunction phrased "not both X and Y"
* bare-plural rules ("Strong people are kind."): contraposition
  ("If someone is not kind then they are not strong."); a determiner or
  quantifier subject ("Some people are kind.") is no bare plural
* universal rules ("All dull people are rough."): double-negated form
  ("There are no dull people who are not rough.")

Every template is a single-variable universal ∀x φ(x) whose matrix φ is
quantifier-free and monadic, so two such rules are equivalent exactly when
φ(c) ≡ ψ(c) for a fresh constant c, which the propositional oracle can
decide.  The alterations are not gated by it yet: they are string
templates, checked only by the tests.  A rule that matches no template
passes through unchanged and is reported as a warning.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Sequence

from .files import read_objects, write_jsonl

logger = logging.getLogger(__name__)

_ADJ = r"[a-z][a-z-]*"
_SINGLE_COND = re.compile(rf"^If someone is ({_ADJ}) then they are ({_ADJ})\.$")
_CONJ_COND = re.compile(
    rf"^If someone is ({_ADJ}) and ({_ADJ}) then they are ({_ADJ})\.$"
)
_BARE_PLURAL = re.compile(rf"^([A-Z][a-z-]*) people are ({_ADJ})\.$")
# Determiners and quantifiers: "Some people are kind." is no bare plural, and
# its contraposition over "some" as an adjective would be garbled and wrong.
_CLOSED_CLASS = frozenset({
    "All", "Any", "Both", "Each", "Either", "Every", "Few", "Many", "Most", "Neither",
    "No", "Other", "Several", "Some", "Such", "The", "These", "Those",
})
_ALL_PEOPLE = re.compile(rf"^All ({_ADJ}) people are ({_ADJ})\.$")


class PararuleError(ValueError):
    """Raised for invalid depths or malformed rule files."""


def alter_rule(rule: str, depth: int) -> tuple[str, bool]:
    """Alter one rule; returns (text, matched). Unmatched rules pass through."""
    if depth not in (1, 2):
        raise PararuleError(f"depth must be 1 or 2, got {depth!r}")

    match = _SINGLE_COND.match(rule)
    if match:
        antecedent, consequent = match.groups()
        return f"If someone is not {consequent} then they are not {antecedent}.", True

    match = _CONJ_COND.match(rule)
    if match:
        first, second, consequent = match.groups()
        if depth == 1:
            return f"If someone is {second} and {first} then they are {consequent}.", True
        return (
            f"If someone is not {consequent} then they are not both {first} and {second}.",
            True,
        )

    match = _BARE_PLURAL.match(rule)
    if match and match[1] not in _CLOSED_CLASS:
        subject, consequent = match.groups()
        return f"If someone is not {consequent} then they are not {subject.lower()}.", True

    match = _ALL_PEOPLE.match(rule)
    if match:
        subject, consequent = match.groups()
        return f"There are no {subject} people who are not {consequent}.", True

    return rule, False


def alter_pararule_rules(rules: Sequence[str], depth: int) -> list[str]:
    """Alter every template-matching rule; log a warning per unmatched rule."""
    altered: list[str] = []
    for index, rule in enumerate(rules):
        text, matched = alter_rule(rule, depth)
        if not matched:
            logger.warning("rule %d matches no template, passed through: %r", index, rule)
        altered.append(text)
    return altered


def alter_record(record: dict, depth: int) -> dict:
    """Alter the ``rules`` list of one {context, rules[], questions[]} record."""
    if not isinstance(record, dict):
        raise PararuleError(f"record must be a JSON object, got {type(record).__name__}")
    rules = record.get("rules")
    if not isinstance(rules, list):
        raise PararuleError("record needs a 'rules' list")
    if not all(isinstance(rule, str) for rule in rules):
        raise PararuleError("every rule must be a string")
    result = dict(record)
    result["rules"] = alter_pararule_rules(rules, depth)
    return result


def alter_pararule_file(in_path: str | Path, out_path: str | Path, depth: int) -> int:
    """Alter each JSONL record's rules; returns the number of records."""
    rows = read_objects(in_path, PararuleError, lambda record: alter_record(record, depth))
    return write_jsonl(out_path, rows)


__all__ = [
    "PararuleError",
    "alter_rule",
    "alter_pararule_rules",
    "alter_record",
    "alter_pararule_file",
]
