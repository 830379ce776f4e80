"""Deterministic text↔graph conversion for the controlled sentence grammar.

The grammar covers single sentences built from one or two clauses::

    atomic        The bald eagle is strong.
    conjunction   Alan is kind and Bob is clever.
    disjunction   Alan is not kind or Bob is clever.
    conditional   If Alan is kind, then Bob is clever.   (leading form)
                  Alan is not kind if Bob is not clever. (trailing form)
                  The eagle is big, unless the mouse is small.  (parse only)

Graphs canonically encode a clause as a predicate node carrying optional
``:polarity -`` and a ``:domain`` edge to a leaf subject node; compounds use
an ``and``/``or`` root with ``:op1``/``:op2``; conditionals attach the
antecedent to the consequent's node via ``:condition``.  Surface order is
part of the graph: a ``:condition`` edge placed before the clause's own
edges realizes as "If A, then B." and one placed after them realizes as
"B if A.".

Two grammar levels exist.  The default ``core`` level accepts only
copula + single-word attribute clauses (what the synthetic corpus uses).
The ``extended`` level additionally normalizes verb phrases (``can X`` /
``will be able to X`` → ``able to X``; ``have no X`` → negated ``have X``;
determiners ``some`` / ``at least some`` and a trailing ``at all`` are
dropped) so that paraphrases of the same predicate map to the same atom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .graph import AmrGraph, Constant, Edge, NEGATIVE, POLARITY_ROLE

CONDITION_ROLE = ":condition"
DOMAIN_ROLE = ":domain"

CORE = "core"
EXTENDED = "extended"

YOU = "you"


class GrammarError(ValueError):
    """Text (or a struct) outside the controlled grammar."""


class GrammarStructureError(GrammarError):
    """Graph outside the grammar's canonical shapes."""


class Shape(str, Enum):
    ATOMIC = "atomic"
    AND_PAIR = "and-pair"
    OR_PAIR = "or-pair"
    IF_THEN = "if-then"
    UNLESS = "unless"


@dataclass(frozen=True)
class Clause:
    """One predication: subject, predicate phrase, negation flag, tense."""

    subject: str
    predicate: str
    negated: bool = False
    tense: str = "present"

    def negate(self) -> "Clause":
        return Clause(self.subject, self.predicate, not self.negated, self.tense)


@dataclass(frozen=True)
class GrammarSentence:
    """A parsed sentence.

    ``clauses`` order: operands for AND_PAIR/OR_PAIR, and always
    (antecedent, consequent) for IF_THEN/UNLESS regardless of surface form;
    ``trailing_condition`` records the "B if A." surface for conditionals.
    """

    shape: Shape
    clauses: tuple[Clause, ...]
    trailing_condition: bool = False

    def __post_init__(self) -> None:
        expected = 1 if self.shape is Shape.ATOMIC else 2
        if len(self.clauses) != expected:
            raise GrammarError(
                f"{self.shape.value} sentence needs {expected} clause(s), "
                f"got {len(self.clauses)}"
            )


# ---------------------------------------------------------------------------
# Text → struct
# ---------------------------------------------------------------------------

_CONTRACTIONS = {
    "isn't": "is not",
    "aren't": "are not",
    "wasn't": "was not",
    "weren't": "were not",
    "don't": "do not",
    "doesn't": "does not",
    "can't": "cannot",
    "won't": "will not",
}
_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(c) for c in _CONTRACTIONS) + r")\b", re.IGNORECASE
)
_PROPER_NAME_RE = re.compile(r"[A-Z][a-z]+$")
_COPULAS = {"is": "present", "are": "present", "was": "past", "were": "past"}
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z-]*")


def _normalize_text(text: str) -> str:
    text = text.replace("’", "'")
    if "'" in text:
        text = _CONTRACTION_RE.sub(lambda m: _CONTRACTIONS[m.group(1).lower()], text)
    return " ".join(text.split())


def _match_subject(words: list[str], lexicon) -> Optional[tuple[str, list[str]]]:
    """Longest-first subject match; returns (canonical subject, rest).

    ``lexicon.subject_table`` maps lower-cased entity word tuples to
    entities, so the match is one dictionary lookup per distinct entity
    length, longest first, for lengths shorter than the clause.  Without an
    entity, "you" and then a capitalized proper name take one word.
    """
    entities, lengths = lexicon.subject_table
    lowered = [word.lower() for word in words[: max(lengths, default=1)]]
    for length in lengths:
        if len(words) > length:
            entity = entities.get(tuple(lowered[:length]))
            if entity is not None:
                return entity, words[length:]
    if lowered[0] == YOU and len(words) > 1:
        return YOU, words[1:]
    if _PROPER_NAME_RE.fullmatch(words[0]) and len(words) > 1:
        return words[0], words[1:]
    return None


def _strip_determiners(tokens: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if tokens[i : i + 3] == ["at", "least", "some"]:
            i += 3
            continue
        if tokens[i] == "some":
            i += 1
            continue
        out.append(tokens[i])
        i += 1
    if out[-2:] == ["at", "all"]:
        out = out[:-2]
    return out


def _parse_predicate(rest: list[str], grammar: str) -> tuple[bool, str, str]:
    """Parse the post-subject verb phrase → (negated, predicate, tense)."""
    if not rest:
        raise GrammarError("outside grammar: clause has no verb phrase")
    negated = False
    tense = "present"
    if rest[0] in _COPULAS:
        tense = _COPULAS[rest[0]]
        rest = rest[1:]
        if rest and rest[0] == "not":
            negated = True
            rest = rest[1:]
        tokens = rest
    elif grammar == EXTENDED:
        if rest[0] == "will":
            rest = rest[1:]
            if rest and rest[0] == "not":
                negated = True
                rest = rest[1:]
            if not rest or rest[0] != "be":
                raise GrammarError("outside grammar: expected 'be' after 'will'")
            tokens = rest[1:]
        elif rest[0] == "cannot":
            negated = True
            tokens = ["able", "to"] + rest[1:]
        elif rest[0] == "can":
            rest = rest[1:]
            if rest and rest[0] == "not":
                negated = True
                rest = rest[1:]
            tokens = ["able", "to"] + rest
        elif rest[0] in ("do", "does") and rest[1:2] == ["not"]:
            negated = True
            tokens = rest[2:]
        elif rest[0] == "have" and rest[1:2] == ["no"]:
            negated = True
            tokens = ["have"] + rest[2:]
        else:
            tokens = rest
    else:
        raise GrammarError(
            f"outside grammar: expected copula, got {rest[0]!r}"
        )
    if grammar == EXTENDED:
        tokens = _strip_determiners(tokens)
    if not tokens:
        raise GrammarError("outside grammar: clause has no attribute")
    if grammar == CORE and len(tokens) != 1:
        raise GrammarError(
            "outside grammar: core clauses take a single-word attribute, "
            f"got {' '.join(tokens)!r}"
        )
    for token in tokens:
        if not _TOKEN_RE.fullmatch(token):
            raise GrammarError(f"outside grammar: unexpected token {token!r}")
    return negated, " ".join(tokens), tense


def _parse_clause(text: str, lexicon, grammar: str) -> Clause:
    words = text.split()
    matched = _match_subject(words, lexicon)
    if matched is None:
        raise GrammarError(f"outside grammar: no recognizable subject in {text!r}")
    subject, rest = matched
    negated, predicate, tense = _parse_predicate(rest, grammar)
    return Clause(subject=subject, predicate=predicate, negated=negated, tense=tense)


def parse_sentence_struct(
    text: str, lexicon, grammar: str = CORE
) -> GrammarSentence:
    """Parse a sentence into its grammar struct.

    Raises :class:`GrammarError` (message prefixed ``outside grammar``) for
    anything the controlled grammar does not cover, so callers can skip
    free text.
    """
    if grammar not in (CORE, EXTENDED):
        raise ValueError(f"unknown grammar level {grammar!r}")
    s = _normalize_text(text)
    if not s:
        raise GrammarError("outside grammar: empty sentence")
    if s.endswith("?") or s.endswith("!"):
        raise GrammarError("outside grammar: not a declarative sentence")
    if s.endswith("."):
        s = s[:-1].rstrip()
    for prefix in ("And ", "But ", "and ", "but "):
        if s.startswith(prefix):
            s = s[len(prefix) :]
            break

    def clause(part: str) -> Clause:
        part = part.strip().rstrip(",")
        if not part:
            raise GrammarError("outside grammar: empty clause")
        return _parse_clause(part, lexicon, grammar)

    lower = s.lower()
    if lower.startswith("if "):
        rest = s[3:]
        for sep in (", then ", ", "):
            if sep in rest:
                ante, cons = rest.split(sep, 1)
                return GrammarSentence(
                    Shape.IF_THEN, (clause(ante), clause(cons))
                )
        raise GrammarError("outside grammar: conditional missing a comma")
    for sep, shape in ((", unless ", Shape.UNLESS), (" unless ", Shape.UNLESS)):
        if sep in lower:
            idx = lower.index(sep)
            cons, ante = s[:idx], s[idx + len(sep) :]
            return GrammarSentence(
                shape, (clause(ante), clause(cons)), trailing_condition=True
            )
    if " if " in lower:
        idx = lower.index(" if ")
        cons, ante = s[:idx], s[idx + 4 :]
        return GrammarSentence(
            Shape.IF_THEN, (clause(ante), clause(cons)), trailing_condition=True
        )
    if " and " in lower:
        idx = lower.index(" and ")
        return GrammarSentence(
            Shape.AND_PAIR, (clause(s[:idx]), clause(s[idx + 5 :]))
        )
    if " or " in lower:
        idx = lower.index(" or ")
        return GrammarSentence(
            Shape.OR_PAIR, (clause(s[:idx]), clause(s[idx + 4 :]))
        )
    return GrammarSentence(Shape.ATOMIC, (clause(s),))


# ---------------------------------------------------------------------------
# Struct → graph → struct
# ---------------------------------------------------------------------------


def _surface_to_concept(surface: str) -> str:
    return surface.replace(" ", "-")


def _concept_to_surface(concept: str) -> str:
    return concept.replace("-", " ")


class _VarNamer:
    def __init__(self) -> None:
        self.used: set[str] = set()

    def fresh(self, concept: str) -> str:
        base = next((ch for ch in concept.lower() if ch.isalpha()), "x")
        var = base
        counter = 2
        while var in self.used:
            var = f"{base}{counter}"
            counter += 1
        self.used.add(var)
        return var


def build_graph(sentence: GrammarSentence) -> AmrGraph:
    """Encode a grammar struct as its canonical graph (tense dropped)."""
    namer = _VarNamer()
    nodes: dict[str, str] = {}

    def make_clause(clause: Clause) -> tuple[str, list[Edge]]:
        pred_concept = _surface_to_concept(clause.predicate)
        subj_concept = _surface_to_concept(clause.subject)
        pred = namer.fresh(pred_concept)
        nodes[pred] = pred_concept
        subj = namer.fresh(subj_concept)
        nodes[subj] = subj_concept
        clause_edges: list[Edge] = []
        if clause.negated:
            clause_edges.append((pred, POLARITY_ROLE, Constant(NEGATIVE)))
        clause_edges.append((pred, DOMAIN_ROLE, subj))
        return pred, clause_edges

    if sentence.shape is Shape.ATOMIC:
        root, edges = make_clause(sentence.clauses[0])
        return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))
    # Edges are stored in depth-first order so every built graph is an
    # exact parse∘serialize fixed point.
    if sentence.shape in (Shape.AND_PAIR, Shape.OR_PAIR):
        concept = "and" if sentence.shape is Shape.AND_PAIR else "or"
        root = namer.fresh(concept)
        nodes[root] = concept
        first, first_edges = make_clause(sentence.clauses[0])
        second, second_edges = make_clause(sentence.clauses[1])
        edges = [(root, ":op1", first), *first_edges]
        edges += [(root, ":op2", second), *second_edges]
        return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))
    # IF_THEN and UNLESS share the conditional encoding.
    ante, ante_edges = make_clause(sentence.clauses[0])
    cons, cons_edges = make_clause(sentence.clauses[1])
    condition: Edge = (cons, CONDITION_ROLE, ante)
    if sentence.trailing_condition:
        edges = cons_edges + [condition] + ante_edges
    else:
        edges = [condition] + ante_edges + cons_edges
    return AmrGraph(root=cons, nodes=nodes, edges=tuple(edges))


def _read_clause(graph: AmrGraph, var: str, skip: frozenset[str] = frozenset()) -> Clause:
    concept = graph.concept(var)
    if concept in ("and", "or"):
        raise GrammarStructureError("nested compound clause")
    negated = False
    subject: Optional[str] = None
    for _, role, target in graph.out_edges(var):
        if role in skip:
            continue
        if role == POLARITY_ROLE:
            if not isinstance(target, Constant) or target.raw != NEGATIVE:
                raise GrammarStructureError(
                    f"unsupported polarity value {target!r} on {var!r}"
                )
            if negated:
                raise GrammarStructureError(f"duplicate polarity on {var!r}")
            negated = True
        elif role == DOMAIN_ROLE:
            if subject is not None:
                raise GrammarStructureError(f"multiple subjects on {var!r}")
            if isinstance(target, Constant):
                raise GrammarStructureError("subject must be a node, not a constant")
            if graph.out_edges(target):
                raise GrammarStructureError("subject must be a leaf node")
            subject = target
        else:
            raise GrammarStructureError(f"unexpected role {role} on {var!r}")
    if subject is None:
        raise GrammarStructureError(f"clause {var!r} has no {DOMAIN_ROLE} subject")
    return Clause(
        subject=_concept_to_surface(graph.concept(subject) or ""),
        predicate=_concept_to_surface(concept),
        negated=negated,
    )


def read_graph(graph: AmrGraph) -> GrammarSentence:
    """Decode a canonical grammar graph back into its struct.

    Raises :class:`GrammarStructureError` for graphs outside the grammar.
    """
    root = graph.root
    concept = graph.concept(root)
    if concept in ("and", "or"):
        out = graph.out_edges(root)
        roles = [role for _, role, _ in out]
        if roles != [":op1", ":op2"]:
            raise GrammarStructureError(
                f"connective needs exactly :op1 and :op2 operands, got {roles}"
            )
        operands = []
        for _, _, target in out:
            if isinstance(target, Constant):
                raise GrammarStructureError("operand must be a node, not a constant")
            operands.append(_read_clause(graph, target))
        shape = Shape.AND_PAIR if concept == "and" else Shape.OR_PAIR
        return GrammarSentence(shape, (operands[0], operands[1]))
    out = graph.out_edges(root)
    condition_indexes = [
        i for i, (_, role, _) in enumerate(out) if role == CONDITION_ROLE
    ]
    if not condition_indexes:
        return GrammarSentence(Shape.ATOMIC, (_read_clause(graph, root),))
    if len(condition_indexes) > 1:
        raise GrammarStructureError("multiple :condition edges on one node")
    index = condition_indexes[0]
    if index == 0:
        trailing = False
    elif index == len(out) - 1:
        trailing = True
    else:
        raise GrammarStructureError(
            ":condition edge must come before or after all clause edges"
        )
    target = out[index][2]
    if isinstance(target, Constant):
        raise GrammarStructureError("antecedent must be a node, not a constant")
    antecedent = _read_clause(graph, target)
    consequent = _read_clause(graph, root, skip=frozenset({CONDITION_ROLE}))
    return GrammarSentence(
        Shape.IF_THEN, (antecedent, consequent), trailing_condition=trailing
    )


# ---------------------------------------------------------------------------
# Struct → text
# ---------------------------------------------------------------------------


def _realize_clause(clause: Clause) -> str:
    copula_form = (
        " " not in clause.predicate or clause.predicate.startswith("able to")
    )
    copula = "are" if clause.subject == YOU else "is"
    if copula_form:
        negation = "not " if clause.negated else ""
        return f"{clause.subject} {copula} {negation}{clause.predicate}"
    if clause.negated:
        auxiliary = "do" if clause.subject == YOU else "does"
        return f"{clause.subject} {auxiliary} not {clause.predicate}"
    return f"{clause.subject} {clause.predicate}"


def realize_struct(sentence: GrammarSentence) -> str:
    if sentence.shape is Shape.ATOMIC:
        body = _realize_clause(sentence.clauses[0])
    elif sentence.shape in (Shape.AND_PAIR, Shape.OR_PAIR):
        joiner = "and" if sentence.shape is Shape.AND_PAIR else "or"
        body = (
            f"{_realize_clause(sentence.clauses[0])} {joiner} "
            f"{_realize_clause(sentence.clauses[1])}"
        )
    else:
        ante = _realize_clause(sentence.clauses[0])
        cons = _realize_clause(sentence.clauses[1])
        if sentence.trailing_condition or sentence.shape is Shape.UNLESS:
            body = f"{cons} if {ante}"
        else:
            body = f"If {ante}, then {cons}"
    return body[0].upper() + body[1:] + "."


# ---------------------------------------------------------------------------
# Public text↔graph API
# ---------------------------------------------------------------------------


def parse_sentence(text: str, lexicon, grammar: str = CORE) -> AmrGraph:
    return build_graph(parse_sentence_struct(text, lexicon, grammar))


def realize(graph: AmrGraph) -> str:
    return realize_struct(read_graph(graph))


def canonicalize(text: str, lexicon, grammar: str = CORE) -> str:
    """The canonical surface form: realize(parse(text))."""
    return realize_struct(parse_sentence_struct(text, lexicon, grammar))


__all__ = [
    "CONDITION_ROLE",
    "DOMAIN_ROLE",
    "CORE",
    "EXTENDED",
    "YOU",
    "GrammarError",
    "GrammarStructureError",
    "Shape",
    "Clause",
    "GrammarSentence",
    "parse_sentence_struct",
    "parse_sentence",
    "build_graph",
    "read_graph",
    "realize_struct",
    "realize",
    "canonicalize",
]
