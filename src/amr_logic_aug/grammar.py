"""Deterministic text↔graph conversion for the controlled sentence grammar.

The grammar covers single sentences built from one or two clauses::

    atomic        The bald eagle is strong.
    conjunction   Alan is kind and Bob is clever.
    disjunction   Alan is not kind or Bob is clever.
    conditional   If Alan is kind, then Bob is clever.   (leading form)
                  Alan is not kind if Bob is not clever. (trailing form)

"B unless A" (with or without the comma) parses as the trailing conditional
"B if A.", and "was"/"were" parse like "is"/"are": a struct holds exactly
what its graph holds, so ``read_graph(build_graph(s)) == s`` for every parse
whose words hold no hyphen (see :func:`penman_of_struct`).

The graph encoding is defined by one writer, :func:`penman_of_struct`, and
:func:`build_graph` is its Penman parsed; :func:`read_canonical_penman`
reads that writer's exact text back without a graph.  A clause is a
predicate node carrying optional ``:polarity -`` and a ``:domain`` edge to
a leaf subject node; compounds use an ``and``/``or`` root with
``:op1``/``:op2``; conditionals attach the antecedent to the consequent's
node via ``:condition``.  Surface order is part of the graph: a ``:condition`` edge
placed before the clause's own edges realizes as "If A, then B." and one
placed after them realizes as "B if A.".

Two grammar levels exist.  The default ``core`` level accepts only
copula + single-word attribute clauses (what the synthetic corpus uses).
The ``extended`` level additionally normalizes verb phrases (``can X`` /
``will be able to X`` → ``able to X``; ``have no X`` → negated ``have X``;
determiners ``some`` / ``at least some`` and a trailing ``at all`` are
dropped) so that paraphrases of the same predicate map to the same atom.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:  # the graph module loads only where a graph is built or read
    from .graph import AmrGraph, Edge

CONDITION_ROLE = ":condition"
DOMAIN_ROLE = ":domain"
POLARITY_ROLE = ":polarity"
NEGATIVE = "-"

CORE = "core"
EXTENDED = "extended"

YOU = "you"


class GrammarError(ValueError):
    """Text, a struct or a graph outside the controlled grammar."""


class Shape(str, Enum):
    ATOMIC = "atomic"
    AND_PAIR = "and-pair"
    OR_PAIR = "or-pair"
    IF_THEN = "if-then"


# The members as module globals, which the package reads: reading an enum
# member through its class is slow.
ATOMIC, AND_PAIR, OR_PAIR, IF_THEN = Shape.ATOMIC, Shape.AND_PAIR, Shape.OR_PAIR, Shape.IF_THEN


class Clause(NamedTuple):
    """One predication: subject, predicate phrase, negation flag."""

    subject: str
    predicate: str
    negated: bool = False

    def negate(self) -> "Clause":
        subject, predicate, negated = self
        return Clause(subject, predicate, not negated)


class _SentenceFields(NamedTuple):
    shape: Shape
    clauses: tuple[Clause, ...]
    trailing_condition: bool = False


class GrammarSentence(_SentenceFields):
    """A parsed sentence.

    ``clauses`` order: operands for AND_PAIR/OR_PAIR, and always
    (antecedent, consequent) for IF_THEN regardless of surface form;
    ``trailing_condition`` records the "B if A." surface for conditionals.
    The clause count is checked on construction (``_make``, ``_replace`` and
    a direct ``tuple.__new__`` skip the check; both compiled readers,
    :func:`compile_core_parser`'s and :func:`read_canonical_penman`, use the
    latter, since their patterns fix each shape's count).
    """

    __slots__ = ()

    def __new__(
        cls, shape: Shape, clauses: tuple[Clause, ...], trailing_condition: bool = False
    ) -> "GrammarSentence":
        expected = 1 if shape is ATOMIC else 2
        if len(clauses) != expected:
            raise GrammarError(
                f"{shape.value} sentence needs {expected} clause(s), got {len(clauses)}"
            )
        return tuple.__new__(cls, (shape, clauses, trailing_condition))


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
_COPULAS = frozenset({"is", "are", "was", "were"})
# The words the general parser routes on before it reads a clause.  No
# predicate is one of them, in any case: its rewrite could not re-parse.
_ROUTING_WORDS = ("if", "unless", "then", "and", "or", "not")
# The grammar's own words: the routing words, the lead-in "but" the general
# parser strips, and the copulas.  ``lexicon.parse_lexicon`` refuses an entity
# or attribute that holds one, in any case, since a sentence made from it
# would not read back as the sentence meant.
GRAMMAR_WORDS = frozenset(_ROUTING_WORDS + ("but",)) | _COPULAS
# One word of a predicate, and the predicate and concept group of both
# compiled readers.  ``lexicon.parse_lexicon`` holds every attribute entry to
# it: an attribute fills the one-word predicate slot.
TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z-]*")
_PREDICATE_RE = re.compile(rf"{TOKEN_RE.pattern}(?: {TOKEN_RE.pattern})*")


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
    lowered = [word.lower() for word in words[: lengths[0] if lengths else 1]]
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
    out = tokens
    if "some" in tokens:
        out = []
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


def _parse_predicate(rest: list[str], grammar: str) -> tuple[bool, str]:
    """Parse the post-subject verb phrase → (negated, predicate).

    ``rest`` is never empty: :func:`_match_subject` leaves at least one word.
    """
    negated = False
    if rest[0] in _COPULAS:
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
    predicate = " ".join(tokens)
    if not _PREDICATE_RE.fullmatch(predicate):
        for token in tokens:
            if not TOKEN_RE.fullmatch(token):
                raise GrammarError(f"outside grammar: unexpected token {token!r}")
    if len(tokens) == 1 and predicate.lower() in _ROUTING_WORDS:
        raise GrammarError(f"outside grammar: predicate {predicate!r} is a routing word")
    return negated, predicate


def _parse_clause(text: str, lexicon, grammar: str) -> Clause:
    words = text.split()
    matched = _match_subject(words, lexicon)
    if matched is None:
        raise GrammarError(f"outside grammar: no recognizable subject in {text!r}")
    subject, rest = matched
    negated, predicate = _parse_predicate(rest, grammar)
    return Clause(subject, predicate, negated)


def parse_sentence_struct(
    text: str, lexicon, grammar: str = CORE
) -> GrammarSentence:
    """Parse a sentence into its grammar struct.

    Raises :class:`GrammarError` (message prefixed ``outside grammar``) for
    anything the controlled grammar does not cover, so callers can skip
    free text.

    A core sentence in the canonical form :func:`realize_struct` writes is
    read by the lexicon's one compiled pattern (see
    :func:`compile_core_parser`); every other input goes through the
    general parser, which defines the grammar and owns every error.
    """
    if grammar == CORE:
        parse_canonical = lexicon.core_parser
        if parse_canonical is not None:
            sentence = parse_canonical(text)
            if sentence is not None:
                return sentence
    return _parse_general(text, lexicon, grammar)


def _parse_general(text: str, lexicon, grammar: str) -> GrammarSentence:
    """The grammar's definition: normalize, route on the connectives, then
    parse each clause."""
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
    if len(lower) != len(s):
        # 'İ' lowers to two characters, which would shift every index
        # below; kept as it is, it matches no connective, as its lower
        # case ("i" and a combining dot) does not.
        lower = "".join(ch if len(ch.lower()) > 1 else ch.lower() for ch in s)
    if lower.startswith("if "):
        rest = s[3:]
        for sep in (", then ", ", "):
            if sep in rest:
                ante, cons = rest.split(sep, 1)
                return GrammarSentence(
                    IF_THEN, (clause(ante), clause(cons))
                )
        raise GrammarError("outside grammar: conditional missing a comma")
    for sep in (", unless ", " unless ", " if "):
        if sep in lower:
            idx = lower.index(sep)
            cons, ante = s[:idx], s[idx + len(sep) :]
            return GrammarSentence(
                IF_THEN, (clause(ante), clause(cons)), trailing_condition=True
            )
    if " and " in lower:
        idx = lower.index(" and ")
        return GrammarSentence(
            AND_PAIR, (clause(s[:idx]), clause(s[idx + 5 :]))
        )
    if " or " in lower:
        idx = lower.index(" or ")
        return GrammarSentence(
            OR_PAIR, (clause(s[:idx]), clause(s[idx + 4 :]))
        )
    return GrammarSentence(ATOMIC, (clause(s),))


_ENTITY_WORD_RE = re.compile(r"[a-z][a-z-]*")


def compile_core_parser(
    entities: dict[tuple[str, ...], str]
) -> Optional[Callable[[str], Optional[GrammarSentence]]]:
    """The canonical-core-sentence reader over a subject table's entities.

    ``entities`` is ``lexicon.subject_table[0]``.  The reader fullmatches
    one regular expression against the raw text and returns the struct, or
    None when the text is not canonical: "If A, then B.", "If A, B.",
    "B if A.", "A and B.", "A or B." or "A.", each clause an entity in any
    ASCII case, a lower-case copula, an optional " not" and one predicate
    token that is no routing word.  On every text it accepts it returns
    what the general parser returns, built with ``tuple.__new__`` since the
    pattern fixes each shape's clause count; the subject is the table's
    entity for the lower-cased words.

    Returns None (no fast path: every core parse takes the general parser)
    for a lexicon without entities, with an entity word in
    ``GRAMMAR_WORDS`` (only a ``Lexicon`` built directly holds one), or
    with an entity word outside ``[a-z][a-z-]*``, which a lexicon file may
    hold (``Zoë``, ``O'Brien``, ``R2d2``).  With those excluded, the only
    way to read a pattern match is the general parser's: an entity is
    always followed by a copula and never holds one, so the match cannot
    back off to a shorter entity than the general parser's longest-first
    lookup takes.
    """
    if not entities or any(
        word in GRAMMAR_WORDS or not _ENTITY_WORD_RE.fullmatch(word)
        for words in entities
        for word in words
    ):
        return None
    subjects = {" ".join(words): entity for words, entity in entities.items()}
    # Longest entity first, as ``_match_subject`` tries them.
    alternatives = "|".join(
        re.escape(key) for key in sorted(subjects, key=lambda key: -key.count(" "))
    )
    copulas = "|".join(sorted(_COPULAS))
    routing = "|".join(_ROUTING_WORDS)
    clause = (
        rf"((?i:{alternatives})) (?:{copulas})( not)? "
        rf"(?!(?i:{routing})(?![A-Za-z-]))({TOKEN_RE.pattern})"
    )
    fullmatch = re.compile(
        rf"(?:If {clause}, (?:then )?{clause}|{clause}(?: (if|and|or) {clause})?)\.",
        re.ASCII,
    ).fullmatch

    new = tuple.__new__

    def parse(text: str) -> Optional[GrammarSentence]:
        match = fullmatch(text)
        if match is None:
            return None
        (subject1, not1, predicate1, subject2, not2, predicate2,
         subject3, not3, predicate3, joiner, subject4, not4, predicate4) = match.groups()
        if subject1 is not None:
            return new(GrammarSentence, (IF_THEN, (
                new(Clause, (subjects[subject1.lower()], predicate1, not1 is not None)),
                new(Clause, (subjects[subject2.lower()], predicate2, not2 is not None)),
            ), False))
        first = new(Clause, (subjects[subject3.lower()], predicate3, not3 is not None))
        if joiner is None:
            return new(GrammarSentence, (ATOMIC, (first,), False))
        second = new(Clause, (subjects[subject4.lower()], predicate4, not4 is not None))
        if joiner == "if":
            return new(GrammarSentence, (IF_THEN, (second, first), True))
        shape = AND_PAIR if joiner == "and" else OR_PAIR
        return new(GrammarSentence, (shape, (first, second), False))

    return parse


# ---------------------------------------------------------------------------
# Struct → Penman → graph → struct
# ---------------------------------------------------------------------------

_NEGATED = f" {POLARITY_ROLE} {NEGATIVE}"


def _concept_to_surface(concept: str) -> str:
    return concept.replace("-", " ")


def _variable(concept: str, used: set[str]) -> str:
    """The concept's first letter, lower-cased (``x`` if it has none),
    suffixed 2, 3, ... until it is not in ``used``; added to ``used``."""
    for base in concept.lower():
        if base.isalpha():
            break
    else:
        base = "x"
    var = base
    counter = 2
    while var in used:
        var = f"{base}{counter}"
        counter += 1
    used.add(var)
    return var


def _clause_penman(clause: Clause, used: set[str]) -> tuple[str, str]:
    """The predicate node's ``(var / concept`` and its own edges, unclosed;
    the predicate is named before the subject."""
    predicate = clause.predicate.replace(" ", "-")
    subject = clause.subject.replace(" ", "-")
    pred = _variable(predicate, used)
    subj = _variable(subject, used)
    polarity = _NEGATED if clause.negated else ""
    return f"({pred} / {predicate}", f"{polarity} {DOMAIN_ROLE} ({subj} / {subject})"


def penman_of_struct(sentence: GrammarSentence) -> str:
    """The canonical Penman of a grammar struct, in one pass.

    The encoding is the module docstring's.  Variables are named root first,
    then per clause (antecedent before consequent) predicate then subject.
    A space in a subject or predicate is written as a hyphen, so a hyphen
    inside a word reads back as a space: "well-off" reads back as "well off".
    """
    used: set[str] = set()
    shape = sentence.shape
    if shape is ATOMIC:
        head, edges = _clause_penman(sentence.clauses[0], used)
        return f"{head}{edges})"
    if shape is AND_PAIR or shape is OR_PAIR:
        concept = "and" if shape is AND_PAIR else "or"
        root = _variable(concept, used)
        head1, edges1 = _clause_penman(sentence.clauses[0], used)
        head2, edges2 = _clause_penman(sentence.clauses[1], used)
        return f"({root} / {concept} :op1 {head1}{edges1}) :op2 {head2}{edges2}))"
    ante_head, ante_edges = _clause_penman(sentence.clauses[0], used)
    head, edges = _clause_penman(sentence.clauses[1], used)
    condition = f" {CONDITION_ROLE} {ante_head}{ante_edges})"
    if sentence.trailing_condition:
        return f"{head}{edges}{condition})"
    return f"{head}{condition}{edges})"


@functools.cache
def _canonical_penman() -> Callable[[str], Optional[re.Match]]:
    """The fullmatch of :func:`read_canonical_penman`'s pattern, compiled
    on first use (about 1.3 ms), not at import.

    A clause is five groups: predicate variable, predicate, polarity,
    subject variable, subject.  Groups 0-11 are a connective root (variable,
    ``and``/``or``, two clauses).  Groups 12-26 are a clause root: its head
    (12-13), a leading antecedent (14-18), its own edges (19-21) and a
    trailing antecedent (22-26).
    """
    variable = r"([a-z][0-9]*)"
    concept = f"({TOKEN_RE.pattern})"
    head = rf"\({variable} / (?!(?:and|or) ){concept}"
    edges = rf"( {POLARITY_ROLE} {NEGATIVE})? {DOMAIN_ROLE} \({variable} / {concept}\)"
    clause = rf"{head}{edges}\)"
    condition = f" {CONDITION_ROLE} {clause}"
    return re.compile(
        rf"\({variable} / (and|or) :op1 {clause} :op2 {clause}\)"
        rf"|{head}(?:{condition})?{edges}(?:{condition})?\)"
    ).fullmatch


def read_canonical_penman(text: str) -> Optional[GrammarSentence]:
    """The struct of ``text`` when it is Penman as :func:`penman_of_struct`
    writes it, else None.

    It reads one compiled pattern: single spaces, variables ``[a-z][0-9]*``
    all distinct, each concept one :data:`TOKEN_RE` word and no clause
    predicate ``and`` or ``or``.  On every text it accepts it returns what
    ``read_graph(parse_penman(text))`` returns; every other text, and every
    error, is :func:`parse_penman`'s and :func:`read_graph`'s.
    """
    match = _canonical_penman()(text)
    if match is None:
        return None
    # A clause is (predicate variable, predicate, polarity, subject variable,
    # subject); a repeated variable is a duplicate instance declaration.  The
    # structs are built without their class calls, whose clause-count check
    # each shape here meets.
    (root, connective, p1, predicate1, not1, s1, subject1, p2, predicate2, not2, s2, subject2,
     p, predicate, lp, lead_predicate, lead_not, ls, lead_subject, negated, s, subject,
     tp, trail_predicate, trail_not, ts, trail_subject) = match.groups()
    new = tuple.__new__
    if connective is not None:
        if len({root, p1, s1, p2, s2}) != 5:
            return None
        first = new(Clause, (subject1.replace("-", " "), predicate1.replace("-", " "),
                             not1 is not None))
        second = new(Clause, (subject2.replace("-", " "), predicate2.replace("-", " "),
                              not2 is not None))
        shape = AND_PAIR if connective == "and" else OR_PAIR
        return new(GrammarSentence, (shape, (first, second), False))
    own = new(Clause, (subject.replace("-", " "), predicate.replace("-", " "),
                       negated is not None))
    if lp is not None:
        if tp is not None or len({p, s, lp, ls}) != 4:
            return None  # two :condition edges, or a repeated variable
        leading = new(Clause, (lead_subject.replace("-", " "), lead_predicate.replace("-", " "),
                               lead_not is not None))
        return new(GrammarSentence, (IF_THEN, (leading, own), False))
    if tp is not None:
        if len({p, s, tp, ts}) != 4:
            return None
        trailing = new(Clause, (trail_subject.replace("-", " "), trail_predicate.replace("-", " "),
                                trail_not is not None))
        return new(GrammarSentence, (IF_THEN, (trailing, own), True))
    return None if p == s else new(GrammarSentence, (ATOMIC, (own,), False))


def build_graph(sentence: GrammarSentence) -> AmrGraph:
    """The canonical graph of a grammar struct: ``penman_of_struct`` parsed."""
    from .graph import parse_penman

    return parse_penman(penman_of_struct(sentence))


def _outside(reason: str) -> GrammarError:
    """The error of a graph outside the grammar; its text names ``reason``."""
    return GrammarError(f"graph outside grammar: {reason}")


def _read_clause(
    graph: AmrGraph, out: dict[str, list[Edge]], var: str, skip: str = ""
) -> Clause:
    from .graph import Constant

    concept = graph.concept(var)
    if concept in ("and", "or"):
        raise _outside("nested compound clause")
    negated = False
    subject: Optional[str] = None
    for _, role, target in out.get(var, ()):
        if role == skip:
            continue
        if role == POLARITY_ROLE:
            if not isinstance(target, Constant) or target.raw != NEGATIVE:
                raise _outside(
                    f"unsupported polarity value {target!r} on {var!r}"
                )
            if negated:
                raise _outside(f"duplicate polarity on {var!r}")
            negated = True
        elif role == DOMAIN_ROLE:
            if subject is not None:
                raise _outside(f"multiple subjects on {var!r}")
            if isinstance(target, Constant):
                raise _outside("subject must be a node, not a constant")
            if target in out:
                raise _outside("subject must be a leaf node")
            subject = target
        else:
            raise _outside(f"unexpected role {role} on {var!r}")
    if subject is None:
        raise _outside(f"clause {var!r} has no {DOMAIN_ROLE} subject")
    return Clause(
        subject=_concept_to_surface(graph.concept(subject) or ""),
        predicate=_concept_to_surface(concept),
        negated=negated,
    )


def read_graph(graph: AmrGraph) -> GrammarSentence:
    """Decode a canonical grammar graph back into its struct.

    Raises :class:`GrammarError` ``graph outside grammar: <reason>`` for a graph
    outside the grammar, which every graph entry point lets pass.
    """
    from .graph import Constant

    # Each node's out-edges, in stored order; a node without any has no entry.
    out: dict[str, list[Edge]] = {}
    for edge in graph.edges:
        out.setdefault(edge[0], []).append(edge)
    root = graph.root
    concept = graph.concept(root)
    edges = out.get(root, [])
    if concept in ("and", "or"):
        roles = [role for _, role, _ in edges]
        if roles != [":op1", ":op2"]:
            raise _outside(
                f"connective needs exactly :op1 and :op2 operands, got {roles}"
            )
        operands = []
        for _, _, target in edges:
            if isinstance(target, Constant):
                raise _outside("operand must be a node, not a constant")
            operands.append(_read_clause(graph, out, target))
        shape = AND_PAIR if concept == "and" else OR_PAIR
        return GrammarSentence(shape, (operands[0], operands[1]))
    condition_indexes = [
        i for i, (_, role, _) in enumerate(edges) if role == CONDITION_ROLE
    ]
    if not condition_indexes:
        return GrammarSentence(ATOMIC, (_read_clause(graph, out, root),))
    if len(condition_indexes) > 1:
        raise _outside("multiple :condition edges on one node")
    index = condition_indexes[0]
    if index == 0:
        trailing = False
    elif index == len(edges) - 1:
        trailing = True
    else:
        raise _outside(
            ":condition edge must come before or after all clause edges"
        )
    target = edges[index][2]
    if isinstance(target, Constant):
        raise _outside("antecedent must be a node, not a constant")
    antecedent = _read_clause(graph, out, target)
    consequent = _read_clause(graph, out, root, skip=CONDITION_ROLE)
    return GrammarSentence(
        IF_THEN, (antecedent, consequent), trailing_condition=trailing
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
    shape = sentence.shape
    if shape is ATOMIC:
        body = _realize_clause(sentence.clauses[0])
    elif shape is AND_PAIR or shape is OR_PAIR:
        joiner = "and" if shape is AND_PAIR else "or"
        body = (
            f"{_realize_clause(sentence.clauses[0])} {joiner} "
            f"{_realize_clause(sentence.clauses[1])}"
        )
    else:
        ante = _realize_clause(sentence.clauses[0])
        cons = _realize_clause(sentence.clauses[1])
        if sentence.trailing_condition:
            body = f"{cons} if {ante}"
        else:
            body = f"If {ante}, then {cons}"
    return body[0].upper() + body[1:] + "."


def realize(graph: AmrGraph) -> str:
    """The sentence of a grammar graph (``realize_struct(read_graph(graph))``)."""
    return realize_struct(read_graph(graph))
