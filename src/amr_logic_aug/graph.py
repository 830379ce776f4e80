"""Rooted, labelled semantic graphs with Penman notation I/O.

A graph is a set of variable-named nodes (each carrying a concept label)
plus an ordered list of edges.  Edge order is significant: operand order of
``and``/``or`` nodes and the position of a ``:condition`` edge carry meaning
downstream, so parsing and serialization both preserve it exactly.

Edges point either at another node (by variable) or at a constant such as
the ``-`` of ``:polarity -``.  Constants are wrapped in :class:`Constant`
so they can never be confused with a variable reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

POLARITY_ROLE = ":polarity"
NEGATIVE = "-"


class GraphError(ValueError):
    """Raised for structurally invalid graphs and unknown variables."""


class ParseError(GraphError):
    """Raised on malformed Penman text; carries the byte offset of the fault."""

    def __init__(self, reason: str, offset: int) -> None:
        super().__init__(f"{reason} at byte {offset}")
        self.reason = reason
        self.offset = offset


@dataclass(frozen=True)
class Constant:
    """An attribute value such as ``-``, ``42`` or ``"Sarah"`` (raw token)."""

    raw: str

    def __str__(self) -> str:
        return self.raw


Target = Union[str, Constant]
Edge = tuple[str, str, Target]  # (source variable, role, target)


@dataclass(frozen=True)
class AmrGraph:
    """An immutable rooted graph.

    Fields:
        root:  variable of the root node.
        nodes: mapping from variable to concept label.
        edges: ordered edge list; within one source node the relative order
               is the serialization order.
    """

    root: str
    nodes: dict[str, str]
    edges: tuple[Edge, ...]

    def concept(self, var: str) -> str:
        try:
            return self.nodes[var]
        except KeyError:
            raise GraphError(f"unknown variable {var!r}") from None

    def out_edges(self, var: str) -> list[Edge]:
        return [e for e in self.edges if e[0] == var]

    def __str__(self) -> str:
        return serialize(self)


# ---------------------------------------------------------------------------
# Parsing


# One token per match: optional whitespace, then a delimiter, a string, a
# role, an atom, a lone '"' (an unterminated string) or the end of input.
# Some alternative matches wherever a match is tried, so finditer skips no
# text, every parse ends on one end-of-input match, and trailing whitespace
# is scanned once instead of once per position.  An atom starts with a
# non-space; atom and role characters after the first stop only at ASCII
# whitespace, so "b\u00a0c" is one atom.
_TOKEN_RE = re.compile(
    r'\s*(?:([()/])|("(?:\\[\s\S]|[^"\\])*")|(:[^ \t\r\n()/"]*)'
    r'|([^\s()/"][^ \t\r\n()/"]*)|(")|(\Z))'
)
_DELIMITER, _STRING, _ROLE, _ATOM, _QUOTE, _END = range(1, 7)
# Parser states: what the next token must be.
_OPEN, _VARIABLE, _SLASH, _CONCEPT, _BODY, _TARGET, _DONE = range(7)
_NUMBER_RE = re.compile(r"[+-]?\d")


def _fail(text: str, index: int, reason: str) -> "ParseError":
    return ParseError(reason, len(text[:index].encode("utf-8")))


def _unexpected(text: str, match: re.Match, reason: str) -> "ParseError":
    """The error for a token that does not fit; a malformed token says so first.

    Input that ends here ends inside an open node.
    """
    kind = match.lastindex
    if kind == _QUOTE:
        reason = "unterminated string"
    elif kind == _ROLE and len(match[kind]) == 1:
        reason = "empty role name"
    elif kind == _END:
        reason = "unbalanced parentheses"
    return _fail(text, match.start(kind), reason)


def _is_constant_atom(token: str) -> bool:
    """Bare atoms that denote attribute values rather than variable refs."""
    if token in ("-", "+"):
        return True
    return bool(_NUMBER_RE.match(token))


def parse_penman(text: str) -> AmrGraph:
    """Parse one graph in Penman notation.

    Raises :class:`ParseError` with a byte offset for unbalanced parentheses,
    duplicate instance declarations, references to undeclared variables,
    empty role names and other malformed input.  Variables must be declared
    before they are referenced.  The parser is iterative, so arbitrarily deep
    nesting cannot exhaust the interpreter stack.
    """
    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    root = var = role = ""
    # Each stack entry is the variable of a node whose ')' is still pending.
    stack: list[str] = []
    state = _OPEN
    opened = declared = None  # matches of the last '(' and variable, for errors
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastindex
        value = match[kind]
        if state == _BODY:
            if kind == _ROLE and len(value) > 1:
                role = value
                state = _TARGET
            elif value == ")":
                stack.pop()
                if not stack:
                    state = _DONE
            else:
                raise _unexpected(text, match, f"expected role or ')', got {value!r}")
        elif state == _TARGET:
            if kind == _ATOM:
                if _is_constant_atom(value):
                    edges.append((stack[-1], role, Constant(value)))
                elif value in nodes:
                    edges.append((stack[-1], role, value))
                else:
                    raise _fail(
                        text, match.start(kind), f"reference to undeclared variable {value!r}"
                    )
                state = _BODY
            elif value == "(":
                opened = match
                state = _VARIABLE
            elif kind == _STRING:
                edges.append((stack[-1], role, Constant(value)))
                state = _BODY
            elif value == "/":
                raise _fail(text, match.start(kind), "unexpected '/'")
            else:
                raise _unexpected(text, match, "expected edge target")
        elif state == _VARIABLE:
            if kind == _ATOM and not _is_constant_atom(value):
                var = value
                declared = match
                state = _SLASH
            elif kind == _END:
                raise _fail(text, opened.start(_DELIMITER), "expected variable name")
            else:
                raise _unexpected(text, match, "expected variable name")
        elif state == _SLASH:
            if value == "/":
                state = _CONCEPT
            elif kind == _END:
                raise _fail(text, declared.start(_ATOM), "expected '/'")
            else:
                raise _unexpected(text, match, "expected '/'")
        elif state == _CONCEPT:
            if kind == _ATOM or kind == _STRING:
                if var in nodes:
                    raise _fail(
                        text, declared.start(_ATOM), f"duplicate instance declaration for {var!r}"
                    )
                nodes[var] = value
                if stack:
                    edges.append((stack[-1], role, var))
                else:
                    root = var
                stack.append(var)
                state = _BODY
            elif kind == _END:
                raise _fail(text, declared.start(_ATOM), "expected concept")
            else:
                raise _unexpected(text, match, "expected concept")
        elif state == _OPEN:
            if value == "(":
                opened = match
                state = _VARIABLE
            elif kind == _END:
                raise ParseError("empty input", 0)
            else:
                raise _unexpected(text, match, "expected '('")
        elif kind != _END:  # _DONE
            raise _unexpected(text, match, "trailing content after graph")
    return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Serialization


def serialize(graph: AmrGraph) -> str:
    """Render a graph in canonical Penman form.

    Depth-first from the root, edges in stored order, one space between
    tokens; each node is declared at its first occurrence and referenced by
    bare variable afterwards, so ``parse_penman(serialize(g)) == g``.
    """
    nodes = graph.nodes
    # Per source, the outgoing edges as (" :role ", target), in stored order.
    out: dict[str, list[tuple[str, Target]]] = {var: [] for var in nodes}
    for source, role, target in graph.edges:
        if source not in out:
            raise GraphError(f"edge from unknown variable {source!r}")
        if isinstance(target, str) and target not in nodes:
            raise GraphError(f"edge to unknown variable {target!r}")
        out[source].append((f" {role} ", target))

    root = graph.root
    if root not in nodes:
        raise GraphError(f"unknown root {root!r}")

    pieces = [f"({root} / {nodes[root]}"]
    declared = {root}
    # One edge iterator per open node; a new node's iterator goes on top, and
    # its parent's resumes after the new node's ')'.
    stack = [iter(out[root])]
    while stack:
        for role, target in stack[-1]:
            pieces.append(role)
            if isinstance(target, Constant):
                pieces.append(target.raw)
            elif target in declared:
                pieces.append(target)
            else:
                declared.add(target)
                pieces.append(f"({target} / {nodes[target]}")
                stack.append(iter(out[target]))
                break
        else:
            pieces.append(")")
            stack.pop()

    if len(declared) != len(nodes):
        missing = sorted(set(nodes) - declared)
        raise GraphError(f"unreachable nodes: {', '.join(missing)}")
    return "".join(pieces)
