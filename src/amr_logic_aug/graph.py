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
from itertools import islice
from typing import NamedTuple, Union

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


class Constant(NamedTuple):
    """An attribute value such as ``-``, ``42`` or ``"Sarah"`` (raw token)."""

    raw: str


Target = Union[str, Constant]
Edge = tuple[str, str, Target]  # (source variable, role, target)


class AmrGraph(NamedTuple):
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


# ---------------------------------------------------------------------------
# Parsing


# One token per match: a delimiter, a string, a role or atom, or an
# unterminated string, which runs to the end of the input.  Some alternative
# matches at every character that is not whitespace, so only whitespace lies
# between matches, and each try at a whitespace character fails at once, so
# a run of whitespace costs linear time.  A token's first character gives its
# kind: ':' starts a role.  An atom starts with a non-space; atom and role
# characters after the first stop only at ASCII whitespace, so "b\u00a0c" is
# one atom.  Offsets are not kept: an error finds its token's offset by
# scanning the text again, once.
_STRING = r'"(?:\\[\s\S]|[^"\\])*"'
_STRING_RE = re.compile(_STRING)
_TOKEN_RE = re.compile(rf'[()/]|{_STRING}|[^\s()/"][^ \t\r\n()/"]*|"[\s\S]*')
# First characters of the tokens that are not atoms.
_NOT_ATOM = frozenset('()/":')
# Parser states: what the next token must be.
_OPEN, _VARIABLE, _SLASH, _CONCEPT, _BODY, _TARGET, _DONE = range(7)
_NUMBER_RE = re.compile(r"[+-]?\d")


def _fail(text: str, index: int, reason: str) -> "ParseError":
    """The error at token ``index`` of ``text``, located by scanning again."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    return ParseError(reason, len(text[: match.start()].encode("utf-8")))


def _unexpected(text: str, index: int, token: str, reason: str) -> "ParseError":
    """The error for a token that does not fit; a malformed token says so first."""
    if token == '"':
        reason = "unterminated string"
    elif token == ":":
        reason = "empty role name"
    return _fail(text, index, reason)


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
    tokens = _TOKEN_RE.findall(text)
    # Only the last token can be an unterminated string; it becomes a lone '"'.
    if tokens and tokens[-1][0] == '"' and not _STRING_RE.fullmatch(tokens[-1]):
        tokens[-1] = '"'
    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    root = var = role = ""
    # Each stack entry is the variable of a node whose ')' is still pending.
    stack: list[str] = []
    state = _OPEN
    for index, token in enumerate(tokens):
        if state == _BODY:
            if token[0] == ":" and token != ":":
                role = token
                state = _TARGET
            elif token == ")":
                stack.pop()
                if not stack:
                    state = _DONE
            else:
                raise _unexpected(text, index, token, f"expected role or ')', got {token!r}")
        elif state == _TARGET:
            if token == "(":
                state = _VARIABLE
            elif token[0] not in _NOT_ATOM:
                if _is_constant_atom(token):
                    edges.append((stack[-1], role, Constant(token)))
                elif token in nodes:
                    edges.append((stack[-1], role, token))
                else:
                    raise _fail(text, index, f"reference to undeclared variable {token!r}")
                state = _BODY
            elif token[0] == '"' and token != '"':
                edges.append((stack[-1], role, Constant(token)))
                state = _BODY
            elif token == "/":
                raise _fail(text, index, "unexpected '/'")
            else:
                raise _unexpected(text, index, token, "expected edge target")
        elif state == _VARIABLE:
            if token[0] not in _NOT_ATOM and not _is_constant_atom(token):
                var = token
                state = _SLASH
            else:
                raise _unexpected(text, index, token, "expected variable name")
        elif state == _SLASH:
            if token == "/":
                state = _CONCEPT
            else:
                raise _unexpected(text, index, token, "expected '/'")
        elif state == _CONCEPT:
            if token[0] not in "()/:" and token != '"':
                if var in nodes:
                    raise _fail(text, index - 2, f"duplicate instance declaration for {var!r}")
                nodes[var] = token
                if stack:
                    edges.append((stack[-1], role, var))
                else:
                    root = var
                stack.append(var)
                state = _BODY
            else:
                raise _unexpected(text, index, token, "expected concept")
        elif state == _OPEN:
            if token == "(":
                state = _VARIABLE
            else:
                raise _unexpected(text, index, token, "expected '('")
        else:  # _DONE
            raise _unexpected(text, index, token, "trailing content after graph")
    if state != _DONE:
        # The input ended inside a node: at its '(' or variable if the node
        # is not yet declared, otherwise before some ')'.
        last = len(tokens) - 1
        if state == _OPEN:
            raise ParseError("empty input", 0)
        if state == _VARIABLE:
            raise _fail(text, last, "expected variable name")
        if state == _SLASH:
            raise _fail(text, last, "expected '/'")
        if state == _CONCEPT:
            raise _fail(text, last - 1, "expected concept")
        raise ParseError("unbalanced parentheses", len(text.encode("utf-8")))
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
