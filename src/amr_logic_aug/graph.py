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
from typing import Iterable, Union

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


_ATOM_END = set(" \t\r\n()/")
_NUMBER_RE = re.compile(r"[+-]?\d")


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _fail(text: str, index: int, reason: str) -> "ParseError":
    return ParseError(reason, _byte_offset(text, index))


class _Tokenizer:
    """Single-pass tokenizer that keeps character offsets for error reports."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_space(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1

    def next(self) -> tuple[str, str, int] | None:
        """Return (kind, value, char_offset) or None at end of input."""
        self._skip_space()
        text, n = self.text, len(self.text)
        if self.pos >= n:
            return None
        start = self.pos
        ch = text[start]
        if ch in "()/":
            self.pos += 1
            return (ch, ch, start)
        if ch == '"':
            i = start + 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == '"':
                    self.pos = i + 1
                    return ("string", text[start : i + 1], start)
                i += 1
            raise _fail(text, start, "unterminated string")
        if ch == ":":
            i = start + 1
            while i < n and text[i] not in _ATOM_END and text[i] != '"':
                i += 1
            if i == start + 1:
                raise _fail(text, start, "empty role name")
            self.pos = i
            return ("role", text[start:i], start)
        i = start
        while i < n and text[i] not in _ATOM_END and text[i] != '"':
            i += 1
        self.pos = i
        return ("atom", text[start:i], start)


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
    tok = _Tokenizer(text)
    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    root: str | None = None
    # Each stack entry is the variable of a node whose ')' is still pending.
    stack: list[str] = []
    pending_role: tuple[str, str, int] | None = None  # (source, role, offset)

    def open_node(offset: int) -> str:
        t = tok.next()
        if t is None or t[0] != "atom" or _is_constant_atom(t[1]):
            raise _fail(text, offset if t is None else t[2], "expected variable name")
        var, var_offset = t[1], t[2]
        t = tok.next()
        if t is None or t[0] != "/":
            raise _fail(text, var_offset if t is None else t[2], "expected '/'")
        t = tok.next()
        if t is None or t[0] not in ("atom", "string"):
            raise _fail(text, var_offset if t is None else t[2], "expected concept")
        if var in nodes:
            raise _fail(text, var_offset, f"duplicate instance declaration for {var!r}")
        nodes[var] = t[1]
        return var

    first = tok.next()
    if first is None:
        raise ParseError("empty input", 0)
    if first[0] != "(":
        raise _fail(text, first[2], "expected '('")
    root = open_node(first[2])
    stack.append(root)

    while stack:
        t = tok.next()
        if t is None:
            raise ParseError("unbalanced parentheses", _byte_offset(text, len(text)))
        kind, value, offset = t
        if kind == ")":
            if pending_role is not None:
                raise _fail(text, offset, "expected edge target")
            stack.pop()
            continue
        if kind == "role":
            if pending_role is not None:
                raise _fail(text, offset, "expected edge target")
            pending_role = (stack[-1], value, offset)
            continue
        if pending_role is None:
            raise _fail(text, offset, f"expected role or ')', got {value!r}")
        source, role, _ = pending_role
        pending_role = None
        if kind == "(":
            child = open_node(offset)
            edges.append((source, role, child))
            stack.append(child)
        elif kind == "string":
            edges.append((source, role, Constant(value)))
        elif kind == "atom":
            if _is_constant_atom(value):
                edges.append((source, role, Constant(value)))
            elif value in nodes:
                edges.append((source, role, value))
            else:
                raise _fail(text, offset, f"reference to undeclared variable {value!r}")
        else:  # "/" loose in edge position
            raise _fail(text, offset, "unexpected '/'")

    trailing = tok.next()
    if trailing is not None:
        raise _fail(text, trailing[2], "trailing content after graph")
    return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Serialization


def serialize(graph: AmrGraph) -> str:
    """Render a graph in canonical Penman form.

    Depth-first from the root, edges in stored order, one space between
    tokens; each node is declared at its first occurrence and referenced by
    bare variable afterwards, so ``parse_penman(serialize(g)) == g``.
    """
    out: dict[str, list[tuple[str, Target]]] = {var: [] for var in graph.nodes}
    for source, role, target in graph.edges:
        if source not in out:
            raise GraphError(f"edge from unknown variable {source!r}")
        if isinstance(target, str) and target not in graph.nodes:
            raise GraphError(f"edge to unknown variable {target!r}")
        out[source].append((role, target))

    if graph.root not in graph.nodes:
        raise GraphError(f"unknown root {graph.root!r}")

    tokens: list[str] = []
    declared: set[str] = set()
    # Work stack of either literal tokens or ("node", var) markers.
    work: list[tuple[str, str]] = [("node", graph.root)]
    while work:
        kind, value = work.pop()
        if kind == "token":
            tokens.append(value)
            continue
        var = value
        if var in declared:
            tokens.append(var)
            continue
        declared.add(var)
        tokens.extend((f"({var}", "/", graph.nodes[var]))
        work.append(("token", ")"))
        for role, target in reversed(out[var]):
            if isinstance(target, Constant):
                work.append(("token", target.raw))
            else:
                work.append(("node", target))
            work.append(("token", role))

    if len(declared) != len(graph.nodes):
        missing = sorted(set(graph.nodes) - declared)
        raise GraphError(f"unreachable nodes: {', '.join(missing)}")

    pieces: list[str] = []
    for token in tokens:
        if pieces and token != ")":
            pieces.append(" ")
        pieces.append(token)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Multi-graph files


def bridge_import(path: str) -> tuple[list[tuple[int, AmrGraph]], list[tuple[int, ParseError]]]:
    """Read a file of blank-line-separated Penman blocks.

    Lines starting with ``#`` are treated as comments.  Returns
    ``(parsed, failures)`` where each entry is ``(block_index, value)``;
    a malformed block is reported rather than aborting the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        content = handle.read()
    blocks: list[str] = []
    current: list[str] = []
    for line in content.splitlines():
        if line.strip().startswith("#"):
            continue
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))

    parsed: list[tuple[int, AmrGraph]] = []
    failures: list[tuple[int, ParseError]] = []
    for index, block in enumerate(blocks):
        try:
            parsed.append((index, parse_penman(block)))
        except ParseError as err:
            failures.append((index, err))
    return parsed, failures


def bridge_export(graphs: Iterable[AmrGraph], path: str) -> int:
    """Write graphs as blank-line-separated Penman blocks; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for graph in graphs:
            if count:
                handle.write("\n")
            handle.write(serialize(graph))
            handle.write("\n")
            count += 1
    return count
