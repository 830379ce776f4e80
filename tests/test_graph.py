"""Penman parsing and serialization."""

from __future__ import annotations

import random
import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_logic_aug.files import InputError
from amr_logic_aug.graph import (
    AmrGraph,
    Constant,
    ParseError,
    parse_penman,
    serialize,
)

SIMPLE = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"


def test_parse_simple_graph():
    graph = parse_penman(SIMPLE)
    assert graph.root == "w"
    assert graph.nodes == {"w": "want-01", "b": "boy", "g": "go-02"}
    assert graph.edges == (
        ("w", ":ARG0", "b"),
        ("w", ":ARG1", "g"),
        ("g", ":ARG0", "b"),
    )
    assert graph.concept("g") == "go-02"
    with pytest.raises(InputError, match="unknown variable"):
        graph.concept("nope")


def test_serialize_is_canonical_and_round_trips():
    graph = parse_penman(SIMPLE)
    assert serialize(graph) == SIMPLE
    assert parse_penman(serialize(graph)) == graph


def test_constants_and_strings_round_trip():
    text = '(s / state-01 :polarity - :quant 42 :wiki "Snow_White" :mode +)'
    graph = parse_penman(text)
    assert graph.edges[0] == ("s", ":polarity", Constant("-"))
    assert graph.edges[1] == ("s", ":quant", Constant("42"))
    assert graph.edges[2] == ("s", ":wiki", Constant('"Snow_White"'))
    assert parse_penman(serialize(graph)) == graph


def test_edge_order_is_preserved_exactly():
    a = parse_penman("(a / and :op1 (x / x1) :op2 (y / y1))")
    b = parse_penman("(a / and :op2 (y / y1) :op1 (x / x1))")
    assert a != b
    assert serialize(a) != serialize(b)


@pytest.mark.parametrize(
    "text, offset_marker",
    [
        ("w / want-01)", "expected '('"),
        ("(w want-01)", "expected '/'"),
        ("(w / want-01", "unbalanced parentheses"),
        ("(w / want-01) extra", "trailing content"),
        ("(w / want-01 :ARG0)", "expected edge target"),
        ("(w / want-01 :ARG0 b)", "undeclared variable"),
        ("(w / want-01 :ARG0 (w / boy))", "duplicate instance"),
        ("(w / want-01 boy)", "expected role"),
        ("", "empty input"),
        ("(w / want-01 : (b / boy))", "empty role"),
    ],
)
def test_parse_errors_carry_reason(text, offset_marker):
    with pytest.raises(ParseError) as err:
        parse_penman(text)
    assert offset_marker in str(err.value)
    assert err.value.offset >= 0


def test_parse_error_offset_points_at_fault():
    text = "(w / want-01 :ARG0 missing)"
    with pytest.raises(ParseError) as err:
        parse_penman(text)
    assert text[err.value.offset :].startswith("missing")


def test_byte_offset_counts_bytes_not_codepoints():
    # Two-byte character before the fault shifts the byte offset by one.
    text = '(w / wánt :ARG0 oops)'
    with pytest.raises(ParseError) as err:
        parse_penman(text)
    assert err.value.offset == text.encode("utf-8").index(b"oops")


def test_deep_nesting_does_not_recurse():
    depth = 4000
    vars_ = [f"v{i}" for i in range(depth)]
    text = ""
    for var in vars_:
        text += f"({var} / c :sub "
    text = text.removesuffix(" :sub ") + ")" * depth
    graph = parse_penman(text)
    assert len(graph.nodes) == depth
    assert parse_penman(serialize(graph)) == graph


def test_serialize_rejects_broken_graphs():
    with pytest.raises(InputError):
        serialize(AmrGraph("a", {"a": "c", "b": "c"}, ()))  # unreachable b
    with pytest.raises(InputError):
        serialize(AmrGraph("a", {"a": "c"}, (("a", ":op1", "z"),)))
    with pytest.raises(InputError):
        serialize(AmrGraph("z", {"a": "c"}, ()))


def random_graph(rng: random.Random) -> AmrGraph:
    """A random well-formed graph: spanning tree + reentrancies + constants."""
    n = rng.randint(1, 12)
    vars_ = [f"{rng.choice(string.ascii_lowercase)}{i}" for i in range(n)]
    concepts = {
        var: rng.choice(["go-01", "boy", "and", "tall", '"Quoted Concept"', "x"])
        for var in vars_
    }
    edges = []
    for i in range(1, n):
        parent = vars_[rng.randrange(i)]
        edges.append((parent, f":op{rng.randint(1, 4)}", vars_[i]))
    for _ in range(rng.randint(0, 4)):  # reentrancy or cycle edges
        a, b = rng.choice(vars_), rng.choice(vars_)
        edges.append((a, ":ref", b))
    for _ in range(rng.randint(0, 3)):
        carrier = rng.choice(vars_)
        constant = rng.choice(["-", "+", "42", "-3.5", '"Name With Space"'])
        edges.append((carrier, rng.choice([":polarity", ":quant", ":wiki"]), Constant(constant)))
    order = list(range(len(edges)))
    # Shuffle only non-tree edges among themselves to keep reachability order.
    graph_edges = tuple(edges[i] for i in order)
    return AmrGraph(root=vars_[0], nodes=concepts, edges=graph_edges)


def per_source(graph: AmrGraph) -> dict[str, list]:
    return {var: [e for e in graph.edges if e[0] == var] for var in graph.nodes}


def test_structured_fuzz_round_trip_sampled():
    # Arbitrary edge interleavings normalize to depth-first order once; the
    # canonical form is then an exact fixed point of parse∘serialize.
    rng = random.Random(202)
    for _ in range(2000):
        graph = random_graph(rng)
        canonical = parse_penman(serialize(graph))
        assert canonical.root == graph.root
        assert canonical.nodes == graph.nodes
        assert per_source(canonical) == per_source(graph)
        assert parse_penman(serialize(canonical)) == canonical


def test_malformed_fuzz_never_crashes_sampled():
    rng = random.Random(303)
    alphabet = '()/:- abcdefg"0123'
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            graph = parse_penman(text)
        except ParseError:
            continue
        assert parse_penman(serialize(graph)) == graph


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='()/:-abc "12\n\t', max_size=60))
def test_malformed_fuzz_hypothesis(text):
    try:
        parse_penman(text)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# Reference codec, written for clarity rather than speed: a per-character
# tokenizer under the parser and a token-list serializer.  parse_penman and
# serialize must agree with it on graphs, bytes, messages and byte offsets.

_REFERENCE_ATOM_END = set(" \t\r\n()/")
_REFERENCE_NUMBER_RE = re.compile(r"[+-]?\d")


def _reference_fail(text, index, reason):
    return ParseError(reason, len(text[:index].encode("utf-8")))


class _ReferenceTokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def next(self):
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1
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
            raise _reference_fail(text, start, "unterminated string")
        i = start + 1 if ch == ":" else start
        while i < n and text[i] not in _REFERENCE_ATOM_END and text[i] != '"':
            i += 1
        if ch == ":" and i == start + 1:
            raise _reference_fail(text, start, "empty role name")
        self.pos = i
        return ("role" if ch == ":" else "atom", text[start:i], start)


def _reference_is_constant(token):
    return token in ("-", "+") or bool(_REFERENCE_NUMBER_RE.match(token))


def reference_parse_penman(text):
    tok = _ReferenceTokenizer(text)
    nodes, edges, stack = {}, [], []
    pending_role = None

    def open_node(offset):
        t = tok.next()
        if t is None or t[0] != "atom" or _reference_is_constant(t[1]):
            raise _reference_fail(
                text, offset if t is None else t[2], "expected variable name"
            )
        var, var_offset = t[1], t[2]
        t = tok.next()
        if t is None or t[0] != "/":
            raise _reference_fail(text, var_offset if t is None else t[2], "expected '/'")
        t = tok.next()
        if t is None or t[0] not in ("atom", "string"):
            raise _reference_fail(
                text, var_offset if t is None else t[2], "expected concept"
            )
        if var in nodes:
            raise _reference_fail(
                text, var_offset, f"duplicate instance declaration for {var!r}"
            )
        nodes[var] = t[1]
        return var

    first = tok.next()
    if first is None:
        raise ParseError("empty input", 0)
    if first[0] != "(":
        raise _reference_fail(text, first[2], "expected '('")
    root = open_node(first[2])
    stack.append(root)
    while stack:
        t = tok.next()
        if t is None:
            raise _reference_fail(text, len(text), "unbalanced parentheses")
        kind, value, offset = t
        if kind in (")", "role"):
            if pending_role is not None:
                raise _reference_fail(text, offset, "expected edge target")
            if kind == ")":
                stack.pop()
            else:
                pending_role = (stack[-1], value)
            continue
        if pending_role is None:
            raise _reference_fail(text, offset, f"expected role or ')', got {value!r}")
        source, role = pending_role
        pending_role = None
        if kind == "(":
            child = open_node(offset)
            edges.append((source, role, child))
            stack.append(child)
        elif kind == "string" or (kind == "atom" and _reference_is_constant(value)):
            edges.append((source, role, Constant(value)))
        elif kind == "atom":
            if value not in nodes:
                raise _reference_fail(
                    text, offset, f"reference to undeclared variable {value!r}"
                )
            edges.append((source, role, value))
        else:
            raise _reference_fail(text, offset, "unexpected '/'")
    trailing = tok.next()
    if trailing is not None:
        raise _reference_fail(text, trailing[2], "trailing content after graph")
    return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))


def reference_serialize(graph):
    out = {var: [] for var in graph.nodes}
    for source, role, target in graph.edges:
        if source not in out:
            raise InputError(f"edge from unknown variable {source!r}")
        if isinstance(target, str) and target not in graph.nodes:
            raise InputError(f"edge to unknown variable {target!r}")
        out[source].append((role, target))
    if graph.root not in graph.nodes:
        raise InputError(f"unknown root {graph.root!r}")
    tokens, declared = [], set()
    work = [("node", graph.root)]
    while work:
        kind, value = work.pop()
        if kind == "token":
            tokens.append(value)
            continue
        if value in declared:
            tokens.append(value)
            continue
        declared.add(value)
        tokens.extend((f"({value}", "/", graph.nodes[value]))
        work.append(("token", ")"))
        for role, target in reversed(out[value]):
            if isinstance(target, Constant):
                work.append(("token", target.raw))
            else:
                work.append(("node", target))
            work.append(("token", role))
    if len(declared) != len(graph.nodes):
        missing = sorted(set(graph.nodes) - declared)
        raise InputError(f"unreachable nodes: {', '.join(missing)}")
    pieces = []
    for token in tokens:
        if pieces and token != ")":
            pieces.append(" ")
        pieces.append(token)
    return "".join(pieces)


def outcome(function, argument):
    """The result of a codec call, or the message and offset of its error."""
    try:
        return function(argument)
    except ParseError as err:
        return ("ParseError", str(err), err.offset)
    except InputError as err:
        return ("InputError", str(err))


# ASCII punctuation and whitespace, a two-byte letter, and Unicode spaces
# that end a token only where str.isspace does (U+000B, U+001C, U+00A0,
# U+2003, U+3000 are all whitespace, but only ASCII space, tab, CR and LF
# end an atom or role).
CODEC_ALPHABET = list('()/:-"\\') + list("abxy019") + ["\u00e9"] + list(" \t\r\n") + [
    "\u000b", "\u001c", "\u00a0", "\u2003", "\u3000",
]


def test_parse_matches_the_reference_on_random_strings():
    rng = random.Random(404)
    for _ in range(30_000):
        text = "".join(rng.choice(CODEC_ALPHABET) for _ in range(rng.randint(0, 30)))
        assert outcome(parse_penman, text) == outcome(reference_parse_penman, text), text


def test_parse_matches_the_reference_on_mutated_graphs():
    rng = random.Random(505)
    parsed = 0
    for _ in range(5_000):
        chars = list(serialize(random_graph(rng)))
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(chars) + 1)
            if rng.random() < 0.4 and at < len(chars):
                del chars[at]
            else:
                chars.insert(at, rng.choice(CODEC_ALPHABET))
        text = "".join(chars)
        expected = outcome(reference_parse_penman, text)
        assert outcome(parse_penman, text) == expected, text
        parsed += isinstance(expected, AmrGraph)
    assert 1_000 < parsed < 5_000


def test_serialize_matches_the_reference():
    rng = random.Random(606)
    for _ in range(5_000):
        graph = random_graph(rng)
        assert serialize(graph) == reference_serialize(graph)
        nodes, edges, root = dict(graph.nodes), list(graph.edges), graph.root
        fault = rng.randrange(4)
        if fault == 0:
            nodes["zz"] = "c"
        elif fault == 1:
            edges.append((rng.choice(["q", root]), ":x", rng.choice(["q", root])))
        elif fault == 2:
            root = rng.choice(["q", root])
        elif edges:
            del edges[rng.randrange(len(edges))]
        broken = AmrGraph(root, nodes, tuple(edges))
        assert outcome(serialize, broken) == outcome(reference_serialize, broken)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\u2003", ("ParseError", "empty input at byte 0", 0)),
        ('(a / "x', ("ParseError", "unterminated string at byte 5", 5)),
        ("(a / b) :", ("ParseError", "empty role name at byte 8", 8)),
        ("(a / b :c ", ("ParseError", "unbalanced parentheses at byte 10", 10)),
        ("(a / b\u00a0c)", AmrGraph("a", {"a": "b\u00a0c"}, ())),
        ("(a\u3000/ b)", AmrGraph("a\u3000", {"a\u3000": "b"}, ())),
    ],
)
def test_token_boundaries(text, expected):
    assert outcome(parse_penman, text) == expected
    assert outcome(reference_parse_penman, text) == expected


def test_trailing_whitespace_costs_linear_time():
    # Whitespace that no token follows must still match once: if the token
    # pattern fails there, finditer retries at every later position and
    # 20,000 trailing spaces take about 25 s instead of well under 1 ms.
    start = time.perf_counter()
    assert parse_penman("(a / b)" + " " * 20_000) == AmrGraph("a", {"a": "b"}, ())
    with pytest.raises(ParseError, match="empty input"):
        parse_penman(" " * 20_000)
    # An error is located by scanning the text again once, not once per token.
    edges = "(a / b" + " :c -" * 20_000
    with pytest.raises(ParseError) as err:
        parse_penman(edges + " /)")
    assert str(err.value) == f"expected role or ')', got '/' at byte {len(edges) + 1}"
    # An unterminated string is one token running to the end of the text;
    # otherwise each later '"' would start a string scan to the end again.
    with pytest.raises(ParseError, match="unterminated string at byte 10"):
        parse_penman('(a / b :c "' + '\\"' * 20_000)
    assert time.perf_counter() - start < 2.0
