"""Penman parsing and serialization."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_logic_aug.graph import (
    AmrGraph,
    Constant,
    GraphError,
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
    with pytest.raises(GraphError, match="unknown variable"):
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
    with pytest.raises(GraphError):
        serialize(AmrGraph("a", {"a": "c", "b": "c"}, ()))  # unreachable b
    with pytest.raises(GraphError):
        serialize(AmrGraph("a", {"a": "c"}, (("a", ":op1", "z"),)))
    with pytest.raises(GraphError):
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
    return {var: graph.out_edges(var) for var in graph.nodes}


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
