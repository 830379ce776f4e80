"""Contrastive score and loss over externally supplied sentence vectors.

The loss over triplets (anchor s, positive s+, negative s-) is

    L = -sum_i log[ exp(h(s_i, s_i+)) / (exp(h(s_i, s_i+)) + exp(h(s_i, s_i-))) ]

where ``h`` is cosine similarity by default (dot product selectable).  No
embedding model is bundled: vectors arrive via a TSV file keyed by pair id
so any external encoder can be audited against the objective.

Each per-triplet term is evaluated in the numerically stable form
``log1p(exp(h- - h+))``; the ``loss`` command sums the terms with
``math.fsum``, so its total does not depend on the triplet order.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .files import InputError, read_lines

COSINE = "cosine"
DOT = "dot"
_ROLES = ("anchor", "pos", "neg")


class _TripletFields(NamedTuple):
    anchor: tuple[float, ...]
    positive: tuple[float, ...]
    negative: tuple[float, ...]


class Triplet(_TripletFields):
    """One (anchor, positive, negative) triplet, validated on construction
    (``_make`` and ``_replace`` skip the checks)."""

    __slots__ = ()

    def __new__(
        cls, anchor: tuple[float, ...], positive: tuple[float, ...], negative: tuple[float, ...]
    ) -> "Triplet":
        dims = {len(anchor), len(positive), len(negative)}
        if dims == {0}:
            raise InputError("triplet vectors must be non-empty")
        if len(dims) != 1:
            raise InputError(f"triplet dimensions differ: {sorted(dims)}")
        for vector in (anchor, positive, negative):
            if not all(math.isfinite(x) for x in vector):
                raise InputError("triplet vectors must be finite")
        return tuple.__new__(cls, (anchor, positive, negative))


def _scaled(vector: Sequence[float]) -> tuple[list[float], int]:
    """``(v, e)`` with ``vector == v * 2**e`` and every ``|v[i]| < 1``: a
    power-of-two scaling, exact but for entries that fall below the float
    range next to the largest."""
    if not all(map(math.isfinite, vector)):
        raise InputError("vectors must be finite")
    exponent = math.frexp(max(map(abs, vector)))[1]
    return [math.ldexp(x, -exponent) for x in vector], exponent


def score(a: Sequence[float], b: Sequence[float], kind: str = COSINE) -> float:
    """Similarity between two equal-dimension finite vectors.

    Both vectors are scaled into (-1, 1) by powers of two first, so no sum
    overflows and no nonzero vector sums to zero: cosine is defined for every
    pair of nonzero vectors, and a dot product overflows only when its true
    value is beyond the float range.
    """
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise InputError("vectors must be non-empty")
    if kind != COSINE and kind != DOT:
        raise InputError(f"unknown score kind {kind!r} (use {COSINE} or {DOT})")
    (a, exponent_a), (b, exponent_b) = _scaled(a), _scaled(b)
    dot = math.fsum([x * y for x, y in zip(a, b)])
    if kind == DOT:
        try:
            return math.ldexp(dot, exponent_a + exponent_b)
        except OverflowError:
            raise InputError("the dot product overflows a float") from None
    norms = math.sqrt(math.fsum([x * x for x in a])) * math.sqrt(math.fsum([y * y for y in b]))
    if norms == 0.0:
        raise InputError("cosine is undefined for a zero vector")
    return max(-1.0, min(1.0, dot / norms))


def triplet_scores(triplet: Triplet, kind: str = COSINE) -> tuple[float, float]:
    """(h(s, s+), h(s, s-)) for one triplet."""
    return (
        score(triplet.anchor, triplet.positive, kind),
        score(triplet.anchor, triplet.negative, kind),
    )


def triplet_loss(h_pos: float, h_neg: float) -> float:
    """-log[exp(h+) / (exp(h+) + exp(h-))], evaluated as log1p(exp(h- - h+))."""
    if not (math.isfinite(h_pos) and math.isfinite(h_neg)):
        raise InputError(f"non-finite scores: h+={h_pos!r}, h-={h_neg!r}")
    gap = h_neg - h_pos
    if gap > 0:
        return gap + math.log1p(math.exp(-gap))
    return math.log1p(math.exp(gap))


def triplet_loss_gradient(h_pos: float, h_neg: float) -> float:
    """d(loss)/d(h+) = -exp(h-) / (exp(h+) + exp(h-)), a negative sigmoid."""
    gap = h_neg - h_pos
    if gap > 0:
        return -1.0 / (1.0 + math.exp(-gap))
    exp_gap = math.exp(gap)
    return -exp_gap / (1.0 + exp_gap)


def loss_report(triplets: Sequence[tuple[str, Triplet]], kind: str = COSINE) -> list[dict]:
    """Per-triplet pair id, h+, h-, and loss, in input order; a triplet that
    cannot be scored raises :class:`InputError` naming its pair id."""
    report = []
    for pair_id, triplet in triplets:
        try:
            h_pos, h_neg = triplet_scores(triplet, kind)
            loss = triplet_loss(h_pos, h_neg)
        except InputError as err:
            raise InputError(f"pair {pair_id!r}: {err}") from None
        report.append({"pair_id": pair_id, "h_pos": h_pos, "h_neg": h_neg, "loss": loss})
    return report


def load_triplets_tsv(path: str | Path) -> list[tuple[str, Triplet]]:
    """Read (pair_id, role, floats...) rows into triplets, in file order.

    Every pair id needs exactly one row per role (anchor, pos, neg); all
    vectors in the file must share one dimension.
    """
    groups: dict[str, dict[str, tuple[float, ...]]] = {}
    dimension: int | None = None
    for lineno, line in read_lines(path):
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) < 3:
            raise InputError(f"{path}: line {lineno}: need pair_id, role, floats")
        pair_id, role, *values = columns
        if role not in _ROLES:
            raise InputError(f"{path}: line {lineno}: unknown role {role!r}")
        try:
            vector = tuple(float(value) for value in values)
        except ValueError as err:
            raise InputError(f"{path}: line {lineno}: bad float: {err}") from err
        if not all(math.isfinite(x) for x in vector):
            raise InputError(f"{path}: line {lineno}: vector values must be finite")
        if dimension is None:
            dimension = len(vector)
        elif len(vector) != dimension:
            raise InputError(f"{path}: line {lineno}: dimension {len(vector)} != {dimension}")
        rows = groups.setdefault(pair_id, {})
        if role in rows:
            raise InputError(f"{path}: line {lineno}: duplicate {role!r} for {pair_id!r}")
        rows[role] = vector
    triplets = []
    for pair_id, rows in groups.items():
        missing = [role for role in _ROLES if role not in rows]
        if missing:
            raise InputError(f"{path}: pair {pair_id!r} missing roles: {', '.join(missing)}")
        triplets.append((pair_id, Triplet(rows["anchor"], rows["pos"], rows["neg"])))
    if not triplets:
        raise InputError(f"{path}: no vector rows")
    return triplets
