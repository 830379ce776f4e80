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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .files import read_lines

COSINE = "cosine"
DOT = "dot"
_ROLES = ("anchor", "pos", "neg")


class ScoreError(ValueError):
    """Raised for malformed vectors, triplets, or vector files."""


@dataclass(frozen=True)
class Triplet:
    anchor: tuple[float, ...]
    positive: tuple[float, ...]
    negative: tuple[float, ...]

    def __post_init__(self) -> None:
        dims = {len(self.anchor), len(self.positive), len(self.negative)}
        if dims == {0}:
            raise ScoreError("triplet vectors must be non-empty")
        if len(dims) != 1:
            raise ScoreError(f"triplet dimensions differ: {sorted(dims)}")
        for vector in (self.anchor, self.positive, self.negative):
            if not all(math.isfinite(x) for x in vector):
                raise ScoreError("triplet vectors must be finite")


def score(a: Sequence[float], b: Sequence[float], kind: str = COSINE) -> float:
    """Similarity between two equal-dimension vectors."""
    if len(a) != len(b):
        raise ScoreError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise ScoreError("vectors must be non-empty")
    try:
        dot = math.fsum(x * y for x, y in zip(a, b))
        if kind == COSINE:
            norm_a = math.sqrt(math.fsum(x * x for x in a))
            norm_b = math.sqrt(math.fsum(y * y for y in b))
            if not (math.isfinite(dot) and math.isfinite(norm_a) and math.isfinite(norm_b)):
                raise OverflowError
    except (OverflowError, ValueError):  # fsum raises ValueError on -inf + inf
        raise ScoreError("a sum of products overflows a float") from None
    if kind == DOT:
        return dot
    if kind == COSINE:
        if norm_a == 0.0 or norm_b == 0.0:
            raise ScoreError("cosine is undefined for a zero vector")
        return max(-1.0, min(1.0, dot / (norm_a * norm_b)))
    raise ScoreError(f"unknown score kind {kind!r} (use {COSINE} or {DOT})")


def triplet_scores(triplet: Triplet, kind: str = COSINE) -> tuple[float, float]:
    """(h(s, s+), h(s, s-)) for one triplet."""
    return (
        score(triplet.anchor, triplet.positive, kind),
        score(triplet.anchor, triplet.negative, kind),
    )


def triplet_loss(h_pos: float, h_neg: float) -> float:
    """-log[exp(h+) / (exp(h+) + exp(h-))], evaluated as log1p(exp(h- - h+))."""
    if not (math.isfinite(h_pos) and math.isfinite(h_neg)):
        raise ScoreError(f"non-finite scores: h+={h_pos!r}, h-={h_neg!r}")
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
    cannot be scored raises :class:`ScoreError` naming its pair id."""
    report = []
    for pair_id, triplet in triplets:
        try:
            h_pos, h_neg = triplet_scores(triplet, kind)
            loss = triplet_loss(h_pos, h_neg)
        except ScoreError as err:
            raise ScoreError(f"pair {pair_id!r}: {err}") from None
        report.append({"pair_id": pair_id, "h_pos": h_pos, "h_neg": h_neg, "loss": loss})
    return report


def load_triplets_tsv(path: str | Path) -> list[tuple[str, Triplet]]:
    """Read (pair_id, role, floats...) rows into triplets, in file order.

    Every pair id needs exactly one row per role (anchor, pos, neg); all
    vectors in the file must share one dimension.
    """
    groups: dict[str, dict[str, tuple[float, ...]]] = {}
    dimension: int | None = None
    for lineno, line in read_lines(path, ScoreError):
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) < 3:
            raise ScoreError(f"line {lineno}: need pair_id, role, floats")
        pair_id, role, *values = columns
        if role not in _ROLES:
            raise ScoreError(f"line {lineno}: unknown role {role!r}")
        try:
            vector = tuple(float(value) for value in values)
        except ValueError as err:
            raise ScoreError(f"line {lineno}: bad float: {err}") from err
        if not all(math.isfinite(x) for x in vector):
            raise ScoreError(f"line {lineno}: vector values must be finite")
        if dimension is None:
            dimension = len(vector)
        elif len(vector) != dimension:
            raise ScoreError(f"line {lineno}: dimension {len(vector)} != {dimension}")
        rows = groups.setdefault(pair_id, {})
        if role in rows:
            raise ScoreError(f"line {lineno}: duplicate {role!r} for {pair_id!r}")
        rows[role] = vector
    triplets = []
    for pair_id, rows in groups.items():
        missing = [role for role in _ROLES if role not in rows]
        if missing:
            raise ScoreError(f"pair {pair_id!r} missing roles: {', '.join(missing)}")
        triplets.append((pair_id, Triplet(rows["anchor"], rows["pos"], rows["neg"])))
    if not triplets:
        raise ScoreError(f"no vector rows in {path}")
    return triplets


__all__ = [
    "COSINE",
    "DOT",
    "ScoreError",
    "Triplet",
    "score",
    "triplet_scores",
    "triplet_loss",
    "triplet_loss_gradient",
    "loss_report",
    "load_triplets_tsv",
]
