"""Contrastive-loss numerics and the triplet vector file format."""

from __future__ import annotations

import math
import random

import pytest

from amr_logic_aug.scoring import (
    COSINE,
    DOT,
    ScoreError,
    Triplet,
    load_triplets_tsv,
    loss_report,
    score,
    triplet_loss,
    triplet_loss_gradient,
    triplet_scores,
)


def unit(angle: float) -> tuple[float, float]:
    return (math.cos(angle), math.sin(angle))


# ---------------------------------------------------------------------------
# Score function
# ---------------------------------------------------------------------------


def test_cosine_basics():
    assert score((1.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    assert score((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)
    assert score((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(-1.0)
    # Scale invariance.
    assert score((2.0, 0.0), (5.0, 0.0)) == pytest.approx(1.0)


def test_cosine_is_clamped_to_unit_interval():
    # Rounding can push |cos| epsilon above 1; the clamp keeps it exact.
    vector = (0.1 + 0.2, 0.3, 0.7)
    assert -1.0 <= score(vector, vector) <= 1.0
    assert score(vector, vector) == 1.0


def test_dot_score():
    assert score((1.0, 2.0), (3.0, 4.0), kind=DOT) == pytest.approx(11.0)
    assert score((0.0, 0.0), (3.0, 4.0), kind=DOT) == 0.0


@pytest.mark.parametrize(
    "a, b, kind, reason",
    [
        ((1.0,), (1.0, 2.0), COSINE, "dimension mismatch"),
        ((), (), COSINE, "non-empty"),
        ((0.0, 0.0), (1.0, 0.0), COSINE, "zero vector"),
        ((1.0, 0.0), (0.0, 0.0), COSINE, "zero vector"),
        ((1.0,), (1.0,), "manhattan", "unknown score kind"),
        ((1e154, 1e154), (1e154, 1e154), DOT, "overflows a float"),
        ((1e154, 1e154), (1.0, 0.0), COSINE, "overflows a float"),
        ((1e160, 0.0), (-1e160, 0.0), COSINE, "overflows a float"),
        ((1e160, 1e160), (1e160, -1e160), COSINE, "overflows a float"),
    ],
)
def test_score_errors(a, b, kind, reason):
    with pytest.raises(ScoreError, match=reason):
        score(a, b, kind)


# ---------------------------------------------------------------------------
# Triplet container
# ---------------------------------------------------------------------------


def test_triplet_validation():
    with pytest.raises(ScoreError, match="dimensions differ"):
        Triplet((1.0,), (1.0, 2.0), (1.0,))
    with pytest.raises(ScoreError, match="non-empty"):
        Triplet((), (), ())
    with pytest.raises(ScoreError, match="finite"):
        Triplet((1.0,), (float("nan"),), (0.5,))
    with pytest.raises(ScoreError, match="finite"):
        Triplet((1.0,), (0.5,), (float("inf"),))


def test_triplet_scores():
    triplet = Triplet(unit(0.0), unit(0.0), unit(math.pi / 2))
    h_pos, h_neg = triplet_scores(triplet)
    assert h_pos == pytest.approx(1.0)
    assert h_neg == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Loss numerics
# ---------------------------------------------------------------------------


def test_loss_at_equal_scores_is_ln2():
    assert triplet_loss(0.7, 0.7) == pytest.approx(math.log(2), abs=1e-9)
    assert triplet_loss(-3.0, -3.0) == pytest.approx(math.log(2), abs=1e-9)


def test_loss_closed_form_value():
    # -log(e / (e + 1)) for h+ = 1, h- = 0.
    assert triplet_loss(1.0, 0.0) == pytest.approx(0.31326168751822286, abs=1e-15)


def test_loss_matches_naive_formula():
    rng = random.Random(5)
    for _ in range(200):
        h_pos, h_neg = rng.uniform(-5, 5), rng.uniform(-5, 5)
        naive = -math.log(math.exp(h_pos) / (math.exp(h_pos) + math.exp(h_neg)))
        assert triplet_loss(h_pos, h_neg) == pytest.approx(naive, rel=1e-12)


def test_loss_is_stable_at_extreme_gaps():
    assert triplet_loss(1000.0, -1000.0) == pytest.approx(0.0, abs=1e-12)
    big = triplet_loss(-1000.0, 1000.0)
    assert math.isfinite(big)
    assert big == pytest.approx(2000.0, rel=1e-12)


def test_loss_decreases_as_positive_score_rises():
    rng = random.Random(11)
    for _ in range(500):
        h_pos, h_neg = rng.uniform(-4, 4), rng.uniform(-4, 4)
        assert triplet_loss(h_pos + 0.25, h_neg) < triplet_loss(h_pos, h_neg)


def test_loss_rejects_non_finite_scores():
    with pytest.raises(ScoreError, match="non-finite scores"):
        triplet_loss(float("nan"), 0.0)


def test_gradient_is_negative_sigmoid():
    assert triplet_loss_gradient(0.0, 0.0) == pytest.approx(-0.5)
    assert triplet_loss_gradient(50.0, -50.0) == pytest.approx(0.0, abs=1e-12)
    assert triplet_loss_gradient(-50.0, 50.0) == pytest.approx(-1.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = random.Random(23)
    eps = 1e-6
    for _ in range(300):
        h_pos, h_neg = rng.uniform(-4, 4), rng.uniform(-4, 4)
        numeric = (triplet_loss(h_pos + eps, h_neg) - triplet_loss(h_pos - eps, h_neg)) / (
            2 * eps
        )
        assert triplet_loss_gradient(h_pos, h_neg) == pytest.approx(numeric, abs=1e-6)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_loss_report_structure():
    triplet = Triplet(unit(0.0), unit(0.0), unit(math.pi / 2))
    report = loss_report([("p1", triplet), ("p0", triplet)])
    assert [row["pair_id"] for row in report] == ["p1", "p0"]
    assert report[0]["h_pos"] == pytest.approx(1.0)
    assert report[0]["h_neg"] == pytest.approx(0.0)
    assert report[0]["loss"] == pytest.approx(triplet_loss(1.0, 0.0))


def test_loss_report_names_the_pair_of_a_zero_vector():
    zero = Triplet((1.0, 0.0), (0.0, 0.0), (0.0, 1.0))
    good = Triplet((1.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ScoreError, match="^pair 'p2': cosine is undefined for a zero vector$"):
        loss_report([("p1", good), ("p2", zero)])
    assert len(loss_report([("p2", zero)], DOT)) == 1


# ---------------------------------------------------------------------------
# TSV loading
# ---------------------------------------------------------------------------


def write_tsv(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_triplets_tsv(tmp_path):
    path = write_tsv(
        tmp_path / "vectors.tsv",
        [
            "# comment and blank lines are ignored",
            "",
            "p1\tanchor\t1.0\t0.0",
            "p1\tpos\t1.0\t0.0",
            "p1\tneg\t0.0\t1.0",
            "p0\tneg\t0.5\t0.5",
            "p0\tanchor\t1.0\t0.0",
            "p0\tpos\t0.9\t0.1",
        ],
    )
    triplets = load_triplets_tsv(path)
    # Ids come back in first-seen file order, not sorted.
    assert [pair_id for pair_id, _ in triplets] == ["p1", "p0"]
    assert triplets[0][1] == Triplet((1.0, 0.0), (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "rows, reason",
    [
        (["p1\tanchor"], "line 1: need pair_id, role, floats"),
        (["p1\tcenter\t1.0"], "line 1: unknown role 'center'"),
        (["p1\tanchor\tabc"], "line 1: bad float"),
        (["p1\tanchor\t1.0", "p1\tpos\tnan"], "line 2: vector values must be finite"),
        (["p1\tanchor\t-inf"], "line 1: vector values must be finite"),
        (
            ["p1\tanchor\t1.0\t2.0", "p1\tpos\t1.0"],
            "line 2: dimension 1 != 2",
        ),
        (
            ["p1\tanchor\t1.0", "p1\tanchor\t2.0"],
            "line 2: duplicate 'anchor' for 'p1'",
        ),
        (
            ["p1\tanchor\t1.0", "p1\tpos\t1.0"],
            "pair 'p1' missing roles: neg",
        ),
        (["# only a comment"], "no vector rows"),
    ],
)
def test_load_triplets_tsv_errors(tmp_path, rows, reason):
    path = write_tsv(tmp_path / "vectors.tsv", rows)
    with pytest.raises(ScoreError, match=reason):
        load_triplets_tsv(path)
