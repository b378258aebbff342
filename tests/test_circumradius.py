"""Discrete and continuous circumradius computations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from curvcomp import (
    CandidatePolicy,
    Embedding,
    SideLengths,
    Triple,
    discrete_circumradius,
    euclidean_circumradius,
    linf_circumcenter,
    lp_circumradius,
    validate_metric,
)
from curvcomp.circumradius import InvalidPError, candidate_rows
from oracles import brute_discrete_circumradius, minmax_grid_lp, random_metric_matrix

STAR = validate_metric(
    np.array(
        [
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ]
    )
)


def test_star_center_covers_leaves():
    res = discrete_circumradius(STAR, Triple(1, 2, 3))
    assert res.radius == 1.0 and res.center == 0


def test_tie_breaks_to_lowest_index():
    # all points equidistant: every candidate attains, index 0 wins
    m = random_metric_matrix(np.random.default_rng(0), 6, lo=1.0, hi=1.0)
    space = validate_metric(m)
    res = discrete_circumradius(space, Triple(2, 3, 4))
    assert res.center == 0


def test_triple_index_out_of_range():
    with pytest.raises(IndexError):
        discrete_circumradius(STAR, Triple(0, 1, 7))


def test_augmented_policy_requires_embedding():
    with pytest.raises(ValueError):
        discrete_circumradius(STAR, Triple(1, 2, 3), CandidatePolicy.augmented([(0.0, 0.0)]))


def test_candidate_policy_follows_the_field_that_is_set():
    # the default: every point of the space
    assert CandidatePolicy() == CandidatePolicy(extra_points=None)
    assert candidate_rows(STAR, CandidatePolicy()) is STAR.dist
    # augmented, even by no points, needs an embedding
    with pytest.raises(ValueError, match="requires an embedded space"):
        candidate_rows(STAR, CandidatePolicy.augmented([]))
    # one row per point, one column per candidate: augmented points come after the space's own
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    square = validate_metric(cdist(pts, pts), embedding=Embedding(pts, 2.0))
    extra = CandidatePolicy.augmented([(1.0, 1.0), (5.0, 5.0)])
    cols = candidate_rows(square, extra)
    assert cols.shape == (4, 6)
    assert np.array_equal(cols[:, :4], square.dist)
    assert np.array_equal(cols[:, 4:], cdist(pts, np.array(extra.extra_points)))
    res = discrete_circumradius(square, Triple(0, 1, 3), extra)
    assert res.center == 4 and res.radius == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert candidate_rows(square, CandidatePolicy.augmented([])) is square.dist


def test_adding_candidates_never_increases_radius():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.uniform(0.0, 1.0, size=(9, 2))
        space = validate_metric(cdist(pts, pts), embedding=Embedding(pts, 2.0))
        t = Triple(*rng.choice(9, size=3, replace=False))
        own = discrete_circumradius(space, t).radius
        more = discrete_circumradius(space, t, CandidatePolicy.augmented(rng.uniform(0.0, 1.0, size=(5, 2)))).radius
        assert more <= own


def test_matches_brute_force_scan():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        m = random_metric_matrix(rng, n)
        space = validate_metric(m)
        i, j, k = sorted(rng.choice(n, size=3, replace=False))
        res = discrete_circumradius(space, Triple(int(i), int(j), int(k)))
        want_r, want_x = brute_discrete_circumradius(m, i, j, k)
        assert res.radius == want_r and res.center == want_x


def test_radius_is_smallest_common_ball_radius():
    """r is the least radius at which the three balls share a candidate."""
    rng = np.random.default_rng(7)
    m = random_metric_matrix(rng, 12)
    space = validate_metric(m)
    for t in [Triple(0, 1, 2), Triple(3, 7, 11), Triple(2, 5, 9)]:
        r = discrete_circumradius(space, t).radius
        covers = lambda radius: any(
            max(m[x, t.i], m[x, t.j], m[x, t.k]) <= radius for x in range(12)
        )
        assert covers(r)
        assert not covers(r - 1e-9)


def test_linf_circumcenter_known_square():
    res = linf_circumcenter([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    assert res.radius == 1.0 and res.center == (1.0, 0.5)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_linf_radius_is_half_longest_side(seed, dim):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5, 5, size=(3, dim))
    res = linf_circumcenter(pts)
    longest = cdist(pts, pts, "chebyshev").max()
    assert abs(res.radius - longest / 2.0) <= 1e-12
    # the witness center really attains the radius
    attained = np.abs(pts - np.asarray(res.center)).max()
    assert attained <= res.radius + 1e-12


def test_lp_p2_matches_closed_form():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        pts = rng.uniform(0, 4, size=(3, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        want = euclidean_circumradius(SideLengths(d[0, 1], d[0, 2], d[1, 2])).radius
        got = lp_circumradius(pts, 2.0).radius
        worst = max(worst, abs(got - want))
    assert worst < 1e-7


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_lp_matches_grid_oracle(p):
    rng = np.random.default_rng(9)
    for _ in range(40):
        pts = rng.uniform(0, 3, size=(3, 2))
        want, _ = minmax_grid_lp(pts, p, polish=True)
        got = lp_circumradius(pts, p).radius
        assert got == pytest.approx(want, abs=1e-6)


def test_lp_inf_delegates_to_exact_form():
    pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]
    assert lp_circumradius(pts, math.inf).radius == linf_circumcenter(pts).radius


def test_lp_rejects_bad_inputs():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(InvalidPError):
        lp_circumradius(pts, 1.0)
    with pytest.raises(InvalidPError):
        lp_circumradius(pts, 0.5)
    with pytest.raises(InvalidPError):  # -inf is no norm exponent, unlike inf
        lp_circumradius(pts, -math.inf)
    with pytest.raises(ValueError):
        lp_circumradius([(0.0, 0.0), (1.0, 0.0)], 2.0)


def test_lp_center_is_deterministic():
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.7)])
    a = lp_circumradius(pts, 3.0)
    b = lp_circumradius(pts, 3.0)
    assert a.radius == b.radius and a.center == b.center


def test_lp_radius_bounded_below_by_half_diameter():
    rng = np.random.default_rng(10)
    for p in (1.5, 2.0, 5.0):
        for _ in range(30):
            pts = rng.uniform(0, 2, size=(3, 2))
            longest = max(
                np.sum(np.abs(pts[i] - pts[j]) ** p) ** (1 / p)
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert lp_circumradius(pts, p).radius >= longest / 2.0 - 1e-9
