"""The l_p triangles that separate the upper comparison condition from CAT(0)."""
import math
import re

import mpmath
import numpy as np
import pytest

from curvcomp import (
    CurvatureQuery,
    certify,
    check_counterexample,
    counterexample_space,
    counterexample_triangle,
    lp_circumradius,
)
from curvcomp.circumradius import InvalidPError
from curvcomp.generators import lp_distances

P_VALUES = (1.2, 1.5, 2.0, 3.0, 4.0, 7.0, math.inf)


@pytest.mark.parametrize("p", P_VALUES)
def test_sides_are_sqrt2_sqrt2_two(p):
    result = check_counterexample(p)
    a, b, c = result.sides.as_tuple()
    assert a == pytest.approx(2.0, abs=1e-12)
    assert b == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert c == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("p", P_VALUES)
def test_comparison_radius_is_exactly_one(p):
    assert check_counterexample(p).comparison_radius == 1.0


@pytest.mark.parametrize("p", (1.2, 1.5, 3.0, 4.0, 5.0))
def test_strict_violation_away_from_p_two(p):
    result = check_counterexample(p)
    assert result.violates_upper_bound
    assert result.margin >= 1e-3


@pytest.mark.parametrize("p", (7.0, 10.0))
def test_violation_persists_but_shrinks_at_large_p(p):
    # the margin decays toward the sup-norm limit yet stays strictly positive
    result = check_counterexample(p)
    assert 1e-6 < result.margin < 1e-3


@pytest.mark.parametrize("p", (2.0, math.inf))
def test_no_violation_at_the_euclidean_and_sup_norms(p):
    result = check_counterexample(p)
    assert abs(result.margin) <= 1e-9
    assert not result.margin > 1e-9


def test_margin_vanishes_as_p_approaches_two():
    margins = [check_counterexample(p).margin for p in (3.0, 2.5, 2.2, 2.05)]
    assert all(x > y for x, y in zip(margins, margins[1:]))


def test_apex_placement_p_at_least_two():
    (ax, ay), b, c = counterexample_triangle(4.0)
    assert (ax, b, c) == (0.0, (-1.0, 0.0), (1.0, 0.0))
    assert ay == pytest.approx((2.0 ** 2.0 - 1.0) ** 0.25, abs=1e-15)


def test_apex_placement_p_below_two_solves_side_equation():
    p = 1.5
    (rp, rp2), (bx, by), _ = counterexample_triangle(p)
    assert rp == rp2
    r = 2.0 ** (-1.0 / p)
    assert (bx, by) == (-r, r)
    # the diagonal apex really sits at l_p distance sqrt(2) from B
    reach = (abs(rp + r) ** p + abs(rp - r) ** p) ** (1.0 / p)
    assert reach == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_invalid_p_rejected():
    with pytest.raises(InvalidPError):
        counterexample_triangle(1.0)
    with pytest.raises(InvalidPError):
        check_counterexample(0.5)
    # p >= 1024 overflows the 2^p inside the l_p side length 2
    for p in (2000.0, 2100.0, 1e308):
        with pytest.raises(InvalidPError, match=re.escape(f"p={p} is too large")):
            check_counterexample(p)
        with pytest.raises(InvalidPError):
            counterexample_space(p)


def test_counterexample_space_shape_and_labels():
    space = counterexample_space(4.0, fillers=3, seed=1)
    assert space.n == 6
    assert space.labels[:3] == ("A'", "B", "C")
    assert space.labels[3:] == ("F1", "F2", "F3")
    assert space.embedding is not None and space.embedding.p == 4.0


def test_bare_counterexample_space_fails_upper_bound_with_triangle_witness():
    for p in (4.0, 1.5):
        space = counterexample_space(p, fillers=0)
        verdict = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
        assert not verdict.holds
        assert verdict.witness.triple.as_tuple() == (0, 1, 2)
        # discrete centers can only be the vertices themselves here
        assert verdict.witness.r_space == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_filler_points_are_seed_deterministic():
    a = counterexample_space(1.5, fillers=2, seed=9)
    b = counterexample_space(1.5, fillers=2, seed=9)
    assert np.array_equal(a.dist, b.dist)


def _mp_margin(p: float) -> mpmath.mpf:
    """Circumradius minus 1 of the exact (sqrt 2, sqrt 2, 2) l_p triangle at
    50 digits: the crossing of the two distances along the symmetry axis,
    found with mpmath's root finder from exact vertices."""
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        if P > 2:
            y = (2 ** (P / 2) - 1) ** (1 / P)  # A' = (0, y), B = (-1, 0)
            t = mpmath.findroot(lambda t: (1 + t**P) ** (1 / P) - (y - t), (0, y), solver="anderson")
            return (1 + t**P) ** (1 / P) - 1
        r = 2 ** (-1 / P)  # B = (-r, r), A' = (s, s)
        s = mpmath.findroot(lambda s: (s + r) ** P + (s - r) ** P - 2 ** (P / 2), (r, 10), solver="anderson")

        def g(u):
            return ((u + r) ** P + abs(u - r) ** P) ** (1 / P)

        def h(u):
            return 2 ** (1 / P) * (s - u)

        if h(0) <= g(0):
            return g(0) - 1
        u = mpmath.findroot(lambda u: g(u) - h(u), (0, s), solver="anderson")
        return g(u) - 1


# 1.0112 and 5.2567 sit within 4e-5 of the 1e-3 reproduction gate; p = 50's
# margin (~1.5e-21) is below float64 resolution
MP_P_VALUES = (1.001, 1.0112, 1.5, 1.99, 2.01, 3.0, 5.2567, 10.0, 24.0, 50.0)


@pytest.mark.parametrize("p", MP_P_VALUES)
def test_margin_matches_mpmath_within_stated_bound(p):
    result = check_counterexample(p)
    exact = _mp_margin(p)
    assert abs(mpmath.mpf(result.margin) - exact) <= result.margin_error
    assert 0.0 < result.margin_error < 1e-14
    if p != 50.0:
        assert result.margin > result.margin_error  # resolved, and positive as in the paper


@pytest.mark.parametrize("p", (1.001, 1.2, 1.5, 1.99, 2.0, 2.01, 3.0, 7.0, 24.0, 50.0))
def test_center_lies_on_the_axis_and_attains_the_radius(p):
    result = check_counterexample(p)
    x, y = result.space_result.center
    assert x == y if p < 2.0 else x == 0.0
    pts = np.vstack([result.vertices, [result.space_result.center]])
    reach = lp_distances(pts, p)[3, :3]
    assert abs(reach.max() - result.space_result.radius) <= result.margin_error


def test_counterexample_does_not_run_the_general_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the counterexample path called the general l_p solver")

    for name in ("minimize", "linprog", "lp_circumradius"):
        monkeypatch.setattr(f"curvcomp.circumradius.{name}", forbidden)
    monkeypatch.setattr("curvcomp.counterexamples.lp_circumradius", forbidden)
    for p in (1.5, 2.0, 4.0, math.inf):
        check_counterexample(p)


@pytest.mark.parametrize("p", (1.5, 3.0, 7.0))
def test_general_solver_agrees_with_the_axis_radius(p):
    result = check_counterexample(p)
    general = lp_circumradius(np.asarray(result.vertices), p)
    assert general.radius == pytest.approx(result.space_result.radius, abs=1e-8)
