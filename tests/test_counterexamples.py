"""The l_p triangles that separate the upper comparison condition from CAT(0)."""
import math
import re
import sys

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
    model_circumradius,
)
from curvcomp import counterexamples
from curvcomp.metricspace import InvalidPError, lp_distances

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
    assert result.margin > result.margin_error
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
    # -inf is no norm exponent, unlike inf
    with pytest.raises(InvalidPError):
        check_counterexample(-math.inf)
    with pytest.raises(InvalidPError):
        counterexample_space(-math.inf)
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
    reach = lp_distances(pts, pts, p)[3, :3]
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


# p - 1 log-spaced on [1e-3, 1), p log-spaced on (2, 24], the two norms
# without a violation, and large exponents up to the 2^p overflow at 1024
GRID = (
    [1.0 + float(x) for x in np.logspace(-3.0, 0.0, 60, endpoint=False)]
    + [float(x) for x in np.logspace(math.log10(2.0), math.log10(24.0), 91)[1:]]
    + [2.0, 50.0, 1000.0, 1023.9, math.inf]
)


def test_sides_are_bitwise_cdist_and_comparison_radius_is_one():
    from scipy.spatial.distance import cdist

    for p in GRID:
        result = check_counterexample(p)
        pts = np.asarray(result.vertices)
        d = cdist(pts, pts, "chebyshev") if math.isinf(p) else cdist(pts, pts, "minkowski", p=p)
        oracle = sorted((d[0, 1], d[0, 2], d[1, 2]), reverse=True)
        assert list(result.sides.as_tuple()) == oracle, p
        # the sides round, so the flat radius of (a, b, b) with a^2 = 2 b^2 can
        # miss 1 by an ulp; margin_error carries that miss
        assert abs(result.comparison_radius - 1.0) <= sys.float_info.epsilon, p
        assert result.margin_error >= abs(result.comparison_radius - 1.0), p


def test_scalar_side_is_bitwise_the_evaluator():
    # _lp_side keeps counterexample free of scipy; every other l_p distance comes from
    # lp_distances, so the two must agree to the bit. p - 1 log-spaced on [1e-6, 1), p
    # log-spaced on (2, 1023.9], and the two norms without a violation: 652 exponents
    grid = (
        [1.0 + float(x) for x in np.logspace(-6.0, 0.0, 300, endpoint=False)]
        + [float(x) for x in np.logspace(math.log10(2.0), math.log10(1023.9), 351)[1:]]
        + [2.0, math.inf]
    )
    assert len(set(grid)) == 652
    for p in grid:
        verts = counterexample_triangle(p)
        d = lp_distances(verts, verts, p)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert counterexamples._lp_side(verts[i], verts[j], p) == d[i, j], (p, i, j)


def test_comparison_radius_places_no_comparison_triangle(monkeypatch):
    # the radius is the plane kernel's on the three sides, bitwise model_circumradius's
    want = {p: model_circumradius(check_counterexample(p).sides, 0.0) for p in GRID}

    def forbidden(*args, **kwargs):
        raise AssertionError("placed a comparison triangle for a radius")

    monkeypatch.setattr("curvcomp.modelplane.comparison_triangle", forbidden)
    for p in GRID:
        assert check_counterexample(p).comparison_radius == want[p], p


def _axis_functions(p, verts):
    """(g - h, max(g, h)) on the symmetry axis, as the solver evaluates them."""
    q = 1.0 / p
    if p >= 2.0:
        y = verts[0][1]
        return lambda t: (1.0 + t**p) ** q - (y - t), lambda t: max((1.0 + t**p) ** q, y - t)
    s, r, w = verts[0][0], verts[2][0], 2.0**q

    def g(u):
        return ((u + r) ** p + abs(u - r) ** p) ** q

    return lambda u: g(u) - w * (s - u), lambda u: max(g(u), w * (s - u))


def test_apex_is_the_upper_end_of_an_adjacent_float_bracket():
    for p in (p for p in GRID if 1.0 < p < 2.0):
        s = counterexample_triangle(p)[0][0]
        r = 2.0 ** (-1.0 / p)

        def f(x):
            return (x + r) ** p + (x - r) ** p - 2.0 ** (p / 2.0)

        assert f(math.nextafter(s, 0.0)) < 0.0 <= f(s), p


def test_axis_center_ends_an_adjacent_float_bracket_and_counts_its_evaluations(monkeypatch):
    bisect, calls = counterexamples._bisect, []

    def counting(f, lo, hi):
        def counted(x):
            calls.append(x)
            return f(x)

        return bisect(counted, lo, hi)

    monkeypatch.setattr(counterexamples, "_bisect", counting)
    ends = []
    for p in (p for p in GRID if not math.isinf(p)):
        verts = counterexample_triangle(p)
        calls.clear()
        result, _ = counterexamples._axis_circumradius(p, verts)
        gap, radius = _axis_functions(p, verts)
        c = result.center[1] if p >= 2.0 else result.center[0]
        assert result.evaluations == 1 + len(calls) < 1100, p
        assert result.radius == radius(c), p
        if not calls:  # h(0) <= g(0): the radius is attained at the axis' end
            assert c == 0.0 and gap(0.0) >= 0.0, p
            ends.append(p)
            continue
        lo, hi = (c, math.nextafter(c, math.inf)) if gap(c) < 0.0 else (math.nextafter(c, 0.0), c)
        assert gap(lo) < 0.0 <= gap(hi), p
        assert radius(c) <= radius(hi if c == lo else lo), p
    assert ends == [2.0]  # g(0) = h(0) = 1 in the Euclidean plane; every other p bisects
