"""The l_p triangles that separate the upper comparison condition from CAT(0)."""
import math
import re

import numpy as np
import pytest

from curvcomp import (
    CurvatureQuery,
    certify,
    check_counterexample,
    counterexample_space,
    counterexample_triangle,
)
from curvcomp.circumradius import InvalidPError

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
