"""Sampling consistency: a sample of a space that satisfies Curv <= kappa fails by at most its covering radius.

Let S be a sample of X with every point of X within h of S. A circumcenter of a triple in X lies
within h of a point of S, so r_S <= r_X + h, and the comparison triangle is the same. So when X
satisfies Curv <= kappa, the upper epsilon* of S is at most h, up to the verdict tolerance. At a
kappa below X's curvature, epsilon*/h passes 1, which is evidence against Curv <= kappa.
"""
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from curvcomp import CurvatureQuery, GeneratorSpec, certify, sample_space
from curvcomp.certify import defect_resolution
from curvcomp.generators import sphere_distances, sphere_points


def _sphere(n, seed):
    """The `sphere` sample at kappa = 1 and h, its covering radius on the unit sphere: the widest
    empty cap, whose angular radius is arccos(-offset) over the facets of the points' convex hull."""
    space = sample_space(GeneratorSpec(kind="sphere", kappa=1.0, n=n, seed=seed))
    pts = sphere_points(1.0, n, np.random.default_rng(seed))
    assert np.array_equal(space.dist, sphere_distances(pts, 1.0))
    return space, float(np.arccos(-ConvexHull(pts).equations[:, -1]).max())


def _euclidean(n, seed):
    """The `euclidean` sample in the unit square and an upper bound on h: the largest distance from
    a point of a 401 x 401 grid to the sample, plus the grid's half-diagonal."""
    space = sample_space(GeneratorSpec(kind="euclidean", n=n, seed=seed))
    axis = np.linspace(0.0, 1.0, 401)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    far = cKDTree(space.embedding.coords).query(grid)[0].max()
    return space, float(far + math.sqrt(2.0) / 2.0 / 400)


def _epsilon_star(space, kappa):
    return certify(space, CurvatureQuery(kappa=kappa, direction="upper")).epsilon_needed


@pytest.mark.parametrize("n", (60, 120))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("sample, kappa", ((_sphere, 1.0), (_euclidean, 0.0)))
def test_upper_defect_of_a_sample_is_at_most_its_covering_radius(sample, kappa, n, seed):
    space, h = sample(n, seed)
    assert _epsilon_star(space, kappa) <= h + math.ldexp(1.0, defect_resolution(space.diameter))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_sphere_sample_fails_flat_by_more_than_its_covering_radius(seed):
    # the sphere is not Curv <= 0: at n = 120 its epsilon*/h reads 1.19-1.26 at kappa = 0
    space, h = _sphere(120, seed)
    assert _epsilon_star(space, 0.0) / h > 1.1
