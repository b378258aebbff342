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
from curvcomp.generators import hyperboloid_distances, hyperboloid_points, sphere_distances, sphere_points


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


def _hyperbolic(n, seed):
    """The `hyperbolic` sample at kappa = -1 and an upper bound on h over the geodesic disk of
    radius R = 2 that it samples. A 401 x 401 grid over the exponential chart's square [-R, R]^2,
    of half-diagonal c, has a point within chart distance c of every point of the disk, and these
    grid points lie within R + c of the apex. Lifted to the hyperboloid, the largest distance from
    one of them to the sample bounds h once c * sinh(R + c) / (R + c) is added: at curvature -1
    the chart stretches lengths by at most sinh(rho) / rho within chart radius rho."""
    radius = 2.0
    space = sample_space(GeneratorSpec(kind="hyperbolic", kappa=-1.0, n=n, seed=seed, chart_radius=radius))
    pts = hyperboloid_points(-1.0, n, np.random.default_rng(seed), radius)
    assert np.array_equal(space.dist, hyperboloid_distances(pts, -1.0))
    axis = np.linspace(-radius, radius, 401)
    c = math.sqrt(2.0) * radius / 400
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    rho = np.hypot(grid[:, 0], grid[:, 1])
    keep = rho <= radius + c
    rho, phi = rho[keep], np.arctan2(grid[keep, 1], grid[keep, 0])
    lifted = np.stack([np.sinh(rho) * np.cos(phi), np.sinh(rho) * np.sin(phi), np.cosh(rho)], axis=1)
    # cosh of the distance to the nearest sample point: the least -<g, s> in the Minkowski form
    nearest = np.concatenate([
        (np.outer(block[:, 2], pts[:, 2]) - block[:, :2] @ pts[:, :2].T).min(axis=1)
        for block in np.array_split(lifted, 32)
    ])
    far = float(np.arccosh(nearest.max()))
    return space, far + c * math.sinh(radius + c) / (radius + c)


def _epsilon_star(space, kappa):
    return certify(space, CurvatureQuery(kappa=kappa, direction="upper")).epsilon_needed


@pytest.mark.parametrize("n", (60, 120))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("sample, kappa", ((_sphere, 1.0), (_euclidean, 0.0), (_hyperbolic, -1.0)))
def test_upper_defect_of_a_sample_is_at_most_its_covering_radius(sample, kappa, n, seed):
    space, h = sample(n, seed)
    assert _epsilon_star(space, kappa) <= h + math.ldexp(1.0, defect_resolution(space.diameter))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_sphere_sample_fails_flat_by_more_than_its_covering_radius(seed):
    # the sphere is not Curv <= 0: at n = 120 its epsilon*/h reads 1.19-1.26 at kappa = 0
    space, h = _sphere(120, seed)
    assert _epsilon_star(space, 0.0) / h > 1.1
