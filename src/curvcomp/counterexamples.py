"""The l_p plane triangles that decide the upper curvature condition.

For p != 2, inf a right comparison triangle with legs sqrt(2) and hypotenuse 2
has circumradius exactly 1, while the l_p triangle realizing those side
lengths has circumradius strictly above 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .circumradius import CircumResult, InvalidPError, lp_circumradius
from .generators import lp_distances
from .metricspace import Embedding, FiniteMetricSpace, SideLengths, validate_metric
from .modelplane import euclidean_circumradius


@dataclass(frozen=True)
class CounterexampleResult:
    p: float
    vertices: tuple[tuple[float, float], ...]  # (A', B, C)
    sides: SideLengths
    comparison_radius: float
    space_result: CircumResult
    margin: float  # space radius minus comparison radius

    @property
    def violates_upper_bound(self) -> bool:
        return self.margin > 0.0


def counterexample_triangle(p: float) -> tuple[tuple[float, float], ...]:
    """Vertices (A', B, C) of the isosceles l_p triangle with sides sqrt(2), sqrt(2), 2.

    p >= 2 (or inf): B = (-1, 0), C = (1, 0), A' = (0, y) on the axis with
    l_p distance sqrt(2) to both. 1 < p < 2: B = (-r, r), C = (r, -r) on the
    l_p unit sphere with r = 2^(-1/p), and A' = (r', r') solved so that the
    equal sides reach sqrt(2). InvalidPError for p <= 1 and for p >= 1024.
    """
    if math.isinf(p):
        return ((0.0, math.sqrt(2.0)), (-1.0, 0.0), (1.0, 0.0))
    if not p > 1.0:
        raise InvalidPError(f"p must exceed 1 (or be inf), got {p}")
    if p >= 1024.0:  # the side 2 = (2^p)^(1/p) needs 2^p, which overflows float64
        raise InvalidPError(f"p={p} is too large: 2^p overflows float64")
    if p >= 2.0:
        y = (2.0 ** (p / 2.0) - 1.0) ** (1.0 / p)
        return ((0.0, y), (-1.0, 0.0), (1.0, 0.0))
    r = 2.0 ** (-1.0 / p)
    target = 2.0 ** (p / 2.0)
    root = brentq(lambda rp: (rp + r) ** p + (rp - r) ** p - target, r, 10.0, xtol=1e-15)
    return ((root, root), (-r, r), (r, -r))


def check_counterexample(p: float) -> CounterexampleResult:
    """Build the triangle for p and measure its circumradius against the plane."""
    verts = counterexample_triangle(p)
    pts = np.asarray(verts, dtype=float)
    d = lp_distances(pts, p)
    sides = SideLengths(d[0, 1], d[0, 2], d[1, 2])
    comparison = euclidean_circumradius(sides).radius
    result = lp_circumradius(pts, p)
    return CounterexampleResult(
        p=p,
        vertices=verts,
        sides=sides,
        comparison_radius=comparison,
        space_result=result,
        margin=result.radius - comparison,
    )


def counterexample_space(p: float, fillers: int = 2, seed: int = 0) -> FiniteMetricSpace:
    """A small embedded l_p space containing the counterexample triangle.

    Points are labeled A', B, C, F1, ...; filler points are seeded uniform
    samples in the triangle's bounding box. The space carries its embedding,
    so candidate sets can be augmented with continuous coordinate points.
    """
    verts = np.asarray(counterexample_triangle(p), dtype=float)
    rng = np.random.default_rng(seed)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    extra = rng.uniform(lo, hi, size=(fillers, 2))
    pts = np.vstack([verts, extra])
    labels = ["A'", "B", "C"] + [f"F{i + 1}" for i in range(fillers)]
    return validate_metric(
        lp_distances(pts, p), labels=labels, embedding=Embedding(pts, p)
    )
