"""The l_p plane triangles that decide the upper curvature condition.

For p != 2, inf a right comparison triangle with legs sqrt(2) and hypotenuse 2
has circumradius exactly 1, while the l_p triangle realizing those side
lengths has circumradius strictly above 1.

The l_p min-max is convex and the triangle is mirror-symmetric, so a
circumcenter lies on its symmetry axis. There the radius is the larger of
one increasing and one decreasing distance. Bisection brackets their
crossing between two adjacent floats, as it does the apex coordinate for
1 < p < 2, and the radius' error bound comes from the gap between the two
distances at the better end, the evaluation rounding and the apex
coordinate. `check_counterexample` is plain float arithmetic, its sides
the expression that scipy's cdist evaluates, so it loads no scipy module.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .circumradius import CircumResult, linf_circumcenter
from .circumradius import lp_circumradius  # noqa: F401  (re-exported name that bench/spans.py wraps)
from .generators import lp_distances
from .metricspace import Embedding, FiniteMetricSpace, InvalidPError, SideLengths, check_p, validate_metric
from .modelplane import model_circumradius_batch


@dataclass(frozen=True)
class CounterexampleResult:
    p: float
    vertices: tuple[tuple[float, float], ...]  # (A', B, C)
    sides: SideLengths
    comparison_radius: float
    space_result: CircumResult
    margin: float  # space radius minus comparison radius
    margin_error: float  # bound on |margin - exact margin| of the exact triangle


def counterexample_triangle(p: float) -> tuple[tuple[float, float], ...]:
    """Vertices (A', B, C) of the isosceles l_p triangle with sides sqrt(2), sqrt(2), 2.

    p >= 2 (or inf): B = (-1, 0), C = (1, 0), A' = (0, y) on the axis with
    l_p distance sqrt(2) to both. 1 < p < 2: B = (-r, r), C = (r, -r) on the
    l_p unit sphere with r = 2^(-1/p), and A' = (r', r') solved so that the
    equal sides reach sqrt(2). InvalidPError for p <= 1 and for p >= 1024.
    """
    check_p(p)
    if p == math.inf:
        return ((0.0, math.sqrt(2.0)), (-1.0, 0.0), (1.0, 0.0))
    if p >= 1024.0:  # the side 2 = (2^p)^(1/p) needs 2^p, which overflows float64
        raise InvalidPError(f"p={p} is too large: 2^p overflows float64")
    if p >= 2.0:
        y = (2.0 ** (p / 2.0) - 1.0) ** (1.0 / p)
        return ((0.0, y), (-1.0, 0.0), (1.0, 0.0))
    r = 2.0 ** (-1.0 / p)
    target = 2.0 ** (p / 2.0)
    _, s, _ = _bisect(lambda s: (s + r) ** p + (s - r) ** p - target, r, 10.0)
    return ((s, s), (-r, r), (r, -r))


def _bisect(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Halve [lo, hi] until lo and hi are adjacent floats, keeping
    f(lo) < 0 <= f(hi), which the caller guarantees at the start.

    Returns (lo, hi, evaluations of f). The midpoint of two floats with one
    strictly between them rounds strictly between them, so each step
    shrinks the bracket and the loop stops: after about 52 + log2(hi / root)
    steps from lo = 0 or an lo near the root, and at most about 1080 on
    [0, 10], where the root may be subnormal.
    """
    steps = 0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        steps += 1
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, steps


# Rounding allowance, in units of the radius' last place, for evaluating the
# two axis distances and the closed-form or root-found vertex coordinates.
_ULPS = 8


def _axis_circumradius(p: float, verts) -> tuple[CircumResult, float]:
    """Circumradius of `verts`, the triangle `counterexample_triangle(p)`, and
    a bound on its distance from the exact triangle's circumradius.

    p >= 2: centers (0, t), at distance g(t) from B and C and h(t) = y - t
    from A'. 1 < p < 2: centers (u, u), at distance g(u) from B and C and
    h(u) = 2^(1/p) (s - u) from A'. g increases and h decreases from 0, so
    the exact radius lies between min(g, h) and max(g, h) at every center.
    The returned center is the end with the smaller max(g, h) of the pair of
    adjacent floats that brackets their crossing, and `evaluations` counts
    the evaluations of g - h. p = inf is exact.
    """
    if math.isinf(p):
        return linf_circumcenter(verts), 0.0
    q = 1.0 / p
    apex_shift = 0.0
    if p >= 2.0:
        y = end = verts[0][1]

        def g(t):
            return (1.0 + t**p) ** q

        def h(t):
            return y - t

    else:
        s, r, w = verts[0][0], verts[2][0], 2.0**q
        end = s

        def g(u):
            return ((u + r) ** p + abs(u - r) ** p) ** q

        def h(u):
            return w * (s - u)

        # s solves (s + r)^p + (s - r)^p = 2^(p/2) only to the nearest
        # float. That equation's slope in s is at least p, and h moves by
        # w per unit of s, so its residual bounds the shift of the radius.
        residual = (s + r) ** p + (s - r) ** p - 2.0 ** (p / 2.0)
        apex_shift = w * (abs(residual) + _ULPS * sys.float_info.epsilon) / p
    center, evaluations = 0.0, 1  # h(0) <= g(0): the radius is g(0), at the axis' end
    if g(0.0) - h(0.0) < 0.0:
        lo, hi, steps = _bisect(lambda t: g(t) - h(t), 0.0, end)
        center = min((lo, hi), key=lambda t: max(g(t), h(t)))
        evaluations += steps
    gc, hc = g(center), h(center)
    radius = max(gc, hc)
    error = abs(gc - hc) + _ULPS * sys.float_info.epsilon * radius + apex_shift
    point = (0.0, center) if p >= 2.0 else (center, center)
    return CircumResult(radius=radius, center=point, evaluations=evaluations), error


def _lp_side(u, v, p: float) -> float:
    """l_p distance of two plane points, as the expression scipy's cdist
    evaluates for "minkowski" (and "chebyshev" at p = inf), so bitwise its value."""
    dx, dy = abs(u[0] - v[0]), abs(u[1] - v[1])
    if math.isinf(p):
        return max(dx, dy)
    return (dx**p + dy**p) ** (1.0 / p)


def check_counterexample(p: float) -> CounterexampleResult:
    """Build the triangle for p and measure its circumradius against the plane.

    `margin_error` bounds the margin's distance from that of the exact
    triangle with sides sqrt(2), sqrt(2), 2, whose comparison radius is 1.
    The comparison radius is the plane kernel's on the three sides; no
    comparison triangle is placed.
    """
    verts = counterexample_triangle(p)
    sides = SideLengths(*(_lp_side(verts[i], verts[j], p) for i, j in ((0, 1), (0, 2), (1, 2))))
    comparison = float(model_circumradius_batch(*([s] for s in sides.as_tuple()), 0.0)[0])
    result, error = _axis_circumradius(p, verts)
    return CounterexampleResult(
        p=p,
        vertices=verts,
        sides=sides,
        comparison_radius=comparison,
        space_result=result,
        margin=result.radius - comparison,
        margin_error=error + abs(comparison - 1.0),
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
