"""Geometry of the constant-curvature model planes.

Comparison-triangle placement, model distances, distance comparison curves,
and the circumradius of three model points (the right-hand side of the
comparison inequality).

One circumradius kernel serves every kappa, the plane being its kappa = 0 row;
it needs no rule for thin triangles, and raises ValueError naming kappa where
float64 cannot hold its steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circumradius import CircumResult
from .metricspace import InvalidParameterError, SideLengths, metric_tolerance

_OBTUSE_REL = 1e-12  # b^2 + c^2 - a^2 below this (times a^2) routes to the half-side branch
# (sn, cs) of the model plane by the sign of kappa, at unit curvature radius
_TRIG = {1.0: (np.sin, np.cos), -1.0: (np.sinh, np.cosh)}
# the circumradius kernel's rows by the sign of kappa: sn of half its argument, and
# arc. The plane's row is sn = arc = identity with the halvings left out: its formula
# is homogeneous, so that doubles tan R, and its arc halves it back; both are exact.
_KERNEL = {
    1.0: (lambda v: np.sin(0.5 * v), np.arctan),
    -1.0: (lambda v: np.sinh(0.5 * v), np.arctanh),
    0.0: (lambda v: v, lambda v: 0.5 * v),
}


class ChartMismatchError(ValueError):
    pass


class TooLargeForModelError(ValueError):
    pass


def kappa_value(kappa) -> float:
    """The float value of a curvature; raises ValueError unless it is finite."""
    k = float(kappa)
    if not math.isfinite(k):
        raise ValueError(f"kappa must be finite, got {k}")
    return k


def model_perimeter_bound(k: float, max_perimeter: float | None = None) -> float:
    """Perimeter below which a triangle has a comparison triangle in M_k: the
    great-circle length 2*pi/sqrt(k) less its metric tolerance; inf for k <= 0.

    Given `max_perimeter`, which must be positive and finite, the lesser of the two.
    """
    if max_perimeter is not None and not 0 < max_perimeter < math.inf:
        raise ValueError(f"max_perimeter must be positive and finite, got {max_perimeter}")
    if k <= 0:
        bound = math.inf
    else:
        bound = 2.0 * math.pi / math.sqrt(k)
        bound -= metric_tolerance(bound)
    return bound if max_perimeter is None else min(bound, max_perimeter)


def chart_for(kappa) -> str:
    k = kappa_value(kappa)
    if k > 0:
        return "sphere"
    if k < 0:
        return "hyperboloid"
    return "euclidean"


@dataclass(frozen=True)
class ModelPoint:
    """A model-plane point via its embedding chart coordinates."""

    chart: str  # euclidean | sphere | hyperboloid
    coords: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonTriangle:
    kappa: float
    vertices: tuple[ModelPoint, ModelPoint, ModelPoint]


def model_distance(p: ModelPoint, q: ModelPoint, kappa) -> float:
    """Geodesic distance between two model points in the chart matching kappa."""
    k = kappa_value(kappa)
    chart = chart_for(k)
    if p.chart != chart or q.chart != chart:
        raise ChartMismatchError(f"points in charts ({p.chart}, {q.chart}) do not match kappa={k}")
    if chart == "euclidean":
        return math.hypot(p.coords[0] - q.coords[0], p.coords[1] - q.coords[1])
    # cs(d / R): the dot product on the sphere, minus the Minkowski product on the hyperboloid
    sign = math.copysign(1.0, k)
    radius = 1.0 / math.sqrt(abs(k))
    u, v = p.coords, q.coords
    cs = sign * ((u[0] * v[0] + u[1] * v[1]) + sign * (u[2] * v[2])) / radius**2
    return radius * (math.acos(max(-1.0, min(1.0, cs))) if k > 0 else math.acosh(max(1.0, cs)))


def distance_comparison_curve(theta: float, t_grid, kappa=0.0) -> np.ndarray:
    """Normalized divergence of two unit-speed rays at angle theta in M_kappa.

    Returns g(t) = d(exp(tX), exp(tY)) / (t * |X - Y|) for each t in t_grid,
    computed by the closed-form model distance: 1 in the plane, and on the
    sphere (kappa > 0) or the hyperboloid (kappa < 0) g - 1 has the opposite
    sign of kappa for small t.
    """
    k = kappa_value(kappa)
    if not 0.0 < theta < math.pi:
        raise InvalidParameterError("theta must lie in (0, pi)")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0.0):
        raise InvalidParameterError("t values must be positive")
    if k == 0:
        return np.ones_like(t)
    if k > 0 and np.any(t >= math.pi / (2.0 * math.sqrt(k))):
        raise InvalidParameterError("t outside the spherical chart")
    sign = math.copysign(1.0, k)
    sn, cs = _TRIG[sign]
    radius = 1.0 / math.sqrt(abs(k))
    a = t / radius
    # cos (cosh) of the scaled distance, by the law of cosines of M_kappa at the apex
    cos_d = cs(a) ** 2 + sign * sn(a) ** 2 * math.cos(theta)
    arc = np.arccos(np.clip(cos_d, -1.0, 1.0)) if k > 0 else np.arccosh(np.clip(cos_d, 1.0, None))
    return radius * arc / (t * math.sqrt(2.0 - 2.0 * math.cos(theta)))


def _check_model_size(sides: SideLengths, k: float) -> None:
    bound = model_perimeter_bound(k)
    if sides.perimeter >= bound:
        raise TooLargeForModelError(f"perimeter {sides.perimeter} exceeds model bound {bound} for kappa={k}")


def comparison_triangle(sides, kappa) -> ComparisonTriangle:
    """Place a comparison triangle with the given side lengths in the model plane.

    Canonical placement: first vertex at the chart origin (apex/pole), second
    along a fixed axis, third in the upper half of the chart, so the output is
    deterministic. Pairwise model distances reproduce the sides; vertex order
    is descending side length: d(v0,v1)=a, d(v0,v2)=b, d(v1,v2)=c.
    """
    if not isinstance(sides, SideLengths):
        sides = SideLengths(*sides)
    k = kappa_value(kappa)
    _check_model_size(sides, k)
    a, b, c = sides.as_tuple()

    if k == 0:
        x2 = (a * a + b * b - c * c) / (2.0 * a) if a > 0 else 0.0
        y2 = math.sqrt(max(b * b - x2 * x2, 0.0))
        verts = (
            ModelPoint("euclidean", (0.0, 0.0)),
            ModelPoint("euclidean", (a, 0.0)),
            ModelPoint("euclidean", (x2, y2)),
        )
        return ComparisonTriangle(k, verts)

    sign = math.copysign(1.0, k)
    sn, cs = _TRIG[sign]
    radius = 1.0 / math.sqrt(abs(k))
    alpha, beta, gamma_side = a / radius, b / radius, c / radius
    denom = sn(alpha) * sn(beta)
    if denom > 0:
        cosg = sign * (cs(gamma_side) - cs(alpha) * cs(beta)) / denom
    else:
        cosg = 1.0
    cosg = max(-1.0, min(1.0, cosg))
    sing = math.sqrt(max(1.0 - cosg * cosg, 0.0))
    chart = chart_for(k)
    verts = (
        ModelPoint(chart, (0.0, 0.0, radius)),
        ModelPoint(chart, (radius * sn(alpha), 0.0, radius * cs(alpha))),
        ModelPoint(chart, (radius * sn(beta) * cosg, radius * sn(beta) * sing, radius * cs(beta))),
    )
    return ComparisonTriangle(k, verts)


# ---------------------------------------------------------------------------
# One circumradius kernel, for every kappa, over arrays of side triples (a >= b >= c).


def _model_circumradius_batch(a, b, c, k: float):
    """Model circumradii, and the mask of the half-side branch, for any kappa.

    Works on sides scaled by sqrt|kappa| with (sn, arc) = (sin, arctan) on the
    sphere, (sinh, arctanh) on the hyperboloid, and identity with scale 1 in the
    plane, the kappa = 0 row of _KERNEL. The longest side's midpoint covers the
    triangle iff sn(b/2)^2 + sn(c/2)^2 <= sn(a/2)^2, the curved b^2 + c^2 <= a^2.
    Otherwise the circumcircle is the enclosing ball:
    tan R (tanh R, R) = 2 sn(a/2) sn(b/2) sn(c/2) / sqrt(sn s sn(s-a) sn(s-b) sn(s-c)),
    in the plane bitwise abc / (4 Area) with Heron's area.
    No thin-triangle rule: off the half-side branch, b^2 + c^2 > (1 + 1e-12) a^2
    gives c > 1e-6 a, b > a / sqrt 2 and an angle of 60 to 90 degrees between
    them, so the area is at least 3e-7 a^2.

    Float64 range: a step that overflows, divides by zero or is invalid raises
    ValueError naming kappa, never a radius of inf, nan or 0. On the
    hyperboloid, once tanh R rounds to 1 (sqrt|kappa| R near 19), or the four
    sinh's product overflows (scaled perimeter past about 710; 1420 if
    collinear); in the plane, once Heron's product overflows (sides past about
    1e77) or, off the half-side branch, underflows to 0 (below about 1e-81).
    """
    sn_half, arc = _KERNEL[float(np.sign(k))]
    scale = math.sqrt(abs(k)) or 1.0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # scaled sides, where a scale of 1 changes nothing (kappa = 0 or +-1)
            x, y, z = (a, b, c) if scale == 1.0 else (a * scale, b * scale, c * scale)
            # twice s, s - a, s - b and s - c; with a >= b >= c only s - a can fall below 0
            xy = x - y
            root = sn_half(x + (y + z)) * sn_half(np.maximum(z - xy, 0.0))
            root = np.sqrt(root * sn_half(z + xy) * sn_half(x + (y - z)))
            ha, hb, hc = sn_half(x), sn_half(y), sn_half(z)
            ha2 = ha * ha
            half = (hb * hb + hc * hc - ha2) <= _OBTUSE_REL * ha2
            ratio = np.where(half, 0.0, 2.0 * ha * hb * hc) / np.where(half, 1.0, root)
            return np.where(half, 0.5 * a, arc(ratio) / scale), half
    except FloatingPointError as exc:
        raise ValueError(f"model circumradius at kappa={k} leaves the float64 range: {exc}") from None


def model_circumradius_batch(a, b, c, kappa):
    """Model circumradii for arrays of side triples (a >= b >= c elementwise)."""
    k = kappa_value(kappa)
    return _model_circumradius_batch(*(np.asarray(v, dtype=float) for v in (a, b, c)), k)[0]


def euclidean_circumradius(sides) -> CircumResult:
    """model_circumradius(sides, 0), whose center witness is a point (x, y) in
    the canonical placement of comparison_triangle(sides, 0)."""
    return model_circumradius(sides, 0.0)


def model_circumradius(sides, kappa) -> CircumResult:
    """Minimum enclosing model-ball radius of the three comparison vertices.

    The radius and the half-side branch are the kernel's; the center witness is
    given in the canonical placement of comparison_triangle(sides, kappa): the
    midpoint of the longest side on the half-side branch, else the
    circumcenter, which in the plane is (x, y) and otherwise the chart point
    orthogonal (Minkowski-orthogonal on the hyperboloid) to the plane through
    the three vertices.
    """
    if not isinstance(sides, SideLengths):
        sides = SideLengths(*sides)
    k = kappa_value(kappa)
    _check_model_size(sides, k)
    r, half = _model_circumradius_batch(*(np.array([s]) for s in sides.as_tuple()), k)
    tri = comparison_triangle(sides, k)
    if k == 0:
        a = sides.a
        x2, y2 = tri.vertices[2].coords
        cy = 0.0 if half[0] else (x2 * x2 + y2 * y2 - a * x2) / (2.0 * y2)
        return CircumResult(radius=float(r[0]), center=(0.5 * a, cy), evaluations=1)
    v0, v1, v2 = (np.array(v.coords) for v in tri.vertices)
    if half[0]:
        u = v0 + v1
    else:
        u = np.cross(v1 - v0, v2 - v0)
        if k < 0:
            u[2] = -u[2]  # the Minkowski flip
    # scale onto the chart, on the sheet (hemisphere) with a positive last coordinate
    norm = math.sqrt(abs(u[0] * u[0] + u[1] * u[1] + math.copysign(1.0, k) * u[2] * u[2]))
    center = ModelPoint(chart_for(k), tuple(math.copysign(1.0 / (math.sqrt(abs(k)) * norm), u[2]) * u))
    return CircumResult(radius=float(r[0]), center=center, evaluations=1)
