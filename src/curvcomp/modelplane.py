"""Geometry of the constant-curvature model planes.

Comparison-triangle placement, model distances, and the circumradius of three
model points (the right-hand side of the comparison inequality).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circumradius import CircumResult
from .metricspace import SideLengths, metric_tolerance

_OBTUSE_REL = 1e-12  # b^2 + c^2 - a^2 below this (times a^2) routes to the half-side branch
_THIN_REL = 1e-14  # Heron area below this (times a^2) counts as degenerate
# (sn, cs, arc) of the model plane by the sign of kappa, at unit curvature radius
_TRIG = {1.0: (np.sin, np.cos, np.arctan), -1.0: (np.sinh, np.cosh, np.arctanh)}


class ChartMismatchError(ValueError):
    pass


class TooLargeForModelError(ValueError):
    pass


@dataclass(frozen=True)
class Kappa:
    """Curvature parameter with its model-plane diameter rule."""

    value: float

    @property
    def diameter(self) -> float:
        return math.pi / math.sqrt(self.value) if self.value > 0 else math.inf


def kappa_value(kappa) -> float:
    """The float value of a curvature; raises ValueError unless it is finite."""
    k = kappa.value if isinstance(kappa, Kappa) else float(kappa)
    if not math.isfinite(k):
        raise ValueError(f"kappa must be finite, got {k}")
    return k


def model_perimeter_bound(k: float) -> float:
    """Perimeter below which a triangle has a comparison triangle in M_k: the
    great-circle length 2*pi/sqrt(k) less its metric tolerance; inf for k <= 0."""
    if k <= 0:
        return math.inf
    bound = 2.0 * math.pi / math.sqrt(k)
    return bound - metric_tolerance(bound)


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


def _minkowski(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def model_distance(p: ModelPoint, q: ModelPoint, kappa) -> float:
    """Geodesic distance between two model points in the chart matching kappa."""
    k = kappa_value(kappa)
    chart = chart_for(k)
    if p.chart != chart or q.chart != chart:
        raise ChartMismatchError(f"points in charts ({p.chart}, {q.chart}) do not match kappa={k}")
    if chart == "euclidean":
        return math.hypot(p.coords[0] - q.coords[0], p.coords[1] - q.coords[1])
    if chart == "sphere":
        radius = 1.0 / math.sqrt(k)
        dot = sum(a * b for a, b in zip(p.coords, q.coords)) / radius**2
        return radius * math.acos(max(-1.0, min(1.0, dot)))
    radius = 1.0 / math.sqrt(-k)
    dot = -_minkowski(p.coords, q.coords) / radius**2
    return radius * math.acosh(max(1.0, dot))


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
    sn, cs, _ = _TRIG[sign]
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
# Batched circumradius kernels over arrays of side triples (a >= b >= c).


def euclidean_circumradius_batch(a, b, c):
    """Minimum enclosing ball radius of a planar triangle with sides a >= b >= c.

    Obtuse, right, and near-degenerate triangles take half the longest side;
    acute triangles take abc / (4 * Area) with a numerically stable Heron area.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    a2 = a * a
    heron = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    area = 0.25 * np.sqrt(np.maximum(heron, 0.0))
    half_side = (b * b + c * c - a2) <= _OBTUSE_REL * a2
    thin = area < _THIN_REL * a2
    use_half = half_side | thin
    denom = np.where(use_half, 1.0, 4.0 * area)
    return np.where(use_half, 0.5 * a, a * b * c / denom)


def _curved_circumradius_batch(a, b, c, k: float):
    """Model circumradii for kappa != 0, and the mask of the half-side branch.

    Works on sides scaled by sqrt|kappa| with (sn, cs) = (sin, cos) on the
    sphere and (sinh, cosh) on the hyperboloid. The longest side's midpoint
    covers the triangle iff cs(b) + cs(c) >= 1 + cs(a) (sphere; <= on the
    hyperboloid), i.e. sn(b/2)^2 + sn(c/2)^2 <= sn(a/2)^2, the curved form of
    b^2 + c^2 <= a^2. Otherwise the circumcircle is the enclosing ball:
    tan R (tanh R) = 2 sn(a/2) sn(b/2) sn(c/2) / sqrt(sn s sn(s-a) sn(s-b) sn(s-c)).
    """
    sn, _, arc = _TRIG[math.copysign(1.0, k)]
    scale = math.sqrt(abs(k))
    x, y, z = a * scale, b * scale, c * scale
    ha, hb, hc = sn(0.5 * x), sn(0.5 * y), sn(0.5 * z)
    ha2 = ha * ha
    s = 0.5 * (x + (y + z))
    sa = 0.5 * np.maximum(z - (x - y), 0.0)
    sb = 0.5 * np.maximum(z + (x - y), 0.0)
    sc = 0.5 * np.maximum(x + (y - z), 0.0)
    root = np.sqrt(sn(s) * sn(sa) * sn(sb) * sn(sc))
    half_side = (hb * hb + hc * hc - ha2) <= _OBTUSE_REL * ha2
    thin = root < _THIN_REL * ha2
    use_half = half_side | thin
    ratio = np.where(use_half, 0.0, 2.0 * ha * hb * hc) / np.where(use_half, 1.0, root)
    return np.where(use_half, 0.5 * a, arc(ratio) / scale), use_half


def model_circumradius_batch(a, b, c, kappa):
    """Model circumradii for arrays of side triples (a >= b >= c elementwise)."""
    k = kappa_value(kappa)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if k == 0:
        return euclidean_circumradius_batch(a, b, c)
    return _curved_circumradius_batch(a, b, c, k)[0]


def euclidean_circumradius(sides) -> CircumResult:
    """Closed-form circumradius of a planar comparison triangle.

    The center witness is given in the canonical placement of
    comparison_triangle(sides, 0).
    """
    if not isinstance(sides, SideLengths):
        sides = SideLengths(*sides)
    a, b, c = sides.as_tuple()
    r = float(euclidean_circumradius_batch(np.array([a]), np.array([b]), np.array([c]))[0])
    if r == 0.5 * a:
        center = (0.5 * a, 0.0)  # midpoint of the longest placed side
    else:
        x2 = (a * a + b * b - c * c) / (2.0 * a)
        y2 = math.sqrt(max(b * b - x2 * x2, 0.0))
        cy = (x2 * x2 + y2 * y2 - a * x2) / (2.0 * y2)
        center = (0.5 * a, cy)
    return CircumResult(radius=r, center=center, attained=True, evaluations=1)


def model_circumradius(sides, kappa) -> CircumResult:
    """Minimum enclosing model-ball radius of the three comparison vertices.

    The radius is model_circumradius_batch's; the center witness is given in
    the canonical placement of comparison_triangle(sides, kappa): the midpoint
    of the longest side on the half-side branch, else the circumcenter, the
    chart point orthogonal (Minkowski-orthogonal on the hyperboloid) to the
    plane through the three vertices.
    """
    if not isinstance(sides, SideLengths):
        sides = SideLengths(*sides)
    k = kappa_value(kappa)
    _check_model_size(sides, k)
    if k == 0:
        return euclidean_circumradius(sides)
    r, half = _curved_circumradius_batch(*(np.array([s]) for s in sides.as_tuple()), k)
    tri = comparison_triangle(sides, k)
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
    return CircumResult(radius=float(r[0]), center=center, attained=True, evaluations=1)
