"""Geometry of the constant-curvature model planes M_kappa.

Comparison-triangle placement, the circumradius of a comparison triangle (the
right-hand side of the comparison inequality) from one kernel for every kappa,
the plane being its kappa = 0 row, and the Jung bracket around that radius,
with which the triple scan drops triples before the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circumradius import CircumResult
from .metricspace import SideLengths

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
_CURVED_FROM = 2.0**-200  # sqrt|kappa| * longest side from which a kernel call takes a curved row

BRACKET_MARGIN = 2.0**-40  # relative slack of the bracket over the kernel's rounding
# sqrt|kappa| * longest side from which the bracket is not used: on random triangles the
# hyperbolic kernel's relative error against mpmath is at most 1.4e-13 below 8, 8.6e-13
# below 10 and 1e-10 below 16
_HYPERBOLIC_SIDE = 8.0
# on the sphere three sides stay this far (relative) below the great circle: within 1e-9 of it
# the kernel's error on near-equilateral triangles reaches 1.3e-12, past the margin
_SPHERE_SLACK = 2.0**-20


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
    great-circle length L = 2*pi/sqrt(k) less 1e-9 * (1 + L); inf for k <= 0.
    The slack is not `metric_tolerance(L)`, which has no absolute part, because
    `bench/refs.py` recounts the benchmark's skipped triples at this cap.

    Given `max_perimeter`, which must be positive and finite, the lesser of the two.
    """
    if max_perimeter is not None and not 0 < max_perimeter < math.inf:
        raise ValueError(f"max_perimeter must be positive and finite, got {max_perimeter}")
    if k <= 0:
        bound = math.inf
    else:
        bound = 2.0 * math.pi / math.sqrt(k)
        bound -= 1e-9 * (1.0 + bound)
    return bound if max_perimeter is None else min(bound, max_perimeter)


@dataclass(frozen=True)
class ModelPoint:
    """A model-plane point by its chart coordinates; the chart is its triangle's kappa."""

    coords: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonTriangle:
    kappa: float
    vertices: tuple[ModelPoint, ModelPoint, ModelPoint]


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
        return ComparisonTriangle(k, (ModelPoint((0.0, 0.0)), ModelPoint((a, 0.0)), ModelPoint((x2, y2))))

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
    verts = (
        ModelPoint((0.0, 0.0, radius)),
        ModelPoint((radius * sn(alpha), 0.0, radius * cs(alpha))),
        ModelPoint((radius * sn(beta) * cosg, radius * sn(beta) * sing, radius * cs(beta))),
    )
    return ComparisonTriangle(k, verts)


# ---------------------------------------------------------------------------
# One circumradius kernel, for every kappa, over arrays of side triples (a >= b >= c).


def model_circumradius_batch(a, b, c, kappa):
    """Model circumradii for arrays of side triples (a >= b >= c elementwise), for any kappa.

    Works on sides scaled by sqrt|kappa| with (sn, arc) = (sin, arctan) on the
    sphere, (sinh, arctanh) on the hyperboloid, and identity with scale 1 in the
    plane, the kappa = 0 row of _KERNEL. A call whose longest side times
    sqrt|kappa| is below _CURVED_FROM = 2^-200 takes the plane row too: the
    curved rows agree with it to 7e-16 down to there and lose digits below.
    The longest side's midpoint covers the triangle iff
    sn(b/2)^2 + sn(c/2)^2 <= sn(a/2)^2, the curved b^2 + c^2 <= a^2, and its
    radius is a / 2. The kernel decides this half-side branch first, from the
    three sn, and evaluates the rest only on the triangles off it, taking their
    sides and sn values, so a call's temporaries past the three sn are the size
    of the off-branch share. There the circumcircle is the enclosing ball:
    tan R (tanh R, R) = 2 sn(a/2) sn(b/2) sn(c/2) / sqrt(sn s sn(s-a) sn(s-b) sn(s-c)),
    in the plane bitwise abc / (4 Area) with Heron's area. Each radius is
    bitwise that of one pass that evaluates both for every triangle.
    No thin-triangle rule: off the half-side branch, b^2 + c^2 > (1 + 1e-12) a^2
    gives c > 1e-6 a, b > a / sqrt 2 and an angle of 60 to 90 degrees between
    them, so the area is at least 3e-7 a^2.

    Float64 range: a step that overflows, divides by zero or is invalid raises
    ValueError naming kappa, never a radius of inf, nan or 0. Every triangle
    raises once sn(a/2)^2 overflows (sqrt|kappa| a past about 711 on the
    hyperboloid, a past about 1.3e154 in the plane). Off the half-side branch,
    on the hyperboloid also once tanh R rounds to 1 (sqrt|kappa| R near 19), or
    the four sinh's product overflows (scaled perimeter past about 710); in the
    plane, once Heron's product overflows (sides past about 1e77) or underflows
    to 0 (below about 1e-81).
    Underflow is not trapped, so small sides can answer silently wrong: plane
    sides from about 1e-81 to 1e-77 lose digits, below about 1e-162 every plane
    triangle takes the half-side branch, and in a call that keeps the curved
    rows, a triangle loses digits once sqrt|kappa| a falls below about 1e-77.
    """
    k = kappa_value(kappa)
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    scale = math.sqrt(abs(k))
    row = math.copysign(1.0, k) if scale * float(a.max(initial=0.0)) >= _CURVED_FROM else 0.0
    sn_half, arc = _KERNEL[row]
    scale = scale if row else 1.0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # the branch first: sn of half of each scaled side, where a scale of 1
            # changes nothing (kappa = 0 or +-1)
            ha, hb, hc = (sn_half(v if scale == 1.0 else v * scale) for v in (a, b, c))
            ha2 = ha * ha
            off = np.flatnonzero(~((hb * hb + hc * hc - ha2) <= _OBTUSE_REL * ha2))
            del ha2
            if not off.size:
                return 0.5 * a  # e.g. `check_counterexample`'s one triangle, which is half-side
            # Heron's root, the ratio and the arc on the triangles off the branch only
            ha, hb, hc, x, y, z = (v.take(off) for v in (ha, hb, hc, a, b, c))
            if scale != 1.0:
                for v in (x, y, z):
                    v *= scale  # in place on the copies the take made
            # twice s, s - a, s - b and s - c; with a >= b >= c only s - a can fall below 0
            xy = x - y
            root = sn_half(x + (y + z)) * sn_half(np.maximum(z - xy, 0.0))
            root = np.sqrt(root * sn_half(z + xy) * sn_half(x + (y - z)))
            r = 0.5 * a
            r.put(off, arc(2.0 * ha * hb * hc / root) / scale)
            return r
    except FloatingPointError as exc:
        raise ValueError(f"model circumradius at kappa={k} leaves the float64 range: {exc}") from None


def model_circumradius(sides, kappa) -> float:
    """The kernel's circumradius of one comparison triangle in M_kappa, placing none."""
    if not isinstance(sides, SideLengths):
        sides = SideLengths(*sides)
    k = kappa_value(kappa)
    _check_model_size(sides, k)
    return float(model_circumradius_batch(*([s] for s in sides.as_tuple()), k)[0])


def euclidean_circumradius(sides) -> CircumResult:
    """model_circumradius(sides, 0) as a CircumResult, with no center."""
    return CircumResult(model_circumradius(sides, 0.0), None, 1)


def model_equilateral_radius(a, kappa):
    """rho_kappa(a), the circumradius of the equilateral triangle with side a in M_kappa,
    for an array of sides: sn(sqrt|kappa| a / 2) = sn(sqrt|kappa| rho) sqrt(3) / 2, and
    a / sqrt(3) in the plane. On the sphere 3a must stay below the great circle 2 pi / sqrt(kappa).

    Every triangle of M_kappa with longest side a has a circumradius between a / 2 and
    rho_kappa(a): Jung's theorem in the model planes (Dekster, The Jung theorem for
    spherical and hyperbolic spaces, Acta Math. Hungar. 1995).
    """
    k = kappa_value(kappa)
    a = np.asarray(a, dtype=float)
    if k == 0:
        return a / math.sqrt(3.0)
    scale = math.sqrt(abs(k))
    sn, arc = (np.sin, np.arcsin) if k > 0 else (np.sinh, np.arcsinh)
    return arc(sn(0.5 * scale * a) * (2.0 / math.sqrt(3.0))) / scale


def model_radius_bracket(long, k: float, end: str) -> np.ndarray:
    """The `end` ("lower" or "upper") of long / 2 <= r_model <= rho_k(long) for triangles
    with longest side `long` at curvature k, widened by BRACKET_MARGIN, so that it holds
    the kernel's radius.

    The bracket is open, -inf or inf, from the longest side at which the kernel may
    leave the margin on: sqrt(-k) long = _HYPERBOLIC_SIDE for k < 0, and three sides
    _SPHERE_SLACK short of the great circle for k > 0.
    """
    if k < 0:
        limit = _HYPERBOLIC_SIDE / math.sqrt(-k)
    elif k > 0:
        limit = (1.0 - _SPHERE_SLACK) * 2.0 * math.pi / (3.0 * math.sqrt(k))
    else:
        limit = math.inf
    if end == "lower":
        bound = (0.5 - 0.5 * BRACKET_MARGIN) * long
    else:
        bound = model_equilateral_radius(np.minimum(long, limit), k)
        bound *= 1.0 + BRACKET_MARGIN
    if limit < math.inf:
        bound[long >= limit] = -math.inf if end == "lower" else math.inf
    return bound
