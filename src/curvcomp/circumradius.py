"""Circumradius inside the space under test.

Discrete min-max over candidate points, and continuous min-max in l_p planes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .metricspace import FiniteMetricSpace, Triple, check_p


def __getattr__(name: str):
    """`minimize` and `linprog` from scipy.optimize, imported on first read.

    The name is then kept in the module, where a wrapper or a test may
    replace it; `lp_circumradius` calls whatever the module holds.
    """
    if name in ("minimize", "linprog"):
        import scipy.optimize

        value = globals()[name] = getattr(scipy.optimize, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CircumResult:
    """Result of a min-max circumradius computation.

    `center` is an attaining witness: a candidate index for discrete spaces or
    a coordinate tuple for continuous ones.
    """

    radius: float
    center: int | tuple[float, ...] | None
    evaluations: int


@dataclass(frozen=True)
class CandidatePolicy:
    """Which points may serve as circumcenter candidates.

    By default every point of the space. `extra_points` (see `augmented`):
    every point plus extra coordinate points, which requires the space to
    carry an l_p embedding.
    """

    extra_points: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def augmented(cls, points) -> "CandidatePolicy":
        return cls(extra_points=tuple(tuple(float(x) for x in p) for p in points))


def candidate_rows(space: FiniteMetricSpace, policy: CandidatePolicy) -> np.ndarray:
    """Distances (n, m) from every point of the space to each candidate: row v
    holds point v's distances, the layout the triple scan reads.

    Space points come first in index order, then any augmented extra points
    in the order given; ties in later min-max scans therefore resolve to the
    lowest candidate index. The default policy returns `space.dist` itself,
    which validation made exactly symmetric.
    """
    if policy.extra_points is None:
        return space.dist
    if space.embedding is None:
        raise ValueError("augmented candidate policy requires an embedded space")
    if not policy.extra_points:
        return space.dist
    extra = space.embedding.distances_to_points(np.asarray(policy.extra_points, dtype=float))
    return np.hstack([space.dist, extra.T])


def discrete_circumradius(
    space: FiniteMetricSpace,
    t: Triple,
    policy: CandidatePolicy = CandidatePolicy(),
) -> CircumResult:
    """Min over candidates x of max_i d(x, a_i) for the triple's vertices.

    Equivalently the smallest r for which the three closed balls B(a_i, r)
    share a candidate; ties between attaining candidates resolve to the
    lowest index.
    """
    for idx in t.as_tuple():
        if not 0 <= idx < space.n:
            raise IndexError(f"triple index {idx} out of range for n={space.n}")
    cols = candidate_rows(space, policy)
    per_candidate = np.maximum(np.maximum(cols[t.i], cols[t.j]), cols[t.k])
    best = int(np.argmin(per_candidate))
    return CircumResult(
        radius=float(per_candidate[best]),
        center=best,
        evaluations=cols.shape[1],
    )


def linf_circumcenter(points) -> CircumResult:
    """Exact l_inf circumcenter: coordinatewise midpoint of extremes.

    The radius is half the largest coordinate range, which equals half the
    longest pairwise l_inf side of the three points.
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    radius = float((hi - lo).max()) / 2.0
    return CircumResult(radius=radius, center=tuple(center), evaluations=1)


def _lp_norm(u: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(u) ** p) ** (1.0 / p))


def _lp_grad(u: np.ndarray, p: float) -> np.ndarray:
    nrm = _lp_norm(u, p)
    if nrm == 0.0:
        return np.zeros_like(u)
    return np.sign(u) * np.abs(u) ** (p - 1.0) / nrm ** (p - 1.0)


def _certified_lower_bound(pts: np.ndarray, x: np.ndarray, p: float) -> float:
    """Lower bound on the min-max value, certifying near-optimality of x.

    Combines half the largest pairwise distance (always valid) with the
    supporting-hyperplane bound max{sum l_i f_i(x) : l in simplex,
    sum l_i grad f_i(x) = 0}, valid by convexity of each distance function.
    """
    f = np.array([_lp_norm(x - a, p) for a in pts])
    pair = max(_lp_norm(pts[i] - pts[j], p) for i in range(3) for j in range(i + 1, 3)) / 2.0
    grads = np.array([_lp_grad(x - a, p) for a in pts])
    a_eq = np.vstack([grads.T, np.ones(3)])
    b_eq = np.concatenate([np.zeros(pts.shape[1]), [1.0]])
    linprog = sys.modules[__name__].linprog  # the module's name, which a wrapper may replace
    res = linprog(-f, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * 3, method="highs")
    lp_bound = -res.fun if res.status == 0 else -math.inf
    return max(pair, lp_bound)


def lp_circumradius(points, p: float, tol: float = 1e-8) -> CircumResult:
    """Circumradius of three points under the l_p norm, p in (1, inf].

    For p = inf the result is exact. For finite p the convex min-max is solved
    by an epigraph SQP with multiple deterministic starts; the returned radius
    carries a verified suboptimality bound below `tol` (duality-style
    certificate, see _certified_lower_bound).
    """
    check_p(p)
    if p == math.inf:
        return linf_circumcenter(points)
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != 3 or pts.ndim != 2:
        raise ValueError("expected exactly three coordinate points")
    d = pts.shape[1]

    constraints = [
        {
            "type": "ineq",
            "fun": (lambda z, a=a: z[-1] - _lp_norm(z[:-1] - a, p)),
            "jac": (lambda z, a=a: np.concatenate([-_lp_grad(z[:-1] - a, p), [1.0]])),
        }
        for a in pts
    ]
    obj_grad = np.zeros(d + 1)
    obj_grad[-1] = 1.0

    starts = [pts.mean(axis=0)]
    starts += [(pts[i] + pts[j]) / 2.0 for i, j in ((0, 1), (0, 2), (1, 2))]
    solutions = []
    evaluations = 0
    minimize = sys.modules[__name__].minimize
    for x0 in starts:
        t0 = max(_lp_norm(x0 - a, p) for a in pts)
        z0 = np.concatenate([x0, [t0 * (1.0 + 1e-9) + 1e-12]])
        res = minimize(
            lambda z: z[-1],
            z0,
            jac=lambda z: obj_grad,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        evaluations += res.nit
        x = res.x[:-1]
        solutions.append((max(_lp_norm(x - a, p) for a in pts), x))

    best_radius = min(r for r, _ in solutions)
    # deterministic witness: lexicographically smallest near-optimal iterate
    near = [x for r, x in solutions if r <= best_radius + 1e-12]
    center = min(near, key=lambda x: tuple(x))
    radius = max(_lp_norm(center - a, p) for a in pts)

    lower = _certified_lower_bound(pts, center, p)
    if radius - lower > tol:
        raise RuntimeError(
            f"l_p min-max certificate gap {radius - lower:.3e} exceeds tolerance {tol:.1e}"
        )
    return CircumResult(radius=radius, center=tuple(center), evaluations=evaluations)
