"""Gromov four-point hyperbolicity and its relation to the relaxed defect.

Finite matrices carry no geodesics, so the four-point condition serves as the
standard surrogate for thin-triangle delta; reports state both quantities
without asserting tightness of the relationship.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .certify import CurvatureQuery, certify, resolve_threads
from .metricspace import FiniteMetricSpace


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    witness: tuple[int, int, int, int] | None  # (x, y, z, w)


@dataclass(frozen=True)
class RelaxedBoundReport:
    epsilon_star_upper: float
    delta: float
    discretization: float
    slack: float  # 2*delta + h - epsilon_star_upper


def gromov_product(space: FiniteMetricSpace, x: int, y: int, w: int) -> float:
    """(x|y)_w = (d(x,w) + d(y,w) - d(x,y)) / 2; nonnegative and symmetric in x, y."""
    n = space.n
    for idx in (x, y, w):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for n={n}")
    d = space.dist
    return (d[x, w] + d[y, w] - d[x, y]) / 2.0


def _per_base_max(d: np.ndarray, w: int):
    g = (d[:, [w]] + d[[w], :] - d) / 2.0
    # value(x, y) = max_z min((x|z)_w, (z|y)_w) - (x|y)_w, floored at 0
    inner = np.minimum(g[:, :, None], g.T[None, :, :])  # (x, z, y)
    vals = inner.max(axis=1) - g
    best = float(vals.max())
    return best, g, vals


def delta_four_point(space: FiniteMetricSpace, threads: int | None = None) -> DeltaResult:
    """Exhaustive four-point delta over all ordered quadruples.

    delta = max over (x, y, z, w) of min((x|z)_w, (z|y)_w) - (x|y)_w, floored
    at zero. The witness is the first maximizer in scan order (w outer,
    then (x, y, z) lexicographic), so output is deterministic for any thread
    count.
    """
    threads = resolve_threads(threads)
    n = space.n
    if n <= 2:
        return DeltaResult(0.0, None)
    d = space.dist
    if threads <= 1:
        per_w = [_per_base_max(d, w)[0] for w in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_w = list(pool.map(lambda w: _per_base_max(d, w)[0], range(n)))

    best_w = int(np.argmax(per_w))
    delta = per_w[best_w]
    if delta <= 0.0:
        return DeltaResult(0.0, None)
    _, g, vals = _per_base_max(d, best_w)
    x, y = map(int, np.argwhere(vals == delta)[0])
    row = np.minimum(g[x], g[:, y]) - g[x, y]
    z = int(np.nonzero(row == delta)[0][0])
    return DeltaResult(delta, (x, y, z, best_w))


def relaxed_npc_bound_check(
    space: FiniteMetricSpace, h: float, threads: int | None = None, *, delta: DeltaResult | None = None
) -> RelaxedBoundReport:
    """Compare the worst upper defect against 2*delta + h.

    h is a caller-supplied discretization allowance (e.g. the maximum edge
    length of a graph metric); the result is a diagnostic, not an assertion.
    `delta` is the space's delta_four_point result if the caller already has it.
    """
    if not 0 <= h < math.inf:
        raise ValueError("discretization allowance must be finite and nonnegative")
    verdict = certify(space, CurvatureQuery(kappa=0.0, direction="upper"), threads=threads)
    if delta is None:
        delta = delta_four_point(space, threads=threads)
    eps = verdict.epsilon_needed
    return RelaxedBoundReport(
        epsilon_star_upper=eps,
        delta=delta.delta,
        discretization=h,
        slack=2.0 * delta.delta + h - eps,
    )
