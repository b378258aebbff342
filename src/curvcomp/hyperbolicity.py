"""Gromov four-point hyperbolicity and its relation to the relaxed defect.

Finite matrices carry no geodesics, so the four-point condition serves as the
standard surrogate for thin-triangle delta; reports state both quantities
without asserting tightness of the relationship.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .certify import CurvatureQuery, certify, check_threads
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


def resolve_threads(threads: int | None) -> int:
    """`threads`, or CURV_THREADS (1 when unset) when it is None; ValueError unless positive."""
    if threads is None:
        env = os.environ.get("CURV_THREADS") or "1"
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"CURV_THREADS must be a positive integer, got {env!r}")
        threads = int(env)
    check_threads(threads)
    return threads


def gromov_product(space: FiniteMetricSpace, x: int, y: int, w: int) -> float:
    """(x|y)_w = (d(x,w) + d(y,w) - d(x,y)) / 2; nonnegative and symmetric in x, y."""
    n = space.n
    for idx in (x, y, w):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for n={n}")
    d = space.dist
    return (d[x, w] + d[y, w] - d[x, y]) / 2.0


def _per_base_max(d: np.ndarray, w: int) -> tuple[float, int, int, int]:
    """Largest four-point value at base point w and its first maximiser (x, y, z)."""
    g = (d[:, [w]] + d[[w], :] - d) / 2.0
    # value(x, y) = max_z min((x|z)_w, (z|y)_w) - (x|y)_w, floored at 0
    inner = np.minimum(g[:, :, None], g.T[None, :, :])  # (x, z, y)
    vals = inner.max(axis=1) - g
    x, y = divmod(int(np.argmax(vals)), len(d))
    z = int(np.argmax(np.minimum(g[x], g[:, y]) - g[x, y]))
    return float(vals[x, y]), x, y, z


def delta_four_point(space: FiniteMetricSpace, threads: int | None = None) -> DeltaResult:
    """Exhaustive four-point delta over all ordered quadruples.

    delta = max over (x, y, z, w) of min((x|z)_w, (z|y)_w) - (x|y)_w, floored
    at zero. The witness is the first maximizer in scan order (w outer,
    then (x, y, z) lexicographic): base points are folded in index order and
    only a strict improvement replaces the witness, so output is
    deterministic for any thread count.

    This is the package's one pooled scan: each base point is one numpy
    (max, min) product over n^3 entries, which releases the GIL, so up to
    `threads` base points run at once. certify's rows are too small to pay.
    """
    threads = resolve_threads(threads)
    scan, bases = partial(_per_base_max, space.dist), range(space.n)
    best = DeltaResult(0.0, None)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_w = map(scan, bases) if threads == 1 else pool.map(scan, bases)
        for w, (value, x, y, z) in enumerate(per_w):
            if value > best.delta:
                best = DeltaResult(value, (x, y, z, w))
    return best


def check_allowance(h: float) -> None:
    """ValueError unless the discretization allowance h is finite and nonnegative."""
    if not 0 <= h < math.inf:
        raise ValueError("discretization allowance must be finite and nonnegative")


def relaxed_npc_bound_check(
    space: FiniteMetricSpace, h: float, threads: int | None = None, *, delta: DeltaResult | None = None
) -> RelaxedBoundReport:
    """Compare the worst upper defect against 2*delta + h.

    h is a caller-supplied discretization allowance (e.g. the maximum edge
    length of a graph metric); the result is a diagnostic, not an assertion.
    `delta` is the space's delta_four_point result if the caller already has it;
    `threads` only caps the workers of the delta scan.
    """
    check_allowance(h)
    check_threads(threads)
    verdict = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    if delta is None:
        delta = delta_four_point(space, threads=threads)
    eps = verdict.epsilon_needed
    return RelaxedBoundReport(
        epsilon_star_upper=eps,
        delta=delta.delta,
        discretization=h,
        slack=2.0 * delta.delta + h - eps,
    )
