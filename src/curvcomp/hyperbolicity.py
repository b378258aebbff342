"""Gromov four-point hyperbolicity and its relation to the relaxed defect.

Finite matrices carry no geodesics, so the four-point condition serves as the
standard surrogate for thin-triangle delta; reports state both quantities
without asserting tightness of the relationship.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from .certify import _BLOCK, CurvatureQuery, certify, check_threads
from .metricspace import FiniteMetricSpace, _triangle_rows


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    witness: tuple[int, int, int, int] | None  # (x, y, z, w)
    # work counters, outside equality: base points scanned, and quadruples evaluated
    # by those scans (n^3 each) and by the pair search that chose them
    bases_scanned: int = field(default=0, compare=False)
    quadruples: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RelaxedBoundReport:
    epsilon_star_upper: float
    slack: float  # 2*delta + h - epsilon_star_upper


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
    n = len(d)
    g = (d[:, [w]] + d[[w], :] - d) / 2.0
    # value(x, y) = max_z min((x|z)_w, (z|y)_w) - (x|y)_w, floored at 0, taken over
    # blocks of x rows whose (x, z, y) products hold at most _BLOCK entries (one row at least);
    # g is symmetric bit for bit, as d is and IEEE addition commutes, so g[z] holds (z|y)_w
    vals = np.empty_like(g)
    step = max(1, _BLOCK // (n * n))
    for start in range(0, n, step):
        xs = slice(start, start + step)
        vals[xs] = np.minimum(g[xs, :, None], g[None, :, :]).max(axis=1) - g[xs]
    x, y = divmod(int(np.argmax(vals)), n)
    z = int(np.argmax(np.minimum(g[x], g[:, y]) - g[x, y]))
    return float(vals[x, y]), x, y, z


def _is_exact(d: np.ndarray) -> bool:
    """True when every entry is an integer multiple of one power of two, within 50 bits.

    Then every sum of two entries, every difference of such sums and every
    halving below is exact in float64, so both four-point formulas are exact.
    """
    mantissa, exponent = np.frexp(d[d > 0])
    if not mantissa.size:
        return True
    digits = (mantissa * 2.0**53).astype(np.int64)
    lowest = np.frexp((digits & -digits).astype(float))[1] - 1  # trailing zero bits
    unit = int((exponent - 53 + lowest).min())  # entries are multiples of 2**unit
    return int(exponent.max()) - unit <= 50 and unit > -1074


def _twice_pair_values(d, xs, ys, d_xy, zs, ws, d_zw) -> np.ndarray:
    """S1 - max(S2, S3) for outer pairs (xs[i], ys[i]) against inner pairs (zs[j], ws[j])."""
    x_rows, y_rows = d[xs], d[ys]
    twice = np.take(x_rows, zs, axis=1)
    twice += np.take(y_rows, ws, axis=1)  # S2 = d(x, z) + d(y, w)
    other = np.take(x_rows, ws, axis=1)
    other += np.take(y_rows, zs, axis=1)  # S3 = d(x, w) + d(y, z)
    np.maximum(other, twice, out=other)
    np.add(d_xy[:, None], d_zw, out=twice)  # S1
    twice -= other
    return twice


def _triangle_slack(d: np.ndarray) -> float:
    """Largest d(i, j) - d(i, k) - d(k, j), at least 0: how far d is from the triangle inequality."""
    return max((float((tail - sums.min(axis=1)).max(initial=0.0)) for _, tail, sums in _triangle_rows(d)), default=0.0)


def _candidate_bases(d: np.ndarray, delta_0: float) -> tuple[list[int], int]:
    """Base points whose scan can hold the first maximiser, and the quadruples evaluated.

    Every base point w has delta_w <= delta <= 2 delta_w (Gromov). Each
    quadruple's value is (S1 - max(S2, S3)) / 2 with S1 = d(x, y) + d(z, w) and
    S2, S3 the other two pair sums, and it is at most min(d(x, y), d(z, w)) / 2
    (Cohen, Coudert & Lancin 2015), plus half the triangle slack in a space
    that meets the triangle inequality only within a tolerance. From
    best = delta_0, pairs are visited in decreasing distance, each with the
    later pairs, until d(x, y) < 2 (best - tol) - slack. Base point 0 and every
    point of a quadruple within tol of the best value are returned; every
    base point when delta_0 is within tol of slack / 2, so that nothing can
    be cut.
    """
    n = len(d)
    if _is_exact(d):
        tol = 0.0
        if delta_0 == 0.0:
            return [0], 0
    else:
        # With u = 2**-53 and D the largest entry, the Gromov-product value of
        # _per_base_max is within 5uD of the exact value (2uD per product, uD for
        # the last subtraction) and the sum value here within 3uD, so the two
        # differ by at most E = 8uD. The best value found is at most delta + E
        # and the first maximiser's sum value at least delta - E, so any tol
        # above 2E keeps it, and its two pairs above the cut; 32uD leaves room
        # for the rounding of the cut and of the slack.
        tol = 16.0 * np.finfo(float).eps * float(d.max())
    # in units of twice the value; halving is exact, so the comparisons are unchanged
    best, tol, slack, quadruples = 2.0 * delta_0, 2.0 * tol, _triangle_slack(d), 0
    if best - tol <= slack:
        # a quadruple with a repeated point, which the pairs below never form, is
        # worth at most slack / 2: it may be the maximiser, and nothing is cut
        return list(range(n)), 0
    iu, ju = np.triu_indices(n, 1)
    order = np.argsort(-d[iu, ju], kind="stable")
    px, py = iu[order], ju[order]
    pd = d[px, py]
    far = -pd  # ascending, for searchsorted
    point_best = np.full(n, -np.inf)  # largest value of a quadruple through each point
    start = 0
    while True:
        stop = int(np.searchsorted(far, tol + slack - best, side="right"))  # pairs above the cut
        if start >= stop - 1:
            break
        end = min(start + max(1, _BLOCK // (stop - start - 1)), stop - 1)
        # the inner pairs follow the block's first pair, so later outer pairs also meet
        # repeats and themselves (value 0, below the bar, which exceeds slack >= 0)
        zs, ws = px[start + 1 : stop], py[start + 1 : stop]
        twice = _twice_pair_values(d, px[start:end], py[start:end], pd[start:end], zs, ws, pd[start + 1 : stop])
        quadruples += twice.size
        top = float(twice.max())
        if top >= best - tol:
            best = max(best, top)
            rows, cols = np.nonzero(twice >= best - tol)
            hit = twice[rows, cols]
            for pts in (px[start + rows], py[start + rows], zs[cols], ws[cols]):
                np.maximum.at(point_best, pts, hit)
        start = end
    point_best[0] = np.inf
    return np.flatnonzero(point_best >= best - tol).tolist(), quadruples


def delta_four_point(space: FiniteMetricSpace, threads: int = 1) -> DeltaResult:
    """Four-point delta: the largest value over all ordered quadruples.

    delta = max over (x, y, z, w) of min((x|z)_w, (z|y)_w) - (x|y)_w, floored
    at zero. The witness is the first maximizer in scan order (w outer,
    then (x, y, z) lexicographic): scanned base points are folded in index
    order and only a strict improvement replaces the witness, so output is
    deterministic for any thread count.

    Base point 0 is scanned first. Its value delta_0 bounds delta within
    [delta_0, 2 delta_0], and a pair-ordered search from it finds the base
    points that can hold the first maximiser (`_candidate_bases`); only those
    are scanned, and the result equals the scan of every base point bitwise.
    Exact inputs (see `_is_exact`) with delta_0 = 0 stop after one scan.

    This is the package's one pooled scan: each base point is a run of numpy
    (max, min) products over bounded blocks, which release the GIL, so up to
    `threads` base points run at once.
    """
    check_threads(threads)
    if space.n == 0:
        return DeltaResult(0.0, None)
    scan = partial(_per_base_max, space.dist)
    first = scan(0)
    bases, quadruples = _candidate_bases(space.dist, first[0])
    best = DeltaResult(0.0, None)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rest = map(scan, bases[1:]) if threads == 1 else pool.map(scan, bases[1:])
        for w, (value, x, y, z) in zip(bases, chain([first], rest)):
            if value > best.delta:
                best = DeltaResult(value, (x, y, z, w))
    return replace(best, bases_scanned=len(bases), quadruples=quadruples + len(bases) * space.n**3)


def check_allowance(h: float) -> None:
    """ValueError unless the discretization allowance h is finite and nonnegative."""
    if not 0 <= h < math.inf:
        raise ValueError("discretization allowance must be finite and nonnegative")


def relaxed_npc_bound_check(space: FiniteMetricSpace, h: float, *, delta: DeltaResult) -> RelaxedBoundReport:
    """Compare the worst upper defect against 2*delta + h.

    h is a caller-supplied discretization allowance (e.g. the maximum edge
    length of a graph metric); the result is a diagnostic, not an assertion.
    `delta` is the space's delta_four_point result.
    """
    check_allowance(h)
    verdict = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    eps = verdict.epsilon_needed
    return RelaxedBoundReport(
        epsilon_star_upper=eps,
        slack=2.0 * delta.delta + h - eps,
    )
