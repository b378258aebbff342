"""Gromov four-point hyperbolicity and its relation to the relaxed defect.

Finite matrices carry no geodesics, so the four-point condition serves as the
standard surrogate for thin-triangle delta; reports state both quantities
without asserting tightness of the relationship.

The delta scans base point 0 in full, keeps every quadruple a pair-ordered
search finds near the best value, and settles every other base point from
those quadruples. Base points are scanned in full only when the search can
rule nothing out or keeps too many quadruples. Everything runs on the
calling thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .certify import _BLOCK, CurvatureQuery, _pair_table, certify, check_threads
from .metricspace import FiniteMetricSpace, _triangle_rows


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    witness: tuple[int, int, int, int] | None  # (x, y, z, w)
    # work counters, outside equality: base points scanned in full, and quadruples
    # evaluated by those scans (n^3 each), by the pair search, and by the settling of
    # the other base points (24 orderings per kept quadruple)
    bases_scanned: int = field(default=0, compare=False)
    quadruples: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RelaxedBoundReport:
    epsilon_star_upper: float
    slack: float  # 2*delta + h - epsilon_star_upper


# the orderings (x, y, z, w) of a quadruple's four points, as positions in its row
_ORDERINGS = np.array(list(permutations(range(4))))


def _per_base_max(d: np.ndarray, w: int) -> tuple[float, tuple[int, int, int, int]]:
    """Largest four-point value at base point w and its first maximiser (w, x, y, z)."""
    g = (d[:, [w]] + d[[w], :] - d) / 2.0
    # value(x, y) = max_z min((x|z)_w, (z|y)_w) - (x|y)_w, floored at 0 by value(w, w) = 0.
    # max_z min(g[x, z], g[z, y]) is minus the pair table's min_z max(-g[x, z], -g[y, z]),
    # exactly, as negation never rounds. The table is +inf below the diagonal, so vals is -inf
    # there; g and the full value matrix are symmetric bit for bit, as d is and IEEE addition
    # commutes, so the full matrix's first row-major maximiser has y >= x, and is vals'
    vals = -_pair_table(-g)[0] - g
    x, y = divmod(int(np.argmax(vals)), len(d))
    z = int(np.argmax(np.minimum(g[x], g[:, y]) - g[x, y]))
    return float(vals[x, y]), (w, x, y, z)


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


def _pair_search(d: np.ndarray, delta_0: float) -> tuple[np.ndarray | None, int]:
    """The quadruples that settle every base point but 0, or None to scan each in full; and the quadruples evaluated.

    Every base point w has delta_w <= delta <= 2 delta_w (Gromov). Each
    quadruple's value is (S1 - max(S2, S3)) / 2 with S1 = d(x, y) + d(z, w) and
    S2, S3 the other two pair sums, and it is at most min(d(x, y), d(z, w)) / 2
    (Cohen, Coudert & Lancin 2015), plus half the triangle slack in a space
    that meets the triangle inequality only within a tolerance. From
    best = delta_0, pairs are visited in decreasing distance, each with the
    later pairs, until d(x, y) < 2 (best - tol) - slack, and every quadruple
    within tol of the best value is kept (its four points, as a row of the
    returned array); tol is 16 eps times the largest entry on every input.
    Base point 0 is then the one full scan, and the 24 orderings of the kept
    quadruples stand in for every other base point's scan. Every base point
    is scanned in full instead (None) when delta_0 is within tol of slack / 2,
    so that nothing can be cut, or when more than max(_BLOCK, n^2) / 24
    quadruples are kept: at 40 B each they stay below a fifth of
    max(_BLOCK, n^2) float64 entries, the larger of _BLOCK and the n^2 of the
    pair table `_per_base_max` builds, and settling them evaluates no more
    orderings than that many entries.
    """
    n = len(d)
    # With u = 2**-53 and D the largest entry, the Gromov-product value of _per_base_max is
    # within 5uD of the exact value (2uD per product, uD for the last subtraction) and the sum
    # value here within 3uD, so the two differ by at most E = 8uD. The best value found is at
    # most delta + E and the first maximiser's sum value at least delta - E, so any tol above
    # 2E keeps it, and its two pairs above the cut; 32uD leaves room for the rounding of the
    # cut and of the slack. On an exact input E = 0: tol only keeps quadruples below the best.
    tol = 16.0 * np.finfo(float).eps * float(d.max())
    # in units of twice the value; halving is exact, so the comparisons are unchanged
    best, tol, slack, quadruples = 2.0 * delta_0, 2.0 * tol, _triangle_slack(d), 0
    if best - tol <= slack:
        # a quadruple with a repeated point, which the pairs below never form, is
        # worth at most slack / 2: it may be the maximiser, and nothing is cut
        return None, 0
    iu, ju = np.triu_indices(n, 1)
    order = np.argsort(-d[iu, ju], kind="stable")
    px, py = iu[order], ju[order]
    pd = d[px, py]
    far = -pd  # ascending, for searchsorted
    most = max(_BLOCK, n * n) // len(_ORDERINGS)  # quadruples kept at most
    hits, hit_values = np.empty((0, 4), dtype=np.intp), np.empty(0)
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
            # a pair of pairs inside the block meets twice, as outer and inner pair:
            # keep it once, where the inner pair comes later
            once = cols >= rows
            rows, cols = rows[once], cols[once]
            kept = hit_values >= best - tol
            found = np.stack((px[start + rows], py[start + rows], zs[cols], ws[cols]), axis=1)
            hits, hit_values = np.concatenate((hits[kept], found)), np.concatenate((hit_values[kept], twice[rows, cols]))
            if len(hits) > most:
                return None, quadruples
        start = end
    return hits, quadruples


def _first_maximiser(d: np.ndarray, quads: np.ndarray) -> tuple[float, tuple[int, int, int, int]]:
    """Largest four-point value over the 24 orderings of the quadruples in quads, and its first (w, x, y, z).

    Each ordering (x, y, z, w) is evaluated with the float operations of
    `_per_base_max` at base point w, so a value here is that scan's value for
    the same (x, y, z) bit for bit. It holds about 90 B an ordering.
    """
    x, y, z, w = quads[:, _ORDERINGS].reshape(-1, 4).T
    x_w, w_y = d[x, w], d[w, y]
    xy = (x_w + w_y - d[x, y]) / 2.0
    xz = (x_w + d[w, z] - d[x, z]) / 2.0
    zy = (d[z, w] + w_y - d[z, y]) / 2.0
    values = np.minimum(xz, zy) - xy
    top = values.max()
    at = np.flatnonzero(values == top)
    i = at[np.lexsort((z[at], y[at], x[at], w[at]))[0]]
    return float(top), (int(w[i]), int(x[i]), int(y[i]), int(z[i]))


def delta_four_point(space: FiniteMetricSpace, threads: int = 1) -> DeltaResult:
    """Four-point delta: the largest value over all ordered quadruples.

    delta = max over (x, y, z, w) of min((x|z)_w, (z|y)_w) - (x|y)_w, floored
    at zero. The witness is the first maximizer in scan order (w outer,
    then (x, y, z) lexicographic), and None when delta is 0.

    Base point 0 is scanned in full. Its value delta_0 bounds delta within
    [delta_0, 2 delta_0], and a pair-ordered search from it keeps every
    quadruple that can hold the first maximiser (`_pair_search`). The
    other base points are settled from the orderings of those quadruples
    alone, which read no more than a full scan of theirs and include the
    first maximiser, so the result equals the scan of every base point
    bitwise. An exact input (see `_is_exact`) with delta_0 = 0 stops after
    base point 0, as its values carry no rounding and delta <= 2 delta_0;
    no other step asks whether the input is exact. When the search can cut
    nothing, or keeps too many quadruples, every base point is scanned in
    full instead.

    Everything runs on the calling thread, so `threads` is only checked, as
    in `certify`.
    """
    check_threads(threads)
    n = space.n
    if n == 0:
        return DeltaResult(0.0, None)
    # past half the float64 range a sum of two distances overflows: the halved space,
    # whose values are exactly half, is scanned instead and its delta doubled
    scale = 2.0 if space.diameter > np.finfo(float).max / 2 else 1.0
    d = space.dist * 0.5 if scale > 1.0 else space.dist
    first = _per_base_max(d, 0)
    if first[0] == 0.0 and _is_exact(d):
        return DeltaResult(0.0, None, bases_scanned=1, quadruples=n**3)
    hits, quadruples = _pair_search(d, first[0])
    if hits is None:
        found = [first, *(_per_base_max(d, w) for w in range(1, n))]
        bases, quadruples = n, quadruples + n**4
    else:
        # chunks of at most _BLOCK / 10 orderings, each holding about as much as _BLOCK
        # float64 entries: no more than the pair table of `_per_base_max` once n^2 >= _BLOCK
        step = max(1, _BLOCK // (10 * len(_ORDERINGS)))
        found = [first, *(_first_maximiser(d, hits[start : start + step]) for start in range(0, len(hits), step))]
        bases, quadruples = 1, quadruples + n**3 + len(_ORDERINGS) * len(hits)
    # the first maximiser in (w, x, y, z) order, as folding every base point's own
    # first maximiser in index order would find it
    value, (w, x, y, z) = min(found, key=lambda candidate: (-candidate[0], candidate[1]))
    witness = (x, y, z, w) if value > 0.0 else None
    return DeltaResult(scale * value, witness, bases_scanned=bases, quadruples=quadruples)


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
