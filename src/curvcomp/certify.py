"""Triangle enumeration, signed defects against the model plane, and verdicts.

The scan is the O(n^3) heart of the pipeline: every canonical triple is
compared against its model circumradius. Batches are vectorized over the
third vertex and gathered into rows, a row being all triples with smallest
index i. Rows are folded in index order into one running reduction, so no
per-triple value outlives its row and the output does not depend on the
thread count.
"""
from __future__ import annotations

import math
import os
from collections import Counter, deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .circumradius import CandidatePolicy, candidate_rows, discrete_circumradius
from .metricspace import FiniteMetricSpace, SideLengths, Triple, metric_tolerance
from .modelplane import kappa_value, model_circumradius, model_circumradius_batch

TAU_DEFECT = 1e-12  # absolute verdict tolerance on defects


def default_threads() -> int:
    """Thread count from CURV_THREADS (1 when unset); ValueError unless it is a positive integer."""
    env = os.environ.get("CURV_THREADS")
    if not env:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"CURV_THREADS must be a positive integer, got {env!r}")
    return int(env)


def resolve_threads(threads: int | None) -> int:
    """`threads`, or default_threads() when it is None; ValueError below 1."""
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise ValueError(f"thread count must be a positive integer, got {threads}")
    return threads


@dataclass(frozen=True)
class CurvatureQuery:
    """A curvature comparison to test: Curv <= kappa (upper) or >= kappa (lower).

    beta filters out triangles with any distinct-pair side below beta; epsilon
    is the allowed additive slack. max_perimeter optionally tightens the
    large-triangle exclusion below the kappa > 0 model bound.
    """

    kappa: float = 0.0
    direction: str = "upper"  # upper | lower
    beta: float = 0.0
    epsilon: float = 0.0
    degenerate_pairs: bool = False
    candidates: CandidatePolicy = field(default_factory=CandidatePolicy)
    max_perimeter: float | None = None

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        if not (0 <= self.beta < math.inf and 0 <= self.epsilon < math.inf):
            raise ValueError("beta and epsilon must be finite and nonnegative")


@dataclass(frozen=True)
class TriangleDefect:
    triple: Triple
    sides: SideLengths
    r_space: float
    r_model: float

    @property
    def defect(self) -> float:
        return self.r_space - self.r_model


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: TriangleDefect | None
    epsilon_needed: float
    skipped: int


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class DefectReport:
    epsilon_star_upper: float
    epsilon_star_lower: float
    worst_upper: TriangleDefect | None
    worst_lower: TriangleDefect | None
    histogram: Histogram
    skipped: int
    beta_curve: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class MidpointReport:
    defects: np.ndarray  # (n, n), zero diagonal
    max_defect: float
    argmax_pair: tuple[int, int] | None


def enumerate_triples(space: FiniteMetricSpace, triple_policy: str = "distinct", beta: float = 0.0):
    """Canonical triples in lexicographic order, filtered by the beta rule.

    `with-degenerate-pairs` additionally yields (i, i, j) for every pair; the
    beta filter applies to distinct-index pairs only.
    """
    if triple_policy not in ("distinct", "with-degenerate-pairs"):
        raise ValueError(f"unknown triple policy {triple_policy!r}")
    d = space.dist
    n = space.n
    for i in range(n):
        if triple_policy == "with-degenerate-pairs":
            for j in range(i + 1, n):
                if d[i, j] >= beta:
                    yield Triple(i, i, j)
        for j in range(i + 1, n):
            if d[i, j] < beta:
                continue
            for k in range(j + 1, n):
                if d[i, k] >= beta and d[j, k] >= beta:
                    yield Triple(i, j, k)


def _perimeter_cap(kappa: float, max_perimeter: float | None) -> float:
    cap = math.inf
    if kappa > 0:
        bound = 2.0 * math.pi / math.sqrt(kappa)
        cap = bound - metric_tolerance(bound)
    if max_perimeter is not None:
        cap = min(cap, max_perimeter)
    return cap


def triangle_defect(
    space: FiniteMetricSpace,
    t: Triple,
    kappa: float = 0.0,
    policy: CandidatePolicy = CandidatePolicy(),
    max_perimeter: float | None = None,
) -> TriangleDefect | None:
    """Signed defect r_space - r_model for one triple; None if the triple is
    excluded by the kappa > 0 large-triangle rule."""
    k = kappa_value(kappa)
    sides = SideLengths.of_triple(space, t)
    if sides.perimeter >= _perimeter_cap(k, max_perimeter):
        return None
    r_space = discrete_circumradius(space, t, policy).radius
    if t.i == t.j or t.j == t.k:
        r_model = sides.a / 2.0  # degenerate pair: model half-distance
    else:
        r_model = model_circumradius(sides, k).radius
    return TriangleDefect(t, sides, r_space, r_model)


@dataclass
class _ScanAggregate:
    eps_upper: float = 0.0
    eps_lower: float = 0.0
    worst_upper: tuple | None = None  # (defect, i, j, k, r_space, r_model)
    worst_lower: tuple | None = None
    skipped: int = 0
    fold: Callable | None = None  # fold(i, js, ks, defect, min_side), once per row

    def absorb_row(self, i, skipped, js, ks, defect, rs, rm, min_side):
        # index-ordered rows, first extremes, strict improvement: lexicographically first witness
        self.skipped += skipped
        if defect.size == 0:
            return
        hi = int(np.argmax(defect))
        if defect[hi] > self.eps_upper:
            self.eps_upper = float(defect[hi])
            self.worst_upper = (float(defect[hi]), i, int(js[hi]), int(ks[hi]), float(rs[hi]), float(rm[hi]))
        lo = int(np.argmin(defect))
        if -defect[lo] > self.eps_lower:
            self.eps_lower = float(-defect[lo])
            self.worst_lower = (float(-defect[lo]), i, int(js[lo]), int(ks[lo]), float(rs[lo]), float(rm[lo]))
        if self.fold is not None:
            self.fold(i, js, ks, defect, min_side)


def _scan_row(space, rows, kappa, beta, degenerate, cap, i):
    """Skipped count and row i, the triples with smallest index i, as arrays (js, ks,
    defect, r_space, r_model, min_side): degenerate (i, i, j) first, then j, k ascending."""
    d = space.dist
    n = space.n
    skipped = 0
    blocks = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 4]
    if degenerate:
        js = np.arange(i + 1, n)[d[i, i + 1:] >= beta]
        small = 2.0 * d[i, js] < cap
        skipped += int(np.count_nonzero(~small))
        js = js[small]
        rs = np.min(np.maximum(rows[:, [i]], rows[:, js]), axis=0)
        rm = d[i, js] / 2.0
        blocks.append((np.full(js.size, i), js, rs - rm, rs, rm, d[i, js]))
    for j in range(i + 1, n - 1):
        ks = np.arange(j + 1, n)
        dij = d[i, j]
        dik = d[i, ks]
        djk = d[j, ks]
        if beta > 0:
            if dij < beta:
                continue
            mask = (dik >= beta) & (djk >= beta)
            ks, dik, djk = ks[mask], dik[mask], djk[mask]
        if ks.size == 0:
            continue
        sides = np.sort(np.stack([np.full(ks.size, dij), dik, djk]), axis=0)
        if cap < math.inf:
            small = sides.sum(axis=0) < cap
            skipped += int(np.count_nonzero(~small))
            ks = ks[small]
            sides = sides[:, small]
            if ks.size == 0:
                continue
        rm = model_circumradius_batch(sides[2], sides[1], sides[0], kappa)
        pair_max = np.maximum(rows[:, i], rows[:, j])
        rs = np.min(np.maximum(pair_max[:, None], rows[:, ks]), axis=0)
        blocks.append((np.full(ks.size, j), ks, rs - rm, rs, rm, sides[0]))
    return skipped, tuple(np.concatenate(column) for column in zip(*blocks))


def _in_index_order(scan, n: int, threads: int):
    """scan(0), ..., scan(n - 1) in order, with at most 2 * threads rows in flight."""
    if threads == 1:
        yield from map(scan, range(n))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for i in range(n):
            pending.append(pool.submit(scan, i))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _run_scan(space, kappa, policy, beta, degenerate, max_perimeter, threads, fold=None) -> _ScanAggregate:
    k = kappa_value(kappa)
    rows = candidate_rows(space, policy)
    cap = _perimeter_cap(k, max_perimeter)
    scan = partial(_scan_row, space, rows, k, beta, degenerate, cap)
    agg = _ScanAggregate(fold=fold)
    for i, (skipped, row) in enumerate(_in_index_order(scan, space.n, resolve_threads(threads))):
        agg.absorb_row(i, skipped, *row)
    return agg


def _witness(space: FiniteMetricSpace, record: tuple | None) -> TriangleDefect | None:
    if record is None:
        return None
    t = Triple(*record[1:4])
    return TriangleDefect(t, SideLengths.of_triple(space, t), record[4], record[5])


def certify(space: FiniteMetricSpace, query: CurvatureQuery, threads: int | None = None) -> Verdict:
    """Decide the comparison condition of the query over all admissible triples.

    Upper direction holds iff r_space <= r_model + epsilon (+ tolerance) for
    every triple; lower direction with the roles reversed. epsilon_needed is
    the exact worst deficiency, 0 when the strict condition already holds.
    """
    agg = _run_scan(space, query.kappa, query.candidates, query.beta, query.degenerate_pairs,
                    query.max_perimeter, threads)
    if query.direction == "upper":
        needed, record = agg.eps_upper, agg.worst_upper
    else:
        needed, record = agg.eps_lower, agg.worst_lower
    holds = needed <= query.epsilon + TAU_DEFECT
    witness = None if holds else _witness(space, record)
    return Verdict(holds=holds, witness=witness, epsilon_needed=needed, skipped=agg.skipped)


class _BinCounter:
    """Defect counts in `bins` bins of width 2**e, anchored at 0.

    e is the smallest exponent, and at least the diameter's binary exponent
    minus 40, at which [min defect, max defect] fits in `bins` bins. Bin
    m = floor(defect / 2**e) is a Counter key and m >> 1 merges bins exactly
    when e grows, so the result does not depend on the scan order.
    """

    def __init__(self, bins: int, diameter: float):
        self.bins, self.e = bins, math.frexp(diameter)[1] - 40
        self.lo, self.hi, self.counts = math.inf, -math.inf, Counter()

    def _bin(self, x: float) -> int:
        return math.floor(math.ldexp(x, -self.e))

    def add(self, defect: np.ndarray) -> None:
        self.lo, self.hi = min(self.lo, float(defect.min())), max(self.hi, float(defect.max()))
        while self._bin(self.hi) - self._bin(self.lo) >= self.bins:
            self.e += 1
            merged = Counter()
            for m, count in self.counts.items():
                merged[m >> 1] += count
            self.counts = merged
        first = self._bin(self.lo)
        tally = np.bincount((np.floor(np.ldexp(defect, -self.e)) - first).astype(np.int64))
        self.counts.update({first + int(m): int(tally[m]) for m in np.flatnonzero(tally)})

    def histogram(self) -> Histogram:
        if self.lo > self.hi:
            return Histogram(tuple(np.linspace(-0.5, 0.5, self.bins + 1)), (0,) * self.bins)
        first = self._bin(self.lo)
        edges = tuple(math.ldexp(first + t, self.e) for t in range(self.bins + 1))
        return Histogram(edges, tuple(self.counts[first + t] for t in range(self.bins)))


def defect_profile(
    space: FiniteMetricSpace,
    kappa: float = 0.0,
    beta_grid=(),
    degenerate_pairs: bool = False,
    candidates: CandidatePolicy = CandidatePolicy(),
    max_perimeter: float | None = None,
    threads: int | None = None,
    bins: int = 40,
) -> DefectReport:
    """Full defect scan with the scale curve epsilon*(beta) and a histogram.

    One scan folds each row into the bins of _BinCounter and, per beta, into a
    running max of the defects of triples with shortest side >= beta (0 if none).
    """
    betas = np.asarray(beta_grid, dtype=float).reshape(-1)
    if not np.all((betas >= 0) & (betas < math.inf)):
        raise ValueError("beta grid values must be finite and nonnegative")
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    curve = np.zeros(betas.size)
    counter = _BinCounter(bins, space.diameter)

    def fold(i, js, ks, defect, min_side):
        counter.add(defect)
        if betas.size:
            row_max = np.where(min_side >= betas[:, None], defect, 0.0).max(axis=1)
            np.maximum(curve, row_max, out=curve)

    agg = _run_scan(space, kappa, candidates, 0.0, degenerate_pairs, max_perimeter, threads, fold)
    return DefectReport(
        epsilon_star_upper=agg.eps_upper,
        epsilon_star_lower=agg.eps_lower,
        worst_upper=_witness(space, agg.worst_upper),
        worst_lower=_witness(space, agg.worst_lower),
        histogram=counter.histogram(),
        skipped=agg.skipped,
        beta_curve=tuple((float(b), float(eps)) for b, eps in zip(betas, curve)),
    )


def midpoint_defect(space: FiniteMetricSpace) -> MidpointReport:
    """Discrete approximate-midpoint quality for every pair of points.

    defect(i, j) = min_x max(d(x, i), d(x, j)) - d(i, j) / 2, always >= 0;
    zero exactly when a true midpoint exists among the points.
    """
    n = space.n
    d = space.dist
    defects = np.zeros((n, n))
    for i in range(n):
        pair_min = np.min(np.maximum(d[:, [i]], d), axis=0)
        defects[i] = pair_min - d[i] / 2.0
    np.fill_diagonal(defects, 0.0)
    if n < 2:
        return MidpointReport(defects, 0.0, None)
    flat = int(np.argmax(defects))
    i, j = divmod(flat, n)
    return MidpointReport(defects, float(defects[i, j]), (min(i, j), max(i, j)))


def local_defect_map(
    space: FiniteMetricSpace,
    ball_radius: float,
    kappa: float = 0.0,
    threads: int | None = None,
) -> np.ndarray:
    """Per-point upper defect maximum over triples inside the closed ball B(x, R).

    Candidate centers are the whole space, so the map is monotone
    nondecreasing in R by triple-set inclusion.
    """
    if not 0 < ball_radius < math.inf:
        raise ValueError("ball radius must be positive and finite")
    within = space.dist <= ball_radius
    out = np.zeros(space.n)

    def fold(i, js, ks, defect, min_side):
        # every ball holding a triple of row i holds i
        for x in np.flatnonzero(within[i]):
            inside = within[x, js] & within[x, ks]
            if inside.any():
                out[x] = max(out[x], defect[inside].max())

    _run_scan(space, kappa, CandidatePolicy(), 0.0, False, None, threads, fold)
    return out
