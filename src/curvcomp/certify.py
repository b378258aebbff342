"""Triangle enumeration, signed defects against the model plane, and verdicts.

The scan is the O(n^3) heart of the pipeline: every canonical triple is
compared against its model circumradius. Batches are vectorized over the
third vertex and partitioned into index chunks for schedule-independent
parallel reduction.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    triples: list = field(default_factory=list)  # collected (i, j, k) int32 arrays
    defects: list = field(default_factory=list)
    min_sides: list = field(default_factory=list)

    def absorb_block(self, i, j, ks, defect, rs, rm, min_side, collect):
        if defect.size == 0:
            return
        hi = int(np.argmax(defect))
        if defect[hi] > self.eps_upper and defect[hi] > 0:
            self.eps_upper = float(defect[hi])
            self.worst_upper = (float(defect[hi]), i, j, int(ks[hi]), float(rs[hi]), float(rm[hi]))
        lo = int(np.argmin(defect))
        if -defect[lo] > self.eps_lower and defect[lo] < 0:
            self.eps_lower = float(-defect[lo])
            self.worst_lower = (float(-defect[lo]), i, j, int(ks[lo]), float(rs[lo]), float(rm[lo]))
        if collect:
            block = np.empty((defect.size, 3), dtype=np.int32)
            block[:, 0] = i
            block[:, 1] = j
            block[:, 2] = ks
            self.triples.append(block)
            self.defects.append(defect)
            self.min_sides.append(min_side)

    def merge(self, other: "_ScanAggregate"):
        # chunks are merged in index order with strict improvement, so the
        # retained witness is the lexicographically first maximizer
        if other.eps_upper > self.eps_upper:
            self.eps_upper = other.eps_upper
            self.worst_upper = other.worst_upper
        if other.eps_lower > self.eps_lower:
            self.eps_lower = other.eps_lower
            self.worst_lower = other.worst_lower
        self.skipped += other.skipped
        self.triples += other.triples
        self.defects += other.defects
        self.min_sides += other.min_sides


def _scan_chunk(space, rows, kappa, beta, degenerate, cap, i_range, collect) -> _ScanAggregate:
    d = space.dist
    n = space.n
    agg = _ScanAggregate()
    for i in i_range:
        if degenerate:
            js = np.arange(i + 1, n)
            dij = d[i, js]
            mask = dij >= beta
            if kappa > 0 or cap < math.inf:
                small = (2.0 * dij) < cap
                agg.skipped += int(np.count_nonzero(mask & ~small))
                mask &= small
            js = js[mask]
            if js.size:
                rs = np.min(np.maximum(rows[:, [i]], rows[:, js]), axis=0)
                rm = d[i, js] / 2.0
                agg.absorb_block(i, i, js, rs - rm, rs, rm, d[i, js], collect)
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
            if kappa > 0 or cap < math.inf:
                small = sides.sum(axis=0) < cap
                agg.skipped += int(np.count_nonzero(~small))
                ks, dik, djk = ks[small], dik[small], djk[small]
                sides = sides[:, small]
                if ks.size == 0:
                    continue
            rm = model_circumradius_batch(sides[2], sides[1], sides[0], kappa)
            pair_max = np.maximum(rows[:, i], rows[:, j])
            rs = np.min(np.maximum(pair_max[:, None], rows[:, ks]), axis=0)
            agg.absorb_block(i, j, ks, rs - rm, rs, rm, sides[0], collect)
    return agg


def _run_scan(
    space: FiniteMetricSpace,
    kappa: float,
    policy: CandidatePolicy,
    beta: float,
    degenerate: bool,
    max_perimeter: float | None,
    threads: int | None,
    collect: bool,
) -> _ScanAggregate:
    k = kappa_value(kappa)
    rows = candidate_rows(space, policy)
    cap = _perimeter_cap(k, max_perimeter)
    threads = threads or default_threads()
    n = space.n
    chunk_count = 1 if threads <= 1 else min(max(threads * 4, 1), max(n, 1))
    bounds = np.linspace(0, n, chunk_count + 1).astype(int)
    ranges = [range(bounds[t], bounds[t + 1]) for t in range(chunk_count)]

    if threads <= 1:
        parts = [_scan_chunk(space, rows, k, beta, degenerate, cap, r, collect) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_scan_chunk, space, rows, k, beta, degenerate, cap, r, collect)
                for r in ranges
            ]
            parts = [f.result() for f in futures]
    total = _ScanAggregate()
    for part in parts:
        total.merge(part)
    return total


def _witness(space: FiniteMetricSpace, record: tuple | None) -> TriangleDefect | None:
    if record is None:
        return None
    _, i, j, kk, rs, rm = record
    return TriangleDefect(Triple(i, j, kk), SideLengths.of_triple(space, Triple(i, j, kk)), rs, rm)


def certify(space: FiniteMetricSpace, query: CurvatureQuery, threads: int | None = None) -> Verdict:
    """Decide the comparison condition of the query over all admissible triples.

    Upper direction holds iff r_space <= r_model + epsilon (+ tolerance) for
    every triple; lower direction with the roles reversed. epsilon_needed is
    the exact worst deficiency, 0 when the strict condition already holds.
    """
    agg = _run_scan(
        space,
        query.kappa,
        query.candidates,
        query.beta,
        query.degenerate_pairs,
        query.max_perimeter,
        threads,
        collect=False,
    )
    if query.direction == "upper":
        needed, record = agg.eps_upper, agg.worst_upper
    else:
        needed, record = agg.eps_lower, agg.worst_lower
    holds = needed <= query.epsilon + TAU_DEFECT
    witness = None if holds else _witness(space, record)
    return Verdict(holds=holds, witness=witness, epsilon_needed=needed, skipped=agg.skipped)


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

    Triples are enumerated once; each beta entry filters the stored per-triple
    defects by minimum side length.
    """
    agg = _run_scan(
        space, kappa, candidates, 0.0, degenerate_pairs, max_perimeter, threads, collect=True
    )
    if agg.defects:
        defects = np.concatenate(agg.defects)
        min_sides = np.concatenate(agg.min_sides)
    else:
        defects = np.zeros(0)
        min_sides = np.zeros(0)

    if defects.size:
        lo, hi = float(defects.min()), float(defects.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(defects, bins=bins, range=(lo, hi))
    else:
        counts, edges = np.zeros(bins, dtype=int), np.linspace(-0.5, 0.5, bins + 1)
    curve = []
    for beta in beta_grid:
        sel = defects[min_sides >= beta]
        curve.append((float(beta), float(np.maximum(sel, 0.0).max()) if sel.size else 0.0))
    return DefectReport(
        epsilon_star_upper=agg.eps_upper,
        epsilon_star_lower=agg.eps_lower,
        worst_upper=_witness(space, agg.worst_upper),
        worst_lower=_witness(space, agg.worst_lower),
        histogram=Histogram(tuple(edges), tuple(int(x) for x in counts)),
        skipped=agg.skipped,
        beta_curve=tuple(curve),
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
    if ball_radius <= 0:
        raise ValueError("ball radius must be positive")
    agg = _run_scan(
        space, kappa, CandidatePolicy(), 0.0, False, None, threads, collect=True
    )
    out = np.zeros(space.n)
    if not agg.defects:
        return out
    triples = np.concatenate(agg.triples)
    defects = np.concatenate(agg.defects)
    pos = np.maximum(defects, 0.0)
    within = space.dist <= ball_radius
    for x in range(space.n):
        member = within[x]
        mask = member[triples[:, 0]] & member[triples[:, 1]] & member[triples[:, 2]]
        if np.any(mask):
            out[x] = pos[mask].max()
    return out
