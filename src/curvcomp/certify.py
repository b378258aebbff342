"""Triangle enumeration, signed defects against the model plane, and verdicts.

The scan is the O(n^3) heart of the pipeline: every canonical triple is
compared against its model circumradius. Row i holds the triples with
smallest index i. The scan builds one pair-major layout, the pairs (j, k),
j < k, in lexicographic order with their d, P and C (below), so that row i is
a suffix of it. Consecutive whole rows form a block while the block holds no
more triples than row 0, the largest row, so row 0 is a block of its own and
a block's arrays stay the size of one row's. A block is one set of array
operations and one model-kernel call: about n / 2.3 blocks for n = 12 to
400, so numpy's fixed cost per call is paid that often rather than n times.
Index arrays have the narrowest unsigned type that holds a flat index of the
n x n and n x m tables. `_scan_rows` yields the blocks in lexicographic
order, and each caller reduces only what it reports: `certify` the worst
defect of its query's direction, `defect_profile` both directions, the
histogram and the beta curve, and `local_defect_map` a maximum per ball. No
per-triple value outlives its block.

r_space = min_x max(d(x, i), d(x, j), d(x, k)) would cost O(m) per triple
over m candidates. The scan first builds one pair table over the candidate
columns, P[a, b] = min_x max(d(x, a), d(x, b)) with C[a, b] its first argmin
(O(n^2 m) time; n^2 floats and n^2 indices). Then each triple gets two
bounds in O(1): lb = max(P[i, j], P[i, k], P[j, k]) <= r_space, and ub, the
least over its three pairs of max(P[a, b], d(C[a, b], c)) >= r_space. ub is the max at one
candidate and max/min never round, so where ub == lb, r_space is ub bitwise.
Only the other triples take the candidate min-max, row by row within a
block, in chunks of _BLOCK entries (one triple at least). `certify` also
keeps a floor, the largest lower bound on its direction's defect over the
blocks seen so far (and at least the running epsilon), updated once a
block. The floor never exceeds epsilon*, so triples whose upper bound is
below it cannot be the witness and are dropped; `Verdict.gathered` counts
the triples whose min-max was evaluated.

The scan runs on the calling thread. `certify` upper/lower takes
0.07-0.10/0.05-0.06 s at n=150, kappa=0; 0.96-1.11/0.58-0.72 s at n=300,
kappa=-1; and 2.7/1.15-1.19 s at n=400, kappa=0 (2-core x86 VM, random
metric). `defect_profile` gathers about 80% of a random metric's triples
and takes 8.3-8.6 s at n=400.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .circumradius import CandidatePolicy, candidate_rows, discrete_circumradius
from .metricspace import FiniteMetricSpace, SideLengths, Triple
from .modelplane import kappa_value, model_circumradius_batch, model_perimeter_bound

TAU_DEFECT = 1e-12  # absolute verdict tolerance on defects
_BLOCK = 1 << 14  # candidate x triple entries per min-max block of the scan
_BINS = 40  # histogram bins of defect_profile


def check_threads(threads: int) -> None:
    """ValueError unless `threads` is a positive integer: a value that
    `operator.index` takes, so a numpy integer passes and None, 1.5 or "2" do not."""
    try:
        positive = operator.index(threads) >= 1
    except TypeError:
        positive = False
    if not positive:
        raise ValueError(f"thread count must be a positive integer, got {threads}")


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
    gathered: int  # triples whose candidate min-max was evaluated; not reported


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


def enumerate_triples(space: FiniteMetricSpace, degenerate_pairs: bool = False, beta: float = 0.0):
    """Canonical triples in lexicographic order, filtered by the beta rule.

    `degenerate_pairs` additionally yields (i, i, j) for every pair; the
    beta filter applies to distinct-index pairs only.
    """
    d = space.dist
    n = space.n
    for i in range(n):
        if degenerate_pairs:
            for j in range(i + 1, n):
                if d[i, j] >= beta:
                    yield Triple(i, i, j)
        for j in range(i + 1, n):
            if d[i, j] < beta:
                continue
            for k in range(j + 1, n):
                if d[i, k] >= beta and d[j, k] >= beta:
                    yield Triple(i, j, k)


def triangle_defect(
    space: FiniteMetricSpace,
    t: Triple,
    kappa: float = 0.0,
    policy: CandidatePolicy = CandidatePolicy(),
    max_perimeter: float | None = None,
) -> TriangleDefect | None:
    """Signed defect r_space - r_model for one triple; None if the triple is
    excluded by the kappa > 0 large-triangle rule. r_model is the scan's
    kernel on the three sides, with no comparison triangle placed."""
    k = kappa_value(kappa)
    sides = SideLengths.of_triple(space, t)
    if sides.perimeter >= model_perimeter_bound(k, max_perimeter):
        return None
    r_space = discrete_circumradius(space, t, policy).radius
    r_model = float(model_circumradius_batch(*([s] for s in sides.as_tuple()), k)[0])
    return TriangleDefect(t, sides, r_space, r_model)


def _pair_table(cols):
    """(P, C) over the candidate columns `cols` (n, m): P[a, b] = min_x max(d(x, a), d(x, b))
    and C[a, b] the first candidate attaining it, one (n - a, m) block per row.

    C has the narrowest unsigned type that holds every flat index of an n x n or
    n x m matrix, the type of every index array of the triple scan.
    """
    n, m = cols.shape
    P, C = np.empty((n, n)), np.empty((n, n), dtype=np.min_scalar_type(max(n, m) ** 2))
    for a in range(n):
        pair = np.maximum(cols[a], cols[a:])
        C[a, a:] = C[a:, a] = pair.argmin(axis=1)
        P[a, a:] = P[a:, a] = pair[np.arange(n - a), C[a, a:]]
    return P, C


def _sorted_sides(x, y, z):
    """(short, mid, long), elementwise, by a min-max network."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)


def _radius_bounds(cols, table, I, J, K, ij, ik, p_jk, c_jk):
    """(lb, ub) with lb <= r_space <= ub for the triples (I, J, K), from the pair table.

    `ij` and `ik` are the flat indices of (I, J) and (I, K) in an n x n matrix,
    and `p_jk` and `c_jk` are P and C of the pairs (J, K). lb is the largest
    pair radius; ub, for each pair, the radius at the pair's best candidate C,
    max(P, d(C, third vertex)), and the least over the pairs.
    """
    P, C = table
    m = cols.shape[1]
    p_ij, p_ik = P.take(ij), P.take(ik)
    lb = np.maximum(np.maximum(p_ij, p_ik), p_jk)
    ub = np.minimum(
        np.minimum(np.maximum(p_ij, cols.take(K * m + C.take(ij))), np.maximum(p_ik, cols.take(J * m + C.take(ik)))),
        np.maximum(p_jk, cols.take(I * m + c_jk)),
    )
    return lb, ub


def _runs(rows):
    """(i, start, stop) for each run of one value i in the sorted array `rows`."""
    if not rows.size:
        return []
    cuts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(), rows.size]
    return [(int(rows[a]), a, b) for a, b in zip(cuts, cuts[1:])]


def _row_blocks(counts):
    """Consecutive rows as ranges, each holding at most counts[0] triples.

    `counts` is the triple count of each row, which never grows with the row,
    so row 0 is the largest and a block's arrays stay the size of one row's.
    """
    first, total = 0, 0
    for i, count in enumerate(counts):
        if total + count > counts[0]:
            yield range(first, i)
            first, total = i, 0
        total += count
    if first < len(counts):
        yield range(first, len(counts))


def _scan_block(space, cols, table, pairs, starts, kappa, beta, degenerate, cap, worst, rows):
    """Skipped count, gathered count and the triples of `rows`, consecutive whole rows,
    as arrays (I, J, K, defect, r_space, r_model, min_side) in lexicographic order.

    `pairs` is the pair-major layout: the pairs (j, k), j < k, in lexicographic
    order with their d, P and C. Row i is the suffix of it from `starts[i]`, the
    pair (i + 1, i + 2), or (i, i + 1) with degenerate pairs, where (i, k) stands
    for the triple (i, i, k): the triangle (a, a, 0), whose model radius is
    exactly a / 2. One row takes views of the layout, more rows a copy.
    `cols[v]` holds the distances from point v to every candidate and `table` is
    `_pair_table(cols)`. r_space is ub where the bounds meet, and the candidate
    min-max is gathered only for the rest. Given a `_Worst`, the block keeps only
    the triples whose defect bound reaches its floor.
    """
    d = space.dist
    if len(rows) == 1:
        J, K, d_jk, p_jk, c_jk = (v[starts[rows[0]] :] for v in pairs)
        I = np.broadcast_to(J.dtype.type(rows[0]), J.shape)
    else:
        J, K, d_jk, p_jk, c_jk = (np.concatenate([v[starts[i] :] for i in rows]) for v in pairs)
        lengths = pairs[0].size - starts[rows.start : rows.stop]
        I = np.repeat(np.arange(rows.start, rows.stop, dtype=J.dtype), lengths)
    base = I * space.n
    ij, ik = base + J, base + K
    del base
    short, mid, long = _sorted_sides(d.take(ij), d.take(ik), d_jk)
    del d_jk
    # beta filters distinct pairs only: a degenerate triple's one distinct pair is its mid side
    min_side = np.where(J == I, mid, short) if degenerate else short
    small = short + mid + long < cap
    admissible = min_side >= beta
    skipped = int(np.count_nonzero(admissible & ~small))
    keep = admissible & small
    if not keep.all():
        keep = np.flatnonzero(keep)
        I, J, K, ij, ik, p_jk, c_jk, short, mid, long, min_side = (
            v.take(keep) for v in (I, J, K, ij, ik, p_jk, c_jk, short, mid, long, min_side)
        )
    rm = model_circumradius_batch(long, mid, short, kappa)
    del short, mid, long  # block-sized; freed early to keep the block's peak memory down
    lb, ub = _radius_bounds(cols, table, I, J, K, ij, ik, p_jk, c_jk)
    del ij, ik, p_jk, c_jk
    if worst is not None:
        keep = np.flatnonzero(worst.reachable(lb, ub, rm))
        I, J, K, min_side, rm, lb, ub = (v.take(keep) for v in (I, J, K, min_side, rm, lb, ub))
    rs = ub
    gather = np.flatnonzero(ub != lb)
    del lb
    step = max(1, _BLOCK // cols.shape[1])
    for i, a, b in _runs(I[gather]):
        pair = np.maximum(cols[i], cols)
        for start in range(a, b, step):
            t = gather[start : min(start + step, b)]
            rs[t] = np.maximum(pair[J[t]], cols[K[t]]).min(axis=1)
    return skipped, int(gather.size), (I, J, K, rs - rm, rs, rm, min_side)


def _scan_rows(space, kappa, policy, beta, degenerate, max_perimeter, worst=None):
    """(skipped, gathered, block) for blocks of consecutive whole rows, in index order,
    from `_scan_block`; row i holds the triples with smallest index i.

    kappa and the perimeter cap are checked, and the candidate columns, their pair
    table and the pair-major layout built, when the first block is asked for.
    """
    k = kappa_value(kappa)
    cap = model_perimeter_bound(k, max_perimeter)
    cols = candidate_rows(space, policy)
    table = _pair_table(cols)
    n = space.n
    P, C = table
    J, K = (v.astype(C.dtype) for v in np.triu_indices(n, 1))
    pairs = (J, K, space.dist[J, K], P[J, K], C[J, K])
    # the pair (a, a + 1) sits after the n - 1 + ... + n - a pairs of smaller first index
    first = np.arange(n) + (not degenerate)
    starts = first * (2 * n - 1 - first) // 2
    for rows in _row_blocks((pairs[0].size - starts).tolist()):
        yield _scan_block(space, cols, table, pairs, starts, k, beta, degenerate, cap, worst, rows)


class _Worst:
    """One direction's worst defect over blocks added in lexicographic order, and its witness.

    Upper keeps the largest r_space - r_model, lower the largest r_model - r_space,
    0 when no triple exceeds 0. A block gives its first extreme, and only a strict
    improvement replaces the witness, so the witness is the lexicographically first.

    `floor` is the largest lower bound on this direction's defect seen so far, and
    at least `epsilon`; it never exceeds the final epsilon, so a triple whose
    upper bound is below it cannot be the witness.
    """

    def __init__(self, direction: str):
        self.sign, self.pick = (1.0, np.argmax) if direction == "upper" else (-1.0, np.argmin)
        self.epsilon, self.record = 0.0, None  # record: (i, j, k, r_space, r_model)
        self.floor = 0.0

    def reachable(self, lb, ub, rm) -> np.ndarray:
        """Mask of the triples, with r_space in [lb, ub], whose defect can reach the floor."""
        low, high = (lb - rm, ub - rm) if self.sign > 0 else (rm - ub, rm - lb)
        self.floor = max(self.epsilon, float(low.max(initial=self.floor)))
        return high >= self.floor

    def add(self, block) -> None:
        I, J, K, defect, rs, rm, _ = block
        if not defect.size:
            return
        t = int(self.pick(defect))
        if self.sign * defect[t] > self.epsilon:
            self.epsilon = float(self.sign * defect[t])
            self.record = (int(I[t]), int(J[t]), int(K[t]), float(rs[t]), float(rm[t]))

    def witness(self, space: FiniteMetricSpace) -> TriangleDefect | None:
        if self.record is None:
            return None
        t = Triple(*self.record[:3])
        return TriangleDefect(t, SideLengths.of_triple(space, t), *self.record[3:])


def certify(space: FiniteMetricSpace, query: CurvatureQuery, threads: int = 1) -> Verdict:
    """Decide the comparison condition of the query over all admissible triples.

    Upper direction holds iff r_space <= r_model + epsilon (+ tolerance) for
    every triple; lower direction with the roles reversed. epsilon_needed is
    the exact worst deficiency, 0 when the strict condition already holds.

    The scan runs on the calling thread, so `threads` is only checked; the
    parameter stays because `bench/worker.py` passes `threads=1`.
    """
    check_threads(threads)
    worst, skipped, gathered = _Worst(query.direction), 0, 0
    blocks = _scan_rows(
        space, query.kappa, query.candidates, query.beta, query.degenerate_pairs, query.max_perimeter, worst
    )
    for block_skipped, block_gathered, block in blocks:
        skipped += block_skipped
        gathered += block_gathered
        worst.add(block)
    holds = worst.epsilon <= query.epsilon + TAU_DEFECT
    witness = None if holds else worst.witness(space)
    return Verdict(holds=holds, witness=witness, epsilon_needed=worst.epsilon, skipped=skipped, gathered=gathered)


class _BinCounter:
    """Defect counts in _BINS bins of width 2**e, anchored at 0.

    e is the smallest exponent, and at least the diameter's binary exponent
    minus 40, at which [min defect, max defect] fits in _BINS bins. Bin
    m = floor(defect / 2**e) is a Counter key and m >> 1 merges bins exactly
    when e grows, so the result does not depend on the scan order.
    """

    def __init__(self, diameter: float):
        self.e = math.frexp(diameter)[1] - 40
        self.lo, self.hi, self.counts = math.inf, -math.inf, Counter()

    def _bin(self, x: float) -> int:
        return math.floor(math.ldexp(x, -self.e))

    def add(self, defect: np.ndarray) -> None:
        self.lo, self.hi = min(self.lo, float(defect.min())), max(self.hi, float(defect.max()))
        while self._bin(self.hi) - self._bin(self.lo) >= _BINS:
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
            return Histogram(tuple(np.linspace(-0.5, 0.5, _BINS + 1)), (0,) * _BINS)
        first = self._bin(self.lo)
        edges = tuple(math.ldexp(first + t, self.e) for t in range(_BINS + 1))
        return Histogram(edges, tuple(self.counts[first + t] for t in range(_BINS)))


def defect_profile(
    space: FiniteMetricSpace,
    kappa: float = 0.0,
    beta_grid=(),
    degenerate_pairs: bool = False,
) -> DefectReport:
    """Full defect scan with the scale curve epsilon*(beta) and a histogram.

    One scan folds each block into the bins of _BinCounter and, per beta, into a
    running max of the defects of triples with shortest side >= beta (0 if none).
    """
    betas = np.asarray(beta_grid, dtype=float).reshape(-1)
    if not np.all((betas >= 0) & (betas < math.inf)):
        raise ValueError("beta grid values must be finite and nonnegative")
    curve = np.zeros(betas.size)
    counter = _BinCounter(space.diameter)
    upper, lower, skipped = _Worst("upper"), _Worst("lower"), 0
    for block_skipped, _, block in _scan_rows(space, kappa, CandidatePolicy(), 0.0, degenerate_pairs, None):
        skipped += block_skipped
        defect, min_side = block[3], block[6]
        upper.add(block)
        lower.add(block)
        if not defect.size:
            continue
        counter.add(defect)
        if betas.size:
            block_max = np.where(min_side >= betas[:, None], defect, 0.0).max(axis=1)
            np.maximum(curve, block_max, out=curve)
    return DefectReport(
        epsilon_star_upper=upper.epsilon,
        epsilon_star_lower=lower.epsilon,
        worst_upper=upper.witness(space),
        worst_lower=lower.witness(space),
        histogram=counter.histogram(),
        skipped=skipped,
        beta_curve=tuple((float(b), float(eps)) for b, eps in zip(betas, curve)),
    )


def midpoint_defect(space: FiniteMetricSpace) -> MidpointReport:
    """Discrete approximate-midpoint quality for every pair of points.

    defect(i, j) = min_x max(d(x, i), d(x, j)) - d(i, j) / 2, always >= 0;
    zero exactly when a true midpoint exists among the points.
    """
    n = space.n
    defects = _pair_table(space.dist)[0] - space.dist / 2.0
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
) -> np.ndarray:
    """Per-point upper defect maximum over triples inside the closed ball B(x, R).

    Candidate centers are the whole space, so the map is monotone
    nondecreasing in R by triple-set inclusion.
    """
    if not 0 < ball_radius < math.inf:
        raise ValueError("ball radius must be positive and finite")
    within = space.dist <= ball_radius
    out = np.zeros(space.n)
    for _, _, (I, J, K, defect, *_) in _scan_rows(space, kappa, CandidatePolicy(), 0.0, False, None):
        for i, a, b in _runs(I):
            # every ball holding a triple of row i holds i
            for x in np.flatnonzero(within[i]):
                inside = within[x, J[a:b]] & within[x, K[a:b]]
                if inside.any():
                    out[x] = max(out[x], defect[a:b][inside].max())
    return out
