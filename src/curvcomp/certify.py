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
defect of its query's direction, `defect_profile` both directions and the
beta curve, and `defect_histogram` the bins of every defect. No per-triple
value outlives its block.

r_space = min_x max(d(x, i), d(x, j), d(x, k)) would cost O(m) per triple
over m candidates. The scan first builds one pair table over the candidate
columns, P[a, b] = min_x max(d(x, a), d(x, b)) with C[a, b] its first argmin
(O(n^2 m) time; n^2 floats and n^2 indices). Then each triple gets two
bounds in O(1): lb = max(P[i, j], P[i, k], P[j, k]) <= r_space, and ub, the
least over its three pairs of max(P[a, b], d(C[a, b], c)) >= r_space. ub is the max at one
candidate and max/min never round, so where ub == lb, r_space is ub bitwise.
Only the other triples take the candidate min-max, row by row within a
block, in chunks of _BLOCK entries (one triple at least). Each `_Worst`
keeps a floor, the largest lower bound on its direction's defect over the
blocks seen so far (and at least the running epsilon), updated once a
block. The floor never exceeds epsilon*, so triples whose upper bound is
below it cannot be the witness and are dropped; `Verdict.gathered` counts
the triples whose min-max was evaluated. `certify` keeps one worst;
`defect_profile` one per direction and one per beta of its grid, and drops a
triple only when it can reach none of their floors; `defect_histogram` none.

Every block works in one order: the triples' bounds, then one mask of the
triples that pass the beta and perimeter filter and, once a floor is
positive, the model-radius bracket, then the model kernel on the kept triples.
In M_kappa a triangle with longest side a has a / 2 <= r_model <= rho_kappa(a),
the circumradius of the equilateral triangle with side a (Jung's theorem in the
model planes), and `modelplane.model_radius_bracket` widens both ends so that the
bracket holds the kernel's radius; its docstring states where it is left open. The
defect bound, ub less the bracket's lower end (upper direction) or its upper end
less lb (lower), is at least the kernel's, so the triples it puts below the floor
are dropped before the kernel: outputs stay bitwise, `gathered` included, and
`Verdict.modelled` counts the triangles the kernel saw.

`certify`'s lower direction also prunes pairs: g(a, b), the bracket's upper end at
d(a, b) less P[a, b], bounds the lower defect of every triple whose longest
side is (a, b), since r_space >= P[a, b]. Once the floor is positive and no
perimeter reaches the cap, the scan builds only the triples that hold a pair
whose g reaches the floor, one kernel call covers consecutive blocks, and each
block still raises the floor and drops triples as it would alone. A holding
input keeps its floor at 0 and scans every triple.

The scan runs on the calling thread. A random metric's upper direction gathers
about 16% of its triples, and that min-max, not the kernel, takes most of its
time; `defect_profile` gathers 11-19% and models about 22% of them, and
`defect_histogram` gathers 65-87% and models all (n = 40 to 300).
"""
from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .circumradius import CandidatePolicy, candidate_rows, discrete_circumradius
from .metricspace import FiniteMetricSpace, SideLengths, Triple
from .modelplane import (
    kappa_value,
    model_circumradius,
    model_circumradius_batch,
    model_perimeter_bound,
    model_radius_bracket,
)

_BLOCK = 1 << 14  # candidate x triple entries per min-max block of the scan
_BINS = 40  # histogram bins of defect_histogram


def defect_resolution(diameter: float) -> int:
    """e - 40, with e the binary exponent of a space's diameter: 2**this is the
    verdict tolerance on defects and the finest bin width of defect_histogram, so
    rescaling the space by 2**k moves both exactly with it."""
    return math.frexp(diameter)[1] - 40


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
    modelled: int  # triangles the model kernel evaluated; not reported


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
    skipped: int
    beta_curve: tuple[tuple[float, float], ...]


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
    return TriangleDefect(t, sides, r_space, model_circumradius(sides, k))


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


def _pair_offset(a, n):
    """Layout position of the pair (a, a + 1): the n - 1 + ... + n - a pairs of smaller first index."""
    return a * (2 * n - 1 - a) // 2


def _ranges(first, lengths):
    """The ranges first[t], ..., first[t] + lengths[t] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(first - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)


def _hot_triples(hot, pairs, starts, offset, rows):
    """Row and layout position, in lexicographic order, of each triple of `rows` that holds
    a hot pair, `hot` being a mask over the pair-major layout `pairs`.

    Row i's triples are the layout pairs (j, k) from starts[i] on, and offset[a], for
    a = 0, ..., n, is the layout position of the pair (a, a + 1). One holds a hot pair
    if (j, k) is hot, or if (i, x) is hot for x = j, the run of pairs (x, k > x), or for
    x = k, the pairs (j, x) with i < j < x. With degenerate pairs the row's own pair
    (i, x) stands for the triple (i, i, x) and is hot itself. One mask over the rows'
    triples marks them all; row i's pair p is its entry p + shift[i - rows.start].
    """
    size = pairs[0].size
    first = starts[rows.start : rows.stop]
    ends = np.cumsum(size - first)
    shift = ends - size
    mark = np.concatenate([hot[p:] for p in first.tolist()])
    own = np.flatnonzero(hot[offset[rows.start] : offset[rows.stop]]) + offset[rows.start]
    i, x = (v.take(own).astype(np.intp) for v in pairs[:2])
    at = shift[i - rows.start]
    for a, b in zip((offset[x] + at).tolist(), (offset[x + 1] + at).tolist()):
        mark[a:b] = True
    # the pair (j, x), j < x, sits at offset[j] - j - 1 + x
    j = _ranges(i + 1, x - i - 1)
    mark[offset[j] - j - 1 + np.repeat(x + at, x - i - 1)] = True
    del i, x, at, j
    found = np.flatnonzero(mark)
    del mark
    row = np.searchsorted(ends, found, side="right")
    return rows.start + row, found - shift[row]


def _pruned_end(blocks, b, hot, offset, starts, counts):
    """End of the blocks, from blocks[b] on, whose triples with a hot pair one `_hot_triples`
    call builds: while their rows hold at most 8 times row 0's triples, for its mask, and
    at most row 0's triples with a hot pair, by a bound that counts each row's hot pairs
    (j, k) and n - 2 - i triples for each hot pair (i, x)."""
    n = len(starts)
    below = np.concatenate(([0], np.cumsum(hot)))  # hot pairs before each layout position
    met = below[-1] - below[starts] + (below[offset[1:]] - below[offset[:-1]]) * (n - 2 - np.arange(n))
    met, triples = (np.concatenate(([0], np.cumsum(v))) for v in (met, counts))
    first, end = blocks[b].start, b + 1
    while end < len(blocks) and (
        met[blocks[end].stop] - met[first] <= counts[0] and triples[blocks[end].stop] - triples[first] <= 8 * counts[0]
    ):
        end += 1
    return end


def _finish(cols, block):
    """Gathered count and the triples (I, J, K, defect, r_space, r_model, min_side) of `block`,
    the list (I, J, K, min_side, r_model, lb, ub), which is emptied so that lb is freed before
    the gather. r_space is ub where the bounds meet, and the candidate min-max, row by row in
    chunks of _BLOCK entries, for the rest."""
    I, J, K, min_side, rm, lb, rs = block
    block.clear()
    gather = np.flatnonzero(rs != lb)
    del lb
    step = max(1, _BLOCK // cols.shape[1])
    for i, a, b in _runs(I[gather]):
        pair = np.maximum(cols[i], cols)
        for start in range(a, b, step):
            t = gather[start : min(start + step, b)]
            rs[t] = np.maximum(pair[J[t]], cols[K[t]]).min(axis=1)
    return int(gather.size), (I, J, K, rs - rm, rs, rm, min_side)


def _scan_block(space, cols, table, pairs, starts, offset, kappa, beta, degenerate, cap, front, hot, blocks):
    """For each of `blocks`, consecutive ranges of whole rows, yield its skipped, gathered
    and modelled counts and its triples as arrays (I, J, K, defect, r_space, r_model,
    min_side) in lexicographic order.

    `pairs` is the pair-major layout: the pairs (j, k), j < k, in lexicographic
    order with their d, P and C, and `offset[a]` the position of the pair (a, a + 1).
    Row i is the suffix of it from `starts[i]`, the pair (i + 1, i + 2), or (i, i + 1)
    with degenerate pairs, where (i, k) stands for the triple (i, i, k): the triangle
    (a, a, 0), whose model radius is exactly a / 2. One row takes views of the layout,
    more rows a copy, and a `hot` mask over the layout only the triples that
    `_hot_triples` finds. `cols[v]` holds the distances from point v to every
    candidate and `table` is `_pair_table(cols)`.

    The rows' triples get their radius bounds, then one mask keeps those that pass
    the beta and perimeter filter and, once a floor of the `_Worst`s in `front` is
    positive, whose bracketed defect bound reaches one of their floors, and the model
    kernel runs on the kept triples. Then each block in turn keeps the triples whose
    defect bound from the kernel reaches one of the floors, which it raises first.
    """
    d, n = space.dist, space.n
    rows = range(blocks[0].start, blocks[-1].stop)
    if hot is not None:
        I, at = _hot_triples(hot, pairs, starts, offset, rows)
        J, K, d_jk, p_jk, c_jk = (v.take(at) for v in pairs)
        I = I.astype(J.dtype)
        del at
    elif len(rows) == 1:
        J, K, d_jk, p_jk, c_jk = (v[starts[rows[0]] :] for v in pairs)
        I = np.broadcast_to(J.dtype.type(rows[0]), J.shape)
    else:
        J, K, d_jk, p_jk, c_jk = (np.concatenate([v[starts[i] :] for i in rows]) for v in pairs)
        lengths = pairs[0].size - starts[rows.start : rows.stop]
        I = np.repeat(np.arange(rows.start, rows.stop, dtype=J.dtype), lengths)
    base = I * n
    ij, ik = base + J, base + K
    del base
    lb, ub = _radius_bounds(cols, table, I, J, K, ij, ik, p_jk, c_jk)
    sides = [d.take(ij), d.take(ik), d_jk]
    del ij, ik, d_jk, p_jk, c_jk
    # the sides are sorted before the kernel's take only where a mask needs them
    filtered = beta > 0 or cap < math.inf
    skipped, keep, ordered, min_side = 0, np.True_, filtered or any(w.beta > 0 for w in front), None
    if ordered:
        sides = list(_sorted_sides(*sides))
        # beta filters distinct pairs only: a degenerate triple's one distinct pair is its mid side
        min_side = np.where(J == I, sides[1], sides[0]) if degenerate else sides[0]
    if filtered:
        admissible, small = min_side >= beta, sides[0] + sides[1] + sides[2] < cap
        skipped = int(np.count_nonzero(admissible & ~small))
        keep = admissible & small
        del admissible, small
    if any(w.floor > 0 for w in front):
        long = sides[2] if ordered else np.maximum(np.maximum(sides[0], sides[1]), sides[2])
        keep = functools.reduce(np.logical_or, [w.bracket(lb, ub, long, min_side) for w in front]) & keep
        del long
    del min_side
    if not keep.all():
        keep = np.flatnonzero(keep)
        I, J, K, lb, ub, *sides = (v.take(keep) for v in (I, J, K, lb, ub, *sides))
    del keep
    short, mid, long = sides if ordered else _sorted_sides(*sides)
    del sides
    min_side = np.where(J == I, mid, short) if degenerate else short
    rm = model_circumradius_batch(long, mid, short, kappa)
    del short, mid, long  # block-sized; freed early to keep the block's peak memory down
    modelled = rm.size
    group = [I, J, K, min_side, rm, lb, ub]
    del I, J, K, min_side, rm, lb, ub
    cuts = np.searchsorted(group[0], [block.stop for block in blocks]).tolist()
    for t, (start, stop) in enumerate(zip([0, *cuts], cuts)):
        part = [v[start:stop] for v in group]
        if front:
            keep = np.flatnonzero(functools.reduce(np.logical_or, [w.reach(part) for w in front]))
            part = [v.take(keep) for v in part]
            del keep
        if t == len(cuts) - 1:
            group.clear()  # the last gather needs only `part`, so the rows' arrays go with it
        gathered, block = _finish(cols, part)
        yield skipped, gathered, modelled, block
        skipped = modelled = 0


def _scan_rows(space, kappa, policy, beta, degenerate, max_perimeter, front=()):
    """(skipped, gathered, modelled, block) for blocks of consecutive whole rows, in index
    order, from `_scan_block`; row i holds the triples with smallest index i.

    Consecutive whole rows form a block while it holds no more triples than row 0.
    For one lower-direction worst and no perimeter cap, once its pair prune
    applies, one `_scan_block` call takes the blocks that `_pruned_end` gives.

    kappa and the perimeter cap are checked, and the candidate columns, their pair
    table and the pair-major layout built, when the first block is asked for.
    """
    k = kappa_value(kappa)
    cap = model_perimeter_bound(k, max_perimeter)
    if cap > 3.0 * space.diameter:
        cap = math.inf  # no perimeter reaches it, and with beta = 0 every triple is admissible
    cols = candidate_rows(space, policy)
    table = _pair_table(cols)
    n = space.n
    P, C = table
    J, K = (v.astype(C.dtype) for v in np.triu_indices(n, 1))
    pairs = (J, K, space.dist[J, K], P[J, K], C[J, K])
    offset = _pair_offset(np.arange(n + 1), n)
    starts = offset[np.arange(n) + (not degenerate)]
    counts = pairs[0].size - starts
    blocks = list(_row_blocks(counts.tolist()))
    prune = cap == math.inf and len(front) == 1 and front[0].sign < 0
    b = 0
    while b < len(blocks):
        hot = front[0].hot(pairs) if prune else None
        end = b + 1 if hot is None else _pruned_end(blocks, b, hot, offset, starts, counts)
        yield from _scan_block(
            space, cols, table, pairs, starts, offset, k, beta, degenerate, cap, front, hot, blocks[b:end]
        )
        b = end


class _Worst:
    """One direction's worst defect over blocks added in lexicographic order, and its witness,
    among the triples whose shortest distinct-pair side is at least `beta`.

    Upper keeps the largest r_space - r_model, lower the largest r_model - r_space,
    0 when no triple exceeds 0. A block gives its first extreme, and only a strict
    improvement replaces the witness, so the witness is the lexicographically first.

    `floor` is the largest lower bound on this direction's defect seen so far, and
    at least `epsilon`; it never exceeds the final epsilon, so a triple whose
    upper bound is below it cannot be the witness.
    """

    def __init__(self, direction: str, k: float = 0.0, beta: float = 0.0):
        self.sign, self.pick = (1.0, np.argmax) if direction == "upper" else (-1.0, np.argmin)
        self.epsilon, self.record = 0.0, None  # record: (i, j, k, r_space, r_model)
        self.floor, self.k, self.gap = 0.0, k, None  # k: the curvature of the bracket and prune
        self.beta = beta

    def hot(self, pairs) -> np.ndarray | None:
        """Mask of the pairs of the layout `pairs` whose g reaches the floor, or None while
        the floor is 0. g = rho_hi(d) - P bounds the lower defect of every triple whose
        longest side is the pair, because r_space >= P of each pair; it is built when the
        floor first turns positive, so a holding input never builds it."""
        if self.floor <= 0:
            return None
        if self.gap is None:
            _, _, d_jk, p_jk, _ = pairs
            self.gap = model_radius_bracket(d_jk, self.k, "upper")
            self.gap -= p_jk
        return self.gap >= self.floor

    def bracket(self, lb, ub, long, min_side) -> np.ndarray:
        """Mask of the triples, with r_space in [lb, ub], longest side `long` and shortest
        distinct-pair side `min_side` (read only when beta > 0), whose defect bound from
        `model_radius_bracket` reaches the floor. The kernel's r_model lies inside the
        bracket, so the mask keeps every triple that `reach` keeps."""
        if self.sign > 0:
            keep = ub - model_radius_bracket(long, self.k, "lower") >= self.floor
        else:
            keep = model_radius_bracket(long, self.k, "upper") - lb >= self.floor
        return keep & (min_side >= self.beta) if self.beta > 0 else keep

    def reach(self, block) -> np.ndarray:
        """Mask of the triples of `block`, arrays (I, J, K, min_side, r_model, lb, ub) with
        r_space in [lb, ub], whose defect can reach the floor, which their bounds raise first."""
        min_side, rm, lb, ub = block[3:]
        low, high = (lb - rm, ub - rm) if self.sign > 0 else (rm - ub, rm - lb)
        if self.beta > 0:
            short = min_side < self.beta
            low[short] = high[short] = -math.inf
        self.floor = max(self.epsilon, float(low.max(initial=self.floor)))
        return high >= self.floor

    def add(self, block) -> None:
        I, J, K, defect, rs, rm, min_side = block
        if not defect.size:
            return
        if self.beta > 0:
            defect = np.where(min_side >= self.beta, defect, -self.sign * math.inf)
        t = int(self.pick(defect))
        if self.sign * defect[t] > self.epsilon:
            self.epsilon = float(self.sign * defect[t])
            self.record = (int(I[t]), int(J[t]), int(K[t]), float(rs[t]), float(rm[t]))
            self.floor = max(self.floor, self.epsilon)

    def witness(self, space: FiniteMetricSpace) -> TriangleDefect | None:
        if self.record is None:
            return None
        t = Triple(*self.record[:3])
        return TriangleDefect(t, SideLengths.of_triple(space, t), *self.record[3:])


def certify(space: FiniteMetricSpace, query: CurvatureQuery, threads: int = 1) -> Verdict:
    """Decide the comparison condition of the query over all admissible triples.

    Upper direction holds iff r_space <= r_model + epsilon (+ tolerance
    2**defect_resolution(diameter)) for every triple; lower direction with the
    roles reversed. epsilon_needed is the exact worst deficiency, 0 when the
    strict condition already holds.

    The scan runs on the calling thread, so `threads` is only checked; the
    parameter stays because `bench/worker.py` passes `threads=1`.
    """
    check_threads(threads)
    worst, skipped, gathered, modelled = _Worst(query.direction, kappa_value(query.kappa)), 0, 0, 0
    blocks = _scan_rows(
        space, query.kappa, query.candidates, query.beta, query.degenerate_pairs, query.max_perimeter, (worst,)
    )
    for block_skipped, block_gathered, block_modelled, block in blocks:
        skipped += block_skipped
        gathered += block_gathered
        modelled += block_modelled
        worst.add(block)
    holds = worst.epsilon <= query.epsilon + math.ldexp(1.0, defect_resolution(space.diameter))
    witness = None if holds else worst.witness(space)
    return Verdict(
        holds=holds,
        witness=witness,
        epsilon_needed=worst.epsilon,
        skipped=skipped,
        gathered=gathered,
        modelled=modelled,
    )


class _BinCounter:
    """Defect counts in _BINS bins of width 2**e, anchored at 0.

    e is the smallest exponent, and at least defect_resolution(diameter), at
    which [min defect, max defect] fits in _BINS bins. Bin m = floor(defect /
    2**e) is a Counter key and m >> 1 merges bins exactly when e grows, so the
    result does not depend on the scan order.
    """

    def __init__(self, diameter: float):
        self.e = defect_resolution(diameter)
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
    """Both directions' worst defects and the scale curve epsilon*(beta), from one scan.

    The scan keeps a `_Worst` for each direction and, for each beta of the grid, one of
    the upper direction over the triples with shortest side >= beta, whose epsilon is
    the curve's value, and drops the triples that can reach none of their floors.
    """
    betas = np.asarray(beta_grid, dtype=float).reshape(-1).tolist()
    if not all(0 <= b < math.inf for b in betas):
        raise ValueError("beta grid values must be finite and nonnegative")
    k = kappa_value(kappa)
    upper, lower, skipped = _Worst("upper", k), _Worst("lower", k), 0
    curve = {0.0: upper}  # beta = 0 admits every triple
    for b in betas:
        curve.setdefault(b, _Worst("upper", k, b))
    front = (lower, *curve.values())
    for block_skipped, _, _, block in _scan_rows(space, k, CandidatePolicy(), 0.0, degenerate_pairs, None, front):
        skipped += block_skipped
        for worst in front:
            worst.add(block)
    return DefectReport(
        epsilon_star_upper=upper.epsilon,
        epsilon_star_lower=lower.epsilon,
        worst_upper=upper.witness(space),
        worst_lower=lower.witness(space),
        skipped=skipped,
        beta_curve=tuple((b, curve[b].epsilon) for b in betas),
    )


def defect_histogram(space: FiniteMetricSpace, kappa: float = 0.0, degenerate_pairs: bool = False) -> Histogram:
    """The defects of every admissible triple in the bins of _BinCounter, from a scan
    without floors, which models every triple and gathers each min-max that ub != lb leaves."""
    counter = _BinCounter(space.diameter)
    for *_, block in _scan_rows(space, kappa, CandidatePolicy(), 0.0, degenerate_pairs, None):
        if block[3].size:
            counter.add(block[3])
    return counter.histogram()
