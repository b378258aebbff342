"""Triangle enumeration, signed defects against the model plane, and verdicts.

The scan is the O(n^3) heart of the pipeline: every canonical triple is
compared against its model circumradius. Row i holds the triples with
smallest index i. The scan builds one pair-major layout, the pairs (j, k),
j < k, in lexicographic order with their d, P and C (below), so that row i is
a suffix of it. Consecutive whole rows form a block while the block holds no
more triples than its capacity, the larger of row 0's count and
_TRIPLES = 8192. A block is one set of array operations and one model-kernel
call, so numpy's fixed cost per call is paid once a block rather than once a
row. From n = 130 on, row 0 holds more than _TRIPLES: row 0 is a block of its
own, a block's arrays stay the size of one row's, and a scan takes about
n / 2.3 blocks. Below, the budget takes the place of row 0: n = 75 takes 10
blocks, not 33, and n = 40 two, not 17. Index arrays have the narrowest
unsigned type that holds a flat index of the n x n and n x m tables.
`_scan_rows` calls `_scan_block` once for each range of rows, a block or, in
the pruned lower scan below, several, and yields the results in lexicographic
order. Each caller reduces only what it reports: `certify` the worst defect of
its query's direction, `defect_profile` both directions and the beta curve, and
`defect_histogram` the bins of every defect. No per-triple value outlives its
call.

r_space = min_x max(d(x, i), d(x, j), d(x, k)) would cost O(m) per triple
over m candidates. The scan first builds one pair table over the candidate
columns, P[a, b] = min_x max(d(x, a), d(x, b)) with C[a, b] its first argmin
(O(n^2 m) time; n^2 floats and n^2 indices). Then each triple gets two
bounds in O(1): lb = max(P[i, j], P[i, k], P[j, k]) <= r_space, and ub, the
least over its three pairs of max(P[a, b], d(C[a, b], c)) >= r_space. ub is the max at one
candidate and max/min never round, so where ub == lb, r_space is ub bitwise.
Only the other triples take the candidate min-max, row by row within a
call, in chunks of _BLOCK entries (one triple at least). Each `_Worst`
keeps a floor, the largest lower bound on its direction's defect over the
calls seen so far (and at least the running epsilon), raised once a call
from the kernel's radii. The floor never exceeds epsilon*, so triples whose
upper bound is below it cannot be the witness and are dropped before the
min-max; `Verdict.gathered` counts the triples whose min-max was evaluated.
`certify` keeps one worst; `defect_profile` one per direction, and drops a
triple only when it can reach neither floor; `defect_histogram` none.

The scan takes ascending betas: `certify` its query's one, `defect_profile` 0 and
its grid, `defect_histogram` 0. A triple is admitted when its shortest
distinct-pair side is at least the first, and its level is the last beta at most
that side. One `searchsorted` grades every pair once, and a triple takes the
least level of its three pairs. The upper worst of `defect_profile` keeps a floor
and an epsilon per level, each over the triples of that level and above, so both
are nonincreasing in the level and one `take` of the floors by level replaces a
mask per beta. At n = 200 a 1000-value grid costs 1.0-1.7 times no grid, where a
worst per beta cost 24-63 times.

Every call works in one order: the triples' bounds, then one mask of the
admitted triples that pass the perimeter filter and, for `certify`'s upper
direction once its floor is positive, the model-radius bracket, then the model
kernel on the kept triples. In M_kappa a triangle with longest side a has
a / 2 <= r_model <= rho_kappa(a), the circumradius of the equilateral triangle
with side a (Jung's theorem in the model planes), and
`modelplane.model_radius_bracket` widens both ends so that the bracket holds the
kernel's radius; its docstring states where it is left open. The defect bound,
ub less the bracket's lower end, is at least the kernel's, so the triples it puts
below the floor are dropped before the kernel: outputs stay bitwise, `gathered`
included, and `Verdict.modelled` counts the triangles the kernel saw. No other
scan brackets: the lower direction's bound needs rho_kappa(a) per triple, which
cost about as much as the kernel call it skipped, so `defect_profile` and
`certify`'s lower direction model every triple they build.

`certify`'s lower direction prunes pairs instead: g(a, b), the bracket's upper
end at d(a, b) less P[a, b], bounds the lower defect of every triple whose
longest side is (a, b), since r_space >= P[a, b]. Once the floor is positive
and no perimeter reaches the cap, the scan builds only the triples that hold a
pair whose g reaches the floor, and one call takes the consecutive blocks that
`_pruned_end` groups: one `_hot_triples`, one kernel call and one floor update.
Its floor then rises over several blocks at once, so it gathers no more
triples than a call per block would, and its outputs stay bitwise. A holding
input keeps its floor at 0 and scans every triple.

The scan runs on the calling thread. A random metric's upper direction gathers
about 16% of its triples, and that min-max, not the kernel, takes most of its
time; `defect_profile` gathers 11-19% and models every admitted triple, and
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
_TRIPLES = 1 << 13  # triples a block of the scan may hold when row 0 holds fewer
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
    and C[a, b] the first candidate attaining it, for a <= b, one (n - a, m) block per row.

    Every read has its smaller index first, so only the upper triangle and the
    diagonal are written: P is +inf below the diagonal, and C is left unset
    there. C has the narrowest unsigned type that holds every flat index of an
    n x n or n x m matrix, the type of every index array of the triple scan.
    The four-point delta's `_per_base_max` is the other caller: its (max, min)
    product over a base point's Gromov products g is -P of -g.
    """
    n, m = cols.shape
    P, C = np.full((n, n), np.inf), np.empty((n, n), dtype=np.min_scalar_type(max(n, m) ** 2))
    for a in range(n):
        pair = np.maximum(cols[a], cols[a:])
        C[a, a:] = pair.argmin(axis=1)
        P[a, a:] = pair[np.arange(n - a), C[a, a:]]
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


def _capacity(counts):
    """Triples a block of rows with these triple counts may hold: the larger of row 0's and _TRIPLES."""
    return max(counts[0], _TRIPLES)


def _row_blocks(counts):
    """Consecutive rows as ranges, each holding at most `_capacity(counts)` triples.

    `counts` is the triple count of each row, which never grows with the row, so
    row 0 is the largest and each row fits in a block. With row 0 below _TRIPLES a
    block holds more triples than any row, so a small space takes fewer blocks.
    """
    if not counts:
        return
    first, total, capacity = 0, 0, _capacity(counts)
    for i, count in enumerate(counts):
        if total + count > capacity:
            yield range(first, i)
            first, total = i, 0
        total += count
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
    call builds: while their rows hold at most 8 times `_capacity(counts)` triples, for its
    mask, and at most that capacity's triples with a hot pair, by a bound that counts each
    row's hot pairs (j, k) and n - 2 - i triples for each hot pair (i, x)."""
    n = len(starts)
    below = np.concatenate(([0], np.cumsum(hot)))  # hot pairs before each layout position
    met = below[-1] - below[starts] + (below[offset[1:]] - below[offset[:-1]]) * (n - 2 - np.arange(n))
    met, triples = (np.concatenate(([0], np.cumsum(v))) for v in (met, counts))
    first, end, capacity = blocks[b].start, b + 1, _capacity(counts)
    while end < len(blocks) and (
        met[blocks[end].stop] - met[first] <= capacity and triples[blocks[end].stop] - triples[first] <= 8 * capacity
    ):
        end += 1
    return end


def _finish(cols, block):
    """Gathered count and the triples (I, J, K, defect, r_space, r_model, level) of `block`,
    the list (I, J, K, level, r_model, lb, ub), which is emptied so that lb is freed before
    the gather. r_space is ub where the bounds meet, and the candidate min-max, row by row in
    chunks of _BLOCK entries, for the rest."""
    I, J, K, level, rm, lb, rs = block
    block.clear()
    gather = np.flatnonzero(rs != lb)
    del lb
    step = max(1, _BLOCK // cols.shape[1])
    for i, a, b in _runs(I[gather]):
        pair = np.maximum(cols[i], cols)
        for start in range(a, b, step):
            t = gather[start : min(start + step, b)]
            rs[t] = np.maximum(pair[J[t]], cols[K[t]]).min(axis=1)
    return int(gather.size), (I, J, K, rs - rm, rs, rm, level)


def _scan_block(space, cols, table, pairs, starts, offset, kappa, grades, cap, front, hot, rows):
    """The skipped, gathered and modelled counts of `rows`, a range of consecutive whole
    rows, and their triples as arrays (I, J, K, defect, r_space, r_model, level) in
    lexicographic order.

    `pairs` is the pair-major layout: the pairs (j, k), j < k, in lexicographic
    order with their d, P and C, and `offset[a]` the position of the pair (a, a + 1).
    Row i is the suffix of it from `starts[i]`, the pair (i + 1, i + 2), or (i, i + 1)
    with degenerate pairs, where (i, k) stands for the triple (i, i, k): the triangle
    (a, a, 0), whose model radius is exactly a / 2. One row takes views of the layout,
    more rows a copy, and a `hot` mask over the layout only the triples that
    `_hot_triples` finds. `cols[v]` holds the distances from point v to every
    candidate and `table` is `_pair_table(cols)`.

    `grades` is the n x n table of `_scan_rows`' pair levels, or None when every
    triple is admitted at level 0. A triple's level is the least of its three pairs':
    the level of its shortest distinct-pair side, since the levels grow with the side
    and the diagonal's is the top one. Level -1 is not admitted.

    The rows' triples get their radius bounds, then one mask keeps those that are
    admitted and pass the perimeter filter and, when `front` is one upper worst with
    a positive floor, whose bracketed defect bound reaches it, and the model kernel
    runs on the kept triples. Each worst of `front` then raises its floor once from
    the kernel's defect bounds, and the triples that reach none of the floors are
    dropped before the gather.
    """
    d, n = space.dist, space.n
    if hot is not None:
        I, at = _hot_triples(hot, pairs, starts, offset, rows)
        J, K, d_jk, p_jk, c_jk = (v.take(at) for v in pairs)
        I = I.astype(J.dtype)
        del at
    elif len(rows) == 1:
        J, K, d_jk, p_jk, c_jk = (v[starts[rows[0]] :] for v in pairs)
        I = J.dtype.type(rows[0])  # a scalar until the keep, then an array of the kept size
    else:
        J, K, d_jk, p_jk, c_jk = (np.concatenate([v[starts[i] :] for i in rows]) for v in pairs)
        lengths = pairs[0].size - starts[rows.start : rows.stop]
        I = np.repeat(np.arange(rows.start, rows.stop, dtype=J.dtype), lengths)
    base = I * n
    ij, ik = base + J, base + K
    del base
    lb, ub = _radius_bounds(cols, table, I, J, K, ij, ik, p_jk, c_jk)
    level = None if grades is None else np.minimum(np.minimum(grades.take(ij), grades.take(ik)), grades[J, K])
    sides = [d.take(ij), d.take(ik), d_jk]
    del ij, ik, d_jk, p_jk, c_jk
    skipped, keep, ordered = 0, np.True_ if level is None else level >= 0, cap < math.inf
    # the sides are sorted before the kernel's take only where the perimeter filter needs them
    if ordered:
        sides = list(_sorted_sides(*sides))
        small = sides[0] + sides[1] + sides[2] < cap
        skipped = int(np.count_nonzero(keep & ~small))
        keep = keep & small
        del small
    if len(front) == 1 and front[0].sign > 0 and front[0].floor[0] > 0:
        long = sides[2] if ordered else np.maximum(np.maximum(sides[0], sides[1]), sides[2])
        keep = front[0].bracket(ub, long) & keep
        del long
    if not keep.all():
        keep = np.flatnonzero(keep)
        J, K, lb, ub, *sides = (v.take(keep) for v in (J, K, lb, ub, *sides))
        I = I.take(keep) if I.ndim else I
        level = None if level is None else level.take(keep)
    del keep
    if not I.ndim:
        I = np.full(J.shape, I)
    short, mid, long = sides if ordered else _sorted_sides(*sides)
    del sides
    rm = model_circumradius_batch(long, mid, short, kappa)
    del short, mid, long  # block-sized; freed early to keep the block's peak memory down
    modelled = rm.size
    # one level: 0 for every kept triple, in the index type, so that its takes are the size of
    # J's and numpy's cache of small freed buffers gains no sizes of its own
    block = [I, J, K, np.zeros(rm.shape, J.dtype) if level is None else level, rm, lb, ub]
    del I, J, K, level, rm, lb, ub
    if front:
        keep = np.flatnonzero(functools.reduce(np.logical_or, [w.reach(block) for w in front]))
        block = [v.take(keep) for v in block]
        del keep
    gathered, block = _finish(cols, block)
    return skipped, gathered, modelled, block


def _scan_rows(space, kappa, policy, betas, degenerate, max_perimeter, front=()):
    """(skipped, gathered, modelled, block) of one `_scan_block` call for each range of
    consecutive whole rows, in index order; row i holds the triples with smallest index i.

    `betas` is ascending. A triple is admitted when its shortest distinct-pair side is
    at least betas[0], and its level is the largest g with betas[g] <= that side: it
    counts for betas[0], ..., betas[g]. One `searchsorted` grades every pair of the
    space, and each triple takes the least level of its pairs.

    Consecutive whole rows form a block while it holds no more triples than
    `_capacity(counts)`: row 0's, or _TRIPLES when row 0 holds fewer. Each call takes
    one block, except for one lower-direction worst and no perimeter cap: once its
    pair prune applies, one call takes the rows of the blocks that `_pruned_end` gives,
    and the worst's floor rises once over all of them.

    kappa and the perimeter cap are checked, and the candidate columns, their pair
    table and the pair-major layout built, when the first block is asked for.
    """
    k = kappa_value(kappa)
    cap = model_perimeter_bound(k, max_perimeter)
    if cap > 3.0 * space.diameter:
        cap = math.inf  # no perimeter reaches it
    grades = None  # with betas = (0,), every triple is admitted at level 0
    if betas[-1] > 0:
        grades = (np.searchsorted(betas, space.dist, side="right") - 1).astype(np.min_scalar_type(-len(betas)))
        # a degenerate triple's one distinct pair is its mid side: the diagonal takes the top level
        np.fill_diagonal(grades, len(betas) - 1)
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
        rows = range(blocks[b].start, blocks[end - 1].stop)
        yield _scan_block(space, cols, table, pairs, starts, offset, k, grades, cap, front, hot, rows)
        b = end


class _Worst:
    """One direction's worst defect over blocks added in lexicographic order, and its witness.

    Upper keeps the largest r_space - r_model, lower the largest r_model - r_space,
    0 when no triple exceeds 0. A block gives its first extreme, and only a strict
    improvement replaces the witness, so the witness is the lexicographically first.

    `floor` is the largest lower bound on this direction's defect seen so far, and
    at least `epsilon`; it never exceeds the final epsilon, so a triple whose
    upper bound is below it cannot be the witness. `reach` raises it once per
    `_scan_block` call, from the kernel's radii.

    Both are arrays with one entry per level of the scan's betas, or one entry that
    counts every admitted triple. Entry g counts the triples of level g and above, so
    both are nonincreasing in the level, a triple of level g can reach one of the
    floors it counts for iff it reaches floor[g], and the witness is level 0's.
    """

    def __init__(self, direction: str, k: float = 0.0, levels: int = 1):
        self.sign, self.pick = (1.0, np.argmax) if direction == "upper" else (-1.0, np.argmin)
        self.epsilon, self.record = np.zeros(levels), None  # record: (i, j, k, r_space, r_model)
        self.floor, self.k, self.gap = np.zeros(levels), k, None  # k: the curvature of the bracket and prune

    def _top(self, values, level):
        """For each level g, the largest of `values` over the triples of level g and above,
        -inf where there are none: one `np.maximum.at` and a reverse running max. One
        number when there is one level."""
        if self.floor.size == 1:
            return values.max(initial=-math.inf)
        top = np.full(self.floor.size, -math.inf)
        np.maximum.at(top, level, values)
        return np.maximum.accumulate(top[::-1])[::-1]

    def hot(self, pairs) -> np.ndarray | None:
        """Mask of the pairs of the layout `pairs` whose g reaches the floor, or None while
        the floor is 0. g = rho_hi(d) - P bounds the lower defect of every triple whose
        longest side is the pair, because r_space >= P of each pair; it is built when the
        floor first turns positive, so a holding input never builds it."""
        if self.floor[0] <= 0:
            return None
        if self.gap is None:
            self.gap = model_radius_bracket(pairs[2], self.k, "upper")  # the pairs' d
            self.gap -= pairs[3]  # and their P
        return self.gap >= self.floor[0]

    def bracket(self, ub, long) -> np.ndarray:
        """Mask of the triples, with r_space <= ub and longest side `long`, whose upper
        defect bound ub - r_lo reaches floor[0], r_lo being the lower end of
        `model_radius_bracket`. The kernel's r_model is at least r_lo, so the mask keeps
        every triple that `reach` keeps. Only an upper worst of one level brackets."""
        return ub - model_radius_bracket(long, self.k, "lower") >= self.floor[0]

    def reach(self, block) -> np.ndarray:
        """Mask of the triples of `block`, arrays (I, J, K, level, r_model, lb, ub) with
        r_space in [lb, ub], whose defect can reach their floor, which their bounds raise first."""
        level, rm, lb, ub = block[3:]
        low, high = (lb - rm, ub - rm) if self.sign > 0 else (rm - ub, rm - lb)
        self.floor = np.fmax(self.floor, self._top(low, level))  # a nan bound leaves the floor as it was
        return high >= (self.floor[0] if self.floor.size == 1 else self.floor.take(level))

    def add(self, block) -> None:
        I, J, K, defect, rs, rm, level = block
        if not defect.size:
            return
        t = int(self.pick(defect))
        if self.sign * defect[t] > self.epsilon[0]:
            self.record = (int(I[t]), int(J[t]), int(K[t]), float(rs[t]), float(rm[t]))
        top = self._top(self.sign * defect, level)
        self.epsilon = np.where(top > self.epsilon, top, self.epsilon)  # strict, so 0 stays +0.0
        self.floor = np.maximum(self.floor, self.epsilon)

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
    parameter stays because `bench/worker.py` passes `threads=1` and the
    acceptance gate's criterion 8 passes 1, 4 and 8.
    """
    check_threads(threads)
    worst, skipped, gathered, modelled = _Worst(query.direction, kappa_value(query.kappa)), 0, 0, 0
    blocks = _scan_rows(
        space, query.kappa, query.candidates, (query.beta,), query.degenerate_pairs, query.max_perimeter, (worst,)
    )
    for block_skipped, block_gathered, block_modelled, block in blocks:
        skipped += block_skipped
        gathered += block_gathered
        modelled += block_modelled
        worst.add(block)
    holds = float(worst.epsilon[0]) <= query.epsilon + math.ldexp(1.0, defect_resolution(space.diameter))
    witness = None if holds else worst.witness(space)
    return Verdict(
        holds=holds,
        witness=witness,
        epsilon_needed=float(worst.epsilon[0]),
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

    The scan grades each triple into the levels of {0} and the grid, ascending. It keeps
    one `_Worst` per direction, the upper one with a floor and an epsilon per level, and
    the curve reads epsilon*(beta) off the upper one's epsilon at beta's level. A grid
    costs one `searchsorted` over the pairs, a `take` per triple and one `np.maximum.at`
    per block, whatever its length, where one `_Worst` per beta cost G masks per block.
    """
    betas = np.asarray(beta_grid, dtype=float).reshape(-1).tolist()
    if not all(0 <= b < math.inf for b in betas):
        raise ValueError("beta grid values must be finite and nonnegative")
    levels = sorted({0.0, *betas})  # beta = 0 admits every triple; -0.0 is 0.0's level
    k = kappa_value(kappa)
    upper, lower, skipped = _Worst("upper", k, len(levels)), _Worst("lower", k), 0
    blocks = _scan_rows(space, k, CandidatePolicy(), levels, degenerate_pairs, None, (lower, upper))
    for block_skipped, _, _, block in blocks:
        skipped += block_skipped
        upper.add(block)
        lower.add(block)
    curve = dict(zip(levels, upper.epsilon.tolist()))
    return DefectReport(
        epsilon_star_upper=curve[0.0],
        epsilon_star_lower=float(lower.epsilon[0]),
        worst_upper=upper.witness(space),
        worst_lower=lower.witness(space),
        skipped=skipped,
        beta_curve=tuple((b, curve[b]) for b in betas),
    )


def defect_histogram(space: FiniteMetricSpace, kappa: float = 0.0, degenerate_pairs: bool = False) -> Histogram:
    """The defects of every admissible triple in the bins of _BinCounter, from a scan
    without floors, which models every triple and gathers each min-max that ub != lb leaves."""
    counter = _BinCounter(space.diameter)
    for *_, block in _scan_rows(space, kappa, CandidatePolicy(), (0.0,), degenerate_pairs, None):
        if block[3].size:
            counter.add(block[3])
    return counter.histogram()
