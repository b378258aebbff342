"""All-pairs shortest-path sums of a positive-weight graph, in numpy.

`path_sums` returns, for every pair, the least left-to-right float sum of
the weights along a path: the bits float Dijkstra returns, as fl(x + w) >= x
for w > 0 and rounding is monotone, so every relaxation order reaches that
least fixed point. `metricspace.from_graph` imports this module on first use,
so matrix inputs never load it.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

_PULL_BLOCK = 1 << 18  # table entries one pull of `path_sums` gathers (2 MB; one row at least)


def _sweep_plan(w: np.ndarray):
    """The row order and pulls of `path_sums` for the weight matrix w (inf
    off the edges, 0 on the diagonal).

    The vertices are put in the order in which a Dijkstra search from
    vertex 0 settles them (vertices it does not reach follow in index
    order); a shortest path that runs toward vertex 0 and then away from it
    is one backward and one forward run in that order. A vertex's level is
    one more than the highest level among its neighbours that come earlier
    in the order, so each level holds no edge, and pulling the levels in
    increasing (or decreasing) order is a Gauss-Seidel sweep over the order
    (or its reverse). The table rows are the vertices sorted by level; a
    pull is a run of rows of one level whose padded in-edges times n fit in
    _PULL_BLOCK. Returns `row` (the table row of each vertex) and `pulls`
    (lo, hi, src, wt): rows lo..hi-1, each with k in-edge slots stored
    slot-major in `src` and `wt` (padded with weight inf).
    """
    n = len(w)
    adj = np.isfinite(w)
    np.fill_diagonal(adj, False)
    i, j = np.nonzero(adj)
    weights = w[i, j]
    ptr = np.searchsorted(i, np.arange(n + 1)).tolist()
    nbr, nbr_w = j.tolist(), weights.tolist()
    dist = [math.inf] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        order.append(v)
        for x in range(ptr[v], ptr[v + 1]):
            u, du = nbr[x], d + nbr_w[x]
            if du < dist[u]:
                dist[u] = du
                heapq.heappush(heap, (du, u))
    order += [v for v in range(n) if dist[v] == math.inf]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    pi, pj = pos[i], pos[j]
    back = np.flatnonzero(pj < pi)
    back = back[np.argsort(pi[back], kind="stable")]
    level = [0] * n  # by position; edges come by their later end, so each level read is final
    for v, u in zip(pi[back].tolist(), pj[back].tolist()):
        level[v] = max(level[v], level[u] + 1)
    by_level = np.argsort(level, kind="stable")
    level = np.take(level, by_level)
    row_of_pos = np.empty(n, dtype=np.intp)
    row_of_pos[by_level] = np.arange(n)
    tgt, src = row_of_pos[pi], row_of_pos[pj]
    e = np.argsort(tgt, kind="stable")
    tgt, src, weights = tgt[e], src[e], weights[e]
    deg = np.bincount(tgt, minlength=n)
    first = np.cumsum(deg) - deg

    starts = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist()]
    lo = []
    for a, b, k in zip(starts, [*starts[1:], n], np.maximum.reduceat(deg, starts).tolist()):
        lo += range(a, b, max(1, _PULL_BLOCK // (max(k, 1) * n)))
    lo = np.array(lo)
    rows = np.diff(lo, append=n)
    k = np.maximum(np.maximum.reduceat(deg, lo), 1)  # a vertex with no edge gets one inf slot
    off = np.concatenate(([0], np.cumsum(rows * k)))
    pull = np.repeat(np.arange(lo.size), rows)
    pt = pull[tgt]
    flat = off[pt] + (np.arange(tgt.size) - first[tgt]) * rows[pt] + (tgt - lo[pt])
    slot_src = np.zeros(off[-1], dtype=np.intp)
    slot_src[flat] = src
    slot_wt = np.full((off[-1], 1), np.inf)
    slot_wt[flat, 0] = weights
    pulls = [
        (a, a + r, slot_src[s:t], slot_wt[s:t])
        for a, r, s, t in zip(lo.tolist(), rows.tolist(), off[:-1].tolist(), off[1:].tolist())
    ]
    return row_of_pos[pos], pulls


def path_sums(w: np.ndarray) -> np.ndarray:
    """d[s, v]: the least left-to-right float sum of the weights along a path
    from s to v (inf if there is none), for the weight matrix w (inf off the
    edges, 0 on the diagonal).

    The table starts at d(s, s) = 0 and is relaxed, all sources at once, to
    the least fixed point of d(s, v) = min over edges (u, v) of
    fl(d(s, u) + w(u, v)). It is stored target-major: row v holds d(., v),
    so a pull reads whole rows. The sweeps alternate direction, the first
    toward vertex 0, until one changes nothing.
    """
    row, pulls = _sweep_plan(w)
    n = len(w)
    table = np.full((n, n), np.inf)
    np.fill_diagonal(table, 0.0)
    changed, forward = True, False
    while changed:
        changed = False
        for lo, hi, src, wt in pulls if forward else reversed(pulls):
            cand = table.take(src, axis=0)
            cand += wt
            cand = np.minimum.reduce(cand.reshape(-1, hi - lo, n), axis=0)
            block = table[lo:hi]
            if (cand < block).any():
                np.minimum(block, cand, out=block)
                changed = True
        forward = not forward
    return table[np.ix_(row, row)].T
