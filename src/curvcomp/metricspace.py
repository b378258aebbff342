"""Finite metric spaces: validation, graph ingestion, and file formats."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np


def metric_tolerance(scale: float) -> float:
    """Relative slack used for triangle-inequality checks: 1e-9 * scale, so that
    rescaling by a power of two rescales it exactly."""
    return 1e-9 * scale


def violation_template(kind: str, arity: int) -> str:
    """`%` template of a violation's text, the kind and then its index tuple:
    `violation_template("triangle", 3) % (0, 2, 1)` is "triangle(0, 2, 1)"."""
    return f"{kind}({', '.join(['%d'] * arity)}{',' if arity == 1 else ''})"


@dataclass(frozen=True)
class Violation:
    """A single metric-axiom violation, naming the offending indices."""

    kind: str  # asymmetry | negative_entry | nonzero_diagonal | triangle | zero_off_diagonal
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return violation_template(self.kind, len(self.indices)) % self.indices


class MetricValidationError(ValueError):
    """A rejected matrix's violations, grouped by kind as index arrays.

    `groups` holds (kind, indices) pairs in report order, `indices` an
    (m, arity) int array; `count` is the total and `n` the matrix size.
    Validation counts the triangle violations of `dist` without listing
    them. The message lists the first eight violations; `groups` builds the
    triangle array on first read, and `violations` the Violation objects.
    `by_kind` lists the triangles one k at a time in O(n^2) memory, and the
    CLI streams them from there to stderr in chunks of lines, so it never
    holds the whole listing.
    """

    def __init__(
        self, groups: Sequence[tuple[str, np.ndarray]], dist: np.ndarray | None = None, tau: float = 0.0, triangles: int = 0
    ):
        self._listed = list(groups)
        self._dist, self._tau, self._triangles = dist, tau, triangles
        self.count = sum(len(idx) for _, idx in self._listed) + triangles
        self.n = len(dist) if dist is not None else max((int(idx.max()) + 1 for _, idx in self._listed if len(idx)), default=0)
        rows = ((kind, row) for kind, blocks in self.by_kind() for idx in blocks for row in idx[:8].tolist())
        head = [Violation(kind, tuple(row)) for kind, row in islice(rows, 8)]
        more = "" if self.count <= 8 else f" (+{self.count - 8} more)"
        super().__init__(f"invalid metric: {', '.join(map(str, head))}{more}")

    def by_kind(self) -> Iterator[tuple[str, Iterable[np.ndarray]]]:
        """(kind, blocks of indices) in report order: one block per kind, but
        the triangles, which are listed one k at a time as they are read."""
        for kind, idx in self._listed:
            yield kind, (idx,)
        if self._triangles:
            yield "triangle", _triangle_blocks(self._dist, self._tau)

    @cached_property
    def groups(self) -> list[tuple[str, np.ndarray]]:
        return [(kind, np.concatenate(list(blocks)).astype(np.intp, copy=False)) for kind, blocks in self.by_kind()]

    @cached_property
    def violations(self) -> list[Violation]:
        return [Violation(kind, tuple(row)) for kind, idx in self.groups for row in idx.tolist()]


class DisconnectedGraphError(ValueError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"graph is disconnected: no path between {u!r} and {v!r}")


class NonpositiveWeightError(ValueError):
    pass


class InvalidParameterError(ValueError):
    pass


class InvalidPError(ValueError):
    pass


def check_p(p: float) -> None:
    """InvalidPError unless p is an l_p norm exponent: p > 1, or p = inf."""
    if p != math.inf and not p > 1.0:
        raise InvalidPError(f"p must exceed 1 (or be inf), got {p}")


def lp_distances(a, b, p: float) -> np.ndarray:
    """l_p distances from each row of `a` to each row of `b`, shape (len(a), len(b)).

    The one l_p evaluator: samples, `counterexample_space` and augmented
    candidates all measure here, so a point is the same distance from another
    whichever list holds it. One cdist call, "chebyshev" at p = inf; on
    cdist(X, X) the diagonal is 0 and the matrix symmetric bit for bit.
    `counterexamples._lp_side` is its scalar, scipy-free copy.
    """
    from scipy.spatial.distance import cdist  # loaded by l_p inputs only

    if math.isinf(p):
        return cdist(a, b, "chebyshev")
    return cdist(a, b, "minkowski", p=p)


@dataclass(frozen=True)
class Embedding:
    """Ambient l_p coordinates for a space whose metric is an l_p norm metric.

    Used by augmented candidate policies: extra candidate points are given as
    coordinates and measured against the space's points by `lp_distances`.
    """

    coords: np.ndarray  # (n, d)
    p: float  # norm exponent, 1 < p <= inf

    def __post_init__(self):
        check_p(self.p)

    def distances_to_points(self, extra: np.ndarray) -> np.ndarray:
        """Distances from each row of `extra` to each embedded point, shape (m, n)."""
        return lp_distances(np.atleast_2d(np.asarray(extra, dtype=float)), self.coords, self.p)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated symmetric distance matrix with optional labels and embedding."""

    dist: np.ndarray
    labels: tuple[str, ...] | None = None
    embedding: Embedding | None = None

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.dist).tobytes()).hexdigest()

    def subspace(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = np.asarray(indices, dtype=int)
        sub = self.dist[np.ix_(idx, idx)].copy()
        sub.flags.writeable = False
        labels = tuple(self.label(i) for i in idx)
        emb = None
        if self.embedding is not None:
            emb = Embedding(self.embedding.coords[idx].copy(), self.embedding.p)
        return FiniteMetricSpace(sub, labels, emb)

    def rescale(self, lam: float) -> "FiniteMetricSpace":
        scaled = self.dist * lam
        scaled.flags.writeable = False
        return FiniteMetricSpace(scaled, self.labels, None)


@dataclass(frozen=True)
class Triple:
    """A triangle as a canonically ordered index triple; repeats are allowed."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        i, j, k = sorted((self.i, self.j, self.k))
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


@dataclass(frozen=True)
class SideLengths:
    """Three side lengths sorted descending; degenerate (zero) sides allowed."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = sorted((float(self.a), float(self.b), float(self.c)), reverse=True)
        if c < 0.0:
            raise ValueError(f"negative side length {c}")
        if a > b + c + metric_tolerance(a):
            raise ValueError(f"triangle inequality violated by sides ({a}, {b}, {c})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def of_triple(cls, space: FiniteMetricSpace, t: Triple) -> "SideLengths":
        """The triple's sides, sorted but not checked again: the space met the
        triangle inequality within the tolerance of its diameter, which may
        exceed the tolerance of the triple's longest side."""
        d = space.dist
        sides = object.__new__(cls)  # skips __post_init__
        for name, side in zip("abc", sorted(map(float, (d[t.i, t.j], d[t.i, t.k], d[t.j, t.k])), reverse=True)):
            object.__setattr__(sides, name, side)
        return sides

    @property
    def perimeter(self) -> float:
        # ascending, the order in which the triple scan sums its sorted sides
        return self.c + self.b + self.a

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def _triangle_rows(d: np.ndarray):
    """For each row i < n - 1: i, d[i, i+1:] and the two-step sums S with
    S[j - i - 1, k] = d(k, j) + d(i, k), over every k.

    The triangle inequality for the pairs (i, j > i) compares d[i, i+1:]
    with the rows of S; the metric check and the delta's triangle slack
    both read it here. S lives in one buffer that the next row overwrites.
    A sum past float64 is inf, which bounds every side, so it warns of nothing.
    """
    n = len(d)
    dt = d if np.array_equal(d, d.T) else np.ascontiguousarray(d.T)  # a symmetric d needs no copy
    buf = np.empty(n * (n - 1))
    for i in range(n - 1):
        sums = buf[: (n - 1 - i) * n].reshape(n - 1 - i, n)
        with np.errstate(over="ignore"):  # around the add only: a yield would leak it to the caller
            np.add(dt[i + 1 :], d[i], out=sums)
        yield i, d[i, i + 1 :], sums


def _triangle_count(d: np.ndarray, tau: float) -> int:
    """How many (i, j, k) have i < j, k apart from both and d(i, j) > d(i, k) +
    d(k, j) + tau: one pass over the rows i, which does the same work on a
    metric as the check alone."""
    n, count = len(d), 0
    for i, tail, sums in _triangle_rows(d):
        sums += tau
        bad = tail[:, None] > sums
        bad[:, i] = False
        bad.ravel()[i + 1 :: n + 1] = False  # k = j
        if bad.any():
            count += np.count_nonzero(bad)
    return count


def _triangle_blocks(d: np.ndarray, tau: float) -> Iterator[np.ndarray]:
    """The (i, j, k) that `_triangle_count` counts, one k at a time in order, as
    (m, 3) arrays of the narrowest unsigned dtype ordered by i, then j; a k
    with none yields nothing. Each k compares d with fl(fl(d(i, k) + d(k, j))
    + tau) in n x n buffers that the next k overwrites. These are the row
    pass's floats, as IEEE addition commutes, so the counts agree. The hits'
    flat positions, in row-major order, give i by repeating each row index
    by its count and j as the rest, which takes less time than np.nonzero."""
    n = len(d)
    small = np.min_scalar_type(n)
    rows, starts = np.arange(n, dtype=small), np.arange(0, n * n, n)
    sums, bad = np.empty((n, n)), np.empty((n, n), dtype=bool)
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    for k in range(n):
        with np.errstate(over="ignore"):  # around the add only, as in _triangle_rows
            np.add(d[:, k, None], d[k], out=sums)
        sums += tau
        np.greater(d, sums, out=bad)
        bad &= above
        bad[k] = bad[:, k] = False
        at = np.flatnonzero(bad)
        if at.size:
            per_row = np.count_nonzero(bad, axis=1)
            block = np.empty((at.size, 3), dtype=small)
            block[:, 0] = np.repeat(rows, per_row)
            block[:, 1] = at - np.repeat(starts, per_row)
            block[:, 2] = k
            yield block


def validate_metric(
    matrix,
    labels: Sequence[str] | None = None,
    embedding: Embedding | None = None,
) -> FiniteMetricSpace:
    """Validate a square distance matrix and wrap it as a FiniteMetricSpace.

    Raises MetricValidationError carrying every violation; each names the
    offending index, pair or triple (i, j, k: d(i, j) > d(i, k) + d(k, j)),
    ordered by kind and then by k, i, j. The triangles are counted in one pass
    over the rows, which compares each d(i, j > i) with every d(i, k) + d(k, j),
    and listed by the error, one k at a time, only when read.
    """
    d = np.array(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix contains non-finite entries")
    n = d.shape[0]
    groups = [
        ("nonzero_diagonal", np.nonzero(np.diag(d) != 0.0)[0][:, None]),
        ("asymmetry", np.argwhere(np.triu(d != d.T, 1))),
        ("negative_entry", np.argwhere(np.triu(d < 0.0, 1))),
        ("zero_off_diagonal", np.argwhere(np.triu(d == 0.0, 1))),
    ]
    groups = [(kind, idx) for kind, idx in groups if len(idx)]
    tau = metric_tolerance(float(d.max()) if n else 0.0)
    triangles = _triangle_count(d, tau)
    if groups or triangles:
        raise MetricValidationError(groups, d, tau, triangles)

    d.flags.writeable = False
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise ValueError("label count does not match matrix size")
    return FiniteMetricSpace(d, lab, embedding)


def from_graph(edges: Iterable[tuple]) -> FiniteMetricSpace:
    """All-pairs shortest-path metric of a positive-weight undirected graph.

    Vertex ids may be arbitrary hashables; they are remapped to indices in
    order of first appearance (deterministic for a fixed edge list). A
    weight that is not positive and finite raises NonpositiveWeightError.

    d(s, v) is the least left-to-right float sum fl(...fl(w1 + w2)... + wk)
    over the paths from s to v, bitwise the value float Dijkstra returns,
    made exactly symmetric with min(d, d^T); `pathsums` computes it.

    A graph whose edges leave two vertices unlinked raises DisconnectedGraphError
    naming the first such pair; a connected one whose path sum passes the float64
    range raises ValueError naming the first pair whose sum does.
    """
    from .pathsums import path_sums  # loaded by graph inputs only

    edge_list = list(edges)
    if not edge_list:
        raise ValueError("empty edge list")
    index: dict = {}
    for u, v, _ in edge_list:
        for x in (u, v):
            if x not in index:
                index[x] = len(index)
    n = len(index)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for u, v, weight in edge_list:
        weight = float(weight)
        if not 0.0 < weight < math.inf:  # nan fails both comparisons
            raise NonpositiveWeightError(f"edge ({u!r}, {v!r}) has weight {weight}")
        i, j = index[u], index[v]
        if weight < w[i, j]:
            w[i, j] = w[j, i] = weight

    with np.errstate(over="ignore"):  # a path sum past the float64 range is inf
        d = path_sums(w)
    if not np.all(np.isfinite(d)):
        names = {v: k for k, v in index.items()}
        hops = path_sums(np.where(np.isfinite(w), 1.0, np.inf))  # edge counts, which never overflow
        if not np.all(np.isfinite(hops)):
            i, j = map(int, np.argwhere(~np.isfinite(hops))[0])
            raise DisconnectedGraphError(names[i], names[j])
        i, j = map(int, np.argwhere(~np.isfinite(d))[0])
        raise ValueError(
            f"shortest path between {names[i]!r} and {names[j]!r} exceeds the float64 range "
            f"(largest float {np.finfo(float).max:.6g})"
        )
    d = np.minimum(d, d.T)  # enforce exact symmetry
    return validate_metric(d, labels=tuple(str(k) for k in index))


# ---------------------------------------------------------------------------
# File formats.
#
# Distance matrix: first line `n`, then n comma-separated rows of n reals.
# Edge list: whitespace-separated `u v w` lines, `#` comments.


def parse_distance_matrix(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    n = int(lines[0])
    if n < 0:
        raise ValueError(f"matrix size must not be negative, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    for ln in lines[1:]:
        if ln.count(",") != n - 1:
            raise ValueError(f"expected {n} entries per row, found {ln.count(',') + 1}")
    if n == 0:
        return np.empty((0, 0))  # loadtxt warns on no lines
    return np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)


def format_distance_matrix(dist: np.ndarray) -> str:
    n = dist.shape[0]
    lines = [str(n)]
    for row in dist:
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> list[tuple]:
    edges = []
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'u v w' per line, got {ln!r}")
        u, v, w = parts
        edges.append((u, v, float(w)))
    return edges


def load_space(path: str) -> FiniteMetricSpace:
    """Load a space from a file: an edge list if it ends in .tsv or .edges, else a distance matrix."""
    with open(path, "r") as fh:
        text = fh.read()
    if path.endswith((".tsv", ".edges")):
        return from_graph(parse_edge_list(text))
    return validate_metric(parse_distance_matrix(text))
