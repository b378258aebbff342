"""Independent oracles for the test suite.

Everything here recomputes results from scratch along a different route than
the package: grid-refinement min-max searches, no-pruning brute-force scans,
per-triple enumeration, law-of-sines circumradii and per-chart model
distances. Nothing imports the implementation paths it checks beyond input
preparation.
"""
from __future__ import annotations

import math

import numpy as np

_OBTUSE_REL = 1e-12  # classification threshold shared with the contract under test


def minmax_grid_lp(points, p, rounds=6, grid=41, polish=False):
    """Min-max l_p distance over a refining planar grid; returns (radius, center).

    With polish=True a Nelder-Mead descent finishes from the best grid point,
    tightening the handful of cases where the shrinking grid strands along the
    flat valley of the max function.
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    half = float((hi - lo).max()) / 2.0 + 1e-9
    best = math.inf
    best_xy = center
    for _ in range(rounds):
        xs = np.linspace(center[0] - half, center[0] + half, grid)
        ys = np.linspace(center[1] - half, center[1] + half, grid)
        gx, gy = np.meshgrid(xs, ys)
        cand = np.stack([gx.ravel(), gy.ravel()], axis=1)
        diff = np.abs(cand[:, None, :] - pts[None, :, :])
        if math.isinf(p):
            dist = diff.max(axis=2)
        else:
            dist = (diff**p).sum(axis=2) ** (1.0 / p)
        worst = dist.max(axis=1)
        idx = int(np.argmin(worst))
        best = float(worst[idx])
        best_xy = cand[idx]
        center = best_xy
        half = half * 2.0 / (grid - 1) * 1.5
    if polish:
        from scipy.optimize import minimize

        def objective(z):
            diff = np.abs(z[None, :] - pts)
            if math.isinf(p):
                return float(diff.max(axis=1).max())
            return float(((diff**p).sum(axis=1) ** (1.0 / p)).max())

        res = minimize(
            objective,
            best_xy,
            method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-14, "maxiter": 4000},
        )
        if res.fun < best:
            best, best_xy = float(res.fun), res.x
    return best, best_xy


def law_of_sines_circumradius(a, b, c):
    """Euclidean enclosing-ball radius via the inscribed-angle route."""
    a, b, c = sorted((a, b, c), reverse=True)
    if b == 0.0 or c == 0.0:
        return a / 2.0
    cos_alpha = (b * b + c * c - a * a) / (2.0 * b * c)
    if b * b + c * c - a * a <= _OBTUSE_REL * a * a:
        return a / 2.0
    sin_alpha = math.sqrt(max(1.0 - cos_alpha * cos_alpha, 0.0))
    if sin_alpha == 0.0:
        return a / 2.0
    return a / (2.0 * sin_alpha)


def single_pass_circumradius_batch(a, b, c, kappa):
    """The model kernel as one pass over every triangle (a >= b >= c): Heron's four-sn
    root, the ratio and the arc are evaluated for every triangle, and the half-side
    branch, where sn(b/2)^2 + sn(c/2)^2 <= (1 + 1e-12) sn(a/2)^2, selects a / 2 at the
    end. sn of half a side is sin or sinh of half its scaled length; in the plane the
    halvings are left out and the arc halves the ratio. A call whose longest side
    times sqrt|kappa| is below 2^-200 takes the plane row. Returns the radii and the
    half-side mask; raises FloatingPointError where any step leaves the float64 range."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    scale = math.sqrt(abs(kappa))
    if scale * float(a.max(initial=0.0)) >= 2.0**-200:
        sn_half = (lambda v: np.sin(0.5 * v)) if kappa > 0 else (lambda v: np.sinh(0.5 * v))
        arc = np.arctan if kappa > 0 else np.arctanh
    else:
        sn_half, arc, scale = (lambda v: v), (lambda v: 0.5 * v), 1.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x, y, z = (a, b, c) if scale == 1.0 else (a * scale, b * scale, c * scale)
        xy = x - y
        root = sn_half(x + (y + z)) * sn_half(np.maximum(z - xy, 0.0))
        root = np.sqrt(root * sn_half(z + xy) * sn_half(x + (y - z)))
        ha, hb, hc = sn_half(x), sn_half(y), sn_half(z)
        ha2 = ha * ha
        half = (hb * hb + hc * hc - ha2) <= _OBTUSE_REL * ha2
        ratio = np.where(half, 0.0, 2.0 * ha * hb * hc) / np.where(half, 1.0, root)
        return np.where(half, 0.5 * a, arc(ratio) / scale), half


def per_chart_model_distance(p, q, k):
    """Geodesic distance between two model points in the chart of k: the plane's
    hypot, the sphere's dot product, the hyperboloid's Minkowski product."""
    u, v = p.coords, q.coords
    if k == 0:
        return math.hypot(u[0] - v[0], u[1] - v[1])
    if k > 0:
        radius = 1.0 / math.sqrt(k)
        dot = sum(a * b for a, b in zip(u, v)) / radius**2
        return radius * math.acos(max(-1.0, min(1.0, dot)))
    radius = 1.0 / math.sqrt(-k)
    dot = -(u[0] * v[0] + u[1] * v[1] - u[2] * v[2]) / radius**2
    return radius * math.acosh(max(1.0, dot))


def _sphere_exp(base, e1, e2, w):
    rho = np.linalg.norm(w, axis=1)
    rho_safe = np.maximum(rho, 1e-300)
    direction = (w[:, [0]] * e1 + w[:, [1]] * e2) / rho_safe[:, None]
    return np.cos(rho)[:, None] * base + np.sin(rho)[:, None] * direction


def _hyper_exp(base, e1, e2, w):
    rho = np.linalg.norm(w, axis=1)
    rho_safe = np.maximum(rho, 1e-300)
    direction = (w[:, [0]] * e1 + w[:, [1]] * e2) / rho_safe[:, None]
    return np.cosh(rho)[:, None] * base + np.sinh(rho)[:, None] * direction


def minmax_grid_model(vertices, kappa, grid=41, half0=None):
    """Min-max geodesic distance to three model points: coarse chart grid plus
    a derivative-free polish.

    `vertices` are embedding coordinates (2D for kappa = 0, 3D otherwise,
    scaled to curvature radius 1 internally). The coarse grid locates the
    basin; Nelder-Mead then descends the (convex but nonsmooth) max function,
    which a pure shrinking-grid scheme tracks poorly along its flat valleys.
    """
    from scipy.optimize import minimize

    verts = np.asarray(vertices, dtype=float)
    if kappa == 0:
        return minmax_grid_lp(verts, 2.0)[0]

    radius = 1.0 / math.sqrt(abs(kappa))
    unit = verts / radius
    if kappa > 0:
        base = unit.sum(axis=0)
        norm = np.linalg.norm(base)
        base = base / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
        exp_map = _sphere_exp

        def distances(points):
            return np.arccos(np.clip(points @ unit.T, -1.0, 1.0))

        half = half0 if half0 is not None else math.pi / 2
        e1 = np.cross(base, [0.0, 0.0, 1.0])
        if np.linalg.norm(e1) < 1e-9:
            e1 = np.cross(base, [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(base, e1)
        e2 /= np.linalg.norm(e2)
    else:
        j = np.diag([1.0, 1.0, -1.0])
        base = unit.sum(axis=0)
        base = base / math.sqrt(-(base @ j @ base))
        exp_map = _hyper_exp

        def distances(points):
            return np.arccosh(np.clip(-(points @ j @ unit.T), 1.0, None))

        pairwise = np.arccosh(np.clip(-(unit @ j @ unit.T), 1.0, None))
        half = half0 if half0 is not None else 1.0 + float(pairwise.max())
        e1 = np.array([1.0, 0.0, 0.0])
        e1 = e1 - (e1 @ j @ base) / (base @ j @ base) * base
        e1 /= math.sqrt(e1 @ j @ e1)
        e2 = np.array([0.0, 1.0, 0.0])
        e2 = e2 - (e2 @ j @ base) / (base @ j @ base) * base - (e2 @ j @ e1) * e1
        e2 /= math.sqrt(e2 @ j @ e2)

    center = np.zeros(2)
    best = math.inf
    start = center
    for _ in range(3):  # coarse-to-fine grids localize the basin for the polish
        xs = np.linspace(center[0] - half, center[0] + half, grid)
        ys = np.linspace(center[1] - half, center[1] + half, grid)
        gx, gy = np.meshgrid(xs, ys)
        w = np.stack([gx.ravel(), gy.ravel()], axis=1)
        worst = distances(exp_map(base, e1, e2, w)).max(axis=1)
        idx = int(np.argmin(worst))
        best = float(worst[idx])
        start = center = w[idx]
        half = half * 2.0 / (grid - 1) * 2.0

    def objective(z):
        return float(distances(exp_map(base, e1, e2, z[None, :])).max())

    # Nelder-Mead stalls on the kinks of the max function, so polish with an
    # epigraph program instead: minimize t subject to d_i(w) <= t, whose
    # constraints are smooth near the optimum
    def dists(z):
        return distances(exp_map(base, e1, e2, z[None, :]))[0]

    constraints = [
        {"type": "ineq", "fun": (lambda z, i=i: z[2] - dists(z[:2])[i])} for i in range(3)
    ]
    res = minimize(
        lambda z: z[2],
        np.array([start[0], start[1], best * (1 + 1e-9) + 1e-12]),
        method="SLSQP",
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-15},
    )
    if res.x is not None:
        best = min(best, float(dists(res.x[:2]).max()))
    nm = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-14, "maxiter": 4000},
    )
    best = min(best, float(nm.fun))
    return radius * best


def enumerate_triples(space, degenerate_pairs=False, beta=0.0):
    """Canonical triples in lexicographic order, filtered by the beta rule.

    `degenerate_pairs` additionally yields (i, i, j) for every pair; the
    beta filter applies to distinct-index pairs only.
    """
    # imported here: bench/refs.py loads this module where curvcomp may not be importable
    from curvcomp.metricspace import Triple

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


def brute_discrete_circumradius(dist, i, j, k):
    """No-pruning min-max over all points; returns (radius, attaining index)."""
    n = dist.shape[0]
    best = math.inf
    best_x = -1
    for x in range(n):
        worst = max(dist[x, i], dist[x, j], dist[x, k])
        if worst < best:
            best = worst
            best_x = x
    return best, best_x


def brute_certify(dist, kappa=0.0, beta=0.0, degenerate=False):
    """From-scratch scan over canonical triples. Returns a result dict.

    Only kappa = 0 is supported (the model side uses the law-of-sines route).
    """
    assert kappa == 0.0
    n = dist.shape[0]
    eps_upper = 0.0
    eps_lower = 0.0
    worst_upper = None
    worst_lower = None
    count = 0
    for i in range(n):
        if degenerate:
            for j in range(i + 1, n):
                if dist[i, j] < beta:
                    continue
                r_space, _ = brute_discrete_circumradius(dist, i, i, j)
                defect = r_space - dist[i, j] / 2.0
                count += 1
                if defect > eps_upper:
                    eps_upper = defect
                    worst_upper = (i, i, j)
                if -defect > eps_lower:
                    eps_lower = -defect
                    worst_lower = (i, i, j)
        for j in range(i + 1, n):
            if dist[i, j] < beta:
                continue
            for k in range(j + 1, n):
                if dist[i, k] < beta or dist[j, k] < beta:
                    continue
                r_space, _ = brute_discrete_circumradius(dist, i, j, k)
                r_model = law_of_sines_circumradius(dist[i, j], dist[i, k], dist[j, k])
                defect = r_space - r_model
                count += 1
                if defect > eps_upper:
                    eps_upper = defect
                    worst_upper = (i, j, k)
                if -defect > eps_lower:
                    eps_lower = -defect
                    worst_lower = (i, j, k)
    return {
        "eps_upper": eps_upper,
        "eps_lower": eps_lower,
        "worst_upper": worst_upper,
        "worst_lower": worst_lower,
        "count": count,
    }


def brute_delta(dist):
    """Spec-order exhaustive four-point scan; returns (delta, witness)."""
    n = dist.shape[0]
    best = 0.0
    witness = None
    for w in range(n):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    gxz = (dist[x, w] + dist[z, w] - dist[x, z]) / 2.0
                    gzy = (dist[z, w] + dist[y, w] - dist[z, y]) / 2.0
                    gxy = (dist[x, w] + dist[y, w] - dist[x, y]) / 2.0
                    val = min(gxz, gzy) - gxy
                    if val > best:
                        best = val
                        witness = (x, y, z, w)
    return best, witness


def random_metric_matrix(rng, n, lo=1.0, hi=2.0):
    """A random metric: entries in [lo, hi] with hi <= 2*lo are automatically metric."""
    assert hi <= 2 * lo
    m = rng.uniform(lo, hi, size=(n, n))
    m = np.triu(m, 1)
    m = m + m.T
    return m


def triangle_violations(d, tau):
    """Every (i, j, k) with i < j, k apart from both and d(i, j) > d(i, k) +
    d(k, j) + tau, ordered by k, then i, then j: one pass over the whole
    matrix per k, with no screen in front."""
    found = [np.empty((0, 3), dtype=np.intp)]
    for k in range(d.shape[0]):
        bad = d > d[:, [k]] + d[[k], :] + tau
        bad[:, k] = bad[k, :] = False
        ij = np.argwhere(np.triu(bad, 1))
        if ij.size:
            found.append(np.column_stack([ij, np.full(len(ij), k)]))
    return np.concatenate(found)


def triangle_violations_by_rows(d, tau):
    """The rows of `triangle_violations` as validation once listed them: one
    pass over the rows i, comparing d(i, j > i) with every fl(d(k, j) + d(i, k))
    + tau, whose hits a stable sort on k puts in order (k, then i, then j)."""
    n = len(d)
    dt = np.ascontiguousarray(d.T)
    found = [np.empty((3, 0), dtype=np.intp)]
    for i in range(n - 1):
        with np.errstate(over="ignore"):
            sums = dt[i + 1 :] + d[i]
        sums += tau
        bad = d[i, i + 1 :, None] > sums
        bad[:, i] = False
        bad[np.arange(n - 1 - i), np.arange(i + 1, n)] = False  # k = j
        j, k = np.nonzero(bad)
        found.append(np.array([np.full(j.size, i), j + (i + 1), k]))
    ijk = np.concatenate(found, axis=1)
    return ijk[:, np.argsort(ijk[2], kind="stable")].T.astype(np.intp, order="C")


def violation_listing(d, tau):
    """Every (kind, indices) group of a square matrix's metric-axiom
    violations, in report order, empty groups left out."""
    upper = np.triu(np.ones(d.shape, dtype=bool), 1)
    groups = [
        ("nonzero_diagonal", np.flatnonzero(np.diag(d) != 0.0)[:, None]),
        ("asymmetry", np.argwhere(upper & (d != d.T))),
        ("negative_entry", np.argwhere(upper & (d < 0.0))),
        ("zero_off_diagonal", np.argwhere(upper & (d == 0.0))),
        ("triangle", triangle_violations_by_rows(d, tau)),
    ]
    return [(kind, idx) for kind, idx in groups if len(idx)]


def per_base_max_full(d, w):
    """The four-point value of every (x, y) at base point w, as a full n x n
    matrix; returns its largest entry and first maximiser (w, x, y, z) in
    row-major order, z the first maximiser of the inner max."""
    n = len(d)
    g = (d[:, [w]] + d[[w], :] - d) / 2.0
    vals = np.empty_like(g)
    step = max(1, (1 << 18) // max(1, n * n))
    for start in range(0, n, step):
        xs = slice(start, start + step)
        vals[xs] = np.minimum(g[xs, :, None], g[None, :, :]).max(axis=1) - g[xs]
    x, y = divmod(int(np.argmax(vals)), n)
    z = int(np.argmax(np.minimum(g[x], g[:, y]) - g[x, y]))
    return float(vals[x, y]), (w, x, y, z)


def tree_plus_edges(rng, n, p=0.04):
    """The benchmark's weighted graph: a random recursive tree plus extra edges."""
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    iu, ju = np.triu_indices(n, 1)
    extra = rng.uniform(size=iu.size) < p
    pairs = sorted(pairs | set(zip(iu[extra].tolist(), ju[extra].tolist())))
    return [(f"v{u}", f"v{v}", float(c)) for (u, v), c in zip(pairs, rng.uniform(0.5, 1.5, len(pairs)))]


def subdivided_tree(rng, nodes, steps):
    """The benchmark's tree: a random recursive tree, each edge cut into unit edges."""
    edges, fresh = [], nodes
    for v in range(1, nodes):
        chain = [int(rng.integers(0, v)), *range(fresh, fresh + steps - 1), v]
        fresh += steps - 1
        edges += [(f"v{a}", f"v{b}", 1.0) for a, b in zip(chain, chain[1:])]
    return edges


def dijkstra_path_metric(edges):
    """(vertices, d): scipy's float Dijkstra from every vertex of an edge list,
    d[s, v] the left-to-right sum along a shortest path from s to v, inf where
    there is none, not made symmetric. Vertices are indexed in order of first
    appearance; a parallel edge keeps its least weight and a loop is dropped."""
    from scipy.sparse.csgraph import shortest_path

    index = {}
    for u, v, _ in edges:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    w = np.zeros((len(index), len(index)))  # 0: no edge
    for u, v, c in edges:
        i, j = index[u], index[v]
        if i != j and not 0.0 < w[i, j] <= c:
            w[i, j] = w[j, i] = c
    return list(index), shortest_path(w, method="D", directed=False)
