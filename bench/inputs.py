"""Seeded inputs and operation lists for the four benchmark workloads.

The samplers here are the benchmark's own and never call
`curvcomp.generators`, so a change to the package cannot change a workload.
Every operation is one `curvcomp` command line; the program only ever sees
the files written here.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Sizes give passes of 2-3 s, one thread, on a 2-core x86 box, so a 25 s
# run holds several passes and its median resists the box's noise.
# Tests pass smaller tables with the same keys.
SIZES = {
    "flat_scan": {"box": 150, "dense": 125},
    "curved_scan": {"sphere": 73, "hyperboloid": 78, "dense": 70},
    "graph_delta": {"graph": 123, "tree_nodes": 31, "subdivide": 4},
    "lp_and_reject": {"p_below_2": 60, "p_above_2": 90, "nonmetric": 110},
}

WORKLOADS = {
    "flat_scan": "kappa=0 certify/defect: space min-max kernel, reduction and defect buffers dominate",
    "curved_scan": "kappa=+1,-1,+0.5 certify: the arccos/arccosh model-plane kernel dominates",
    "graph_delta": "hyperbolicity on edge lists: four-point delta twice per command, graph parsing",
    "lp_and_reject": "l_p counterexample solver and the non-metric reject path; no O(n^3) scan",
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "modelplane": ("run_s", ["curved_scan", "flat_scan"]),
    "certify": ("run_s, peak_rss_mb", ["flat_scan"]),
    "hyperbolicity": ("run_s, peak_rss_mb", ["graph_delta"]),
    "circumradius": ("run_s", ["lp_and_reject"]),
    "counterexamples": ("run_s, ops_ok_frac", ["lp_and_reject"]),
    "metricspace": ("run_s, peak_rss_mb", ["lp_and_reject", "graph_delta"]),
    "cli/report": ("run_s", ["lp_and_reject"]),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `{json}` in argv is replaced by a per-pass report path."""

    key: str
    argv: tuple[str, ...]
    n: int = 0
    kappa: float | None = None


def _write_matrix(path: str, d: np.ndarray) -> None:
    lines = [str(d.shape[0])]
    lines += [",".join(format(x, ".17g") for x in row) for row in d.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_edges(path: str, edges) -> None:
    with open(path, "w") as fh:
        fh.write("# u v weight\n")
        fh.writelines(f"v{u} v{v} {format(w, '.17g')}\n" for u, v, w in edges)


def box_matrix(rng, n):
    """Euclidean distances of n uniform points in the unit cube."""
    x = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


def dense_matrix(rng, n, lo=1.0, hi=2.0):
    """Symmetric entries uniform in [lo, hi]; a metric whenever hi <= 2 lo."""
    m = np.triu(rng.uniform(lo, hi, size=(n, n)), 1)
    return m + m.T


def sphere_matrix(rng, n):
    """Geodesic distances of n uniform points on the unit sphere (kappa = 1)."""
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cross = np.linalg.norm(np.cross(x[:, None, :], x[None, :, :]), axis=2)
    d = np.arctan2(cross, x @ x.T)  # well conditioned for near and far pairs
    np.fill_diagonal(d, 0.0)
    return d


def hyperbolic_matrix(rng, n, chart_radius=2.0):
    """Distances of n area-uniform points within `chart_radius` of a base point
    of the hyperbolic plane (kappa = -1), computed in the Poincare disk."""
    u = rng.uniform(0.0, 1.0, size=n)
    r = np.arccosh(1.0 + u * (math.cosh(chart_radius) - 1.0))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    z = np.tanh(r / 2.0)[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    gap = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    conf = 1.0 - (z**2).sum(axis=1)
    d = 2.0 * np.arcsinh(gap / np.sqrt(conf[:, None] * conf[None, :]))
    np.fill_diagonal(d, 0.0)
    return d


def random_tree(rng, n):
    """Edges (parent, child) of a uniform random recursive tree on n nodes."""
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def weighted_graph_edges(rng, n, p=0.04):
    """A random tree plus independent extra edges, weights uniform in [0.5, 1.5]."""
    pairs = set(random_tree(rng, n))
    iu, ju = np.triu_indices(n, 1)
    extra = rng.uniform(size=iu.size) < p
    pairs.update(zip(iu[extra].tolist(), ju[extra].tolist()))
    pairs = sorted(pairs)
    weights = rng.uniform(0.5, 1.5, size=len(pairs))
    return [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]


def subdivided_tree_edges(rng, nodes, steps):
    """A random tree on `nodes` vertices with each edge cut into `steps` unit edges."""
    edges = []
    fresh = nodes
    for u, v in random_tree(rng, nodes):
        chain = [u] + list(range(fresh, fresh + steps - 1)) + [v]
        fresh += steps - 1
        edges += [(a, b, 1.0) for a, b in zip(chain, chain[1:])]
    return edges


def p_grid(below: int, above: int) -> list[float]:
    """Fixed l_p exponents: p - 1 log-spaced on [1e-3, 1), p log-spaced on
    (2, 24], and the controls p = 2 and p = inf. Both ends hold exponents
    where the reproduction gate fails today; they stay in the grid."""
    low = 1.0 + np.logspace(-3.0, 0.0, below, endpoint=False)
    high = np.logspace(math.log10(2.0), math.log10(24.0), above + 1)[1:]
    return [float(p) for p in low] + [2.0] + [float(p) for p in high] + [math.inf]


def build(workload: str, seed: int, out_dir: str, sizes=None) -> list[Op]:
    """Write the workload's input files for `seed` into `out_dir`; return its ops."""
    size = (sizes or SIZES)[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    if workload == "flat_scan":
        _write_matrix(path("box.csv"), box_matrix(rng, size["box"]))
        _write_matrix(path("dense.csv"), dense_matrix(rng, size["dense"]))
        return [
            Op("certify_upper_box", ("certify", path("box.csv"), "--kappa", "0", "--direction", "upper", "--json", "{json}"), size["box"], 0.0),
            Op("certify_lower_dense", ("certify", path("dense.csv"), "--kappa", "0", "--direction", "lower", "--json", "{json}"), size["dense"], 0.0),
            Op("defect_box", ("defect", path("box.csv"), "--kappa", "0", "--beta-grid", "0,0.25,0.5", "--json", "{json}"), size["box"], 0.0),
        ]
    if workload == "curved_scan":
        _write_matrix(path("sphere.csv"), sphere_matrix(rng, size["sphere"]))
        _write_matrix(path("hyperboloid.csv"), hyperbolic_matrix(rng, size["hyperboloid"]))
        _write_matrix(path("dense.csv"), dense_matrix(rng, size["dense"]))
        return [
            Op("certify_lower_sphere", ("certify", path("sphere.csv"), "--kappa", "1", "--direction", "lower", "--json", "{json}"), size["sphere"], 1.0),
            Op("certify_lower_hyperboloid", ("certify", path("hyperboloid.csv"), "--kappa", "-1", "--direction", "lower", "--json", "{json}"), size["hyperboloid"], -1.0),
            Op("certify_upper_dense", ("certify", path("dense.csv"), "--kappa", "0.5", "--direction", "upper", "--json", "{json}"), size["dense"], 0.5),
        ]
    if workload == "graph_delta":
        graph = weighted_graph_edges(rng, size["graph"])
        tree = subdivided_tree_edges(rng, size["tree_nodes"], size["subdivide"])
        _write_edges(path("graph.edges"), graph)
        _write_edges(path("tree.edges"), tree)
        h = max(w for _, _, w in graph)
        tree_n = size["tree_nodes"] + (size["tree_nodes"] - 1) * (size["subdivide"] - 1)
        return [
            Op("hyperbolicity_graph", ("hyperbolicity", path("graph.edges"), "--allowance", format(h, ".17g"), "--json", "{json}"), size["graph"], 0.0),
            Op("hyperbolicity_tree", ("hyperbolicity", path("tree.edges"), "--allowance", "1", "--json", "{json}"), tree_n, 0.0),
        ]
    if workload == "lp_and_reject":
        # entries in [0.1, 3] break the triangle inequality about 10^5 times
        _write_matrix(path("nonmetric.csv"), dense_matrix(rng, size["nonmetric"], 0.1, 3.0))
        ops = [
            Op(f"counterexample_p{i:03d}", ("counterexample", "--p", repr(p), "--json", "{json}"))
            for i, p in enumerate(p_grid(size["p_below_2"], size["p_above_2"]))
        ]
        return ops + [Op("validate_nonmetric", ("validate", path("nonmetric.csv")), size["nonmetric"])]
    raise ValueError(f"unknown workload {workload!r}")
