"""Seeded synthetic metric spaces."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .metricspace import (
    Embedding,
    FiniteMetricSpace,
    InvalidParameterError,
    from_graph,
    lp_distances,
    validate_metric,
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the synthetic space generators; seed fully determines output.

    Kinds: euclidean(dim, n, box), sphere(kappa>0, n), hyperbolic(kappa<0, n,
    chart_radius), lp_plane(p, n, box), tree(n, subdivision, edge_length),
    grid(width, height), random_graph(n, edge_prob, weight_min/max).
    """

    kind: str
    n: int = 0
    seed: int = 0
    dim: int = 2
    kappa: float = 0.0
    p: float = 2.0
    box: float = 1.0
    subdivision: int = 0
    edge_length: float = 1.0
    width: int = 0
    height: int = 0
    edge_prob: float = 0.3
    weight_min: float = 0.5
    weight_max: float = 1.5
    chart_radius: float = 2.0


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(GeneratorSpec)}
# the parameters each kind reads in sample_space
_KIND_PARAMS = {
    "euclidean": ("n", "seed", "dim", "box"),
    "sphere": ("n", "seed", "kappa"),
    "hyperbolic": ("n", "seed", "kappa", "chart_radius"),
    "lp_plane": ("n", "seed", "p", "box"),
    "tree": ("n", "seed", "subdivision", "edge_length"),
    "grid": ("width", "height"),
    "random_graph": ("n", "seed", "edge_prob", "weight_min", "weight_max"),
}


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse a `kind:key=value,key=value` string, e.g. `sphere:kappa=1,n=40,seed=7`."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    known = _KIND_PARAMS.get(kind, _FIELD_TYPES)  # sample_space names an unknown kind
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in known or key == "kind":
                raise InvalidParameterError(f"unknown generator parameter {key!r} for kind {kind!r}")
            if key in kwargs:
                raise InvalidParameterError(f"generator parameter {key!r} given twice")
            if _FIELD_TYPES[key] == "int":
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
    return GeneratorSpec(kind=kind, **kwargs)


def sphere_points(kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the sphere of radius 1/sqrt(kappa), embedded in R^3."""
    if kappa <= 0:
        raise InvalidParameterError("sphere requires kappa > 0")
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x / math.sqrt(kappa)


def sphere_distances(points: np.ndarray, kappa: float) -> np.ndarray:
    radius = 1.0 / math.sqrt(kappa)
    gram = np.clip(points @ points.T / radius**2, -1.0, 1.0)
    d = radius * np.arccos(gram)
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def hyperboloid_points(
    kappa: float, n: int, rng: np.random.Generator, chart_radius: float = 2.0
) -> np.ndarray:
    """Points on the hyperboloid model of curvature kappa < 0.

    Sampling convention: uniform on a Euclidean disk of radius `chart_radius`
    in the exponential chart at the apex.
    """
    if kappa >= 0:
        raise InvalidParameterError("hyperbolic requires kappa < 0")
    radius = 1.0 / math.sqrt(-kappa)
    rho = chart_radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sinh(rho / radius)
    return radius * np.stack(
        [s * np.cos(phi), s * np.sin(phi), np.cosh(rho / radius)], axis=1
    )


def hyperboloid_distances(points: np.ndarray, kappa: float) -> np.ndarray:
    radius = 1.0 / math.sqrt(-kappa)
    gram = points[:, :2] @ points[:, :2].T - np.outer(points[:, 2], points[:, 2])
    d = radius * np.arccosh(np.clip(-gram / radius**2, 1.0, None))
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def _random_tree_edges(n: int, rng: np.random.Generator, edge_length: float) -> list[tuple]:
    return [(int(rng.integers(0, i)), i, edge_length) for i in range(1, n)]


def _subdivide(edges: list[tuple], steps: int) -> list[tuple]:
    """Split each edge into 2**steps equal pieces, adding fresh vertices."""
    vertices = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    next_id = max(int(v) for v in vertices) + 1
    for _ in range(steps):
        out = []
        for u, v, w in edges:
            out.append((u, next_id, w / 2.0))
            out.append((next_id, v, w / 2.0))
            next_id += 1
        edges = out
    return edges


def sample_space(spec: GeneratorSpec) -> FiniteMetricSpace:
    """Generate a finite metric space; deterministic in the spec's seed.

    Each float parameter the kind reads must be finite (p may be inf), and an
    arithmetic step that leaves the float64 range raises InvalidParameterError.
    """
    kind = spec.kind
    for name in _KIND_PARAMS.get(kind, ()):
        value = getattr(spec, name)
        if name != "p" and not math.isfinite(value):
            raise InvalidParameterError(f"{kind} parameter {name} must be finite, got {value}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _sample(spec, np.random.default_rng(spec.seed))
    except (FloatingPointError, OverflowError) as exc:
        raise InvalidParameterError(f"{kind} sample leaves the float64 range: {exc}") from None


def _sample(spec: GeneratorSpec, rng: np.random.Generator) -> FiniteMetricSpace:
    kind = spec.kind
    if kind == "euclidean":
        _require(spec.n >= 1 and spec.dim >= 1 and spec.box > 0, "euclidean needs n>=1, dim>=1, box>0")
        return _lp_sample(rng.uniform(0.0, spec.box, size=(spec.n, spec.dim)), 2.0)
    if kind == "sphere":
        _require(spec.n >= 1, "sphere needs n >= 1")
        pts = sphere_points(spec.kappa, spec.n, rng)
        return validate_metric(sphere_distances(pts, spec.kappa))
    if kind == "hyperbolic":
        _require(spec.n >= 1 and spec.chart_radius > 0, "hyperbolic needs n>=1, chart_radius>0")
        pts = hyperboloid_points(spec.kappa, spec.n, rng, spec.chart_radius)
        return validate_metric(hyperboloid_distances(pts, spec.kappa))
    if kind == "lp_plane":
        _require(spec.n >= 1 and spec.p > 1 and spec.box > 0, "lp_plane needs n>=1, p>1, box>0")
        return _lp_sample(rng.uniform(0.0, spec.box, size=(spec.n, 2)), spec.p)
    if kind == "tree":
        _require(spec.n >= 2 and spec.edge_length > 0 and spec.subdivision >= 0, "tree needs n>=2, edge_length>0, subdivision>=0")
        edges = _subdivide(_random_tree_edges(spec.n, rng, spec.edge_length), spec.subdivision)
        return from_graph(edges)
    if kind == "grid":
        _require(spec.width >= 1 and spec.height >= 1 and spec.width * spec.height >= 2, "grid needs width, height >= 1 and width*height >= 2")
        w, h = spec.width, spec.height
        edges = []
        for y in range(h):
            for x in range(w):
                v = y * w + x
                if x + 1 < w:
                    edges.append((v, v + 1, 1.0))
                if y + 1 < h:
                    edges.append((v, v + w, 1.0))
        return from_graph(edges)
    if kind == "random_graph":
        _require(spec.n >= 2 and 0.0 <= spec.edge_prob <= 1.0, "random_graph needs n>=2, edge_prob in [0,1]")
        _require(0.0 < spec.weight_min <= spec.weight_max, "weight range must be positive and ordered")
        edges = []
        for i in range(1, spec.n):
            parent = int(rng.integers(0, i))
            edges.append((parent, i, _w(rng, spec)))
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                if rng.uniform() < spec.edge_prob:
                    edges.append((i, j, _w(rng, spec)))
        return from_graph(edges)
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


def _lp_sample(pts: np.ndarray, p: float) -> FiniteMetricSpace:
    d = lp_distances(pts, pts, p)
    if not np.all(np.isfinite(d)):
        # cdist sums |x - y|^p in C, where np.errstate does not reach
        raise FloatingPointError("overflow encountered in the l_p distances")
    return validate_metric(d, embedding=Embedding(pts, p))


def _w(rng: np.random.Generator, spec: GeneratorSpec) -> float:
    return float(rng.uniform(spec.weight_min, spec.weight_max))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)
