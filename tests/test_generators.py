"""Seeded generators."""
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from curvcomp import (
    GeneratorSpec,
    parse_generator_spec,
    sample_space,
)
from curvcomp.generators import _KIND_PARAMS
from curvcomp.metricspace import InvalidParameterError


def test_parse_generator_spec_basic():
    spec = parse_generator_spec("sphere:kappa=1,n=40,seed=7")
    assert spec == GeneratorSpec(kind="sphere", kappa=1.0, n=40, seed=7)


def test_parse_generator_spec_rejects_unknown_keys():
    with pytest.raises(InvalidParameterError):
        parse_generator_spec("sphere:radius=2")
    with pytest.raises(InvalidParameterError):
        sample_space(parse_generator_spec("wormhole:n=3"))


@pytest.mark.parametrize(
    "text,key",
    [
        ("sphere:kappa=1,n=5,box=3,dim=7,edge_prob=0.9", "box"),
        ("grid:n=400,width=2,height=2", "n"),
        ("grid:width=2,height=2,seed=1", "seed"),
        ("euclidean:n=5,kappa=1", "kappa"),
        ("tree:n=5,edge_prob=0.5", "edge_prob"),
    ],
)
def test_parse_generator_spec_rejects_parameters_the_kind_never_reads(text, key):
    kind = text.partition(":")[0]
    with pytest.raises(InvalidParameterError, match=f"^unknown generator parameter '{key}' for kind '{kind}'$"):
        parse_generator_spec(text)


def test_parse_generator_spec_rejects_a_repeated_parameter():
    # the last value used to win without a word
    with pytest.raises(InvalidParameterError, match="^generator parameter 'n' given twice$"):
        parse_generator_spec("sphere:kappa=1,n=3,n=5")


def test_every_parameter_a_kind_takes_changes_its_space():
    base = {
        "euclidean": {"n": "5"},
        "sphere": {"kappa": "1", "n": "5"},
        "hyperbolic": {"kappa": "-1", "n": "5"},
        "lp_plane": {"p": "3", "n": "5"},
        "tree": {"n": "5"},
        "grid": {"width": "2", "height": "3"},
        "random_graph": {"n": "6", "edge_prob": "0.5"},
    }
    other = {
        "n": "7", "seed": "1", "dim": "3", "box": "2", "chart_radius": "1", "p": "4",
        "subdivision": "1", "edge_length": "2", "width": "3", "height": "2",
        "edge_prob": "0.9", "weight_min": "0.2", "weight_max": "3",
    }
    def spec(kind, params):
        return parse_generator_spec(f"{kind}:" + ",".join(f"{key}={value}" for key, value in params.items()))

    assert set(base) == set(_KIND_PARAMS)
    for kind, params in _KIND_PARAMS.items():
        dist = sample_space(spec(kind, base[kind])).dist
        for key in params:
            value = ("2" if kind == "sphere" else "-2") if key == "kappa" else other[key]
            changed = sample_space(spec(kind, {**base[kind], key: value})).dist
            assert changed.shape != dist.shape or not np.array_equal(changed, dist), (kind, key)


@pytest.mark.parametrize(
    "text",
    [
        "euclidean:n=12,seed=3,dim=3",
        "sphere:kappa=0.5,n=10,seed=1",
        "hyperbolic:kappa=-1,n=10,seed=1",
        "lp_plane:p=4,n=10,seed=2",
        "tree:n=9,seed=5,subdivision=1",
        "grid:width=3,height=4",
        "random_graph:n=12,seed=8",
    ],
)
def test_generators_are_seed_deterministic(text):
    a = sample_space(parse_generator_spec(text))
    b = sample_space(parse_generator_spec(text))
    assert np.array_equal(a.dist, b.dist)


def test_different_seeds_differ():
    a = sample_space(parse_generator_spec("euclidean:n=10,seed=1"))
    b = sample_space(parse_generator_spec("euclidean:n=10,seed=2"))
    assert not np.array_equal(a.dist, b.dist)


def test_sphere_distances_bounded_by_model_diameter():
    kappa = 2.0
    space = sample_space(GeneratorSpec(kind="sphere", kappa=kappa, n=50, seed=3))
    assert space.diameter <= math.pi / math.sqrt(kappa) + 1e-12
    assert np.array_equal(space.dist, space.dist.T)


def test_hyperbolic_distances_respect_chart_radius():
    space = sample_space(
        GeneratorSpec(kind="hyperbolic", kappa=-1.0, n=50, seed=4, chart_radius=1.5)
    )
    assert space.diameter <= 3.0 + 1e-9  # two points at most 2 * chart_radius apart


def test_lp_plane_matches_cdist_and_carries_embedding():
    space = sample_space(GeneratorSpec(kind="lp_plane", p=3.0, n=15, seed=6))
    assert space.embedding is not None and space.embedding.p == 3.0
    want = cdist(space.embedding.coords, space.embedding.coords, "minkowski", p=3.0)
    assert np.allclose(space.dist, want, atol=1e-12)


def test_euclidean_embedding_present():
    space = sample_space(GeneratorSpec(kind="euclidean", n=8, seed=0, dim=4))
    assert space.embedding.coords.shape == (8, 4)


def test_tree_subdivision_sizes_and_scales():
    base = sample_space(GeneratorSpec(kind="tree", n=10, seed=1, subdivision=0))
    fine = sample_space(GeneratorSpec(kind="tree", n=10, seed=1, subdivision=1))
    assert base.n == 10
    assert fine.n == 10 + 9  # one new vertex per original edge
    # original vertices keep their pairwise distances (indices follow first
    # appearance in the edge list, so align through the labels)
    idx = [fine.labels.index(lab) for lab in base.labels]
    assert np.allclose(fine.subspace(idx).dist, base.dist, atol=1e-12)
    # all distances are multiples of the halved edge length
    assert np.allclose(fine.dist * 2, np.round(fine.dist * 2), atol=1e-9)


def test_grid_metric_is_manhattan():
    space = sample_space(GeneratorSpec(kind="grid", width=4, height=3))
    assert space.n == 12
    pos = {space.labels.index(str(y * 4 + x)): (x, y) for y in range(3) for x in range(4)}
    for a, (xa, ya) in pos.items():
        for b, (xb, yb) in pos.items():
            assert space.dist[a, b] == abs(xa - xb) + abs(ya - yb)


def test_random_graph_is_validated_metric():
    space = sample_space(GeneratorSpec(kind="random_graph", n=20, seed=9, edge_prob=0.2))
    assert space.n == 20
    assert float(space.dist.min()) == 0.0


def test_generator_parameter_checks():
    with pytest.raises(InvalidParameterError):
        sample_space(GeneratorSpec(kind="sphere", kappa=-1.0, n=5))
    with pytest.raises(InvalidParameterError):
        sample_space(GeneratorSpec(kind="hyperbolic", kappa=1.0, n=5))
    for p in (1.0, -math.inf, math.nan):  # p = inf is the sup norm, -inf no norm
        with pytest.raises(InvalidParameterError, match="lp_plane needs n>=1, p>1, box>0"):
            sample_space(GeneratorSpec(kind="lp_plane", p=p, n=5))
    assert sample_space(GeneratorSpec(kind="lp_plane", p=math.inf, n=5)).embedding.p == math.inf
    with pytest.raises(InvalidParameterError):
        sample_space(GeneratorSpec(kind="tree", n=1))
