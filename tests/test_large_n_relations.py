"""Exact relations at sizes that the brute-force oracles cannot reach.

The oracles in `oracles.py` check the scans triple by triple at n <= 40 or so. Past that, the
scans' pruning (the pair table, the Jung bracket, the pair prune, the four-point delta's pair
search) runs on paths that small inputs never take. These checks need no oracle: a tree's upper
epsilon* is h/2 for its edge length h, a unit cycle's delta is known in closed form, and
relabelling the points changes no value.
"""
import dataclasses

import numpy as np
import pytest

from curvcomp import (
    CurvatureQuery,
    Triple,
    certify,
    delta_four_point,
    from_graph,
    parse_generator_spec,
    sample_space,
    triangle_defect,
    validate_metric,
)
from oracles import random_metric_matrix


@pytest.mark.parametrize(
    "spec, half_edge",
    [
        ("tree:n=300,seed=0", 0.5),
        # every edge split into 4 of length 0.25: 100 + 99 * 3 = 397 vertices
        ("tree:n=100,seed=2,subdivision=2", 0.125),
    ],
)
def test_tree_upper_epsilon_star_is_half_the_edge_length(spec, half_edge):
    space = sample_space(parse_generator_spec(spec))
    assert space.n > 250
    assert certify(space, CurvatureQuery(kappa=0.0, direction="upper")).epsilon_needed == half_edge


@pytest.mark.parametrize("n, delta", [(200, 50.0), (201, 49.5), (202, 50.0), (203, 50.0)])
def test_unit_cycle_delta_is_a_quarter_of_its_length(n, delta):
    # floor(n / 4), less 1/2 when n = 1 (mod 4)
    cycle = from_graph([(i, (i + 1) % n, 1.0) for i in range(n)])
    assert delta_four_point(cycle).delta == delta


TREE_0_7 = "tree:n=120,seed=3,edge_length=0.7"


def _random_metric():
    return validate_metric(random_metric_matrix(np.random.default_rng(0), 150))


def _sample(spec):
    return lambda: sample_space(parse_generator_spec(spec))


@pytest.mark.parametrize(
    "build, kappa",
    [
        (_random_metric, 0.0),
        (_sample("sphere:kappa=1,n=150,seed=0"), 1.0),
        (_sample("hyperbolic:kappa=-1,n=150,seed=0"), -1.0),
        # the delta's pair search cuts nothing here and every base point is scanned in full
        (_sample(TREE_0_7), 0.0),
    ],
    ids=["random", "sphere", "hyperbolic", "tree_0.7"],
)
def test_relabelling_changes_no_value(build, kappa):
    # the scans prune on other pairs and blocks once the points are relabelled (the upper scan
    # gathers 73,258 triples on the random metric and 75,883 relabelled), yet every value and
    # witness defect stays bitwise
    space = build()
    perm = np.random.default_rng(7).permutation(space.n)
    relabelled = space.subspace(perm)
    for direction in ("upper", "lower"):
        query = CurvatureQuery(kappa=kappa, direction=direction)
        verdict, moved = certify(space, query), certify(relabelled, query)
        assert moved.epsilon_needed == verdict.epsilon_needed
        if moved.witness is not None:
            back = Triple(*perm[list(moved.witness.triple.as_tuple())].tolist())
            assert triangle_defect(space, back, kappa) == dataclasses.replace(moved.witness, triple=back)
    assert delta_four_point(relabelled).delta == delta_four_point(space).delta


def _four_point_value(d, x, y, z, w):
    """min((x|z)_w, (z|y)_w) - (x|y)_w with the float operations of the delta's scans."""
    xz = (d[x, w] + d[w, z] - d[x, z]) / 2.0
    zy = (d[z, w] + d[w, y] - d[z, y]) / 2.0
    return min(xz, zy) - (d[x, w] + d[w, y] - d[x, y]) / 2.0


def test_delta_of_an_inexact_tree_scans_every_base_point():
    # edge length 0.7 is inexact in binary, so the tree's delta is rounding alone and the
    # pair search can cut nothing: all 120 base points are scanned in full, at a size that
    # brute force cannot reach
    space = _sample(TREE_0_7)()
    res = delta_four_point(space)
    assert (res.delta, res.witness, res.bases_scanned) == (1.7763568394002505e-15, (28, 90, 99, 8), 120)
    perm = np.random.default_rng(7).permutation(space.n)
    moved = delta_four_point(space.subspace(perm))
    assert moved.bases_scanned == space.n
    back = perm[list(moved.witness)]
    assert _four_point_value(space.dist, *back) == moved.delta == res.delta
