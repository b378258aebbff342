"""Four-point hyperbolicity and the relaxed-defect comparison."""
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvcomp.hyperbolicity as hyperbolicity_module
from curvcomp import (
    GeneratorSpec,
    delta_four_point,
    from_graph,
    gromov_product,
    relaxed_npc_bound_check,
    sample_space,
    validate_metric,
)
from oracles import brute_delta, random_metric_matrix

PATH4 = from_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def test_gromov_product_formula():
    assert gromov_product(PATH4, 0, 3, 1) == 0.0  # 1 lies on the 0-3 geodesic
    assert gromov_product(PATH4, 0, 2, 0) == 0.0
    assert gromov_product(PATH4, 3, 3, 0) == 3.0
    with pytest.raises(IndexError):
        gromov_product(PATH4, 0, 1, 9)


def test_gromov_product_nonnegative_and_symmetric():
    rng = np.random.default_rng(0)
    space = validate_metric(random_metric_matrix(rng, 8))
    for _ in range(100):
        x, y, w = rng.integers(0, 8, size=3)
        g = gromov_product(space, int(x), int(y), int(w))
        assert g >= 0.0
        assert g == gromov_product(space, int(y), int(x), int(w))


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_trees_have_delta_zero(seed):
    space = sample_space(GeneratorSpec(kind="tree", n=15, seed=seed))
    res = delta_four_point(space)
    assert res.delta == 0.0 and res.witness is None


def test_unit_four_cycle_delta_one():
    space = from_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    res = delta_four_point(space)
    assert res.delta == 1.0
    assert res.witness == (1, 3, 2, 0)  # first maximizer in scan order


def test_tiny_spaces_are_trivially_hyperbolic():
    empty = delta_four_point(validate_metric(np.zeros((0, 0))))
    assert (empty.delta, empty.witness, empty.bases_scanned) == (0.0, None, 0)
    assert delta_four_point(validate_metric(np.zeros((1, 1)))).delta == 0.0
    two = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert delta_four_point(two).witness is None


def test_delta_matches_brute_force_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        m = random_metric_matrix(rng, n)
        want_delta, want_witness = brute_delta(m)
        # one x row per block, a few rows per block, one block
        for block in (1, 150, hyperbolicity_module._BLOCK):
            with monkeypatch.context() as patch:
                patch.setattr(hyperbolicity_module, "_BLOCK", block)
                res = delta_four_point(validate_metric(m))
            assert res.delta == want_delta
            assert res.witness == want_witness


def test_delta_thread_invariance():
    rng = np.random.default_rng(6)
    m = random_metric_matrix(rng, 20)
    space = validate_metric(m)
    base = delta_four_point(space, threads=1)
    for t in (2, 4, 8):
        got = delta_four_point(space, threads=t)
        assert got.delta == base.delta and got.witness == base.witness
    for bad in (0, -2):
        with pytest.raises(ValueError):
            delta_four_point(space, threads=bad)


@pytest.mark.parametrize("threads", (1, 2))
def test_delta_scans_each_base_point_once(monkeypatch, threads):
    space = validate_metric(random_metric_matrix(np.random.default_rng(6), 11))
    per_base_max = hyperbolicity_module._per_base_max
    bases = []
    lock = threading.Lock()

    def recorded(d, w):
        with lock:
            bases.append(w)
        return per_base_max(d, w)

    monkeypatch.setattr(hyperbolicity_module, "_per_base_max", recorded)
    res = delta_four_point(space, threads=threads)
    assert len(bases) == len(set(bases)) == res.bases_scanned  # no base point twice
    assert (res.delta, res.witness) == brute_delta(space.dist)


def _every_base_point(d):
    """The fold of _per_base_max over every base point in index order."""
    best = (0.0, None)
    for w in range(len(d)):
        value, x, y, z = hyperbolicity_module._per_base_max(d, w)
        if value > best[0]:
            best = (value, (x, y, z, w))
    return best


def _unit_graph(edges):
    return from_graph([(u, v, 1.0) for u, v in edges])


SMALL_SPACES = {  # n <= 8, against brute_delta
    "unit_four_cycle": lambda: _unit_graph([(0, 1), (1, 2), (2, 3), (3, 0)]),
    "unit_five_cycle": lambda: _unit_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "grid_2x4": lambda: sample_space(GeneratorSpec(kind="grid", width=2, height=4)),
    "unit_tree": lambda: sample_space(GeneratorSpec(kind="tree", n=8, seed=3)),
    "tree_0.3": lambda: sample_space(GeneratorSpec(kind="tree", n=8, seed=3, edge_length=0.3)),
    "integer_weights": lambda: from_graph([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 2.0), (1, 4, 5.0), (4, 5, 1.0), (5, 3, 4.0)]),
}

SPACES = {  # n = 40-60, against the fold over every base point
    "grid_6x8": lambda: sample_space(GeneratorSpec(kind="grid", width=6, height=8)),
    "unit_random_graph": lambda: sample_space(
        GeneratorSpec(kind="random_graph", n=50, seed=3, edge_prob=0.1, weight_min=1.0, weight_max=1.0)
    ),
    "exact_tree": lambda: sample_space(GeneratorSpec(kind="tree", n=15, seed=2, subdivision=2)),
    "tree_0.3": lambda: sample_space(GeneratorSpec(kind="tree", n=45, seed=1, edge_length=0.3)),
    "random_metric": lambda: validate_metric(random_metric_matrix(np.random.default_rng(11), 50)),
    "weighted_graph": lambda: sample_space(GeneratorSpec(kind="random_graph", n=45, seed=4, edge_prob=0.05)),
    "hyperbolic": lambda: sample_space(GeneratorSpec(kind="hyperbolic", n=40, seed=5, kappa=-1.0)),
}


@pytest.mark.parametrize("scale", (1.0, 3.0, 0.1))
@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
def test_pruned_delta_matches_brute_force_on_small_spaces(name, scale):
    space = SMALL_SPACES[name]().rescale(scale)
    res = delta_four_point(space)
    assert (res.delta, res.witness) == brute_delta(space.dist)


@pytest.mark.parametrize("scale", (1.0, 3.0, 0.1))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_pruned_delta_matches_every_base_point_bitwise(monkeypatch, name, scale):
    space = SPACES[name]().rescale(scale)
    want = _every_base_point(space.dist)
    # one outer pair per block, a few per block, the default
    for block in (1, 300, hyperbolicity_module._BLOCK):
        with monkeypatch.context() as patch:
            patch.setattr(hyperbolicity_module, "_BLOCK", block)
            res = delta_four_point(space)
        assert (res.delta, res.witness) == want
        assert 1 <= res.bases_scanned <= space.n


@pytest.mark.parametrize("scale", (1.0, 3.0, 0.5))
def test_exact_tree_is_settled_by_one_base_point(scale):
    space = SPACES["exact_tree"]().rescale(scale)
    res = delta_four_point(space)
    assert (res.delta, res.witness) == (0.0, None)
    assert res.bases_scanned == 1 and res.quadruples == space.n**3


def test_tree_with_inexact_edges_keeps_the_noisy_witness():
    # 0.3 is not a multiple of a power of two: delta is rounding noise, nothing
    # can be cut, and every base point is scanned as in the exhaustive fold
    space = SPACES["tree_0.3"]()
    res = delta_four_point(space)
    assert 0.0 < res.delta < 1e-14 and res.witness is not None
    assert (res.delta, res.witness) == _every_base_point(space.dist)
    assert res.bases_scanned == space.n


def test_delta_prunes_base_points_on_a_random_metric():
    space = validate_metric(random_metric_matrix(np.random.default_rng(12), 60))
    res = delta_four_point(space)
    assert (res.delta, res.witness) == _every_base_point(space.dist)
    assert res.bases_scanned < space.n / 4
    assert space.n**3 * res.bases_scanned < res.quadruples < space.n**4


STAR = [[0, 1, 2, 2, 2], [1, 0, 1, 1, 1], [2, 1, 0, 2, 2], [2, 1, 2, 0, 2], [2, 1, 2, 2, 0]]
CYCLE_AND_HUB = [[0, 1, 2, 1, 1], [1, 0, 1, 2, 1], [2, 1, 0, 1, 2], [1, 2, 1, 0, 1], [1, 1, 2, 1, 0]]


@pytest.mark.parametrize(
    "units, shifts, want",
    [
        (STAR, {(1, 3): -256.0, (3, 4): 64.0}, (160.0, (3, 4, 1, 1))),
        (CYCLE_AND_HUB, {(0, 1): 64.0, (1, 3): 128.0}, (2.0**40 + 64.0, (2, 4, 3, 1))),
    ],
    ids=["repeated_point", "pair_bound"],
)
def test_pruned_delta_within_the_triangle_tolerance(units, shifts, want):
    # unit graph metrics scaled by 2**40 and shifted by a few hundred units pass
    # validation (tolerance about 2200 units) but break the triangle inequality.
    # On the star around point 1 the first maximiser repeats a point and is worth
    # half a 320-unit violation; on the 4-cycle 1-2-3-4 its value exceeds half the
    # distance of either of its pairs, the bound the pair search cuts at
    d = np.array(units) * 2.0**40
    for (i, j), shift in shifts.items():
        d[i, j] = d[j, i] = d[i, j] + shift
    space = validate_metric(d)
    res = delta_four_point(space)
    assert (res.delta, res.witness) == brute_delta(space.dist) == want


@pytest.mark.parametrize(
    "entries, exact",
    [
        ([1.0, 2.0, 7.0], True),
        ([0.5, 0.75, 12.25], True),
        ([3.0 * 2.0**-40, 2.0**9], True),
        ([2.0**-42, 2.0**9], False),  # 51 bits apart
        ([0.3, 0.6], False),
        ([1.0, 1.0 / 3.0], False),
    ],
)
def test_exactness_rule(entries, exact):
    d = np.zeros((len(entries) + 1, len(entries) + 1))
    d[0, 1:] = d[1:, 0] = entries
    assert hyperbolicity_module._is_exact(d) is exact


def test_delta_memory_stays_below_cubic():
    # one n^3 float64 (max, min) product per base point would take n^3 * 8 B = 4.1 MB here
    space = validate_metric(random_metric_matrix(np.random.default_rng(9), 80))
    tracemalloc.start()
    try:
        delta_four_point(space, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_delta_scales_linearly():
    rng = np.random.default_rng(7)
    space = validate_metric(random_metric_matrix(rng, 10))
    base = delta_four_point(space)
    scaled = delta_four_point(space.rescale(4.0))
    assert scaled.delta == pytest.approx(4.0 * base.delta, rel=1e-12)
    assert scaled.witness == base.witness


@pytest.mark.parametrize("n", (0, 1, 2, 5, 9, 13))
def test_triangle_slack_matches_brute_force(n):
    # the slack is the largest gap d(i, j) - (d(i, k) + d(k, j)) over all triples, at least 0
    rng = np.random.default_rng(n)
    m = random_metric_matrix(rng, n)
    for i, j in rng.integers(0, max(n, 1), size=(3, 2)):
        if i != j:
            m[i, j] = m[j, i] = rng.uniform(1.5, 3.5)
    want = max((m[i, j] - (m[i, k] + m[k, j]) for i in range(n) for j in range(n) for k in range(n)), default=0.0)
    assert hyperbolicity_module._triangle_slack(m) == max(want, 0.0)


def test_relaxed_bound_on_trees_has_nonnegative_slack():
    for seed in (1, 2, 3):
        space = sample_space(GeneratorSpec(kind="tree", n=12, seed=seed))
        delta = delta_four_point(space)
        report = relaxed_npc_bound_check(space, h=1.0, delta=delta)
        assert delta.delta == 0.0
        assert report.epsilon_star_upper <= 0.5 + 1e-12
        assert report.slack >= 0.0


def test_relaxed_bound_rejects_negative_allowance():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            relaxed_npc_bound_check(PATH4, h=bad, delta=delta_four_point(PATH4))


def test_relaxed_bound_reuses_a_given_delta():
    space = validate_metric(random_metric_matrix(np.random.default_rng(8), 9))
    result = delta_four_point(space)
    given_delta = relaxed_npc_bound_check(space, h=0.5, delta=result)
    eps = given_delta.epsilon_star_upper
    assert given_delta.slack == 2.0 * result.delta + 0.5 - eps
    # the delta is the caller's: the check never scans it
    other = replace(result, delta=result.delta + 1.0)
    assert relaxed_npc_bound_check(space, h=0.5, delta=other).slack == 2.0 * (result.delta + 1.0) + 0.5 - eps
    with pytest.raises(TypeError):
        relaxed_npc_bound_check(space, h=0.5)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_delta_bounded_by_diameter(seed):
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, 7)
    res = delta_four_point(validate_metric(m))
    assert 0.0 <= res.delta <= m.max()
