"""Four-point hyperbolicity and the relaxed-defect comparison."""
import math
import threading
import tracemalloc

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
    assert sorted(bases) == list(range(space.n))
    assert (res.delta, res.witness) == brute_delta(space.dist)


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


def test_relaxed_bound_on_trees_has_nonnegative_slack():
    for seed in (1, 2, 3):
        space = sample_space(GeneratorSpec(kind="tree", n=12, seed=seed))
        report = relaxed_npc_bound_check(space, h=1.0)
        assert report.delta == 0.0
        assert report.epsilon_star_upper <= 0.5 + 1e-12
        assert report.slack >= 0.0


def test_relaxed_bound_rejects_negative_allowance():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            relaxed_npc_bound_check(PATH4, h=bad)


def test_relaxed_bound_reuses_a_given_delta():
    space = validate_metric(random_metric_matrix(np.random.default_rng(8), 9))
    result = delta_four_point(space)
    given_delta = relaxed_npc_bound_check(space, h=0.5, delta=result)
    assert given_delta == relaxed_npc_bound_check(space, h=0.5)
    assert given_delta.delta == result.delta


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_delta_bounded_by_diameter(seed):
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, 7)
    res = delta_four_point(validate_metric(m))
    assert 0.0 <= res.delta <= m.max()
