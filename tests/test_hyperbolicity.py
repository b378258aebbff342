"""Four-point hyperbolicity and the relaxed-defect comparison."""
import math
import threading
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvcomp.hyperbolicity as hyperbolicity_module
from curvcomp import (
    GeneratorSpec,
    delta_four_point,
    from_graph,
    parse_generator_spec,
    relaxed_npc_bound_check,
    sample_space,
    validate_metric,
)
from oracles import brute_delta, per_base_max_full, random_metric_matrix, subdivided_tree, tree_plus_edges

PATH4 = from_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


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


def _fallback_spaces():
    # the two full-scan fallbacks, where every base point is scanned: a tree with
    # inexact edges, where nothing can be cut, and K(12, 12), whose pair search keeps
    # too many quadruples
    return [SPACES["tree_0.3"](), _complete_bipartite(12)]


def test_delta_thread_invariance():
    for space in _fallback_spaces():
        base = delta_four_point(space, threads=1)
        assert base.bases_scanned == space.n
        for t in (2, 4, 8):
            got = delta_four_point(space, threads=t)
            assert got.delta == base.delta and got.witness == base.witness
    space = validate_metric(random_metric_matrix(np.random.default_rng(6), 20))
    for bad in (0, -2):
        with pytest.raises(ValueError):
            delta_four_point(space, threads=bad)


@pytest.mark.parametrize("threads", (1, 2, 8))
def test_delta_scans_each_base_point_once(monkeypatch, threads):
    # every base point is scanned in index order on the calling thread, whatever
    # the thread count, and no thread is started while the scans run
    per_base_max = hyperbolicity_module._per_base_max
    for space in _fallback_spaces():
        want = _every_base_point(space.dist)
        bases, running = [], threading.active_count()

        def recorded(d, w):
            bases.append((w, threading.get_ident(), threading.active_count()))
            return per_base_max(d, w)

        with monkeypatch.context() as patch:
            patch.setattr(hyperbolicity_module, "_per_base_max", recorded)
            res = delta_four_point(space, threads=threads)
        assert bases == [(w, threading.get_ident(), running) for w in range(space.n)]
        assert res.bases_scanned == space.n  # no base point twice
        assert (res.delta, res.witness) == want


def _every_base_point(d):
    """The fold of _per_base_max over every base point in index order."""
    best = (0.0, None)
    for w in range(len(d)):
        value, (_, x, y, z) = hyperbolicity_module._per_base_max(d, w)
        if value > best[0]:
            best = (value, (x, y, z, w))
    return best


def _unit_graph(edges):
    return from_graph([(u, v, 1.0) for u, v in edges])


def _complete_bipartite(m):
    return _unit_graph([(f"a{i}", f"b{j}") for i in range(m) for j in range(m)])


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


def _wide_exact_graph(n, seed, chord):
    # an n-cycle with weights 1-3, one chord and a pendant edge of 2**48: exact, and the
    # allowance 16 eps D (about 1) spans two of the data's half-units of value
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, float(rng.integers(1, 4))) for i in range(n)]
    edges += [(*chord, float(rng.integers(1, 4))), (0, "p", 2.0**48)]
    return from_graph(edges)


@pytest.mark.parametrize("n, seed, chord", [(9, 0, (0, 4)), (9, 1, (2, 6)), (11, 2, (1, 6)), (11, 3, (3, 8))])
def test_allowance_wider_than_an_exact_inputs_resolution(monkeypatch, n, seed, chord):
    # the search keeps quadruples whose values fall below delta, and the first maximiser
    # stays the brute-force one, with base point 0 the only full scan
    space = _wide_exact_graph(n, seed, chord)
    d = space.dist
    assert hyperbolicity_module._is_exact(d) and 16.0 * np.finfo(float).eps * d.max() >= 1.0
    pair_search, kept = hyperbolicity_module._pair_search, []

    def recorded(d, delta_0):
        found = pair_search(d, delta_0)
        kept.append(found[0])
        return found

    monkeypatch.setattr(hyperbolicity_module, "_pair_search", recorded)
    res = delta_four_point(space)
    assert (res.delta, res.witness) == brute_delta(d)
    assert res.bases_scanned == 1
    values = [hyperbolicity_module._first_maximiser(d, quad[None])[0] for quad in kept[0]]
    assert max(values) == res.delta > min(values)


@pytest.mark.parametrize("edge_length", (1.0, 0.25, 3.0))
def test_exact_delta_zero_skips_the_pair_search(monkeypatch, edge_length):
    space = sample_space(GeneratorSpec(kind="tree", n=30, seed=2, subdivision=2, edge_length=edge_length))

    def refused(d, delta_0):
        raise AssertionError("the pair search ran on an exact input with delta_0 = 0")

    monkeypatch.setattr(hyperbolicity_module, "_pair_search", refused)
    res = delta_four_point(space)
    assert (res.delta, res.witness, res.bases_scanned, res.quadruples) == (0.0, None, 1, space.n**3)


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
    assert res.bases_scanned == 1
    assert space.n**3 * res.bases_scanned < res.quadruples < space.n**4


def _unit_cycle(n, ear=False):
    # with an ear, vertex "e" (index 0) is joined to cycle vertices 0 and 1
    ears = [("e", 0), ("e", 1)] if ear else []
    return _unit_graph(ears + [(i, (i + 1) % n) for i in range(n)])


def _integer_graph(seed, n=40, edge_prob=0.06):
    # a random tree plus random edges, weights 1-4
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i, float(rng.integers(1, 5))) for i in range(1, n)]
    edges += [(i, j, float(rng.integers(1, 5))) for i in range(n) for j in range(i + 1, n) if rng.uniform() < edge_prob]
    return from_graph(edges)


def _settled_bases(space):
    # base point 0 and every point of a quadruple the pair search keeps
    d = space.dist
    hits, _ = hyperbolicity_module._pair_search(d, hyperbolicity_module._per_base_max(d, 0)[0])
    return {0} | set(hits.ravel().tolist())


SETTLED = {  # the pair search keeps every quadruple, and base point 0 alone is scanned
    **{f"unit_cycle_{n}": partial(_unit_cycle, n) for n in (20, 33, 47, 60)},
    # a cycle is vertex-transitive, so base point 0 reaches delta under any labelling;
    # an ear labelled 0 does not, on an even cycle, and a later base point holds the witness
    **{f"eared_cycle_{n}": partial(_unit_cycle, n, ear=True) for n in (20, 40, 60)},
    **{f"integer_graph_{seed}": partial(_integer_graph, seed) for seed in (1, 2, 4, 7, 11)},
}


@pytest.mark.parametrize("scale", (1.0, 3.0, 0.1))
@pytest.mark.parametrize("name", sorted(SETTLED))
def test_settled_delta_matches_every_base_point_bitwise(monkeypatch, name, scale):
    space = SETTLED[name]().rescale(scale)
    want = _every_base_point(space.dist)
    if name.startswith("unit_cycle"):
        assert len(_settled_bases(space)) == space.n
    elif name.startswith("eared_cycle"):
        assert want[1][3] != 0
    else:
        assert 8 <= len(_settled_bases(space)) <= 40
    for block in (1, 300, hyperbolicity_module._BLOCK):
        with monkeypatch.context() as patch:
            patch.setattr(hyperbolicity_module, "_BLOCK", block)
            res = delta_four_point(space)
        assert (res.delta, res.witness) == want
        assert res.bases_scanned == 1


def _graph_delta_inputs():
    # the graph_delta workload's two seed-0 edge lists, drawn from one generator in its order
    rng = np.random.default_rng([0, 2])
    return from_graph(tree_plus_edges(rng, 123)), from_graph(subdivided_tree(rng, 31, 4))


HALF_SCAN = {
    "tree_0.3_n60": lambda: sample_space(GeneratorSpec(kind="tree", n=60, seed=1, edge_length=0.3)),
    **{f"unit_cycle_{n}": partial(_unit_cycle, n) for n in range(4, 30)},
    **{f"random_metric_{n}": partial(lambda n: validate_metric(random_metric_matrix(np.random.default_rng(n), n)), n) for n in (2, 3, 5, 9, 17, 40)},
    "graph_delta_graph_0": lambda: _graph_delta_inputs()[0],
    "graph_delta_tree_0": lambda: _graph_delta_inputs()[1],
}


@pytest.mark.parametrize("name", sorted(HALF_SCAN))
def test_half_base_point_scan_matches_the_full_value_matrix(monkeypatch, name):
    # the full value matrix's first maximiser in row-major order lies in y >= x, the
    # triangle that the pair table writes: per base point (n <= 60) and through the delta.
    # The _BLOCK patches reach only _pair_search's blocks and the settle chunks
    space = HALF_SCAN[name]()
    d = space.dist
    bases = range(space.n if space.n <= 60 else 0)
    full = [per_base_max_full(d, w) for w in bases]
    for block in (1, 300, hyperbolicity_module._BLOCK):
        with monkeypatch.context() as patch:
            patch.setattr(hyperbolicity_module, "_BLOCK", block)
            got = delta_four_point(space)
            for w, (value, witness) in zip(bases, full):
                half_value, half_witness = hyperbolicity_module._per_base_max(d, w)
                assert (half_value.hex(), half_witness) == (value.hex(), witness)
            patch.setattr(hyperbolicity_module, "_per_base_max", per_base_max_full)
            want = delta_four_point(space)
        assert (got.delta.hex(), got.witness, got.bases_scanned) == (want.delta.hex(), want.witness, want.bases_scanned)
        if name.startswith("tree_0.3"):
            assert got.bases_scanned == space.n


@pytest.mark.parametrize("name", ["unit_cycle_33", "eared_cycle_40", "integer_graph_4", "random_metric"])
def test_delta_scans_base_point_0_alone_outside_the_fallback(monkeypatch, name):
    space = {**SETTLED, "random_metric": SPACES["random_metric"]}[name]()
    per_base_max, pair_search = hyperbolicity_module._per_base_max, hyperbolicity_module._pair_search
    scanned, searched = [], []

    def recorded_scan(d, w):
        scanned.append(w)
        return per_base_max(d, w)

    def recorded_search(d, delta_0):
        searched.append(pair_search(d, delta_0))
        return searched[-1]

    monkeypatch.setattr(hyperbolicity_module, "_per_base_max", recorded_scan)
    monkeypatch.setattr(hyperbolicity_module, "_pair_search", recorded_search)
    res = delta_four_point(space, threads=2)
    [(hits, pair_quadruples)] = searched
    assert scanned == [0] and res.bases_scanned == 1
    assert hits is not None and len(hits) > 0
    # one full scan, the pair search, and 24 orderings of each kept quadruple
    assert res.quadruples == space.n**3 + pair_quadruples + 24 * len(hits)


def test_delta_past_the_kept_quadruples_scans_every_base_point_in_full():
    # the 4-cycles of K(12, 12) are 4356 quadruples at delta = 1, more than 2^14 / 24:
    # every base point is scanned in full instead
    space = _complete_bipartite(12)
    res = delta_four_point(space)
    assert (res.delta, res.witness) == _every_base_point(space.dist)
    assert res.bases_scanned == space.n


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
    # one n^3 float64 (max, min) product per base point would take n^3 * 8 B = 4.1 MB here;
    # the random metric scans base point 0 alone, the edge-0.3 tree every base point
    random = validate_metric(random_metric_matrix(np.random.default_rng(9), 80))
    tree = sample_space(parse_generator_spec("tree:n=80,seed=1,edge_length=0.3"))
    for space, bases in ((random, 1), (tree, 80)):
        tracemalloc.start()
        try:
            res = delta_four_point(space, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.bases_scanned == bases
        assert peak < 1_000_000


def _bipartite_and_star(a=6, b=10, leaves=64):
    # K(a, b) at distances 1 and 2, and leaves at distance 3 from every other point:
    # the a*b 4-cycles of K(a, b) are the quadruples at delta = 1, and a quadruple
    # through a leaf is worth at most 1/2
    k = a + b
    side = np.arange(k) < a
    d = np.full((k + leaves, k + leaves), 3.0)
    d[:k, :k] = np.where(side[:, None] == side[None, :], 2.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return validate_metric(d)


def test_delta_memory_stays_below_cubic_just_under_the_kept_cap(monkeypatch):
    # K(6, 10) has 15 * 45 = 675 four-cycles, and the pair search keeps at most
    # max(2^14, 80^2) / 24 = 682 quadruples at n = 80: the settling evaluates 16,200
    # orderings, in chunks that hold no more than one base point's full scan
    space = _bipartite_and_star()
    d = space.dist
    want = _every_base_point(d)
    pair_search, first_maximiser = hyperbolicity_module._pair_search, hyperbolicity_module._first_maximiser
    kept, chunks = [], []

    def recorded_search(d, delta_0):
        hits, quadruples = pair_search(d, delta_0)
        kept.append(hits)
        return hits, quadruples

    def recorded_chunk(d, quads):
        chunks.append(quads)
        return first_maximiser(d, quads)

    monkeypatch.setattr(hyperbolicity_module, "_pair_search", recorded_search)
    monkeypatch.setattr(hyperbolicity_module, "_first_maximiser", recorded_chunk)
    tracemalloc.start()
    try:
        res = delta_four_point(space, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
        settle_peak = 0
        for quads in chunks:
            tracemalloc.reset_peak()
            first_maximiser(d, quads)
            settle_peak = max(settle_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        hyperbolicity_module._per_base_max(d, 0)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.delta, res.witness, res.bases_scanned) == (*want, 1)
    assert len(kept[0]) == 675 <= max(hyperbolicity_module._BLOCK, space.n**2) // 24
    assert np.array_equal(np.concatenate(chunks), kept[0])
    assert settle_peak < scan_peak
    assert peak < 1_000_000


def test_delta_keeps_few_quadruples_on_a_long_cycle(monkeypatch):
    # every base point of C160 is a candidate; one full scan holds 24 n^2 B = 0.6 MB and
    # a pair-search block about 0.5 MB, and the kept quadruples add no more than 2 kB each
    space = _unit_cycle(160)
    pair_search, kept = hyperbolicity_module._pair_search, []

    def recorded(d, delta_0):
        hits, quadruples = pair_search(d, delta_0)
        kept.append(len(hits))
        return hits, quadruples

    monkeypatch.setattr(hyperbolicity_module, "_pair_search", recorded)
    tracemalloc.start()
    try:
        res = delta_four_point(space, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.delta, res.witness, res.bases_scanned) == (40.0, (40, 120, 80, 0), 1)
    assert 0 < kept[0] <= space.n
    assert peak < 1_250_000


def test_delta_scales_linearly():
    rng = np.random.default_rng(7)
    space = validate_metric(random_metric_matrix(rng, 10))
    base = delta_four_point(space)
    scaled = delta_four_point(space.rescale(4.0))
    assert scaled.delta == pytest.approx(4.0 * base.delta, rel=1e-12)
    assert scaled.witness == base.witness


def test_delta_of_a_path_past_half_the_float64_range():
    # d(a, c) = 1.7e308: a sum of two distances overflows unless the space is halved
    path = delta_four_point(from_graph([("a", "b", 1e308), ("b", "c", 7e307)]))
    assert (path.delta, path.witness) == (0.0, None) and path.bases_scanned >= 1


def test_delta_past_half_the_float64_range_is_exact():
    # halving and doubling are exact, so delta is the power-of-two multiple bitwise
    space = validate_metric(random_metric_matrix(np.random.default_rng(21), 12))
    base, big = delta_four_point(space), delta_four_point(space.rescale(2.0**1023))
    assert base.delta > 0
    assert big.delta == 2.0**1023 * base.delta
    assert (big.witness, big.bases_scanned) == (base.witness, base.bases_scanned)


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
