"""Validation, graph ingestion, triples, side lengths, and file formats."""
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvcomp import (
    Embedding,
    FiniteMetricSpace,
    MetricValidationError,
    SideLengths,
    Triple,
    counterexample_triangle,
    from_graph,
    load_space,
    lp_circumradius,
    validate_metric,
)
from curvcomp import generators
from curvcomp.metricspace import (
    DisconnectedGraphError,
    InvalidPError,
    NonpositiveWeightError,
    Violation,
    _triangle_rows,
    format_distance_matrix,
    metric_tolerance,
    parse_distance_matrix,
    parse_edge_list,
)
from curvcomp.generators import parse_generator_spec, sample_space
from oracles import dijkstra_path_metric, random_metric_matrix, triangle_violations

PATH4 = np.array(
    [
        [0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [3.0, 2.0, 1.0, 0.0],
    ]
)


def test_metric_tolerance_scales_with_diameter():
    # relative with no absolute part, so rescaling by 2**k rescales it exactly
    assert metric_tolerance(0.0) == 0.0
    for k in (-1074 + 40, -60, -40, -1, 0, 1, 40, 900):
        assert metric_tolerance(math.ldexp(9.0, k)) == math.ldexp(metric_tolerance(9.0), k)


@pytest.mark.parametrize("scale", (1.0, 1e-9, 1e-10, 2.0**-40, 2.0**-60))
def test_triangle_violation_is_rejected_at_every_scale(scale):
    # d(0, 1) = 5 exceeds d(0, 2) + d(2, 1) = 2 by 3; the tolerance once held an
    # absolute 1e-9, which accepted the matrix below a scale of about 3e-10
    m = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]]) * scale
    with pytest.raises(MetricValidationError) as info:
        validate_metric(m)
    assert [kind for kind, _ in info.value.groups] == ["triangle"]


def test_validate_accepts_path_metric():
    space = validate_metric(PATH4)
    assert space.n == 4
    assert space.diameter == 3.0
    assert not space.dist.flags.writeable


def test_validate_collects_all_violations():
    m = np.array(
        [
            [0.5, 1.0, 5.0],
            [2.0, 0.0, -1.0],
            [5.0, -1.0, 0.0],
        ]
    )
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    kinds = {v.kind for v in exc.value.violations}
    assert "nonzero_diagonal" in kinds
    assert "asymmetry" in kinds
    assert "negative_entry" in kinds


def test_validate_triangle_violation_names_indices():
    m = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    tri = [v for v in exc.value.violations if v.kind == "triangle"]
    assert tri and tri[0].indices == (0, 2, 1)


def test_violations_keep_their_contents_and_order():
    m = np.array(
        [
            [0.5, 1.0, 9.0, 0.0],
            [1.0, 0.0, -1.0, 1.0],
            [9.0, -1.0, 0.0, 1.0],
            [0.0, 1.5, 1.0, 0.0],
        ]
    )
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    assert exc.value.violations == [
        Violation("nonzero_diagonal", (0,)),
        Violation("asymmetry", (1, 3)),
        Violation("negative_entry", (1, 2)),
        Violation("zero_off_diagonal", (0, 3)),
        Violation("triangle", (0, 2, 1)),
        Violation("triangle", (2, 3, 1)),
        Violation("triangle", (1, 3, 2)),
        Violation("triangle", (0, 2, 3)),
    ]
    assert exc.value.count == 8
    assert str(exc.value) == (
        "invalid metric: nonzero_diagonal(0,), asymmetry(1, 3), negative_entry(1, 2), "
        "zero_off_diagonal(0, 3), triangle(0, 2, 1), triangle(2, 3, 1), triangle(1, 3, 2), "
        "triangle(0, 2, 3)"
    )
    assert all(type(i) is int for v in exc.value.violations for i in v.indices)


def test_rejection_builds_no_violation_objects_until_read():
    rng = np.random.default_rng(4)
    m = np.triu(rng.uniform(0.1, 3.0, size=(110, 110)), 1)
    m = m + m.T
    tracemalloc.start()
    try:
        with pytest.raises(MetricValidationError) as exc:
            validate_metric(m)
        held, _ = tracemalloc.get_traced_memory()
        violations = exc.value.violations
        read, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = exc.value.count
    assert len(violations) == count > 90_000
    # the index arrays take 24 bytes a violation; the objects several times that
    assert held < 40 * count
    assert read - held > 100 * count


def _assert_validation_matches_enumeration(m):
    """validate_metric's triangle group and message against the per-k
    enumeration of the oracle."""
    d = np.array(m, dtype=float)
    tau = metric_tolerance(float(d.max()) if d.size else 0.0)
    want = triangle_violations(d, tau)
    try:
        validate_metric(d)
    except MetricValidationError as exc:
        groups = dict(exc.groups)
        got = groups.pop("triangle", np.empty((0, 3), dtype=np.intp))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        expected = list(groups.items()) + ([("triangle", want)] if len(want) else [])
        assert str(exc) == str(MetricValidationError(expected))
    else:
        assert len(want) == 0


@pytest.mark.parametrize("seed", range(40))
def test_triangle_screen_matches_enumeration_on_perturbed_metrics(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    m = random_metric_matrix(rng, n)
    _assert_validation_matches_enumeration(m)
    # a few entries pushed past 2 = the shortest two-step path, anywhere in the matrix
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            m[i, j] = m[j, i] = rng.uniform(1.5, 3.5)
    _assert_validation_matches_enumeration(m)
    # asymmetric: one direction only, then a whole random non-symmetric matrix
    i, j = rng.integers(0, n, size=2)
    if i != j:
        m[i, j] = rng.uniform(0.5, 4.0)
    _assert_validation_matches_enumeration(m)
    a = rng.uniform(1.0, 2.6, size=(n, n))
    np.fill_diagonal(a, 0.0)
    _assert_validation_matches_enumeration(a)
    # a negative diagonal: the k = i and k = j terms go below d(i, j) and must be skipped
    a[n - 1, n - 1] = -rng.uniform(0.1, 1.0)
    _assert_validation_matches_enumeration(a)
    _assert_validation_matches_enumeration(-a)


def test_triangle_check_matches_enumeration_on_tiny_and_negative_diagonal_matrices():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2):
        _assert_validation_matches_enumeration(random_metric_matrix(rng, n))
        _assert_validation_matches_enumeration(rng.uniform(-1.0, 3.0, size=(n, n)))
    # negative diagonal entries inside the matrix and one-sided entries: only the
    # k = i and k = j terms, which the check must skip, go below d(i, j)
    for n in (3, 6, 11):
        a = random_metric_matrix(rng, n)
        a[1, 2] = 1.25
        a[n - 1, 0] = 1.75
        for i in range(0, n, 2):
            a[i, i] = -rng.uniform(0.1, 0.5)
        _assert_validation_matches_enumeration(a)
        _assert_validation_matches_enumeration(a.T)


@pytest.mark.parametrize("seed", range(12))
def test_triangle_screen_is_exact_at_the_tolerance(seed):
    # integer distances in [4, 8] and a far point at 32, which fixes the
    # diameter and so tau; one entry then sits exactly at its tightest bound
    # d(i, k) + d(k, j) + tau (no violation) or one ulp above it (violation)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    m = np.triu(rng.integers(4, 9, size=(n, n)).astype(float), 1)
    m = m + m.T
    m[-1, :-1] = m[:-1, -1] = 32.0
    tau = metric_tolerance(32.0)
    i, j = sorted(rng.choice(n - 1, size=2, replace=False))
    bound = min(m[i, k] + m[k, j] + tau for k in range(n) if k not in (i, j))
    for entry in (bound, np.nextafter(bound, np.inf)):
        for symmetric in (True, False):
            d = m.copy()
            d[i, j] = entry
            if symmetric:
                d[j, i] = entry
            _assert_validation_matches_enumeration(d)
            assert bool(len(triangle_violations(d, tau))) == (entry > bound)


def test_validate_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        validate_metric(np.zeros((2, 3)))
    bad = PATH4.copy()
    bad[0, 1] = bad[1, 0] = np.inf
    with pytest.raises(ValueError):
        validate_metric(bad)


def test_from_graph_path_distances():
    space = from_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    assert np.array_equal(space.dist, PATH4)
    assert space.labels == ("a", "b", "c", "d")


def test_from_graph_keeps_min_parallel_edge():
    space = from_graph([(0, 1, 3.0), (0, 1, 1.0)])
    assert space.dist[0, 1] == 1.0


def test_from_graph_disconnected_raises():
    with pytest.raises(DisconnectedGraphError):
        from_graph([(0, 1, 1.0), (2, 3, 1.0)])


def test_from_graph_nonpositive_weight_raises():
    with pytest.raises(NonpositiveWeightError):
        from_graph([(0, 1, 0.0)])


def test_from_graph_matrix_exactly_symmetric():
    rng = np.random.default_rng(2)
    edges = [(int(rng.integers(0, i)), i, float(rng.uniform(0.5, 1.5))) for i in range(1, 30)]
    edges += [(i, (i + 7) % 30, float(rng.uniform(0.5, 1.5))) for i in range(0, 30, 3)]
    space = from_graph(edges)
    assert np.array_equal(space.dist, space.dist.T)


def _assert_dijkstra_bits(edges):
    vertices, d = dijkstra_path_metric(edges)
    space = from_graph(edges)
    assert space.labels == tuple(map(str, vertices))
    assert np.array_equal(space.dist.view(np.int64), np.minimum(d, d.T).view(np.int64))


def _tree_plus_edges(rng, n, p=0.04):
    # the benchmark's weighted graph: a random recursive tree plus extra edges
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    iu, ju = np.triu_indices(n, 1)
    extra = rng.uniform(size=iu.size) < p
    pairs = sorted(pairs | set(zip(iu[extra].tolist(), ju[extra].tolist())))
    return [(f"v{u}", f"v{v}", float(c)) for (u, v), c in zip(pairs, rng.uniform(0.5, 1.5, len(pairs)))]


def _subdivided_tree(rng, nodes, steps):
    # the benchmark's tree: a random recursive tree, each edge cut into unit edges
    edges, fresh = [], nodes
    for v in range(1, nodes):
        chain = [int(rng.integers(0, v)), *range(fresh, fresh + steps - 1), v]
        fresh += steps - 1
        edges += [(f"v{a}", f"v{b}", 1.0) for a, b in zip(chain, chain[1:])]
    return edges


def _acceptance_random_graph(seed):
    # the random graphs of tests/test_acceptance.py's corpus, seeds 500-519
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 26))
    edges = [(int(rng.integers(0, i)), i, float(rng.uniform(0.5, 1.5))) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.25:
                edges.append((i, j, float(rng.uniform(0.5, 1.5))))
    return edges


def _grid(side, weights):
    # edges to the right and lower neighbours, 2 * side * (side - 1) of them
    n = side * side
    pairs = [(v, v + s) for v in range(n) for s in (1, side) if v + s < n and (s == side or (v + 1) % side)]
    return [(u, v, float(c)) for (u, v), c in zip(pairs, weights, strict=True)]


def _tenths_graph(rng, n):
    # weights k * 0.1: equal real lengths whose float sums differ by the order of addition
    edges = [(int(rng.integers(0, v)), v, 0.1 * int(rng.integers(1, 8))) for v in range(1, n)]
    edges += [(int(a), int(b), 0.1 * int(rng.integers(1, 8))) for a, b in rng.integers(0, n, (2 * n, 2)) if a != b]
    return edges


_ORACLE_GRAPHS = {
    **{f"bench-graph-{s}": lambda s=s: _tree_plus_edges(np.random.default_rng([s, 2]), 123) for s in range(6)},
    **{f"bench-tree-{s}": lambda s=s: _subdivided_tree(np.random.default_rng([s, 2]), 31, 4) for s in range(6)},
    **{f"acceptance-{s}": lambda s=s: _acceptance_random_graph(s) for s in range(500, 520)},
    **{f"cycle-{n}": lambda n=n: [(i, (i + 1) % n, 1.0) for i in range(n)] for n in (4, 9, 16, 30)},
    "tenths-grid": lambda: _grid(8, 0.1 * np.random.default_rng(7).integers(1, 4, 112)),
    **{f"tenths-{s}": lambda s=s: _tenths_graph(np.random.default_rng(s), 40) for s in range(4)},
    "duplicate-edges": lambda: [
        ("a", "b", 3.0), ("b", "c", 1.0), ("a", "b", 1.5), ("c", "a", 2.75), ("a", "c", 2.5), ("b", "c", 4.0)
    ],
    "loop": lambda: [("a", "a", 2.0), ("a", "b", 1.0), ("b", "b", 0.5)],
    "single-edge": lambda: [("x", "y", 0.3)],
}


@pytest.mark.parametrize("name", _ORACLE_GRAPHS)
def test_from_graph_is_bitwise_scipy_dijkstra(name):
    _assert_dijkstra_bits(_ORACLE_GRAPHS[name]())


@pytest.mark.parametrize(
    "spec",
    [
        *("tree:n=10,seed=1", "tree:n=25,seed=2", "tree:n=40,seed=3", "tree:n=9,seed=5,subdivision=1"),
        *("grid:width=2,height=2", "grid:width=4,height=5", "grid:width=6,height=6", "random_graph:n=20,seed=8"),
    ],
)
def test_graph_samplers_are_bitwise_scipy_dijkstra(spec, monkeypatch):
    # the acceptance corpus's trees and grids: check the edges each sampler hands to from_graph
    seen = []

    def record(edges):
        seen.append(list(edges))
        return from_graph(seen[-1])

    monkeypatch.setattr(generators, "from_graph", record)
    sample_space(parse_generator_spec(spec))
    [edges] = seen
    _assert_dijkstra_bits(edges)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 1.0), (2, 3, 1.0)],
        [(5, 6, 1.0), (7, 8, 1.0), (5, 9, 2.0), (8, 10, 0.5)],
        [("a", "b", 1.0), ("c", "c", 1.0)],
        [(v, v + 2, 1.0) for v in range(28)],  # the even and the odd vertices
        # disconnected, and a path sum past the float64 range in one part
        [("a", "b", 1e308), ("b", "c", 1e308), ("x", "y", 1.0)],
    ],
)
def test_from_graph_names_the_first_pair_dijkstra_leaves_at_inf(edges):
    vertices, d = dijkstra_path_metric(edges)
    linked = np.isfinite(dijkstra_path_metric([(u, v, 1.0) for u, v, _ in edges])[1])
    i, j = np.argwhere(~linked)[0]
    with pytest.raises(DisconnectedGraphError) as exc:
        from_graph(edges)
    assert exc.value.pair == (vertices[i], vertices[j])


def test_from_graph_refuses_a_path_sum_past_float64():
    # connected: the sum 1e308 + 1e308 is inf in float64, which is no missing path
    edges = [("a", "b", 1e308), ("b", "c", 1e308)]
    with pytest.raises(ValueError, match=r"between 'a' and 'c' exceeds the float64 range") as exc:
        from_graph(edges)
    assert not isinstance(exc.value, DisconnectedGraphError)
    assert from_graph([("a", "b", 4e307), ("b", "c", 4e307)]).dist[0, 2] == 8e307


def test_a_two_step_sum_past_float64_bounds_every_side_without_a_warning():
    # d(a, c) + d(c, b) overflows to inf, which bounds d(a, b); the suite turns the
    # RuntimeWarning of an unguarded add into an error
    space = from_graph([("a", "b", 1e308), ("b", "c", 7e307)])
    assert space.dist[0, 2] == 1e308 + 7e307
    assert validate_metric(space.dist).dist.tobytes() == space.dist.tobytes()
    # the guard covers the add only: a suspended row pass leaves the caller's error state alone
    before = np.geterr()
    rows = _triangle_rows(space.dist)
    next(rows)
    assert np.geterr() == before
    rows.close()


def _hostile_shape(shape):
    rng = np.random.default_rng(19)
    if shape == "path":  # vertex 0 at one end: 399 hops in one direction
        return [(v, v + 1, float(rng.uniform(0.5, 1.5))) for v in range(399)]
    if shape == "grid":
        return _grid(20, rng.uniform(0.5, 1.5, 760))
    if shape == "complete":
        return [(u, v, float(rng.uniform(0.01, 1.0))) for u in range(250) for v in range(u + 1, 250)]
    if shape == "bipartite":  # one side is one level of 200 vertices with 200 edges each
        return [(u, v, float(rng.uniform(0.5, 1.5))) for u in range(200) for v in range(200, 400)]
    # zigzag: a light path, and a heavy edge from vertex 0 to every vertex, so that one
    # hop from vertex 0 reaches all 400 vertices
    return [(v, v + 1, 1.0 + 1e-3 * float(rng.uniform())) for v in range(399)] + [(0, v, 1000.0) for v in range(1, 400)]


@pytest.mark.parametrize("shape", ["path", "grid", "complete", "bipartite", "zigzag"])
def test_from_graph_on_hostile_shapes_is_exact_fast_and_small(shape):
    edges = _hostile_shape(shape)
    _assert_dijkstra_bits(edges)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        from_graph(edges)
        best = min(best, time.perf_counter() - start)
    assert best <= 1.0, best
    tracemalloc.start()
    try:
        from_graph(edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_triple_is_canonically_sorted():
    assert Triple(5, 1, 3).as_tuple() == (1, 3, 5)
    assert Triple(2, 2, 0).as_tuple() == (0, 2, 2)


def test_side_lengths_sorted_and_perimeter():
    s = SideLengths(1.0, 3.0, 2.5)
    assert s.as_tuple() == (3.0, 2.5, 1.0)
    assert s.perimeter == 6.5
    assert SideLengths.of_triple(validate_metric(PATH4), Triple(0, 1, 3)).as_tuple() == (3.0, 2.0, 1.0)


def test_side_lengths_rejects_bad_triangles():
    with pytest.raises(ValueError):
        SideLengths(5.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SideLengths(1.0, 1.0, -0.5)
    # degenerate (collinear) is fine
    assert SideLengths(2.0, 1.0, 1.0).c == 1.0


def test_side_lengths_of_a_validated_triple_are_not_checked_again():
    # the space passes within its diameter's tolerance (about 1e-6); the longest
    # side's own tolerance (2e-9) is smaller than the 2e-8 excess
    a = 0.5 - 1e-8
    space = validate_metric([[0, 1, a, 1000], [1, 0, a, 1000], [a, a, 0, 1000], [1000, 1000, 1000, 0]])
    sides = SideLengths.of_triple(space, Triple(2, 0, 1))
    assert sides.as_tuple() == (1.0, a, a) and sides.perimeter == a + a + 1.0
    with pytest.raises(ValueError, match="triangle inequality violated"):
        SideLengths(1.0, a, a)
    with pytest.raises(ValueError, match="triangle inequality violated"):
        SideLengths(3.0, 1.0, 1.0)


def test_digest_depends_on_entries_only():
    a = validate_metric(PATH4)
    b = validate_metric(PATH4.copy(), labels=("p", "q", "r", "s"))
    assert a.digest() == b.digest()
    assert a.digest() != a.rescale(2.0).digest()


def test_subspace_and_rescale():
    space = validate_metric(PATH4, labels=("a", "b", "c", "d"))
    sub = space.subspace([0, 2, 3])
    assert sub.labels == ("a", "c", "d")
    assert sub.dist[0, 1] == 2.0
    scaled = space.rescale(3.0)
    assert scaled.diameter == 9.0


def test_embedding_distances_match_direct_norms():
    coords = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    emb = Embedding(coords, 3.0)
    extra = np.array([[1.0, 1.0]])
    got = emb.distances_to_points(extra)[0]
    want = [np.sum(np.abs([1, 1] - c) ** 3) ** (1 / 3) for c in coords]
    assert np.allclose(got, want, atol=1e-15)
    emb_inf = Embedding(coords, math.inf)
    assert emb_inf.distances_to_points(extra)[0][2] == 2.0


@pytest.mark.parametrize("p", (-math.inf, -1.0, 0.0, 0.5, 1.0, math.nan))
def test_every_lp_entry_point_rejects_the_same_p(p):
    # an Embedding once took any p: at -inf, distances_to_points measured l_inf
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for call in (lambda: Embedding(np.array(pts), p), lambda: lp_circumradius(pts, p), lambda: counterexample_triangle(p)):
        with pytest.raises(InvalidPError, match=f"^{re.escape(f'p must exceed 1 (or be inf), got {p}')}$"):
            call()


def test_matrix_format_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7):
        m = random_metric_matrix(rng, n)
        back = parse_distance_matrix(format_distance_matrix(m))
        assert back.shape == (n, n)
        assert np.array_equal(m, back)


def test_parse_matrix_reads_every_float_spelling_as_float_does():
    rng = np.random.default_rng(1)
    n = 9
    values = rng.standard_normal(n * n) * 10.0 ** rng.integers(-300, 300, n * n)
    for spell in (*(f"{{:{fmt}}}".format for fmt in (".15g", ".16g", ".17g", ".20g", ".25e")), repr):
        words = [spell(float(v)) for v in values]
        words[:6] = ["-0", "1e-400", " 7 ", "Infinity", "+.5", "1E5"]
        rows = [",".join(words[i * n : (i + 1) * n]) for i in range(n)]
        got = parse_distance_matrix("\n".join([str(n), *rows]))
        want = np.array([float(w) for w in words]).reshape(n, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_parse_matrix_rejects_digit_grouping_and_ragged_rows():
    with pytest.raises(ValueError, match="1_0"):
        parse_distance_matrix("1\n1_0\n")
    with pytest.raises(ValueError, match="^expected 2 entries per row, found 1$"):
        parse_distance_matrix("2\n0,1\n1\n")
    with pytest.raises(ValueError, match="^expected 2 matrix rows, found 1$"):
        parse_distance_matrix("2\n0,1\n")


def test_parse_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        parse_distance_matrix("")
    with pytest.raises(ValueError):
        parse_distance_matrix("2\n0,1\n")
    with pytest.raises(ValueError):
        parse_distance_matrix("2\n0,1,2\n1,0,2\n")
    with pytest.raises(ValueError, match="^matrix size must not be negative, got -1$"):
        parse_distance_matrix("-1\n")


def test_parse_edge_list_skips_comments():
    edges = parse_edge_list("# header\na b 1.5\n\nb c 2 # trailing\n")
    assert edges == [("a", "b", 1.5), ("b", "c", 2.0)]
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")


def test_load_space_detects_format(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text(format_distance_matrix(PATH4))
    assert load_space(str(mat)).n == 4
    edg = tmp_path / "g.edges"
    edg.write_text("0 1 1\n1 2 1\n")
    assert load_space(str(edg)).n == 3


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=12))
@settings(max_examples=60, deadline=None)
def test_random_short_range_matrices_validate(seed, n):
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, n)
    space = validate_metric(m)
    assert space.n == n


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_symmetry_breakage_is_detected(seed):
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, 5)
    m = m.copy()
    m[1, 3] += 0.125
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    assert any(v.kind == "asymmetry" and v.indices == (1, 3) for v in exc.value.violations)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_side_lengths_invariant_under_input_order(a, u, v):
    # b, c drawn inside the triangle-inequality region
    b = a * (0.5 + u / 2)
    c = max(a - b, 0.0) + v * (min(a + b, a) - max(a - b, 0.0))
    perms = [(a, b, c), (c, a, b), (b, c, a), (a, c, b)]
    canon = {SideLengths(*p).as_tuple() for p in perms}
    assert len(canon) == 1
