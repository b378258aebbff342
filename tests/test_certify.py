"""Triangle enumeration, defect scans, verdicts, and the derived profiles."""
import dataclasses
import importlib
import itertools
import math
import re
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvcomp import (
    CandidatePolicy,
    CurvatureQuery,
    Embedding,
    GeneratorSpec,
    SideLengths,
    Triple,
    certify,
    defect_histogram,
    defect_profile,
    delta_four_point,
    from_graph,
    model_circumradius,
    parse_generator_spec,
    sample_space,
    triangle_defect,
    validate_metric,
)
from curvcomp.certify import _pair_table, defect_resolution
from curvcomp.circumradius import candidate_rows
from curvcomp.metricspace import lp_distances
from oracles import brute_certify, enumerate_triples, random_metric_matrix

# the package re-exports the function `certify`, which shadows the module
certify_module = importlib.import_module("curvcomp.certify")

PATH4 = from_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def test_enumerate_triples_count_and_order():
    triples = list(enumerate_triples(PATH4))
    assert len(triples) == 4  # C(4, 3)
    assert [t.as_tuple() for t in triples] == sorted(t.as_tuple() for t in triples)


def test_enumerate_triples_degenerate_policy():
    triples = [t.as_tuple() for t in enumerate_triples(PATH4, degenerate_pairs=True)]
    assert (0, 0, 1) in triples and (2, 3, 3) not in triples  # canonical order (i, i, j)
    assert len(triples) == 4 + 6


def test_enumerate_triples_beta_filters_short_sides():
    # beta=1.5 needs all three pairwise distances >= 1.5; every triple of the
    # path contains an adjacent pair at distance 1, so nothing survives
    assert [t.as_tuple() for t in enumerate_triples(PATH4, beta=1.5)] == []
    got = [t.as_tuple() for t in enumerate_triples(PATH4, beta=1.0)]
    assert got == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_triangle_defect_path_midpoint_gap():
    td = triangle_defect(PATH4, Triple(0, 1, 3))
    assert td.sides.as_tuple() == (3.0, 2.0, 1.0)
    assert td.r_space == 2.0 and td.r_model == 1.5 and td.defect == 0.5


def test_triangle_defect_respects_perimeter_cap():
    assert triangle_defect(PATH4, Triple(0, 1, 3), max_perimeter=5.0) is None
    assert triangle_defect(PATH4, Triple(0, 1, 2), max_perimeter=5.0) is not None


def test_scan_and_triangle_defect_sum_the_perimeter_alike():
    # a + b + c and c + b + a differ in the last place for these sides; a cap
    # at the larger sum must exclude the triple on both paths
    a, b, c = 1.7503646726300526, 1.2623133404418496, 1.2034552406761496
    cap = 4.216133253748052
    assert a + b + c < cap == c + b + a
    space = validate_metric(np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]]))
    assert certify(space, CurvatureQuery(max_perimeter=cap)).skipped == 1
    assert triangle_defect(space, Triple(0, 1, 2), max_perimeter=cap) is None
    assert triangle_defect(space, Triple(0, 1, 2), max_perimeter=math.nextafter(cap, math.inf)) is not None


def test_max_perimeter_must_be_positive_and_finite():
    space = validate_metric(random_metric_matrix(np.random.default_rng(3), 6))
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="max_perimeter"):
            triangle_defect(PATH4, Triple(0, 1, 2), max_perimeter=bad)
        with pytest.raises(ValueError, match="max_perimeter"):
            certify(space, CurvatureQuery(max_perimeter=bad))


def test_triangle_defect_skips_large_spherical_triangle():
    m = random_metric_matrix(np.random.default_rng(1), 5, lo=2.0, hi=2.5)
    space = validate_metric(m)
    assert triangle_defect(space, Triple(0, 1, 2), kappa=1.0) is None  # perimeter >= 2*pi


def test_triangle_defect_places_no_comparison_triangle(monkeypatch):
    # r_model is the kernel on the three sides, bitwise model_circumradius's radius
    space = validate_metric(random_metric_matrix(np.random.default_rng(3), 7, lo=0.5, hi=0.9))
    triples = list(enumerate_triples(space, degenerate_pairs=True))
    kappas = (0.0, 1.0, -1.0, 4.0, -0.3)
    want = {
        (kappa, t): model_circumradius(SideLengths.of_triple(space, t), kappa)
        for kappa in kappas
        for t in triples
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("placed a comparison triangle for a radius")

    monkeypatch.setattr("curvcomp.modelplane.comparison_triangle", forbidden)
    for kappa in kappas:
        for t in triples:
            assert triangle_defect(space, t, kappa=kappa).r_model == want[kappa, t], (kappa, t)


def test_degenerate_pair_defect_is_midpoint_gap():
    td = triangle_defect(PATH4, Triple(0, 0, 3))
    assert td.r_model == 1.5  # half the pair distance
    assert td.r_space == 2.0  # best discrete midpoint of 0-3 sits at distance 2
    # (i, i, k) is the model triangle (a, a, 0), whose radius is exactly a / 2 at every kappa
    space = validate_metric(random_metric_matrix(np.random.default_rng(2), 7))
    for kappa in (0.0, 1.0, -1.0):
        for i in range(space.n):
            for k in range(i + 1, space.n):
                td = triangle_defect(space, Triple(i, i, k), kappa=kappa)
                assert td.r_model == space.dist[i, k] / 2.0


def test_query_validation():
    with pytest.raises(ValueError):
        CurvatureQuery(direction="sideways")
    with pytest.raises(ValueError):
        CurvatureQuery(beta=-1.0)
    with pytest.raises(ValueError):
        CurvatureQuery(epsilon=-0.1)


def test_certify_path_fails_then_holds_with_slack():
    bad = certify(PATH4, CurvatureQuery(kappa=0.0, direction="upper"))
    assert not bad.holds and bad.epsilon_needed == 0.5
    assert bad.witness.triple.as_tuple() == (0, 1, 3)
    good = certify(PATH4, CurvatureQuery(kappa=0.0, direction="upper", epsilon=0.5))
    assert good.holds and good.witness is None


def _equilateral(side):
    return validate_metric(side * (1.0 - np.eye(3)))


# spaces and curvatures where the model kernel leaves float64: it once returned a
# radius of inf (tanh R rounds to 1), 0 (the root overflows) or nan (sinh overflows)
KERNEL_OVERFLOWS = {
    "random40-kappa-400": (lambda: validate_metric(random_metric_matrix(np.random.default_rng(0), 40)), -400.0),
    "random40-kappa-1e6": (lambda: validate_metric(random_metric_matrix(np.random.default_rng(0), 40)), -1e6),
    "side100": (lambda: _equilateral(100.0), -1.0),
    "side400": (lambda: _equilateral(400.0), -1.0),
    "side800": (lambda: _equilateral(800.0), -1.0),
}


@pytest.mark.parametrize("direction", ("upper", "lower"))
@pytest.mark.parametrize("case", sorted(KERNEL_OVERFLOWS))
def test_model_kernel_overflow_raises_instead_of_a_verdict(case, direction):
    build, kappa = KERNEL_OVERFLOWS[case]
    with pytest.raises(ValueError, match=re.escape(f"kappa={kappa}")):
        certify(build(), CurvatureQuery(kappa=kappa, direction=direction))


@pytest.mark.parametrize("kappa", (1e-160, -1e-160, 1e-200, -1e-200, 5e-324, -5e-324))
def test_tiny_curvature_gives_the_plane_verdict(kappa):
    flat = certify(_equilateral(1.0), CurvatureQuery(kappa=0.0, direction="upper"))
    assert flat.epsilon_needed == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), rel=1e-15)
    v = certify(_equilateral(1.0), CurvatureQuery(kappa=kappa, direction="upper"))
    assert (v.holds, v.epsilon_needed, v.witness) == (flat.holds, flat.epsilon_needed, flat.witness)


def test_large_hyperbolic_triangle_inside_float64_keeps_its_verdict():
    upper = certify(_equilateral(10.0), CurvatureQuery(kappa=-1.0, direction="upper"))
    assert not upper.holds and upper.epsilon_needed == 4.8561703134370875
    assert certify(_equilateral(10.0), CurvatureQuery(kappa=-1.0, direction="lower")).holds


def test_certify_collinear_points_with_midpoint_hold():
    # three collinear points with an exact midpoint: the single triple is
    # degenerate and the middle point is its model-perfect center
    space = validate_metric(np.abs(np.subtract.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])))
    v = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    assert v.holds and v.epsilon_needed <= math.ldexp(1.0, defect_resolution(space.diameter))


def test_certify_lower_direction_on_convex_position_points():
    # Euclidean samples are CBB(0): discrete centers only do worse
    space = sample_space(GeneratorSpec(kind="euclidean", n=25, seed=2))
    v = certify(space, CurvatureQuery(kappa=0.0, direction="lower"))
    assert v.holds and v.epsilon_needed <= 1e-12


def _integer_tree(rng, n):
    return from_graph([(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, n)])


def _integer_graph(rng, n):
    edges = [(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, n)]
    edges += [(u, v, float(rng.integers(1, 4))) for u, v in itertools.combinations(range(n), 2) if rng.uniform() < 0.2]
    return from_graph(edges)


def _brute_force_cases(rng):
    """(space, beta, degenerate): random metrics, then integer-weight trees and
    graphs, where many triples tie for epsilon* and only the first may be reported."""
    for _ in range(10):
        n = int(rng.integers(5, 10))
        space = validate_metric(random_metric_matrix(rng, n))
        yield space, float(rng.uniform(0.9, 1.6)), bool(rng.integers(0, 2))
    for make in (_integer_tree, _integer_graph):
        for _ in range(8):
            space = make(rng, int(rng.integers(5, 13)))
            for beta, degenerate in itertools.product((0.0, 2.0), (False, True)):
                yield space, beta, degenerate


def test_certify_matches_brute_force_with_beta_and_degenerate(monkeypatch):
    witnesses = 0
    for space, beta, degenerate in _brute_force_cases(np.random.default_rng(3)):
        ref = brute_certify(space.dist, beta=beta, degenerate=degenerate)
        for direction, key, wkey in (
            ("upper", "eps_upper", "worst_upper"),
            ("lower", "eps_lower", "worst_lower"),
        ):
            # one triple per min-max block, a few triples per block, the whole row in one block
            for block in (1, 3 * space.n, certify_module._BLOCK):
                with monkeypatch.context() as patch:
                    patch.setattr(certify_module, "_BLOCK", block)
                    v = certify(
                        space,
                        CurvatureQuery(
                            kappa=0.0, direction=direction, beta=beta, degenerate_pairs=degenerate
                        ),
                    )
                assert abs(v.epsilon_needed - ref[key]) <= 1e-12
                if not v.holds:
                    assert v.witness.triple.as_tuple() == ref[wkey]
                    witnesses += 1
    assert witnesses >= 150


def _oracle_verdicts(space, kappa, degenerate, policy=CandidatePolicy(), max_perimeter=None):
    """{direction: (epsilon*, first witness or None)} and the skipped count, from
    `triangle_defect` on every triple in lexicographic order."""
    triples = list(enumerate_triples(space, degenerate_pairs=degenerate))
    kept = [td for t in triples if (td := triangle_defect(space, t, kappa, policy, max_perimeter)) is not None]
    defect = np.array([td.defect for td in kept])
    worst = {}
    for direction, sign in (("upper", 1.0), ("lower", -1.0)):
        eps = (sign * defect).max(initial=0.0)
        worst[direction] = (eps, kept[int(np.argmax(sign * defect == eps))] if eps > 0 else None)
    return worst, len(triples) - len(kept)


def test_certify_witness_matches_defect_profile_across_policies():
    # the per-triple oracle and defect_profile compute every defect; certify may
    # skip triples below its floor, but never the witness, so all report the
    # same TriangleDefect
    rng = np.random.default_rng(22)
    cells = rng.choice(16, size=10, replace=False)
    pts = np.stack([cells % 4, cells // 4], axis=1) / 4.0
    plane = validate_metric(lp_distances(pts, pts, 2.0), embedding=Embedding(pts, 2.0))
    square = validate_metric(lp_distances(pts, pts, math.inf), embedding=Embedding(pts, math.inf))
    spaces = [_integer_tree(rng, 10).rescale(0.25), _integer_graph(rng, 10).rescale(0.25), plane, square]
    witnesses = 0
    for space in spaces:
        # on the l_2 and l_inf planes also m = n + 2 and m = n + 9 candidates:
        # two extra points, then the centres of nine of the grid's cells
        centres = [(x, y) for x in (0.125, 0.375, 0.625) for y in (0.125, 0.375, 0.625)]
        extra = [
            CandidatePolicy.augmented([(0.125, 0.375), (0.5, 0.25)]),
            CandidatePolicy.augmented(centres),
        ] if space.embedding else []
        perimeters = sorted(SideLengths.of_triple(space, t).perimeter for t in enumerate_triples(space))
        for policy, kappa, degenerate, max_perimeter in itertools.product(
            [CandidatePolicy()] + extra, (0.0, 1.0, -1.0), (False, True), (None, perimeters[len(perimeters) // 2])
        ):
            oracle, skipped = _oracle_verdicts(space, kappa, degenerate, policy, max_perimeter)
            for direction, (eps, worst) in oracle.items():
                v = certify(space, CurvatureQuery(
                    kappa=kappa, direction=direction, degenerate_pairs=degenerate,
                    candidates=policy, max_perimeter=max_perimeter,
                ))
                assert (v.epsilon_needed, v.skipped) == (eps, skipped)
                if not v.holds:
                    assert v.witness == worst
                    witnesses += 1
            if policy == CandidatePolicy() and max_perimeter is None:
                profile = defect_profile(space, kappa=kappa, degenerate_pairs=degenerate)
                assert (profile.epsilon_star_upper, profile.worst_upper) == oracle["upper"]
                assert (profile.epsilon_star_lower, profile.worst_lower) == oracle["lower"]
                assert profile.skipped == skipped
    assert witnesses >= 100


@pytest.mark.parametrize("p", (1.5, 3.7, 7.0))
def test_a_space_s_own_points_as_extra_candidates_change_nothing(p):
    # a candidate that repeats a point of the space is as far from each point as that point is,
    # bit for bit, only if the embedding measures with the function that built the matrix
    for seed in range(20):
        space = sample_space(GeneratorSpec(kind="lp_plane", n=25, p=p, seed=seed))
        coords = space.embedding.coords
        assert np.array_equal(space.embedding.distances_to_points(coords), space.dist), seed
        for direction in ("upper", "lower"):
            verdicts = [
                certify(space, CurvatureQuery(direction=direction, candidates=policy))
                for policy in (CandidatePolicy(), CandidatePolicy.augmented(coords))
            ]
            plain, augmented = (
                (v.epsilon_needed, v.witness and (v.witness.triple, v.witness.r_space)) for v in verdicts
            )
            assert augmented == plain, (seed, direction)


def test_certify_counts_the_triples_it_gathers():
    # on a tree every triple's pair-table bounds meet, so no candidate min-max runs
    tree = sample_space(GeneratorSpec(kind="tree", n=40, seed=1))
    for direction in ("upper", "lower"):
        assert certify(tree, CurvatureQuery(direction=direction, degenerate_pairs=True)).gathered == 0
    space = validate_metric(random_metric_matrix(np.random.default_rng(13), 60))
    lower = certify(space, CurvatureQuery(direction="lower"))
    upper = certify(space, CurvatureQuery(direction="upper"))
    assert lower.gathered < 0.01 * math.comb(60, 3)
    assert 0 < upper.gathered < math.comb(60, 3)


def _near_right_plane(rng, n):
    """Points on the unit circle in nearly antipodal pairs: every triple holding a pair
    is nearly right-angled, with its model radius within a few ulps of half its long side."""
    angles = np.repeat(rng.uniform(0.0, math.pi, n // 2), 2) + np.tile([0.0, math.pi], n // 2)
    angles += rng.normal(scale=1e-12, size=angles.size)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return validate_metric(lp_distances(pts, pts, 2.0))


def _near_equilateral_plane(rng, n):
    """Unit equilateral triangles, moved by 1e-9 and set 2 apart, each with a point 0.5 from
    its three vertices, in the shortest-path metric: triples whose model radius is within a
    few ulps of rho(1), and lower defects near rho(1) - 1/2."""
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    pts = np.concatenate([tri + 2.0 * t + rng.normal(scale=1e-9, size=(3, 2)) for t in range(n // 3)])
    d = lp_distances(pts, pts, 2.0)
    m = len(pts)
    edges = [(a, b, float(d[a, b])) for a, b in itertools.combinations(range(m), 2)]
    edges += [(m + t, 3 * t + v, 0.5) for t in range(m // 3) for v in range(3)]
    return from_graph(edges)


BRACKET_SPACES = {
    "quarter": lambda rng: _quarter_metric(rng, 30),
    "random": lambda rng: validate_metric(random_metric_matrix(rng, 40)),
    "near-right": lambda rng: _near_right_plane(rng, 30),
    "near-equilateral": lambda rng: _near_equilateral_plane(rng, 24),
    # sqrt|kappa| times the longest side passes the bracket's limit of 8 at kappa = -4
    "hyperbolic-past-limit": lambda rng: validate_metric(random_metric_matrix(rng, 24, lo=3.0, hi=6.0)),
    "tree": lambda rng: _integer_tree(rng, 30).rescale(0.25),
}


def _unbracketed(patch):
    """certify as before the model-radius bracket and the pair prune: every triple is
    modelled, and `reach` alone drops triples, once a block."""
    patch.setattr(certify_module._Worst, "hot", lambda self, pairs: None)
    patch.setattr(certify_module._Worst, "bracket", lambda self, ub, long: np.ones(ub.shape, dtype=bool))


@pytest.mark.parametrize("case", sorted(BRACKET_SPACES))
def test_bracket_and_prune_change_no_result(case, monkeypatch):
    # every verdict, witness and skipped count is the unbracketed scan's, and at kappa = 0
    # brute force's; the bracket and the prune only skip model radii. Upper gathers the
    # same triples. A pruned lower call raises its floor once over several blocks, and
    # the triples it leaves out cannot raise it, so lower gathers no more than the
    # unbracketed scan. Blocks of at most row 0's triples give these small spaces several
    # blocks, so that the floors rise between them
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)
    space = BRACKET_SPACES[case](np.random.default_rng(len(case)))
    fewer = 0
    for kappa, direction, beta, degenerate in itertools.product(
        (0.0, 1.0, -1.0, 4.0, -4.0), ("upper", "lower"), (0.0, 0.9), (False, True)
    ):
        query = CurvatureQuery(kappa=kappa, direction=direction, beta=beta, degenerate_pairs=degenerate)
        v = certify(space, query)
        with monkeypatch.context() as patch:
            _unbracketed(patch)
            full = certify(space, query)
        if direction == "upper":
            assert dataclasses.replace(v, modelled=0) == dataclasses.replace(full, modelled=0)
        else:
            assert dataclasses.replace(v, modelled=0, gathered=0) == dataclasses.replace(full, modelled=0, gathered=0)
            assert v.gathered <= full.gathered
        assert v.modelled <= full.modelled
        fewer += v.modelled < full.modelled
        if kappa == 0.0:
            ref = brute_certify(space.dist, beta=beta, degenerate=degenerate)
            eps, worst = (ref["eps_upper"], ref["worst_upper"]) if direction == "upper" else (ref["eps_lower"], ref["worst_lower"])
            assert abs(v.epsilon_needed - eps) <= 1e-12
            if not v.holds:
                assert v.witness.triple.as_tuple() == worst
    assert fewer >= 10


@pytest.mark.parametrize("degenerate", (False, True))
def test_hot_triples_are_the_triples_with_a_hot_pair(degenerate):
    n = 13
    rng = np.random.default_rng(7 + degenerate)
    J, K = np.triu_indices(n, 1)
    position = {(int(j), int(k)): p for p, (j, k) in enumerate(zip(J, K))}
    offset = certify_module._pair_offset(np.arange(n + 1), n)
    starts = offset[np.arange(n) + (not degenerate)]
    for share in (0.0, 0.05, 0.2, 0.6, 1.0):
        hot = rng.uniform(size=J.size) < share
        for rows in (range(0, 1), range(0, n), range(1, 4), range(4, n), range(n - 1, n)):
            I, at = certify_module._hot_triples(hot, (J, K), starts, offset, rows)
            got = list(zip(I.tolist(), J[at].tolist(), K[at].tolist()))
            want = []
            for i in rows:
                for j, k in zip(J[starts[i] :].tolist(), K[starts[i] :].tolist()):
                    # (i, k) with j == i stands for the degenerate triple (i, i, k)
                    pairs = [(j, k)] if j == i else [(i, j), (i, k), (j, k)]
                    if any(hot[position[pair]] for pair in pairs):
                        want.append((i, j, k))
            assert got == want


@pytest.mark.parametrize("degenerate", (False, True))
@pytest.mark.parametrize("n", (13, 40))
def test_pruned_end_bounds_the_blocks_of_one_call(n, degenerate, monkeypatch):
    # a group of more than one block holds at most 8 times row 0's triples, and at most
    # row 0's triples with a hot pair; with no hot pair it grows up to the first bound.
    # Here the capacity is row 0's, so that these small spaces take several blocks
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)
    rng = np.random.default_rng(n + degenerate)
    J, K = np.triu_indices(n, 1)
    offset = certify_module._pair_offset(np.arange(n + 1), n)
    starts = offset[np.arange(n) + (not degenerate)]
    counts = J.size - starts
    blocks = list(certify_module._row_blocks(counts.tolist()))
    triples = np.concatenate(([0], np.cumsum(counts)))  # triples before each row
    grouped = 0
    for share in (0.0, 0.002, 0.02, 0.2, 1.0):
        hot = rng.uniform(size=J.size) < share
        for b in range(len(blocks)):
            end = certify_module._pruned_end(blocks, b, hot, offset, starts, counts)
            assert b < end <= len(blocks)
            rows = range(blocks[b].start, blocks[end - 1].stop)
            if end - b > 1:
                grouped += hot.any()
                assert triples[rows.stop] - triples[rows.start] <= 8 * counts[0]
                I, _ = certify_module._hot_triples(hot, (J, K), starts, offset, rows)
                assert I.size <= counts[0]
            if not hot.any() and end < len(blocks):
                assert triples[blocks[end].stop] - triples[rows.start] > 8 * counts[0]
    assert grouped


def test_certify_scale_invariance_kappa_zero():
    rng = np.random.default_rng(4)
    m = random_metric_matrix(rng, 12)
    space = validate_metric(m)
    base = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    for lam in (1e-3, 1e3):
        scaled = certify(space.rescale(lam), CurvatureQuery(kappa=0.0, direction="upper"))
        assert scaled.holds == base.holds
        assert scaled.epsilon_needed == pytest.approx(lam * base.epsilon_needed, rel=1e-12)
        if not base.holds:
            assert scaled.witness.triple == base.witness.triple


def test_certify_is_covariant_under_power_of_two_rescaling():
    # the tolerance is 2**defect_resolution(diameter), so rescaling by 2**k moves the
    # defects and the tolerance together, exactly; an absolute 1e-12 flipped the
    # random metric (epsilon* = 0.729 * scale) to "holds" at k = -60
    spaces = (
        validate_metric(random_metric_matrix(np.random.default_rng(0), 30)),
        sample_space(parse_generator_spec("tree:n=30")),
    )
    for space, direction in itertools.product(spaces, ("upper", "lower")):
        query = CurvatureQuery(kappa=0.0, direction=direction)
        base = certify(space, query)
        for k in (-60, -20, 20, 60):
            scaled = certify(space.rescale(math.ldexp(1.0, k)), query)
            assert scaled.holds == base.holds
            assert scaled.epsilon_needed == math.ldexp(base.epsilon_needed, k)
            if base.witness is None:
                assert scaled.witness is None
            else:
                assert scaled.witness.triple == base.witness.triple
                assert scaled.witness.defect == math.ldexp(base.witness.defect, k)


def test_certify_thread_count_does_not_change_output():
    rng = np.random.default_rng(5)
    m = random_metric_matrix(rng, 30)
    space = validate_metric(m)
    results = [
        certify(space, CurvatureQuery(kappa=0.0, direction="upper"), threads=t)
        for t in (1, 2, 4, 8)
    ]
    for r in results[1:]:
        assert r.epsilon_needed == results[0].epsilon_needed
        assert (r.witness and r.witness.triple) == (results[0].witness and results[0].witness.triple)
    for bad in (0, -2):
        with pytest.raises(ValueError):
            certify(space, CurvatureQuery(kappa=0.0, direction="upper"), threads=bad)


def test_thread_count_must_be_an_integer():
    for bad in (None, 1.5, "2"):
        with pytest.raises(ValueError, match="thread count must be a positive integer"):
            certify(PATH4, CurvatureQuery(), threads=bad)
        with pytest.raises(ValueError, match="thread count must be a positive integer"):
            delta_four_point(PATH4, threads=bad)
    assert certify(PATH4, CurvatureQuery(), threads=np.int64(2)) == certify(PATH4, CurvatureQuery())
    assert delta_four_point(PATH4, threads=np.int64(2)) == delta_four_point(PATH4)


def _row_triples(n, i, degenerate):
    return math.comb(n - 1 - i, 2) + (n - 1 - i if degenerate else 0)


@pytest.mark.parametrize("degenerate", (False, True))
def test_row_blocks_fill_up_to_the_capacity(degenerate, monkeypatch):
    # a block holds whole rows, at least one, and at most max(row 0's triples, _TRIPLES)
    # triples, and takes the next row whenever it fits: for row 0 below, at and above
    # the budget, and by default
    n = 40
    counts = [_row_triples(n, i, degenerate) for i in range(n)]
    row0 = counts[0]
    for budget in (certify_module._TRIPLES, 1, row0 - 1, row0, row0 + 1, 3 * row0, 10**9):
        monkeypatch.setattr(certify_module, "_TRIPLES", budget)
        capacity = max(row0, budget)
        blocks = list(certify_module._row_blocks(counts))
        assert [i for rows in blocks for i in rows] == list(range(n))
        sizes = [sum(counts[i] for i in rows) for rows in blocks]
        assert all(rows for rows in blocks) and max(sizes) <= capacity
        assert all(size + counts[rows.stop] > capacity for size, rows in zip(sizes, blocks[:-1]))
        assert (len(blocks) == 1) == (sum(counts) <= capacity)
    assert list(certify_module._row_blocks([])) == []
    # from n = 150 on the budget is below row 0's triples, so the blocks are row 0's
    monkeypatch.undo()
    assert certify_module._TRIPLES <= _row_triples(150, 0, False)


def _logged(events, name, method):
    """`method`, appending `name` to `events` at each call."""

    def wrapped(*args):
        events.append(name)
        return method(*args)

    return wrapped


def test_certify_scans_every_row_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)  # row 0's capacity: several blocks at n = 12
    small = validate_metric(random_metric_matrix(np.random.default_rng(5), 12))
    # lower fails here at kappa = -1, so that the pair prune runs and some calls span several blocks
    failing = validate_metric(random_metric_matrix(np.random.default_rng(5), 40))
    scan_block = certify_module._scan_block
    calls = []

    def recorded(*args):
        calls.append((list(args[-1]), threading.get_ident()))
        return scan_block(*args)

    monkeypatch.setattr(certify_module, "_scan_block", recorded)
    for (space, direction), degenerate in itertools.product(((small, "upper"), (failing, "lower")), (False, True)):
        n = space.n
        calls.clear()
        v = certify(space, CurvatureQuery(kappa=-1.0, direction=direction, degenerate_pairs=degenerate), threads=4)
        # consecutive whole rows, covering 0 .. n - 1 once and in order, on the calling thread
        assert all(rows for rows, _ in calls)
        assert [i for rows, _ in calls for i in rows] == list(range(n))
        assert {thread for _, thread in calls} == {threading.get_ident()}
        counts = [_row_triples(n, i, degenerate) for i in range(n)]
        if direction == "upper":
            # no call holds more triples than row 0, and some hold several rows
            assert all(sum(counts[i] for i in rows) <= counts[0] for rows, _ in calls)
            assert len(calls) < n
        else:
            assert not v.holds
            assert len(calls) < len(list(certify_module._row_blocks(counts)))


def test_pruned_lower_scan_raises_its_floor_once_per_kernel_call(monkeypatch):
    # one pruned call builds the hot triples of several blocks, models them in one kernel
    # call and raises the floor once from all of their bounds. The lower direction brackets
    # no triple: the one model_radius_bracket call is the pair prune's gap
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)
    space = validate_metric(random_metric_matrix(np.random.default_rng(5), 40))
    batch, bracket, reach = certify_module.model_circumradius_batch, certify_module.model_radius_bracket, certify_module._Worst.reach
    scan_block = certify_module._scan_block
    events, calls = [], []

    def recorded(*args):
        calls.append(args[-1])
        events.append("scan")
        return scan_block(*args)

    monkeypatch.setattr(certify_module, "model_circumradius_batch", _logged(events, "kernel", batch))
    monkeypatch.setattr(certify_module, "model_radius_bracket", _logged(events, "bracket", bracket))
    monkeypatch.setattr(certify_module._Worst, "reach", _logged(events, "reach", reach))
    monkeypatch.setattr(certify_module, "_scan_block", recorded)
    for kappa, degenerate in itertools.product((0.0, -1.0), (False, True)):
        events.clear()
        calls.clear()
        v = certify(space, CurvatureQuery(kappa=kappa, direction="lower", degenerate_pairs=degenerate))
        assert not v.holds
        assert events.count("bracket") <= 1
        assert [e for e in events if e != "bracket"] == ["scan", "kernel", "reach"] * len(calls)
        starts = [rows.start for rows in certify_module._row_blocks([_row_triples(40, i, degenerate) for i in range(40)])]
        assert any(sum(start in rows for start in starts) > 1 for rows in calls)


def test_scan_calls_the_model_kernel_once_per_block(monkeypatch):
    # defect_histogram models every triple. certify counts the triples it models: all of
    # them where its direction holds, so that its floor stays 0, and where it fails only
    # those that the model-radius bracket keeps once the floor is positive
    failing = validate_metric(random_metric_matrix(np.random.default_rng(5), 40))
    holding = sample_space(GeneratorSpec(kind="euclidean", n=25, seed=2))
    batch = certify_module.model_circumradius_batch
    scan_block = certify_module._scan_block
    sizes, calls = [], []

    def recorded(a, b, c, kappa):
        sizes.append(len(a))
        return batch(a, b, c, kappa)

    def counted(*args):
        calls.append(args[-1])
        return scan_block(*args)

    monkeypatch.setattr(certify_module, "model_circumradius_batch", recorded)
    monkeypatch.setattr(certify_module, "_scan_block", counted)
    cases = [(failing, kappa, direction) for kappa in (0.0, -1.0) for direction in ("upper", "lower")]
    for space, kappa, direction in [*cases, (holding, 0.0, "lower")]:
        every = math.comb(space.n, 3) + math.comb(space.n, 2)
        sizes.clear()
        calls.clear()
        defect_histogram(space, kappa=kappa, degenerate_pairs=True)
        assert len(sizes) == len(calls) < space.n
        assert sum(sizes) == every
        sizes.clear()
        calls.clear()
        v = certify(space, CurvatureQuery(kappa=kappa, direction=direction, degenerate_pairs=True))
        assert len(sizes) == len(calls) < space.n
        assert v.modelled == sum(sizes)
        assert v.holds == (space is holding)
        assert v.modelled == every if v.holds else v.modelled < every


def test_defect_profile_drops_triples_below_its_floors(monkeypatch):
    # on a failing random metric both directions' floors and the curve's turn positive,
    # and the profile gathers only the triples that can still reach one of them. It
    # brackets none, so it models every admitted triple, as the histogram does; the
    # histogram counts every defect, so its scan also gathers each min-max that ub != lb
    # leaves. Blocks of at most row 0's triples let the floors rise between blocks at n = 40
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)
    n = 40
    space = validate_metric(random_metric_matrix(np.random.default_rng(5), n))
    scan_rows = certify_module._scan_rows
    counts = []

    def counted(*args):
        for item in scan_rows(*args):
            counts.append(item[1:3])
            yield item

    monkeypatch.setattr(certify_module, "_scan_rows", counted)
    profile = defect_profile(space, kappa=0.0, beta_grid=[0.0, 1.2, 1.5])
    assert profile.epsilon_star_upper > 0 and profile.epsilon_star_lower > 0
    assert all(eps > 0 for _, eps in profile.beta_curve)
    profile_gathered, profile_modelled = map(sum, zip(*counts))
    counts.clear()
    defect_histogram(space, kappa=0.0)
    gathered, modelled = map(sum, zip(*counts))
    assert modelled == math.comb(n, 3)
    assert profile_modelled == modelled
    assert profile_gathered < gathered / 2


def _quarter_metric(rng, n):
    """Distances in {0.5, 0.75, 1}: a metric, exact in binary, with many equal sides and tied defects."""
    m = np.triu(rng.integers(2, 5, size=(n, n)) / 4.0, 1)
    return validate_metric(m + m.T)


def _oracle_arrays(space, defects):
    """Triples (T, 3), defects, r_space, r_model and shortest distinct-pair side of TriangleDefects."""
    tri = np.array([td.triple.as_tuple() for td in defects], dtype=np.intp).reshape(-1, 3)
    values = np.array([(td.defect, td.r_space, td.r_model) for td in defects]).reshape(-1, 3).T
    d = space.dist
    i, j, k = tri.T
    min_side = np.where(i == j, d[i, k], np.minimum(np.minimum(d[i, j], d[i, k]), d[j, k]))
    return tri, *values, min_side


@pytest.mark.parametrize("n", (0, 1, 2, 3, 5, 12, 40))
def test_block_scan_matches_the_per_triple_oracle(n):
    # n = 12 and 40 put several rows in one block. At kappa = 1 no side exceeds 1.25, so
    # the model's own bound skips nothing; the cap skips about a third of the quarter
    # metric's triples and about 60% of the grid's. On the embedded grid points the
    # candidates are the n points and six cell centres (m = n + 6 columns).
    rng = np.random.default_rng(n)
    quarter = _quarter_metric(rng, n)
    cells = rng.choice(64, size=n, replace=False)
    pts = np.stack([cells % 8, cells // 8], axis=1) / 8.0
    plane = validate_metric(lp_distances(pts, pts, 2.0), embedding=Embedding(pts, 2.0))
    centres = CandidatePolicy.augmented([((x + 0.5) / 8.0, (y + 0.5) / 8.0) for x in (1, 3, 5) for y in (2, 6)])
    grid = [0.0, 0.75, 1.0]  # the quarter metric's side lengths
    cases = [
        *((quarter, CandidatePolicy(), kappa, cap, grid) for kappa, cap in ((0.0, None), (1.0, None), (-1.0, None), (1.0, 2.5))),
        (plane, centres, 0.0, None, grid),
        (plane, centres, 1.0, 1.5, grid),
    ]
    if n >= 2:
        # shortest paths over weights 1 to 3: integer sides, ties everywhere, and a grid of side lengths
        graph = _integer_graph(rng, n)
        sides = np.unique(graph.dist[np.triu_indices(n, 1)])[:4].tolist()
        cases += [(graph, CandidatePolicy(), kappa, None, [0.0, *sides]) for kappa in (0.0, 1.0, -1.0)]
    for space, policy, kappa, max_perimeter, grid in cases:
        every = list(enumerate_triples(space, degenerate_pairs=True))
        oracle = {t: triangle_defect(space, t, kappa, policy, max_perimeter) for t in every}
        for degenerate, beta in itertools.product((False, True), (0.0, 0.75)):
            triples = list(enumerate_triples(space, degenerate_pairs=degenerate, beta=beta))
            kept = [oracle[t] for t in triples if oracle[t] is not None]
            skipped = len(triples) - len(kept)
            tri, defect, r_space, r_model, min_side = _oracle_arrays(space, kept)
            scan = list(certify_module._scan_rows(space, kappa, policy, (beta,), degenerate, max_perimeter))
            got = [[x for *_, block in scan for x in block[c].tolist()] for c in range(6)]
            assert got == [*tri.T.tolist(), defect.tolist(), r_space.tolist(), r_model.tolist()]
            assert sum(block_skipped for block_skipped, *_ in scan) == skipped
            for direction, sign in (("upper", 1.0), ("lower", -1.0)):
                eps = (sign * defect).max(initial=0.0)
                first = kept[int(np.argmax(sign * defect == eps))] if eps > 0 else None
                v = certify(space, CurvatureQuery(
                    kappa=kappa, direction=direction, beta=beta, degenerate_pairs=degenerate,
                    candidates=policy, max_perimeter=max_perimeter,
                ))
                tau = math.ldexp(1.0, defect_resolution(space.diameter))
                assert (v.epsilon_needed, v.skipped, v.holds) == (eps, skipped, eps <= tau)
                assert v.witness == (None if v.holds else first)
            if beta or policy != CandidatePolicy() or max_perimeter is not None:
                continue
            profile = defect_profile(space, kappa=kappa, beta_grid=grid, degenerate_pairs=degenerate)
            for eps, worst, sign in (
                (profile.epsilon_star_upper, profile.worst_upper, 1.0),
                (profile.epsilon_star_lower, profile.worst_lower, -1.0),
            ):
                assert eps == (sign * defect).max(initial=0.0)
                assert worst == (kept[int(np.argmax(sign * defect == eps))] if eps > 0 else None)
            assert profile.skipped == skipped
            hist = defect_histogram(space, kappa=kappa, degenerate_pairs=degenerate)
            edges, counts = hist.bin_edges, hist.counts
            assert sum(counts) == len(kept)
            assert list(counts) == [int(((lo <= defect) & (defect < hi)).sum()) for lo, hi in zip(edges, edges[1:])]
            assert profile.beta_curve == tuple((b, defect[min_side >= b].max(initial=0.0)) for b in grid)


def _curve_grids(space):
    """Named beta grids: every distinct side length, so that beta equals a side and min_side == beta
    is admitted; an unsorted one with duplicates and -0.0; values past the diameter; and 1000 values
    evenly spaced over [0, diameter]."""
    sides = np.unique(space.dist[np.triu_indices(space.n, 1)]).tolist()
    return {
        "sides": sides,
        "unsorted": [sides[-1], -0.0, sides[len(sides) // 2], sides[0], sides[-1], 0.0, sides[len(sides) // 2], -0.0],
        "past": [space.diameter, math.nextafter(space.diameter, math.inf), 2 * space.diameter, 1e300],
        "even": np.linspace(0.0, space.diameter, 1000).tolist(),
    }


def test_beta_curve_levels_are_exact(monkeypatch):
    # each triple is graded once into the levels of {0} and the grid; the upper _Worst's floor and
    # epsilon per level must be nonincreasing in the level after every block, since each level's
    # triples include the next level's, and the curve must equal the per-triple oracle's maximum
    # and certify at each beta, bitwise
    checked = []

    def monotone(method):
        def wrapped(self, block):
            out = method(self, block)
            assert np.all(np.diff(self.floor) <= 0) and np.all(np.diff(self.epsilon) <= 0)
            assert np.all(self.floor >= self.epsilon)
            checked.append(self.floor.size)
            return out

        return wrapped

    monkeypatch.setattr(certify_module._Worst, "reach", monotone(certify_module._Worst.reach))
    monkeypatch.setattr(certify_module._Worst, "add", monotone(certify_module._Worst.add))
    rng = np.random.default_rng(26)
    # on the path, triples through a midpoint have defect 0, which the lower direction reads as -0.0
    spaces = [PATH4, _quarter_metric(rng, 10), _integer_graph(rng, 10), validate_metric(random_metric_matrix(rng, 10))]
    for space, kappa, degenerate in itertools.product(spaces, (0.0, 1.0, -1.0), (False, True)):
        every = list(enumerate_triples(space, degenerate_pairs=degenerate))
        kept = [td for t in every if (td := triangle_defect(space, t, kappa)) is not None]
        _, defect, _, _, min_side = _oracle_arrays(space, kept)
        verdicts = {}
        for name, grid in _curve_grids(space).items():
            profile = defect_profile(space, kappa=kappa, beta_grid=grid, degenerate_pairs=degenerate)
            want = tuple((b, float(defect[min_side >= b].max(initial=0.0))) for b in grid)
            # repr tells -0.0 from 0.0, in the grid's values and in the curve's
            assert repr(profile.beta_curve) == repr(want), (name, kappa, degenerate)
            assert profile.epsilon_star_upper == defect.max(initial=0.0)
            assert math.copysign(1.0, profile.epsilon_star_lower) == 1.0  # never -0.0
            for b, eps in profile.beta_curve:
                # certify's beta query depends on b only through the triples it admits
                admitted = int(np.count_nonzero(min_side >= b))
                if admitted not in verdicts:
                    query = CurvatureQuery(kappa=kappa, beta=b, degenerate_pairs=degenerate)
                    verdicts[admitted] = certify(space, query).epsilon_needed
                assert verdicts[admitted] == eps
    assert max(checked) == 1000 and min(checked) == 1  # the even grid holds 0


def test_defect_profile_brackets_once_per_direction_whatever_the_grid(monkeypatch):
    # one _Worst per direction, whatever the grid: the upper one grades its floors by level.
    # The profile's scan runs no model-radius bracket, and one model-kernel call per
    # _scan_block call, for grids of 0, 3 and 100 values. Blocks of at most row 0's triples
    # let the floors rise between blocks
    monkeypatch.setattr(certify_module, "_TRIPLES", 1)
    space = validate_metric(random_metric_matrix(np.random.default_rng(5), 40))
    batch, bracket, worst = certify_module.model_circumradius_batch, certify_module.model_radius_bracket, certify_module._Worst
    scan_block = certify_module._scan_block
    events, built = [], []

    class Counted(worst):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(certify_module, "model_circumradius_batch", _logged(events, "kernel", batch))
    monkeypatch.setattr(certify_module, "model_radius_bracket", _logged(events, "bracket", bracket))
    monkeypatch.setattr(certify_module, "_scan_block", _logged(events, "scan", scan_block))
    monkeypatch.setattr(certify_module, "_Worst", Counted)
    for size in (0, 3, 100):
        events.clear()
        built.clear()
        grid = np.linspace(0.0, space.diameter, size).tolist()
        profile = defect_profile(space, kappa=0.0, beta_grid=grid)
        assert profile.epsilon_star_upper > 0 and profile.epsilon_star_lower > 0
        assert len(built) == 2
        assert "bracket" not in events
        assert events.count("scan") > 1 and events == ["scan", "kernel"] * events.count("scan")


def test_certify_counts_skipped_large_triangles():
    m = random_metric_matrix(np.random.default_rng(6), 6, lo=2.2, hi=2.5)
    space = validate_metric(m)
    v = certify(space, CurvatureQuery(kappa=1.0, direction="upper"))
    assert v.skipped == 20 and v.holds  # every triple exceeds the model bound


def test_defect_profile_consistent_with_certify():
    rng = np.random.default_rng(7)
    n = 14
    m = random_metric_matrix(rng, n)
    space = validate_metric(m)
    # row 5 holds triples, but none with perimeter below its smallest one
    cap = min(SideLengths.of_triple(space, t).perimeter for t in enumerate_triples(space) if t.i == 5)
    witnesses = 0
    for kappa in (0.0, 1.0, -1.0):
        for degenerate in (False, True):
            profile = defect_profile(space, kappa=kappa, beta_grid=[0.0, 1.0, 1.2, 1.5], degenerate_pairs=degenerate)
            capped, capped_skipped = _oracle_verdicts(space, kappa, degenerate, max_perimeter=cap)
            for direction, eps, worst in (
                ("upper", profile.epsilon_star_upper, profile.worst_upper),
                ("lower", profile.epsilon_star_lower, profile.worst_lower),
            ):
                # the capped scan skips all of row 5; defect_profile takes no cap, so the oracle stands in
                runs = ((None, eps, worst, profile.skipped), (cap, *capped[direction], capped_skipped))
                for max_perimeter, want_eps, want_witness, want_skipped in runs:
                    v = certify(space, CurvatureQuery(
                        kappa=kappa, direction=direction, degenerate_pairs=degenerate, max_perimeter=max_perimeter,
                    ))
                    assert (v.epsilon_needed, v.skipped) == (want_eps, want_skipped)
                    if not v.holds:
                        # TriangleDefect equality compares triple, sides, r_space and r_model exactly
                        assert v.witness == want_witness
                        witnesses += 1
            triples = math.comb(n, 3) + (math.comb(n, 2) if degenerate else 0)
            hist = defect_histogram(space, kappa=kappa, degenerate_pairs=degenerate)
            assert sum(hist.counts) + profile.skipped == triples
            # scale curve starts at the global upper defect and never increases
            curve = [eps for _, eps in profile.beta_curve]
            assert curve[0] == profile.epsilon_star_upper
            assert all(x >= y for x, y in zip(curve, curve[1:]))
    assert witnesses >= 12


def test_defect_profile_beta_curve_matches_filtered_certify():
    rng = np.random.default_rng(8)
    m = random_metric_matrix(rng, 10)
    space = validate_metric(m)
    profile = defect_profile(space, kappa=0.0, beta_grid=[1.1, 1.4])
    for beta, eps in profile.beta_curve:
        v = certify(space, CurvatureQuery(kappa=0.0, direction="upper", beta=beta))
        assert eps == pytest.approx(v.epsilon_needed, abs=1e-15)
    for grid in ([math.nan, 1.0], [math.inf], [-0.5]):
        with pytest.raises(ValueError):
            defect_profile(space, kappa=0.0, beta_grid=grid)


def test_defect_profile_histogram_bins_are_powers_of_two():
    rng = np.random.default_rng(11)
    for n, kappa, degenerate in ((6, 0.0, False), (14, 0.0, True), (20, -1.0, False), (17, 1.0, True)):
        space = validate_metric(random_metric_matrix(rng, n))
        grid = [0.0, 1.1, 1.4, 1.8]
        profile = defect_profile(space, kappa=kappa, beta_grid=grid, degenerate_pairs=degenerate)
        hist = defect_histogram(space, kappa=kappa, degenerate_pairs=degenerate)
        defects = [
            td.defect
            for t in enumerate_triples(space, degenerate_pairs=degenerate)
            if (td := triangle_defect(space, t, kappa=kappa)) is not None
        ]
        assert sum(hist.counts) == len(defects) == math.comb(n, 3) + degenerate * math.comb(n, 2) - profile.skipped
        # bins of one power-of-two width, anchored at 0, holding [min, max]
        edges = hist.bin_edges
        width = edges[1] - edges[0]
        exponent = math.frexp(width)[1] - 1
        assert width == 2.0**exponent
        assert all(right - left == width for left, right in zip(edges, edges[1:]))
        assert edges[0] % width == 0.0
        lo, hi = min(defects), max(defects)
        assert edges[0] <= lo and hi < edges[-1]
        # the narrowest such width: half of it would need more than 40 bins
        assert math.floor(hi / (width / 2)) - math.floor(lo / (width / 2)) >= 40
        for left, right, count in zip(edges, edges[1:], hist.counts):
            assert count == sum(left <= x < right for x in defects)


def test_pair_table_is_bitwise_the_first_pair_minimum():
    # P[a, b] = min_x max(d(x, a), d(x, b)) and C[a, b] its first argmin for b >= a, by a
    # plain loop over the candidates, and P = +inf below the diagonal, which no read reaches.
    # Entries of 1 and 2 tie often; the grid points' l_inf distances to the cell centres
    # tie too, and add m - n = 16 columns past the points
    rng = np.random.default_rng(15)
    ties = np.triu(rng.integers(1, 3, size=(30, 30)).astype(float), 1)
    cells = rng.choice(64, size=24, replace=False)
    pts = np.stack([cells % 8, cells // 8], axis=1).astype(float)
    grid = validate_metric(lp_distances(pts, pts, math.inf), embedding=Embedding(pts, math.inf))
    centres = CandidatePolicy.augmented([(x + 0.5, y + 0.5) for x in range(0, 8, 2) for y in range(0, 8, 2)])
    augmented = candidate_rows(grid, centres)
    assert augmented.shape == (24, 40)
    for cols in (validate_metric(random_metric_matrix(rng, 40)).dist, validate_metric(ties + ties.T).dist, augmented):
        n, m = cols.shape
        P, C = _pair_table(cols)
        assert C.dtype == np.min_scalar_type(max(n, m) ** 2)
        assert np.all(P[np.tril_indices(n, -1)] == math.inf)
        for a in range(n):
            for b in range(a, n):
                best, first = math.inf, -1
                for x in range(m):
                    r = max(cols[a, x], cols[b, x])
                    if r < best:
                        best, first = r, x
                assert (P[a, b], C[a, b]) == (best, first), (n, m, a, b)


def test_profile_memory_stays_quadratic():
    # a store-every-triple scan holds ~8 MB here; a row fold holds a few rows
    space = validate_metric(random_metric_matrix(np.random.default_rng(14), 80))
    tracemalloc.start()
    try:
        defect_profile(space, kappa=0.0, beta_grid=[0.0, 1.2, 1.5], degenerate_pairs=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_scan_memory_stays_within_a_row_zero_block():
    # blocks of whole rows hold at most row 0's triples, more than _TRIPLES at
    # n = 160, and the peak follows that cap: about 140-200 bytes per row-0
    # triple here, against 280-360 when blocks may hold twice row 0's triples
    n = 160
    space = validate_metric(random_metric_matrix(np.random.default_rng(14), n))
    sphere = sample_space(GeneratorSpec(kind="sphere", kappa=1.0, n=n, seed=0))
    plane = sample_space(GeneratorSpec(kind="euclidean", n=n, seed=0))
    row0_triples = (n - 1) * (n - 2) // 2
    for run in (
        lambda: defect_profile(space, kappa=0.0, beta_grid=[0.0, 1.2, 1.5], degenerate_pairs=True),
        lambda: certify(space, CurvatureQuery(kappa=0.0, direction="upper")),
        # the pruned lower scan builds several blocks' triples with a hot pair at once
        lambda: certify(space, CurvatureQuery(kappa=-1.0, direction="lower")),
        # holding inputs keep their floor at 0 and model every triple; the sphere's
        # perimeter cap runs the filter
        lambda: certify(sphere, CurvatureQuery(kappa=1.0, direction="lower")),
        lambda: certify(plane, CurvatureQuery(kappa=0.0, direction="lower")),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250 * row0_triples


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_upper_and_lower_never_both_fail_strictly_on_same_triple(seed):
    # epsilon_needed is nonnegative in both directions and zero in at least
    # one direction for any single-triple space
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, 3)
    space = validate_metric(m)
    up = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    lo = certify(space, CurvatureQuery(kappa=0.0, direction="lower"))
    assert up.epsilon_needed >= 0.0 and lo.epsilon_needed >= 0.0
    assert min(up.epsilon_needed, lo.epsilon_needed) == 0.0


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=9))
@settings(max_examples=30, deadline=None)
def test_epsilon_needed_is_the_threshold(seed, n):
    rng = np.random.default_rng(seed)
    m = random_metric_matrix(rng, n)
    space = validate_metric(m)
    v = certify(space, CurvatureQuery(kappa=0.0, direction="upper"))
    at = certify(space, CurvatureQuery(kappa=0.0, direction="upper", epsilon=v.epsilon_needed))
    assert at.holds
    if v.epsilon_needed > 2 * math.ldexp(1.0, defect_resolution(space.diameter)):
        below = certify(
            space,
            CurvatureQuery(kappa=0.0, direction="upper", epsilon=v.epsilon_needed / 2),
        )
        assert not below.holds
