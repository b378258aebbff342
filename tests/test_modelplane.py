"""Model-plane placements and circumradii against oracles."""
import math

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvcomp import (
    ModelPoint,
    SideLengths,
    comparison_triangle,
    euclidean_circumradius,
    model_circumradius,
)
from curvcomp import modelplane
from curvcomp.modelplane import (
    BRACKET_MARGIN,
    TooLargeForModelError,
    model_circumradius_batch,
    model_equilateral_radius,
    model_perimeter_bound,
    model_radius_bracket,
)
from oracles import (
    law_of_sines_circumradius,
    minmax_grid_model,
    per_chart_model_distance,
    single_pass_circumradius_batch,
)

KAPPAS = (-2.0, -1.0, 0.0, 0.5, 1.0)


def random_sides(rng, scale):
    pts = rng.uniform(0.0, scale, size=(3, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    return SideLengths(d[0, 1], d[0, 2], d[1, 2])


def test_model_perimeter_bound_takes_the_lesser_cap():
    sphere = 2.0 * math.pi - 1e-9 * (1.0 + 2.0 * math.pi)
    assert model_perimeter_bound(1.0) == sphere
    assert model_perimeter_bound(0.0) == model_perimeter_bound(-1.0) == math.inf
    assert model_perimeter_bound(1.0, 3.0) == 3.0
    assert model_perimeter_bound(1.0, 7.0) == sphere
    assert model_perimeter_bound(0.0, 7.0) == model_perimeter_bound(-1.0, 7.0) == 7.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        for k in (1.0, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"max_perimeter must be positive and finite, got {bad}"):
                model_perimeter_bound(k, bad)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_comparison_triangle_side_roundtrip_bulk(kappa):
    """10^4 random side triples reproduce their sides through the placement."""
    rng = np.random.default_rng(17)
    scale = 0.9 if kappa > 0 else 2.5
    worst = 0.0
    for _ in range(10_000):
        sides = random_sides(rng, scale)
        tri = comparison_triangle(sides, kappa)
        v0, v1, v2 = tri.vertices
        got = sorted(
            (
                per_chart_model_distance(v0, v1, kappa),
                per_chart_model_distance(v0, v2, kappa),
                per_chart_model_distance(v1, v2, kappa),
            ),
            reverse=True,
        )
        worst = max(worst, max(abs(g - s) for g, s in zip(got, sides.as_tuple())))
    assert worst < 1e-9 * (1.0 + 3 * scale)


def test_comparison_triangle_canonical_orientation():
    tri = comparison_triangle(SideLengths(3.0, 2.0, 2.5), 0.0)
    assert tri.vertices[0].coords == (0.0, 0.0)
    assert tri.vertices[1].coords[1] == 0.0
    assert tri.vertices[2].coords[1] >= 0.0


def test_large_triangle_rejected_on_sphere():
    near_max = 2.0 * math.pi / 3.0
    with pytest.raises(TooLargeForModelError):
        comparison_triangle(SideLengths(near_max, near_max, near_max), 1.0)
    with pytest.raises(TooLargeForModelError):
        model_circumradius(SideLengths(near_max, near_max, near_max), 1.0)


def test_euclidean_closed_form_known_values():
    assert euclidean_circumradius(SideLengths(3.0, 4.0, 5.0)).radius == pytest.approx(2.5, abs=1e-15)
    r = euclidean_circumradius(SideLengths(1.0, 1.0, 1.0)).radius
    assert r == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_right_triangle_takes_half_hypotenuse_exactly():
    s = math.sqrt(2.0)
    assert euclidean_circumradius(SideLengths(s, s, 2.0)).radius == 1.0
    assert euclidean_circumradius(SideLengths(3.0, 4.0, 5.0)).radius == 2.5
    # curved analogue: sn(b/2)^2 + sn(c/2)^2 = sn(a/2)^2 puts all three
    # vertices on the circle around the midpoint of the longest side
    for kappa in (k for k in KAPPAS if k):
        root = math.sqrt(abs(kappa))
        sn, arcsn = (math.sin, math.asin) if kappa > 0 else (math.sinh, math.asinh)
        b, c = 0.9, 0.7
        a = 2.0 / root * arcsn(math.hypot(sn(b * root / 2), sn(c * root / 2)))
        assert model_circumradius(SideLengths(a, b, c), kappa) == 0.5 * a
        # the midpoint of v0 and v1, the longest side, normalised onto the chart
        verts = comparison_triangle(SideLengths(a, b, c), kappa).vertices
        u = np.add(verts[0].coords, verts[1].coords)
        norm = math.sqrt(abs(u[0] ** 2 + u[1] ** 2 + math.copysign(u[2] ** 2, kappa)))
        mid = ModelPoint(tuple(u / (root * norm)))
        for v in verts:
            assert abs(per_chart_model_distance(mid, v, kappa) - 0.5 * a) <= 1e-12


def test_degenerate_triangles_take_half_longest_side():
    assert euclidean_circumradius(SideLengths(2.0, 1.0, 1.0)).radius == 1.0
    assert euclidean_circumradius(SideLengths(2.0, 2.0, 0.0)).radius == 1.0
    assert euclidean_circumradius(SideLengths(0.0, 0.0, 0.0)).radius == 0.0
    # exactly collinear sides a = b + c, inside the kappa > 0 perimeter cap
    for kappa in (k for k in KAPPAS if k):
        for a, b, c in ((2.0, 1.0, 1.0), (2.0, 1.25, 0.75), (1.5, 1.5, 0.0), (0.0, 0.0, 0.0)):
            assert model_circumradius(SideLengths(a, b, c), kappa) == 0.5 * a


def test_euclidean_batch_matches_law_of_sines():
    rng = np.random.default_rng(11)
    sides = np.sort(
        np.array([random_sides(rng, 4.0).as_tuple() for _ in range(2000)]), axis=1
    )[:, ::-1]
    got = model_circumradius_batch(sides[:, 0], sides[:, 1], sides[:, 2], 0.0)
    want = [law_of_sines_circumradius(*row) for row in sides]
    assert np.allclose(got, want, atol=1e-12)


def heron_circumradius_batch(a, b, c):
    """The plane's former kernel: Heron's area with a thin-triangle rule."""
    a2 = a * a
    heron = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    area = 0.25 * np.sqrt(np.maximum(heron, 0.0))
    use_half = ((b * b + c * c - a2) <= 1e-12 * a2) | (area < 1e-14 * a2)
    return np.where(use_half, 0.5 * a, a * b * c / np.where(use_half, 1.0, 4.0 * area))


def test_flat_row_is_bitwise_the_heron_formula():
    rng = np.random.default_rng(43)
    n = 20_000
    scalene = np.array([random_sides(rng, 4.0).as_tuple() for _ in range(n)])
    ties = rng.integers(0, 7, size=(n, 3)).astype(float)
    b, c = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 5.0, n)
    ulps = rng.integers(-4, 5, n) * 2.0**-52
    right = np.stack([np.hypot(b, c) * (1.0 + ulps), b, c], axis=1)
    pythagorean = np.array([[5.0, 4.0, 3.0], [13.0, 12.0, 5.0], [25.0, 24.0, 7.0], [2.0, math.sqrt(2), math.sqrt(2)]])
    collinear = np.stack([b + c, b, c], axis=1)
    below = collinear.copy()
    below[:, 0] = np.nextafter(below[:, 0], 0.0)
    apex = rng.uniform(0.1, 5.0, n)
    base = apex * 10.0 ** rng.uniform(-16.0, 0.0, n)
    isosceles = np.stack([apex, apex, base], axis=1)
    zero = np.zeros((4, 3))
    sides = -np.sort(-np.concatenate([scalene, ties, right, pythagorean, collinear, below, isosceles, zero]), axis=1)
    a, b, c = sides.T
    assert np.array_equal(model_circumradius_batch(a, b, c, 0.0), heron_circumradius_batch(a, b, c))


@pytest.mark.parametrize("kappa", (-2.0, -1.0, 0.5, 1.0))
def test_model_circumradius_matches_chart_oracle(kappa):
    rng = np.random.default_rng(23)
    scale = 0.9 if kappa > 0 else 2.0
    for _ in range(60):
        sides = random_sides(rng, scale)
        tri = comparison_triangle(sides, kappa)
        verts = [v.coords for v in tri.vertices]
        want = minmax_grid_model(verts, kappa)
        got = model_circumradius(sides, kappa)
        assert got == pytest.approx(want, abs=2e-8)


def test_model_radius_monotone_in_kappa():
    rng = np.random.default_rng(31)
    for _ in range(300):
        sides = random_sides(rng, 0.9)
        radii = [model_circumradius(sides, k) for k in KAPPAS]
        assert all(lo <= hi + 1e-10 for lo, hi in zip(radii, radii[1:]))


def test_scalar_matches_batch():
    rng = np.random.default_rng(37)
    for kappa in KAPPAS:
        sides = random_sides(rng, 0.8)
        a, b, c = sides.as_tuple()
        batch = float(
            model_circumradius_batch(np.array([a]), np.array([b]), np.array([c]), kappa)[0]
        )
        assert model_circumradius(sides, kappa) == batch


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(KAPPAS),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_scaling_law(a, u, v, kappa, lam):
    """r(lam * sides; kappa / lam^2) = lam * r(sides; kappa)."""
    b = a * (0.5 + u / 2)
    c = max(a - b, 0.0) + v * (b - max(a - b, 0.0)) + 1e-6
    try:
        sides = SideLengths(a, b, c)
        base = model_circumradius(sides, kappa)
        scaled = model_circumradius(
            SideLengths(a * lam, b * lam, c * lam), kappa / lam**2
        )
    except (ValueError, TooLargeForModelError):
        return
    assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


def test_model_radius_at_least_half_longest_side():
    rng = np.random.default_rng(41)
    for kappa in KAPPAS:
        for _ in range(200):
            sides = random_sides(rng, 0.8)
            r = model_circumradius(sides, kappa)
            assert r >= sides.a / 2.0 * (1.0 - BRACKET_MARGIN)


def _bracket_limit(kappa):
    """The longest side up to which the scan's model-radius bracket is closed."""
    if kappa < 0:
        return 8.0 / math.sqrt(-kappa)
    if kappa > 0:
        return (1.0 - 2.0**-20) * 2.0 * math.pi / (3.0 * math.sqrt(kappa))
    return math.inf


@pytest.mark.parametrize("kappa", (0.0, 1.0, -1.0, 4.0, -4.0))
def test_model_radius_lies_in_the_scan_bracket(kappa):
    # Jung's theorem in M_kappa: long / 2 <= r_model <= rho_kappa(long), for the kernel's
    # radius once the bracket is widened; longest sides run up to the bracket's limit
    rng = np.random.default_rng(43)
    limit = min(_bracket_limit(kappa), 10.0)
    a = np.concatenate([rng.uniform(0.0, limit, 20000), limit * (1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 2000))])
    b = a * rng.uniform(0.5, 1.0, a.size)
    c = b - (b - (a - b)) * rng.uniform(0.0, 1.0, a.size)  # a - b <= c <= b
    # near-equilateral triangles hold the upper end tightest
    a, b, c = np.concatenate([a, a]), np.concatenate([b, a * (1.0 - 1e-9)]), np.concatenate([c, a * (1.0 - 2e-9)])
    r = model_circumradius_batch(a, b, c, kappa)
    assert (model_radius_bracket(a, kappa, "lower") <= r).all()
    assert (r <= model_radius_bracket(a, kappa, "upper")).all()
    if kappa:
        # from the limit on the bracket is open
        past = np.array([_bracket_limit(kappa), 1.5 * _bracket_limit(kappa) if kappa < 0 else _bracket_limit(kappa)])
        assert (model_radius_bracket(past, kappa, "lower") == -math.inf).all()
        assert (model_radius_bracket(past, kappa, "upper") == math.inf).all()


def test_the_scan_bracket_needs_its_margin_at_both_ends():
    # near-right plane triangles, b^2 + c^2 = a^2 (1 + 1e-11), come out up to 3 ulps
    # below a / 2, and equilateral ones up to 3 ulps above a / sqrt(3) (10 at kappa = 1,
    # about 1200 at kappa = -1)
    rng = np.random.default_rng(45)
    a = rng.uniform(0.5, 2.0, 200_000)
    phi = rng.uniform(0.0, math.pi / 4.0, a.size)
    b, c = a * math.sqrt(1.0 + 1e-11) * np.cos(phi), a * math.sqrt(1.0 + 1e-11) * np.sin(phi)
    r = model_circumradius_batch(a, b, c, 0.0)
    assert np.count_nonzero(r < 0.5 * a) > 10_000
    assert (r >= model_radius_bracket(a, 0.0, "lower")).all()
    for kappa in (0.0, 1.0, -1.0):
        side = rng.uniform(0.0, min(_bracket_limit(kappa), 10.0), 100_000)
        r = model_circumradius_batch(side, side, side, kappa)
        assert np.count_nonzero(r > model_equilateral_radius(side, kappa)) > 1000
        assert (r <= model_radius_bracket(side, kappa, "upper")).all()


@pytest.mark.parametrize("kappa", (0.0, 1.0, -1.0, 4.0, -4.0))
def test_equilateral_radius_matches_mpmath(kappa):
    # sin(sqrt(k) rho) = 2 sin(sqrt(k) a / 2) / sqrt(3), sinh on the hyperboloid; arcsin
    # loses digits where 3a nears the great circle, 1.3e-13 at the bracket's limit
    rng = np.random.default_rng(47)
    limit = min(_bracket_limit(kappa), 10.0)
    sides = np.concatenate([rng.uniform(0.0, limit, 200), limit * (1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 50))])
    got = model_equilateral_radius(sides, kappa)
    with mpmath.workdps(40):
        root = mpmath.sqrt(abs(mpmath.mpf(kappa)))
        sn, arc = (mpmath.sin, mpmath.asin) if kappa > 0 else (mpmath.sinh, mpmath.asinh)
        for side, rho in zip(sides.tolist(), got.tolist()):
            a = mpmath.mpf(side)
            want = a / mpmath.sqrt(3) if kappa == 0 else arc(2 * sn(root * a / 2) / mpmath.sqrt(3)) / root
            assert abs(rho - want) <= 2e-13 * want


@pytest.mark.parametrize("kappa", (1e-160, -1e-160, 1e-200, -1e-200, 5e-324, -5e-324))
def test_tiny_curvature_takes_the_plane_row(kappa):
    # the curved rows were off by a relative 6.5e-4 at +-1e-160, divided by zero at
    # +-1e-200 and returned the half-side 0.5 at +-5e-324
    one = np.ones(1)
    assert model_circumradius_batch(one, one, one, kappa)[0] == 1.0 / math.sqrt(3.0)
    rng = np.random.default_rng(47)
    sides = -np.sort(-np.array([random_sides(rng, 1.0).as_tuple() for _ in range(200)]), axis=1)
    flat = model_circumradius_batch(*sides.T, 0.0)
    assert np.array_equal(model_circumradius_batch(*sides.T, kappa), flat)


@pytest.mark.parametrize("side", (100.0, 400.0, 800.0))
def test_kernel_overflow_raises_on_both_paths(side):
    # the unchecked kernel returned R = inf, 0 and nan for these sides
    with pytest.raises(ValueError, match="kappa=-1.0"):
        model_circumradius_batch(np.array([side]), np.array([side]), np.array([side]), -1.0)
    with pytest.raises(ValueError, match="kappa=-1.0"):
        model_circumradius(SideLengths(side, side, side), -1.0)


def _kernel_triangles(rng, kappa, n):
    """Side triples, sorted a >= b >= c, that the kernel takes at `kappa`: n random plane
    triangles at scales up to a fifth of the great circle; near-right ones, with
    sn(b/2)^2 + sn(c/2)^2 within 1e-12 sn(a/2)^2 of sn(a/2)^2 on either side (the plane's
    b^2 + c^2 against a^2 once sqrt|kappa| a is below 2^-200); degenerate ones (a = b + c,
    c = 0, all zero) and equilateral ones."""
    top = min(3.0, 0.2 * 2.0 * math.pi / math.sqrt(kappa)) if kappa > 0 else 3.0
    pts = rng.uniform(0.0, 1.0, size=(n, 3, 2)) * (top * 10.0 ** rng.uniform(-3.0, 0.0, (n, 1, 1)))
    scalene = np.linalg.norm(pts[:, [0, 0, 1]] - pts[:, [1, 2, 2]], axis=2)
    b, c = rng.uniform(0.0, top / 2.0, 1000), rng.uniform(0.0, top / 2.0, 1000)
    stretch = np.sqrt(1.0 + rng.uniform(-2e-12, 2e-12, b.size))
    root = math.sqrt(abs(kappa))
    if root * top < 2.0**-200 or not kappa:
        a = np.hypot(b, c) * stretch
    else:
        sn, arcsn = (np.sin, np.arcsin) if kappa > 0 else (np.sinh, np.arcsinh)
        a = 2.0 / root * arcsn(np.hypot(sn(0.5 * root * b), sn(0.5 * root * c)) * stretch)
    near_right = np.stack([a, b, c], axis=1)
    degenerate = np.concatenate([np.stack([b + c, b, c], axis=1), np.stack([b, b, 0 * b], axis=1), np.zeros((1, 3))])
    side = rng.uniform(0.0, top / 2.0, 1000)
    equilateral = np.stack([side, side, side], axis=1)
    sides = -np.sort(-np.concatenate([scalene, near_right, degenerate, equilateral]), axis=1)
    return sides.T.copy()


@pytest.mark.parametrize("kappa", (0.0, 1.0, -1.0, 4.0, -4.0, 1e-3, -1e-200))
def test_kernel_is_bitwise_the_single_pass_formula(kappa, monkeypatch):
    # the kernel decides the half-side branch from three sn values first and runs Heron's
    # root, the ratio and the arc on the triangles off it; every radius is the one-pass
    # formula's, and the root's four sn calls see only the off-branch triangles
    a, b, c = _kernel_triangles(np.random.default_rng(61), kappa, 100_000)
    want, half = single_pass_circumradius_batch(a, b, c, kappa)
    assert 0 < np.count_nonzero(half) < a.size
    sizes = []

    def recorded(fn):
        def wrapped(v):
            sizes.append(np.size(v))
            return fn(v)

        return wrapped

    for row, (sn_half, arc) in modelplane._KERNEL.items():
        monkeypatch.setitem(modelplane._KERNEL, row, (recorded(sn_half), arc))
    got = model_circumradius_batch(a, b, c, kappa)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    off = a.size - np.count_nonzero(half)
    assert sizes == [a.size] * 3 + [off] * 4


def test_half_side_triangles_leave_the_float64_range_only_with_their_branch():
    # sinh(x + (y + z) / 2) overflows at a scaled perimeter near 1420, and the four sinh's
    # product near 710: the one-pass formula raised on both, the branch-first kernel only off the branch
    big = [np.array([v]) for v in (400.0, 250.0, 200.0)]
    with pytest.raises(FloatingPointError):
        single_pass_circumradius_batch(*big, -1.0)
    assert model_circumradius_batch(*big, -1.0)[0] == 200.0
    assert model_circumradius(SideLengths(400.0, 250.0, 200.0), -1.0) == 200.0
    # in the plane Heron's product overflowed past sides of about 1e77; a half-side triangle
    # now raises only once a^2 does, and an acute one still on Heron's product
    for a, b, c in ((1e100, 6e99, 5e99), (1e150, 1e150, 0.0)):
        assert model_circumradius_batch(np.array([a]), np.array([b]), np.array([c]), 0.0)[0] == 0.5 * a
    for side in ((1e155, 6e154, 5e154), (1e100, 1e100, 1e100)):
        with pytest.raises(ValueError, match="kappa=0.0"):
            model_circumradius_batch(*(np.array([v]) for v in side), 0.0)
