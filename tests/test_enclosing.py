import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgeo import (
    Simplex,
    barycenter,
    barycentric_circumradius,
    blumenthal_wahlin_check,
    combined_enclosure,
    edge_profile,
    enclosing,
    exact_meb,
    exact_meb_support,
    fermat_sum_regular,
    jung_bound,
    regular_simplex,
    set_barycentric_circumradius,
    set_diameter,
    validate_simplex,
)
from simplexgeo.corpus import random_simplex
from simplexgeo.enclosing import WALK_MAX_STEPS, check_enclosure_bound, simplex_meb_support
from simplexgeo.errors import (
    CapExceeded,
    Degenerate,
    DimensionMismatch,
    EmptyInput,
    InvalidDimension,
    InvalidPoint,
    NotRegular,
    TooFewPoints,
    Underflow,
)

import exact
from conftest import (
    RESCAN_CLOUDS,
    all_pairs_diameter,
    brute_force_meb,
    random_rigid_motion,
    translate_far,
)


def derived_obtuse_triangle():
    """Barycenter of the unit equilateral triangle joined with two vertices."""
    t = regular_simplex(2, 2, 1.0)
    return validate_simplex([barycenter(t), t.vertices[1], t.vertices[2]])


class TestBarycentricCircumradius:
    def test_regular_triangle(self):
        radius, argmax = barycentric_circumradius(regular_simplex(2, 2, 1.0))
        assert radius == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        assert argmax in (0, 1, 2)

    def test_argmax_tie_break(self):
        # Corner triangle: radicands are exactly 8, 20, 20, so vertices 1
        # and 2 tie bit for bit and the smaller index must win.
        _, argmax = barycentric_circumradius(validate_simplex([(0, 0), (2, 0), (0, 2)]))
        assert argmax == 1

    def test_derived_triangle(self):
        # Edges 1/sqrt(3), 1/sqrt(3), 1 give radicands 1/3, 7/3, 7/3, so the
        # radius is sqrt(7/27), strictly below the regular triangle's 1/sqrt(3).
        radius, argmax = barycentric_circumradius(derived_obtuse_triangle())
        assert radius == pytest.approx(math.sqrt(7 / 27), abs=1e-13)
        assert argmax == 1
        assert radius < 1 / math.sqrt(3)

    def test_segment(self):
        radius, argmax = barycentric_circumradius(validate_simplex([[0.0], [2.0]]))
        assert radius == pytest.approx(1.0, abs=0)
        assert argmax == 0

    def test_farthest_vertex_and_enclosure(self):
        rng = np.random.default_rng(555)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            s = random_simplex(rng, m, int(rng.integers(m, 11)))
            radius, argmax = barycentric_circumradius(s)
            center = barycenter(s)
            gaps = np.linalg.norm(s.vertices - center, axis=1)
            assert radius == pytest.approx(float(gaps.max()), rel=1e-12)
            assert gaps[argmax] == pytest.approx(float(gaps.max()), rel=1e-12)
            # The ball at the barycenter really covers every vertex.
            assert np.all(gaps <= radius * (1 + 1e-12))


class TestJungBound:
    def test_plane(self):
        assert jung_bound(1.0, 2) == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_line(self):
        assert jung_bound(1.0, 1) == pytest.approx(0.5, abs=0)

    def test_regular_is_extremal(self):
        # A regular m-simplex attains Jung's bound in its hull dimension.
        for m in range(1, 9):
            s = regular_simplex(m, m, 2.0)
            radius, _ = barycentric_circumradius(s)
            assert radius == pytest.approx(jung_bound(2.0, m), rel=1e-13)

    def test_guards(self):
        with pytest.raises(InvalidDimension):
            jung_bound(1.0, 0)
        with pytest.raises(ValueError):
            jung_bound(-1.0, 2)


class TestExactMeb:
    def test_single_point(self):
        center, radius = exact_meb([[3.0, 4.0]])
        assert radius == 0.0
        assert center == pytest.approx([3.0, 4.0])

    def test_two_points(self):
        center, radius = exact_meb([[0.0], [2.0]])
        assert center == pytest.approx([1.0])
        assert radius == pytest.approx(1.0, abs=1e-15)

    def test_obtuse_triangle_inside_edge_ball(self):
        # The obtuse triangle's smallest ball sits on its longest edge.
        pts = [(0.0, 0.0), (4.0, 0.0), (1.0, 0.5)]
        center, radius = exact_meb(pts)
        assert center == pytest.approx([2.0, 0.0], abs=1e-12)
        assert radius == pytest.approx(2.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, 9))
            pts = rng.uniform(-10, 10, size=(count, n))
            _, radius = exact_meb(pts)
            assert radius == pytest.approx(brute_force_meb(pts), rel=1e-9, abs=1e-12)

    def test_few_points_in_high_ambient_dimension(self):
        # Three points span a plane, so the dimension cap does not apply.
        pts = np.random.default_rng(1111).uniform(-3, 3, size=(3, 11))
        _, radius = exact_meb(pts)
        assert radius == pytest.approx(brute_force_meb(pts), rel=1e-9)

    def test_containment_and_support_certificate(self):
        rng = np.random.default_rng(888)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            pts = rng.uniform(-5, 5, size=(int(rng.integers(n + 1, 60)), n))
            center, radius, support = exact_meb_support(pts)
            gaps = np.linalg.norm(pts - center, axis=1)
            assert float(gaps.max()) <= radius * (1 + 1e-9)
            assert 1 <= len(support) <= n + 1
            # Support points sit on the boundary.
            for idx in support:
                assert gaps[idx] == pytest.approx(radius, rel=1e-9)
            # The center is a convex combination of the support points.
            sup = pts[list(support)]
            system = np.vstack([sup.T, np.ones(len(support))])
            target = np.append(center, 1.0)
            coeffs, *_ = np.linalg.lstsq(system, target, rcond=None)
            assert float(np.linalg.norm(system @ coeffs - target)) <= 1e-9 * (1 + radius)
            assert coeffs.min() >= -1e-9

    def test_removing_non_support_point_keeps_ball(self):
        rng = np.random.default_rng(999)
        pts = rng.uniform(-5, 5, size=(40, 3))
        center, radius, support = exact_meb_support(pts)
        non_support = [i for i in range(40) if i not in support]
        keep = [i for i in range(40) if i != non_support[0]]
        center2, radius2 = exact_meb(pts[keep])
        assert radius2 == pytest.approx(radius, rel=1e-12)
        assert center2 == pytest.approx(center, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_independent_of_memory_layout(self, n):
        # C-ordered, Fortran-ordered and strided copies of one cloud give the
        # same bits.  The radius sums along C-ordered rows: summed along a
        # Fortran-ordered row, it differs on 4 of these 10 clouds in R^10.
        for seed in range(10):
            rng = np.random.default_rng([n, seed])
            big = 3.0 * rng.normal(size=(400, n)) + rng.uniform(-5.0, 5.0, size=n)
            pts = np.ascontiguousarray(big[::2])
            center, radius, support = exact_meb_support(pts)
            for layout in (np.asfortranarray(pts), big[::2]):
                other_center, other_radius, other_support = exact_meb_support(layout)
                assert other_center.tobytes() == center.tobytes()
                assert other_radius == radius
                assert other_support == support

    def test_duplicates(self):
        center, radius = exact_meb([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert radius == pytest.approx(1.0, abs=1e-14)

    def test_caps_and_empty(self):
        with pytest.raises(EmptyInput):
            exact_meb([])
        with pytest.raises(CapExceeded):
            exact_meb(np.zeros((12, 11)))
        with pytest.raises(CapExceeded):
            exact_meb(np.random.default_rng(0).uniform(size=(10001, 2)))

    # Rows pass validate_simplex's gate: mixed lengths are a DimensionMismatch,
    # and a row that is not a finite 1-D coordinate list an InvalidPoint.
    @pytest.mark.parametrize(
        "points, error",
        [
            ([[0.0, 0.0], [1.0]], DimensionMismatch),
            ([[0.0, 0.0], [1.0, 2.0, 3.0]], DimensionMismatch),
            ([[0.0, 0.0], [float("nan"), 1.0]], InvalidPoint),
            ([[0.0, float("inf")]], InvalidPoint),
            ([1.0, 2.0, 3.0], InvalidPoint),
            (np.array([1.0, 2.0]), InvalidPoint),
            ([[[0.0, 0.0]]], InvalidPoint),
        ],
        ids=["ragged", "ragged-long", "nan", "inf", "flat-list", "flat-array", "3d"],
    )
    def test_malformed_points(self, points, error):
        with pytest.raises(error):
            exact_meb(points)

    def test_empty_array(self):
        with pytest.raises(EmptyInput):
            exact_meb(np.zeros((0, 2)))

    def test_squared_distances_out_of_float_range(self):
        # Squared distances of 1e200 overflow; those of 3e-170 underflow to 0,
        # where the walk would report radius inf and 0.0 respectively.
        with pytest.raises(OverflowError):
            exact_meb([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
        tiny = [[0.0, 0.0], [3e-170, 0.0], [0.0, 4e-170]]
        with pytest.raises(ArithmeticError):
            exact_meb(tiny)
        with pytest.raises(ArithmeticError):
            blumenthal_wahlin_check(tiny, 2)


def _welzl_support_ball(pts):
    """Smallest ball with every given point on its boundary."""
    if pts.shape[0] == 1:
        return pts[0].copy(), 0.0
    rel = pts[1:] - pts[0]
    gram = rel @ rel.T
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = pts[0] + coef @ rel
    return center, float(np.linalg.norm(center - pts[0]))


def _welzl(pts, order, end, support):
    """Minimum ball of pts[order[:end]] with ``support`` pinned to the boundary."""
    n = pts.shape[1]
    if support:
        center, radius = _welzl_support_ball(pts[list(support)])
    else:
        center, radius = None, -1.0
    best_support = support
    if len(support) == n + 1:
        return center, radius, best_support
    i = 0
    while i < end:
        idx = order[i]
        outside = center is None
        if not outside:
            gap = pts[idx] - center
            outside = gap @ gap > radius * radius * (1.0 + 1e-12)
        if outside:
            center, radius, best_support = _welzl(pts, order, i, support + (idx,))
            # Move-to-front keeps frequently-binding points early.
            order.pop(i)
            order.insert(0, idx)
        i += 1
    return center, radius, best_support


def welzl_meb(points):
    """Welzl's (1991) randomized move-to-front search, the walk's reference.

    This was the library's exact-ball solver before the active-set walk.
    """
    pts = np.asarray(points, dtype=float)
    order = list(np.random.default_rng(0).permutation(pts.shape[0]))
    center, radius, support = _welzl(pts, order, pts.shape[0], ())
    radius = max(radius, float(np.sqrt(((pts - center) ** 2).sum(axis=1).max())))
    return center, radius, support


def _reference_support_ball(pts):
    """Circumcenter of affinely independent points within their affine hull,
    its barycentric coefficients and an orthonormal basis of the hull's
    directions, from a fresh QR and two solves."""
    rel = pts[1:] - pts[0]
    basis, tri = np.linalg.qr(rel.T)
    half = np.linalg.solve(tri.T, 0.5 * np.einsum("ij,ij->i", rel, rel))
    coef = np.linalg.solve(tri, half)
    return pts[0] + basis @ half, np.concatenate(([1.0 - coef.sum()], coef)), basis


def reference_walk(pts):
    """The active-set walk with every step's circumcenter from a Householder
    QR and two triangular solves, a route independent of the walk's SVD in
    ``enclosing._support_ball``; the tolerances and tie rules are the same.
    Returns the center, the support and the number of steps.
    """
    center = pts.mean(axis=0)
    support = [int(np.argmax(np.einsum("ij,ij->i", pts - center, pts - center)))]
    for steps in range(1, WALK_MAX_STEPS + 1):
        target, coef, basis = _reference_support_ball(pts[support])
        rel = pts - center
        dist2 = np.einsum("ij,ij->i", rel, rel)
        r2 = float(dist2.max())
        step = target - center
        step -= basis @ (basis.T @ step)
        step2 = float(step @ step)
        if step2 > enclosing._IN_BALL_RTOL**2 * r2:
            den = step2 - rel @ step
            admit = den > enclosing._AFFINE_RTOL * math.sqrt(step2) * math.sqrt(r2)
            t = np.divide(r2 - dist2, 2.0 * den, out=np.full(len(pts), np.inf), where=admit)
            stop = int(np.argmin(t))
            if t[stop] < 1.0:
                center = center + t[stop] * step
                support.append(stop)
                continue
        center = target
        if coef.min() >= -enclosing._IN_BALL_RTOL:
            return center, support, steps
        support.pop(int(np.argmin(coef)))
    raise AssertionError("reference walk did not converge")


def assert_certified(pts, center, support):
    """The walk's stopping condition, checked without the solver's helpers.

    Every support point lies on the sphere, the center is a convex
    combination of them, and no point lies beyond the sphere.
    """
    sup = pts[list(support)]
    on_sphere = np.linalg.norm(sup - center, axis=1)
    radius = float(on_sphere.max())
    assert on_sphere.min() >= radius * (1 - 1e-12)
    # Coefficients of the center on the support, in units of the radius.
    system = np.vstack([(sup - center).T / max(radius, 1e-300), np.ones(len(support))])
    target = np.append(np.zeros(len(center)), 1.0)
    coeffs, *_ = np.linalg.lstsq(system, target, rcond=None)
    assert np.linalg.norm(system @ coeffs - target) <= 1e-12
    assert coeffs.min() >= -1e-12
    assert np.linalg.norm(pts - center, axis=1).max() <= radius * (1 + 1e-12)


def unit_rows(rng, count, n):
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def shell_cloud(rng, count, n, inner=0.9):
    return unit_rows(rng, count, n) * rng.uniform(inner, 1.0, size=(count, 1))


def circle_points(count):
    angles = 2.0 * math.pi * np.arange(count) / count
    return 3.0 * np.column_stack([np.cos(angles), np.sin(angles)]) + 1.5


def cube_vertices(n):
    return np.array(list(itertools.product([0.0, 1.0], repeat=n)))


def lattice_sphere(n, squared_radius):
    """Integer points at one distance from the origin: many exact ties."""
    span = range(-math.isqrt(squared_radius), math.isqrt(squared_radius) + 1)
    rows = itertools.product(span, repeat=n)
    return np.array([v for v in rows if sum(x * x for x in v) == squared_radius], dtype=float)


GENERIC_SETS = {
    "gauss-2": lambda rng: rng.normal(size=(500, 2)),
    "gauss-5": lambda rng: rng.normal(size=(400, 5)),
    "gauss-10": lambda rng: rng.normal(size=(200, 10)),
    "shell-2": lambda rng: shell_cloud(rng, 500, 2),
    "shell-5": lambda rng: shell_cloud(rng, 200, 5),
    "shell-10": lambda rng: shell_cloud(rng, 80, 10),
    "gauss-3-at-1e150": lambda rng: 1e150 * rng.normal(size=(300, 3)),
}
GENERIC_SETS.update(
    {f"simplex-{m}": (lambda rng, m=m: random_simplex(rng, m, int(rng.integers(m, 11))).vertices)
     for m in range(1, 11)}
)

DEGENERATE_SETS = {
    "circle-2000": lambda: circle_points(2000),
    "duplicates": lambda: np.repeat(np.random.default_rng(6).normal(size=(40, 3)), 3, axis=0),
    "collinear": lambda: np.outer(np.random.default_rng(7).uniform(-4, 9, 300), [1.0, -2.0, 0.5]),
    "one-point": lambda: np.array([[0.5, -2.0, 7.0]]),
    "all-equal": lambda: np.full((50, 4), 1.25),
    "cube-3": lambda: cube_vertices(3),
    "cube-8": lambda: cube_vertices(8),
    "cube-8-center-first": lambda: np.vstack([np.full(8, 0.5), cube_vertices(8)]),
    "regular-simplex-10": lambda: regular_simplex(10, 10, 1.0).vertices,
    "regular-simplex-4-in-R10": lambda: regular_simplex(4, 10, 2.0).vertices,
    "regular-simplex-5-twice-with-center": lambda: np.vstack(
        [np.zeros(5), regular_simplex(5, 5, 1.0).vertices, regular_simplex(5, 5, 1.0).vertices]
    ),
    "lattice-sphere-6": lambda: np.vstack([np.zeros(6), lattice_sphere(6, 12)]),
    # The walk's steps must be kept orthogonal to the support's hull, or a
    # point of the hull joins the support here.
    "sphere-in-flat": lambda: np.hstack(
        [unit_rows(np.random.default_rng(8), 100, 7), np.zeros((100, 1))]
    ),
}


class TestWalkAgainstWelzl:
    """The active-set walk against Welzl's search."""

    @pytest.mark.parametrize("name", sorted(GENERIC_SETS))
    def test_generic_sets_match(self, name):
        rng = np.random.default_rng(sorted(GENERIC_SETS).index(name))
        for _ in range(3 if name.startswith("simplex") else 1):
            pts = GENERIC_SETS[name](rng)
            center, radius, support = exact_meb_support(pts)
            want_center, want_radius, want_support = welzl_meb(pts)
            assert abs(radius - want_radius) <= 1e-14 * want_radius
            assert np.linalg.norm(center - want_center) <= 1e-14 * want_radius
            assert list(support) == sorted(want_support)
            assert_certified(pts, center, support)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_SETS))
    def test_degenerate_sets_certified(self, name):
        # Ties among boundary points may pick a different, equally valid support.
        pts = DEGENERATE_SETS[name]()
        center, radius, support = exact_meb_support(pts)
        _, want_radius, _ = welzl_meb(pts)
        assert abs(radius - want_radius) <= 1e-14 * want_radius
        assert_certified(pts, center, support)

    def test_near_cospherical_sets_certified(self):
        # Points on a circle or sphere, some pulled in by 1e-13 to 1e-12 of
        # the radius, so the walk reaches circumcenters only to rounding.
        # Welzl's search counts points within 1e-12 of its sphere as inside,
        # so the radii agree to that.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            for n in (2, 3):
                for rel in (1e-12, 3e-13, 1e-13):
                    pts = unit_rows(rng, int(rng.integers(3, 12)), n)
                    pts = 3.0 * pts * (1 - rel * rng.integers(0, 2, size=(len(pts), 1))) + 1.5
                    center, radius, support = exact_meb_support(pts)
                    _, want_radius, _ = welzl_meb(pts)
                    assert abs(radius - want_radius) <= 1e-12 * want_radius
                    assert_certified(pts, center, support)

    def test_support_is_sorted_and_affinely_independent(self):
        pts = lattice_sphere(4, 50)
        _, _, support = exact_meb_support(pts)
        assert list(support) == sorted(set(support))
        rel = pts[list(support[1:])] - pts[support[0]]
        assert np.linalg.matrix_rank(rel) == len(support) - 1


def assert_same_walk(monkeypatch, pts):
    """The walk and ``reference_walk`` take the same steps to the same
    support on ``pts``, and their centers agree within 1e-14 * diam.

    The walk's step count is pinned through its cap: it converges within
    the reference's count of steps and not within one step fewer.
    """
    rel = pts - pts[0]
    want_center, want_support, want_steps = reference_walk(rel)
    monkeypatch.setattr(enclosing, "WALK_MAX_STEPS", want_steps)
    cols = np.ascontiguousarray(rel.T)  # the walk takes the points as columns
    center, support = enclosing._walk(cols)
    monkeypatch.setattr(enclosing, "WALK_MAX_STEPS", want_steps - 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        enclosing._walk(cols)
    assert sorted(support) == sorted(want_support)
    diam = set_diameter(rel, center, support)
    assert np.linalg.norm(center - want_center) <= 1e-14 * diam


class TestWalkAgainstReference:
    """The walk, whose circumcenters come from an SVD, against the one whose
    circumcenters come from a Householder QR."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_simplices(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            assert_same_walk(monkeypatch, random_simplex(rng, m, int(rng.integers(m, 11))).vertices)

    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("kind", ["gauss", "shell-0.9", "shell-0.999"])
    def test_clouds(self, monkeypatch, kind, n):
        rng = np.random.default_rng(n)
        for count in (2000, int(rng.integers(50, 500))):
            if kind == "gauss":
                pts = rng.normal(size=(count, n))
            else:
                pts = shell_cloud(rng, count, n, inner=float(kind.split("-")[1]))
            assert_same_walk(monkeypatch, 3.0 * pts + rng.uniform(-5.0, 5.0, size=n))


def near_hull_triangle():
    """A triangle whose third vertex lies 1.02 * _AFFINE_RTOL * r off the line
    through the other two, r its circumradius: the third vertex joins the support."""
    angle = 0.51 * enclosing._AFFINE_RTOL
    return np.array([[-1.0, 0.0], [1.0, angle], [1.0, -angle]])


STRESS_SETS = {
    **DEGENERATE_SETS,
    "lattice-sphere-4": lambda: lattice_sphere(4, 50),
    "near-hull-triangle": near_hull_triangle,
    "shell-0.999-10": lambda: shell_cloud(np.random.default_rng(10), 2000, 10, inner=0.999),
}


@pytest.mark.parametrize("name", sorted(STRESS_SETS))
def test_support_ball_health(monkeypatch, name):
    """At every call of ``_support_ball`` in the walk, V^T has orthonormal
    rows, the center solves the edge system E (c - p_0) = b and the
    coefficients reproduce the center, each to 64 * k * eps times the
    matching norms, k the support size, whatever the support's condition."""
    support_ball = enclosing._support_ball
    sizes = []
    eps = np.finfo(float).eps

    def checked(sup):
        center, coef, vt = support_ball(sup)
        k = len(sup)
        sizes.append(k)
        tol = 64 * k * eps
        assert np.abs(vt @ vt.T - np.eye(k - 1)).max(initial=0.0) <= tol
        edges, offset = sup[1:] - sup[0], center - sup[0]
        half = 0.5 * np.einsum("ij,ij->i", edges, edges)
        residual = np.linalg.norm(edges @ offset - half)
        assert residual <= tol * (np.linalg.norm(edges) * np.linalg.norm(offset) + np.linalg.norm(half))
        assert np.linalg.norm(coef @ sup - center) <= tol * np.linalg.norm(coef) * np.linalg.norm(sup)
        return center, coef, vt

    monkeypatch.setattr(enclosing, "_support_ball", checked)
    exact_meb_support(STRESS_SETS[name]())
    if name == "near-hull-triangle":
        assert 3 in sizes, "the third vertex joins the support"
    if name == "shell-0.999-10":
        assert any(b < a for a, b in zip(sizes, sizes[1:])), "the thin shell drops support points"


@pytest.mark.parametrize("name", sorted(STRESS_SETS) + sorted(RESCAN_CLOUDS))
def test_radius_is_the_largest_row_sum(name):
    """The final radius is the largest of every point's squared distance to
    the walk's center summed along its row, bit for bit, although only the
    points that the sums across the (n, N) copy choose are summed again."""
    pts = RESCAN_CLOUDS[name] if name in RESCAN_CLOUDS else np.asarray(STRESS_SETS[name](), dtype=float)
    cols = np.ascontiguousarray(pts.T)
    center, _ = enclosing._walk(cols - cols[:, :1])
    want = math.sqrt(((((pts - pts[0]) - center) ** 2).sum(axis=1)).max())
    assert enclosing.exact_meb_support(pts)[1] == want


class TestSetDiameter:
    """The ball-pruned diameter equals the all-pairs maximum exactly."""

    @pytest.mark.parametrize(
        "pts",
        [
            np.random.default_rng(1).normal(size=(1500, 2)),
            np.random.default_rng(2).normal(size=(800, 5)) * 1e-3 + 7.0,
            np.random.default_rng(3).normal(size=(400, 10)),
            shell_cloud(np.random.default_rng(4), 1500, 2),
            shell_cloud(np.random.default_rng(5), 600, 5),
            circle_points(2000),  # nothing is pruned: any point may end a longest pair
            unit_rows(np.random.default_rng(8), 1500, 10),  # nothing pruned, many blocks
            np.repeat(np.random.default_rng(6).normal(size=(40, 3)), 5, axis=0),
            np.full((50, 2), 1.25),
            np.outer(np.random.default_rng(7).uniform(-4, 9, size=300), [1.0, -2.0, 0.5]),
            np.array([[0.0, 1.0], [3.0, 5.0]]),
            # Two support points, so the diameter is 2R and the filter has no
            # slack, 10^9 diameters out, where the ball's center rounds far
            # beyond the filter's margin.
            translate_far(np.random.default_rng(0).normal(size=(200, 2)), 9),
            *RESCAN_CLOUDS.values(),
        ],
        ids=["gauss-2", "gauss-5-offset", "gauss-10", "shell-2", "shell-5",
             "circle-2000", "sphere-10", "duplicates", "one-point-repeated", "collinear", "two-points",
             "gauss-2-moved-1e9", *RESCAN_CLOUDS],
    )
    def test_matches_all_pairs(self, pts):
        center, _, support = exact_meb_support(pts)
        assert set_diameter(pts, center, support) == all_pairs_diameter(pts)

    def test_seeded_clouds(self):
        # Gaussian and shell clouds with a random offset and scale, as enclose
        # meets them; the pruning bound depends only on the support set.
        rng = np.random.default_rng(20261019)
        for n in (2, 5, 10):
            for shell in (False, True):
                pts = rng.standard_normal((int(rng.integers(200, 600)), n))
                if shell:
                    pts = shell_cloud(rng, pts.shape[0], n)
                scale = 10.0 ** rng.uniform(-1.0, 1.0)
                pts = rng.uniform(-5.0, 5.0, size=n) * scale + scale * pts
                center, _, support = exact_meb_support(pts)
                assert set_diameter(pts, center, support) == all_pairs_diameter(pts)

    def test_equal_points_about_a_center_off_them(self):
        # |a|^2 + |b|^2 - 2 a.b of a point with itself rounds below zero for
        # some centers; as the center only prunes, the diameter is still 0.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, count = int(rng.integers(1, 6)), int(rng.integers(1, 20))
            point = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            center = point + rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert set_diameter(np.tile(point, (count, 1)), center, [0]) == 0.0, seed

    def test_empty_support(self):
        pts = np.random.default_rng(10).normal(size=(300, 3))
        assert set_diameter(pts, np.zeros(3), []) == all_pairs_diameter(pts)

    @pytest.mark.parametrize(
        "pts",
        [circle_points(10000), np.repeat([[0.0, 0.0], [1.0, 0.0]], 5000, axis=0)],
        ids=["circle", "two-clusters"],
    )
    def test_gram_blocks_bound_the_working_memory(self, pts):
        # On a circle every point may end a longest pair, so none is pruned
        # and the scan meets K = N = 10^4: an unblocked K x K Gram matrix
        # would take 800 MB.  In two clusters of 5000 equal points every
        # point is kept too, and all 2.5e7 pairs between them tie at the
        # diameter: held together, they would take GB.
        center, _, support = exact_meb_support(pts)
        tracemalloc.start()
        try:
            set_diameter(pts, center, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def assert_exact_certificate(pts):
    """The returned support certifies the ball in exact arithmetic."""
    assert_support_certified(pts, exact_meb_support(pts)[2])


def assert_support_certified(pts, support):
    """The support's exact circumcenter within its affine hull has barycentric
    coefficients >= -_IN_BALL_RTOL, and no point lies farther from it than
    (1 + _IN_BALL_RTOL) times the exact circumradius.
    """
    center, coef, radius2 = exact.circumcenter(pts[list(support)])
    assert min(coef) >= -enclosing._IN_BALL_RTOL
    farthest2 = max(exact.squared_distances(pts, center))
    assert farthest2 <= (1 + Fraction(enclosing._IN_BALL_RTOL)) ** 2 * radius2


class TestExactCertificate:
    """The walk's ball checked in rational arithmetic, without floats."""

    @pytest.mark.parametrize("seed", range(56))
    def test_generic_sets(self, seed):
        # N points spanning an m-flat in R^n, from m = n = 3, N = 4 to
        # m = n = 10, N = 60.
        rng = np.random.default_rng(seed)
        m = 3 + seed % 8
        n = int(rng.integers(m, 11))
        q, shift = random_rigid_motion(rng, n)
        flat = rng.normal(size=(int(rng.integers(m + 1, 61)), m))
        assert_exact_certificate(np.hstack([flat, np.zeros((len(flat), n - m))]) @ q.T + shift)

    @pytest.mark.parametrize("name", sorted(STRESS_SETS))
    def test_degenerate_sets(self, name):
        # The support need not be unique here; the certificate holds for the
        # one returned.
        assert_exact_certificate(STRESS_SETS[name]())


def simplex_ball_cases():
    """(name, simplex) pairs for the descent: random simplices with m = 1..10,
    the same with the last coordinate squashed by 10^-2..10^-8 or every one
    scaled by 10^50 or 10^-50, and the obtuse triangle, the corner simplices
    (right angles at vertex 0; the triangle's circumcenter has a weight of
    exactly 0) and the regular simplices.  A squashed copy that fails the
    rank test is left out."""
    rng = np.random.default_rng(2026)
    rows = [("obtuse-triangle", derived_obtuse_triangle().vertices)]
    for m in range(1, 11):
        for k in range(12):
            v = random_simplex(rng, m, int(rng.integers(m, 11))).vertices
            thin = v.copy()
            thin[:, -1] *= 10.0 ** -(2 + k % 7)
            rows += [
                (f"random-m{m}-{k}", v),
                (f"thin-m{m}-{k}", thin),
                (f"scaled-m{m}-{k}", v * 10.0 ** (50 if k % 2 else -50)),
            ]
        rows += [
            (f"corner-m{m}", np.vstack([np.zeros(m), np.eye(m)])),
            (f"regular-m{m}", regular_simplex(m, m, 1.0).vertices),
        ]
    cases = []
    for name, v in rows:
        try:
            cases.append((name, validate_simplex(v)))
        except Degenerate:
            assert name.startswith("thin")
    return cases


SIMPLEX_BALL_CASES = simplex_ball_cases()


def assert_same_bits(got, want):
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


class TestSimplexBall:
    """The descent's ball of a simplex against the walk's."""

    @pytest.mark.parametrize("name, s", SIMPLEX_BALL_CASES, ids=[name for name, _ in SIMPLEX_BALL_CASES])
    def test_matches_walk(self, name, s):
        # The balls agree to 4 (m+1) eps diam; the most seen was 0.74.  The
        # supports agree unless a vertex of their union has a circumcenter
        # weight within _IN_BALL_RTOL of 0, a tie that either side may break.
        # Only a thin simplex may leave the support to the walk.
        center, radius, support = simplex_meb_support(s)
        if not name.startswith("thin"):
            assert enclosing._descend(s.sq_distances) == list(support)
        want_center, want_radius, want_support = exact_meb_support(s.vertices)
        tol = 4 * (s.m + 1) * np.finfo(float).eps * math.sqrt(s.sq_distances.max())
        assert np.abs(center - want_center).max() <= tol
        assert abs(radius - want_radius) <= tol
        if support != want_support:
            union = sorted(set(support) | set(want_support))
            _, coef, _ = exact.circumcenter(s.vertices[union].tolist())
            assert min(map(abs, coef)) <= enclosing._IN_BALL_RTOL, name
        assert_support_certified(s.vertices, support)

    def test_random_simplices_get_the_walks_bits(self):
        # Both balls factor the support in index order, so a simplex whose
        # support has no tie gets the same center, radius and support bit
        # for bit from either entry.
        rng = np.random.default_rng(33)
        for _ in range(1000):
            m = int(rng.integers(1, 11))
            s = random_simplex(rng, m, int(rng.integers(m, 13)))
            assert_same_bits(simplex_meb_support(s), exact_meb_support(s.vertices))

    def test_full_supports_keep_the_walks_bits_at_any_scale(self):
        # A support of every vertex reads the simplex's cached SVD of its
        # edges, which the walk forms afresh.  Scaled by 2^k, at the thinness
        # floor (the smallest k that validation accepts) and at k = -400 and
        # 400, both give the same ball; at k = +-400 it is 2^k times the
        # unscaled one.  (At the floor, squared lengths in the circumcenter's
        # right-hand side can be subnormal, so that ball is not exactly scaled.)
        tiny = np.finfo(float).tiny
        rng = np.random.default_rng(34)
        full = 0
        while full < 200:
            m = int(rng.integers(1, 11))
            s = random_simplex(rng, m, int(rng.integers(m, 13)))
            if len(enclosing._descend(s.sq_distances)) < m + 1:
                continue
            full += 1
            want = simplex_meb_support(s)
            sv = np.linalg.svd(s.offsets[1:], compute_uv=False)[-1]
            floor = math.ceil(math.log2(math.sqrt((m + 1) * tiny) / sv))
            for k in (floor, -400, 400):
                scaled = validate_simplex(np.ldexp(s.vertices, k))
                got = simplex_meb_support(scaled)
                assert_same_bits(got, exact_meb_support(scaled.vertices))
                if k != floor:
                    assert_same_bits(got, (np.ldexp(want[0], k), math.ldexp(want[1], k), want[2]))

    def test_ties_are_covered(self):
        # The right triangle's weight 0 gives the descent the whole triangle
        # and the walk the hypotenuse.
        s = dict(SIMPLEX_BALL_CASES)["corner-m2"]
        assert simplex_meb_support(s)[2] == (0, 1, 2)
        assert exact_meb_support(s.vertices)[2] == (1, 2)

    @pytest.mark.parametrize("failure", ["no support", "step cap", "singular solve"])
    def test_failed_descent_gives_the_walk(self, monkeypatch, failure):
        # Whatever makes the descent fail, the ball is the walk's, bit for bit.
        if failure == "no support":
            monkeypatch.setattr(enclosing, "_descend", lambda sq: None)
        elif failure == "step cap":
            monkeypatch.setattr(enclosing, "_DESCENT_STEPS_PER_VERTEX", 0)
        else:
            def singular(*args):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        for _, s in SIMPLEX_BALL_CASES:
            assert_same_bits(simplex_meb_support(s), exact_meb_support(s.vertices))

    @pytest.mark.parametrize("forced", ["first edge", "all vertices"])
    def test_failed_certificate_gives_the_walk(self, monkeypatch, forced):
        # A support that leaves a vertex outside its ball, or whose
        # circumcenter has a negative weight, fails the certificate.  Random
        # simplices have no ties, so any support but the walk's is wrong.
        def wrong(sq):
            return [0, 1] if forced == "first edge" else list(range(len(sq)))

        monkeypatch.setattr(enclosing, "_descend", wrong)
        checked = 0
        for name, s in SIMPLEX_BALL_CASES:
            want = exact_meb_support(s.vertices)
            if name.startswith("random") and want[2] != tuple(wrong(s.sq_distances)):
                assert_same_bits(simplex_meb_support(s), want)
                checked += 1
        assert checked >= 20

    def test_thin_simplices_fall_back(self):
        # The descent fails on some thin simplices, whose Cayley-Menger
        # system squares a condition number near 1e8; they get the walk's ball.
        fallen = [s for name, s in SIMPLEX_BALL_CASES if enclosing._descend(s.sq_distances) is None]
        assert fallen
        for s in fallen:
            assert_same_bits(simplex_meb_support(s), exact_meb_support(s.vertices))

    def test_cap_before_distances(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("formed the squared distances before the cap")

        monkeypatch.setattr("simplexgeo.core.squared_distance_matrix", unreachable)
        with pytest.raises(CapExceeded, match="dimension <= 10, got 11"):
            simplex_meb_support(regular_simplex(11, 11, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.integers(min_value=-200, max_value=200),
)
def test_radius_scale_and_rigid_motion_invariant(seed, exponent):
    # Scaling by a power of two is exact in binary floating point, so the
    # radius scales to within one rounding; a rigid motion rounds every
    # coordinate, so the radius moves by rounding of the coordinates.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    pts = rng.normal(size=(int(rng.integers(1, 150)), n))
    _, radius = exact_meb(pts)
    _, scaled = exact_meb(np.ldexp(pts, exponent))
    assert scaled == pytest.approx(np.ldexp(radius, exponent), rel=1e-15, abs=0)
    q, shift = random_rigid_motion(rng, n)
    moved = pts @ q.T + shift
    _, moved_radius = exact_meb(moved)
    assert abs(moved_radius - radius) <= 1e-13 * float(np.abs(moved).max())


class TestCombinedEnclosure:
    def test_derived_triangle(self):
        report = combined_enclosure(derived_obtuse_triangle())
        assert report.barycentric_circumradius == pytest.approx(
            math.sqrt(7 / 27), abs=1e-13
        )
        assert report.jung_bound == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        assert report.combined_bound == report.barycentric_circumradius
        assert report.meb_radius <= report.combined_bound + 1e-12

    def test_regular_triangle_all_equal(self):
        report = combined_enclosure(regular_simplex(2, 2, 1.0))
        want = 1 / math.sqrt(3)
        assert report.barycentric_circumradius == pytest.approx(want, abs=1e-12)
        assert report.jung_bound == pytest.approx(want, abs=1e-12)
        assert report.meb_radius == pytest.approx(want, abs=1e-12)

    def test_segment(self):
        report = combined_enclosure(validate_simplex([[0.0], [2.0]]))
        assert report.meb_radius == pytest.approx(1.0, abs=1e-14)
        assert report.meb_center == pytest.approx([1.0])
        assert report.jung_bound == pytest.approx(1.0, abs=1e-14)

    def test_bound_slack_scales_with_diameter(self):
        # The slack is 1e-12 * diam, also for sets much smaller than 1.
        check_enclosure_bound(1e-3 + 1e-17, 1e-3, 2e-3)
        with pytest.raises(ArithmeticError, match="exceeds enclosure bound"):
            check_enclosure_bound(1e-3 + 1e-14, 1e-3, 2e-3)

    def test_embedded_uses_hull_dimension(self):
        # A triangle in R^5 still gets the planar Jung constant.
        report = combined_enclosure(regular_simplex(2, 5, 1.0))
        assert report.jung_bound == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        assert report.meb_radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)


class TestSetBarycentricCircumradius:
    def test_simplex_case_reduces(self):
        s = validate_simplex([(0, 0), (2, 0), (0, 2)])
        direct, _ = barycentric_circumradius(s)
        assert set_barycentric_circumradius(s.vertices, 2) == pytest.approx(direct)

    def test_unit_square(self):
        # Each 3-subset is a right isosceles triangle with radicands
        # 2, 5, 5 over 9, so every triangle contributes sqrt(5)/3.
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        value = set_barycentric_circumradius(pts, 2)
        assert value == pytest.approx(math.sqrt(5) / 3, abs=1e-13)
        _, radius = exact_meb(pts)
        assert radius <= min(value, jung_bound(math.sqrt(2), 2)) + 1e-12

    def test_enclosure_contract_on_random_sets(self):
        rng = np.random.default_rng(123)
        for draw in range(50):
            n = int(rng.integers(1, 4))
            count = int(rng.integers(n + 1, 11))
            pts = rng.uniform(-10, 10, size=(count, n))
            if draw >= 25:  # thin: many subsets, or all, are affinely dependent
                pts[:, -1] *= 10.0 ** -rng.uniform(6, 14)
            value = set_barycentric_circumradius(pts, n)
            gaps = pts[:, None, :] - pts[None, :, :]
            diam = math.sqrt(float(np.einsum("ijk,ijk->ij", gaps, gaps).max()))
            _, radius = exact_meb(pts)
            assert radius <= min(value, jung_bound(diam, n)) + 1e-12 * diam

    def test_subsets_too_small_to_measure_are_skipped(self):
        # The triangle of the first three points has squared edges that
        # underflow; every other triangle counts, thin ones included.
        pts = [(0, 0), (1e-160, 0), (0, 1e-160), (1, 1), (2, 0)]
        value = set_barycentric_circumradius(pts, 2)
        want = max(
            barycentric_circumradius(Simplex(triple))[0]
            for triple in itertools.combinations(pts, 3)
            if triple != tuple(pts[:3])
        )
        assert value == want

    def test_every_subset_too_small_to_measure(self):
        # Each triangle's squared box diagonal underflows; the square's does not.
        a = 5.85e-155
        pts = [(-a, 0), (a, 0), (0, -a), (0, a)]
        with pytest.raises(Underflow):
            set_barycentric_circumradius(pts, 2)
        with pytest.raises(Underflow):
            blumenthal_wahlin_check(pts, 2)
        _, radius = exact_meb(pts)
        assert radius == pytest.approx(a, rel=1e-15)

    def test_overflow_is_not_skipped(self):
        with pytest.raises(OverflowError):
            set_barycentric_circumradius([(0, 0), (1, 0), (0, 1), (1e200, 1e200)], 2)

    @pytest.mark.parametrize(
        "subset_bound", [set_barycentric_circumradius, blumenthal_wahlin_check],
        ids=lambda f: f.__name__,
    )
    def test_guards(self, subset_bound):
        # Both subset bounds share one enumeration and its input checks.
        with pytest.raises(TooFewPoints):
            subset_bound([(0, 0), (1, 0)], 2)
        with pytest.raises(CapExceeded):
            subset_bound(np.random.default_rng(1).uniform(size=(16, 2)), 2)
        with pytest.raises(DimensionMismatch):
            subset_bound([(0, 0), (1, 0), (0, 1)], 3)

    def test_collinear_set(self):
        # Each triple is measured: the largest distance from a triple's
        # barycenter to its farthest vertex, from coordinates.
        pts = np.array([(0, 0), (1, 1), (2, 2), (3, 3)], dtype=float)
        want = max(
            np.linalg.norm(pts[list(triple)] - pts[list(triple)].mean(axis=0), axis=1).max()
            for triple in itertools.combinations(range(4), 3)
        )
        assert want == pytest.approx(5 * math.sqrt(2) / 3, rel=1e-15)
        assert set_barycentric_circumradius(pts, 2) == pytest.approx(want, rel=1e-14)

    def test_far_point_in_thin_subsets_only(self):
        # Every triple holding the far point is thin; the bound measures
        # them, so it is not below the exact radius.
        pts = [(0, 0), (1, 0), (0, 1), (1e12, 0)]
        value = set_barycentric_circumradius(pts, 2)
        _, radius = exact_meb(pts)
        assert value >= 5e11 >= radius

    def test_ball_cap_applies_to_exact_radii_only(self):
        # 12 points in R^11 form one subset: the barycentric circumradius
        # needs edge lengths alone, the exact ball exceeds MEB_MAX_DIM.
        pts = np.random.default_rng(11).uniform(-1, 1, size=(12, 11))
        want, _ = barycentric_circumradius(validate_simplex(pts))
        assert set_barycentric_circumradius(pts, 11) == want
        with pytest.raises(CapExceeded):
            blumenthal_wahlin_check(pts, 11)


class TestBlumenthalWahlin:
    def test_minimal_set_trivial(self):
        pts = [(0, 0), (2, 0), (0, 2)]
        sub, full = blumenthal_wahlin_check(pts, 2)
        assert sub == pytest.approx(full, rel=1e-15)

    def test_unit_square(self):
        sub, full = blumenthal_wahlin_check([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        assert full == pytest.approx(math.sqrt(2) / 2, abs=1e-13)
        assert sub == pytest.approx(full, rel=1e-12)

    def test_random_sets_agree(self):
        rng = np.random.default_rng(321)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            count = int(rng.integers(n + 1, 13))
            pts = rng.uniform(-10, 10, size=(count, n))
            sub, full = blumenthal_wahlin_check(pts, n)
            assert sub == pytest.approx(full, rel=1e-9)


class TestRegularClosedForms:
    def test_regular_circumradius_values(self):
        # Jung's bound in R^m is the regular m-simplex's circumradius.
        assert jung_bound(1.0, 2) == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        assert jung_bound(1.0, 3) == pytest.approx(math.sqrt(3 / 8), rel=1e-15)
        assert jung_bound(2.0, 1) == pytest.approx(1.0, abs=0)

    def test_fermat_sum(self):
        measured, closed = fermat_sum_regular(regular_simplex(2, 2, 1.0))
        assert closed == pytest.approx(math.sqrt(3), abs=1e-15)
        assert measured == pytest.approx(closed, rel=1e-12)
        measured, closed = fermat_sum_regular(regular_simplex(3, 3, 1.0))
        assert closed == pytest.approx(math.sqrt(6), abs=1e-15)
        assert measured == pytest.approx(closed, rel=1e-12)

    def test_fermat_rejects_irregular(self):
        with pytest.raises(NotRegular):
            fermat_sum_regular(validate_simplex([(0, 0), (2, 0), (0, 2)]))
