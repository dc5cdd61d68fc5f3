import decimal
import math
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgeo import (
    Simplex,
    barycenter,
    barycentric_inradius,
    barycentric_inradius_estimate,
    distance_point_to_face,
    edge_profile,
    eggleston_suite,
    exact_inradius_fulldim,
    exact_meb,
    gale_diameter_check,
    metrics_report,
    regular_simplex,
    regular_width,
    steinhagen_bound,
    sub_face,
    thickness,
    validate_simplex,
    volume,
)
from simplexgeo import apollonius, metrics
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidPoint,
    NotFullDimensional,
)
from simplexgeo.metrics import _hull_weights

import exact
from conftest import random_rigid_motion


def corner_triangle():
    return validate_simplex([(0, 0), (2, 0), (0, 2)])


class TestDistancePointToFace:
    def test_foot_inside_segment(self):
        face = validate_simplex([(1, 0), (1, 1)])
        assert distance_point_to_face((0, 0), face) == pytest.approx(1.0, abs=1e-15)

    def test_foot_at_vertex(self):
        face = validate_simplex([(1, 0), (1, 1)])
        assert distance_point_to_face((2, -1), face) == pytest.approx(
            math.sqrt(2), abs=1e-15
        )

    def test_point_above_midpoint(self):
        face = validate_simplex([(-1, 0), (1, 0)])
        assert distance_point_to_face((0, 1), face) == pytest.approx(1.0, abs=1e-15)

    def test_barycenter_to_edge_of_regular_triangle(self):
        s = regular_simplex(2, 2, 1.0)
        center = barycenter(s)
        for i in range(3):
            d = distance_point_to_face(center, sub_face(s, {i}))
            assert d == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-13)

    def test_interior_point_of_face(self):
        face = validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert distance_point_to_face((0.2, 0.2, 3.0), face) == pytest.approx(3.0)

    def test_never_exceeds_sampled_minimum(self):
        # Sampling convex combinations can only overestimate the distance.
        rng = np.random.default_rng(2025)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            face = random_simplex(rng, k, n, coord_range=5.0)
            p = rng.uniform(-6, 6, size=n)
            exact = distance_point_to_face(p, face)
            weights = rng.dirichlet(np.ones(k + 1), size=10000)
            sampled = float(
                np.linalg.norm(weights @ face.vertices - p, axis=1).min()
            )
            assert exact <= sampled + 1e-6

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            distance_point_to_face((0, 0, 0), validate_simplex([(0, 0), (1, 0)]))

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0)], ids=["nan", "inf"])
    def test_non_finite_point(self, point, capfd):
        # Rejected before the solver, so LAPACK never sees it and prints nothing.
        face = validate_simplex([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(InvalidPoint):
            distance_point_to_face(point, face)
        assert capfd.readouterr() == ("", "")

    def test_cycle_cap_raises(self, monkeypatch):
        # The cap of Wolfe's major cycles ends the search with an error, not
        # with a point that failed the optimality test.
        monkeypatch.setattr(metrics, "_WOLFE_MAX_CYCLES", 0)
        face = validate_simplex([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ArithmeticError, match="did not converge"):
            distance_point_to_face((2.0, 2.0), face)


class TestBarycentricInradius:
    def test_corner_triangle(self):
        value, argmin = barycentric_inradius(corner_triangle())
        # Hypotenuse x + y = 2 is closest to the barycenter (2/3, 2/3).
        assert value == pytest.approx(math.sqrt(2) / 3, abs=1e-14)
        assert argmin == 0

    def test_segment(self):
        value, argmin = barycentric_inradius(validate_simplex([[0.0], [4.0]]))
        assert value == pytest.approx(2.0, abs=0)
        assert argmin == 0

    def test_unvalidated_collinear_triangle_raises(self):
        # A simplex built without validation can be degenerate; its inradius
        # raises, with every warning an error, rather than dividing by a zero
        # singular value.  Its volume is 0.
        s = Simplex([[0, 0], [1, 0], [2, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                barycentric_inradius(s)
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                exact_inradius_fulldim(s)
            assert volume(s) == 0.0

    def test_regular_closed_form(self):
        for m in (1, 2, 3, 5, 7):
            s = regular_simplex(m, m, 1.0)
            value, _ = barycentric_inradius(s)
            assert value == pytest.approx(1 / math.sqrt(2 * m * (m + 1)), abs=1e-12)

    def test_estimate_dominates(self):
        rng = np.random.default_rng(606)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            s = random_simplex(rng, m, int(rng.integers(m, 10)))
            diam = edge_profile(s).diam
            exact, _ = barycentric_inradius(s)
            estimate, _ = barycentric_inradius_estimate(s)
            assert exact <= estimate + 1e-12 * diam

    def test_corner_triangle_estimate(self):
        # Distances to the face centroids: sqrt(2)/3, sqrt(5)/3, sqrt(5)/3.
        value, argmin = barycentric_inradius_estimate(corner_triangle())
        assert value == pytest.approx(math.sqrt(2) / 3, abs=1e-14)
        assert argmin == 0

    def test_estimate_routes_must_agree(self, monkeypatch):
        # Radicands off by a factor 4 at face 1 fail the coordinate cross-check.
        def skewed(sq, radicands=apollonius.radicands):
            floored, raw = radicands(sq)
            floored[1] *= 4.0
            return floored, raw

        monkeypatch.setattr(apollonius, "radicands", skewed)
        with pytest.raises(ArithmeticError, match="routes disagree at face 1"):
            barycentric_inradius_estimate(corner_triangle())


class TestThickness:
    def test_corner_triangle(self):
        theta, theta_est = thickness(corner_triangle())
        assert theta == pytest.approx(1 / 6, abs=1e-14)
        assert theta_est == pytest.approx(1 / 6, abs=1e-14)

    def test_regular(self):
        for m in (1, 2, 4):
            theta, theta_est = thickness(regular_simplex(m, m, 3.0))
            want = 1 / math.sqrt(2 * m * (m + 1))
            assert theta == pytest.approx(want, rel=1e-12)
            assert theta_est == pytest.approx(want, rel=1e-12)


class TestExactInradius:
    def test_corner_triangle(self):
        center, radius = exact_inradius_fulldim(corner_triangle())
        want = 2 - math.sqrt(2)
        assert radius == pytest.approx(want, abs=1e-13)
        assert center == pytest.approx([want, want], abs=1e-13)

    def test_segment(self):
        center, radius = exact_inradius_fulldim(validate_simplex([[0.0], [4.0]]))
        assert center == pytest.approx([2.0])
        assert radius == pytest.approx(2.0)

    def test_regular_matches_barycentric(self):
        for m in (2, 3, 5):
            s = regular_simplex(m, m, 1.0)
            _, exact = exact_inradius_fulldim(s)
            value, _ = barycentric_inradius(s)
            assert exact == pytest.approx(value, abs=1e-10)

    def test_dominates_barycentric_on_corpus(self):
        rng = np.random.default_rng(707)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            s = random_simplex(rng, n, n)
            diam = edge_profile(s).diam
            _, exact = exact_inradius_fulldim(s)
            value, _ = barycentric_inradius(s)
            assert value <= exact + 1e-12 * diam

    def test_incenter_equidistant_from_facets(self):
        rng = np.random.default_rng(808)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = random_simplex(rng, n, n)
            center, radius = exact_inradius_fulldim(s)
            for i in range(n + 1):
                keep = [k for k in range(n + 1) if k != i]
                d = distance_point_to_face(center, validate_simplex(s.vertices[keep]))
                assert d == pytest.approx(radius, rel=1e-8)

    def test_rejects_flat(self):
        with pytest.raises(NotFullDimensional):
            exact_inradius_fulldim(regular_simplex(2, 3, 1.0))

    def test_no_warning_when_well_conditioned(self):
        # The needle passes the rank gate; its edge matrix has condition 3.3e8.
        needle = validate_simplex([(0, 0), (1, 0), (0, 3e-9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (corner_triangle(), needle):
                exact_inradius_fulldim(s)


class TestWidthBounds:
    def test_regular_width_values(self):
        assert regular_width(1, 1.0) == pytest.approx(1.0)
        assert regular_width(3, 1.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert regular_width(2, 1.0) == pytest.approx(
            math.sqrt(6) / math.sqrt(8), abs=1e-15
        )

    def test_steinhagen_tight_for_odd(self):
        for n in (1, 3, 5, 7):
            s = regular_simplex(n, n, 1.0)
            inradius, _ = barycentric_inradius(s)
            assert steinhagen_bound(n, inradius) == pytest.approx(
                regular_width(n, 1.0), abs=1e-10
            )

    def test_steinhagen_tight_for_even(self):
        # The even-dimensional constant is calibrated so the regular simplex
        # attains it as well, which is why it differs from the odd one.
        for n in (2, 4, 6):
            s = regular_simplex(n, n, 1.0)
            inradius, _ = barycentric_inradius(s)
            assert regular_width(n, 1.0) == pytest.approx(
                steinhagen_bound(n, inradius), rel=1e-10
            )
            # The odd-style constant 2 * sqrt(n) would be violated here,
            # which is why even dimensions need the larger constant.
            assert regular_width(n, 1.0) > 2.0 * math.sqrt(n) * inradius

    def test_guards(self):
        with pytest.raises(InvalidDimension):
            regular_width(0, 1.0)
        with pytest.raises(ValueError):
            steinhagen_bound(3, -1.0)


class TestEgglestonSuite:
    def test_corner_triangle_rows(self):
        rows = {name: (lhs, rhs, ok) for name, lhs, rhs, ok in eggleston_suite(corner_triangle())}
        assert all(ok for _, _, ok in rows.values())
        lhs, rhs, _ = rows["inradius_le_circumradius"]
        assert lhs == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(2), abs=1e-12)
        # Width rows appear only for regular input.
        assert "width_le_diameter" not in rows

    def test_regular_includes_width_rows(self):
        rows = {name: (lhs, rhs, ok) for name, lhs, rhs, ok in eggleston_suite(regular_simplex(3, 3, 1.0))}
        assert "width_le_diameter" in rows
        assert "width_le_steinhagen_inradius" in rows
        assert all(ok for _, _, ok in rows.values())
        lhs, rhs, _ = rows["width_le_steinhagen_inradius"]
        assert lhs == pytest.approx(rhs, rel=1e-10)  # odd dimension is tight

    def test_random_fulldim_all_hold(self):
        rng = np.random.default_rng(909)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = random_simplex(rng, n, n)
            assert all(ok for _, _, _, ok in eggleston_suite(s))

    def test_rejects_flat(self):
        with pytest.raises(NotFullDimensional):
            eggleston_suite(regular_simplex(2, 4, 1.0))


class TestGaleDiameter:
    def test_closed_form_matches_measurement(self):
        for n in (1, 2, 3, 5, 8):
            closed, measured = gale_diameter_check(n)
            assert closed == pytest.approx(math.sqrt(n * (n + 1) / 2), abs=1e-15)
            assert measured == pytest.approx(closed, rel=1e-10)


class TestMetricsReport:
    def test_fulldim_fields(self):
        report = metrics_report(corner_triangle())
        assert report.exact_inradius == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert report.exact_incenter is not None
        assert report.diam == pytest.approx(2 * math.sqrt(2))
        assert report.shor == pytest.approx(2.0)
        assert report.thickness == pytest.approx(1 / 6, abs=1e-13)

    def test_flat_fields_none(self):
        report = metrics_report(regular_simplex(2, 4, 1.0))
        assert report.exact_inradius is None
        assert report.exact_incenter is None


def reference_distances(p, verts) -> dict:
    """Exhaustive route: distance from p to the hull of every vertex subset.

    The foot of the projection onto a subset's affine hull is the answer
    when its barycentric coordinates are all nonnegative; otherwise the
    nearest point lies on a proper sub-face.  Subsets are memoised, so
    the facets of one simplex share their sub-faces.  Returns a dict from
    index tuples to distances, filled on demand by ``lookup``.
    """
    memo = {}

    def lookup(face: tuple) -> float:
        if face not in memo:
            rows = verts[list(face)]
            if len(face) == 1:
                memo[face] = float(np.linalg.norm(p - rows[0]))
            else:
                rel = rows[1:] - rows[0]
                coef, *_ = np.linalg.lstsq(rel.T, p - rows[0], rcond=None)
                if coef.min() >= -1e-12 and coef.sum() <= 1.0 + 1e-12:
                    memo[face] = float(np.linalg.norm(p - rows[0] - coef @ rel))
                else:
                    memo[face] = min(
                        lookup(face[:j] + face[j + 1 :]) for j in range(len(face))
                    )
        return memo[face]

    return lookup


def reference_inradius(s) -> tuple[float, int]:
    lookup = reference_distances(barycenter(s), s.vertices)
    facets = [tuple(k for k in range(s.m + 1) if k != i) for i in range(s.m + 1)]
    values = [lookup(face) for face in facets]
    return min(values), int(np.argmin(values))


def point_set_diam(p, verts) -> float:
    pts = np.vstack([p, verts])
    gaps = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((gaps**2).sum(axis=2).max()))


def random_face_pairs(seed: int, count: int, max_k: int):
    """(point, vertex rows) pairs: 2 <= k <= max_k vertices in R^n, k <= n + 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_k))
        k = int(rng.integers(2, min(n + 1, max_k) + 1))
        yield rng.uniform(-8, 8, size=n), rng.uniform(-5, 5, size=(k, n))


class TestHullDistanceAgainstReference:
    """The nearest-point solver against the exhaustive subset route."""

    @pytest.mark.parametrize("corpus", ["fulldim_corpus", "mixed_corpus"])
    def test_barycentric_inradius_matches(self, corpus, request):
        worst = 0.0
        for s in request.getfixturevalue(corpus):
            diam = edge_profile(s).diam
            value, argmin = barycentric_inradius(s)
            want, want_argmin = reference_inradius(s)
            worst = max(worst, abs(value - want) / diam)
            # A segment's two faces are its endpoints, equidistant from the
            # midpoint, so the reference's argmin there is rounding noise.
            assert argmin == (0 if s.m == 1 else want_argmin)
        assert worst <= 1e-12

    def test_random_faces_match(self):
        for p, verts in random_face_pairs(4242, 1000, max_k=9):
            diam = point_set_diam(p, verts)
            want = reference_distances(p, verts)(tuple(range(verts.shape[0])))
            got = distance_point_to_face(p, validate_simplex(verts))
            assert abs(got - want) <= 1e-12 * diam

    def test_high_m_matches_and_is_fast(self):
        rng = np.random.default_rng(912)
        for m in (9, 10, 11, 12):
            s = random_simplex(rng, m, m + int(rng.integers(0, 3)))
            start = time.perf_counter()
            value, argmin = barycentric_inradius(s)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.5, f"m={m} took {elapsed:.3f} s"
            want, want_argmin = reference_inradius(s)
            assert value == pytest.approx(want, abs=1e-12 * edge_profile(s).diam)
            assert argmin == want_argmin

    def test_high_m_regular_closed_form(self):
        for m in (9, 10, 11, 12):
            start = time.perf_counter()
            value, _ = barycentric_inradius(regular_simplex(m, m, 1.0))
            assert time.perf_counter() - start < 0.5
            assert value == pytest.approx(1 / math.sqrt(2 * m * (m + 1)), abs=1e-12)


# The accuracy stated in exact_inradius_fulldim's docstring and the README:
# both inradii within C1 kappa eps relative, the incenter within C2 kappa eps r.
INRADIUS_KAPPA_C1 = 2.0
INCENTER_KAPPA_C2 = 32.0


def thin_simplices(seed: int, depths):
    """Thin m-simplices in R^m, m = 2..8, one per squash depth d and m.

    A regular simplex with its vertices moved by up to 0.1, rigidly moved,
    is squashed by 10^-d along a random direction, so kappa grows as 10^d.
    """
    rng = np.random.default_rng(seed)
    for m in range(2, 9):
        for depth in depths:
            base = regular_simplex(m, m, 1.0).vertices + rng.uniform(-0.1, 0.1, size=(m + 1, m))
            rotation, shift = random_rigid_motion(rng, m)
            base = base @ rotation.T + shift
            axis = rng.normal(size=m)
            axis /= np.linalg.norm(axis)
            yield validate_simplex(base + (10.0**-depth - 1.0) * np.outer(base @ axis, axis))


def test_incenter_within_kappa_eps_of_exact():
    """The float inradii and incenter against exact rational arithmetic.

    ``tests/exact.py`` gives each 1/h_i^2 exactly from the inverse Gram
    matrix; the square roots and the incenter are then taken to 60
    digits.  kappa = ||R||_F ||R^-1||_F of the edge factor, from numpy.
    """
    eps = np.finfo(float).eps
    kappas, worst_radius, worst_center = [], 0.0, 0.0
    for s in thin_simplices(2020, np.linspace(3.5, 8.2, 12)):
        factor = np.linalg.qr((s.vertices[1:] - s.vertices[0]).T, mode="r")
        kappa = float(np.linalg.norm(factor) * np.linalg.norm(np.linalg.inv(factor)))
        center, radius = exact_inradius_fulldim(s)
        barycentric, _ = barycentric_inradius(s)
        with decimal.localcontext(prec=60):
            inv_h = [(Decimal(q.numerator) / q.denominator).sqrt()
                     for q in exact.squared_inverse_altitudes(s.vertices.tolist())]
            exact_radius = 1 / sum(inv_h)
            exact_barycentric = 1 / ((s.m + 1) * max(inv_h))
            first, *rest = [[Decimal(a) for a in v] for v in s.vertices.tolist()]
            exact_center = [a + exact_radius * sum(w * (v[k] - a) for w, v in zip(inv_h[1:], rest))
                            for k, a in enumerate(first)]
            radius_error = float(max(abs(Decimal(radius) - exact_radius) / exact_radius,
                                     abs(Decimal(barycentric) - exact_barycentric) / exact_barycentric))
            center_error = math.hypot(*(float(Decimal(a) - b)
                                        for a, b in zip(center.tolist(), exact_center)))
        kappas.append(kappa)
        worst_radius = max(worst_radius, radius_error / (kappa * eps))
        worst_center = max(worst_center, center_error / (kappa * eps * float(exact_radius)))
    assert worst_radius <= INRADIUS_KAPPA_C1, worst_radius
    assert worst_center <= INCENTER_KAPPA_C2, worst_center
    # The draws span the stated range of kappa.
    assert min(kappas) > 1e3 and max(kappas) > 3e8


def stretched_simplices(seed: int, count: int):
    """Random m-simplices in R^n, m = 2..8, n = m..m+2, one axis scaled by 1e3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 9))
        n = m + int(rng.integers(0, 3))
        s = random_simplex(rng, m, n)
        axis = int(rng.integers(n))
        yield validate_simplex(s.vertices * np.where(np.arange(n) == axis, 1e3, 1.0))


def distance_to_affine_hull(p, verts) -> float:
    rel = verts[1:] - verts[0]
    coef, *_ = np.linalg.lstsq(rel.T, p - verts[0], rcond=None)
    return float(np.linalg.norm(p - verts[0] - coef @ rel))


class TestAltitudesAgainstHullDistance:
    """The altitude route against the nearest-point solver on needles."""

    def test_stretched_simplices_match(self):
        beyond_plane = 0
        for s in stretched_simplices(1213, 200):
            diam = edge_profile(s).diam
            center = barycenter(s)
            facets = [np.delete(s.vertices, i, axis=0) for i in range(s.m + 1)]
            hull = [distance_point_to_face(center, validate_simplex(f)) for f in facets]
            plane = [distance_to_affine_hull(center, f) for f in facets]
            beyond_plane += sum(h - q > 1e-9 * diam for h, q in zip(hull, plane))
            value, argmin = barycentric_inradius(s)
            assert abs(value - min(hull)) <= 1e-12 * diam
            assert argmin == int(np.argmin(hull))
        # Some barycenters project outside a facet, where the hull distance
        # exceeds the plane distance, so the identity is not vacuous.
        assert beyond_plane > 0


class TestHullWeightsCertificate:
    """KKT conditions at the returned foot: it is the nearest point."""

    @staticmethod
    def assert_certified(p, verts):
        weights = _hull_weights(verts - p)
        foot = weights @ verts
        diam = point_set_diam(p, verts)
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(((p - foot) @ (verts - foot).T).max()) <= 1e-12 * diam**2

    def test_random_faces(self):
        for p, verts in random_face_pairs(5150, 1000, max_k=13):
            self.assert_certified(p, verts)

    def test_barycenter_to_facets(self, mixed_corpus):
        for s in mixed_corpus[::5]:
            center = barycenter(s)
            for i in range(s.m + 1):
                self.assert_certified(center, np.delete(s.vertices, i, axis=0))

    def test_point_inside_face(self):
        face = validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        weights = _hull_weights(face.vertices - np.array([0.1, 0.2, 0.3]))
        assert weights == pytest.approx([0.4, 0.1, 0.2, 0.3], abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.floats(min_value=-100.0, max_value=100.0),
)
def test_hull_distance_scale_and_rigid_motion_invariant(seed, exponent):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 2))
    verts = rng.uniform(-5, 5, size=(k, n))
    p = rng.uniform(-8, 8, size=n)
    q = verts - p
    base = float(np.linalg.norm(_hull_weights(q) @ q))
    q, shift = random_rigid_motion(rng, n)
    scale = 10.0**exponent
    moved_p = scale * (q @ p + shift)
    moved = scale * (verts @ q.T + shift)
    moved_q = moved - moved_p
    value = float(np.linalg.norm(_hull_weights(moved_q) @ moved_q))
    assert abs(value - scale * base) <= 1e-12 * scale * point_set_diam(p, verts)
