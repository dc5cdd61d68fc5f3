import itertools
import math

import numpy as np
import pytest

from simplexgeo import (
    barycenter,
    barycentric_circumradius,
    blumenthal_wahlin_check,
    combined_enclosure,
    edge_profile,
    exact_meb,
    exact_meb_support,
    fermat_sum_regular,
    jung_bound,
    regular_simplex,
    set_barycentric_circumradius,
    validate_simplex,
)
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import (
    AllDegenerate,
    CapExceeded,
    DimensionMismatch,
    EmptyInput,
    InvalidDimension,
    NotRegular,
    TooFewPoints,
)

from conftest import brute_force_meb


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

    def test_duplicates(self):
        center, radius = exact_meb([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert radius == pytest.approx(1.0, abs=1e-14)

    def test_caps_and_empty(self):
        with pytest.raises(EmptyInput):
            exact_meb([])
        with pytest.raises(CapExceeded):
            exact_meb(np.zeros((3, 11)))
        with pytest.raises(CapExceeded):
            exact_meb(np.random.default_rng(0).uniform(size=(10001, 2)))

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 0.0], [1.0]],
            [[0.0, 0.0], [1.0, 2.0, 3.0]],
            [[0.0, 0.0], [float("nan"), 1.0]],
            [[0.0, float("inf")]],
            [1.0, 2.0, 3.0],
            np.array([1.0, 2.0]),
            [[[0.0, 0.0]]],
        ],
        ids=["ragged", "ragged-long", "nan", "inf", "flat-list", "flat-array", "3d"],
    )
    def test_malformed_points(self, points):
        with pytest.raises(DimensionMismatch):
            exact_meb(points)

    def test_empty_array(self):
        with pytest.raises(EmptyInput):
            exact_meb(np.zeros((0, 2)))


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
        for _ in range(25):
            n = int(rng.integers(1, 4))
            count = int(rng.integers(n + 1, 11))
            pts = rng.uniform(-10, 10, size=(count, n))
            value = set_barycentric_circumradius(pts, n)
            gaps = pts[:, None, :] - pts[None, :, :]
            diam = math.sqrt(float(np.einsum("ijk,ijk->ij", gaps, gaps).max()))
            _, radius = exact_meb(pts)
            assert radius <= min(value, jung_bound(diam, n)) + 1e-12 * diam

    def test_guards(self):
        with pytest.raises(TooFewPoints):
            set_barycentric_circumradius([(0, 0), (1, 0)], 2)
        with pytest.raises(CapExceeded):
            set_barycentric_circumradius(np.random.default_rng(1).uniform(size=(16, 2)), 2)
        with pytest.raises(DimensionMismatch):
            set_barycentric_circumradius([(0, 0), (1, 0), (0, 1)], 3)
        with pytest.raises(AllDegenerate):
            set_barycentric_circumradius([(0, 0), (1, 1), (2, 2), (3, 3)], 2)


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
