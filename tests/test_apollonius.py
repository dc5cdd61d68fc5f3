import math
from fractions import Fraction

import numpy as np
import pytest

from simplexgeo import (
    apollonius_residual,
    barycenter,
    barycentric_circumradius,
    carnot_regular_check,
    commandino_ratio,
    edge_profile,
    face_centroid,
    median_length,
    median_sums,
    pythagoras_regular_residual,
    regular_simplex,
    validate_simplex,
)
from simplexgeo.apollonius import _upper, radicands
from simplexgeo.core import Simplex, face_centroids, squared_distance_matrix
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import IndexOutOfRange, NotRegular

import exact
from conftest import random_rigid_motion


def corner_triangle():
    return validate_simplex([(0, 0), (2, 0), (0, 2)])


class TestMedianLength:
    def test_corner_triangle(self):
        # Medians of the right triangle with legs 2: sqrt(2), sqrt(5), sqrt(5).
        s = corner_triangle()
        assert median_length(s, 0) == pytest.approx(math.sqrt(2), abs=1e-14)
        assert median_length(s, 1) == pytest.approx(math.sqrt(5), abs=1e-14)
        assert median_length(s, 2) == pytest.approx(math.sqrt(5), abs=1e-14)

    def test_matches_direct_coordinates(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            s = random_simplex(rng, m, int(rng.integers(m, 11)))
            diam = edge_profile(s).diam
            for i in range(m + 1):
                direct = float(np.linalg.norm(s.vertices[i] - face_centroid(s, i)))
                assert abs(median_length(s, i) - direct) <= 1e-9 * diam

    def test_regular_closed_form(self):
        for m in range(1, 7):
            s = regular_simplex(m, m + 1, 1.0)
            want = math.sqrt((m + 1) / (2.0 * m))
            assert median_length(s, 0) == pytest.approx(want, abs=1e-13)

    def test_segment_median_is_length(self):
        s = validate_simplex([[1.0], [4.0]])
        assert median_length(s, 0) == pytest.approx(3.0, abs=0)

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            median_length(corner_triangle(), 5)


class TestApolloniusResidual:
    def test_corner_triangle_zero(self):
        s = corner_triangle()
        for i in range(3):
            assert abs(apollonius_residual(s, i)) < 1e-12

    def test_triangle_reduction(self):
        # For m = 2 the identity at vertex 0 reads
        # 2 (a^2 + b^2) - c^2 - 4 mu^2 = 0 with a, b the edges at vertex 0.
        s = validate_simplex([(0.3, -1.2), (2.5, 0.4), (-0.7, 2.2)])
        prof = edge_profile(s)
        a = prof.lengths[(0, 1)]
        b = prof.lengths[(0, 2)]
        c = prof.lengths[(1, 2)]
        mu = float(np.linalg.norm(s.vertices[0] - face_centroid(s, 0)))
        by_hand = 2 * (a**2 + b**2) - c**2 - 4 * mu**2
        assert apollonius_residual(s, 0) == pytest.approx(by_hand, abs=1e-12)

    def test_tiny_negative_radicand_clamped(self):
        sq = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 4.0], [1.0, 4.0, 0.0]])
        sq[1, 2] = sq[2, 1] = 4.0 + 4e-9  # radicand -4e-9, inside the floor
        floored, raw = radicands(sq)
        assert floored[0] == 0.0
        assert raw[0] < 0.0

    def test_raw_radicand_negative_only_by_rounding(self):
        # The raw radicand is m^2 times a squared median, so it dips below
        # zero only by rounding, relative to the sum of its two terms; the
        # worst seen over this family is about -2e-15.  Each simplex has one
        # vertex at the centroid of its opposite face, where the median is
        # zero, at scales 10^-100..10^100 and up to 10^6 sizes off the origin.
        rng = np.random.default_rng(2303)
        for _ in range(1000):
            m = int(rng.integers(2, 11))
            n = int(rng.choice([m, m + 1, 50, 1000]))
            size = 10.0 ** rng.uniform(-100, 100)
            v = rng.standard_normal((m + 1, n)) * size
            i = int(rng.integers(m + 1))
            v[i] = np.delete(v, i, axis=0).mean(axis=0)
            v += rng.standard_normal(n) * size * 10.0 ** rng.uniform(0, 6)
            sq = squared_distance_matrix(Simplex(v))
            floored, raw = radicands(sq)
            rows = sq.sum(axis=1)
            scale = m * rows + (sq[_upper(m + 1)].sum() - rows)
            assert (raw >= -1e-12 * scale).all()
            assert (floored >= 0.0).all()


class TestCommandino:
    def test_corner_triangle(self):
        s = corner_triangle()
        to_face, to_vertex = commandino_ratio(s, 0)
        assert to_face == pytest.approx(math.sqrt(2) / 3, abs=1e-14)
        assert to_vertex == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)

    def test_ratio_and_collinearity(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            s = random_simplex(rng, m, int(rng.integers(m, 11)))
            diam = edge_profile(s).diam
            center = barycenter(s)
            for i in range(m + 1):
                to_face, to_vertex = commandino_ratio(s, i)
                assert abs(to_vertex - m * to_face) <= 1e-9 * diam
                gap = (
                    float(np.linalg.norm(s.vertices[i] - center))
                    + float(np.linalg.norm(center - face_centroid(s, i)))
                    - float(np.linalg.norm(s.vertices[i] - face_centroid(s, i)))
                )
                assert abs(gap) <= 1e-9 * diam


class TestMedianSums:
    def test_corner_triangle_values(self):
        s = corner_triangle()
        report = median_sums(s)
        # Medians sqrt(2), sqrt(5), sqrt(5); edges 2, 2, 2 sqrt(2).
        assert report.sum_squares_medians == pytest.approx(12.0, abs=1e-12)
        assert report.sum_squares_edges == pytest.approx(16.0, abs=1e-12)
        assert report.sum_squares_medians == pytest.approx(
            0.75 * report.sum_squares_edges, abs=1e-12
        )
        assert report.sum_squares_center_to_vertices == pytest.approx(
            report.sum_squares_edges / 3.0, abs=1e-12
        )

    def test_sum_identities_on_corpus(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            m = int(rng.integers(1, 8))
            s = random_simplex(rng, m, int(rng.integers(m, 11)))
            report = median_sums(s)
            want_medians = (m + 1) / m**2 * report.sum_squares_edges
            want_center = report.sum_squares_edges / (m + 1)
            assert report.sum_squares_medians == pytest.approx(want_medians, rel=1e-9)
            assert report.sum_squares_center_to_vertices == pytest.approx(
                want_center, rel=1e-9
            )

    def test_segment_median_sum_overflow_raises(self):
        # A segment's median squares sum to 2 L^2, which overflows while its
        # radicand L^2 and every other field stay finite.
        assert math.isfinite(median_sums(validate_simplex([[0.0], [9e153]])).sum_squares_medians)
        s = validate_simplex([[0.0], [1e154]])
        assert np.isfinite(s.radicand_pair[1]).all()
        with pytest.raises(OverflowError, match="squared edge lengths overflow the float range"):
            median_sums(s)

    def test_regular_unit_edges(self):
        # With every edge 1 the median squares sum to (m+1)^2 / (2m).
        for m in (2, 3, 5):
            report = median_sums(regular_simplex(m, m, 1.0))
            assert report.sum_squares_medians == pytest.approx(
                (m + 1) ** 2 / (2.0 * m), rel=1e-12
            )


class TestRegularChecks:
    def test_pythagoras_zero_residual(self):
        for m in range(2, 6):
            s = regular_simplex(m, m, 1.0)
            assert abs(pythagoras_regular_residual(s, 0, 1)) < 1e-12
            assert abs(pythagoras_regular_residual(s, m, 0)) < 1e-12

    def test_pythagoras_leg_values(self):
        # Unit equilateral triangle: median^2 = 3/4 and the half edge
        # squared is 1/4; together they rebuild the unit edge.
        s = regular_simplex(2, 2, 1.0)
        centroid = face_centroid(s, 0)
        leg_a = float(np.linalg.norm(s.vertices[0] - centroid)) ** 2
        leg_b = float(np.linalg.norm(s.vertices[1] - centroid)) ** 2
        assert leg_a == pytest.approx(0.75, abs=1e-14)
        assert leg_b == pytest.approx(0.25, abs=1e-14)

    def test_pythagoras_rejects_irregular(self):
        with pytest.raises(NotRegular):
            pythagoras_regular_residual(corner_triangle(), 0, 1)
        with pytest.raises(IndexOutOfRange):
            pythagoras_regular_residual(regular_simplex(2, 2, 1.0), 1, 1)

    def test_median_orthogonal_to_opposite_face(self):
        # In a regular simplex the median at vertex i meets every edge of
        # the opposite face at a right angle.
        for m in (2, 3, 4):
            s = regular_simplex(m, m + 1, 1.0)
            for i in range(m + 1):
                med = s.vertices[i] - face_centroid(s, i)
                others = [k for k in range(m + 1) if k != i]
                for a in range(len(others) - 1):
                    for b in range(a + 1, len(others)):
                        edge = s.vertices[others[a]] - s.vertices[others[b]]
                        assert abs(med @ edge) < 1e-12

    def test_carnot_triangle(self):
        both = carnot_regular_check(regular_simplex(2, 2, 1.0))
        assert both[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-13)
        assert both[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-13)

    def test_carnot_tetrahedron(self):
        total, split = carnot_regular_check(regular_simplex(3, 3, 1.0))
        # 4 / sqrt(24) on both sides.
        assert total == pytest.approx(4 / math.sqrt(24), abs=1e-13)
        assert split == pytest.approx(total, abs=1e-13)

    def test_carnot_rejects_irregular(self):
        with pytest.raises(NotRegular):
            carnot_regular_check(corner_triangle())


def test_rigid_invariance_of_reported_lengths():
    rng = np.random.default_rng(31337)
    for _ in range(15):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 9))
        s = random_simplex(rng, m, n)
        q, shift = random_rigid_motion(rng, n)
        moved = validate_simplex(s.vertices @ q.T + shift)
        a, b = median_sums(s), median_sums(moved)
        assert np.allclose(a.median_lengths, b.median_lengths, rtol=1e-8)
        assert a.sum_squares_medians == pytest.approx(b.sum_squares_medians, rel=1e-8)
        for i in range(m + 1):
            assert commandino_ratio(s, i)[1] == pytest.approx(
                commandino_ratio(moved, i)[1], rel=1e-8
            )


def test_vectorised_radicands_match_per_vertex_loop(mixed_corpus):
    """Radicands and the reports built on them equal a per-vertex loop exactly."""
    for s in mixed_corpus[:300]:
        sq = squared_distance_matrix(s)
        floored, raw = radicands(sq)
        total = float(sq[np.triu_indices(s.m + 1, 1)].sum())
        center = s.barycenter_offset
        batch = face_centroids(s)
        report = median_sums(s)
        best, argmax = -1.0, 0
        sum_medians = sum_center = 0.0
        for i in range(s.m + 1):
            star = float(sq[i].sum())
            radicand = s.m * star - (total - star)
            assert raw[i] == radicand
            assert floored[i] == max(radicand, 0.0)
            assert report.median_lengths[i] == math.sqrt(floored[i]) / s.m
            assert report.apollonius_residuals[i] == apollonius_residual(s, i)
            if floored[i] > best:
                best, argmax = floored[i], i
            med = s.offsets[i] - batch[i]
            sum_medians += float(med @ med)
            gap = center - s.offsets[i]
            sum_center += float(gap @ gap)
        assert barycentric_circumradius(s) == (math.sqrt(best) / (s.m + 1), argmax)
        assert report.sum_squares_medians == sum_medians
        assert report.sum_squares_center_to_vertices == sum_center
        assert report.sum_squares_edges == total


@pytest.mark.parametrize("m", range(1, 11))
def test_face_centroids_agree_bit_for_bit(m):
    """face_centroid is v_0 plus a row of the batched centroids, which are
    offsets to v_0, and median_sums' residuals are apollonius_residual's,
    bit for bit, up to m = 10."""
    rng = np.random.default_rng(1700 + m)
    for k in range(30):
        n = m + int(rng.integers(0, 3))
        s = random_simplex(rng, m, n, 10.0)
        if k % 3 == 1:  # far from the origin, where the offsets matter
            s = validate_simplex(s.vertices + rng.uniform(-1e8, 1e8, n))
        batch = face_centroids(s)
        assert batch.shape == (m + 1, n)
        report = median_sums(s)
        sum_medians = 0.0
        for i in range(m + 1):
            assert face_centroid(s, i).tobytes() == (s.vertices[0] + batch[i]).tobytes()
            assert report.apollonius_residuals[i] == apollonius_residual(s, i)
            med = s.offsets[i] - batch[i]
            sum_medians += float(med @ med)
        assert report.sum_squares_medians == sum_medians
        # Each row is the mean of the other vertices' offsets, to rounding.
        atol = 8 * m * np.finfo(float).eps * np.abs(s.vertices).max()
        for i in range(m + 1):
            others = np.delete(s.offsets, i, axis=0)
            assert np.allclose(batch[i], others.mean(axis=0), rtol=0, atol=atol)


def test_upper_mask_is_shared_and_read_only():
    sq = squared_distance_matrix(validate_simplex([(0, 0, 0), (3, 0, 0), (0, 4, 0), (0, 0, 5)]))
    before = radicands(sq)
    mask = _upper(4)
    assert mask is _upper(4)
    assert np.array_equal(mask, np.triu(np.ones((4, 4), dtype=bool), 1))
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1] = False
    with pytest.raises(ValueError):
        mask[mask] = False
    after = radicands(sq)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestExactApollonius:
    """Both sides of Apollonius' identity against their exact value.

    Every float is a dyadic rational, so ``tests/exact.py`` gives the exact
    squared edges and the exact squared median m^2 |p_i - c_i|^2, c_i the
    centroid of the opposite face; the two agree exactly.  The float raw
    radicand (edge route) and m^2 |median|^2 from coordinates must lie
    within 2 (m+1)^2 eps diam^2 of it.  On 1200 simplices (120 per m, same
    kind) the worst errors were 126 eps diam^2 for the radicand and 83 eps
    diam^2 for the median, both at m = 10; the largest ratio to (m+1)^2 eps
    diam^2 was 1.04.
    """

    def test_raw_radicands_and_medians(self):
        eps = Fraction(float(np.finfo(float).eps))
        rng = np.random.default_rng(20261019)
        worst = 0.0
        for m in range(1, 11):
            for _ in range(10):
                n = m + int(rng.integers(0, 3))
                scale = 2.0 ** int(rng.integers(-3, 4))
                s = validate_simplex(rng.uniform(-1, 1, size=(m + 1, n)) * scale)
                rows = s.vertices.tolist()
                sq = [exact.squared_distances(s.vertices, [Fraction(a) for a in p]) for p in rows]
                bound = 2 * (m + 1) ** 2 * eps * max(map(max, sq))
                total = sum(map(sum, sq)) / 2
                _, raw = radicands(squared_distance_matrix(s))
                for i in range(m + 1):
                    want = m * sum(sq[i]) - (total - sum(sq[i]))
                    face = [p for j, p in enumerate(rows) if j != i]
                    centroid = [sum(map(Fraction, column)) / m for column in zip(*face)]
                    median2 = exact.squared_distances(s.vertices[i : i + 1], centroid)[0]
                    assert m * m * median2 == want  # Apollonius' identity, exactly
                    median = s.vertices[i] - face_centroid(s, i)
                    for got in (float(raw[i]), m * m * float(median @ median)):
                        error = abs(Fraction(got) - want) / bound
                        assert error <= 1
                        worst = max(worst, float(error))
        assert worst > 0.0  # the check measured rounding, not only exact cases
