"""The analyze reports describe the shape only: they follow a translation
or a rigid motion to rounding of the coordinates, and a power-of-two
scaling exactly."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo import (
    barycenter,
    carnot_regular_check,
    combined_enclosure,
    commandino_ratio,
    distance_point_to_face,
    exact_meb,
    exact_meb_support,
    fermat_sum_regular,
    median_sums,
    metrics_report,
    pythagoras_regular_residual,
    regular_simplex,
    set_diameter,
    sub_face,
    validate_simplex,
)
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import SimplexError

from conftest import (
    all_pairs_diameter,
    point_set_diameter,
    random_rigid_motion,
    translate_far,
    translation_cases,
)

CASES = translation_cases()


def assert_centers_agree(moved, rebased, origin, diam, scale):
    # The rebased center is a center of the same points minus ``origin``;
    # adding it back rounds once at the size of the coordinates.
    tol = 1e-12 * diam + 4 * np.spacing(scale)
    assert np.abs(np.asarray(moved) - (origin + np.asarray(rebased))).max() <= tol


@pytest.mark.parametrize("name, points", CASES, ids=[name for name, _ in CASES])
def test_translation_far_from_origin(name, points):
    for k in range(10):
        check_translation(name, translate_far(points, k))


def check_translation(name, moved):
    # v - v[0] is the same point set moved back to the origin, so every
    # report on the far copy must match the one on the rebased copy.
    rebased = moved - moved[0]
    diam = point_set_diameter(rebased)
    scale = float(np.abs(moved).max())
    tol = 1e-12 * diam
    center, radius, support = exact_meb_support(moved)
    center_0, radius_0 = exact_meb(rebased)
    assert abs(radius - radius_0) <= tol
    assert_centers_agree(center, center_0, moved[0], diam, scale)
    # The ball's center rounds at the size of the coordinates; the diameter
    # it prunes for is still the all-pairs maximum of the moved set.
    assert set_diameter(moved, center, support) == all_pairs_diameter(moved)
    if not name.startswith("simplex"):
        return
    s, s_0 = validate_simplex(moved), validate_simplex(rebased)
    medians, medians_0 = median_sums(s), median_sums(s_0)
    np.testing.assert_allclose(medians.median_lengths, medians_0.median_lengths, rtol=0, atol=tol)
    # The coordinate routes take their differences in the frame v - v[0],
    # which the two copies share.
    for field in ("apollonius_residuals", "sum_squares_medians", "sum_squares_center_to_vertices"):
        np.testing.assert_allclose(
            getattr(medians, field), getattr(medians_0, field), rtol=0, atol=tol * diam, err_msg=field
        )
    report, report_0 = combined_enclosure(s), combined_enclosure(s_0)
    for field in ("barycentric_circumradius", "jung_bound", "combined_bound", "meb_radius"):
        assert abs(getattr(report, field) - getattr(report_0, field)) <= tol, field
    for field in ("meb_center", "barycenter"):
        assert_centers_agree(getattr(report, field), getattr(report_0, field), moved[0], diam, scale)
    metrics, metrics_0 = metrics_report(s), metrics_report(s_0)
    for field in ("barycentric_inradius", "barycentric_inradius_estimate", "diam", "shor"):
        assert abs(getattr(metrics, field) - getattr(metrics_0, field)) <= tol, field
    if s.m == s.n:
        assert abs(metrics.exact_inradius - metrics_0.exact_inradius) <= tol
        assert_centers_agree(metrics.exact_incenter, metrics_0.exact_incenter, moved[0], diam, scale)


def test_coordinate_routes_follow_a_translation():
    # The routes take their differences in the frame v - v[0], which a far
    # copy and its rebased copy share; only the distance from a point, which
    # the frame does not hold, rounds once more.  A regular simplex stays
    # regular within REGULAR_RTOL only up to about 10^4 diameters out.
    for name, points in CASES:
        if not name.startswith("simplex"):
            continue
        for k in (4, 8, 9):
            moved = translate_far(points, k)
            rebased = moved - moved[0]
            s, s_0 = validate_simplex(moved), validate_simplex(rebased)
            diam = s_0.profile.diam
            for i in range(s.m + 1):
                assert commandino_ratio(s, i) == commandino_ratio(s_0, i), (name, k, i)
                if s.m == 1:  # the face is one vertex
                    continue
                far = distance_point_to_face(moved[i], sub_face(s, {i}))
                near = distance_point_to_face(rebased[i], sub_face(s_0, {i}))
                assert abs(far - near) <= 1e-12 * diam, (name, k, i)
    for m in range(1, 9):
        for n in (m, m + 2):
            points = regular_simplex(m, n, 1.0).vertices
            for k in (2, 3, 4):
                moved = translate_far(points, k)
                s, s_0 = validate_simplex(moved), validate_simplex(moved - moved[0])
                assert carnot_regular_check(s) == carnot_regular_check(s_0), (m, n, k)
                assert fermat_sum_regular(s) == fermat_sum_regular(s_0), (m, n, k)
                for i in range(m + 1):
                    for j in range(m + 1):
                        if i != j:
                            assert pythagoras_regular_residual(s, i, j) == pythagoras_regular_residual(s_0, i, j)


# Power of the scale factor each report field carries: lengths and centers
# scale with the coordinates, squared sums and residuals with their square,
# and ratios and indices not at all.
SCALE_POWER = {
    "median_lengths": 1,
    "apollonius_residuals": 2,
    "sum_squares_medians": 2,
    "sum_squares_center_to_vertices": 2,
    "sum_squares_edges": 2,
    "barycentric_circumradius": 1,
    "jung_bound": 1,
    "combined_bound": 1,
    "meb_radius": 1,
    "meb_center": 1,
    "barycenter": 1,
    "argmax_vertex": 0,
    "barycentric_inradius": 1,
    "barycentric_inradius_estimate": 1,
    "thickness": 0,
    "thickness_estimate": 0,
    "exact_inradius": 1,
    "exact_incenter": 1,
    "diam": 1,
    "shor": 1,
}

ANALYZE_REPORTS = (median_sums, combined_enclosure, metrics_report)


def analyze_reports(vertices):
    """The three analyze reports, or the type of the error they raise."""
    try:
        s = validate_simplex(vertices)
        return [report(s) for report in ANALYZE_REPORTS]
    except (SimplexError, ArithmeticError) as exc:
        return type(exc)


@st.composite
def unit_box_simplices(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=m, max_value=m + 2))
    # A dyadic grid keeps every scaled coordinate, product and difference
    # far from the subnormal range, where scaling by 2^k is not exact.
    grid = st.integers(min_value=-(2**20), max_value=2**20).map(lambda i: i / 2**20)
    rows = st.lists(grid, min_size=n, max_size=n)
    return np.array(draw(st.lists(rows, min_size=m + 1, max_size=m + 1)))


# A thin draw, its edge factor's condition number 1.003e8: its reports
# scale exactly like any other draw's.
ILL_CONDITIONED_DRAW = np.ldexp(
    np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 0, 3, 0],
            [0, 1989, 1, 71, 30],
            [7109, 35, 763, 1, 0],
            [1, 0, 0, 0, 0],
        ],
        dtype=float,
    ),
    -20,
)


@settings(max_examples=100, deadline=None)
@given(vertices=unit_box_simplices(), k=st.integers(min_value=-400, max_value=400))
@example(vertices=ILL_CONDITIONED_DRAW, k=0)
@example(vertices=ILL_CONDITIONED_DRAW, k=37)
@example(vertices=ILL_CONDITIONED_DRAW, k=-300)
def test_power_of_two_scaling_is_exact(vertices, k):
    want = analyze_reports(vertices)
    got = analyze_reports(np.ldexp(vertices, k))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), f"scaled copy raised {got.__name__}"
    for report, scaled in zip(want, got):
        for field in dataclasses.fields(report):
            value, scaled_value = getattr(report, field.name), getattr(scaled, field.name)
            if value is None:
                assert scaled_value is None, field.name
                continue
            expected = np.ldexp(np.asarray(value, dtype=float), SCALE_POWER[field.name] * k)
            assert np.array_equal(np.asarray(scaled_value, dtype=float), expected), field.name


def test_thin_draw_gives_reports():
    assert not isinstance(analyze_reports(ILL_CONDITIONED_DRAW), type)


@pytest.mark.parametrize("m", range(1, 9))
def test_metrics_at_the_thinness_floor_scale_exactly(m):
    # Scaled by the smallest power of two that validation accepts, a simplex
    # keeps every metrics field exactly: no inverse altitude overflows.
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(m)
    for n in (m, m + 1):
        for squash in (1.0, 1e-3):
            v = random_simplex(rng, m, n).vertices.copy()
            v[:, -1] *= squash
            sv = np.linalg.svd(v[1:] - v[0], compute_uv=False)[-1]
            k = math.ceil(math.log2(math.sqrt((m + 1) * tiny) / sv))
            want = metrics_report(validate_simplex(v))
            got = metrics_report(validate_simplex(np.ldexp(v, k)))
            for field in dataclasses.fields(want):
                value = getattr(want, field.name)
                if value is None:
                    continue
                expected = np.ldexp(np.asarray(value, dtype=float), SCALE_POWER[field.name] * k)
                scaled = np.asarray(getattr(got, field.name), dtype=float)
                assert np.array_equal(scaled, expected), field.name
            with pytest.raises(SimplexError, match="underflow"):
                validate_simplex(np.ldexp(v, k - 1))


# Fields that move with the simplex; every other field is invariant.
MOVING = {"meb_center", "barycenter", "exact_incenter"}


def test_rigid_motion():
    # Tolerance: 64 (m+1) eps times diam to the field's scale power; moving
    # fields are compared at the size of the coordinates instead.  Seeded
    # draws with m = 1..8 stayed within 14 (m+1) eps.
    rng = np.random.default_rng(20261019)
    eps = np.finfo(float).eps
    for m in range(1, 9):
        for n in range(m, m + 3):
            for _ in range(4):
                v = random_simplex(rng, m, n).vertices
                q, shift = random_rigid_motion(rng, n)
                w = v @ q.T + shift
                s, t = validate_simplex(v), validate_simplex(w)
                diam = point_set_diameter(v)
                unit = 64 * (m + 1) * eps
                size = max(diam, np.abs(v).max(), np.abs(w).max())
                for report in ANALYZE_REPORTS:
                    want, got = report(s), report(t)
                    for field in dataclasses.fields(want):
                        name = field.name
                        value, moved = getattr(want, name), getattr(got, name)
                        if value is None:
                            assert moved is None, name
                        elif name == "argmax_vertex":
                            # A near tie may pick another vertex, but never a nearer one.
                            gaps = np.linalg.norm(v - barycenter(s), axis=1)
                            assert gaps[moved] >= gaps[value] - unit * diam, name
                        elif name in MOVING:
                            expected = q @ np.asarray(value) + shift
                            assert np.abs(np.asarray(moved) - expected).max() <= unit * size, name
                        else:
                            tol = unit * diam ** SCALE_POWER[name]
                            gap = np.abs(np.asarray(moved, dtype=float) - np.asarray(value, dtype=float))
                            assert gap.max() <= tol, name
