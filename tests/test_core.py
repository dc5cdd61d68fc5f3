import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgeo import (
    Simplex,
    barycenter,
    blumenthal_wahlin_check,
    edge_profile,
    exact_meb,
    face_centroid,
    regular_simplex,
    set_barycentric_circumradius,
    sub_face,
    validate_simplex,
    volume,
)
from simplexgeo.core import (
    RANK_RTOL,
    _inf_diagonal,
    as_point,
    as_points,
    centroid,
    check_range,
    edge_spread,
    extremal_edges,
    require_regular,
)
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import (
    Degenerate,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidDimension,
    InvalidPoint,
    NotFullDimensional,
    NotRegular,
    TooFewPoints,
    Underflow,
)

from conftest import random_rigid_motion


class TestValidate:
    def test_corner_triangle(self):
        s = validate_simplex([(0, 0), (1, 0), (0, 1)])
        assert s.m == 2 and s.n == 2
        assert np.array_equal(s.vertices, [[0, 0], [1, 0], [0, 1]])

    def test_collinear_rejected(self):
        with pytest.raises(Degenerate):
            validate_simplex([(0, 0), (1, 1), (2, 2)])

    def test_triangle_in_r3(self):
        s = validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert s.m == 2 and s.n == 3

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            validate_simplex([(0, 0)])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            validate_simplex([(0, 0), (1, 0, 0), (0, 1)])

    def test_nonfinite(self):
        with pytest.raises(InvalidPoint):
            validate_simplex([(0, 0), (np.nan, 1), (1, 0)])

    def test_empty_point(self):
        with pytest.raises(InvalidPoint, match="non-empty"):
            validate_simplex([(), ()])

    def test_difference_overflow(self):
        # The suite turns numpy's overflow warning into an error, so this
        # also checks that the check itself warns nothing.
        with pytest.raises(OverflowError, match="overflow the float range"):
            validate_simplex([(-1e308,), (1e308,)])
        with pytest.raises(OverflowError):
            validate_simplex([(0.0, 0.0), (1e308, 0.0), (-1e308, 1e308)])

    def test_too_thin_for_the_float_range(self):
        # Diagonals above the range floor, but the squared inverse altitudes
        # would overflow: the floor on the smallest singular value refuses them.
        with pytest.raises(Underflow, match="too small"):
            validate_simplex([(0, 0, 0), (1e-150, 0, 0), (0, 1e-155, 0)])
        with pytest.raises(Underflow, match="too small"):
            validate_simplex([(0, 0), (1e-153, 0), (0, 5e-155)])
        validate_simplex([(0, 0), (1e-150, 0), (0, 1e-153)])

    def test_more_points_than_dimension(self):
        with pytest.raises(Degenerate):
            validate_simplex([(0,), (1,), (2,)])

    def test_near_degenerate_tolerance(self):
        # Height 1e-12 against unit base fails the 1e-9 relative rank test.
        with pytest.raises(Degenerate):
            validate_simplex([(0, 0), (1, 0), (0.5, 1e-12)])
        validate_simplex([(0, 0), (1, 0), (0.5, 1e-6)])

    def test_vertices_read_only(self):
        s = validate_simplex([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0

    def test_cached_quantities(self):
        # Each shared quantity is formed once and kept read-only; simplices
        # with equal vertices share none of them, and equality, which is
        # identity, gives the same outcomes before and after the caches are
        # filled.
        s, t = validate_simplex([(0, 0), (1, 0), (0, 1)]), validate_simplex([(0, 0), (1, 0), (0, 1)])

        def equality():
            outcomes = []
            for other in (s, t, "a"):
                try:
                    outcomes.append(s == other)
                except ValueError as exc:  # numpy's truth value of an array
                    outcomes.append(type(exc))
            return outcomes

        before = equality()

        def cached(x):
            return [
                x.offsets, x.sq_distances, *x.radicand_pair, x.profile.lengths, x.barycenter_offset,
                x.edge_factor, x.inverse_altitudes,
            ]

        for a, b in zip(cached(s), cached(t)):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
            assert not np.shares_memory(a, b) and np.array_equal(a, b)
        assert s.profile is s.profile and s.profile is not t.profile
        assert np.array_equal(s.offsets, s.vertices - s.vertices[0]) and s.offsets is s.offsets
        assert equality() == before
        assert [f.name for f in dataclasses.fields(Simplex)] == ["vertices"]

    def test_identity_equality_and_hash(self):
        s, t = validate_simplex([(0, 0), (1, 0), (0, 1)]), validate_simplex([(0, 0), (1, 0), (0, 1)])
        assert s == s and not s == t and s != t
        assert len({s, t}) == 2 and hash(s) == hash(s)
        assert s not in [t] and [t, s].index(s) == 1
        assert np.array_equal(s.vertices, t.vertices)

    def test_order_preserved(self):
        pts = [(3.0, 1.0), (0.0, 0.0), (1.0, 4.0)]
        s = validate_simplex(pts)
        assert np.array_equal(s.vertices, np.asarray(pts))


def reference_validate_simplex(vertices) -> Simplex:
    """The row-by-row validation that ``validate_simplex`` replaced for real
    2-D arrays, kept as a reference: every row through ``as_point``, then
    the dimension test and one ``vstack``; a scalar is one row.  Its rank
    test follows the same rule, the singular values of the edges' QR factor
    R; test_rank_rule checks that rule against the SVD of the edges
    themselves."""
    pts = [as_point(v) for v in (vertices if np.iterable(vertices) else [vertices])]
    if len(pts) < 2:
        raise TooFewPoints("a simplex needs at least 2 vertices")
    n = pts[0].size
    for p in pts[1:]:
        if p.size != n:
            raise DimensionMismatch(
                f"vertices mix coordinate dimensions {n} and {p.size}"
            )
    arr = np.vstack(pts)
    m = len(pts) - 1
    if n < m:
        raise Degenerate(
            f"{m + 1} points in R^{n} cannot be affinely independent"
        )
    check_range(arr)
    sv = np.linalg.svd(np.linalg.qr((arr[1:] - arr[0]).T, mode="r"), compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise Degenerate(
            "vertices are affinely dependent within tolerance "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    if sv[-1] ** 2 < (m + 1) * np.finfo(float).tiny:
        raise Underflow(f"simplex too small: singular value {sv[-1]:.3e} underflows when squared")
    return Simplex(arr)


def validation_outcome(validate, vertices):
    """The error class and message, or the vertex array down to its bytes."""
    try:
        v = validate(vertices).vertices
    except Exception as exc:  # the suite turns RuntimeWarnings into errors too
        return type(exc), str(exc)
    return v.shape, v.dtype, v.flags.c_contiguous, v.flags.writeable, v.tobytes()


TRIANGLE = [[0, 0], [1, 0], [0, 1]]
NAN, INF = float("nan"), float("inf")

# (id, nested lists, dtype of the ndarray form); an ndarray that numpy
# cannot build from the lists with that dtype is left out.
HOSTILE_ROWS = [
    ("float", [[0.5, -0.0], [1.25, 0.1], [-0.3, 1.7]], float),
    ("float-r4", [[0.1, 0.2, 0.3, 0.4], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.7]], float),
    ("int", [[0, 0, 3], [7, 0, 1], [0, -5, 2]], np.int64),
    ("uint8", [[0, 0], [255, 0], [0, 3]], np.uint8),
    ("bool", [[False, False], [True, False], [False, True]], bool),
    ("float32", [[0.1, 0.2], [1.3, 0.0], [0.0, 1.7]], np.float32),
    ("float16", [[0.1, 0.2], [1.3, 0.0], [0.0, 1.7]], np.float16),
    ("object-numbers", [[0, 0.5], [1, 0], [0, 1]], object),
    ("object-string", [[0, 0], [1, "a"], [0, 1]], object),
    ("object-numeric-string", [[0, 0], [1, "2.5"], [0, 1]], object),
    ("object-complex", [[0, 0], [1, 1 + 0j], [0, 1]], object),
    ("object-dict", [[0, 0], [1, {}], [0, 1]], object),
    ("object-decimal", [[0, 0], [1, Decimal("2.5")], [0, 1]], object),
    ("nested", [[0, 0], [1, [2, 3]], [0, 1]], object),
    ("scalar", 5.0, float),
    ("object-none", [[0, 0], [1, None], [0, 1]], object),
    ("object-big-int", [[0, 0], [10**400, 0], [0, 1]], object),
    ("object-big-int-fits", [[0, 0], [10**30, 0], [0, 10**30]], object),
    ("strings", [["0", "0"], ["1", "0"], ["0", "1.5"]], str),
    ("bad-strings", [["0", "0"], ["1", "x"], ["0", "1"]], str),
    ("complex-real", TRIANGLE, complex),
    ("complex", [[0, 0], [1, 1j], [0, 1]], complex),
    ("int-inexact", [[0, 0], [2**53 + 1, 0], [0, 2**60 + 3]], np.int64),
    ("segment", [[0.0], [2.5]], float),
    ("1-d", [0.0, 1.0, 2.0], float),
    ("3-d", [[[0, 0]], [[1, 0]], [[0, 1]]], float),
    ("empty-rows", [[], [], []], float),
    ("no-rows", [], float),
    ("one-row", [[1.0, 2.0]], float),
    ("one-scalar-row", [[1.0]], float),
    ("ragged", [[0, 0], [1, 0, 0], [0, 1]], None),
    ("ragged-first", [[0, 0, 0], [1, 0], [0, 1]], None),
    ("ragged-empty", [[0, 0], [], [0, 1]], None),
    ("nan", [[0, 0], [NAN, 0], [0, 1]], float),
    ("inf-last", [[0, 0], [1, 0], [0, -INF]], float),
    ("nan-and-ragged", [[0, NAN], [1, 0, 0], [0, 1]], None),
    ("n-below-m", [[0, 0], [1, 0], [0, 1], [1, 1]], float),
    ("points-on-line", [[0], [1], [2]], float),
    ("overflow", [[-1e308, 0], [1e308, 0], [0, 1]], float),
    ("overflow-squared", [[0, 0], [1e155, 0], [0, 1e155]], float),
    ("underflow", [[0, 0], [1e-170, 0], [0, 1e-170]], float),
    ("sv-underflow", [[0, 0], [1e-153, 0], [0, 5e-155]], float),
    ("far-off", [[1e300, 1e300], [1e300 + 2e284, 1e300], [1e300, 1e300 + 2e284]], float),
    ("rank-deficient", [[0, 0], [1, 1], [2, 2]], float),
    ("rank-deficient-int", [[0, 0, 0], [1, 1, 1], [3, 3, 3]], np.int64),
    ("near-degenerate", [[0, 0], [1, 0], [0.5, 1e-12]], float),
    ("coincident", [[1, 1], [1, 1]], float),
]


def hostile_arrays():
    """Inputs that only exist as arrays: layouts, dtypes and subclasses."""
    big = np.arange(24, dtype=float).reshape(4, 6) ** 1.5
    ld = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.longdouble)
    ld[1, 0] = np.longdouble("1e400")
    return [
        ("fortran", np.asfortranarray([[0.5, 1.0, 2.0], [3.0, 0.25, 1.0], [2.0, 2.0, 7.0]])),
        ("strided", big[::2, ::3]),
        ("reversed", np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])[::-1]),
        ("zero-by-n", np.zeros((0, 3))),
        ("k-by-zero", np.zeros((3, 0))),
        ("big-endian", np.array([[0, 0], [1, 0], [0, 1.5]], dtype=">f8")),
        ("uint64-huge", np.array([[0, 0], [2**64 - 1, 0], [0, 1]], dtype=np.uint64)),
        ("longdouble", np.array([[0, 0], [1, 0], [0, 1]], dtype=np.longdouble) / 3),
        ("longdouble-overflow", ld),
        ("masked", np.ma.array([[0.0, 0.0], [NAN, 0.0], [0.0, 1.0]], mask=[[0, 0], [1, 0], [0, 0]])),
        ("0-d", np.array(1.0)),
        ("datetime", np.zeros((3, 2), dtype="m8[s]")),
    ]


def hostile_inputs():
    for name, rows, dtype in HOSTILE_ROWS:
        yield f"{name}-lists", rows
        if dtype is not None:
            yield f"{name}-array", np.array(rows, dtype=dtype)
        else:  # numpy holds ragged rows only as an object array of lists
            arr = np.empty(len(rows), dtype=object)
            arr[:] = rows
            yield f"{name}-array", arr
    yield from hostile_arrays()


def edges_with_ratio(rng, m, n, ratio):
    """m+1 vertices around an offset of up to 1e3 whose n x m edge matrix
    has singular values from 1 down to ``ratio``, times a random scale."""
    u, _ = np.linalg.qr(rng.normal(size=(n, m)))
    v, _ = np.linalg.qr(rng.normal(size=(m, m)))
    sv = np.sort(np.exp(rng.uniform(math.log(ratio), 0.0, m)))[::-1]
    sv[0], sv[-1] = 1.0, ratio
    edges = 10.0 ** rng.uniform(0.0, 2.0) * (u * sv) @ v.T
    return rng.uniform(-1e3, 1e3, n) + np.vstack([np.zeros(n), edges.T])


@pytest.mark.parametrize("m", range(2, 11))
def test_rank_rule(m):
    """The rank test reads the singular values of the m x m edge factor R.
    They are those of the n x m edge matrix E = QR, so both give the same
    decision a hair away from RANK_RTOL.  (A segment has one singular value,
    so its ratio is 1.)"""
    rng = np.random.default_rng(2700 + m)
    for n in (m, m + 1, m + 3):
        for _ in range(20):
            for factor, degenerate in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
                vertices = edges_with_ratio(rng, m, n, RANK_RTOL * factor)
                sv = np.linalg.svd(vertices[1:] - vertices[0], compute_uv=False)
                assert (sv[-1] <= RANK_RTOL * sv[0]) == degenerate
                if degenerate:
                    with pytest.raises(Degenerate):
                        validate_simplex(vertices)
                else:
                    validate_simplex(vertices)


class TestValidateMatchesReference:
    @pytest.mark.parametrize("vertices", [pytest.param(v, id=name) for name, v in hostile_inputs()])
    def test_same_error_or_same_bits(self, vertices):
        want = validation_outcome(reference_validate_simplex, vertices)
        got = validation_outcome(validate_simplex, vertices)
        assert got == want

    def test_table_covers_errors_and_successes(self):
        kinds = {
            validation_outcome(reference_validate_simplex, vertices)[0]
            for _, vertices in hostile_inputs()
        }
        for cls in (
            InvalidPoint, TooFewPoints, DimensionMismatch, Degenerate, OverflowError,
            Underflow, RuntimeWarning,
        ):
            assert any(isinstance(k, type) and issubclass(k, cls) for k in kinds), cls
        # No input that is not a list of real coordinate lists escapes the gate
        # as a bare ValueError or TypeError.
        assert not kinds & {ValueError, TypeError}
        assert any(isinstance(k, tuple) for k in kinds)  # shapes of valid simplices

    def test_random_arrays(self, mixed_corpus):
        rng = np.random.default_rng(1702)
        for s in mixed_corpus[:200]:
            shift = rng.uniform(-1e6, 1e6, s.n)
            for vertices in (s.vertices, s.vertices + shift, s.vertices.T.copy().T):
                want = validation_outcome(reference_validate_simplex, vertices)
                assert validation_outcome(validate_simplex, vertices) == want
                assert validation_outcome(validate_simplex, vertices.tolist()) == want


# Inputs whose coordinates are strings, complex numbers, times or objects
# that are not numbers.Real, such as Decimal: as_point refuses each, rather
# than parsing it, dropping its imaginary part or reading it as a count.
NOT_REAL = [
    "strings-lists", "strings-array", "bad-strings-lists", "bad-strings-array",
    "object-string-lists", "object-string-array", "object-numeric-string-lists",
    "object-numeric-string-array", "object-complex-lists", "object-complex-array",
    "object-dict-lists", "object-dict-array", "object-decimal-lists",
    "object-decimal-array", "nested-array",
    "complex-lists", "complex-array", "complex-real-array", "datetime",
]


@pytest.mark.parametrize("name", NOT_REAL)
def test_coordinates_that_are_not_real_raise_invalid_point(name):
    vertices = dict(hostile_inputs())[name]
    assert validation_outcome(validate_simplex, vertices) == (
        InvalidPoint, "point coordinates must be real numbers"
    )
    for point_set in POINT_SET_FUNCTIONS.values():
        assert point_set_outcome(point_set, vertices) == (
            InvalidPoint, "point coordinates must be real numbers"
        )


@pytest.mark.parametrize("name", ["nested-lists", "scalar-lists", "scalar-array", "0-d"])
def test_rows_that_are_not_coordinate_lists_raise_invalid_point(name):
    vertices = dict(hostile_inputs())[name]
    want = (InvalidPoint, "a point must be a non-empty 1-D coordinate list")
    assert validation_outcome(validate_simplex, vertices) == want
    for point_set in POINT_SET_FUNCTIONS.values():
        assert point_set_outcome(point_set, vertices) == want


def _width(rows) -> int:
    """The coordinate count of rows that the gate admits, else 1: the
    subset bounds need an n, and check the rows before they check it."""
    try:
        return max(as_points(rows).shape[1], 1)
    except Exception:
        return 1


POINT_SET_FUNCTIONS = {
    "exact_meb": exact_meb,
    "set_barycentric_circumradius": lambda rows: set_barycentric_circumradius(rows, _width(rows)),
    "blumenthal_wahlin_check": lambda rows: blumenthal_wahlin_check(rows, _width(rows)),
}

# Checks that apply to simplices alone: a point set may pass them or fail
# them differently, once the coordinate gate has admitted its rows.
SIMPLEX_ONLY = (TooFewPoints, Degenerate, Underflow, OverflowError)
# How a point set may end once the gate has admitted its rows.
POINT_SET_ONLY = (EmptyInput, TooFewPoints, Underflow)


def point_set_outcome(point_set, rows):
    """The error class and message, or None when the function returns."""
    try:
        point_set(rows)
    except Exception as exc:  # the suite turns RuntimeWarnings into errors too
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("function", sorted(POINT_SET_FUNCTIONS))
@pytest.mark.parametrize("rows", [pytest.param(v, id=name) for name, v in hostile_inputs()])
def test_point_sets_pass_the_simplex_gate(rows, function):
    """Each point-set function raises validate_simplex's error, class and
    message, or the simplex fails only at a check of simplices alone."""
    want = validation_outcome(validate_simplex, rows)
    got = point_set_outcome(POINT_SET_FUNCTIONS[function], rows)
    if got == want:
        return
    assert len(want) == 5 or issubclass(want[0], SIMPLEX_ONLY), (want, got)
    assert got is None or issubclass(got[0], POINT_SET_ONLY), (want, got)


def test_gate_shapes():
    assert as_points([]).shape == as_points(np.zeros((0, 3))).shape == (0, 0)
    parsed = np.array([[0.0, 1.0], [2.0, 3.0]])  # as fileio passes rows
    assert as_points(parsed) is parsed


def test_real_coordinates_of_every_kind_convert():
    for coords, want in (
        ([True, 2], [1.0, 2.0]),
        (np.array([3, 4], dtype=np.uint16), [3.0, 4.0]),
        (np.array([0.5, 10**30], dtype=object), [0.5, 1e30]),
        (np.array([0.25], dtype=np.float32), [0.25]),
    ):
        p = as_point(coords)
        assert p.dtype == np.float64 and p.tolist() == want


class TestEdgeProfile:
    def test_corner_triangle_lengths(self):
        s = validate_simplex([(0, 0), (2, 0), (0, 2)])
        prof = edge_profile(s)
        assert prof.lengths[(0, 1)] == 2.0
        assert prof.lengths[(0, 2)] == 2.0
        assert prof.lengths[(1, 2)] == pytest.approx(2 * math.sqrt(2), abs=0)
        assert prof.diam == pytest.approx(2 * math.sqrt(2), abs=0)
        assert prof.diam_edge == (1, 2)
        assert prof.shor == 2.0
        assert prof.shor_edge == (0, 1)

    def test_segment(self):
        prof = edge_profile(validate_simplex([[0.0], [3.0]]))
        assert np.array_equal(prof.lengths, [[0.0, 3.0], [3.0, 0.0]])
        assert prof.diam == prof.shor == 3.0

    def test_tie_break_lexicographic(self):
        # Both long edges measure exactly 5.0, so the smaller pair wins;
        # the two legs of the corner triangle tie at exactly 2.0 likewise.
        prof = edge_profile(validate_simplex([(0, 0), (3, 4), (4, 3)]))
        assert prof.lengths[(0, 1)] == prof.lengths[(0, 2)] == 5.0
        assert prof.diam_edge == (0, 1)
        prof = edge_profile(validate_simplex([(0, 0), (2, 0), (0, 2)]))
        assert prof.shor_edge == (0, 1)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 8))
            s = random_simplex(rng, m, n)
            q, shift = random_rigid_motion(rng, n)
            moved = validate_simplex(s.vertices @ q.T + shift)
            a = edge_profile(s)
            b = edge_profile(moved)
            assert b.lengths == pytest.approx(a.lengths, rel=1e-9)
            assert b.diam == pytest.approx(a.diam, rel=1e-9)
            assert b.shor == pytest.approx(a.shor, rel=1e-9)


    def test_inf_diagonal_mask_is_shared_and_read_only(self):
        mask = _inf_diagonal(4)
        assert mask is _inf_diagonal(4)
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.where(np.eye(4, dtype=bool), math.inf, 0.0))

    def test_extremal_edges_leaves_its_matrix_alone(self):
        lengths = np.sqrt(np.array([[0.0, 4.0, 9.0], [4.0, 0.0, 9.0], [9.0, 9.0, 0.0]]))
        before = lengths.copy()
        assert extremal_edges(lengths) == (3.0, 2.0, (0, 2), (0, 1))
        assert np.array_equal(lengths, before)
        lengths[0, 1] = lengths[1, 0] = math.inf
        with pytest.raises(OverflowError):
            extremal_edges(lengths)


class TestBarycenterAndFaces:
    def test_corner_triangle_barycenter(self):
        s = validate_simplex([(0, 0), (2, 0), (0, 2)])
        assert barycenter(s) == pytest.approx([2 / 3, 2 / 3])

    def test_regular_centered_at_origin(self):
        s = regular_simplex(4, 6, 2.0)
        assert np.allclose(barycenter(s), 0.0, atol=1e-14)

    def test_barycenter_is_vertex_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_simplex(rng, int(rng.integers(1, 7)), 8)
            assert np.allclose(barycenter(s), np.mean(s.vertices, axis=0), atol=0)

    def test_stacked_centroids_match_one_at_a_time(self):
        rng = np.random.default_rng(17)
        for m in range(1, 14):
            path = rng.standard_normal((9, m + 1, m)) * 10.0 ** rng.integers(-8, 9, (9, 1, 1))
            path += rng.standard_normal(m) * 1e3
            centers = centroid(path)
            for points, center in zip(path, centers):
                one = points[0] + (points[1:] - points[0]).sum(axis=0) / len(points)
                assert np.array_equal(center, one)
                assert np.array_equal(centroid(points), one)

    def test_face_centroids(self):
        s = validate_simplex([(0, 0), (2, 0), (0, 2)])
        assert face_centroid(s, 0) == pytest.approx([1, 1])
        assert face_centroid(s, 1) == pytest.approx([0, 1])
        with pytest.raises(IndexOutOfRange):
            face_centroid(s, 3)

    def test_face_centroid_matches_sub_face_barycenter(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            s = random_simplex(rng, m, m + 2)
            for i in range(m + 1):
                assert np.allclose(
                    face_centroid(s, i), barycenter(sub_face(s, {i})), atol=1e-13
                )

    def test_sub_face(self):
        s = validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        f = sub_face(s, {1, 3})
        assert np.array_equal(f.vertices, [[0, 0, 0], [0, 1, 0]])
        with pytest.raises(TooFewPoints):
            sub_face(s, {0, 1, 2})
        with pytest.raises(IndexOutOfRange):
            sub_face(s, {9})


class TestRegularSimplex:
    def test_unit_triangle_edges(self):
        prof = edge_profile(regular_simplex(2, 2, 1.0))
        assert np.all(np.abs(prof.lengths[np.triu_indices(3, 1)] - 1.0) < 1e-14)

    def test_edge_spread_tight(self):
        for m, n, diam in [(1, 1, 1.0), (2, 5, 2.0), (3, 3, 1.0), (7, 12, 0.25), (8, 8, 3.0)]:
            prof = edge_profile(regular_simplex(m, n, diam))
            assert edge_spread(prof) <= 1e-12
            assert prof.diam == pytest.approx(diam, rel=1e-12)

    def test_padding_is_zero(self):
        s = regular_simplex(2, 6, 1.0)
        assert np.all(s.vertices[:, 2:] == 0.0)

    def test_bad_arguments(self):
        with pytest.raises(InvalidDimension):
            regular_simplex(0, 1, 1.0)
        with pytest.raises(InvalidDimension):
            regular_simplex(3, 2, 1.0)
        with pytest.raises(InvalidDimension):
            regular_simplex(2, 2, -1.0)

    def test_require_regular(self):
        require_regular(regular_simplex(3, 4, 1.0))
        with pytest.raises(NotRegular):
            require_regular(validate_simplex([(0, 0), (2, 0), (0, 2)]))


class TestVolume:
    def test_corner_triangle(self):
        assert volume(validate_simplex([(0, 0), (1, 0), (0, 1)])) == pytest.approx(0.5)

    def test_unit_tetrahedron(self):
        s = validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert volume(s) == pytest.approx(1 / 6)

    def test_matches_determinant(self):
        # |det E| / m! from the edge matrix's LU, against the product of the
        # QR factor's diagonal that volume reads.
        rng = np.random.default_rng(2701)
        for m in range(1, 11):
            for _ in range(30):
                s = random_simplex(rng, m, m)
                det = abs(np.linalg.det(s.vertices[1:] - s.vertices[0])) / math.factorial(m)
                assert volume(s) == pytest.approx(det, rel=1e-12, abs=0.0)

    def test_needs_full_dimension(self):
        with pytest.raises(NotFullDimensional, match="m=2, n=3"):
            volume(validate_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)]))


@st.composite
def seeded_simplices(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 9))
    return random_simplex(rng, m, n)


@settings(max_examples=40, deadline=None)
@given(seeded_simplices())
def test_diam_dominates_every_length(s: Simplex):
    prof = edge_profile(s)
    upper = prof.lengths[np.triu_indices(s.m + 1, 1)]
    assert np.all((prof.shor <= upper) & (upper <= prof.diam))
    assert prof.lengths.shape == (s.m + 1, s.m + 1)
    assert np.array_equal(prof.lengths, prof.lengths.T)
    assert np.all(np.diag(prof.lengths) == 0.0)
    assert not prof.lengths.flags.writeable


def test_edge_profile_matches_pair_scan(mixed_corpus):
    """The matrix-based profile equals a lexicographic scan of the pairs.

    The origin plus the standard basis of R^k has exact ties among both
    its longest and its shortest edges.
    """
    corners = [validate_simplex(np.vstack([np.zeros(k), np.eye(k)])) for k in range(1, 7)]
    for s in list(mixed_corpus[:300]) + corners:
        prof = edge_profile(s)
        gaps = s.vertices[:, None, :] - s.vertices[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", gaps, gaps))
        diam = shor = dist[0, 1]
        diam_edge = shor_edge = (0, 1)
        for i in range(s.m + 1):
            for j in range(i + 1, s.m + 1):
                d = float(dist[i, j])
                assert prof.lengths[i, j] == prof.lengths[j, i] == d
                if d > diam:
                    diam, diam_edge = d, (i, j)
                if d < shor:
                    shor, shor_edge = d, (i, j)
        assert (prof.diam, prof.diam_edge) == (diam, diam_edge)
        assert (prof.shor, prof.shor_edge) == (shor, shor_edge)


@pytest.mark.parametrize(
    "m, n, coord_range",
    [(2, 3, -1.0), (2, 3, math.nan), (2, 3, math.inf), (0, 3, 10.0), (4, 3, 10.0)],
    ids=["negative-range", "nan-range", "inf-range", "m-zero", "n-below-m"],
)
def test_random_simplex_checks_its_arguments(m, n, coord_range):
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidDimension):
        random_simplex(rng, m, n, coord_range)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw


class StubDraws:
    """Stands in for a generator: its first ``degenerate`` draws put every
    vertex on one line, and later draws are a seeded generator's."""

    def __init__(self, degenerate):
        self.degenerate, self.calls, self.rng = degenerate, 0, np.random.default_rng(3)

    def uniform(self, low, high, size):
        self.calls += 1
        if self.calls <= self.degenerate:
            return np.outer(np.arange(size[0]), np.ones(size[1]))
        return self.rng.uniform(low, high, size=size)


def test_random_simplex_resamples_a_degenerate_draw():
    stub = StubDraws(degenerate=3)
    s = random_simplex(stub, 2, 3)
    want = np.random.default_rng(3).uniform(-10.0, 10.0, size=(3, 3))
    assert stub.calls == 4 and np.array_equal(s.vertices, want)


def test_random_simplex_gives_up_after_64_degenerate_draws():
    stub = StubDraws(degenerate=math.inf)
    with pytest.raises(Degenerate, match="in 64 tries"):
        random_simplex(stub, 2, 3)
    assert stub.calls == 64
