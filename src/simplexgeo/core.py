"""Simplex construction, validation, and edge-length bookkeeping.

An m-simplex is an ordered list of m+1 affinely independent vertices in
R^n with n >= m.  Vertex order is preserved everywhere: faces, children
of a bisection, and reports all index vertices the way the caller
supplied them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    Degenerate,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidPoint,
    NotFullDimensional,
    NotRegular,
    TooFewPoints,
    Underflow,
)

# Smallest singular value of the difference matrix must exceed this
# multiple of the largest: a relative test, which judges shape, not size.
RANK_RTOL = 1e-9

# Relative edge spread (diam - shor) / diam below which a simplex is
# treated as regular.
REGULAR_RTOL = 1e-9


# The entries of an object array that count as real coordinates.
_REAL = (numbers.Real, np.bool_)


def as_point(coords) -> np.ndarray:
    """Coerce to a finite 1-D float64 array with at least one coordinate.

    Coordinates must be real: bool, integer, float or, converted entry by
    entry, objects that are real numbers (``numbers.Real`` or numpy bools).
    Strings, complex numbers, times and any other object, even one that
    converts to float such as ``decimal.Decimal``, raise InvalidPoint rather
    than being parsed, truncated or read as counts; so do scalars and nested
    lists, which are not 1-D coordinate lists.
    """
    try:
        p = np.asarray(coords)
    except ValueError:  # lists nested to uneven depths
        raise InvalidPoint("a point must be a non-empty 1-D coordinate list") from None
    if p.dtype.kind not in "biufO" or p.dtype == object and not all(isinstance(x, _REAL) for x in p.flat):
        raise InvalidPoint("point coordinates must be real numbers")
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidPoint("a point must be a non-empty 1-D coordinate list")
    if not np.all(np.isfinite(p)):
        raise InvalidPoint("point coordinates must be finite")
    return p


def as_points(rows) -> np.ndarray:
    """The one coordinate gate of simplices and point sets: a finite (N, n)
    float64 C array by as_point's rule, or DimensionMismatch for rows of
    mixed lengths; no rows give a (0, 0) array.  A real 2-D ndarray is
    checked whole, in at most one float copy; anything else, or an array
    with an entry that is not finite as a float, row by row, so that every
    error is the one as_point raises."""
    real = type(rows) is np.ndarray and rows.ndim == 2 and rows.dtype.kind in "biuf"
    arr = np.asarray(rows, dtype=float, order="C") if real and rows.size else None
    if arr is None or not np.isfinite(arr).all():
        pts = [as_point(v) for v in (rows if np.iterable(rows) else [rows])]
        for p in pts[1:]:
            if p.size != pts[0].size:
                raise DimensionMismatch(f"vertices mix coordinate dimensions {pts[0].size} and {p.size}")
        arr = np.array(pts) if pts else np.empty((0, 0))
    return arr


@dataclass(frozen=True, eq=False)
class Simplex:
    """Ordered vertices of a validated m-simplex, stored as an (m+1, n) array.

    The quantities the reports share (offsets, sq_distances, radicand_pair,
    profile, barycenter_offset, edge_factor and inverse_altitudes) are
    formed on first use, once per simplex, and kept read-only:
    ``cached_property`` writes the instance dict directly, which the frozen
    dataclass allows.  The offsets are the one frame of the coordinate
    routes: each takes its differences there, so where the simplex lies
    rounds none of them, and v_0 is added back only to a reported position.
    A simplex from validate_simplex already holds its edge_factor, which
    the rank test formed.  Simplices compare and hash by identity, as each
    carries its own caches; ``np.array_equal(s.vertices, t.vertices)``
    compares their vertices.
    """

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(np.array(self.vertices, dtype=float)))

    @property
    def m(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def offsets(self) -> np.ndarray:
        """The frame v_i - v_0 of every vertex, row 0 zero."""
        return _read_only(self.vertices - self.vertices[0])

    @cached_property
    def sq_distances(self) -> np.ndarray:
        """The squared_distance_matrix of the vertices."""
        return _read_only(squared_distance_matrix(self))

    @cached_property
    def radicand_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The (floored, raw) per-vertex radicands of sq_distances."""
        from . import apollonius  # which imports this module

        floored, raw = apollonius.radicands(self.sq_distances)
        return _read_only(floored), _read_only(raw)

    @cached_property
    def profile(self) -> EdgeProfile:
        """The edge_profile of the simplex."""
        return edge_profile(self)

    @cached_property
    def barycenter_offset(self) -> np.ndarray:
        """Equal-weight average of the vertices, as an offset to v_0."""
        return _read_only(centroid(self.offsets))

    @cached_property
    def edge_factor(self) -> np.ndarray:
        """Upper triangular R of (v_1 - v_0, ..., v_m - v_0) = QR, without Q:
        the one factorization of the edges, which the rank test, volume and
        inverse_altitudes read."""
        return _read_only(np.linalg.qr(self.offsets[1:].T, mode="r"))

    @cached_property
    def inverse_altitudes(self) -> np.ndarray:
        """1/h_i for every vertex i, h_i the altitude from vertex i.

        With (v_1 - v_0, ..., v_m - v_0) = QR, R the edge_factor, the
        barycentric coordinates of a point x of the affine hull are
        lambda_{1..m} = R^-1 Q^T (x - v_0).  So the rows of R^-1 are the
        gradients of lambda_1..lambda_m in the basis Q, the gradient of
        lambda_0 is minus their sum, and the norm of the gradient of
        lambda_i is 1/h_i.
        """
        inverse = np.linalg.inv(self.edge_factor)
        return _read_only(np.linalg.norm(np.vstack([-inverse.sum(axis=0), inverse]), axis=1))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class EdgeProfile:
    """All pairwise edge lengths of a simplex plus the extremal edges.

    ``lengths`` is the read-only symmetric (m+1, m+1) matrix of vertex
    distances with a zero diagonal, so the edge (i, j) is ``lengths[i, j]``.
    Ties for the longest or shortest edge resolve to the lexicographically
    smallest index pair so downstream consumers are deterministic.
    """

    lengths: np.ndarray = field(repr=False)
    diam: float
    shor: float
    diam_edge: tuple
    shor_edge: tuple


def check_index(s: Simplex, i: int) -> None:
    if not isinstance(i, (int, np.integer)) or not 0 <= i <= s.m:
        raise IndexOutOfRange(f"vertex index {i!r} outside 0..{s.m}")


def check_int(name: str, value, low: int) -> None:
    """Raise InvalidDimension unless ``value`` is an integer >= low."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidDimension(f"{name} must be an integer >= {low}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise InvalidDimension unless ``value`` is a positive finite real."""
    if not (isinstance(value, (int, float, np.integer, np.floating)) and 0 < value < math.inf):
        raise InvalidDimension(f"{name} must be a positive finite real, got {value!r}")


def check_range(pts: np.ndarray) -> None:
    """Raise OverflowError, or Underflow for rows not all equal, when their
    squared distances overflow or underflow the float range, as judged by
    the squared diagonal of their bounding box, which bounds them all."""
    with np.errstate(over="ignore"):  # an overflow shows up as a non-finite diagonal
        extent = pts.max(axis=0) - pts.min(axis=0)
        box2 = float(extent @ extent)
    if not math.isfinite(box2):
        raise OverflowError("squared point distances overflow the float range")
    if extent.any() and box2 < np.finfo(float).tiny:
        raise Underflow("squared point distances underflow the float range")


def validate_simplex(vertices) -> Simplex:
    """Build a Simplex after checking shape, finiteness, range and affine rank.

    Raises the errors of as_points, TooFewPoints, the errors of check_range,
    Degenerate when the edge matrix has a singular value <= RANK_RTOL times
    its largest, and Underflow when the smallest, sv, has sv**2 below (m+1)
    times the smallest normal float.  Edges are >= sv and inverse altitudes
    <= sqrt(m)/sv, so then their squares are in range.  The singular values
    are those of the m x m edge_factor R, since the edge matrix is QR with
    orthonormal Q: one QR of the n x m matrix and one SVD of R, and the
    simplex returned keeps R.
    """
    arr = as_points(vertices)
    if len(arr) < 2:
        raise TooFewPoints("a simplex needs at least 2 vertices")
    m, n = len(arr) - 1, arr.shape[1]
    if n < m:
        raise Degenerate(
            f"{m + 1} points in R^{n} cannot be affinely independent"
        )
    check_range(arr)
    s = Simplex(arr)
    sv = np.linalg.svd(s.edge_factor, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise Degenerate(
            "vertices are affinely dependent within tolerance "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    if sv[-1] ** 2 < (m + 1) * np.finfo(float).tiny:
        raise Underflow(f"simplex too small: singular value {sv[-1]:.3e} underflows when squared")
    return s


def edge_profile(s: Simplex) -> EdgeProfile:
    """Compute every edge length and the extremal edges of a simplex.

    Raises OverflowError when a squared edge length exceeds the float range.
    """
    lengths = np.sqrt(s.sq_distances)
    return EdgeProfile(_read_only(lengths), *extremal_edges(lengths))


def extremal_edges(lengths: np.ndarray) -> tuple:
    """(diam, shor, diam_edge, shor_edge) of a symmetric edge-length matrix.

    The first extremum in row-major order lies above the diagonal and is
    the lexicographically smallest such pair.  Raises OverflowError when
    the longest edge is infinite.
    """
    k = len(lengths)
    hi = int(lengths.argmax())
    lo = int((lengths + _inf_diagonal(k)).argmin())
    diam = lengths.item(hi)
    if diam == math.inf:
        raise OverflowError("squared edge lengths overflow the float range")
    return diam, lengths.item(lo), divmod(hi, k), divmod(lo, k)


@lru_cache(maxsize=32)
def _inf_diagonal(k: int) -> np.ndarray:
    """Read-only (k, k) matrix, inf on the diagonal and 0 elsewhere: added to
    the lengths, it leaves only the edges for the minimum."""
    return _read_only(np.diag(np.full(k, math.inf)))


def squared_distance_matrix(s: Simplex) -> np.ndarray:
    """Symmetric (m+1, m+1) matrix of squared vertex distances."""
    v = s.vertices
    gaps = v[:, None] - v
    return np.einsum("ijk,ijk->ij", gaps, gaps)


def centroid(points: np.ndarray) -> np.ndarray:
    """Mean of the rows, summed as offsets to the first row, so that where
    the set lies can neither overflow the sum nor round away its shape.
    A stack of point sets, (..., rows, n), gives one mean per set."""
    first = points[..., 0, :]
    return first + (points[..., 1:, :] - first[..., None, :]).sum(axis=-2) / points.shape[-2]


def barycenter(s: Simplex) -> np.ndarray:
    """Equal-weight average of all vertices."""
    return s.vertices[0] + s.barycenter_offset


def face_centroids(s: Simplex) -> np.ndarray:
    """Barycenters of all m+1 faces, row i opposite vertex i, as offsets to
    vertex 0: (sum of the offsets - offset i) / m."""
    return (s.offsets.sum(axis=0) - s.offsets) / s.m


def face_centroid(s: Simplex, i: int) -> np.ndarray:
    """Barycenter of the face opposite vertex i: v_0 plus row i of
    face_centroids."""
    check_index(s, i)
    return s.vertices[0] + face_centroids(s)[i]


def sub_face(s: Simplex, drop) -> Simplex:
    """Face obtained by removing the vertices whose indices are in ``drop``.

    The surviving vertices keep their original relative order.
    """
    dropped = set()
    for i in drop:
        check_index(s, i)
        dropped.add(int(i))
    keep = [k for k in range(s.m + 1) if k not in dropped]
    if len(keep) < 2:
        raise TooFewPoints("a face needs at least 2 surviving vertices")
    return validate_simplex(s.vertices[keep])


def regular_simplex(m: int, n: int, diam: float) -> Simplex:
    """Regular m-simplex with edge length ``diam`` embedded in R^n.

    The m+1 scaled standard basis vectors of R^(m+1) are pairwise
    equidistant; they are re-expressed in an orthonormal basis of their
    affine hull (coordinates in R^m) and zero-padded to R^n.  The result
    is centered at the origin.
    """
    check_int("m", m, 1)
    check_int("n", n, m)
    check_positive("diam", diam)
    scaled = (float(diam) / math.sqrt(2.0)) * np.eye(m + 1)
    centered = scaled - scaled.mean(axis=0)
    # Rows of `centered` span an m-dimensional subspace; the first m right
    # singular vectors form an orthonormal basis of it.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    coords = centered @ vt[:m].T
    out = np.zeros((m + 1, n))
    out[:, :m] = coords
    return validate_simplex(out)


def edge_spread(profile: EdgeProfile) -> float:
    """Relative gap between the longest and shortest edge."""
    return (profile.diam - profile.shor) / profile.diam


def is_regular(profile: EdgeProfile) -> bool:
    """Whether the edges are equal within REGULAR_RTOL of the longest."""
    return edge_spread(profile) <= REGULAR_RTOL


def require_regular(s: Simplex) -> EdgeProfile:
    """Return the edge profile, raising NotRegular on unequal edges."""
    profile = s.profile
    if not is_regular(profile):
        raise NotRegular(
            f"edge spread {edge_spread(profile):.3e} exceeds {REGULAR_RTOL:.1e}"
        )
    return profile


def volume(s: Simplex) -> float:
    """Euclidean volume |det E| / m!, defined only for full-dimensional
    simplices: with E = QR, |det E| is the product of R's diagonal."""
    if s.m != s.n:
        raise NotFullDimensional(f"volume needs m == n, got m={s.m}, n={s.n}")
    return abs(float(np.prod(np.diag(s.edge_factor)))) / math.factorial(s.m)
