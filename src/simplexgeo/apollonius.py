"""Median lengths and related identities computed from edge lengths alone.

The central quantity is the per-vertex radicand

    m * sum of squared edges at vertex i
      - sum of squared edges of the face opposite vertex i

whose square root yields, after scaling, the median length, the distance
from the barycenter to vertex i, and the distance from the barycenter to
the opposite face centroid.  Every function that reports a residual
evaluates the two sides through independent routes: one through edge
lengths only, the other through coordinates.  The coordinate routes take
their differences in the simplex's frame, the offsets v_i - v_0, its face
centroids and its barycenter offset, so where the simplex lies does not
round them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Simplex, check_index, face_centroids, require_regular
from .errors import IndexOutOfRange


@dataclass(frozen=True)
class MedianReport:
    """Median lengths plus the squared-sum identities of one simplex.

    ``median_lengths`` come from the edge-length formula while the three
    sums are accumulated from direct coordinates, so comparing them
    exercises two independent computation routes.
    """

    median_lengths: list
    apollonius_residuals: list
    sum_squares_medians: float
    sum_squares_center_to_vertices: float
    sum_squares_edges: float


@lru_cache(maxsize=32)
def _upper(k: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a k x k matrix."""
    mask = ~np.tri(k, dtype=bool)
    mask.setflags(write=False)
    return mask


def radicands(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex radicands from a squared-distance matrix: (floored, raw).

    Entry i of ``raw`` is m times the squared edges at vertex i minus the
    squared edges of the face opposite vertex i.  By the generalized
    Apollonius theorem it equals m^2 times the squared median from vertex
    i, so it is never negative for real vertices and needs no sign test:
    rounding can leave a raw value only slightly negative, and the first
    array floors it at zero.  Raises OverflowError when a raw radicand is
    not finite, as its sums reach (m+1)^2 times the largest squared edge.
    """
    m = sq.shape[0] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        total = sq[_upper(m + 1)].sum()
        rows = sq.sum(axis=1)
        raw = m * rows - (total - rows)
    if not np.isfinite(raw).all():
        raise OverflowError("squared edge lengths overflow the float range")
    return np.maximum(raw, 0.0), raw


def vertex_radicand(s: Simplex, i: int) -> float:
    """Edge-length radicand for vertex i, floored at zero."""
    check_index(s, i)
    return float(s.radicand_pair[0][i])


def median_length(s: Simplex, i: int) -> float:
    """Length of the median from vertex i to the opposite face centroid.

    Computed from edge lengths only; no coordinate differences against the
    face centroid are taken.
    """
    return math.sqrt(vertex_radicand(s, i)) / s.m


def apollonius_residual(s: Simplex, i: int) -> float:
    """Defect of the squared-median identity at vertex i.

    The median term is measured directly from coordinates, so a residual
    near zero certifies the edge-length route against an independent one.
    """
    check_index(s, i)
    median = s.offsets[i] - face_centroids(s)[i]
    return float(s.radicand_pair[1][i]) - s.m**2 * float(median @ median)


def commandino_ratio(s: Simplex, i: int) -> tuple[float, float]:
    """Distances (barycenter to face centroid i, barycenter to vertex i).

    Both are measured from coordinates; the second equals m times the
    first, and the three points are collinear.
    """
    check_index(s, i)
    center = s.barycenter_offset
    to_face = center - face_centroids(s)[i]
    to_vertex = center - s.offsets[i]
    return float(np.linalg.norm(to_face)), float(np.linalg.norm(to_vertex))


def median_sums(s: Simplex) -> MedianReport:
    """Assemble the per-vertex medians and the aggregate squared sums.

    Raises OverflowError when a sum is not finite: a segment of length L has
    the median-square sum 2 L^2, which overflows for L above about 9.5e153
    while its radicands do not."""
    floored, raw = s.radicand_pair
    # One BLAS dot per row: einsum rounds some rows differently.
    median_squares = [float(med @ med) for med in s.offsets - face_centroids(s)]
    # sum() adds left to right, so these match a per-vertex running total
    # bit for bit; numpy's pairwise summation rounds differently.
    sums = (
        sum(median_squares),
        sum(float(g @ g) for g in s.barycenter_offset - s.offsets),
        float(s.sq_distances[_upper(s.m + 1)].sum()),
    )
    if not all(map(math.isfinite, sums)):
        raise OverflowError("squared edge lengths overflow the float range")
    return MedianReport(
        (np.sqrt(floored) / s.m).tolist(), (raw - s.m**2 * np.array(median_squares)).tolist(), *sums
    )


def pythagoras_regular_residual(s: Simplex, i: int, j: int) -> float:
    """Right-angle defect at the face centroid of a regular simplex.

    For equal edge lengths the segment from vertex i to its opposite face
    centroid and the segment from that centroid to any other vertex j form
    the legs of a right triangle whose hypotenuse is the edge (i, j).
    """
    check_index(s, i)
    check_index(s, j)
    if i == j:
        raise IndexOutOfRange("vertex indices i and j must differ")
    require_regular(s)
    centroid = face_centroids(s)[i]
    leg_a = s.offsets[i] - centroid
    leg_b = s.offsets[j] - centroid
    hyp = s.offsets[i] - s.offsets[j]
    return float(leg_a @ leg_a) + float(leg_b @ leg_b) - float(hyp @ hyp)


def carnot_regular_check(s: Simplex) -> tuple[float, float]:
    """Both sides of the centroid-distance sum identity for regular simplices.

    Returns (sum over i of |barycenter - face centroid i|, circumradius +
    inradius), where the radii are the barycenter-to-vertex and
    barycenter-to-face-centroid distances of the regular simplex.
    """
    require_regular(s)
    center = s.barycenter_offset
    gaps = [float(np.linalg.norm(g)) for g in center - face_centroids(s)]
    circum = float(np.linalg.norm(center))  # vertex 0 is the frame's origin
    return sum(gaps), circum + gaps[0]
