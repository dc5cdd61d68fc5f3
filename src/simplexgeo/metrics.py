"""Inradius, thickness, width bounds, and related comparison checks.

The inradius of the ball centered at the barycenter is the minimum
distance from the barycenter to the faces, each found by Wolfe's
nearest-point algorithm in time polynomial in the face size.  A cheaper
estimate replaces each exact face distance by the distance to the face
centroid, which can only overestimate.  Full-dimensional simplices
additionally get the true inradius from the facet-plane linear system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .apollonius import radicands
from .core import (
    REGULAR_RTOL,
    Simplex,
    barycenter,
    check_int,
    check_positive,
    edge_profile,
    edge_spread,
    regular_simplex,
    squared_distance_matrix,
    validate_simplex,
)
from .enclosing import exact_meb, jung_bound
from .errors import DimensionMismatch, NotFullDimensional

# Condition number above which the facet-plane system is flagged.
_INCENTER_COND_LIMIT = 1e8

# Optimality slack of the nearest-point search, relative to the squared
# largest vertex distance, and its cycle cap per vertex.
_WOLFE_RTOL = 1e-12
_WOLFE_MAX_CYCLES = 50


@dataclass(frozen=True)
class MetricsReport:
    """Inradius-style quantities of one simplex.

    ``exact_inradius`` and ``exact_incenter`` are filled only for
    full-dimensional input (m == n) and are None otherwise.
    """

    barycentric_inradius: float
    barycentric_inradius_estimate: float
    thickness: float
    thickness_estimate: float
    exact_inradius: float | None
    exact_incenter: np.ndarray | None
    diam: float
    shor: float


def _hull_weights(p: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Convex weights w such that w @ verts is the hull point nearest p.

    Wolfe's algorithm (Math. Programming 11, 1976) on q_j = v_j - p, with
    x the current point minus p.  A major cycle adds the vertex that most
    violates the optimality test (p - x).(v_j - x) <= 0, read here as
    ||x||^2 - x.q_j <= tol with tol relative to max ||q_j||^2.  A minor
    cycle projects onto the affine hull of the active set; when a weight
    turns nonpositive it steps back to the set's hull and drops the vertex
    whose weight reached zero.  Reaching the major-cycle cap raises
    ArithmeticError rather than returning a point that failed the test.
    """
    k = verts.shape[0]
    q = verts - p
    norms = np.einsum("ij,ij->i", q, q)
    tol = _WOLFE_RTOL * float(norms.max())
    active = np.array([np.argmin(norms)])
    w = np.ones(1)
    for _ in range(_WOLFE_MAX_CYCLES * k):
        x = w @ q[active]
        gap = x @ x - q @ x
        gap[active] = -math.inf
        j = int(np.argmax(gap))
        if gap[j] <= tol:
            weights = np.zeros(k)
            weights[active] = w
            return weights
        active = np.append(active, j)
        w = np.append(w, 0.0)
        while True:
            rows = q[active]
            coef, *_ = np.linalg.lstsq((rows[1:] - rows[0]).T, -rows[0], rcond=None)
            v = np.concatenate(([1.0 - coef.sum()], coef))
            if np.all(v > 0.0):
                w = v
                break
            # Largest step from w toward v that keeps every weight >= 0.
            down = v <= 0.0
            ratios = np.where(down, w / np.where(w > v, w - v, 1.0), math.inf)
            drop = int(np.argmin(ratios))
            w = w + ratios[drop] * (v - w)
            w[drop] = 0.0
            keep = w > 0.0
            active = active[keep]
            w = w[keep] / w[keep].sum()
    raise ArithmeticError(f"nearest-point search on {k} vertices did not converge")


def _distance_to_hull(p: np.ndarray, verts: np.ndarray) -> float:
    """Distance from p to the convex hull of the given vertex rows."""
    return float(np.linalg.norm(_hull_weights(p, verts) @ verts - p))


def distance_point_to_face(p, face: Simplex) -> float:
    """Exact Euclidean distance from a point to a face simplex."""
    point = np.asarray(p, dtype=float)
    if point.ndim != 1 or point.size != face.n:
        raise DimensionMismatch(
            f"point dimension {point.size} does not match face dimension {face.n}"
        )
    return _distance_to_hull(point, face.vertices)


def barycentric_inradius(s: Simplex) -> tuple[float, int]:
    """Minimum distance from the barycenter to the faces, with its argmin.

    Face i is the one opposite vertex i; ties resolve to the smallest
    index.  For a 1-simplex the faces are the two endpoints.

    Worst-case cost: m+1 nearest-point solves, one per facet, each of at
    most 50 m major cycles and as many minor ones, where a cycle costs
    O(m^2 n) for a least-squares solve on at most m columns; O(m^4 n) in
    all.  In practice a solve takes about m cycles.  A solve that reaches
    its cycle cap raises ArithmeticError.
    """
    center = barycenter(s)
    best = math.inf
    argmin = 0
    for i in range(s.m + 1):
        keep = [k for k in range(s.m + 1) if k != i]
        d = _distance_to_hull(center, s.vertices[keep])
        if d < best:
            best, argmin = d, i
    return best, argmin


def barycentric_inradius_estimate(s: Simplex) -> tuple[float, int]:
    """Minimum barycenter-to-face-centroid distance, from edge lengths.

    Dominates the exact barycentric inradius because the face centroid is
    one particular point of each face.  Each term is cross-checked against
    the direct coordinate distance.
    """
    sq = squared_distance_matrix(s)
    floored, _ = radicands(sq)
    values = np.sqrt(floored) / (s.m * (s.m + 1))
    centroids = (s.vertices.sum(axis=0) - s.vertices) / s.m
    direct = np.linalg.norm(barycenter(s) - centroids, axis=1)
    scale = 1.0 + math.sqrt(float(sq.max()))
    bad = np.flatnonzero(np.abs(values - direct) > 1e-6 * scale)
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            f"edge-length and coordinate routes disagree at face {i}: "
            f"{float(values[i])!r} vs {float(direct[i])!r}"
        )
    argmin = int(np.argmin(values))
    return float(values[argmin]), argmin


def thickness(s: Simplex) -> tuple[float, float]:
    """(inradius / diameter, estimated inradius / diameter)."""
    profile = edge_profile(s)
    exact, _ = barycentric_inradius(s)
    estimate, _ = barycentric_inradius_estimate(s)
    return exact / profile.diam, estimate / profile.diam


def _facet_plane(verts: np.ndarray, opposite: np.ndarray) -> tuple[np.ndarray, float]:
    """Inward unit normal and offset of the hyperplane through ``verts``."""
    n = verts.shape[1]
    if n == 1:
        normal = np.array([1.0])
    else:
        rel = verts[1:] - verts[0]
        _, _, vt = np.linalg.svd(rel, full_matrices=True)
        normal = vt[-1]
    if normal @ (opposite - verts[0]) < 0.0:
        normal = -normal
    return normal, float(normal @ verts[0])


def exact_inradius_fulldim(s: Simplex) -> tuple[np.ndarray, float]:
    """Incenter and inradius of a full-dimensional simplex.

    Solves the (n+1)-equation system stating that the center is at equal
    signed distance r from every facet plane.  A condition number beyond
    1e8 triggers a warning but not a failure.
    """
    if s.m != s.n:
        raise NotFullDimensional(
            f"exact inradius needs m == n, got m={s.m}, n={s.n}"
        )
    n = s.n
    system = np.empty((n + 1, n + 1))
    rhs = np.empty(n + 1)
    for i in range(n + 1):
        keep = [k for k in range(n + 1) if k != i]
        normal, offset = _facet_plane(s.vertices[keep], s.vertices[i])
        system[i, :n] = normal
        system[i, n] = -1.0
        rhs[i] = offset
    cond = np.linalg.cond(system)
    if cond > _INCENTER_COND_LIMIT:
        warnings.warn(
            f"facet-plane system condition number {cond:.3e} exceeds 1e8",
            RuntimeWarning,
            stacklevel=2,
        )
    solution = np.linalg.solve(system, rhs)
    return solution[:n], float(solution[n])


def regular_width(n: int, diam: float) -> float:
    """Width of the regular n-simplex with edge length diam.

    The odd and even cases have different closed forms.
    """
    check_int("n", n, 1)
    check_positive("diam", diam)
    if n % 2 == 1:
        return math.sqrt(2.0 / (n + 1.0)) * diam
    return math.sqrt(2.0 * (n + 1.0)) / math.sqrt(n * (n + 2.0)) * diam


def steinhagen_bound(n: int, inradius: float) -> float:
    """Upper bound on the width of a convex body in R^n from its inradius."""
    check_int("n", n, 1)
    check_positive("inradius", inradius)
    if n % 2 == 1:
        return 2.0 * math.sqrt(n) * inradius
    return 2.0 * (n + 1.0) / math.sqrt(n + 2.0) * inradius


def eggleston_suite(s: Simplex) -> list:
    """Evaluate the classical radius/diameter/width inequalities.

    Returns (name, lhs, rhs, holds) tuples.  Width-dependent entries are
    included only for regular input, where the closed-form width applies.
    """
    if s.m != s.n:
        raise NotFullDimensional(
            f"the inequality suite needs m == n, got m={s.m}, n={s.n}"
        )
    profile = edge_profile(s)
    diam = profile.diam
    _, inradius = exact_inradius_fulldim(s)
    _, circumradius = exact_meb(list(s.vertices))
    rows = [
        ("inradius_le_circumradius", inradius, circumradius),
        ("diameter_le_two_circumradius", diam, 2.0 * circumradius),
        ("inradius_le_half_diameter", inradius, diam / 2.0),
        ("circumradius_le_jung_diameter", circumradius, jung_bound(diam, s.n)),
    ]
    if edge_spread(profile) <= REGULAR_RTOL:
        width = regular_width(s.n, diam)
        rows += [
            ("inradius_le_half_width", inradius, width / 2.0),
            ("width_le_diameter", width, diam),
            ("width_le_two_circumradius", width, 2.0 * circumradius),
            ("width_le_steinhagen_inradius", width, steinhagen_bound(s.n, inradius)),
        ]
    out = []
    for name, lhs, rhs in rows:
        slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
        out.append((name, lhs, rhs, lhs <= rhs + slack))
    return out


def gale_diameter_check(n: int) -> tuple[float, float]:
    """Diameter of the regular n-simplex whose inscribed ball has diameter 1.

    Returns (closed form sqrt(n (n+1) / 2), the numerically measured
    diameter after rescaling a unit-edge regular simplex).
    """
    check_int("n", n, 1)
    base = regular_simplex(n, n, 1.0)
    inradius, _ = barycentric_inradius(base)
    scaled = validate_simplex(base.vertices / (2.0 * inradius))
    return math.sqrt(n * (n + 1) / 2.0), edge_profile(scaled).diam


def metrics_report(s: Simplex) -> MetricsReport:
    """Bundle the inradius family of quantities for one simplex."""
    profile = edge_profile(s)
    exact, _ = barycentric_inradius(s)
    estimate, _ = barycentric_inradius_estimate(s)
    if s.m == s.n:
        incenter, inradius = exact_inradius_fulldim(s)
    else:
        incenter, inradius = None, None
    return MetricsReport(
        barycentric_inradius=exact,
        barycentric_inradius_estimate=estimate,
        thickness=exact / profile.diam,
        thickness_estimate=estimate / profile.diam,
        exact_inradius=inradius,
        exact_incenter=incenter,
        diam=profile.diam,
        shor=profile.shor,
    )
