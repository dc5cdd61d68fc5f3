"""Inradius, thickness, width bounds, and related comparison checks.

Both inradii come from the altitudes h_i: Simplex.inverse_altitudes,
read once per simplex off the triangular factor of the edge vectors that
validation formed for its rank test.  The barycenter lies inside the
simplex, so its nearest face point is the foot on the nearest facet
plane, at distance h_i/(m+1).  Full-dimensional simplices additionally
get the true inradius from 1/r = sum 1/h_i.  A cheaper estimate replaces
each face distance by the distance to the face centroid, which can only
overestimate.  The exact point-to-face distance, by Wolfe's nearest-point
algorithm, is the independent route the test suite checks them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Simplex,
    as_point,
    check_int,
    check_positive,
    is_regular,
    regular_simplex,
)
from .enclosing import jung_bound, simplex_meb_support
from .errors import DimensionMismatch, NotFullDimensional

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


def _hull_weights(q: np.ndarray) -> np.ndarray:
    """Convex weights w such that w @ q is the point of the hull of the rows
    q nearest the origin; for q_j = v_j - p, it is the hull point nearest p,
    minus p.

    Wolfe's algorithm (Math. Programming 11, 1976) on the rows q_j, with
    x the current point.  A major cycle adds the row that most violates
    the optimality test -x.(q_j - x) <= 0, read here as
    ||x||^2 - x.q_j <= tol with tol relative to max ||q_j||^2.  A minor
    cycle projects onto the affine hull of the active set; when a weight
    turns nonpositive it steps back to the set's hull and drops the vertex
    whose weight reached zero.  Reaching the major-cycle cap raises
    ArithmeticError rather than returning a point that failed the test.
    """
    k = q.shape[0]
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


def distance_point_to_face(p, face: Simplex) -> float:
    """Exact Euclidean distance from a finite point to a face simplex: the
    norm of the nearest point of the hull of q = V - p, the vertices as
    offsets to the point, so where the face lies does not round the foot."""
    point = as_point(p)
    if point.size != face.n:
        raise DimensionMismatch(
            f"point dimension {point.size} does not match face dimension {face.n}"
        )
    q = face.vertices - point
    return float(np.linalg.norm(_hull_weights(q) @ q))


def barycentric_inradius(s: Simplex) -> tuple[float, int]:
    """Minimum distance from the barycenter to the faces, with its argmin.

    Face i is the one opposite vertex i; ties resolve to the smallest
    index.  For a 1-simplex the faces are the two endpoints.  The
    barycenter has every barycentric coordinate 1/(m+1), so its distance
    to the plane of face i is h_i/(m+1).  The ball of the smallest such
    radius lies in the simplex and touches that plane inside the face,
    so the face distances have the same minimum and argmin.

    Cost: the simplex's inverse_altitudes, one QR of the n x m edge matrix
    and one m x m inverse, each formed once per simplex, O(m^2 n + m^3),
    with no iteration.
    """
    inv_h = s.inverse_altitudes
    argmin = int(np.argmax(inv_h))
    return 1.0 / ((s.m + 1) * float(inv_h[argmin])), argmin


def barycentric_inradius_estimate(s: Simplex) -> tuple[float, int]:
    """Minimum barycenter-to-face-centroid distance, from edge lengths.

    Dominates the exact barycentric inradius because the face centroid is
    one particular point of each face.  Each term is cross-checked against
    |v_i - b| / m, b the barycenter, which divides each median m : 1.
    """
    floored, _ = s.radicand_pair
    values = np.sqrt(floored) / (s.m * (s.m + 1))
    direct = np.linalg.norm(s.offsets - s.barycenter_offset, axis=1) / s.m
    bad = np.flatnonzero(np.abs(values - direct) > 1e-6 * s.profile.diam)
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            f"edge-length and coordinate routes disagree at face {i}: "
            f"{float(values[i])!r} vs {float(direct[i])!r}"
        )
    argmin = int(np.argmin(values))
    return float(values[argmin]), argmin


def thickness(s: Simplex) -> tuple[float, float]:
    """(inradius / diameter, estimated inradius / diameter), as
    metrics_report gives them."""
    report = metrics_report(s)
    return report.thickness, report.thickness_estimate


def exact_inradius_fulldim(s: Simplex) -> tuple[np.ndarray, float]:
    """Incenter and inradius of a full-dimensional simplex.

    The inradius is r = 1 / sum 1/h_i, and the incenter is the average of
    the vertices weighted by 1/h_i, which is proportional to the area of
    the opposite facet.

    Accuracy: with R the triangular factor of the edge vectors v_i - v_0
    and kappa = ||R||_F ||R^-1||_F its Frobenius condition number, the
    inradius is within 2 kappa eps relative and the incenter within
    32 kappa eps r, eps the float epsilon.  Forming v_i - v_0 in floats
    already costs that much, so the method is at its floor.  The tests
    certify both bounds against exact rational arithmetic for m = 2..8
    and kappa up to about 1e9.
    """
    if s.m != s.n:
        raise NotFullDimensional(
            f"exact inradius needs m == n, got m={s.m}, n={s.n}"
        )
    inv_h = s.inverse_altitudes
    radius = 1.0 / float(inv_h.sum())
    # The weights sum to 1, so the average is taken over offsets to vertex 0.
    return s.vertices[0] + radius * (inv_h[1:] @ s.offsets[1:]), radius


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
    profile = s.profile
    diam = profile.diam
    _, inradius = exact_inradius_fulldim(s)
    _, circumradius, _ = simplex_meb_support(s)
    rows = [
        ("inradius_le_circumradius", inradius, circumradius),
        ("diameter_le_two_circumradius", diam, 2.0 * circumradius),
        ("inradius_le_half_diameter", inradius, diam / 2.0),
        ("circumradius_le_jung_diameter", circumradius, jung_bound(diam, s.n)),
    ]
    if is_regular(profile):
        width = regular_width(s.n, diam)
        rows += [
            ("inradius_le_half_width", inradius, width / 2.0),
            ("width_le_diameter", width, diam),
            ("width_le_two_circumradius", width, 2.0 * circumradius),
            ("width_le_steinhagen_inradius", width, steinhagen_bound(s.n, inradius)),
        ]
    out = []
    for name, lhs, rhs in rows:
        slack = 1e-12 * max(abs(lhs), abs(rhs))
        out.append((name, lhs, rhs, lhs <= rhs + slack))
    return out


def gale_diameter_check(n: int) -> tuple[float, float]:
    """Diameter of the regular n-simplex whose inscribed ball has diameter 1.

    Returns (closed form sqrt(n (n+1) / 2), the measured diameter of a
    unit-edge regular simplex over the diameter of its inscribed ball).
    """
    check_int("n", n, 1)
    base = regular_simplex(n, n, 1.0)
    inradius, _ = barycentric_inradius(base)
    return math.sqrt(n * (n + 1) / 2.0), base.profile.diam / (2.0 * inradius)


def metrics_report(s: Simplex) -> MetricsReport:
    """Bundle the inradius family of quantities for one simplex."""
    profile = s.profile
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
