"""Enclosing-ball bounds: barycentric circumradius, Jung, and exact MEB.

The barycentric circumradius is the distance from the barycenter to the
farthest vertex, computable from edge lengths alone.  Centered at the
barycenter it encloses the simplex, so the exact minimum enclosing ball
radius never exceeds it; Jung's bound provides a second cap in terms of
the diameter.  The exact ball of a point set (``exact_meb_support``, and
the subset bounds) comes from an active-set walk that certifies the ball
when it stops (see ``_walk``).  The exact ball of a Simplex
(``simplex_meb_support``, under ``combined_enclosure`` and
``metrics.eggleston_suite``) picks its support by a Cayley-Menger descent
on the simplex's squared distances (see ``_descend``), forms the ball once
from coordinates and certifies it as the walk does; ``exact_meb_support``
gives the ball when that fails.  Both take a support's circumcenter from
one routine, ``_support_ball``: an SVD of the support's edge vectors by
``core.factor_edges``, with the support in index order, so a simplex gets
the same ball from either unless its support is decided by a tie; a
support of every vertex reads the SVD the simplex already holds.  The
diameter of a point set, which Jung's bound needs, is ``set_diameter``:
the exact ball's support and center prune its scan of the pairs.  Jung's bound is taken in the dimension of
the set's affine hull, min(n, N-1) for N points, as the caps count it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Simplex,
    as_points,
    barycenter,
    check_int,
    check_positive,
    check_range,
    factor_edges,
    require_regular,
    squared_lengths,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyInput,
    TooFewPoints,
    Underflow,
)

MEB_MAX_DIM = 10
MEB_MAX_POINTS = 10000
SUBSET_MAX_POINTS = 15

# Tolerances of the walk, relative to the radius r: a center within
# _IN_BALL_RTOL * r of the circumcenter has reached it, a coefficient above
# -_IN_BALL_RTOL is nonnegative, and a new support point must lie off the
# support's affine hull by more than _AFFINE_RTOL * r, which keeps the
# support affinely independent.  The final radius covers every point.
_IN_BALL_RTOL = 1e-12
_AFFINE_RTOL = 1e-9
# Squared lengths that choose the farthest points and the longest pairs, by
# sums across an (n, N) copy or by |a|^2 + |b|^2 - 2 a.b with |a|, |b| <= R,
# are off from the row sums that measure them by at most about
# 2 (n + 3) eps (|a|^2 + |b|^2), under 1e-14 of diam^2 for n <= 10.  Every
# point or pair within this share of the largest is measured again by rows.
RESCAN_RTOL = 1e-12
# Each step of the walk adds or drops one support point.  The most seen
# was 130 steps, for 10^4 points in a thin shell in R^10.
WALK_MAX_STEPS = 1000
# Each step of the descent drops or adds one vertex.  Over 6000 random
# simplices with m = 1..10, half of them thin, the most was 12 steps for 11
# vertices.
_DESCENT_STEPS_PER_VERTEX = 2


@dataclass(frozen=True)
class EnclosureReport:
    """Side-by-side enclosure bounds and the exact ball for one simplex."""

    barycentric_circumradius: float
    jung_bound: float
    combined_bound: float
    meb_radius: float
    meb_center: np.ndarray
    barycenter: np.ndarray
    argmax_vertex: int


def barycentric_circumradius(s: Simplex) -> tuple[float, int]:
    """Distance from the barycenter to its farthest vertex, from edges only.

    Returns the radius and the index of the attaining vertex; ties resolve
    to the smallest index.
    """
    floored, _ = s.radicand_pair
    argmax = int(np.argmax(floored))
    return math.sqrt(floored[argmax]) / (s.m + 1), argmax


def jung_bound(diam: float, n: int) -> float:
    """Jung's enclosing radius sqrt(n / (2n + 2)) * diam for sets in R^n.

    The regular n-simplex with edge length diam attains it, so this is
    also that simplex's barycenter-to-vertex distance.
    """
    check_int("n", n, 1)
    check_positive("diam", diam)
    return math.sqrt(n / (2.0 * n + 2.0)) * diam


def _coerce_points(points) -> np.ndarray:
    pts = as_points(points)  # validate_simplex's gate
    if not len(pts):
        raise EmptyInput("point list is empty")
    return pts


def _walk(cols: np.ndarray) -> tuple[np.ndarray, list]:
    """Center and support of the minimum enclosing ball, by the active-set
    walk of Fischer, Gaertner and Kutz (ESA 2003).

    ``cols`` holds the points as columns, (n, N), so that the O(N n) pass
    over the points, which dominates a step, runs along memory.  The ball
    about ``center`` through the support points covers every point.  The
    center moves toward the support's circumcenter until a point reaches
    the sphere and joins the support; at the circumcenter, the support
    point with the most negative coefficient is dropped.  The walk stops
    at a circumcenter with no negative coefficient: the center then lies
    in the support's hull, which certifies the ball.  No point then lies
    farther than (1 + _IN_BALL_RTOL) R from the support's circumcenter, R
    its circumradius, up to the rounding of the computed circumcenter.

    A step costs one O(N n) pass over the points, which on the first step
    also picks the point farthest from the centroid as the first support
    point, plus one ``_support_ball``, an SVD of at most 10 support edges,
    which gives the circumcenter, its coefficients and a basis of the
    hull's directions.  The support is kept in index order, as ``_descend``
    returns it, so a simplex whose descent and walk find the same support
    gets the same ball from both; the returned support is sorted.
    """
    count = cols.shape[1]
    center, support = cols.mean(axis=1), []
    for _ in range(WALK_MAX_STEPS):
        rel = cols - center[:, None]
        dist2 = np.einsum("ij,ij->j", rel, rel)
        r2 = float(dist2.max())
        support = sorted(support or [int(np.argmax(dist2))])
        target, coef, basis = _support_ball(cols[:, support].T)
        step = target - center
        # Remove rounding along the hull, so points of the hull cannot stop the walk.
        step -= (basis @ step) @ basis
        step2 = float(step @ step)
        if step2 > _IN_BALL_RTOL**2 * r2:
            # p is as far as the support at center + t * step, t = (r2 - dist2) / den / 2,
            # halved last as 2 * den may overflow; ties go to the lowest index.
            den = step2 - step @ rel
            admit = den > _AFFINE_RTOL * math.sqrt(step2) * math.sqrt(r2)  # no overflow
            t = 0.5 * np.divide(r2 - dist2, den, out=np.full(count, np.inf), where=admit)
            stop = int(np.argmin(t))
            if t[stop] < 1.0:
                center = center + t[stop] * step
                support.append(stop)
                continue
        center = target
        if coef.min() >= -_IN_BALL_RTOL:
            return center, support
        support.pop(int(np.argmin(coef)))
    raise ArithmeticError(f"exact ball walk did not converge in {WALK_MAX_STEPS} steps")


def _check_caps(count: int, n: int) -> None:
    # The walk stays in the affine hull of its support, so the cap counts
    # the dimension that hull can reach, not the ambient one.
    dim = min(n, count - 1)
    if dim > MEB_MAX_DIM:
        raise CapExceeded(f"exact ball supports dimension <= {MEB_MAX_DIM}, got {dim}")
    if count > MEB_MAX_POINTS:
        raise CapExceeded(
            f"exact ball supports <= {MEB_MAX_POINTS} points, got {count}"
        )


def exact_meb_support(points) -> tuple[np.ndarray, float, tuple]:
    """Exact minimum enclosing ball of a point set plus the boundary support
    indices, by the walk on the offsets to the first point.

    Raises the errors of ``core.as_points``, EmptyInput for no points,
    ``core.check_range``'s, CapExceeded above MEB_MAX_POINTS points or above
    MEB_MAX_DIM for the hull dimension min(n, N-1), and ArithmeticError when
    the walk does not converge in WALK_MAX_STEPS steps.  A Simplex takes
    ``simplex_meb_support`` instead.
    """
    pts = _coerce_points(points)
    cols = np.ascontiguousarray(pts.T)
    check_range(cols.T)  # its reductions then run along memory
    _check_caps(*pts.shape)
    cols = cols - cols[:, :1]  # a new array: cols may view the caller's points
    center, support = _walk(cols)
    # Cover every point exactly; the inflation is at rounding scale.  Sums
    # across the (n, N) copy choose the farthest points, and only those are
    # summed again along rows for the radius: a sum across rounds differently
    # from n = 8 on, and would move the printed radius.
    dist2 = ((cols - center[:, None]) ** 2).sum(axis=0)
    far = cols.T[dist2 >= (1.0 - RESCAN_RTOL) * dist2.max()]
    radius = float(np.sqrt(((far - center) ** 2).sum(axis=1).max()))
    return pts[0] + center, radius, tuple(support)


def _descend(sq: np.ndarray) -> list | None:
    """Support of the exact ball of affinely independent points, from their
    squared distances alone, or None when the descent fails.

    The circumcenter of the points in S has barycentric weights lam with
    D_S lam = 2 R^2 1, R its circumradius, so lam is D_S^-1 1 scaled to sum
    1 (the Cayley-Menger system).  Starting from all points, drop the one
    with the most negative weight; once every weight is >= -_IN_BALL_RTOL,
    add back the farthest point outside the ball, or stop.  A dropped point
    lies inside the next ball, so it does not return at once.  Fails on a
    singular solve or after _DESCENT_STEPS_PER_VERTEX steps per point.
    """
    # Dividing by the largest entry is exact for a simplex scaled by a power
    # of two, so it takes the same steps.
    d = sq / sq.max()
    system, active = d.copy(), np.ones(len(d))
    for _ in range(_DESCENT_STEPS_PER_VERTEX * len(d)):
        try:
            x = np.linalg.solve(system, active)
        except np.linalg.LinAlgError:
            return None
        total = float(x.sum())
        if not 0.0 < total < math.inf:
            return None
        lam = x / total
        drop = int(np.argmin(lam))
        if lam[drop] < -_IN_BALL_RTOL:
            # A dropped point keeps the one equation x_j = 0.
            system[drop], system[:, drop] = 0.0, 0.0
            system[drop, drop] = 1.0
            active[drop] = 0.0
            continue
        # |c - p_k|^2 = D[k] lam - R^2, with R^2 = 1 / (2 total).
        r2 = 0.5 / total
        excess = (d @ lam - (1.0 + (1.0 + _IN_BALL_RTOL) ** 2) * r2) * (1.0 - active)
        far = int(np.argmax(excess))
        if excess[far] <= 0.0:
            return np.flatnonzero(active).tolist()
        system[far], system[:, far] = d[far] * active, d[:, far] * active
        active[far] = 1.0
    return None


def simplex_meb_support(s: Simplex) -> tuple[np.ndarray, float, tuple]:
    """Exact minimum enclosing ball of a simplex's vertices plus the boundary
    support indices, as ``exact_meb_support`` gives them for a point set.

    The simplex was validated, so its vertices are not admitted again; the
    cap on m comes before any O(m^2 n) work.  ``_descend`` picks the support
    from the simplex's squared distances, in O(m^3) per step and at most
    2 (m+1) steps.  The ball is then formed once from coordinates on the
    support, from the simplex's edge_svd when the support is every vertex,
    and certified as the walk certifies its own: every barycentric
    coefficient >= -_IN_BALL_RTOL, and no vertex farther than
    (1 + _IN_BALL_RTOL) times the support's radius.  The radius covers
    every vertex.  When the descent fails or the certificate does not hold,
    ``exact_meb_support`` gives the ball.
    """
    pts = s.vertices
    _check_caps(*pts.shape)
    support = _descend(s.sq_distances)
    if support is not None:
        # A support of every vertex has the simplex's edges, already factored.
        factors = s.edge_svd if len(support) == len(pts) else None
        center, coef, _ = _support_ball(s.offsets[support], factors)
        dist2 = ((s.offsets - center) ** 2).sum(axis=1)
        far2, ball2 = float(dist2.max()), (1.0 + _IN_BALL_RTOL) ** 2 * float(dist2[support].max())
        if coef.min() >= -_IN_BALL_RTOL and far2 <= ball2:
            return pts[0] + center, math.sqrt(far2), tuple(support)
    return exact_meb_support(pts)


def _support_ball(sup: np.ndarray, factors=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circumcenter of the affinely independent rows ``sup`` within their
    affine hull, its barycentric coefficients on them, and an orthonormal
    basis of the hull's directions as rows.

    For rows p_0..p_k with centroid g, let E = U S V^T hold the edge
    vectors p_j - p_0 and b_j = (|p_j - g|^2 - |p_0 - g|^2) / 2.  The
    circumcenter is g + V S^-1 U^T b, as the least-norm solution x of
    E x = b levels the squared distances from g + x to the rows; its
    coefficients on p_1..p_k are 1/(k+1) + U S^-2 U^T b.  The basis is V^T.
    The factors are ``core.factor_edges(E)``, or ``factors`` when given,
    which must be those.
    """
    # Centered at g: from sup[0], exact ties broke (a radius 1.0 read 1.0000000000000004).
    centroid = sup.mean(axis=0)
    rel = sup - centroid
    half = 0.5 * np.einsum("ij,ij->i", rel, rel)
    u, sv, vt = factor_edges(sup[1:] - sup[0]) if factors is None else factors
    w = (half[1:] - half[0]) @ u / sv
    coef = 1.0 / len(sup) + u @ (w / sv)
    return centroid + w @ vt, np.concatenate(([1.0 - coef.sum()], coef)), vt


def exact_meb(points) -> tuple[np.ndarray, float]:
    """Center and radius of the exact minimum enclosing ball."""
    center, radius, _ = exact_meb_support(points)
    return center, radius


# The diameter scan takes the kept points in blocks of _GRAM_ROWS against
# every later one, and measures one row at a time.  For K kept points it
# holds at most _GRAM_ROWS K floats of squared lengths and 2 K n floats of
# one row's differences, however many pairs tie: 6.7 MB at the exact
# ball's caps of 10^4 points in R^10.
_GRAM_ROWS = 64


def set_diameter(points, center, support) -> float:
    """Diameter of a point set: the largest sum along rows of (q - p)^2 over
    its pairs, as an all-pairs scan takes them, bit for bit.

    ``center`` and ``support`` are the exact ball's, as ``exact_meb_support``
    returns them; they only prune.  The scan keeps the K points that can
    end a pair longer than every pair through a support point, and costs
    O(N n + K^2 n) time; K = N when every point lies on the sphere.  Its
    blocks and rows hold at most 6.7 MB at the exact ball's caps of 10^4
    points in R^10.  Raises the errors of ``core.as_points`` and EmptyInput
    for no points.
    """
    # |p - q| <= |p - c| + max |x - c| for any c, so a pair longer than every
    # pair through a support point has both ends where that sum reaches its
    # length.  Both terms are measured here, in one (n, N) copy centered on
    # ``center``, so the rounding of the center cannot prune an end.  Support
    # points lie on the sphere, so the seed takes them all rather than the
    # one that rounding puts farthest from the center.  The squared lengths
    # |a|^2 + |b|^2 - 2 a.b, a and b the offsets to the center, choose: the
    # bound's 1e-9 covers their rounding, and ``longest`` holds the largest
    # seen.  A point that starts a pair within RESCAN_RTOL of it is measured
    # against every later point, by the sums along rows of q - p that an
    # all-pairs scan takes.  ``longest`` only grows, so the point that starts
    # the longest such sum is measured, and the result is that sum bit for bit.
    pts, support = _coerce_points(points), list(support)
    rel = np.subtract(pts.T, np.asarray(center, dtype=float)[:, None], order="C")
    sq = np.einsum("ij,ij->j", rel, rel)
    gram = (-2.0 * rel[:, support]).T @ rel
    gram += sq
    longest = float((gram.max(axis=1) + sq[support]).max(initial=0.0))
    kept = np.flatnonzero(np.sqrt(sq) + math.sqrt(sq.max()) >= math.sqrt(longest) * (1.0 - 1e-9))
    rel, sq, one, ends = rel[:, kept], sq[kept], np.ones(kept.size), pts[kept]
    # One product per block gives |a|^2 + |b|^2 - 2 a.b, from rows [a, |a|^2, 1]
    # and [-2 b, 1, |b|^2].  A block also takes some pairs reversed, and some
    # points with themselves.
    left, right, best = np.vstack([rel, sq, one]), np.vstack([-2.0 * rel, one, sq]), 0.0
    for low in range(0, kept.size - 1, _GRAM_ROWS):
        reach = (left[:, low : low + _GRAM_ROWS].T @ right[:, low + 1 :]).max(axis=1)
        longest = max(longest, float(reach.max()))
        for row in low + np.flatnonzero(reach >= (1.0 - RESCAN_RTOL) * longest):
            best = float(squared_lengths(ends[row + 1 :] - ends[row]).max(initial=best))
    return math.sqrt(best)


def check_enclosure_bound(radius: float, bound: float, diam: float) -> None:
    """Raise ArithmeticError when an exact ball radius exceeds an upper bound
    on it by more than 1e-12 * diam, diam the diameter of the enclosed set."""
    if radius > bound + 1e-12 * diam:
        raise ArithmeticError(
            f"exact ball radius {radius!r} exceeds enclosure bound {bound!r}"
        )


def combined_enclosure(s: Simplex) -> EnclosureReport:
    """Compare the exact ball against the barycentric and Jung bounds.

    Jung's bound is applied with m, since the simplex spans an m-flat.  The
    exact ball is ``simplex_meb_support``'s, and it comes first, so its cap
    refuses m > 10 before any O(m^2 n) work.
    """
    center, radius, _ = simplex_meb_support(s)
    profile = s.profile
    radius_bc, argmax = barycentric_circumradius(s)
    jung = jung_bound(profile.diam, s.m)
    combined = min(radius_bc, jung)
    check_enclosure_bound(radius, combined, profile.diam)
    return EnclosureReport(
        barycentric_circumradius=radius_bc,
        jung_bound=jung,
        combined_bound=combined,
        meb_radius=radius,
        meb_center=center,
        barycenter=barycenter(s),
        argmax_vertex=argmax,
    )


def _largest_over_subsets(points, n: int, radius_of) -> float:
    """Largest ``radius_of(subset)`` over the (n+1)-subsets of the points.

    Every subset is measured, affinely dependent ones included, except one
    too small to measure: ``core.check_range`` raises Underflow on it, and it
    is skipped.  When no subset is left, raises Underflow.
    """
    pts = _coerce_points(points)
    check_int("n", n, 1)
    if pts.shape[1] != n:
        raise DimensionMismatch(f"points live in R^{pts.shape[1]} but n={n} was requested")
    if pts.shape[0] < n + 1:
        raise TooFewPoints(f"need at least {n + 1} points in R^{n}")
    if pts.shape[0] > SUBSET_MAX_POINTS:
        raise CapExceeded(
            f"subset enumeration capped at {SUBSET_MAX_POINTS} points, "
            f"got {pts.shape[0]}"
        )
    best, underflow = -1.0, None
    for combo in itertools.combinations(range(pts.shape[0]), n + 1):
        sub = pts[list(combo)]
        try:
            check_range(sub)
        except Underflow as exc:
            underflow = exc
            continue
        best = max(best, radius_of(sub))
    if best < 0.0:
        raise Underflow(f"no (n+1)-subset can be measured: {underflow}")
    return best


def set_barycentric_circumradius(points, n: int) -> float:
    """Largest barycentric circumradius over the (n+1)-subsets of the points.

    Enumerates every (n+1)-subset, affinely dependent ones included, as
    the radius of a bounded set is the largest over all of them (Blumenthal
    and Wahlin, 1941) and a subset's barycentric circumradius needs only
    its edge lengths; the exact enclosing radius of the whole set never
    exceeds the result.  A subset too small to measure is skipped; when
    none is left, raises Underflow.  Raises the errors of
    ``core.as_points`` and EmptyInput for no points.
    """
    return _largest_over_subsets(
        points, n, lambda sub: barycentric_circumradius(Simplex(sub))[0]
    )


def blumenthal_wahlin_check(points, n: int) -> tuple[float, float]:
    """(max exact ball radius over (n+1)-subsets, exact ball radius of all).

    The two radii agree: enclosability of every (n+1)-subset by a given
    radius extends to the whole set, and conversely.  A subset whose
    squared distances underflow is skipped, as in
    ``set_barycentric_circumradius``: its radius is below 1.5e-154.  When
    every subset is skipped, raises Underflow rather than report 0.  The
    whole set keeps the range check.  Raises the errors of ``core.as_points``
    and EmptyInput for no points.
    """
    worst = _largest_over_subsets(points, n, lambda sub: exact_meb(sub)[1])
    return worst, exact_meb(points)[1]


def fermat_sum_regular(s: Simplex) -> tuple[float, float]:
    """(sum of barycenter-to-vertex distances, closed form) for regular input.

    The closed form is sqrt(m (m+1) / 2) times the common edge length.
    """
    profile = require_regular(s)
    total = float(np.linalg.norm(s.offsets - s.barycenter_offset, axis=1).sum())
    return total, math.sqrt(s.m * (s.m + 1) / 2.0) * profile.diam
