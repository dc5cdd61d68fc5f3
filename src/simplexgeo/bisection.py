"""Longest-edge bisection, its decay bounds, and a sign-based root finder.

Bisection splits the lexicographically smallest longest edge at its
midpoint and yields two children that partition the parent.  Repeated
application shrinks the diameter at a guaranteed geometric rate, which
also caps the distance from any point of a child to its barycenter; the
root finder exploits that to home in on a zero of a vector field using
only the signs of the components at the vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Simplex, centroid, check_int, check_positive, extremal_edges, squared_lengths
from .errors import DimensionMismatch, EvaluationFailure, NoSignCriterion

# Fraction of the vertex-value magnitude below which a component counts
# as both signs in the admissibility test.
_SIGN_ZERO_RTOL = 1e-12

_HALF_ROOT3 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class BisectionStep:
    """Snapshot of the selected simplex after ``depth`` bisections.

    ``child_choice`` is "lower" or "upper", or None for the starting
    simplex at depth 0.
    """

    depth: int
    child_choice: str | None
    diam: float
    shor: float
    error_estimate: float
    kearfott_bound: float
    barycenter: np.ndarray


@dataclass(frozen=True)
class BisectionTrace:
    """Full record of one root-finding run."""

    steps: list
    final_approximation: np.ndarray
    final_error_estimate: float
    converged: bool
    residual_norm: float


@dataclass(frozen=True)
class SystemFunction:
    """A vector field R^dimension -> R^dimension with a display name."""

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    name: str


def bisect(s: Simplex) -> tuple[Simplex, Simplex]:
    """Split the longest edge at its midpoint.

    With (i, j) the longest edge and i < j, the lower child replaces
    vertex i by the midpoint and the upper child replaces vertex j;
    every other vertex keeps its position, so the two children share
    the splitting facet and partition the parent.
    """
    rows, (i, j) = s.vertices, s.profile.diam_edge
    mid = 0.5 * (rows[i] + rows[j])
    # Children of a valid simplex stay affinely independent (one row of the
    # difference matrix is halved; the rank test is relative): no SVD per child.
    return Simplex(_child(rows, i, mid)), Simplex(_child(rows, j, mid))


def _child(rows: np.ndarray, r: int, mid: np.ndarray) -> np.ndarray:
    """A copy of ``rows`` with row r set to ``mid``: of edge (i, j), r = i gives the lower child."""
    child = rows.copy()
    child[r] = mid
    return child


def kearfott_bound(p: int, m: int, diam0: float) -> float:
    """Guaranteed diameter cap after p longest-edge bisections.

    Every block of m bisections shrinks the diameter by at least
    sqrt(3)/2.
    """
    check_int("p", p, 0)
    check_int("m", m, 1)
    check_positive("diam0", diam0)
    return _kearfott(p, m, diam0)


def _kearfott(p: int, m: int, diam0: float) -> float:
    return _HALF_ROOT3 ** (p // m) * diam0


def containment_bound(p: int, m: int, diam0: float) -> float:
    """Cap on the distance from any point of a depth-p child to its barycenter."""
    return m / (m + 1.0) * kearfott_bound(p, m, diam0)


def error_estimate(s: Simplex) -> float:
    """Sharp bound on the barycenter-to-point distance within the simplex.

    Uses both the longest and the shortest edge, so it is tighter than
    the coarse m/(m+1) * diam cap whenever the edges are uneven.
    """
    profile = s.profile
    return _edge_error_bound(profile.diam, profile.shor, s.m)


def _edge_error_bound(diam: float, shor: float, m: int) -> float:
    # shor <= diam, so the radicand is nonnegative.
    radicand = diam**2 - (m - 1.0) / (2.0 * m) * shor**2
    return m / (m + 1.0) * math.sqrt(radicand)


def _evaluate(f: SystemFunction, vertex: np.ndarray) -> list:
    """f at ``vertex`` as a list of floats; raises EvaluationFailure unless it
    is a vector of ``f.dimension`` finite components.  Runs under ``solve``'s
    errstate, so an overflow inside f shows as a non-finite component."""
    value = np.asarray(f.evaluate(vertex), dtype=float)
    if value.shape == (f.dimension,):
        value = value.tolist()
        if all(map(math.isfinite, value)):
            return value
    raise EvaluationFailure(f"{f.name} returned an invalid value at {vertex.tolist()}")


def _worst_value(low: list, high: list) -> float | None:
    """A child's worst |value|, max(-min, max) over the components of the
    per-component min and max of its vertex values, or None unless every
    component takes both signs: min <= zero and max >= -zero, where zero
    is 1e-12 * (1 + the worst |value|)."""
    worst = max(-min(low), max(high))
    zero = _SIGN_ZERO_RTOL * (1.0 + worst)
    return worst if max(low) <= zero and min(high) >= -zero else None


def solve(f: SystemFunction, s0: Simplex, tol: float, max_iter: int) -> BisectionTrace:
    """Shrink a full-dimensional simplex around a sign-admissible region.

    Each iteration bisects the current simplex and keeps a child in which
    every component of f still changes sign across the vertices (values
    within rounding of zero count as both signs).  When both children
    qualify the one with the smaller worst-vertex residual wins, with the
    lower child breaking ties.  Iteration stops once the barycenter error
    bound drops to ``tol``; if neither child qualifies, NoSignCriterion
    is raised rather than guessing.  The sign test is necessary only, so
    the kept child can miss a root inside the start simplex and a later
    step then raises: from the unit corner tetrahedron, f(x) = x - 1/4
    in every component ends at depth 8, and from the unit corner simplex
    at m = 5..10 each of 36 seeded linear systems A (x - root), with
    A = N(0, 1) + m I and the root inside, ended so between depths 6
    and 38.  A ``tol`` below the resolution of the coordinates, about
    eps * |x|, may never be met: midpoints round back onto vertices, the
    kept simplex stops shrinking and the run uses all of ``max_iter``.
    From the unit corner triangle at tol 1e-300, ``shifted-identity-2d``
    cycles between two simplices from depth 108 on, with the bound at
    4.9e-17 and 3.7e-17.

    Each step evaluates f once, at the midpoint of ``bisect``'s edge, and
    builds only the kept child.  Vertex values are carried as m+1 lists of
    floats: a child's are its parent's with the midpoint's at row i (lower)
    or row j (upper), and a per-component min and max decides each child.
    The kept child's edge lengths are measured from its coordinates by
    ``core.squared_lengths``, the rule ``edge_profile`` reads, in O(m^2 n).
    Barycenters and step records are formed once, after the loop.

    One errstate covers the run, from the start evaluations to the final
    one, so an f that overflows gives a non-finite value, which raises
    EvaluationFailure, and no numpy warning.  The solver's own arithmetic
    cannot overflow for a validated start: a midpoint 0.5 * (a + b)
    overflows only if |a| and |b| exceed 8.9e307, where one ulp (2e292) is
    far above the 1.3e154 extent the range rule allows, so a == b and the
    rank test has refused the simplex.  Children only shrink, so lengths
    stay in range; ``extremal_edges`` raises OverflowError on an inf diam.
    """
    if s0.m != s0.n or s0.n != f.dimension:
        raise DimensionMismatch(
            f"solver needs m == n == f.dimension, got m={s0.m}, n={s0.n}, "
            f"dimension={f.dimension}"
        )
    check_positive("tol", tol)
    check_int("max_iter", max_iter, 1)

    m, rows = s0.m, s0.vertices
    profile = s0.profile
    edge, diam0 = profile.diam_edge, profile.diam
    bound = _edge_error_bound(profile.diam, profile.shor, m)
    path, records = [rows], [(None, profile.diam, profile.shor, bound)]
    with np.errstate(over="ignore", invalid="ignore"):
        values = [_evaluate(f, v) for v in rows]
        while bound > tol and len(path) <= max_iter:
            mid = 0.5 * (rows[edge[0]] + rows[edge[1]])
            mid_value = _evaluate(f, mid)
            child_values = [values[:r] + [mid_value] + values[r + 1 :] for r in edge]
            lower, upper = (_worst_value([*map(min, *v)], [*map(max, *v)]) for v in child_values)
            if lower is None and upper is None:
                raise NoSignCriterion(
                    f"neither child keeps a sign change for {f.name} at depth {len(path) - 1}"
                )
            # The lower child wins ties.
            k = int(lower is None or (upper is not None and upper < lower))
            rows, values = _child(rows, edge[k], mid), child_values[k]
            diam, shor, edge, _ = extremal_edges(np.sqrt(squared_lengths(rows[:, None] - rows)))
            bound = _edge_error_bound(diam, shor, m)
            path.append(rows)
            records.append((("lower", "upper")[k], diam, shor, bound))
        centers = centroid(np.array(path))
        approximation = centers[-1]
        value = _evaluate(f, approximation)
    steps = [
        BisectionStep(depth, choice, diam, shor, bound, _kearfott(depth, m, diam0), center)
        for depth, ((choice, diam, shor, bound), center) in enumerate(zip(records, centers))
    ]
    # hypot, unlike a sum of squares, does not overflow for components near 1e154.
    return BisectionTrace(
        steps=steps,
        final_approximation=approximation,
        final_error_estimate=bound,
        converged=bound <= tol,
        residual_norm=math.hypot(*value),
    )


BUILTIN_SYSTEMS = {
    sf.name: sf
    for sf in (
        SystemFunction(1, lambda x: x - 0.7, "linear-0.7"),
        SystemFunction(2, lambda x: x - 0.25, "shifted-identity-2d"),
        SystemFunction(1, lambda x: x + 10.0, "no-root-1d"),
        SystemFunction(1, lambda x: x**3 - 0.4, "cubic-1d"),
        SystemFunction(
            2, lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 0.5, x[0] - x[1]]), "circle-line-2d"
        ),
    )
}
