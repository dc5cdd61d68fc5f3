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

from .core import EdgeProfile, Simplex, barycenter, check_int, check_positive, edge_profile
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
    pair = _children(s.vertices, edge_profile(s).diam_edge)
    # Children of a valid simplex stay affinely independent (one row of
    # the difference matrix is halved, and the rank test is relative), so
    # the ingestion gate is not re-run: it would cost an SVD per child.
    return Simplex(pair[0]), Simplex(pair[1])


def _children(rows: np.ndarray, edge: tuple) -> np.ndarray:
    """Both children of the split rule stacked as a (2, m+1, n) array: with
    edge (i, j), the lower child [0] replaces row i and the upper child [1]
    row j by the midpoint of rows i and j."""
    i, j = edge
    pair = np.array((rows, rows))
    pair[0, i] = pair[1, j] = 0.5 * (rows[i] + rows[j])
    return pair


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
    return _edge_error_bound(edge_profile(s), s.m)


def _edge_error_bound(profile: EdgeProfile, m: int) -> float:
    # shor <= diam, so the radicand is nonnegative.
    radicand = profile.diam**2 - (m - 1.0) / (2.0 * m) * profile.shor**2
    return m / (m + 1.0) * math.sqrt(radicand)


def _evaluate(f: SystemFunction, vertex: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        value = np.asarray(f.evaluate(vertex), dtype=float)
    if value.shape != (f.dimension,) or not np.isfinite(value).all():
        raise EvaluationFailure(
            f"{f.name} returned an invalid value at {vertex.tolist()}"
        )
    return value


def _record(
    s: Simplex, profile: EdgeProfile, depth: int, choice: str | None, diam0: float
) -> BisectionStep:
    return BisectionStep(
        depth=depth,
        child_choice=choice,
        diam=profile.diam,
        shor=profile.shor,
        error_estimate=_edge_error_bound(profile, s.m),
        kearfott_bound=_kearfott(depth, s.m, diam0),
        barycenter=barycenter(s),
    )


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
    in every component ends at depth 8.  Each step evaluates f once, at the
    midpoint; both children and their vertex values are split by
    ``bisect``'s rule into stacked arrays, one min and max pass over those
    values decides both children, and only the kept child is profiled.
    """
    if s0.m != s0.n or s0.n != f.dimension:
        raise DimensionMismatch(
            f"solver needs m == n == f.dimension, got m={s0.m}, n={s0.n}, "
            f"dimension={f.dimension}"
        )
    check_positive("tol", tol)
    check_int("max_iter", max_iter, 1)

    current, profile = s0, edge_profile(s0)
    diam0 = profile.diam
    values = np.vstack([_evaluate(f, v) for v in s0.vertices])
    steps = [_record(current, profile, 0, None, diam0)]
    converged = steps[-1].error_estimate <= tol
    depth = 0
    while not converged and depth < max_iter:
        i, j = profile.diam_edge
        pair = _children(current.vertices, (i, j))
        pair_values = np.array((values, values))
        pair_values[0, i] = pair_values[1, j] = _evaluate(f, pair[0, i])
        # For each child and component, the larger of -min and max over the
        # vertices is the worst |value|; the component takes both signs
        # (min <= zero and max >= -zero) when the smaller is >= -zero.
        neg_low, high = -pair_values.min(axis=1), pair_values.max(axis=1)
        worst = np.maximum(neg_low, high).max(axis=1)
        zero = _SIGN_ZERO_RTOL * (1.0 + worst)
        lower_ok, upper_ok = (np.minimum(neg_low, high).min(axis=1) >= -zero).tolist()
        if not (lower_ok or upper_ok):
            raise NoSignCriterion(
                f"neither child keeps a sign change for {f.name} at depth {depth}"
            )
        lower_worst, upper_worst = worst.tolist()
        # The lower child wins ties.
        k = int(not lower_ok or (upper_ok and upper_worst < lower_worst))
        current, values = Simplex(pair[k]), pair_values[k]
        profile = edge_profile(current)
        depth += 1
        steps.append(_record(current, profile, depth, ("lower", "upper")[k], diam0))
        converged = steps[-1].error_estimate <= tol
    approximation = barycenter(current)
    value = _evaluate(f, approximation)
    # norm's sum of squares overflows for components near 1e154, hypot does not.
    residual = float(np.linalg.norm(value)) if abs(value).max() < 1e153 else math.hypot(*value)
    return BisectionTrace(
        steps=steps,
        final_approximation=approximation,
        final_error_estimate=steps[-1].error_estimate,
        converged=converged,
        residual_norm=residual,
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
