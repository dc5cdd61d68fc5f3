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
from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    NegativeRadicand,
    NoSignCriterion,
)

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
    lower, upper = _split(s.vertices, edge_profile(s).diam_edge)
    # Children of a valid simplex stay affinely independent (one row of
    # the difference matrix is halved), so the ingestion rank gate is not
    # re-run; it would reject very small but perfectly shaped children.
    return Simplex(lower), Simplex(upper)


def _split(rows: np.ndarray, edge: tuple, new_row=None) -> tuple[np.ndarray, np.ndarray]:
    """Split rule for vertices and carried values: with edge (i, j) the lower
    child replaces row i and the upper row j by ``new_row`` (default: the
    midpoint of rows i and j)."""
    i, j = edge
    if new_row is None:
        new_row = 0.5 * (rows[i] + rows[j])
    lower, upper = np.array(rows), np.array(rows)
    lower[i] = new_row
    upper[j] = new_row
    return lower, upper


def kearfott_bound(p: int, m: int, diam0: float) -> float:
    """Guaranteed diameter cap after p longest-edge bisections.

    Every block of m bisections shrinks the diameter by at least
    sqrt(3)/2.
    """
    check_int("p", p, 0)
    check_int("m", m, 1)
    check_positive("diam0", diam0)
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
    radicand = profile.diam**2 - (m - 1.0) / (2.0 * m) * profile.shor**2
    if radicand < 0.0:
        raise NegativeRadicand(
            f"edge data inconsistent: diam {profile.diam!r}, shor {profile.shor!r}"
        )
    return m / (m + 1.0) * math.sqrt(radicand)


def _evaluate(f: SystemFunction, vertex: np.ndarray) -> np.ndarray:
    value = np.asarray(f.evaluate(vertex), dtype=float)
    if value.shape != (f.dimension,) or not np.all(np.isfinite(value)):
        raise EvaluationFailure(
            f"{f.name} returned an invalid value at {vertex.tolist()}"
        )
    return value


def _admissible(values: np.ndarray) -> bool:
    """Sign test: every component must take both signs over the vertices."""
    zero = _SIGN_ZERO_RTOL * (1.0 + float(np.abs(values).max()))
    has_low = (values <= zero).any(axis=0)
    has_high = (values >= -zero).any(axis=0)
    return bool((has_low & has_high).all())


def _record(
    s: Simplex, profile: EdgeProfile, depth: int, choice: str | None, diam0: float
) -> BisectionStep:
    return BisectionStep(
        depth=depth,
        child_choice=choice,
        diam=profile.diam,
        shor=profile.shor,
        error_estimate=_edge_error_bound(profile, s.m),
        kearfott_bound=kearfott_bound(depth, s.m, diam0),
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
    is raised rather than guessing.  The split is ``bisect``'s rule applied
    to the profile already held, and the vertex values are carried through
    the same rule, so each step profiles one simplex and evaluates f once.
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
        edge = profile.diam_edge
        lower, upper = _split(current.vertices, edge)
        lower_values, upper_values = _split(values, edge, _evaluate(f, lower[edge[0]]))
        children = (("lower", lower, lower_values), ("upper", upper, upper_values))
        candidates = [child for child in children if _admissible(child[2])]
        if not candidates:
            raise NoSignCriterion(
                f"neither child keeps a sign change for {f.name} at depth {depth}"
            )
        # min keeps the first of equal residuals: the lower child wins ties.
        choice, rows, values = min(candidates, key=lambda c: np.abs(c[2]).max())
        current = Simplex(rows)
        profile = edge_profile(current)
        depth += 1
        steps.append(_record(current, profile, depth, choice, diam0))
        converged = steps[-1].error_estimate <= tol
    approximation = barycenter(current)
    residual = float(np.linalg.norm(_evaluate(f, approximation)))
    return BisectionTrace(
        steps=steps,
        final_approximation=approximation,
        final_error_estimate=steps[-1].error_estimate,
        converged=converged,
        residual_norm=residual,
    )


def _builtin(name: str, dimension: int, fn: Callable) -> SystemFunction:
    return SystemFunction(dimension=dimension, evaluate=fn, name=name)


BUILTIN_SYSTEMS = {
    sf.name: sf
    for sf in (
        _builtin("linear-0.7", 1, lambda x: x - 0.7),
        _builtin("shifted-identity-2d", 2, lambda x: x - 0.25),
        _builtin("no-root-1d", 1, lambda x: x + 10.0),
        _builtin("cubic-1d", 1, lambda x: x**3 - 0.4),
        _builtin(
            "circle-line-2d",
            2,
            lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 0.5, x[0] - x[1]]),
        ),
    )
}
