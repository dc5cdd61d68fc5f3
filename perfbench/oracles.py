"""Output checks for the CLI, computed with the benchmark's own numpy code.

Nothing here calls simplexgeo.  Each check parses the stdout of one
operation and returns None when every certificate holds, or a short
reason otherwise.  Tolerances are those the acceptance tests pin: 1e-9
relative to the diameter for quantities that go through a second route,
1e-12 for the enclosure and inradius orderings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ROUTE_TOL = 1e-9
ORDER_TOL = 1e-12
HALF_ROOT3 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class SimplexInput:
    path: str
    vertices: np.ndarray
    digest: str


@dataclass(frozen=True)
class PointsInput:
    points: np.ndarray
    digest: str


@dataclass(frozen=True)
class SolveInput:
    vertices: np.ndarray
    digest: str
    function: str
    root: np.ndarray | None
    tol: float
    max_iter: int
    expect_rc: int


class CheckFailed(Exception):
    pass


def _require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _envelopes(stdout: str, command: str, count: int) -> list:
    lines = stdout.splitlines()
    _require(len(lines) == count, f"expected {count} envelope lines, got {len(lines)}")
    docs = [json.loads(line) for line in lines]
    for doc in docs:
        _require(doc.get("command") == command, f"command is {doc.get('command')!r}")
        _require(doc.get("schema_version") == 1, "schema_version is not 1")
    return docs


def _close(value, expected: float, tol: float, what: str) -> None:
    _require(
        value is not None and abs(float(value) - expected) <= tol,
        f"{what} = {value!r}, expected {expected!r} within {tol:.1e}",
    )


def _distance_to_affine_hull(x: np.ndarray, rows: np.ndarray) -> float:
    rel = rows[1:] - rows[0]
    target = x - rows[0]
    if rel.shape[0] == 0:
        return float(np.linalg.norm(target))
    coef, *_ = np.linalg.lstsq(rel.T, target, rcond=None)
    return float(np.linalg.norm(rel.T @ coef - target))


def _affine_weights(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Min-norm weights w with sum 1 and w @ rows closest to x, plus the miss."""
    system = np.vstack([rows.T, np.ones(rows.shape[0])])
    rhs = np.append(x, 1.0)
    weights, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return weights, float(np.linalg.norm(weights @ rows - x))


def _check_simplex_report(doc: dict, item: SimplexInput) -> None:
    v = item.vertices
    m, n = v.shape[0] - 1, v.shape[1]
    _require(doc["input_digest"] == item.digest, "input_digest is not the file's sha256")
    payload = doc["payload"]
    simplex = payload["simplex"]
    _require(simplex["m"] == m and simplex["n"] == n, "m or n differs from the input")
    _require(np.array_equal(np.asarray(simplex["vertices"]), v), "vertices differ from the input")

    gaps = v[:, None, :] - v[None, :, :]
    dist = np.sqrt((gaps**2).sum(axis=2))
    upper = dist[np.triu_indices(m + 1, 1)]
    diam, shor = float(upper.max()), float(upper.min())
    center = v.mean(axis=0)
    centroids = (v.sum(axis=0) - v) / m

    medians = payload["medians"]["median_lengths"]
    _require(len(medians) == m + 1, "wrong number of medians")
    for i in range(m + 1):
        direct = float(np.linalg.norm(v[i] - centroids[i]))
        _close(medians[i], direct, ROUTE_TOL * diam, f"median {i}")

    enc = payload["enclosure"]
    circum = float(np.linalg.norm(v - center, axis=1).max())
    jung = math.sqrt(m / (2.0 * m + 2.0)) * diam
    _close(enc["barycentric_circumradius"], circum, ROUTE_TOL * diam, "barycentric_circumradius")
    _close(enc["jung_bound"], jung, ROUTE_TOL * diam, "jung_bound")
    _close(enc["combined_bound"], min(circum, jung), ROUTE_TOL * diam, "combined_bound")
    radius = float(enc["meb_radius"])
    meb_center = np.asarray(enc["meb_center"], dtype=float)
    reach = float(np.linalg.norm(v - meb_center, axis=1).max())
    _require(reach <= radius + ORDER_TOL * diam, f"MEB misses a vertex by {reach - radius:.3e}")
    _require(
        radius <= float(enc["combined_bound"]) + ORDER_TOL * diam,
        f"MEB radius {radius!r} exceeds combined bound {enc['combined_bound']!r}",
    )
    _require(radius >= 0.5 * diam * (1.0 - ORDER_TOL), "MEB radius below half the diameter")

    met = payload["metrics"]
    _close(met["diam"], diam, ORDER_TOL * diam, "diam")
    _close(met["shor"], shor, ORDER_TOL * diam, "shor")
    estimate = float(np.linalg.norm(centroids - center, axis=1).min())
    _close(met["barycentric_inradius_estimate"], estimate, ROUTE_TOL * diam, "inradius estimate")
    inradius = float(met["barycentric_inradius"])
    _require(
        inradius <= float(met["barycentric_inradius_estimate"]) + ORDER_TOL * diam,
        "barycentric_inradius exceeds its estimate",
    )
    # The distance to a face is at least the distance to its affine hull.
    plane_floor = min(
        _distance_to_affine_hull(center, np.delete(v, i, axis=0)) for i in range(m + 1)
    )
    _require(inradius >= plane_floor - ROUTE_TOL * diam, "barycentric_inradius below the facet-plane distance")
    _close(met["thickness"], inradius / float(met["diam"]), ORDER_TOL * max(inradius / diam, 1e-300), "thickness")
    _close(
        met["thickness_estimate"],
        float(met["barycentric_inradius_estimate"]) / float(met["diam"]),
        ORDER_TOL * max(estimate / diam, 1e-300),
        "thickness_estimate",
    )
    if m == n:
        exact = met["exact_inradius"]
        _require(exact is not None, "exact_inradius missing for a full-dimensional simplex")
        incenter = np.asarray(met["exact_incenter"], dtype=float)
        _require(inradius <= float(exact) + ORDER_TOL * diam, "barycentric_inradius exceeds exact_inradius")
        for i in range(m + 1):
            gap = _distance_to_affine_hull(incenter, np.delete(v, i, axis=0))
            _close(gap, float(exact), ROUTE_TOL * diam, f"incenter distance to facet {i}")
        weights, miss = _affine_weights(incenter, v)
        _require(miss <= ROUTE_TOL * diam and weights.min() >= -ROUTE_TOL, "incenter outside the simplex")
    else:
        _require(met["exact_inradius"] is None, "exact_inradius given for m < n")


def check_analyze(stdout: str, inputs: tuple) -> str | None:
    try:
        docs = _envelopes(stdout, "analyze", len(inputs))
        for doc, item in zip(docs, inputs):
            _check_simplex_report(doc, item)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_enclose(stdout: str, cloud: PointsInput) -> str | None:
    try:
        (doc,) = _envelopes(stdout, "enclose", 1)
        _require(doc["input_digest"] == cloud.digest, "input_digest is not the file's sha256")
        pts = cloud.points
        count, n = pts.shape
        payload = doc["payload"]
        _require(payload["count"] == count and payload["n"] == n, "count or n differs from the input")
        meb = payload["meb"]
        center = np.asarray(meb["center"], dtype=float)
        radius = float(meb["radius"])
        support = meb["support"]
        _require(
            0 < len(support) <= n + 1
            and support == sorted(set(support))
            and 0 <= support[0]
            and support[-1] < count,
            f"support {support!r} is not a sorted set of at most n+1 point indices",
        )
        dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
        _require(
            float(dist.max()) <= radius * (1.0 + ORDER_TOL),
            f"a point lies {float(dist.max()) - radius:.3e} outside the ball",
        )
        on_sphere = np.abs(dist[support] - radius)
        _require(
            float(on_sphere.max()) <= ROUTE_TOL * radius,
            f"a support point lies {float(on_sphere.max()):.3e} off the sphere",
        )
        # The center is a convex combination of the support points exactly
        # when the ball is the minimum one for them, hence for all points.
        weights, miss = _affine_weights(center, pts[support])
        _require(
            miss <= ROUTE_TOL * radius and float(weights.min()) >= -ROUTE_TOL,
            f"center outside the support hull (weight {float(weights.min()):.3e}, miss {miss:.3e})",
        )
        diam = float(payload["diam"])
        farthest = float(np.sqrt(((pts - pts[0]) ** 2).sum(axis=1)).max())
        _require(
            farthest * (1.0 - ORDER_TOL) <= diam <= 2.0 * radius * (1.0 + ORDER_TOL),
            f"diam {diam!r} outside [{farthest!r}, 2 * radius]",
        )
        jung = math.sqrt(n / (2.0 * n + 2.0)) * diam
        _close(payload["jung_bound"], jung, ORDER_TOL * jung, "jung_bound")
        _require(radius <= jung + ORDER_TOL * max(1.0, radius), "radius exceeds the Jung bound")
        _require(payload["bounds_hold"] is True, "bounds_hold is not true")
    except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_solve(stdout: str, spec: SolveInput) -> str | None:
    try:
        if spec.expect_rc == 6:
            _require(stdout == "", "exit 6 printed an envelope")
            return None
        (doc,) = _envelopes(stdout, "solve", 1)
        _require(doc["input_digest"] == spec.digest, "input_digest is not the file's sha256")
        p = doc["payload"]
        _require(p["function"] == spec.function, "function name differs")
        _require(p["tol"] == spec.tol and p["max_iter"] == spec.max_iter, "tol or max_iter differs")
        steps = p["steps"]
        _require(len(steps) == p["iterations"] + 1, "steps do not match iterations")
        v = spec.vertices
        m = v.shape[0] - 1
        gaps = v[:, None, :] - v[None, :, :]
        diam0 = float(np.sqrt((gaps**2).sum(axis=2)).max())
        _close(steps[0]["diam"], diam0, ORDER_TOL * diam0, "start diam")
        for depth, step in enumerate(steps):
            _require(step["depth"] == depth, "step depths are not 0, 1, 2, ...")
            cap = HALF_ROOT3 ** (depth // m) * diam0
            _close(step["kearfott_bound"], cap, ORDER_TOL * diam0, f"kearfott_bound at depth {depth}")
            _require(step["diam"] <= cap + ORDER_TOL * diam0, f"diam above the Kearfott bound at depth {depth}")
        estimate = float(p["final_error_estimate"])
        _require(estimate == steps[-1]["error_estimate"], "final_error_estimate is not the last step's")
        if spec.expect_rc == 5:
            _require(p["converged"] is False, "exit 5 but converged")
            _require(p["iterations"] == spec.max_iter, "exit 5 before the iteration budget")
            _require(estimate > spec.tol, "exit 5 with the error bound already below tol")
            return None
        _require(p["converged"] is True, "exit 0 but not converged")
        _require(estimate <= spec.tol, "error bound above tol")
        gap = float(np.linalg.norm(np.asarray(p["final_approximation"], dtype=float) - spec.root))
        _require(gap <= estimate, f"distance to the root {gap:.3e} exceeds the error bound {estimate:.3e}")
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
