"""Shared corpus builders and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from simplexgeo.corpus import generate, random_simplex


@pytest.fixture(scope="session")
def mixed_corpus():
    """1000 random simplices, 1 <= m <= 8, m <= n <= 12, coords in [-10, 10]."""
    return generate(20260822, 1000)


@pytest.fixture(scope="session")
def fulldim_corpus():
    """500 random full-dimensional simplices with n <= 6."""
    rng = np.random.default_rng(314159)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        out.append(random_simplex(rng, n, n))
    return out


def random_rigid_motion(rng: np.random.Generator, n: int):
    """Random orthogonal matrix and translation vector."""
    gauss = rng.normal(size=(n, n))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    shift = rng.uniform(-5.0, 5.0, size=n)
    return q, shift


def translation_cases():
    """Seeded point sets for translation tests, as (name, points) pairs.

    Simplices with m = 1..8 and n = m..m+2, then clouds of 200 points in
    R^2, R^5 and R^10: Gaussian, and the same points pushed onto the unit
    sphere.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    for m in range(1, 9):
        for n in range(m, m + 3):
            cases.append((f"simplex-m{m}-n{n}", random_simplex(rng, m, n).vertices))
    for n in (2, 5, 10):
        gauss = rng.normal(size=(200, n))
        cases.append((f"gauss-n{n}", gauss))
        cases.append((f"shell-n{n}", gauss / np.linalg.norm(gauss, axis=1, keepdims=True)))
    return cases


def point_set_diameter(points) -> float:
    gaps = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", gaps, gaps).max()))


def all_pairs_diameter(pts) -> float:
    """Every pair, with the per-pair expression the pruned scan uses."""
    best = 0.0
    for row in range(pts.shape[0] - 1):
        gaps = pts[row + 1 :] - pts[row]
        best = max(best, float(np.max(np.einsum("ij,ij->i", gaps, gaps))))
    return math.sqrt(best)


def translate_far(points, k: int) -> np.ndarray:
    """The points moved by 10^k times their diameter along a seeded unit vector."""
    direction = np.random.default_rng(k).normal(size=points.shape[1])
    direction /= np.linalg.norm(direction)
    return points + 10.0**k * point_set_diameter(points) * direction


def unit_sphere(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def shell_cloud(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return unit_sphere(rng, count, n) * rng.uniform(0.9, 1.0, size=(count, 1))


def _moved_gaussian() -> np.ndarray:
    rng = np.random.default_rng(31)
    direction = rng.normal(size=3)
    return rng.normal(size=(1000, 3)) + 1e8 * direction / np.linalg.norm(direction)


def _signed_permutations() -> np.ndarray:
    """Points at one distance from the center, and pairs at one length, in
    exact arithmetic; the rounding of each sum decides which is longest."""
    rng = np.random.default_rng(9)
    v = rng.normal(size=8)
    perms = np.array([rng.permutation(v) for _ in range(200)])
    return np.vstack([perms, -perms]) + 0.3


# Clouds on which a squared length summed across coordinates, or taken from
# a Gram product, may rank points or pairs otherwise than the row sum that
# measures them: coordinates far larger than the cloud, row sums that add
# pairwise (n >= 8), and many points or pairs tied in exact arithmetic.  The
# last one fails when nothing within a margin of the largest is summed again.
RESCAN_CLOUDS = {
    "gauss-3-moved-1e8": _moved_gaussian(),
    "shell-8": shell_cloud(np.random.default_rng(32), 1000, 8),
    "shell-10": shell_cloud(np.random.default_rng(33), 1000, 10),
    "cross-polytope-5-repeated": np.repeat(np.vstack([np.eye(5), -np.eye(5)]), 4, axis=0),
    "signed-permutations-8": _signed_permutations(),
}


def brute_force_meb(points) -> float:
    """Smallest enclosing radius by exhaustive support-subset enumeration.

    For every subset of up to n+1 points, the circumcenter within the
    subset's affine hull comes from the min-norm solution of the classic
    equidistance equations; the answer is the smallest candidate ball that
    covers everything.  Independent of the incremental search under test.
    """
    pts = np.asarray(points, dtype=float)
    count, n = pts.shape
    best = np.inf
    for size in range(1, min(count, n + 1) + 1):
        for combo in itertools.combinations(range(count), size):
            sub = pts[list(combo)]
            if size == 1:
                center = sub[0]
            else:
                rows = 2.0 * (sub[1:] - sub[0])
                rhs = np.einsum("ij,ij->i", sub[1:] - sub[0], sub[1:] - sub[0])
                shift, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
                center = sub[0] + shift
            radius = float(np.linalg.norm(pts[list(combo)] - center, axis=1).max())
            if float(np.linalg.norm(pts - center, axis=1).max()) <= radius * (1 + 1e-9):
                best = min(best, radius)
    return best


def reference_render(obj) -> str:
    """The serialiser's reference: one ``isinstance`` chain per node and one
    ``json.dumps`` per key and string.

    This was ``cli.render_json`` before exact-type dispatch; the library's
    output must match it byte for byte.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        return f"{value:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_render(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key)}:{reference_render(obj[key])}")
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_render(x) for x in obj) + "]"
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return reference_render(fields)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
