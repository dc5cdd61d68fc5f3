"""Seeded inputs and operations for the four benchmark workloads.

Every input is drawn here with numpy from the workload seed and written to
a scratch directory before timing starts; nothing comes from
``simplexgeo.corpus``, so the inputs stay fixed when the library changes.

A workload is a list of rounds.  Every round holds the same mix of
operation classes (only the coordinates differ), and the timed loop stops
only at a round boundary, so the class mix of a run is exact whatever its
length.  Each ``Op`` carries the exit code the CLI must return and a check
of its stdout (see ``oracles``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# Rounds generated per workload.  The timed loop cycles through them, so a
# run longer than the pool repeats inputs rather than failing.
LOW_M_ROUNDS = 128
HIGH_M_ROUNDS = 32
ENCLOSE_ROUNDS = 4
SOLVE_ROUNDS = 32

# Files a multi-file analyze op reads, one op per entry, in round order.
LOW_M_FILE_COUNTS = (2, 16, 3, 12, 4, 8, 6)
LOW_M_POOL_PER_M = 40
DEFECT_POOL = 24

# m of each single-file op of an analyze-high-m round: three m=6, five m=7
# and two m=8, so the median falls inside the m=7 ops and p90 inside the
# m=8 ones.
HIGH_M_ROUND = (6, 7, 8, 7, 6, 7, 8, 7, 6, 7)

# (n, cloud kind, N low, N high) of each op of an enclose-cloud round:
# three heavy ops with up to the 10^4-point cap, eight planar ones at 2000
# points and 58 light ones.  The light and middle ops are mostly planar,
# where the O(N^2) diameter scan dominates and the cost barely depends on
# the draw, so the median falls inside the n = 2 light ops and p90 near
# the middle of the eight 2000-point ops, rather than on a boundary
# between classes or in the tail of one.  "shell" clouds put the radius in
# [0.9, 1], so most points sit near the sphere and the support set changes
# often.
ENCLOSE_ROUND = (
    ((2, "shell", 10000, 10000), (5, "gauss", 10000, 10000), (10, "gauss", 2000, 2000))
    + ((2, "gauss", 2000, 2000), (2, "shell", 2000, 2000)) * 4
    + ((2, "gauss", 1000, 1200), (2, "shell", 1000, 1200)) * 25
    + ((5, "gauss", 1000, 1200), (5, "shell", 1000, 1200)) * 4
)

SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 400

# Defect exercised on purpose by one op in each analyze-low-m round.  The
# expected outcome of that op is a full report, so it counts as failed
# until the defect is fixed.
KNOWN_DEFECT = (
    "analyze exits 4 for any simplex with ambient n > 10: combined_enclosure "
    "-> exact_meb applies MEB_MAX_DIM to the ambient dimension instead of m"
)
DEFECT_SHARE = 1.0 / (len(LOW_M_FILE_COUNTS) + 1)


@dataclass(frozen=True)
class Op:
    """One CLI invocation, its expected exit code and its stdout check.

    ``check(stdout)`` returns None when the output is right and a reason
    otherwise; it runs only when the exit code is the expected one.
    """

    key: str
    argv: tuple
    expect_rc: int
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    rounds: list

    @property
    def first_op(self) -> Op:
        return self.rounds[0][0]


def _write_json(path: str, doc: dict) -> str:
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _well_conditioned(vertices: np.ndarray) -> bool:
    diffs = vertices[1:] - vertices[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    return sv[-1] >= 1e-3 * sv[0]


def _random_simplex(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform vertices in a seeded box, redrawn until clearly nondegenerate."""
    while True:
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        offset = rng.uniform(-5.0, 5.0, size=n) * scale
        vertices = offset + scale * rng.uniform(-1.0, 1.0, size=(m + 1, n))
        if _well_conditioned(vertices):
            return vertices


class _SimplexFiles:
    """Writes simplex files into one directory and remembers their contents."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.count = 0

    def add(self, vertices: np.ndarray) -> oracles.SimplexInput:
        path = os.path.join(self.directory, f"{self.count}.json")
        self.count += 1
        digest = _write_json(path, {"vertices": vertices.tolist()})
        return oracles.SimplexInput(path, vertices, digest)


def _analyze_op(key: str, inputs: list, expect_rc: int = 0) -> Op:
    return Op(
        key=key,
        argv=("analyze", *[item.path for item in inputs]),
        expect_rc=expect_rc,
        check=lambda out, inputs=tuple(inputs): oracles.check_analyze(out, inputs),
    )


def analyze_low_m(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    files = _SimplexFiles(os.path.join(workdir, "low_m"))
    pool = []
    for m in range(1, 6):
        for _ in range(LOW_M_POOL_PER_M):
            n = int(rng.integers(m, 11))
            pool.append(files.add(_random_simplex(rng, m, n)))
    defects = []
    for k in range(DEFECT_POOL):
        m = 1 + k % 5
        n = 11 + k % 2
        defects.append(files.add(_random_simplex(rng, m, n)))
    rounds = []
    for r in range(LOW_M_ROUNDS):
        ops = []
        for k, count in enumerate(LOW_M_FILE_COUNTS):
            chosen = rng.choice(len(pool), size=count, replace=False)
            ops.append(_analyze_op(f"r{r}.{k}", [pool[i] for i in chosen]))
        # The CLI should return a full report here too; see KNOWN_DEFECT.
        ops.append(_analyze_op(f"r{r}.defect", [defects[r % DEFECT_POOL]]))
        rounds.append(ops)
    return Workload(rounds)


def hull_recursion_size(vertices: np.ndarray) -> int:
    """Faces visited when every barycenter-to-facet distance is found by
    projecting onto a face's affine hull and, whenever the foot falls
    outside the face, recursing into all of its sub-faces without memo.

    It grows with how far the nearest points lie from the facets' relative
    interiors; for m >= 6 it spans several orders of magnitude between
    simplices drawn from the same distribution.
    """
    center = vertices.mean(axis=0)
    sizes = {}

    def size(face: tuple) -> int:
        if face not in sizes:
            total = 1
            if len(face) > 1:
                rows = vertices[list(face)]
                rel = rows[1:] - rows[0]
                coef, *_ = np.linalg.lstsq(rel.T, center - rows[0], rcond=None)
                if coef.min() < -1e-12 or 1.0 - coef.sum() < -1e-12:
                    total += sum(size(face[:j] + face[j + 1:]) for j in range(len(face)))
            sizes[face] = total
        return sizes[face]

    k = vertices.shape[0]
    return sum(size(tuple(j for j in range(k) if j != i)) for i in range(k))


# Strata of hull_recursion_size for m = 6, 7, 8: (largest size in the
# stratum, share of draws that fall in it).  Measured once on 3000, 3000
# and 2000 draws of _random_simplex with n drawn in m..10; the edges are the
# sixteenths plus the 97th percentile, merged where a stratum held under 1%.
HULL_SIZE_STRATA = {
    6: ((7, 0.437), (31, 0.063), (53, 0.062), (79, 0.064), (119, 0.062),
        (170, 0.062), (237, 0.063), (324, 0.062), (443, 0.063), (565, 0.032),
        (None, 0.03)),
    7: ((8, 0.305), (97, 0.07), (184, 0.064), (266, 0.062), (403, 0.062),
        (574, 0.062), (741, 0.062), (995, 0.063), (1295, 0.062), (1659, 0.063),
        (2232, 0.062), (2725, 0.033), (None, 0.03)),
    8: ((9, 0.179), (618, 0.07), (1123, 0.063), (1751, 0.062), (2343, 0.062),
        (3154, 0.062), (3979, 0.062), (5004, 0.062), (6149, 0.062), (7599, 0.062),
        (9081, 0.062), (11463, 0.062), (14988, 0.062), (18121, 0.033), (None, 0.03)),
}


def _quotas(count: int, shares: list) -> list:
    """Split ``count`` in proportion to ``shares`` (largest remainders)."""
    raw = [count * share for share in shares]
    quotas = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda k: quotas[k] - raw[k])
    for k in by_remainder[: count - sum(quotas)]:
        quotas[k] += 1
    return quotas


def _spread_order(count: int) -> list:
    """Permutation of range(count) whose every prefix is spread evenly over
    the range (the ranks of k * golden ratio mod 1)."""
    keys = [(k * 0.6180339887498949) % 1.0 for k in range(count)]
    order = [0] * count
    for rank, k in enumerate(sorted(range(count), key=keys.__getitem__)):
        order[k] = rank
    return order


def _stratified_simplices(rng: np.random.Generator, m: int, count: int) -> list:
    """``count`` random m-simplices (n drawn in m..10), stratified on
    ``hull_recursion_size``.

    The cost of a simplex spans several orders of magnitude between draws,
    so a plain sample of a few dozen would make every seed a different
    workload.  Draws are kept only while their stratum is short of its
    quota, so each run holds the reference share of every stratum.  The
    kept simplices are sorted by size and handed out in ``_spread_order``,
    so any prefix of the rounds spans the whole range too.
    """
    edges, shares = zip(*HULL_SIZE_STRATA[m])
    missing = _quotas(count, list(shares))
    kept = []
    while len(kept) < count:
        vertices = _random_simplex(rng, m, int(rng.integers(m, 11)))
        size = hull_recursion_size(vertices)
        k = next(i for i, edge in enumerate(edges) if edge is None or size <= edge)
        if missing[k]:
            missing[k] -= 1
            kept.append((size, float(rng.random()), vertices))
    kept.sort(key=lambda item: item[:2])
    return [kept[i][2] for i in _spread_order(count)]


def analyze_high_m(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    files = _SimplexFiles(os.path.join(workdir, "high_m"))
    supply = {
        m: iter(_stratified_simplices(rng, m, HIGH_M_ROUNDS * HIGH_M_ROUND.count(m)))
        for m in sorted(set(HIGH_M_ROUND))
    }
    rounds = []
    for r in range(HIGH_M_ROUNDS):
        ops = []
        for k, m in enumerate(HIGH_M_ROUND):
            ops.append(_analyze_op(f"r{r}.{k}", [files.add(next(supply[m]))]))
        rounds.append(ops)
    return Workload(rounds)


def _cloud(rng: np.random.Generator, n: int, kind: str, count: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    offset = rng.uniform(-5.0, 5.0, size=n) * scale
    pts = rng.standard_normal((count, n))
    if kind == "shell":
        radius = rng.uniform(0.9, 1.0, size=(count, 1))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * radius
    return offset + scale * pts


def enclose_cloud(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    directory = os.path.join(workdir, "clouds")
    os.makedirs(directory, exist_ok=True)
    rounds = []
    for r in range(ENCLOSE_ROUNDS):
        # Keep a light op first: it is the op the set-up time is measured on.
        first = ENCLOSE_ROUND.index((2, "gauss", 1000, 1200))
        order = [first] + [int(k) for k in rng.permutation(len(ENCLOSE_ROUND)) if k != first]
        ops = []
        for k in order:
            n, kind, low, high = ENCLOSE_ROUND[k]
            count = int(rng.integers(low, high + 1))
            pts = _cloud(rng, n, kind, count)
            path = os.path.join(directory, f"{r}_{k}.json")
            cloud = oracles.PointsInput(pts, _write_json(path, {"points": pts.tolist()}))
            ops.append(
                Op(
                    key=f"r{r}.{k}",
                    argv=("enclose", path),
                    expect_rc=0,
                    check=lambda out, cloud=cloud: oracles.check_enclose(out, cloud),
                )
            )
        rounds.append(ops)
    return Workload(rounds)


# The benchmark's own copies of the documented built-in systems, with their
# known roots, for choosing start simplices and checking answers.
SYSTEMS = {
    "linear-0.7": (lambda x: x - 0.7, np.array([0.7])),
    "cubic-1d": (lambda x: x**3 - 0.4, np.array([0.4 ** (1.0 / 3.0)])),
    "shifted-identity-2d": (lambda x: x - 0.25, np.array([0.25, 0.25])),
    "circle-line-2d": (
        lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 0.5, x[0] - x[1]]),
        np.array([0.5, 0.5]),
    ),
    "no-root-1d": (lambda x: x + 10.0, None),
}


def reference_solve(fn, vertices: np.ndarray, tol: float, max_iter: int) -> tuple:
    """Independent model of the documented sign-based bisection.

    Splits the lexicographically first longest edge at its midpoint, keeps
    the child whose vertex values change sign in every component (values
    within 1e-12 of zero, relative, count as both signs), prefers the child
    with the smaller worst-vertex value, and stops once the barycenter error
    bound m/(m+1) * sqrt(diam^2 - (m-1)/(2m) * shor^2) reaches ``tol``.

    Returns (exit code, barycenter, error bound): 0 when converged, 5 when
    the iteration budget ran out, 6 when neither child kept a sign change.
    """
    m = vertices.shape[0] - 1

    def edges(v):
        best = None
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                d = math.sqrt(float(((v[i] - v[j]) ** 2).sum()))
                if best is None:
                    longest = shortest = d
                    best = (i, j)
                if d > longest:
                    longest, best = d, (i, j)
                shortest = min(shortest, d)
        return longest, shortest, best

    def bound(v):
        longest, shortest, _ = edges(v)
        return m / (m + 1.0) * math.sqrt(longest**2 - (m - 1.0) / (2.0 * m) * shortest**2)

    def admissible(values):
        zero = 1e-12 * (1.0 + float(np.abs(values).max()))
        return bool(((values <= zero).any(axis=0) & (values >= -zero).any(axis=0)).all())

    def values_at(v):
        return np.vstack([np.atleast_1d(fn(x)) for x in v])

    current = np.array(vertices, dtype=float)
    depth = 0
    while bound(current) > tol:
        if depth == max_iter:
            return 5, current.mean(axis=0), bound(current)
        _, _, (i, j) = edges(current)
        midpoint = 0.5 * (current[i] + current[j])
        lower = current.copy()
        lower[i] = midpoint
        upper = current.copy()
        upper[j] = midpoint
        lower_values, upper_values = values_at(lower), values_at(upper)
        lower_ok, upper_ok = admissible(lower_values), admissible(upper_values)
        if lower_ok and upper_ok:
            keep_lower = np.abs(lower_values).max() <= np.abs(upper_values).max()
        elif lower_ok or upper_ok:
            keep_lower = lower_ok
        else:
            return 6, None, None
        current = lower if keep_lower else upper
        depth += 1
    return 0, current.mean(axis=0), bound(current)


def _segment_around(rng: np.random.Generator, root: float) -> np.ndarray:
    low = rng.uniform(root - 1.5, root - 0.05)
    high = rng.uniform(root + 0.05, root + 1.5)
    return np.array([[low], [high]])


def _corner_around(rng: np.random.Generator, root: np.ndarray) -> np.ndarray:
    """Axis-aligned right isosceles triangle containing ``root``.

    Its orientation, size and the root's barycentric position are seeded.
    For circle-line-2d the right-angle corner sits on the line x = y.
    """
    size = rng.uniform(0.4, 1.2)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    legs = sign * size * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    weights = rng.dirichlet([2.0, 2.0, 2.0])
    while weights.min() < 0.05:
        weights = rng.dirichlet([2.0, 2.0, 2.0])
    return legs - weights @ legs + root


def _diagonal_corner(rng: np.random.Generator, root: np.ndarray) -> np.ndarray:
    size = rng.uniform(0.4, 1.2)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    along = rng.uniform(0.05, 0.45) * size
    legs = sign * size * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return root - sign * along + legs


def _solve_start(rng, name: str, max_iter: int, expect_rc: int) -> np.ndarray:
    """Draw a start simplex on which the reference model gives ``expect_rc``.

    For exit 0 the model must also land within its error bound of the known
    root.  The draw is repeated otherwise; the sign test is a necessary
    condition only, so some 2-D starts legitimately lose the root.
    """
    fn, root = SYSTEMS[name]
    for _ in range(1000):
        if name == "no-root-1d":
            low = rng.uniform(-5.0, 2.0)
            start = np.array([[low], [low + rng.uniform(0.5, 3.0)]])
        elif root.size == 1:
            start = _segment_around(rng, float(root[0]))
        elif name == "circle-line-2d":
            start = _diagonal_corner(rng, root)
        else:
            start = _corner_around(rng, root)
        code, approx, bound = reference_solve(fn, start, SOLVE_TOL, max_iter)
        if code != expect_rc:
            continue
        if code == 0 and np.linalg.norm(approx - root) > bound:
            continue
        return start
    raise RuntimeError(f"no start simplex for {name} with exit {expect_rc}")


# (system, expected exit code, short iteration budget or None) per op of a
# solve-deep round; the short budget ends in exit 5.  Four of the nine ops
# are cheap (1-D or cut short), so the median falls inside the 2-D ops.
SOLVE_ROUND = (
    ("linear-0.7", 0, None),
    ("cubic-1d", 0, None),
    ("shifted-identity-2d", 0, None),
    ("circle-line-2d", 0, None),
    ("shifted-identity-2d", 0, None),
    ("circle-line-2d", 0, None),
    ("circle-line-2d", 0, None),
    ("no-root-1d", 6, None),
    ("shifted-identity-2d", 5, (4, 12)),
)


def solve_deep(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    directory = os.path.join(workdir, "starts")
    os.makedirs(directory, exist_ok=True)
    rounds = []
    for r in range(SOLVE_ROUNDS):
        ops = []
        for k, (name, expect_rc, short) in enumerate(SOLVE_ROUND):
            max_iter = SOLVE_MAX_ITER if short is None else int(rng.integers(short[0], short[1] + 1))
            start = _solve_start(rng, name, max_iter, expect_rc)
            path = os.path.join(directory, f"{r}_{k}.json")
            spec = oracles.SolveInput(
                vertices=start,
                digest=_write_json(path, {"vertices": start.tolist()}),
                function=name,
                root=SYSTEMS[name][1],
                tol=SOLVE_TOL,
                max_iter=max_iter,
                expect_rc=expect_rc,
            )
            ops.append(
                Op(
                    key=f"r{r}.{k}",
                    argv=("solve", name, path, "--tol", repr(SOLVE_TOL), "--max-iter", str(max_iter)),
                    expect_rc=expect_rc,
                    check=lambda out, spec=spec: oracles.check_solve(out, spec),
                )
            )
        rounds.append(ops)
    return Workload(rounds)


BY_NAME = {
    "analyze-low-m": analyze_low_m,
    "analyze-high-m": analyze_high_m,
    "enclose-cloud": enclose_cloud,
    "solve-deep": solve_deep,
}
