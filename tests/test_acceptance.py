"""Acceptance suite: one test and one printed verdict line per criterion.

Each test measures the shipped guarantee at its pinned tolerance and
prints ``ACn <name>: PASS/FAIL (detail)``.  Run ``pytest -s`` to see the
lines as they happen; a FAIL line always comes with a failing assert.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from simplexgeo import (
    BUILTIN_SYSTEMS,
    barycenter,
    barycentric_circumradius,
    barycentric_inradius,
    barycentric_inradius_estimate,
    bisect,
    blumenthal_wahlin_check,
    carnot_regular_check,
    combined_enclosure,
    commandino_ratio,
    edge_profile,
    exact_inradius_fulldim,
    face_centroid,
    fermat_sum_regular,
    kearfott_bound,
    median_length,
    median_sums,
    pythagoras_regular_residual,
    regular_simplex,
    regular_width,
    solve,
    steinhagen_bound,
    validate_simplex,
    volume,
)
from simplexgeo.cli import main
from simplexgeo.corpus import random_simplex


def _verdict(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_ac1_squared_median_identity(mixed_corpus):
    start = time.perf_counter()
    worst_residual = 0.0
    worst_median_gap = 0.0
    for s in mixed_corpus:
        diam = edge_profile(s).diam
        report = median_sums(s)
        worst_residual = max(
            worst_residual,
            max(abs(r) for r in report.apollonius_residuals) / diam**2,
        )
        for i in range(s.m + 1):
            oracle = float(np.linalg.norm(s.vertices[i] - face_centroid(s, i)))
            gap = abs(report.median_lengths[i] - oracle) / diam
            worst_median_gap = max(worst_median_gap, gap)
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-9 and worst_median_gap <= 1e-9 and elapsed <= 5.0
    _verdict(
        "AC1 squared-median identity, 1000-simplex corpus",
        ok,
        f"residual {worst_residual:.2e} diam^2, formula-vs-oracle "
        f"{worst_median_gap:.2e} diam, {elapsed:.2f}s of 5s",
    )


def test_ac2_commandino_ratio(mixed_corpus):
    worst = 0.0
    for s in mixed_corpus:
        diam = edge_profile(s).diam
        for i in range(s.m + 1):
            to_face, to_vertex = commandino_ratio(s, i)
            worst = max(worst, abs(to_vertex - s.m * to_face) / diam)
    ok = worst <= 1e-9
    _verdict(
        "AC2 barycenter section ratio m:1 on medians",
        ok,
        f"worst deviation {worst:.2e} diam",
    )


def test_ac3_median_sum_identities(mixed_corpus):
    worst = 0.0
    for s in mixed_corpus:
        rep = median_sums(s)
        m = s.m
        pairs = (
            (rep.sum_squares_medians, (m + 1.0) / m**2 * rep.sum_squares_edges),
            (rep.sum_squares_center_to_vertices, rep.sum_squares_edges / (m + 1.0)),
        )
        for lhs, rhs in pairs:
            worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    # For triangles the two coefficients reduce to 3/4 and 1/3 exactly.
    coeff_ok = (2 + 1.0) / 2**2 == 0.75 and 1.0 / (2 + 1.0) == 1.0 / 3.0
    tri = median_sums(validate_simplex([(0, 0), (4, 0), (1, 3)]))
    tri_gap = max(
        abs(tri.sum_squares_medians - 0.75 * tri.sum_squares_edges)
        / tri.sum_squares_medians,
        abs(tri.sum_squares_center_to_vertices - tri.sum_squares_edges / 3.0)
        / tri.sum_squares_center_to_vertices,
    )
    ok = worst <= 1e-9 and coeff_ok and tri_gap <= 1e-12
    _verdict(
        "AC3 squared-sum identities and triangle constants",
        ok,
        f"worst relative residual {worst:.2e}, triangle gap {tri_gap:.2e}",
    )


def test_ac4_golden_values():
    gaps = {}
    tri = regular_simplex(2, 2, 1.0)
    radius_tri, _ = barycentric_circumradius(tri)
    gaps["triangle circumradius"] = abs(radius_tri - 1 / math.sqrt(3))
    derived = validate_simplex([barycenter(tri), tri.vertices[1], tri.vertices[2]])
    radius_derived, _ = barycentric_circumradius(derived)
    gaps["derived circumradius"] = abs(radius_derived - math.sqrt(7 / 27))
    strictly_below = radius_derived < 1 / math.sqrt(3)
    tet = regular_simplex(3, 3, 1.0)
    gaps["tetra median"] = abs(median_length(tet, 0) - math.sqrt(2 / 3))
    radius_tet, _ = barycentric_circumradius(tet)
    gaps["tetra circumradius"] = abs(radius_tet - math.sqrt(3 / 8))
    inradius_tet, _ = barycentric_inradius(tet)
    gaps["tetra inradius"] = abs(inradius_tet - 1 / math.sqrt(24))
    fermat_measured, fermat_closed = fermat_sum_regular(tet)
    gaps["tetra vertex-distance sum"] = max(
        abs(fermat_measured - math.sqrt(6)), abs(fermat_closed - math.sqrt(6))
    )
    gaps["tetra width"] = abs(regular_width(3, 1.0) - math.sqrt(0.5))
    worst = max(gaps.values())
    ok = worst <= 1e-12 and strictly_below
    _verdict(
        "AC4 golden closed-form values",
        ok,
        f"worst gap {worst:.2e}, derived < 3^-1/2: {strictly_below}",
    )


def test_ac5_enclosure_dominance(fulldim_corpus):
    worst = -math.inf
    for s in fulldim_corpus:
        rep = combined_enclosure(s)
        diam = edge_profile(s).diam
        cap = min(rep.barycentric_circumradius, rep.jung_bound)
        worst = max(worst, (rep.meb_radius - cap) / diam)
    ok = worst <= 1e-12
    _verdict(
        "AC5 exact ball below both enclosure bounds, 500 simplices",
        ok,
        f"worst excess {worst:.2e} diam",
    )


def test_ac6_subset_enclosure_equality():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        count = int(rng.integers(n + 1, 13))
        points = rng.uniform(-5.0, 5.0, size=(count, n))
        subset_max, full = blumenthal_wahlin_check(points, n)
        worst = max(worst, abs(subset_max - full) / full)
    ok = worst <= 1e-9
    _verdict(
        "AC6 subset ball maximum equals full ball, 50 point sets",
        ok,
        f"worst relative gap {worst:.2e}",
    )


def test_ac7_inradius_ordering(fulldim_corpus):
    worst_estimate = -math.inf
    worst_exact = -math.inf
    for s in fulldim_corpus:
        diam = edge_profile(s).diam
        beta, _ = barycentric_inradius(s)
        estimate, _ = barycentric_inradius_estimate(s)
        _, rho = exact_inradius_fulldim(s)
        worst_estimate = max(worst_estimate, (beta - estimate) / diam)
        worst_exact = max(worst_exact, (beta - rho) / diam)
    regular_gap = 0.0
    for m in range(1, 9):
        s = regular_simplex(m, m, 1.0)
        beta, _ = barycentric_inradius(s)
        estimate, _ = barycentric_inradius_estimate(s)
        _, rho = exact_inradius_fulldim(s)
        regular_gap = max(regular_gap, abs(beta - estimate), abs(beta - rho))
    ok = worst_estimate <= 1e-12 and worst_exact <= 1e-12 and regular_gap <= 1e-10
    _verdict(
        "AC7 barycentric inradius below estimate and exact inradius",
        ok,
        f"excess vs estimate {worst_estimate:.2e}, vs exact {worst_exact:.2e}, "
        f"regular gap {regular_gap:.2e}",
    )


def test_ac8_carnot_pythagoras_regular():
    worst = 0.0
    for m in range(2, 9):
        s = regular_simplex(m, m, 1.0)
        total, radii_sum = carnot_regular_check(s)
        worst = max(worst, abs(total - radii_sum) / radii_sum)
        # Unit edges make the squared hypotenuse exactly the scale, so the
        # raw right-angle defect is already relative.
        worst = max(worst, abs(pythagoras_regular_residual(s, 0, 1)))
    ok = worst <= 1e-10
    _verdict(
        "AC8 regular-simplex centroid-sum and right-angle identities",
        ok,
        f"worst relative residual {worst:.2e}",
    )


def test_ac9_kearfott_decay():
    violations = 0
    worst_volume_gap = 0.0
    volume_checks = 0
    for seed in range(200):
        rng = np.random.default_rng(77000 + seed)
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 7))
        s0 = random_simplex(rng, m, n)
        diam0 = edge_profile(s0).diam
        # Both children of every node down to depth 10.
        stack = [(s0, 0)]
        while stack:
            node, depth = stack.pop()
            if edge_profile(node).diam > kearfott_bound(depth, m, diam0) + 1e-12:
                violations += 1
            if depth == 10:
                continue
            lower, upper = bisect(node)
            if m == n:
                parent = volume(node)
                gap = abs(volume(lower) + volume(upper) - parent) / parent
                worst_volume_gap = max(worst_volume_gap, gap)
                volume_checks += 1
            stack.append((lower, depth + 1))
            stack.append((upper, depth + 1))
        # One random-selection path all the way to depth 30.
        node = s0
        for depth in range(1, 31):
            lower, upper = bisect(node)
            node = lower if rng.random() < 0.5 else upper
            if edge_profile(node).diam > kearfott_bound(depth, m, diam0) + 1e-12:
                violations += 1
    ok = violations == 0 and worst_volume_gap <= 1e-9 and volume_checks > 0
    _verdict(
        "AC9 diameter decay along bisection paths to depth 30, 200 seeds",
        ok,
        f"{violations} bound violations, worst volume split gap "
        f"{worst_volume_gap:.2e} over {volume_checks} splits",
    )


def test_ac10_solver_convergence():
    start = time.perf_counter()
    segment = validate_simplex([(0.0,), (1.0,)])
    trace_1d = solve(BUILTIN_SYSTEMS["linear-0.7"], segment, 1e-6, 100)
    gap_1d = abs(float(trace_1d.final_approximation[0]) - 0.7)
    ok_1d = (
        trace_1d.converged
        and trace_1d.steps[-1].depth <= 21
        and trace_1d.final_error_estimate <= 1e-6
        and gap_1d <= trace_1d.final_error_estimate
    )
    corner = validate_simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    trace_2d = solve(BUILTIN_SYSTEMS["shifted-identity-2d"], corner, 1e-5, 200)
    gap_2d = float(np.linalg.norm(trace_2d.final_approximation - np.array([0.25, 0.25])))
    ok_2d = (
        trace_2d.converged
        and trace_2d.final_error_estimate <= 1e-5
        and gap_2d <= trace_2d.final_error_estimate
    )
    elapsed = time.perf_counter() - start
    ok = ok_1d and ok_2d and elapsed <= 1.0
    _verdict(
        "AC10 sign-based solver converges with dominating error estimate",
        ok,
        f"1-D {trace_1d.steps[-1].depth} iters error {gap_1d:.2e}, "
        f"2-D error {gap_2d:.2e}, {elapsed:.2f}s of 1s",
    )


def test_ac11_steinhagen_tightness():
    worst = 0.0
    for n in (1, 3, 5, 7):
        s = regular_simplex(n, n, 1.0)
        inradius, _ = barycentric_inradius(s)
        worst = max(worst, abs(steinhagen_bound(n, inradius) - regular_width(n, 1.0)))
    ok = worst <= 1e-10
    _verdict(
        "AC11 width bound attained by regular simplices, odd dimensions",
        ok,
        f"worst gap {worst:.2e}",
    )


def test_ac12_cli_determinism(tmp_path, capsys):
    simplex_path = tmp_path / "simplex.json"
    simplex_path.write_text(
        json.dumps({"vertices": [[0.3, 0.1], [2.2, 0.4], [0.5, 1.9]]})
    )
    points_path = tmp_path / "points.json"
    points_path.write_text(
        json.dumps({"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]})
    )
    segment_path = tmp_path / "segment.json"
    segment_path.write_text(json.dumps({"vertices": [[0.0], [1.0]]}))
    invocations = [
        ["analyze", str(simplex_path)],
        ["enclose", str(points_path), "--variant-jung", "--bw-check"],
        ["solve", "linear-0.7", str(segment_path)],
        ["regular", "--m", "3", "--n", "3"],
        ["corpus", "--seed", "5", "--count", "4"],
    ]
    identical = True
    for argv in invocations:
        code_first = main(argv)
        first = capsys.readouterr().out
        code_second = main(argv)
        second = capsys.readouterr().out
        identical = identical and code_first == code_second == 0
        identical = identical and first == second and first != ""
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "simplexgeo.cli",
               "analyze", str(simplex_path)]
    runs = [subprocess.run(command, capture_output=True, check=True) for _ in range(2)]
    identical = identical and runs[0].stdout == runs[1].stdout
    identical = identical and runs[0].stderr == runs[1].stderr == b""
    _verdict(
        "AC12 byte-identical reports for identical invocations",
        identical,
        f"{len(invocations)} in-process command pairs plus one process pair",
    )
