import math

import numpy as np
import pytest

from simplexgeo import (
    BUILTIN_SYSTEMS,
    SystemFunction,
    barycenter,
    bisect,
    containment_bound,
    edge_profile,
    error_estimate,
    kearfott_bound,
    regular_simplex,
    solve,
    validate_simplex,
    volume,
)
from simplexgeo import bisection
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import (
    DimensionMismatch,
    EvaluationFailure,
    NoSignCriterion,
)


class TestBisect:
    def test_corner_triangle(self):
        s = validate_simplex([(0, 0), (2, 0), (0, 2)])
        lower, upper = bisect(s)
        # Longest edge is (1, 2); its midpoint (1, 1) replaces vertex 1 in
        # the lower child and vertex 2 in the upper child.
        assert np.array_equal(lower.vertices, [[0, 0], [1, 1], [0, 2]])
        assert np.array_equal(upper.vertices, [[0, 0], [2, 0], [1, 1]])

    def test_segment(self):
        s = validate_simplex([[0.0], [4.0]])
        lower, upper = bisect(s)
        assert np.array_equal(lower.vertices, [[2.0], [4.0]])
        assert np.array_equal(upper.vertices, [[0.0], [2.0]])

    def test_tie_break_smallest_pair(self):
        # Edges (0, 1) and (0, 2) are both exactly 5.0 long, so the pair
        # with the smaller indices splits.
        s = validate_simplex([(0.0, 0.0), (3.0, 4.0), (4.0, 3.0)])
        lower, upper = bisect(s)
        midpoint = np.array([1.5, 2.0])
        assert np.array_equal(lower.vertices[0], midpoint)
        assert np.array_equal(upper.vertices[1], midpoint)
        assert np.array_equal(lower.vertices[1], s.vertices[1])
        assert np.array_equal(upper.vertices[0], s.vertices[0])

    def test_children_partition_volume(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = random_simplex(rng, n, n)
            lower, upper = bisect(s)
            total = volume(lower) + volume(upper)
            assert total == pytest.approx(volume(s), rel=1e-9)

    def test_children_inherit_other_vertices(self):
        rng = np.random.default_rng(505)
        s = random_simplex(rng, 4, 7)
        i, j = edge_profile(s).diam_edge
        lower, upper = bisect(s)
        for k in range(5):
            if k != i:
                assert np.array_equal(lower.vertices[k], s.vertices[k])
            if k != j:
                assert np.array_equal(upper.vertices[k], s.vertices[k])


class TestBounds:
    def test_kearfott_values(self):
        assert kearfott_bound(0, 3, 2.0) == 2.0
        assert kearfott_bound(3, 3, 2.0) == pytest.approx(math.sqrt(3), abs=1e-15)
        assert kearfott_bound(6, 3, 2.0) == pytest.approx(1.5, abs=1e-15)
        # Depth below one full round leaves the bound unchanged.
        assert kearfott_bound(2, 3, 2.0) == 2.0

    def test_kearfott_guards(self):
        with pytest.raises(ValueError):
            kearfott_bound(-1, 3, 1.0)
        with pytest.raises(ValueError):
            kearfott_bound(0, 0, 1.0)
        with pytest.raises(ValueError):
            kearfott_bound(0, 3, 0.0)

    def test_containment_scales_kearfott(self):
        assert containment_bound(0, 3, 2.0) == pytest.approx(1.5)
        assert containment_bound(4, 2, 1.0) == pytest.approx(
            (2 / 3) * (math.sqrt(3) / 2) ** 2
        )

    def test_error_estimate_segment(self):
        assert error_estimate(validate_simplex([[0.0], [4.0]])) == pytest.approx(2.0)

    def test_error_estimate_regular_triangle(self):
        s = regular_simplex(2, 2, 1.0)
        # (2/3) sqrt(1 - 1/4) = 1/sqrt(3): the circumradius of the triangle.
        assert error_estimate(s) == pytest.approx(1 / math.sqrt(3), rel=1e-12)

    def test_error_estimate_dominates_vertex_distances(self):
        rng = np.random.default_rng(606)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            s = random_simplex(rng, m, int(rng.integers(m, 10)))
            center = barycenter(s)
            eps = error_estimate(s)
            worst = float(np.linalg.norm(s.vertices - center, axis=1).max())
            assert worst <= eps + 1e-12 * (1 + eps)

    def test_kearfott_decay_on_random_walks(self):
        # Light version of the deep acceptance walk.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 6))
            s = random_simplex(rng, m, int(rng.integers(m, 7)))
            diam0 = edge_profile(s).diam
            for p in range(1, 25):
                lower, upper = bisect(s)
                s = lower if rng.random() < 0.5 else upper
                assert edge_profile(s).diam <= kearfott_bound(p, m, diam0) + 1e-12

    def test_containment_along_walk(self):
        rng = np.random.default_rng(515)
        s = random_simplex(rng, 3, 3)
        diam0 = edge_profile(s).diam
        for p in range(1, 20):
            lower, upper = bisect(s)
            s = lower if rng.random() < 0.5 else upper
            center = barycenter(s)
            worst = float(np.linalg.norm(s.vertices - center, axis=1).max())
            assert worst <= containment_bound(p, 3, diam0) + 1e-12


class TestSolve:
    def test_linear_1d(self):
        trace = solve(BUILTIN_SYSTEMS["linear-0.7"], validate_simplex([[0.0], [1.0]]), 1e-6, 100)
        assert trace.converged
        iterations = trace.steps[-1].depth
        assert iterations <= 21
        assert trace.final_error_estimate <= 1e-6
        true_error = abs(float(trace.final_approximation[0]) - 0.7)
        assert true_error <= trace.final_error_estimate
        assert trace.residual_norm == pytest.approx(true_error, rel=1e-9)

    def test_shifted_identity_2d(self):
        s0 = validate_simplex([(0, 0), (1, 0), (0, 1)])
        trace = solve(BUILTIN_SYSTEMS["shifted-identity-2d"], s0, 1e-5, 200)
        assert trace.converged
        true_error = float(np.linalg.norm(trace.final_approximation - 0.25))
        assert true_error <= trace.final_error_estimate <= 1e-5

    def test_no_root_raises_immediately(self):
        with pytest.raises(NoSignCriterion):
            solve(BUILTIN_SYSTEMS["no-root-1d"], validate_simplex([[0.0], [1.0]]), 1e-6, 100)

    def test_cubic_1d(self):
        trace = solve(BUILTIN_SYSTEMS["cubic-1d"], validate_simplex([[0.0], [1.0]]), 1e-8, 100)
        root = 0.4 ** (1 / 3)
        assert abs(float(trace.final_approximation[0]) - root) <= trace.final_error_estimate

    def test_circle_line_2d(self):
        s0 = validate_simplex([(0, 0), (1, 0), (0, 1)])
        trace = solve(BUILTIN_SYSTEMS["circle-line-2d"], s0, 1e-5, 200)
        assert trace.converged
        true_error = float(np.linalg.norm(trace.final_approximation - 0.5))
        assert true_error <= trace.final_error_estimate

    def test_trace_structure(self):
        s0 = validate_simplex([(0, 0), (1, 0), (0, 1)])
        trace = solve(BUILTIN_SYSTEMS["shifted-identity-2d"], s0, 1e-4, 100)
        diam0 = edge_profile(s0).diam
        for k, step in enumerate(trace.steps):
            assert step.depth == k
            assert (step.child_choice is None) == (k == 0)
            if k > 0:
                assert step.child_choice in ("lower", "upper")
            assert step.diam <= step.kearfott_bound + 1e-12
            assert step.kearfott_bound == pytest.approx(kearfott_bound(k, 2, diam0))
            assert step.error_estimate <= containment_bound(k, 2, diam0) + 1e-12
        assert trace.final_error_estimate == trace.steps[-1].error_estimate

    @staticmethod
    def _count_evaluations(vertices, root):
        calls = []

        def counted(x):
            calls.append(np.array(x))
            return x - root

        s0 = validate_simplex(vertices)
        m = s0.m
        system = SystemFunction(dimension=m, evaluate=counted, name="counted")
        trace = solve(system, s0, 1e-6, 100)
        depth = trace.steps[-1].depth
        assert trace.converged
        # Initial vertices, one midpoint per bisection, final barycenter.
        assert len(calls) == (m + 1) + depth + 1

    def test_one_new_evaluation_per_step(self):
        self._count_evaluations([[0.0], [1.0]], 0.7)

    def test_one_new_evaluation_per_step_corner(self):
        self._count_evaluations([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 0.25)

    @pytest.mark.parametrize(
        "vertices, root",
        [([[0.0], [1.0]], 0.7), ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 0.25)],
        ids=["segment", "corner"],
    )
    def test_one_profile_per_accepted_simplex(self, monkeypatch, vertices, root):
        calls = []

        def counted(s):
            calls.append(s)
            return edge_profile(s)

        monkeypatch.setattr(bisection, "edge_profile", counted)
        s0 = validate_simplex(vertices)
        system = SystemFunction(dimension=s0.m, evaluate=lambda x: x - root, name="shifted")
        trace = solve(system, s0, 1e-6, 100)
        assert trace.converged
        # The start simplex and each accepted child, never a rejected one.
        assert len(calls) == trace.steps[-1].depth + 1

    @pytest.mark.parametrize(
        "name", ["linear-0.7", "cubic-1d", "shifted-identity-2d", "circle-line-2d"]
    )
    def test_replays_through_bisect(self, name):
        # solve and bisect share one split rule, so following the recorded
        # choices with the public bisect reproduces every step exactly.
        system = BUILTIN_SYSTEMS[name]
        if system.dimension == 1:
            s = validate_simplex([[0.0], [1.0]])
        else:
            s = validate_simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        trace = solve(system, s, 1e-8, 200)
        assert trace.converged
        for step in trace.steps[1:]:
            lower, upper = bisect(s)
            s = lower if step.child_choice == "lower" else upper
            profile = edge_profile(s)
            assert np.array_equal(barycenter(s), step.barycenter)
            assert profile.diam == step.diam
            assert profile.shor == step.shor

    def test_max_iter_exhaustion(self):
        trace = solve(BUILTIN_SYSTEMS["linear-0.7"], validate_simplex([[0.0], [1.0]]), 1e-9, 5)
        assert not trace.converged
        assert trace.steps[-1].depth == 5

    def test_evaluation_failure(self):
        bad = SystemFunction(dimension=1, evaluate=lambda x: x * np.nan, name="bad")
        with pytest.raises(EvaluationFailure):
            solve(bad, validate_simplex([[0.0], [1.0]]), 1e-6, 10)

    def test_dimension_guard(self):
        flat = regular_simplex(2, 3, 1.0)
        with pytest.raises(DimensionMismatch):
            solve(BUILTIN_SYSTEMS["shifted-identity-2d"], flat, 1e-6, 10)
        with pytest.raises(DimensionMismatch):
            solve(BUILTIN_SYSTEMS["linear-0.7"], validate_simplex([(0, 0), (1, 0), (0, 1)]), 1e-6, 10)

    def test_tolerance_already_met(self):
        tiny = validate_simplex([[0.69], [0.71]])
        trace = solve(BUILTIN_SYSTEMS["linear-0.7"], tiny, 0.5, 100)
        assert trace.converged
        assert trace.steps[-1].depth == 0
        assert trace.steps[0].child_choice is None
