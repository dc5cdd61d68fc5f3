import dataclasses
import math
import sys
import warnings
from fractions import Fraction

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
from simplexgeo import bisection, core
from simplexgeo.bisection import BisectionStep, BisectionTrace
from simplexgeo.core import Simplex
from simplexgeo.corpus import random_simplex
from simplexgeo.errors import (
    Degenerate,
    DimensionMismatch,
    EvaluationFailure,
    NoSignCriterion,
    SimplexError,
)

import exact


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

    def test_bisect_and_error_estimate_share_the_profile(self, monkeypatch):
        # Wrapped in every module that binds it, as perfbench's tracer does,
        # so that a call from any module is counted.
        calls = []

        def counted(s):
            calls.append(s)
            return edge_profile(s)

        for module in [m for name, m in sys.modules.items() if name.startswith("simplexgeo")]:
            for attr, value in list(vars(module).items()):
                if value is edge_profile:
                    monkeypatch.setattr(module, attr, counted)
        s = validate_simplex([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 3.0)])
        bisect(s)
        error_estimate(s)
        assert s.profile is s.profile
        assert calls == [s]


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

    def test_kearfott_decay_is_exact_on_dyadic_simplices(self):
        # Coordinates k / 2^10 gain one bit per split, so every midpoint is
        # exact, the float path is the exact path, and the squared decay
        # diam_p^2 <= (3/4)^(p // m) diam_0^2 holds in rationals, no slack.
        rng = np.random.default_rng(4343)
        worst = Fraction(0)
        for m in range(1, 6):
            for _ in range(16):
                s = dyadic_simplex(rng, m, m + int(rng.integers(0, 2)))
                diam0 = exact_squared_diam(s)
                for p in range(1, 6 * m + 1):
                    i, j = edge_profile(s).diam_edge
                    midpoint = [(Fraction(a) + Fraction(b)) / 2
                                for a, b in zip(s.vertices[i], s.vertices[j])]
                    lower, upper = bisect(s)
                    s, r = (lower, i) if rng.random() < 0.5 else (upper, j)
                    assert list(map(Fraction, s.vertices[r])) == midpoint
                    ratio = exact_squared_diam(s) / (Fraction(3, 4) ** (p // m) * diam0)
                    assert ratio <= 1, (m, p)
                    worst = max(worst, ratio)
        # Some path comes close to the bound, so it is not vacuous.
        assert worst > Fraction(9, 10)

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


def dyadic_simplex(rng, m, n):
    """A random m-simplex in R^n with coordinates k / 2^10, |k| <= 512."""
    while True:
        try:
            return validate_simplex(rng.integers(-512, 513, size=(m + 1, n)) / 1024)
        except Degenerate:
            continue


def exact_squared_diam(s):
    return max(max(exact.squared_distances(s.vertices, list(map(Fraction, v)))) for v in s.vertices)


# Roots that x - root keeps inside the corner simplex (the origin and the unit
# vectors) all the way to convergence; the sign test loses many others.
CORNER_ROOTS = {1: [0.3], 2: [0.25, 0.25], 3: [0.0625, 0.1875, 0.25], 4: [0.25] * 4}


TETRAHEDRON = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


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

    def test_one_new_evaluation_per_step_tetrahedron(self):
        self._count_evaluations(TETRAHEDRON, np.array(CORNER_ROOTS[3]))

    @pytest.mark.parametrize(
        "vertices, root",
        [
            ([[0.0], [1.0]], 0.7),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 0.25),
            (TETRAHEDRON, np.array(CORNER_ROOTS[3])),
        ],
        ids=["segment", "corner", "tetrahedron"],
    )
    def test_one_profile_and_replayed_steps(self, monkeypatch, vertices, root):
        calls = []

        def counted(s):
            calls.append(s)
            return edge_profile(s)

        monkeypatch.setattr(core, "edge_profile", counted)  # which Simplex.profile calls
        s = validate_simplex(vertices)
        system = SystemFunction(dimension=s.m, evaluate=lambda x: x - root, name="shifted")
        trace = solve(system, s, 1e-6, 100)
        assert trace.converged
        # Only the start simplex is profiled; every later step carries the
        # edge lengths and must match the child replayed from scratch.
        assert calls == [s]
        for step in trace.steps[1:]:
            lower, upper = bisect(s)
            s = lower if step.child_choice == "lower" else upper
            profile = edge_profile(s)
            assert profile.diam == step.diam
            assert profile.shor == step.shor
            assert np.array_equal(barycenter(s), step.barycenter)

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

    def test_tolerance_below_float_resolution_burns_the_budget(self):
        # Near (1/4, 1/4) edges of about 7e-17 have midpoints that round back
        # onto a vertex: from depth 108 on the path cycles between the same two
        # simplices, and the bound never drops below 3.7e-17 (README, exit
        # code 5).
        s = validate_simplex([(0, 0), (1, 0), (0, 1)])
        trace = solve(BUILTIN_SYSTEMS["shifted-identity-2d"], s, 1e-300, 150)
        assert not trace.converged
        assert trace.steps[-1].depth == 150
        path = [s.vertices]
        for step in trace.steps[1:]:
            lower, upper = bisect(s)
            s = lower if step.child_choice == "lower" else upper
            path.append(s.vertices)
        assert not np.array_equal(path[107], path[109])
        assert all(np.array_equal(path[d], path[d + 2]) for d in range(108, 149))
        assert [step.diam for step in trace.steps[108:110]] == [7.850462293418876e-17, 6.206335383118183e-17]
        assert trace.final_error_estimate == pytest.approx(4.9e-17, rel=0.01)
        assert min(step.error_estimate for step in trace.steps) == pytest.approx(3.7e-17, rel=0.01)
        # These collapse to a single point instead, and converge.
        segment = validate_simplex([[0.0], [1.0]])
        corner = validate_simplex(path[0])
        for name, start in (("linear-0.7", segment), ("cubic-1d", segment), ("circle-line-2d", corner)):
            trace = solve(BUILTIN_SYSTEMS[name], start, 1e-300, 150)
            assert trace.converged
            assert trace.steps[-1].diam == 0.0

    def test_max_iter_exhaustion(self):
        trace = solve(BUILTIN_SYSTEMS["linear-0.7"], validate_simplex([[0.0], [1.0]]), 1e-9, 5)
        assert not trace.converged
        assert trace.steps[-1].depth == 5

    def test_evaluation_failure(self):
        bad = SystemFunction(dimension=1, evaluate=lambda x: x * np.nan, name="bad")
        with pytest.raises(EvaluationFailure):
            solve(bad, validate_simplex([[0.0], [1.0]]), 1e-6, 10)

    def test_overflowing_value_fails_without_warning(self):
        # x**3 overflows at 4e153; the suite turns numpy's warning into an error.
        start = validate_simplex([[4.1e153], [-6.3e153]])
        with pytest.raises(EvaluationFailure, match="cubic-1d returned an invalid value"):
            solve(BUILTIN_SYSTEMS["cubic-1d"], start, 1e150, 10)

    def test_residual_beyond_the_square_root_of_the_float_range(self):
        # f(x) is near 1e165 at the final barycenter: finite, but its square is not.
        start = validate_simplex([[-1.1926250032960653e55], [6.446401399467394e54]])
        trace = solve(BUILTIN_SYSTEMS["cubic-1d"], start, 1e52, 100)
        x = trace.final_approximation[0]
        assert trace.residual_norm == abs(x**3 - 0.4) > 1e154

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


class TestErrstate:
    """``solve`` opens one errstate for the whole run and leaves the caller's."""

    @pytest.mark.parametrize(
        "system, outcome",
        [
            (BUILTIN_SYSTEMS["linear-0.7"], BisectionTrace),
            (BUILTIN_SYSTEMS["no-root-1d"], NoSignCriterion),
            (SystemFunction(1, lambda x: x * np.nan, "bad"), EvaluationFailure),
        ],
        ids=["returns", "no-sign-criterion", "evaluation-failure"],
    )
    def test_caller_error_state_is_restored(self, system, outcome):
        before = np.geterr()
        segment = validate_simplex([[0.0], [1.0]])
        with np.errstate(over="raise", invalid="raise"):
            inside = np.geterr()
            assert type(run_or_raise(solve, system, segment, 1e-6, 50)) is outcome
            assert np.geterr() == inside
        assert np.geterr() == before

    def test_python_float_overflow_fails_without_warning(self):
        # Python float arithmetic overflows to inf silently; numpy has no part in it.
        system = SystemFunction(1, lambda x: [float(x[0]) * 1e308 * 1e308], "python-inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure, match=r"python-inf .* invalid value at \[1.0\]$"):
                solve(system, validate_simplex([[0.0], [1.0]]), 1e-6, 10)

    def test_start_far_from_the_origin_runs_without_warning(self):
        # Near 1e300 one ulp is about 1.5e284, so no simplex there passes the
        # range rule: a squared extent near (1e284)**2 overflows.
        with pytest.raises(OverflowError):
            validate_simplex([[1e300, 1e300], [1e300 + 2e284, 1e300], [1e300, 1e300 + 2e284]])
        # Near 1e160 an extent of 5e153 passes, with the midpoints, squared
        # lengths and values all close to the top of the float range.
        start = validate_simplex(1e160 + np.vstack([np.zeros(2), 5e153 * np.eye(2)]))
        center = start.vertices.mean(axis=0)
        system = SystemFunction(2, lambda x: x - center, "far-2d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(system, start, 1e148, 200)
        assert trace.converged
        for step in trace.steps:
            assert math.isfinite(step.diam) and step.shor > 0.0
            assert np.isfinite(step.barycenter).all()
        assert math.isfinite(trace.residual_norm)


def reference_solve(f, s0, tol, max_iter):
    """The two-pass step rule that ``solve`` replaced, kept as a reference.

    Each child is split from its own copy of the rows, passes its own sign
    test, and ``min`` over the admissible children recomputes each worst
    |value| as its key, so the lower child wins ties.
    """

    def evaluate(x):
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.asarray(f.evaluate(x), dtype=float)
        if value.shape != (f.dimension,) or not np.all(np.isfinite(value)):
            raise EvaluationFailure(f"{f.name} returned an invalid value at {x.tolist()}")
        return value

    def split(rows, edge, new_row=None):
        i, j = edge
        if new_row is None:
            new_row = 0.5 * (rows[i] + rows[j])
        lower, upper = np.array(rows), np.array(rows)
        lower[i] = new_row
        upper[j] = new_row
        return lower, upper

    def admissible(values):
        zero = 1e-12 * (1.0 + float(np.abs(values).max()))
        has_low = (values <= zero).any(axis=0)
        has_high = (values >= -zero).any(axis=0)
        return bool((has_low & has_high).all())

    def record(s, depth, choice):
        profile = edge_profile(s)
        return BisectionStep(
            depth=depth,
            child_choice=choice,
            diam=profile.diam,
            shor=profile.shor,
            error_estimate=error_estimate(s),
            kearfott_bound=kearfott_bound(depth, s.m, diam0),
            barycenter=barycenter(s),
        )

    current, diam0 = s0, edge_profile(s0).diam
    values = np.vstack([evaluate(v) for v in s0.vertices])
    steps = [record(current, 0, None)]
    while steps[-1].error_estimate > tol and len(steps) <= max_iter:
        edge = edge_profile(current).diam_edge
        lower, upper = split(current.vertices, edge)
        lower_values, upper_values = split(values, edge, evaluate(lower[edge[0]]))
        children = (("lower", lower, lower_values), ("upper", upper, upper_values))
        candidates = [child for child in children if admissible(child[2])]
        if not candidates:
            raise NoSignCriterion(
                f"neither child keeps a sign change for {f.name} at depth {len(steps) - 1}"
            )
        choice, rows, values = min(candidates, key=lambda c: np.abs(c[2]).max())
        current = Simplex(rows)
        steps.append(record(current, len(steps), choice))
    approximation = barycenter(current)
    value = evaluate(approximation)
    residual = math.hypot(*value)
    return BisectionTrace(
        steps=steps,
        final_approximation=approximation,
        final_error_estimate=steps[-1].error_estimate,
        converged=steps[-1].error_estimate <= tol,
        residual_norm=residual,
    )


def run_or_raise(solver, *args):
    try:
        return solver(*args)
    except SimplexError as exc:
        return exc


def assert_matches_reference(system, s0, tol=1e-10, max_iter=400):
    """``solve`` repeats the reference exactly: every field of every step,
    the final fields, or the same exception with the same message."""
    want = run_or_raise(reference_solve, system, s0, tol, max_iter)
    got = run_or_raise(solve, system, s0, tol, max_iter)
    if isinstance(want, SimplexError):
        assert type(got) is type(want) and str(got) == str(want)
        return want
    assert not isinstance(got, SimplexError), f"solve raised {got!r}"
    assert len(got.steps) == len(want.steps)
    for step, ref in zip(got.steps, want.steps):
        for field in dataclasses.fields(BisectionStep):
            value, expected = getattr(step, field.name), getattr(ref, field.name)
            assert np.array_equal(value, expected), (step.depth, field.name)
    assert np.array_equal(got.final_approximation, want.final_approximation)
    assert got.final_error_estimate == want.final_error_estimate
    assert got.residual_norm == want.residual_norm
    assert got.converged is want.converged
    return got


def spike_system(at_origin, elsewhere):
    """f is ``at_origin`` at the origin and ``elsewhere`` at every other point."""
    return SystemFunction(
        len(at_origin), lambda x: at_origin if not x.any() else elsewhere, "spike"
    )


class TestStepRule:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
    def test_builtin_systems_from_seeded_starts(self, name):
        system = BUILTIN_SYSTEMS[name]
        m = system.dimension
        rng = np.random.default_rng(1601)
        outcomes = set()
        for _ in range(12):
            # A corner simplex of random size around a random point of the
            # unit box, which holds every root of the built-in systems.
            legs = rng.uniform(0.5, 1.5) * np.vstack([np.zeros(m), np.eye(m)])
            weights = rng.dirichlet(np.full(m + 1, 2.0))
            start = Simplex(legs - weights @ legs + rng.uniform(0.0, 1.0, m))
            outcomes.add(type(assert_matches_reference(system, start)))
        if name != "no-root-1d":
            assert BisectionTrace in outcomes
        assert NoSignCriterion in outcomes

    @pytest.mark.parametrize("m", range(1, 5))
    def test_linear_systems(self, m):
        corner = validate_simplex(np.vstack([np.zeros(m), np.eye(m)]))
        root = np.array(CORNER_ROOTS[m])
        shifted = SystemFunction(m, lambda x: x - root, f"shifted-{m}d")
        assert assert_matches_reference(shifted, corner, 1e-8).converged
        rng = np.random.default_rng(1610 + m)
        for _ in range(6):
            a = rng.standard_normal((m, m)) + m * np.eye(m)
            root = rng.uniform(-1.0, 1.0, m)
            system = SystemFunction(m, lambda x, a=a, root=root: a @ (x - root), f"linear-{m}d")
            # The root starts at the barycenter of the first start; the
            # second need not contain it.
            shape = random_simplex(rng, m, m, 1.0).vertices
            assert_matches_reference(system, Simplex(shape - shape.mean(axis=0) + root), 1e-8)
            assert_matches_reference(system, random_simplex(rng, m, m, 2.0), 1e-8, 60)

    @pytest.mark.parametrize("m", range(5, 11))
    def test_linear_systems_at_higher_m(self, m):
        # These paths lose the sign criterion within a few dozen steps, so
        # each is compared twice: to the exception with the full budget, and
        # step for step with the budget cut to end just before it (exit 5).
        corner = validate_simplex(np.vstack([np.zeros(m), np.eye(m)]))
        rng = np.random.default_rng(1620 + m)
        for _ in range(3):
            a = rng.standard_normal((m, m)) + m * np.eye(m)
            root = rng.dirichlet(np.full(m + 1, 2.0)) @ corner.vertices
            system = SystemFunction(m, lambda x, a=a, root=root: a @ (x - root), f"linear-{m}d")
            failure = assert_matches_reference(system, corner, 1e-10, 400)
            assert isinstance(failure, NoSignCriterion)
            depth = int(str(failure).rsplit(" ", 1)[1])
            trace = assert_matches_reference(system, corner, 1e-10, depth)
            assert not trace.converged
            assert trace.steps[-1].depth == depth

    def test_interior_root_can_end_without_a_sign_criterion(self):
        # The sign test is necessary only, so the kept child can miss a root
        # inside the start simplex: from the unit corner tetrahedron this one
        # ends at depth 8 (README, exit code 6).  The same f converges in R^2.
        root = np.full(3, 0.25)
        system = SystemFunction(3, lambda x: x - root, "quarter-3d")
        with pytest.raises(NoSignCriterion, match="at depth 8$"):
            solve(system, validate_simplex(TETRAHEDRON), 1e-8, 200)
        planar = SystemFunction(2, lambda x: x - root[:2], "quarter-2d")
        trace = solve(planar, validate_simplex([(0, 0), (1, 0), (0, 1)]), 1e-8, 200)
        assert trace.converged
        assert np.allclose(trace.final_approximation, root[:2], atol=1e-7)

    def test_exact_tie_keeps_the_lower_child(self):
        # Both children of [0, 1] keep the zero at 0.5 with worst |value| 0.5.
        system = SystemFunction(1, lambda x: x - 0.5, "tie")
        trace = assert_matches_reference(system, validate_simplex([[0.0], [1.0]]), 1e-6, 50)
        assert trace.steps[1].child_choice == "lower"

    def test_only_the_upper_child_is_admissible(self):
        # The midpoint 0.5 leaves the root 0.3 in the upper child [0, 0.5].
        system = SystemFunction(1, lambda x: x - 0.3, "upper-only")
        trace = assert_matches_reference(system, validate_simplex([[0.0], [1.0]]), 1e-6, 50)
        assert trace.steps[1].child_choice == "upper"

    @pytest.mark.parametrize("m", range(1, 4))
    def test_exact_zero_at_a_vertex(self, m):
        rng = np.random.default_rng(1900 + m)
        start = random_simplex(rng, m, m, 1.0)
        for v in start.vertices:
            # Every component is 0 at v, then only the first one.
            a = rng.standard_normal((m, m)) + m * np.eye(m)
            zero_all = SystemFunction(m, lambda x, a=a, v=v: a @ (x - v), "zero-all")
            assert_matches_reference(zero_all, start)
            root = np.concatenate([v[:1], rng.uniform(-1.0, 1.0, m - 1)])
            assert_matches_reference(SystemFunction(m, lambda x, r=root: x - r, "zero-one"), start)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_values_exactly_at_the_sign_threshold(self, m):
        # Every worst |value| is `big`, so zero is the same for every child;
        # a component at exactly +zero or -zero at the origin counts as both
        # signs, and one ulp beyond it does not.
        corner = validate_simplex(np.vstack([np.zeros(m), np.eye(m)]))
        big = 3.0
        zero = 1e-12 * (1.0 + big)
        for signs in (np.resize([1.0, -1.0], m), np.resize([-1.0, 1.0], m)):
            at = spike_system(signs * zero, signs * big)
            assert assert_matches_reference(at, corner).converged
            beyond = spike_system(signs * np.nextafter(zero, math.inf), signs * big)
            failure = assert_matches_reference(beyond, corner)
            assert isinstance(failure, NoSignCriterion) and str(failure).endswith("at depth 0")

    @pytest.mark.parametrize("m", range(1, 4))
    def test_equal_worst_values_keep_the_lower_child(self, m):
        # The first split edge runs from -e1 to e1, so both children hold the
        # zero at the origin and both have worst |value| 1.
        start = validate_simplex(np.vstack([-np.eye(m)[:1], np.eye(m)]))
        trace = assert_matches_reference(spike_system(np.zeros(m), np.ones(m)), start)
        assert trace.converged
        assert trace.steps[1].child_choice == "lower"
