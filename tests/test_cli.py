"""End-to-end tests for the command-line interface.

Most tests drive ``main(argv)`` in process and capture stdout/stderr; a
couple shell out to a real interpreter to confirm byte determinism
across processes.
"""

import builtins
import collections
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgeo import (
    apollonius,
    barycentric_circumradius,
    bisection,
    core,
    enclosing,
    regular_simplex,
    validate_simplex,
)
from simplexgeo.cli import (
    EXIT_CAP,
    EXIT_DEGENERATE,
    EXIT_FAILURE,
    EXIT_MAX_ITER,
    EXIT_NO_SIGN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_FUNCTION,
    main,
    render_json,
)
from simplexgeo.corpus import random_simplex

from conftest import (
    all_pairs_diameter,
    brute_force_meb,
    reference_render,
    translate_far,
    translation_cases,
)


def write_simplex(tmp_path, name, vertices):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": [list(map(float, v)) for v in vertices]}))
    return path


def write_points(tmp_path, name, points):
    path = tmp_path / name
    path.write_text(json.dumps({"points": [list(map(float, p)) for p in points]}))
    return path


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_envelope(out):
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
TRANSLATION_CASES = translation_cases()


class TestRenderJson:
    def test_sorted_keys_and_float_format(self):
        text = render_json({"b": 1.0 / 3.0, "a": True, "c": [1, None]})
        assert text == '{"a":true,"b":0.33333333333333331,"c":[1,null]}'

    def test_floats_round_trip(self):
        for value in (1 / math.sqrt(3), math.pi, 1e-300, -2.5e17):
            assert json.loads(render_json(value)) == value

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json({"x": object()})


class TestAnalyze:
    def test_regular_triangle_report(self, tmp_path, capsys):
        s = regular_simplex(2, 2, 1.0)
        path = write_simplex(tmp_path, "tri.json", s.vertices)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        doc = parse_envelope(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "analyze"
        assert doc["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        payload = doc["payload"]
        assert payload["enclosure"]["barycentric_circumradius"] == pytest.approx(
            1 / math.sqrt(3), abs=1e-12
        )
        assert payload["metrics"]["barycentric_inradius"] == pytest.approx(
            1 / (2 * math.sqrt(3)), abs=1e-12
        )
        assert payload["metrics"]["thickness"] == pytest.approx(
            1 / (2 * math.sqrt(3)), abs=1e-12
        )

    def test_right_triangle_medians(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "right.json", [(0, 0), (2, 0), (0, 2)])
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        medians = parse_envelope(out)["payload"]["medians"]["median_lengths"]
        assert medians == pytest.approx(
            [math.sqrt(2), math.sqrt(5), math.sqrt(5)], abs=1e-12
        )

    def test_float_round_trip_is_exact(self, tmp_path, capsys):
        s = validate_simplex([(0.1, 0.2), (1.7, -0.3), (0.4, 2.9)])
        path = write_simplex(tmp_path, "s.json", s.vertices)
        _, out, _ = run_cli(["analyze", str(path)], capsys)
        value = parse_envelope(out)["payload"]["enclosure"]["barycentric_circumradius"]
        assert value == barycentric_circumradius(s)[0]

    def test_collinear_exits_degenerate(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "flat.json", [(0, 0), (1, 1), (2, 2)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "error:" in err

    def test_multiple_files_keep_order(self, tmp_path, capsys):
        paths = [
            write_simplex(tmp_path, "a.json", [(0, 0), (1, 0), (0, 1)]),
            write_simplex(tmp_path, "b.json", [(0, 0), (2, 0), (0, 2)]),
            write_simplex(tmp_path, "c.json", [(0.0,), (1.0,)]),
        ]
        code, out, _ = run_cli(["analyze"] + [str(p) for p in paths], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 3
        digests = [json.loads(line)["input_digest"] for line in lines]
        assert digests == [
            hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
        ]

    @pytest.mark.parametrize("m, n", [(1, 11), (3, 12)])
    def test_ambient_dimension_above_ball_cap(self, tmp_path, capsys, m, n):
        # The exact ball's dimension cap applies to m, not to the ambient n.
        vertices = np.random.default_rng(1100 + n).uniform(-3, 3, size=(m + 1, n))
        path = write_simplex(tmp_path, "high.json", vertices)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        enclosure = parse_envelope(out)["payload"]["enclosure"]
        center = np.asarray(enclosure["meb_center"])
        rel = vertices[1:] - vertices[0]
        coef, *_ = np.linalg.lstsq(rel.T, center - vertices[0], rcond=None)
        scale = float(np.abs(rel).max())
        assert np.linalg.norm(rel.T @ coef - (center - vertices[0])) <= 1e-12 * scale
        assert enclosure["meb_radius"] == pytest.approx(brute_force_meb(vertices), rel=1e-9)
        if m == 1:
            assert center == pytest.approx(vertices.mean(axis=0), abs=1e-12 * scale)

    def test_simplex_dimension_above_ball_cap(self, tmp_path, capsys):
        vertices = np.vstack([np.zeros(11), np.eye(11)])
        path = write_simplex(tmp_path, "m11.json", vertices)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_CAP
        assert_clean_error(out, err)

    @pytest.mark.parametrize("diam", [1.0, 2e153])
    def test_cap_before_quadratic_work(self, tmp_path, capsys, monkeypatch, diam):
        # The exact ball's cap is checked before any (m+1)^2 n array is
        # formed, so a huge simplex exits 4 instead of running out of memory,
        # and one whose radicand sums would overflow exits 4, not 1.
        def unreachable(*args):
            raise AssertionError("ran before the exact ball's cap")

        monkeypatch.setattr("simplexgeo.cli.median_sums", unreachable)
        monkeypatch.setattr("simplexgeo.core.squared_distance_matrix", unreachable)
        monkeypatch.setattr("simplexgeo.core.edge_profile", unreachable)
        monkeypatch.setattr(enclosing, "barycentric_circumradius", unreachable)
        path = write_simplex(tmp_path, "m11.json", regular_simplex(11, 11, diam).vertices)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_CAP
        assert_clean_error(out, err)
        assert err == "error: exact ball supports dimension <= 10, got 11\n"

    def test_each_quantity_formed_once_per_simplex(self, tmp_path, capsys, monkeypatch):
        # The squared distances, the radicands, the barycenter and the SVD
        # of the edges are formed once per simplex, however many reports read
        # them, and nothing factors the edges by QR or inverts them.  The
        # rank test's SVD also serves the inradii and, when the descent keeps
        # every vertex, the exact ball; a support of fewer vertices takes one
        # SVD of its own edges.
        rng = np.random.default_rng(26)
        simplices = [random_simplex(rng, m, n) for m in range(1, 11) for n in (m, m + 2)]
        paths = [
            write_simplex(tmp_path, f"m{s.m}-n{s.n}.json", s.vertices) for s in simplices
        ]
        supports = [enclosing._descend(s.sq_distances) for s in simplices]
        assert None not in supports
        partial = sum(len(support) < s.m + 1 for s, support in zip(simplices, supports))
        assert 0 < partial < len(simplices)
        counts = collections.Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(core, "squared_distance_matrix")
        counting(apollonius, "radicands")
        # Every module that binds core.centroid, so no caller escapes the count.
        binders = [
            module for name, module in sys.modules.items()
            if name.startswith("simplexgeo.") and vars(module).get("centroid") is core.centroid
        ]
        for module in binders:
            counting(module, "centroid")
        for name in ("qr", "inv", "svd"):
            counting(np.linalg, name)
        code, out, err = run_cli(["analyze", *map(str, paths)], capsys)
        assert code == EXIT_OK and err == ""
        assert len(out.splitlines()) == len(paths)
        assert counts == {
            "squared_distance_matrix": 20, "radicands": 20, "centroid": 20, "svd": 20 + partial,
        }

    def test_crlf_input(self, tmp_path, capsys):
        raw = b'{"vertices": [[0, 0],\r\n[1, 0],\r\n[0, 1]]}\r\n'
        path = tmp_path / "crlf.json"
        path.write_bytes(raw)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        assert parse_envelope(out)["input_digest"] == hashlib.sha256(raw).hexdigest()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/x.json"], capsys)
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_PARSE

    def test_nan_token_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"vertices": [[NaN, 0], [1, 0], [0, 1]]}')
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_directory_input(self, tmp_path, capsys):
        code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff{"vertices": [[0, 0], [1, 0], [0, 1]]}')
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        # 5000 digits also pass the interpreter's 4300-digit limit on parsing
        # an integer, which json.loads enforces with a plain ValueError.
        path = tmp_path / "huge.json"
        for digits in (400, 5000):
            path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1' + "0" * digits + "]]}")
            for command in (["analyze"], ["solve", "shifted-identity-2d"]):
                code, out, err = run_cli([*command, str(path)], capsys)
                assert code == EXIT_PARSE, (digits, command)
                assert_clean_error(out, err)


def circle(count):
    angles = 2.0 * math.pi * np.arange(count) / count
    return 3.0 * np.column_stack([np.cos(angles), np.sin(angles)]) + 1.5


class TestEnclose:
    def test_unit_square(self, tmp_path, capsys):
        path = write_points(tmp_path, "sq.json", UNIT_SQUARE)
        code, out, _ = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert payload["count"] == 4
        assert payload["n"] == 2
        assert payload["meb"]["radius"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert payload["meb"]["center"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert payload["diam"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert payload["bounds_hold"] is True

    def test_two_points_far_from_origin(self, tmp_path, capsys):
        # 16.5 apart at 1.6e10: the exact ball's center rounds at eps times the
        # coordinates, far beyond the diameter's filter margin of 1e-9 diam.
        points = np.array([[-15807617374.41392, 4781641501.474605],
                           [-15807617357.914516, 4781641502.191926]])
        path = write_points(tmp_path, "far.json", points)
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        diam = parse_envelope(out)["payload"]["diam"]
        assert diam == all_pairs_diameter(points) == 16.514988626619139

    def test_variant_jung_square(self, tmp_path, capsys):
        path = write_points(tmp_path, "sq.json", UNIT_SQUARE)
        code, out, _ = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert payload["set_barycentric_circumradius"] == pytest.approx(
            math.sqrt(5) / 3, abs=1e-12
        )
        assert payload["bounds_hold"] is True

    def test_three_points_match_single_simplex(self, tmp_path, capsys):
        vertices = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
        path = write_points(tmp_path, "tri.json", vertices)
        code, out, _ = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        radius, _ = barycentric_circumradius(validate_simplex(vertices))
        assert payload["set_barycentric_circumradius"] == pytest.approx(radius, rel=1e-12)

    def test_simplex_gets_one_answer_from_both_commands(self, tmp_path, capsys):
        # The same vertices, read as a simplex by analyze and as points by
        # enclose, give the same ball, Jung bound and diameter bit for bit:
        # both balls factor the support in index order, and both commands
        # take Jung's bound in the hull dimension, here m.
        rng = np.random.default_rng(33)
        simplices, clouds = [], []
        for k in range(200):
            m = k % 10 + 1
            vertices = random_simplex(rng, m, m + k // 10 % 3).vertices
            simplices.append(str(write_simplex(tmp_path, f"s{k}.json", vertices)))
            clouds.append(str(write_points(tmp_path, f"p{k}.json", vertices)))
        code, out, err = run_cli(["analyze", *simplices], capsys)
        assert (code, err) == (EXIT_OK, "")
        reports = [json.loads(line)["payload"] for line in out.splitlines()]
        assert len(reports) == len(clouds)
        for report, cloud in zip(reports, clouds):
            code, out, err = run_cli(["enclose", cloud], capsys)
            assert (code, err) == (EXIT_OK, "")
            payload = parse_envelope(out)["payload"]
            enclosure = report["enclosure"]
            assert enclosure["meb_center"] == payload["meb"]["center"]
            assert enclosure["meb_radius"] == payload["meb"]["radius"]
            assert enclosure["jung_bound"] == payload["jung_bound"]
            assert report["metrics"]["diam"] == payload["diam"]

    def test_bw_check(self, tmp_path, capsys):
        path = write_points(tmp_path, "sq.json", UNIT_SQUARE)
        code, out, _ = run_cli(["enclose", str(path), "--bw-check"], capsys)
        assert code == EXIT_OK
        pair = parse_envelope(out)["payload"]["blumenthal_wahlin"]
        assert pair["full"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert pair["subset_max"] == pytest.approx(pair["full"], rel=1e-9)

    def test_bw_check_skips_underflowing_subsets(self, tmp_path, capsys):
        # Subsets of the three points 1e-160 apart fail the range check on
        # their own; the whole set passes it, as in plain enclose.
        points = [(0, 0), (1e-160, 0), (0, 1e-160), (1, 1), (2, 0)]
        path = write_points(tmp_path, "tiny.json", points)
        code, out, err = run_cli(["enclose", str(path), "--bw-check"], capsys)
        assert code == EXIT_OK
        assert err == ""
        pair = parse_envelope(out)["payload"]["blumenthal_wahlin"]
        assert pair["subset_max"] == pair["full"]

    @pytest.mark.parametrize("flag", ["--bw-check", "--variant-jung"])
    def test_every_subset_underflows(self, tmp_path, capsys, flag):
        # Each triple's squared box diagonal, 5a^2, underflows and the whole
        # set's, 8a^2, does not: the ball exists, but no subset bound does.
        a = 5.85e-155
        path = write_points(tmp_path, "tiny.json", [(-a, 0), (a, 0), (0, -a), (0, a)])
        code, out, _ = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_OK
        assert parse_envelope(out)["payload"]["meb"]["radius"] == pytest.approx(a, rel=1e-15)
        code, out, err = run_cli(["enclose", str(path), flag], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert "underflow" in err

    def test_cap_exceeded(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = write_points(tmp_path, "many.json", rng.uniform(size=(20, 2)).tolist())
        code, _, err = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == EXIT_CAP
        assert "error:" in err

    def test_dimension_flag_mismatch(self, tmp_path, capsys):
        path = write_points(tmp_path, "sq.json", UNIT_SQUARE)
        code, _, err = run_cli(["enclose", str(path), "--n", "3"], capsys)
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("copies", [1, 2, 5])
    def test_single_point(self, tmp_path, capsys, copies):
        path = write_points(tmp_path, "pt.json", [(1.0, 2.0)] * copies)
        code, out, _ = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert payload["meb"]["radius"] == 0.0
        assert "diam" not in payload

    @pytest.mark.parametrize(
        "copies, expected", [(2, EXIT_PARSE), (5, EXIT_OK)], ids=["two", "five"]
    )
    def test_variant_jung_coincident_points(self, tmp_path, capsys, copies, expected):
        # Fewer than n+1 points is an argument error; enough copies of one
        # point give a bound of 0, as the exact ball's radius is.
        path = write_points(tmp_path, "pt.json", [(1.0, 1.0)] * copies)
        code, out, err = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == expected
        if code == EXIT_OK:
            assert err == ""
            assert parse_envelope(out)["payload"]["set_barycentric_circumradius"] == 0.0
        else:
            assert_clean_error(out, err)

    def test_variant_jung_far_point_on_a_line(self, tmp_path, capsys):
        # The far point lies only in thin triples, which the bound measures too.
        path = write_points(tmp_path, "far.json", [(0, 0), (1, 0), (0, 1), (1e12, 0)])
        code, out, err = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == EXIT_OK
        assert err == ""
        payload = parse_envelope(out)["payload"]
        assert payload["bounds_hold"] is True
        assert payload["set_barycentric_circumradius"] >= payload["meb"]["radius"]

    def test_directory_input(self, tmp_path, capsys):
        code, out, err = run_cli(["enclose", str(tmp_path)], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        for digits in (400, 5000):
            path.write_text('{"points": [[1, 1' + "0" * digits + "], [0, 0]]}")
            code, out, err = run_cli(["enclose", str(path)], capsys)
            assert code == EXIT_PARSE, digits
            assert_clean_error(out, err)

    @pytest.mark.parametrize(
        "points",
        [
            circle(2000),
            np.repeat(np.random.default_rng(6).normal(size=(40, 3)), 5, axis=0),
            np.outer(np.random.default_rng(7).uniform(-4, 9, size=300), [1.0, -2.0, 0.5]),
        ],
        ids=["cospherical", "duplicates", "collinear"],
    )
    def test_degenerate_sets(self, tmp_path, capsys, points):
        path = write_points(tmp_path, "degenerate.json", points)
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        payload = parse_envelope(out)["payload"]
        assert payload["meb"]["radius"] <= payload["jung_bound"]
        assert payload["bounds_hold"] is True

    def test_walk_cap_exits_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(enclosing, "WALK_MAX_STEPS", 1)
        path = write_points(tmp_path, "cloud.json", np.random.default_rng(8).normal(size=(30, 3)))
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1


class TestSolve:
    def test_linear_1d(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        code, out, _ = run_cli(
            ["solve", "linear-0.7", str(path), "--tol", "1e-6"], capsys
        )
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert payload["converged"] is True
        assert payload["iterations"] <= 21
        assert payload["final_error_estimate"] <= 1e-6
        gap = abs(payload["final_approximation"][0] - 0.7)
        assert gap <= payload["final_error_estimate"]

    def test_shifted_identity_2d(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        code, out, _ = run_cli(
            ["solve", "shifted-identity-2d", str(path), "--tol", "1e-5"], capsys
        )
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert payload["converged"] is True
        gap = math.hypot(
            payload["final_approximation"][0] - 0.25,
            payload["final_approximation"][1] - 0.25,
        )
        assert gap <= payload["final_error_estimate"] <= 1e-5

    def test_no_root(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        code, _, err = run_cli(["solve", "no-root-1d", str(path)], capsys)
        assert code == EXIT_NO_SIGN
        assert "error:" in err

    def test_unknown_function(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        code, out, err = run_cli(["solve", "mystery", str(path)], capsys)
        assert code == EXIT_UNKNOWN_FUNCTION
        assert "linear-0.7" in err
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1

    def test_max_iter_exhaustion_still_reports(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        code, out, err = run_cli(
            ["solve", "linear-0.7", str(path), "--max-iter", "3"], capsys
        )
        assert code == EXIT_MAX_ITER
        payload = parse_envelope(out)["payload"]
        assert payload["converged"] is False
        assert payload["iterations"] == 3
        assert "not converged" in err

    def test_trace_file(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            ["solve", "linear-0.7", str(path), "--trace", str(trace_path)], capsys
        )
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        lines = trace_path.read_text().splitlines()
        assert len(lines) == payload["iterations"] + 1
        first = json.loads(lines[0])
        assert first["depth"] == 0
        assert first["child_choice"] is None
        assert all(json.loads(line)["depth"] == k for k, line in enumerate(lines))

    @pytest.mark.parametrize(
        "function, vertices",
        [
            ("linear-0.7", [(0.0,), (1.0,)]),
            ("cubic-1d", [(0.0,), (1.0,)]),
            ("shifted-identity-2d", [(0, 0), (1, 0), (0, 1)]),
            ("circle-line-2d", [(0, 0), (1, 0), (0, 1)]),
        ],
    )
    def test_trace_file_matches_reference(self, tmp_path, capsys, monkeypatch, function, vertices):
        traces = []

        def recording_solve(*args, solve=bisection.solve):
            traces.append(solve(*args))
            return traces[-1]

        monkeypatch.setattr(bisection, "solve", recording_solve)
        path = write_simplex(tmp_path, "start.json", vertices)
        trace_path = tmp_path / "trace.jsonl"
        argv = ["solve", function, str(path), "--tol", "1e-12", "--trace", str(trace_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        (trace,) = traces
        expected = "".join(reference_render(step) + "\n" for step in trace.steps)
        assert trace_path.read_bytes() == expected.encode("ascii")


class TestRegular:
    def test_tetrahedron_closed_forms(self, capsys):
        code, out, _ = run_cli(["regular", "--m", "3", "--n", "3"], capsys)
        assert code == EXIT_OK
        checks = parse_envelope(out)["payload"]["checks"]
        expected = {
            "median_length": math.sqrt(2 / 3),
            "circumradius": math.sqrt(3 / 8),
            "inradius": 1 / math.sqrt(24),
            "fermat_sum": math.sqrt(6),
            "thickness": 1 / math.sqrt(24),
        }
        for name, value in expected.items():
            assert checks[name]["closed_form"] == pytest.approx(value, abs=1e-12)
            assert checks[name]["computed"] == pytest.approx(value, abs=1e-12)
        assert checks["width"]["closed_form"] == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        assert checks["width"]["holds"] is True

    def test_triangle_circumradius(self, capsys):
        code, out, _ = run_cli(["regular", "--m", "2", "--n", "2"], capsys)
        assert code == EXIT_OK
        checks = parse_envelope(out)["payload"]["checks"]
        assert checks["circumradius"]["computed"] == pytest.approx(
            1 / math.sqrt(3), abs=1e-12
        )

    def test_embedding_too_small(self, capsys):
        code, _, err = run_cli(["regular", "--m", "3", "--n", "2"], capsys)
        assert code == EXIT_PARSE
        assert "error:" in err


class TestCorpus:
    def test_deterministic_repeat(self, capsys):
        argv = ["corpus", "--seed", "7", "--count", "5"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = parse_envelope(out1)["payload"]
        assert payload["seed"] == 7
        assert len(payload["simplices"]) == 5

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_SEED", "9")
        _, with_env, _ = run_cli(["corpus", "--seed", "7", "--count", "3"], capsys)
        monkeypatch.delenv("SIMPLEX_SEED")
        _, plain, _ = run_cli(["corpus", "--seed", "9", "--count", "3"], capsys)
        assert with_env == plain

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_SEED", "pi")
        code, _, err = run_cli(["corpus", "--count", "2"], capsys)
        assert code == EXIT_PARSE
        assert "SIMPLEX_SEED" in err

    def test_fixed_shape(self, capsys):
        code, out, _ = run_cli(
            ["corpus", "--seed", "1", "--count", "4", "--m", "2", "--n", "3"], capsys
        )
        assert code == EXIT_OK
        for entry in parse_envelope(out)["payload"]["simplices"]:
            assert entry["m"] == 2
            assert entry["n"] == 3


class TestDeterminism:
    def test_analyze_repeat_identical(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tri.json", [(0.3, 0.1), (2.2, 0.4), (0.5, 1.9)])
        argv = ["analyze", str(path)]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_envelope_key_order(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        _, out, _ = run_cli(["analyze", str(path)], capsys)
        assert out.startswith('{"command":"analyze","input_digest":')

    def test_digest_tracks_content(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        _, out1, _ = run_cli(["analyze", str(path)], capsys)
        write_simplex(tmp_path, "tri.json", [(0, 0), (2, 0), (0, 2)])
        _, out2, _ = run_cli(["analyze", str(path)], capsys)
        write_simplex(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        _, out3, _ = run_cli(["analyze", str(path)], capsys)
        d1, d2, d3 = (json.loads(o)["input_digest"] for o in (out1, out2, out3))
        assert d1 != d2
        assert d1 == d3

    def test_cross_process_bytes(self, tmp_path):
        tri = write_simplex(tmp_path, "tri.json", [(0.7, 0.2), (2.1, 0.3), (0.4, 1.8)])
        # The thin triangle's edge matrix has condition 3.3e8.
        thin = write_simplex(tmp_path, "thin.json", [(0, 0), (1, 0), (0, 3e-9)])
        for path in (tri, thin):
            # pytest's warning filter does not reach a child process; -W does.
            cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "simplexgeo.cli",
                   "analyze", str(path)]
            first = subprocess.run(cmd, capture_output=True, check=True)
            second = subprocess.run(cmd, capture_output=True, check=True)
            assert first.stdout == second.stdout
            assert first.stdout.endswith(b"\n") and first.stdout.count(b"\n") == 1
            assert first.stderr == second.stderr == b""


def assert_clean_error(out, err):
    """Nothing on stdout; one ``error:`` line and no traceback on stderr."""
    assert out == ""
    assert "Traceback" not in err
    assert err.count("error:") == 1


class TestArgumentErrors:
    def test_help_exits_ok(self, capsys):
        code, out, err = run_cli(["--help"], capsys)
        assert code == EXIT_OK
        assert out.startswith("usage: simplexgeo") and err == ""

    @pytest.mark.parametrize(
        "flags", [["--tol", "-1"], ["--tol", "nan"], ["--max-iter", "0"]]
    )
    def test_solve(self, tmp_path, capsys, flags):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        code, out, err = run_cli(["solve", "linear-0.7", str(path), *flags], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--coord-range", "-5"], ["--coord-range", "inf"], ["--count", "-1"],
            # Every argument is checked before the first draw, so also
            # when there is none.
            ["--count", "0", "--coord-range", "nan"], ["--count", "0", "--coord-range", "inf"],
            ["--count", "0", "--coord-range", "-1"], ["--count", "0", "--m", "0"],
            ["--count", "0", "--m", "5", "--n", "3"],
        ],
    )
    def test_corpus(self, capsys, flags):
        code, out, err = run_cli(["corpus", *flags], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    @pytest.mark.parametrize("seed", range(5))
    def test_corpus_n_without_m(self, capsys, seed):
        # m is drawn from 1..min(8, n), so every draw fits in the given n.
        code, out, err = run_cli(["corpus", "--n", "3", "--seed", str(seed)], capsys)
        assert code == EXIT_OK
        assert err == ""
        simplices = parse_envelope(out)["payload"]["simplices"]
        assert {entry["n"] for entry in simplices} == {3}
        assert {entry["m"] for entry in simplices} <= {1, 2, 3}

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_corpus_n_below_one(self, capsys, n):
        code, out, err = run_cli(["corpus", "--n", n], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)
        assert f"n must be an integer >= 1, got {n}" in err

    def test_corpus_negative_seed(self, capsys, monkeypatch):
        code, out, err = run_cli(["corpus", "--seed", "-1"], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)
        assert "seed must be an integer >= 0, got -1" in err
        monkeypatch.setenv("SIMPLEX_SEED", "-1")
        assert run_cli(["corpus"], capsys)[0] == EXIT_PARSE

    def test_corpus_m_above_drawn_n(self, capsys):
        code, out, err = run_cli(["corpus", "--m", "14"], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)
        assert "m = 14" in err


class TestNumericalFailure:
    """Overflowing input exits 1 with one error line instead of a traceback."""

    def test_analyze_overflow(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "big.json", [(1e155, 0), (0, 1e155), (0, 0)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)

    def test_analyze_segment_median_sum_overflow(self, tmp_path, capsys):
        # The segment's median squares sum to 2 L^2 = inf; its radicands do not overflow.
        path = write_simplex(tmp_path, "segment.json", [(0,), (1e154,)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err == "error: squared edge lengths overflow the float range\n"

    def test_regular_overflow(self, capsys):
        code, out, err = run_cli(["regular", "--m", "2", "--n", "2", "--diam", "1e300"], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)

    @pytest.mark.parametrize("m, diam, code", [(8, 1.5e153, EXIT_OK), (8, 2e153, EXIT_FAILURE),
                                               (7, 2e153, EXIT_FAILURE), (6, 2e153, EXIT_OK)])
    def test_regular_radicand_sums_near_the_top(self, capsys, m, diam, code):
        # The radicand sums reach (m+1)^2 times the squared edge; any overflow
        # there is one error line, never a numpy warning.
        code_got, out, err = run_cli(["regular", "--m", str(m), "--n", "8", "--diam", repr(diam)],
                                     capsys)
        assert code_got == code
        if code == EXIT_OK:
            assert err == ""
            parse_envelope(out)
        else:
            assert_clean_error(out, err)
            assert err == "error: squared edge lengths overflow the float range\n"

    def test_refused_allocation(self, capsys, monkeypatch):
        # numpy raises MemoryError for an array the machine refuses; the test
        # raises it directly, since a larger machine would grant the request.
        message = "Unable to allocate 12.9 GiB for an array with shape (1201, 1201, 1200)"

        def refuse(s):
            raise MemoryError(message)

        monkeypatch.setattr("simplexgeo.core.squared_distance_matrix", refuse)
        code, out, err = run_cli(["regular", "--m", "3", "--n", "3"], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err == f"error: {message}\n"

    def test_regular_underflow(self, capsys):
        code, out, err = run_cli(["regular", "--m", "2", "--n", "2", "--diam", "1e-160"], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1
        assert "underflow" in err

    def test_numpy_warning_propagates(self, tmp_path, monkeypatch):
        # No warning maps to an exit code, so a numpy warning escalated
        # inside a command still fails the caller's filter.
        def overflow(points):
            return np.exp(np.float64(1000.0))

        monkeypatch.setattr(enclosing, "exact_meb_support", overflow)
        path = write_points(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(RuntimeWarning, match="overflow encountered in exp"):
            main(["enclose", str(path)])

    def test_enclose_overflow(self, tmp_path, capsys):
        path = write_points(tmp_path, "big.json", [(1e200, 0), (0, 1e200), (0, 0)])
        # The overflow is caught before the search, so numpy warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1

    def test_enclose_walk_denominator_near_the_top(self, tmp_path, capsys):
        # Twice the walk's step denominator overflows here; the quotient does not.
        points = [(7.500949139684629e153, -7.324940292523361e153),
                  (-5.114799287098931e153, -2.983831498085747e153),
                  (6.420621366530418e153, -7.200251320971025e153)]
        code, out, err = run_cli(["enclose", str(write_points(tmp_path, "big.json", points))],
                                 capsys)
        assert (code, err) == (EXIT_OK, "")
        meb = parse_envelope(out)["payload"]["meb"]
        assert meb["support"] == [0, 1]
        assert meb["radius"] == pytest.approx(math.dist(*points[:2]) / 2, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_enclose_underflow(self, tmp_path, capsys, scale):
        path = write_points(tmp_path, "tiny.json", [(0, 0), (3 * scale, 0), (0, 4 * scale)])
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.count("\n") == 1
        assert "underflow" in err

    def test_enclose_small_but_representable(self, tmp_path, capsys):
        path = write_points(tmp_path, "small.json", [(0, 0), (3e-150, 0), (0, 4e-150)])
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        payload = parse_envelope(out)["payload"]
        assert payload["diam"] == pytest.approx(5e-150, rel=1e-12)
        assert payload["meb"]["radius"] == pytest.approx(2.5e-150, rel=1e-12)

    def test_analyze_small_but_representable(self, tmp_path, capsys):
        # The rank test is relative, so a tiny triangle is a triangle.
        path = write_simplex(tmp_path, "small.json", [(0, 0), (1e-12, 0), (0, 1e-12)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        metrics = parse_envelope(out)["payload"]["metrics"]
        assert metrics["diam"] == pytest.approx(math.sqrt(2) * 1e-12, rel=1e-12)

    def test_analyze_underflow(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tiny.json", [(0, 0), (1e-160, 0), (0, 1e-160)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1
        assert "underflow" in err

    @pytest.mark.parametrize(
        "vertices",
        [[(0, 0, 0), (1e-150, 0, 0), (0, 1e-155, 0)], [(0, 0), (1e-153, 0), (0, 5e-155)]],
        ids=["m2-n3", "m2-n2"],
    )
    def test_analyze_too_thin(self, tmp_path, capsys, vertices):
        # The diagonal is in range, but the inverse altitudes squared are not.
        path = write_simplex(tmp_path, "thin.json", vertices)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1
        assert "underflow" in err

    def test_analyze_thin_above_the_floor(self, tmp_path, capsys):
        a, b = 1e-150, 1e-153
        path = write_simplex(tmp_path, "thin.json", [(0, 0), (a, 0), (0, b)])
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        metrics = parse_envelope(out)["payload"]["metrics"]
        c = math.hypot(a, b)
        assert metrics["barycentric_inradius"] == pytest.approx(a * b / c / 3, rel=1e-12)
        assert metrics["exact_inradius"] == pytest.approx(a * b / (a + b + c), rel=1e-12)

    @pytest.mark.parametrize(
        "argv, write, radius",
        [
            (["analyze"], write_simplex, lambda payload: payload["enclosure"]["meb_radius"]),
            (["enclose"], write_points, lambda payload: payload["meb"]["radius"]),
        ],
        ids=["analyze", "enclose"],
    )
    def test_top_of_float_range(self, tmp_path, capsys, argv, write, radius):
        # Unit distance at 1.7e308: every average is taken over offsets.
        path = write(tmp_path, "far.json", [(1.7e308, 0), (1.7e308, 1)])
        code, out, err = run_cli([*argv, str(path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        assert radius(parse_envelope(out)["payload"]) == 0.5

    @pytest.mark.parametrize(
        "argv, write",
        [
            (["analyze"], lambda p: write_simplex(p, "tri.json", [(0, 0), (1, 0), (0, 1)])),
            (["enclose"], lambda p: write_points(p, "sq.json", UNIT_SQUARE)),
        ],
        ids=["analyze", "enclose"],
    )
    def test_bound_violation(self, tmp_path, capsys, monkeypatch, argv, write):
        real_jung = enclosing.jung_bound
        monkeypatch.setattr(enclosing, "jung_bound", lambda diam, n: real_jung(diam, n) / 4)
        code, out, err = run_cli([*argv, str(write(tmp_path))], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds enclosure bound" in err


@pytest.mark.parametrize("name, points", TRANSLATION_CASES, ids=[n for n, _ in TRANSLATION_CASES])
def test_translated_input_succeeds(tmp_path, capsys, name, points):
    """Sets moved by up to 10^9 diameters keep their answer."""
    if name.startswith("simplex"):
        argv, write = ["analyze"], write_simplex
    else:
        argv, write = ["enclose"], write_points
    for k in range(10):
        path = write(tmp_path, f"far{k}.json", translate_far(points, k))
        code, out, err = run_cli([*argv, str(path)], capsys)
        assert (code, err) == (EXIT_OK, ""), f"moved by 10^{k} diameters"
        parse_envelope(out)


# Documents no file command may answer with a traceback or a warning,
# each built for its command's key.
HOSTILE_DOCUMENTS = {
    "deep-nesting": lambda key: f'{{"{key}": {"[" * 3000}{"]" * 3000}}}',
    "max-float-difference": lambda key: json.dumps({key: [[-1e308], [1e308]]}),
    "subnormal": lambda key: json.dumps({key: [[0.0], [5e-324]]}),
    "empty-rows": lambda key: json.dumps({key: [[], []]}),
    "top-level-list": lambda key: json.dumps([[0.0], [1.0]]),
    "trailing-garbage": lambda key: json.dumps({key: [[0.0], [1.0]]}) + " ]",
}

FILE_COMMANDS = {
    "analyze": (["analyze"], "vertices"),
    "enclose": (["enclose"], "points"),
    "solve": (["solve", "linear-0.7"], "vertices"),
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_document(tmp_path, capsys, command, name):
    argv, key = FILE_COMMANDS[command]
    path = tmp_path / "doc.json"
    path.write_text(HOSTILE_DOCUMENTS[name](key))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([*argv, str(path)], capsys)
    assert code in {EXIT_OK, EXIT_FAILURE, EXIT_PARSE, EXIT_DEGENERATE, EXIT_CAP,
                    EXIT_MAX_ITER, EXIT_NO_SIGN, EXIT_UNKNOWN_FUNCTION}
    if out:
        parse_envelope(out)
    if code == EXIT_OK:
        assert err == ""
    elif code != EXIT_MAX_ITER:
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1


# Scale exponents k of 10^k across the range that core.check_range admits,
# drawn mostly at its two ends, where the squared sums over- and underflow.
RANGE_EXPONENTS = st.one_of(
    st.integers(150, 154), st.integers(-154, -150), st.integers(-154, 154)
)


@st.composite
def range_invocations(draw):
    """(argv, document or None) for one command on seeded input scaled by 10^k."""
    command = draw(st.sampled_from(["analyze", "enclose", "enclose-subsets", "regular", "solve"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(RANGE_EXPONENTS)
    if command == "analyze":
        m = int(rng.integers(1, 9))
        vertices = random_simplex(rng, m, m + int(rng.integers(0, 3))).vertices
        return ["analyze"], {"vertices": (vertices * scale).tolist()}
    if command.startswith("enclose"):
        n = int(rng.integers(1, 5))
        subsets = command == "enclose-subsets"  # at most C(8, 5) = 56 subsets
        count = int(rng.integers(n + 1, 9 if subsets else 40))
        flags = ["--variant-jung", "--bw-check"] if subsets else []
        return ["enclose", *flags], {"points": (rng.normal(size=(count, n)) * scale).tolist()}
    if command == "regular":
        m = int(rng.integers(1, 9))
        diam = float(rng.uniform(1.0, 10.0)) * scale
        return ["regular", "--m", str(m), "--n", str(m + int(rng.integers(0, 3))),
                "--diam", repr(diam)], None
    name = draw(st.sampled_from(sorted(bisection.BUILTIN_SYSTEMS)))
    dim = bisection.BUILTIN_SYSTEMS[name].dimension
    vertices = random_simplex(rng, dim, dim).vertices * scale
    tol = scale * 10.0 ** -float(rng.uniform(0.0, 12.0))
    return ["solve", name, "--tol", repr(tol), "--max-iter", "60"], {"vertices": vertices.tolist()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(range_invocations())
def test_range_fuzz(tmp_path_factory, invocation):
    """Seeded input across the float range gets a documented exit code, one
    envelope or none on stdout, and an ``error:`` line or nothing on stderr;
    pytest turns a numpy warning into a failure."""
    argv, document = invocation
    if document is not None:
        path = tmp_path_factory.mktemp("range") / "doc.json"
        path.write_text(json.dumps(document))
        argv = [*argv, str(path)]
    assert_fuzz_contract(argv)


def assert_fuzz_contract(argv):
    """Run ``main(argv)``: a documented exit code, one envelope or none on
    stdout, and an ``error:`` line or nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in {EXIT_OK, EXIT_FAILURE, EXIT_PARSE, EXIT_DEGENERATE, EXIT_CAP,
                    EXIT_MAX_ITER, EXIT_NO_SIGN, EXIT_UNKNOWN_FUNCTION}
    if out:
        parse_envelope(out)
    if code == EXIT_OK:
        assert out and err == ""
    else:
        assert out == "" or code == EXIT_MAX_ITER
        assert err.startswith("error:") and err.count("\n") == 1


# Arbitrary JSON values, non-finite floats and integers far past the float
# range included, in lists of at most 12 entries.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**1100), 2**1100)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=12) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=40,
)
# Rows of numbers, of one length, so that documents also reach the commands.
JSON_ROWS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.floats(), min_size=n, max_size=n),
    max_size=12,
))
JSON_DOCUMENTS = JSON_VALUES | st.builds(
    lambda key, value: {key: value}, st.sampled_from(["vertices", "points"]), JSON_VALUES | JSON_ROWS
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_DOCUMENTS, st.sampled_from(sorted(bisection.BUILTIN_SYSTEMS)))
def test_document_fuzz(tmp_path_factory, document, system):
    """Any JSON document, through every file command, keeps the range
    fuzz's contract; pytest turns a numpy warning into a failure."""
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(document))
    for argv in (["analyze"], ["enclose"], ["enclose", "--variant-jung", "--bw-check"],
                 ["solve", system, "--max-iter", "60"]):
        assert_fuzz_contract([*argv, str(path)])


class TestSingleRead:
    """Each file command opens its input once, for both parse and digest."""

    @pytest.mark.parametrize(
        "argv, write",
        [
            (["analyze"], lambda p: write_simplex(p, "tri.json", [(0, 0), (1, 0), (0, 1)])),
            (["enclose"], lambda p: write_points(p, "sq.json", UNIT_SQUARE)),
            (["solve", "linear-0.7"], lambda p: write_simplex(p, "seg.json", [(0.0,), (1.0,)])),
        ],
        ids=["analyze", "enclose", "solve"],
    )
    def test_input_opened_once(self, tmp_path, capsys, monkeypatch, argv, write):
        path = write(tmp_path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli([*argv, str(path)], capsys)
        assert code == EXIT_OK
        assert len(opened) == 1
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert parse_envelope(out)["input_digest"] == digest


class TestSchema:
    """Schema 1 key sets; report field names are the payload keys."""

    def test_analyze_keys(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "tet.json", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_OK
        envelope = parse_envelope(out)
        assert set(envelope) == {"command", "input_digest", "payload", "schema_version"}
        payload = envelope["payload"]
        assert set(payload) == {"simplex", "medians", "enclosure", "metrics"}
        assert set(payload["simplex"]) == {"m", "n", "vertices"}
        assert set(payload["medians"]) == {
            "median_lengths",
            "apollonius_residuals",
            "sum_squares_medians",
            "sum_squares_center_to_vertices",
            "sum_squares_edges",
        }
        assert set(payload["enclosure"]) == {
            "barycentric_circumradius",
            "jung_bound",
            "combined_bound",
            "meb_radius",
            "meb_center",
            "barycenter",
            "argmax_vertex",
        }
        assert set(payload["metrics"]) == {
            "barycentric_inradius",
            "barycentric_inradius_estimate",
            "thickness",
            "thickness_estimate",
            "exact_inradius",
            "exact_incenter",
            "diam",
            "shor",
        }

    def test_solve_step_and_trace_keys(self, tmp_path, capsys):
        path = write_simplex(tmp_path, "seg.json", [(0.0,), (1.0,)])
        trace = tmp_path / "steps.jsonl"
        argv = ["solve", "linear-0.7", str(path), "--tol", "1e-3", "--trace", str(trace)]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        payload = parse_envelope(out)["payload"]
        assert set(payload) == {
            "function",
            "tol",
            "max_iter",
            "converged",
            "iterations",
            "final_approximation",
            "final_error_estimate",
            "residual_norm",
            "steps",
        }
        step_keys = {
            "depth",
            "child_choice",
            "diam",
            "shor",
            "error_estimate",
            "kearfott_bound",
            "barycenter",
        }
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == len(payload["steps"]) > 1
        for step, record in zip(payload["steps"], records):
            assert set(step) == set(record) == step_keys
