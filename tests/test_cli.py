"""End-to-end tests for the command-line interface.

Most tests drive ``main(argv)`` in process and capture stdout/stderr; a
couple shell out to a real interpreter to confirm byte determinism
across processes.
"""

import builtins
import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from simplexgeo import barycentric_circumradius, enclosing, regular_simplex, validate_simplex
from simplexgeo.cli import (
    EXIT_CAP,
    EXIT_DEGENERATE,
    EXIT_FAILURE,
    EXIT_MAX_ITER,
    EXIT_NO_SIGN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_FUNCTION,
    _set_diameter,
    main,
    render_json,
)
from simplexgeo.enclosing import exact_meb_support

from conftest import brute_force_meb


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
        path = tmp_path / "huge.json"
        path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1' + "0" * 400 + "]]}")
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == EXIT_PARSE
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

    def test_bw_check(self, tmp_path, capsys):
        path = write_points(tmp_path, "sq.json", UNIT_SQUARE)
        code, out, _ = run_cli(["enclose", str(path), "--bw-check"], capsys)
        assert code == EXIT_OK
        pair = parse_envelope(out)["payload"]["blumenthal_wahlin"]
        assert pair["full"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert pair["subset_max"] == pytest.approx(pair["full"], rel=1e-9)

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
        "copies, expected", [(2, EXIT_PARSE), (5, EXIT_DEGENERATE)], ids=["two", "five"]
    )
    def test_variant_jung_coincident_points(self, tmp_path, capsys, copies, expected):
        # The point count is checked before the rank: fewer than n+1 points
        # is an argument error, enough points with no full-rank subset is
        # degenerate.
        path = write_points(tmp_path, "pt.json", [(1.0, 1.0)] * copies)
        code, out, err = run_cli(["enclose", str(path), "--variant-jung"], capsys)
        assert code == expected
        assert_clean_error(out, err)

    def test_directory_input(self, tmp_path, capsys):
        code, out, err = run_cli(["enclose", str(tmp_path)], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"points": [[1, 1' + "0" * 400 + "], [0, 0]]}")
        code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_PARSE
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


def all_pairs_diameter(pts):
    """Every pair, with the per-pair expression the pruned scan uses."""
    best = 0.0
    for row in range(pts.shape[0] - 1):
        gaps = pts[row + 1 :] - pts[row]
        best = max(best, float(np.max(np.einsum("ij,ij->i", gaps, gaps))))
    return math.sqrt(best)


def shell_cloud(rng, count, n):
    pts = rng.normal(size=(count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.9, 1.0, size=(count, 1))


class TestSetDiameter:
    """The ball-pruned diameter equals the all-pairs maximum exactly."""

    @pytest.mark.parametrize(
        "pts",
        [
            np.random.default_rng(1).normal(size=(1500, 2)),
            np.random.default_rng(2).normal(size=(800, 5)) * 1e-3 + 7.0,
            np.random.default_rng(3).normal(size=(400, 10)),
            shell_cloud(np.random.default_rng(4), 1500, 2),
            shell_cloud(np.random.default_rng(5), 600, 5),
            circle(2000),  # nothing is pruned: any point may end a longest pair
            np.repeat(np.random.default_rng(6).normal(size=(40, 3)), 5, axis=0),
            np.full((50, 2), 1.25),
            np.outer(np.random.default_rng(7).uniform(-4, 9, size=300), [1.0, -2.0, 0.5]),
            np.array([[0.0, 1.0], [3.0, 5.0]]),
        ],
        ids=["gauss-2", "gauss-5-offset", "gauss-10", "shell-2", "shell-5",
             "circle-2000", "duplicates", "one-point-repeated", "collinear", "two-points"],
    )
    def test_matches_all_pairs(self, pts):
        center, radius, _ = exact_meb_support(pts)
        assert _set_diameter(pts, center, radius) == all_pairs_diameter(pts)


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
        code, _, err = run_cli(["solve", "mystery", str(path)], capsys)
        assert code == EXIT_UNKNOWN_FUNCTION
        assert "linear-0.7" in err

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
        path = write_simplex(tmp_path, "tri.json", [(0.7, 0.2), (2.1, 0.3), (0.4, 1.8)])
        cmd = [sys.executable, "-m", "simplexgeo.cli", "analyze", str(path)]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")


def assert_clean_error(out, err):
    """Nothing on stdout; one ``error:`` line and no traceback on stderr."""
    assert out == ""
    assert "Traceback" not in err
    assert err.count("error:") == 1


class TestArgumentErrors:
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
        [["--coord-range", "-5"], ["--coord-range", "inf"], ["--count", "-1"]],
    )
    def test_corpus(self, capsys, flags):
        code, out, err = run_cli(["corpus", *flags], capsys)
        assert code == EXIT_PARSE
        assert_clean_error(out, err)

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

    def test_regular_overflow(self, capsys):
        code, out, err = run_cli(["regular", "--m", "2", "--n", "2", "--diam", "1e300"], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)

    def test_enclose_overflow(self, tmp_path, capsys):
        path = write_points(tmp_path, "big.json", [(1e200, 0), (0, 1e200), (0, 0)])
        # The overflow is caught before the search, so numpy warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["enclose", str(path)], capsys)
        assert code == EXIT_FAILURE
        assert_clean_error(out, err)
        assert err.startswith("error:") and err.count("\n") == 1

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
