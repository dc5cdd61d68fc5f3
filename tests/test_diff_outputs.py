"""The JSON comparison and the workload choice of tools/diff_outputs.py, which
the change notes quote."""

import importlib.util
import json
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

from simplexgeo import bisection

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

OLD = {
    "command": "enclose",
    "payload": {"diam": 4.0, "meb": {"center": [1.0, 2.0], "radius": 2.0, "support": [0, 3]}},
}


def moved(**changes):
    new = json.loads(json.dumps(OLD))
    new["payload"]["meb"].update(changes)
    return new


def test_moved_float_reports_its_path_and_relative_move():
    new = moved(center=[1.0, 2.0 + 2.0**-50])
    line_old, line_new = json.dumps(OLD), json.dumps(new)
    moves, structural, absolute = diff_outputs.compare_stdout(line_old, line_new)
    assert moves == {"$.payload.meb.center[]": pytest.approx(2.0**-52, rel=0)}
    assert structural == [] and not absolute
    assert diff_outputs.compare_stdout(line_old, line_old) == ({}, [], False)


def test_moves_are_in_the_unit_of_their_field():
    # Squared sums and residuals carry diam^2, thickness no unit, and the
    # report names the unit next to each path.
    old = {"payload": {
        "medians": {"apollonius_residuals": [0.0, 1.0], "sum_squares_medians": 3.0},
        "metrics": {"diam": 2.0, "thickness": 0.5, "barycentric_inradius": 1.0},
    }}
    new = json.loads(json.dumps(old))
    new["payload"]["medians"]["apollonius_residuals"][1] += 2.0**-40
    new["payload"]["medians"]["sum_squares_medians"] += 2.0**-40
    new["payload"]["metrics"]["thickness"] += 2.0**-40
    new["payload"]["metrics"]["barycentric_inradius"] += 2.0**-40
    moves, structural, absolute = diff_outputs.compare_stdout(json.dumps(old), json.dumps(new))
    assert structural == [] and not absolute
    assert moves == {
        "$.payload.medians.apollonius_residuals[]": 2.0**-42,
        "$.payload.medians.sum_squares_medians": 2.0**-42,
        "$.payload.metrics.thickness": 2.0**-40,
        "$.payload.metrics.barycentric_inradius": 2.0**-41,
    }
    lines = diff_outputs.report("analyze", [("r0.0", [])], [[0, json.dumps(old), "", None]],
                                [[0, json.dumps(new), "", None]])
    assert "  moved $.payload.medians.sum_squares_medians: 1 ops, at most 2.3e-13 diam^2" in lines
    assert "  moved $.payload.metrics.thickness: 1 ops, at most 9.1e-13 (no unit)" in lines
    assert "  moved $.payload.metrics.barycentric_inradius: 1 ops, at most 4.5e-13 diam" in lines


def test_changed_key_is_structural():
    new = moved(radius=2.0)
    new["payload"]["meb"]["supports"] = new["payload"]["meb"].pop("support")
    moves, structural = diff_outputs.compare_json(OLD, new)
    assert moves == {}
    assert structural == ["$.payload.meb keys ['center', 'radius', 'support'] -> ['center', 'radius', 'supports']"]


def test_changed_integer_is_structural():
    moves, structural = diff_outputs.compare_json(OLD, moved(support=[0, 2]))
    assert moves == {}
    assert structural == ["$.payload.meb.support[] 3 -> 2"]


def fake_workloads(monkeypatch):
    """Stands in for perfbench's workloads, with one op per workload, and
    for the runs of both trees; returns the names whose ops were run."""
    built = []

    def build(name):
        def workload(seed, workdir):
            built.append(name)
            op = types.SimpleNamespace(key="r0.0", argv=("enclose", name))
            return types.SimpleNamespace(rounds=[[op]])
        return workload

    fake = types.ModuleType("workloads")
    fake.BY_NAME = {name: build(name) for name in diff_outputs.WORKLOADS}
    monkeypatch.setitem(sys.modules, "workloads", fake)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(diff_outputs, "run_tree", lambda src, ops, workdir: [[0, "", "", None] for _ in ops])
    return built


def test_workload_flag_chooses_the_workloads(monkeypatch, capsys):
    built = fake_workloads(monkeypatch)
    root = str(diff_outputs.ROOT)
    assert diff_outputs.main([root, "--workload", "solve-deep", "--workload", "enclose-cloud"]) == 0
    assert built == ["solve-deep", "enclose-cloud"]
    out = capsys.readouterr().out
    assert "solve-deep: 1 of 1 distinct ops identical" in out and "analyze-low-m" not in out
    built.clear()
    assert diff_outputs.main([root]) == 0
    assert built == list(diff_outputs.WORKLOADS)


def test_unknown_workload_is_refused(monkeypatch, capsys):
    built = fake_workloads(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        diff_outputs.main([str(diff_outputs.ROOT), "--workload", "enclose"])
    assert exc.value.code == 2 and built == []
    assert "invalid choice: 'enclose'" in capsys.readouterr().err


def test_extra_workload_needs_no_benchmark_workload(monkeypatch, capsys):
    built = fake_workloads(monkeypatch)
    assert diff_outputs.main([str(diff_outputs.ROOT), "--workload", "extra"]) == 0
    assert built == []
    assert "extra: 117 of 117 distinct ops identical" in capsys.readouterr().out
    assert diff_outputs.main([str(diff_outputs.ROOT)]) == 0
    assert built == list(diff_outputs.WORKLOADS)
    assert "extra: 117 of 117 distinct ops identical" in capsys.readouterr().out


def test_extra_ops_cover_what_the_benchmark_never_runs(tmp_path):
    ops = diff_outputs.extra_ops(1, tmp_path / "a")
    again = diff_outputs.extra_ops(1, tmp_path / "b")
    for (_, argv), (_, same) in zip(ops, again, strict=True):
        for path, copy in zip(argv, same):
            if path.endswith(".json"):
                assert Path(path).read_bytes() == Path(copy).read_bytes()
    by_command = defaultdict(list)
    for key, argv in ops:
        by_command[argv[0]].append(argv)
    assert len({key for key, _ in ops}) == len(ops)
    # The same vertices go to analyze as a simplex and to enclose as points.
    simplices = [json.loads(Path(argv[1]).read_text())["vertices"] for argv in by_command["analyze"]]
    plain = [argv for argv in by_command["enclose"] if len(argv) == 2]
    assert [json.loads(Path(argv[1]).read_text())["points"] for argv in plain] == simplices
    assert len(simplices) == 40 and all(len(v) <= len(v[0]) for v in simplices)  # m < n
    assert sorted({len(v) - 1 for v in simplices}) == list(range(1, 11))
    subsets = [argv for argv in by_command["enclose"] if len(argv) > 2]
    for argv in subsets:
        assert argv[2:] == ["--variant-jung", "--bw-check"]
        points = json.loads(Path(argv[1]).read_text())["points"]
        assert len(points[0]) + 1 <= len(points) <= 15
    assert [argv[2::2] for argv in by_command["regular"]] == [
        [str(m), str(n)] for m in range(1, 11) for n in (m, m + 2)
    ]
    assert sorted(argv[1] for argv in by_command["solve"]) == sorted(bisection.BUILTIN_SYSTEMS)
