"""The JSON comparison and the workload choice of tools/diff_outputs.py, which
the change notes quote."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

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
