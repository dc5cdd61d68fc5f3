"""The JSON comparison of tools/diff_outputs.py, which the change notes quote."""

import importlib.util
import json
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
