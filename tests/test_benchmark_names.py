"""Every function the benchmark traces by name exists in the package.

``perfbench/tracing.py`` looks each ``(module, function)`` pair up with
``getattr`` when a traced run starts, so a renamed or deleted function
would abort that run rather than fail a test.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"simplexgeo.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
