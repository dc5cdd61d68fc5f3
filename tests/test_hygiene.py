"""Static checks on the package source that need no linter."""

import ast
import importlib
import itertools
import sys
from pathlib import Path

import pytest

from simplexgeo import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simplexgeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "as" binds the alias.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # A name that is only assigned, such as a dataclass field, is not a use.
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))
    }
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_stdlib_and_numpy(path):
    """The only runtime dependency is numpy."""
    allowed = sys.stdlib_module_names | {"numpy", PACKAGE.name}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    foreign = sorted(name for name in imported if name.split(".")[0] not in allowed)
    assert not foreign, f"{path.name} imports beyond the stdlib and numpy: {', '.join(foreign)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_warning_channel(path):
    """No module imports ``warnings`` or defines a Warning subclass, so the
    package itself never writes to stderr on exit 0."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "warnings" not in imported, f"{path.name} imports warnings"
    module = importlib.import_module(f"{PACKAGE.name}.{path.stem}")
    warning_types = [
        name for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, Warning) and value.__module__ == module.__name__
    ]
    assert not warning_types, f"{path.name} defines warnings: {', '.join(warning_types)}"


def test_readme_exit_codes_match_cli():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("Exit codes:", 1)[1].strip().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    cells = [row.split("|")[1].strip() for row in rows]
    documented = {int(cell) for cell in cells if cell.isdigit()}
    defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert documented == defined


def test_no_unreferenced_private_definitions():
    """Every module-level private function, class or constant is used
    somewhere in the package, so nothing dead outlives a refactor."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = []
    for path, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            ]
    assert not unreferenced, f"private definitions nothing references: {', '.join(unreferenced)}"


def test_tolerances_have_one_owner():
    """No module reads another package module's ``*_RTOL`` attribute or
    imports one by name, so each tolerance is applied by the module that
    defines it."""
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.endswith("_RTOL")
                and isinstance(node.value, ast.Name)
                and node.value.id in stems - {path.stem}
            ):
                foreign.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level and node.module in stems - {path.stem}:
                foreign += [
                    f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.endswith("_RTOL")
                ]
    assert not foreign, f"tolerances read from another module: {', '.join(foreign)}"


def test_every_error_class_is_raised():
    """Every error class but the base is raised by some module, so no class
    outlives the check that raised it."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"SimplexError"}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined and not defined - raised, f"error classes never raised: {sorted(defined - raised)}"
