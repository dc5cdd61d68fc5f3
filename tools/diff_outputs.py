"""Compare the command-line outputs of two source trees on the benchmark's ops.

Usage, from the root of a source checkout:

    python3 tools/diff_outputs.py PARENT_ROOT [--seed N] [--workload NAME ...]

Generates the inputs of the ``perfbench`` workloads for seed N (default 1)
in a temporary directory, with this checkout's ``perfbench/workloads.py``:
all four, or only those named by ``--workload`` (repeatable, so that a
change to one command can compare that command's ops alone).  It runs
every distinct op (distinct by its arguments) once with this
checkout's ``src`` and once with PARENT_ROOT's.  Each tree runs all its ops
in one interpreter of its own, with one BLAS thread, calling
``simplexgeo.cli.main`` in-process as the benchmark does; ``solve`` ops also
write ``--trace`` files.  Per workload it prints how many ops gave identical
exit codes, stderr, stdout and trace files, how many differed in each of
those, and every JSON path of stdout whose value differs: a number that
moved, with the most it moved relative to the ``diam`` of its envelope (in
absolute terms when the envelope has none), and any other difference as
structural.  Paths write list indices as ``[]``, so one line covers every
entry.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-low-m", "analyze-high-m", "enclose-cloud", "solve-deep")

# Runs in a fresh interpreter with the tree's src first on sys.path: every
# op of the JSON list in argv[2] through cli.main, results to argv[3].
_WORKER = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
import simplexgeo
from simplexgeo import cli
assert simplexgeo.__file__.startswith(sys.argv[1]), simplexgeo.__file__
with open(sys.argv[2], encoding="utf-8") as fh:
    ops = json.load(fh)
results = []
for argv in ops:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
    results.append([rc, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def find_diam(doc) -> float | None:
    """The first value under a ``diam`` key, breadth first, or None."""
    queue = [doc]
    while queue:
        node = queue.pop(0)
        if isinstance(node, dict):
            if _number(node.get("diam")):
                return float(node["diam"])
            queue.extend(node.values())
        elif isinstance(node, list):
            queue.extend(node)
    return None


def compare_json(old, new, scale: float = 1.0, path: str = "$") -> tuple[dict, list]:
    """(moves, structural) between two parsed JSON values.

    ``moves`` maps the path of each number that differs, with either side a
    float, to its largest |new - old| / scale; two integers that differ, a
    changed type, key set or list length, or any other changed value is a
    structural difference, listed by path.
    """
    moves, structural = {}, []

    def walk(a, b, here):
        if _number(a) and _number(b) and (isinstance(a, float) or isinstance(b, float)):
            if a != b:
                move = abs(float(b) - float(a)) / scale
                moves[here] = max(moves.get(here, 0.0), move)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                structural.append(f"{here} keys {sorted(a)} -> {sorted(b)}")
            for key in a.keys() & b.keys():
                walk(a[key], b[key], f"{here}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                structural.append(f"{here} length {len(a)} -> {len(b)}")
            for x, y in zip(a, b):
                walk(x, y, f"{here}[]")
        elif type(a) is not type(b) or a != b:
            structural.append(f"{here} {a!r} -> {b!r}")

    walk(old, new, path)
    return moves, structural


def compare_stdout(old: str, new: str) -> tuple[dict, list, bool]:
    """compare_json over the JSON lines of two stdouts, each envelope scaled
    by its own diam; the flag is True when a move is absolute, as its
    envelope has no diam."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return {}, [f"$ stdout lines {len(old_lines)} -> {len(new_lines)}"], False
    moves, structural, absolute = {}, [], False
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        try:
            a_doc, b_doc = json.loads(a), json.loads(b)
        except ValueError:
            structural.append(f"$ non-JSON line {a[:60]!r} -> {b[:60]!r}")
            continue
        diam = find_diam(a_doc)
        absolute |= not diam
        line_moves, line_structural = compare_json(a_doc, b_doc, diam or 1.0)
        for key, move in line_moves.items():
            moves[key] = max(moves.get(key, 0.0), move)
        structural += line_structural
    return moves, structural, absolute


def distinct_ops(workload) -> list:
    """(key, argv) of each op whose arguments were not seen before."""
    seen, ops = set(), []
    for round_ops in workload.rounds:
        for op in round_ops:
            if op.argv not in seen:
                seen.add(op.argv)
                ops.append((op.key, list(op.argv)))
    return ops


def run_tree(src: Path, ops: list, workdir: Path) -> list:
    """[rc, stdout, stderr, trace bytes or None] per op, run in ``workdir``,
    where each solve op writes its trace to ``trace/<index>.jsonl``."""
    (workdir / "trace").mkdir(parents=True)
    argvs = [
        argv + ["--trace", f"trace/{i}.jsonl"] if argv[0] == "solve" else argv
        for i, (_, argv) in enumerate(ops)
    ]
    (workdir / "ops.json").write_text(json.dumps(argvs), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", _WORKER, str(src), "ops.json", "results.json"],
        cwd=workdir, env=env, check=True,
    )
    results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    for i, row in enumerate(results):
        trace = workdir / "trace" / f"{i}.jsonl"
        row.append(trace.read_bytes() if trace.exists() else None)
    return results


def report(name: str, ops: list, old: list, new: list) -> list:
    """The lines printed for one workload."""
    differ = {"exit code": [], "stderr": [], "stdout": [], "trace": []}
    moves, counts, structural, absolute = {}, defaultdict(int), defaultdict(list), False
    for (key, _), a, b in zip(ops, old, new):
        for label, i in (("exit code", 0), ("stdout", 1), ("stderr", 2), ("trace", 3)):
            if a[i] != b[i]:
                differ[label].append(key)
        if a[1] != b[1]:
            op_moves, op_structural, op_absolute = compare_stdout(a[1], b[1])
            absolute |= op_absolute
            for path, move in op_moves.items():
                moves[path] = max(moves.get(path, 0.0), move)
                counts[path] += 1
            for line in op_structural:
                structural[line].append(key)
    same = sum(1 for a, b in zip(old, new) if a == b)
    lines = [f"{name}: {same} of {len(ops)} distinct ops identical"]
    for label, keys in differ.items():
        lines.append(f"  {label} differs in {len(keys)} ops" + (f" (first {keys[0]})" if keys else ""))
    unit = "diam, or absolute without one" if absolute else "diam"
    for path in sorted(moves):
        lines.append(f"  moved {path}: {counts[path]} ops, at most {moves[path]:.2g} {unit}")
    for line, keys in sorted(structural.items()):
        lines.append(f"  structural {line}: {len(keys)} ops (first {keys[0]})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, dest="workloads")
    args = parser.parse_args(argv)
    parent_src = args.parent_root.resolve() / "src"
    if not (parent_src / "simplexgeo").is_dir():
        parser.error(f"no src/simplexgeo under {args.parent_root}")
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        for name in dict.fromkeys(args.workloads or WORKLOADS):
            base = Path(tmp) / name
            ops = distinct_ops(workloads.BY_NAME[name](args.seed, str(base / "inputs")))
            new = run_tree(ROOT / "src", ops, base / "this")
            old = run_tree(parent_src, ops, base / "parent")
            print("\n".join(report(name, ops, old, new)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
