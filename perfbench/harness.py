"""Timed loop, set-up probe, output verification and metric assembly.

Imported by ``run.py`` once the BLAS thread cap is in the environment and
the checkout's ``src`` directory is first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "simplexgeo"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
# A phase stops at the first round boundary after its time is up, or at
# the first operation this many seconds after the run started, so a much
# slower program still ends inside the caller's time limit.
HARD_LIMIT_S = 120.0
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}

# Runs in a fresh interpreter: import the package and finish one operation.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    from simplexgeo import cli
    code = cli.main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


@dataclass
class Outcome:
    op: workloads.Op
    rc: int | None
    stdout: str
    error: str | None
    seconds: float


def _execute(cli, op: workloads.Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception:  # an uncaught exception is a failed operation
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Outcome(op, rc, out.getvalue(), error, seconds)


def _run_round(cli, ops: list, seen: dict, deadline: float, after_op=None) -> tuple[list, bool]:
    """Run one round; also say whether the run's deadline has passed.

    Outputs repeated by a later pass over the same operation share one
    string, so the benchmark's own memory does not grow with the run.
    """
    outcomes = []
    for op in ops:
        outcome = _execute(cli, op)
        outcome.stdout = seen.setdefault((op.key, outcome.stdout), outcome.stdout)
        outcomes.append(outcome)
        if after_op is not None:
            after_op(outcome)
        if time.perf_counter() >= deadline:
            return outcomes, True
    return outcomes, False


def _run_rounds(
    cli, rounds: list, seconds: float, deadline: float, after_op=None
) -> tuple[list, float]:
    """Run whole rounds, cycling through the pool, until ``seconds`` elapse."""
    outcomes, seen = [], {}
    begin = time.perf_counter()
    index = 0
    while True:
        done, late = _run_round(cli, rounds[index % len(rounds)], seen, deadline, after_op)
        outcomes += done
        index += 1
        if late or time.perf_counter() - begin >= seconds:
            return outcomes, time.perf_counter() - begin


class Verifier:
    """Sorts outcomes into ok, refused (a documented error exit where a
    result was expected) and wrong (a traceback, an undocumented exit code,
    or output that fails its check).  Repeated identical outputs of the same
    operation are checked once."""

    def __init__(self):
        self.checked = {}
        self.reasons = {}

    def status(self, outcome: Outcome) -> str:
        op = outcome.op
        if outcome.error is not None or outcome.rc not in DOCUMENTED_EXIT_CODES:
            return self._note("wrong", op, outcome.error or f"exit code {outcome.rc}")
        if outcome.rc != op.expect_rc:
            kind = "wrong" if outcome.rc == 0 else "refused"
            return self._note(kind, op, f"exit {outcome.rc}, expected {op.expect_rc}")
        key = (op.key, outcome.stdout)
        if key not in self.checked:
            self.checked[key] = op.check(outcome.stdout)
        if self.checked[key] is not None:
            return self._note("wrong", op, self.checked[key])
        return "ok"

    def _note(self, kind: str, op: workloads.Op, reason: str) -> str:
        self.reasons.setdefault((kind, reason.strip().splitlines()[-1]), op.key)
        return kind


def _setup_seconds(op: workloads.Op, host: speed.Speed) -> tuple[float, float, list]:
    """Median set-up time, each probe scaled by the host's speed around it,
    the median as measured, and the probes' exit codes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw, codes = [], [], []
    kernel_s = [host.measure()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *op.argv],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        kernel_s.append(host.measure())
        code, seconds = proc.stdout.split()
        codes.append(int(code))
        raw.append(float(seconds))
        times.append(speed.scale(raw[-1], kernel_s[-2], kernel_s[-1]))
    return statistics.median(times), statistics.median(raw), codes


def _environment(workload: str, seed: int, seconds: float, trace: int, blas_cap: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads_cap": blas_cap,
        "src_lines": src_lines,
    }


def _percentile_ms(latencies: list, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def _summarise(outcomes: list, verifier: Verifier, seconds: list | None = None) -> tuple[list, int]:
    """Times of the successful ops (``seconds``, else as measured) and the
    number of wrong ones."""
    if seconds is None:
        seconds = [o.seconds for o in outcomes]
    statuses = [verifier.status(o) for o in outcomes]
    ok = [t for t, s in zip(seconds, statuses) if s == "ok"]
    wrong = sum(1 for s in statuses if s == "wrong")
    return ok, wrong


def run(workload: str, seed: int, seconds: float, trace: int, blas_cap: int) -> int:
    import simplexgeo
    from simplexgeo import cli

    if Path(simplexgeo.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {simplexgeo.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + HARD_LIMIT_S
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.BY_NAME[workload](seed, str(workdir))
        if trace:
            result, notes = _traced_run(cli, wl, seconds, deadline)
        else:
            result, notes = _timed_run(cli, wl, seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    if workload == "analyze-low-m":
        notes["known_defect"] = workloads.KNOWN_DEFECT
        notes["expected_fail_ratio"] = workloads.DEFECT_SHARE
    print(json.dumps({"notes": notes}), file=sys.stderr)
    print(json.dumps({"env": _environment(workload, seed, seconds, trace, blas_cap)}))
    print(json.dumps(result))
    return 0


def _timed_run(cli, wl: workloads.Workload, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Time every op, and scale each by the host's speed measured with the
    reference kernel just before and just after it (see ``speed``)."""
    host = speed.Speed()
    setup_s, unscaled_setup_s, setup_codes = _setup_seconds(wl.first_op, host)
    _execute(cli, wl.first_op)  # warm-up: lazy imports, first LAPACK calls
    kernel_s = [host.measure()]
    outcomes, wall = _run_rounds(
        cli, wl.rounds, seconds, deadline, after_op=lambda o: kernel_s.append(host.measure())
    )
    scaled = [
        speed.scale(o.seconds, kernel_s[i], kernel_s[i + 1]) for i, o in enumerate(outcomes)
    ]
    verifier = Verifier()
    ok, wrong = _summarise(outcomes, verifier, scaled)
    ok_wall, _ = _summarise(outcomes, verifier)
    attempted = len(outcomes)
    # With no successful operation the latency figures fall back to the
    # time of all ops, which is then what a user waited for nothing.
    latencies = ok or [sum(scaled)]
    metrics = {
        "ops_per_s": {"value": len(ok) / sum(scaled), "unit": "1/s"},
        "op_ms_p50": {"value": _percentile_ms(latencies, 50), "unit": "ms"},
        "op_ms_p90": {"value": _percentile_ms(latencies, 90), "unit": "ms"},
        "success_ratio": {"value": len(ok) / attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    notes = {
        "ok_samples": len(ok),
        "samples_beyond_p90": sum(1 for x in ok if x * 1e3 > metrics["op_ms_p90"]["value"]),
        "fail_ratio": (attempted - len(ok)) / attempted,
        "wall_s": wall,
        "kernel_ms_median": statistics.median(kernel_s) * 1e3,
        "unscaled_ops_per_s": len(ok_wall) / sum(o.seconds for o in outcomes),
        "unscaled_op_ms_p50": _percentile_ms(ok_wall or [wall], 50),
        "unscaled_op_ms_p90": _percentile_ms(ok_wall or [wall], 90),
        "unscaled_setup_s": unscaled_setup_s,
        "setup_exit_codes": setup_codes,
        "failures": _failure_notes(verifier),
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": metrics,
    }
    return result, notes


def _traced_run(cli, wl: workloads.Workload, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Run each round once untraced and once traced, until ``seconds`` elapse.

    Pairing the two passes over the same inputs, close in time, keeps the
    machine's drifting speed out of the tracing overhead.  The pass that
    goes first alternates, because a second pass over the same files runs
    faster.  One whole round runs first, unrecorded, so that neither side
    pays for the process warming up.
    """
    _run_round(cli, wl.rounds[0], {}, deadline)
    tracer = tracing.Tracer(PACKAGE)
    untraced, traced, seen = [], [], {}

    def traced_pass(ops):
        tracer.install()
        try:
            return _run_round(
                cli, ops, seen, deadline,
                after_op=lambda o: tracer.end_op(len(o.stdout.encode("utf-8"))),
            )
        finally:
            tracer.uninstall()

    begin = time.perf_counter()
    index = 0
    late = False
    while not late and time.perf_counter() - begin < seconds:
        ops = wl.rounds[index % len(wl.rounds)]
        passes = [
            (untraced, lambda: _run_round(cli, ops, seen, deadline)),
            (traced, lambda: traced_pass(ops)),
        ]
        for sink, run_pass in passes if index % 2 == 0 else passes[::-1]:
            done, late = run_pass()
            sink += done
            if late:
                break
        index += 1
    verifier = Verifier()
    ok_u, wrong_u = _summarise(untraced, verifier)
    ok_t, wrong_t = _summarise(traced, verifier)
    attempted = len(untraced) + len(traced)
    untraced_op_s = sum(o.seconds for o in untraced) / len(untraced)
    traced_op_s = sum(o.seconds for o in traced) / len(traced)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.report(len(traced)).items()
    }
    metrics["trace.op_s"] = {"value": traced_op_s, "unit": "s/op"}
    metrics["trace.untraced_op_s"] = {"value": untraced_op_s, "unit": "s/op"}
    metrics["trace_overhead"] = {"value": untraced_op_s / traced_op_s, "unit": "ratio"}
    notes = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "failures": _failure_notes(verifier),
    }
    result = {
        "correct": wrong_u + wrong_t == 0,
        "attempted": attempted,
        "failed": attempted - len(ok_u) - len(ok_t),
        "metrics": metrics,
    }
    return result, notes


def _failure_notes(verifier: Verifier) -> list:
    return [
        {"kind": kind, "reason": reason, "first_op": key}
        for (kind, reason), key in list(verifier.reasons.items())[:10]
    ]
