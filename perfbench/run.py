"""Closed-loop benchmark of the simplexgeo command line, driven in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-low-m --seed 1 --seconds 20 --trace 0

One caller runs ``simplexgeo.cli.main([...])`` with stdout captured and
starts the next operation only when the previous one has returned.  The
workload's inputs are generated from ``--seed`` before timing starts, every
output is checked afterwards by ``oracles``, and the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: throughput, latency median
and p90 of successful operations, the share that succeeded, set-up time
(a fresh interpreter importing simplexgeo and finishing the first
operation, median of several) and peak resident memory.  The times are
scaled to a reference host speed measured between operations (see
``speed``).  ``--trace 1``
runs the workload untraced, then again with spans around each layer's
public functions (see ``tracing``), and reports per-operation calls, self
time and work counters for each layer, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "simplexgeo"


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            cap = min(cap, int(value))
    for name in names:
        os.environ[name] = str(cap)
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("analyze-low-m", "analyze-high-m", "enclose-cloud", "solve-deep"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    # numpy and the package are imported only after the thread cap is set.
    import harness

    return harness.run(args.workload, args.seed, args.seconds, args.trace, blas_cap)


if __name__ == "__main__":
    sys.exit(main())
