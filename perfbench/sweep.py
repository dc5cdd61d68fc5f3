"""Informational scaling sweep of single layers; not part of the gated runs.

Usage, from the root of a source checkout:

    python3 perfbench/sweep.py --seed 0 --cap-seconds 5 > sweep.json

Times each layer's public function on one seeded full-dimensional simplex
for every m = 1..10 (microseconds per call, median of repeated timings),
and ``exact_meb_support`` on seeded Gaussian clouds at
(n, N) in {(2, 1e4), (5, 1e4), (10, 2e3), (10, 1e4)}.  A single call that
runs past ``--cap-seconds`` is interrupted and reported as capped, which
matters from m = 9 on, where one ``metrics_report`` takes seconds.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time

from run import SRC, cap_blas_threads

# Repeat a cheap call until this much time has been spent on it.
BUDGET_S = 0.3
MAX_REPEATS = 2000
MEB_CASES = ((2, 10000), (5, 10000), (10, 2000), (10, 10000))


class Capped(Exception):
    pass


def _on_alarm(signum, frame):
    raise Capped


def _time_call(fn, cap_s: float) -> float | None:
    """Median seconds per call, or None if one call ran past ``cap_s``."""
    samples = []
    spent = 0.0
    while spent < BUDGET_S and len(samples) < MAX_REPEATS:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
        except Capped:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append(elapsed)
        spent += elapsed
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap-seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import simplexgeo as sg
    from simplexgeo.cli import render_json

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = np.random.default_rng(args.seed)
    layers = {}
    for m in range(1, 11):
        vertices = rng.uniform(-10.0, 10.0, size=(m + 1, m))
        s = sg.validate_simplex(vertices)
        calls = {
            "core.validate_simplex": lambda: sg.validate_simplex(vertices),
            "core.edge_profile": lambda: sg.edge_profile(s),
            "core.squared_distance_matrix": lambda: sg.core.squared_distance_matrix(s),
            "apollonius.median_sums": lambda: sg.median_sums(s),
            "apollonius.vertex_radicand": lambda: sg.apollonius.vertex_radicand(s, 0),
            "enclosing.barycentric_circumradius": lambda: sg.barycentric_circumradius(s),
            "enclosing.combined_enclosure": lambda: sg.combined_enclosure(s),
            "metrics.barycentric_inradius_estimate": lambda: sg.barycentric_inradius_estimate(s),
            "metrics.exact_inradius_fulldim": lambda: sg.exact_inradius_fulldim(s),
            "metrics.barycentric_inradius": lambda: sg.barycentric_inradius(s),
            "metrics.metrics_report": lambda: sg.metrics_report(s),
            "bisection.bisect": lambda: sg.bisect(s),
            "bisection.error_estimate": lambda: sg.error_estimate(s),
        }
        payload = {
            "medians": vars(sg.median_sums(s)),
            "enclosure": vars(sg.combined_enclosure(s)),
            "simplex": {"m": s.m, "n": s.n, "vertices": s.vertices},
        }
        calls["cli.render_json"] = lambda: render_json(payload)
        for name, fn in calls.items():
            seconds = _time_call(fn, args.cap_seconds)
            layers.setdefault(name, {})[str(m)] = (
                None if seconds is None else round(seconds * 1e6, 3)
            )
        print(f"m={m} done", file=sys.stderr, flush=True)

    meb = []
    for n, count in MEB_CASES:
        pts = rng.standard_normal((count, n))
        signal.setitimer(signal.ITIMER_REAL, 10 * args.cap_seconds)
        try:
            start = time.perf_counter()
            _, _, support = sg.exact_meb_support(pts)
            seconds = time.perf_counter() - start
        except Capped:
            seconds, support = None, ()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        meb.append({"n": n, "N": count, "seconds": seconds, "support": len(support)})

    print(json.dumps({
        "seed": args.seed,
        "cap_seconds": args.cap_seconds,
        "blas_threads_cap": blas_cap,
        "numpy": np.__version__,
        "layer_us_per_call": layers,
        "note": "null means one call ran past cap_seconds",
        "exact_meb_support": meb,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
