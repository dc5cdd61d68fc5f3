"""Command-line interface emitting deterministic JSON report envelopes.

Every command prints a single-line envelope per result on stdout:

    {"command": ..., "input_digest": ..., "payload": ..., "schema_version": 1}

Keys are sorted and floats carry 17 significant digits, so identical
invocations produce byte-identical output.  Diagnostics go to stderr.
Exit codes: 0 success, 2 parse or argument error, 3 degenerate input,
4 enumeration cap exceeded, 5 iteration budget exhausted, 6 no child
satisfied the sign criterion, 7 unknown system function.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import bisection, corpus, enclosing, fileio, metrics
from .apollonius import median_sums
from .core import Simplex, regular_simplex
from .errors import (
    AllDegenerate,
    CapExceeded,
    Degenerate,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidPoint,
    NegativeRadicand,
    NoSignCriterion,
    ParseError,
    SimplexError,
    TooFewPoints,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_CAP = 4
EXIT_MAX_ITER = 5
EXIT_NO_SIGN = 6
EXIT_UNKNOWN_FUNCTION = 7

_PARSE_ERRORS = (
    ParseError,
    InvalidPoint,
    TooFewPoints,
    DimensionMismatch,
    InvalidDimension,
    IndexOutOfRange,
)
_DEGENERATE_ERRORS = (Degenerate, AllDegenerate, NegativeRadicand)


def render_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        return f"{value:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key)}:{render_json(obj[key])}")
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(x) for x in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _envelope(command: str, digest: str, payload) -> str:
    return render_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "input_digest": digest,
            "payload": payload,
        }
    )


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _param_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _simplex_dict(s: Simplex) -> dict:
    return {"m": s.m, "n": s.n, "vertices": s.vertices}


def _median_dict(report) -> dict:
    return {
        "median_lengths": report.median_lengths,
        "apollonius_residuals": report.apollonius_residuals,
        "sum_squares_medians": report.sum_squares_medians,
        "sum_squares_center_to_vertices": report.sum_squares_center_to_vertices,
        "sum_squares_edges": report.sum_squares_edges,
    }


def _enclosure_dict(report) -> dict:
    return {
        "barycentric_circumradius": report.barycentric_circumradius,
        "jung_bound": report.jung_bound,
        "combined_bound": report.combined_bound,
        "meb_radius": report.meb_radius,
        "meb_center": report.meb_center,
        "barycenter": report.barycenter,
        "argmax_vertex": report.argmax_vertex,
    }


def _metrics_dict(report) -> dict:
    return {
        "barycentric_inradius": report.barycentric_inradius,
        "barycentric_inradius_estimate": report.barycentric_inradius_estimate,
        "thickness": report.thickness,
        "thickness_estimate": report.thickness_estimate,
        "exact_inradius": report.exact_inradius,
        "exact_incenter": report.exact_incenter,
        "diam": report.diam,
        "shor": report.shor,
    }


def _step_dict(step) -> dict:
    return {
        "depth": step.depth,
        "child_choice": step.child_choice,
        "diam": step.diam,
        "shor": step.shor,
        "error_estimate": step.error_estimate,
        "kearfott_bound": step.kearfott_bound,
        "barycenter": step.barycenter,
    }


def _analyze_one(path: str) -> str:
    s = fileio.load_simplex(path)
    payload = {
        "simplex": _simplex_dict(s),
        "medians": _median_dict(median_sums(s)),
        "enclosure": _enclosure_dict(enclosing.combined_enclosure(s)),
        "metrics": _metrics_dict(metrics.metrics_report(s)),
    }
    return _envelope("analyze", _file_digest(path), payload)


def cmd_analyze(paths) -> int:
    """Full report for each simplex file, in argument order."""
    for path in paths:
        print(_analyze_one(path))
    return EXIT_OK


def _set_diameter(pts: np.ndarray) -> float:
    best = 0.0
    for row in range(pts.shape[0] - 1):
        gaps = pts[row + 1 :] - pts[row]
        best = max(best, float(np.max(np.einsum("ij,ij->i", gaps, gaps))))
    return math.sqrt(best)


def cmd_enclose(path: str, n: int | None, variant_jung: bool, bw_check: bool) -> int:
    pts = fileio.load_points(path)
    dim = int(n) if n is not None else pts.shape[1]
    if dim != pts.shape[1]:
        raise DimensionMismatch(
            f"points live in R^{pts.shape[1]} but --n {dim} was given"
        )
    center, radius, support = enclosing.exact_meb_support(pts)
    payload = {
        "count": int(pts.shape[0]),
        "n": dim,
        "meb": {
            "center": center,
            "radius": radius,
            "support": sorted(int(i) for i in support),
        },
    }
    if pts.shape[0] >= 2:
        diam = _set_diameter(pts)
        jung = enclosing.jung_bound(diam, dim)
        bounds = [jung]
        payload["diam"] = diam
        payload["jung_bound"] = jung
    else:
        bounds = []
    if variant_jung:
        value = enclosing.set_barycentric_circumradius(pts, dim)
        payload["set_barycentric_circumradius"] = value
        bounds.append(value)
    if bw_check:
        subset_max, full = enclosing.blumenthal_wahlin_check(pts, dim)
        payload["blumenthal_wahlin"] = {"subset_max": subset_max, "full": full}
    if bounds:
        cap = min(bounds)
        slack = 1e-12 * max(1.0, radius)
        if radius > cap + slack:
            raise ArithmeticError(
                f"exact ball radius {radius!r} exceeds enclosure bound {cap!r}"
            )
        payload["bounds_hold"] = True
    print(_envelope("enclose", _file_digest(path), payload))
    return EXIT_OK


def cmd_solve(fn_name: str, path: str, tol: float, max_iter: int, trace_path: str | None) -> int:
    system = bisection.BUILTIN_SYSTEMS.get(fn_name)
    if system is None:
        known = ", ".join(sorted(bisection.BUILTIN_SYSTEMS))
        print(f"error: unknown function {fn_name!r} (known: {known})", file=sys.stderr)
        return EXIT_UNKNOWN_FUNCTION
    s0 = fileio.load_simplex(path)
    trace = bisection.solve(system, s0, tol, max_iter)
    payload = {
        "function": fn_name,
        "tol": tol,
        "max_iter": int(max_iter),
        "converged": trace.converged,
        "iterations": trace.steps[-1].depth,
        "final_approximation": trace.final_approximation,
        "final_error_estimate": trace.final_error_estimate,
        "residual_norm": trace.residual_norm,
        "steps": [_step_dict(step) for step in trace.steps],
    }
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for step in trace.steps:
                fh.write(render_json(_step_dict(step)) + "\n")
    print(_envelope("solve", _file_digest(path), payload))
    if not trace.converged:
        print(
            f"error: not converged after {max_iter} iterations "
            f"(error estimate {trace.final_error_estimate:.6e} > tol {tol:.6e})",
            file=sys.stderr,
        )
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_regular(m: int, n: int, diam: float) -> int:
    s = regular_simplex(m, n, diam)
    circum_computed, _ = enclosing.barycentric_circumradius(s)
    inradius_computed, _ = metrics.barycentric_inradius(s)
    fermat_measured, fermat_closed = enclosing.fermat_sum_regular(s)
    theta, _ = metrics.thickness(s)
    gale_closed, gale_measured = metrics.gale_diameter_check(m)
    width_closed = metrics.regular_width(m, diam)
    steinhagen_cap = metrics.steinhagen_bound(m, inradius_computed)
    from .apollonius import median_length

    payload = {
        "m": int(m),
        "n": int(n),
        "diam": float(diam),
        "simplex": _simplex_dict(s),
        "checks": {
            "median_length": {
                "closed_form": math.sqrt((m + 1.0) / (2.0 * m)) * diam,
                "computed": median_length(s, 0),
            },
            "circumradius": {
                "closed_form": enclosing.regular_circumradius(m, diam),
                "computed": circum_computed,
            },
            "inradius": {
                "closed_form": diam / math.sqrt(2.0 * m * (m + 1.0)),
                "computed": inradius_computed,
            },
            "fermat_sum": {
                "closed_form": fermat_closed,
                "computed": fermat_measured,
            },
            "thickness": {
                "closed_form": 1.0 / math.sqrt(2.0 * m * (m + 1.0)),
                "computed": theta,
            },
            "width": {
                "closed_form": width_closed,
                "steinhagen_cap": steinhagen_cap,
                "holds": bool(width_closed <= steinhagen_cap * (1.0 + 1e-12)),
            },
            "gale_diameter": {
                "closed_form": gale_closed,
                "computed": gale_measured,
            },
        },
    }
    digest = _param_digest(f"regular:m={m}:n={n}:diam={float(diam):.17g}")
    print(_envelope("regular", digest, payload))
    return EXIT_OK


def cmd_corpus(seed: int, count: int, m: int | None, n: int | None, coord_range: float) -> int:
    simplices = corpus.generate(seed, count, m=m, n=n, coord_range=coord_range)
    payload = {
        "seed": int(seed),
        "count": int(count),
        "m": None if m is None else int(m),
        "n": None if n is None else int(n),
        "coord_range": float(coord_range),
        "simplices": [_simplex_dict(s) for s in simplices],
    }
    digest = _param_digest(
        f"corpus:seed={seed}:count={count}:m={m}:n={n}"
        f":coord_range={float(coord_range):.17g}"
    )
    print(_envelope("corpus", digest, payload))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexgeo",
        description="Exact simplex geometry: medians, enclosure bounds, bisection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for simplex files")
    p_analyze.add_argument("paths", nargs="+", metavar="SIMPLEX_JSON")

    p_enclose = sub.add_parser("enclose", help="enclosing-ball bounds for a point set")
    p_enclose.add_argument("path", metavar="POINTS_JSON")
    p_enclose.add_argument("--n", type=int, default=None, help="ambient dimension")
    p_enclose.add_argument(
        "--variant-jung",
        action="store_true",
        help="add the subset barycentric-circumradius bound (<= 15 points)",
    )
    p_enclose.add_argument(
        "--bw-check",
        action="store_true",
        help="compare subset and full enclosing radii (<= 15 points)",
    )

    p_solve = sub.add_parser("solve", help="sign-based bisection root search")
    p_solve.add_argument("function", metavar="FUNCTION")
    p_solve.add_argument("path", metavar="SIMPLEX_JSON")
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--trace", default=None, metavar="PATH",
                         help="write one JSON step record per line to PATH")

    p_regular = sub.add_parser("regular", help="regular simplex with closed-form checks")
    p_regular.add_argument("--m", type=int, required=True)
    p_regular.add_argument("--n", type=int, required=True)
    p_regular.add_argument("--diam", type=float, default=1.0)

    p_corpus = sub.add_parser("corpus", help="seeded random simplex corpus")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--count", type=int, default=10)
    p_corpus.add_argument("--m", type=int, default=None)
    p_corpus.add_argument("--n", type=int, default=None)
    p_corpus.add_argument("--coord-range", type=float, default=10.0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches the parse code.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "analyze":
            return cmd_analyze(args.paths)
        if args.command == "enclose":
            return cmd_enclose(args.path, args.n, args.variant_jung, args.bw_check)
        if args.command == "solve":
            return cmd_solve(args.function, args.path, args.tol, args.max_iter, args.trace)
        if args.command == "regular":
            return cmd_regular(args.m, args.n, args.diam)
        if args.command == "corpus":
            seed = args.seed
            env_seed = os.environ.get("SIMPLEX_SEED")
            if env_seed is not None:
                try:
                    seed = int(env_seed)
                except ValueError as exc:
                    raise ParseError(f"SIMPLEX_SEED must be an integer, got {env_seed!r}") from exc
            return cmd_corpus(seed, args.count, args.m, args.n, args.coord_range)
        raise AssertionError(f"unhandled command {args.command!r}")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DEGENERATE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NoSignCriterion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SIGN
    except SimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
