"""Command-line interface emitting deterministic JSON report envelopes.

Every command prints a single-line envelope per result on stdout:

    {"command": ..., "input_digest": ..., "payload": ..., "schema_version": 1}

Keys are sorted and floats carry 17 significant digits, so identical
invocations produce byte-identical output.  ``render_json`` writes values
of exactly these types: None, bool, int, float, str, dict, list, tuple and
numpy.ndarray.  It widens a numpy bool, integer, floating or str scalar to
the Python value, and writes a dataclass instance field by field, so its
field names are the payload keys.  A dict key may be any str.  It raises
ValueError for a NaN or infinity anywhere in the value and TypeError for a
non-string key or any other type, subclasses of the exact types (an
IntEnum, a namedtuple, an OrderedDict, a masked array) and a dataclass
itself included.

Diagnostics go to stderr.  ``main`` maps each exception to an exit code
through one first-match table: 0 success, 1 numerical failure (overflow,
a failed self-check, a singular system, an array that cannot be
allocated), 2 parse or argument error, 3 degenerate input (the relative
rank test only), 4 enumeration cap exceeded, 5 iteration budget
exhausted, 6 no child satisfied the sign criterion, 7 unknown system
function.  Every failure prints from that table: one ``error:`` line on
stderr instead of a traceback.  The package emits no warning, so stderr
is empty on exit 0; a warning that the interpreter's filter turns into an
error, numpy's included, is not mapped and propagates.  Code 5 alone is
returned, not raised, because its envelope still prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bisection, corpus, enclosing, fileio, metrics
from .apollonius import median_length, median_sums
from .core import Simplex, regular_simplex
from .errors import (
    CapExceeded,
    Degenerate,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidPoint,
    NoSignCriterion,
    ParseError,
    SimplexError,
    TooFewPoints,
    UnknownFunction,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_CAP = 4
EXIT_MAX_ITER = 5
EXIT_NO_SIGN = 6
EXIT_UNKNOWN_FUNCTION = 7

# Exception types and their exit code; the first matching row wins, so
# InvalidDimension, also a ValueError, exits 2 rather than 1.
_EXIT_CODES = (
    ((OSError, ParseError, InvalidPoint, TooFewPoints), EXIT_PARSE),
    ((DimensionMismatch, InvalidDimension, IndexOutOfRange), EXIT_PARSE),
    (Degenerate, EXIT_DEGENERATE),
    (CapExceeded, EXIT_CAP),
    (NoSignCriterion, EXIT_NO_SIGN),
    (UnknownFunction, EXIT_UNKNOWN_FUNCTION),
    ((SimplexError, ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError), EXIT_FAILURE),
)


def render_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats.

    The accepted types and the two errors are listed in the module
    docstring.  Each node is dispatched on its exact type; numpy scalars
    and dataclass instances go through ``_render_other``.
    Nested nodes go through ``_render``, so a wrapper around this function
    sees one call per value.
    """
    return _render(obj)


def _render(obj) -> str:
    return _WRITERS.get(type(obj), _render_other)(obj)


def _render_bool(obj) -> str:
    return "true" if obj else "false"


def _render_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return f"{value:.17g}"


def _render_dict(obj: dict) -> str:
    return "{" + ",".join([
        encode_basestring_ascii(key) + ":" + _render(obj[key])
        if isinstance(key, str) else _bad_key(key)
        for key in sorted(obj)
    ]) + "}"


def _bad_key(key):
    raise TypeError(f"JSON object keys must be strings, got {key!r}")


def _render_list(obj) -> str:
    return "[" + ",".join([_render(item) for item in obj]) + "]"


def _render_array(obj: np.ndarray) -> str:
    return _render(obj.tolist())


def _dataclass_writer(cls):
    """Writer for the instances of one dataclass, its keys sorted and encoded once."""
    plan = [(encode_basestring_ascii(name) + ":", name)
            for name in sorted(field.name for field in dataclasses.fields(cls))]

    def write(obj) -> str:
        return "{" + ",".join([key + _render(getattr(obj, name)) for key, name in plan]) + "}"

    return write


def _render_other(obj) -> str:
    """Numpy scalars, widened to the Python value, and dataclass instances."""
    if isinstance(obj, np.floating):  # not item(): a longdouble's is a longdouble
        return _render_float(float(obj))
    if isinstance(obj, (np.bool_, np.integer, np.str_)):
        return _render(obj.item())
    if dataclasses.is_dataclass(type(obj)):  # an instance, not a dataclass itself
        write = _WRITERS[type(obj)] = _dataclass_writer(type(obj))
        return write(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# Writers by exact type.  A dataclass joins when its first instance is
# written, since the rules of ``_render_other`` depend on the type alone;
# every other type goes through ``_render_other``.
_WRITERS = {
    type(None): lambda obj: "null",
    bool: _render_bool,
    int: int.__repr__,
    float: _render_float,
    str: encode_basestring_ascii,
    dict: _render_dict,
    list: _render_list,
    tuple: _render_list,
    np.ndarray: _render_array,
}


def _envelope(command: str, digest: str, payload) -> str:
    return render_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "input_digest": digest,
            "payload": payload,
        }
    )


def _param_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _simplex_dict(s: Simplex) -> dict:
    return {"m": s.m, "n": s.n, "vertices": s.vertices}


def cmd_analyze(args) -> int:
    """Full report for each simplex file, in argument order; the enclosure's cap first."""
    for path in args.paths:
        s, digest = fileio.load_simplex(path)
        payload = {
            "enclosure": enclosing.combined_enclosure(s),
            "simplex": _simplex_dict(s),
            "medians": median_sums(s),
            "metrics": metrics.metrics_report(s),
        }
        print(_envelope("analyze", digest, payload))
    return EXIT_OK


def cmd_enclose(args) -> int:
    pts, digest = fileio.load_points(args.path)
    dim = pts.shape[1] if args.n is None else args.n
    if dim != pts.shape[1]:
        raise DimensionMismatch(
            f"points live in R^{pts.shape[1]} but --n {dim} was given"
        )
    center, radius, support = enclosing.exact_meb_support(pts)
    payload = {
        "count": int(pts.shape[0]),
        "n": dim,
        "meb": {"center": center, "radius": radius, "support": list(support)},
    }
    bound = math.inf
    if args.variant_jung:
        bound = enclosing.set_barycentric_circumradius(pts, dim)
        payload["set_barycentric_circumradius"] = bound
    if args.bw_check:
        subset_max, full = enclosing.blumenthal_wahlin_check(pts, dim)
        payload["blumenthal_wahlin"] = {"subset_max": subset_max, "full": full}
    if radius > 0.0:  # the points are not all equal, so they have a diameter
        diam = enclosing.set_diameter(pts, center, support)
        # In the hull dimension, which the exact ball's cap counts too.
        jung = enclosing.jung_bound(diam, min(dim, len(pts) - 1))
        enclosing.check_enclosure_bound(radius, min(jung, bound), diam)
        payload.update(diam=diam, jung_bound=jung, bounds_hold=True)
    print(_envelope("enclose", digest, payload))
    return EXIT_OK


def cmd_solve(args) -> int:
    system = bisection.BUILTIN_SYSTEMS.get(args.function)
    if system is None:
        known = ", ".join(sorted(bisection.BUILTIN_SYSTEMS))
        raise UnknownFunction(f"unknown function {args.function!r} (known: {known})")
    s0, digest = fileio.load_simplex(args.path)
    trace = bisection.solve(system, s0, args.tol, args.max_iter)
    payload = {
        "function": args.function,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "iterations": trace.steps[-1].depth,
        **vars(trace),
    }
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines([render_json(step) + "\n" for step in trace.steps])
    print(_envelope("solve", digest, payload))
    if not trace.converged:
        print(
            f"error: not converged after {args.max_iter} iterations "
            f"(error estimate {trace.final_error_estimate:.6e} > tol {args.tol:.6e})",
            file=sys.stderr,
        )
        return EXIT_MAX_ITER
    return EXIT_OK


def _compare(closed_form: float, computed: float) -> dict:
    return {"closed_form": closed_form, "computed": computed}


def cmd_regular(args) -> int:
    m, n, diam = args.m, args.n, args.diam
    s = regular_simplex(m, n, diam)
    circum_computed, _ = enclosing.barycentric_circumradius(s)
    inradius_computed, _ = metrics.barycentric_inradius(s)
    fermat_measured, fermat_closed = enclosing.fermat_sum_regular(s)
    theta, _ = metrics.thickness(s)
    gale_closed, gale_measured = metrics.gale_diameter_check(m)
    width_closed = metrics.regular_width(m, diam)
    steinhagen_cap = metrics.steinhagen_bound(m, inradius_computed)
    payload = {
        "m": int(m),
        "n": int(n),
        "diam": float(diam),
        "simplex": _simplex_dict(s),
        "checks": {
            "median_length": _compare(math.sqrt((m + 1.0) / (2.0 * m)) * diam, median_length(s, 0)),
            "circumradius": _compare(enclosing.jung_bound(diam, m), circum_computed),
            "inradius": _compare(diam / math.sqrt(2.0 * m * (m + 1.0)), inradius_computed),
            "fermat_sum": _compare(fermat_closed, fermat_measured),
            "thickness": _compare(1.0 / math.sqrt(2.0 * m * (m + 1.0)), theta),
            "width": {
                "closed_form": width_closed,
                "steinhagen_cap": steinhagen_cap,
                "holds": bool(width_closed <= steinhagen_cap * (1.0 + 1e-12)),
            },
            "gale_diameter": _compare(gale_closed, gale_measured),
        },
    }
    digest = _param_digest(f"regular:m={m}:n={n}:diam={float(diam):.17g}")
    print(_envelope("regular", digest, payload))
    return EXIT_OK


def cmd_corpus(args) -> int:
    seed, count, m, n, coord_range = args.seed, args.count, args.m, args.n, args.coord_range
    env_seed = os.environ.get("SIMPLEX_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ParseError(f"SIMPLEX_SEED must be an integer, got {env_seed!r}") from exc
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
    p_analyze.set_defaults(run=cmd_analyze)
    p_analyze.add_argument("paths", nargs="+", metavar="SIMPLEX_JSON")

    p_enclose = sub.add_parser("enclose", help="enclosing-ball bounds for a point set")
    p_enclose.set_defaults(run=cmd_enclose)
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
    p_solve.set_defaults(run=cmd_solve)
    p_solve.add_argument("function", metavar="FUNCTION")
    p_solve.add_argument("path", metavar="SIMPLEX_JSON")
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--trace", default=None, metavar="PATH",
                         help="write one JSON step record per line to PATH")

    p_regular = sub.add_parser("regular", help="regular simplex with closed-form checks")
    p_regular.set_defaults(run=cmd_regular)
    p_regular.add_argument("--m", type=int, required=True)
    p_regular.add_argument("--n", type=int, required=True)
    p_regular.add_argument("--diam", type=float, default=1.0)

    p_corpus = sub.add_parser("corpus", help="seeded random simplex corpus")
    p_corpus.set_defaults(run=cmd_corpus)
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
        return args.run(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
