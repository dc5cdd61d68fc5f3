"""Span tracing of simplexgeo's public functions, installed from outside.

The package imports names with ``from .x import y``, so a call site looks
the function up in its own module's namespace.  ``Tracer.install`` therefore
rebinds every module attribute of the package that *is* a traced function,
wherever it was imported to, and ``uninstall`` puts the originals back.

Each wrapper records a span: id, parent id, name, thread and the thread's
CPU time spent inside the call.  The span stack is kept per thread because
``cmd_analyze`` fans files out to a thread pool; a span opened on a worker
thread with an empty stack takes the open outermost span of the main
thread as its parent.  A span's self time is its CPU time minus that of
its children on the same thread.  Thread CPU time rather than wall time is
used so that spans running concurrently on pool threads, which mostly wait
for the interpreter lock, are not counted twice: the self times of an
operation add up to the CPU time it used.  Spans stay in memory and are
folded into per-function totals by ``end_op`` after each operation, off the
timed path.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs that get a span, in report order.
TRACED = (
    ("fileio", "load_simplex"),
    ("fileio", "load_points"),
    ("core", "validate_simplex"),
    ("core", "edge_profile"),
    ("core", "squared_distance_matrix"),
    ("apollonius", "median_sums"),
    ("apollonius", "vertex_radicand"),
    ("enclosing", "combined_enclosure"),
    ("enclosing", "exact_meb_support"),
    ("enclosing", "barycentric_circumradius"),
    ("metrics", "metrics_report"),
    ("metrics", "barycentric_inradius"),
    ("metrics", "barycentric_inradius_estimate"),
    ("metrics", "exact_inradius_fulldim"),
    ("bisection", "solve"),
    ("bisection", "bisect"),
    ("bisection", "error_estimate"),
    ("cli", "main"),
    ("cli", "render_json"),
)

# Only the outermost call of these recursive functions gets a span.
OUTERMOST_ONLY = {"cli.render_json"}

COUNTERS = (
    "fileio.bytes_read",
    "enclosing.exact_meb_support.points",
    "bisection.solve.iterations",
    "bisection.evaluations",
    "cli.stdout_bytes",
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.lock = threading.Lock()
        self.spans = []
        self.main_root = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.solve_lookups = 0
        self.solve_evaluations = 0
        self.patches = []
        self.saved_systems = None

    # -- counting hooks -------------------------------------------------

    def _count(self, name: str, amount: float) -> None:
        with self.lock:
            self.counters[name] += amount

    def _after_load(self, args, result, state):
        self._count("fileio.bytes_read", os.path.getsize(args[0]))

    def _after_meb(self, args, result, state):
        self._count("enclosing.exact_meb_support.points", len(args[0]))

    def _before_solve(self, args):
        return self.counters["bisection.evaluations"]

    def _after_solve(self, args, result, state):
        depth = result.steps[-1].depth
        vertices = args[1].m + 1
        # One lookup per start vertex, one per child vertex for each of the
        # two children at every iteration, and one at the final barycenter.
        lookups = vertices + 2 * vertices * depth + 1
        with self.lock:
            self.counters["bisection.solve.iterations"] += depth
            self.solve_lookups += lookups
            self.solve_evaluations += self.counters["bisection.evaluations"] - state

    # -- span wrappers --------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        outermost_only = name in OUTERMOST_ONLY
        on_main = threading.main_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer.local
            if not hasattr(local, "stack"):
                local.stack = []
                local.inside = set()
            if outermost_only:
                if name in local.inside:
                    return fn(*args, **kwargs)
                local.inside.add(name)
            stack = local.stack
            state = before(args) if before else None
            sid = next(tracer.ids)
            parent = stack[-1] if stack else tracer.main_root
            is_main_root = not stack and threading.current_thread() is on_main()
            if is_main_root:
                tracer.main_root = sid
            stack.append(sid)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.thread_time() - start
                stack.pop()
                if outermost_only:
                    local.inside.discard(name)
                if is_main_root:
                    tracer.main_root = None
                tracer.spans.append((sid, parent, name, spent, threading.get_ident()))
            if after:
                after(args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "fileio.load_simplex": (None, self._after_load),
            "fileio.load_points": (None, self._after_load),
            "enclosing.exact_meb_support": (None, self._after_meb),
            "bisection.solve": (self._before_solve, self._after_solve),
        }
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"{self.package}.{module_name}"], func_name)
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.patches.append((mod, attr, original))
        self._install_counting_systems()

    def _install_counting_systems(self) -> None:
        bisection = sys.modules[f"{self.package}.bisection"]
        systems = bisection.BUILTIN_SYSTEMS
        self.saved_systems = dict(systems)
        for key, system in self.saved_systems.items():
            def counting(x, evaluate=system.evaluate):
                self._count("bisection.evaluations", 1)
                return evaluate(x)

            systems[key] = bisection.SystemFunction(
                dimension=system.dimension, evaluate=counting, name=system.name
            )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()
        if self.saved_systems is not None:
            systems = sys.modules[f"{self.package}.bisection"].BUILTIN_SYSTEMS
            systems.clear()
            systems.update(self.saved_systems)
            self.saved_systems = None

    # -- aggregation ----------------------------------------------------

    def end_op(self, stdout_bytes: int) -> None:
        """Fold the spans of the finished operation into the totals."""
        spans, self.spans = self.spans, []
        thread_of = {sid: thread for sid, _, _, _, thread in spans}
        children_cpu = defaultdict(float)
        for sid, parent, name, spent, thread in spans:
            if parent is not None and thread_of.get(parent) == thread:
                children_cpu[parent] += spent
        for sid, parent, name, spent, thread in spans:
            self.calls[name] += 1
            self.self_s[name] += spent - children_cpu[sid]
        self.counters["cli.stdout_bytes"] += stdout_bytes

    def report(self, ops: int) -> dict:
        """Per-operation calls, self seconds and counters."""
        out = {}
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = (self.calls[name] / ops, "calls/op")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        units = {
            "fileio.bytes_read": "B/op",
            "enclosing.exact_meb_support.points": "points/op",
            "bisection.solve.iterations": "iters/op",
            "bisection.evaluations": "evals/op",
            "cli.stdout_bytes": "B/op",
        }
        for name in COUNTERS:
            out[name] = (self.counters[name] / ops, units[name])
        ratio = 0.0
        if self.solve_lookups:
            ratio = 1.0 - self.solve_evaluations / self.solve_lookups
        out["bisection.cache_hit_ratio"] = (ratio, "ratio")
        out["trace.self_s_sum"] = (sum(self.self_s.values()) / ops, "s/op")
        return out
