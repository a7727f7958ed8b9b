"""Span recorder for the traced benchmark run, and the per-layer report.

The recorder wraps every public function of the traced mdflow modules
(and the public methods of their classes) from outside the program.  A
name imported by another module is patched there as well, because the
caller looks it up in its own namespace (``cli`` imports ``step`` by name,
``elliptic`` imports ``theta_derivative`` by name).  Spans are kept in
memory as ``[name, start, end, parent]`` rows and written out once, when
the run ends.  The Krylov entry points of scipy are counted, not spanned:
their time stays with the elliptic span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "harness", "solver", "elliptic", "homogenize", "diagnostics",
           "motion", "grid")
COUNTED = ("scipy.sparse.linalg.bicgstab", "scipy.sparse.linalg.gmres")


class SpanRecorder:
    """Nested spans of one run, in memory, with call counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": dict(self.counters), **extra}, fh)


def load(package: str = "mdflow") -> dict:
    """Import every traced module, so that each caller's namespace exists."""
    return {short: importlib.import_module(f"{package}.{short}") for short in MODULES}


def patch(fn, wrapper, package: str = "mdflow"):
    """Replace `fn` by `wrapper` in every loaded module of `package` that
    holds it, under whatever name: that is where its callers look it up."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                setattr(mod, attr, wrapper)


def install(recorder: SpanRecorder, package: str = "mdflow"):
    """Wrap the public functions and methods of every traced module."""
    for short, mod in load(package).items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                patch(obj, recorder.wrap(f"{short}.{attr}", obj), package)
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name,
                                recorder.wrap(f"{short}.{attr}.{meth_name}", meth))
    for dotted in COUNTED:
        mod_name, attr = dotted.rsplit(".", 1)
        mod = importlib.import_module(mod_name)
        setattr(mod, attr, recorder.count(attr, getattr(mod, attr)))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans, counters, wall_s: float) -> dict:
    """Per-layer metrics of one traced run as {name: (value, unit, samples)}."""
    selfs = self_times(spans)
    dur = defaultdict(list)
    self_by_name = defaultdict(list)
    children = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        dur[name].append(end - start)
        self_by_name[name].append(selfs[i])
        if parent >= 0:
            children[parent].append(name)
    steps = len(dur["solver.step"])

    def per_step(name):
        return (len(dur[name]) / steps if steps else 0.0, "count", steps)

    def matvecs(solve):
        # apply_operator children after the first preconditioner call; the
        # one before it is the affine boundary-data split, not a matvec
        counts = []
        for i, s in enumerate(spans):
            if s[0] != solve:
                continue
            kids = children[i]
            pre = "elliptic.solve_modes"
            first = kids.index(pre) if pre in kids else len(kids)
            counts.append(kids[first:].count("elliptic.apply_operator"))
        return (statistics.fmean(counts) if counts else 0.0, "count", len(counts))

    m = {}
    module_self = defaultdict(float)
    for name, values in self_by_name.items():
        module_self[name.split(".", 1)[0]] += sum(values)
    for mod in MODULES:
        m[f"{mod}.share"] = (module_self[mod] / wall_s, "1", 1)

    for name in ("solver.step", "solver.face_fluxes", "solver.corner_stream",
                 "solver.cfl_timestep", "solver.biot_savart",
                 "solver.boundary_tangency_residual", "solver.mollify_initial",
                 "elliptic.solve_modes", "elliptic.apply_operator",
                 "elliptic.solve_dirichlet", "elliptic.solve_helmholtz",
                 "homogenize.homogenization", "diagnostics.record",
                 "diagnostics.WeakFormAccumulator.add",
                 "diagnostics.DiagnosticsWriter.write", "grid.integrate",
                 "grid.write_snapshot", "harness.write_family_report"):
        m[f"{name}.ms"] = (_median_ms(dur[name]), "ms", len(dur[name]))
    m["solver.step.self_ms"] = (_median_ms(self_by_name["solver.step"]), "ms", steps)
    m["harness.run_family.s"] = (sum(dur["harness.run_family"], 0.0), "s",
                                 len(dur["harness.run_family"]))

    for name in ("solver.advection_field", "elliptic.solve_modes",
                 "elliptic.apply_operator", "homogenize.correction_stream_coefficient",
                 "motion.metric_at", "motion.material_velocity", "motion.map_backward",
                 "grid.gradient", "grid.theta_derivative"):
        m[f"{name}.calls_per_step"] = per_step(name)
    m["elliptic.solve_dirichlet.matvecs"] = matvecs("elliptic.solve_dirichlet")
    m["elliptic.solve_helmholtz.matvecs"] = matvecs("elliptic.solve_helmholtz")
    krylov = counters.get("bicgstab", 0)
    m["elliptic.krylov.fallback_ratio"] = (
        counters.get("gmres", 0) / krylov if krylov else 0.0, "1", krylov)
    m["elliptic.krylov.solves"] = (krylov, "count", 1)
    m["elliptic.solve_neumann.calls"] = (len(dur["elliptic.solve_neumann"]), "count", 1)
    m["solver.step.count"] = (steps, "count", 1)
    return m


def check_nesting(spans) -> list:
    """Problems with the span tree: children outside their parent, or
    parents that do not precede their children."""
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            continue
        if parent >= i:
            problems.append(f"span {i} {name} has parent {parent} recorded after it")
            continue
        p = spans[parent]
        if start < p[1] or end > p[2]:
            problems.append(f"span {i} {name} lies outside its parent {parent} {p[0]}")
    return problems
