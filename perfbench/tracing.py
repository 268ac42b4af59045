"""Span recording around riempoly's layers, installed from outside the package.

A traced run replaces, for its duration only, the public functions of the
riempoly modules and the geometry methods of every manifold class with
recorders.  Methods are wrapped at class level, so the calls one manifold
makes on another (Kendall's inner Sphere steps) are recorded too.  Every
call becomes one span: name, start, end, parent span and run id.  Spans stay
in memory and are written out when the run ends; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, public function, span name).  Every module attribute bound to the
# same function object is replaced, so names imported with ``from .x import``
# are traced as well.
FUNCTIONS = (
    ("riempoly.landmarks", "parse_landmarks", "landmarks.parse"),
    ("riempoly.cli", "main", "cli.main"),
    ("riempoly.polyflow", "integrate_polynomial", "polyflow.forward"),
    ("riempoly.regress", "fit_orders", "regress.fit_orders"),
    ("riempoly.regress", "fit_polynomial", "regress.fit"),
    ("riempoly.regress", "integrate_adjoint", "regress.adjoint"),
    ("riempoly.regress", "frechet_mean", "regress.frechet_mean"),
    ("riempoly.geometry", "shooting_log", "geometry.shooting_log"),
)

GEOMETRY_METHODS = (
    "exp", "log", "transport", "curvature", "dist", "log_many", "dist_many",
    "project_point", "project_tangent",
)

# Span prefix per manifold class; other classes use their lower-cased name.
MANIFOLD_PREFIX = {"KendallShapeSpace": "kendall", "RotationGroup": "so3"}

# Per-layer metrics reported by every traced run, in this order.  A layer
# that a workload does not load reports zeros.
KENDALL_OPS = ("exp", "transport", "curvature", "log_many", "dist_many",
               "project_point", "project_tangent")
SPHERE_OPS = ("exp", "transport", "curvature", "log_many", "dist_many")
SO3_OPS = ("exp", "transport", "log", "dist", "curvature")
MANIFOLDS = ("kendall", "sphere", "so3")
MAX_REPORTED_ORDER = 3


def _prefix(cls) -> str:
    return MANIFOLD_PREFIX.get(cls.__name__, cls.__name__.lower())


def _riempoly_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "riempoly" or k.startswith("riempoly."))]


def _all_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.span_run = []
        self.run_id = 0
        self._stack = [-1]
        self.steps = defaultdict(int)        # span name id -> integration steps
        self.iterations = defaultdict(int)   # fit order -> accepted iterations
        self._patches = []

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self.span_start.append(0.0)
        self._stack.append(idx)
        self.span_start[idx] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()

    def _function_wrapper(self, fn, span):
        nid = self.name_id(span)
        after = {
            "polyflow.forward": self._after_forward,
            "regress.adjoint": self._after_adjoint,
            "regress.fit": self._after_fit,
        }.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(nid, fn, args, kwargs)
            if after is not None:
                after(nid, args, kwargs, result)
            return result

        return wrapper

    def _after_forward(self, nid, args, kwargs, traj):
        self.steps[nid] += len(traj) - 1

    def _after_adjoint(self, nid, args, kwargs, grads):
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        self.steps[nid] += len(traj) - 1

    def _after_fit(self, nid, args, kwargs, result):
        self.iterations[result.params.order] += result.iterations

    def _method_wrapper(self, fn, method):
        ids = {}

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            cls = type(obj)
            nid = ids.get(cls)
            if nid is None:
                nid = ids[cls] = self.name_id(f"{_prefix(cls)}.{method}")
            return self._call(nid, fn, (obj,) + args, kwargs)

        return wrapper

    def _residuals_wrapper(self, fn):
        ids = {}

        @functools.wraps(fn)
        def wrapper(state, manifold, *args, **kwargs):
            cls = type(manifold)
            nid = ids.get(cls)
            if nid is None:
                nid = ids[cls] = self.name_id(f"{_prefix(cls)}.residuals")
            return self._call(nid, fn, (state, manifold) + args, kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def trace_function(self, modules, original, span):
        """Record calls to ``original`` through every name bound to it."""
        wrapped = self._function_wrapper(original, span)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, wrapped)

    def install(self):
        """Wrap the loaded riempoly modules; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _riempoly_modules()
        for modname, attr, span in FUNCTIONS:
            mod = sys.modules.get(modname)
            if mod is not None:
                self.trace_function(modules, getattr(mod, attr), span)
        geometry = sys.modules["riempoly.geometry"]
        for cls in _all_subclasses(geometry.Manifold):
            for method in GEOMETRY_METHODS:
                if method in vars(cls):
                    self._patch(cls, method,
                                self._method_wrapper(vars(cls)[method], method))
        state_cls = sys.modules["riempoly.polyflow"].PolynomialState
        self._patch(state_cls, "residuals",
                    self._residuals_wrapper(vars(state_cls)["residuals"]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "start": np.array(self.span_start),
            "end": np.array(self.span_end),
            "run": np.array(self.span_run, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Calls, inclusive and self time per span name, and parent relations."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.steps = dict(tracer.steps)
        self.iterations = dict(tracer.iterations)
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        n = len(self.names)
        self._name = name
        self._parent = parent
        self._parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
        self.calls = np.bincount(name, minlength=n)
        self.total_s = np.bincount(name, weights=dur, minlength=n)
        self.self_s = np.bincount(name, weights=dur - covered, minlength=n)

    def _id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self.calls[i])

    def self_time(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.self_s[i])

    def total_time(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.total_s[i])

    def step_count(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self.steps.get(i, 0))

    def count_with_parent(self, names, parents) -> int:
        """Spans named in ``names`` whose direct parent is named in ``parents``."""
        ids = [i for i in map(self._id, names) if i is not None]
        pids = [i for i in map(self._id, parents) if i is not None]
        if not ids or not pids:
            return 0
        return int(np.sum(np.isin(self._name, ids) & np.isin(self._parent_name, pids)))

    def count_within(self, name, ancestor) -> int:
        """Spans named ``name`` with a span named ``ancestor`` above them."""
        i, a = self._id(name), self._id(ancestor)
        if i is None or a is None:
            return 0
        rows = np.flatnonzero(self._name == i)
        up = self._parent[rows]
        found = np.zeros(len(rows), dtype=bool)
        while np.any(up >= 0):
            live = up >= 0
            found |= live & (self._name[np.where(live, up, 0)] == a)
            up = np.where(live & ~found, self._parent[np.where(live, up, 0)], -1)
        return int(found.sum())

    def rows(self):
        """(name, calls, self_s, total_s) per span name, busiest first."""
        order = np.argsort(-self.self_s, kind="stable")
        return [(self.names[i], int(self.calls[i]), float(self.self_s[i]),
                 float(self.total_s[i])) for i in order if self.calls[i]]


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def per_layer_metrics(s: SpanSummary, overhead_s: float) -> dict:
    """Every per-layer metric by name, as (value, unit)."""
    m = {}
    for op in KENDALL_OPS:
        m[f"kendall.{op}.calls"] = (s.count(f"kendall.{op}"), "count")
        m[f"kendall.{op}.self_s"] = (s.self_time(f"kendall.{op}"), "s")
    kendall_steps = s.count("kendall.exp") + s.count("kendall.transport")
    inner = s.count_with_parent(("sphere.exp", "sphere.transport"),
                                ("kendall.exp", "kendall.transport"))
    m["kendall.substeps_per_call"] = (_ratio(inner, kendall_steps), "ratio")
    for op in SPHERE_OPS:
        m[f"sphere.{op}.calls"] = (s.count(f"sphere.{op}"), "count")
        m[f"sphere.{op}.self_s"] = (s.self_time(f"sphere.{op}"), "s")
    for op in SO3_OPS:
        m[f"so3.{op}.calls"] = (s.count(f"so3.{op}"), "count")
        m[f"so3.{op}.self_s"] = (s.self_time(f"so3.{op}"), "s")
    m["geometry.shooting_log.calls"] = (s.count("geometry.shooting_log"), "count")
    m["so3.exp_per_log"] = (
        _ratio(s.count_within("so3.exp", "so3.log"), s.count("so3.log")), "ratio")

    for span, key in (("polyflow.forward", "polyflow.forward"),
                      ("regress.adjoint", "regress.adjoint")):
        m[f"{key}.calls"] = (s.count(span), "count")
        m[f"{key}.self_s"] = (s.self_time(span), "s")
        m[f"{key}.us_per_step"] = (
            _ratio(1e6 * s.self_time(span), s.step_count(span)), "us")
    jump_logs = s.count_with_parent(
        [n for n in s.names if n.endswith(".log_many")], ("regress.adjoint",))
    m["regress.jump_logs_per_adjoint"] = (
        _ratio(jump_logs, s.count("regress.adjoint")), "ratio")

    iterations = sum(s.iterations.values())
    line_evals = (s.count_with_parent(("polyflow.forward",), ("regress.fit",))
                  - s.count("regress.fit"))
    m["regress.iterations"] = (iterations, "count")
    for k in range(MAX_REPORTED_ORDER + 1):
        m[f"regress.iterations.k{k}"] = (s.iterations.get(k, 0), "count")
    m["regress.line_evals"] = (line_evals, "count")
    m["regress.accept_ratio"] = (_ratio(iterations, line_evals), "ratio")
    m["regress.fit.self_s"] = (s.self_time("regress.fit"), "s")
    m["regress.frechet_mean.s"] = (s.total_time("regress.frechet_mean"), "s")
    for p in MANIFOLDS:
        m[f"{p}.residuals.calls"] = (s.count(f"{p}.residuals"), "count")
        m[f"{p}.residuals.s"] = (s.total_time(f"{p}.residuals"), "s")

    m["landmarks.parse.calls"] = (s.count("landmarks.parse"), "count")
    m["landmarks.parse.s"] = (s.total_time("landmarks.parse"), "s")
    m["cli.report.self_s"] = (s.self_time("cli.main"), "s")
    m["cli.reintegrations"] = (
        s.count_with_parent(("polyflow.forward",), ("cli.main",)), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def layer_table(s: SpanSummary, metrics: dict) -> str:
    """Human-readable per-layer rows: calls, self time, µs per call, ratios."""
    lines = [f"{'span':<28}{'calls':>9}{'self_s':>11}{'total_s':>11}{'us/call':>11}"]
    for name, calls, self_s, total_s in s.rows():
        lines.append(f"{name:<28}{calls:>9}{self_s:>11.4f}{total_s:>11.4f}"
                     f"{1e6 * self_s / calls:>11.1f}")
    for key in ("polyflow.forward.us_per_step", "regress.adjoint.us_per_step",
                "kendall.substeps_per_call", "so3.exp_per_log",
                "regress.jump_logs_per_adjoint", "regress.iterations",
                "regress.line_evals", "regress.accept_ratio",
                "cli.reintegrations", "trace.overhead_s"):
        value, unit = metrics[key]
        lines.append(f"{key:<39}{value:>11.4g} {unit}")
    return "\n".join(lines)
