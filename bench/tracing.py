"""Span tracing of angulab's public functions, installed from outside the package.

``Instrumentation.installed(tracer)`` replaces each traced function in every
angulab namespace that binds it (``relations`` and ``cli`` bind ``operators``
and ``relations`` functions through ``from ... import``) and restores the
originals on exit, so untraced passes run the unmodified code.  A traced
function or cache that the program no longer has is reported as absent and
its metrics read 0.

Each wrapped call is one span: name, start, end, parent span and op id.  A
span's self time is its duration minus the part its children cover; numpy
work inside a function is charged to that function.  A child covers its
whole wrapper, the tracer's own bookkeeping included, so that bookkeeping is
charged to no span and self times are the program's own.  Counts marked
"computed" are derived from argument and result shapes in the wrappers, not
counted by the program.
"""

import collections
import contextlib
import functools
import importlib
import json
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "states", "operators", "relations", "oracle", "cli")

# (span name, module, attribute)
FUNCTIONS = (
    ("specfun.table.theta_lm_table", "specfun", "theta_lm_table"),
    ("specfun.table.hermite_function_table", "specfun", "hermite_function_table"),
    ("specfun.rule.gauss_legendre", "specfun", "gauss_legendre"),
    ("specfun.rule.gauss_hermite", "specfun", "gauss_hermite"),
    ("states.evaluate", "states", "evaluate"),
    ("operators.lift", "operators", "lift"),
    ("operators.apply", "operators", "apply"),
    ("operators.mean", "operators", "mean"),
    ("operators.deviation_vector", "operators", "deviation_vector"),
    ("relations.csf", "relations", "csf"),
    ("relations.rsur", "relations", "rsur"),
    ("relations.adjointness_mismatch", "relations", "adjointness_mismatch"),
    ("relations.covariance_decomposition", "relations", "covariance_decomposition"),
    ("relations.boundary_bound", "relations", "boundary_bound"),
    ("relations.gram_det", "relations", "gram_det"),
    ("relations.adjusted_relation", "relations", "adjusted_relation"),
    ("relations.sphere_anomaly", "relations", "sphere_anomaly"),
    ("oracle.relation_values", "oracle", "relation_values"),
    ("oracle.sample", "oracle", "sample"),
    ("oracle.act", "oracle", "act"),
    ("oracle.numeric_derivative", "oracle", "numeric_derivative"),
    ("oracle.quad_inner", "oracle", "quad_inner"),
    ("cli.main", "cli", "main"),
    ("cli.evaluate_relation", "cli", "evaluate_relation"),
    ("cli.run_sweep", "cli", "run_sweep"),
    ("cli.run_scenario", "cli", "run_scenario"),
)

# Ket.inner is traced per state family, on every operators class that has one.
INNER_FAMILIES = ("periodic", "oscillator", "sphere")

# (metric prefix, module, lru_cache-wrapped attribute)
CACHES = (
    ("operators.cache.phi_power_block", "operators", "_phi_power_block"),
    ("operators.cache.theta_overlap", "operators", "_theta_overlap"),
    ("operators.cache.line_mult_matrix", "operators", "_line_mult_matrix"),
)

# Counts derived from argument and result shapes, not counted by the program.
COMPUTED = (
    "states.evaluate.points",
    "operators.inner.blocks",
    "operators.inner.width_mean",
    "oracle.bytes_sampled",
)

# Every per-layer metric with its unit, in report order.
METRICS = (
    tuple(
        (f"{span}.{field}", unit)
        for span in [name for name, _, _ in FUNCTIONS]
        + [f"operators.inner.{fam}" for fam in INNER_FAMILIES]
        for field, unit in (("calls", "count"), ("self_s", "s"))
    )
    + (
        ("states.evaluate.points", "count"),
        ("operators.inner.blocks", "count"),
        ("operators.inner.width_mean", "coeffs"),
        ("relations.inner_per_op", "calls/op"),
        ("oracle.sample.per_relation", "calls/relation"),
        ("oracle.bytes_sampled", "B"),
        ("oracle.delta_max", "abs"),
        ("cli.report_bytes", "B"),
    )
    + tuple(
        (f"{prefix}.{field}", unit)
        for prefix, _, _ in CACHES
        for field, unit in (("hit_ratio", "ratio"), ("misses", "count"))
    )
    + tuple((f"layer.{layer}.self_frac", "ratio") for layer in LAYERS)
    + (("bench.trace_overhead_frac", "ratio"),)
)


class Tracer:
    """Spans, per-name totals and computed counts of one traced pass."""

    def __init__(self, keep_spans=False):
        self.keep_spans = keep_spans
        self.spans = []  # [name, start, end, parent span index, op id]
        self.stats = {}  # name -> [calls, self seconds]
        self.counts = collections.Counter()
        self.op = 0
        self._stack = []  # [name, start, child seconds, span index]

    def enter(self, name):
        index = None
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, None, None, parent, self.op])
        frame = [name, None, 0.0, index]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        entry = self.stats.setdefault(frame[0], [0, 0.0])
        entry[0] += 1
        entry[1] += end - frame[1] - frame[2]
        if frame[3] is not None:
            self.spans[frame[3]][1:3] = frame[1], end

    def cover(self, outer_start):
        """Charge a finished wrapper, begun at ``outer_start``, to its parent's children."""
        if self._stack:
            self._stack[-1][2] += perf_counter() - outer_start

    def inside(self, prefix):
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _ket_depth(ket):
    # circle kets are (depth, width), sphere kets (rows, depth, width), line kets (dim,)
    return 1 if ket.coeffs.ndim == 1 else ket.coeffs.shape[-2]


def _count_inner(tracer, ket, other):
    counts = tracer.counts
    counts["operators.inner.blocks"] += _ket_depth(ket) * _ket_depth(other)
    if ket.coeffs.ndim > 1:
        counts["inner.width_sum"] += max(ket.coeffs.shape[-1], other.coeffs.shape[-1])
        counts["inner.width_n"] += 1
    if tracer.inside("relations."):
        counts["relations.inner"] += 1


def _count_points(tracer, args, result):
    point = args[1]
    size = np.broadcast(*point).size if isinstance(point, tuple) else np.size(point)
    tracer.counts["states.evaluate.points"] += int(size)


def _count_sample_bytes(tracer, args, result):
    tracer.counts["oracle.bytes_sampled"] += int(np.asarray(result).nbytes)


# Computed counts, called after the span with (tracer, args, result).
AFTER = {"states.evaluate": _count_points, "oracle.sample": _count_sample_bytes}


def _wrap(tracer, name, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer_start = perf_counter()
        try:
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result
        finally:
            tracer.cover(outer_start)

    return traced


def _wrap_inner(tracer, fn):
    @functools.wraps(fn)
    def inner(self, other):
        outer_start = perf_counter()
        try:
            _count_inner(tracer, self, other)
            frame = tracer.enter("operators.inner." + self.family)
            try:
                return fn(self, other)
            finally:
                tracer.exit(frame)
        finally:
            tracer.cover(outer_start)

    return inner


class Instrumentation:
    """Installs and removes the wrappers; reads the lru_cache counters."""

    def __init__(self):
        self.package = importlib.import_module("angulab")
        self.modules = {name: importlib.import_module(f"angulab.{name}") for name in LAYERS}
        self.absent = [name for name, mod, attr in FUNCTIONS if not hasattr(self.modules[mod], attr)]
        self.ket_classes = [
            obj
            for obj in vars(self.modules["operators"]).values()
            if isinstance(obj, type) and "inner" in vars(obj) and hasattr(obj, "family")
        ]
        if not self.ket_classes:
            self.absent += [f"operators.inner.{fam}" for fam in INNER_FAMILIES]
        self.absent += [
            prefix
            for prefix, mod, attr in CACHES
            if not hasattr(getattr(self.modules[mod], attr, None), "cache_info")
        ]

    @contextlib.contextmanager
    def installed(self, tracer):
        namespaces = [self.package, *self.modules.values()]
        patches = []
        try:
            for name, mod, attr in FUNCTIONS:
                fn = getattr(self.modules[mod], attr, None)
                if fn is None:
                    continue
                traced = _wrap(tracer, name, fn, AFTER.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            patches.append((ns, key, value))
                            setattr(ns, key, traced)
            for cls in self.ket_classes:
                fn = vars(cls)["inner"]
                patches.append((cls, "inner", fn))
                setattr(cls, "inner", _wrap_inner(tracer, fn))
            yield tracer
        finally:
            for ns, key, value in reversed(patches):
                setattr(ns, key, value)

    def cache_counters(self):
        """prefix -> (hits, misses) for every cache the program still has."""
        out = {}
        for prefix, mod, attr in CACHES:
            info = getattr(getattr(self.modules[mod], attr, None), "cache_info", None)
            if info is not None:
                stats = info()
                out[prefix] = (stats.hits, stats.misses)
        return out


def cache_metrics(before, after):
    """hit_ratio and misses of each cache between two ``cache_counters`` reads."""
    out = {}
    for prefix, _, _ in CACHES:
        hits0, misses0 = before.get(prefix, (0, 0))
        hits1, misses1 = after.get(prefix, (0, 0))
        hits, misses = hits1 - hits0, misses1 - misses0
        out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{prefix}.misses"] = misses
    return out


def pass_metrics(tracer, ops, seconds):
    """Per-layer metrics of one traced pass of ``ops`` ops taking ``seconds``."""
    out = {}
    for name, _ in METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            calls, self_s = tracer.stats.get(span, (0, 0.0))
            out[name] = calls if field == "calls" else self_s
    counts = tracer.counts
    out["states.evaluate.points"] = counts["states.evaluate.points"]
    out["operators.inner.blocks"] = counts["operators.inner.blocks"]
    width_n = counts["inner.width_n"]
    out["operators.inner.width_mean"] = counts["inner.width_sum"] / width_n if width_n else 0.0
    out["relations.inner_per_op"] = counts["relations.inner"] / ops
    relation_calls = out["oracle.relation_values.calls"]
    out["oracle.sample.per_relation"] = (
        out["oracle.sample.calls"] / relation_calls if relation_calls else 0.0
    )
    out["oracle.bytes_sampled"] = counts["oracle.bytes_sampled"]
    out["cli.report_bytes"] = counts["cli.report_bytes"]
    for layer in LAYERS:
        busy = sum(val[1] for key, val in tracer.stats.items() if key.startswith(layer + "."))
        out[f"layer.{layer}.self_frac"] = busy / seconds
    return out
