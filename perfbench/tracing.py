"""Per-layer spans recorded from outside rangelab.

`Tracer.install()` replaces each traced public function with a wrapper in
every loaded `rangelab` module that binds it (modules that did
`from ._fastpath import batch_range_counts` hold their own reference, so
wrapping the defining module alone would miss their calls).  Spans stay
in memory as (name, start, end, parent) and are summed at the end; a
span's self time is its length minus that of its direct children, which
cannot overlap in a single-threaded run.  A target whose module or name
no longer exists is reported in `missing` and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _no_counts(args, kwargs) -> dict:
    return {}


def _steps_sampled(args, kwargs) -> dict:
    n = kwargs.get("n", args[1] if len(args) > 1 else 0)
    return {"walks.steps_sampled": int(n)}


def _batch_steps(args, kwargs) -> dict:
    return {"fastpath.batch_steps": int(np.asarray(args[0]).size)}


def _prefix_steps(args, kwargs) -> dict:
    return {"fastpath.prefix_steps": int(np.asarray(args[0]).size)}


def _power_sum_work(args, kwargs) -> dict:
    """Points harvested, and exponentials the per-k loop evaluates: for
    each k it keeps the points with log|phi| >= -tcut / k."""
    la_pos, la_neg, k_lo, k_hi = (np.asarray(args[0]), np.asarray(args[1]),
                                  int(args[2]), int(args[3]))
    tcut = float(kwargs.get("tcut", args[4] if len(args) > 4 else 60.0))
    bound = -tcut / np.arange(k_lo, k_hi + 1, dtype=np.float64)
    terms = 0
    for la in (la_pos, la_neg):
        ascending = np.sort(la)
        terms += int(la.size * bound.size
                     - np.searchsorted(ascending, bound, side="left").sum())
    return {"fastpath.harvested_points": int(la_pos.size + la_neg.size),
            "fastpath.power_sum_terms": terms}


def _decomposition_span(args, kwargs) -> str:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "dyadic")
    return f"rangestats.{kind}"


@dataclass(frozen=True)
class Target:
    span: str               # span name (or a function of the call's arguments)
    module: str
    attr: str               # "name" or "Class.method"
    counts: object = _no_counts  # (args, kwargs) -> {counter: increment}


TARGETS = (
    Target("walks.stream", "rangelab.walks", "stream"),
    Target("walks.sample_step_indices", "rangelab.walks",
           "StepDistribution.sample_step_indices", _steps_sampled),
    Target("walks.sample_path", "rangelab.walks", "sample_path"),
    Target("fastpath.batch_range_counts", "rangelab._fastpath",
           "batch_range_counts", _batch_steps),
    Target("fastpath.prefix_range_counts", "rangelab._fastpath",
           "prefix_range_counts", _prefix_steps),
    Target("fastpath.log_power_sums", "rangelab._fastpath", "log_power_sums",
           _power_sum_work),
    Target("fastpath.enum_walk_moments", "rangelab._fastpath", "enum_walk_moments"),
    Target("exact.build_return_table", "rangelab.exact", "build_return_table"),
    Target("exact.toeplitz", "rangelab.exact", "solve_unit_triangular_toeplitz"),
    Target("exact.enumeration_oracle", "rangelab.exact", "enumeration_oracle"),
    Target(_decomposition_span, "rangelab.rangestats", "decomposition_check"),
    Target("smoothing.q_identity_check", "rangelab.smoothing", "q_identity_check"),
    Target("smoothing.b_functional", "rangelab.smoothing", "b_functional"),
    Target("smoothing.q_kernel", "rangelab.smoothing", "q_kernel"),
    Target("deviations.tail_rows", "rangelab.deviations", "tail_rows_from_values"),
    Target("variational.kappa22_solve", "rangelab.variational", "kappa22_solve"),
    Target("experiments.run_experiment", "rangelab.experiments", "run_experiment"),
    Target("experiments.run_report", "rangelab.experiments", "run_report"),
)

# Per-layer metric -> (aggregate, spans).  "total" sums span lengths,
# "self" sums lengths minus direct children, "calls" counts spans and
# "count" reads the counter of that name, which the spans' wrapper keeps.
LAYER_METRICS = {
    "walks.stream_s": ("total", "walks.stream"),
    "walks.stream_calls": ("calls", "walks.stream"),
    "walks.sample_step_indices_s": ("total", "walks.sample_step_indices"),
    "walks.steps_sampled": ("count", "walks.sample_step_indices"),
    "walks.sample_path_s": ("total", "walks.sample_path"),
    "walks.sample_path_calls": ("calls", "walks.sample_path"),
    "fastpath.batch_range_counts_s": ("total", "fastpath.batch_range_counts"),
    "fastpath.batch_steps": ("count", "fastpath.batch_range_counts"),
    "fastpath.prefix_range_counts_s": ("total", "fastpath.prefix_range_counts"),
    "fastpath.prefix_steps": ("count", "fastpath.prefix_range_counts"),
    "fastpath.log_power_sums_s": ("total", "fastpath.log_power_sums"),
    "fastpath.harvested_points": ("count", "fastpath.log_power_sums"),
    "fastpath.power_sum_terms": ("count", "fastpath.log_power_sums"),
    "fastpath.enum_walk_moments_s": ("total", "fastpath.enum_walk_moments"),
    "exact.build_return_table_s": ("total", "exact.build_return_table"),
    "exact.build_self_s": ("self", "exact.build_return_table"),
    "exact.toeplitz_s": ("total", "exact.toeplitz"),
    "exact.toeplitz_calls": ("calls", "exact.toeplitz"),
    "exact.enumeration_oracle_s": ("total", "exact.enumeration_oracle"),
    "rangestats.dyadic_s": ("total", "rangestats.dyadic"),
    "rangestats.binary_s": ("total", "rangestats.binary"),
    "rangestats.decompositions": ("calls", "rangestats.dyadic", "rangestats.binary"),
    "smoothing.q_identity_check_s": ("total", "smoothing.q_identity_check"),
    "smoothing.b_functional_s": ("total", "smoothing.b_functional"),
    "smoothing.q_kernel_s": ("total", "smoothing.q_kernel"),
    "smoothing.q_identity_self_s": ("self", "smoothing.q_identity_check"),
    "deviations.tail_rows_s": ("total", "deviations.tail_rows"),
    "variational.kappa22_solve_s": ("total", "variational.kappa22_solve"),
    "experiments.run_experiment_s": ("total", "experiments.run_experiment"),
    "experiments.run_self_s": ("self", "experiments.run_experiment"),
    "experiments.run_report_s": ("total", "experiments.run_report"),
    "experiments.report_self_s": ("self", "experiments.run_report"),
}


def _target_spans(target: Target) -> list:
    """Span names a target can emit (decomposition_check emits one per kind)."""
    if callable(target.span):
        return ["rangestats.dyadic", "rangestats.binary"]
    return [target.span]


@dataclass
class Tracer:
    spans: list = field(default_factory=list)      # [name, start_ns, end_ns, parent]
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)    # Targets not found
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)      # (owner, attr, original)

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, inc in target.counts(args, kwargs).items():
                tracer.counters[key] = tracer.counters.get(key, 0) + inc
            name = target.span(args, kwargs) if callable(target.span) else target.span
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        for target in TARGETS:
            owner_name, _, method = target.attr.rpartition(".")
            try:
                mod = importlib.import_module(target.module)
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, method)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapped = self._wrap(original, target)
            if owner_name:  # a method: patch the class once
                self._patch(owner, method, original, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if (name == "rangelab" or name.startswith("rangelab.")) and \
                        getattr(loaded, method, None) is original:
                    self._patch(loaded, method, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """Every per-layer metric whose spans could be wrapped; a layer that
        did not run on this workload reads 0."""
        total, self_ns, calls = {}, {}, {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), kids in zip(self.spans, child_ns):
            total[name] = total.get(name, 0) + (end - start)
            self_ns[name] = self_ns.get(name, 0) + (end - start - kids)
            calls[name] = calls.get(name, 0) + 1

        gone = {name for target in self.missing for name in _target_spans(target)}
        out = {}
        for metric, (agg, *names) in LAYER_METRICS.items():
            if gone.intersection(names):
                continue
            if agg == "total":
                out[metric] = sum(total.get(n, 0) for n in names) / 1e9
            elif agg == "self":
                out[metric] = sum(self_ns.get(n, 0) for n in names) / 1e9
            elif agg == "calls":
                out[metric] = sum(calls.get(n, 0) for n in names)
            else:
                out[metric] = self.counters.get(metric, 0)
        return out
