"""Per-layer timing of localpools, by wrapping its public callables from outside.

Every wrapped callable counts its calls and its self time: the span's
duration minus the time spent in wrapped callables it called.  A child's
whole span, wrapper bookkeeping included, is charged to the child, so the
tracer's own cost never lands in a parent's self time.

Callers import names into their own namespaces (``from .pools import
optimize_pool_weights`` in ``evaluation``, ``simulation`` and ``cli``), so a
module-level function is replaced in every ``localpools`` module that holds
it.  Classes are left in place, so ``isinstance`` still works: their
constructor, method or property getter is replaced on the class itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from checks import duality_gap

# module -> wrapped names: "f" a module-level function, "C" a class whose
# constructor is timed, "C.m" a method or property of class C.
LAYERS = {
    "experts": ("design_vector", "design_matrix", "nig_update", "nig_predictive", "nig_log_scores"),
    "history": (
        "PredictionRecord",
        "History.append",
        "History.score_matrix",
        "History.distances",
        "History.caliper_neighbors",
    ),
    "local_elpd": ("caliper_elpd", "true_local_elpd"),
    "pools": (
        "optimize_pool_weights",
        "local_opt_weights",
        "softmax_weights",
        "pooled_log_scores",
        "equal_weights",
    ),
    "densities": ("PoolWeights", "Mixture.log_density"),
    "evaluation": ("rolling_evaluate", "EvaluationStream", "select_hyperparameters"),
    "simulation": (
        "generate_dgp",
        "nig_evaluation_stream",
        "estimator_error_study",
        "pool_comparison_study",
    ),
    "io": (
        "load_score_csv",
        "emit_results",
        "write_score_csv",
        "write_error_study_csv",
        "write_pool_study_csv",
        "write_polarization_csv",
    ),
    "cli": ("main",),
}

# Counters beyond calls and self time.  All are sums over calls except the
# duality gap, which keeps the largest value seen.
GAP_MAX = "pools.optimize_pool_weights.gap_max"
EXTRA_COUNTERS = (
    "local_elpd.caliper_elpd.neighbors",
    "pools.optimize_pool_weights.sweeps",
    "pools.optimize_pool_weights.rows",
    GAP_MAX,
    "io.bytes_read",
    "io.bytes_written",
)


def metric_names() -> list[str]:
    """Every name ``Tracer.metrics`` reports, in a fixed order."""
    names = []
    for module, entries in LAYERS.items():
        for entry in entries:
            names += [f"{module}.{entry}.calls", f"{module}.{entry}.self_s"]
        names.append(f"{module}.self_s")
    names += EXTRA_COUNTERS
    return names


class Tracer:
    """Installs timing wrappers into the imported ``localpools`` modules."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Zero every count in place; the installed wrappers keep their references."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0]
        self.counters.clear()
        self.counters.update({key: 0 for key in EXTRA_COUNTERS})
        self.counters[GAP_MAX] = 0.0

    # -- wrapping ------------------------------------------------------

    def _wrap(self, key: str, fn, *, call=None, after=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            stack.append(0.0)
            try:
                try:
                    raw = call(fn, args, kwargs) if call else fn(*args, **kwargs)
                finally:
                    stat[1] += clock() - entered - stack.pop()
                    stat[0] += 1
                return after(args, kwargs, raw) if after else raw
            finally:
                if stack:
                    stack[-1] += clock() - entered

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every entry of ``LAYERS`` in every namespace that holds it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "localpools" or name.startswith("localpools."))
        ]
        hooks = self._hooks()
        for module_name, entries in LAYERS.items():
            module = sys.modules[f"localpools.{module_name}"]
            for entry in entries:
                key = f"{module_name}.{entry}"
                call, after = hooks.get(key, (None, None))
                owner_name, _, member = entry.partition(".")
                target = getattr(module, owner_name)
                if member:
                    raw = target.__dict__[member]
                    if isinstance(raw, property):
                        wrapped = property(self._wrap(key, raw.fget, call=call, after=after))
                    else:
                        wrapped = self._wrap(key, raw, call=call, after=after)
                    setattr(target, member, wrapped)
                elif isinstance(target, type):
                    init = target.__dict__["__init__"]
                    setattr(target, "__init__", self._wrap(key, init, call=call, after=after))
                else:
                    wrapped = self._wrap(key, target, call=call, after=after)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is target:
                                setattr(holder, attr, wrapped)

    # -- counters --------------------------------------------------------

    def _hooks(self) -> dict:
        counters = self.counters

        def neighbors(args, kwargs, estimate):
            counters["local_elpd.caliper_elpd.neighbors"] += estimate.neighbor_count
            return estimate

        def optimize_call(fn, args, kwargs):
            return fn(*args, **{**kwargs, "return_history": True})

        def optimize_after(args, kwargs, raw):
            weights, trace = raw
            scores = args[0] if args else kwargs["log_scores"]
            counters["pools.optimize_pool_weights.sweeps"] += len(trace) - 1
            counters["pools.optimize_pool_weights.rows"] += len(scores)
            counters[GAP_MAX] = max(counters[GAP_MAX], duality_gap(scores, weights.values))
            return raw if kwargs.get("return_history") else weights

        def read_bytes(args, kwargs, stream):
            path = args[0] if args else kwargs["path"]
            counters["io.bytes_read"] += os.path.getsize(path)
            return stream

        def written_file(args, kwargs, path):
            counters["io.bytes_written"] += os.path.getsize(path)
            return path

        def written_files(args, kwargs, paths):
            counters["io.bytes_written"] += sum(os.path.getsize(p) for p in paths.values())
            return paths

        hooks = {
            "local_elpd.caliper_elpd": (None, neighbors),
            "pools.optimize_pool_weights": (optimize_call, optimize_after),
            "io.load_score_csv": (None, read_bytes),
            "io.emit_results": (None, written_files),
        }
        for name in LAYERS["io"]:
            if name.startswith("write_"):
                hooks[f"io.{name}"] = (None, written_file)
        return hooks

    def metrics(self) -> dict[str, float]:
        """Calls, self time and extra counters since the last ``reset``."""
        out: dict[str, float] = {}
        for module, entries in LAYERS.items():
            total = 0.0
            for entry in entries:
                calls, self_s = self.stats[f"{module}.{entry}"]
                out[f"{module}.{entry}.calls"] = calls
                out[f"{module}.{entry}.self_s"] = self_s
                total += self_s
            out[f"{module}.self_s"] = total
        out.update(self.counters)
        return out
