"""Spans around the public functions of each relu_prism layer, from outside.

`Tracer.install` replaces every module binding of a listed function with a
wrapper that records a span (name, start, end, parent). The package imports
with `from .x import f`, so one function can be bound in several modules
(`effective_affine` lives in affine, partition and cli); every binding that
is the original object is replaced. Spans stay in memory until the op ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

# Layer -> public functions whose spans make up that layer.
LAYERS = {
    "data": ("gen_boolean", "dataset_to_csv", "read_dataset_csv"),
    "network": ("forward_batch", "forward_trace", "save_network", "load_network"),
    "train": ("train", "accuracy"),
    "partition": ("partition", "clusters_to_json"),
    "affine": ("effective_affine", "verify_affine", "jacobian_check"),
    "explain": ("feature_importance", "render_report"),
    "cli": ("main", "run_simulate", "run_verify"),
}

ROOT = "op"


def metric_stem(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('run_')}"


# Counters take the call's arguments by parameter name and its result.
def _count_csv_written(counts, args, result):
    counts["csv_bytes"] += len(result)


def _count_csv_read(counts, args, result):
    counts["csv_bytes"] += os.path.getsize(args["path"])


def _count_train(counts, args, result):
    config = args["config"]
    counts["train_steps"] += config.epochs * math.ceil(args["dataset"].n_rows / config.batch_size)


def _count_partition(counts, args, result):
    counts["partition_rows"] += args["dataset"].n_rows
    counts["partition_clusters"] += len(result)


def _count_verify(counts, args, result):
    counts["patterns"] += result.n_patterns


def _count_jacobian(counts, args, result):
    counts["jacobian_checked"] += not result.skipped


COUNTERS = {
    "dataset_to_csv": _count_csv_written,
    "read_dataset_csv": _count_csv_read,
    "train": _count_train,
    "partition": _count_partition,
    "verify_affine": _count_verify,
    "jacobian_check": _count_jacobian,
}


class Tracer:
    """Spans and counts of one op, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every relu_prism module binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "relu_prism" or name.startswith("relu_prism.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"relu_prism.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(metric_stem(layer, func), original, COUNTERS.get(func))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def run(self, op):
        """Call `op()` inside the root span; layer spans below it are attributed."""
        return self._wrap(ROOT, op, None)()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced op: self times, calls and counts."""
        own = self.self_times()
        by_name: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        wall = 0.0
        for (name, start, end, _), t in zip(self.spans, own):
            if name == ROOT:
                wall += end - start
                continue
            by_name[name] += t
            calls[name] += 1
        out: dict[str, tuple[float, str]] = {}
        accounted = 0.0
        for layer, funcs in LAYERS.items():
            layer_self = 0.0
            for func in funcs:
                stem = metric_stem(layer, func)
                out[f"{stem}_s"] = (by_name[stem], "s")
                out[f"{stem}.calls"] = (calls[stem], "count")
                layer_self += by_name[stem]
            out[f"{layer}.self_s"] = (layer_self, "s")
            accounted += layer_self
        c = self.counts
        steps = c["train_steps"]
        out["data.csv_bytes"] = (c["csv_bytes"], "bytes")
        out["train.steps"] = (steps, "count")
        out["train.step_us"] = (1e6 * by_name["train.train"] / steps if steps else 0.0, "us")
        out["partition.clusters"] = (c["partition_clusters"], "count")
        out["partition.rows_per_cluster"] = (
            c["partition_rows"] / c["partition_clusters"] if c["partition_clusters"] else 0.0, "rows")
        out["affine.patterns"] = (c["patterns"], "count")
        jac_calls = calls["affine.jacobian_check"]
        out["affine.jacobian.checked_frac"] = (
            c["jacobian_checked"] / jac_calls if jac_calls else 0.0, "fraction")
        out["trace.op_s"] = (wall, "s")
        out["trace.accounted_frac"] = (accounted / wall if wall else 0.0, "fraction")
        return out
