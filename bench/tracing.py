"""In-memory span tracer that wraps advweave's public functions from outside.

A wrapped function is replaced at every module attribute that holds it: the
defining module, the package namespace, and every module that bound it with
``from .x import f`` (``weave.conv2d``, ``adversary.conv2d``, the names
``cli`` imported, ...). Nested calls such as ``attacked_conv -> conv2d``
therefore become child spans. Private helpers (``_windows``, ``_padded``,
``_pool_forward``, ``_pool_backward``, ``_emit``, ...) and functions not
listed in ``LAYERS`` are not wrapped: their time counts in the calling
function's self time. A listed function the package no longer defines is
reported with zero calls.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, indexed by
position, and written out once at the end of a run.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "tensor": ("read_t3b", "write_t3b", "quantize", "bit_stats"),
    "conv": ("conv2d", "dense"),
    "weave": ("interleave_rows", "duplicate_filter_rows", "attacked_conv",
              "equivalence_report"),
    "accel": ("count_macs", "compare_attack_footprint"),
    "adversary": ("forward", "backward", "forward_attacked", "fgsm", "train",
                  "craft_uap", "fooling_report", "make_corpus", "save_model",
                  "load_model"),
    "cli": ("main", "cmd_verify_equivalence", "cmd_train", "cmd_craft",
            "cmd_eval"),
}

# name -> (unit, better); per traced pass unless noted in the README
COUNTERS = {
    "conv.conv2d.macs": ("count", "lower"),
    "weave.woven_bytes": ("bytes", "lower"),
    "tensor.t3b_bytes_read": ("bytes", "lower"),
    "tensor.t3b_bytes_written": ("bytes", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "accel.mac_issued": ("count", "lower"),
    "accel.mac_executed": ("count", "lower"),
    "accel.cycles": ("count", "lower"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _conv2d_macs(args, kwargs, result):
    weights = getattr(_arg(args, kwargs, 1, "filters"), "weights", None)
    out = getattr(result, "data", result)
    return {"conv.conv2d.macs": out.size * math.prod(weights.shape[1:])}


def _woven_bytes(args, kwargs, result):
    woven = getattr(result, "woven", result)
    return {"weave.woven_bytes": getattr(woven, "data", woven).nbytes}


def _bytes_read(args, kwargs, result):
    return {"tensor.t3b_bytes_read":
            os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _bytes_written(args, kwargs, result):
    return {"tensor.t3b_bytes_written":
            os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _macs(args, kwargs, result):
    return {"accel.mac_issued": result.mac_issued,
            "accel.mac_executed": result.mac_executed,
            "accel.cycles": result.cycles}


HOOKS = {
    "conv.conv2d": _conv2d_macs,
    "weave.interleave_rows": _woven_bytes,
    "tensor.read_t3b": _bytes_read,
    "tensor.write_t3b": _bytes_written,
    "accel.count_macs": _macs,
}

STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"),
         ("p99_us", "us"))


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    names = [(f"{layer}.{fn}.{stat}", unit, "lower")
             for layer, fns in LAYERS.items() for fn in fns
             for stat, unit in STATS]
    names += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    names.append(("accel.mac_executed_ratio", "ratio", "lower"))
    names += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    names += [("trace.overhead_s", "s", "lower"),
              ("trace.overhead_ratio", "ratio", "lower")]
    return names


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self._patches: list = []
        self._wrappers: dict = {}

    # -- recording -----------------------------------------------------
    def _wrap(self, name, layer, fn, hook):
        spans, stack = self.spans, self.stack
        counts, errors, clock = self.counts, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    for key, value in hook(args, kwargs, result).items():
                        counts[key] += value
                return result
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one operation of a workload."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self.stack.pop()

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        """Replace every listed function at every advweave attribute bound to it."""
        if self._patches:
            return
        for layer in LAYERS:
            importlib.import_module(f"advweave.{layer}")
        modules = [m for n, m in sys.modules.items()
                   if n == "advweave" or n.startswith("advweave.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"advweave.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue
                name = f"{layer}.{fn_name}"
                if name not in self._wrappers:
                    self._wrappers[name] = self._wrap(name, layer, orig,
                                                      HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, self._wrappers[name])
                            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- reporting -----------------------------------------------------
    def metrics(self, passes: int, overhead_s: float,
                overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, normalised per traced pass.

        Self time is a span's duration minus the durations of its children;
        spans nest strictly in this single-threaded program, so the children
        never overlap and their durations are the time they cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        self_time = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            durations[name].append(end - start)
            self_time[name] += end - start - covered
        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                d = sorted(durations[key])
                out[f"{key}.calls"] = len(d) / passes
                out[f"{key}.self_s"] = self_time[key] / passes
                out[f"{key}.p50_us"] = _percentile(d, 50) * 1e6
                out[f"{key}.p99_us"] = _percentile(d, 99) * 1e6
        for name in COUNTERS:
            out[name] = self.counts[name] / passes
        issued = self.counts["accel.mac_issued"]
        out["accel.mac_executed_ratio"] = (
            self.counts["accel.mac_executed"] / issued if issued else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: [index, name, start_s, end_s, parent]."""
        with open(path, "w") as f:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([idx, name, start, end, parent]) + "\n")
