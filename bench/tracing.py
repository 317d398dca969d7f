"""In-memory spans around calls into uwjam's modules, reduced to
per-layer metrics.

A span is [name, start, end, parent]; spans are appended when they open,
so a parent always precedes its children. Spans stay in memory while the
workload runs and are written out only when it ends. Counting work that
the tracer itself does (hashing LP matrices, reading page-fault
counters) runs inside a child span named "trace", and is taken out of
every enclosing span's time, so per-layer times measure the program.
The tracing overhead reported is that counting time plus the span
count times the cost of one wrapper, timed on a no-op.
"""

import functools
import hashlib
import importlib
import os
import resource
import time
import types
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module attribute, layer): every function the benchmark times. Only
# solver._minimax_batch is private; it is the LP kernel under every solve.
WRAPPED = (
    ("cli", "resolve_error_model", "channel"),
    ("cli", "game_config_for", "channel"),
    ("solver", "payoff_matrix", "subgame"),
    ("analysis", "success_matrix", "subgame"),
    ("solver", "_minimax_batch", "lp"),
    ("solver", "solve_full_game", "solve"),
    ("solver", "solve_vs_fixed_jammer", "baseline"),
    ("solver", "export_table", "export"),
    ("solver", "load_table", "load"),
    ("analysis", "analyze", "analyze"),
    ("analysis", "mismatch_evaluation", "analyze"),
    ("analysis", "simulate", "simulate"),
    ("analysis", "sensitivity_sweep", "sensitivity"),
    ("cli", "main", "cli"),
)

DISTANCE_SPANS = ("solve.d20m", "solve.d60m", "solve.d150m")


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []
        self._distinct = set()

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every function in WRAPPED, in its uwjam module."""
        hooks = {
            "lp": (None, self._count_lp),
            "solve": (_minflt, self._count_solve),
            "export": (None, self._count_export),
            "simulate": (None, self._count_simulate),
        }
        for mod_name, attr, layer in WRAPPED:
            before, after = hooks.get(layer, (None, None))
            self._wrap(importlib.import_module("uwjam." + mod_name), attr, layer,
                       before, after)

    def uninstall(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrap(self, module, attr, layer, before, after):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                state = before() if before else None
                out = fn(*args, **kwargs)
                if after:
                    with self.span("trace"):
                        after(args, kwargs, out, state)
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def _count_lp(self, args, kwargs, out, state):
        mats = np.ascontiguousarray(args[0], dtype=float)
        self.counts["lp.instances"] += mats.shape[0]
        shape = repr(mats.shape[1:]).encode()
        for row in mats.reshape(mats.shape[0], -1):
            self._distinct.add(hashlib.blake2b(shape + row.tobytes(), digest_size=16).digest())

    def _count_solve(self, args, kwargs, out, state):
        self.counts["solve.minflt"] += _minflt() - state

    def _count_export(self, args, kwargs, out, state):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["export.bytes"] += os.path.getsize(path)

    def _count_simulate(self, args, kwargs, out, state):
        self.counts["simulate.runs"] += out.runs
        # mean_lifetime is the mean of whole frame counts, so this is exact
        self.counts["simulate.frames"] += round(out.mean_lifetime * out.runs)

    def layer_metrics(self):
        """Per-layer calls, times and counts over every span recorded.

        A layer's calls and time count only its outermost spans (a layer
        entered from inside itself, like analyze from
        mismatch_evaluation, is one call). Self time is a span's time
        minus its direct children's.
        """
        n = len(self.spans)
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * n
        tracer_time = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, _, _, parent = self.spans[i]
            if name == "trace":
                tracer_time[i] = dur[i]
            if parent >= 0:
                child[parent] += dur[i]
                tracer_time[parent] += tracer_time[i]
        calls, busy, self_s = Counter(), Counter(), Counter()
        for i, (name, _, _, parent) in enumerate(self.spans):
            self_s[name] += dur[i] - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                calls[name] += 1
                busy[name] += dur[i] - tracer_time[i]
        c = self.counts
        out = {}
        for layer in ("channel", "subgame", "lp"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = busy[layer]
        out["lp.instances"] = c["lp.instances"]
        out["lp.distinct"] = len(self._distinct)
        out["lp.instances_per_s"] = _rate(c["lp.instances"], busy["lp"])
        out["solve.calls"] = calls["solve"]
        out["solve.s"] = busy["solve"]
        out["solve.self_s"] = self_s["solve"]
        out["solve.minflt"] = c["solve.minflt"]
        for name in DISTANCE_SPANS:
            out[name + "_s"] = busy[name]
        out["baseline.s"] = busy["baseline"]
        out["export.s"] = busy["export"]
        out["export.bytes"] = c["export.bytes"]
        out["load.calls"] = calls["load"]
        out["load.s"] = busy["load"]
        out["analyze.calls"] = calls["analyze"]
        out["analyze.s"] = busy["analyze"]
        out["simulate.runs"] = c["simulate.runs"]
        out["simulate.frames"] = c["simulate.frames"]
        out["simulate.s"] = busy["simulate"]
        out["simulate.frames_per_s"] = _rate(c["simulate.frames"], busy["simulate"])
        out["sensitivity.s"] = busy["sensitivity"]
        out["cli.calls"] = calls["cli"]
        out["cli.self_s"] = self_s["cli"]
        out["trace.spans"] = n
        out["trace.count_s"] = sum(d for (name, *_), d in zip(self.spans, dur)
                                   if name == "trace")
        out["trace.overhead_s"] = out["trace.count_s"] + n * wrapper_cost()
        return out


def wrapper_cost(calls=20_000):
    """Seconds a traced wrapper adds to one call, timed on a no-op."""
    probe = types.SimpleNamespace(noop=lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    bare = time.perf_counter() - start
    Tracer()._wrap(probe, "noop", "probe", None, None)
    start = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wrapped = time.perf_counter() - start
    return max(0.0, wrapped - bare) / calls


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
