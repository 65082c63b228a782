"""Span tracing around the calls into rispilot's layers, installed from outside.

The modules import names with `from .x import y`, so a wrapper has to
replace the name where it is looked up: `rispilot.montecarlo.sample_channels`,
not `rispilot.channel.sample_channels`. Each wrapper records a span
(id, parent, name, start, end, info) in memory. Spans are written out
when the traced run ends; a forked pool worker writes its own spans when
it exits. Nothing under src/ is changed.
"""
from __future__ import annotations

import functools
import glob
import inspect
import multiprocessing.util
import os
import pickle
import resource
import time

import numpy as np

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, so comparable across processes

# Namespaces whose imported layer functions are wrapped, and the module's own
# functions that get a span of their own. `_gain_range` is the per-worker trial
# loop; its self time is the Monte Carlo loop overhead.
HOOKED_MODULES = ("rispilot.cli", "rispilot.montecarlo")
OWN_FUNCTIONS = {
    "rispilot.cli": ("main", "load_config"),
    "rispilot.montecarlo": ("sweep_user", "simulate_metrics", "trial_gains", "_gain_range"),
}
# Layers the trial loop calls once per Monte Carlo trial.
TRIAL_LAYERS = (
    "channel.sample_channels",
    "estimation.ls_estimate",
    "reflection.configure_phases",
    "reflection.composite_channel",
    "reflection.random_phases",
)
CHUNK = "montecarlo._gain_range"
# Array sizes are read from one trial-layer call in this many, to keep the
# cost of walking return values out of the timed loop.
BYTES_SAMPLE = 16


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _num_ris(args) -> int | None:
    """Surface count K of a layer call, from its Scenario or LargeScale argument."""
    for a in args:
        k = getattr(a, "num_ris", None)
        if isinstance(k, (int, np.integer)):
            return int(k)
    return None


def _nbytes(value, depth: int = 0) -> int:
    """Bytes held in numpy arrays of a layer's return value (computed, not measured)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if depth > 2:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v, depth + 1) for v in value)
    fields = getattr(value, "__dict__", None)
    if fields:
        return sum(_nbytes(v, depth + 1) for v in fields.values())
    return 0


class Tracer:
    """Installs span-recording wrappers and collects spans across processes."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.spans = []
        self.stack = []
        self.count = 0
        self.patches = []
        self.missing = []
        self.unflushed_worker = False
        self._set_pid()
        os.register_at_fork(after_in_child=self._forked)

    def _set_pid(self):
        self.pid = os.getpid()
        self.base = self.pid << 32  # span ids stay unique across processes

    # ------------------------------------------------------------ recording

    def _forked(self):
        # A pool worker forked mid-span: keep the open stack as parents and
        # drop the parent's finished spans.
        self._set_pid()
        self.spans = []
        self.unflushed_worker = True

    def _flush_at_exit(self):
        # Registered at the worker's first span: multiprocessing clears the
        # finalizers a child inherits or registers before its bootstrap.
        self.unflushed_worker = False
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def wrap(self, fn, name: str):
        if name in TRIAL_LAYERS:
            return self._wrap_trial_layer(fn, name)
        tracer = self
        by_allocator = name == "allocation.run_allocator"
        is_pool_entry = name == "montecarlo.trial_gains"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.unflushed_worker:
                tracer._flush_at_exit()
            tracer.count += 1
            sid = tracer.base + tracer.count
            stack = tracer.stack
            parent = stack[-1] if stack else None
            info = {}
            k = _num_ris(args)
            if k is not None:
                info["k"] = k
            if is_pool_entry:
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                info["trials"] = int(getattr(cfg, "trials", 0))
                info["workers"] = int(kwargs.get("workers", 1))
                cpu0 = _children_cpu()
            stack.append(sid)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                info["failed"] = 1
                raise
            finally:
                t1 = _clock()
                stack.pop()
                if is_pool_entry:
                    info["children_cpu_s"] = _children_cpu() - cpu0
                span_name = f"allocation.{args[0]}" if by_allocator else name
                tracer.spans.append((sid, parent, span_name, t0, t1, info))

        return wrapper

    def _wrap_trial_layer(self, fn, name: str):
        # Called once per trial per layer: keep the wrapper's own cost small.
        tracer = self
        calls = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal calls
            if tracer.unflushed_worker:
                tracer._flush_at_exit()
            tracer.count += 1
            calls += 1
            sid = tracer.base + tracer.count
            stack = tracer.stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
            info = {"bytes": _nbytes(result)} if calls % BYTES_SAMPLE == 1 else None
            tracer.spans.append((sid, parent, name, t0, t1, info))
            return result

        return wrapper

    def install(self):
        import importlib

        self.missing = []
        for modname in HOOKED_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(modname)
                continue
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                src = getattr(obj, "__module__", "") or ""
                if src.startswith("rispilot.") and src != modname:
                    self._patch(mod, attr, obj, f"{_short(src)}.{attr}")
            for attr in OWN_FUNCTIONS[modname]:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    self._patch(mod, attr, obj, f"{_short(modname)}.{attr}")
                else:
                    self.missing.append(f"{modname}.{attr}")

    def _patch(self, mod, attr, obj, name):
        self.patches.append((mod, attr, obj))
        setattr(mod, attr, self.wrap(obj, name))

    def uninstall(self):
        for mod, attr, obj in reversed(self.patches):
            setattr(mod, attr, obj)
        self.patches = []

    def flush(self):
        if not self.spans:
            return
        os.makedirs(self.span_dir, exist_ok=True)
        with open(os.path.join(self.span_dir, f"spans-{self.pid}.pickle"), "ab") as f:
            pickle.dump(self.spans, f, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


# ---------------------------------------------------------------- analysis


def load_spans(span_dir: str) -> list[dict]:
    """Every span the load process and its workers wrote (files this tracer made)."""
    spans = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.pickle"))):
        pid = int(os.path.basename(path)[len("spans-"):-len(".pickle")])
        with open(path, "rb") as f:
            while True:
                try:
                    batch = pickle.load(f)
                except EOFError:
                    break
                for sid, parent, name, t0, t1, info in batch:
                    spans.append({"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1,
                                  "info": info or {}, "pid": pid})
    return spans


def add_self_times(spans: list[dict]):
    """Self time: duration minus the part of it that child spans cover.

    Children in other processes (pool workers) may overlap each other,
    so the covered part is the length of the union of their intervals.
    "remote" is the part covered by children in other processes.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    for s in spans:
        kids = children.get(s["id"], ())
        s["self"] = (s["t1"] - s["t0"]) - _covered(s, kids)
        s["remote"] = _covered(s, [c for c in kids if c["pid"] != s["pid"]])


def _covered(span: dict, kids) -> float:
    covered, end = 0.0, span["t0"]
    for a, b in sorted((c["t0"], c["t1"]) for c in kids):
        a, b = max(a, end), min(b, span["t1"])
        if b > a:
            covered += b - a
            end = b
    return covered


def per_layer(spans: list[dict], load_pid: int, commands: int, wall_s: float) -> dict:
    """Per-layer metrics and the accounting check, from one traced phase.

    A metric whose layer this workload never called is reported as 0 and
    listed under "unseen".
    """
    add_self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out, seen = {}, {}

    def put(metric, value, was_seen):
        out[metric] = value
        seen[metric] = bool(was_seen)

    def mean_self(name, k=None):
        xs = [s["self"] for s in by_name.get(name, ()) if k is None or s["info"].get("k") == k]
        return (sum(xs) / len(xs), len(xs)) if xs else (0.0, 0)

    for layer in TRIAL_LAYERS:
        us, n = mean_self(layer)
        put(f"{layer}.us", us * 1e6, n)
        put(f"{layer}.calls", n, n)

    pool_calls = by_name.get("montecarlo.trial_gains", [])
    trials = sum(s["info"].get("trials", 0) for s in pool_calls)
    chunks = by_name.get(CHUNK, [])
    loop_s = sum(s["self"] for s in chunks)
    put("montecarlo.self.us_per_trial", loop_s / trials * 1e6 if trials else 0.0, trials and chunks)
    pooled = [s for s in pool_calls if s["info"].get("workers", 1) > 1]
    cpu = sum(s["info"]["children_cpu_s"] for s in pooled)
    capacity = sum((s["t1"] - s["t0"]) * s["info"]["workers"] for s in pooled)
    put("montecarlo.pool.worker_cpu_s", cpu / commands if commands else 0.0, pooled)
    put("montecarlo.pool.parallel_eff", cpu / capacity if capacity > 0 else 0.0, pooled)
    trial_bytes = 0.0
    for name in TRIAL_LAYERS:
        sampled = [s["info"]["bytes"] for s in by_name.get(name, ()) if "bytes" in s["info"]]
        if sampled:
            trial_bytes += sum(sampled) / len(sampled) * len(by_name[name])
    put("montecarlo.computed_bytes_per_trial", trial_bytes / trials if trials else 0.0,
        trials and trial_bytes)

    for alloc_id in ("uniform", "eq27", "eq28", "exact"):
        for k in (2, 8, 64):
            us, n = mean_self(f"allocation.{alloc_id}", k)
            put(f"allocation.{alloc_id}.us.k{k}", us * 1e6, n)
    for k in (8, 64):
        calls = [s for s in by_name.get("allocation.exact", ()) if s["info"].get("k") == k]
        put(f"allocation.exact.failed.k{k}", sum(s["info"].get("failed", 0) for s in calls), calls)
        put(f"allocation.exact.attempted.k{k}", len(calls), calls)
    for fn in ("ergodic_gain_closed_form", "objective_phi"):
        for k in (2, 8, 64):
            us, n = mean_self(f"analysis.{fn}", k)
            put(f"analysis.{fn}.us.k{k}", us * 1e6, n)

    ms, n = mean_self("cli.load_config")
    put("cli.load_config.ms", ms * 1e3, n)
    us, n = mean_self("scenario.cascaded_large_scale")
    put("scenario.cascaded_large_scale.us", us * 1e6, n)
    sec, n = mean_self("cli.main")
    put("cli.self.s", sec, n)

    # Accounting: in the load process, self times plus the time pool workers
    # covered partition the commands' wall time; what is left no span saw.
    groups, worker_groups = {}, {}
    for s in spans:
        if s["pid"] == load_pid:
            groups[s["name"]] = groups.get(s["name"], 0.0) + s["self"]
            if s["remote"] > 0.0:
                groups["pool workers busy"] = groups.get("pool workers busy", 0.0) + s["remote"]
        else:
            worker_groups[s["name"]] = worker_groups.get(s["name"], 0.0) + s["self"]
    put("trace.accounted_frac", sum(groups.values()) / wall_s if wall_s > 0 else 0.0, wall_s > 0)
    return {
        "metrics": out,
        "unseen": sorted(name for name, ok in seen.items() if not ok),
        "accounting": {
            "wall_s": wall_s,
            "load_process_self_s": dict(sorted(groups.items(), key=lambda kv: -kv[1])),
            "worker_self_s": dict(sorted(worker_groups.items(), key=lambda kv: -kv[1])),
        },
    }
