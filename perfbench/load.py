"""The load process: one fresh Python process that drives `rispilot.cli.main`.

It is a closed loop with one client: the next command starts when the
previous one has returned and its output has been checked. Commands run
in-process; the only other processes are the pool workers `--workers`
starts, and, untraced, a thread that runs the host-speed gauge (gauge.py).
With --trace 1 every command runs twice, untraced and traced, in
alternating order, and the traced half gives the per-layer numbers.

Usage: python3 perfbench/load.py --workload W --seed N --seconds S
       --trace 0|1 --workdir DIR [--size full|tiny]
Writes DIR/result.json.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

import gauge
import workloads
from spans import Tracer, load_spans, per_layer

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children, the pool workers.

    On a shared virtual machine this leaves out time the hypervisor gave
    our CPU to other guests (steal), which wall time includes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(argv: list[str], sampler: gauge.Sampler | None = None):
    """One CLI command in this process: (exit code, start, wall s, CPU s, stdout, stderr).

    The CPU time leaves out the gauge sampler's, which runs in this process.
    """
    import rispilot.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        g0 = sampler.cpu_seconds() if sampler else 0.0
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            rc = rispilot.cli.main(argv)  # looked up per call, so a trace wrapper is seen
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if sampler:
            cpu -= sampler.cpu_seconds() - g0
    return rc, t0, wall, cpu, out.getvalue(), err.getvalue()


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            size: str = "full") -> dict:
    """Run the workload's commands in a closed loop for `seconds`.

    The workload is a fixed set of `wl.count` distinct commands; the loop
    runs the set once, then cycles through it again until time is up.
    attempted and failed count the first pass only, so they depend on the
    seed alone. The process pins itself to as many CPUs as the workload
    uses: one, or one per pool worker. Untraced, the host-speed gauge
    samples those CPUs while the commands run, and each command records
    the gauge around it.
    """
    wl = workloads.make(workload, seed, workdir, size)
    wl.prepare()
    gauge.pin(wl.cpus)
    import rispilot.cli  # noqa: F401  (import cost is setup, measured elsewhere)

    span_dir = os.path.join(workdir, "spans")
    tracer = Tracer(span_dir) if trace else None
    result = {
        "op": wl.op, "counted": wl.counted, "untraced": [], "traced": [],
        "attempted": 0, "failed": 0, "failed_by_k": {}, "error": None,
    }
    sampler = None if trace else gauge.Sampler()
    if sampler:
        sampler.start()
    start = time.perf_counter()
    i = 0
    try:
        while i < wl.min_commands or time.perf_counter() - start < seconds:
            j = i % wl.count
            argv = wl.argv(j)
            modes = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
            for n_mode, traced in enumerate(modes):
                if wl.out:
                    shutil.rmtree(wl.out, ignore_errors=True)
                if traced:
                    tracer.install()
                try:
                    rc, t0, wall, cpu, stdout, stderr = run_command(argv, sampler)
                finally:
                    if traced:
                        tracer.uninstall()
                result["traced" if traced else "untraced"].append(
                    {"j": j, "start": t0, "wall_s": wall, "cpu_s": cpu, "ops": wl.ops(j)}
                )
                attempted, failed = wl.check(j, rc, stdout, stderr)
                if i < wl.count and n_mode == 0:
                    result["attempted"] += attempted
                    result["failed"] += failed
                    if hasattr(wl, "k"):
                        by_k = result["failed_by_k"].setdefault(str(wl.k(j)), [0, 0])
                        by_k[0] += failed
                        by_k[1] += attempted
            i += 1
    except workloads.CheckFailed as exc:
        result["error"] = f"command {i} ({' '.join(argv)}): {exc}"
    finally:
        if sampler:
            sampler.stop()
    if sampler:
        overall = sampler.around(-math.inf, math.inf)
        for c in result["untraced"]:
            c["gauge_s"] = sampler.around(c["start"], c["start"] + c["wall_s"]) or overall

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0  # ru_maxrss is in KiB on Linux

    if tracer is not None:
        tracer.flush()
        traced = result["traced"]
        untraced = result["untraced"]
        report = per_layer(
            load_spans(span_dir), os.getpid(), len(traced), sum(s["wall_s"] for s in traced)
        )
        overhead = 0.0
        if traced and untraced:
            overhead = sum(s["cpu_s"] for s in traced) / sum(s["cpu_s"] for s in untraced) - 1.0
        else:
            report["unseen"].append("trace.overhead_frac")
        report["metrics"]["trace.overhead_frac"] = overhead
        report["unhooked"] = tracer.missing
        result["trace"] = report
        shutil.rmtree(span_dir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = p.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir, args.size)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
