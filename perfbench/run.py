"""rispilot benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json; --trace 1
runs each command untraced and traced and reports the per-layer metrics.
Every command's output is checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits nonzero,
without that line, when the program is missing or a run cannot finish.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gauge
import workloads

ROOT = workloads.ROOT
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 15
TAIL_PERCENTILE = 90
RUN_LIMIT_S = 170.0
ACCOUNTING_TOLERANCE = 0.02  # traced self times must cover the traced wall time to 2%
OP_NAMES = {"trial": "trials_per_s", "command": "problems_per_s"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "pyyaml": importlib.metadata.version("PyYAML"),
        "platform": platform.platform(),
        "git_commit": commit,
        "workload_seed": seed,
    }


def setup_seconds(argvs: list[list[str]]) -> list[dict]:
    """A fresh process's time up to the command's first call into a layer.

    Wall and CPU time of one probe per command line, one after another, and
    the CPU time at the host's nominal speed. The probes run on the first usable
    CPU from their start, and a gauge sampler in this process measures that
    CPU while they run.
    """
    cpu0 = sorted(os.sched_getaffinity(0))[0]
    sampler = gauge.Sampler([cpu0])
    sampler.start()
    probes = []
    try:
        for argv in argvs:
            start, t0 = time.perf_counter(), time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), *argv],
                cwd=ROOT, env=bench_env(), capture_output=True, text=True, timeout=60,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu0}),
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            reached, cpu = (float(x) for x in proc.stdout.split()[-2:])
            probes.append({"start": start, "end": time.perf_counter(), "wall": reached - t0,
                           "cpu": cpu})
    finally:
        sampler.stop()
    overall = sampler.around(-math.inf, math.inf)
    for p in probes:
        p["norm"] = p["cpu"] * gauge.NOMINAL_S / (sampler.around(p["start"], p["end"]) or overall)
    return probes


def bench_env() -> dict:
    """One BLAS thread per process: with the pool workers, threads never outnumber CPUs."""
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def summary(xs: list[float]) -> dict:
    if len(xs) > 1:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def nearest_rank(xs: list[float], pct: float) -> float:
    xs = sorted(xs)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def normalised_rate(cmds: list[dict]) -> float:
    """Ops per CPU-second at the host's nominal speed.

    Each command's CPU time is scaled by NOMINAL_S over the gauge around
    it. A distinct command run several times counts once, at the median of
    its scaled times, so the set's mix does not depend on how far the last
    pass got, and a command that met a burst of noise does not move it.
    """
    by_command = {}
    for c in cmds:
        by_command.setdefault(c["j"], []).append(c["cpu_s"] * gauge.NOMINAL_S / c["gauge_s"])
    ops = {c["j"]: c["ops"] for c in cmds}
    return sum(ops.values()) / sum(statistics.median(v) for v in by_command.values())


def end_to_end(result: dict, setup: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines with the raw times beside them.

    The metrics use CPU time (user + system, of the load process and its
    pool workers) at the host's nominal speed: on a shared virtual machine
    wall time also holds the time other guests ran on our CPUs, and the
    CPU time itself stretches when the host is busy.
    """
    cmds = result["untraced"]
    alias = OP_NAMES[result["op"]]
    ops = sum(c["ops"] for c in cmds)
    rate = normalised_rate(cmds)
    setup_norm = summary([s["norm"] for s in setup])
    rows = [
        ("setup_s", "s", setup_norm, "median, CPU at nominal speed"),
        ("setup_cpu_s", "s", summary([s["cpu"] for s in setup]), "median"),
        ("setup_wall_s", "s", summary([s["wall"] for s in setup]), "median"),
        (f"ops_per_cpu_s ({alias})", "1/s", {"value": rate, "n": len(cmds)},
         "CPU at nominal speed"),
        ("ops_per_raw_cpu_s", "1/s", {"value": ops / sum(c["cpu_s"] for c in cmds), "n": len(cmds)},
         "all commands"),
        ("ops_per_wall_s", "1/s", {"value": ops / sum(c["wall_s"] for c in cmds), "n": len(cmds)},
         "all commands"),
        ("host_speed", "ratio", summary([gauge.NOMINAL_S / c["gauge_s"] for c in cmds]),
         "nominal gauge / gauge"),
    ]
    for basis in ("cpu", "wall"):
        ms = [c[f"{basis}_s"] * 1e3 for c in cmds]
        tail = nearest_rank(ms, TAIL_PERCENTILE)
        rows += [
            (f"command_{basis}_ms_p50", "ms", summary(ms), "median"),
            (f"command_{basis}_ms_p{TAIL_PERCENTILE}", "ms", {"value": tail, "n": len(ms)},
             f"{sum(1 for x in ms if x > tail)} samples beyond"),
        ]
    values = {"setup_s": setup_norm["median"], "ops_per_cpu_s": rate,
              "peak_rss_mb": result["peak_rss_mb"]}
    rows.append(("peak_rss_mb", "MB", {"value": result["peak_rss_mb"], "n": 1},
                 "load process + largest pool worker"))

    def num(x):
        return f"{x:>12.6g}" if x is not None else f"{'':>12}"

    head = ("metric", "unit", "value", "median", "q1", "q3", "n")
    lines = ["{:<34} {:<5} {:>12} {:>12} {:>12} {:>12} {:>5}".format(*head)]
    for name, unit, s, how in rows:
        value = s.get("value", s.get("median"))
        lines.append(f"{name:<34} {unit:<5} {num(value)} {num(s.get('median'))} {num(s.get('q1'))} "
                     f"{num(s.get('q3'))} {s['n']:>5}  {how}")
    return values, lines


def failure_lines(result: dict) -> list[str]:
    att, fail = result["attempted"], result["failed"]
    lines = [f"failed_ratio ({result['counted']}) {fail}/{att} = {fail / att:.4g}"]
    for k, (f, a) in sorted(result["failed_by_k"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"failed_ratio k={k}: {f}/{a} = {f / a:.4g}")
    return lines


def trace_lines(report: dict) -> list[str]:
    acc = report["accounting"]
    lines = [f"{name:<48} {value:>14.6g}" for name, value in report["metrics"].items()]
    lines.append(f"accounting: traced wall {acc['wall_s']:.4f} s, load-process self times:")
    lines += [f"  {name:<46} {v:>10.4f} s" for name, v in acc["load_process_self_s"].items()]
    if acc["worker_self_s"]:
        lines.append("pool-worker self times:")
        lines += [f"  {name:<46} {v:>10.4f} s" for name, v in acc["worker_self_s"].items()]
    frac = report["metrics"]["trace.accounted_frac"]
    lines.append(f"accounted fraction {frac:.5f} (must be within {ACCOUNTING_TOLERANCE:.0%} of 1)")
    unseen = ", ".join(report["unseen"]) or "none"
    lines.append(f"layers not seen on this workload (reported as 0): {unseen}")
    if report["unhooked"]:
        lines.append(f"names that could not be hooked: {', '.join(report['unhooked'])}")
    return lines


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'tiny' only exercises the code paths (smoke test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rispilot", "cli.py")):
        print(f"rispilot sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    started = time.monotonic()
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        print("host:", json.dumps(host_facts(args.seed)))
        setup = []
        if not args.trace:
            wl = workloads.make(args.workload, args.seed, workdir, args.size)
            wl.prepare()
            setup = setup_seconds([wl.argv(i % wl.count) for i in range(SETUP_PROBES)])
        # its own session, so a timeout can stop the pool workers along with it
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "load.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--size", args.size],
            cwd=ROOT, env=bench_env(), start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if rc != 0:
            print(f"load process exited {rc}", file=sys.stderr)
            return 1
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as f:
            result = json.load(f)
        n_cmds = len(result["untraced"])
        print(f"workload {args.workload} seed {args.seed}: {n_cmds} commands, "
              f"{sum(c['ops'] for c in result['untraced'])} {result['op']}s untraced, "
              f"{len(result['traced'])} commands traced")
        print("\n".join(failure_lines(result)))
        if result["error"]:
            print(f"CHECK FAILED: {result['error']}")

        if args.trace:
            report = result["trace"]
            print("\n".join(trace_lines(report)))
            wanted = spec["per_layer"]
            values = report["metrics"]
            frac = values["trace.accounted_frac"]
            if result["traced"] and abs(frac - 1.0) > ACCOUNTING_TOLERANCE:
                print(f"accounting check failed: {frac:.5f}", file=sys.stderr)
                return 1
        else:
            values, lines = end_to_end(result, setup)
            print("\n".join(lines))
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"metrics not produced: {missing}", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": result["error"] is None,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
