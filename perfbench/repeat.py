"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 perfbench/repeat.py --label set-a --seeds 1-10 --out perfbench/baseline.json

Each run is `run.py` in a fresh process with the run length from
BENCHMARK.json. The spread of a metric is (q3 - q1) / median over the
runs, with quartiles as `statistics.quantiles(values, n=4)` gives them.
Results merge into --out under --label, so sets run at different times
sit side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from run import load_benchmark_spec

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[0].removeprefix("host:"))
    return host, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, as in 1-10")
    p.add_argument("--workloads", default=",".join(workloads.NAMES))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    seconds = load_benchmark_spec()["run_seconds"]
    entry = {"trace": args.trace, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            host, result = one_run(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {
            name: {"unit": m["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
            for name, m in runs[0]["metrics"].items()
        }
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        entry["host"] = {k: v for k, v in host.items() if k != "workload_seed"}
        for name, s in metrics.items():
            if args.trace == 0:
                print(f"  {name:<16} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f}", flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
    doc[args.label] = entry
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
