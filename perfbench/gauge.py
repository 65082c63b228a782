"""Host-speed gauge: a fixed reference kernel timed in CPU seconds.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts:
on the baseline machine the same CPU-bound work took up to twice as long
for stretches of seconds to minutes, in CPU time, not only in wall time,
and the two vCPUs did not always run at the same speed. The gauge runs a
fixed kernel, made of the same kind of work as the program (phase
alignment of small complex numpy arrays), on the CPUs the program runs
on, while it runs. A command's CPU time times NOMINAL_S over
the gauge's CPU time is its CPU time at the host's nominal speed. The
kernel is part of the benchmark, so a change to the program does not
change the gauge.
"""
from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# CPU seconds one kernel run takes on the baseline machine (2-vCPU Intel
# Xeon VM, numpy 2.4.6) at its usual speed. Only a unit: normalised times
# are expressed in CPU seconds of that host.
NOMINAL_S = 0.002
CALLS = 140
SIZE = 32
PERIOD_S = 0.05  # one kernel run (about 2 ms) every 50 ms, on each CPU in turn
MARGIN_S = 0.25  # a command's gauge also uses samples this close to it


def kernel() -> float:
    """Phase alignment of small complex draws, one numpy call at a time.

    Like a Monte Carlo trial of the program, its time is mostly the
    interpreter and numpy's per-call overhead. On the baseline machine,
    while the host's speed swung by a factor of two, this kernel's time
    moved in proportion to `sweep` and `allocate` commands (log-log slope
    1.0), where a kernel of 4096-element arrays moved only two thirds as
    much.
    """
    rng = np.random.default_rng(20230828)
    acc = 0.0
    for _ in range(CALLS):
        h = rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE)
        aligned = h * np.exp(-1j * np.angle(h))
        acc += float(np.abs(aligned.sum()))
    return acc


class Sampler(threading.Thread):
    """Runs the kernel every PERIOD_S in a thread of its own while commands run.

    It takes `cpus` (by default, those the process may use) in turn,
    pinning only itself, so it measures each CPU the command's processes
    run on. Its own CPU time is what `cpu_seconds` returns; a caller whose
    process it runs in subtracts it from the process's.
    """

    def __init__(self, cpus: list[int] | None = None):
        super().__init__(name="host-speed-gauge", daemon=True)
        self.cpus = cpus or sorted(os.sched_getaffinity(0))
        self.ends, self.samples = [], []  # perf_counter at each sample's end; (cpu, seconds)
        self.halt = threading.Event()

    def run(self):
        n = 0
        while not self.halt.wait(PERIOD_S):
            cpu = self.cpus[n % len(self.cpus)]
            n += 1
            os.sched_setaffinity(0, {cpu})  # on Linux, 0 is the calling thread
            t0 = time.thread_time()
            kernel()
            self.samples.append((cpu, time.thread_time() - t0))
            self.ends.append(time.perf_counter())

    def cpu_seconds(self) -> float:
        return time.clock_gettime(time.pthread_getcpuclockid(self.ident))

    def stop(self):
        self.halt.set()
        self.join()

    def around(self, start: float, end: float) -> float | None:
        """The gauge for a command that ran from `start` to `end` (perf_counter).

        The median of the samples per CPU, within MARGIN_S of the command,
        averaged over the CPUs; None when no sample fell there.
        """
        lo = bisect.bisect_left(self.ends, start - MARGIN_S)
        hi = bisect.bisect_right(self.ends, end + MARGIN_S)
        per_cpu = {}
        for cpu, seconds in self.samples[lo:hi]:
            per_cpu.setdefault(cpu, []).append(seconds)
        if not per_cpu:
            return None
        return statistics.fmean(statistics.median(v) for v in per_cpu.values())


def pin(n_cpus: int):
    """Confine this process, and the processes it starts, to its first `n_cpus` usable CPUs."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n_cpus])


kernel()  # first-call allocations are not the host's speed
