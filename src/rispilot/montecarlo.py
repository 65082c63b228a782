"""Monte Carlo estimation of composite gain and downlink rate.

Trials are addressed by (seed, trial index): trial t draws its own
values of one stream per purpose and block of channel.BLOCK_TRIALS
trials, channel.block_stream(seed, t // BLOCK_TRIALS, purpose) (see
channel), so a run is reproducible bit for bit no matter how trials are
split across workers or chunks. Each unit complex normal of the channel
and the pilot noise is drawn in polar form, an exponential of its
purpose's stream and a 16-bit phase lane of a second purpose's
(channel.unit_normals). Chunks and worker shares start on block
boundaries, so each block's draws of a purpose come from one fill. A run
evaluates every row (a `scenario.Link`, its allocation and CSI mode) on
the same draws: all links and allocators of a sweep,
all CSI modes of a validation. The comparison between rows is
therefore paired: differences between their metrics come from the rows
alone, not from sampling noise. Two runs with the same seed share their draws too;
use different seeds if independent runs are wanted instead.

A sweep takes its problems as a list of links, one per point of its
axis, with the axis values beside them: the caller builds each link,
whatever the axis (user offset, pilot budget) changes.

The engine works on chunks of trials. A chunk holds one
(trials, sum(M_k)) array per purpose, of whole blocks and, beyond one
block, of no more than CHUNK_ELEMENTS elements, and each layer function
is called once per chunk on those arrays; an np.repeat over the element
counts maps per-surface values (beta_k, the estimation error delta_k)
onto the elements.

Each range of trials (one pool worker's share, or the whole run with one
worker) allocates its chunk arrays once, as a workspace sized to the
largest chunk: the draws of each purpose, the channel, the random phases,
one row buffer and one buffer of element magnitudes, which also holds
each purpose's phase indices and magnitudes while its normals are drawn.
Every layer writes into them through its `out` argument, so the chunk
loop allocates no array of a chunk's size, and its pages stay mapped
from one chunk to the next.

A perfect-CSI row needs no phases: conjugate alignment makes the
composite sum_m |h_m|, so its gain is (sum_m |h_m|)^2 straight from the
channel (see reflection.aligned_gain).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .allocation import resolve_allocator, run_allocator
from .analysis import ergodic_gain_rows, model_applies
from .channel import (BLOCK_TRIALS, PURPOSE_BS_RIS, PURPOSE_PILOT_NOISE, PURPOSE_RIS_USER,
                      sample_channels, unit_normals)
from .estimation import PerRisPowers, ls_estimate
from .reflection import aligned_gain, composite_channel, configure_phases, random_phases
from .scenario import Link

__all__ = [
    "CSI_MODES",
    "TrialConfig",
    "MetricEstimate",
    "GainRow",
    "SweepRow",
    "SolverRow",
    "SweepResult",
    "trial_gains",
    "sweep_user",
]

CSI_MODES = ("estimated", "perfect", "random-phase")


@dataclass(frozen=True)
class TrialConfig:
    """How many trials to run and how to drive them."""

    trials: int = 1000
    seed: int = 0
    csi_mode: str = "estimated"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.csi_mode not in CSI_MODES:
            raise ValueError(f"csi_mode must be one of {CSI_MODES}")


class MetricEstimate(NamedTuple):
    mean_gain: float
    se_gain: float
    mean_rate: float
    se_rate: float


def _check_budget(alloc: PerRisPowers, link: Link):
    counts = link.counts
    total = float(np.dot(counts.astype(np.float64), alloc.p_k))
    budget = float(int(counts.sum()) * link.p_avg)
    if not math.isclose(total, budget, rel_tol=1e-9):
        raise ValueError(f"allocation spends {total!r}, budget is {budget!r}")


class GainRow(NamedTuple):
    """One row of a run: a link, its pilot powers and how phases are set.

    csi_mode None takes the run's TrialConfig.csi_mode; trials None takes
    all of the run's trials, a smaller count its first `trials` trials.
    """

    link: Link
    powers: PerRisPowers
    csi_mode: str | None = None
    trials: int | None = None


# Upper bound on the elements of any (trials, sum(M_k)) engine array,
# except that a chunk holds at least one block of BLOCK_TRIALS trials: for
# sum(M_k) above CHUNK_ELEMENTS / BLOCK_TRIALS = 2048 its arrays hold 8
# trials and exceed it, 8 times one trial's size. 2^14 complex values are
# 256 KiB: the buffers a range writes, at most six such buffers and one
# half their size, 1.625 MiB, fit in a core's L2 cache (2 MiB on the
# 2-vCPU Xeon VM measured), and a pool worker holds no more than that
# beyond a one-block-at-a-time loop. At 2^16 the M=[1024, 256] validation
# ran 7% slower and its workers peaked 8 MiB higher.
CHUNK_ELEMENTS = 2**14


def _gain_range(rows: list[GainRow], seed: int, start: int, stop: int) -> list[np.ndarray]:
    """Gains of every row over trials [start, stop), chunk by chunk.

    Chunks hold whole blocks of BLOCK_TRIALS trials, the last one
    excepted, so with start on a block boundary, as trial_gains splits,
    each block of a purpose is drawn by one fill.

    Each chunk draws each purpose once, for all rows: the user hop always,
    the BS hop when a row's BS link is faded, pilot noise when a row
    estimates, phases when a row uses random phases. Rows of one link
    (the same Link object) share one channel array.

    Every chunk reuses one workspace, allocated here whole for the
    largest chunk: a float buffer per draw purpose, complex buffers for
    the channel and the random phases, one row buffer that holds a faded
    BS link's fading while its channel is drawn, then a row's estimate,
    its phases and its products h * phases, and a float buffer for
    magnitudes: of each purpose's normals while they are drawn, then of
    an estimate or, in a perfect-CSI row, of the channel.
    np.empty writes none of its pages, so a buffer that no chunk writes
    adds next to nothing to resident memory. A random-phase row leaves
    the shared phase buffer alone; a perfect-CSI row uses neither the
    row buffer nor phases.
    """
    counts = rows[0].link.counts
    n = int(counts.sum())
    step = max(1, CHUNK_ELEMENTS // n // BLOCK_TRIALS) * BLOCK_TRIALS
    size = min(step, stop - start)
    user_buf, bs_buf, noise_buf = (np.empty((size, 2 * n)) for _ in range(3))
    mag_buf = np.empty((size, n))
    phase_buf, h_buf, row_buf = (np.empty((size, n), np.complex128) for _ in range(3))
    gains = [np.empty(max(0, min(stop, r.trials) - start)) for r in rows]
    for a in range(start, stop, step):
        b = min(stop, a + step)
        live = [(i, r) for i, r in enumerate(rows) if r.trials > a]
        modes = {r.csi_mode for _, r in live}
        spare = mag_buf[:b - a]  # the magnitude buffer is free until the rows' work starts
        user = unit_normals(seed, a, b, PURPOSE_RIS_USER, n, out=user_buf[:b - a], mag=spare)
        bs = None
        if any(not math.isinf(r.link.k_br) for _, r in live):
            bs = unit_normals(seed, a, b, PURPOSE_BS_RIS, n, out=bs_buf[:b - a], mag=spare)
        noise = None
        if "estimated" in modes:
            noise = unit_normals(seed, a, b, PURPOSE_PILOT_NOISE, n, out=noise_buf[:b - a],
                                 mag=spare)
        scrambled = None
        if "random-phase" in modes:
            scrambled = random_phases(seed, a, b, n, out=phase_buf[:b - a])
        h, at = None, None
        for i, r in live:
            if at is not r.link:
                at = r.link
                # the row buffer is free until the row's work starts
                h = sample_channels(r.link, user, bs, out=h_buf[:b - a], fade=row_buf[:b - a])
            m = min(b, r.trials) - a
            into = gains[i][a - start:a - start + m]
            if r.csi_mode == "perfect":
                into[:] = aligned_gain(h[:m], mag=mag_buf[:m])
                continue
            work = row_buf[:m]  # the estimate, then the phases, then h * phases
            if r.csi_mode == "estimated":
                est = ls_estimate(h[:m], counts, r.powers, r.link.sigma_z_sq, noise[:m], out=work)
                phases = configure_phases(est, out=est, mag=mag_buf[:m])
            else:
                phases = scrambled[:m]
            total = composite_channel(h[:m], phases, out=work)
            into[:] = np.abs(total) ** 2
    return gains


def _resolved(row: GainRow, cfg: TrialConfig, counts: np.ndarray) -> GainRow:
    if not np.array_equal(row.link.counts, counts):
        raise ValueError("every row of a run needs the same element counts")
    _check_budget(row.powers, row.link)
    mode = cfg.csi_mode if row.csi_mode is None else row.csi_mode
    if mode not in CSI_MODES:
        raise ValueError(f"csi_mode must be one of {CSI_MODES}")
    trials = cfg.trials if row.trials is None else row.trials
    if not 1 <= trials <= cfg.trials:
        raise ValueError(f"a row's trials must be in [1, {cfg.trials}], got {trials}")
    return row._replace(csi_mode=mode, trials=trials)


def trial_gains(rows, cfg: TrialConfig, *, workers: int = 1) -> list[np.ndarray]:
    """Per-trial composite power gains of every GainRow, ordered by trial index.

    Every row is evaluated on the same draws, and one array comes back
    per row, of its trial count. The ordering is part of the contract:
    entry t depends only on (cfg.seed, t) and the rows' element counts,
    so any worker count or chunk size returns the identical arrays, and
    rows of one run are paired trial by trial. Callers pass cfg and
    workers by keyword, where perfbench's tracer reads the run's trial and
    worker counts. The pool starts no more workers than this process may
    run on CPUs, nor more than the run has blocks of trials.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to evaluate")
    counts = rows[0].link.counts
    rows = [_resolved(r, cfg, counts) for r in rows]
    # workers split the run on block boundaries, each taking whole blocks
    blocks = -(-cfg.trials // BLOCK_TRIALS)
    workers = min(workers, _usable_cpus(), blocks)
    if workers <= 1:
        return _gain_range(rows, cfg.seed, 0, cfg.trials)
    bounds = [min(cfg.trials, blocks * i // workers * BLOCK_TRIALS) for i in range(workers + 1)]
    # imported here so that commands without a pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            _gain_range,
            *zip(*[(rows, cfg.seed, a, b) for a, b in zip(bounds[:-1], bounds[1:])]),
        ))
    return [np.concatenate([p[i] for p in parts]) for i in range(len(rows))]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _metrics(links: list[Link], gains: np.ndarray) -> list[MetricEstimate]:
    """Means and standard errors of gain and rate, one per row of (rows, trials) gains."""
    q = np.array([[link.q] for link in links])
    sigma_n_sq = np.array([[link.sigma_n_sq] for link in links])
    rates = np.log2(1.0 + q * gains / sigma_n_sq)
    n = gains.shape[-1]
    columns = []
    for x in (gains, rates):
        # one sample leaves the standard error unknown
        se = np.std(x, axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.full(len(x), math.inf)
        columns += [np.mean(x, axis=-1), se]
    return [MetricEstimate(*map(float, row)) for row in zip(*columns)]


@dataclass(frozen=True)
class SweepRow:
    d_m: float
    allocator: str
    mean_gain: float
    se_gain: float
    mean_rate: float
    se_rate: float
    closed_form_gain: float
    powers_w: tuple[float, ...]


class SolverRow(NamedTuple):
    """The exact solver's work at one sweep point, d_m its axis value."""

    d_m: float
    iterations: int
    multiplier_spread: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    solver: tuple[SolverRow, ...] = ()


def _closed_forms(rows: list[GainRow], csi_mode: str) -> np.ndarray:
    """The closed-form mean gain of every row, nan where its model does not hold."""
    counts = rows[0].link.counts.astype(np.float64)
    beta_sq = np.stack([r.link.beta_sq for r in rows])
    powers = np.stack([r.powers.p_k for r in rows])
    sigma = np.array([[0.0 if csi_mode == "perfect" else r.link.sigma_z_sq] for r in rows])
    gains = ergodic_gain_rows(beta_sq, counts, powers, sigma)
    if csi_mode == "random-phase":
        # phases carry no information, only the incoherent sum survives,
        # whatever the fading distribution
        return gains.incoherent
    valid = np.array([model_applies(r.link) for r in rows])
    return np.where(valid, gains.total, math.nan)


def sweep_user(
    links: Iterable[Link],
    d_values: Iterable[float],
    allocators: Iterable[str],
    cfg: TrialConfig,
    *,
    workers: int = 1,
) -> SweepResult:
    """Metrics for every (link, allocator) pair.

    links holds one link per sweep point and d_values its axis value, such
    as the user offset the link was built at; the links must share
    element counts. Allocator names are resolved to their canonical ids
    and run in canonical order. Every allocation is made first, with one
    solve_exact call for all links; then all rows run on one set of draws
    (see trial_gains), and their metrics and closed forms are each
    computed in one call. The result's solver entries hold the exact
    solver's iterations and final multiplier spread per link, when
    `exact` was run.
    """
    links = list(links)
    d_list = [float(d) for d in d_values]
    if not d_list:
        raise ValueError("d_values must not be empty")
    if len(links) != len(d_list):
        raise ValueError(f"{len(links)} links for {len(d_list)} axis values")
    names = sorted({resolve_allocator(a) for a in allocators})
    if not names:
        raise ValueError("allocators must not be empty")
    solver = ()
    powers = {}
    for name in names:
        if name != "exact":
            powers[name] = [run_allocator(name, link) for link in links]
            continue
        sol = run_allocator("exact", links[0], links[1:])
        powers[name] = [sol.row(i) for i in range(len(d_list))]
        solver = tuple(SolverRow(d, int(it), float(spread))
                       for d, it, spread in zip(d_list, sol.iterations, sol.spread))
    rows = [(d, name, GainRow(link, powers[name][i]))
            for i, (d, link) in enumerate(zip(d_list, links)) for name in names]
    gain_rows = [row for _, _, row in rows]
    gains = np.stack(trial_gains(gain_rows, cfg=cfg, workers=workers))
    metrics = _metrics([r.link for r in gain_rows], gains)
    closed = _closed_forms(gain_rows, cfg.csi_mode)
    out = [
        SweepRow(
            d_m=d, allocator=name, mean_gain=m.mean_gain, se_gain=m.se_gain,
            mean_rate=m.mean_rate, se_rate=m.se_rate, closed_form_gain=float(c),
            powers_w=tuple(float(p) for p in row.powers.p_k),
        )
        for (d, name, row), m, c in zip(rows, metrics, closed)
    ]
    return SweepResult(rows=tuple(out), solver=solver)

