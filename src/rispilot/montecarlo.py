"""Monte Carlo estimation of composite gain and downlink rate.

Trials are addressed by (seed, trial index): trial t draws its own
values of one stream per purpose and block of channel.BLOCK_TRIALS
trials, channel.block_stream(seed, t // BLOCK_TRIALS, purpose) (see
channel), so a run is reproducible bit for bit no matter how trials are
split across workers or chunks. Each unit complex normal of the channel
and the pilot noise is drawn in polar form, an exponential of its
purpose's stream and a 16-bit phase lane of a second purpose's
(channel.normal_states). Chunks and worker shares start on block
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
is called once per chunk on those arrays.

Each range of trials (one pool worker's share, or the whole run with one
worker) derives what stays fixed over it once: each purpose's block
states (channel.normal_states), where the seed and the range are checked,
each link's per-element factors beta_k b_ru and beta_k a_ru
(channel.link_scales), and each estimated row's per-element error scales
delta_k (estimation.noise_scales), where its powers and training noise
are checked. It allocates its chunk arrays once, as a workspace sized to
the largest chunk: the draws of each purpose, the channel, the random
phases, one row buffer, and two float buffers: the user hop's
magnitudes, and a spare one for each other purpose's phase indices and
magnitudes while they are drawn, then the channel's magnitudes. Every
layer writes into them through its `out` arguments, so after its first
chunk the loop allocates no array of a chunk's size, nor one of a float
per element, but the raw words numpy's random_raw returns for a block,
and its pages stay mapped from one chunk to the next.

The user hop is drawn in polar form and goes straight into the channel
(channel.sample_channels). A perfect-CSI row needs no phases: conjugate
alignment makes the composite sum_m |h_m|, so its gain is
(sum_m |h_m|)^2 (see reflection.aligned_gain), which depends on the
link's channel alone. It is summed once per link and chunk from the
magnitudes beta_k sqrt(E) that sample_channels leaves where the channel
is the drawn normal scaled, and from abs(h) elsewhere.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .allocation import ExactSolution, resolve_allocator, run_allocator
from .analysis import ergodic_gain_rows, model_applies
from .channel import (BLOCK_TRIALS, PURPOSE_BS_RIS, PURPOSE_PHASE, PURPOSE_PILOT_NOISE,
                      PURPOSE_RIS_USER, block_states, link_scales, normal_states,
                      polar_normals, sample_channels, unit_normals)
from .estimation import PerRisPowers, ls_estimate, noise_scales
from .reflection import aligned_gain, composite_channel, configure_phases, random_phases
from .scenario import Link

__all__ = [
    "CSI_MODES",
    "TrialConfig",
    "GainRow",
    "SweepRow",
    "SweepResult",
    "WorkerLostError",
    "trial_gains",
    "unit_exponent",
    "in_units",
    "mean_se",
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


class WorkerLostError(RuntimeError):
    """A trial worker process stopped before returning its share of a run."""


def _check_budget(alloc: PerRisPowers, link: Link):
    counts = link.counts
    total = float(np.add.reduce(np.multiply(counts, alloc.p_k)))
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
# sum(M_k) above CHUNK_ELEMENTS / BLOCK_TRIALS = 4096 its arrays hold 8
# trials and exceed it, 8 times one trial's size. A chunk costs about 60 us
# in calls whatever its size (validate-wide's three rows at sum(M_k) = 2),
# so larger chunks spread that over more trials. At 2^15 the M=[1024, 256]
# validation runs three blocks per chunk: its workspace of at most six
# 480 KiB buffers and two half their size, 3.3 MiB, no longer fits a core's
# 2 MiB L2 cache (2-vCPU Xeon VM), but the calls saved outweigh that
# (BENCH_29.json). At 2^16 (six blocks) it ran no faster than at 2^15 in
# three benchmark pairs, and its peak RSS rose another 2.2 MB.
CHUNK_ELEMENTS = 2**15


def _gain_range(rows: list[GainRow], seed: int, start: int, stop: int) -> list[np.ndarray]:
    """Gains of every row over trials [start, stop), chunk by chunk.

    The range derives what stays fixed over it once: the block states
    of each purpose that any row needs, each normal's two purposes with
    one normal_states call, each link's factors (channel.link_scales),
    each estimated row's error scales (estimation.noise_scales, where a
    row's powers and training noise are checked), and the last trial at which any row
    needs each purpose. A chunk takes the rows of the blocks it touches,
    so its draws only set each block's SFC64 state and fill. Chunks hold
    whole blocks of BLOCK_TRIALS trials, the last one excepted, so with
    start on a block boundary, as trial_gains splits, each block of a
    purpose is drawn by one fill.

    Each chunk draws each purpose once, for all rows: the user hop always,
    in polar form, the BS hop when a row's BS link is faded, pilot noise
    when a row estimates, phases when a row uses random phases. Rows of
    one link (the same Link object) share one channel array and one
    perfect-CSI gain.

    Every chunk reuses one workspace, allocated here whole for the
    largest chunk: complex buffers for the user hop's phasors, each other
    purpose's draws, the channel and the random phases, one row buffer
    that holds a faded BS link's fading while its channel is drawn, then
    a row's estimate, its phases and its products h * phases, a float
    buffer for the user hop's magnitudes sqrt(E), and a spare float
    buffer: it holds each other purpose's magnitudes and phase indices
    (and the random phases' indices) while they are drawn, then the
    channel's magnitudes until the link's perfect-CSI gain is summed,
    then an estimate's magnitudes. np.empty writes none of its pages, so
    a buffer that no chunk writes adds next to nothing to resident
    memory. A random-phase row leaves the shared phase buffer alone.
    """
    counts = rows[0].link.counts
    n = int(counts.sum())
    step = max(1, CHUNK_ELEMENTS // n // BLOCK_TRIALS) * BLOCK_TRIALS
    size = min(step, stop - start)
    # a purpose is drawn while some row that needs it has trials left
    bs_until = max((r.trials for r in rows if not math.isinf(r.link.k_br)), default=0)
    noise_until = max((r.trials for r in rows if r.csi_mode == "estimated"), default=0)
    phase_until = max((r.trials for r in rows if r.csi_mode == "random-phase"), default=0)
    drawn = [PURPOSE_RIS_USER]
    if bs_until:
        drawn.append(PURPOSE_BS_RIS)
    if noise_until:
        drawn.append(PURPOSE_PILOT_NOISE)
    states = {p: normal_states(seed, start, stop, p) for p in drawn}
    if phase_until:
        states[PURPOSE_PHASE] = block_states(seed, start, stop, PURPOSE_PHASE)
    first = start // BLOCK_TRIALS
    scales = {}
    plan = []
    for r in rows:
        if id(r.link) not in scales:
            scales[id(r.link)] = link_scales(r.link)
        delta = None
        if r.csi_mode == "estimated":
            delta = noise_scales(counts, r.powers, r.link.sigma_z_sq)
        out = np.empty(max(0, min(stop, r.trials) - start))
        plan.append((r.link, scales[id(r.link)], r.csi_mode, r.trials, delta, out))
    # a perfect-CSI row's gain depends on its link's channel alone
    perfect_links = {id(r.link) for r in rows if r.csi_mode == "perfect"}
    user_buf, bs_buf, noise_buf, phase_buf, h_buf, row_buf = (
        np.empty((size, n), np.complex128) for _ in range(6))
    root_buf, mag_buf = (np.empty((size, n)) for _ in range(2))
    for a in range(start, stop, step):
        b = min(stop, a + step)
        k = b - a
        blocks = slice(a // BLOCK_TRIALS - first, -(-b // BLOCK_TRIALS) - first)
        user = polar_normals(states[PURPOSE_RIS_USER][blocks], a, b, n, out=user_buf[:k],
                             mag=root_buf[:k])
        # the magnitude buffer is free until the rows' work starts
        bs = noise = scrambled = None
        if a < bs_until:
            bs = unit_normals(states[PURPOSE_BS_RIS][blocks], a, b, n, out=bs_buf[:k],
                              mag=mag_buf[:k])
        if a < noise_until:
            noise = unit_normals(states[PURPOSE_PILOT_NOISE][blocks], a, b, n,
                                 out=noise_buf[:k], mag=mag_buf[:k])
        if a < phase_until:
            scrambled = random_phases(states[PURPOSE_PHASE][blocks], a, b, n, out=phase_buf[:k],
                                      mag=mag_buf[:k])
        h, perfect, at = None, None, None
        for link, link_scale, mode, trials, delta, out in plan:
            if trials <= a:
                continue
            if at is not link:
                at = link
                # the row and magnitude buffers are free until the link's rows start
                h, mag = sample_channels(link_scale, *user, bs, out=h_buf[:k], fade=row_buf[:k],
                                         mag=mag_buf[:k])
                if id(at) in perfect_links:
                    perfect = aligned_gain(np.abs(h, out=mag_buf[:k]) if mag is None else mag)
            m = min(b, trials) - a
            into = out[a - start:a - start + m]
            if mode == "perfect":
                into[:] = perfect[:m]
                continue
            work = row_buf[:m]  # the estimate, then the phases, then h * phases
            if mode == "estimated":
                est = ls_estimate(h[:m], delta, noise[:m], out=work)
                phases = configure_phases(est, out=est, mag=mag_buf[:m])
            else:
                phases = scrambled[:m]
            total = composite_channel(h[:m], phases, out=work)
            into[:] = np.abs(total) ** 2
    return [out for *_, out in plan]


def _resolved(row: GainRow, cfg: TrialConfig, counts: np.ndarray) -> GainRow:
    if not np.array_equal(row.link.counts, counts):
        raise ValueError("every row of a run needs the same element counts")
    # _check_budget would broadcast a single power over every surface
    if row.powers.num_ris != row.link.num_ris:
        raise ValueError(f"{row.powers.num_ris} pilot powers for {row.link.num_ris} surfaces")
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
    run on CPUs, nor more than the run has blocks of trials. A worker
    killed before returning its share raises WorkerLostError.
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
    shares = [(rows, cfg.seed, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    # imported here so that commands without a pool never load multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_gain_range, *zip(*shares)))
    except BrokenExecutor as exc:
        raise WorkerLostError("a trial worker stopped abruptly, most often because the system "
                              "ran out of memory") from exc
    return [np.concatenate([p[i] for p in parts]) for i in range(len(rows))]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def unit_exponent(x: float) -> int:
    """The exponent e >= 0 of the units to draw a magnitude x in: x 2^-e is
    below one, and a magnitude below one keeps e = 0. Scaling by a power of
    two keeps every bit of normal numbers."""
    return max(0, math.frexp(x)[1])


def in_units(link: Link) -> tuple[Link, int]:
    """link in units of 2^e, and e, the unit exponent of sum_k M_k beta_k:
    its gains, 2^-2e times the link's, are of the order of one, so no gain
    nor a sum of them overflows. A surface whose cascaded gain would fall
    below the smallest float is given that: its coefficients are then over
    10^161 times smaller than the total, which a float sum cannot see. At
    e = 0 the link itself comes back, so its rows share one channel."""
    e = unit_exponent(float(np.add.reduce(np.multiply(link.counts, link.beta))))
    if e == 0:
        return link, 0
    return replace(
        link, beta_sq=np.maximum(np.ldexp(link.beta_sq, -2 * e), math.ulp(0.0)),
        sigma_z_sq=math.ldexp(link.sigma_z_sq, -2 * e)), e


def mean_se(x: np.ndarray, e: int | np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean of each row of samples x in units
    of 2^e (one e, or one per row), in units of one; the error is unknown
    (inf) below two samples. A row is reduced as x 2^-f, its largest
    magnitude then in [1/2, 1), so its sums and squares neither overflow
    nor underflow. A mean or error beyond the float range in units of one
    is a numerical failure of `name`."""
    n = x.shape[-1]
    f = np.frexp(np.maximum(np.max(x, axis=-1), -np.min(x, axis=-1)))[1]
    y = np.ldexp(x, np.expand_dims(-f, -1))
    mean = np.mean(y, axis=-1)
    se = np.std(y, axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.full_like(mean, math.inf)
    k = np.add(e, f)
    with np.errstate(over="ignore"):
        out = np.ldexp(mean, k), np.ldexp(se, k)
    lost = (np.isinf(out[0]) > np.isinf(mean)) | (np.isinf(out[1]) > np.isinf(se))
    if lost.any():
        raise ArithmeticError(f"{name}: the trials' mean {mean[lost][0]:.6g} or standard error "
                              f"{se[lost][0]:.6g} times 2^{k[lost][0]} leaves the float range")
    return out


def _metrics(links: list[Link], e: np.ndarray, gains: np.ndarray) -> list[list[float]]:
    """Mean and standard error of gain and rate, one list per row of
    (rows, trials) gains in units of 2^2e, e one exponent per row."""
    q = np.array([[link.q] for link in links])
    sigma_n_sq = np.array([[link.sigma_n_sq] for link in links])
    e2 = 2 * e[:, None]
    # log2(1 + q g 2^2e / sigma_n^2), which at e = 0 is computed as written
    rates = e2 + np.log2(np.ldexp(1.0, -e2) + q * gains / sigma_n_sq)
    columns = (*mean_se(gains, 2 * e, "mean_gain"), *mean_se(rates, 0, "mean_rate"))
    return np.stack(columns, axis=-1).tolist()


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's rows, and the exact solver's answer for its links, row i
    being point i, or None when `exact` was not run."""

    rows: tuple[SweepRow, ...]
    solver: ExactSolution | None = None


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
    (see trial_gains), each on its link in its units (in_units), and their
    metrics (mean_se) and closed forms are each computed in one call.
    The result's solver is that call's ExactSolution, when `exact` was run.
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
    solver = None
    powers = {}
    for name in names:
        if name != "exact":
            powers[name] = [run_allocator(name, link) for link in links]
            continue
        solver = run_allocator("exact", links[0], links[1:])
        powers[name] = [solver.row(i) for i in range(len(d_list))]
    pairs = [(i, name) for i in range(len(links)) for name in names]
    rows = [GainRow(links[i], powers[name][i]) for i, name in pairs]
    # one scaled link per point, which its rows share
    units = [in_units(link) for link in links]
    gains = np.stack(trial_gains([GainRow(units[i][0], powers[name][i]) for i, name in pairs],
                                 cfg=cfg, workers=workers))
    e = np.array([units[i][1] for i, _ in pairs])
    metrics = _metrics([row.link for row in rows], e, gains)
    closed = _closed_forms(rows, cfg.csi_mode)
    out = [SweepRow(d_list[i], name, *m, float(c), tuple(row.powers.p_k.tolist()))
           for (i, name), row, m, c in zip(pairs, rows, metrics, closed)]
    return SweepResult(rows=tuple(out), solver=solver)

