"""Monte Carlo estimation of composite gain and downlink rate.

Trials are addressed by (seed, trial index), so a run is reproducible
bit for bit no matter how trials are scheduled across workers. Two
runs with the same seed also share their channel and noise draws,
which pairs the comparison between allocators: differences between
their metrics come from the allocation alone, not from sampling noise.
Use different seeds if independent runs are wanted instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .allocation import resolve_allocator, run_allocator
from .analysis import ergodic_gain_closed_form
from .channel import ChannelRealization, RngStream, sample_channels
from .estimation import ChannelEstimate, PerRisPowers, ls_estimate
from .reflection import composite_channel, configure_phases, random_phases, rate_from_gain
from .scenario import LargeScale, Scenario, cascaded_large_scale

__all__ = [
    "TrialConfig",
    "MetricEstimate",
    "SweepRow",
    "SweepResult",
    "trial_gains",
    "simulate_metrics",
    "sweep_user",
    "dynamic_range",
]

_CSI_MODES = ("estimated", "perfect", "random-phase")


@dataclass(frozen=True)
class TrialConfig:
    """How many trials to run and how to drive them."""

    trials: int = 1000
    seed: int = 0
    csi_mode: str = "estimated"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.csi_mode not in _CSI_MODES:
            raise ValueError(f"csi_mode must be one of {_CSI_MODES}")


class MetricEstimate(NamedTuple):
    mean_gain: float
    se_gain: float
    mean_rate: float
    se_rate: float


def _check_budget(alloc: PerRisPowers, s: Scenario):
    counts = s.element_counts
    if alloc.num_ris != counts.size:
        raise ValueError(f"{alloc.num_ris} powers for {counts.size} surfaces")
    total = float(np.dot(counts.astype(np.float64), alloc.p_k))
    budget = float(int(counts.sum()) * s.p_avg)
    if not math.isclose(total, budget, rel_tol=1e-9):
        raise ValueError(f"allocation spends {total!r}, budget is {budget!r}")


def _gain_range(
    s: Scenario,
    ls: LargeScale,
    powers: PerRisPowers,
    cfg: TrialConfig,
    start: int,
    stop: int,
) -> np.ndarray:
    counts = s.element_counts
    zero_mse = np.zeros(counts.size)
    out = np.empty(stop - start)
    for i, t in enumerate(range(start, stop)):
        rng_t = RngStream(cfg.seed, t)
        h = sample_channels(s, ls, rng_t)
        if cfg.csi_mode == "estimated":
            est = ls_estimate(h, powers, s.sigma_z_sq, rng_t)
            phases = configure_phases(est)
        elif cfg.csi_mode == "perfect":
            est = ChannelEstimate(estimates=h.coefficients, mse=zero_mse)
            phases = configure_phases(est)
        else:
            phases = random_phases(counts, rng_t)
        out[i] = abs(composite_channel(h, phases)) ** 2
    return out


def trial_gains(
    s: Scenario,
    alloc: PerRisPowers,
    cfg: TrialConfig,
    *,
    ls: LargeScale | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial composite power gains, ordered by trial index.

    The ordering is part of the contract: entry t depends only on
    (cfg.seed, t), so any worker count returns the identical array.
    """
    if ls is None:
        ls = cascaded_large_scale(s)
    _check_budget(alloc, s)
    if workers <= 1 or cfg.trials < 2 * workers:
        return _gain_range(s, ls, alloc, cfg, 0, cfg.trials)
    bounds = np.linspace(0, cfg.trials, workers + 1, dtype=int)
    # imported here so that commands without a pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _gain_range,
            *zip(*[(s, ls, alloc, cfg, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]),
        )
        return np.concatenate(list(parts))


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(x))
    if x.size < 2:
        return mean, 0.0
    return mean, float(np.std(x, ddof=1) / math.sqrt(x.size))


def simulate_metrics(
    s: Scenario,
    alloc: PerRisPowers,
    cfg: TrialConfig,
    *,
    ls: LargeScale | None = None,
    workers: int = 1,
) -> MetricEstimate:
    """Monte Carlo means and standard errors of gain and rate."""
    gains = trial_gains(s, alloc, cfg, ls=ls, workers=workers)
    rates = np.log2(1.0 + s.q * gains / s.sigma_n_sq)
    mean_gain, se_gain = _mean_se(gains)
    mean_rate, se_rate = _mean_se(rates)
    return MetricEstimate(mean_gain, se_gain, mean_rate, se_rate)


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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def select(self, allocator: str | None = None, d_m: float | None = None):
        rows = self.rows
        if allocator is not None:
            rows = tuple(r for r in rows if r.allocator == allocator)
        if d_m is not None:
            rows = tuple(r for r in rows if r.d_m == d_m)
        return rows


def _closed_form_for_mode(s: Scenario, ls: LargeScale, alloc: PerRisPowers, cfg: TrialConfig) -> float:
    counts = s.element_counts
    if cfg.csi_mode == "random-phase":
        # phases carry no information, only the incoherent sum survives
        return float(np.dot(counts.astype(np.float64), ls.beta_sq))
    sigma = 0.0 if cfg.csi_mode == "perfect" else s.sigma_z_sq
    return ergodic_gain_closed_form(ls, counts, alloc, sigma).total


def sweep_user(
    scenario_for: Callable[[float], Scenario],
    d_values: Iterable[float],
    allocators: Iterable[str],
    cfg: TrialConfig,
    *,
    workers: int = 1,
) -> SweepResult:
    """Metrics for every (user position, allocator) pair.

    scenario_for rebuilds the scenario at each position, so the large
    scale gains track the user. Allocator names are resolved to their
    canonical ids and run in canonical order.
    """
    d_list = [float(d) for d in d_values]
    if not d_list:
        raise ValueError("d_values must not be empty")
    names = sorted({resolve_allocator(a) for a in allocators})
    if not names:
        raise ValueError("allocators must not be empty")
    rows = []
    for d in d_list:
        s = scenario_for(d)
        ls = cascaded_large_scale(s)
        for name in names:
            powers = run_allocator(name, s, ls)
            metrics = simulate_metrics(s, powers, cfg, ls=ls, workers=workers)
            closed = _closed_form_for_mode(s, ls, powers, cfg)
            rows.append(
                SweepRow(
                    d_m=d,
                    allocator=name,
                    mean_gain=metrics.mean_gain,
                    se_gain=metrics.se_gain,
                    mean_rate=metrics.mean_rate,
                    se_rate=metrics.se_rate,
                    closed_form_gain=closed,
                    powers_w=tuple(float(p) for p in powers.p_k),
                )
            )
    return SweepResult(rows=tuple(rows))


def dynamic_range(powers: PerRisPowers) -> float:
    """Spread of an allocation in dB, max over min."""
    p = powers.p_k
    return 10.0 * math.log10(float(np.max(p)) / float(np.min(p)))
