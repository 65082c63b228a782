"""Pilot power allocators, one power per surface.

All allocators spread a fixed total training energy: with counts M_k
and average power p_avg, the per-surface powers satisfy
sum_k M_k p_k = (sum_k M_k) * p_avg. Inside a surface every element
trains at its surface's power, which is optimal by symmetry of the
gain formula. Three closed forms cover the moderate-SNR, many-element
and equal-count regimes; the numeric solver maximizes the exact
objective by solving its Lagrange conditions with Newton steps on the
budget hyperplane.
"""
from __future__ import annotations

import warnings

import numpy as np

from .analysis import SurfaceObjective, stationarity_residual, surface_objective
from .estimation import PerRisPowers
from .scenario import LargeScale, Scenario

__all__ = [
    "PerRisPowers",
    "InfeasibleAllocationError",
    "UniformFallbackWarning",
    "NonConvergenceError",
    "allocate_average",
    "allocate_moderate_snr",
    "allocate_large_m",
    "allocate_equal_m",
    "allocate_exact_numeric",
    "multiplier_spread",
    "ALLOCATOR_IDS",
    "resolve_allocator",
    "run_allocator",
]


class InfeasibleAllocationError(ValueError):
    """Closed-form weights are undefined for the given inputs."""

    def __init__(self, message: str, ris_indices=()):
        super().__init__(message)
        self.ris_indices = tuple(ris_indices)


class UniformFallbackWarning(UserWarning):
    """Some surfaces got uniform power because their weight degenerated."""


class NonConvergenceError(RuntimeError):
    """The numeric solver stopped without a certified stationary point."""

    def __init__(self, message: str, best_powers: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.best_powers = best_powers
        self.residuals = residuals


def _counts(element_counts) -> np.ndarray:
    counts = np.asarray(element_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 1 or np.any(counts < 1):
        raise ValueError("element counts must be a nonempty 1-D array of positive integers")
    return counts


def _check_inputs(ls: LargeScale, counts: np.ndarray, p_avg: float):
    if counts.size != ls.num_ris:
        raise ValueError(f"{counts.size} element counts for {ls.num_ris} surfaces")
    if p_avg <= 0.0:
        raise ValueError(f"average pilot power must be positive, got {p_avg}")


def allocate_average(s: Scenario) -> PerRisPowers:
    """Every surface trains at the average power."""
    return PerRisPowers(p_k=np.full(s.num_ris, s.p_avg))


def allocate_moderate_snr(ls: LargeScale, element_counts, p_avg: float) -> PerRisPowers:
    """Closed form for the regime where estimation noise is a perturbation.

    Weights are sqrt(S / beta_k - 1) with S the count-weighted sum of
    the cascade amplitudes, normalized to the budget. The radicand is
    nonnegative whenever the inputs are mutually consistent; an exactly
    zero radicand (single surface with a single element) degenerates to
    uniform power for the affected surfaces, with a warning.
    """
    counts = _counts(element_counts)
    _check_inputs(ls, counts, p_avg)
    s_amp = float(np.dot(counts.astype(np.float64), ls.beta))
    ratio = s_amp / ls.beta
    radicand = ratio - 1.0
    bad = radicand < -1e-12 * ratio
    if np.any(bad):
        idx = np.flatnonzero(bad)
        raise InfeasibleAllocationError(
            f"negative weight radicand for surface index {idx.tolist()}, inputs are inconsistent",
            ris_indices=idx,
        )
    degenerate = radicand <= 1e-12 * ratio
    w = np.sqrt(np.where(degenerate, 0.0, radicand))
    total = int(counts.sum())
    p = np.empty(ls.num_ris)
    if np.any(degenerate):
        warnings.warn(
            f"uniform fallback for surface index {np.flatnonzero(degenerate).tolist()}: "
            "degenerate moderate-SNR weight",
            UniformFallbackWarning,
            stacklevel=2,
        )
        p[degenerate] = p_avg
        live = ~degenerate
        if np.any(live):
            budget_live = float((total - int(counts[degenerate].sum())) * p_avg)
            p[live] = w[live] * budget_live / float(np.dot(counts[live], w[live]))
    else:
        p = w * (total * p_avg) / float(np.dot(counts.astype(np.float64), w))
    return PerRisPowers(p_k=p)


def allocate_equal_m(ls: LargeScale, num_ris: int, p_avg: float) -> PerRisPowers:
    """Closed form when every surface has the same element count.

    Power goes with the inverse square root of the cascade amplitude,
    so p_k * sqrt(beta_k) is the same for every surface.
    """
    if num_ris != ls.num_ris:
        raise ValueError(f"num_ris {num_ris} does not match the {ls.num_ris} cascaded gains")
    if p_avg <= 0.0:
        raise ValueError(f"average pilot power must be positive, got {p_avg}")
    root_beta = np.sqrt(ls.beta)
    denom = root_beta * float(np.sum(1.0 / root_beta))
    return PerRisPowers(p_k=num_ris * p_avg / denom)


def allocate_large_m(ls: LargeScale, element_counts, p_avg: float) -> PerRisPowers:
    """Closed form for many elements per surface.

    Reduces exactly to the equal-count form when all counts agree, and
    that case is routed through it so the two agree bit for bit.
    """
    counts = _counts(element_counts)
    _check_inputs(ls, counts, p_avg)
    if np.all(counts == counts[0]):
        return allocate_equal_m(ls, ls.num_ris, p_avg)
    root_beta = np.sqrt(ls.beta)
    denom = root_beta * float(np.sum(counts / root_beta))
    return PerRisPowers(p_k=int(counts.sum()) * p_avg / denom)


def multiplier_spread(residuals: np.ndarray) -> float:
    """(max r - min r) / max |r| over the per-surface multipliers; 0 if all vanish."""
    scale = float(np.max(np.abs(residuals)))
    return float((residuals.max() - residuals.min()) / scale) if scale > 0.0 else 0.0


def _newton_step(m: np.ndarray, obj: SurfaceObjective) -> np.ndarray:
    """Newton direction for maximizing phi on the budget hyperplane m . d = 0.

    Solves H d + grad = lambda m with H = diag(curvature) + 2 slope slope^T
    by Sherman-Morrison, in O(K): d = a - (m . a / m . b) b with
    a = H^-1 (-grad) and b = H^-1 m. A singular system gives non-finite
    entries, which the caller treats as no Newton step.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = obj.slope / obj.curvature
        denom = 1.0 + 2.0 * np.dot(obj.slope, w)

        def solve(x):
            x = x / obj.curvature
            return x - (2.0 * np.dot(obj.slope, x) / denom) * w

        a = solve(-m * obj.residual)
        b = solve(m)
        return a - (np.dot(m, a) / np.dot(m, b)) * b


def _ascends(step: np.ndarray, grad: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(step)) and np.dot(grad, step) > 0.0)


# A returned answer's multiplier spread is at most this (or tol, if larger).
_CERTIFIED_SPREAD = 1e-9


def allocate_exact_numeric(
    ls: LargeScale,
    element_counts,
    p_avg: float,
    sigma_z_sq: float,
    tol: float = 1e-12,
    *,
    max_iter: int = 100,
    start: np.ndarray | None = None,
) -> PerRisPowers:
    """Maximize the exact gain objective over the budget hyperplane.

    Solves the Lagrange (KKT) conditions, one multiplier shared by every
    surface's stationarity_residual, with Newton steps from the uniform
    point (or a caller supplied start). A Newton step that does not
    ascend is replaced by the step from the Hessian's diagonal alone, and
    that one by the projected gradient; every step is capped so the
    powers stay positive, rescaled onto the budget and backtracked on
    phi. The loop stops when the multiplier spread falls below tol or
    a step no longer moves the powers. The answer is returned only if its
    spread is below max(tol, 1e-9); otherwise NonConvergenceError carries
    the best iterate and its residuals.
    """
    counts = _counts(element_counts)
    _check_inputs(ls, counts, p_avg)
    if sigma_z_sq < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {sigma_z_sq}")
    m = counts.astype(np.float64)
    b2 = ls.beta_sq
    budget = float(counts.sum() * p_avg)

    p = np.full(ls.num_ris, p_avg) if start is None else np.asarray(start, dtype=np.float64).copy()
    if p.size != ls.num_ris or np.any(p <= 0.0):
        raise ValueError("start must be a positive vector with one entry per surface")
    p = np.maximum(p, 1e-6 * p_avg)
    p *= budget / float(np.dot(m, p))
    cur = surface_objective(b2, m, p, sigma_z_sq)
    if not np.any(cur.residual):
        # flat objective (noiseless training): every allocation is optimal
        return PerRisPowers(p_k=np.full(ls.num_ris, p_avg))

    best_p, best_phi = p, cur.phi
    iterations = 0
    while iterations < max_iter and multiplier_spread(cur.residual) >= tol:
        iterations += 1
        # removing the mean multiplier keeps the ascent test free of
        # cancellation near the optimum; steps are in-plane either way
        grad = m * (cur.residual - np.mean(cur.residual))
        step = _newton_step(m, cur)
        if not _ascends(step, grad):
            # far from the optimum the rank-one part can make the model
            # indefinite on the plane; its diagonal alone often still ascends
            step = _newton_step(m, cur._replace(slope=np.zeros_like(cur.slope)))
        if not _ascends(step, grad):
            step = grad - (np.dot(m, grad) / np.dot(m, m)) * m
            step *= 0.5 / np.max(np.abs(step) / p)
        # no power falls below a tenth of its value in one step
        shrinking = step < 0.0
        t = 1.0
        if np.any(shrinking):
            t = min(t, 0.9 * float(np.min(-p[shrinking] / step[shrinking])))
        # phi is flat to rounding near the optimum: tolerate a loss at that level
        floor = cur.phi - 1e-14 * abs(cur.phi)
        for _ in range(60):
            cand = p + t * step
            cand *= budget / float(np.dot(m, cand))
            trial = surface_objective(b2, m, cand, sigma_z_sq)
            if trial.phi >= floor:
                break
            t *= 0.5
        else:
            break
        if np.array_equal(cand, p):
            break
        p, cur = cand, trial
        if cur.phi > best_phi:
            best_p, best_phi = p, cur.phi

    certified = max(tol, _CERTIFIED_SPREAD)
    if multiplier_spread(stationarity_residual(ls, counts, p, sigma_z_sq)) < certified:
        return PerRisPowers(p_k=p)
    residuals = stationarity_residual(ls, counts, best_p, sigma_z_sq)
    raise NonConvergenceError(
        f"no convergence after {iterations} iterations (cap {max_iter}): "
        f"multiplier spread {multiplier_spread(residuals):.3e} vs {certified:.1e}",
        best_powers=best_p,
        residuals=residuals,
    )


# CLI vocabulary for the allocators, with spelled-out aliases
ALLOCATOR_IDS = ("uniform", "eq27", "eq28", "eq29", "exact")
_ALIASES = {
    "average": "uniform",
    "moderate-snr": "eq27",
    "large-m": "eq28",
    "equal-m": "eq29",
    "numeric": "exact",
}


def resolve_allocator(name: str) -> str:
    canonical = _ALIASES.get(name, name)
    if canonical not in ALLOCATOR_IDS:
        raise ValueError(
            f"unknown allocator {name!r}, expected one of {', '.join(ALLOCATOR_IDS)}"
        )
    return canonical


def run_allocator(name: str, s: Scenario, ls: LargeScale) -> PerRisPowers:
    canonical = resolve_allocator(name)
    counts = s.element_counts
    if canonical == "uniform":
        return allocate_average(s)
    if canonical == "eq27":
        return allocate_moderate_snr(ls, counts, s.p_avg)
    if canonical == "eq28":
        return allocate_large_m(ls, counts, s.p_avg)
    if canonical == "eq29":
        if not np.all(counts == counts[0]):
            raise ValueError("allocator 'eq29' needs equal element counts on every surface")
        return allocate_equal_m(ls, s.num_ris, s.p_avg)
    return allocate_exact_numeric(ls, counts, s.p_avg, s.sigma_z_sq)
