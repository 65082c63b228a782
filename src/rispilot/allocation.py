"""Pilot power allocators, one power per surface.

All allocators spread a fixed total training energy: with counts M_k
and average power p_avg, the per-surface powers satisfy
sum_k M_k p_k = (sum_k M_k) * p_avg. Inside a surface every element
trains at its surface's power, which is optimal by symmetry of the
gain formula. Two closed forms cover the moderate-SNR and many-element
regimes, the second with its equal-count case; the numeric solver
maximizes the exact objective by solving its Lagrange conditions with
Newton steps in log powers, for many problems at once.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .analysis import SurfaceObjective, surface_objective
from .estimation import PerRisPowers
from .scenario import Link, equal_counts

# numpy's reductions without the Python layer of np.sum, np.max and np.all,
# which costs more than the arithmetic on a few surfaces
_sum, _max, _min = np.add.reduce, np.maximum.reduce, np.minimum.reduce
_any, _all = np.logical_or.reduce, np.logical_and.reduce

__all__ = [
    "PerRisPowers",
    "UniformFallbackWarning",
    "NonConvergenceError",
    "allocate_average",
    "allocate_moderate_snr",
    "allocate_large_m",
    "ExactSolution",
    "solve_exact",
    "multiplier_spread",
    "ALLOCATOR_IDS",
    "resolve_allocator",
    "run_allocator",
]


class UniformFallbackWarning(UserWarning):
    """Some surfaces got uniform power because their weight degenerated."""


class NonConvergenceError(RuntimeError):
    """The numeric solver stopped uncertified; the message says where."""


def allocate_average(link: Link) -> PerRisPowers:
    """Every surface trains at the average power."""
    return PerRisPowers(p_k=np.full(link.num_ris, link.p_avg))


def allocate_moderate_snr(link: Link) -> PerRisPowers:
    """Closed form for the regime where estimation noise is a perturbation.

    Weights are sqrt(S / beta_k - 1) with S the count-weighted sum of
    the cascade amplitudes, normalized to the budget. S >= beta_k for
    every surface, so the radicand is nonnegative up to rounding; a
    radicand at zero (single surface with a single element) degenerates
    to uniform power for the affected surfaces, with a warning. Where
    S / beta_k overflows, the weight is sqrt(S) * sqrt(1 / beta_k - 1 / S),
    which stays in range for every valid link.
    """
    counts, p_avg = link.counts, link.p_avg
    s_amp = float(np.dot(counts.astype(np.float64), link.beta))
    with np.errstate(over="ignore"):
        ratio = s_amp / link.beta
    radicand = ratio - 1.0
    overflowed = np.isinf(ratio)
    degenerate = (radicand <= 1e-12 * ratio) & ~overflowed
    w = np.sqrt(np.where(degenerate, 0.0, radicand))
    if _any(overflowed):
        w[overflowed] = math.sqrt(s_amp) * np.sqrt(1.0 / link.beta[overflowed] - 1.0 / s_amp)
    p = np.full(link.num_ris, p_avg)
    if _any(degenerate):
        warnings.warn(
            f"uniform fallback for surface index {np.flatnonzero(degenerate).tolist()}: "
            "degenerate moderate-SNR weight",
            UniformFallbackWarning,
            stacklevel=2,
        )
    live = ~degenerate
    if _any(live):
        budget_live = float((int(counts.sum()) - int(counts[degenerate].sum())) * p_avg)
        w, dot = w[live], float(np.dot(counts[live], w[live]))
        with np.errstate(over="ignore"):
            spent = w * budget_live
        # where that product overflows, dividing first keeps p_k <= budget / M_k
        p[live] = np.where(np.isinf(spent), w / dot * budget_live, spent / dot)
    return _in_range(p, "eq27")


def _in_range(p: np.ndarray, name: str) -> PerRisPowers:
    """A closed form's powers p; ArithmeticError where one left the float range."""
    if not _all((p > 0.0) & (p < np.inf)):
        raise ArithmeticError(f"{name} pilot powers leave the float range: {p.tolist()}")
    return PerRisPowers(p_k=p)


def allocate_large_m(link: Link) -> PerRisPowers:
    """Closed form for many elements per surface.

    When every surface has the same element count it reduces to the
    paper's eq. (29): power goes with the inverse square root of the
    cascade amplitude, so p_k * sqrt(beta_k) is the same for every
    surface. That case keeps eq. (29)'s own arithmetic, which rounds
    differently from the general form, so its outputs keep their bits.
    """
    counts = link.counts
    root_beta = np.sqrt(link.beta)
    if equal_counts(counts):
        denom = root_beta * float(_sum(1.0 / root_beta))
        return _in_range(link.num_ris * link.p_avg / denom, "eq28")
    denom = root_beta * float(_sum(counts / root_beta))
    return _in_range(int(counts.sum()) * link.p_avg / denom, "eq28")


def multiplier_spread(residuals):
    """(max r - min r) / max |r| over the per-surface multipliers; 0 if all vanish.

    For (rows, K) residuals, one spread per row. A non-finite residual
    gives a non-finite spread, which certifies nothing.
    """
    r = np.asarray(residuals)
    scale = np.max(np.abs(r), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.where(scale == 0.0, 0.0, (np.max(r, axis=-1) - np.min(r, axis=-1)) / scale)
    return float(spread) if spread.ndim == 0 else spread


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.vecdot(a, b)[:, None]


def _filled(value, shape) -> np.ndarray:
    out = np.empty(shape)
    out[...] = value
    return out


def _newton_step(normal, z, diag, e=None, f=None):
    """Newton step d that makes z + J d the same on every surface, per row.

    J = diag(diag) + e f^T is the Jacobian of z in u, and d stays on the
    plane normal . d = 0. By Sherman-Morrison, in O(K): d = (normal . b /
    normal . a) a - b with a = J^-1 1 and b = J^-1 z. Without e and f, J
    is its diagonal alone. A singular system gives non-finite entries,
    which the caller treats as no Newton step.
    """
    a = 1.0 / diag
    b = z / diag
    if e is not None:
        w = e / diag
        c = 1.0 / (1.0 + _rowdot(f, w))
        a -= (c * _rowdot(f, a)) * w
        b -= (c * _rowdot(f, b)) * w
    return (_rowdot(normal, b) / _rowdot(normal, a)) * a - b


def _ascends(step: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # a non-finite entry of step makes the dot product inf or nan
    slope = _rowdot(grad, step)[:, 0]
    return (slope > 0.0) & (slope < np.inf)


# a row stops iterating once its multiplier spread is below _TOL, or after
# _MAX_ITER steps; a returned answer's spread is below _CERTIFIED_SPREAD
_TOL = 1e-12
_MAX_ITER = 100
_CERTIFIED_SPREAD = 1e-9
# backtracking tries a step at most this many times, halving it each time
_TRIES = 60


class ExactSolution(NamedTuple):
    """solve_exact's answer, one row per problem.

    powers is the point where each row stopped, certified where certified
    is set; spread is that point's multiplier spread, iterations its step
    count. A tuple of arrays, it does not compare with ==: compare fields.
    """

    powers: np.ndarray
    spread: np.ndarray
    iterations: np.ndarray
    certified: np.ndarray

    def row(self, i: int) -> PerRisPowers:
        """Row i's certified powers as the allocation type every caller
        takes; NonConvergenceError if the row has none."""
        if not self.certified[i]:
            raise NonConvergenceError(
                f"no convergence after {self.iterations[i]} iterations (cap {_MAX_ITER}): "
                f"multiplier spread {self.spread[i]:.3e} vs {_CERTIFIED_SPREAD:.1e}"
            )
        return PerRisPowers(p_k=self.powers[i])


def solve_exact(beta_sq, counts, p_avg, sigma_z_sq) -> ExactSolution:
    """Maximize the exact gain objective over each row's budget.

    beta_sq is (rows, K); counts is (rows, K) or (K,); p_avg and
    sigma_z_sq are scalars or hold one entry per row. Inputs are not
    validated here: a Link has checked them.

    Each row solves the Lagrange (KKT) conditions, one multiplier shared
    by every surface's stationarity_residual r_k, from the uniform point.
    Steps are Newton steps in u = log p on the conditions in logs,
    log r_k(u) = nu for every surface: their Jacobian in u is diagonal
    plus rank one, like phi's Hessian, so a step costs O(K) by
    Sherman-Morrison. In logs a surface whose optimal power lies many
    decades below the others gets there in a step or two, where phi is
    flat to rounding and cannot guide it; Newton on phi itself in u would
    stall there, as phi grows like sqrt(p) = exp(u / 2), convex in u. A
    step that does not ascend phi is replaced by the step from the
    Jacobian's diagonal alone, the only fallback. Every candidate
    p exp(t d) is shifted back onto the budget (a uniform shift of u) and
    backtracked on phi. A row stops when its multiplier spread
    falls below _TOL, when a step no longer moves it, or after _MAX_ITER
    steps; it is certified if its final spread is below 1e-9.

    Every row stays in the batch for the whole solve. A finished row is
    frozen in place with the point where it stopped. Backtracking
    halves each short row's own step length t and evaluates the whole
    batch again, where a row already passing, or finished, recomputes its
    own bits. Rows never mix: a row's answer is the same bits alone or in
    any batch.
    """
    b2 = np.asarray(beta_sq, dtype=np.float64)
    n, k = b2.shape
    m = _filled(counts, (n, k))
    p_avg = _filled(np.reshape(p_avg, (-1, 1)), (n, 1))
    sigma = _filled(np.reshape(sigma_z_sq, (-1, 1)), (n, 1))
    budget = _sum(m, axis=-1, keepdims=True) * p_avg

    with np.errstate(all="ignore"):
        p = _filled(p_avg, (n, k))
        p *= budget / _rowdot(m, p)
        cur = surface_objective(b2, m, p, sigma)
        # flat objective (noiseless training): every allocation is optimal
        flat = ~_any(cur.residual != 0.0, axis=-1)
        if np.count_nonzero(flat):
            p[flat] = _filled(p_avg, (n, k))[flat]
        done = np.zeros(n, dtype=bool)
        iterations = np.zeros(n, dtype=np.int64)
        for _ in range(_MAX_ITER):
            r = cur.residual
            high, low = _max(r, axis=-1), _min(r, axis=-1)
            # the spread below _TOL, without dividing by a scale that may be 0
            done |= high - low <= _TOL * np.maximum(high, -low)
            if np.count_nonzero(done) == n:
                break
            iterations += ~done

            mp = m * p
            lam = _rowdot(mp * mp, r) / _rowdot(mp, mp)
            # phi's gradient in u less the multiplier's part: in-plane, and
            # free of cancellation near the optimum
            grad = mp * (r - lam)
            # d log r / du = diag(diag) + e f^T, from phi's Hessian in p
            mr = m * r
            z, diag = np.log(r / lam), p * cur.curvature / mr
            step = _newton_step(mp, z, diag, 2.0 * cur.slope / mr, p * cur.slope)
            ok = _ascends(step, grad) | done
            if np.count_nonzero(ok) < n:
                # far from the optimum the rank-one coupling can point the
                # step downhill; the diagonal alone often still ascends
                step = np.where(ok[:, None], step, _newton_step(mp, z, diag))

            # phi is flat to rounding near the optimum: tolerate a loss at that
            # level, which is set by G^2, the larger of the two terms phi = G^2 -
            # sum h subtracts. When one surface's g_k dwarfs the others, phi is
            # far below G^2 and |phi| would understate its rounding.
            big_g = _sum(cur.coherent, axis=-1)
            floor = cur.phi - 1e-14 * (big_g * big_g)
            t = 1.0
            for _ in range(_TRIES):
                cand = p * np.exp(t * step)
                cand *= budget / _rowdot(m, cand)
                trial = surface_objective(b2, m, cand, sigma)
                short = ~((trial.phi >= floor) | done)
                if not np.count_nonzero(short):
                    break
                t = np.where(short[:, None], 0.5 * t, t)
            # a row that cannot move keeps its point and is done
            stopped = done | short | ~_any(cand != p, axis=-1)
            if np.count_nonzero(stopped):
                moved = ~stopped
                p = np.where(moved[:, None], cand, p)
                cur = SurfaceObjective(*(
                    np.where(moved if new.ndim == 1 else moved[:, None], new, old)
                    for new, old in zip(trial, cur)
                ))
            else:
                p, cur = cand, trial
            done = stopped
        spread = multiplier_spread(cur.residual)
    return ExactSolution(p, spread, iterations, spread < _CERTIFIED_SPREAD)


# CLI vocabulary for the allocators, with spelled-out aliases
ALLOCATOR_IDS = ("uniform", "eq27", "eq28", "exact")
_ALIASES = {
    "average": "uniform",
    "moderate-snr": "eq27",
    "large-m": "eq28",
    "eq29": "eq28",
    "equal-m": "eq28",
    "numeric": "exact",
}


def resolve_allocator(name: str) -> str:
    canonical = _ALIASES.get(name, name)
    if canonical not in ALLOCATOR_IDS:
        raise ValueError(
            f"unknown allocator {name!r}, expected one of {', '.join(ALLOCATOR_IDS)}"
        )
    return canonical


def run_allocator(name: str, link: Link, others=None):
    """Pilot powers from one allocator for link.

    `exact` alone returns link's certified powers, or raises
    NonConvergenceError naming where the solve stopped.
    For `exact`, a list of other links with as many surfaces may follow,
    such as the other user positions of one layout or the other budgets
    of a pilot-power sweep. link and the others are solved in one call,
    each with its own counts, average pilot power and training noise, and
    the ExactSolution comes back for the caller to read row by row, row 0
    being link.
    """
    canonical = resolve_allocator(name)
    if others is not None:
        if canonical != "exact":
            raise TypeError(f"allocator {canonical!r} solves one link at a time")
        problems = [link, *others]
        return solve_exact(
            np.stack([x.beta_sq for x in problems]), np.stack([x.counts for x in problems]),
            [x.p_avg for x in problems], [x.sigma_z_sq for x in problems],
        )
    if canonical == "uniform":
        return allocate_average(link)
    if canonical == "eq27":
        return allocate_moderate_snr(link)
    if canonical == "eq28":
        return allocate_large_m(link)
    return solve_exact(link.beta_sq[None], link.counts, link.p_avg, link.sigma_z_sq).row(0)
