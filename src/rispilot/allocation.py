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

import warnings
from typing import NamedTuple

import numpy as np

from .analysis import SurfaceObjective, surface_objective
from .estimation import PerRisPowers
from .scenario import Link, equal_counts

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
    """The numeric solver stopped without a certified stationary point."""

    def __init__(self, message: str, best_powers: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.best_powers = best_powers
        self.residuals = residuals


def allocate_average(link: Link) -> PerRisPowers:
    """Every surface trains at the average power."""
    return PerRisPowers(p_k=np.full(link.num_ris, link.p_avg))


def allocate_moderate_snr(link: Link) -> PerRisPowers:
    """Closed form for the regime where estimation noise is a perturbation.

    Weights are sqrt(S / beta_k - 1) with S the count-weighted sum of
    the cascade amplitudes, normalized to the budget. S >= beta_k for
    every surface, so the radicand is nonnegative up to rounding; a
    radicand at zero (single surface with a single element) degenerates
    to uniform power for the affected surfaces, with a warning.
    """
    counts, p_avg = link.counts, link.p_avg
    s_amp = float(np.dot(counts.astype(np.float64), link.beta))
    ratio = s_amp / link.beta
    radicand = ratio - 1.0
    degenerate = radicand <= 1e-12 * ratio
    w = np.sqrt(np.where(degenerate, 0.0, radicand))
    p = np.full(link.num_ris, p_avg)
    if np.any(degenerate):
        warnings.warn(
            f"uniform fallback for surface index {np.flatnonzero(degenerate).tolist()}: "
            "degenerate moderate-SNR weight",
            UniformFallbackWarning,
            stacklevel=2,
        )
    live = ~degenerate
    if np.any(live):
        budget_live = float((int(counts.sum()) - int(counts[degenerate].sum())) * p_avg)
        p[live] = w[live] * budget_live / float(np.dot(counts[live], w[live]))
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
        denom = root_beta * float(np.sum(1.0 / root_beta))
        return PerRisPowers(p_k=link.num_ris * link.p_avg / denom)
    denom = root_beta * float(np.sum(counts / root_beta))
    return PerRisPowers(p_k=int(counts.sum()) * link.p_avg / denom)


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


# numpy's reductions without the Python layer of np.sum and np.max, which
# costs more than the arithmetic on a few surfaces
_sum, _max, _min, _any = np.add.reduce, np.maximum.reduce, np.minimum.reduce, np.logical_or.reduce


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

    powers is the certified answer where certified is set, else the best
    iterate found (highest phi); residuals and spread are those of powers.
    iterations counts the steps each row took.
    """

    powers: np.ndarray
    residuals: np.ndarray
    spread: np.ndarray
    iterations: np.ndarray
    certified: np.ndarray

    def row(self, i: int) -> np.ndarray:
        """Row i's certified powers; NonConvergenceError if it has none."""
        if not self.certified[i]:
            raise NonConvergenceError(
                f"no convergence after {self.iterations[i]} iterations (cap {_MAX_ITER}): "
                f"multiplier spread {self.spread[i]:.3e} vs {_CERTIFIED_SPREAD:.1e}",
                best_powers=self.powers[i].copy(),
                residuals=self.residuals[i].copy(),
            )
        return self.powers[i]


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
    Jacobian's diagonal alone, and that one by the projected gradient. A
    candidate p exp(t d) is shifted back onto the budget (a uniform shift
    of u) and backtracked on phi. A row stops when its multiplier spread
    falls below _TOL, when a step no longer moves it, or after _MAX_ITER
    steps; it is certified if its final spread is below 1e-9.
    Rows never mix: a row's answer is the same bits whichever other rows
    are solved with it.
    """
    b2 = np.asarray(beta_sq, dtype=np.float64)
    n, k = b2.shape
    counts = _filled(counts, (n, k))
    p_avg = _filled(np.reshape(p_avg, (-1, 1)), (n, 1))
    sigma = _filled(np.reshape(sigma_z_sq, (-1, 1)), (n, 1))
    budget = _sum(counts, axis=-1, keepdims=True) * p_avg
    inputs = [counts, b2, sigma, budget]

    out_p, out_r, out_best = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
    out_it = np.zeros(n, dtype=np.int64)
    with np.errstate(all="ignore"):
        p = _filled(p_avg, (n, k))
        p *= budget / _rowdot(counts, p)
        cur = surface_objective(b2, counts, p, sigma)
        # flat objective (noiseless training): every allocation is optimal
        flat = ~_any(cur.residual != 0.0, axis=-1)
        if np.count_nonzero(flat):
            p[flat] = _filled(p_avg, (n, k))[flat]
        # the rows still iterating, and their share of the inputs
        live, state = np.arange(n), inputs
        best_p, best_phi = p, cur.phi
        stopped = np.zeros(n, dtype=bool)
        iterations = 0
        while True:
            r = cur.residual
            high, low = _max(r, axis=-1), _min(r, axis=-1)
            # the spread below _TOL, without dividing by a scale that may be 0
            done = stopped | (high - low <= _TOL * np.maximum(high, -low))
            if iterations >= _MAX_ITER:
                done[:] = True
            finished = np.count_nonzero(done)
            if finished:
                rows = live[done]
                out_p[rows], out_r[rows], out_best[rows] = p[done], r[done], best_p[done]
                out_it[rows] = iterations
                if finished == live.size:
                    break
                keep = ~done
                live, p, best_p, best_phi = live[keep], p[keep], best_p[keep], best_phi[keep]
                state = [x[keep] for x in state]
                cur = SurfaceObjective(*(x[keep] for x in cur))
                r = cur.residual
            m, b2, sigma, budget = state
            iterations += 1

            mp = m * p
            lam = _rowdot(mp * mp, r) / _rowdot(mp, mp)
            # phi's gradient in u less the multiplier's part: in-plane, and
            # free of cancellation near the optimum
            grad = mp * (r - lam)
            # d log r / du = diag(diag) + e f^T, from phi's Hessian in p
            mr = m * r
            z, diag = np.log(r / lam), p * cur.curvature / mr
            step = _newton_step(mp, z, diag, 2.0 * cur.slope / mr, p * cur.slope)
            ok = _ascends(step, grad)
            if np.count_nonzero(ok) < ok.size:
                # far from the optimum the rank-one coupling can point the
                # step downhill; the diagonal alone often still ascends
                step = np.where(ok[:, None], step, _newton_step(mp, z, diag))
                ok = _ascends(step, grad)
                if np.count_nonzero(ok) < ok.size:
                    scaled = grad * (0.5 / _max(np.abs(grad), axis=-1, keepdims=True))
                    step = np.where(ok[:, None], step, scaled)

            # phi is flat to rounding near the optimum: tolerate a loss at that
            # level, which is set by G^2, the larger of the two terms phi = G^2 -
            # sum h subtracts. When one surface's g_k dwarfs the others, phi is
            # far below G^2 and |phi| would understate its rounding.
            big_g = _sum(cur.coherent, axis=-1)
            floor = cur.phi - 1e-14 * (big_g * big_g)
            cand = p * np.exp(step)
            cand *= budget / _rowdot(m, cand)
            trial = surface_objective(b2, m, cand, sigma)
            short = ~(trial.phi >= floor)
            if np.count_nonzero(short):
                short, t = np.flatnonzero(short), 1.0
                for _ in range(_TRIES - 1):
                    t *= 0.5
                    sub = p[short] * np.exp(t * step[short])
                    sub *= budget[short] / _rowdot(m[short], sub)
                    again = surface_objective(b2[short], m[short], sub, sigma[short])
                    good = again.phi >= floor[short]
                    rows = short[good]
                    cand[rows] = sub[good]
                    for field, value in zip(trial, again):
                        field[rows] = value[good]
                    short = short[~good]
                    if not short.size:
                        break
            stopped = ~_any(cand != p, axis=-1)
            stopped[short] = True
            if np.count_nonzero(stopped):
                # a row that cannot move keeps its point and is done
                moved = ~stopped
                p = np.where(moved[:, None], cand, p)
                cur = SurfaceObjective(*(
                    np.where(moved if new.ndim == 1 else moved[:, None], new, old)
                    for new, old in zip(trial, cur)
                ))
            else:
                p, cur = cand, trial
            better = cur.phi > best_phi
            if np.count_nonzero(better) == better.size:
                best_p, best_phi = p, cur.phi
            elif np.count_nonzero(better):
                best_p = np.where(better[:, None], p, best_p)
                best_phi = np.where(better, cur.phi, best_phi)

        spread = multiplier_spread(out_r)
        certified = spread < _CERTIFIED_SPREAD
        lost = np.flatnonzero(~certified)
        if lost.size:
            out_p[lost] = out_best[lost]
            m, b2, sigma, _ = (x[lost] for x in inputs)
            out_r[lost] = surface_objective(b2, m, out_p[lost], sigma).residual
            spread[lost] = multiplier_spread(out_r[lost])
    return ExactSolution(out_p, out_r, spread, out_it, certified)


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
    NonConvergenceError carrying the best iterate and its residuals.
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
    sol = solve_exact(link.beta_sq[None], link.counts, link.p_avg, link.sigma_z_sq)
    return PerRisPowers(p_k=sol.row(0))
