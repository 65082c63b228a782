"""Closed-form ergodic gain of the aligned composite channel.

With independent zero-mean complex Gaussian cascades and conjugate
alignment against noisy LS estimates, the expected composite power
splits into an incoherent part plus two structured sums: coherent
combining across elements of the same surface, and coherent combining
across surfaces. Every element of a surface trains at the surface's
pilot power, and both structured sums are damped per element by
1 / sqrt(beta_sq + mse), which is where the pilot powers enter. The
one-problem functions take the problem's `scenario.Link` and its
`PerRisPowers`; the closed form needs nothing else of the link.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import PerRisPowers
from .scenario import Link

__all__ = [
    "GainBreakdown",
    "ModelAssumptionWarning",
    "alignment_mean",
    "ergodic_gain_closed_form",
    "ergodic_gain_rows",
    "model_applies",
    "objective_phi",
    "stationarity_residual",
    "SurfaceObjective",
    "surface_objective",
]

_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
# np.add.reduce without np.sum's Python layer: surface_objective is the solver's inner loop
_sum = np.add.reduce
_QUARTER_PI = 0.25 * math.pi


class ModelAssumptionWarning(UserWarning):
    """The closed form was evaluated outside its channel model."""


def alignment_mean(beta_sq: float, delta_sq: float) -> float:
    """Mean real part of one conjugate-aligned coefficient.

    For h ~ CN(0, beta_sq) aligned against h + eps, eps ~ CN(0, delta_sq):
    sqrt(pi) * beta_sq / (2 * sqrt(beta_sq + delta_sq)). The imaginary
    part has mean zero by circular symmetry.
    """
    if beta_sq <= 0.0:
        raise ValueError(f"beta_sq must be positive, got {beta_sq}")
    if delta_sq < 0.0:
        raise ValueError(f"delta_sq must be nonnegative, got {delta_sq}")
    return _HALF_SQRT_PI * beta_sq / math.sqrt(beta_sq + delta_sq)


@dataclass(frozen=True)
class GainBreakdown:
    """Ergodic composite power, split by combining mechanism.

    From ergodic_gain_rows, each field holds one entry per row.
    """

    incoherent: float
    intra_ris: float
    inter_ris: float
    total: float


def _checked(link: Link, powers: PerRisPowers) -> np.ndarray:
    """link's counts as floats, once powers has one per surface; PerRisPowers
    has checked that each is finite and positive."""
    if powers.num_ris != link.num_ris:
        raise ValueError(f"{powers.num_ris} pilot powers for {link.num_ris} surfaces")
    return link.counts.astype(np.float64)


def _coupling_sums(beta_sq, counts, p, sigma_z_sq):
    """The two coupling sums of the gain formula, without the pi/4 factor, per row.

    Surface k keeps (1 - 1/M_k) g_k^2 for its distinct element pairs and
    g_k (G - g_k) across surfaces: nonnegative terms only, so a lone
    element or surface adds exactly zero, where G^2 - sum_k h_k rounds.
    """
    g = _damped(beta_sq, counts, p, sigma_z_sq)[2]
    intra = np.vecdot(1.0 - 1.0 / counts, g * g)
    inter = np.vecdot(g, _sum(g, axis=-1, keepdims=True) - g)
    return intra, inter


def ergodic_gain_rows(beta_sq, counts, p, sigma_z_sq) -> GainBreakdown:
    """The closed form of ergodic_gain_closed_form for many problems at once.

    beta_sq, counts and p are (rows, K) arrays and sigma_z_sq is a scalar
    or a (rows, 1) column; every field of the result holds one entry per
    row. Inputs are not validated, and whether the model holds is left to
    the caller (see model_applies). Row sums are np.vecdot, which gives
    each row the bits np.dot gives it alone.
    """
    intra, inter = _coupling_sums(beta_sq, counts, p, sigma_z_sq)
    incoherent = np.vecdot(counts, beta_sq)
    intra *= _QUARTER_PI
    inter *= _QUARTER_PI
    return GainBreakdown(
        incoherent=incoherent, intra_ris=intra, inter_ris=inter,
        total=incoherent + intra + inter,
    )


def ergodic_gain_closed_form(link: Link, powers: PerRisPowers) -> GainBreakdown:
    """Expected composite power under conjugate alignment to LS estimates.

    Exact for independent CN(0, beta_sq) cascades, which is the
    deterministic-BS-link, fully-scattered-user-link model; model_applies
    says whether link has it. This is the one-row case of
    ergodic_gain_rows, whose fields are then numpy float64 scalars.
    """
    return ergodic_gain_rows(link.beta_sq, _checked(link, powers), powers.p_k, link.sigma_z_sq)


def model_applies(link: Link) -> bool:
    """Whether link has the closed form's channel model, k_br = inf and k_ru = 0.

    Where it does not, a ModelAssumptionWarning is emitted.
    """
    valid = math.isinf(link.k_br) and link.k_ru == 0.0
    if not valid:
        warnings.warn(
            "closed form assumes a deterministic BS link and a fully "
            "scattered user link; this scenario violates that",
            ModelAssumptionWarning,
            stacklevel=2,
        )
    return valid


def objective_phi(link: Link, powers: PerRisPowers) -> float:
    """Allocation-dependent part of the ergodic gain.

    total gain = incoherent + (pi/4) * objective_phi, so maximizing this
    over the pilot powers maximizes the gain.
    """
    counts = _checked(link, powers)
    intra, inter = _coupling_sums(link.beta_sq, counts, powers.p_k, link.sigma_z_sq)
    # added as Python floats: two finite sums near the float maximum add up
    # to inf, the answer, without numpy's overflow warning
    return float(intra) + float(inter)


class SurfaceObjective(NamedTuple):
    """phi with equal power inside each surface, and its derivatives.

    The gradient in the per-surface powers is counts * residual, and the
    Hessian is 2 * outer(slope, slope) + diag(curvature). coherent holds
    each surface's damped amplitude sum g_k. For (rows, K) inputs phi
    holds one value per row and every other field is (rows, K).
    """

    phi: np.ndarray
    residual: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray
    coherent: np.ndarray


def _damped(beta_sq, counts, p, sigma_z_sq):
    """c_k = beta_sq_k + sigma_z_sq / p_k, the damping 1 / sqrt(c_k), and
    g_k = M_k beta_sq_k / sqrt(c_k): all the closed forms need of the powers."""
    c = beta_sq + sigma_z_sq / p
    damping = 1.0 / np.sqrt(c)
    return c, damping, counts * beta_sq * damping


def _stationarity(beta_sq, counts, p, sigma_z_sq):
    """The damping 1 / sqrt(c_k), g_k, rate_k, G and the residual: the part
    of surface_objective that stationarity_residual needs."""
    c, damping, g = _damped(beta_sq, counts, p, sigma_z_sq)
    rate = sigma_z_sq / (p * p * c)  # -(dc_k / dp_k) / c_k
    big_g = _sum(g, axis=-1, keepdims=True)
    residual = rate * beta_sq * damping * (big_g - beta_sq * damping)
    return damping, g, rate, big_g, residual


def surface_objective(beta_sq, counts, p, sigma_z_sq) -> SurfaceObjective:
    """objective_phi with its gradient and Hessian, for one row or many.

    With c_k = beta_sq_k + sigma_z_sq / p_k, g_k = M_k beta_sq_k / sqrt(c_k),
    G = sum_k g_k and h_k = M_k beta_sq_k^2 / c_k, phi = G^2 - sum_k h_k.
    Every term depends on its own p_k only, so the Hessian is the rank-one
    part 2 g' g'^T plus the diagonal 2 G g''_k - h''_k. Inputs are not
    validated; counts and p are float arrays whose last axis runs over
    the surfaces, and sigma_z_sq broadcasts against them (a scalar, or a
    (rows, 1) column). Rows never mix: a row's values are the same bits
    whichever other rows it is evaluated with.
    """
    damping, g, rate, big_g, residual = _stationarity(beta_sq, counts, p, sigma_z_sq)
    h = g * beta_sq * damping
    slope = 0.5 * rate * g
    two_over_p = 2.0 / p
    curvature = (
        2.0 * big_g * slope * (1.5 * rate - two_over_p) - rate * h * (2.0 * rate - two_over_p)
    )
    phi = (big_g * big_g)[..., 0] - _sum(h, axis=-1)
    return SurfaceObjective(phi, residual, slope, curvature, g)


def stationarity_residual(link: Link, powers: PerRisPowers) -> np.ndarray:
    """Per-surface candidate for the budget multiplier.

    With equal power inside each surface, the optimality condition says
    this quantity, d phi / d p_k divided by M_k, is the same for every
    surface (it equals the budget constraint's multiplier). The spread
    across surfaces therefore measures how far an allocation is from
    stationary. It is surface_objective's residual, without the
    derivatives that could overflow where the residual does not.
    """
    counts = _checked(link, powers)
    return _stationarity(link.beta_sq, counts, powers.p_k, link.sigma_z_sq)[-1]
