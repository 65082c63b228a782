"""Least-squares channel estimation under the one-element-on protocol.

Each element gets one dedicated uplink slot, so training costs as many
slots as there are elements in total. Every element of a surface trains
at its surface's pilot power p, and the LS estimate of a coefficient is
the true value plus circular Gaussian noise of variance sigma_z_sq / p;
the training reflection phase and the pilot symbol cancel out of the
estimate entirely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PURPOSE_PILOT_NOISE, ChannelRealization, RngStream, standard_complex_normal, substream
from .scenario import Scenario

__all__ = [
    "PerRisPowers",
    "ChannelEstimate",
    "estimate_mse",
    "ls_estimate",
    "pilot_overhead",
]


def estimate_mse(p: float, sigma_z_sq: float) -> float:
    """Estimation error variance for one element trained at power p."""
    if p <= 0.0:
        raise ValueError(f"pilot power must be positive, got {p}")
    if sigma_z_sq < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {sigma_z_sq}")
    return sigma_z_sq / p


@dataclass(frozen=True, eq=False)
class PerRisPowers:
    """One pilot power per surface, in watts, at which each of its elements trains."""

    p_k: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p_k, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("p_k must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("every per-surface power must be finite and positive")
        arr.setflags(write=False)
        object.__setattr__(self, "p_k", arr)

    @property
    def num_ris(self) -> int:
        return self.p_k.size


@dataclass(frozen=True, eq=False)
class ChannelEstimate:
    """LS estimates, one block per surface, and each surface's error variance."""

    estimates: tuple[np.ndarray, ...]
    mse: np.ndarray

    def __post_init__(self):
        mse = np.asarray(self.mse, dtype=np.float64)
        object.__setattr__(self, "estimates", tuple(self.estimates))
        object.__setattr__(self, "mse", mse)
        if mse.shape != (len(self.estimates),):
            raise ValueError("estimates and mse must have one entry per RIS")


def ls_estimate(
    h: ChannelRealization,
    powers: PerRisPowers,
    sigma_z_sq: float,
    rng: RngStream,
) -> ChannelEstimate:
    """LS estimate of every cascaded coefficient.

    The returned estimate is h plus circular noise of variance
    sigma_z_sq / p_k, the exact form left once the pilot symbol and the
    training phase cancel, so neither appears here.
    """
    if powers.num_ris != len(h.coefficients):
        raise ValueError(
            f"{powers.num_ris} pilot powers for {len(h.coefficients)} surfaces"
        )
    if sigma_z_sq < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {sigma_z_sq}")
    mse = sigma_z_sq / powers.p_k
    deltas = np.sqrt(mse)
    est_blocks = []
    for k, hk in enumerate(h.coefficients):
        gen = substream(rng, PURPOSE_PILOT_NOISE, k)
        est_blocks.append(hk + deltas[k] * standard_complex_normal(gen, hk.size))
    return ChannelEstimate(estimates=tuple(est_blocks), mse=mse)


def pilot_overhead(s: Scenario) -> int:
    """Training slots consumed by one sweep: one per element, summed."""
    return int(s.element_counts.sum())
