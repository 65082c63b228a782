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

__all__ = [
    "PerRisPowers",
    "noise_scales",
    "ls_estimate",
]


@dataclass(frozen=True, eq=False)
class PerRisPowers:
    """One pilot power per surface, in watts, at which each of its elements trains."""

    p_k: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p_k, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("p_k must be a nonempty 1-D array")
        if not np.logical_and.reduce(np.isfinite(arr)) or np.logical_or.reduce(arr <= 0.0):
            raise ValueError("every per-surface power must be finite and positive")
        arr.setflags(write=False)
        object.__setattr__(self, "p_k", arr)

    @property
    def num_ris(self) -> int:
        return self.p_k.size


def noise_scales(element_counts, powers: PerRisPowers, sigma_z_sq: float) -> np.ndarray:
    """delta_k = sqrt(sigma_z_sq / p_k) on each of surface k's elements.

    The LS estimate's error is unit noise scaled by these. A trial range
    derives them once per estimated row, and checks here that there is
    one power per surface and that sigma_z_sq is nonnegative.
    """
    counts = np.asarray(element_counts)
    if powers.num_ris != counts.size:
        raise ValueError(f"{powers.num_ris} pilot powers for {counts.size} surfaces")
    if sigma_z_sq < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {sigma_z_sq}")
    delta = np.repeat(np.sqrt(sigma_z_sq / powers.p_k), counts)
    delta.setflags(write=False)  # one vector serves every chunk of a range
    return delta


def ls_estimate(h: np.ndarray, delta: np.ndarray, noise: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """LS estimates of a chunk of cascaded coefficients, one row per trial.

    h and noise are (trials, sum(M_k)); noise holds unit complex normals
    from unit_normals with PURPOSE_PILOT_NOISE. The estimate is h plus
    noise scaled by delta, each element's delta_k from noise_scales, the
    exact form left once the pilot symbol and the training phase cancel,
    so neither appears here. out, a complex128 array shaped like h that
    shares no memory with h, receives the estimate in place of a new array.
    """
    if h.shape != noise.shape or h.shape[-1] != delta.size:
        raise ValueError(f"channel {h.shape} and noise {noise.shape} must both have "
                         f"{delta.size} elements per trial")
    if out is not None and np.may_share_memory(out, h):
        raise ValueError("out must not share memory with h, which it would overwrite")
    est = np.multiply(noise, delta, out=out)
    est += h
    return est
