"""Phase configuration from estimates, and the composite channel.

Phases, estimates and channels are (trials, sum(M_k)) arrays, one row
per trial, as channel.sample_channels lays them out.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import PURPOSE_PHASE, trial_draws

__all__ = [
    "configure_phases",
    "random_phases",
    "composite_channel",
]


def configure_phases(est: np.ndarray) -> np.ndarray:
    """Conjugate-align each element to its estimated coefficient.

    A zero estimate carries no phase information; those elements fall
    back to coefficient 1. Multiplying by 1 / |est| skips numpy's complex
    division and gives its bits, up to the sign of a part that is exactly
    zero, which no product with a channel coefficient shows.
    """
    mag = np.abs(est)
    zero = mag == 0.0
    phases = np.conj(est)
    phases[zero] = 1.0
    mag[zero] = 1.0
    np.reciprocal(mag, out=mag)
    phases *= mag
    return phases


def random_phases(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Uniform random phases for trials [start, stop), the no-CSI reference.

    Row i holds exp(j theta) for theta drawn as substream(RngStream(seed,
    start + i), PURPOSE_PHASE, 0).uniform(0, 2 pi, n).
    """
    theta = trial_draws(seed, start, stop, PURPOSE_PHASE, n, "random")
    theta *= 2.0 * math.pi
    return np.exp(1j * theta)


def composite_channel(h: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Sum of reflected coefficients under the given configuration, per trial."""
    if h.shape != phases.shape:
        raise ValueError(f"phases {phases.shape} do not match channels {h.shape}")
    return np.sum(h * phases, axis=-1)

