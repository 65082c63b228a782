"""Phase configuration from estimates, and the composite channel.

Phases, estimates and channels are (trials, sum(M_k)) arrays, one row
per trial, as channel.sample_channels lays them out.

The no-CSI reference draws each element's phase uniformly from the grid
of 4096 points 2 pi k / 4096, read from 12 raw SFC64 bits, rather than
from the continuous circle. It is the same reference: for theta uniform
on an N-point grid, E[exp(j k theta)] = 0 for every 0 < |k| < N, as for
the continuous one, so E|sum h exp(j theta)|^2 = sum |h|^2 and the
closed form sum(M_k beta_k^2) stays exact, and every moment of the gain
up to order N - 1 equals the continuous one.
"""
from __future__ import annotations

import numpy as np

from .channel import _blocks, _buffer, _lattice

__all__ = [
    "configure_phases",
    "random_phases",
    "composite_channel",
    "aligned_gain",
]


def configure_phases(est: np.ndarray, out: np.ndarray | None = None,
                     mag: np.ndarray | None = None) -> np.ndarray:
    """Conjugate-align each element to its estimated coefficient.

    A zero estimate carries no phase information; those elements fall
    back to coefficient 1. Multiplying by 1 / |est| skips numpy's complex
    division and gives its bits, up to the sign of a part that is exactly
    zero, which no product with a channel coefficient shows. out, a
    complex128 array shaped like est, or est itself, receives the phases
    in place of a new array; mag, a float64 array shaped like est, holds
    the magnitudes in place of a new array.
    """
    mag = np.abs(est, out=mag)
    phases = np.conjugate(est, out=out)
    if not mag.all():
        zero = mag == 0.0
        phases[zero] = 1.0
        mag[zero] = 1.0
    np.reciprocal(mag, out=mag)
    phases *= mag
    return phases


_GRID_BITS = 12


def random_phases(states: np.ndarray, start: int, stop: int, n: int,
                  out: np.ndarray | None = None, mag: np.ndarray | None = None) -> np.ndarray:
    """Uniform random grid phases for trials [start, stop), the no-CSI reference.

    Row i takes trial start + i's ceil(n / 4) raw words of its block's
    PURPOSE_PHASE stream: states are that purpose's block states from
    channel.block_states, one row per block that [start, stop) touches.
    Each word splits into four 16-bit lanes, low lane first, and the
    first n lanes' top _GRID_BITS bits pick a point of the 2^_GRID_BITS
    grid, as channel._lattice cuts them. out, a C-contiguous complex128
    (stop - start, n) array, receives the phases, its first bytes holding
    the raw words until they are indices; mag, a C-contiguous float64 one,
    holds the indices; each in place of a new array.
    """
    _blocks(states, start, stop)
    rows = stop - start
    out = _buffer("out", out, (rows, n), np.complex128)
    index = _buffer("mag", mag, (rows, n), np.float64).view(np.int64)
    return _lattice(states, start, n, _GRID_BITS, out, index)


def composite_channel(h: np.ndarray, phases: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Sum of reflected coefficients under the given configuration, per trial.

    out, a C-contiguous complex128 array shaped like h, or phases itself,
    holds the products h * phases in place of a new array.
    """
    if h.shape != phases.shape:
        raise ValueError(f"phases {phases.shape} do not match channels {h.shape}")
    return np.add.reduce(np.multiply(h, phases, out=out), axis=-1)


def aligned_gain(magnitudes: np.ndarray) -> np.ndarray:
    """Composite power gain under perfect CSI, (sum_m |h_m|)^2 per trial.

    Conjugate alignment turns each product h_m conj(h_m) / |h_m| into
    |h_m|, so the aligned sum is the sum of the channel's magnitudes
    |h_m|, given here, with no phases to derive; a zero coefficient adds
    0, as its phase-1 fallback in configure_phases does.
    """
    total = np.add.reduce(magnitudes, axis=-1)
    return np.square(total, out=total)
