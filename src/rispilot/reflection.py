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

import functools
import math

import numpy as np

from .channel import PURPOSE_PHASE, trial_draws

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


@functools.cache
def _unit_circle() -> np.ndarray:
    """The 2^_GRID_BITS unit phasors exp(j 2 pi k / 2^_GRID_BITS)."""
    size = 1 << _GRID_BITS
    table = np.exp(2j * math.pi / size * np.arange(size))
    table.flags.writeable = False  # one array serves every caller
    return table


def random_phases(seed: int, start: int, stop: int, n: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Uniform random grid phases for trials [start, stop), the no-CSI reference.

    Row i takes trial start + i's ceil(n / 4) raw words of its block's
    PURPOSE_PHASE stream (see channel.trial_draws), splits each into four
    16-bit lanes, low lane first, and maps the first n lanes' top
    _GRID_BITS bits to _unit_circle(). out, a complex128 (stop - start, n) array, receives
    the phases in place of a new array.
    """
    words = trial_draws(seed, start, stop, PURPOSE_PHASE, -(-n // 4), "random_raw")
    lanes = words.astype("<u8", copy=False).view("<u2")[:, :n]
    # shifting straight into intp spares take a converted copy of the
    # indices; every index is in the table, and "clip" lets take write
    # into out without buffering the result
    index = np.right_shift(lanes, 16 - _GRID_BITS, dtype=np.intp)
    return _unit_circle().take(index, out=out, mode="clip")


def composite_channel(h: np.ndarray, phases: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Sum of reflected coefficients under the given configuration, per trial.

    out, a C-contiguous complex128 array shaped like h, or phases itself,
    holds the products h * phases in place of a new array.
    """
    if h.shape != phases.shape:
        raise ValueError(f"phases {phases.shape} do not match channels {h.shape}")
    return np.add.reduce(np.multiply(h, phases, out=out), axis=-1)


def aligned_gain(h: np.ndarray, mag: np.ndarray | None = None) -> np.ndarray:
    """Composite power gain under perfect CSI, (sum_m |h_m|)^2 per trial.

    Conjugate alignment turns each product h_m conj(h_m) / |h_m| into
    |h_m|, so the aligned sum is sum_m |h_m|, with no phases to derive; a
    zero coefficient adds 0, as its phase-1 fallback in configure_phases
    does. mag, a float64 array shaped like h, holds the magnitudes in
    place of a new array.
    """
    total = np.add.reduce(np.abs(h, out=mag), axis=-1)
    return np.square(total, out=total)
