"""Geometry, unit conversions and the flat link description.

`cascaded_large_scale` gives each surface's cascaded gain in the
two-surface corridor; the closed forms and the allocators need nothing
else of the geometry. A `Link` joins those gains (or gains a config
pins) with the element counts, the fading and the powers, and is all
the engine, the allocators and the closed forms use. Everything
downstream works in linear units (watts, linear power gains); dB and
dBm values appear only at the configuration boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Link",
    "equal_counts",
    "dbm_to_watts",
    "watts_to_dbm",
    "path_loss",
    "cascaded_large_scale",
]


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    """Convert a power in watts to dBm. Requires p_w > 0."""
    if p_w <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {p_w}")
    return 10.0 * math.log10(p_w) + 30.0


def path_loss(distance_m: float, c0_db: float, alpha: float) -> float:
    """Distance-power-law path loss as a linear gain.

    Parameters
    ----------
    distance_m : link distance in meters, must be > 0.
    c0_db : reference gain at 1 m, in dB (typically negative).
    alpha : path loss exponent, must be > 0.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if alpha <= 0.0:
        raise ValueError(f"path loss exponent must be positive, got {alpha}")
    return 10.0 ** (c0_db / 10.0) * distance_m ** (-alpha)


@dataclass(frozen=True, eq=False)
class Link:
    """The downlink as the engine, the allocators and the closed forms see it.

    counts and beta_sq hold one entry per surface, its element count M_k
    and cascaded power gain beta_k^2; beta holds beta_k. k_br and k_ru are
    the Rician factors of the BS and user hops (math.inf: deterministic).
    sigma_z_sq is the training noise, sigma_n_sq the receiver noise, q the
    transmit power and p_avg the average pilot power, all in watts. The
    arrays are read-only copies, checked once here.
    """

    counts: np.ndarray
    beta_sq: np.ndarray
    sigma_z_sq: float
    sigma_n_sq: float
    q: float
    p_avg: float
    k_br: float = math.inf
    k_ru: float = 0.0
    beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.array(self.counts)
        beta_sq = np.array(self.beta_sq, dtype=np.float64)
        if counts.ndim != 1 or counts.size < 1 or beta_sq.shape != counts.shape:
            raise ValueError(
                f"need one cascaded gain per surface, got {beta_sq.size} gains "
                f"for {counts.size} element counts"
            )
        if not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 1):
            raise ValueError("element counts must be positive integers")
        if not np.all((beta_sq > 0.0) & (beta_sq < math.inf)):
            raise ValueError("every cascaded gain must be finite and positive")
        if not (self.k_br >= 0.0 and self.k_ru >= 0.0):
            raise ValueError("Rician factors must be nonnegative")
        if not (0.0 <= self.sigma_z_sq < math.inf and 0.0 < self.sigma_n_sq < math.inf):
            raise ValueError("noise powers must be finite, the receiver's positive")
        if not (0.0 < self.q < math.inf and 0.0 < self.p_avg < math.inf):
            raise ValueError("transmit powers must be finite and positive")
        for name, arr in (("counts", counts.astype(np.int64)), ("beta_sq", beta_sq),
                          ("beta", np.sqrt(beta_sq))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_ris(self) -> int:
        return self.counts.size


def equal_counts(counts) -> bool:
    """Whether every surface has the same element count."""
    counts = np.asarray(counts)
    return bool(np.all(counts == counts[0]))


def cascaded_large_scale(
    d0: float, d: float, *, d_v: float, d_h: float, d_u: float,
    c0_db: float, alpha_br: float, alpha_ru: float,
) -> np.ndarray:
    """The cascaded power gains beta_k^2 of two surfaces flanking a corridor.

    The BS sits at the origin at height d_h. The surfaces sit at x = d0,
    offset by -d_v (surface 0) and +d_v (surface 1) in y, at the same
    height. The user is on the ground at x = d0 - d_u, y = d. A surface's
    cascaded gain is the product of its two hops' path losses: the
    reflect path sees both hops, so the gains multiply. The layout is
    mirror symmetric in d, which tests rely on, so the coordinate
    expressions keep +d and -d exactly symmetric in floating point. A
    gain that leaves the float range (0 or inf) raises ArithmeticError
    naming the surface.
    """
    if d0 <= d_u:
        raise ValueError(f"corridor length d0 must exceed the user setback d_u ({d0} <= {d_u})")
    bs, user = (0.0, 0.0, d_h), (d0 - d_u, d, 0.0)
    gains = np.empty(2)
    for k, y in enumerate((-d_v, d_v)):
        ris = (d0, y, d_h)
        d_br, d_ru = math.dist(bs, ris), math.dist(ris, user)
        try:
            gain = path_loss(d_br, c0_db, alpha_br) * path_loss(d_ru, c0_db, alpha_ru)
        except OverflowError:  # float ** raises where float * gives inf
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise ArithmeticError(
                f"cascaded gain of surface {k} is {gain} at distances "
                f"{d_br:g} m and {d_ru:g} m: outside the float range"
            )
        gains[k] = gain
    return gains
