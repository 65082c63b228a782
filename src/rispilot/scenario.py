"""Geometry, unit conversions and cascaded large-scale fading.

Everything downstream works in linear units (watts, linear power gains).
dB and dBm values appear only here, at the configuration boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Position",
    "RisSpec",
    "Scenario",
    "LargeScale",
    "dbm_to_watts",
    "watts_to_dbm",
    "path_loss",
    "cascaded_large_scale",
    "two_ris_layout",
    "from_large_scale",
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


@dataclass(frozen=True)
class Position:
    """Cartesian position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {v}")

    def distance_to(self, other: "Position") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class RisSpec:
    """One reflecting surface: element count and placement."""

    element_count: int
    position: Position

    def __post_init__(self):
        if not isinstance(self.element_count, (int, np.integer)) or self.element_count < 1:
            raise ValueError(f"element_count must be a positive integer, got {self.element_count}")


@dataclass(frozen=True)
class Scenario:
    """Full system description for one downlink deployment.

    Powers are in watts, noise powers in watts, Rician factors linear
    (math.inf means a purely deterministic link).
    """

    bs_position: Position
    user_position: Position
    ris_list: tuple[RisSpec, ...]
    c0_db: float
    alpha_br: float
    alpha_ru: float
    rician_k_br: float
    rician_k_ru: float
    sigma_z_sq: float
    sigma_n_sq: float
    q: float
    p_avg: float

    def __post_init__(self):
        object.__setattr__(self, "ris_list", tuple(self.ris_list))
        if len(self.ris_list) < 1:
            raise ValueError("scenario needs at least one RIS")
        if self.alpha_br <= 0 or self.alpha_ru <= 0:
            raise ValueError("path loss exponents must be positive")
        if self.rician_k_br < 0 or self.rician_k_ru < 0:
            raise ValueError("Rician factors must be nonnegative")
        if self.sigma_z_sq < 0 or self.sigma_n_sq <= 0:
            raise ValueError("noise powers must be nonnegative (downlink noise strictly positive)")
        if self.q <= 0 or self.p_avg <= 0:
            raise ValueError("transmit powers must be positive")

    @property
    def num_ris(self) -> int:
        return len(self.ris_list)

    @property
    def element_counts(self) -> np.ndarray:
        return np.array([r.element_count for r in self.ris_list], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class LargeScale:
    """Cascaded large-scale power gains, one entry per RIS."""

    beta_sq: np.ndarray
    beta: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.beta_sq, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("beta_sq must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("every cascaded gain must be finite and positive")
        arr.setflags(write=False)
        object.__setattr__(self, "beta_sq", arr)
        b = np.sqrt(arr)
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    @property
    def num_ris(self) -> int:
        return self.beta_sq.size


def cascaded_large_scale(s: Scenario) -> LargeScale:
    """Per-RIS cascaded gain: product of the two link path losses.

    The reflect path sees both hops, so the gains multiply. Coincident
    nodes (zero distance) are rejected. A gain that leaves the float range
    (0 or inf) raises ArithmeticError naming the surface.
    """
    gains = []
    for k, r in enumerate(s.ris_list):
        d_br = s.bs_position.distance_to(r.position)
        d_ru = r.position.distance_to(s.user_position)
        if d_br == 0.0 or d_ru == 0.0:
            raise ValueError("RIS coincides with BS or user, distances must be positive")
        try:
            gain = path_loss(d_br, s.c0_db, s.alpha_br) * path_loss(d_ru, s.c0_db, s.alpha_ru)
        except OverflowError:  # float ** raises where float * gives inf
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise ArithmeticError(
                f"cascaded gain of surface {k} is {gain} at distances "
                f"{d_br:g} m and {d_ru:g} m: outside the float range"
            )
        gains.append(gain)
    return LargeScale(beta_sq=np.array(gains))


def two_ris_layout(
    d0: float,
    d: float,
    m1: int,
    m2: int,
    p_avg_dbm: float = -13.0,
    *,
    d_v: float = 10.0,
    d_h: float = 10.0,
    d_u: float = 2.0,
    sigma_z_dbm: float = -110.0,
    sigma_n_dbm: float = -90.0,
    q_dbm: float = 40.0,
    c0_db: float = -20.0,
    alpha_br: float = 2.2,
    alpha_ru: float = 2.8,
) -> Scenario:
    """Two surfaces flanking a corridor, user sliding along it.

    BS sits at the origin at height d_h. The surfaces sit at x = d0,
    offset by +/- d_v in y, same height. The user is on the ground at
    x = d0 - d_u, y = d. The layout is mirror symmetric in d, which
    tests rely on, so the coordinate expressions keep +d and -d cases
    exactly symmetric in floating point.
    """
    if d0 <= d_u:
        raise ValueError(f"corridor length d0 must exceed the user setback d_u ({d0} <= {d_u})")
    bs = Position(0.0, 0.0, d_h)
    ris1 = RisSpec(m1, Position(d0, -d_v, d_h))
    ris2 = RisSpec(m2, Position(d0, d_v, d_h))
    user = Position(d0 - d_u, d, 0.0)
    return Scenario(
        bs_position=bs,
        user_position=user,
        ris_list=(ris1, ris2),
        c0_db=c0_db,
        alpha_br=alpha_br,
        alpha_ru=alpha_ru,
        rician_k_br=math.inf,
        rician_k_ru=0.0,
        sigma_z_sq=dbm_to_watts(sigma_z_dbm),
        sigma_n_sq=dbm_to_watts(sigma_n_dbm),
        q=dbm_to_watts(q_dbm),
        p_avg=dbm_to_watts(p_avg_dbm),
    )


def from_large_scale(
    beta_sq,
    element_counts,
    *,
    sigma_z_sq: float,
    sigma_n_sq: float,
    q: float,
    p_avg: float,
) -> tuple[Scenario, LargeScale]:
    """Build a scenario directly from cascaded gains, skipping geometry.

    Useful when a config pins beta_sq instead of node placement. The
    returned scenario carries placeholder positions; pass the returned
    LargeScale explicitly to sampling and simulation so the placeholder
    geometry is never consulted. Only the deterministic-BS-link model
    is supported here because sampling then depends on the cascade gain
    alone, not on how it splits across the two hops.
    """
    ls = LargeScale(beta_sq=np.asarray(beta_sq, dtype=np.float64))
    counts = [int(m) for m in element_counts]
    if len(counts) != ls.num_ris:
        raise ValueError(
            f"element_counts has {len(counts)} entries for {ls.num_ris} cascaded gains"
        )
    ris_list = tuple(
        RisSpec(m, Position(1.0, float(k), 0.0)) for k, m in enumerate(counts)
    )
    s = Scenario(
        bs_position=Position(0.0, 0.0, 0.0),
        user_position=Position(2.0, 0.0, 0.0),
        ris_list=ris_list,
        c0_db=0.0,
        alpha_br=2.0,
        alpha_ru=2.0,
        rician_k_br=math.inf,
        rician_k_ru=0.0,
        sigma_z_sq=sigma_z_sq,
        sigma_n_sq=sigma_n_sq,
        q=q,
        p_avg=p_avg,
    )
    return s, ls
