"""Small-scale fading draws for the cascaded reflect channels.

Randomness is keyed by blocks of BLOCK_TRIALS trials. Block
c = t // BLOCK_TRIALS of a run with seed s owns one stream per purpose
p (user hop, BS hop and pilot noise, each with a second purpose for the
phases of its normals, and random phases): an SFC64 generator whose
four state words are the first four words of the counter-based Philox
keyed (s, p) at counter (c, 0, 0, 0), `block_stream(s, c, p)`. Its
values are dealt out trial after trial: with w values per trial
(sum(M_k) exponentials, or ceil(sum(M_k) / 4) raw words for phases),
trial c BLOCK_TRIALS + r takes values [r w, (r + 1) w).
Within a trial the values run end to end over every element of every
surface, in surface order. A trial's draws therefore depend only on
(s, t) and w, never on which other trials, purposes or rows are
evaluated beside it, so serial, chunked and parallel runs see
bit-identical numbers for the same seed; nothing in a run varies w.

A unit complex normal is drawn in polar form, sqrt(E) exp(j theta) with
E standard exponential and theta uniform and independent of E, so |z|^2
is E and z is circularly symmetric with unit variance. theta lies on the
lattice 2 pi k / 2^16, read from a 16-bit lane of a raw word: for theta
uniform on an N-point lattice, E[exp(j k theta)] = 0 for every
0 < |k| < N, as on the circle, so every moment E[z^a conj(z)^b] with
|a - b| < 2^16 equals the continuous normal's.

The layer functions work on a chunk of trials at once: arrays of shape
(trials, sum(M_k)), one row per trial, with element m of surface k at
column offset_k + m. Beyond the draws, a chunk's channels depend only
on a `scenario.Link`: its element counts, cascaded gains and the fading
of each hop.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .scenario import Link

__all__ = [
    "BLOCK_TRIALS",
    "block_stream",
    "trial_draws",
    "unit_normals",
    "sample_channels",
]

_U64_MAX = 2**64 - 1

# trials per block: the draws of trials 8c .. 8c + 7 of a purpose share one stream
BLOCK_TRIALS = 8

# one purpose per independent draw family: the second key word of a block's Philox
PURPOSE_RIS_USER = 0
PURPOSE_BS_RIS = 1
PURPOSE_PILOT_NOISE = 2
PURPOSE_PHASE = 3
# unit_normals of purpose p take their phases from purpose p + NORMAL_PHASES:
# 4, 5 and 6 for the user hop, the BS hop and pilot noise
NORMAL_PHASES = 4


def _check_u64(name: str, value) -> None:
    """Raise ValueError unless value is an int or numpy integer in [0, 2^64)."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


def _check_range(start: int, stop: int) -> None:
    if not 0 <= start <= stop <= _U64_MAX + 1:
        raise ValueError(f"trial range [{start}, {stop}) is not inside [0, 2^64)")


def _buffer(name: str, buf: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """buf, checked to be a C-contiguous array of shape and dtype, or a new one."""
    if buf is None:
        return np.empty(shape, dtype=dtype)
    if buf.shape != shape or buf.dtype != dtype or not buf.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array of shape "
                         f"{shape}, got {buf.dtype} {buf.shape}")
    return buf


def _sfc64_state(words) -> dict:
    """SFC64 state dict whose four state words are words."""
    return {"bit_generator": "SFC64", "state": {"state": words},
            "has_uint32": 0, "uinteger": 0}


def block_stream(seed: int, block: int, purpose: int) -> np.random.Generator:
    """A fresh Generator on one purpose's stream of a block of trials.

    Its bit generator is an SFC64 whose four state words (a, b, c and
    the counter) are the first four words of
    `Philox(key=[seed, purpose], counter=[block, 0, 0, 0]).random_raw(4)`.
    This is the one definition of the draws trial_draws deals out.

    Philox is a keyed pseudorandom function of its counter, so each
    block starts at a 256-bit state that looks uniformly drawn, given
    (seed, purpose, block): the situation of SFC64 streams spawned from
    a SeedSequence. No warm-up rounds are run; numpy's own SFC64
    seeding runs 12 only to mix low-entropy seeds.
    """
    _check_u64("seed", seed)
    _check_u64("block", block)
    key = np.array([seed, purpose], dtype=np.uint64)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=counter).random_raw(4)
    bitgen = np.random.SFC64(0)
    bitgen.state = _sfc64_state(words)
    return np.random.Generator(bitgen)


@functools.cache
def _generators() -> tuple[np.random.Philox, np.random.Generator]:
    """The process's one Philox, which trial_draws keys once per call to
    derive its blocks' states, and its one SFC64 behind a Generator,
    which it sets once per block.

    Trials run in worker processes, never threads, so one per process
    is never shared by two callers at once.
    """
    return np.random.Philox(key=0), np.random.Generator(np.random.SFC64(0))


def trial_draws(seed: int, start: int, stop: int, purpose: int, width: int,
                method: str = "standard_normal", out: np.ndarray | None = None) -> np.ndarray:
    """(stop - start, width) draws, row i from trial start + i.

    Trial t = c BLOCK_TRIALS + r takes values [r width, (r + 1) width) of
    `block_stream(seed, c, purpose).standard_normal`, or of the Generator
    method named by method, such as "standard_exponential", or with method
    "random_raw" of that stream's raw 64-bit SFC64 words,
    `.bit_generator.random_raw`. out, a C-contiguous float64 (or uint64
    for "random_raw") array of that shape, receives the draws in place of
    a new array.

    The process's one Philox is set once per call and reads the states
    of every block in the range with one random_raw: Philox's output at
    counter (c, 0, 0, 0) continues into its output at (c + 1, 0, 0, 0),
    so consecutive four-word rows are consecutive blocks. Then, block by
    block, the process's one SFC64 takes the block's state, and one call
    fills all of the block's rows in the range; a range that starts
    inside a block draws and drops its earlier trials' values first.
    Each block sets the whole state, so no earlier call shows through.
    Setting state in place of building generators spares the OS entropy
    a new one would gather and never use.
    """
    _check_range(start, stop)
    _check_u64("seed", seed)
    philox, gen = _generators()
    bitgen = gen.bit_generator
    dtype = np.uint64 if method == "random_raw" else np.float64
    out = _buffer("out", out, (stop - start, width), dtype)
    if method == "random_raw":
        draw = bitgen.random_raw

        def fill(out):
            out[...] = draw(out.shape)
    else:
        draw = fill = getattr(gen, method)
    first = start // BLOCK_TRIALS
    # the state holds plain lists, which the setter reads faster than uint64 arrays
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": [first, 0, 0, 0], "key": [int(seed), purpose]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    words = philox.random_raw((-(-stop // BLOCK_TRIALS) - first, 4))
    state = _sfc64_state(None)
    a = start
    for row in words:
        r = a % BLOCK_TRIALS
        b = min(stop, a - r + BLOCK_TRIALS)
        state["state"]["state"] = row
        bitgen.state = state
        if r:
            draw(r * width)
        fill(out=out[a - start:b - start])
        a = b
    return out


@functools.cache
def _unit_circle(bits: int) -> np.ndarray:
    """The 2^bits unit phasors exp(j 2 pi k / 2^bits), built on first use."""
    size = 1 << bits
    table = np.arange(size, dtype=np.complex128)
    table *= 2j * math.pi / size
    np.exp(table, out=table)
    table.flags.writeable = False  # one array serves every caller
    return table


def _lanes(words: np.ndarray, n: int) -> np.ndarray:
    """The first n 16-bit lanes of each row of raw words, low lane first.

    The words are read little-endian, so the lanes do not depend on the
    host's byte order.
    """
    return words.astype("<u8", copy=False).view("<u2")[:, :n]


def unit_normals(seed: int, start: int, stop: int, purpose: int, n: int,
                 out: np.ndarray | None = None, mag: np.ndarray | None = None) -> np.ndarray:
    """(stop - start, n) unit complex normals, row i = trial start + i.

    Value m of row i is sqrt(E) exp(j 2 pi k / 2^16): E is value m of trial
    start + i's n exponentials from trial_draws(..., purpose, n,
    "standard_exponential"), and k is lane m of its ceil(n / 4) raw words
    of purpose + NORMAL_PHASES, cut as _lanes cuts them. out, a
    C-contiguous float64 array of shape (stop - start, 2 n), receives the
    draws; the result is then its complex view. mag, a C-contiguous
    float64 (stop - start, n) array, holds the lane indices and then the
    magnitudes in place of a new array.
    """
    _check_range(start, stop)
    rows, width = stop - start, -(-n // 4)
    out = _buffer("out", out, (rows, 2 * n), np.float64)
    mag = _buffer("mag", mag, (rows, n), np.float64)
    z = out.view(np.complex128)
    # the raw words take out's first bytes until their lanes are indices in mag
    words = out.reshape(-1)[:rows * width].view(np.uint64).reshape(rows, width)
    trial_draws(seed, start, stop, purpose + NORMAL_PHASES, width, "random_raw", out=words)
    index = mag.view(np.int64)
    np.copyto(index, _lanes(words, n))
    # a whole 16-bit lane picks a point of the 2^16-point lattice
    _unit_circle(16).take(index, out=z, mode="clip")
    trial_draws(seed, start, stop, purpose, n, "standard_exponential", out=mag)
    z *= np.sqrt(mag, out=mag)
    return z


def _rician(k_factor: float) -> tuple[float, float]:
    # unit-mean-power link fading is los + nlos * z for a unit normal z;
    # the deterministic part carries zero phase
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


def sample_channels(link: Link, user: np.ndarray, bs: np.ndarray | None = None,
                    out: np.ndarray | None = None, fade: np.ndarray | None = None) -> np.ndarray:
    """Cascaded coefficients h = beta_k * u * conj(v), one row per trial.

    user and bs are (trials, sum(M_k)) unit normals from unit_normals
    with PURPOSE_RIS_USER and PURPOSE_BS_RIS; user also sets the trial
    count, and is ignored when the user link is deterministic. bs is
    needed only when the BS link is faded (finite Rician factor). Both
    hops' fading has unit power, so the cascade's scale is link.beta
    alone: with a deterministic BS link and a scattered user link, h is
    CN(0, beta_k^2). out, a complex128 array shaped like user, receives
    h in place of a new array; fade, another, holds a faded BS link's
    fading on its way into h.
    """
    scale = np.repeat(link.beta, link.counts)
    if user.ndim != 2 or user.shape[1] != scale.size:
        raise ValueError(f"user draws must be (trials, {scale.size}), got {user.shape}")
    h = np.empty(user.shape, dtype=np.complex128) if out is None else out
    for name, buf in (("out", h), ("fade", fade)):
        if buf is not None and (buf.shape != user.shape or buf.dtype != np.complex128):
            raise ValueError(f"{name} must be a complex128 array of shape {user.shape}, "
                             f"got {buf.dtype} {buf.shape}")
    if math.isinf(link.k_ru):
        h.fill(1.0)
    else:
        np.conjugate(user, out=h)
        if link.k_ru > 0.0:
            los, nlos = _rician(link.k_ru)
            h *= nlos
            h += los
    if not math.isinf(link.k_br):
        if bs is None or bs.shape != user.shape:
            raise ValueError(f"a faded BS link needs bs draws shaped {user.shape}")
        los, nlos = _rician(link.k_br)
        # h *= los + nlos * bs, in the same operations, without temporaries
        fade = np.multiply(nlos, bs, out=fade)
        np.add(los, fade, out=fade)
        h *= fade
    h *= scale
    return h
