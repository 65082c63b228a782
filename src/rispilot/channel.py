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
column offset_k + m. A range of trials derives each purpose's block
states once, with normal_states for normals and block_states for random
phases; a chunk's draws are then filled from those arrays' rows, one
SFC64 state set per block. Beyond the draws, a chunk's channels depend
only on a `scenario.Link`: its element counts, cascaded gains and the
fading of each hop, which link_scales turns into per-element factors
once per range.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .scenario import Link

__all__ = [
    "BLOCK_TRIALS",
    "block_stream",
    "block_states",
    "normal_states",
    "polar_normals",
    "unit_normals",
    "LinkScales",
    "link_scales",
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
# normal_states pairs each normal purpose p with its phases' purpose
# p + NORMAL_PHASES: 4, 5 and 6 for the user hop, the BS hop and pilot noise
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
    This is the one definition of the draws dealt out from block_states.

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
def _generators() -> tuple[np.random.Philox, np.random.Generator, dict]:
    """The process's one Philox, which block_states keys once per call,
    its one SFC64 behind a Generator, which a fill sets once per block,
    and the state dict a fill sets it from, whose words each block replaces.

    Trials run in worker processes, never threads, so one per process
    is never shared by two callers at once.
    """
    return np.random.Philox(key=0), np.random.Generator(np.random.SFC64(0)), _sfc64_state(None)


def block_states(seed: int, start: int, stop: int, purpose: int) -> np.ndarray:
    """The SFC64 states of purpose's blocks that trials [start, stop) touch.

    Row j of the (blocks, 4) uint64 result holds the four state words
    block_stream gives block start // BLOCK_TRIALS + j. The process's one
    Philox is set once and reads them all with one random_raw: its output
    at counter (c, 0, 0, 0) continues into its output at
    (c + 1, 0, 0, 0), so consecutive four-word rows are consecutive
    blocks. This is where a range's seed and bounds are checked; the
    fills that take rows of the result check neither.
    """
    _check_range(start, stop)
    _check_u64("seed", seed)
    philox = _generators()[0]
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
    return philox.random_raw((-(-stop // BLOCK_TRIALS) - first, 4))


def normal_states(seed: int, start: int, stop: int, purpose: int) -> np.ndarray:
    """The (blocks, 2, 4) block states of a family of normals over trials [start, stop):
    block_states' rows of purpose, whose exponentials give the magnitudes,
    beside those of purpose + NORMAL_PHASES, whose raw words give the phases."""
    return np.stack([block_states(seed, start, stop, purpose),
                     block_states(seed, start, stop, purpose + NORMAL_PHASES)], axis=1)


def _blocks(states: np.ndarray, start: int, stop: int, row: tuple = (4,)) -> None:
    """Raise ValueError unless states is one row, shaped row, per block [start, stop) touches."""
    blocks = -(-stop // BLOCK_TRIALS) - start // BLOCK_TRIALS
    if not 0 <= start <= stop or states.shape != (blocks, *row):
        raise ValueError(f"block states {states.shape} do not cover trials [{start}, {stop}) "
                         f"in rows of {row}")


def _fill(states: np.ndarray, start: int, out: np.ndarray, method: str) -> np.ndarray:
    """Fill out's rows, row i from trial start + i, from its blocks' states.

    Block by block, the process's one SFC64 takes the block's state, and
    one call fills all of the block's rows; a fill that starts inside a
    block draws and drops its earlier trials' values first. Each block
    sets the whole state, so no earlier fill shows through. Setting
    state in place of building generators spares the OS entropy a new
    one would gather and never use.
    """
    _, gen, state = _generators()
    bitgen, words = gen.bit_generator, state["state"]
    raw = method == "random_raw"
    draw = bitgen.random_raw if raw else getattr(gen, method)
    rows, width = out.shape
    i, skip = 0, start % BLOCK_TRIALS
    for row in states:
        words["state"] = row
        bitgen.state = state
        j = min(rows, i + BLOCK_TRIALS - skip)
        if skip:
            draw(skip * width)
            skip = 0
        if raw:
            out[i:j] = draw((j - i, width))
        else:
            draw(out=out[i:j])
        i = j
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


def _lattice(states: np.ndarray, start: int, n: int, bits: int, out: np.ndarray,
             index: np.ndarray) -> np.ndarray:
    """Fill out's rows, row i from trial start + i, with exp(j 2 pi k / 2^bits).

    Element m's k is the top bits of 16-bit lane m, low lane first, of
    the trial's ceil(n / 4) raw words, read little-endian so that the
    lanes do not depend on the host's byte order. The words pass through
    out's first bytes, and the k through index, an int64 array like out.
    """
    rows = out.shape[0]
    width = -(-n // 4)
    words = out.reshape(-1).view(np.uint64)[:rows * width].reshape(rows, width)
    _fill(states, start, words, "random_raw")
    np.copyto(index, words.astype("<u8", copy=False).view("<u2")[:, :n])
    if bits < 16:
        index >>= 16 - bits
    # every index is in the table, and "clip" lets take write into out
    # without buffering the result
    return _unit_circle(bits).take(index, out=out, mode="clip")


def polar_normals(states: np.ndarray, start: int, stop: int, n: int,
                  out: np.ndarray | None = None,
                  mag: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(stop - start, n) unit complex normals in polar form, row i = trial start + i.

    Returns the phasors exp(j 2 pi k / 2^16) and the magnitudes sqrt(E),
    left unmultiplied. states are a family's states from normal_states,
    one row per block that [start, stop) touches. E is value m of trial
    start + i's n exponentials from the magnitude states, and k its whole
    16-bit lane m of the phase states, as _lattice cuts them. out, a
    C-contiguous complex128 (stop - start, n) array, receives the
    phasors, and mag, a C-contiguous float64 one, holds the lane indices
    and then the magnitudes, each in place of a new array.
    """
    _blocks(states, start, stop, (2, 4))
    rows = stop - start
    out = _buffer("out", out, (rows, n), np.complex128)
    mag = _buffer("mag", mag, (rows, n), np.float64)
    _lattice(states[:, 1], start, n, 16, out, mag.view(np.int64))
    _fill(states[:, 0], start, mag, "standard_exponential")
    return out, np.sqrt(mag, out=mag)


def unit_normals(states: np.ndarray, start: int, stop: int, n: int,
                 out: np.ndarray | None = None, mag: np.ndarray | None = None) -> np.ndarray:
    """(stop - start, n) unit complex normals sqrt(E) exp(j theta): the
    product of polar_normals' phasors and magnitudes, with the same
    arguments, formed in out."""
    z, root = polar_normals(states, start, stop, n, out, mag)
    z *= root
    return z


def _rician(k_factor: float) -> tuple[float, float]:
    # unit-mean-power link fading is los + nlos * z for a unit normal z;
    # the deterministic part carries zero phase
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


class LinkScales(NamedTuple):
    """A link's per-element factors of its channel, from link_scales.

    h = scattered * u + direct, times (a_br + b_br v) where bs = (a_br,
    b_br); scattered is beta_k b_ru and direct beta_k a_ru on surface k's
    elements, or None where the user hop is deterministic (k_ru = inf) or
    Rayleigh (a_ru = 0), and bs is None where the BS hop is deterministic.
    """

    scattered: np.ndarray | None
    direct: np.ndarray | None
    bs: tuple[float, float] | None


def link_scales(link: Link) -> LinkScales:
    """The per-element factors sample_channels applies to link's draws.

    A trial range derives them once per link, so no chunk repeats
    beta_k over the element counts or rescales it. The vectors are
    read-only: one serves every chunk of the range.
    """
    scale = link.beta.repeat(link.counts)
    if math.isinf(link.k_ru):
        scattered, direct = None, scale
    else:
        los, nlos = _rician(link.k_ru)
        scattered, direct = scale * nlos, (scale * los if los else None)
    for vector in (scattered, direct):
        if vector is not None:
            vector.setflags(write=False)
    return LinkScales(scattered, direct, None if math.isinf(link.k_br) else _rician(link.k_br))


def sample_channels(scales: LinkScales, phasors: np.ndarray, magnitudes: np.ndarray,
                    bs: np.ndarray | None = None, out: np.ndarray | None = None,
                    fade: np.ndarray | None = None,
                    mag: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Cascaded coefficients h = beta_k (a_ru + b_ru u)(a_br + b_br v), one row per trial.

    scales are the link's factors from link_scales. u = phasors *
    magnitudes is the user hop's unit normal, as polar_normals draws it
    with PURPOSE_RIS_USER, and v = bs the BS hop's, from unit_normals with
    PURPOSE_BS_RIS; (a, b) = (sqrt(K / (K + 1)), sqrt(1 / (K + 1))) for
    each hop's Rician factor K, so a hop with K = 0 is Rayleigh and one
    with K = inf deterministic, its draws unread. bs is needed only when
    the BS link is faded (finite k_br). Both hops' fading has unit power,
    so the cascade's scale is link.beta alone: with a deterministic BS
    link and a Rayleigh user link, h is CN(0, beta_k^2).

    mag, a float64 array shaped like the draws, receives
    beta_k b_ru magnitudes in one real multiply, and h = phasors * mag
    (+ beta_k a_ru) follows in one complex-by-real multiply, so u is never
    formed. out, a complex128 array of that shape, receives h, and fade,
    another, holds a faded BS link's fading on its way into h, each in
    place of a new array.

    Returns h and, where nothing shifts or multiplies the drawn normal
    (k_ru = 0 and k_br = inf), mag, which then holds |h| = beta_k sqrt(E);
    otherwise None in its place.
    """
    scattered, direct, fading = scales
    shape = magnitudes.shape
    width = (direct if scattered is None else scattered).size
    if magnitudes.ndim != 2 or shape[1] != width or phasors.shape != shape:
        raise ValueError(f"user draws must be (trials, {width}), got "
                         f"{phasors.shape} and {shape}")
    for name, buf, dtype in (("out", out, np.complex128), ("fade", fade, np.complex128),
                             ("mag", mag, np.float64)):
        if buf is not None and (buf.shape != shape or buf.dtype != dtype):
            raise ValueError(f"{name} must be a {np.dtype(dtype)} array of shape {shape}, "
                             f"got {buf.dtype} {buf.shape}")
    h = np.empty(shape, dtype=np.complex128) if out is None else out
    if scattered is None:
        h[...] = direct
    else:
        mag = np.multiply(magnitudes, scattered, out=mag)
        np.multiply(phasors, mag, out=h)
        if direct is not None:
            h += direct
    if fading is not None:
        if bs is None or bs.shape != shape:
            raise ValueError(f"a faded BS link needs bs draws shaped {shape}")
        los, nlos = fading
        # h *= los + nlos * bs, in the same operations, without temporaries
        fade = np.multiply(nlos, bs, out=fade)
        np.add(los, fade, out=fade)
        h *= fade
    # mag is |h| only where nothing shifts or multiplies the drawn normal
    return h, mag if direct is None and fading is None else None
