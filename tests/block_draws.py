"""A trial's engine draws rebuilt from channel.block_stream alone.

Block c = t // BLOCK_TRIALS of a purpose deals its values out trial after
trial, so trial t's values are row t % BLOCK_TRIALS of the block's stream
filled for the whole block. Tests compare the engine against these with
exact equality.
"""
import numpy as np

from rispilot.channel import BLOCK_TRIALS, NORMAL_PHASES, _unit_circle, block_stream


def block_row(seed, t, purpose, width, method):
    """Trial t's width values of its block's purpose stream, drawn by method
    ("random_raw" for the raw 64-bit words, or a Generator method such as
    "standard_exponential")."""
    gen = block_stream(seed, t // BLOCK_TRIALS, purpose)
    draw = gen.bit_generator.random_raw if method == "random_raw" else getattr(gen, method)
    return draw(BLOCK_TRIALS * width).reshape(BLOCK_TRIALS, width)[t % BLOCK_TRIALS]


def lattice(words, n, bits=16):
    """The points exp(j 2 pi k / 2^bits) whose k are the top bits of the
    first n 16-bit lanes, lowest first, of each row of raw words."""
    shifts = np.arange(0, 64, 16, dtype=np.uint64)
    lanes = (words[..., None] >> shifts) & np.uint64(0xFFFF)
    k = lanes.reshape(*words.shape[:-1], -1)[..., :n] >> np.uint64(16 - bits)
    return _unit_circle(bits)[k.astype(np.int64)]


def trial_normals(seed, t, purpose, n):
    """Trial t's n unit complex normals: the square roots of its n
    exponentials of purpose times the 2^16-point phasors picked by the
    16-bit lanes, lowest first, of its ceil(n / 4) raw words of
    purpose + NORMAL_PHASES."""
    magnitude = np.sqrt(block_row(seed, t, purpose, n, "standard_exponential"))
    words = block_row(seed, t, purpose + NORMAL_PHASES, -(-n // 4), "random_raw")
    return magnitude * lattice(words, n)
