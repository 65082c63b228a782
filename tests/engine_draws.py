"""The engine's draws of a trial range, called with a seed as the tests call them.

Each purpose's block states come from channel.normal_states or
channel.block_states over the range alone, as a range of the trial
engine derives them; the layer functions then draw from them. Buffers
pass through by keyword.
"""
from rispilot.channel import (
    PURPOSE_BS_RIS,
    PURPOSE_PHASE,
    PURPOSE_RIS_USER,
    block_states,
    link_scales,
    normal_states,
    polar_normals,
    sample_channels,
    unit_normals,
)
from rispilot.reflection import random_phases


def normals(seed, start, stop, purpose, n, **buffers):
    return unit_normals(normal_states(seed, start, stop, purpose), start, stop, n, **buffers)


def polar(seed, start, stop, purpose, n, **buffers):
    return polar_normals(normal_states(seed, start, stop, purpose), start, stop, n, **buffers)


def drawn_phases(seed, start, stop, n, **buffers):
    return random_phases(block_states(seed, start, stop, PURPOSE_PHASE), start, stop, n,
                         **buffers)


def channels(link, seed, start, stop):
    """Trials [start, stop)'s channels of link, as sample_channels forms them."""
    n = int(link.counts.sum())
    user = polar(seed, start, stop, PURPOSE_RIS_USER, n)
    return sample_channels(link_scales(link), *user,
                           normals(seed, start, stop, PURPOSE_BS_RIS, n))[0]
