import dataclasses
import math

import numpy as np
import pytest

from rispilot.channel import (
    PURPOSE_BS_RIS,
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    PURPOSE_RIS_USER,
    RngStream,
    sample_channels,
    standard_complex_normal,
    substream,
    trial_draws,
    unit_normals,
)
from corridor import CORRIDOR, corridor_link
from rispilot.scenario import Link, cascaded_large_scale

SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0, stream_id=-5)


def test_substream_repeatability_and_separation():
    rng = RngStream(123, stream_id=7)
    a = substream(rng, PURPOSE_RIS_USER, 0).random(4)
    b = substream(rng, PURPOSE_RIS_USER, 0).random(4)
    assert np.array_equal(a, b)
    for purpose, ris in [
        (PURPOSE_RIS_USER, 1),
        (PURPOSE_BS_RIS, 0),
        (PURPOSE_PILOT_NOISE, 0),
        (PURPOSE_PHASE, 0),
    ]:
        assert not np.array_equal(a, substream(rng, purpose, ris).random(4))
    assert not np.array_equal(a, substream(RngStream(123, stream_id=8), PURPOSE_RIS_USER, 0).random(4))
    assert not np.array_equal(a, substream(RngStream(124, stream_id=7), PURPOSE_RIS_USER, 0).random(4))


def test_standard_complex_normal_moments():
    gen = substream(RngStream(5), PURPOSE_RIS_USER, 0)
    w = standard_complex_normal(gen, 100_000)
    n = w.size
    assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 4.0 / math.sqrt(n)
    assert abs(np.mean(w)) < 4.0 / math.sqrt(2 * n)
    # circularity: the pseudo-variance E[w^2] vanishes
    assert abs(np.mean(w**2)) < 4.0 / math.sqrt(n)


def _channel(link, seed, trial=0):
    """Trial `trial` of seed `seed`, as the engine draws it: (sum(M_k),) coefficients."""
    n = int(link.counts.sum())
    user = unit_normals(seed, trial, trial + 1, PURPOSE_RIS_USER, n)
    bs = unit_normals(seed, trial, trial + 1, PURPOSE_BS_RIS, n)
    return sample_channels(link, user, bs)[0]


@pytest.mark.parametrize("method, width, before", [
    pytest.param("standard_normal", 6, None, id="standard_normal-6"),
    pytest.param("random_raw", 5, None, id="random_raw-5"),
    # the process shares one bit generator: a call that leaves its buffer
    # part used must not show in the next call's draws
    pytest.param("standard_normal", 6, ("random_raw", 3), id="standard_normal-6-after-random_raw-3"),
    pytest.param("random_raw", 5, ("standard_normal", 7), id="random_raw-5-after-standard_normal-7"),
])
def test_trial_draws_are_each_trials_own_substream(method, width, before):
    seed = 2**64 - 3
    if before is not None:
        trial_draws(seed, 8, 10, PURPOSE_PILOT_NOISE, before[1], before[0])
    chunk = trial_draws(seed, 7, 11, PURPOSE_PILOT_NOISE, width, method)
    assert chunk.shape == (4, width)
    for i, t in enumerate(range(7, 11)):
        gen = substream(RngStream(seed, t), PURPOSE_PILOT_NOISE, 0)
        expected = getattr(gen.bit_generator if method == "random_raw" else gen, method)(width)
        assert chunk.dtype == expected.dtype
        assert np.array_equal(chunk[i], expected)
    # a trial's draws do not depend on the range it is drawn in
    assert np.array_equal(trial_draws(seed, 9, 10, PURPOSE_PILOT_NOISE, width, method)[0], chunk[2])
    normals = unit_normals(seed, 7, 9, PURPOSE_RIS_USER, width)
    for i, t in enumerate((7, 8)):
        gen = substream(RngStream(seed, t), PURPOSE_RIS_USER, 0)
        assert np.array_equal(normals[i], standard_complex_normal(gen, width))
    with pytest.raises(ValueError):
        trial_draws(2**64, 0, 1, PURPOSE_RIS_USER, 2)
    with pytest.raises(ValueError):
        trial_draws(0, 3, 2, PURPOSE_RIS_USER, 2)


@pytest.mark.parametrize("method, dtype", [("standard_normal", np.float64),
                                           ("random_raw", np.uint64)])
def test_trial_draws_fill_out_with_the_same_bits(method, dtype):
    out = np.full((4, 6), 7, dtype=dtype)
    got = trial_draws(3, 7, 11, PURPOSE_RIS_USER, 6, method, out=out)
    assert got is out
    assert np.array_equal(out, trial_draws(3, 7, 11, PURPOSE_RIS_USER, 6, method))
    # a row of a larger buffer is filled in place; a misfit out is refused
    wide = np.zeros((5, 6), dtype=dtype)
    trial_draws(3, 9, 10, PURPOSE_RIS_USER, 6, method, out=wide[2:3])
    assert np.array_equal(wide[2], out[2])
    for bad in (wide, np.zeros((4, 6), np.float32), np.zeros((6, 4), dtype=dtype).T):
        with pytest.raises(ValueError):
            trial_draws(3, 7, 11, PURPOSE_RIS_USER, 6, method, out=bad)


def test_unit_normals_fill_out_with_the_same_bits():
    out = np.empty((3, 10))
    normals = unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5, out=out)
    assert np.shares_memory(normals, out)
    assert np.array_equal(normals, unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5))


@pytest.mark.parametrize("k_br, k_ru", [(math.inf, 0.0), (math.inf, 2.0), (3.0, 0.0),
                                        (0.5, math.inf)])
def test_sample_channels_fill_out_with_the_same_bits(k_br, k_ru):
    link = dataclasses.replace(corridor_link(50.0, 4.0, 8, 16), k_br=k_br, k_ru=k_ru)
    user = unit_normals(4, 0, 3, PURPOSE_RIS_USER, 24)
    bs = unit_normals(4, 0, 3, PURPOSE_BS_RIS, 24)
    out = np.full((3, 24), np.nan, dtype=np.complex128)
    h = sample_channels(link, user, bs, out=out)
    assert h is out
    assert np.array_equal(h, sample_channels(link, user, bs))
    with pytest.raises(ValueError):
        sample_channels(link, user, bs, out=np.empty((2, 24), dtype=np.complex128))


def _one_ris_blocked(beta_sq, m):
    return Link(counts=[m], beta_sq=[beta_sq], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)


def test_sampled_energy_matches_large_scale():
    h = _channel(_one_ris_blocked(4.0, 200_000), 11)
    n = h.size
    mean_energy = np.mean(np.abs(h) ** 2)
    # |h|^2 / beta^2 is unit exponential, so its relative standard error is 1/sqrt(n)
    assert abs(mean_energy - 4.0) < 4.0 * 4.0 / math.sqrt(n)


def test_sampled_magnitude_matches_rayleigh_mean():
    h = _channel(_one_ris_blocked(4.0, 200_000), 12)
    n = h.size
    expected = SQRT_PI_HALF * 2.0
    rel_sd = math.sqrt(4.0 / math.pi - 1.0)
    assert abs(np.mean(np.abs(h)) - expected) < 4.0 * expected * rel_sd / math.sqrt(n)
    assert abs(np.mean(h)) < 4.0 * 2.0 / math.sqrt(2 * n)


def test_sampling_is_deterministic_per_stream():
    link = corridor_link(50.0, 4.0, 8, 16)
    a = _channel(link, 3, trial=9)
    b = _channel(link, 3, trial=9)
    c = _channel(link, 3, trial=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[:8], c[:8])
    assert a.shape == (24,)


def test_surfaces_fill_each_trials_stream_end_to_end():
    # surface k's elements take the next M_k values of the trial's stream,
    # so growing the first surface keeps its own draws and shifts the second's
    link1 = corridor_link(50.0, 4.0, 8, 16)
    link2 = corridor_link(50.0, 4.0, 32, 16)
    assert np.array_equal(link1.beta, link2.beta)
    v = unit_normals(21, 0, 1, PURPOSE_RIS_USER, 48)[0]
    h1 = _channel(link1, 21)
    h2 = _channel(link2, 21)
    assert np.array_equal(h1[:8], h2[:8])
    assert np.array_equal(h1[:8], link1.beta[0] * np.conj(v[:8]))
    assert np.array_equal(h2[32:], link1.beta[1] * np.conj(v[32:48]))


def test_sample_channels_rejects_misshapen_draws():
    link = corridor_link(50.0, 4.0, 8, 16)
    with pytest.raises(ValueError):
        sample_channels(link, unit_normals(1, 0, 2, PURPOSE_RIS_USER, 23))
    faded = dataclasses.replace(link, k_br=3.0)
    with pytest.raises(ValueError):
        sample_channels(faded, unit_normals(1, 0, 2, PURPOSE_RIS_USER, 24))


@pytest.mark.parametrize("d", [0.0, 4.0, 16.0, 7.3])
def test_mirrored_layout_reproduces_draws_bit_for_bit(d):
    # the corridor mirrored in y: the user at -d, and the surfaces trade sides
    link_s = corridor_link(50.0, d, 8, 16)
    mirrored = cascaded_large_scale(50.0, -d, **CORRIDOR)[::-1]
    link_m = dataclasses.replace(link_s, beta_sq=mirrored)
    assert np.array_equal(link_s.beta_sq, link_m.beta_sq)
    assert np.array_equal(_channel(link_s, 77), _channel(link_m, 77))


def _one_ris_rician(m, k_br):
    """One surface of cascaded gain beta^2 = 1."""
    return Link(counts=[m], beta_sq=[1.0], sigma_z_sq=1.0, sigma_n_sq=1.0,
                q=1.0, p_avg=1.0, k_br=k_br, k_ru=0.0)


def test_finite_rician_energy_still_matches_cascade():
    link = _one_ris_rician(200_000, 5.0)
    assert link.beta_sq[0] == pytest.approx(1.0, rel=1e-12)
    h = _channel(link, 31)
    n = h.size
    # var(|uv|^2) for rician-by-rayleigh product with K=5, derived by moment algebra
    k = 5.0
    var = (((2 * k + 1) / (k + 1) ** 2) + 1.0) * 2.0 - 1.0
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 4.0 * math.sqrt(var) / math.sqrt(n)
    assert abs(np.mean(h)) < 4.0 * 2.0 / math.sqrt(n)


def test_finite_rician_reduces_fading_spread():
    v_strong = np.var(np.abs(_channel(_one_ris_rician(100_000, 50.0), 32)) ** 2)
    v_weak = np.var(np.abs(_channel(_one_ris_rician(100_000, 0.5), 32)) ** 2)
    assert v_strong < v_weak
