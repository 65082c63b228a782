import dataclasses
import math

import numpy as np
import pytest

from rispilot.channel import (
    BLOCK_TRIALS,
    NORMAL_PHASES,
    PURPOSE_BS_RIS,
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    PURPOSE_RIS_USER,
    _unit_circle,
    block_stream,
    sample_channels,
    trial_draws,
    unit_normals,
)
from block_draws import block_row, trial_normals
from corridor import CORRIDOR, corridor_link
from philox_draws import complex_normals, slot_generator
from rispilot.reflection import random_phases
from rispilot.scenario import Link, cascaded_large_scale

SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


def _draw_entries():
    """Each public draw entry, called with one seed."""
    return {
        "trial_draws": lambda seed: trial_draws(seed, 0, 1, PURPOSE_RIS_USER, 2),
        "block_stream": lambda seed: block_stream(seed, 0, PURPOSE_RIS_USER).random(4),
        "unit_normals": lambda seed: unit_normals(seed, 0, 1, PURPOSE_RIS_USER, 2),
        "random_phases": lambda seed: random_phases(seed, 0, 1, 2),
    }


@pytest.mark.parametrize("entry", list(_draw_entries()))
def test_every_draw_entry_checks_its_seed(entry):
    draw = _draw_entries()[entry]
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            draw(bad)
    # the largest seed is accepted as an int and as a numpy integer, with the same draws
    assert np.array_equal(draw(2**64 - 1), draw(np.uint64(2**64 - 1)))


def test_block_stream_checks_its_block_index():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="block"):
            block_stream(3, bad, PURPOSE_PHASE)
    a = block_stream(3, 2**64 - 1, PURPOSE_PHASE).random(4)
    assert np.array_equal(a, block_stream(3, np.uint64(2**64 - 1), PURPOSE_PHASE).random(4))


def test_philox_draws_keep_their_pinned_values():
    # the tests that draw their own data (criterion 01, the pilot-cancellation
    # test) were written on these values; they must keep every bit
    pinned = {
        0: [-0.4164572456381788+0.44165677160355676j, 0.0965822360941591+0.03607869934662136j,
            -2.0216224436551493+0.7900308004502875j, -0.5442759159419597+1.1728530011574163j],
        11: [0.9296584133809527+0.36035877060267346j, 0.3319162120886483+0.6296819550785365j,
             0.9641279286675234+0.40107270447861104j, 0.6122244604158169-0.6478278701767989j],
    }
    for slot, values in pinned.items():
        w = complex_normals(slot_generator(1001, PURPOSE_RIS_USER, slot), 4)
        assert w.tolist() == values
    u = slot_generator(4, PURPOSE_PHASE, 10).random(4)
    assert u.tolist() == [0.7305238748239148, 0.7704014848868288, 0.6219619362457844,
                          0.06928131525359937]


def test_unit_normals_moments():
    w = unit_normals(5, 0, 1, PURPOSE_RIS_USER, 100_000)[0]
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
def test_trial_draws_are_each_trials_own_block_row(method, width, before):
    seed = 2**64 - 3
    if before is not None:
        trial_draws(seed, 8, 10, PURPOSE_PILOT_NOISE, before[1], before[0])
    # the range starts on the last trial of block 0 and ends inside block 1
    chunk = trial_draws(seed, 7, 11, PURPOSE_PILOT_NOISE, width, method)
    assert chunk.shape == (4, width)
    for i, t in enumerate(range(7, 11)):
        expected = block_row(seed, t, PURPOSE_PILOT_NOISE, width, method)
        assert chunk.dtype == expected.dtype
        assert np.array_equal(chunk[i], expected)
    # a trial's draws do not depend on the range it is drawn in
    assert np.array_equal(trial_draws(seed, 9, 10, PURPOSE_PILOT_NOISE, width, method)[0], chunk[2])
    normals = unit_normals(seed, 7, 9, PURPOSE_RIS_USER, width)
    for i, t in enumerate((7, 8)):
        assert np.array_equal(normals[i], trial_normals(seed, t, PURPOSE_RIS_USER, width))
    with pytest.raises(ValueError):
        trial_draws(2**64, 0, 1, PURPOSE_RIS_USER, 2)
    with pytest.raises(ValueError):
        trial_draws(0, 3, 2, PURPOSE_RIS_USER, 2)


@pytest.mark.parametrize("method", ["standard_normal", "standard_exponential", "random_raw"])
def test_trial_draws_inside_one_block_and_at_the_last_trial(method):
    seed = 11
    # a range that starts and ends inside block 2 drops the rows before it
    inside = trial_draws(seed, 17, 22, PURPOSE_BS_RIS, 3, method)
    whole = trial_draws(seed, 16, 24, PURPOSE_BS_RIS, 3, method)
    assert np.array_equal(inside, whole[1:6])
    for i, t in enumerate(range(17, 22)):
        assert np.array_equal(inside[i], block_row(seed, t, PURPOSE_BS_RIS, 3, method))
    # the last trial is row 7 of block 2^61 - 1
    last = trial_draws(seed, 2**64 - 1, 2**64, PURPOSE_PHASE, 4, method)
    assert np.array_equal(last[0], block_row(seed, 2**64 - 1, PURPOSE_PHASE, 4, method))
    tail = trial_draws(seed, 2**64 - BLOCK_TRIALS, 2**64, PURPOSE_PHASE, 4, method)
    assert np.array_equal(tail[-1], last[0])


def _philox_words(seed, purpose, block, n):
    """n raw words of Philox keyed (seed, purpose) from counter (block, 0, 0, 0)."""
    key = np.array([seed, purpose], dtype=np.uint64)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(n)


@pytest.mark.parametrize("method", ["standard_normal", "standard_exponential", "random_raw"])
def test_a_block_is_an_sfc64_started_from_philox(method):
    # block c of a purpose, built from numpy alone: an SFC64 whose four state
    # words are the first four words of Philox keyed (seed, purpose) at
    # counter (c, 0, 0, 0), its values dealt out eight trials in a row
    seed, purpose, width, c = 2**63 + 5, PURPOSE_BS_RIS, 3, 41

    def block(c):
        bitgen = np.random.SFC64(0)
        bitgen.state = {"bit_generator": "SFC64",
                        "state": {"state": _philox_words(seed, purpose, c, 4)},
                        "has_uint32": 0, "uinteger": 0}
        if method == "random_raw":
            return bitgen.random_raw((BLOCK_TRIALS, width))
        return getattr(np.random.Generator(bitgen), method)((BLOCK_TRIALS, width))

    start = c * BLOCK_TRIALS
    both = trial_draws(seed, start, start + 2 * BLOCK_TRIALS, purpose, width, method)
    assert np.array_equal(both[:BLOCK_TRIALS], block(c))
    assert np.array_equal(both[BLOCK_TRIALS:], block(c + 1))
    # blocks c and c + 1 read from one call are the blocks read one call each
    first = trial_draws(seed, start, start + BLOCK_TRIALS, purpose, width, method)
    second = trial_draws(seed, start + BLOCK_TRIALS, start + 2 * BLOCK_TRIALS, purpose, width,
                         method)
    assert np.array_equal(both, np.concatenate([first, second]))


def test_consecutive_blocks_and_purposes_are_separated():
    # the first normal of each of n consecutive blocks, in each purpose (the
    # phase purposes of unit_normals too): unit normal moments, no lag-1
    # correlation between blocks and none between purposes at the same
    # block, each within 4 standard errors
    seed, n = 20240, 20_000
    drawn = (PURPOSE_RIS_USER, PURPOSE_BS_RIS, PURPOSE_PILOT_NOISE)
    purposes = drawn + (PURPOSE_PHASE,) + tuple(p + NORMAL_PHASES for p in drawn)
    assert len(set(purposes)) == 7
    first = {p: trial_draws(seed, 0, n * BLOCK_TRIALS, p, 1)[::BLOCK_TRIALS, 0]
             for p in purposes}
    bound = 4.0 / math.sqrt(n)
    for p, x in first.items():
        assert abs(np.mean(x)) < bound, p
        assert abs(np.var(x) - 1.0) < 4.0 * math.sqrt(2.0 / n), p
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < bound, p
    for i, p in enumerate(purposes):
        for q in purposes[i + 1:]:
            assert abs(np.corrcoef(first[p], first[q])[0, 1]) < bound, (p, q)
    # every block of every purpose starts SFC64 at its own state
    states = np.concatenate([_philox_words(seed, p, 0, 4 * n).reshape(n, 4) for p in purposes])
    assert np.unique(states, axis=0).shape == (len(purposes) * n, 4)


@pytest.mark.parametrize("method, dtype", [("standard_normal", np.float64),
                                           ("standard_exponential", np.float64),
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
    out, mag = np.full((3, 10), np.nan), np.full((3, 5), np.nan)
    normals = unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5, out=out, mag=mag)
    assert np.shares_memory(normals, out)
    assert np.array_equal(normals, unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5))
    # mag ends holding the magnitudes
    assert np.array_equal(mag, np.sqrt(trial_draws(8, 2, 5, PURPOSE_BS_RIS, 5,
                                                   "standard_exponential")))
    for bad in (np.empty((3, 6)), np.empty((5, 3)).T, np.empty((3, 5), np.float32)):
        with pytest.raises(ValueError, match="mag"):
            unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5, mag=bad)
    with pytest.raises(ValueError, match="out"):
        unit_normals(8, 2, 5, PURPOSE_BS_RIS, 5, out=np.empty((10, 3)).T)
    with pytest.raises(ValueError, match="trial range"):
        unit_normals(8, 5, 2, PURPOSE_BS_RIS, 5)


@pytest.mark.parametrize("start, stop, n", [
    pytest.param(13, 19, 6, id="inside-a-block-n-6"),
    pytest.param(2**64 - 1, 2**64, 9, id="last-trial-n-9"),
    pytest.param(0, 17, 8, id="three-blocks-n-8"),
    pytest.param(3, 4, 1, id="one-value"),
])
def test_unit_normals_are_polar_draws_of_their_block_streams(start, stop, n):
    # sqrt of the exponentials of the purpose's stream times the 2^16-point
    # phasors at the 16-bit lanes of its phase purpose's raw words
    seed = 2**64 - 9
    for purpose in (PURPOSE_RIS_USER, PURPOSE_BS_RIS, PURPOSE_PILOT_NOISE):
        got = unit_normals(seed, start, stop, purpose, n)
        assert got.shape == (stop - start, n) and got.dtype == np.complex128
        for i, t in enumerate(range(start, stop)):
            assert np.array_equal(got[i], trial_normals(seed, t, purpose, n)), (purpose, t)


def test_unit_normals_are_circular_unit_normals():
    # 2 * 10^5 values over 800 trials (100 blocks): the moments of CN(0, 1)
    # within 4 standard errors, and the real part's distribution within the
    # DKW bound at alpha = 1e-6
    z = unit_normals(90210, 0, 800, PURPOSE_PILOT_NOISE, 250).ravel()
    n = z.size
    x, y = z.real, z.imag
    # each part has variance 1/2; z^2's parts variance 1; |z|^2 is Exp(1)
    assert abs(np.mean(x)) < 4.0 * math.sqrt(0.5 / n)
    assert abs(np.mean(y)) < 4.0 * math.sqrt(0.5 / n)
    z2 = np.mean(z * z)
    assert abs(z2.real) < 4.0 / math.sqrt(n) and abs(z2.imag) < 4.0 / math.sqrt(n)
    assert abs(np.corrcoef(x, y)[0, 1]) < 4.0 / math.sqrt(n)
    power = np.abs(z) ** 2
    assert abs(np.mean(power) - 1.0) < 4.0 / math.sqrt(n)
    # |z|^4 = E^2 has mean 2 and variance 24 - 4 = 20
    assert abs(np.mean(power**2) - 2.0) < 4.0 * math.sqrt(20.0 / n)
    # Kolmogorov-Smirnov distance of sqrt(2) Re z from N(0, 1)
    u = np.sort(math.sqrt(2.0) * x)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in u])
    ranks = np.arange(1, n + 1) / n
    distance = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert distance < math.sqrt(math.log(2.0 / 1e-6) / (2 * n))


def test_normal_phase_table_has_the_continuous_moments():
    # E[exp(j k theta)] = 0 for 0 < k < 2^16 on the lattice, as on the circle
    table = _unit_circle(16)
    assert table.shape == (2**16,) and not table.flags.writeable
    assert np.all(np.abs(np.abs(table) - 1.0) < 1e-15)
    for k in range(1, 9):
        assert abs(np.mean(table**k)) < 1e-12, k
    assert _unit_circle(16) is table


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


@pytest.mark.parametrize("k_br, k_ru", [(3.0, 0.0), (0.5, 2.0), (10.0, math.inf), (0.0, 1.0)])
def test_a_faded_bs_link_gives_the_same_bits_with_a_fade_buffer(k_br, k_ru):
    link = dataclasses.replace(corridor_link(50.0, 4.0, 8, 16), k_br=k_br, k_ru=k_ru)
    user = unit_normals(6, 0, 3, PURPOSE_RIS_USER, 24)
    bs = unit_normals(6, 0, 3, PURPOSE_BS_RIS, 24)
    # the cascade as sample_channels computed it with temporaries
    def rician(k):
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))

    expected = np.ones_like(user) if math.isinf(k_ru) else np.conj(user)
    if 0.0 < k_ru < math.inf:
        los, nlos = rician(k_ru)
        expected *= nlos
        expected += los
    los, nlos = rician(k_br)
    expected *= los + nlos * bs
    expected *= np.repeat(link.beta, link.counts)
    fade = np.full((3, 24), np.nan, dtype=np.complex128)
    with_buffer = sample_channels(link, user, bs, fade=fade)
    assert with_buffer.tobytes() == sample_channels(link, user, bs).tobytes()
    assert with_buffer.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        sample_channels(link, user, bs, fade=np.empty((3, 24)))


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
