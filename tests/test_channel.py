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
    block_states,
    block_stream,
    link_scales,
    normal_states,
    polar_normals,
    sample_channels,
    unit_normals,
)
from block_draws import block_row, lattice, trial_normals
from corridor import CORRIDOR, corridor_link
from engine_draws import channels, drawn_phases, normals, polar
from philox_draws import complex_normals, slot_generator
from rispilot.scenario import Link, cascaded_large_scale

SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


def _draw_entries():
    """Each public draw entry, called with one seed."""
    return {
        "block_stream": lambda seed: block_stream(seed, 0, PURPOSE_RIS_USER).random(4),
        "block_states": lambda seed: block_states(seed, 0, 1, PURPOSE_RIS_USER),
        "normal_states": lambda seed: normal_states(seed, 0, 1, PURPOSE_RIS_USER),
        # the layer draws take their states from block_states, which checks the seed
        "unit_normals": lambda seed: normals(seed, 0, 1, PURPOSE_RIS_USER, 2),
        "random_phases": lambda seed: drawn_phases(seed, 0, 1, 2),
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
    w = normals(5, 0, 1, PURPOSE_RIS_USER, 100_000)[0]
    n = w.size
    assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 4.0 / math.sqrt(n)
    assert abs(np.mean(w)) < 4.0 / math.sqrt(2 * n)
    # circularity: the pseudo-variance E[w^2] vanishes
    assert abs(np.mean(w**2)) < 4.0 / math.sqrt(n)


def _channel(link, seed, trial=0):
    """Trial `trial` of seed `seed`, as the engine draws it: (sum(M_k),) coefficients."""
    return channels(link, seed, trial, trial + 1)[0]


def _fill_draws(method, seed, start, stop, purpose, width):
    """Trials [start, stop)'s values of one fill, as polar_normals shows them:
    the magnitudes sqrt(E) of width standard exponentials of purpose, or
    for "random_raw" the phasors of the lanes of width raw words of its
    phase purpose."""
    states = normal_states(seed, start, stop, purpose)
    if method == "standard_exponential":
        return polar_normals(states, start, stop, width)[1]
    return polar_normals(states, start, stop, 4 * width)[0]


def _fill_rows(method, values):
    """_fill_draws' rows from rows of the same fill's values of block_stream."""
    if method == "standard_exponential":
        return np.sqrt(values)
    return lattice(values, 4 * values.shape[-1])


def _fill_row(method, seed, t, purpose, width):
    """Trial t's row of _fill_draws, rebuilt from block_stream."""
    stream = purpose if method == "standard_exponential" else purpose + NORMAL_PHASES
    return _fill_rows(method, block_row(seed, t, stream, width, method))


@pytest.mark.parametrize("method, width, before", [
    pytest.param("standard_exponential", 6, None, id="standard_exponential-6"),
    pytest.param("random_raw", 5, None, id="random_raw-5"),
    # the process shares one bit generator: a call that leaves its buffer
    # part used must not show in the next call's draws
    pytest.param("standard_exponential", 6, ("random_raw", 3),
                 id="standard_exponential-6-after-random_raw-3"),
    pytest.param("random_raw", 5, ("standard_exponential", 7),
                 id="random_raw-5-after-standard_exponential-7"),
])
def test_trial_draws_are_each_trials_own_block_row(method, width, before):
    # each fill's values of a trial, as the layer draws show them
    seed = 2**64 - 3
    if before is not None:
        _fill_draws(before[0], seed, 8, 10, PURPOSE_PILOT_NOISE, before[1])
    # the range starts on the last trial of block 0 and ends inside block 1
    chunk = _fill_draws(method, seed, 7, 11, PURPOSE_PILOT_NOISE, width)
    assert len(chunk) == 4
    for i, t in enumerate(range(7, 11)):
        assert np.array_equal(chunk[i], _fill_row(method, seed, t, PURPOSE_PILOT_NOISE, width))
    # a trial's draws do not depend on the range it is drawn in
    assert np.array_equal(_fill_draws(method, seed, 9, 10, PURPOSE_PILOT_NOISE, width)[0],
                          chunk[2])
    drawn = normals(seed, 7, 9, PURPOSE_RIS_USER, width)
    for i, t in enumerate((7, 8)):
        assert np.array_equal(drawn[i], trial_normals(seed, t, PURPOSE_RIS_USER, width))
    with pytest.raises(ValueError):
        normal_states(2**64, 0, 1, PURPOSE_RIS_USER)
    for states in (normal_states, block_states):
        with pytest.raises(ValueError, match="trial range"):
            states(0, 3, 2, PURPOSE_RIS_USER)


@pytest.mark.parametrize("method", ["standard_exponential", "random_raw"])
def test_trial_draws_inside_one_block_and_at_the_last_trial(method):
    seed = 11
    # a range that starts and ends inside block 2 drops the rows before it
    inside = _fill_draws(method, seed, 17, 22, PURPOSE_BS_RIS, 3)
    whole = _fill_draws(method, seed, 16, 24, PURPOSE_BS_RIS, 3)
    assert np.array_equal(inside, whole[1:6])
    for i, t in enumerate(range(17, 22)):
        assert np.array_equal(inside[i], _fill_row(method, seed, t, PURPOSE_BS_RIS, 3))
    # the last trial is row 7 of block 2^61 - 1
    last = _fill_draws(method, seed, 2**64 - 1, 2**64, PURPOSE_PILOT_NOISE, 4)
    assert np.array_equal(last[0], _fill_row(method, seed, 2**64 - 1, PURPOSE_PILOT_NOISE, 4))
    tail = _fill_draws(method, seed, 2**64 - BLOCK_TRIALS, 2**64, PURPOSE_PILOT_NOISE, 4)
    assert np.array_equal(tail[-1], last[0])
    if method == "random_raw":
        # random phases cut the same lanes of their own purpose to 12 bits
        phases = drawn_phases(seed, 17, 22, 11)
        assert np.array_equal(phases, drawn_phases(seed, 16, 24, 11)[1:6])
        for i, t in enumerate(range(17, 22)):
            words = block_row(seed, t, PURPOSE_PHASE, 3, method)
            assert np.array_equal(phases[i], lattice(words, 11, 12))
        words = block_row(seed, 2**64 - 1, PURPOSE_PHASE, 3, method)
        assert np.array_equal(drawn_phases(seed, 2**64 - 1, 2**64, 11)[0],
                              lattice(words, 11, 12))


def _philox_words(seed, purpose, block, n):
    """n raw words of Philox keyed (seed, purpose) from counter (block, 0, 0, 0)."""
    key = np.array([seed, purpose], dtype=np.uint64)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(n)


@pytest.mark.parametrize("method", ["standard_exponential", "random_raw"])
def test_a_block_is_an_sfc64_started_from_philox(method):
    # block c of a purpose, built from numpy alone: an SFC64 whose four state
    # words are the first four words of Philox keyed (seed, purpose) at
    # counter (c, 0, 0, 0), its values dealt out eight trials in a row; the
    # raw words are the phase purpose's
    seed, purpose, width, c = 2**63 + 5, PURPOSE_BS_RIS, 3, 41
    stream = purpose if method == "standard_exponential" else purpose + NORMAL_PHASES

    def block(c):
        bitgen = np.random.SFC64(0)
        bitgen.state = {"bit_generator": "SFC64",
                        "state": {"state": _philox_words(seed, stream, c, 4)},
                        "has_uint32": 0, "uinteger": 0}
        if method == "random_raw":
            values = bitgen.random_raw((BLOCK_TRIALS, width))
        else:
            values = getattr(np.random.Generator(bitgen), method)((BLOCK_TRIALS, width))
        return _fill_rows(method, values)

    start = c * BLOCK_TRIALS
    both = _fill_draws(method, seed, start, start + 2 * BLOCK_TRIALS, purpose, width)
    assert np.array_equal(both[:BLOCK_TRIALS], block(c))
    assert np.array_equal(both[BLOCK_TRIALS:], block(c + 1))
    # blocks c and c + 1 read from one call are the blocks read one call each
    first = _fill_draws(method, seed, start, start + BLOCK_TRIALS, purpose, width)
    second = _fill_draws(method, seed, start + BLOCK_TRIALS, start + 2 * BLOCK_TRIALS, purpose,
                         width)
    assert np.array_equal(both, np.concatenate([first, second]))


def test_consecutive_blocks_and_purposes_are_separated():
    # the first value of each of n consecutive blocks in each purpose, as a
    # draw of mean 0 and variance 1: sqrt(2) Re z for a normal purpose's unit
    # normal z, sqrt(2) Im of z's phasor for its phase purpose (uncorrelated
    # with Re z), and sqrt(2) Re of a random phase. Unit moments, no lag-1
    # correlation between blocks and none between purposes at the same
    # block, each within 4 standard errors
    seed, n = 20240, 20_000
    drawn = (PURPOSE_RIS_USER, PURPOSE_BS_RIS, PURPOSE_PILOT_NOISE)
    purposes = drawn + (PURPOSE_PHASE,) + tuple(p + NORMAL_PHASES for p in drawn)
    assert len(set(purposes)) == 7
    trials = n * BLOCK_TRIALS
    phases = drawn_phases(seed, 0, trials, 1)
    first = {PURPOSE_PHASE: math.sqrt(2.0) * phases[::BLOCK_TRIALS, 0].real}
    for p in drawn:
        phasors, root = polar(seed, 0, trials, p, 1)
        first[p] = math.sqrt(2.0) * (phasors * root)[::BLOCK_TRIALS, 0].real
        first[p + NORMAL_PHASES] = math.sqrt(2.0) * phasors[::BLOCK_TRIALS, 0].imag
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


@pytest.mark.parametrize("method, dtype", [("standard_exponential", np.float64),
                                           ("random_raw", np.uint64)])
def test_trial_draws_fill_out_with_the_same_bits(method, dtype):
    # polar_normals takes each fill into a given buffer: the exponentials into
    # mag, then their roots; the raw words into out's first bytes, then their
    # phasors. Each buffer ends with the bits of a call that makes its own
    name, kind, pick = (("mag", np.float64, 1) if method == "standard_exponential"
                        else ("out", np.complex128, 0))
    stream = PURPOSE_RIS_USER if method == "standard_exponential" else (
        PURPOSE_RIS_USER + NORMAL_PHASES)
    assert block_row(3, 7, stream, 6, method).dtype == dtype
    buffer = np.full((4, 24), np.nan, dtype=kind)
    got = polar(3, 7, 11, PURPOSE_RIS_USER, 24, **{name: buffer})[pick]
    assert got is buffer
    assert np.array_equal(buffer, polar(3, 7, 11, PURPOSE_RIS_USER, 24)[pick])
    width = 24 if method == "standard_exponential" else 6
    for i, t in enumerate(range(7, 11)):
        assert np.array_equal(buffer[i], _fill_row(method, 3, t, PURPOSE_RIS_USER, width))
    # a row of a larger buffer is filled in place; a misfit buffer is refused
    wide = np.zeros((5, 24), dtype=kind)
    polar(3, 9, 10, PURPOSE_RIS_USER, 24, **{name: wide[2:3]})
    assert np.array_equal(wide[2], buffer[2])
    for bad in (wide, np.zeros((4, 24), np.float32), np.zeros((24, 4), dtype=kind).T):
        with pytest.raises(ValueError, match=name):
            polar(3, 7, 11, PURPOSE_RIS_USER, 24, **{name: bad})


def test_unit_normals_fill_out_with_the_same_bits():
    out, mag = np.full((3, 5), np.nan, dtype=np.complex128), np.full((3, 5), np.nan)
    drawn = normals(8, 2, 5, PURPOSE_BS_RIS, 5, out=out, mag=mag)
    assert drawn is out
    assert np.array_equal(drawn, normals(8, 2, 5, PURPOSE_BS_RIS, 5))
    # mag ends holding the magnitudes
    for i, t in enumerate(range(2, 5)):
        exponentials = block_row(8, t, PURPOSE_BS_RIS, 5, "standard_exponential")
        assert np.array_equal(mag[i], np.sqrt(exponentials))
    # a row of larger buffers is filled in place
    wide, wide_mag = np.zeros((5, 5), dtype=np.complex128), np.zeros((5, 5))
    normals(8, 4, 5, PURPOSE_BS_RIS, 5, out=wide[2:3], mag=wide_mag[2:3])
    assert np.array_equal(wide[2], out[2]) and np.array_equal(wide_mag[2], mag[2])
    for bad in (np.empty((3, 6)), np.empty((5, 3)).T, np.empty((3, 5), np.float32)):
        with pytest.raises(ValueError, match="mag"):
            normals(8, 2, 5, PURPOSE_BS_RIS, 5, mag=bad)
    for bad in (np.empty((5, 3), np.complex128).T, np.empty((3, 10))):
        with pytest.raises(ValueError, match="out"):
            normals(8, 2, 5, PURPOSE_BS_RIS, 5, out=bad)
    with pytest.raises(ValueError, match="trial range"):
        normals(8, 5, 2, PURPOSE_BS_RIS, 5)
    # the states must hold one row per block the range touches
    states = normal_states(8, 2, 5, PURPOSE_BS_RIS)
    for start, stop in ((5, 2), (2, 9), (0, 0)):
        with pytest.raises(ValueError, match="block states"):
            unit_normals(states, start, stop, 5)
    # a normal's states pair two purposes; one purpose's states are refused
    with pytest.raises(ValueError, match="block states"):
        unit_normals(block_states(8, 2, 5, PURPOSE_BS_RIS), 2, 5, 5)


@pytest.mark.parametrize("first", [0, 1, 2**61 - 2], ids=["block-0", "block-1", "block-2^61-2"])
def test_block_states_are_the_block_streams_states(first):
    # a range that starts inside block `first` and ends in the last block or
    # two blocks on: row j is the state block_stream gives block first + j
    seed = 2**64 - 5
    start = first * BLOCK_TRIALS + 3
    stop = min(2**64, start + 2 * BLOCK_TRIALS)
    blocks = -(-stop // BLOCK_TRIALS) - first
    for purpose in range(7):
        states = block_states(seed, start, stop, purpose)
        assert states.shape == (blocks, 4) and states.dtype == np.uint64
        for j, row in enumerate(states):
            want = block_stream(seed, first + j, purpose).bit_generator.state["state"]["state"]
            assert np.array_equal(row, want), (purpose, j)
        # a chunk's rows of a range's states are the chunk's own states
        later = (first + 1) * BLOCK_TRIALS
        assert np.array_equal(states[1:], block_states(seed, later, stop, purpose))
        # the chunk's fill from those rows is the chunk's own trials' draws
        paired = np.stack([states[1:], block_states(seed, later, stop, purpose + NORMAL_PHASES)],
                          axis=1)
        root = polar_normals(paired, later, stop, 5)[1]
        for i, t in enumerate(range(later, stop)):
            exponentials = block_row(seed, t, purpose, 5, "standard_exponential")
            assert np.array_equal(root[i], np.sqrt(exponentials)), (purpose, t)


@pytest.mark.parametrize("purpose", [PURPOSE_RIS_USER, PURPOSE_BS_RIS, PURPOSE_PILOT_NOISE])
def test_normal_states_pair_a_purpose_with_its_phase_purpose(purpose):
    # column 0 of row j holds the state block_stream gives block first + j of
    # purpose, column 1 that of purpose + NORMAL_PHASES
    seed, start, stop = 2**64 - 7, 13, 30
    states = normal_states(seed, start, stop, purpose)
    assert states.shape == (3, 2, 4) and states.dtype == np.uint64
    for j, row in enumerate(states):
        for column, stream in enumerate((purpose, purpose + NORMAL_PHASES)):
            want = block_stream(seed, 1 + j, stream).bit_generator.state["state"]["state"]
            assert np.array_equal(row[column], want), (j, column)
    assert np.array_equal(states[:, 0], block_states(seed, start, stop, purpose))
    assert np.array_equal(states[:, 1], block_states(seed, start, stop, purpose + NORMAL_PHASES))


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
        got = normals(seed, start, stop, purpose, n)
        assert got.shape == (stop - start, n) and got.dtype == np.complex128
        # polar_normals leaves the phasors and the magnitudes unmultiplied
        phasors, root = polar(seed, start, stop, purpose, n)
        assert np.array_equal(phasors * root, got)
        for i, t in enumerate(range(start, stop)):
            assert np.array_equal(got[i], trial_normals(seed, t, purpose, n)), (purpose, t)
            exponentials = block_row(seed, t, purpose, n, "standard_exponential")
            assert np.array_equal(root[i], np.sqrt(exponentials)), (purpose, t)


def test_unit_normals_are_circular_unit_normals():
    # 2 * 10^5 values over 800 trials (100 blocks): the moments of CN(0, 1)
    # within 4 standard errors, and the real part's distribution within the
    # DKW bound at alpha = 1e-6
    z = normals(90210, 0, 800, PURPOSE_PILOT_NOISE, 250).ravel()
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
    scales = link_scales(link)
    user = polar(4, 0, 3, PURPOSE_RIS_USER, 24)
    bs = normals(4, 0, 3, PURPOSE_BS_RIS, 24)
    out = np.full((3, 24), np.nan, dtype=np.complex128)
    mag = np.full((3, 24), np.nan)
    h, magnitudes = sample_channels(scales, *user, bs, out=out, mag=mag)
    assert h is out
    fresh, fresh_magnitudes = sample_channels(scales, *user, bs)
    assert np.array_equal(h, fresh)
    # the magnitudes come back only where h is the drawn normal scaled
    if k_ru == 0.0 and math.isinf(k_br):
        assert magnitudes is mag and np.array_equal(mag, fresh_magnitudes)
    else:
        assert magnitudes is None and fresh_magnitudes is None
    for name, bad in (("out", np.empty((2, 24), dtype=np.complex128)),
                      ("mag", np.empty((3, 24), dtype=np.complex128))):
        with pytest.raises(ValueError, match=name):
            sample_channels(scales, *user, bs, **{name: bad})


def test_a_rayleigh_link_is_beta_times_the_user_normal():
    # k_ru = 0 and k_br = inf: h = beta_k u, u the trial's unit normal, and
    # |h| = beta_k sqrt(E) comes back from the exponentials of block_stream
    link = corridor_link(50.0, 4.0, 8, 16)
    scales = link_scales(link)
    beta = np.repeat(link.beta, link.counts)
    h, magnitudes = sample_channels(scales, *polar(7, 5, 11, PURPOSE_RIS_USER, 24))
    for i, t in enumerate(range(5, 11)):
        root = np.sqrt(block_row(7, t, PURPOSE_RIS_USER, 24, "standard_exponential"))
        assert np.array_equal(magnitudes[i], root * beta), t
        assert np.allclose(h[i], beta * trial_normals(7, t, PURPOSE_RIS_USER, 24),
                           rtol=1e-15, atol=0.0), t
        assert np.allclose(np.abs(h[i]), magnitudes[i], rtol=1e-15, atol=0.0), t


@pytest.mark.parametrize("k_br, k_ru", [(3.0, 0.0), (0.5, 2.0), (10.0, math.inf), (0.0, 1.0)])
def test_a_faded_bs_link_gives_the_same_bits_with_a_fade_buffer(k_br, k_ru):
    link = dataclasses.replace(corridor_link(50.0, 4.0, 8, 16), k_br=k_br, k_ru=k_ru)
    scales = link_scales(link)
    phasors, root = polar(6, 0, 3, PURPOSE_RIS_USER, 24)
    bs = normals(6, 0, 3, PURPOSE_BS_RIS, 24)
    # the cascade beta_k (a_ru + b_ru u)(a_br + b_br v) with temporaries, the
    # user hop's scattered part as phasors times beta_k b_ru sqrt(E)
    def rician(k):
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))

    scale = np.repeat(link.beta, link.counts)
    if math.isinf(k_ru):
        expected = np.tile(scale.astype(np.complex128), (3, 1))
    else:
        los, nlos = rician(k_ru)
        expected = phasors * (root * (scale * nlos))
        if los:
            expected += scale * los
    los, nlos = rician(k_br)
    expected *= los + nlos * bs
    fade = np.full((3, 24), np.nan, dtype=np.complex128)
    with_buffer = sample_channels(scales, phasors, root, bs, fade=fade)[0]
    assert with_buffer.tobytes() == sample_channels(scales, phasors, root, bs)[0].tobytes()
    assert with_buffer.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        sample_channels(scales, phasors, root, bs, fade=np.empty((3, 24)))


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
    phasors, root = polar(21, 0, 1, PURPOSE_RIS_USER, 48)
    h1 = _channel(link1, 21)
    h2 = _channel(link2, 21)
    assert np.array_equal(h1[:8], h2[:8])
    assert np.array_equal(h1[:8], phasors[0, :8] * (root[0, :8] * link1.beta[0]))
    assert np.array_equal(h2[32:], phasors[0, 32:48] * (root[0, 32:48] * link1.beta[1]))


@pytest.mark.parametrize("k_br, k_ru", [(math.inf, 0.0), (math.inf, 2.0), (3.0, 0.0),
                                        (0.5, math.inf)])
def test_link_scales_hold_the_links_factors(k_br, k_ru):
    link = dataclasses.replace(corridor_link(50.0, 4.0, 8, 16), k_br=k_br, k_ru=k_ru)
    scattered, direct, bs = link_scales(link)
    beta = np.repeat(link.beta, link.counts)
    if math.isinf(k_ru):
        assert scattered is None and np.array_equal(direct, beta)
    else:
        assert np.array_equal(scattered, beta * math.sqrt(1.0 / (k_ru + 1.0)))
        if k_ru == 0.0:
            assert direct is None
        else:
            assert np.array_equal(direct, beta * math.sqrt(k_ru / (k_ru + 1.0)))
    assert bs == (None if math.isinf(k_br)
                  else (math.sqrt(k_br / (k_br + 1.0)), math.sqrt(1.0 / (k_br + 1.0))))
    # one range's vectors serve every chunk, so none may be written
    for vector in (scattered, direct):
        assert vector is None or not vector.flags.writeable


def test_sample_channels_rejects_misshapen_draws():
    link = corridor_link(50.0, 4.0, 8, 16)
    scales = link_scales(link)
    with pytest.raises(ValueError):
        sample_channels(scales, *polar(1, 0, 2, PURPOSE_RIS_USER, 23))
    phasors, root = polar(1, 0, 2, PURPOSE_RIS_USER, 24)
    with pytest.raises(ValueError):
        sample_channels(scales, phasors, root[:1])
    faded = dataclasses.replace(link, k_br=3.0)
    with pytest.raises(ValueError):
        sample_channels(link_scales(faded), phasors, root)


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
