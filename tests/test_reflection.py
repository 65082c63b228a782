import math

import numpy as np
import pytest

from rispilot.channel import (
    BLOCK_TRIALS,
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    _unit_circle,
    block_states,
    block_stream,
    normal_states,
)
from engine_draws import channels, drawn_phases, normals
from rispilot.estimation import PerRisPowers, ls_estimate, noise_scales
from rispilot.analysis import ModelAssumptionWarning
from rispilot.montecarlo import TrialConfig, sweep_user
from rispilot.reflection import (
    aligned_gain,
    composite_channel,
    configure_phases,
    random_phases,
)
from rispilot.scenario import Link


def _flat(blocks):
    """Per-surface blocks of one trial as a (1, sum(M_k)) engine array."""
    return np.concatenate([np.asarray(b, dtype=np.complex128) for b in blocks])[None, :]


def _link(beta_sq, counts):
    return Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)


def _channels(link, seed, trials=1):
    return channels(link, seed, 0, trials)


def test_conjugate_alignment_on_known_coefficients():
    phi = configure_phases(_flat([np.array([1.0 + 0.0j, 1.0j, -2.0 + 0.0j])]))[0]
    expected = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j])
    assert np.allclose(phi, expected, atol=1e-15)


def test_alignment_handles_zero_estimates():
    phi = configure_phases(_flat([np.array([0.0 + 0.0j, 3.0 + 4.0j])]))[0]
    assert phi[0] == 1.0 + 0.0j
    assert abs(abs(phi[1]) - 1.0) < 1e-12


def test_alignment_matches_complex_division():
    # magnitudes from 1e-300 to 1e300, subnormals and zeros, in every quadrant
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    scale = 10.0 ** gen.uniform(-300.0, 300.0, (40, 64))
    est = (gen.standard_normal((40, 64)) + 1j * gen.standard_normal((40, 64))) * scale
    tiny = np.array([5e-324, -5e-324, 2.5e-310, 1e-308, 0.0, -0.0])
    est[0, :36] = (tiny[:, None] + 1j * tiny[None, :]).ravel()
    est[1, :6] = tiny + 1j * 3.0
    est[2, :6] = 1e300 + 1j * tiny
    mag = np.abs(est)
    with np.errstate(all="ignore"):
        phases = configure_phases(est)
        expected = np.conj(est) / mag
    zero = mag == 0.0
    assert np.count_nonzero(zero) == 4
    assert np.all(phases[zero] == 1.0)
    # the same bits, except that a part which is exactly zero may differ in
    # sign, which no product h * phase can show
    for got, want in ((phases.real, expected.real), (phases.imag, expected.imag)):
        got, want = got[~zero], want[~zero]
        assert np.array_equal(got, want, equal_nan=True)
        nonzero = want != 0.0
        assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))


def test_alignment_fills_out_with_the_same_bits():
    h = _channels(_link([1.0, 0.25], [3, 5]), 6, trials=4)
    h[1, 2] = 0.0  # the zero-estimate fallback runs through out too
    expected = configure_phases(h)
    out = np.full(h.shape, np.nan, dtype=np.complex128)
    assert configure_phases(h, out=out) is out
    assert np.array_equal(out, expected)
    # with the magnitudes in a caller's buffer
    assert np.array_equal(configure_phases(h, mag=np.full(h.shape, np.nan)), expected)
    # in place, over the estimate itself
    est = h.copy()
    assert configure_phases(est, out=est) is est
    assert np.array_equal(est, expected)
    assert est[1, 2] == 1.0


def test_composite_fills_out_with_the_same_bits():
    h = _channels(_link([1.0, 0.25], [3, 5]), 6, trials=4)
    phases = drawn_phases(6, 0, 4, 8)
    expected = composite_channel(h, phases)
    out = np.full(h.shape, np.nan, dtype=np.complex128)
    assert np.array_equal(composite_channel(h, phases, out=out), expected)
    assert np.array_equal(out, h * phases)
    # in place, over the phases
    aligned = configure_phases(h)
    want = composite_channel(h, aligned)
    assert np.array_equal(composite_channel(h, aligned, out=aligned), want)
    assert np.array_equal(aligned, h * configure_phases(h))


def test_random_phases_fill_out_with_the_same_bits():
    out, mag = np.full((3, 11), np.nan, dtype=np.complex128), np.full((3, 11), np.nan)
    assert drawn_phases(9, 4, 7, 11, out=out, mag=mag) is out
    assert np.array_equal(out, drawn_phases(9, 4, 7, 11))
    # the raw words pass through out's first bytes, the grid indices through mag
    assert np.array_equal(_unit_circle(12)[mag.view(np.int64)], out)
    # a row of larger buffers is filled in place
    wide, wide_mag = np.zeros((5, 11), dtype=np.complex128), np.zeros((5, 11))
    drawn_phases(9, 6, 7, 11, out=wide[2:3], mag=wide_mag[2:3])
    assert np.array_equal(wide[2], out[2]) and np.array_equal(wide_mag[2], mag[2])
    for name, bad in (("out", np.empty((3, 12), dtype=np.complex128)),
                      ("out", np.empty((11, 3), dtype=np.complex128).T),
                      ("mag", np.empty((3, 11), dtype=np.complex128))):
        with pytest.raises(ValueError, match=name):
            drawn_phases(9, 4, 7, 11, **{name: bad})
    with pytest.raises(ValueError, match="block states"):
        random_phases(block_states(9, 4, 7, PURPOSE_PHASE), 4, 9, 11)
    with pytest.raises(ValueError, match="block states"):
        random_phases(normal_states(9, 4, 7, PURPOSE_PILOT_NOISE), 4, 7, 11)


def test_aligned_composite_is_sum_of_magnitudes():
    h = _flat([np.array([3.0 + 4.0j, 1.0j]), np.array([-5.0 + 12.0j])])
    c = composite_channel(h, configure_phases(h))
    assert c.shape == (1,)
    assert c[0] == pytest.approx(5.0 + 1.0 + 13.0, rel=1e-12)
    assert abs(c[0].imag) < 1e-9


def test_random_phases_deterministic_and_unit_modulus():
    a = drawn_phases(9, 0, 1, 24)
    b = drawn_phases(9, 0, 1, 24)
    c = drawn_phases(10, 0, 1, 24)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(np.abs(a) - 1.0) < 1e-12)
    # row i is trial i's own phase stream, whatever range it is drawn in
    chunk = drawn_phases(9, 0, 3, 24)
    assert np.array_equal(chunk[0], a[0])
    assert np.array_equal(chunk[2], _grid_phases(9, 2, 24))
    # trial 9 is row 1 of block 1, drawn in a range that starts inside it
    assert np.array_equal(drawn_phases(9, 9, 10, 24)[0], _grid_phases(9, 9, 24))
    # n need not fill whole words: the lanes are read in order, low lane first,
    # so n = 7 takes the first 7 of n = 8's lanes, both two words a trial
    assert np.array_equal(drawn_phases(9, 2, 3, 7)[0], _grid_phases(9, 2, 7))
    assert np.array_equal(drawn_phases(9, 2, 3, 7)[0], drawn_phases(9, 2, 3, 8)[0][:7])


def _grid_phases(seed, t, n):
    """The phases of trial t, by the contract: its ceil(n / 4) raw words, row
    t % 8 of its block's phase stream block_stream(seed, t // 8,
    PURPOSE_PHASE), cut into 16-bit lanes from the lowest up, whose top 12
    bits pick exp(j 2 pi k / 4096)."""
    width = -(-n // 4)
    block = block_stream(seed, t // BLOCK_TRIALS, PURPOSE_PHASE)
    words = block.bit_generator.random_raw((BLOCK_TRIALS, width))[t % BLOCK_TRIALS]
    lanes = [(int(w) >> (16 * j)) & 0xFFFF for w in words for j in range(4)]
    return np.exp(2j * math.pi / 4096 * np.array([lane >> 4 for lane in lanes[:n]]))


def test_phase_grid_has_the_continuous_moments():
    # E[exp(j k theta)] = 0 for 0 < k < 4096 on the grid, as on the circle
    table = _unit_circle(12)
    assert table.shape == (4096,)
    assert np.all(np.abs(np.abs(table) - 1.0) < 1e-15)
    for k in range(1, 9):
        assert abs(np.mean(table**k)) < 1e-12, k


def test_random_phases_are_uniform_on_the_grid():
    # every grid point and every lane position of a word is equally likely:
    # 2^18 phases over 4096 points (64 expected per point), chi-square with
    # 4095 degrees of freedom below its mean plus 6 standard deviations
    phases = drawn_phases(2024, 0, 256, 1024)
    k = np.rint(np.angle(phases) * (4096 / (2.0 * math.pi))).astype(np.int64) % 4096
    assert np.array_equal(_unit_circle(12)[k], phases)
    expected = phases.size / 4096
    chi2 = np.sum((np.bincount(k.ravel(), minlength=4096) - expected) ** 2) / expected
    assert chi2 < 4095 + 6.0 * math.sqrt(2 * 4095)
    # the mean phasor of each lane position is 0 within 5 standard errors
    for lane in range(4):
        column = phases[:, lane::4]
        assert abs(np.mean(column)) < 5.0 / math.sqrt(column.size), lane


def test_alignment_beats_any_other_configuration():
    link = _link([1.0, 0.25], [8, 8])
    for seed in range(5):
        h = _channels(link, seed)
        aligned = abs(composite_channel(h, configure_phases(h))[0]) ** 2
        scrambled = abs(composite_channel(h, drawn_phases(seed + 100, 0, 1, 16))[0]) ** 2
        assert aligned >= scrambled
        # aligned gain equals the squared total magnitude, the coherent ceiling
        ceiling = float(np.sum(np.abs(h))) ** 2
        assert aligned == pytest.approx(ceiling, rel=1e-12)


def test_aligned_gain_is_the_squared_sum_of_magnitudes():
    h = _channels(_link([1.0, 0.25], [3, 5]), 8, trials=6)
    gains = aligned_gain(np.abs(h))
    assert gains.shape == (6,)
    assert np.array_equal(gains, np.sum(np.abs(h), axis=-1) ** 2)
    # the phases it spares give the same gain up to rounding
    phased = np.abs(composite_channel(h, configure_phases(h))) ** 2
    assert np.allclose(gains, phased, rtol=1e-14, atol=0.0)


def test_a_zero_coefficient_adds_nothing_to_the_aligned_gain():
    h = _flat([np.array([0.0 + 0.0j, 3.0 + 4.0j]), np.array([-0.0 - 0.0j, -5.0 + 12.0j])])
    assert aligned_gain(np.abs(h))[0] == 18.0**2
    # as the phase-1 fallback of configure_phases gives it
    phased = abs(composite_channel(h, configure_phases(h))[0]) ** 2
    assert phased == pytest.approx(18.0**2, rel=1e-15)
    assert aligned_gain(np.zeros((2, 4))).tolist() == [0.0, 0.0]


def test_gain_invariant_to_common_rotation_single_surface():
    h = _flat([np.array([1.0 + 2.0j, -0.5 + 0.25j, 3.0 - 1.0j])])
    rotated = h * np.exp(0.7j)
    g0 = abs(composite_channel(h, configure_phases(h))[0]) ** 2
    g1 = abs(composite_channel(h, configure_phases(rotated))[0]) ** 2
    assert g1 == pytest.approx(g0, rel=1e-12)


def test_random_phase_mean_gain_is_incoherent_sum():
    link = _link([1.0, 1.0], [8, 8])
    n = 3000
    h = _channels(link, 1234, trials=n)
    gains = np.abs(composite_channel(h, drawn_phases(1234, 0, n, 16))) ** 2
    # the incoherent mean gain is sum(M_k beta_k^2) = 16; gain is exponential
    assert abs(np.mean(gains) - 16.0) < 4.0 * 16.0 / math.sqrt(n)


def _rate(gain, q, sigma_n_sq):
    """A sweep row's rate where the composite gain is `gain` in every trial.

    With both hops deterministic and perfect CSI, one single-element
    surface with cascaded gain `gain` gives exactly that composite gain.
    """
    link = Link(counts=[1], beta_sq=[gain], sigma_z_sq=1.0, sigma_n_sq=sigma_n_sq, q=q,
                p_avg=1.0, k_ru=math.inf)
    cfg = TrialConfig(trials=2, csi_mode="perfect")
    # a Rician user hop is outside the closed form's model
    with pytest.warns(ModelAssumptionWarning):
        row = sweep_user([link], [0.0], ["uniform"], cfg).rows[0]
    assert row.se_rate == 0.0
    return row.mean_rate


def test_rate_reference_values():
    assert _rate(1.0, 10.0, 1.0) == pytest.approx(3.459431618637297, rel=1e-15)
    assert _rate(4.0, 2.5, 1.0) == pytest.approx(math.log2(11.0), rel=1e-15)
    assert _rate(1e-300, 10.0, 1.0) == 0.0


def test_rate_monotone_in_gain():
    r = [_rate(g, 10.0, 1e-2) for g in (1e-3, 0.1, 1.0, 10.0)]
    assert r == sorted(r) and len(set(r)) == len(r)


def test_noisier_estimates_lose_gain_on_average():
    link = _link([1.0], [64])
    diffs = []
    for seed in range(200):
        h = _channels(link, seed)
        noise = normals(seed, 0, 1, PURPOSE_PILOT_NOISE, 64)
        good = ls_estimate(h, noise_scales(link.counts, PerRisPowers(p_k=[100.0]), 1.0), noise)
        bad = ls_estimate(h, noise_scales(link.counts, PerRisPowers(p_k=[0.01]), 1.0), noise)
        g_good = abs(composite_channel(h, configure_phases(good))[0]) ** 2
        g_bad = abs(composite_channel(h, configure_phases(bad))[0]) ** 2
        diffs.append(g_good - g_bad)
    assert np.mean(diffs) > 0.0


def test_composite_shape_mismatch_rejected():
    link = _link([1.0], [4])
    h = _channels(link, 0)
    with pytest.raises(ValueError):
        composite_channel(h, drawn_phases(0, 0, 1, 5))
    with pytest.raises(ValueError):
        composite_channel(h, drawn_phases(0, 0, 2, 4))
