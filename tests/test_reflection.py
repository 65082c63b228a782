import math

import numpy as np
import pytest

from rispilot.channel import RngStream, sample_channels
from rispilot.estimation import ChannelEstimate, PerRisPowers, ls_estimate
from rispilot.reflection import (
    PhaseConfig,
    achievable_rate,
    composite_channel,
    configure_phases,
    random_phases,
    rate_from_gain,
)
from rispilot.scenario import from_large_scale


def _perfect_estimate(blocks):
    blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
    return ChannelEstimate(estimates=blocks, mse=np.zeros(len(blocks)))


def test_conjugate_alignment_on_known_coefficients():
    est = _perfect_estimate([np.array([1.0 + 0.0j, 1.0j, -2.0 + 0.0j])])
    phi = configure_phases(est).coefficients[0]
    expected = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j])
    assert np.allclose(phi, expected, atol=1e-15)


def test_alignment_handles_zero_estimates():
    est = _perfect_estimate([np.array([0.0 + 0.0j, 3.0 + 4.0j])])
    phi = configure_phases(est).coefficients[0]
    assert phi[0] == 1.0 + 0.0j
    assert abs(abs(phi[1]) - 1.0) < 1e-12


def test_aligned_composite_is_sum_of_magnitudes():
    blocks = [np.array([3.0 + 4.0j, 1.0j]), np.array([-5.0 + 12.0j])]
    est = _perfect_estimate(blocks)
    c = composite_channel_from(blocks, configure_phases(est))
    assert c == pytest.approx(5.0 + 1.0 + 13.0, rel=1e-12)
    assert abs(complex(c).imag) < 1e-9


def composite_channel_from(blocks, phases):
    from rispilot.channel import ChannelRealization

    h = ChannelRealization(coefficients=tuple(np.asarray(b, dtype=np.complex128) for b in blocks))
    return composite_channel(h, phases)


def test_phase_config_rejects_non_unit_modulus():
    with pytest.raises(ValueError):
        PhaseConfig(coefficients=(np.array([0.5 + 0.0j]),))


def test_random_phases_deterministic_and_unit_modulus():
    a = random_phases([8, 16], RngStream(9))
    b = random_phases([8, 16], RngStream(9))
    c = random_phases([8, 16], RngStream(10))
    for x, y in zip(a.coefficients, b.coefficients):
        assert np.array_equal(x, y)
    assert not np.array_equal(a.coefficients[0], c.coefficients[0])
    assert all(np.all(np.abs(np.abs(x) - 1.0) < 1e-12) for x in a.coefficients)


def test_alignment_beats_any_other_configuration():
    s, ls = from_large_scale([1.0, 0.25], [8, 8], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)
    for seed in range(5):
        h = sample_channels(s, ls, RngStream(seed))
        aligned = abs(composite_channel(h, configure_phases(_perfect_estimate(h.coefficients)))) ** 2
        scrambled = abs(composite_channel(h, random_phases(s.element_counts, RngStream(seed + 100)))) ** 2
        assert aligned >= scrambled
        # aligned gain equals the squared total magnitude, the coherent ceiling
        ceiling = sum(float(np.sum(np.abs(b))) for b in h.coefficients) ** 2
        assert aligned == pytest.approx(ceiling, rel=1e-12)


def test_gain_invariant_to_common_rotation_single_surface():
    h_block = np.array([1.0 + 2.0j, -0.5 + 0.25j, 3.0 - 1.0j])
    base = configure_phases(_perfect_estimate([h_block]))
    rotated = configure_phases(_perfect_estimate([h_block * np.exp(0.7j)]))
    g0 = abs(composite_channel_from([h_block], base)) ** 2
    g1 = abs(composite_channel_from([h_block], rotated)) ** 2
    assert g1 == pytest.approx(g0, rel=1e-12)


def test_random_phase_mean_gain_is_incoherent_sum():
    s, ls = from_large_scale([1.0, 1.0], [8, 8], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)
    n = 3000
    gains = np.empty(n)
    for t in range(n):
        rng = RngStream(1234, stream_id=t)
        h = sample_channels(s, ls, rng)
        gains[t] = abs(composite_channel(h, random_phases(s.element_counts, rng))) ** 2
    # the incoherent mean gain is sum(M_k beta_k^2) = 16; gain is exponential
    assert abs(np.mean(gains) - 16.0) < 4.0 * 16.0 / math.sqrt(n)


def test_rate_reference_values():
    assert rate_from_gain(1.0, 10.0, 1.0) == pytest.approx(3.459431618637297, rel=1e-15)
    assert rate_from_gain(0.0, 10.0, 1.0) == 0.0
    assert achievable_rate(1.0 + 1.0j, 5.0, 1.0) == pytest.approx(math.log2(11.0), rel=1e-15)
    with pytest.raises(ValueError):
        rate_from_gain(-1.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        rate_from_gain(1.0, 0.0, 1.0)


def test_rate_monotone_in_gain():
    r = [rate_from_gain(g, 10.0, 1e-2) for g in (0.0, 0.1, 1.0, 10.0)]
    assert r == sorted(r) and len(set(r)) == len(r)


def test_noisier_estimates_lose_gain_on_average():
    s, ls = from_large_scale([1.0], [64], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)
    diffs = []
    for seed in range(200):
        rng = RngStream(seed)
        h = sample_channels(s, ls, rng)
        good = ls_estimate(h, PerRisPowers(p_k=[100.0]), 1.0, rng)
        bad = ls_estimate(h, PerRisPowers(p_k=[0.01]), 1.0, rng)
        g_good = abs(composite_channel(h, configure_phases(good))) ** 2
        g_bad = abs(composite_channel(h, configure_phases(bad))) ** 2
        diffs.append(g_good - g_bad)
    assert np.mean(diffs) > 0.0


def test_composite_shape_mismatch_rejected():
    s, ls = from_large_scale([1.0], [4], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=1.0)
    h = sample_channels(s, ls, RngStream(0))
    with pytest.raises(ValueError):
        composite_channel(h, random_phases([5], RngStream(0)))
    with pytest.raises(ValueError):
        composite_channel(h, random_phases([4, 4], RngStream(0)))
