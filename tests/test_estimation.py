import math

import numpy as np
import pytest

from rispilot.channel import (
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    RngStream,
    sample_channels,
    standard_complex_normal,
    substream,
)
from rispilot.estimation import (
    ChannelEstimate,
    PerRisPowers,
    estimate_mse,
    ls_estimate,
    pilot_overhead,
)
from rispilot.scenario import cascaded_large_scale, from_large_scale, two_ris_layout


def test_estimate_mse_reference_values():
    assert estimate_mse(0.05, 1e-14) == pytest.approx(2e-13, rel=1e-12)
    assert estimate_mse(2.0, 2.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_mse(0.0, 1e-14)


def _uniform(counts, p):
    return PerRisPowers(p_k=np.full(len(counts), p))


def test_allocation_mse_per_surface():
    s, ls, rng, h = _sampled(8, beta_sq=(1.0, 1.0), counts=(2, 2))
    mse = ls_estimate(h, PerRisPowers(p_k=[0.5, 2.0]), 2.0, rng).mse
    assert mse.shape == (2,)
    assert mse[0] == pytest.approx(4.0) and mse[1] == pytest.approx(1.0)


def _sampled(seed, beta_sq=(1.0,), counts=(64,), sigma_z_sq=1.0):
    s, ls = from_large_scale(
        list(beta_sq), list(counts), sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0, p_avg=1.0
    )
    rng = RngStream(seed)
    return s, ls, rng, sample_channels(s, ls, rng)


def test_noiseless_estimate_recovers_channel_exactly():
    s, ls, rng, h = _sampled(1)
    est = ls_estimate(h, _uniform(s.element_counts, s.p_avg), 0.0, rng)
    assert np.array_equal(est.estimates[0], h.coefficients[0])
    assert np.all(est.mse[0] == 0.0)


def test_estimate_error_variance_oracle():
    s, ls, rng, h = _sampled(2, counts=(200_000,), sigma_z_sq=2.0)
    est = ls_estimate(h, _uniform(s.element_counts, 2.0), 2.0, rng)  # delta^2 = 1
    eps = est.estimates[0] - h.coefficients[0]
    n = eps.size
    assert abs(np.mean(np.abs(eps) ** 2) - 1.0) < 4.0 / math.sqrt(n)
    assert abs(np.mean(eps)) < 4.0 / math.sqrt(2 * n)
    assert est.mse[0] == pytest.approx(1.0)


def test_estimate_error_shrinks_with_pilot_power():
    s, ls, rng, h = _sampled(3, counts=(50_000,))
    weak = ls_estimate(h, _uniform(s.element_counts, 0.1), 1.0, rng)
    strong = ls_estimate(h, _uniform(s.element_counts, 10.0), 1.0, rng)
    err = lambda e: np.mean(np.abs(e.estimates[0] - h.coefficients[0]) ** 2)
    assert err(strong) < err(weak)


def _unit_phases(rng, counts, offset=0):
    out = []
    for k, m in enumerate(counts):
        gen = substream(rng, PURPOSE_PHASE, k + offset)
        out.append(np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, m)))
    return out


def test_estimates_do_not_depend_on_training_phase_or_pilots():
    # pilot cancellation: element m of surface k reflects with phase phi and
    # sends pilot x at power p, so the slot receives
    # y = conj(phi h) sqrt(p) x + z with noise z = conj(eps) sqrt(p) x conj(phi);
    # inverting y recovers h + eps, the estimate ls_estimate returns
    s, ls, rng, h = _sampled(4, beta_sq=(1.0, 0.5), counts=(8, 16))
    powers = PerRisPowers(p_k=[0.3, 1.7])
    base = ls_estimate(h, powers, 1.0, rng)
    for offset in (10, 20):
        phases = _unit_phases(rng, s.element_counts, offset)
        pilots = _unit_phases(rng, s.element_counts, offset + 5)
        for hk, est, phi, x, p in zip(h.coefficients, base.estimates, phases, pilots, powers.p_k):
            root_p = math.sqrt(p)
            eps = est - hk
            y = np.conj(phi * hk) * root_p * x + np.conj(eps) * root_p * x * np.conj(phi)
            recovered = np.conj(y) * x * np.conj(phi) / root_p
            scale = np.maximum(np.abs(est), np.abs(hk)) + math.sqrt(1.0 / p)
            assert np.all(np.abs(recovered - est) <= 1e-9 * scale)


def test_protocol_mode_defaults_match_shortcut_bitwise():
    # the shortcut is h plus sqrt(sigma_z_sq / p_k) times surface k's
    # pilot-noise draw; the protocol's default training sends pilot 1 with
    # phase 1, and inverting those received slots gives the shortcut back
    s, ls, rng, h = _sampled(5, beta_sq=(2.0, 0.5), counts=(4, 4))
    powers = PerRisPowers(p_k=[0.3, 1.7])
    est = ls_estimate(h, powers, 1.0, rng)
    for k, (hk, ek, p) in enumerate(zip(h.coefficients, est.estimates, powers.p_k)):
        delta = np.sqrt(1.0 / p)
        w = standard_complex_normal(substream(rng, PURPOSE_PILOT_NOISE, k), hk.size)
        assert np.array_equal(ek, hk + delta * w)
        root_p = math.sqrt(p)
        y = np.conj(hk) * root_p + np.conj(ek - hk) * root_p
        recovered = np.conj(y) / root_p
        scale = np.maximum(np.abs(ek), np.abs(hk)) + delta
        assert np.all(np.abs(recovered - ek) <= 1e-9 * scale)


def test_channel_estimate_shape_guard():
    with pytest.raises(ValueError):
        ChannelEstimate(estimates=(np.ones(3, dtype=complex),), mse=np.array([1.0, 2.0]))


def test_pilot_overhead_counts_elements():
    s = two_ris_layout(50.0, 0.0, 8, 16)
    assert pilot_overhead(s) == 24


def test_power_count_must_match_surfaces():
    s, ls, rng, h = _sampled(9, beta_sq=(1.0, 1.0), counts=(2, 2))
    with pytest.raises(ValueError):
        ls_estimate(h, PerRisPowers(p_k=[1.0]), 1.0, rng)
