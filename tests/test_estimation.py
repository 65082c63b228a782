import math

import numpy as np
import pytest

from rispilot.channel import (
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
)
from block_draws import trial_normals
from engine_draws import channels, normals
from philox_draws import slot_generator
from rispilot.estimation import PerRisPowers, ls_estimate, noise_scales
from rispilot.scenario import Link


def test_estimate_mse_reference_values():
    # an element trained at power p is estimated with error variance sigma_z_sq / p
    for p, sigma_z_sq, mse in ((0.05, 1e-14, 2e-13), (2.0, 2.0, 1.0)):
        s, h, noise = _sampled(10, counts=(3,), sigma_z_sq=sigma_z_sq)
        est = ls_estimate(h, noise_scales(s.counts, PerRisPowers(p_k=[p]), sigma_z_sq), noise)
        assert np.allclose(est - h, math.sqrt(mse) * noise, rtol=1e-8, atol=0.0)
    with pytest.raises(ValueError):
        PerRisPowers(p_k=[0.0])


def _uniform(counts, p):
    return PerRisPowers(p_k=np.full(len(counts), p))


def test_allocation_mse_per_surface():
    s, h, noise = _sampled(8, beta_sq=(1.0, 1.0), counts=(2, 2))
    est = ls_estimate(h, noise_scales(s.counts, PerRisPowers(p_k=[0.5, 2.0]), 2.0), noise)
    # surface k's elements carry error delta_k = sqrt(sigma_z_sq / p_k), the
    # estimate's mean squared error sigma_z_sq / p_k being 4 and 1
    assert (est - h) / noise == pytest.approx(np.array([[2.0, 2.0, 1.0, 1.0]]))


def _sampled(seed, beta_sq=(1.0,), counts=(64,), sigma_z_sq=1.0):
    """Trial 0 of seed: the link, its (1, sum(M_k)) channel and pilot-noise draws."""
    s = Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0,
             p_avg=1.0)
    return s, channels(s, seed, 0, 1), normals(seed, 0, 1, PURPOSE_PILOT_NOISE, sum(counts))


def test_noiseless_estimate_recovers_channel_exactly():
    s, h, noise = _sampled(1)
    est = ls_estimate(h, noise_scales(s.counts, _uniform(s.counts, s.p_avg), 0.0), noise)
    assert np.array_equal(est, h)


def test_estimate_error_variance_oracle():
    s, h, noise = _sampled(2, counts=(200_000,), sigma_z_sq=2.0)
    est = ls_estimate(h, noise_scales(s.counts, _uniform(s.counts, 2.0), 2.0), noise)  # delta^2 = 1
    eps = est - h
    n = eps.size
    assert abs(np.mean(np.abs(eps) ** 2) - 1.0) < 4.0 / math.sqrt(n)
    assert abs(np.mean(eps)) < 4.0 / math.sqrt(2 * n)


def test_estimate_error_shrinks_with_pilot_power():
    s, h, noise = _sampled(3, counts=(50_000,))
    weak = ls_estimate(h, noise_scales(s.counts, _uniform(s.counts, 0.1), 1.0), noise)
    strong = ls_estimate(h, noise_scales(s.counts, _uniform(s.counts, 10.0), 1.0), noise)
    err = lambda e: np.mean(np.abs(e - h) ** 2)
    assert err(strong) < err(weak)


def _unit_phases(seed, counts, offset=0):
    out = []
    for k, m in enumerate(counts):
        gen = slot_generator(seed, PURPOSE_PHASE, k + offset)
        out.append(np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, m)))
    return out


def test_estimates_do_not_depend_on_training_phase_or_pilots():
    # pilot cancellation: element m of surface k reflects with phase phi and
    # sends pilot x at power p, so the slot receives
    # y = conj(phi h) sqrt(p) x + z with noise z = conj(eps) sqrt(p) x conj(phi);
    # inverting y recovers h + eps, the estimate ls_estimate returns
    s, h, noise = _sampled(4, beta_sq=(1.0, 0.5), counts=(8, 16))
    counts = s.counts
    powers = PerRisPowers(p_k=[0.3, 1.7])
    base = ls_estimate(h, noise_scales(counts, powers, 1.0), noise)[0]
    split = np.cumsum(counts)[:-1]
    for offset in (10, 20):
        phases = _unit_phases(4, counts, offset)
        pilots = _unit_phases(4, counts, offset + 5)
        for hk, est, phi, x, p in zip(
            np.split(h[0], split), np.split(base, split), phases, pilots, powers.p_k
        ):
            root_p = math.sqrt(p)
            eps = est - hk
            y = np.conj(phi * hk) * root_p * x + np.conj(eps) * root_p * x * np.conj(phi)
            recovered = np.conj(y) * x * np.conj(phi) / root_p
            scale = np.maximum(np.abs(est), np.abs(hk)) + math.sqrt(1.0 / p)
            assert np.all(np.abs(recovered - est) <= 1e-9 * scale)


def test_protocol_mode_defaults_match_shortcut_bitwise():
    # the shortcut is h plus sqrt(sigma_z_sq / p_k) times the trial's
    # pilot-noise draw on surface k's elements; the protocol's default
    # training sends pilot 1 with phase 1, and inverting those received
    # slots gives the shortcut back
    s, h, noise = _sampled(5, beta_sq=(2.0, 0.5), counts=(4, 4))
    powers = PerRisPowers(p_k=[0.3, 1.7])
    est = ls_estimate(h, noise_scales(s.counts, powers, 1.0), noise)[0]
    # trial 0's 8 pilot-noise normals, rebuilt from its block's streams
    w = trial_normals(5, 0, PURPOSE_PILOT_NOISE, 8)
    delta = np.repeat(np.sqrt(1.0 / powers.p_k), s.counts)
    assert np.array_equal(est, h[0] + delta * w)
    root_p = 1.0 / delta
    y = np.conj(h[0]) * root_p + np.conj(est - h[0]) * root_p
    recovered = np.conj(y) / root_p
    scale = np.maximum(np.abs(est), np.abs(h[0])) + delta
    assert np.all(np.abs(recovered - est) <= 1e-9 * scale)


def test_channel_estimate_shape_guard():
    s, h, noise = _sampled(6, beta_sq=(1.0, 1.0), counts=(2, 2))
    powers = PerRisPowers(p_k=[1.0, 1.0])
    delta = noise_scales(s.counts, powers, 1.0)
    with pytest.raises(ValueError):
        ls_estimate(h, delta, noise[:, :3])
    with pytest.raises(ValueError):
        ls_estimate(h, noise_scales((2, 1), powers, 1.0), noise)
    with pytest.raises(ValueError, match="nonnegative"):
        noise_scales(s.counts, powers, -1.0)


def test_power_count_must_match_surfaces():
    with pytest.raises(ValueError, match="1 pilot powers for 2 surfaces"):
        noise_scales((2, 2), PerRisPowers(p_k=[1.0]), 1.0)


def test_estimate_fills_out_with_the_same_bits():
    link = Link(counts=(3, 5), beta_sq=(1.0, 0.25), sigma_z_sq=0.7, sigma_n_sq=1.0, q=1.0,
                p_avg=1.0)
    h = channels(link, 12, 0, 4)
    noise = normals(12, 0, 4, PURPOSE_PILOT_NOISE, 8)
    powers = PerRisPowers(p_k=[0.4, 1.36])
    out = np.full((4, 8), np.nan, dtype=np.complex128)
    est = ls_estimate(h, noise_scales(link.counts, powers, 0.7), noise, out=out)
    assert est is out
    assert np.array_equal(est, ls_estimate(h, noise_scales(link.counts, powers, 0.7), noise))
    with pytest.raises(ValueError):
        ls_estimate(h, noise_scales(link.counts, powers, 0.7), noise,
                    out=np.empty((3, 8), np.complex128))


def test_an_estimate_may_not_overwrite_its_channel():
    # out=h would scale the noise into h and then add h to itself
    s, h, noise = _sampled(13, beta_sq=(1.0, 0.5), counts=(3, 5))
    delta = noise_scales(s.counts, PerRisPowers(p_k=[0.4, 1.6]), 0.7)
    want = ls_estimate(h, delta, noise)
    kept = h.copy()
    for out in (h, h[:, ::-1], h.view(np.float64)[:, :8].view(np.complex128)):
        with pytest.raises(ValueError, match="share memory with h"):
            ls_estimate(h, delta, noise, out=out)
    assert np.array_equal(h, kept)
    # the noise buffer is free to take the estimate
    assert np.array_equal(ls_estimate(h, delta, noise, out=noise), want)
