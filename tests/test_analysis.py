import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rispilot.analysis import (
    GainBreakdown,
    ModelAssumptionWarning,
    alignment_mean,
    ergodic_gain_closed_form,
    ergodic_gain_rows,
    model_applies,
    objective_phi,
    stationarity_residual,
    surface_objective,
)
from rispilot.estimation import PerRisPowers
from rispilot.scenario import Link


def _link(beta_sq, counts, sigma_z_sq):
    return Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0,
                p_avg=1.0)


def _alloc(per_ris_powers):
    return PerRisPowers(p_k=np.asarray(per_ris_powers, dtype=np.float64))


def _uniform(counts, p):
    return _alloc(np.full(len(counts), p))


def test_alignment_mean_reference_values():
    assert alignment_mean(1.0, 0.0) == pytest.approx(0.886226925452758, rel=1e-12)
    assert alignment_mean(1.0, 1.0) == pytest.approx(0.6266570686577501, rel=1e-12)
    assert alignment_mean(4.0, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        alignment_mean(0.0, 1.0)
    with pytest.raises(ValueError):
        alignment_mean(1.0, -0.5)


def test_alignment_mean_monte_carlo_oracle():
    rng = np.random.default_rng(2024)
    n = 200_000
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.5)
    eps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.5)
    est = h + eps
    stat = h * np.conj(est) / np.abs(est)
    se = np.std(stat.real, ddof=1) / math.sqrt(n)
    assert abs(np.mean(stat.real) - alignment_mean(1.0, 1.0)) < 4.0 * se
    se_im = np.std(stat.imag, ddof=1) / math.sqrt(n)
    assert abs(np.mean(stat.imag)) < 4.0 * se_im


def test_gain_single_element_is_pure_incoherent():
    g = ergodic_gain_closed_form(_link([1.0], [1], 1.0), _uniform([1], 5.0))
    assert g.intra_ris == 0.0 and g.inter_ris == 0.0
    assert g.total == pytest.approx(1.0, rel=1e-12)


def test_gain_two_elements_perfect_estimates():
    g = ergodic_gain_closed_form(_link([1.0], [2], 0.0), _uniform([2], 1.0))
    assert g.total == pytest.approx(2.0 + math.pi / 2.0, rel=1e-12)
    assert g.incoherent == pytest.approx(2.0, rel=1e-12)
    assert g.inter_ris == 0.0


def test_gain_two_elements_unit_noise():
    g = ergodic_gain_closed_form(_link([1.0], [2], 1.0), _uniform([2], 1.0))
    assert g.total == pytest.approx(2.0 + math.pi / 4.0, rel=1e-12)


def test_surface_split_does_not_change_the_gain():
    # two single-element surfaces with equal strength behave like one
    # two-element surface: the pairwise coupling is the same either way
    merged = ergodic_gain_closed_form(_link([1.0], [2], 0.7), _uniform([2], 1.3))
    split = ergodic_gain_closed_form(_link([1.0, 1.0], [1, 1], 0.7), _uniform([1, 1], 1.3))
    assert split.total == pytest.approx(merged.total, rel=1e-12)


def test_gain_monte_carlo_oracle_mixed_surfaces():
    beta_sq = np.array([1.0, 0.25])
    counts = [8, 4]
    powers = [2.0, 0.5]
    sigma_z_sq = 1.0
    rng = np.random.default_rng(99)
    n = 40_000
    total = np.zeros(n, dtype=np.complex128)
    for b2, m, p in zip(beta_sq, counts, powers):
        h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * math.sqrt(b2 / 2.0)
        d2 = sigma_z_sq / p
        eps = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * math.sqrt(d2 / 2.0)
        est = h + eps
        total += np.sum(h * np.conj(est) / np.abs(est), axis=1)
    gains = np.abs(total) ** 2
    se = np.std(gains, ddof=1) / math.sqrt(n)
    closed = ergodic_gain_closed_form(_link(beta_sq, counts, sigma_z_sq), _alloc(powers))
    assert abs(np.mean(gains) - closed.total) < 4.0 * se


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_total_decomposes_through_objective(beta_sq, data):
    k = len(beta_sq)
    counts = data.draw(st.lists(st.integers(min_value=1, max_value=6), min_size=k, max_size=k))
    powers = data.draw(
        st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=k, max_size=k)
    )
    link = _link(beta_sq, counts, 0.8)
    alloc = _alloc(powers)
    g = ergodic_gain_closed_form(link, alloc)
    phi = objective_phi(link, alloc)
    assert g.total == pytest.approx(g.incoherent + 0.25 * math.pi * phi, rel=1e-12)


def test_gain_strictly_increases_with_pilot_power():
    counts = [8, 8]
    link = _link([1.0, 0.25], counts, 1.0)
    totals = [
        ergodic_gain_closed_form(link, _uniform(counts, p)).total
        for p in (0.01, 0.1, 1.0, 10.0, 100.0)
    ]
    assert totals == sorted(totals) and len(set(totals)) == len(totals)


def test_gain_approaches_perfect_csi_limit():
    counts = [4, 6]
    noisy = ergodic_gain_closed_form(_link([2.0, 0.5], counts, 1.0), _uniform(counts, 1e12)).total
    ideal = ergodic_gain_closed_form(_link([2.0, 0.5], counts, 0.0), _uniform(counts, 1.0)).total
    assert noisy == pytest.approx(ideal, rel=1e-9)
    assert noisy <= ideal


def test_model_validity_flag_and_warning():
    link = _link([1.0], [2], 1.0)
    alloc = _uniform([2], 1.0)
    g = ergodic_gain_closed_form(link, alloc)
    assert model_applies(link) is True
    bad = dataclasses.replace(link, k_br=5.0)
    with pytest.warns(ModelAssumptionWarning):
        assert model_applies(bad) is False
    assert ergodic_gain_closed_form(bad, alloc).total == pytest.approx(g.total, rel=1e-15)


def test_shape_mismatches_rejected():
    alloc = _uniform([2, 2], 1.0)
    with pytest.raises(ValueError):
        ergodic_gain_closed_form(_link([1.0], [2], 1.0), alloc)
    with pytest.raises(ValueError):
        ergodic_gain_closed_form(_link([1.0, 1.0], [2, 3], 1.0), _uniform([2, 2, 2], 1.0))
    with pytest.raises(ValueError):
        _link([1.0], [2, 2], 1.0)


def test_residual_equal_under_symmetry():
    r = stationarity_residual(_link([1.0, 1.0, 1.0], [8, 8, 8], 1.0), _alloc([2.0, 2.0, 2.0]))
    assert r[0] == r[1] == r[2]


def test_residual_matches_objective_derivative():
    counts = [8, 16]
    link = _link([1.0, 0.25], counts, 1.0)
    p = np.array([3.0, 2.0])
    r = stationarity_residual(link, _alloc(p))

    def phi_at(powers):
        return objective_phi(link, _alloc(powers))

    for k in range(2):
        h = 1e-5 * p[k]
        up, dn = p.copy(), p.copy()
        up[k] += h
        dn[k] -= h
        fd = (phi_at(up) - phi_at(dn)) / (2.0 * h)
        assert fd == pytest.approx(counts[k] * r[k], rel=1e-5)


def _phi_loop(beta_sq, blocks, sigma_z_sq):
    # reference: one surface at a time, pairs of distinct elements per element
    intra, b_terms = 0.0, []
    for b2, powers in zip(beta_sq, blocks):
        damping = 1.0 / np.sqrt(b2 + sigma_z_sq / powers)
        s_k = float(np.sum(damping))
        intra += b2**2 * float(np.dot(damping, s_k - damping))
        b_terms.append(b2 * s_k)
    b_terms = np.array(b_terms)
    return intra + float(np.dot(b_terms, np.sum(b_terms) - b_terms))


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_objective_matches_loop_reference_on_unequal_blocks(k, data):
    counts = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=k, max_size=k))
    beta_sq = [10.0 ** e for e in data.draw(
        st.lists(st.floats(min_value=-3.0, max_value=1.0), min_size=k, max_size=k)
    )]
    powers = data.draw(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=k, max_size=k)
    )
    blocks = tuple(np.full(m, p) for p, m in zip(powers, counts))
    phi = objective_phi(_link(beta_sq, counts, 0.3), _alloc(powers))
    assert phi == pytest.approx(_phi_loop(beta_sq, blocks, 0.3), rel=1e-12, abs=0.0)


def test_surface_objective_derivatives():
    beta_sq = np.array([1.0, 0.25, 0.05])
    counts = np.array([8.0, 16.0, 3.0])
    p = np.array([3.0, 2.0, 0.4])
    sigma_z_sq = 1.0
    obj = surface_objective(beta_sq, counts, p, sigma_z_sq)
    assert obj.phi == pytest.approx(
        objective_phi(_link(beta_sq, counts.astype(int), sigma_z_sq), _alloc(p)), rel=1e-12
    )
    hessian = 2.0 * np.outer(obj.slope, obj.slope) + np.diag(obj.curvature)
    for k in range(3):
        h = 1e-5 * p[k]
        up, dn = p.copy(), p.copy()
        up[k] += h
        dn[k] -= h
        grad_up = counts * surface_objective(beta_sq, counts, up, sigma_z_sq).residual
        grad_dn = counts * surface_objective(beta_sq, counts, dn, sigma_z_sq).residual
        assert np.allclose((grad_up - grad_dn) / (2.0 * h), hessian[:, k], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("column", [False, True], ids=["scalar-noise", "noise-column"])
def test_closed_forms_see_the_solvers_damped_sums(column):
    """The closed forms' g_k are surface_objective's coherent sums, bit for bit."""
    rng = np.random.default_rng(64)
    for _ in range(40):
        rows, k = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        counts = rng.integers(1, 257, k)
        beta_sq = 10.0 ** rng.uniform(-12.0, -8.0, (rows, k))
        p = 10.0 ** rng.uniform(-4.0, 0.0, (rows, k))
        sigma = 10.0 ** rng.uniform(-15.0, -9.0, (rows, 1)) if column else 1e-14
        g = surface_objective(beta_sq, counts.astype(np.float64), p, sigma).coherent
        intra = np.vecdot(1.0 - 1.0 / counts, g * g)
        inter = np.vecdot(g, np.add.reduce(g, axis=-1, keepdims=True) - g)
        gains = ergodic_gain_rows(beta_sq, counts.astype(np.float64), p, sigma)
        np.testing.assert_array_equal(gains.intra_ris, intra * (0.25 * math.pi))
        np.testing.assert_array_equal(gains.inter_ris, inter * (0.25 * math.pi))
        for i in range(rows):
            link = _link(beta_sq[i], counts, float(np.broadcast_to(sigma, (rows, 1))[i, 0]))
            assert objective_phi(link, _alloc(p[i])) == float(intra[i] + inter[i])


def test_residual_vanishes_with_perfect_estimates():
    r = stationarity_residual(_link([1.0, 0.25], [8, 16], 1.0), _alloc([1e12, 1e12]))
    assert np.max(np.abs(r)) < 1e-12
    r0 = stationarity_residual(_link([1.0, 0.25], [8, 16], 0.0), _alloc([1.0, 1.0]))
    assert np.all(r0 == 0.0)


def test_residual_input_validation():
    with pytest.raises(ValueError):
        stationarity_residual(_link([1.0], [1], 1.0), _alloc([1.0, 2.0]))
    with pytest.raises(ValueError):
        stationarity_residual(_link([1.0], [1], 1.0), _alloc([0.0]))
    with pytest.raises(ValueError):
        stationarity_residual(_link([1.0], [1], 1.0), _alloc([math.nan]))


def test_breakdown_is_frozen():
    g = GainBreakdown(incoherent=1.0, intra_ris=0.0, inter_ris=0.0, total=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.total = 2.0
