import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rispilot.allocation import (
    ALLOCATOR_IDS,
    InfeasibleAllocationError,
    NonConvergenceError,
    PerRisPowers,
    UniformFallbackWarning,
    allocate_average,
    allocate_equal_m,
    allocate_exact_numeric,
    allocate_large_m,
    allocate_moderate_snr,
    multiplier_spread,
    resolve_allocator,
    run_allocator,
    solve_exact,
)
from rispilot.analysis import objective_phi, stationarity_residual
from rispilot.scenario import LargeScale, from_large_scale


def _ls(*beta_sq):
    return LargeScale(beta_sq=np.array(beta_sq, dtype=np.float64))


def test_moderate_snr_two_surface_example():
    # amplitudes 2 and 1, one element each: powers split 1:2
    p = allocate_moderate_snr(_ls(4.0, 1.0), [1, 1], 1.0).p_k
    assert p[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert p[1] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_equal_count_inverse_root_law():
    p = allocate_equal_m(_ls(16.0, 1.0), 2, 1.0).p_k
    assert p[1] == 2.0 * p[0]
    prod = p * np.sqrt(np.sqrt(np.array([16.0, 1.0])))
    assert prod[0] == pytest.approx(prod[1], rel=1e-12)


def test_large_m_unequal_counts_example():
    # amplitudes 4 and 1, so the per-surface damping roots are 2 and 1
    p = allocate_large_m(_ls(16.0, 1.0), [10, 30], 1.0).p_k
    assert p[0] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert p[1] == pytest.approx(8.0 / 7.0, rel=1e-12)


def test_large_m_routes_equal_counts_through_equal_m():
    ls = _ls(3.0, 0.7, 1.2)
    a = allocate_large_m(ls, [64, 64, 64], 0.05).p_k
    b = allocate_equal_m(ls, 3, 0.05).p_k
    assert np.array_equal(a, b)


def test_average_allocator_is_flat():
    s, _ = from_large_scale([1.0, 2.0], [8, 8], sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=0.2)
    assert np.all(allocate_average(s).p_k == 0.2)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=5),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_closed_forms_meet_the_budget(beta_sq, data):
    k = len(beta_sq)
    counts = data.draw(st.lists(st.integers(min_value=1, max_value=200), min_size=k, max_size=k))
    p_avg = data.draw(st.floats(min_value=1e-4, max_value=10.0))
    ls = _ls(*beta_sq)
    total = sum(counts) * p_avg
    for p in (
        allocate_moderate_snr(ls, counts, p_avg).p_k,
        allocate_large_m(ls, counts, p_avg).p_k,
    ):
        assert float(np.dot(counts, p)) == pytest.approx(total, rel=1e-12)
        assert np.all(p > 0.0)
    p_eq = allocate_equal_m(ls, k, p_avg).p_k
    assert float(np.sum(p_eq)) == pytest.approx(k * p_avg, rel=1e-12)


def test_closed_forms_scale_linearly_with_budget():
    ls = _ls(2.0, 0.5, 0.1)
    counts = [16, 8, 4]
    for fn in (
        lambda pa: allocate_moderate_snr(ls, counts, pa).p_k,
        lambda pa: allocate_large_m(ls, counts, pa).p_k,
        lambda pa: allocate_equal_m(ls, 3, pa).p_k,
    ):
        base = fn(0.3)
        assert np.array_equal(fn(0.3 * 4.0), base * 4.0)  # power-of-two scale is exact
        assert np.allclose(fn(0.3 * 3.7), base * 3.7, rtol=1e-12)


def test_closed_forms_are_permutation_equivariant():
    beta_sq = [4.0, 1.0, 0.25]
    counts = [10, 20, 40]
    order = [2, 0, 1]
    ls, ls_perm = _ls(*beta_sq), _ls(*[beta_sq[i] for i in order])
    counts_perm = [counts[i] for i in order]
    for fn, fn_args, perm_args in (
        (allocate_moderate_snr, (ls, counts, 1.0), (ls_perm, counts_perm, 1.0)),
        (allocate_large_m, (ls, counts, 1.0), (ls_perm, counts_perm, 1.0)),
        (allocate_equal_m, (ls, 3, 1.0), (ls_perm, 3, 1.0)),
    ):
        base = fn(*fn_args).p_k
        perm = fn(*perm_args).p_k
        assert np.allclose(perm, base[order], rtol=1e-12)


def test_weaker_surfaces_get_more_power():
    ls = _ls(4.0, 1.0, 0.25)
    for p in (
        allocate_moderate_snr(ls, [8, 8, 8], 1.0).p_k,
        allocate_large_m(ls, [8, 4, 2], 1.0).p_k,
        allocate_equal_m(ls, 3, 1.0).p_k,
    ):
        assert p[0] < p[1] < p[2]


def test_single_element_network_falls_back_to_uniform():
    with pytest.warns(UniformFallbackWarning):
        p = allocate_moderate_snr(_ls(2.0), [1], 0.7).p_k
    assert np.array_equal(p, np.array([0.7]))


def test_inconsistent_inputs_raise_infeasible():
    # a corrupt gain table whose amplitude sum undershoots one entry
    fake = types.SimpleNamespace(
        beta=np.array([5.0, -4.9]), beta_sq=np.array([25.0, 24.01]), num_ris=2
    )
    with pytest.raises(InfeasibleAllocationError) as exc:
        allocate_moderate_snr(fake, [1, 1], 1.0)
    assert 0 in exc.value.ris_indices


def test_per_ris_powers_validation_and_expansion():
    with pytest.raises(ValueError):
        PerRisPowers(p_k=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PerRisPowers(p_k=np.array([[1.0]]))
    powers = allocate_large_m(_ls(4.0, 1.0), [10, 30], 0.5)
    assert float(np.dot([10, 30], powers.p_k)) == pytest.approx(20.0, rel=1e-12)


def test_exact_solver_symmetric_case_is_uniform_bitwise():
    p = allocate_exact_numeric(_ls(1.0, 1.0), [32, 32], 0.25, 1e-3).p_k
    assert np.all(p == 0.25)


def test_exact_solver_noiseless_training_returns_uniform():
    p = allocate_exact_numeric(_ls(4.0, 1.0), [8, 16], 0.25, 0.0).p_k
    assert np.all(p == 0.25)


_SOLVER_LS = _ls(1.0, 0.25)
_SOLVER_COUNTS = [100, 100]
_SOLVER_PAVG = 4.0
_SOLVER_NOISE = 1.0


def test_exact_solver_equalizes_the_multiplier():
    sol = allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE)
    r = stationarity_residual(_SOLVER_LS, _SOLVER_COUNTS, sol.p_k, _SOLVER_NOISE)
    spread = (r.max() - r.min()) / np.max(np.abs(r))
    assert spread < 1e-6
    budget = float(np.dot(_SOLVER_COUNTS, sol.p_k))
    assert budget == pytest.approx(sum(_SOLVER_COUNTS) * _SOLVER_PAVG, rel=1e-9)


def test_exact_solver_beats_every_closed_form():
    def phi_of(p_k):
        return objective_phi(_SOLVER_LS, _SOLVER_COUNTS, PerRisPowers(p_k=p_k), _SOLVER_NOISE)

    exact = allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE)
    phi_exact = phi_of(exact.p_k)
    slack = 1e-12 * abs(phi_exact)
    for rival in (
        allocate_moderate_snr(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG).p_k,
        allocate_large_m(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG).p_k,
        np.full(2, _SOLVER_PAVG),
    ):
        assert phi_exact + slack >= phi_of(rival)


def test_exact_solver_stays_near_moderate_snr_form_at_high_snr():
    # per-element training SNR is at least 10 dB here, the regime the
    # closed form was built for
    exact = allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, 400.0, _SOLVER_NOISE).p_k
    closed = allocate_moderate_snr(_SOLVER_LS, _SOLVER_COUNTS, 400.0).p_k
    assert np.max(np.abs(exact - closed) / closed) < 0.05


def test_exact_solver_start_independence():
    sol = allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE)
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    max_dev = 0.0
    for _ in range(3):
        start = gen.uniform(0.1, 1.0, len(_SOLVER_COUNTS)) * _SOLVER_PAVG
        other = allocate_exact_numeric(
            _SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE, start=start
        )
        max_dev = max(max_dev, float(np.max(np.abs(other.p_k - sol.p_k))) / _SOLVER_PAVG)
    assert max_dev < 1e-5
    r = stationarity_residual(_SOLVER_LS, _SOLVER_COUNTS, sol.p_k, _SOLVER_NOISE)
    assert multiplier_spread(r) < 1e-6
    assert objective_phi(_SOLVER_LS, _SOLVER_COUNTS, sol, _SOLVER_NOISE) > 0.0


def test_exact_solver_nonconvergence_carries_best_iterate():
    with pytest.raises(NonConvergenceError) as exc:
        allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE, max_iter=1)
    err = exc.value
    assert err.best_powers.shape == (2,)
    assert err.residuals.shape == (2,)
    assert np.all(err.best_powers > 0.0)


def test_exact_solver_failure_message_reports_what_ran():
    with pytest.raises(NonConvergenceError) as exc:
        allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, _SOLVER_PAVG, _SOLVER_NOISE, max_iter=1)
    message = str(exc.value)
    assert message.startswith("no convergence after 1 iterations (cap 1): multiplier spread ")
    spread = float(message.split("multiplier spread ")[1].split()[0])
    assert spread == pytest.approx(multiplier_spread(exc.value.residuals), rel=1e-3)
    assert spread > 1e-9


# the benchmark's heterogeneous problems: 14 dBm average pilot power
# and -110 dBm training noise
_HETERO_PAVG = 10.0 ** 1.4 / 1000.0
_HETERO_NOISE = 1e-14


@given(st.integers(min_value=2, max_value=64), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_solver_certifies_heterogeneous_problems(k, data):
    exponents = data.draw(
        st.lists(st.floats(min_value=-12.0, max_value=-8.0), min_size=k, max_size=k)
    )
    counts = data.draw(st.lists(st.integers(min_value=8, max_value=256), min_size=k, max_size=k))
    ls = _ls(*(10.0 ** e for e in exponents))
    exact = allocate_exact_numeric(ls, counts, _HETERO_PAVG, _HETERO_NOISE).p_k
    budget = float(np.dot(counts, exact))
    assert budget == pytest.approx(sum(counts) * _HETERO_PAVG, rel=1e-9)
    r = stationarity_residual(ls, counts, exact, _HETERO_NOISE)
    assert multiplier_spread(r) < 1e-6

    def phi_of(p_k):
        return objective_phi(ls, counts, PerRisPowers(p_k=p_k), _HETERO_NOISE)

    phi_exact = phi_of(exact)
    for rival in (
        np.full(k, _HETERO_PAVG),
        allocate_moderate_snr(ls, counts, _HETERO_PAVG).p_k,
        allocate_large_m(ls, counts, _HETERO_PAVG).p_k,
    ):
        assert phi_exact + 1e-12 * abs(phi_exact) >= phi_of(rival)


def test_exact_solver_rejects_bad_start():
    with pytest.raises(ValueError):
        allocate_exact_numeric(
            _SOLVER_LS, _SOLVER_COUNTS, 1.0, 1.0, start=np.array([1.0, -1.0])
        )
    with pytest.raises(ValueError):
        allocate_exact_numeric(_SOLVER_LS, _SOLVER_COUNTS, 1.0, 1.0, start=np.ones(3))


def test_allocator_vocabulary():
    assert ALLOCATOR_IDS == ("uniform", "eq27", "eq28", "eq29", "exact")
    assert resolve_allocator("average") == "uniform"
    assert resolve_allocator("moderate-snr") == "eq27"
    assert resolve_allocator("large-m") == "eq28"
    assert resolve_allocator("equal-m") == "eq29"
    assert resolve_allocator("numeric") == "exact"
    assert resolve_allocator("exact") == "exact"
    with pytest.raises(ValueError):
        resolve_allocator("nope")


def test_run_allocator_dispatch():
    s, ls = from_large_scale(
        [1.0, 0.25], [16, 16], sigma_z_sq=0.01, sigma_n_sq=1.0, q=1.0, p_avg=2.0
    )
    flat = run_allocator("uniform", s, ls).p_k
    assert np.all(flat == 2.0)
    assert np.array_equal(
        run_allocator("eq28", s, ls).p_k, run_allocator("eq29", s, ls).p_k
    )
    s2, ls2 = from_large_scale(
        [1.0, 0.25], [16, 8], sigma_z_sq=0.01, sigma_n_sq=1.0, q=1.0, p_avg=2.0
    )
    with pytest.raises(ValueError):
        run_allocator("eq29", s2, ls2)
    assert np.all(run_allocator("exact", s, ls).p_k > 0.0)
    # a list of gains is solved in one call, `exact` only
    _, ls3 = from_large_scale([0.5, 0.25], [16, 16], sigma_z_sq=0.01, sigma_n_sq=1.0, q=1.0,
                              p_avg=2.0)
    sol = run_allocator("exact", s, [ls, ls3])
    assert np.array_equal(sol.row(0), run_allocator("exact", s, ls).p_k)
    assert np.array_equal(sol.row(1), run_allocator("exact", s, ls3).p_k)
    with pytest.raises(TypeError):
        run_allocator("eq28", s, [ls, ls3])


def _problem_rows(draw, k, n):
    """n solver rows on k surfaces, cascade gains over eight decades."""
    exps = draw(st.lists(st.lists(st.floats(-18.0, -10.0), min_size=k, max_size=k),
                         min_size=n, max_size=n))
    counts = draw(st.lists(st.lists(st.integers(1, 256), min_size=k, max_size=k),
                           min_size=n, max_size=n))
    snr = draw(st.lists(st.floats(-12.0, 2.0), min_size=n, max_size=n))
    beta_sq = 10.0 ** np.array(exps)
    p_avg = 10.0 ** np.array(snr) * _HETERO_NOISE / beta_sq.max(axis=1)
    return beta_sq, np.array(counts, dtype=np.float64), p_avg


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_a_row_solves_the_same_alone_or_in_any_batch(k, n, data):
    beta_sq, counts, p_avg = _problem_rows(data.draw, k, n)
    order = data.draw(st.permutations(range(n)))
    batch = solve_exact(beta_sq, counts, p_avg, _HETERO_NOISE)
    shuffled = solve_exact(beta_sq[order], counts[order], p_avg[order], _HETERO_NOISE)
    for j, i in enumerate(order):
        alone = solve_exact(beta_sq[i:i + 1], counts[i:i + 1], p_avg[i:i + 1], _HETERO_NOISE)
        for sol, row in ((batch, i), (shuffled, j)):
            assert np.array_equal(sol.powers[row], alone.powers[0])
            assert sol.iterations[row] == alone.iterations[0]
            assert sol.spread[row] == alone.spread[0]
            assert sol.certified[row] == alone.certified[0]


def test_exact_solver_certifies_low_snr_problems_over_eight_decades():
    # per-surface pilot SNR below 1e-4: optimal powers go with beta_sq^2 and
    # span up to sixteen decades, which the p-space solver's step cap crossed at one
    # decade per iteration
    gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    solved = 0
    for k in (2, 3, 4, 8):
        n = 750
        beta_sq = 10.0 ** gen.uniform(-18.0, -10.0, (n, k))
        counts = gen.integers(1, 257, (n, k)).astype(np.float64)
        p_avg = 10.0 ** gen.uniform(-12.0, -4.0, n) * _HETERO_NOISE / beta_sq.max(axis=1)
        sol = solve_exact(beta_sq, counts, p_avg, _HETERO_NOISE)
        assert np.all(sol.certified) and np.all(sol.spread < 1e-9)
        assert np.all(sol.powers > 0.0) and np.all(np.isfinite(sol.powers))
        budget = np.sum(counts * sol.powers, axis=1)
        assert np.allclose(budget, counts.sum(axis=1) * p_avg, rtol=1e-9, atol=0.0)
        solved += n
    assert solved == 3000


def test_exact_solver_certifies_powers_sixteen_decades_apart():
    # exited 3 with a multiplier spread of 1.8e-3 under the step cap
    ls = _ls(1e-10, 1e-16)
    p = allocate_exact_numeric(ls, [4, 8], 1e-30, 1e-14).p_k
    assert multiplier_spread(stationarity_residual(ls, [4, 8], p, 1e-14)) < 1e-9
    assert float(np.dot([4, 8], p)) == pytest.approx(12e-30, rel=1e-12)
    assert p[1] / p[0] < 1e-10
