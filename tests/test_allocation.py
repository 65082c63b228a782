import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rispilot import allocation
from rispilot.allocation import (
    ALLOCATOR_IDS,
    NonConvergenceError,
    PerRisPowers,
    UniformFallbackWarning,
    allocate_average,
    allocate_large_m,
    allocate_moderate_snr,
    multiplier_spread,
    resolve_allocator,
    run_allocator,
    solve_exact,
)
from rispilot.analysis import objective_phi, stationarity_residual, surface_objective
from rispilot.scenario import Link, dbm_to_watts
from solver_corpus import solved


def _link(beta_sq, counts, p_avg=1.0, sigma_z_sq=1.0):
    return Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0,
                p_avg=p_avg)


def test_moderate_snr_two_surface_example():
    # amplitudes 2 and 1, one element each: powers split 1:2
    p = allocate_moderate_snr(_link([4.0, 1.0], [1, 1])).p_k
    assert p[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert p[1] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_equal_count_inverse_root_law():
    p = allocate_large_m(_link([16.0, 1.0], [8, 8])).p_k
    assert p[1] == 2.0 * p[0]
    prod = p * np.sqrt(np.sqrt(np.array([16.0, 1.0])))
    assert prod[0] == pytest.approx(prod[1], rel=1e-12)


def test_large_m_unequal_counts_example():
    # amplitudes 4 and 1, so the per-surface damping roots are 2 and 1
    p = allocate_large_m(_link([16.0, 1.0], [10, 30])).p_k
    assert p[0] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert p[1] == pytest.approx(8.0 / 7.0, rel=1e-12)


def test_average_allocator_is_flat():
    assert np.all(allocate_average(_link([1.0, 2.0], [8, 8], 0.2)).p_k == 0.2)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=5),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_closed_forms_meet_the_budget(beta_sq, data):
    k = len(beta_sq)
    counts = data.draw(st.lists(st.integers(min_value=1, max_value=200), min_size=k, max_size=k))
    p_avg = data.draw(st.floats(min_value=1e-4, max_value=10.0))
    link = _link(beta_sq, counts, p_avg)
    total = sum(counts) * p_avg
    for p in (
        allocate_moderate_snr(link).p_k,
        allocate_large_m(link).p_k,
    ):
        assert float(np.dot(counts, p)) == pytest.approx(total, rel=1e-12)
        assert np.all(p > 0.0)
    p_eq = allocate_large_m(_link(beta_sq, [counts[0]] * k, p_avg)).p_k
    assert float(np.sum(p_eq)) == pytest.approx(k * p_avg, rel=1e-12)


def test_closed_forms_scale_linearly_with_budget():
    for allocate, counts in (
        (allocate_moderate_snr, [16, 8, 4]),
        (allocate_large_m, [16, 8, 4]),
        (allocate_large_m, [8, 8, 8]),
    ):
        def fn(pa):
            return allocate(_link([2.0, 0.5, 0.1], counts, pa)).p_k

        base = fn(0.3)
        assert np.array_equal(fn(0.3 * 4.0), base * 4.0)  # power-of-two scale is exact
        assert np.allclose(fn(0.3 * 3.7), base * 3.7, rtol=1e-12)


def test_closed_forms_are_permutation_equivariant():
    beta_sq = [4.0, 1.0, 0.25]
    counts = [10, 20, 40]
    order = [2, 0, 1]
    beta_perm = [beta_sq[i] for i in order]
    counts_perm = [counts[i] for i in order]
    for fn, link, link_perm in (
        (allocate_moderate_snr, _link(beta_sq, counts), _link(beta_perm, counts_perm)),
        (allocate_large_m, _link(beta_sq, counts), _link(beta_perm, counts_perm)),
        (allocate_large_m, _link(beta_sq, [8, 8, 8]), _link(beta_perm, [8, 8, 8])),
    ):
        base = fn(link).p_k
        perm = fn(link_perm).p_k
        assert np.allclose(perm, base[order], rtol=1e-12)


def test_weaker_surfaces_get_more_power():
    beta_sq = [4.0, 1.0, 0.25]
    for p in (
        allocate_moderate_snr(_link(beta_sq, [8, 8, 8])).p_k,
        allocate_large_m(_link(beta_sq, [8, 4, 2])).p_k,
        allocate_large_m(_link(beta_sq, [8, 8, 8])).p_k,
    ):
        assert p[0] < p[1] < p[2]


def test_single_element_network_falls_back_to_uniform():
    with pytest.warns(UniformFallbackWarning):
        p = allocate_moderate_snr(_link([2.0], [1], 0.7)).p_k
    assert np.array_equal(p, np.array([0.7]))


def test_per_ris_powers_validation_and_expansion():
    with pytest.raises(ValueError):
        PerRisPowers(p_k=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PerRisPowers(p_k=np.array([[1.0]]))
    powers = allocate_large_m(_link([4.0, 1.0], [10, 30], 0.5))
    assert float(np.dot([10, 30], powers.p_k)) == pytest.approx(20.0, rel=1e-12)


def test_exact_solver_symmetric_case_is_uniform_bitwise():
    p = run_allocator("exact", _link([1.0, 1.0], [32, 32], 0.25, 1e-3)).p_k
    assert np.all(p == 0.25)


def test_exact_solver_noiseless_training_returns_uniform():
    p = run_allocator("exact", _link([4.0, 1.0], [8, 16], 0.25, 0.0)).p_k
    assert np.all(p == 0.25)
    # at sigma_z^2 = 0 phi is flat and every residual is 0: the solver takes
    # no step, and p_avg itself replaces the start rescaled onto the budget,
    # which can sit an ulp away
    gen = np.random.Generator(np.random.Philox(key=35))
    for k in (1, 2, 8, 64):
        beta_sq = 10.0 ** gen.uniform(-40.0, 40.0, (750, k))
        counts = gen.integers(1, 257, (750, k))
        p_avg = 10.0 ** gen.uniform(-4.0, 0.0, 750)
        sol = solve_exact(beta_sq, counts, p_avg, 0.0)
        assert np.array_equal(sol.powers, np.repeat(p_avg[:, None], k, axis=1))
        assert np.all(sol.iterations == 0) and np.all(sol.certified)


_SOLVER_COUNTS = [100, 100]
_SOLVER_PAVG = 4.0
_SOLVER_LINK = _link([1.0, 0.25], _SOLVER_COUNTS, _SOLVER_PAVG, 1.0)


def test_exact_solver_equalizes_the_multiplier():
    sol = run_allocator("exact", _SOLVER_LINK)
    r = stationarity_residual(_SOLVER_LINK, sol)
    spread = (r.max() - r.min()) / np.max(np.abs(r))
    assert spread < 1e-6
    budget = float(np.dot(_SOLVER_COUNTS, sol.p_k))
    assert budget == pytest.approx(sum(_SOLVER_COUNTS) * _SOLVER_PAVG, rel=1e-9)


def test_exact_solver_beats_every_closed_form():
    def phi_of(p_k):
        return objective_phi(_SOLVER_LINK, PerRisPowers(p_k=p_k))

    exact = run_allocator("exact", _SOLVER_LINK)
    phi_exact = phi_of(exact.p_k)
    slack = 1e-12 * abs(phi_exact)
    for rival in (
        allocate_moderate_snr(_SOLVER_LINK).p_k,
        allocate_large_m(_SOLVER_LINK).p_k,
        np.full(2, _SOLVER_PAVG),
    ):
        assert phi_exact + slack >= phi_of(rival)


def test_exact_solver_stays_near_moderate_snr_form_at_high_snr():
    # per-element training SNR is at least 10 dB here, the regime the
    # closed form was built for
    link = dataclasses.replace(_SOLVER_LINK, p_avg=400.0)
    exact = run_allocator("exact", link).p_k
    closed = allocate_moderate_snr(link).p_k
    assert np.max(np.abs(exact - closed) / closed) < 0.05


def test_exact_solver_failure_message_reports_what_ran(monkeypatch):
    monkeypatch.setattr(allocation, "_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        run_allocator("exact", _SOLVER_LINK)
    message = str(exc.value)
    assert message.startswith("no convergence after 1 iterations (cap 1): multiplier spread ")
    spread = message.split("multiplier spread ")[1].split()[0]
    # the spread of the point where the row stopped
    assert spread == f"{run_allocator('exact', _SOLVER_LINK, []).spread[0]:.3e}"
    assert float(spread) > 1e-9


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
    link = _link([10.0 ** e for e in exponents], counts, _HETERO_PAVG, _HETERO_NOISE)
    exact = run_allocator("exact", link).p_k
    budget = float(np.dot(counts, exact))
    assert budget == pytest.approx(sum(counts) * _HETERO_PAVG, rel=1e-9)
    r = stationarity_residual(link, PerRisPowers(p_k=exact))
    assert multiplier_spread(r) < 1e-6

    def phi_of(p_k):
        return objective_phi(link, PerRisPowers(p_k=p_k))

    phi_exact = phi_of(exact)
    for rival in (
        np.full(k, _HETERO_PAVG),
        allocate_moderate_snr(link).p_k,
        allocate_large_m(link).p_k,
    ):
        assert phi_exact + 1e-12 * abs(phi_exact) >= phi_of(rival)


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_no_feasible_allocation_beats_exact(k, data):
    exponents = data.draw(
        st.lists(st.floats(min_value=-12.0, max_value=-8.0), min_size=k, max_size=k)
    )
    counts = data.draw(st.lists(st.integers(min_value=1, max_value=256), min_size=k, max_size=k))
    snr = data.draw(st.floats(min_value=-6.0, max_value=3.0))
    beta_sq = [10.0 ** e for e in exponents]
    link = _link(beta_sq, counts, 10.0 ** snr * _HETERO_NOISE / max(beta_sq), _HETERO_NOISE)
    exact = run_allocator("exact", link).p_k

    def phi_of(p_k):
        return objective_phi(link, PerRisPowers(p_k=p_k))

    phi_exact = phi_of(exact)
    budget = float(np.dot(counts, exact))
    gen = np.random.Generator(np.random.Philox(key=data.draw(st.integers(0, 2**64 - 1))))
    # allocations spread over six decades, and small moves away from exact's
    for weights in (10.0 ** gen.uniform(-3.0, 3.0, (20, k)),
                    exact * np.exp(gen.uniform(-1e-3, 1e-3, (20, k)))):
        for w in weights:
            rival = w * (budget / float(np.dot(counts, w)))
            assert phi_of(rival) <= phi_exact + 1e-12 * abs(phi_exact)


def _spread_bits_differ(sol, beta_sq, counts, p_avg, sigma_z_sq) -> int:
    """How many certified rows of sol record a spread other than the bits
    multiplier_spread(stationarity_residual(...)) gives their powers."""
    differ = 0
    for i in np.flatnonzero(sol.certified):
        link = _link(beta_sq[i], counts[i], p_avg, sigma_z_sq)
        # at extreme powers the residual's rate term overflows to inf, harmlessly
        with np.errstate(over="ignore"):
            spread = multiplier_spread(stationarity_residual(link, sol.row(i)))
        differ += np.float64(spread).tobytes() != sol.spread[i].tobytes()
    return differ


@given(st.sampled_from([2, 8, 64]), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_the_solver_records_the_spread_of_its_powers(k, n, data):
    # validate reports ExactSolution.spread as the solution's stationarity:
    # the benchmark's heterogeneous problems, solved as one batch
    exponents = data.draw(st.lists(st.lists(st.floats(-12.0, -8.0), min_size=k, max_size=k),
                                   min_size=n, max_size=n))
    counts = data.draw(st.lists(st.lists(st.integers(8, 256), min_size=k, max_size=k),
                                min_size=n, max_size=n))
    beta_sq, counts = 10.0 ** np.array(exponents), np.array(counts)
    sol = solve_exact(beta_sq, counts, _HETERO_PAVG, _HETERO_NOISE)
    assert np.all(sol.certified)
    assert _spread_bits_differ(sol, beta_sq, counts, _HETERO_PAVG, _HETERO_NOISE) == 0


def test_the_solver_records_the_spread_of_its_powers_over_eighty_decades():
    gen = np.random.Generator(np.random.Philox(key=33))
    certified = 0
    for k in (1, 2, 8, 64):
        beta_sq = 10.0 ** gen.uniform(-40.0, 40.0, (100, k))
        counts = gen.integers(1, 257, (100, k))
        sol = solve_exact(beta_sq, counts, _HETERO_PAVG, _HETERO_NOISE)
        assert _spread_bits_differ(sol, beta_sq, counts, _HETERO_PAVG, _HETERO_NOISE) == 0
        certified += int(np.count_nonzero(sol.certified))
    assert certified > 300


def test_the_solver_corpus_certifies_normal_rows_and_records_where_each_row_stopped():
    # uncertified rows too: each row's record is the point where it stopped
    extreme_certified = 0
    for batch, sol in solved(500):
        assert batch.extreme or np.all(sol.certified)
        extreme_certified += batch.extreme * int(np.count_nonzero(sol.certified))
        for i, p in enumerate(sol.powers):
            with np.errstate(all="ignore"):
                r = surface_objective(batch.beta_sq[i], batch.counts[i].astype(np.float64), p,
                                      batch.sigma_z_sq[i]).residual
            spread = multiplier_spread(r) if np.all(np.isfinite(p)) else math.nan
            assert (np.float64(spread).tobytes() == sol.spread[i].tobytes()
                    or math.isnan(spread) and math.isnan(sol.spread[i])), (batch, i)
    # a change to the solver's steps must not lose an extreme row it certifies
    assert extreme_certified >= 1043


def test_a_step_that_cannot_ascend_falls_back_to_the_diagonal_step_and_certifies():
    # corpus seed 3, batch 2277, row 1: surface 1's optimal power lies 77
    # decades below surface 0's. The second Newton step does not ascend phi;
    # the diagonal step that replaces it stays within phi's rounding and
    # certifies the row
    beta_sq = np.array([[4.4470265995206395e6, 1.3810326779463568e-32]])
    sol = solve_exact(beta_sq, [174, 123], 0.0071884520387084485, 1.3001896342401752e26)
    assert sol.certified[0] and sol.spread[0] < 1e-9
    assert sol.iterations[0] == 2


def test_exact_solver_certifies_a_lopsided_single_element_pair():
    # one element each, 29 dB apart: phi = 2 g_1 g_2 sits 220 times below
    # G^2, so its rounding exceeds 1e-14 |phi| and the last Newton step
    # must be judged against G^2
    beta_sq = np.array([[10.0 ** -9.11206827700958, 1e-12]])
    sol = solve_exact(beta_sq, [1, 1], _HETERO_NOISE / beta_sq.max(), _HETERO_NOISE)
    assert sol.certified[0]
    assert sol.spread[0] < 1e-9


def test_allocator_vocabulary():
    assert ALLOCATOR_IDS == ("uniform", "eq27", "eq28", "exact")
    assert resolve_allocator("average") == "uniform"
    assert resolve_allocator("moderate-snr") == "eq27"
    assert resolve_allocator("large-m") == "eq28"
    assert resolve_allocator("eq29") == "eq28"
    assert resolve_allocator("equal-m") == "eq28"
    assert resolve_allocator("numeric") == "exact"
    assert resolve_allocator("exact") == "exact"
    with pytest.raises(ValueError):
        resolve_allocator("nope")


def test_run_allocator_dispatch():
    link = _link([1.0, 0.25], [16, 16], 2.0, 0.01)
    flat = run_allocator("uniform", link).p_k
    assert np.all(flat == 2.0)
    assert np.array_equal(
        run_allocator("eq28", link).p_k, run_allocator("eq29", link).p_k
    )
    unequal = _link([1.0, 0.25], [16, 8], 2.0, 0.01)
    assert np.array_equal(run_allocator("eq29", unequal).p_k, run_allocator("eq28", unequal).p_k)
    assert np.all(run_allocator("exact", link).p_k > 0.0)
    # a link and a list of others are solved in one call, `exact` only
    other = _link([0.5, 0.25], [16, 16], 2.0, 0.01)
    sol = run_allocator("exact", link, [other])
    assert np.array_equal(sol.row(0).p_k, run_allocator("exact", link).p_k)
    assert np.array_equal(sol.row(1).p_k, run_allocator("exact", other).p_k)
    assert run_allocator("exact", link, []).powers.shape == (1, 2)
    with pytest.raises(TypeError):
        run_allocator("eq28", link, [other])
    # each problem solved together keeps its own counts, average power and
    # training noise, and gets the bits of its solo solve
    mixed = [dataclasses.replace(other, **{field: value})
             for field, value in (("counts", [16, 8]), ("p_avg", 3.0), ("sigma_z_sq", 0.02))]
    sol = run_allocator("exact", link, mixed)
    for i, problem in enumerate([link, *mixed]):
        assert np.array_equal(sol.row(i).p_k, run_allocator("exact", problem).p_k)


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


def test_a_batch_of_mixed_outcomes_keeps_each_row_s_solo_answer():
    # rows that finish after 0 to 30 steps, so finished rows sit frozen beside
    # live ones: certified, nan spread, stopped uncertified, flat
    p, s = dbm_to_watts(14.0), dbm_to_watts(-110.0)
    rows = [  # beta_sq, counts, p_avg, sigma_z_sq
        ([1e-10, 1e-11], [8, 8], p, s),
        ([1e-320, 1e-10], [8, 8], p, s),
        ([1e-11, 1e-10], [8, 8], p, 1e300),
        ([1e-300, 1e-12], [4, 8], p, s),
        ([1e-10, 1e-11], [8, 8], p, 0.0),
        ([1e-10, 1e-16], [4, 8], 1e-30, 1e-14),
        ([2e-11, 4e-12], [16, 48], p, s),
    ]
    beta_sq, counts, p_avg, sigma = (np.array(x, dtype=np.float64) for x in zip(*rows))
    alone = [solve_exact(beta_sq[i:i + 1], counts[i:i + 1], p_avg[i:i + 1], sigma[i:i + 1])
             for i in range(len(rows))]
    assert [a.iterations[0] for a in alone] == [3, 1, 30, 2, 0, 2, 3]
    assert [a.certified[0] for a in alone] == [True, False, False, False, True, True, True]
    assert math.isnan(alone[1].spread[0]) and alone[2].spread[0] > 1e-9
    for order in (slice(None), slice(None, None, -1)):
        batch = solve_exact(beta_sq[order], counts[order], p_avg[order], sigma[order])
        for row, i in enumerate(range(len(rows))[order]):
            for field, solo in zip(batch, alone[i]):
                assert np.array_equal(field[row], solo[0], equal_nan=True)


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
    link = _link([1e-10, 1e-16], [4, 8], 1e-30, 1e-14)
    p = run_allocator("exact", link).p_k
    assert multiplier_spread(stationarity_residual(link, PerRisPowers(p_k=p))) < 1e-9
    assert float(np.dot([4, 8], p)) == pytest.approx(12e-30, rel=1e-12)
    assert p[1] / p[0] < 1e-10


def test_a_non_finite_residual_certifies_nothing():
    assert math.isnan(multiplier_spread([math.nan, 1.0]))
    assert math.isnan(multiplier_spread([math.inf, 1.0]))
    assert multiplier_spread([0.0, 0.0]) == 0.0
    assert np.isnan(multiplier_spread(np.array([[1.0, math.nan], [2.0, 2.0]]))[0])
    # the weak surface's optimal power underflows to 0, where its residual
    # is nan: the row comes back uncertified, not as zero powers
    sol = solve_exact(np.array([[1e-300, 1e-12]]), [4.0, 8.0], dbm_to_watts(14.0),
                      dbm_to_watts(-110.0))
    assert not sol.certified[0] and not sol.spread[0] < 1e-9
    with pytest.raises(NonConvergenceError):
        sol.row(0)


def test_eq27_forms_the_weight_where_s_over_beta_overflows():
    # S / beta_0 = 8e150 / 1e-160 overflows, yet both powers are in the float
    # range; the reference powers are from 50-digit mpmath
    link = _link([1.0e-320, 1.0e300], [4, 8], dbm_to_watts(14.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = allocate_moderate_snr(link).p_k
    np.testing.assert_allclose(p, [0.075356592945287403, 7.0489441971077783e-157], rtol=1e-12)
    assert float(np.dot([4, 8], p)) == pytest.approx(12 * link.p_avg, rel=1e-12)


def test_closed_form_powers_below_the_float_range_are_a_numerical_failure():
    # at the smallest subnormal budget the stronger surface's power rounds to 0
    link = _link([1e-10, 1e-16], [4, 8], 5e-324, 1e-14)
    for allocate in (allocate_moderate_snr, allocate_large_m):
        with pytest.raises(ArithmeticError, match="leave the float range"):
            allocate(link)
