"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line on success, so a verbose run reads
as a checklist: closed-form oracles, allocation laws, solver consistency,
user-sweep behavior, and artifact determinism.
"""

import math
import textwrap
from functools import lru_cache
from time import perf_counter

import numpy as np
import pytest

from corridor import corridor_link
from rispilot.allocation import (
    allocate_average,
    allocate_large_m,
    allocate_moderate_snr,
    run_allocator,
)
from rispilot.analysis import (
    alignment_mean,
    ergodic_gain_closed_form,
    objective_phi,
    stationarity_residual,
)
from philox_draws import complex_normals, slot_generator
from rispilot.channel import PURPOSE_RIS_USER
from rispilot.cli import main
from rispilot.estimation import PerRisPowers
from rispilot.montecarlo import GainRow, TrialConfig, trial_gains
from rispilot.scenario import Link

TRIALS_DESK = 10_000
# Pilot budget for the user-sweep checks. High enough that estimation noise,
# not raw geometry, decides which allocation wins.
P_AVG_DBM = 14.0
D_GRID = tuple(range(-16, 17, 4))


def _line(num, detail):
    print(f"criterion {num:02d} PASS: {detail}")


def _layout(d, m1, m2):
    return corridor_link(50.0, float(d), m1, m2, p_avg_dbm=P_AVG_DBM)


def _link(beta_sq, counts, p_avg=1.0, sigma_z_sq=1.0):
    return Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0,
                p_avg=p_avg)


def _gains(link, alloc, cfg):
    return trial_gains([GainRow(link, alloc)], cfg)[0]


def _rates(link, gains):
    return np.log2(1.0 + link.q * gains / link.sigma_n_sq)


def _dynamic_range(powers):
    """Spread of an allocation in dB, max over min."""
    return 10.0 * math.log10(float(np.max(powers.p_k)) / float(np.min(powers.p_k)))


def _mean_se(x):
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


@lru_cache(maxsize=None)
def _symmetric_sweep():
    """Per-offset scenarios, allocations, and paired gain draws, M=[32,32]."""
    cfg = TrialConfig(trials=TRIALS_DESK, seed=29, csi_mode="estimated")
    data = {}
    for d in D_GRID:
        link = _layout(d, 32, 32)
        row = {}
        for name in ("uniform", "exact"):
            alloc = run_allocator(name, link)
            row[name] = (alloc, _gains(link, alloc, cfg))
        data[d] = (link, row)
    return data


@lru_cache(maxsize=None)
def _asymmetric_sweep():
    """Allocations over the full grid, gain draws at the ends, M=[320,32]."""
    cfg = TrialConfig(trials=TRIALS_DESK, seed=31, csi_mode="estimated")
    scen, powers, gains = {}, {}, {}
    for d in D_GRID:
        link = _layout(d, 320, 32)
        scen[d] = link
        powers[d] = {n: run_allocator(n, link) for n in ("uniform", "exact")}
        if abs(d) == 16:
            gains[d] = {
                n: _gains(link, powers[d][n], cfg)
                for n in ("uniform", "exact")
            }
    return scen, powers, gains


def test_criterion_01_alignment_mean_oracle():
    t0 = perf_counter()
    n = 1_000_000
    worst = 0.0
    combo = 0
    for beta_sq in (0.5, 1.0, 2.0):
        for delta_sq in (0.0, 0.5, 1.0, 2.0):
            gen = slot_generator(1001, PURPOSE_RIS_USER, combo)
            combo += 1
            h = math.sqrt(beta_sq) * complex_normals(gen, n)
            est = h
            if delta_sq > 0.0:
                est = h + math.sqrt(delta_sq) * complex_normals(gen, n)
            z = np.conj(est) * h / np.abs(est)
            mean_re, se_re = _mean_se(z.real)
            mean_im, se_im = _mean_se(z.imag)
            err = abs(mean_re - alignment_mean(beta_sq, delta_sq))
            assert err <= 4.0 * se_re, (beta_sq, delta_sq, err, se_re)
            assert abs(mean_im) <= 4.0 * se_im, (beta_sq, delta_sq, mean_im)
            if se_re > 0.0:
                worst = max(worst, err / se_re)
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    _line(1, f"12 settings, worst real-part error {worst:.2f} SE, {elapsed:.1f}s")


def test_criterion_02_ergodic_gain_oracle():
    t0 = perf_counter()
    counts = (8, 8)
    worst = 0.0
    for p_avg in (40.0, 400.0, 4000.0):  # weak-surface pilot SNR 10/20/30 dB
        link = _link([1.0, 0.25], counts, p_avg)
        alloc = allocate_average(link)
        closed = ergodic_gain_closed_form(link, alloc).total
        gains = _gains(link, alloc, TrialConfig(trials=100_000, seed=7))
        mean, se = _mean_se(gains)
        tol = max(0.02 * closed, 4.0 * se)
        assert abs(mean - closed) <= tol, (p_avg, mean, closed, tol)
        worst = max(worst, abs(mean - closed) / closed)
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    _line(2, f"worst relative gap {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_perfect_csi_limit():
    cases = [
        ([1.0, 0.25, 0.09], (8, 4, 16), 3.0),
        ([2.0, 2.0], (5, 5), 0.5),
    ]
    worst = 0.0
    for beta_sq, counts, sigma_z_sq in cases:
        link = _link(beta_sq, counts, sigma_z_sq=sigma_z_sq)
        p_big = 1e12 * sigma_z_sq / min(beta_sq)
        alloc = PerRisPowers(p_k=np.full(len(counts), p_big))
        total = ergodic_gain_closed_form(link, alloc).total
        m = np.asarray(counts, dtype=np.float64)
        beta = np.sqrt(link.beta_sq)
        s2 = float(np.sum(m * link.beta_sq))
        s1 = float(np.sum(m * beta))
        ideal = s2 + 0.25 * math.pi * (s1**2 - s2)
        rel = abs(total - ideal) / ideal
        assert rel <= 1e-9, (beta_sq, rel)
        worst = max(worst, rel)
    _line(3, f"worst relative deviation from the ideal limit {worst:.2e}")


def test_criterion_04_allocation_closed_forms():
    # (a) sixteen-to-one gain ratio doubles the weak surface's pilot power
    ratio = allocate_large_m(_link([16.0, 1.0], (4, 4), 3.0))
    assert ratio.p_k[1] == 2.0 * ratio.p_k[0]

    # (b) on equal counts the count-weighted form is the paper's eq. (29) bitwise
    link = _link([1.7, 0.3], (7, 7), 2.5)
    root_beta = np.sqrt(link.beta)
    eq29 = link.num_ris * link.p_avg / (root_beta * float(np.sum(1.0 / root_beta)))
    assert np.array_equal(allocate_large_m(link).p_k, eq29)

    # (c) inverse square-root law: p_k * sqrt(amplitude) constant per surface
    link4 = _link([3.5, 1.0, 0.4, 0.07], (4, 4, 4, 4), 5.0)
    p = allocate_large_m(link4).p_k
    t = p * link4.beta_sq**0.25
    assert np.ptp(t) / np.mean(t) <= 1e-12

    # (d) every allocator lands on the exact pilot energy budget
    worst = 0.0
    for counts, names in (
        ((6, 10), ("uniform", "eq27", "eq28", "exact")),
        ((8, 8), ("eq29",)),
    ):
        link2 = _link([1.0, 0.25], counts, 4.0)
        m = np.asarray(counts, dtype=np.float64)
        target = float(m.sum()) * link2.p_avg
        for name in names:
            total = float(np.sum(m * run_allocator(name, link2).p_k))
            rel = abs(total - target) / target
            assert rel <= 1e-9, (name, rel)
            worst = max(worst, rel)
    _line(4, f"power laws exact, worst budget error {worst:.2e}")


def test_criterion_05_solver_consistency():
    t0 = perf_counter()
    # weak-surface pilot SNR 20 dB
    link = _link([1.0, 0.25], (100, 100), p_avg=400.0, sigma_z_sq=1.0)

    exact = run_allocator("exact", link)
    closed = allocate_moderate_snr(link)
    rel = np.abs(exact.p_k - closed.p_k) / closed.p_k
    assert np.all(rel <= 0.05), rel

    res = stationarity_residual(link, exact)
    spread = float(np.ptp(res) / abs(np.mean(res)))
    assert spread <= 1e-6, spread

    def phi(alloc):
        return objective_phi(link, alloc)

    phi_exact = phi(exact)
    phi_closed = phi(closed)
    phi_uniform = phi(allocate_average(link))
    assert phi_exact + 1e-9 * abs(phi_exact) >= phi_closed
    assert phi_closed + 1e-9 * abs(phi_closed) >= phi_uniform
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _line(
        5,
        f"solver within {float(rel.max()):.3%} of the closed form, "
        f"multiplier spread {spread:.1e}, {elapsed:.2f}s",
    )


def test_criterion_06_symmetric_sweep_claims():
    t0 = perf_counter()
    data = _symmetric_sweep()
    margins = {}
    for d, (link, row) in data.items():
        alloc_e, gains_e = row["exact"]
        alloc_u, gains_u = row["uniform"]
        diff = _rates(link, gains_e) - _rates(link, gains_u)
        mean, se = _mean_se(diff)
        margins[d] = (mean, se)
        # (i) the optimized allocation never loses to the uniform one
        assert mean >= -3.0 * se, (d, mean, se)
        if d == 0:
            # (ii) at the midpoint the two allocations are one and the same
            assert np.array_equal(alloc_e.p_k, alloc_u.p_k)
            assert np.array_equal(gains_e, gains_u)
        if d == -16:
            # (iii) near surface 1, pilot power shifts to surface 2
            assert alloc_e.p_k[1] > alloc_e.p_k[0]
        if d == 16:
            assert alloc_e.p_k[0] > alloc_e.p_k[1]
    for d in (-16, 16):
        mean, se = margins[d]
        assert mean >= 3.0 * se, (d, mean, se)
    elapsed = perf_counter() - t0
    assert elapsed < 600.0
    edge = min(margins[d][0] / margins[d][1] for d in (-16, 16))
    _line(6, f"edge separation {edge:.0f} SE, midpoint exact tie, {elapsed:.1f}s")


def test_criterion_07_asymmetric_sweep_claims():
    scen, powers, gains = _asymmetric_sweep()

    rate_near_1, se_1 = _mean_se(_rates(scen[-16], gains[-16]["exact"]))
    rate_near_2, se_2 = _mean_se(_rates(scen[16], gains[16]["exact"]))
    sep = (rate_near_1 - rate_near_2) / math.hypot(se_1, se_2)
    assert sep >= 3.0, (rate_near_1, rate_near_2, sep)

    gap = {}
    for d in (-16, 16):
        diff = _rates(scen[d], gains[d]["exact"]) - _rates(scen[d], gains[d]["uniform"])
        gap[d] = float(np.mean(diff))
    assert gap[16] > gap[-16], gap

    worst_dev = 0.0
    for d in D_GRID:
        dev = abs(10.0 * math.log10(powers[d]["exact"].p_k[0] / scen[d].p_avg))
        assert dev <= 1.0, (d, dev)
        worst_dev = max(worst_dev, dev)
    _line(
        7,
        f"rate contrast {sep:.0f} SE, gap near surface 2 {gap[16]:.2e} > "
        f"{gap[-16]:.2e}, surface-1 power within {worst_dev:.2f} dB of average",
    )


def test_criterion_08_dynamic_range_bound():
    worst = 0.0
    for _, row in _symmetric_sweep().values():
        for alloc, _ in row.values():
            worst = max(worst, _dynamic_range(alloc))
    _, powers, _ = _asymmetric_sweep()
    for per_d in powers.values():
        for alloc in per_d.values():
            worst = max(worst, _dynamic_range(alloc))
    assert worst < 15.0
    _line(8, f"largest power spread {worst:.2f} dB, bound 15 dB")


def test_criterion_09_csi_hierarchy():
    worst = math.inf
    for d, (link, row) in _symmetric_sweep().items():
        alloc, gains_est = row["exact"]
        per_mode = {"estimated": gains_est}
        for mode in ("perfect", "random-phase"):
            cfg = TrialConfig(trials=TRIALS_DESK, seed=29, csi_mode=mode)
            per_mode[mode] = _gains(link, alloc, cfg)
        for hi, lo in (("perfect", "estimated"), ("estimated", "random-phase")):
            diff = _rates(link, per_mode[hi]) - _rates(link, per_mode[lo])
            mean, se = _mean_se(diff)
            assert mean >= -3.0 * se, (d, hi, lo, mean, se)
            worst = min(worst, mean / se)
    _line(9, f"ordering holds at all 9 offsets, smallest margin {worst:.0f} SE")


def test_criterion_10_sweep_determinism(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        textwrap.dedent(
            """
            scenario:
              element_counts: [32, 32]
              p_avg: "14 dBm"
              q: "40 dBm"
              sigma_z: "-110 dBm"
              sigma_n: "-90 dBm"
              geometry:
                d0: 50.0
                c0: "-20 dB"
                alpha_br: 2.2
                alpha_ru: 2.8
            run:
              seed: 5
              trials: 300
              allocators: [uniform, exact]
              d_range: "-16:16:8"
            """
        ),
        encoding="utf-8",
    )
    base, replay, fanned = (tmp_path / n for n in ("base", "replay", "fanned"))
    assert main(["sweep", "--config", str(cfg), "--out", str(base)]) == 0
    manifest = str(base / "run_manifest.yaml")
    assert main(["sweep", "--manifest", manifest, "--workers", "1", "--out", str(replay)]) == 0
    assert main(["sweep", "--manifest", manifest, "--workers", "3", "--out", str(fanned)]) == 0
    for name in ("metrics.csv", "powers.csv"):
        want = (base / name).read_bytes()
        assert (replay / name).read_bytes() == want
        assert (fanned / name).read_bytes() == want
    _line(10, "replayed CSVs byte-identical under 1 and 3 workers")
