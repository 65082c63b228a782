import concurrent.futures
import dataclasses
import math
import os
import pathlib

import numpy as np
import pytest

from corridor import corridor_link
from block_draws import trial_normals
from rispilot import cli, montecarlo
from rispilot.allocation import PerRisPowers, allocate_average, run_allocator
from rispilot.analysis import ergodic_gain_closed_form
from rispilot.channel import (
    BLOCK_TRIALS,
    PURPOSE_BS_RIS,
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    PURPOSE_RIS_USER,
    block_stream,
    sample_channels,
    unit_normals,
)
from rispilot.montecarlo import (
    GainRow,
    MetricEstimate,
    SweepRow,
    TrialConfig,
    sweep_user,
    trial_gains,
)
from rispilot.scenario import Link


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(csi_mode="oracle")


def _beta_direct(beta_sq, counts, p_avg=1.0, sigma_z_sq=1.0):
    return Link(counts=counts, beta_sq=beta_sq, sigma_z_sq=sigma_z_sq, sigma_n_sq=1.0, q=1.0,
                p_avg=p_avg)


def _gains(link, alloc, cfg, workers=1):
    """The per-trial gains of one row."""
    return trial_gains([GainRow(link, alloc)], cfg, workers=workers)[0]


def _se(x):
    return float(np.std(x, ddof=1) / math.sqrt(x.size))


def _simulate(link, alloc, cfg):
    """Means and standard errors of one row's gain and rate, as a sweep row reports them."""
    gains = _gains(link, alloc, cfg)
    rates = np.log2(1.0 + link.q * gains / link.sigma_n_sq)
    return MetricEstimate(float(np.mean(gains)), _se(gains), float(np.mean(rates)), _se(rates))


def _select(result, allocator=None, d_m=None):
    return [r for r in result.rows
            if allocator in (None, r.allocator) and d_m in (None, r.d_m)]


def test_single_element_perfect_csi_mean_gain():
    link = _beta_direct([2.5], [1])
    cfg = TrialConfig(trials=100_000, seed=7, csi_mode="perfect")
    m = _simulate(link, allocate_average(link), cfg)
    assert abs(m.mean_gain - 2.5) < 3.0 * m.se_gain
    assert m.se_gain > 0.0
    # Jensen: mean log-rate sits below the rate at the mean gain
    assert m.mean_rate < math.log2(1.0 + link.q * m.mean_gain / link.sigma_n_sq)


def test_random_phase_mean_gain_is_incoherent():
    link = _beta_direct([1.0, 1.0], [8, 8])
    cfg = TrialConfig(trials=100_000, seed=3, csi_mode="random-phase")
    m = _simulate(link, allocate_average(link), cfg)
    assert abs(m.mean_gain - 16.0) < 3.0 * m.se_gain


def test_estimated_mode_tracks_closed_form():
    link = _beta_direct([1.0, 0.25], [8, 8], p_avg=2.0)
    alloc = allocate_average(link)
    cfg = TrialConfig(trials=20_000, seed=11)
    m = _simulate(link, alloc, cfg)
    closed = ergodic_gain_closed_form(link, alloc).total
    assert abs(m.mean_gain - closed) < 4.0 * m.se_gain


def test_gains_do_not_depend_on_worker_count():
    link = _beta_direct([1.0, 0.25], [4, 4])
    alloc = allocate_average(link)
    cfg = TrialConfig(trials=200, seed=5)
    serial = _gains(link, alloc, cfg, workers=1)
    for workers in (2, 3):
        assert np.array_equal(serial, _gains(link, alloc, cfg, workers=workers))
    few = _gains(link, alloc, TrialConfig(trials=3, seed=5), workers=8)
    assert np.array_equal(few, _gains(link, alloc, TrialConfig(trials=3, seed=5)))


def test_a_worker_split_inside_a_block_moves_no_draw(monkeypatch):
    # 250 trials halve at 125, inside block 15; the shares meet on a block
    # boundary instead. The pool splits only where two CPUs are usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    link = _beta_direct([1.0, 0.25], [32, 32])
    rows = [GainRow(link, allocate_average(link), mode) for mode in montecarlo.CSI_MODES]
    cfg = TrialConfig(trials=250, seed=3)
    serial = trial_gains(rows, cfg, workers=1)
    for got, want in zip(trial_gains(rows, cfg, workers=2), serial):
        assert np.array_equal(got, want)


def test_pool_workers_are_capped_at_the_usable_cpus(monkeypatch):
    # a stand-in pool runs its tasks in this process and records its size,
    # so no worker process starts however many are asked for
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            pools.append((self.max_workers, len(tasks)))
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    link = _beta_direct([1.0, 0.25], [4, 4])
    alloc = allocate_average(link)
    cfg = TrialConfig(trials=200, seed=5)
    serial = _gains(link, alloc, cfg)
    assert pools == []

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert np.array_equal(_gains(link, alloc, cfg, workers=5000), serial)
    assert pools == [(3, 3)]
    # where the affinity is unknown, the machine's CPU count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert np.array_equal(_gains(link, alloc, cfg, workers=5000), serial)
    assert pools == [(3, 3), (2, 2)]
    # one CPU, or none known, runs every trial in this process
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert np.array_equal(_gains(link, alloc, cfg, workers=5000), serial)
    assert pools == [(3, 3), (2, 2)]


@pytest.mark.parametrize("mode", ["estimated", "perfect", "random-phase"])
def test_gains_do_not_depend_on_chunk_size(monkeypatch, mode):
    # a mixed run reuses one workspace for every chunk and row: all three CSI
    # modes, rows with fewer trials than the run, and two positions, one with
    # a faded BS link; each row must equal that row run alone, whatever
    # data earlier chunks or rows left in the buffers
    link = _beta_direct([1.0, 0.25], [4, 4])
    faded = dataclasses.replace(_beta_direct([0.5, 2.0], [4, 4]), k_br=3.0)
    alloc = allocate_average(link)
    rows = [
        GainRow(link, alloc),
        GainRow(faded, alloc, "random-phase"),
        GainRow(link, alloc, "estimated"),
        GainRow(faded, alloc, "perfect", 37),
        GainRow(faded, alloc, None, 120),
        GainRow(link, alloc, "random-phase", 5),
        GainRow(faded, alloc, "estimated"),
        GainRow(link, alloc, "perfect"),
    ]
    cfg = TrialConfig(trials=200, seed=5, csi_mode=mode)
    alone = [trial_gains([row], cfg)[0] for row in rows]
    assert [g.size for g in alone] == [200, 200, 200, 37, 120, 5, 200, 200]
    for cap in (8, 192, montecarlo.CHUNK_ELEMENTS):  # one, three and 256 blocks per chunk
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", cap)
        for workers in (1, 2):
            got = trial_gains(rows, cfg, workers=workers)
            for i, (g, want) in enumerate(zip(got, alone)):
                assert np.array_equal(g, want), (cap, workers, i)


def test_every_csi_mode_sees_trial_ts_channel():
    # a per-trial reference loop: trial t's channel, pilot noise and phases
    # come from its block's streams, and every row of a run uses them
    link = _beta_direct([1.0, 0.25], [3, 5], p_avg=2.0)
    alloc = PerRisPowers(p_k=np.array([3.0, 1.4]))
    modes = ("perfect", "estimated", "random-phase")
    rows = [GainRow(link, alloc, mode) for mode in modes] + [GainRow(link, alloc, "estimated", 15)]
    gains = trial_gains(rows, TrialConfig(trials=40, seed=17))
    assert [g.size for g in gains] == [40, 40, 40, 15]
    assert np.array_equal(gains[3], gains[1][:15])
    beta = np.repeat(link.beta, link.counts)
    delta = np.repeat(np.sqrt(link.sigma_z_sq / alloc.p_k), link.counts)
    for t in range(40):
        # trial t is row t % 8 of its block's streams, each filled for the block
        c, r = divmod(t, BLOCK_TRIALS)
        h = beta * np.conj(trial_normals(17, t, PURPOSE_RIS_USER, 8))
        est = h + delta * trial_normals(17, t, PURPOSE_PILOT_NOISE, 8)
        # random phases: 16-bit lanes of the raw words, low lane first, whose
        # top 12 bits pick a point of the 4096-point grid
        phase_words = block_stream(17, c, PURPOSE_PHASE).bit_generator.random_raw(2 * BLOCK_TRIALS)
        words = phase_words[2 * r:2 * r + 2]
        grid = [(int(w) >> (16 * j + 4)) & 0xFFF for w in words for j in range(4)]
        theta = 2.0 * math.pi / 4096 * np.array(grid)
        expected = (
            float(np.sum(np.abs(h))) ** 2,
            abs(np.sum(h * np.conj(est) / np.abs(est))) ** 2,
            abs(np.sum(h * np.exp(1j * theta))) ** 2,
        )
        for mode, g, want in zip(modes, gains, expected):
            assert g[t] == pytest.approx(want, rel=1e-12), (mode, t)


def test_a_perfect_row_is_the_squared_sum_of_channel_magnitudes():
    # with a faded BS link the channel takes both hops' draws
    link = dataclasses.replace(_beta_direct([1.0, 0.25], [3, 5]), k_br=4.0, k_ru=1.0)
    gains = _gains(link, allocate_average(link), TrialConfig(trials=60, seed=23, csi_mode="perfect"))
    n = int(link.counts.sum())
    h = sample_channels(link, unit_normals(23, 0, 60, PURPOSE_RIS_USER, n),
                        unit_normals(23, 0, 60, PURPOSE_BS_RIS, n))
    expected = np.array([math.fsum(np.abs(row)) ** 2 for row in h])
    assert np.allclose(gains, expected, rtol=1e-13, atol=0.0)


TESTS = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("config", [
    TESTS.parent / "configs" / "two_ris_symmetric.yaml",
    TESTS / "data" / "two_ris_asymmetric_rician.yaml",
], ids=["two_ris_symmetric", "rician"])
def test_perfect_csi_wins_every_trial(config):
    # no configuration of the phases beats conjugate alignment to the true
    # channel, trial by trial; at the centre and off it, where the
    # surfaces differ in strength
    scn = cli._parse_scenario(cli.load_config(str(config)))
    for d in (0.0, 12.0):
        link = scn.link_at(scn.geometry["user_y"] + d)
        alloc = allocate_average(link)
        modes = ("perfect", "estimated", "random-phase")
        gains = dict(zip(modes, trial_gains([GainRow(link, alloc, mode) for mode in modes],
                                            TrialConfig(trials=2000, seed=29))))
        for other in modes[1:]:
            assert np.all(gains["perfect"] >= gains[other] * (1.0 - 1e-12)), (d, other)


def test_rows_must_fit_one_run():
    link = _beta_direct([1.0, 0.25], [4, 4])
    other = _beta_direct([1.0, 0.25], [4, 5])
    alloc = allocate_average(link)
    cfg = TrialConfig(trials=10)
    with pytest.raises(ValueError):
        trial_gains([GainRow(link, alloc), GainRow(other, allocate_average(other))], cfg)
    with pytest.raises(ValueError):
        trial_gains([GainRow(link, alloc, trials=11)], cfg)
    with pytest.raises(ValueError):
        trial_gains([GainRow(link, alloc, csi_mode="oracle")], cfg)
    with pytest.raises(ValueError):
        trial_gains([], cfg)


def test_same_seed_shares_draws_across_allocations():
    link = _beta_direct([1.0, 0.25], [8, 8], p_avg=2.0)
    cfg = TrialConfig(trials=500, seed=9)
    flat = _gains(link, allocate_average(link), cfg)
    tilted = _gains(link, PerRisPowers(p_k=np.array([1.0, 3.0])), cfg)
    assert not np.array_equal(flat, tilted)
    # the channel randomness is common, so the two series are strongly coupled
    assert np.corrcoef(flat, tilted)[0, 1] > 0.9
    # in perfect-CSI mode the pilot allocation cannot matter at all
    cfg_p = TrialConfig(trials=500, seed=9, csi_mode="perfect")
    a = _gains(link, allocate_average(link), cfg_p)
    b = _gains(link, PerRisPowers(p_k=np.array([1.0, 3.0])), cfg_p)
    assert np.array_equal(a, b)


def test_budget_violation_rejected():
    link = _beta_direct([1.0, 0.25], [8, 8])
    with pytest.raises(ValueError):
        _gains(link, PerRisPowers(p_k=np.array([1.0, 1.5])), TrialConfig(trials=10))
    with pytest.raises(ValueError):
        _gains(link, PerRisPowers(p_k=np.array([1.0])), TrialConfig(trials=10))


def test_metric_estimate_matches_manual_statistics():
    link = _beta_direct([1.0], [4])
    cfg = TrialConfig(trials=400, seed=13)
    gains = _gains(link, allocate_average(link), cfg)
    m = sweep_user([link], [0.0], ["uniform"], cfg).rows[0]
    assert m.mean_gain == pytest.approx(float(np.mean(gains)), rel=1e-12)
    assert m.se_gain == pytest.approx(
        float(np.std(gains, ddof=1) / math.sqrt(gains.size)), rel=1e-12
    )
    rates = np.log2(1.0 + link.q * gains / link.sigma_n_sq)
    assert m.mean_rate == pytest.approx(float(np.mean(rates)), rel=1e-12)


def test_csi_quality_ordering_is_paired():
    link = _beta_direct([1.0, 0.25], [8, 8], p_avg=2.0)
    alloc = allocate_average(link)
    runs = {
        mode: _gains(link, alloc, TrialConfig(trials=2000, seed=21, csi_mode=mode))
        for mode in ("perfect", "estimated", "random-phase")
    }
    assert np.mean(runs["perfect"] - runs["estimated"]) > 0.0
    assert np.mean(runs["estimated"] - runs["random-phase"]) > 0.0


def _layout(d):
    return corridor_link(50.0, d, 8, 8)


def _sweep(d_values, allocators, cfg):
    """A sweep of the user offset along the corridor."""
    return sweep_user([_layout(d) for d in d_values], d_values, allocators, cfg)


def test_sweep_rows_are_canonical_and_complete():
    cfg = TrialConfig(trials=50, seed=1)
    result = _sweep([0.0, 4.0], ["numeric", "average"], cfg)
    assert [r.allocator for r in result.rows] == ["exact", "uniform", "exact", "uniform"]
    assert [r.d_m for r in result.rows] == [0.0, 0.0, 4.0, 4.0]
    assert all(isinstance(r, SweepRow) and len(r.powers_w) == 2 for r in result.rows)
    picked = _select(result, allocator="exact", d_m=4.0)
    assert len(picked) == 1 and picked[0].d_m == 4.0


def test_sweep_rows_equal_single_row_runs():
    cfg = TrialConfig(trials=300, seed=8)
    result = _sweep([-4.0, 4.0], ["uniform", "exact"], cfg)
    for row in result.rows:
        alone = _simulate(_layout(row.d_m), PerRisPowers(p_k=np.array(row.powers_w)), cfg)
        assert alone == (row.mean_gain, row.se_gain, row.mean_rate, row.se_rate)


def _per_row_reference(link, powers, gains, csi_mode):
    """One row's metrics and closed form the way a loop over rows computes them."""
    rates = np.log2(1.0 + link.q * gains / link.sigma_n_sq)
    se = [float(np.std(x, ddof=1) / math.sqrt(x.size)) for x in (gains, rates)]
    if csi_mode == "random-phase":
        closed = float(np.dot(link.counts.astype(np.float64), link.beta_sq))
    else:
        if csi_mode == "perfect":
            link = dataclasses.replace(link, sigma_z_sq=0.0)
        closed = ergodic_gain_closed_form(link, powers).total
    return float(np.mean(gains)), se[0], float(np.mean(rates)), se[1], closed


@pytest.mark.parametrize("csi_mode", ["estimated", "perfect", "random-phase"])
def test_sweep_metrics_equal_the_per_row_reference(csi_mode):
    cfg = TrialConfig(trials=120, seed=5, csi_mode=csi_mode)
    d_values = [-6.0, 0.0, 3.5]
    result = _sweep(d_values, ["uniform", "eq28", "exact"], cfg)
    rows = [GainRow(_layout(r.d_m), PerRisPowers(p_k=np.array(r.powers_w))) for r in result.rows]
    gains = trial_gains(rows, cfg)
    for r, row, g in zip(result.rows, rows, gains):
        expected = _per_row_reference(row.link, row.powers, g, csi_mode)
        assert (r.mean_gain, r.se_gain, r.mean_rate, r.se_rate, r.closed_form_gain) == expected
    # the exact rows are the per-position solves, with their solver record
    for d, solved in zip(d_values, result.solver):
        alone = run_allocator("exact", _layout(d)).p_k
        assert _select(result, allocator="exact", d_m=d)[0].powers_w == tuple(alone)
        assert solved.d_m == d and solved.iterations >= 0 and solved.multiplier_spread < 1e-9


def test_sweep_symmetric_point_equates_exact_and_uniform():
    cfg = TrialConfig(trials=300, seed=4)
    result = _sweep([0.0], ["exact", "uniform"], cfg)
    exact_row = _select(result, allocator="exact")[0]
    uniform_row = _select(result, allocator="uniform")[0]
    assert exact_row.powers_w == uniform_row.powers_w
    assert exact_row.mean_gain == uniform_row.mean_gain
    assert exact_row.mean_rate == uniform_row.mean_rate


def test_sweep_mirror_symmetry():
    cfg = TrialConfig(trials=2000, seed=6)
    result = _sweep([-4.0, 4.0], ["uniform", "eq28"], cfg)
    for name in ("uniform", "eq28"):
        minus = _select(result, allocator=name, d_m=-4.0)[0]
        plus = _select(result, allocator=name, d_m=4.0)[0]
        assert minus.closed_form_gain == plus.closed_form_gain
        assert minus.powers_w == tuple(reversed(plus.powers_w))
        tol = 4.0 * math.hypot(minus.se_gain, plus.se_gain)
        assert abs(minus.mean_gain - plus.mean_gain) < tol


def test_sweep_closed_form_column_per_mode():
    link = _layout(4.0)
    cfg = TrialConfig(trials=20, seed=1, csi_mode="random-phase")
    row = _sweep([4.0], ["uniform"], cfg).rows[0]
    incoherent = float(np.dot(link.counts.astype(float), link.beta_sq))
    assert row.closed_form_gain == pytest.approx(incoherent, rel=1e-12)
    cfg_e = TrialConfig(trials=20, seed=1)
    row_e = _sweep([4.0], ["uniform"], cfg_e).rows[0]
    alloc = run_allocator("uniform", link)
    expected = ergodic_gain_closed_form(link, alloc).total
    assert row_e.closed_form_gain == pytest.approx(expected, rel=1e-12)
    assert row_e.closed_form_gain > row.closed_form_gain


def test_sweep_rejects_empty_inputs():
    cfg = TrialConfig(trials=10)
    with pytest.raises(ValueError):
        _sweep([], ["uniform"], cfg)
    with pytest.raises(ValueError):
        _sweep([0.0], [], cfg)
    with pytest.raises(ValueError, match="2 links for 1 axis values"):
        sweep_user([_layout(0.0), _layout(1.0)], [0.0], ["uniform"], cfg)


def test_sweep_positions_must_share_the_budget():
    # the links of one sweep need only share element counts: one that
    # differs in average power or training noise gets its solo sweep's rows
    d_values = [0.0, 1.0, 2.0]
    links = [corridor_link(50.0, d, 8, 8, p_avg_dbm=-13.0 + 10.0 * d) for d in d_values]
    links[2] = dataclasses.replace(links[2], sigma_z_sq=1e-12)
    allocators = ["exact", "uniform"]
    cfg = TrialConfig(trials=40, seed=2)
    result = sweep_user(links, d_values, allocators, cfg)
    for i, (d, link) in enumerate(zip(d_values, links)):
        alone = sweep_user([link], [d], allocators, cfg)
        assert result.rows[2 * i:2 * i + 2] == alone.rows
        assert result.solver[i] == alone.solver[0]
    # rows of other element counts cannot share the draws
    with pytest.raises(ValueError, match="same element counts"):
        sweep_user([links[0], corridor_link(50.0, 1.0, 8, 16)], [0.0, 1.0], allocators, cfg)
