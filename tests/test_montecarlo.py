import concurrent.futures
import dataclasses
import inspect
import math
import os
import pathlib
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from corridor import corridor_link
from block_draws import block_row, trial_normals
from rispilot import channel, cli, montecarlo
from rispilot.allocation import PerRisPowers, allocate_average, run_allocator
from rispilot.analysis import ergodic_gain_closed_form
from rispilot.channel import (
    BLOCK_TRIALS,
    PURPOSE_BS_RIS,
    PURPOSE_PHASE,
    PURPOSE_PILOT_NOISE,
    PURPOSE_RIS_USER,
    block_stream,
)
from rispilot.montecarlo import (
    GainRow,
    SweepRow,
    TrialConfig,
    in_units,
    mean_se,
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


class _Metrics(NamedTuple):
    mean_gain: float
    se_gain: float
    mean_rate: float
    se_rate: float


def _simulate(link, alloc, cfg):
    """Means and standard errors of one row's gain and rate, as a sweep row reports them."""
    gains = _gains(link, alloc, cfg)
    rates = np.log2(1.0 + link.q * gains / link.sigma_n_sq)
    return _Metrics(float(np.mean(gains)), _se(gains), float(np.mean(rates)), _se(rates))


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


# element counts whose ranges hold one chunk (of up to 512 blocks), several
# chunks of four blocks (sum(M_k) = 1000), chunks of three blocks
# (sum(M_k) = 1280, validate-wide's layout: 200 trials leave a short last
# chunk at one worker and in one share of two), and chunks of one block
# beyond CHUNK_ELEMENTS (4112 > CHUNK_ELEMENTS / BLOCK_TRIALS = 4096)
LAYOUTS = ([4, 4], [500, 500], [1024, 256], [4096, 16])


def test_gains_do_not_depend_on_worker_count():
    cfg = TrialConfig(trials=200, seed=5)
    for counts in LAYOUTS:
        link = _beta_direct([1.0, 0.25], counts)
        alloc = allocate_average(link)
        serial = _gains(link, alloc, cfg, workers=1)
        for workers in (2, 3):
            assert np.array_equal(serial, _gains(link, alloc, cfg, workers=workers)), counts
    link = _beta_direct([1.0, 0.25], [4, 4])
    alloc = allocate_average(link)
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
    # data earlier chunks or rows left in the buffers. Eight elements run at
    # one, three and 512 blocks per chunk; the wider layouts of LAYOUTS at
    # their own chunk size, several chunks per worker's share
    cfg = TrialConfig(trials=200, seed=5, csi_mode=mode)
    default = montecarlo.CHUNK_ELEMENTS
    for counts, caps in [([4, 4], (8, 192, default))] + [(c, (default,)) for c in LAYOUTS[1:]]:
        link = _beta_direct([1.0, 0.25], counts)
        faded = dataclasses.replace(_beta_direct([0.5, 2.0], counts), k_br=3.0)
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
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", default)
        alone = [trial_gains([row], cfg)[0] for row in rows]
        assert [g.size for g in alone] == [200, 200, 200, 37, 120, 5, 200, 200]
        for cap in caps:
            monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", cap)
            for workers in (1, 2):
                got = trial_gains(rows, cfg, workers=workers)
                for i, (g, want) in enumerate(zip(got, alone)):
                    assert np.array_equal(g, want), (counts, cap, workers, i)


def test_chunks_after_the_first_allocate_no_array_of_a_chunks_size(monkeypatch):
    # Every call the trial loop makes through montecarlo's names, and every
    # fill inside the draws, is wrapped. tracemalloc's peak is read and reset
    # at each entry and exit, so the allocations of each stretch of code
    # between two of them are charged to the function running it, the loop's
    # own code included. After the first chunk, which builds the phase
    # tables, no stretch may allocate as much as one float per element, but
    # a fill of raw words: numpy's random_raw has no out argument, so it
    # takes them one block at a time. numpy's casting buffers are no arrays
    # of the program's: a small buffer size keeps them out of the count.
    counts = [1024, 256]  # three blocks per chunk, nine chunks in 200 trials
    n = sum(counts)
    link = _beta_direct([1.0, 0.25], counts)
    faded = dataclasses.replace(_beta_direct([0.5, 2.0], counts), k_br=3.0, k_ru=1.5)
    alloc = allocate_average(link)
    rows = [GainRow(link, alloc), GainRow(link, alloc, "perfect"),
            GainRow(link, alloc, "random-phase", 150)]
    rows += [GainRow(faded, alloc, mode) for mode in montecarlo.CSI_MODES]
    cfg = TrialConfig(trials=200, seed=9)
    want = trial_gains(rows, cfg)

    charged, stack, chunks, base = [], ["loop"], [0], [0]

    def charge():
        current, peak = tracemalloc.get_traced_memory()
        if chunks[0] > 1:
            charged.append((stack[-1], peak - base[0]))
        tracemalloc.reset_peak()
        base[0] = current

    def wrapped(fn, name):
        def call(*args, **kwargs):
            charge()
            chunks[0] += name == "polar_normals"  # the first draw of every chunk
            raw = name == "_fill" and args[3] == "random_raw"
            stack.append("raw fill" if raw else name)
            try:
                return fn(*args, **kwargs)
            finally:
                charge()
                stack.pop()
        return call

    for attr, fn in list(vars(montecarlo).items()):
        source = getattr(fn, "__module__", None) or ""
        if inspect.isfunction(fn) and source.startswith("rispilot.") and source != montecarlo.__name__:
            monkeypatch.setattr(montecarlo, attr, wrapped(fn, attr))
    # random_phases fills through channel._lattice, so channel holds every fill
    monkeypatch.setattr(channel, "_fill", wrapped(channel._fill, "_fill"))
    bufsize = np.setbufsize(64)
    tracemalloc.start()
    try:
        got = trial_gains(rows, cfg)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert chunks[0] == 9
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    names = {name for name, _ in charged}
    assert {"loop", "polar_normals", "unit_normals", "random_phases", "sample_channels",
            "ls_estimate", "configure_phases", "composite_channel", "aligned_gain",
            "_fill", "raw fill"} <= names, names
    block_words = BLOCK_TRIALS * -(-n // 4) * 8
    for name, grown in charged:
        limit = block_words + 4096 if name == "raw fill" else 8 * n
        assert grown < limit, (name, grown, limit)


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
        h = beta * trial_normals(17, t, PURPOSE_RIS_USER, 8)
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


def test_a_perfect_row_on_a_rayleigh_link_sums_the_drawn_magnitudes():
    # k_ru = 0 and k_br = inf: |h_m| = beta_k sqrt(E_m), E the trial's
    # exponentials of its block's user-hop stream, over five chunks of 8
    link = _beta_direct([1.0, 0.25], [1000, 1100])
    cfg = TrialConfig(trials=40, seed=31, csi_mode="perfect")
    gains = _gains(link, allocate_average(link), cfg)
    beta = np.repeat(link.beta, link.counts)
    for t in range(40):
        magnitudes = np.sqrt(block_row(31, t, PURPOSE_RIS_USER, 2100, "standard_exponential"))
        assert gains[t] == np.add.reduce(magnitudes * beta) ** 2, t


def _reference_channel(link, seed, t):
    """Trial t's channel beta_k (a_ru + b_ru u)(a_br + b_br v) from its block streams,
    for finite Rician factors on both hops."""
    n = int(link.counts.sum())

    def hop(k, z):
        return math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * z

    user = hop(link.k_ru, trial_normals(seed, t, PURPOSE_RIS_USER, n))
    bs = hop(link.k_br, trial_normals(seed, t, PURPOSE_BS_RIS, n))
    return np.repeat(link.beta, link.counts) * user * bs


def test_a_perfect_row_is_the_squared_sum_of_channel_magnitudes():
    # with a faded BS link the channel takes both hops' draws, and with a
    # Rician user hop the magnitudes are taken from the channel itself: a
    # made-up link and the bundled Rician config's, off its centre
    config = TESTS / "data" / "two_ris_asymmetric_rician.yaml"
    scn = cli._scenario(cli.load_config(str(config))["scenario"], "scenario", config=True)
    rician = scn.link_at(scn.geometry["user_y"] + 3.0)
    made_up = dataclasses.replace(_beta_direct([1.0, 0.25], [3, 5]), k_br=4.0, k_ru=1.0)
    for link in (made_up, rician):
        cfg = TrialConfig(trials=60, seed=23, csi_mode="perfect")
        gains = _gains(link, allocate_average(link), cfg)
        expected = [math.fsum(np.abs(_reference_channel(link, 23, t))) ** 2 for t in range(60)]
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
    scn = cli._scenario(cli.load_config(str(config))["scenario"], "scenario", config=True)
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


def test_a_range_checks_its_rows_before_any_draw(monkeypatch):
    # one power for two surfaces spends the budget of p_avg = 1, but an
    # estimated row cannot scale its noise: the range rejects it up front
    link = _beta_direct([1.0, 0.25], [8, 8])

    def no_draw(*args, **kwargs):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "polar_normals", no_draw)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="1 pilot powers for 2 surfaces"):
            trial_gains([GainRow(link, allocate_average(link), "perfect"),
                         GainRow(link, PerRisPowers(p_k=[1.0]), "estimated")],
                        TrialConfig(trials=40), workers=workers)


@pytest.mark.parametrize("mode", montecarlo.CSI_MODES)
def test_a_row_needs_one_power_per_surface(mode):
    # one power of p_avg for two surfaces spends the budget, and three sum
    # to three times it; no CSI mode broadcasts them over the surfaces
    link = _beta_direct([1.0, 0.25], [8, 8])
    for p_k in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match=f"{len(p_k)} pilot powers for 2 surfaces"):
            trial_gains([GainRow(link, PerRisPowers(p_k=p_k), mode)], TrialConfig(trials=16))


class _ExitsWhenUnpickled(PerRisPowers):
    """Powers whose unpickling ends the process, as when a pool worker is
    killed: its share never comes back, under fork and forkserver alike."""

    def __reduce__(self):
        return os._exit, (1,)


def _dies_in_a_worker(resolved):
    """montecarlo._resolved, with each row's powers replaced by _ExitsWhenUnpickled."""
    def resolve(row, cfg, counts):
        row = resolved(row, cfg, counts)
        return row._replace(powers=_ExitsWhenUnpickled(p_k=row.powers.p_k))
    return resolve


def test_a_worker_that_dies_is_named_as_the_cause(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "_resolved", _dies_in_a_worker(montecarlo._resolved))
    link = _beta_direct([1.0, 0.25], [4, 4])
    with pytest.raises(montecarlo.WorkerLostError, match="stopped abruptly"):
        trial_gains([GainRow(link, allocate_average(link))], TrialConfig(trials=40), workers=2)


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_a_dead_worker_exits_3_with_one_line(monkeypatch, capsys, tmp_path, command):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "_resolved", _dies_in_a_worker(montecarlo._resolved))
    config = str(TESTS.parent / "configs" / "two_ris_symmetric.yaml")
    code = cli.main([command, "--config", config, "--trials", "40", "--workers", "2",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("worker failure: a trial worker stopped abruptly")


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


def test_a_link_below_one_is_its_own_units():
    link = _layout(0.0)
    assert in_units(link) == (link, 0)


def test_sweep_rates_in_units_are_the_rates_of_the_gains_in_units_of_one():
    # at 1552 dB every trial's rate is log2(1 + q g / sigma_n^2) of a gain
    # g = g' 2^2e near or beyond the float maximum, g' the gain drawn in units
    link = corridor_link(50.0, -16.0, 32, 32, 14.0, c0_db=1552.0)
    scaled, e = in_units(link)
    assert e > 0
    cfg = TrialConfig(trials=200, seed=7)
    row, = sweep_user([link], [-16.0], ["uniform"], cfg).rows
    g = trial_gains([GainRow(scaled, PerRisPowers(p_k=np.array(row.powers_w)))], cfg)[0]
    log2_g = 2 * e + np.log2(g)
    rates = np.logaddexp2(0.0, math.log2(link.q / link.sigma_n_sq) + log2_g)
    assert math.isfinite(row.mean_gain)
    assert row.mean_rate == pytest.approx(float(np.mean(rates)), rel=1e-12, abs=0.0)


def test_mean_se_gives_each_row_of_a_batch_the_bits_it_gets_alone():
    rng = np.random.default_rng(3)
    x = (rng.standard_normal((3, 1000)) + 1.0) * np.array([[1e-300], [1.0], [1e300]])
    e = np.array([0, 5, 0])
    mean, se = mean_se(x, e, "batch")
    for i in range(3):
        assert (mean[i], se[i]) == mean_se(x[i], int(e[i]), "row")
    # rows in the float range keep np.mean's and np.std's bits, scaled by 2^e
    assert mean[1] == math.ldexp(np.mean(x[1]), 5)
    assert se[1] == math.ldexp(np.std(x[1], ddof=1) / math.sqrt(1000), 5)


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
