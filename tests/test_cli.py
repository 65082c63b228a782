import csv
import math
import pathlib
import textwrap
import warnings

import numpy as np
import pytest
import yaml

from rispilot import cli
from rispilot.allocation import multiplier_spread
from rispilot.analysis import stationarity_residual
from rispilot.cli import main
from rispilot.scenario import Link

SYMMETRIC = """
scenario:
  element_counts: [4, 4]
  p_avg: "4 W"
  q: "10 W"
  sigma_z: "1 W"
  sigma_n: "1 W"
  channel:
    beta_sq: [1.0, 1.0]
"""

TWO_GAIN = """
scenario:
  element_counts: [4, 4]
  p_avg: "4 W"
  q: "10 W"
  sigma_z: "1 W"
  sigma_n: "1 W"
  channel:
    beta_sq: [1.0, 0.25]
"""

GEOMETRY = """
scenario:
  element_counts: [8, 8]
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
  seed: 3
  allocators: [uniform, eq29]
  d_range: "-8:8:8"
"""


def _cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_allocate_symmetric_surfaces_get_identical_rows(tmp_path, capsys):
    rc = main(["allocate", "--config", _cfg(tmp_path, SYMMETRIC)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("uniform", "eq27", "eq28", "exact"):
        rows = [line.split() for line in out.splitlines() if line.startswith(name)]
        assert len(rows) == 2
        assert rows[0][2] == rows[1][2]  # same power on both surfaces


def test_allocate_sixteen_to_one_gain_ratio_doubles_power(tmp_path):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [1, 1]
          p_avg: "2 W"
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [16.0, 1.0]
        """,
    )
    out = tmp_path / "alloc"
    rc = main(["allocate", "--config", cfg, "--allocators", "eq29", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "powers.csv")
    p = {r["ris_index"]: float(r["pilot_power_w"]) for r in rows}
    assert p["1"] == 2.0 * p["0"]


def test_missing_field_is_named(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [2]
          p_avg: "1 W"
          q: "10 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0]
        """,
    )
    rc = main(["allocate", "--config", cfg])
    assert rc == 2
    assert "scenario.sigma_z" in capsys.readouterr().err


def test_bare_number_power_is_rejected(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [2]
          p_avg: 1.0
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0]
        """,
    )
    assert main(["allocate", "--config", cfg]) == 2
    assert "unit suffix" in capsys.readouterr().err


def test_negative_gain_is_rejected_with_index(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [2, 2]
          p_avg: "1 W"
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0, -0.5]
        """,
    )
    assert main(["validate", "--config", cfg]) == 2
    assert "scenario.channel.beta_sq[1]" in capsys.readouterr().err


def test_validate_default_style_config_passes(tmp_path, capsys):
    out = tmp_path / "vout"
    rc = main(
        ["validate", "--config", _cfg(tmp_path, TWO_GAIN), "--trials", "50000",
         "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "0 failed" in text and "0 inconclusive" in text
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    assert report["summary"]["fail"] == 0
    assert report["summary"]["inconclusive"] == 0
    names = {c["name"] for c in report["checks"]}
    assert {"ergodic-gain", "perfect-csi-limit", "solver-stationarity"} <= names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_validate_few_trials_goes_inconclusive_not_failed(tmp_path, capsys):
    rc = main(["validate", "--config", _cfg(tmp_path, TWO_GAIN), "--trials", "10"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "inconclusive" in text
    assert " 0 failed" in text


def test_validate_one_trial_is_inconclusive_without_warnings(tmp_path, capsys):
    # a single trial has no standard error: every statistical check is
    # inconclusive, none fails and numpy warns about nothing
    out = tmp_path / "vout"
    config = pathlib.Path(__file__).resolve().parent / "data" / "four_ris_channel.yaml"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["validate", "--config", str(config), "--trials", "1", "--out", str(out)])
    assert rc == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    status = {c["name"]: c["status"] for c in report["checks"]}
    statistical = [f"alignment-mean[{k}]" for k in range(4)] + [
        "ergodic-gain", "hierarchy-perfect-vs-estimated", "hierarchy-estimated-vs-random"]
    assert {name: status[name] for name in statistical} == dict.fromkeys(
        statistical, "inconclusive")
    assert report["summary"]["fail"] == 0
    assert report["summary"]["inconclusive"] == len(statistical)


def test_sweep_one_trial_has_unknown_standard_errors(tmp_path):
    # a single trial has no standard error: metrics.csv writes inf, not 0
    out = tmp_path / "run"
    cfg = _cfg(tmp_path, GEOMETRY)
    assert main(["sweep", "--config", cfg, "--trials", "1", "--out", str(out)]) == 0
    rows = _read_csv(out / "metrics.csv")
    assert len(rows) == 3 * 2
    for row in rows:
        assert (row["se_gain"], row["se_rate"]) == ("inf", "inf")
        assert math.isfinite(float(row["mean_gain"])) and math.isfinite(float(row["mean_rate_bps_hz"]))


def test_sweep_csv_round_trip_and_replay(tmp_path):
    cfg = _cfg(tmp_path, GEOMETRY)
    run1, run2, run3 = (tmp_path / n for n in ("run1", "run2", "run3"))
    assert main(["sweep", "--config", cfg, "--trials", "200", "--out", str(run1)]) == 0

    rows = _read_csv(run1 / "metrics.csv")
    assert len(rows) == 3 * 2  # three offsets, two allocators
    assert list(rows[0]) == [
        "d_m", "allocator", "mean_gain", "se_gain", "mean_rate_bps_hz",
        "se_rate", "closed_form_gain",
    ]
    # serialized floats carry enough digits to survive a parse round trip
    for row in rows:
        for field in ("mean_gain", "se_gain", "mean_rate_bps_hz", "se_rate", "closed_form_gain"):
            assert "%.17g" % float(row[field]) == row[field]

    manifest = run1 / "run_manifest.yaml"
    assert main(["sweep", "--manifest", str(manifest), "--out", str(run2)]) == 0
    assert (run1 / "metrics.csv").read_bytes() == (run2 / "metrics.csv").read_bytes()
    assert (run1 / "powers.csv").read_bytes() == (run2 / "powers.csv").read_bytes()

    assert main(["sweep", "--manifest", str(manifest), "--workers", "2", "--out", str(run3)]) == 0
    assert (run1 / "metrics.csv").read_bytes() == (run3 / "metrics.csv").read_bytes()


def test_sweep_powers_csv_units_are_consistent(tmp_path):
    cfg = _cfg(tmp_path, GEOMETRY)
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--trials", "50", "--out", str(out)]) == 0
    for row in _read_csv(out / "powers.csv"):
        w = float(row["pilot_power_w"])
        dbm = float(row["pilot_power_dbm"])
        assert dbm == pytest.approx(10.0 * math.log10(w * 1e3), rel=1e-12)


def test_sweep_empty_range_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path, GEOMETRY)
    assert main(["sweep", "--config", cfg, "--d-range", "5:1:1", "--out", str(tmp_path / "x")]) == 2
    assert "empty range" in capsys.readouterr().err


def test_sweep_needs_geometry(tmp_path, capsys):
    cfg = _cfg(tmp_path, TWO_GAIN)
    assert main(["sweep", "--config", cfg, "--d-range", "0:4:2", "--out", str(tmp_path / "x")]) == 2
    assert "scenario.geometry" in capsys.readouterr().err


def test_sweep_config_and_manifest_are_exclusive(tmp_path, capsys):
    cfg = _cfg(tmp_path, GEOMETRY)
    assert main(["sweep", "--config", cfg, "--manifest", cfg]) == 2
    assert main(["sweep"]) == 2


def test_unequal_counts_reject_explicit_eq29(tmp_path, capsys):
    # an explicit eq29 on unequal counts once exited 2; as an alias it now
    # runs eq28 and is rejected no more
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [4, 2]
          p_avg: "1 W"
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0, 0.5]
        """,
    )
    assert main(["allocate", "--config", cfg, "--allocators", "eq28"]) == 0
    alone = capsys.readouterr().out
    assert main(["allocate", "--config", cfg, "--allocators", "eq29"]) == 0
    captured = capsys.readouterr()
    assert captured.out == alone
    assert captured.err == ""
    # the default list runs on unequal counts too
    assert main(["allocate", "--config", cfg]) == 0


def test_run_block_eq29_binds_only_the_commands_that_read_allocators(tmp_path, capsys):
    # run.allocators names eq29 on unequal counts: validate does not read it,
    # and allocate and sweep read it as eq28
    cfg = _cfg(tmp_path, GEOMETRY.replace("element_counts: [8, 8]", "element_counts: [8, 4]"))
    assert main(["validate", "--config", cfg, "--trials", "200"]) == 0
    assert " 0 failed" in capsys.readouterr().out
    assert main(["allocate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert sorted({line.split()[0] for line in out.splitlines()[1:]}) == ["eq28", "uniform"]
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--trials", "20", "--out", str(out_dir)]) == 0
    assert "config error" not in capsys.readouterr().err
    rows = _read_csv(out_dir / "metrics.csv")
    assert sorted({r["allocator"] for r in rows}) == ["eq28", "uniform"]


def test_eq29_on_unequal_counts_runs_eq28_once(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [4, 2]
          p_avg: "1 W"
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0, 0.5]
        """,
    )
    assert main(["allocate", "--config", cfg, "--allocators", "eq28"]) == 0
    alone = capsys.readouterr().out
    assert main(["allocate", "--config", cfg, "--allocators", "eq28,eq29"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["eq28", "eq28"]
    assert out == alone


def test_manifest_naming_eq29_replays_as_eq28(tmp_path):
    # manifests written while eq29 was an allocator of its own still replay
    out = tmp_path / "eq28"
    assert main(["sweep", "--config", _cfg(tmp_path, GEOMETRY), "--allocators", "eq28,uniform",
                 "--trials", "20", "--d-range", "0:4:4", "--out", str(out)]) == 0
    saved = yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert saved["allocators"] == ["eq28", "uniform"]
    assert _replay(tmp_path, dict(saved, allocators=["eq29", "uniform"]), "old") == 0
    rows = _read_csv(tmp_path / "old" / "metrics.csv")
    assert sorted({r["allocator"] for r in rows}) == ["eq28", "uniform"]
    for name in ("metrics.csv", "powers.csv"):
        assert (tmp_path / "old" / name).read_bytes() == (out / name).read_bytes()


def test_unknown_allocator_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path, SYMMETRIC)
    assert main(["allocate", "--config", cfg, "--allocators", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["allocate", "--config", str(tmp_path / "absent.yaml")]) == 4


def test_unknown_field_is_flagged(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        """
        scenario:
          element_counts: [2]
          p_avg: "1 W"
          q: "10 W"
          sigma_z: "1 W"
          sigma_n: "1 W"
          transmit_power: "1 W"
          channel:
            beta_sq: [1.0]
        """,
    )
    assert main(["allocate", "--config", cfg]) == 2
    assert "transmit_power" in capsys.readouterr().err


def test_seed_changes_metrics_but_not_schema(tmp_path):
    cfg = _cfg(tmp_path, GEOMETRY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--trials", "50", "--seed", "1", "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--trials", "50", "--seed", "2", "--out", str(b)]) == 0
    rows_a, rows_b = _read_csv(a / "metrics.csv"), _read_csv(b / "metrics.csv")
    assert [r["d_m"] for r in rows_a] == [r["d_m"] for r in rows_b]
    assert any(
        ra["mean_gain"] != rb["mean_gain"] for ra, rb in zip(rows_a, rows_b)
    )
    # identical seeds reproduce the file exactly
    c = tmp_path / "c"
    assert main(["sweep", "--config", cfg, "--trials", "50", "--seed", "1", "--out", str(c)]) == 0
    assert (a / "metrics.csv").read_bytes() == (c / "metrics.csv").read_bytes()


def test_invalid_yaml_is_a_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "scenario: [unclosed\n")
    assert main(["allocate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not valid YAML" in err
    assert main(["sweep", "--manifest", cfg]) == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_exact_sweep_converges_at_a_flat_optimum(tmp_path):
    # phi is flat to rounding here long before a gradient-ratio stopping rule
    # holds; the multiplier spread still certifies the answer
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "two_ris_symmetric.yaml"
    out = tmp_path / "run"
    rc = main([
        "sweep", "--config", str(config), "--d-range=-10.75:-10.75:1",
        "--trials", "200", "--out", str(out),
    ])
    assert rc == 0
    assert sorted(r["allocator"] for r in _read_csv(out / "metrics.csv")) == ["exact", "uniform"]


def _sweep_manifest(tmp_path):
    out = tmp_path / "orig"
    rc = main([
        "sweep", "--config", _cfg(tmp_path, GEOMETRY), "--trials", "20",
        "--d-range", "0:0:1", "--out", str(out),
    ])
    assert rc == 0
    return out, yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))


def _replay(tmp_path, saved, name):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(saved), encoding="utf-8")
    return main(["sweep", "--manifest", str(path), "--out", str(tmp_path / name)])


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.pop("d_values"), "d_values"),
        (lambda m: m["scenario"].pop("q_w"), "scenario.q_w"),
        (lambda m: m.update(trials="many"), "trials"),
    ],
    ids=["missing-d_values", "missing-q_w", "trials-many"],
)
def test_malformed_manifest_is_a_config_error(tmp_path, capsys, edit, field):
    _, saved = _sweep_manifest(tmp_path)
    edit(saved)
    assert _replay(tmp_path, saved, "edited") == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_manifest_with_estimate_mode_replays(tmp_path):
    # manifests written while the setting existed still replay, identically
    out, saved = _sweep_manifest(tmp_path)
    assert "estimate_mode" not in saved
    for mode in ("shortcut", "protocol"):
        assert _replay(tmp_path, dict(saved, estimate_mode=mode), mode) == 0
        for name in ("metrics.csv", "powers.csv"):
            assert (tmp_path / mode / name).read_bytes() == (out / name).read_bytes()


def test_config_estimate_mode_is_an_unknown_field(tmp_path, capsys):
    cfg = _cfg(tmp_path, GEOMETRY + "  estimate_mode: shortcut\n")
    for command in ("allocate", "validate", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2, command
        assert capsys.readouterr().err.startswith(
            "config error: run.estimate_mode: unknown field"), command
    assert not (tmp_path / "x").exists()


# every flag, with a value each command that takes it accepts
FLAGS = {
    "--config": "absent.yaml", "--out": "x", "--seed": "5", "--trials": "20",
    "--csi-mode": "perfect", "--allocators": "uniform,exact", "--workers": "2",
    "--d-range": "0:0:1", "--manifest": "absent.yaml",
}
TAKES = {
    "allocate": {"--config", "--out", "--allocators"},
    "validate": {"--config", "--out", "--seed", "--trials", "--workers"},
    "sweep": set(FLAGS),
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, takes in TAKES.items() for flag in FLAGS if flag not in takes],
)
def test_a_command_rejects_the_flags_it_does_not_take(tmp_path, capsys, monkeypatch,
                                                      command, flag):
    # the config does not exist: reading it would exit 4
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "absent.yaml", flag, FLAGS[flag], "--out", "x"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_manifest_records_exactly_the_command_s_settings(tmp_path):
    always = {"command", "version", "created", "scenario", "warnings", "host"}
    timed = {"duration_s", "trials_per_s"}
    cfg = _cfg(tmp_path, GEOMETRY)
    expected = {
        "allocate": ({"allocators": ["exact", "uniform"]}, set()),
        "validate": ({"seed": 5, "trials": 20, "workers": 2}, timed),
        "sweep": ({"seed": 5, "trials": 20, "csi_mode": "perfect",
                   "allocators": ["exact", "uniform"], "workers": 2, "d_values": [0.0]},
                  timed | {"solver"}),
    }
    for command, (settings, extra) in expected.items():
        out = tmp_path / command
        flags = [a for flag in sorted(TAKES[command] - {"--config", "--out", "--manifest"})
                 for a in (flag, FLAGS[flag])]
        assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 0, command
        manifest = yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))
        assert set(manifest) == always | set(settings) | extra, command
        assert {key: manifest[key] for key in settings} == settings, command


def test_validate_solves_an_off_centre_position(tmp_path, capsys):
    out = tmp_path / "vout"
    rc = main(["validate", "--config", _cfg(tmp_path, GEOMETRY), "--trials", "1000",
               "--out", str(out)])
    assert rc == 0
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    # at the configured position the surfaces are equally strong, so
    # uniform power is already stationary there
    assert checks["solver-stationarity"]["observed"] == 0.0
    off = checks["solver-stationarity[off-centre]"]
    assert off["status"] == "pass" and off["observed"] < 1e-6
    uniform_spread = float(off["detail"].removeprefix("uniform spread "))
    assert uniform_spread > 1e-2


@pytest.mark.parametrize(
    "flag",
    [["--trials", "30"], ["--seed", "5"], ["--csi-mode", "perfect"],
     ["--allocators", "uniform"], ["--d-range", "0:4:4"]],
    ids=lambda f: f[0],
)
def test_replay_rejects_flags_the_manifest_fixes(tmp_path, capsys, flag):
    out, _ = _sweep_manifest(tmp_path)
    capsys.readouterr()
    rc = main(["sweep", "--manifest", str(out / "run_manifest.yaml"), *flag,
               "--out", str(tmp_path / "replay")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag[0]}: ")
    assert not (tmp_path / "replay").exists()


def test_manifest_records_host_and_throughput(tmp_path):
    out, saved = _sweep_manifest(tmp_path)
    assert saved["trials_per_s"] > 0.0
    host = saved["host"]
    assert set(host) == {"python", "numpy", "platform", "cpu_count"}
    assert host["cpu_count"] >= 1
    vout = tmp_path / "vout"
    assert main(["validate", "--config", _cfg(tmp_path, TWO_GAIN), "--trials", "50",
                 "--out", str(vout)]) == 0
    manifest = yaml.safe_load((vout / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["trials_per_s"] > 0.0 and set(manifest["host"]) == set(host)


# a faded BS link and a Rician user link, outside the closed form's model
OUT_OF_MODEL = GEOMETRY.replace("    alpha_ru: 2.8\n", "    alpha_ru: 2.8\n    k_br: 1\n    k_ru: 5\n")
MODEL_WARNING = ("closed form assumes a deterministic BS link and a fully "
                 "scattered user link; this scenario violates that")


def _warned_once(capsys, out):
    """The model warning printed once on stderr, and listed in out's manifest."""
    assert capsys.readouterr().err == f"warning: {MODEL_WARNING}\n"
    manifest = yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["warnings"] == [MODEL_WARNING]


def test_closed_form_is_not_reported_outside_its_model(tmp_path, capsys):
    cfg = _cfg(tmp_path, OUT_OF_MODEL)
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--trials", "50", "--out", str(out)]) == 0
    _warned_once(capsys, out)
    rows = _read_csv(out / "metrics.csv")
    assert rows and all(r["closed_form_gain"] == "nan" for r in rows)
    assert all(math.isfinite(float(r["mean_gain"])) for r in rows)
    # random phases keep their closed form: it holds for any fading
    rout = tmp_path / "random"
    assert main(["sweep", "--config", cfg, "--trials", "50", "--csi-mode", "random-phase",
                 "--out", str(rout)]) == 0
    assert all(math.isfinite(float(r["closed_form_gain"])) for r in _read_csv(rout / "metrics.csv"))

    assert capsys.readouterr().err == ""
    vout = tmp_path / "vout"
    assert main(["validate", "--config", cfg, "--trials", "2000", "--out", str(vout)]) == 0
    _warned_once(capsys, vout)
    report = yaml.safe_load((vout / "validation_report.yaml").read_text(encoding="utf-8"))
    ergodic = {c["name"]: c for c in report["checks"]}["ergodic-gain"]
    assert ergodic["status"] == "not-applicable"
    assert "k_br = 1" in ergodic["detail"] and "k_ru = 5" in ergodic["detail"]
    assert report["summary"]["not-applicable"] == 1 and report["summary"]["fail"] == 0

    aout = tmp_path / "aout"
    assert main(["allocate", "--config", cfg, "--out", str(aout)]) == 0
    _warned_once(capsys, aout)


def test_main_prints_its_own_warnings_once_and_passes_others_on(tmp_path, capsys, monkeypatch):
    # one surface of one element: eq27's weight degenerates to uniform power
    cfg = _cfg(tmp_path, SYMMETRIC.replace("[4, 4]", "[1]").replace("[1.0, 1.0]", "[1.0]"))
    assert main(["allocate", "--config", cfg, "--allocators", "eq27"]) == 0
    assert capsys.readouterr().err == ("warning: uniform fallback for surface index [0]: "
                                       "degenerate moderate-SNR weight\n")

    real = cli.run_allocator

    def noisy(name, link, *rest):
        warnings.warn("not rispilot's", UserWarning)
        return real(name, link, *rest)

    monkeypatch.setattr(cli, "run_allocator", noisy)
    with pytest.warns(UserWarning, match="not rispilot's"):
        assert main(["allocate", "--config", _cfg(tmp_path, SYMMETRIC)]) == 0
    assert "warning:" not in capsys.readouterr().err
    # the suite's error::RuntimeWarning filter still reaches inside main
    monkeypatch.setattr(cli, "run_allocator", lambda *a: np.float64(1e300) * 1e300)
    with pytest.raises(RuntimeWarning, match="overflow"):
        main(["allocate", "--config", _cfg(tmp_path, SYMMETRIC)])


@pytest.mark.parametrize(
    "old, new, flag, field",
    [
        ("    d0: 50.0\n", "    d0: .inf\n", [], "scenario.geometry.d0"),
        ("    alpha_br: 2.2\n", "    alpha_br: .inf\n", [], "scenario.geometry.alpha_br"),
        ('    c0: "-20 dB"\n', '    c0: "inf dB"\n', [], "scenario.geometry.c0"),
        ('  p_avg: "14 dBm"\n', '  p_avg: "inf W"\n', [], "scenario.p_avg"),
        ('  p_avg: "14 dBm"\n', '  p_avg: "nan W"\n', [], "scenario.p_avg"),
        ("    d0: 50.0\n", "    d0: 50.0\n    d_u: 60\n", [], "scenario.geometry.d_u"),
        ("", "", ["--d-range", "0:nan:1"], "--d-range"),
        ("", "", ["--d-range", "0:inf:1"], "--d-range"),
        ("", "", ["--d-range", "0:1e300:1e-300"], "--d-range"),
        ("", "", ["--d-range", "0:1e300:1"], "--d-range"),
    ],
    ids=["d0-inf", "alpha_br-inf", "c0-inf", "p_avg-inf", "p_avg-nan", "d_u-past-d0",
         "d_range-nan", "d_range-inf", "d_range-overflow", "d_range-too-many"],
)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, old, new, flag, field):
    assert old in GEOMETRY
    cfg = _cfg(tmp_path, GEOMETRY.replace(old, new, 1))
    trials = ["--trials", "20"]
    commands = ([["sweep", *trials, *flag]] if flag
                else [["allocate"], ["validate", *trials], ["sweep", *trials]])
    for command in commands:
        rc = main([*command, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2, command
        assert capsys.readouterr().err.startswith(f"config error: {field}: "), command


def test_infinite_rician_factors_are_accepted(tmp_path):
    cfg = _cfg(tmp_path, GEOMETRY.replace("    alpha_ru: 2.8\n",
                                          "    alpha_ru: 2.8\n    k_br: .inf\n    k_ru: .inf\n"))
    assert main(["allocate", "--config", cfg]) == 0


def test_underflowing_path_loss_is_a_numerical_failure(tmp_path, capsys):
    cfg = _cfg(tmp_path, GEOMETRY.replace("    alpha_br: 2.2\n", "    alpha_br: 300\n"))
    for command in (["allocate"], ["validate", "--trials", "20"], ["sweep", "--trials", "20"]):
        rc = main([*command, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3, command
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "surface 0" in err, command


EXPONENT = """
scenario:
  element_counts: [4, 8]
  p_avg: "1e-30 W"
  q: "40 dBm"
  sigma_z: "-110 dBm"
  sigma_n: "-90 dBm"
  channel:
    beta_sq: [BETA0, 2.5e-11]
"""


def test_exponent_floats_read_as_numbers(tmp_path, capsys):
    printed = []
    for text in ("1e-10", "1.0e-10"):
        cfg = _cfg(tmp_path, EXPONENT.replace("BETA0", text), f"{text}.yaml")
        assert main(["allocate", "--config", cfg]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    for bad in ("1e-10x", '"nan"'):
        cfg = _cfg(tmp_path, EXPONENT.replace("BETA0", bad), "bad.yaml")
        assert main(["allocate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: scenario.channel.beta_sq[0]: ")


def test_powers_sixteen_decades_apart_are_solved(tmp_path, capsys):
    # the step cap of the p-space solver left a multiplier spread of 1.8e-3 here
    text = EXPONENT.replace("BETA0", "1e-10").replace("2.5e-11", "1e-16")
    cfg = _cfg(tmp_path, text)
    assert main(["allocate", "--config", cfg, "--allocators", "exact"]) == 0
    powers = [float(line.split()[2]) for line in capsys.readouterr().out.splitlines()[1:]]
    link = Link(counts=[4, 8], beta_sq=[1e-10, 1e-16], sigma_z_sq=1e-14, sigma_n_sq=1e-12,
                q=10.0, p_avg=1e-30)
    residual = stationarity_residual(link, np.array(powers))
    assert multiplier_spread(residual) < 1e-9


def test_an_optimal_power_below_the_float_range_is_a_numerical_failure(tmp_path, capsys):
    # the weak surface's optimal power underflows to 0, where its multiplier
    # is nan; that must leave the solve uncertified, not crash on zero powers
    text = (EXPONENT.replace('"1e-30 W"', '"14 dBm"').replace("BETA0", "1.0e-300")
            .replace("2.5e-11", "1.0e-12"))
    cfg = _cfg(tmp_path, text)
    for command in (["allocate"], ["validate", "--trials", "500"]):
        rc = main([*command, "--config", cfg, "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert rc == 3, command
        assert captured.err.startswith("numerical failure: "), command
        assert "multiplier spread nan" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


EXTREME = """
scenario:
  element_counts: [8, 8]
  p_avg: "14 dBm"
  q: "40 dBm"
  sigma_z: "-110 dBm"
  sigma_n: "-90 dBm"
  channel:
    beta_sq: [1.0e-11, 1.0e-10]
"""


@pytest.mark.parametrize(
    "old, new",
    [("1.0e-11", "1.0e-320"), ('"-110 dBm"', '"1e300 W"')],
    ids=["subnormal-gain", "huge-training-noise"],
)
def test_validate_on_extreme_powers_is_a_numerical_failure(tmp_path, capsys, old, new):
    # the perfect-CSI limit is taken at noiseless training, so no power
    # overflows before `exact`, which cannot certify these problems
    cfg = _cfg(tmp_path, EXTREME.replace(old, new, 1))
    assert main(["validate", "--config", cfg, "--trials", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [EXTREME, GEOMETRY], ids=["channel", "geometry"])
def test_validate_on_a_huge_budget_does_not_warn(tmp_path, capsys, text):
    # the stationarity residual's rate term overflows to inf there; the
    # suite turns a RuntimeWarning into an error
    cfg = _cfg(tmp_path, text.replace('"14 dBm"', '"1e300 W"', 1))
    assert main(["validate", "--config", cfg, "--trials", "50"]) == 0
    assert capsys.readouterr().err == ""


def test_running_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr(cli, "trial_gains", exhausted)
    monkeypatch.setattr(cli, "sweep_user", exhausted)
    cfg = _cfg(tmp_path, GEOMETRY)
    for command in (["validate"], ["sweep"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 3, command
        captured = capsys.readouterr()
        assert captured.err == "out of memory: Unable to allocate 7.45 GiB\n", command


def test_sweep_manifest_records_the_solver_per_position(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--config", _cfg(tmp_path, GEOMETRY), "--trials", "20",
                 "--allocators", "uniform,exact", "--d-range=-8:8:8", "--out", str(out)]) == 0
    manifest = out / "run_manifest.yaml"
    saved = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    assert [entry["d_m"] for entry in saved["solver"]] == saved["d_values"] == [-8.0, 0.0, 8.0]
    for entry in saved["solver"]:
        assert set(entry) == {"d_m", "iterations", "multiplier_spread"}
        assert entry["iterations"] >= 0 and 0.0 <= entry["multiplier_spread"] < 1e-9
    # the symmetric position needs no step: uniform power is already stationary
    assert saved["solver"][1]["iterations"] == 0
    assert main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
