import csv
import math
import pathlib
import textwrap
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from rispilot import cli
from rispilot.allocation import (
    ALLOCATOR_IDS,
    UniformFallbackWarning,
    multiplier_spread,
    run_allocator,
)
from rispilot.analysis import ergodic_gain_closed_form, stationarity_residual
from rispilot.cli import main
from rispilot.estimation import PerRisPowers
from rispilot.montecarlo import mean_se
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


ROOT = pathlib.Path(__file__).resolve().parent.parent
EVERY_ALLOCATOR = ",".join(ALLOCATOR_IDS)


def _printed_gains(capsys, cfg) -> dict:
    """Each allocator's gain column as `allocate` prints it for cfg."""
    assert main(["allocate", "--config", cfg, "--allocators", EVERY_ALLOCATOR]) == 0
    gains = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        name, *_, gain = line.split()
        assert gains.setdefault(name, gain) == gain  # one gain per allocator
    assert sorted(gains) == sorted(ALLOCATOR_IDS)
    return gains


def _config_scenario(path):
    """The scenario of the config at path."""
    return cli._scenario(cli.load_config(str(path))["scenario"], "scenario", config=True)


def _channel_config(tmp_path, name, counts, beta_sq) -> str:
    return _cfg(tmp_path, SYMMETRIC.replace("[4, 4]", repr(list(counts)))
                .replace("[1.0, 1.0]", repr(list(beta_sq))), name)


def _random_channel_configs(tmp_path) -> list[str]:
    rng = np.random.default_rng(18)
    return [_channel_config(tmp_path, f"random-{i}.yaml", rng.integers(1, 257, k).tolist(),
                            (10.0 ** rng.uniform(-12.0, -8.0, k)).tolist())
            for i, k in enumerate((2, 8, 64) * 3)]


@pytest.mark.parametrize(
    "configs",
    [
        lambda tmp: [str(ROOT / "configs" / "two_ris_symmetric.yaml"),
                     str(ROOT / "configs" / "two_ris_asymmetric.yaml")],
        lambda tmp: [str(ROOT / "tests" / "data" / "four_ris_channel.yaml"),
                     str(ROOT / "tests" / "data" / "sixty_four_ris_channel.yaml")],
        _random_channel_configs,
        # a lone element adds no coupling: both sums are exactly 0 for [1]
        lambda tmp: [_channel_config(tmp, "lone.yaml", [1], [0.5]),
                     _channel_config(tmp, "one-of-two.yaml", [1, 4], [1.0, 0.25])],
    ],
    ids=["bundled", "channel-fixtures", "random-channels", "one-element-surface"],
)
def test_allocate_gain_is_the_closed_form_of_each_allocation(tmp_path, capsys, configs):
    # allocate reads the gain off phi's evaluation; it must print what the
    # full closed form gives on the same powers
    with warnings.catch_warnings():
        # eq27 falls back to uniform power on a lone element
        warnings.simplefilter("ignore", UniformFallbackWarning)
        for cfg in configs(tmp_path):
            link = _config_scenario(cfg).link
            for name, printed in _printed_gains(capsys, cfg).items():
                closed = ergodic_gain_closed_form(link, run_allocator(name, link)).total
                assert printed == "%.6e" % closed, (cfg, name)


def test_allocate_gain_is_nan_outside_the_model(capsys):
    cfg = str(ROOT / "tests" / "data" / "two_ris_asymmetric_rician.yaml")
    assert set(_printed_gains(capsys, cfg).values()) == {"nan"}


def test_allocate_gain_overflows_with_phi(tmp_path, capsys):
    # phi = intra + inter overflows here while (pi/4) intra + (pi/4) inter
    # does not; the gain then reads inf, never a finite value beside phi's
    # inf, and the suite turns numpy's overflow warning into an error
    cfg = _channel_config(tmp_path, "huge.yaml", [7071, 7071], [1e300, 1e300])
    assert main(["allocate", "--config", cfg, "--allocators", EVERY_ALLOCATOR]) == 0
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[1:]]
    assert rows and all(row[4:] == ["inf", "inf"] for row in rows)
    assert captured.err == ""


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


def test_a_repeated_key_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the last value once won silently: powers of -50 dBm, exit 0
    text = EXTREME.replace("1.0e-11, 1.0e-10", "1.0e-10, 2.5e-11") + '  p_avg: "-50 dBm"\n'
    cfg = _cfg(tmp_path, text)
    errors = []
    for composer in (cli._Composer, cli._PyComposer):
        monkeypatch.setattr(cli, "_Composer", composer)
        assert main(["allocate", "--config", cfg, "--allocators", "uniform"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        f"config error: {cfg}: not valid YAML: found a repeated key 'p_avg' on line 10\n")
    # a manifest gets the same check
    out, _ = _sweep_manifest(tmp_path)
    manifest = out / "run_manifest.yaml"
    manifest.write_text(manifest.read_text(encoding="utf-8") + "trials: 30\n", encoding="utf-8")
    assert main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {manifest}: ") and "repeated key 'trials'" in err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "block, keys, field",
    [("scenario", "~: 1\n  zz: 2", "scenario.zz"),
     ("scenario", "null: 1", "scenario.null"),
     ("run", '~: 1\n  "": 2', "run.")],
    ids=["scenario-tilde", "scenario-null", "run-tilde-and-empty"],
)
def test_a_null_key_is_an_unknown_field(tmp_path, capsys, block, keys, field):
    # a null key once composed to None, which sorted() could not order
    # among the other keys: a TypeError traceback, exit 1
    text = GEOMETRY.replace(f"{block}:\n", f"{block}:\n  {keys}\n", 1)
    assert main(["allocate", "--config", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: unknown field ") and err.count("\n") == 1


def test_invalid_yaml_is_a_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "scenario: [unclosed\n")
    assert main(["allocate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not valid YAML" in err
    assert main(["sweep", "--manifest", cfg]) == 2
    assert "not valid YAML" in capsys.readouterr().err


# YAML syntax errors, each with how its one-line message ends: the line of
# the problem, or the position of a character the reader refuses
SYNTAX_ERRORS = {
    "unclosed-flow-sequence": ("scenario: [unclosed\n", "--config", "on line 2"),
    "unterminated-quote": ('scenario:\n  p_avg: "14 dBm\n', "--config", "on line 3"),
    "tab-indented-key": ("scenario:\n\tp_avg: 1\n", "--config", "on line 2"),
    "control-character": ('scenario:\n  p_avg: "14\x01 dBm"\n', "--config", "at position 22"),
    "truncated-manifest": ("command: sweep\nscenario: [\n", "--manifest", "on line 3"),
    # a UTF-16LE byte-order mark, then one odd byte: libyaml names the
    # missing character -1, which once printed as "#x-001"
    "cut-utf16-character": (b"\xff\xfe\xfd", "--config", "at position 2"),
}


@pytest.mark.parametrize("composer", ["libyaml", "pyyaml"])
@pytest.mark.parametrize("text, flag, end", SYNTAX_ERRORS.values(), ids=SYNTAX_ERRORS)
def test_a_yaml_syntax_error_is_one_line(tmp_path, capsys, monkeypatch, composer, text, flag,
                                         end):
    # PyYAML's own text put each of its marks on a line of its own: 2 to 4 lines
    if composer == "pyyaml":
        monkeypatch.setattr(cli, "_Composer", cli._PyComposer)
    path, out = tmp_path / "bad.yaml", tmp_path / "out"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["sweep", flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: not valid YAML: ") and err.count("\n") == 1
    assert err.endswith(f" {end}\n") and "#x-" not in err
    assert not out.exists()


def test_a_yaml_syntax_error_names_its_context_and_problem(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_Composer", cli._PyComposer)
    cfg = _cfg(tmp_path, SYNTAX_ERRORS["unclosed-flow-sequence"][0])
    assert main(["allocate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: not valid YAML: while parsing a flow sequence on line 1, "
        "expected ',' or ']', but got '<stream end>' on line 2\n")


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


def _gains_for_geometry(saved):
    """Replace a manifest's layout by gains, as a channel config's are stored."""
    saved["scenario"]["beta_sq"] = [1e-10, 1e-11]
    del saved["scenario"]["geometry"]


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.pop("d_values"), "d_values"),
        (lambda m: m["scenario"].pop("q_w"), "scenario.q_w"),
        (lambda m: m.update(trials="many"), "trials"),
        (lambda m: m["scenario"].update(element_counts=[8, 8, 8]), "scenario.element_counts"),
        (lambda m: m.update(d_values=4.0), "d_values"),
        (lambda m: m.update(d_values=[0.0] * 10_001), "d_values"),
        (lambda m: m["scenario"].update(zz=1), "scenario.zz"),
        (lambda m: m["scenario"]["geometry"].update(zz=1), "scenario.geometry.zz"),
        (lambda m: m["scenario"].update(beta_sq=[1e-10, 1e-11]), "scenario"),
        (_gains_for_geometry, "scenario.geometry"),
    ],
    ids=["missing-d_values", "missing-q_w", "trials-many", "three-counts", "scalar-d_values",
         "too-many-d_values", "unknown-scenario-key", "unknown-geometry-key",
         "gains-and-geometry", "gains-without-geometry"],
)
def test_malformed_manifest_is_a_config_error(tmp_path, capsys, edit, field):
    _, saved = _sweep_manifest(tmp_path)
    edit(saved)
    assert _replay(tmp_path, saved, "edited") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not (tmp_path / "edited").exists()


def test_a_manifest_holds_no_more_offsets_than_a_d_range():
    assert cli._d_values([float(d) for d in range(10_000)], "d_values") == cli._d_range(
        "0:9999:1", "--d-range")
    for read, value in ((cli._d_values, [0.0] * 10_001), (cli._d_range, "0:10000:1")):
        with pytest.raises(cli.ConfigError, match="10000"):
            read(value, "field")


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


# each run setting: a flag value, and the value it reads to; a run block
# gives the same scalar, and a manifest field stores the value
SETTING_VALUES = {
    "seed": ("5", 5), "trials": ("20", 20), "workers": ("2", 2),
    "csi_mode": ("perfect", "perfect"), "allocators": ("uniform,exact", ["exact", "uniform"]),
    "d_range": ("-4:4:4", [-4.0, 0.0, 4.0]),
}


@pytest.mark.parametrize("key", list(cli._RUN_SETTINGS))
def test_a_setting_reads_the_same_from_each_source(tmp_path, key):
    setting, (text, value) = cli._RUN_SETTINGS[key], SETTING_VALUES[key]
    args = cli.build_parser().parse_args(["sweep", f"{setting.flag}={text}"])
    from_flag = cli._run_fields({key: getattr(args, key)}, "--")
    config = _cfg(tmp_path, f"run:\n  {key}: {text}\n")
    from_run = cli._run_fields(cli.load_config(config)["run"], "run.")
    manifest = tmp_path / "manifest.yaml"
    cli._write_yaml(manifest, {setting.stored: value})
    from_manifest = cli._run_fields(cli._load_yaml(manifest), "")
    assert from_flag == from_run == from_manifest == {key: value}
    assert type(from_flag[key]) is type(value)


@pytest.mark.parametrize(
    "flag, value",
    [("--trials", "2_0"), ("--seed", "\u0661\u0660"), ("--workers", " 1 "),
     ("--trials", "abc"), ("--csi-mode", "oracle")],
    ids=["digit-separator", "arabic-indic-digits", "spaces", "not-a-number", "unknown-mode"],
)
def test_a_malformed_flag_is_a_config_error(tmp_path, capsys, monkeypatch, flag, value):
    # the config does not exist: reading it would exit 4
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", "absent.yaml", flag, value, "--out", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ") and err.count("\n") == 1
    assert "usage" not in err
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
        # numbers that float() reads but the config number grammar does not
        ('  p_avg: "14 dBm"\n', '  p_avg: "1_4 dBm"\n', [], "scenario.p_avg"),
        ('  p_avg: "14 dBm"\n', '  p_avg: "\u0661\u0664 dBm"\n', [], "scenario.p_avg"),
        ('  p_avg: "14 dBm"\n', '  p_avg: "014 dBm"\n', [], "scenario.p_avg"),
        ('    c0: "-20 dB"\n', '    c0: "-2_0 dB"\n', [], "scenario.geometry.c0"),
        ("", "", ["--d-range", "0:1_0:5"], "--d-range"),
    ],
    ids=["d0-inf", "alpha_br-inf", "c0-inf", "p_avg-inf", "p_avg-nan", "d_u-past-d0",
         "d_range-nan", "d_range-inf", "d_range-overflow", "d_range-too-many",
         "p_avg-separator", "p_avg-arabic-indic-digits", "p_avg-leading-zero",
         "c0-separator", "d_range-separator"],
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


@pytest.mark.parametrize(
    "spelling, plain",
    [("14dBm", "14 dBm"), (" 14 dBm ", "14 dBm"), ("+14 dBm", "14 dBm"),
     (".5 W", "0.5 W"), ("1e-3 W", "0.001 W")],
)
def test_power_spellings_read_as_their_plain_form(tmp_path, capsys, spelling, plain):
    outputs = []
    for p_avg in (plain, spelling):
        cfg = _cfg(tmp_path, GEOMETRY.replace('"14 dBm"', f'"{p_avg}"', 1))
        assert main(["allocate", "--config", cfg]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


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
    residual = stationarity_residual(link, PerRisPowers(p_k=powers))
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


def test_a_gain_ratio_below_the_float_range_stops_uncertified(tmp_path, capsys):
    # beta^2 1e-320 beside 1e300: the strength ratio 1e-620 rounds to 0 and
    # surface 1's pilot SNR is inf; `exact` stops uncertified after two steps,
    # when its step no longer moves the powers, where eq27 answers
    text = (EXPONENT.replace('"1e-30 W"', '"14 dBm"').replace("BETA0", "1.0e-320")
            .replace("2.5e-11", "1.0e300"))
    assert main(["allocate", "--config", _cfg(tmp_path, text), "--allocators", "exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: no convergence after 2 iterations (cap 100): "
                            "multiplier spread 1.000e+00 vs 1.0e-09\n")


def test_a_surface_77_decades_below_the_other_certifies(tmp_path, capsys):
    # corpus seed 3, batch 2277, row 1 (tests/solver_corpus.py): `exact`
    # must certify it, not stop at its step cap
    text = """
    scenario:
      element_counts: [174, 123]
      p_avg: "0.0071884520387084485 W"
      q: "40 dBm"
      sigma_z: "1.3001896342401752e26 W"
      sigma_n: "-90 dBm"
      channel:
        beta_sq: [4.4470265995206395e6, 1.3810326779463568e-32]
    """
    assert main(["allocate", "--config", _cfg(tmp_path, text), "--allocators", "exact"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    powers = [float(line.split()[2]) for line in captured.out.splitlines()[1:]]
    assert len(powers) == 2 and powers[1] < 1e-70 * powers[0]


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


@pytest.mark.parametrize(
    "edits, code, field",
    [
        ([('"1e-30 W"', '"1e308 W"')], 2, "scenario.p_avg"),
        # eq27's product w_k * budget overflows, though its powers do not
        ([('"1e-30 W"', '"1e300 W"'), ("BETA0", "1.0e-300")], 0, None),
        ([("[4, 8]", "[100000000000000000000, 8]")], 2, "scenario.element_counts"),
        ([("[4, 8]", "[9000000000000000000, 9000000000000000000]")], 2,
         "scenario.element_counts"),
    ],
    ids=["overflowing-budget", "eq27-overflow", "counts-beyond-int64", "counts-wrapping-int64"],
)
def test_extreme_budgets_and_counts_end_in_one_line(tmp_path, capsys, edits, code, field):
    text = EXPONENT
    for old, new in [*edits, ("BETA0", "1.0e-10")]:
        text = text.replace(old, new, 1)
    cfg = _cfg(tmp_path, text)
    for command in (["allocate"], ["allocate", "--allocators", "exact"],
                    ["validate", "--trials", "200"]):
        assert main([*command, "--config", cfg]) == code, command
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        if field is None:
            assert captured.err == "", command
        else:
            assert captured.err.startswith(f"config error: {field}: "), command
            assert captured.err.count("\n") == 1, command
    if field is None:
        assert main(["allocate", "--config", cfg, "--allocators", "eq27"]) == 0
        powers = [float(line.split()[2]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert float(np.dot([4, 8], powers)) == pytest.approx(12e300, rel=1e-9)


def test_validate_on_a_subnormal_budget_fails_before_any_draw(tmp_path, capsys):
    # sigma_z^2 / p_avg overflows; the allocators run first, so eq27's
    # failure ends the command before the draws, the estimation noise and
    # the closed form warn about that overflow
    text = EXPONENT.replace('"1e-30 W"', '"5e-324 W"').replace("BETA0", "1.0e-10")
    cfg = _cfg(tmp_path, text.replace("2.5e-11", "1.0e-16"))
    with warnings.catch_warnings(record=True) as shown:
        # main shows a RuntimeWarning through warnings.showwarning, which
        # appends it here rather than raising it
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["validate", "--config", cfg, "--trials", "200"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in shown] == []


def test_validate_on_an_overflowing_coherent_gain_fails_before_any_draw(tmp_path, capsys):
    # (sum_k M_k beta_k)^2 = (14142 * 1e150)^2 leaves the float range: the
    # Python float m_beta**2 once raised a bare errno tuple, after the trial
    # statistics had warned of their own overflow
    cfg = _cfg(tmp_path, """
        scenario:
          element_counts: [7071, 7071]
          p_avg: "14 dBm"
          q: "40 dBm"
          sigma_z: "-110 dBm"
          sigma_n: "-90 dBm"
          channel:
            beta_sq: [1.0e300, 1.0e300]
        """)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["validate", "--config", cfg, "--trials", "100",
                     "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the coherent gain ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in shown] == []
    assert not (tmp_path / "x").exists()


def test_validate_just_below_the_float_maximum_reports_finite_statistics(tmp_path, capsys):
    # (sum_k M_k beta_k)^2 = (14142 * 3.87e149)^2 is about 3e307: every
    # trial's gain is finite, but a sum of 100 of them is not, so the trial
    # statistics once reported an infinite mean after numpy's overflow warnings
    cfg = _cfg(tmp_path, """
        scenario:
          element_counts: [7071, 7071]
          p_avg: "14 dBm"
          q: "40 dBm"
          sigma_z: "-110 dBm"
          sigma_n: "-90 dBm"
          channel:
            beta_sq: [1.5e299, 1.5e299]
        """)
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["validate", "--config", cfg, "--trials", "100", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in shown] == []
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    for check in checks.values():
        assert math.isfinite(check["observed"]) and math.isfinite(check["noise_margin"])
    assert checks["ergodic-gain"]["status"] == "pass"


def _validate_finite(tmp_path, capsys, cfg, trials):
    """validate's report on cfg, which must exit 0 with every statistic
    finite, no numpy warning and nothing on stderr but the fallback line."""
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["validate", "--config", cfg, "--trials", str(trials), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: uniform fallback for surface index [0]: "
                                       "degenerate moderate-SNR weight\n")
    assert [str(w.message) for w in shown] == []
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    for check in checks.values():
        assert math.isfinite(check["observed"]) and math.isfinite(check["noise_margin"])
        assert check["status"] != "fail", check
    return checks


def test_validate_on_one_huge_surface_reports_finite_statistics(tmp_path, capsys):
    # beta^2 = 1e308 on one element: about one trial in six has a gain |h|^2
    # beyond the float maximum, and h conj(est) overflows too, so the checks
    # once read nan and inf after numpy's warnings; validate now runs in
    # units of 2^512
    cfg = _cfg(tmp_path, """
        scenario:
          element_counts: [1]
          p_avg: "14 dBm"
          q: "40 dBm"
          sigma_z: "-110 dBm"
          sigma_n: "-90 dBm"
          channel:
            beta_sq: [1.0e308]
        """)
    checks = _validate_finite(tmp_path, capsys, cfg, 2000)
    assert checks["ergodic-gain"]["observed"] > 1e307


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_on_one_huge_surface_at_watt_powers_warns_of_nothing(tmp_path, capsys):
    # with p_avg 4 W and sigma_z 1 W, p^2 c overflows in the stationarity
    # check, so the residual's rate is 0; the curvature, which the check
    # does not use, once multiplied that 0 by an infinite h_k
    cfg = _channel_config(tmp_path, "huge-watts.yaml", [1], [1.0e308])
    out = tmp_path / "x"
    assert main(["validate", "--config", cfg, "--trials", "2000", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: uniform fallback for surface index [0]: "
                                       "degenerate moderate-SNR weight\n")
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["solver-stationarity"]["status"] == "pass"
    assert report["summary"]["fail"] == 0


def test_validate_keeps_a_surface_that_its_units_send_below_the_smallest_float(tmp_path, capsys):
    # 1e-300 in units of 2^1024 is 0, which no link admits; the surface is given
    # the smallest float instead, 10^161 times below the other's coefficients
    cfg = _cfg(tmp_path, """
        scenario:
          element_counts: [1, 1]
          p_avg: "4 W"
          q: "10 W"
          sigma_z: "0 W"
          sigma_n: "1 W"
          channel:
            beta_sq: [1.0e308, 1.0e-300]
        """)
    checks = _validate_finite(tmp_path, capsys, cfg, 2000)
    assert checks["alignment-mean[1]"]["observed"] == pytest.approx(
        checks["alignment-mean[1]"]["expected"], rel=0.1)


def test_validate_on_a_mean_gain_beyond_the_float_range_is_a_numerical_failure(tmp_path, capsys):
    # (sum_k M_k beta_k)^2 = 1.79e308 is finite, but these 2000 trials' mean
    # gain is 1.01 times it: one line, no traceback, no report
    cfg = _channel_config(tmp_path, "edge.yaml", [1], [1.79e308])
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["validate", "--config", cfg, "--trials", "2000",
                     "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("numerical failure: ergodic-gain: ")
    assert err[1:] == ["warning: uniform fallback for surface index [0]: "
                       "degenerate moderate-SNR weight"]
    assert [str(w.message) for w in shown] == []
    assert not (tmp_path / "x").exists()


def test_mean_se_scales_back_exactly_and_names_an_overflow():
    x = np.array([1.5, 1.0, 2.0])
    se = float(np.std(x, ddof=1) / math.sqrt(3))
    assert mean_se(x, 1000, "check") == (math.ldexp(1.5, 1000), math.ldexp(se, 1000))
    assert mean_se(x[:1], 7, "check") == (math.ldexp(1.5, 7), math.inf)
    # samples far below one keep their error: their squares would underflow
    assert mean_se(np.ldexp(x, -1000), 0, "check") == (math.ldexp(1.5, -1000),
                                                       math.ldexp(se, -1000))
    with pytest.raises(ArithmeticError, match="^check: "):
        mean_se(x, 1024, "check")


def _symmetric_at(tmp_path, c0_db) -> str:
    """The bundled symmetric config with its path loss at 1 m set to c0_db."""
    text = (ROOT / "configs" / "two_ris_symmetric.yaml").read_text(encoding="utf-8")
    path = tmp_path / f"c0-{c0_db}.yaml"
    path.write_text(text.replace('c0: "-20 dB"', f'c0: "{c0_db} dB"'), encoding="utf-8")
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_near_the_float_maximum_keeps_finite_statistics(tmp_path, capsys):
    # closed-form gains of 6e306 to 1e307: the trials' gains sum past the
    # float maximum, so the sweep takes its statistics in units of 2^e
    out = tmp_path / "x"
    assert main(["sweep", "--config", _symmetric_at(tmp_path, 1552), "--trials", "200",
                 "--allocators", "uniform", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "metrics.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9
    for row in rows:
        values = {k: float(v) for k, v in row.items() if k != "allocator"}
        assert all(math.isfinite(v) for v in values.values()), row
        assert abs(values["mean_gain"] - values["closed_form_gain"]) <= 4.0 * values["se_gain"]


def test_sweep_on_a_mean_gain_beyond_the_float_range_is_a_numerical_failure(tmp_path, capsys):
    # at 1560 dB the trials' mean gain itself passes the float maximum:
    # one line, no numpy warning, no metrics
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["sweep", "--config", _symmetric_at(tmp_path, 1560), "--trials", "200",
                     "--allocators", "uniform", "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: mean_gain: ") and err.count("\n") == 1
    assert [str(w.message) for w in shown] == []
    assert not (tmp_path / "x" / "metrics.csv").exists()


def test_validate_on_tiny_gains_keeps_its_noise_margins(tmp_path, capsys):
    # gains of the order of 1e-299 are drawn in units of one; their
    # differences' squares underflow there, so the statistics rescale them
    cfg = _channel_config(tmp_path, "tiny.yaml", [4, 4], [1e-300, 1e-300])
    out = tmp_path / "x"
    assert main(["validate", "--config", cfg, "--trials", "2000", "--out", str(out)]) == 0
    report = yaml.safe_load((out / "validation_report.yaml").read_text(encoding="utf-8"))
    for check in report["checks"]:
        if check["name"].startswith(("ergodic-gain", "hierarchy-")):
            assert check["noise_margin"] > 0.0 and check["status"] != "fail", check


@pytest.mark.parametrize(
    "key, value, field",
    [("p_avg_w", 1e308, "scenario.p_avg_w"),
     ("element_counts", [2**53, 1], "scenario.element_counts")],
    ids=["overflowing-budget", "too-many-elements"],
)
def test_a_manifest_with_an_extreme_budget_is_a_config_error(tmp_path, capsys, key, value, field):
    _, saved = _sweep_manifest(tmp_path)
    saved["scenario"][key] = value
    assert _replay(tmp_path, saved, "edited") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1


def test_sweep_builds_the_link_at_user_y(tmp_path, capsys):
    # the user_y link leaves the float range though every swept offset is
    # fine: sweep exits 3, as allocate and validate do
    cfg = _cfg(tmp_path, GEOMETRY.replace("    alpha_ru: 2.8\n",
                                          "    alpha_ru: 2.8\n    user_y: 1.0e200\n"))
    for command in (["allocate"], ["validate", "--trials", "20"], ["sweep", "--trials", "20"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, command


def test_rician_sweep_replays_and_keeps_its_fading(tmp_path):
    config = pathlib.Path(__file__).parent / "data" / "two_ris_asymmetric_rician.yaml"
    out, again = tmp_path / "sweep", tmp_path / "replay"
    assert main(["sweep", "--config", str(config), "--trials", "50", "--out", str(out)]) == 0
    manifest = out / "run_manifest.yaml"
    assert main(["sweep", "--manifest", str(manifest), "--out", str(again)]) == 0
    for name in ("metrics.csv", "powers.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
    geometry = yaml.safe_load(manifest.read_text(encoding="utf-8"))["scenario"]["geometry"]
    assert (geometry["k_br"], geometry["k_ru"]) == (10.0, 1.0)


def test_a_channel_manifest_records_the_configured_gains(tmp_path):
    cfg = _cfg(tmp_path, EXPONENT.replace("BETA0", "1.0e-10"))
    assert main(["allocate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    saved = yaml.safe_load((tmp_path / "run" / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert saved["scenario"]["beta_sq"] == [1.0e-10, 2.5e-11]
    assert "geometry" not in saved["scenario"]


# Config scalar typing, pinned per (form, field). Each form is written
# as it appears in the YAML file, and each field gets it in turn, the
# other placeholders taking their defaults. An answer is 0 for exit 0,
# or the field that an exit-2 message names first: ".", the field itself.
TYPED_CHANNEL = """
scenario:
  element_counts:
    - COUNT0
    - 8
  p_avg: "14 dBm"
  q: "40 dBm"
  sigma_z: "-110 dBm"
  sigma_n: "-90 dBm"
  channel:
    beta_sq:
      - BETA0
      - 2.5e-11
run:
  trials: TRIALS
  seed: SEED
"""
TYPED_GEOMETRY = """
scenario:
  element_counts: [8, 8]
  p_avg: "14 dBm"
  q: "40 dBm"
  sigma_z: "-110 dBm"
  sigma_n: "-90 dBm"
  geometry:
    d0: D0
    c0: "-20 dB"
    alpha_br: 2.2
    alpha_ru: 2.8
    k_br: K_BR
"""
# field -> (template, placeholder)
TYPED_FIELDS = {
    "scenario.channel.beta_sq[0]": (TYPED_CHANNEL, "BETA0"),
    "scenario.geometry.d0": (TYPED_GEOMETRY, "D0"),
    "scenario.element_counts[0]": (TYPED_CHANNEL, "COUNT0"),
    "run.trials": (TYPED_CHANNEL, "TRIALS"),
    "run.seed": (TYPED_CHANNEL, "SEED"),
    "scenario.geometry.k_br": (TYPED_GEOMETRY, "K_BR"),
}
TYPED_DEFAULTS = {"BETA0": "1.0e-10", "D0": "50.0", "COUNT0": "4", "TRIALS": "20",
                  "SEED": "3", "K_BR": ".inf"}
D_U = "scenario.geometry.d_u"
# form: answers for the fields in TYPED_FIELDS' order
#   beta_sq[0], d0, element_counts[0], trials, seed, k_br
SCALAR_ANSWERS = {
    "1e-10": (0, D_U, ".", ".", ".", 0),
    '"1e-10"': (0, D_U, ".", ".", ".", 0),
    "2.5": (0, 0, ".", ".", ".", 0),
    "8": (0, 0, 0, 0, 0, 0),
    '"8"': (0, 0, ".", ".", ".", 0),
    ".inf": (".", ".", ".", ".", ".", 0),
    "-.inf": (".", ".", ".", ".", ".", "."),
    ".nan": (".", ".", ".", ".", ".", "."),
    "yes": (".", ".", ".", ".", ".", "."),
    "true": (".", ".", ".", ".", ".", "."),
    "null": (".", ".", ".", ".", ".", "."),
    "~": (".", ".", ".", ".", ".", "."),
    "": (".", ".", ".", ".", ".", "."),
    "1_000": (".", ".", ".", ".", ".", "."),
    "0x10": (".", ".", ".", ".", ".", "."),
    "010": (".", ".", ".", ".", ".", "."),
}


@pytest.mark.parametrize(
    "form, field, answer",
    [(form, field, answer) for form, answers in SCALAR_ANSWERS.items()
     for field, answer in zip(TYPED_FIELDS, answers)],
)
def test_config_scalar_typing_is_pinned(tmp_path, capsys, form, field, answer):
    template, placeholder = TYPED_FIELDS[field]
    text = template
    for key, default in TYPED_DEFAULTS.items():
        text = text.replace(key, form if key == placeholder else default)
    rc = main(["allocate", "--config", _cfg(tmp_path, text), "--allocators", "uniform"])
    err = capsys.readouterr().err
    if answer == 0:
        # a finite k_br warns that the closed form's model does not hold
        assert rc == 0 and "config error" not in err, err
    else:
        assert rc == 2
        assert err.startswith(f"config error: {field if answer == '.' else answer}: "), err


def test_run_settings_are_read_as_written(tmp_path):
    # YAML 1.1 read a plain -8:8:8 as a base-60 integer; the range is its
    # text, and a quoted mode reaches the manifest as a plain string
    cfg = _cfg(tmp_path, GEOMETRY.replace('d_range: "-8:8:8"', "d_range: -8:8:8")
               + '  csi_mode: "perfect"\n')
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--trials", "20", "--out", str(out)]) == 0
    assert [r["d_m"] for r in _read_csv(out / "metrics.csv")][::2] == ["-8", "0", "8"]
    saved = yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert (saved["csi_mode"], saved["d_values"]) == ("perfect", [-8.0, 0.0, 8.0])


ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_FILES = sorted([*ROOT.glob("configs/*.yaml"), *ROOT.glob("tests/data/*.yaml")])


def _read_both_ways(monkeypatch, read):
    """read() with libyaml, where PyYAML has it, and with PyYAML's own parser."""
    first = read()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_Composer", cli._PyComposer)
        second = read()
    return first, second


def _scenario_and_run(path):
    raw = cli.load_config(str(path))
    scn = cli._scenario(raw["scenario"], "scenario", config=True)
    return scn.as_dict(), scn.link.beta_sq.tobytes(), cli._run_fields(raw.get("run") or {}, "run.")


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.name for p in CONFIG_FILES])
def test_configs_read_the_same_without_libyaml(monkeypatch, path):
    with_libyaml, without = _read_both_ways(monkeypatch, lambda: _scenario_and_run(path))
    assert with_libyaml == without


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.name for p in CONFIG_FILES])
def test_a_config_s_scenario_reads_back_from_its_manifest(tmp_path, path):
    # a manifest stores the scenario itself: the same fields and the same
    # gains' bits, in channel mode and at any surface count too
    scn = _config_scenario(path)
    manifest = tmp_path / "manifest.yaml"
    cli._write_yaml(manifest, {"scenario": scn.as_dict()})
    again = cli._scenario(cli._load_yaml(manifest)["scenario"], "scenario", config=False)
    assert again.as_dict() == scn.as_dict()
    assert again.link.beta_sq.tobytes() == scn.link.beta_sq.tobytes()


# every scenario field, with the prefix of its path in either source
SCENARIO_FIELDS = [(prefix, field) for prefix, table in (("scenario.", cli._SCENARIO),
                                                         ("scenario.geometry.", cli._GEOMETRY))
                   for field in table.values()]


def _written(field, x):
    """x as a config gives field's value, and as a manifest stores it."""
    read = getattr(field.read, "func", field.read)
    if read is cli._element_counts:
        return [x, 8], [x, 8]
    unit = {cli._power_watts: " W", cli._db_value: " dB"}.get(read)
    return (x, x) if unit is None else (f"{x}{unit}", x)


@pytest.mark.parametrize("prefix, field", SCENARIO_FIELDS,
                         ids=[field.stored for _, field in SCENARIO_FIELDS])
def test_a_scenario_field_reads_the_same_from_each_source(tmp_path, capsys, prefix, field):
    # a value one source rejects the other rejects too, each naming the
    # field in its own spelling, and a manifest must store every field,
    # those a config may leave to their defaults included
    def fields(tree):
        return tree["scenario"]["geometry"] if prefix.endswith("geometry.") else tree["scenario"]

    _, saved = _sweep_manifest(tmp_path)
    for i, x in enumerate(["yes", -1.0, 0.0, 2.5, math.inf]):
        config = yaml.safe_load(GEOMETRY)
        fields(config)[field.name], fields(saved)[field.stored] = _written(field, x)
        rc = main(["allocate", "--config", _cfg(tmp_path, yaml.safe_dump(config), "bad.yaml")])
        errors = [capsys.readouterr().err]
        assert (rc == 2) == (_replay(tmp_path, saved, f"run-{i}") == 2), x
        errors.append(capsys.readouterr().err)
        if rc == 2 or x == "yes":
            for err, name in zip(errors, (field.name, field.stored)):
                # a count is named by its index in the list
                where = f"config error: {prefix}{name}"
                assert err.startswith((f"{where}: ", f"{where}[0]: ")), (x, err)
    del fields(saved)[field.stored]
    assert _replay(tmp_path, saved, "missing") == 2
    assert capsys.readouterr().err == (
        f"config error: {prefix}{field.stored}: missing required field\n")


def test_a_sweep_manifest_reads_the_same_without_libyaml(tmp_path, monkeypatch):
    config = ROOT / "tests" / "data" / "two_ris_asymmetric_rician.yaml"
    assert main(["sweep", "--config", str(config), "--trials", "5", "--out", str(tmp_path)]) == 0

    def read():
        saved = cli._load_yaml(str(tmp_path / "run_manifest.yaml"))
        scn = cli._scenario(saved["scenario"], "scenario", config=False)
        return scn.as_dict(), scn.link.beta_sq.tobytes(), cli._run_fields(saved, "")

    with_libyaml, without = _read_both_ways(monkeypatch, read)
    assert with_libyaml == without
    assert with_libyaml[2]["d_range"] == [-16.0 + 4.0 * i for i in range(9)]


SPECIAL_VALUES = [math.inf, math.nan, 5e-324, 1.7976931348623157e308, -0.0]


def _per_value(*values) -> str:
    """A CSV line as "%.17g" writes each float."""
    return ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in values) + "\n"


def test_the_csv_writers_write_each_value_as_17_digits(tmp_path):
    from rispilot.montecarlo import SweepRow
    from rispilot.scenario import watts_to_dbm

    values = SPECIAL_VALUES
    rows = [SweepRow(d, "exact", *values[i:] + values[:i], powers_w=(values[i], 0.5))
            for i, d in enumerate(values[:4])]
    # -0.0 is no power, but it is a user offset
    rows[3] = SweepRow(-0.0, "uniform", *values[:5], powers_w=(5e-324, 1.7976931348623157e308))
    cli._write_metrics_csv(tmp_path / "metrics.csv", rows)
    cli._write_powers_csv(tmp_path / "powers.csv", [(r.d_m, r.allocator, r.powers_w) for r in rows])
    metrics = "".join(
        _per_value(r.d_m, r.allocator, r.mean_gain, r.se_gain, r.mean_rate, r.se_rate,
                   r.closed_form_gain) for r in rows)
    powers = "".join(_per_value(r.d_m, r.allocator, k, p, watts_to_dbm(p))
                     for r in rows for k, p in enumerate(r.powers_w))
    assert (tmp_path / "metrics.csv").read_text(encoding="utf-8").split("\n", 1)[1] == metrics
    assert (tmp_path / "powers.csv").read_text(encoding="utf-8").split("\n", 1)[1] == powers
    assert "inf,nan,4.9406564584124654e-324,1.7976931348623157e+308,-0" in metrics


# strings a resolver reads as another type, and strings the emitter must
# quote, escape or fold
YAML_STRINGS = [
    "", "null", "Null", "~", "yes", "No", "on", "true", "1e3", "1.0", ".inf", "-.nan", "0x1F",
    "0o17", "012", "1_000", "12:30", "190:20:30", "2026-10-19", "2026-10-19T21:52:04+00:00",
    "2001-12-14 21:59:43.10 -5", "<<", "=", "a: b", "a:b", "#x", "a #b", "- y", "-", "?", ":",
    "two\nlines", "end\n", "\n", "tab\there", " lead", "trail ", "h\u00e9llo", "\u65e5\u672c",
    "\u2028", "\x85", "\ufeff", "\x07", "x" * 81, "word " * 30, '"q"', "'s'", "[a]", "{a}",
    "&a", "*a", "!t", "%", "@", "`", "|", ">",
]
YAML_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(10**40)]),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e17, 1e16, 5e-324]),
    st.text(), st.sampled_from(YAML_STRINGS),
)
YAML_KEYS = st.text() | st.sampled_from(YAML_STRINGS)
YAML_TREES = st.dictionaries(YAML_KEYS, st.recursive(
    YAML_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(YAML_KEYS, inner, max_size=4)),
    max_leaves=16,
), max_size=6)


@pytest.mark.parametrize("dumper", [yaml.CSafeDumper, yaml.SafeDumper]
                         if yaml.__with_libyaml__ else [yaml.SafeDumper])
@given(YAML_TREES)
@settings(max_examples=150, deadline=None)
def test_manifests_are_written_as_yaml_dump_writes_them(tmp_path_factory, dumper, payload):
    path = tmp_path_factory.getbasetemp() / f"{dumper.__name__}.yaml"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_YAML_DUMPER", dumper)
        cli._write_yaml(path, payload)
    expected = yaml.dump(payload, Dumper=dumper, sort_keys=True, default_flow_style=False)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("value", [np.float64(1.0), np.int64(1), {1, 2}, cli._Quoted("x"),
                                   b"x", object()],
                         ids=["float64", "int64", "set", "str-subclass", "bytes", "object"])
def test_a_payload_of_another_type_writes_nothing(tmp_path, value):
    path = tmp_path / "payload.yaml"
    with pytest.raises(yaml.representer.RepresenterError):
        cli._write_yaml(path, {"a": [1.0, {"b": value}]})
    assert not path.exists()


def test_an_allocate_block_formats_as_row_by_row():
    from rispilot.scenario import watts_to_dbm

    name = "exact"
    p_k = [5e-324, 1.7976931348623157e308, 0.025, math.inf]
    for phi, gain in [(1.5e-7, math.nan), (math.inf, -0.0)]:
        rows = "".join(
            f"{name:<10} {k:>3} {p:>24.17g} {watts_to_dbm(p):>12.4f} {phi:>14.6e} {gain:>14.6e}\n"
            for k, p in enumerate(p_k))
        assert cli._table_block(name, p_k, phi, gain) == rows


# Exit-2 paths, each with the field its one-line message names; FILE stands
# for the config's path
NO_LAYOUT = GEOMETRY.split("  geometry:")[0]
EXIT_2_CASES = {
    "p_avg-null": (GEOMETRY.replace('p_avg: "14 dBm"', "p_avg: ~"), ["allocate"],
                   "scenario.p_avg"),
    "p_avg-inf": (GEOMETRY.replace('"14 dBm"', '".inf W"'), ["allocate"], "scenario.p_avg"),
    "p_avg-dbm-overflow": (GEOMETRY.replace('"14 dBm"', '"1e308 dBm"'), ["allocate"],
                           "scenario.p_avg"),
    "p_avg-negative": (GEOMETRY.replace('"14 dBm"', '"-1 W"'), ["allocate"], "scenario.p_avg"),
    "c0-bare": (GEOMETRY.replace('c0: "-20 dB"', "c0: -20"), ["allocate"],
                "scenario.geometry.c0"),
    "c0-inf": (GEOMETRY.replace('"-20 dB"', '".inf dB"'), ["allocate"], "scenario.geometry.c0"),
    "c0-dbm": (GEOMETRY.replace('"-20 dB"', '"-20 dBm"'), ["allocate"], "scenario.geometry.c0"),
    "counts-scalar": (GEOMETRY.replace("[8, 8]", "8"), ["allocate"], "scenario.element_counts"),
    "geometry-three-counts": (GEOMETRY.replace("[8, 8]", "[8, 8, 8]"), ["allocate"],
                              "scenario.element_counts"),
    "no-geometry-or-channel": (NO_LAYOUT, ["allocate"], "scenario"),
    "beta_sq-scalar": (EXTREME.replace("[1.0e-11, 1.0e-10]", "1.0e-10"), ["allocate"],
                       "scenario.channel.beta_sq"),
    "beta_sq-one-gain": (EXTREME.replace("[1.0e-11, 1.0e-10]", "[1.0e-10]"), ["allocate"],
                         "scenario.channel.beta_sq"),
    "allocators-empty": (GEOMETRY, ["allocate", "--allocators", ","], "--allocators"),
    "d_range-inf-start": (GEOMETRY, ["sweep", "--d-range", ".inf:1:1"], "--d-range"),
    "d_range-zero-step": (GEOMETRY, ["sweep", "--d-range", "0:1:0"], "--d-range"),
    "float-tag": (GEOMETRY.replace("d0: 50.0", "d0: !!float 50"), ["allocate"], "FILE"),
    "top-level-list": ("- 1\n- 2\n", ["allocate"], "FILE"),
    "scenario-scalar": ("scenario: 5\n", ["allocate"], "scenario"),
    "manifest-is-a-config": (GEOMETRY, ["sweep", "--manifest", "FILE"], "FILE"),
    "sweep-without-d_range": (GEOMETRY.replace('  d_range: "-8:8:8"\n', ""), ["sweep"],
                              "run.d_range"),
    "allocate-without-config": (None, ["allocate"], "--config"),
    "sweep-without-config-or-manifest": (None, ["sweep"], "--config"),
    "sweep-with-config-and-manifest": (GEOMETRY, ["sweep", "--manifest", "FILE", "--config", "FILE"],
                                       "--manifest"),
}


@pytest.mark.parametrize("text, argv, field", EXIT_2_CASES.values(), ids=EXIT_2_CASES)
def test_a_config_error_is_one_line_naming_its_field(tmp_path, capsys, text, argv, field):
    path = "absent.yaml" if text is None else _cfg(tmp_path, text)
    if text is not None and "FILE" not in argv:
        argv = [*argv, "--config", "FILE"]
    out = tmp_path / "out"
    assert main([*(path if a == "FILE" else a for a in argv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field.replace('FILE', path)}: ") and err.count("\n") == 1
    assert not out.exists()
