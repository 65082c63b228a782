"""CLI outputs on the bundled configs against saved reference outputs.

tests/data/<config>/ holds metrics.csv and powers.csv from

    rispilot sweep --config configs/<config>.yaml --trials 200 \
        --allocators uniform,exact

the stdout of `rispilot allocate --config configs/<config>.yaml` as
allocate.txt, and validation_report.yaml from

    rispilot validate --config configs/<config>.yaml --trials 2000

More cases live under tests/data/ with their configs:
four_ris_channel (four surfaces given by their cascaded gains) pins
allocate.txt and validation_report.yaml the same way,
sixty_four_ris_channel (64 surfaces, the size of the largest benchmark
allocation problem) pins allocate.txt, and
two_ris_asymmetric_rician (Rician fading on both hops, outside the
closed form's model) pins allocate.txt, whose gain column reads nan, and
in <mode>/ the CSVs of

    rispilot sweep --config tests/data/two_ris_asymmetric_rician.yaml \
        --trials 200 --allocators uniform,eq27,eq28,exact --csi-mode <mode>

A refactor that keeps the draws must reproduce them: powers.csv,
allocate.txt and validation_report.yaml byte for byte, metrics.csv
exactly except closed_form_gain on the bundled configs, whose summation
order may move it by a few ulp. The Rician CSVs are compared byte for
byte, as their `nan` closed forms cannot be compared as floats. A change
that alters the draws regenerates them with the same commands.
"""
import csv
import pathlib

import pytest

from rispilot.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
CONFIGS = ["two_ris_symmetric", "two_ris_asymmetric"]
RICIAN_SWEEPS = [("two_ris_asymmetric_rician", mode)
                 for mode in ("estimated", "perfect", "random-phase")]
# relative tolerance on closed_form_gain, a few ulp
CLOSED_FORM_RTOL = 2e-15


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _config(name):
    local = TESTS / "data" / f"{name}.yaml"
    return str(local if local.exists() else TESTS.parent / "configs" / f"{name}.yaml")


@pytest.mark.parametrize(
    "config,csi_mode", [(c, None) for c in CONFIGS] + RICIAN_SWEEPS,
    ids=CONFIGS + [f"{c}-{mode}" for c, mode in RICIAN_SWEEPS],
)
def test_sweep_matches_reference_outputs(tmp_path, config, csi_mode):
    out = tmp_path / config
    argv = ["sweep", "--config", _config(config), "--trials", "200", "--out", str(out)]
    if csi_mode is None:
        argv += ["--allocators", "uniform,exact"]
    else:
        argv += ["--allocators", "uniform,eq27,eq28,exact", "--csi-mode", csi_mode]
    assert main(argv) == 0
    reference = TESTS / "data" / config
    if csi_mode is not None:
        reference /= csi_mode
        for name in ("metrics.csv", "powers.csv"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name
        return
    assert (out / "powers.csv").read_bytes() == (reference / "powers.csv").read_bytes()
    new, old = _rows(out / "metrics.csv"), _rows(reference / "metrics.csv")
    assert len(new) == len(old) and list(new[0]) == list(old[0])
    for a, b in zip(new, old):
        for field, expected in b.items():
            if field == "closed_form_gain":
                got, want = float(a[field]), float(expected)
                assert abs(got - want) <= CLOSED_FORM_RTOL * abs(want), (a["d_m"], a["allocator"])
            else:
                assert a[field] == expected, (a["d_m"], a["allocator"], field)


@pytest.mark.parametrize("config", CONFIGS + ["four_ris_channel", "sixty_four_ris_channel",
                                    "two_ris_asymmetric_rician"])
def test_allocate_matches_reference_output(capsys, config):
    assert main(["allocate", "--config", _config(config)]) == 0
    expected = (TESTS / "data" / config / "allocate.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("config", CONFIGS + ["four_ris_channel"])
def test_validation_report_matches_reference_output(tmp_path, config):
    out = tmp_path / config
    assert main(["validate", "--config", _config(config), "--trials", "2000",
                 "--out", str(out)]) == 0
    reference = TESTS / "data" / config / "validation_report.yaml"
    assert (out / "validation_report.yaml").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "flag",
    [["--seed", "-1"], ["--seed", "18446744073709551616"], ["--trials", "0"],
     ["--workers", "0"]],
    ids=["seed-negative", "seed-2^64", "trials-0", "workers-0"],
)
@pytest.mark.parametrize("config", ["two_ris_symmetric", "absent"])
def test_bad_flag_exits_before_the_config_is_read(tmp_path, capsys, flag, config):
    path = _config(config) if config != "absent" else str(tmp_path / "absent.yaml")
    for command in ("validate", "sweep"):
        assert main([command, "--config", path, *flag, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag[0]}"), command
    assert not (tmp_path / "x").exists()
