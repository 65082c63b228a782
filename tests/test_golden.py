"""CLI outputs on the bundled configs against saved reference outputs.

tests/data/<config>/ holds metrics.csv and powers.csv from

    rispilot sweep --config configs/<config>.yaml --trials 200 \
        --allocators uniform,exact

the stdout of `rispilot allocate --config configs/<config>.yaml` as
allocate.txt, and validation_report.yaml from

    rispilot validate --config configs/<config>.yaml --trials 2000

A refactor that keeps the draws must reproduce them: powers.csv,
allocate.txt and validation_report.yaml byte for byte, metrics.csv
exactly except closed_form_gain, whose summation order may move it by a
few ulp. A change that alters the draws regenerates them with the same
commands.
"""
import csv
import pathlib

import pytest

from rispilot.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
CONFIGS = ["two_ris_symmetric", "two_ris_asymmetric"]
# relative tolerance on closed_form_gain, a few ulp
CLOSED_FORM_RTOL = 2e-15


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _config(name):
    return str(TESTS.parent / "configs" / f"{name}.yaml")


@pytest.mark.parametrize("config", CONFIGS)
def test_sweep_matches_reference_outputs(tmp_path, config):
    out = tmp_path / config
    rc = main([
        "sweep", "--config", _config(config),
        "--trials", "200", "--allocators", "uniform,exact", "--out", str(out),
    ])
    assert rc == 0
    reference = TESTS / "data" / config
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


@pytest.mark.parametrize("config", CONFIGS)
def test_allocate_matches_reference_output(capsys, config):
    assert main(["allocate", "--config", _config(config)]) == 0
    expected = (TESTS / "data" / config / "allocate.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("config", CONFIGS)
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
    for command in ("allocate", "validate", "sweep"):
        assert main([command, "--config", path, *flag, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag[0]}"), command
    assert not (tmp_path / "x").exists()
