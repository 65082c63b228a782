"""Sweep CSVs on the bundled configs against saved reference outputs.

tests/data/<config>/ holds metrics.csv and powers.csv from

    rispilot sweep --config configs/<config>.yaml --trials 200 \
        --allocators uniform,exact

A refactor that keeps the draws must reproduce them: powers.csv byte for
byte, metrics.csv exactly except closed_form_gain, whose summation order
may move it by a few ulp. A change that alters the draws regenerates them
with the same command.
"""
import csv
import pathlib

import pytest

from rispilot.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
# relative tolerance on closed_form_gain, a few ulp
CLOSED_FORM_RTOL = 2e-15


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("config", ["two_ris_symmetric", "two_ris_asymmetric"])
def test_sweep_matches_reference_outputs(tmp_path, config):
    out = tmp_path / config
    rc = main([
        "sweep", "--config", str(TESTS.parent / "configs" / f"{config}.yaml"),
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
