"""The committed benchmark records (BENCH_*.json at the repository root).

Each record holds, for every workload BENCHMARK.json declares, the
parent's and the change's median, quartiles and sample count of every
end-to-end metric, with the facts of the host that measured them.
"""
import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
HOST_FACTS = ("nproc", "cpu_model", "python", "numpy")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_every_workload_and_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for fact in HOST_FACTS:
        assert record["host"].get(fact), fact
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload, sides in record["workloads"].items():
        for side in ("parent", "change"):
            metrics = sides[side]["metrics"]
            for metric in BENCHMARK["end_to_end"]:
                summary = metrics[metric["name"]]
                where = (workload, side, metric["name"])
                assert summary["unit"] == metric["unit"], where
                assert isinstance(summary["n"], int) and summary["n"] >= 1, where
                q1, median, q3 = summary["q1"], summary["median"], summary["q3"]
                assert all(math.isfinite(v) for v in (q1, median, q3)), where
                assert q1 <= median <= q3, where
