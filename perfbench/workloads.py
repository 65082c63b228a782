"""The benchmark's three workloads: inputs, command lines and output checks.

Nothing here imports rispilot, so the orchestrator can prepare inputs
without loading the program. Every input is a function of the workload
seed; the program only ever sees the generated configs and CLI flags.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYM_CONFIG = os.path.join(ROOT, "configs", "two_ris_symmetric.yaml")
ASYM_CONFIG = os.path.join(ROOT, "configs", "two_ris_asymmetric.yaml")

NAMES = ("sweep-sym", "validate-wide", "alloc-scale")

# Monte Carlo trials per command, and allocate problems per run. "full" is
# what the benchmark measures; "tiny" only exercises the code paths, for
# the smoke test.
SIZES = {
    "full": {"sweep-sym": 250, "validate-wide": 4000, "alloc-scale": 450},
    "tiny": {"sweep-sym": 20, "validate-wide": 200, "alloc-scale": 6},
}

SWEEP_ROWS = 18  # 9 positions on the bundled d_range, times uniform and exact
WIDE_COUNTS = [1024, 256]
VALIDATE_HIERARCHY_CAP = 20_000  # validate draws min(trials, cap) per CSI mode

ALLOC_KS = (2, 8, 64)
ALLOC_P_AVG_DBM = 14.0
ALLOC_BETA_SQ_LOG10 = (-12.0, -8.0)
ALLOC_M_RANGE = (8, 256)
BUDGET_RTOL = 1e-9
# allocate prints phi with 7 significant digits, so two printed values
# can differ by up to one part in 1e6 from rounding alone
PHI_PRINT_RTOL = 1e-6

CLOSED_FORMS = ("uniform", "eq27", "eq28", "eq29")


class CheckFailed(Exception):
    """A command's output is wrong: the benchmark result is not correct."""


def derived_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def make(name: str, seed: int, workdir: str, size: str = "full"):
    if name == "sweep-sym":
        return SweepSym(seed, workdir, SIZES[size][name])
    if name == "validate-wide":
        return ValidateWide(seed, workdir, SIZES[size][name])
    if name == "alloc-scale":
        return AllocScale(seed, workdir, SIZES[size][name])
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(NAMES)}")


class SweepSym:
    """`rispilot sweep` on the bundled symmetric config, one worker.

    Every command in a run is the same command, so each one's CSVs must
    match the first one's byte for byte.
    """

    op = "trial"
    counted = "rows"
    cpus = 1
    count = 1
    min_commands = 2

    def __init__(self, seed: int, workdir: str, trials: int):
        self.trials = trials
        self.mc_seed = derived_seed("sweep-sym", seed)
        self.out = os.path.join(workdir, "out")
        self.reference = None

    def prepare(self):
        pass

    def argv(self, i: int) -> list[str]:
        return [
            "sweep", "--config", SYM_CONFIG, "--trials", str(self.trials),
            "--seed", str(self.mc_seed), "--workers", "1", "--out", self.out,
        ]

    def ops(self, i: int) -> int:
        return self.trials * SWEEP_ROWS

    def check(self, i: int, rc, stdout: str, stderr: str) -> tuple[int, int]:
        if rc != 0:
            raise CheckFailed(f"sweep exited {rc}: {stderr.strip()[-500:]}")
        metrics, powers = (
            _read_bytes(os.path.join(self.out, f)) for f in ("metrics.csv", "powers.csv")
        )
        check_sweep_rows(metrics)
        if self.reference is None:
            self.reference = (metrics, powers)
        elif (metrics, powers) != self.reference:
            raise CheckFailed(f"command {i}: CSVs differ from the first run with the same seed")
        return SWEEP_ROWS, 0


def check_sweep_rows(metrics_csv: bytes):
    rows = list(csv.DictReader(io.StringIO(metrics_csv.decode("utf-8"))))
    if len(rows) != SWEEP_ROWS:
        raise CheckFailed(f"metrics.csv has {len(rows)} rows, expected {SWEEP_ROWS}")
    for r in rows:
        try:
            mean, se, closed = (float(r[k]) for k in ("mean_gain", "se_gain", "closed_form_gain"))
        except (KeyError, TypeError, ValueError):
            raise CheckFailed(f"malformed metrics.csv row {r}") from None
        if not (math.isfinite(mean) and se > 0.0 and abs(mean - closed) <= 4.0 * se):
            raise CheckFailed(
                f"row d={r.get('d_m')} {r.get('allocator')}: mean_gain {mean!r} is not "
                f"within 4 se ({se!r}) of closed_form_gain {closed!r}"
            )


class ValidateWide:
    """`rispilot validate` on the asymmetric layout widened to [1024, 256]."""

    op = "trial"
    counted = "checks"
    count = 1
    min_commands = 2

    def __init__(self, seed: int, workdir: str, trials: int):
        self.trials = trials
        self.cpus = pool_workers()
        self.mc_seed = derived_seed("validate-wide", seed)
        self.config = os.path.join(workdir, "validate-wide.yaml")
        self.out = os.path.join(workdir, "out")
        self.reference = None

    def prepare(self):
        with open(ASYM_CONFIG, encoding="utf-8") as f:
            cfg = yaml.safe_load(f)
        cfg["scenario"]["element_counts"] = list(WIDE_COUNTS)
        _write_yaml(self.config, cfg)

    def argv(self, i: int) -> list[str]:
        return [
            "validate", "--config", self.config, "--trials", str(self.trials),
            "--seed", str(self.mc_seed), "--workers", str(pool_workers()), "--out", self.out,
        ]

    def ops(self, i: int) -> int:
        # the ergodic-gain check, then one run per CSI mode for the hierarchy checks
        return self.trials + 3 * min(self.trials, VALIDATE_HIERARCHY_CAP)

    def check(self, i: int, rc, stdout: str, stderr: str) -> tuple[int, int]:
        report_bytes = _read_bytes(os.path.join(self.out, "validation_report.yaml"))
        checks = check_validation_report(report_bytes)  # a failed check is a wrong result
        if rc != 0:
            raise CheckFailed(f"validate exited {rc}: {stderr.strip()[-500:]}")
        if self.reference is None:
            self.reference = report_bytes
        elif report_bytes != self.reference:
            raise CheckFailed(f"command {i}: report differs from the first run with the same seed")
        return len(checks), 0


def check_validation_report(report_bytes: bytes) -> list[dict]:
    report = yaml.safe_load(report_bytes)
    try:
        checks = report["checks"]
        summary = report["summary"]
    except (KeyError, TypeError):
        raise CheckFailed("validation_report.yaml lacks checks or summary") from None
    if not checks:
        raise CheckFailed("validation_report.yaml lists no checks")
    failed = [c.get("name") for c in checks if c.get("status") == "fail"]
    if failed or summary.get("fail") != 0:
        raise CheckFailed(f"validation reports failed checks: {failed or summary}")
    return checks


class AllocScale:
    """`rispilot allocate` with its default allocators, one problem per command.

    A run's problems are a fixed set made from the seed, cycling through
    K = 2, 8, 64 surfaces. The run solves the whole set once, then again
    from the start until its time is up; a repeat must print exactly what
    the first solve printed. A command may exit 3 ("numerical failure"):
    that is the known `exact` solver defect, counted as a failed operation
    on the first pass, never hidden.
    """

    op = "command"
    counted = "commands"
    cpus = 1
    out = None

    def __init__(self, seed: int, workdir: str, count: int):
        self.seed = seed
        self.count = self.min_commands = count
        self.dir = os.path.join(workdir, "problems")
        self.problems = {}
        self.first = {}

    def prepare(self):
        os.makedirs(self.dir, exist_ok=True)

    def problem(self, i: int) -> dict:
        if i not in self.problems:
            rng = random.Random(derived_seed("alloc-scale", self.seed) + i)
            k = ALLOC_KS[i % len(ALLOC_KS)]
            lo, hi = ALLOC_BETA_SQ_LOG10
            counts = [rng.randint(*ALLOC_M_RANGE) for _ in range(k)]
            beta_sq = [10.0 ** rng.uniform(lo, hi) for _ in range(k)]
            cfg = {
                "scenario": {
                    "element_counts": counts,
                    "p_avg": f"{ALLOC_P_AVG_DBM:g} dBm",
                    "q": "40 dBm",
                    "sigma_z": "-110 dBm",
                    "sigma_n": "-90 dBm",
                    "channel": {"beta_sq": beta_sq},
                },
            }
            path = os.path.join(self.dir, f"problem-{i}.yaml")
            _write_yaml(path, cfg)
            self.problems[i] = {"k": k, "counts": counts, "path": path}
        return self.problems[i]

    def argv(self, i: int) -> list[str]:
        return ["allocate", "--config", self.problem(i)["path"]]

    def ops(self, i: int) -> int:
        return 1

    def k(self, i: int) -> int:
        return self.problem(i)["k"]

    def check(self, i: int, rc, stdout: str, stderr: str) -> tuple[int, int]:
        if i in self.first:
            if (rc, stdout) != self.first[i]:
                raise CheckFailed(f"problem {i}: a repeat printed other results than the first solve")
        else:
            check_allocate_output(rc, stdout, stderr, self.problem(i)["counts"])
            self.first[i] = (rc, stdout)
        return 1, int(rc == 3)


def check_allocate_output(rc, stdout: str, stderr: str, counts: list[int]):
    if "Traceback" in stderr:
        raise CheckFailed(f"allocate printed a traceback: {stderr.strip()[-500:]}")
    if rc == 3:
        if "numerical failure" not in stderr:
            raise CheckFailed(f"allocate exited 3 without 'numerical failure': {stderr!r}")
        return
    if rc != 0:
        raise CheckFailed(f"allocate exited {rc}: {stderr.strip()[-500:]}")
    powers, phi = {}, {}
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) != 6:
            raise CheckFailed(f"malformed allocate row {line!r}")
        try:
            name, ris, p_w, phi_v = fields[0], int(fields[1]), float(fields[2]), float(fields[4])
        except ValueError:
            raise CheckFailed(f"malformed allocate row {line!r}") from None
        powers.setdefault(name, {})[ris] = p_w
        phi[name] = phi_v
    if "exact" not in powers:
        raise CheckFailed("allocate printed no 'exact' rows")
    budget = sum(counts) * 10.0 ** ((ALLOC_P_AVG_DBM - 30.0) / 10.0)
    for name, per_ris in powers.items():
        if sorted(per_ris) != list(range(len(counts))):
            raise CheckFailed(
                f"{name}: powers for surfaces {sorted(per_ris)}, expected {len(counts)}"
            )
        spent = math.fsum(m * per_ris[k] for k, m in enumerate(counts))
        if not abs(spent - budget) <= BUDGET_RTOL * budget:
            raise CheckFailed(f"{name}: spends {spent!r} W, budget is {budget!r} W")
    for name in CLOSED_FORMS:
        if name in phi and phi["exact"] < phi[name] * (1.0 - PHI_PRINT_RTOL):
            raise CheckFailed(f"exact phi {phi['exact']!r} is below {name} phi {phi[name]!r}")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise CheckFailed(f"missing output: {exc}") from None


def _write_yaml(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(payload, f, sort_keys=False)
