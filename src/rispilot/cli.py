"""YAML-driven command line: allocation tables, check reports, sweep CSVs.

Config files are YAML. Every power is a string with an explicit unit
("-13 dBm", "0.2 W", "5 mW") and the path-loss reference is a "dB"
string; bare numbers for those fields are rejected so units can never
be silently wrong. Exit codes: 0 success, 1 validation check failed,
2 config error, 3 numerical failure or out of memory, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
import time
import warnings
from collections import namedtuple
from datetime import datetime, timezone

import numpy as np
import yaml

from . import __version__
from .allocation import (
    ALLOCATOR_IDS,
    NonConvergenceError,
    UniformFallbackWarning,
    allocate_average,
    multiplier_spread,
    resolve_allocator,
    run_allocator,
)
from .analysis import (
    ModelAssumptionWarning,
    alignment_mean,
    ergodic_gain_closed_form,
    model_applies,
    objective_phi,
    stationarity_residual,
)
from .channel import PURPOSE_RIS_USER, unit_normals
from .estimation import PerRisPowers
from .montecarlo import CSI_MODES, GainRow, TrialConfig, sweep_user, trial_gains
from .scenario import Link, cascaded_large_scale, dbm_to_watts, watts_to_dbm

METRICS_CSV = "metrics.csv"
POWERS_CSV = "powers.csv"
MANIFEST_FILE = "run_manifest.yaml"
REPORT_FILE = "validation_report.yaml"

_PowerRow = namedtuple("_PowerRow", ["d_m", "allocator", "powers_w"])
# rispilot's own warnings: main prints each distinct message once, and
# manifests list them
_OWN_WARNINGS = (ModelAssumptionWarning, UniformFallbackWarning)

# validate runs its perfect and random-phase rows on at most this many trials
_HIERARCHY_TRIALS = 20_000
# a sweep's d_range expands to at most this many offsets; the bundled configs use 9
_MAX_OFFSETS = 10_000


class ConfigError(ValueError):
    """A config field is missing, malformed, or inconsistent."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str):
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(
            f"{path}.{extra[0]}" if path else str(extra[0]),
            f"unknown field (known fields: {', '.join(sorted(allowed))})",
        )


def _get(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


# a YAML 1.2 decimal float; PyYAML's YAML 1.1 resolver leaves one without a
# dot, such as 1e-10, a string
_DECIMAL_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


def _float_value(value, path: str, *, positive=False, nonneg=False, inf_ok=False) -> float:
    if isinstance(value, str) and _DECIMAL_FLOAT.fullmatch(value):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
    if math.isnan(x):
        raise ConfigError(path, "must not be NaN")
    if math.isinf(x) and not inf_ok:
        raise ConfigError(path, f"must be finite, got {x}")
    if positive and x <= 0.0:
        raise ConfigError(path, f"must be positive, got {x}")
    if nonneg and x < 0.0:
        raise ConfigError(path, f"must be nonnegative, got {x}")
    return x


def _power_watts(value, path: str, *, nonneg_ok=False) -> float:
    """Parse a power string with a mandatory unit suffix into watts."""
    if isinstance(value, (int, float)):
        raise ConfigError(path, "power needs an explicit unit suffix: 'dBm', 'W', or 'mW'")
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a power string, got {type(value).__name__}")
    text = value.strip()
    for suffix, scale in (("dBm", None), ("mW", 1e-3), ("W", 1.0)):
        if text.endswith(suffix):
            body = text[: -len(suffix)].strip()
            try:
                x = float(body)
            except ValueError:
                raise ConfigError(path, f"cannot parse power value {value!r}") from None
            if not math.isfinite(x):
                raise ConfigError(path, f"power must be finite, got {value!r}")
            try:
                watts = dbm_to_watts(x) if scale is None else x * scale
            except OverflowError:
                raise ConfigError(path, f"power out of range, got {value!r}") from None
            if watts < 0.0 or (watts == 0.0 and not nonneg_ok):
                raise ConfigError(path, f"power must be positive, got {value!r}")
            return watts
    raise ConfigError(path, f"missing unit suffix on {value!r}: use 'dBm', 'W', or 'mW'")


def _db_value(value, path: str) -> float:
    if isinstance(value, (int, float)):
        raise ConfigError(path, "needs an explicit 'dB' suffix")
    if not isinstance(value, str) or not value.strip().endswith("dB") or value.strip().endswith("dBm"):
        raise ConfigError(path, f"expected a 'dB' string, got {value!r}")
    body = value.strip()[:-2].strip()
    try:
        x = float(body)
    except ValueError:
        raise ConfigError(path, f"cannot parse dB value {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(path, f"dB value must be finite, got {value!r}")
    return x


def _element_counts(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list of element counts")
    counts = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            raise ConfigError(f"{path}[{i}]", f"element count must be a positive integer, got {item!r}")
        counts.append(item)
    return counts


@dataclasses.dataclass(frozen=True)
class ScenarioSettings:
    """Resolved scenario description, all powers in watts."""

    element_counts: tuple[int, ...]
    p_avg_w: float
    q_w: float
    sigma_z_sq_w: float
    sigma_n_sq_w: float
    geometry: dict | None = None  # d0, d_v, d_h, d_u, user_y, c0_db, alphas, rician
    beta_sq: tuple[float, ...] | None = None

    def _link(self, beta_sq, k_br=math.inf, k_ru=0.0) -> Link:
        return Link(
            counts=self.element_counts, beta_sq=beta_sq,
            sigma_z_sq=self.sigma_z_sq_w, sigma_n_sq=self.sigma_n_sq_w,
            q=self.q_w, p_avg=self.p_avg_w, k_br=k_br, k_ru=k_ru,
        )

    def link_at(self, d: float) -> Link:
        """The geometric layout's link with the user at offset d."""
        if self.geometry is None:
            raise ConfigError("scenario.geometry", "user sweeps need a geometric layout")
        g = self.geometry
        beta_sq = cascaded_large_scale(
            g["d0"], d, d_v=g["d_v"], d_h=g["d_h"], d_u=g["d_u"],
            c0_db=g["c0_db"], alpha_br=g["alpha_br"], alpha_ru=g["alpha_ru"],
        )
        return self._link(beta_sq, g["k_br"], g["k_ru"])

    def fixed_link(self) -> Link:
        """The link at the configured user position, or the configured channel."""
        if self.geometry is not None:
            return self.link_at(self.geometry["user_y"])
        return self._link(self.beta_sq)

    def as_dict(self) -> dict:
        out = {
            "element_counts": list(self.element_counts),
            "p_avg_w": self.p_avg_w,
            "q_w": self.q_w,
            "sigma_z_sq_w": self.sigma_z_sq_w,
            "sigma_n_sq_w": self.sigma_n_sq_w,
        }
        if self.geometry is not None:
            out["geometry"] = dict(self.geometry)
        else:
            out["beta_sq"] = list(self.beta_sq)
        return out

    @classmethod
    def from_dict(cls, raw) -> "ScenarioSettings":
        """Rebuild a geometric layout from as_dict output (manifest replay path)."""
        path = "scenario"
        block = _require_mapping(raw, path)
        counts = _element_counts(_get(block, "element_counts", path), f"{path}.element_counts")
        if len(counts) != 2:
            raise ConfigError(f"{path}.element_counts", f"expected two counts, got {len(counts)}")

        def number(key, **sign):
            return _float_value(_get(block, key, path), f"{path}.{key}", **sign)

        return cls(
            element_counts=tuple(counts),
            p_avg_w=number("p_avg_w", positive=True),
            q_w=number("q_w", positive=True),
            sigma_z_sq_w=number("sigma_z_sq_w", nonneg=True),
            sigma_n_sq_w=number("sigma_n_sq_w", positive=True),
            geometry=_geometry(_get(block, "geometry", path), f"{path}.geometry", config=False),
        )


_POSITIVE, _K_FACTOR = {"positive": True}, {"nonneg": True, "inf_ok": True}
# geometry fields as a manifest stores them: (config default, sign). A config
# must give the fields without a default, and gives c0_db as a "dB" string, c0.
_GEOMETRY = {
    "d0": (None, _POSITIVE), "d_v": (10.0, _POSITIVE), "d_h": (10.0, _POSITIVE),
    "d_u": (2.0, _POSITIVE), "user_y": (0.0, {}), "c0_db": (None, {}),
    "alpha_br": (None, _POSITIVE), "alpha_ru": (None, _POSITIVE),
    "k_br": (math.inf, _K_FACTOR), "k_ru": (0.0, _K_FACTOR),
}


def _geometry(raw, path: str, *, config: bool) -> dict:
    """Check a config's geometry block, or the geometry a manifest stored."""
    g = _require_mapping(raw, path)
    names = {key: "c0" if config and key == "c0_db" else key for key in _GEOMETRY}
    if config:
        _reject_unknown(g, names.values(), path)
    out = {}
    for key, (default, sign) in _GEOMETRY.items():
        name, where = names[key], f"{path}.{names[key]}"
        value = _get(g, name, path) if default is None or not config else g.get(name, default)
        out[key] = _db_value(value, where) if name == "c0" else _float_value(value, where, **sign)
    if out["d_u"] >= out["d0"]:
        raise ConfigError(f"{path}.d_u", f"must be below d0 = {out['d0']:g}, got {out['d_u']:g}")
    return out


_SCENARIO_KEYS = {"element_counts", "p_avg", "q", "sigma_z", "sigma_n", "geometry", "channel"}
# the run settings each command takes and their defaults (None: no default);
# a config's run block overrides a default and a flag overrides both. The
# allocator lists are sorted, as _resolve_allocators returns them.
_SETTINGS = {
    "allocate": {"allocators": tuple(sorted(ALLOCATOR_IDS))},
    "validate": {"seed": 0, "trials": 100_000, "workers": 1},
    "sweep": {"seed": 0, "trials": 1000, "csi_mode": "estimated",
              "allocators": ("exact", "uniform"), "workers": 1, "d_range": None},
}
# one config serves every command, so its run block may give any setting
_RUN_KEYS = set().union(*_SETTINGS.values())


def _parse_scenario(raw: dict) -> ScenarioSettings:
    block = _require_mapping(_get(raw, "scenario", ""), "scenario")
    _reject_unknown(block, _SCENARIO_KEYS, "scenario")
    counts = _element_counts(_get(block, "element_counts", "scenario"), "scenario.element_counts")
    p_avg = _power_watts(_get(block, "p_avg", "scenario"), "scenario.p_avg")
    q = _power_watts(_get(block, "q", "scenario"), "scenario.q")
    sigma_z = _power_watts(_get(block, "sigma_z", "scenario"), "scenario.sigma_z", nonneg_ok=True)
    sigma_n = _power_watts(_get(block, "sigma_n", "scenario"), "scenario.sigma_n")

    has_geometry = "geometry" in block
    has_channel = "channel" in block
    if has_geometry == has_channel:
        raise ConfigError("scenario", "exactly one of 'geometry' and 'channel' must be present")

    if has_geometry:
        if len(counts) != 2:
            raise ConfigError(
                "scenario.element_counts",
                f"the geometric layout places exactly two surfaces, got {len(counts)} counts",
            )
        return ScenarioSettings(
            element_counts=tuple(counts), p_avg_w=p_avg, q_w=q,
            sigma_z_sq_w=sigma_z, sigma_n_sq_w=sigma_n,
            geometry=_geometry(block["geometry"], "scenario.geometry", config=True),
        )

    ch = _require_mapping(block["channel"], "scenario.channel")
    _reject_unknown(ch, {"beta_sq"}, "scenario.channel")
    raw_beta = _get(ch, "beta_sq", "scenario.channel")
    if not isinstance(raw_beta, list) or not raw_beta:
        raise ConfigError("scenario.channel.beta_sq", "expected a nonempty list")
    beta_sq = [
        _float_value(b, f"scenario.channel.beta_sq[{i}]", positive=True)
        for i, b in enumerate(raw_beta)
    ]
    if len(beta_sq) != len(counts):
        raise ConfigError(
            "scenario.channel.beta_sq",
            f"{len(beta_sq)} gains for {len(counts)} element counts",
        )
    return ScenarioSettings(
        element_counts=tuple(counts), p_avg_w=p_avg, q_w=q,
        sigma_z_sq_w=sigma_z, sigma_n_sq_w=sigma_n, beta_sq=tuple(beta_sq),
    )


_INT_FIELDS = {
    "seed": (0, 2**64, "an integer in [0, 2^64)"),
    "trials": (1, math.inf, "a positive integer"),
    "workers": (1, math.inf, "a positive integer"),
}


def _run_fields(block: dict, prefix: str) -> dict:
    """Check the run settings present in the flags (prefix "--"), a config's
    run block (prefix "run.") or a manifest (no prefix).

    A manifest stores the user offsets a sweep's d_range expanded to as
    d_values; either way they come back as the list under d_range.
    """
    def where(key):
        return prefix + (key.replace("_", "-") if prefix == "--" else key)

    out = {}
    for key, (low, high, what) in _INT_FIELDS.items():
        value = block.get(key)
        if key in block:
            if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
                raise ConfigError(where(key), f"{key} must be {what}, got {value!r}")
            out[key] = value
    if "csi_mode" in block:
        out["csi_mode"] = _mode_value(block["csi_mode"], where("csi_mode"), CSI_MODES)
    if "allocators" in block:
        names = block["allocators"]
        if isinstance(names, str):
            names = [t for t in names.split(",") if t]
        if not isinstance(names, list) or not names:
            raise ConfigError(where("allocators"), "expected a nonempty list of allocator names")
        out["allocators"] = _resolve_allocators(names, where("allocators"))
    if "d_range" in block:
        out["d_range"] = _parse_d_range(str(block["d_range"]), where("d_range"))
    if "d_values" in block:
        d_values = block["d_values"]
        if not isinstance(d_values, list) or not d_values:
            raise ConfigError(where("d_values"), "expected a nonempty list of user offsets")
        out["d_range"] = [_float_value(d, f"d_values[{i}]") for i, d in enumerate(d_values)]
    return out


def _mode_value(value, path: str, choices) -> str:
    if value not in choices:
        raise ConfigError(path, f"expected one of {', '.join(choices)}; got {value!r}")
    return value


def _resolve_allocators(names, path: str) -> list[str]:
    resolved = []
    for i, name in enumerate(names):
        try:
            canonical = resolve_allocator(str(name).strip())
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc)) from None
        if canonical not in resolved:
            resolved.append(canonical)
    return sorted(resolved)


def _parse_d_range(text: str, path: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(path, f"expected 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(path, f"expected 'start:stop:step', got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(path, f"start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise ConfigError(path, f"step must be positive, got {step}")
    if stop < start:
        raise ConfigError(path, f"empty range: start {start} exceeds stop {stop}")
    # checked before the list is built; a count that overflowed to inf fails too
    count = (stop - start) / step + 1e-9
    if not count < _MAX_OFFSETS:
        raise ConfigError(path, f"the range {text!r} holds more than {_MAX_OFFSETS} offsets")
    n = int(math.floor(count)) + 1
    return [start + i * step for i in range(n)]


# libyaml parses and emits the same documents several times faster, where
# PyYAML has it; the emitted bytes are the same
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def _load_yaml(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return yaml.load(f, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(path, f"not valid YAML: {exc}") from None


def load_config(path: str) -> dict:
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level of the config must be a mapping")
    _reject_unknown(raw, {"scenario", "run"}, "")
    return raw


# ---------------------------------------------------------------- output


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_metrics_csv(path: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("d_m,allocator,mean_gain,se_gain,mean_rate_bps_hz,se_rate,closed_form_gain\n")
        for r in rows:
            f.write(
                ",".join(
                    (
                        _fmt(r.d_m), r.allocator, _fmt(r.mean_gain), _fmt(r.se_gain),
                        _fmt(r.mean_rate), _fmt(r.se_rate), _fmt(r.closed_form_gain),
                    )
                )
                + "\n"
            )


def _write_powers_csv(path: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("d_m,allocator,ris_index,pilot_power_w,pilot_power_dbm\n")
        for r in rows:
            for k, p in enumerate(r.powers_w):
                f.write(
                    ",".join(
                        (_fmt(r.d_m), r.allocator, str(k), _fmt(p), _fmt(watts_to_dbm(p)))
                    )
                    + "\n"
                )


def _write_yaml(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        yaml.dump(payload, f, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)


def _host() -> dict:
    """Facts about the interpreter and machine a run used.

    Not platform.platform(): it starts a `uname -p` subprocess, whose
    peak memory counts as the run's.
    """
    import platform  # only commands that write a manifest load it

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_count": os.cpu_count(),
    }


def _own_messages(caught) -> list[str]:
    """Distinct messages of rispilot's own warnings among caught, in order."""
    own = (str(w.message) for w in caught if issubclass(w.category, _OWN_WARNINGS))
    return list(dict.fromkeys(own))


def _stored_as(key: str) -> str:
    """A run setting's manifest field: the offsets d_range expanded to are d_values."""
    return "d_values" if key == "d_range" else key


def _manifest(command: str, scn: ScenarioSettings, run: dict, caught, *,
              duration_s=None, trial_rows=0) -> dict:
    """Run record of the command's run settings; trial_rows counts every
    (trial, row) pair the run evaluated, and caught holds the warnings
    raised so far (see main)."""
    out = {
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": scn.as_dict(),
    }
    for key in _SETTINGS[command]:
        out[_stored_as(key)] = run[key]
    if duration_s is not None:
        out["duration_s"] = round(duration_s, 3)
        out["trials_per_s"] = round(trial_rows / duration_s, 1) if duration_s > 0 else None
    out["warnings"] = _own_messages(caught)
    out["host"] = _host()
    return out


# ---------------------------------------------------------------- commands


def _config_run(args, flags: dict) -> tuple[ScenarioSettings, dict]:
    """A config's scenario and the command's run settings, the run block and
    flags merged over its defaults."""
    raw = load_config(args.config)
    scn = _parse_scenario(raw)
    block = raw.get("run")
    block = _require_mapping({} if block is None else block, "run")
    _reject_unknown(block, _RUN_KEYS, "run")
    given = {**_run_fields(block, "run."), **flags}
    return scn, {key: given.get(key, default) for key, default in _SETTINGS[args.command].items()}


def cmd_allocate(args, flags: dict) -> int:
    scn, run = _config_run(args, flags)
    names = run["allocators"]
    link = scn.fixed_link()
    # outside the closed form's model the gain column reads nan, as in sweep
    in_model = model_applies(link)

    header = f"{'allocator':<10} {'ris':>3} {'power_w':>24} {'power_dbm':>12} {'phi':>14} {'gain':>14}"
    lines = [header]
    rows = []
    for name in names:
        powers = run_allocator(name, link)
        phi = objective_phi(link, powers)
        gain = ergodic_gain_closed_form(link, powers).total if in_model else math.nan
        rows.append((name, powers, phi, gain))
        # name, phi and gain are formatted once; p_k as Python floats formats faster
        head, tail = f"{name:<10} ", f" {phi:>14.6e} {gain:>14.6e}"
        lines.extend(
            f"{head}{k:>3} {p:>24.17g} {watts_to_dbm(p):>12.4f}{tail}"
            for k, p in enumerate(powers.p_k.tolist())
        )
    print("\n".join(lines))

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        power_rows = [
            _PowerRow(0.0, name, tuple(float(p) for p in powers.p_k))
            for name, powers, _, _ in rows
        ]
        _write_powers_csv(os.path.join(args.out, POWERS_CSV), power_rows)
        manifest = _manifest("allocate", scn, {"allocators": names}, args.caught)
        _write_yaml(os.path.join(args.out, MANIFEST_FILE), manifest)
        print(f"wrote {os.path.join(args.out, POWERS_CSV)}")
    return 0


def _check(name, observed, expected, tol=0.0, margin=0.0, *, ok=None, detail="") -> dict:
    """One report record. Without ok, it passes within tol of expected, and is
    inconclusive where the noise margin exceeds tol. An infinite margin, a
    statistic of fewer than two samples, is inconclusive even with ok."""
    if math.isinf(margin) or (ok is None and margin > tol):
        status = "inconclusive"
    elif ok is not None:
        status = "pass" if ok else "fail"
    else:
        status = "pass" if abs(observed - expected) <= tol else "fail"
    return {
        "name": name, "status": status, "observed": float(observed),
        "expected": float(expected), "tolerance": float(tol),
        "noise_margin": float(margin), "detail": detail,
    }


def _se(x: np.ndarray) -> float:
    """Standard error of the mean; unknown (inf) below two samples."""
    return float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.inf


def _validation_checks(link: Link, trials: int, seed: int, workers: int,
                       off_centre: Link | None) -> list[dict]:
    checks = []
    counts = link.counts
    countsf = counts.astype(np.float64)
    uniform = allocate_average(link)

    # per-surface aligned-coefficient mean, against the closed form; trial
    # 2^63 + k's user-hop draws give h, then the estimation noise
    for k in range(link.num_ris):
        b2 = float(link.beta_sq[k])
        d2 = link.sigma_z_sq / link.p_avg
        z = unit_normals(seed, 2**63 + k, 2**63 + k + 1, PURPOSE_RIS_USER, 2 * trials)[0]
        h = math.sqrt(b2) * z[:trials]
        est = h + math.sqrt(d2) * z[trials:]
        stat = (h * np.conj(est) / np.abs(est)).real
        expected = alignment_mean(b2, d2)
        checks.append(
            _check(f"alignment-mean[{k}]", float(np.mean(stat)), expected,
                   0.02 * expected, 4.0 * _se(stat))
        )

    # one run for the ergodic-gain check and the hierarchy checks below:
    # the estimated row over every trial, the other CSI modes over the
    # first n_h, all on the same draws
    n_h = min(trials, _HIERARCHY_TRIALS)
    gains = dict(zip(
        ("estimated", "perfect", "random-phase"),
        trial_gains(
            [GainRow(link, uniform)]
            + [GainRow(link, uniform, mode, n_h) for mode in ("perfect", "random-phase")],
            cfg=TrialConfig(trials=trials, seed=seed), workers=workers,
        ),
    ))

    # closed-form ergodic gain against the simulated pipeline
    mean, se = float(np.mean(gains["estimated"])), _se(gains["estimated"])
    closed = ergodic_gain_closed_form(link, uniform).total
    check = _check("ergodic-gain", mean, closed, 0.02 * closed, 4.0 * se)
    if not model_applies(link):
        check["status"] = "not-applicable"
        check["detail"] = (
            f"closed form assumes k_br = inf and k_ru = 0; "
            f"this scenario has k_br = {link.k_br:g}, k_ru = {link.k_ru:g}"
        )
    checks.append(check)

    # perfect-estimation limit of the closed form: noiseless training
    limit = ergodic_gain_closed_form(dataclasses.replace(link, sigma_z_sq=0.0), uniform).total
    m_beta = float(np.dot(countsf, link.beta))
    m_beta_sq = float(np.dot(countsf, link.beta_sq))
    ideal = m_beta_sq + 0.25 * math.pi * (m_beta**2 - m_beta_sq)
    checks.append(
        _check("perfect-csi-limit", limit, ideal, ok=abs(limit - ideal) <= 1e-9 * ideal)
    )

    # every allocator must spend exactly the budget; `exact` solves the
    # off-centre problem of the check below in the same call, and a
    # configured problem it cannot certify is a numerical failure
    budget = float(int(counts.sum()) * link.p_avg)
    exact = run_allocator("exact", link, [] if off_centre is None else [off_centre])
    allocator_powers = {}
    for name in ALLOCATOR_IDS:
        if name == "exact":
            powers = PerRisPowers(p_k=exact.row(0))
        else:
            powers = run_allocator(name, link)
        allocator_powers[name] = powers
        spent = float(np.dot(countsf, powers.p_k))
        checks.append(
            _check(f"budget[{name}]", spent, budget, ok=abs(spent - budget) <= 1e-9 * budget)
        )

    # the numeric solution equalizes the budget multiplier
    if link.sigma_z_sq > 0.0:
        spread = _spread(link, allocator_powers["exact"].p_k)
        checks.append(_check("solver-stationarity", spread, 0.0, ok=spread < 1e-6))

    # where the surfaces differ in strength uniform power is not stationary,
    # so this check fails if the solver stops at its starting point
    if off_centre is not None and off_centre.sigma_z_sq > 0.0:
        checks.append(_off_centre_check(off_centre, exact))

    # more channel knowledge can only help, trial by trial
    for name, top, bottom in (
        ("hierarchy-perfect-vs-estimated", "perfect", "estimated"),
        ("hierarchy-estimated-vs-random", "estimated", "random-phase"),
    ):
        diff = gains[top][:n_h] - gains[bottom][:n_h]
        mean, se = float(np.mean(diff)), _se(diff)
        checks.append(_check(name, mean, 0.0, 3.0 * se, 3.0 * se, ok=mean >= -3.0 * se,
                             detail="paired mean difference"))
    return checks


def _spread(link: Link, p_k) -> float:
    """The multiplier spread of pilot powers p_k on link."""
    # at extreme powers the residual's rate term overflows to inf, harmlessly
    with np.errstate(over="ignore"):
        return multiplier_spread(stationarity_residual(link, p_k))


def _off_centre_check(link: Link, exact) -> dict:
    """The stationarity of `exact` at the off-centre position, row 1 of exact."""
    name = "solver-stationarity[off-centre]"
    detail = f"uniform spread {_spread(link, np.full(link.num_ris, link.p_avg)):.3g}"
    try:
        spread = _spread(link, exact.row(1))
    except NonConvergenceError as exc:
        return _check(name, math.nan, 0.0, ok=False, detail=f"{exc}; {detail}")
    return _check(name, spread, 0.0, ok=spread < 1e-6, detail=detail)


def cmd_validate(args, flags: dict) -> int:
    scn, run = _config_run(args, flags)
    seed, trials, workers = run["seed"], run["trials"], run["workers"]
    link = scn.fixed_link()
    off_centre = None
    if scn.geometry is not None:
        off_centre = scn.link_at(scn.geometry["user_y"] + scn.geometry["d_v"])

    t0 = time.monotonic()
    checks = _validation_checks(link, trials, seed, workers, off_centre)
    duration = time.monotonic() - t0

    width = max(len(c["name"]) for c in checks)
    for c in checks:
        print(
            f"{c['status']:<13} {c['name']:<{width}}  observed={c['observed']:.10g}  "
            f"expected={c['expected']:.10g}  tol={c['tolerance']:.3g}  "
            f"noise={c['noise_margin']:.3g}"
        )
    summary = {
        status: sum(1 for c in checks if c["status"] == status)
        for status in ("pass", "fail", "inconclusive", "not-applicable")
    }
    print(
        f"{summary['pass']} passed, {summary['fail']} failed, "
        f"{summary['inconclusive']} inconclusive, {summary['not-applicable']} not applicable"
    )

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        report = {
            "command": "validate", "version": __version__, "seed": seed,
            "trials": trials, "checks": checks, "summary": summary,
        }
        _write_yaml(os.path.join(args.out, REPORT_FILE), report)
        manifest = _manifest(
            "validate", scn, run, args.caught, duration_s=duration,
            trial_rows=trials + 2 * min(trials, _HIERARCHY_TRIALS),
        )
        _write_yaml(os.path.join(args.out, MANIFEST_FILE), manifest)
        print(f"wrote {os.path.join(args.out, REPORT_FILE)}")
    return 1 if summary["fail"] else 0


def _sweep_from(scn: ScenarioSettings, run: dict, args) -> int:
    out_dir = "." if args.out is None else args.out
    trials, seed, csi_mode, workers = run["trials"], run["seed"], run["csi_mode"], run["workers"]
    cfg = TrialConfig(trials=trials, seed=seed, csi_mode=csi_mode)
    t0 = time.monotonic()
    links = [scn.link_at(d) for d in run["d_range"]]
    result = sweep_user(links, run["d_range"], run["allocators"], cfg, workers=workers)
    duration = time.monotonic() - t0

    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, METRICS_CSV)
    powers_path = os.path.join(out_dir, POWERS_CSV)
    _write_metrics_csv(metrics_path, result.rows)
    _write_powers_csv(powers_path, result.rows)
    manifest = _manifest(
        "sweep", scn, run, args.caught, duration_s=duration,
        trial_rows=trials * len(result.rows),
    )
    # the exact solver's iterations and final multiplier spread per position
    manifest["solver"] = [row._asdict() for row in result.solver]
    _write_yaml(os.path.join(out_dir, MANIFEST_FILE), manifest)
    print(
        f"wrote {metrics_path} ({len(result.rows)} rows), {powers_path}, "
        f"{os.path.join(out_dir, MANIFEST_FILE)}"
    )
    return 0


def _replay(saved: dict, args, flags: dict) -> int:
    """Rerun a sweep manifest, checking each field as a config's would be."""
    fixed = sorted(set(flags) - {"workers"})
    if fixed:
        raise ConfigError("--" + fixed[0].replace("_", "-"),
                          "the manifest fixes this setting; a replay takes only --workers and --out")
    scn = ScenarioSettings.from_dict(_get(saved, "scenario", ""))
    for key in _SETTINGS["sweep"]:
        _get(saved, _stored_as(key), "")
    run = {**_run_fields(saved, ""), **flags}
    return _sweep_from(scn, run, args)


def cmd_sweep(args, flags: dict) -> int:
    if args.manifest is not None:
        saved = _load_yaml(args.manifest)
        if not isinstance(saved, dict) or saved.get("command") != "sweep":
            raise ConfigError(args.manifest, "not a sweep manifest")
        return _replay(saved, args, flags)

    scn, run = _config_run(args, flags)
    if run["d_range"] is None:
        raise ConfigError("run.d_range", "missing required field (or pass --d-range)")
    return _sweep_from(scn, run, args)


# ---------------------------------------------------------------- entry


# each run setting's flag
_FLAGS = {
    "seed": {"type": int, "help": "base RNG seed (64-bit unsigned)"},
    "trials": {"type": int, "help": "Monte Carlo trials"},
    "csi_mode": {"choices": CSI_MODES, "help": "how reflection phases are chosen"},
    "allocators": {"help": f"comma-separated allocators from: {', '.join(ALLOCATOR_IDS)}"},
    "workers": {"type": int, "help": "parallel trial workers"},
    "d_range": {"help": "user offsets as start:stop:step, inclusive"},
}


def _add_command(sub, command: str, func, text: str) -> argparse.ArgumentParser:
    """A subcommand taking --config, --out and the flags of its run settings."""
    p = sub.add_parser(command, help=text)
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--out", help="output directory")
    for key in _SETTINGS[command]:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispilot",
        description="Pilot power allocation and ergodic gain analysis for "
        "multi-surface reflected links",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "allocate", cmd_allocate, "print per-surface pilot powers")
    _add_command(sub, "validate", cmd_validate, "check closed forms against simulation")
    p_sweep = _add_command(sub, "sweep", cmd_sweep, "sweep the user position, write CSVs")
    p_sweep.add_argument("--manifest", help="replay a saved run manifest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        if args.manifest is not None and args.config is not None:
            print("config error: --manifest and --config are mutually exclusive", file=sys.stderr)
            return 2
        if args.manifest is None and args.config is None:
            print("config error: one of --config or --manifest is required", file=sys.stderr)
            return 2
    elif args.config is None:
        print("config error: --config is required", file=sys.stderr)
        return 2
    # every warning is recorded; only rispilot's own are shown as one line
    # each, and the rest are shown as Python would have shown them
    with warnings.catch_warnings(record=True) as caught:
        for category in _OWN_WARNINGS:
            warnings.simplefilter("always", category)
        args.caught = caught
        code = _run(args)
    for w in caught:
        if not issubclass(w.category, _OWN_WARNINGS):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for message in _own_messages(caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    """args' command, its errors reported as one line and an exit code."""
    try:
        # flags are checked before any file is read
        given = {key: getattr(args, key) for key in _SETTINGS[args.command]}
        flags = _run_fields({key: v for key, v in given.items() if v is not None}, "--")
        return args.func(args, flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
