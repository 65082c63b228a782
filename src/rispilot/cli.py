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
from .channel import PURPOSE_RIS_USER, normal_states, unit_normals
from .estimation import PerRisPowers
from .montecarlo import (CSI_MODES, GainRow, TrialConfig, WorkerLostError, in_units, mean_se,
                         sweep_user, trial_gains, unit_exponent)
from .scenario import MAX_ELEMENTS, Link, cascaded_large_scale, dbm_to_watts, watts_to_dbm

METRICS_CSV = "metrics.csv"
POWERS_CSV = "powers.csv"
MANIFEST_FILE = "run_manifest.yaml"
REPORT_FILE = "validation_report.yaml"

_PowerRow = namedtuple("_PowerRow", ["d_m", "allocator", "powers_w"])
# rispilot's own warnings: main prints each distinct message once, and
# manifests list them
_OWN_WARNINGS = (ModelAssumptionWarning, UniformFallbackWarning)

_QUARTER_PI = 0.25 * math.pi

# validate runs its perfect and random-phase rows on at most this many trials
_HIERARCHY_TRIALS = 20_000
# a sweep's d_range expands to, and a manifest's d_values holds, at most
# this many offsets; the bundled configs use 9
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


# The one number grammar of config scalars, quoted or plain: decimal
# integers and floats, an exponent with or without a dot, and YAML's
# spellings of infinity and NaN. Integer fields take the integer form of
# plain scalars only. An integer with a leading zero, octal in YAML 1.1,
# is no number, so it cannot silently change its value.
_INT = re.compile(r"[-+]?(0|[1-9][0-9]*)")
_DECIMAL = re.compile(r"(?![-+]?0[0-9]+\Z)[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")
# an element count int() reads without a digit limit
_COUNT = re.compile(r"[1-9][0-9]{0,17}")
_SPECIAL = {
    **{sign + dot_inf: float(sign + "inf") for sign in ("", "+", "-")
       for dot_inf in (".inf", ".Inf", ".INF")},
    **{dot_nan: math.nan for dot_nan in (".nan", ".NaN", ".NAN")},
}


def _number(value) -> float | None:
    """value as a float, or None: a Python int or float (not a bool), or a
    string in the number grammar."""
    if isinstance(value, str):
        x = _SPECIAL.get(value)
        return float(value) if x is None and _DECIMAL.fullmatch(value) else x
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _float_value(value, path: str, *, positive=False, nonneg=False, inf_ok=False) -> float:
    x = _number(value)
    if x is None:
        raise ConfigError(path, f"expected a number, got {value!r}")
    if math.isnan(x):
        raise ConfigError(path, "must not be NaN")
    if math.isinf(x) and not inf_ok:
        raise ConfigError(path, f"must be finite, got {x}")
    if positive and x <= 0.0:
        raise ConfigError(path, f"must be positive, got {x}")
    if nonneg and x < 0.0:
        raise ConfigError(path, f"must be nonnegative, got {x}")
    return x


def _int_value(value, path: str, what: str, low=1, high=math.inf) -> int:
    """value as an integer in [low, high): a Python int (not a bool), or a
    plain scalar in the integer form; what is the message's subject."""
    x = value
    if type(value) is str and _INT.fullmatch(value):
        try:
            x = int(value)
        except ValueError:  # beyond the interpreter's digit limit
            pass
    if isinstance(x, bool) or not isinstance(x, int) or not low <= x < high:
        raise ConfigError(path, f"{what}, got {value!r}")
    return x


def _all_plain(values: list, grammar: re.Pattern) -> bool:
    """Whether every element of values is a plain scalar in grammar; such a
    list, the common case, is converted by one map."""
    return set(map(type, values)) == {str} and all(map(grammar.fullmatch, values))


def _power_watts(value, path: str, *, nonneg_ok=False) -> float:
    """Parse a power string with a mandatory unit suffix into watts."""
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a power string, got {type(value).__name__}")
    text = value.strip()
    for suffix, scale in (("dBm", None), ("mW", 1e-3), ("W", 1.0)):
        if text.endswith(suffix):
            x = _number(text[: -len(suffix)].strip())
            if x is None:
                raise ConfigError(path, f"cannot parse power value {value!r}")
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
    if not isinstance(value, str) or not value.strip().endswith("dB"):
        raise ConfigError(path, f"expected a 'dB' string, got {value!r}")
    x = _number(value.strip()[:-2].strip())
    if x is None:
        raise ConfigError(path, f"cannot parse dB value {value!r}")
    if not math.isfinite(x):
        raise ConfigError(path, f"dB value must be finite, got {value!r}")
    return x


def _element_counts(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list of element counts")
    if _all_plain(value, _COUNT):
        counts = list(map(int, value))
    else:
        counts = [_int_value(v, f"{path}[{i}]", "element count must be a positive integer")
                  for i, v in enumerate(value)]
    if sum(counts) > MAX_ELEMENTS:
        raise ConfigError(path, f"the element counts total {sum(counts)}, above 2^53")
    return counts


@dataclasses.dataclass(frozen=True)
class ScenarioSettings:
    """A config's problem: one Link, and the geometric layout that placed it.

    link is the configured channel, or the layout's link with the user at
    user_y. geometry, None for a channel config, holds the layout's d0,
    d_v, d_h, d_u, user_y, c0_db, alpha_br and alpha_ru; its Rician
    factors are the link's k_br and k_ru. All powers are in watts.
    """

    link: Link
    geometry: dict | None = None

    def link_at(self, d: float) -> Link:
        """The geometric layout's link with the user at offset d."""
        if self.geometry is None:
            raise ConfigError("scenario.geometry", "user sweeps need a geometric layout")
        return dataclasses.replace(self.link, beta_sq=_gains_at(self.geometry, d))

    def as_dict(self) -> dict:
        link = self.link
        out = {f.stored: getattr(link, key) for key, f in _SCENARIO.items()}
        out["element_counts"] = link.counts.tolist()
        if self.geometry is None:
            return {**out, "beta_sq": link.beta_sq.tolist()}
        return {**out, "geometry": {**self.geometry, "k_br": link.k_br, "k_ru": link.k_ru}}


def _gains_at(g: dict, d: float) -> np.ndarray:
    """The cascaded gains of layout g with the user at offset d."""
    return cascaded_large_scale(d=d, **{key: x for key, x in g.items() if key != "user_y"})


_POSITIVE = functools.partial(_float_value, positive=True)
_K_FACTOR = functools.partial(_float_value, nonneg=True, inf_ok=True)
# A scenario field: its name in a config and the reader of its value there,
# its name in a manifest with that value's reader (None: read), and its
# config default (None: required). A manifest stores every field.
_Field = namedtuple("_Field", ["name", "read", "stored", "read_stored", "default"],
                    defaults=(None, None))

# the scenario's fields other than its layout, keyed by the Link field each
# sets; a manifest stores the powers in watts
_SCENARIO = {
    "counts": _Field("element_counts", _element_counts, "element_counts"),
    "p_avg": _Field("p_avg", _power_watts, "p_avg_w", _POSITIVE),
    "q": _Field("q", _power_watts, "q_w", _POSITIVE),
    "sigma_z_sq": _Field("sigma_z", functools.partial(_power_watts, nonneg_ok=True),
                         "sigma_z_sq_w", functools.partial(_float_value, nonneg=True)),
    "sigma_n_sq": _Field("sigma_n", _power_watts, "sigma_n_sq_w", _POSITIVE),
}
# the geometric layout's fields, keyed by their manifest names
_GEOMETRY = {
    "d0": _Field("d0", _POSITIVE, "d0"),
    "d_v": _Field("d_v", _POSITIVE, "d_v", default=10.0),
    "d_h": _Field("d_h", _POSITIVE, "d_h", default=10.0),
    "d_u": _Field("d_u", _POSITIVE, "d_u", default=2.0),
    "user_y": _Field("user_y", _float_value, "user_y", default=0.0),
    "c0_db": _Field("c0", _db_value, "c0_db", _float_value),
    "alpha_br": _Field("alpha_br", _POSITIVE, "alpha_br"),
    "alpha_ru": _Field("alpha_ru", _POSITIVE, "alpha_ru"),
    "k_br": _Field("k_br", _K_FACTOR, "k_br", default=math.inf),
    "k_ru": _Field("k_ru", _K_FACTOR, "k_ru", default=0.0),
}


def _fields(block: dict, table: dict, path: str, config: bool, extra=()) -> dict:
    """The values of table's fields in a config's block, or in a manifest's;
    a key that is no field's nor in extra is an error."""
    names = [f.name if config else f.stored for f in table.values()]
    _reject_unknown(block, [*names, *extra], path)
    out = {}
    for (key, f), name in zip(table.items(), names):
        if config and f.default is not None and name not in block:
            out[key] = f.default
        else:
            read = f.read if config else f.read_stored or f.read
            out[key] = read(_get(block, name, path), f"{path}.{name}")
    return out


def _beta_sq(value, path: str) -> list[float]:
    """A nonempty list of positive, finite gains."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list")
    # any other list, or one holding a bad gain, is read gain by gain, so
    # that an error names the gain
    beta_sq = list(map(float, value)) if _all_plain(value, _DECIMAL) else None
    if beta_sq is None or not 0.0 < min(beta_sq) <= max(beta_sq) < math.inf:
        beta_sq = [_float_value(b, f"{path}[{i}]", positive=True) for i, b in enumerate(value)]
    return beta_sq


def _scenario(raw, path: str, *, config: bool) -> ScenarioSettings:
    """The scenario of a config's block (config=True) or of the block a
    manifest stored: its counts and powers, and a geometric layout or the
    gains, a config's channel.beta_sq or a manifest's beta_sq."""
    block = _require_mapping(raw, path)
    gains = "channel" if config else "beta_sq"
    fields = _fields(block, _SCENARIO, path, config, extra=("geometry", gains))
    counts = fields["counts"]
    if ("geometry" in block) == (gains in block):
        raise ConfigError(path, f"exactly one of 'geometry' and '{gains}' must be present")
    geometry = None
    if "geometry" in block:
        if len(counts) != 2:
            raise ConfigError(f"{path}.element_counts", "the geometric layout places exactly "
                              f"two surfaces, got {len(counts)} counts")
        where = f"{path}.geometry"
        geometry = _fields(_require_mapping(block["geometry"], where), _GEOMETRY, where, config)
        if geometry["d_u"] >= geometry["d0"]:
            raise ConfigError(f"{where}.d_u",
                              f"must be below d0 = {geometry['d0']:g}, got {geometry['d_u']:g}")
        fields.update((key, geometry.pop(key)) for key in ("k_br", "k_ru"))
    else:
        # a config gives the gains in its channel block, a manifest beside the counts
        channel, where = block, path
        if config:
            where = f"{path}.channel"
            channel = _require_mapping(block["channel"], where)
            _reject_unknown(channel, {"beta_sq"}, where)
        beta_sq = _beta_sq(_get(channel, "beta_sq", where), f"{where}.beta_sq")
        if len(beta_sq) != len(counts):
            raise ConfigError(f"{where}.beta_sq",
                              f"{len(beta_sq)} gains for {len(counts)} element counts")
        fields["beta_sq"] = beta_sq

    # the pilot budget sum(M_k) * p_avg must not overflow; a layout's gains
    # are computed once it is checked
    p_avg, field = fields["p_avg"], _SCENARIO["p_avg"]
    if not math.isfinite(sum(counts) * p_avg):
        raise ConfigError(f"{path}.{field.name if config else field.stored}",
                          f"the pilot budget {sum(counts)} x {p_avg:g} W overflows")
    if geometry is not None:
        fields["beta_sq"] = _gains_at(geometry, geometry["user_y"])
    return ScenarioSettings(Link(**fields), geometry)


# the run settings each command takes and their defaults (None: no default);
# a config's run block overrides a default and a flag overrides both. The
# allocator lists are sorted, as _allocators returns them.
_SETTINGS = {
    "allocate": {"allocators": tuple(sorted(ALLOCATOR_IDS))},
    "validate": {"seed": 0, "trials": 100_000, "workers": 1},
    "sweep": {"seed": 0, "trials": 1000, "csi_mode": "estimated",
              "allocators": ("exact", "uniform"), "workers": 1, "d_range": None},
}


def _csi_mode(value, path: str) -> str:
    if value not in CSI_MODES:
        raise ConfigError(path, f"expected one of {', '.join(CSI_MODES)}; got {value!r}")
    return str(value)  # a quoted one is a _Quoted, which manifests cannot store


def _allocators(names, path: str) -> list[str]:
    """A list of allocator names, or a comma-separated string of them, as
    the sorted canonical names."""
    if isinstance(names, str):
        names = [t for t in names.split(",") if t]
    if not isinstance(names, list) or not names:
        raise ConfigError(path, "expected a nonempty list of allocator names")
    resolved = []
    for i, name in enumerate(names):
        try:
            canonical = resolve_allocator(str(name).strip())
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc)) from None
        if canonical not in resolved:
            resolved.append(canonical)
    return sorted(resolved)


def _d_range(value, path: str) -> list[float]:
    """The user offsets of a 'start:stop:step' range, stop included."""
    text = str(value)
    parts = [_number(p.strip()) for p in text.split(":")]
    if len(parts) != 3 or None in parts:
        raise ConfigError(path, f"expected 'start:stop:step', got {text!r}")
    start, stop, step = parts
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


def _d_values(value, path: str) -> list[float]:
    """The user offsets a manifest stores, as a list of numbers."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list of user offsets")
    if len(value) > _MAX_OFFSETS:
        raise ConfigError(path, f"{len(value)} offsets, more than {_MAX_OFFSETS}")
    return [_float_value(d, f"{path}[{i}]") for i, d in enumerate(value)]


def _integer(what: str, low=1, high=math.inf):
    """A reader of integers in [low, high) whose error message says what."""
    return functools.partial(_int_value, what=what, low=low, high=high)


# a run setting: its flag, the flag's help, the reader of its value in the
# flags or a run block, and its manifest field with that field's reader
# (None: read)
_Setting = namedtuple("_Setting", ["flag", "help", "read", "stored", "read_stored"],
                      defaults=(None,))

# Every run setting. One config serves every command, so its run block may
# give any of them; _SETTINGS says which ones each command takes. Flags
# arrive as strings and are read like a run block's plain scalars.
_RUN_SETTINGS = {
    "seed": _Setting("--seed", "base RNG seed (64-bit unsigned)",
                     _integer("seed must be an integer in [0, 2^64)", 0, 2**64), "seed"),
    "trials": _Setting("--trials", "Monte Carlo trials",
                       _integer("trials must be a positive integer"), "trials"),
    "workers": _Setting("--workers", "parallel trial workers",
                        _integer("workers must be a positive integer"), "workers"),
    "csi_mode": _Setting("--csi-mode", f"how reflection phases are chosen: {', '.join(CSI_MODES)}",
                         _csi_mode, "csi_mode"),
    "allocators": _Setting("--allocators",
                           f"comma-separated allocators from: {', '.join(ALLOCATOR_IDS)}",
                           _allocators, "allocators"),
    "d_range": _Setting("--d-range", "user offsets as start:stop:step, inclusive",
                        _d_range, "d_values", _d_values),
}


def _run_fields(block: dict, prefix: str) -> dict:
    """Read the run settings present in the flags (prefix "--"), a config's
    run block (prefix "run.") or a manifest (no prefix, stored fields)."""
    out = {}
    for key, s in _RUN_SETTINGS.items():
        field, read = (key, s.read) if prefix else (s.stored, s.read_stored or s.read)
        if field in block:
            out[key] = read(block[field], s.flag if prefix == "--" else prefix + field)
    return out


# libyaml composes and emits the same documents several times faster,
# where PyYAML has it; the emitted bytes are the same. Configs are
# composed under the base resolver, which types nothing: the field
# parsers above do, by the number grammar.
_YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
# the base resolver's tag of each node kind; any other tag is explicit
_UNTAGGED = {
    yaml.ScalarNode: yaml.resolver.BaseResolver.DEFAULT_SCALAR_TAG,
    yaml.SequenceNode: yaml.resolver.BaseResolver.DEFAULT_SEQUENCE_TAG,
    yaml.MappingNode: yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
}
_NULLS = frozenset(("", "~", "null", "Null", "NULL"))


class _PyComposer(yaml.BaseLoader):
    """PyYAML's pure-Python base loader. Its resolver has no implicit
    resolvers, so an untagged node's tag is its kind's default; resolve
    returns that without the resolver's lookups."""

    def resolve(self, kind, value, implicit):
        return _UNTAGGED[kind]


if yaml.__with_libyaml__:
    class _Composer(yaml.CBaseLoader):
        """The libyaml base loader, resolving as _PyComposer does."""

        resolve = _PyComposer.resolve
else:
    _Composer = _PyComposer


class _Quoted(str):
    """A quoted (or block) YAML scalar: never an integer field's value."""


def _found(what: str, node) -> yaml.YAMLError:
    """An error marking what was found at node."""
    return yaml.constructor.ConstructorError(None, None, f"found {what}", node.start_mark)


def _one_line(exc: Exception) -> str:
    """A YAML error as one line: its context and problem, each with the line
    it marks, or the position of an undecodable or unprintable character.
    PyYAML's own text puts each mark on a line of its own."""
    if isinstance(exc, yaml.MarkedYAMLError):
        return ", ".join(text if mark is None else f"{text} on line {mark.line + 1}"
                         for text, mark in ((exc.context, exc.context_mark),
                                            (exc.problem, exc.problem_mark)) if text)
    if isinstance(exc, yaml.reader.ReaderError):
        # libyaml gives character -1 where the input ends inside a character
        if isinstance(exc.character, int) and exc.character < 0:
            return f"{exc.reason} at position {exc.position}"
        return f"{str(exc).splitlines()[0]} at position {exc.position}"
    return str(exc)


def _tree(node, key=False):
    """A composed YAML node as dicts, lists and strings: a plain null is
    None, a quoted scalar is a _Quoted string, and a mapping key is its
    own text, a null's too. A repeated key is an error naming its line."""
    kind = type(node)
    if node.tag != _UNTAGGED[kind]:
        raise _found(f"an unsupported tag {node.tag!r}", node)
    if kind is yaml.ScalarNode:
        if node.style:
            return _Quoted(node.value)
        return None if node.value in _NULLS and not key else node.value
    if kind is yaml.SequenceNode:
        return [_tree(item) for item in node.value]
    out = {}
    for key_node, value_node in node.value:
        name = _tree(key_node, key=True)
        if name in out:
            raise _found(f"a repeated key {name!r}", key_node)
        out[name] = _tree(value_node)
    return out


def _load_yaml(path: str):
    # PyYAML decodes the bytes itself (UTF-8, or UTF-16 after a byte-order
    # mark) and reports a bad encoding as a YAMLError; _tree fails with a
    # TypeError on a list as a key, and a RecursionError on an alias inside
    # its own anchor
    with open(path, "rb") as f:
        try:
            node = yaml.compose(f, Loader=_Composer)
            return None if node is None else _tree(node)
        except (yaml.YAMLError, TypeError, RecursionError) as exc:
            raise ConfigError(path, f"not valid YAML: {_one_line(exc)}") from None


def load_config(path: str) -> dict:
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level of the config must be a mapping")
    _reject_unknown(raw, {"scenario", "run"}, "")
    return raw


# ---------------------------------------------------------------- output


# Each writer formats a whole block with one % over a flat tuple, which
# writes the bytes "%.17g" % x writes per value, inf, nan and -0 included.
_METRICS_ROW = "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def _write_metrics_csv(path: str, rows):
    values = [v for r in rows for v in (r.d_m, r.allocator, r.mean_gain, r.se_gain,
                                        r.mean_rate, r.se_rate, r.closed_form_gain)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("d_m,allocator,mean_gain,se_gain,mean_rate_bps_hz,se_rate,closed_form_gain\n")
        f.write(_METRICS_ROW * len(rows) % tuple(values))


def _write_powers_csv(path: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("d_m,allocator,ris_index,pilot_power_w,pilot_power_dbm\n")
        for r in rows:
            p_k = list(r.powers_w)
            row = "%.17g,%s," % (r.d_m, r.allocator) + "%d,%.17g,%.17g\n"
            f.write(row * len(p_k) % _interleave(range(len(p_k)), p_k, list(map(watts_to_dbm, p_k))))


# Manifests and reports are written as the events PyYAML's serializer
# would make of the payload's representation, without building its node
# tree. The emitter still chooses every scalar's style, so the bytes are
# those of yaml.dump(payload, Dumper=_YAML_DUMPER, sort_keys=True,
# default_flow_style=False).
_TAG = "tag:yaml.org,2002:"
_STR_TAG, _SEQ_TAG, _MAP_TAG = _TAG + "str", _TAG + "seq", _TAG + "map"
# both dumpers resolve with this class; it tells which strings the emitter
# may leave plain
_RESOLVER = yaml.resolver.Resolver()


def _float_text(x: float) -> str:
    """x as PyYAML's safe representer writes it."""
    if x != x:
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    text = repr(x).lower()
    # repr(1e17) is '1e17', which YAML does not read as a float
    return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text


# the safe representer's tag and text of each other scalar type, which a
# resolver reads back as that tag
_SCALARS = {
    float: (_TAG + "float", _float_text),
    bool: (_TAG + "bool", lambda b: "true" if b else "false"),
    int: (_TAG + "int", str),
    type(None): (_TAG + "null", lambda _: "null"),
}


def _yaml_events(value, events: list):
    """Append the events of a tree of dicts, lists, tuples and scalars:
    block style, keys sorted. Any other type, a subclass of one of these
    included, is a RepresenterError, as under the safe representer."""
    kind = type(value)
    if kind is dict:
        events.append(yaml.MappingStartEvent(None, _MAP_TAG, True, flow_style=False))
        for key in sorted(value):
            _yaml_events(key, events)
            _yaml_events(value[key], events)
        events.append(yaml.MappingEndEvent())
    elif kind is list or kind is tuple:
        events.append(yaml.SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False))
        for item in value:
            _yaml_events(item, events)
        events.append(yaml.SequenceEndEvent())
    elif kind is str:
        plain = _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR_TAG
        events.append(yaml.ScalarEvent(None, _STR_TAG, (plain, True), value))
    elif kind in _SCALARS:
        tag, text = _SCALARS[kind]
        events.append(yaml.ScalarEvent(None, tag, (True, False), text(value)))
    else:
        raise yaml.representer.RepresenterError("cannot represent an object", value)


def _write_yaml(path: str, payload: dict):
    """payload as a block-style YAML document with sorted keys. Its events
    are all made before the file is opened, so a payload holding another
    type writes nothing."""
    events = [yaml.StreamStartEvent(), yaml.DocumentStartEvent()]
    _yaml_events(payload, events)
    events += [yaml.DocumentEndEvent(), yaml.StreamEndEvent()]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        yaml.emit(events, f, Dumper=_YAML_DUMPER)


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
        out[_RUN_SETTINGS[key].stored] = run[key]
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
    scn = _scenario(_get(raw, "scenario", ""), "scenario", config=True)
    block = raw.get("run")
    block = _require_mapping({} if block is None else block, "run")
    _reject_unknown(block, _RUN_SETTINGS, "run")
    given = {**_run_fields(block, "run."), **flags}
    return scn, {key: given.get(key, default) for key, default in _SETTINGS[args.command].items()}


def _interleave(*columns: list) -> tuple:
    """The columns' values row by row, as one flat tuple."""
    flat = [None] * sum(len(c) for c in columns)
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return tuple(flat)


def _table_block(name: str, p_k: list, phi: float, gain: float) -> str:
    """An allocator's rows of the allocate table, formatted by one %: its
    name, phi and gain go into the row format once, and each row takes
    (k, p_k, p_k in dBm)."""
    row = "%-10s " % name + "%3d %24.17g %12.4f" + " %14.6e %14.6e\n" % (phi, gain)
    return row * len(p_k) % _interleave(range(len(p_k)), p_k, list(map(watts_to_dbm, p_k)))


def cmd_allocate(args, flags: dict) -> int:
    scn, run = _config_run(args, flags)
    names = run["allocators"]
    link = scn.link
    # gain = sum_k M_k beta_k^2 + (pi/4) phi, so phi's one closed-form
    # evaluation gives both columns; the allocation-free sum is elementwise,
    # whose bits do not depend on the host's BLAS kernel. Outside the closed
    # form's model the gain column reads nan, as in sweep.
    incoherent = (float(np.add.reduce(np.multiply(link.counts, link.beta_sq)))
                  if model_applies(link) else math.nan)

    blocks = [f"{'allocator':<10} {'ris':>3} {'power_w':>24} {'power_dbm':>12} {'phi':>14} {'gain':>14}\n"]
    rows = []
    for name in names:
        powers = run_allocator(name, link)
        phi = objective_phi(link, powers)
        gain = incoherent + _QUARTER_PI * phi
        rows.append((name, powers, phi, gain))
        blocks.append(_table_block(name, powers.p_k.tolist(), phi, gain))
    sys.stdout.write("".join(blocks))

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_powers_csv(os.path.join(args.out, POWERS_CSV),
                          [_PowerRow(0.0, name, powers.p_k.tolist()) for name, powers, _, _ in rows])
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


def _validation_checks(link: Link, trials: int, seed: int, workers: int,
                       off_centre: Link | None) -> list[dict]:
    checks = []
    counts = link.counts

    # every gain the checks average is of the order of the coherent gain
    # (sum_k M_k beta_k)^2; a problem where it overflows stops before any draw
    m_beta = float(np.add.reduce(np.multiply(counts, link.beta)))
    if not math.isfinite(m_beta * m_beta):
        raise ArithmeticError(
            f"the coherent gain (sum_k M_k beta_k)^2 overflows: sum_k M_k beta_k = {m_beta:.6g}")

    # every allocator runs before any draw, so a problem that has no
    # allocation stops before the trial engine sees it; `exact` solves the
    # off-centre problem of the check below in the same call, and a
    # configured problem it cannot certify is a numerical failure
    exact = run_allocator("exact", link, [] if off_centre is None else [off_centre])
    allocations = {name: exact.row(0) if name == "exact" else run_allocator(name, link)
                   for name in ALLOCATOR_IDS}
    uniform = allocations["uniform"]

    # per-surface aligned-coefficient mean, against the closed form; trial
    # 2^63 + k's user-hop draws give h, then the estimation noise, both in
    # units of 2^e_k, e_k the unit exponent of beta_k
    start, stop = 2**63, 2**63 + link.num_ris
    samples = unit_normals(normal_states(seed, start, stop, PURPOSE_RIS_USER), start, stop,
                           2 * trials)
    d2 = link.sigma_z_sq / link.p_avg
    for k, z in enumerate(samples):
        b2 = float(link.beta_sq[k])
        e = unit_exponent(float(link.beta[k]))
        h = math.sqrt(math.ldexp(b2, -2 * e)) * z[:trials]
        est = h + math.sqrt(math.ldexp(d2, -2 * e)) * z[trials:]
        stat = (h * np.conj(est) / np.abs(est)).real
        expected = alignment_mean(b2, d2)
        name = f"alignment-mean[{k}]"
        mean, se = mean_se(stat, e, name)
        checks.append(_check(name, mean, expected, 0.02 * expected, 4.0 * se))

    # one run for the ergodic-gain check and the hierarchy checks below:
    # the estimated row over every trial, the other CSI modes over the
    # first n_h, all on the same draws, of the link in its units
    scaled, e = in_units(link)
    n_h = min(trials, _HIERARCHY_TRIALS)
    gains = dict(zip(
        ("estimated", "perfect", "random-phase"),
        trial_gains(
            [GainRow(scaled, uniform)]
            + [GainRow(scaled, uniform, mode, n_h) for mode in ("perfect", "random-phase")],
            cfg=TrialConfig(trials=trials, seed=seed), workers=workers,
        ),
    ))

    # closed-form ergodic gain against the simulated pipeline
    mean, se = mean_se(gains["estimated"], 2 * e, "ergodic-gain")
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
    m_beta_sq = float(np.add.reduce(np.multiply(counts, link.beta_sq)))
    ideal = m_beta_sq + 0.25 * math.pi * (m_beta * m_beta - m_beta_sq)
    checks.append(
        _check("perfect-csi-limit", limit, ideal, ok=abs(limit - ideal) <= 1e-9 * ideal)
    )

    # every allocator must spend exactly the budget
    budget = float(int(counts.sum()) * link.p_avg)
    for name, powers in allocations.items():
        spent = float(np.add.reduce(np.multiply(counts, powers.p_k)))
        checks.append(
            _check(f"budget[{name}]", spent, budget, ok=abs(spent - budget) <= 1e-9 * budget)
        )

    # the numeric solution equalizes the budget multiplier
    if link.sigma_z_sq > 0.0:
        spread = _spread(link, exact.row(0))
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
        mean, se = mean_se(gains[top][:n_h] - gains[bottom][:n_h], 2 * e, name)
        checks.append(_check(name, mean, 0.0, 3.0 * se, 3.0 * se, ok=mean >= -3.0 * se,
                             detail="paired mean difference"))
    return checks


def _spread(link: Link, powers: PerRisPowers) -> float:
    """The multiplier spread of pilot powers on link."""
    # at extreme powers the residual's rate term overflows to inf, harmlessly
    with np.errstate(over="ignore"):
        return multiplier_spread(stationarity_residual(link, powers))


def _off_centre_check(link: Link, exact) -> dict:
    """The stationarity of `exact` at the off-centre position, row 1 of exact."""
    name = "solver-stationarity[off-centre]"
    detail = f"uniform spread {_spread(link, allocate_average(link)):.3g}"
    try:
        spread = _spread(link, exact.row(1))
    except NonConvergenceError as exc:
        return _check(name, math.nan, 0.0, ok=False, detail=f"{exc}; {detail}")
    return _check(name, spread, 0.0, ok=spread < 1e-6, detail=detail)


def cmd_validate(args, flags: dict) -> int:
    scn, run = _config_run(args, flags)
    seed, trials, workers = run["seed"], run["trials"], run["workers"]
    g = scn.geometry
    off_centre = None if g is None else scn.link_at(g["user_y"] + g["d_v"])

    t0 = time.monotonic()
    checks = _validation_checks(scn.link, trials, seed, workers, off_centre)
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
        raise ConfigError(_RUN_SETTINGS[fixed[0]].flag,
                          "the manifest fixes this setting; a replay takes only --workers and --out")
    scn = _scenario(_get(saved, "scenario", ""), "scenario", config=False)
    for key in _SETTINGS["sweep"]:
        _get(saved, _RUN_SETTINGS[key].stored, "")
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


def _add_command(sub, command: str, func, text: str) -> argparse.ArgumentParser:
    """A subcommand taking --config, --out and the flags of its run settings."""
    p = sub.add_parser(command, help=text)
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--out", help="output directory")
    for key in _SETTINGS[command]:
        p.add_argument(_RUN_SETTINGS[key].flag, dest=key, help=_RUN_SETTINGS[key].help)
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
        manifest = getattr(args, "manifest", None)
        if manifest is not None and args.config is not None:
            raise ConfigError("--manifest", "cannot be given with --config")
        if manifest is None and args.config is None:
            alternative = " (or pass --manifest)" if args.command == "sweep" else ""
            raise ConfigError("--config", f"missing required flag{alternative}")
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
    except WorkerLostError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
