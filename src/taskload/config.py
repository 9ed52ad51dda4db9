"""Configuration schema, published defaults, and provenance hashing.

One structured JSON file drives every command, and every key it takes
reaches some command's output. It resolves to a ConfigFile, the one
description of a scenario: the analytic pipeline and the Monte Carlo
harness both read it, and its checks (scenario kind, flows per kind,
horizon and cadence, run count) run whenever one is built, so both
routes accept the same scenarios. Unknown keys are rejected with their
full path so typos never silently fall back to a default; the
RETIRED_KEYS load with a warning and are ignored (the retired counting
switch only when it is off). Defaults carry the
published per-axis generator and dynamics parameters, the named
tolerance standards, and the reference scenario
run counts; the one deliberate departure is that scenario dynamics
center the reversion mean on the nominal trajectory (the fitted means
are generator offsets, and corridor bounds are symmetric about the
path), while the fitted values remain available via ou.OU_FTE_FIT.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Any

from .distributions import AXES, JOHNSON_FTE, JohnsonSuParams
from .flow import (TOLERANCE_STANDARDS, CrossingGeometry, FlowSpec,
                   ToleranceBounds)
from .ou import OU_FTE_CENTERED, OuParams

SCHEMA_VERSION = 1
TOOL_NAME = "corridor-taskload"
TOOL_VERSION = "0.1.0"

#: Reference Monte Carlo run counts by scenario and intensity/angle.
MONOLANE_RUNS = {2.5: 91658, 5.0: 66680, 7.5: 58366, 10.0: 54147, 60.0: 41702}
MULTILANE_RUNS = {2.5: 229158, 5.0: 16670, 7.5: 14592, 10.0: 13537, 60.0: 10426}
CROSSING_RUNS = {30.0: 5412, 90.0: 10463, 120.0: 3826}
DEFAULT_RUNS = 10000

#: Flows each scenario kind takes: (fewest, most).
FLOW_COUNTS = {"single_lane": (1, 1), "multilane": (1, math.inf),
               "crossing": (2, 2)}

#: Keys no output reads, by section ("flows[]": each flow). Old configs
#: carrying them load; they are never read, so never hashed or resolved.
#: The retired mc counting switch loads only when off, the counting
#: that remains; on, it is a ConfigError.
RETIRED_KEYS = {"mc": {"dt_min", "count_full_horizon"},
                "analytic": {"oracle_paths"},
                "flows[]": {"speed_kt", "lateral_extent_nm"}}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    section = re.sub(r"\[\d+\]$", "[]", path)
    retired = RETIRED_KEYS.get(section, set()) & set(obj)
    unknown = set(obj) - allowed - retired
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} at {path or '<root>'}")
    for key in sorted(retired):
        warnings.warn(f"config key {section}.{key} is retired and ignored")


def _get_num(obj: dict, key: str, default, path: str):
    val = obj.get(key, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key} must be finite")
    return float(val)


@dataclass
class ConfigFile:
    """One scenario, validated on construction (and on every
    dataclasses.replace); both the analytic route and the Monte Carlo
    harness read it."""

    distributions: dict[str, JohnsonSuParams] = field(
        default_factory=lambda: dict(JOHNSON_FTE))
    ou: dict[str, OuParams] = field(
        default_factory=lambda: dict(OU_FTE_CENTERED))
    flows: list[FlowSpec] = field(
        default_factory=lambda: [FlowSpec(intensity_per_hour=2.5)])
    geometry: CrossingGeometry = field(
        default_factory=lambda: CrossingGeometry(alpha_deg=90.0))
    kind: str = "single_lane"
    horizon_min: float = 120.0
    obs_dt_min: float = 1.0
    n_runs: int | None = None
    seed: int = 0
    stream_id: int = 0
    n_max: int = 32
    output_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FLOW_COUNTS:
            raise ConfigError(f"mc.kind: unknown scenario {self.kind!r}")
        fewest, most = FLOW_COUNTS[self.kind]
        if not fewest <= len(self.flows) <= most:
            need = (f"exactly {fewest}" if fewest == most
                    else f"at least {fewest}")
            raise ConfigError(f"mc.kind {self.kind!r} takes {need} flow"
                              f"{'s' if fewest > 1 else ''}, got "
                              f"{len(self.flows)}")
        for key in ("horizon_min", "obs_dt_min"):
            val = getattr(self, key)
            if val is None or not val > 0:
                raise ConfigError(f"mc.{key} must be > 0, got {val!r}")
        if self.n_runs is not None and (not isinstance(self.n_runs, int)
                                        or self.n_runs < 1):
            raise ConfigError("mc.n_runs must be a positive integer")
        if not (isinstance(self.seed, int) and isinstance(self.stream_id, int)):
            raise ConfigError("mc.seed and mc.stream_id must be integers")
        missing = [axis for axis in AXES if axis not in self.ou]
        if missing:
            raise ConfigError(f"ou: no parameters for axis {missing}")
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ConfigError("analytic.n_max must be a positive integer")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, "
                              f"got {self.output_format!r}")

    def resolved_runs(self) -> int:
        """Config value if given, else the reference table for the
        scenario, else a generic default."""
        if self.n_runs is not None:
            return self.n_runs
        if self.kind == "single_lane":
            return MONOLANE_RUNS.get(self.flows[0].intensity_per_hour,
                                     DEFAULT_RUNS)
        if self.kind == "multilane":
            return MULTILANE_RUNS.get(self.flows[0].intensity_per_hour,
                                      DEFAULT_RUNS)
        return CROSSING_RUNS.get(self.geometry.alpha_deg, DEFAULT_RUNS)

    def to_canonical_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "distributions": {
                ax: {"gamma": p.gamma, "delta": p.delta,
                     "scale_lambda": p.scale_lambda, "xi": p.xi}
                for ax, p in self.distributions.items()},
            "ou": {ax: {"kappa": p.kappa, "mu": p.mu, "sigma": p.sigma}
                   for ax, p in self.ou.items()},
            "flows": [{
                "intensity_per_hour": f.intensity_per_hour,
                "t_cross_min": f.t_cross_min,
                "tolerance": {"lateral_nm": f.tolerance.lateral_nm,
                              "vertical_ft": f.tolerance.vertical_ft,
                              "longitudinal_nm": f.tolerance.longitudinal_nm},
            } for f in self.flows],
            "geometry": {"alpha_deg": self.geometry.alpha_deg,
                         "e1_nm": self.geometry.e1_nm,
                         "e2_nm": self.geometry.e2_nm,
                         "d_min_nm": self.geometry.d_min_nm,
                         "speed_kt": self.geometry.speed_kt},
            "mc": {"kind": self.kind, "horizon_min": self.horizon_min,
                   "obs_dt_min": self.obs_dt_min,
                   "n_runs": self.n_runs, "seed": self.seed,
                   "stream_id": self.stream_id},
            "analytic": {"n_max": self.n_max},
            "output": {"format": self.output_format},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _parse_axis_table(obj: dict, axis_keys: tuple[str, ...], fields: tuple[str, ...],
                      builder, defaults: dict, path: str) -> dict:
    _require_keys(obj, set(axis_keys), path)
    out = dict(defaults)
    for axis, sub in obj.items():
        if not isinstance(sub, dict):
            raise ConfigError(f"{path}.{axis} must be an object")
        _require_keys(sub, set(fields), f"{path}.{axis}")
        base = defaults[axis]
        kwargs = {f: _get_num(sub, f, getattr(base, f), f"{path}.{axis}")
                  for f in fields}
        try:
            out[axis] = builder(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}.{axis}: {exc}") from exc
    return out


def _parse_tolerance(obj, path: str) -> ToleranceBounds:
    if isinstance(obj, str):
        if obj not in TOLERANCE_STANDARDS:
            raise ConfigError(f"{path}: unknown standard {obj!r}; choose from "
                              f"{sorted(TOLERANCE_STANDARDS)}")
        return TOLERANCE_STANDARDS[obj].bounds
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a standard name or bounds object")
    _require_keys(obj, {"lateral_nm", "vertical_ft", "longitudinal_nm"}, path)
    try:
        return ToleranceBounds(
            lateral_nm=_get_num(obj, "lateral_nm", 0.1, path),
            vertical_ft=_get_num(obj, "vertical_ft", 20.0, path),
            longitudinal_nm=_get_num(obj, "longitudinal_nm", 0.5, path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_flow(obj: dict, path: str) -> FlowSpec:
    allowed = {"intensity_per_hour", "t_cross_min", "standard", "tolerance"}
    _require_keys(obj, allowed, path)
    if "standard" in obj and "tolerance" in obj:
        raise ConfigError(f"{path}: give either 'standard' or 'tolerance'")
    if "standard" in obj:
        tol = _parse_tolerance(obj["standard"], f"{path}.standard")
    elif "tolerance" in obj:
        tol = _parse_tolerance(obj["tolerance"], f"{path}.tolerance")
    else:
        tol = TOLERANCE_STANDARDS["stringent"].bounds
    try:
        return FlowSpec(
            intensity_per_hour=_get_num(obj, "intensity_per_hour", 2.5, path),
            t_cross_min=_get_num(obj, "t_cross_min", 20.0, path),
            tolerance=tol)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def default_config() -> ConfigFile:
    return ConfigFile()


def parse_config(data: dict) -> ConfigFile:
    """Build a resolved ConfigFile from a parsed JSON object; keys it
    leaves out take ConfigFile's defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    allowed = {"schema_version", "distributions", "ou", "flows", "geometry",
               "mc", "analytic", "output"}
    _require_keys(data, allowed, "")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    kw: dict[str, Any] = {}
    if "distributions" in data:
        kw["distributions"] = _parse_axis_table(
            data["distributions"], AXES,
            ("gamma", "delta", "scale_lambda", "xi"),
            JohnsonSuParams, dict(JOHNSON_FTE), "distributions")
    if "ou" in data:
        kw["ou"] = _parse_axis_table(
            data["ou"], AXES, ("kappa", "mu", "sigma"),
            OuParams, dict(OU_FTE_CENTERED), "ou")
    if "flows" in data:
        flows = data["flows"]
        if not isinstance(flows, list):
            raise ConfigError("flows must be a list")
        kw["flows"] = [_parse_flow(f, f"flows[{i}]")
                       for i, f in enumerate(flows)]
    if "geometry" in data:
        g = data["geometry"]
        _require_keys(g, {"alpha_deg", "e1_nm", "e2_nm", "d_min_nm",
                          "speed_kt"}, "geometry")
        try:
            kw["geometry"] = CrossingGeometry(
                alpha_deg=_get_num(g, "alpha_deg", 90.0, "geometry"),
                e1_nm=_get_num(g, "e1_nm", 1.0, "geometry"),
                e2_nm=_get_num(g, "e2_nm", 1.0, "geometry"),
                d_min_nm=_get_num(g, "d_min_nm", 5.0, "geometry"),
                speed_kt=_get_num(g, "speed_kt", 480.0, "geometry"))
        except ValueError as exc:
            raise ConfigError(f"geometry: {exc}") from exc
    mc = data.get("mc", {})
    if mc.get("count_full_horizon", False) is not False:
        raise ConfigError("mc.count_full_horizon was removed: each aircraft "
                          "is scored only while it is in the sector; drop "
                          "the key")
    _require_keys(mc, {"kind", "horizon_min", "obs_dt_min", "n_runs",
                       "seed", "stream_id"}, "mc")
    kw.update({key: _get_num(mc, key, None, "mc")
               for key in ("horizon_min", "obs_dt_min") if key in mc})
    kw.update({key: mc[key] for key in ("kind", "n_runs", "seed", "stream_id")
               if key in mc})
    analytic = data.get("analytic", {})
    _require_keys(analytic, {"n_max"}, "analytic")
    if "n_max" in analytic:
        kw["n_max"] = analytic["n_max"]
    output = data.get("output", {})
    _require_keys(output, {"format"}, "output")
    if "format" in output:
        kw["output_format"] = output["format"]
    return ConfigFile(**kw)


def load_config(path: str) -> ConfigFile:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
