"""Configuration schema, published defaults, and provenance hashing.

One structured JSON file drives every command, and every key it takes
reaches some command's output. It resolves to a ConfigFile, the one
description of a scenario: the analytic pipeline and the Monte Carlo
harness both read it, and its checks (scenario kind, flows per kind,
horizon and cadence, run count) run whenever one is built, so both
routes accept the same scenarios. Each parameter section (a
distributions or ou axis, a flow, a bounds object, the geometry) takes
its dataclass's fields as keys and starts from a default instance, so
the reader and the canonical form state no key or default of their own.
Unknown keys, sections that are not objects and values of the wrong
type (booleans as counts, null as a number) are rejected with their
full path, so typos never silently fall back to a default; the
RETIRED_KEYS load with a warning and are ignored (the retired counting
switch only when it is off). Defaults carry the published per-axis
generator and dynamics parameters, the named tolerance standards, and
the reference scenario run counts; the one deliberate departure is that
scenario dynamics center the reversion mean on the nominal trajectory
(the fitted means are generator offsets, and corridor bounds are
symmetric about the path), while the fitted values remain available via
ou.OU_FTE_FIT.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field, fields, replace
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
                "analytic": {"oracle_paths", "n_max"},
                "flows[]": {"speed_kt", "lateral_extent_nm"}}

#: The mc section's keys: ConfigFile's own fields of the same names.
MC_KEYS = ("kind", "horizon_min", "obs_dt_min", "n_runs", "seed", "stream_id")

#: The lane and the crossing a config describes when it gives none; a
#: flow or geometry section starts from these.
DEFAULT_FLOW = FlowSpec(intensity_per_hour=2.5)
DEFAULT_GEOMETRY = CrossingGeometry(alpha_deg=90.0)

#: The config keys of each parameter section: its dataclass's fields,
#: less a flow's tolerance (a section of its own) and the safe zone that
#: solve_safe_zone derives.
SECTION_KEYS = {cls: tuple(f.name for f in fields(cls) if f.name not in
                           {"tolerance", "x1_nm", "x2_nm", "t_safe_min"})
                for cls in (JohnsonSuParams, OuParams, FlowSpec,
                            ToleranceBounds, CrossingGeometry)}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config root'} must be an object, "
                          f"got {obj!r}")
    section = re.sub(r"\[\d+\]$", "[]", path)
    retired = RETIRED_KEYS.get(section, set()) & set(obj)
    unknown = set(obj) - allowed - retired
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} at {path or '<root>'}")
    for key in sorted(retired):
        warnings.warn(f"config key {section}.{key} is retired and ignored")


def _get_num(obj: dict, key: str, path: str) -> float:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key} must be finite")
    return float(val)


def _is_int(val) -> bool:
    """A JSON integer: bool is an int subclass, but true is not a count."""
    return isinstance(val, int) and not isinstance(val, bool)


@dataclass
class ConfigFile:
    """One scenario, validated on construction (and on every
    dataclasses.replace); both the analytic route and the Monte Carlo
    harness read it."""

    distributions: dict[str, JohnsonSuParams] = field(
        default_factory=lambda: dict(JOHNSON_FTE))
    ou: dict[str, OuParams] = field(
        default_factory=lambda: dict(OU_FTE_CENTERED))
    flows: list[FlowSpec] = field(default_factory=lambda: [DEFAULT_FLOW])
    geometry: CrossingGeometry = field(
        default_factory=lambda: replace(DEFAULT_GEOMETRY))
    kind: str = "single_lane"
    horizon_min: float = 120.0
    obs_dt_min: float = 1.0
    n_runs: int | None = None
    seed: int = 0
    stream_id: int = 0
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
        if self.n_runs is not None and (not _is_int(self.n_runs)
                                        or self.n_runs < 1):
            raise ConfigError(f"mc.n_runs must be a positive integer, "
                              f"got {self.n_runs!r}")
        for key in ("seed", "stream_id"):
            if not _is_int(getattr(self, key)):
                raise ConfigError(f"mc.{key} must be an integer, "
                                  f"got {getattr(self, key)!r}")
        missing = [axis for axis in AXES if axis not in self.ou]
        if missing:
            raise ConfigError(f"ou: no parameters for axis {missing}")
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
            "distributions": {ax: _section(p)
                              for ax, p in self.distributions.items()},
            "ou": {ax: _section(p) for ax, p in self.ou.items()},
            "flows": [{**_section(f), "tolerance": _section(f.tolerance)}
                      for f in self.flows],
            "geometry": _section(self.geometry),
            "mc": {key: getattr(self, key) for key in MC_KEYS},
            "output": {"format": self.output_format},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _section(params) -> dict[str, float]:
    return {key: getattr(params, key) for key in SECTION_KEYS[type(params)]}


def _read_section(obj, base, path: str, other: tuple[str, ...] = ()):
    """base with each of its section keys that obj gives replaced; other
    names keys the caller reads itself."""
    keys = SECTION_KEYS[type(base)]
    _require_keys(obj, {*keys, *other}, path)
    given = {key: _get_num(obj, key, path) for key in keys if key in obj}
    try:
        return replace(base, **given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_axes(obj: dict, defaults: dict, path: str) -> dict:
    _require_keys(obj, set(AXES), path)
    return {**defaults, **{axis: _read_section(sub, defaults[axis],
                                               f"{path}.{axis}")
                           for axis, sub in obj.items()}}


def _parse_tolerance(obj, path: str) -> ToleranceBounds:
    if isinstance(obj, str):
        if obj not in TOLERANCE_STANDARDS:
            raise ConfigError(f"{path}: unknown standard {obj!r}; choose from "
                              f"{sorted(TOLERANCE_STANDARDS)}")
        return TOLERANCE_STANDARDS[obj]
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a standard name or bounds object")
    return _read_section(obj, DEFAULT_FLOW.tolerance, path)


def _parse_flow(obj: dict, path: str) -> FlowSpec:
    named = ("standard", "tolerance")
    flow = _read_section(obj, DEFAULT_FLOW, path, named)
    given = [key for key in named if key in obj]
    if len(given) > 1:
        raise ConfigError(f"{path}: give either 'standard' or 'tolerance'")
    for key in given:
        flow = replace(flow, tolerance=_parse_tolerance(obj[key],
                                                        f"{path}.{key}"))
    return flow


def default_config() -> ConfigFile:
    return ConfigFile()


def parse_config(data: dict) -> ConfigFile:
    """Build a resolved ConfigFile from a parsed JSON object; keys it
    leaves out take ConfigFile's defaults."""
    allowed = {"schema_version", "distributions", "ou", "flows", "geometry",
               "mc", "analytic", "output"}
    _require_keys(data, allowed, "")
    version = data.get("schema_version", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")

    kw: dict[str, Any] = {}
    if "distributions" in data:
        kw["distributions"] = _read_axes(data["distributions"], JOHNSON_FTE,
                                         "distributions")
    if "ou" in data:
        kw["ou"] = _read_axes(data["ou"], OU_FTE_CENTERED, "ou")
    if "flows" in data:
        flows = data["flows"]
        if not isinstance(flows, list):
            raise ConfigError("flows must be a list")
        kw["flows"] = [_parse_flow(f, f"flows[{i}]")
                       for i, f in enumerate(flows)]
    if "geometry" in data:
        kw["geometry"] = _read_section(data["geometry"], DEFAULT_GEOMETRY,
                                       "geometry")
    mc = data.get("mc", {})
    if isinstance(mc, dict) and mc.get("count_full_horizon",
                                       False) is not False:
        raise ConfigError("mc.count_full_horizon was removed: each aircraft "
                          "is scored only while it is in the sector; drop "
                          "the key")
    _require_keys(mc, set(MC_KEYS), "mc")
    # a float default marks a number; ConfigFile checks the other keys
    kw.update({key: _get_num(mc, key, "mc")
               if isinstance(getattr(ConfigFile, key), float) else mc[key]
               for key in MC_KEYS if key in mc})
    _require_keys(data.get("analytic", {}), set(), "analytic")
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
