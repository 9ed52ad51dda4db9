"""Command-line front end.

Commands: generate, calibrate, analytic, simulate, compare, safe-zone.
All tabular output is CSV with fixed headers (or JSON when the config's
output.format says so), prefixed by a provenance comment block
(tool version, config hash, and the seed for the commands that draw)
sufficient to reproduce the numeric payload byte for byte. analytic and
simulate write through one writer, _write_result_set: each count table
records its own horizon_min, unless its law has no time window (the
crossing's occupancy and conflict tables); compare refuses two tables
whose recorded horizons differ (exit 3). No flag overrides a number or
the format: they come only from the config, so a table, its config hash
and config_resolved.json always describe the same run. calibrate and
compare read no config and record no config hash; they read tables
through one reader, _read_table, which tells JSON from CSV by content,
and compare takes the run count behind a Monte Carlo table from that
table's provenance.

Exit codes: 0 success, 2 config or usage error (an output path that
cannot be written included), 3 data error, 4 numerical failure, 5
comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import calibration
from .config import (SCHEMA_VERSION, TOOL_NAME, TOOL_VERSION, ConfigError,
                     ConfigFile, default_config, load_config)
from .distributions import AXES, johnson_sample
from .flow import solve_safe_zone
from .harness import (EmpiricalPmf, compare as compare_pmfs, run_crossing,
                      run_multilane, run_single_lane)
from .pipeline import (analytic_crossing, analytic_multilane,
                       analytic_single_lane)
from .pmf import TaskloadPmf, same_horizon
from .rng import RandomSource

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_COMPARE = 5

AXIS_COLUMNS = {"lateral": "lat_nm", "vertical": "vert_ft",
                "longitudinal": "long_nm"}


class DataError(Exception):
    pass


def _atomic_write(path: str, payload: str) -> None:
    """Write-then-rename so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance(cfg: ConfigFile | None, extra: dict,
                draws: bool = False) -> dict:
    """Provenance block; the config hash only for commands that read a
    config, the config's seed and stream_id only for commands that
    draw."""
    prov = {"schema_version": SCHEMA_VERSION,
            "tool": f"{TOOL_NAME} {TOOL_VERSION}"}
    if cfg is not None:
        prov["config_sha256"] = cfg.sha256()
    if draws:
        prov.update(seed=cfg.seed, stream_id=cfg.stream_id)
    prov.update(extra)
    return prov


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_payload(prov: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for key, val in prov.items():
        buf.write(f"# {key}={val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_payload(prov: dict, body: dict) -> str:
    return json.dumps({"provenance": prov, **body}, indent=2,
                      sort_keys=True) + "\n"


def _write(path: str | None, payload: str) -> None:
    """Write payload to path, or to stdout when no path is given."""
    if path:
        _atomic_write(path, payload)
    else:
        sys.stdout.write(payload)


def _write_table(path: str | None, fmt: str, prov: dict, header: list[str],
                 rows: list[list]) -> None:
    if fmt == "json":
        body = {"columns": header,
                "rows": [[float(v) if isinstance(v, (int, float)) else v
                          for v in row] for row in rows]}
        _write(path, _json_payload(prov, body))
    else:
        _write(path, _csv_payload(prov, header, rows))


def _pmf_rows(pmf: TaskloadPmf) -> list[list]:
    return [[int(n), float(p)] for n, p in enumerate(pmf.probs)] + \
        [["truncation", float(pmf.truncation_mass)]]


def _write_result_set(cfg: ConfigFile, out_dir: str, prov: dict,
                      tables: dict[str, tuple[float | None, list[str],
                                              list[list]]]) -> None:
    """Write config_resolved.json, then each table name -> (horizon,
    header, rows) as <name>.<format>; a None horizon is not recorded."""
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "config_resolved.json"),
                  json.dumps(cfg.to_canonical_dict(), indent=2,
                             sort_keys=True) + "\n")
    fmt = cfg.output_format
    for name, (horizon, header, rows) in tables.items():
        extra = {} if horizon is None else {"horizon_min": horizon}
        _write_table(os.path.join(out_dir, f"{name}.{fmt}"), fmt,
                     {**prov, **extra}, header, rows)


# --- commands -------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load(args)
    axis = args.axis
    col = AXIS_COLUMNS[axis]
    prov = _provenance(cfg, {"command": "generate", "axis": axis,
                             "n": args.n}, draws=True)
    if args.n == 0:
        rows: list[list] = []
    else:
        src = RandomSource(cfg.seed, cfg.stream_id)
        samples = johnson_sample(cfg.distributions[axis], src, args.n)
        rows = [[float(v)] for v in samples]
    _write_table(args.out, cfg.output_format, prov, [col], rows)
    return EXIT_OK


def _read_table(path: str) -> tuple[dict, list[str], list]:
    """(provenance, columns, rows) of a table written as JSON (its text
    starts with '{') or as CSV (read as strings, after a '# key=value'
    block), whatever the file's name."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            prov, rows = payload.get("provenance", {}), payload["rows"]
            columns = [str(name) for name in payload.get("columns", [])]
            if not isinstance(prov, dict) or not all(
                    isinstance(v, list) for v in (rows, *rows)):
                raise TypeError("provenance must be an object, and rows "
                                "and each row lists")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: not a JSON table: {exc!r}") from None
        return prov, columns, rows
    lines = text.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise DataError(f"{path}: empty file")
    header, *rows = csv.reader(body)
    prov = dict(ln[2:].partition("=")[::2] for ln in lines
                if ln.startswith("# "))
    return prov, [name.strip() for name in header], rows


def _read_series(path: str) -> dict[str, np.ndarray]:
    """Axis columns of a table; diagnostics carry row (the header is row
    1) and column."""
    _, header, rows = _read_table(path)
    known = set(AXIS_COLUMNS.values())
    if not known & set(header):
        raise DataError(f"{path}: no axis column among {sorted(known)} "
                        f"in header {header}")
    columns = {name: [] for name in header}
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, "
                            f"expected {len(header)}")
        for name, val in zip(columns, row):
            try:
                columns[name].append(float(val))
            except (TypeError, ValueError):
                raise DataError(f"{path}: row {i}, column {name!r}: "
                                f"not a number: {val!r}") from None
    if not rows:
        raise DataError(f"{path}: axis columns present but empty")
    return {axis: np.asarray(columns[col])
            for axis, col in AXIS_COLUMNS.items() if col in columns}


def _report_dict(rep: calibration.CalibrationReport) -> dict:
    params = rep.params
    return {
        "method": rep.method,
        "kappa_per_min": params.kappa if params else None,
        "mu": params.mu if params else None,
        "sigma": params.sigma if params else None,
        "a_hat": rep.a_hat,
        "b_hat": rep.b_hat,
        "sigma_eps_hat": rep.sigma_eps_hat,
        "loglik": rep.loglik if np.isfinite(rep.loglik) else None,
        "stationary_sd": (rep.stationary_sd
                          if np.isfinite(rep.stationary_sd) else None),
        "n_transitions": rep.n_transitions,
        "dt_min": rep.dt,
        "flags": rep.flags,
    }


def cmd_calibrate(args) -> int:
    series = _read_series(args.input)
    body: dict = {"series": args.input, "reports": {}}
    for axis, values in series.items():
        try:
            ts = calibration.TimeSeries(values, dt=args.dt)
        except ValueError as exc:
            raise DataError(f"{args.input}: {axis} series: {exc}") from None
        body["reports"][axis] = {}
        for method, fit in (("least_squares", calibration.fit_least_squares),
                            ("mle", calibration.fit_mle)):
            try:
                rep = fit(ts)
            except calibration.DegenerateDataError as exc:
                body["reports"][axis][method] = {"error": str(exc)}
                continue
            body["reports"][axis][method] = _report_dict(rep)
        try:
            mom = calibration.sample_moments(ts)
            body["reports"][axis]["sample_moments"] = {
                "mu1": mom.mu1, "mu2": mom.mu2,
                "beta1": mom.beta1, "beta2": mom.beta2}
        except (calibration.DegenerateDataError, ValueError) as exc:
            body["reports"][axis]["sample_moments"] = {"error": str(exc)}
    prov = _provenance(None, {"command": "calibrate"})
    _atomic_write(args.out, _json_payload(prov, body))
    return EXIT_OK


def cmd_analytic(args) -> int:
    cfg = _load(args)
    prov = _provenance(cfg, {"command": "analytic", "kind": cfg.kind})
    densities = {}
    if cfg.kind == "single_lane":
        laws = analytic_single_lane(cfg.flows[0], cfg.ou, cfg.horizon_min,
                                    cfg.obs_dt_min, densities_out=densities)
    elif cfg.kind == "multilane":
        laws = analytic_multilane(cfg.flows, cfg.ou, cfg.horizon_min,
                                  cfg.obs_dt_min)
    else:
        laws = analytic_crossing(cfg.geometry, cfg.flows, cfg.ou,
                                 cfg.obs_dt_min)
    tables = {f"analytic_{name}": (pmf.horizon, ["n", "prob"],
                                   _pmf_rows(pmf))
              for name, pmf in laws.items()}
    for axis, grid in densities.items():
        tables[f"density_{axis}"] = (None, ["t_min", "value"], [
            [float(t), float(v)] for t, v in zip(grid.times, grid.values)])
    _write_result_set(cfg, args.out, prov, tables)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    run = replace(cfg, n_runs=cfg.resolved_runs())
    runner = {"single_lane": run_single_lane, "multilane": run_multilane,
              "crossing": run_crossing}[cfg.kind]
    est = runner(run)
    prov = _provenance(cfg, {
        "command": "simulate", "kind": cfg.kind,
        "n_runs": run.n_runs, "n_aircraft": est.n_aircraft}, draws=True)
    tables = {}
    for name, emp in est.components.items():
        lo, hi = emp.ci
        rows = [[int(n), float(p), float(l), float(h), int(b)]
                for n, (p, l, h, b) in enumerate(zip(emp.probs, lo, hi,
                                                     emp.below_floor))]
        tables[f"mc_{name}"] = (emp.horizon, ["n", "prob", "ci_lo", "ci_hi",
                                              "below_floor"], rows)
    _write_result_set(cfg, args.out, prov, tables)
    return EXIT_OK


def _read_pmf_table(path: str
                    ) -> tuple[np.ndarray, float, int | None, float | None]:
    """(probs, truncation, n_runs, horizon_min) from a written table; a
    value its provenance does not record is None. Count rows must be
    numbered 0, 1, 2, ... in file order. A recorded n_runs must be an
    integer and horizon_min a finite number, neither a bool."""
    prov, _, rows = _read_table(path)
    probs = []
    trunc = 0.0
    for row in rows:
        try:
            if row[0] == "truncation":
                trunc = float(row[1])
            elif float(row[0]) != len(probs):
                raise DataError(f"{path}: PMF row {row!r} is not numbered "
                                f"n = {len(probs)}")
            else:
                probs.append(float(row[1]))
        except (IndexError, KeyError, TypeError, ValueError):
            raise DataError(f"{path}: malformed PMF row {row!r}") from None
    if not probs:
        raise DataError(f"{path}: no PMF rows")
    recorded = []
    for key, cast in (("n_runs", int), ("horizon_min", float)):
        val = num = prov.get(key)
        try:
            if isinstance(val, str):
                num = cast(val)
            if num is not None and (isinstance(num, bool) or not isinstance(
                    num, (cast, int)) or not math.isfinite(num)):
                raise ValueError
        except (ValueError, OverflowError):
            raise DataError(f"{path}: bad {key} {val!r}") from None
        recorded.append(None if num is None else cast(num))
    return np.asarray(probs), trunc, *recorded


def cmd_compare(args) -> int:
    a_probs, a_trunc, _, a_horizon = _read_pmf_table(args.analytic)
    m_probs, _, n_runs, m_horizon = _read_pmf_table(args.mc)
    if not same_horizon(a_horizon, m_horizon):
        raise DataError(f"{args.analytic} counts over horizon_min="
                        f"{a_horizon} but {args.mc} over horizon_min="
                        f"{m_horizon}; the tables are not comparable")
    analytic = TaskloadPmf(a_probs, a_trunc, a_horizon)
    if n_runs is None or n_runs < 1:
        raise DataError(f"{args.mc}: no n_runs >= 1 in its provenance")
    counts = np.rint(m_probs * n_runs)
    if counts.sum() != n_runs or not np.allclose(counts, m_probs * n_runs,
                                                 rtol=0.0, atol=1e-6):
        raise DataError(f"{args.mc}: probabilities times n_runs={n_runs} "
                        f"are not whole run counts summing to {n_runs}")
    mc = EmpiricalPmf(counts.astype(np.int64), n_runs, 0, m_horizon)
    report = compare_pmfs(analytic, mc, tv_threshold=args.tv)
    body = {
        "tv_distance": report.tv,
        "threshold": report.threshold,
        "passed": report.passed,
        "max_abs_z": float(np.max(np.abs(report.z_scores))),
    }
    prov = _provenance(None, {"command": "compare",
                              "analytic": os.path.basename(args.analytic),
                              "mc": os.path.basename(args.mc)})
    _write(args.out, _json_payload(prov, body))
    return EXIT_OK if report.passed else EXIT_COMPARE


def cmd_safe_zone(args) -> int:
    cfg = _load(args)
    solved = solve_safe_zone(cfg.geometry)
    prov = _provenance(cfg, {"command": "safe-zone"})
    header = ["alpha_deg", "e1_nm", "e2_nm", "d_min_nm", "x1_nm", "x2_nm",
              "t_safe_min"]
    rows = [[float(solved.alpha_deg), float(solved.e1_nm), float(solved.e2_nm),
             float(solved.d_min_nm), float(solved.x1_nm), float(solved.x2_nm),
             float(solved.t_safe_min)]]
    _write_table(args.out, cfg.output_format, prov, header, rows)
    return EXIT_OK


# --- wiring ----------------------------------------------------------------

def _load(args) -> ConfigFile:
    if args.config:
        return load_config(args.config)
    return default_config()


def _checked(cast, ok, what: str):
    """An argparse type: cast, then reject values failing ok (exit 2)."""
    def parse(text: str):
        val = cast(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return val
    parse.__name__ = cast.__name__
    return parse


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON configuration file")


@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskload",
        description="Controller-taskload analytics and Monte Carlo "
                    "simulation for RNP flow corridors")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="write synthetic FTE samples")
    _add_common(p)
    p.add_argument("--axis", choices=AXES, required=True)
    p.add_argument("-n", required=True, help="sample count",
                   type=_checked(int, lambda n: n >= 0, "a count >= 0"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("calibrate", help="fit dynamics to a deviation "
                        "series; writes a JSON report")
    p.add_argument("--in", dest="input", required=True, help="input CSV")
    p.add_argument("--dt", default=1.0,
                   help="sampling step in minutes (default 1)",
                   type=_checked(float, lambda x: 0.0 < x < math.inf,
                                 "a finite step > 0"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("analytic", help="analytic taskload PMF tables")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analytic)

    p = subs.add_parser("simulate", help="Monte Carlo taskload estimate")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("compare", help="TV comparison of two PMF tables")
    p.add_argument("--analytic", required=True)
    p.add_argument("--mc", required=True)
    p.add_argument("--tv", default=0.02,
                   help="TV distance threshold (default 0.02)",
                   type=_checked(float, lambda t: 0.0 < t <= 1.0,
                                 "a threshold in (0, 1]"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("safe-zone", help="solve crossing safe-zone bounds")
    _add_common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_safe_zone)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a read's own is a ConfigError or DataError
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
