"""Command-line front end.

Commands: generate, calibrate, analytic, simulate, compare, safe-zone.
All tabular output is CSV with fixed headers (or JSON via --format or
the config's output.format), prefixed by a provenance comment block
(tool version, config hash, and the seed for the commands that draw)
sufficient to reproduce the numeric payload byte for byte. A count
table also records its own horizon_min, unless its law has no time
window (the crossing's occupancy and conflict tables); compare refuses
two tables whose recorded horizons differ (exit 3). analytic
and simulate both read the loaded config.ConfigFile; simulate runs a
copy carrying its --runs and --seed overrides, while provenance and
config_resolved.json describe the config as loaded. calibrate and
compare read no config and record no config hash.

Exit codes: 0 success, 2 config or usage error, 3 data error, 4
numerical failure, 5 comparison failure.
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
from .distributions import johnson_sample
from .flow import solve_safe_zone
from .harness import (EmpiricalPmf, McEstimate, compare as compare_pmfs,
                      run_crossing, run_multilane, run_single_lane)
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
                seed: int | None = None) -> dict:
    """Provenance block; the config hash only for commands that read a
    config, seed and stream_id only for commands that draw."""
    prov = {"schema_version": SCHEMA_VERSION,
            "tool": f"{TOOL_NAME} {TOOL_VERSION}"}
    if cfg is not None:
        prov["config_sha256"] = cfg.sha256()
    if seed is not None:
        prov.update(seed=seed, stream_id=cfg.stream_id)
    prov.update(extra)
    return prov


def _with_horizon(prov: dict, horizon: float | None) -> dict:
    """A table's provenance: prov plus the horizon its counts refer to,
    omitted for window-free laws."""
    return prov if horizon is None else {**prov, "horizon_min": horizon}


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


def _write_resolved_config(cfg: ConfigFile, out_dir: str) -> None:
    _atomic_write(os.path.join(out_dir, "config_resolved.json"),
                  json.dumps(cfg.to_canonical_dict(), indent=2,
                             sort_keys=True) + "\n")


# --- commands -------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load(args)
    seed = args.seed if args.seed is not None else cfg.seed
    axis = args.axis
    col = AXIS_COLUMNS[axis]
    prov = _provenance(cfg, {"command": "generate", "axis": axis,
                             "n": args.n}, seed)
    if args.n == 0:
        rows: list[list] = []
    else:
        src = RandomSource(seed, cfg.stream_id)
        samples = johnson_sample(cfg.distributions[axis], src, args.n)
        rows = [[float(v)] for v in samples]
    _write_table(args.out, _format(args, cfg), prov, [col], rows)
    return EXIT_OK


def _read_series_csv(path: str) -> dict[str, np.ndarray]:
    """Read axis columns from a headered CSV; diagnostics carry row/col."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    known = set(AXIS_COLUMNS.values())
    columns = {name.strip(): [] for name in header}
    if not known & set(columns):
        raise DataError(f"{path}: no axis column among {sorted(known)} "
                        f"in header {header}")
    for i, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, "
                            f"expected {len(header)}")
        for name, val in zip(columns, row):
            try:
                columns[name].append(float(val))
            except ValueError:
                raise DataError(f"{path}: row {i}, column {name!r}: "
                                f"not a number: {val!r}") from None
    by_axis = {}
    for axis, col in AXIS_COLUMNS.items():
        if col in columns and columns[col]:
            by_axis[axis] = np.asarray(columns[col])
    if not by_axis:
        raise DataError(f"{path}: axis columns present but empty")
    return by_axis


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
    series = _read_series_csv(args.input)
    methods = {"ls": ["least_squares"], "mle": ["mle"],
               "both": ["least_squares", "mle"]}[args.method]
    body: dict = {"series": args.input, "reports": {}}
    for axis, values in series.items():
        ts = calibration.TimeSeries(values, dt=args.dt)
        body["reports"][axis] = {}
        for method in methods:
            fit = (calibration.fit_least_squares if method == "least_squares"
                   else calibration.fit_mle)
            try:
                rep = fit(ts)
            except calibration.DegenerateDataError as exc:
                body["reports"][axis][method] = {"error": str(exc)}
                continue
            body["reports"][axis][method] = _report_dict(rep)
        ls_rep = body["reports"][axis].get("least_squares")
        ml_rep = body["reports"][axis].get("mle")
        if (ls_rep and ml_rep and ls_rep.get("kappa_per_min")
                and ml_rep.get("kappa_per_min")):
            body["reports"][axis]["methods_coincide"] = {
                "kappa_rel_gap": abs(ml_rep["kappa_per_min"]
                                     - ls_rep["kappa_per_min"])
                / abs(ls_rep["kappa_per_min"]),
                "mu_rel_gap": (abs(ml_rep["mu"] - ls_rep["mu"])
                               / abs(ls_rep["mu"]) if ls_rep["mu"] else None),
            }
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
    fmt = _format(args, cfg)
    out_dir = args.out
    prov = _provenance(cfg, {"command": "analytic", "kind": cfg.kind})
    densities = {}
    if cfg.kind == "single_lane":
        tables = analytic_single_lane(cfg.flows[0], cfg.ou, cfg.horizon_min,
                                      cfg.obs_dt_min, densities_out=densities)
    elif cfg.kind == "multilane":
        tables = analytic_multilane(cfg.flows, cfg.ou, cfg.horizon_min,
                                    cfg.obs_dt_min)
    else:
        tables = analytic_crossing(cfg.geometry, cfg.flows, cfg.ou,
                                   cfg.obs_dt_min)
    os.makedirs(out_dir, exist_ok=True)
    _write_resolved_config(cfg, out_dir)
    for name, pmf in tables.items():
        path = os.path.join(out_dir, f"analytic_{name}.{fmt}")
        _write_table(path, fmt, _with_horizon(prov, pmf.horizon),
                     ["n", "prob"], _pmf_rows(pmf))
    for axis, grid in densities.items():
        path = os.path.join(out_dir, f"density_{axis}.{fmt}")
        rows = [[float(t), float(v)]
                for t, v in zip(grid.times, grid.values)]
        _write_table(path, fmt, prov, ["t_min", "value"], rows)
    return EXIT_OK


def _estimate_tables(est: McEstimate) -> dict[str, tuple[list[str], list[list]]]:
    out = {}
    for name, emp in est.components.items():
        lo, hi = emp.ci
        rows = [[int(n), float(p), float(l), float(h), int(b)]
                for n, (p, l, h, b) in enumerate(zip(emp.probs, lo, hi,
                                                     emp.below_floor))]
        out[name] = (["n", "prob", "ci_lo", "ci_hi", "below_floor"], rows)
    return out


def cmd_simulate(args) -> int:
    cfg = _load(args)
    run = replace(cfg, n_runs=args.runs or cfg.resolved_runs(),
                  seed=cfg.seed if args.seed is None else args.seed)
    runner = {"single_lane": run_single_lane, "multilane": run_multilane,
              "crossing": run_crossing}[run.kind]
    est = runner(run)
    prov = _provenance(cfg, {
        "command": "simulate", "kind": run.kind,
        "n_runs": run.n_runs, "n_aircraft": est.n_aircraft}, run.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_resolved_config(cfg, args.out)
    fmt = _format(args, cfg)
    for name, (header, rows) in _estimate_tables(est).items():
        path = os.path.join(args.out, f"mc_{name}.{fmt}")
        horizon = est.components[name].horizon
        _write_table(path, fmt, _with_horizon(prov, horizon), header, rows)
    return EXIT_OK


def _read_pmf_table(path: str
                    ) -> tuple[np.ndarray, float, int | None, float | None]:
    """(probs, truncation, n_runs, horizon_min) from a written table; a
    value its provenance does not record is None."""
    probs = []
    trunc = 0.0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".json"):
        try:
            payload = json.loads("\n".join(lines))
            rows, prov = payload["rows"], payload.get("provenance", {})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: not a JSON table: {exc!r}") from None
    else:
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        rows = list(csv.reader(body))[1:]
        prov = dict(ln[2:].partition("=")[::2] for ln in lines
                    if ln.startswith("# "))
    for row in rows:
        try:
            if row[0] == "truncation":
                trunc = float(row[1])
            else:
                probs.append(float(row[1]))
        except (IndexError, KeyError, TypeError, ValueError):
            raise DataError(f"{path}: malformed PMF row {row!r}") from None
    if not probs:
        raise DataError(f"{path}: no PMF rows")
    recorded = []
    for key, cast in (("n_runs", int), ("horizon_min", float)):
        val = prov.get(key)
        try:
            recorded.append(None if val is None else cast(val))
        except (TypeError, ValueError):
            raise DataError(f"{path}: bad {key} {val!r}") from None
    return np.asarray(probs), trunc, *recorded


def cmd_compare(args) -> int:
    a_probs, a_trunc, _, a_horizon = _read_pmf_table(args.analytic)
    m_probs, _, recorded_runs, m_horizon = _read_pmf_table(args.mc)
    if not same_horizon(a_horizon, m_horizon):
        raise DataError(f"{args.analytic} counts over horizon_min="
                        f"{a_horizon} but {args.mc} over horizon_min="
                        f"{m_horizon}; the tables are not comparable")
    analytic = TaskloadPmf(a_probs, a_trunc, a_horizon)
    n_runs = args.runs or recorded_runs
    if not n_runs:
        raise DataError(f"{args.mc}: no n_runs in its provenance; "
                        f"give --runs")
    counts = np.rint(m_probs * n_runs).astype(np.int64)
    mc = EmpiricalPmf(counts, int(counts.sum()), 0, m_horizon)
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
    geom = cfg.geometry
    if args.alpha is not None:
        geom = replace(geom, alpha_deg=args.alpha)
    solved = solve_safe_zone(geom)
    prov = _provenance(cfg, {"command": "safe-zone"})
    header = ["alpha_deg", "e1_nm", "e2_nm", "d_min_nm", "x1_nm", "x2_nm",
              "t_safe_min"]
    rows = [[float(solved.alpha_deg), float(solved.e1_nm), float(solved.e2_nm),
             float(solved.d_min_nm), float(solved.x1_nm), float(solved.x2_nm),
             float(solved.t_safe_min)]]
    _write_table(args.out, _format(args, cfg), prov, header, rows)
    return EXIT_OK


# --- wiring ----------------------------------------------------------------

def _format(args, cfg: ConfigFile) -> str:
    return args.format or cfg.output_format


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


_RUNS = _checked(int, lambda n: n >= 1, "a run count >= 1")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="table format (default: the config's "
                          "output.format, csv)")


@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskload",
        description="Controller-taskload analytics and Monte Carlo "
                    "simulation for RNP flow corridors")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="write synthetic FTE samples")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's mc.seed")
    p.add_argument("--axis", choices=("lateral", "vertical", "longitudinal"),
                   required=True)
    p.add_argument("-n", required=True, help="sample count",
                   type=_checked(int, lambda n: n >= 0, "a count >= 0"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("calibrate", help="fit dynamics to a deviation "
                        "series; writes a JSON report")
    p.add_argument("--in", dest="input", required=True, help="input CSV")
    p.add_argument("--method", choices=("ls", "mle", "both"), default="both")
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
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's mc.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=_RUNS, default=None,
                   help="override the config's run count")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("compare", help="TV comparison of two PMF tables")
    p.add_argument("--analytic", required=True)
    p.add_argument("--mc", required=True)
    p.add_argument("--tv", default=0.02,
                   help="TV distance threshold (default 0.02)",
                   type=_checked(float, lambda t: 0.0 < t <= 1.0,
                                 "a threshold in (0, 1]"))
    p.add_argument("--runs", type=_RUNS, default=None,
                   help="MC run count behind the estimate (default: the "
                        "n_runs in its provenance)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("safe-zone", help="solve crossing safe-zone bounds")
    _add_common(p)
    p.add_argument("--alpha", default=None,
                   help="crossing angle override (degrees)",
                   type=_checked(float, lambda a: 0.0 < a < 180.0,
                                 "an angle in (0, 180) degrees"))
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
    except (ValueError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
