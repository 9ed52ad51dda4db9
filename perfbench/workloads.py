"""The benchmark's workloads: generated configs and output checks.

Each workload is one or more scenario configs, generated from the
workload seed, that the benchmark feeds to ``taskload analytic`` and
``taskload simulate``. After each command the written tables are read
back and checked against the independent reference in ``reference.py``
or against a property the method must have, never against stored
output.

Statistical checks allow ``Z_MAX`` standard errors. Analytic-route
errors come from the oracle's path count; Monte Carlo errors from the
run's own sample variance, floored at the reference mean: every Monte
Carlo count checked that way is compound Poisson (a Poisson number of
aircraft, each adding a whole count), whose variance is at least its
mean, and the floor keeps a run that saw only a few events from
claiming a spread it cannot estimate.
"""

from __future__ import annotations

import csv
import glob
import math
import os

import numpy as np
from scipy.special import gammaln

import reference

Z_MAX = 5.0
MASS_TOL = 1e-9
OCCUPANCY_TOL = 1e-9
T_SAFE_RTOL = 1e-6

AXES = ("lateral", "vertical", "longitudinal")
BOUND_KEYS = {"lateral": "lateral_nm", "vertical": "vertical_ft",
              "longitudinal": "longitudinal_nm"}

# The paper's fitted per-axis dynamics, centred on the nominal path
# (NM, ft, NM; kappa per minute).
PAPER_OU = {
    "lateral": {"kappa": 3.492, "mu": 0.0, "sigma": 7.27e-2},
    "vertical": {"kappa": 1.841, "mu": 0.0, "sigma": 8.683},
    "longitudinal": {"kappa": 2.1662, "mu": 0.0, "sigma": 0.2774},
}
STRINGENT = {"lateral_nm": 0.1, "vertical_ft": 20.0, "longitudinal_nm": 0.5}

# scenario -> (lane intensities per hour, mc kind, Monte Carlo runs per
# simulate, oracle paths, crossing geometry). Run and path counts keep a
# round under a second, so one run times dozens of rounds.
SCENARIOS = {
    "lane_dense": ([60.0], "single_lane", 100, 20_000, None),
    "multilane_sparse": ([5.0, 5.0, 5.0], "multilane", 60, 10_000, None),
    "crossing": ([5.0, 5.0], "crossing", 1000, 200_000,
                 {"alpha_deg": 90.0, "e1_nm": 1.0, "e2_nm": 1.0,
                  "d_min_nm": 5.0, "speed_kt": 480.0}),
}


# workload -> the scenarios one round runs, each analytic then simulate
WORKLOADS = {
    "lane_dense": ("lane_dense",),
    "sparse": ("multilane_sparse", "crossing"),
}


def make_config(scenario: str, seed: int) -> dict:
    """The config of one scenario; the seed drives every draw."""
    intensities, kind, n_runs, oracle_paths, geometry = SCENARIOS[scenario]
    cfg = {
        "schema_version": 1,
        "ou": PAPER_OU,
        "flows": [{"intensity_per_hour": lam, "t_cross_min": 20.0,
                   "speed_kt": 480.0, "tolerance": STRINGENT}
                  for lam in intensities],
        "mc": {"kind": kind, "horizon_min": 120.0, "dt_min": 0.1,
               "obs_dt_min": 1.0, "n_runs": n_runs, "seed": seed},
        "analytic": {"oracle_paths": oracle_paths},
    }
    if geometry is not None:
        cfg["geometry"] = geometry
    return cfg


# --- reading written tables ---------------------------------------------

def read_table(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """(provenance, header, rows) of a CSV table with a '# key=value' block."""
    prov = {}
    body = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                prov[key] = val
            elif line.strip():
                body.append(line)
    rows = list(csv.reader(body))
    return prov, rows[0], rows[1:]


def read_pmf(path: str) -> tuple[dict, np.ndarray, float]:
    """(provenance, probs, truncation mass) of a count table."""
    prov, header, rows = read_table(path)
    if header[:2] != ["n", "prob"]:
        raise ValueError(f"{path}: unexpected header {header}")
    probs, trunc = [], 0.0
    for row in rows:
        if row[0] == "truncation":
            trunc = float(row[1])
        else:
            if int(row[0]) != len(probs):
                raise ValueError(f"{path}: count {row[0]} out of order")
            probs.append(float(row[1]))
    return prov, np.asarray(probs), trunc


def pmf_moments(probs: np.ndarray) -> tuple[float, float]:
    n = np.arange(probs.size)
    mean = float(n @ probs)
    return mean, float((n * n) @ probs) - mean * mean


class Checker:
    """Collects the failed checks of one command and the worst |z| seen."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst_z = 0.0

    def z(self, name: str, got: float, want: float, se: float) -> None:
        z = (got - want) / se if se > 0.0 else (
            0.0 if got == want else math.inf)
        self.worst_z = max(self.worst_z, abs(z))
        if not abs(z) <= Z_MAX:
            self.failures.append(f"{name}: {got:.8g} vs reference "
                                 f"{want:.8g} (z = {z:.2f})")

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self.failures.append(f"{name}: {got:.12g} vs {want:.12g} "
                                 f"(tolerance {tol:g})")

    def mass(self, path: str) -> tuple[dict, np.ndarray]:
        prov, probs, trunc = read_pmf(path)
        self.close(f"{os.path.basename(path)} mass", probs.sum() + trunc,
                   1.0, MASS_TOL)
        return prov, probs

    def mc_mean(self, name: str, probs: np.ndarray, n_runs: int,
                want: float) -> None:
        mean, var = pmf_moments(probs)
        var *= n_runs / max(n_runs - 1, 1)
        self.z(name, mean, want, math.sqrt(max(var, want) / n_runs))


# --- the expected values ------------------------------------------------

class Expected:
    """Reference quantities for one generated config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        mc = cfg["mc"]
        self.horizon = mc["horizon_min"]
        self.obs_dt = mc["obs_dt_min"]
        self.n_runs = mc["n_runs"]
        self.n_paths = cfg["analytic"]["oracle_paths"]
        self.flows = cfg["flows"]
        self.n_obs_horizon = math.floor(self.horizon / self.obs_dt + 1e-9)
        self._f: dict = {}
        self.t_safe = None
        if "geometry" in cfg:
            g = cfg["geometry"]
            x = reference.safe_zone_half_length(g["alpha_deg"], g["e1_nm"],
                                                g["e2_nm"], g["d_min_nm"])
            self.t_safe = 2.0 * x / (g["speed_kt"] / 60.0)

    def first_hit(self, axis: str, flow: dict) -> np.ndarray:
        """First-hit law over the whole horizon for one axis of a flow."""
        bound = flow["tolerance"][BOUND_KEYS[axis]]
        key = (axis, bound)
        if key not in self._f:
            p = self.cfg["ou"][axis]
            self._f[key] = reference.first_hit_pmf(
                p["kappa"], p["mu"], p["sigma"], self.obs_dt, bound,
                self.n_obs_horizon)
        return self._f[key]

    def obs_per_aircraft(self, residency: float) -> int:
        return math.floor(residency / self.obs_dt + 1e-9)

    def lane_analytic(self, flow: dict, axis: str) -> tuple[float, float]:
        """(mean, se) of the analytic lane count on one axis: a Poisson
        number of aircraft, each scored over the whole horizon."""
        f = self.first_hit(axis, flow)
        occ = flow["intensity_per_hour"] / 60.0 * flow["t_cross_min"]
        mean = occ * float(reference.hit_per_obs(f)[1:].sum())
        return mean, occ * reference.renewal_mean_se(
            f, self.n_obs_horizon, self.n_paths)

    def lane_mc_mean(self, flow: dict, axis: str) -> float:
        """Mean count per run on one axis: entries at rate lambda, each
        aircraft scored at its in-window observations while in the lane."""
        h = reference.hit_per_obs(self.first_hit(axis, flow))
        m = self.obs_per_aircraft(flow["t_cross_min"])
        return flow["intensity_per_hour"] / 60.0 * self.horizon \
            * float(h[1:m + 1].sum())

    def mc_aircraft(self, residency: float) -> float:
        """Expected aircraft per run, summed over the flows."""
        return sum(f["intensity_per_hour"] / 60.0
                   for f in self.flows) * (self.horizon + residency)


def check_lane_dense_analytic(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    flow = exp.flows[0]
    tot_mean, tot_var = 0.0, 0.0
    for axis in AXES:
        mean, se = exp.lane_analytic(flow, axis)
        tot_mean += mean
        tot_var += se * se
        _, probs = chk.mass(os.path.join(out_dir, f"analytic_{axis}.csv"))
        chk.z(f"analytic {axis} mean", pmf_moments(probs)[0], mean, se)
        _, _, rows = read_table(os.path.join(out_dir, f"density_{axis}.csv"))
        t = np.array([float(r[0]) for r in rows])
        v = np.array([float(r[1]) for r in rows])
        p_hit = float(exp.first_hit(axis, flow)[1:].sum())
        chk.z(f"density {axis} integral", float(np.trapezoid(v, t)), p_hit,
              math.sqrt(p_hit * (1.0 - p_hit) / exp.n_paths))
    _, probs = chk.mass(os.path.join(out_dir, "analytic_total.csv"))
    chk.z("analytic total mean", pmf_moments(probs)[0], tot_mean,
          math.sqrt(tot_var))
    return chk


def _mc_provenance(chk: Checker, prov: dict, exp: Expected,
                   residency: float) -> None:
    if int(prov.get("n_runs", -1)) != exp.n_runs:
        chk.failures.append(f"provenance n_runs={prov.get('n_runs')}, "
                            f"requested {exp.n_runs}")
    want = exp.mc_aircraft(residency) * exp.n_runs
    chk.z("n_aircraft", float(prov.get("n_aircraft", "nan")), want,
          math.sqrt(want))


def check_lane_dense_mc(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    flow = exp.flows[0]
    total = 0.0
    for axis in AXES:
        prov, probs = chk.mass(os.path.join(out_dir, f"mc_{axis}.csv"))
        want = exp.lane_mc_mean(flow, axis)
        total += want
        chk.mc_mean(f"mc {axis} mean", probs, exp.n_runs, want)
    prov, probs = chk.mass(os.path.join(out_dir, "mc_total.csv"))
    chk.mc_mean("mc total mean", probs, exp.n_runs, total)
    _mc_provenance(chk, prov, exp, flow["t_cross_min"])
    return chk


def check_multilane_analytic(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    for path in sorted(glob.glob(os.path.join(out_dir, "analytic_*.csv"))):
        chk.mass(path)
    mean, var = 0.0, 0.0
    for k, flow in enumerate(exp.flows, start=1):
        for axis in AXES:
            m, se = exp.lane_analytic(flow, axis)
            mean += m
            var += se * se
        _, probs, _ = read_pmf(os.path.join(out_dir,
                                            f"analytic_lanes{k}_total.csv"))
        chk.z(f"analytic lanes{k}_total mean", pmf_moments(probs)[0], mean,
              math.sqrt(var))
    return chk


def check_multilane_mc(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    for path in sorted(glob.glob(os.path.join(out_dir, "mc_*.csv"))):
        prov, _ = chk.mass(path)
    want = 0.0
    for k, flow in enumerate(exp.flows, start=1):
        want += sum(exp.lane_mc_mean(flow, axis) for axis in AXES)
        _, probs, _ = read_pmf(os.path.join(out_dir,
                                            f"mc_lanes{k}_total.csv"))
        chk.mc_mean(f"mc lanes{k}_total mean", probs, exp.n_runs, want)
    _mc_provenance(chk, prov, exp, exp.flows[0]["t_cross_min"])
    return chk


def _transit_count(exp: Expected) -> tuple[float, float]:
    """(mean, variance) of one aircraft's zone-transit count, all axes."""
    m_obs = exp.obs_per_aircraft(exp.t_safe)
    mean, var = 0.0, 0.0
    for axis in AXES:
        e1, e2 = reference.count_moments(exp.first_hit(axis, exp.flows[0]),
                                         m_obs)
        mean += e1
        var += e2 - e1 * e1
    return mean, var


def check_crossing_analytic(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    for path in sorted(glob.glob(os.path.join(out_dir, "analytic_*.csv"))):
        chk.mass(path)
    rate = sum(f["intensity_per_hour"] for f in exp.flows) / 60.0
    mu = rate * exp.t_safe
    _, occ, _ = read_pmf(os.path.join(out_dir, "analytic_occupancy.csv"))
    t_prog = -math.log(occ[0]) / rate
    chk.close("safe-zone transit time", t_prog / exp.t_safe, 1.0, T_SAFE_RTOL)
    k = np.arange(occ.size)
    poisson = np.exp(k * math.log(mu) - mu - gammaln(k + 1.0))
    chk.close("occupancy vs Poisson", float(np.max(np.abs(occ - poisson))),
              0.0, OCCUPANCY_TOL)
    _, conf, _ = read_pmf(os.path.join(out_dir,
                                       "analytic_conflict_resolution.csv"))
    chk.close("analytic conflict mean", pmf_moments(conf)[0],
              mu - 1.0 + math.exp(-mu), OCCUPANCY_TOL)
    mean, var = _transit_count(exp)
    _, dev, _ = read_pmf(os.path.join(out_dir,
                                      "analytic_deviation_control.csv"))
    chk.z("analytic deviation-control mean", pmf_moments(dev)[0], mu * mean,
          mu * math.sqrt(var / exp.n_paths))
    return chk


def check_crossing_mc(out_dir: str, exp: Expected) -> Checker:
    chk = Checker()
    for path in sorted(glob.glob(os.path.join(out_dir, "mc_*.csv"))):
        prov, _ = chk.mass(path)
    rate = sum(f["intensity_per_hour"] for f in exp.flows) / 60.0
    mu = rate * exp.t_safe
    want = mu - 1.0 + math.exp(-mu)
    # max(A - 1, 0) with A ~ Poisson(mu): its exact variance
    var = mu + (mu - 1.0) ** 2 - math.exp(-mu) - want * want
    _, conf, _ = read_pmf(os.path.join(out_dir, "mc_conflict_resolution.csv"))
    chk.z("mc conflict mean", pmf_moments(conf)[0], want,
          math.sqrt(var / exp.n_runs))
    m_obs = exp.obs_per_aircraft(exp.t_safe)
    per_obs = sum(float(reference.hit_per_obs(
        exp.first_hit(axis, exp.flows[0]))[1:m_obs + 1].sum()) for axis in AXES)
    _, dev, _ = read_pmf(os.path.join(out_dir, "mc_deviation_control.csv"))
    chk.mc_mean("mc deviation-control mean", dev, exp.n_runs,
                rate * exp.horizon * per_obs)
    _mc_provenance(chk, prov, exp, exp.t_safe)
    return chk


CHECKS = {
    "lane_dense": (check_lane_dense_analytic, check_lane_dense_mc),
    "multilane_sparse": (check_multilane_analytic, check_multilane_mc),
    "crossing": (check_crossing_analytic, check_crossing_mc),
}
