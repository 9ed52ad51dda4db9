"""Monte Carlo estimation of corridor taskload PMFs.

Each runner takes the scenario's config.ConfigFile, the same object the
analytic pipeline reads, and makes cfg.resolved_runs() runs. A run is
one horizon-long realization of the scenario. Arrivals are seeded one
residency before the window opens so the sector starts in occupancy
steady state. Each aircraft's three deviation axes evolve independently
through exact mean-reverting transitions; the controller observes
deviations at a fixed surveillance cadence (obs_dt_min, 1 minute by
default) while the aircraft is in the sector, and every observation
beyond an axis bound counts one intervention and returns that axis to
the nominal trajectory. Only observations inside the horizon are
counted. Transitions are exact, so the simulation steps once per
observation, one normal draw per aircraft-axis.

Run r draws from the substream keyed by (seed, stream) and run_offset +
r, so estimates from disjoint run ranges merge by count addition into
exactly the estimate of the combined run range. Blocks of runs are
stacked and scored together; each run still draws from its own
substream in a fixed order, so block boundaries change no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigFile
from .distributions import AXES
from .flow import FlowSpec, solve_safe_zone
from .ou import _observe_and_reset, transition_coeffs
from .pmf import TaskloadPmf, wilson_interval
from .rng import RandomSource

_BLOCK_ROWS = 512  # aircraft rows per engine call; bounds the noise held


@dataclass
class EmpiricalPmf:
    """Per-run count frequencies with binomial CIs and a resolution floor."""

    counts: np.ndarray            # counts[k] = number of runs with total k
    n_runs: int
    n_observations: int           # aircraft-axis observations backing it
    horizon: float | None = None

    def __post_init__(self):
        self.counts = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        if self.counts.sum() != self.n_runs:
            raise ValueError("counts must sum to n_runs")

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.n_runs

    @property
    def ci(self) -> tuple[np.ndarray, np.ndarray]:
        return wilson_interval(self.counts, self.n_runs)

    @property
    def resolution_floor(self) -> float:
        base = self.n_observations if self.n_observations > 0 else self.n_runs
        return 1.0 / base

    @property
    def below_floor(self) -> np.ndarray:
        return self.probs < self.resolution_floor

    def prob_geq(self, n: int) -> tuple[float, bool]:
        """(P[N >= n], below-floor flag). Never report sub-floor tail
        probabilities as point values."""
        p = float(self.counts[n:].sum() / self.n_runs)
        return p, p < self.resolution_floor

    def to_pmf(self) -> TaskloadPmf:
        return TaskloadPmf(self.probs, 0.0, self.horizon)

    def merge(self, other: "EmpiricalPmf") -> "EmpiricalPmf":
        size = max(self.counts.size, other.counts.size)
        counts = np.zeros(size, dtype=np.int64)
        counts[:self.counts.size] += self.counts
        counts[:other.counts.size] += other.counts
        return EmpiricalPmf(counts, self.n_runs + other.n_runs,
                            self.n_observations + other.n_observations,
                            self.horizon)


@dataclass
class McEstimate:
    """Scenario estimate: one EmpiricalPmf per reported component."""

    components: dict[str, EmpiricalPmf]
    n_runs: int
    n_aircraft: int
    seed: int
    stream_id: int
    kind: str

    def merge(self, other: "McEstimate") -> "McEstimate":
        if set(self.components) != set(other.components) or self.kind != other.kind:
            raise ValueError("component mismatch")
        merged = {k: v.merge(other.components[k])
                  for k, v in self.components.items()}
        return McEstimate(merged, self.n_runs + other.n_runs,
                          self.n_aircraft + other.n_aircraft,
                          self.seed, self.stream_id, self.kind)


def _bincount(per_run: np.ndarray) -> np.ndarray:
    return np.bincount(per_run, minlength=int(per_run.max(initial=0)) + 1)


def _lane_counts(cfg: ConfigFile, flows: list[FlowSpec], n_runs: int,
                 run_offset: int, on_arrivals=None) -> tuple[np.ndarray, int]:
    """Intervention counts per (run, lane, axis) and the aircraft total.

    Run r draws from substream run_offset + r, lane by lane: arrival
    count, arrival times, then the lane's noise tensor (observations,
    aircraft, axes). A lane's residency is its flow's t_cross_min, and
    each aircraft is observed floor(t_cross_min / obs_dt_min) times.
    Runs are scored in blocks of about _BLOCK_ROWS aircraft, one engine
    call each, so block boundaries change no count. on_arrivals(r,
    entries) sees the entry times of each lane of run r.
    """
    src = RandomSource(cfg.seed, cfg.stream_id)
    n_lanes, n_axes = len(flows), len(AXES)
    coeffs = [np.array(c) for c in zip(
        *(transition_coeffs(cfg.ou[a], cfg.obs_dt_min) for a in AXES))]
    bounds = [np.array([f.tolerance.for_axis(a) for a in AXES])
              for f in flows]
    n_obs = [int(math.floor(f.t_cross_min / cfg.obs_dt_min + 1e-9))
             for f in flows]
    per_run = np.zeros((n_runs * n_lanes, n_axes), dtype=np.int64)
    n_aircraft, block, rows, first = 0, [], 0, 0
    for r in range(n_runs):
        rs = src.substream(run_offset + r)
        for li, flow in enumerate(flows):
            window = cfg.horizon_min + flow.t_cross_min
            k = int(rs.poisson(flow.intensity_per_min * window))
            n_aircraft += k
            if k == 0:
                continue
            entries = -flow.t_cross_min + rs.uniform(k) * window
            if on_arrivals is not None:
                on_arrivals(r, entries)
            if n_obs[li] > 0:
                z = rs.standard_normal((n_obs[li], k, n_axes))
                block.append(((r - first) * n_lanes + li, entries, z,
                              bounds[li]))
                rows += k
        if rows >= _BLOCK_ROWS or r == n_runs - 1:
            if block:
                per_run[first * n_lanes:(r + 1) * n_lanes] = _count_block(
                    cfg, block, coeffs, (r + 1 - first) * n_lanes)
            block, rows, first = [], 0, r + 1
    return per_run.reshape(n_runs, n_lanes, n_axes), n_aircraft


def _count_block(cfg: ConfigFile, block: list, coeffs,
                 n_groups: int) -> np.ndarray:
    """Counts per (group, axis) of (group, entries, noise, bounds) lane
    draws, stacked and scored by one engine call. A lane's aircraft are
    observed m_last times, the length of its noise. Every excursion is
    reset, including those during the pre-window warm-up; it counts if
    observed (steps 1..m_last) inside the horizon. Resets after m_last
    touch only states that are never scored."""
    groups, entries, noise, bounds = zip(*block)
    sizes = [e.size for e in entries]
    m_last = np.repeat([part.shape[0] for part in noise], sizes)
    entries = np.concatenate(entries)
    bounds = np.repeat(np.stack(bounds), sizes, axis=0)
    z = np.zeros((int(m_last.max()),) + bounds.shape)
    for part, i in zip(noise, np.cumsum([0] + sizes)):
        z[:part.shape[0], i:i + part.shape[1]] = part
    m = np.arange(1, z.shape[0] + 1)[:, None]
    t_obs = entries + m * cfg.obs_dt_min
    counted = ((m <= m_last) & (t_obs >= -1e-9)
               & (t_obs <= cfg.horizon_min + 1e-9))
    x, counts = np.zeros(bounds.shape), np.zeros(bounds.shape, np.int64)
    _observe_and_reset(x, z, coeffs, bounds, counts, counted)
    group = np.repeat(groups, sizes)
    return np.stack([np.bincount(group, c, n_groups) for c in counts.T],
                    axis=1).astype(np.int64)


def run_single_lane(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate the lane taskload PMF (per axis and all axes combined)
    over cfg.resolved_runs() runs, the first drawn from substream
    run_offset."""
    if cfg.kind != "single_lane":
        raise ValueError("config kind must be single_lane")
    n_runs = cfg.resolved_runs()
    per_run, n_aircraft = _lane_counts(cfg, cfg.flows, n_runs, run_offset)
    per_run = per_run[:, 0]
    comps: dict[str, EmpiricalPmf] = {}
    for i, axis in enumerate(AXES):
        comps[axis] = EmpiricalPmf(_bincount(per_run[:, i]), n_runs,
                                   n_aircraft, cfg.horizon_min)
    comps["total"] = EmpiricalPmf(_bincount(per_run.sum(axis=1)), n_runs,
                                  n_aircraft * len(AXES), cfg.horizon_min)
    return McEstimate(comps, n_runs, n_aircraft, cfg.seed,
                      cfg.stream_id, cfg.kind)


def run_multilane(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate multilane taskload with cumulative lane-prefix PMFs.

    All lanes of a run share the run substream, so prefix PMFs are
    nested views of the same realizations: adding a lane changes a
    prefix only through that lane's own interventions.
    """
    if cfg.kind != "multilane":
        raise ValueError("config kind must be multilane")
    n_lanes, n_runs = len(cfg.flows), cfg.resolved_runs()
    per_run, n_aircraft = _lane_counts(cfg, cfg.flows, n_runs, run_offset)
    comps: dict[str, EmpiricalPmf] = {}
    for prefix in range(1, n_lanes + 1):
        tot = per_run[:, :prefix, :].sum(axis=(1, 2))
        lat = per_run[:, :prefix, AXES.index("lateral")].sum(axis=1)
        comps[f"lanes{prefix}_total"] = EmpiricalPmf(
            _bincount(tot), n_runs, n_aircraft * len(AXES), cfg.horizon_min)
        comps[f"lanes{prefix}_lateral"] = EmpiricalPmf(
            _bincount(lat), n_runs, n_aircraft, cfg.horizon_min)
    comps["total"] = comps[f"lanes{n_lanes}_total"]
    comps["lateral"] = comps[f"lanes{n_lanes}_lateral"]
    return McEstimate(comps, n_runs, n_aircraft, cfg.seed,
                      cfg.stream_id, cfg.kind)


def run_crossing(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate crossing taskload split into deviation control and
    conflict resolution.

    Deviation control counts bound excursions observed during each
    aircraft's safe-zone transit within the horizon. The conflict count
    is max(A - 1, 0) with A the zone occupancy at the run's reference
    snapshot (mid-horizon): the zone is an M/D/inf system, so the
    snapshot occupancy is Poisson with mean (lam1 + lam2) * t_safe,
    directly comparable to the analytic conflict PMF.
    """
    if cfg.kind != "crossing":
        raise ValueError("config kind must be crossing")
    geom = cfg.geometry
    if not geom.solved:
        geom = solve_safe_zone(geom)
    t_safe = geom.t_safe_min
    t_star = cfg.horizon_min / 2.0
    n_runs = cfg.resolved_runs()
    occupancy = np.zeros(n_runs, dtype=np.int64)

    def occupy(r, entries):
        occupancy[r] += int(((entries <= t_star)
                             & (t_star < entries + t_safe)).sum())

    # a zone transit is a lane whose residency is the safe-zone time
    transits = [replace(f, t_cross_min=t_safe) for f in cfg.flows]
    per_run, n_aircraft = _lane_counts(cfg, transits, n_runs, run_offset,
                                       occupy)
    dev, conf = per_run.sum(axis=(1, 2)), np.maximum(occupancy - 1, 0)
    scored = n_aircraft * len(AXES)
    comps = {
        "deviation_control": EmpiricalPmf(_bincount(dev), n_runs, scored,
                                          cfg.horizon_min),
        "conflict_resolution": EmpiricalPmf(_bincount(conf), n_runs, 0,
                                            cfg.horizon_min),
        "total": EmpiricalPmf(_bincount(dev + conf), n_runs, scored,
                              cfg.horizon_min),
    }
    return McEstimate(comps, n_runs, n_aircraft, cfg.seed,
                      cfg.stream_id, cfg.kind)


@dataclass
class CompareReport:
    tv: float
    z_scores: np.ndarray
    threshold: float
    passed: bool


def compare(analytic: TaskloadPmf, mc: EmpiricalPmf,
            tv_threshold: float = 0.02) -> CompareReport:
    """TV distance and per-bin z-scores of an MC estimate against an
    analytic PMF; fails when TV exceeds the threshold."""
    if (analytic.horizon is not None and mc.horizon is not None
            and not math.isclose(analytic.horizon, mc.horizon,
                                 rel_tol=1e-9, abs_tol=1e-9)):
        raise ValueError(f"incompatible supports: horizons "
                         f"{analytic.horizon} vs {mc.horizon}")
    size = max(analytic.probs.size, mc.counts.size)
    pa = analytic.padded(size)
    pm = np.zeros(size)
    pm[:mc.counts.size] = mc.probs
    tv = 0.5 * (np.abs(pa - pm).sum() + analytic.truncation_mass)
    se = np.sqrt(np.maximum(pa * (1.0 - pa), 1e-30) / mc.n_runs)
    z = (pm - pa) / se
    return CompareReport(float(tv), z, tv_threshold, bool(tv < tv_threshold))


def compare_empirical(a: EmpiricalPmf, b: EmpiricalPmf,
                      z_max: float = 3.5) -> CompareReport:
    """Joint per-bin z comparison of two independent MC estimates."""
    size = max(a.counts.size, b.counts.size)
    pa = np.zeros(size)
    pa[:a.counts.size] = a.probs
    pb = np.zeros(size)
    pb[:b.counts.size] = b.probs
    se = np.sqrt(pa * (1 - pa) / a.n_runs + pb * (1 - pb) / b.n_runs)
    se = np.maximum(se, 1e-30)
    z = (pa - pb) / se
    tv = 0.5 * float(np.abs(pa - pb).sum())
    return CompareReport(tv, z, z_max, bool(np.max(np.abs(z)) <= z_max))
