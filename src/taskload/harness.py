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
r, so the estimates of two adjacent run ranges merge by count addition
into exactly the estimate of their union. Each estimate records its
run_offset, and a merge of ranges that overlap or leave a gap, like one
of two streams or horizons, raises ValueError. The runs' substreams
come from RandomSource.substreams, which seeds them all in one
vectorised pass from numpy's SeedSequence pool of the run stream and
draws bit for bit what substream(run_offset + r) draws.

The run loop only draws. Its draws are scored in blocks of runs, each
block by one engine call and a fixed number of array calls, however
many runs and lanes it holds. A block is laid out lane-major, lanes in
config order: the rows of one lane, its aircraft of every run in run
order, are one column range of the (observations, rows, axes) noise
block, filled by one copy per lane. A lane that is never observed
(residency below one surveillance step) draws no noise, and its rows
are never counted. Each run draws from its own substream in a fixed
order, so neither the layout nor the block boundaries change an output.
_BLOCK_ROWS, about 2 048 aircraft, is the knee of the benchmark's Monte
Carlo throughput: smaller blocks pay the per-block array calls more
often, and larger ones gain nothing more while holding more draws.

The step loop runs on full (rows, axes) operands: the per-axis
transition coefficients are repeated to the block's shape, as its
bounds are, and the counted mask to (observations, rows, axes), once
per block. A per-axis (axes,) operand would make every ufunc of the
loop run an inner loop of length 3 per row, which makes a 512-row,
20-observation block take about 2.5 times as long; each element still
computes ((a x) + b) + s z in the same order, so every count is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigFile
from .distributions import AXES
from .flow import FlowSpec, solve_safe_zone
from .ou import _observe_and_reset, lattice_steps, transition_coeffs
from .pmf import TaskloadPmf, common_horizon, tv_distance, wilson_interval
from .rng import RandomSource

_BLOCK_ROWS = 2048  # aircraft per engine call; bounds the draws held


@dataclass
class EmpiricalPmf:
    """Per-run count frequencies with binomial CIs and a resolution floor."""

    counts: np.ndarray            # counts[k] = number of runs with total k
    n_runs: int
    #: scored aircraft of all runs times the axes counted (n_aircraft or
    #: 3 n_aircraft), not times each aircraft's observations
    n_observations: int
    horizon: float | None = None

    def __post_init__(self):
        self.counts = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        if self.n_runs < 1 or self.counts.sum() != self.n_runs:
            raise ValueError(f"counts must sum to n_runs={self.n_runs} >= 1")

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

    @property
    def pmf(self) -> TaskloadPmf:
        return TaskloadPmf(self.probs, 0.0, self.horizon)

    def prob_geq(self, n: int) -> tuple[float, bool]:
        """(P[N >= n], below-floor flag). Never report sub-floor tail
        probabilities as point values."""
        p = float(self.counts[n:].sum() / self.n_runs)
        return p, p < self.resolution_floor

    def merge(self, other: "EmpiricalPmf") -> "EmpiricalPmf":
        """Pooled estimate of two run ranges; raises ValueError if they
        count over different horizons."""
        horizon = common_horizon(self.horizon, other.horizon)
        size = max(self.counts.size, other.counts.size)
        counts = np.zeros(size, dtype=np.int64)
        counts[:self.counts.size] += self.counts
        counts[:other.counts.size] += other.counts
        return EmpiricalPmf(counts, self.n_runs + other.n_runs,
                            self.n_observations + other.n_observations,
                            horizon)


@dataclass
class McEstimate:
    """Scenario estimate: one EmpiricalPmf per reported component."""

    components: dict[str, EmpiricalPmf]
    n_runs: int
    n_aircraft: int
    seed: int
    stream_id: int
    kind: str
    run_offset: int               # first run's substream index

    def merge(self, other: "McEstimate") -> "McEstimate":
        """The estimate of two adjacent run ranges of one (seed, stream),
        in either order; raises ValueError for any other pair."""
        if set(self.components) != set(other.components) or self.kind != other.kind:
            raise ValueError("component mismatch")
        if (self.seed, self.stream_id) != (other.seed, other.stream_id):
            raise ValueError(f"stream mismatch: (seed, stream_id) "
                             f"{(self.seed, self.stream_id)} vs "
                             f"{(other.seed, other.stream_id)}")
        lo, hi = sorted((self, other), key=lambda e: e.run_offset)
        if lo.run_offset + lo.n_runs != hi.run_offset:
            raise ValueError(f"run ranges not adjacent: {lo.n_runs} runs "
                             f"from {lo.run_offset}, {hi.n_runs} from "
                             f"{hi.run_offset}")
        merged = {k: v.merge(other.components[k])
                  for k, v in self.components.items()}
        return McEstimate(merged, self.n_runs + other.n_runs,
                          self.n_aircraft + other.n_aircraft,
                          self.seed, self.stream_id, self.kind, lo.run_offset)


def _bincount(per_run: np.ndarray) -> np.ndarray:
    return np.bincount(per_run, minlength=int(per_run.max(initial=0)) + 1)


def _lane_counts(cfg: ConfigFile, flows: list[FlowSpec], n_runs: int,
                 run_offset: int, snapshot: float | None = None
                 ) -> tuple[np.ndarray, int, np.ndarray]:
    """Intervention counts per (run, lane, axis), the aircraft total and
    the occupancy per run at time snapshot.

    Run r draws from substream run_offset + r, lane by lane: arrival
    count, arrival times, then the lane's noise tensor (observations,
    aircraft, axes). A lane's residency is its flow's t_cross_min, and
    each aircraft is observed floor(t_cross_min / obs_dt_min) times.
    The run loop only draws; runs are scored in blocks of about
    _BLOCK_ROWS aircraft, so block boundaries change no count. An
    aircraft occupies its lane at the snapshot if snapshot lies in
    [entry, entry + t_cross_min); without a snapshot every occupancy is
    zero.
    """
    src = RandomSource(cfg.seed, cfg.stream_id)
    lanes = range(len(flows))
    block = _Block(cfg, flows, snapshot)
    mean = [f.intensity_per_min * w
            for f, w in zip(flows, block.window.tolist())]
    n_obs = block.n_obs.tolist()
    per_run = np.zeros((n_runs, len(flows), len(AXES)), dtype=np.int64)
    occupancy = np.zeros(n_runs, dtype=np.int64)
    n_aircraft, ks, us, zs = 0, [], [[] for _ in lanes], [[] for _ in lanes]
    rows, first = 0, 0
    for r, rs in enumerate(src.substreams(run_offset, n_runs)):
        for li in lanes:
            k = rs.poisson(mean[li])
            ks.append(k)
            if k:
                us[li].append(rs.uniform(k))
                if n_obs[li]:
                    zs[li].append(rs.standard_normal((n_obs[li], k,
                                                      len(AXES))))
                rows += k
        if rows >= _BLOCK_ROWS or r == n_runs - 1:
            n_aircraft += rows
            if rows:
                per_run[first:r + 1], occupancy[first:r + 1] = block.score(
                    ks, us, zs)
            ks, rows, first = [], 0, r + 1
    return per_run, n_aircraft, occupancy


class _Block:
    """Scores the draws of a block of runs with a fixed number of array
    calls, whatever the number of runs and lanes in it. Rows are laid out
    lane-major, lanes in config order, each lane's aircraft in run order
    (see the module docstring)."""

    def __init__(self, cfg: ConfigFile, flows: list[FlowSpec],
                 snapshot: float | None):
        self.obs_dt, self.horizon = cfg.obs_dt_min, cfg.horizon_min
        self.snapshot = snapshot
        self.t_cross = np.array([f.t_cross_min for f in flows])
        self.window = cfg.horizon_min + self.t_cross
        self.n_obs = lattice_steps(self.t_cross, cfg.obs_dt_min)
        self.bounds = np.array([[f.tolerance.for_axis(a) for a in AXES]
                                for f in flows])
        self.coeffs = np.array([transition_coeffs(cfg.ou[a], cfg.obs_dt_min)
                                for a in AXES]).T

    def score(self, ks: list[int], us: list[list], zs: list[list]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Counts per (run, lane, axis) and occupancy per run of a block
        of runs, from its flat (run, lane) arrival counts ks and its
        per-lane lists of arrival uniforms us and noise zs, which it
        empties. Every excursion is reset, including those during the
        pre-window warm-up; it counts if observed (steps 1..n_obs of its
        lane) inside the horizon. Resets after a lane's n_obs touch only
        states that are never scored."""
        n_lanes, n_axes = len(us), len(AXES)
        k = np.array(ks).reshape(-1, n_lanes).T
        n_runs, lane_rows = k.shape[1], k.sum(axis=1)
        run = np.repeat(np.tile(np.arange(n_runs), n_lanes), k.ravel())
        lane = np.repeat(np.arange(n_lanes), lane_rows)
        u = np.concatenate([part for parts in us for part in parts])
        for parts in us:
            parts.clear()
        entries = -self.t_cross[lane] + u * self.window[lane]
        occupancy = np.zeros(n_runs, dtype=np.int64)
        if self.snapshot is not None:
            t = self.snapshot
            inside = (entries <= t) & (t < entries + self.t_cross[lane])
            occupancy = np.bincount(run[inside], minlength=n_runs)
        # one copy per lane into a column range of the zero-padded block;
        # a lane observed n_obs = 0 times draws no noise and counts nothing
        m_last = self.n_obs[lane]
        z = np.zeros((int(m_last.max()), lane.size, n_axes))
        stops = np.cumsum(lane_rows).tolist()
        for parts, n_obs, start, stop in zip(zs, self.n_obs.tolist(),
                                             [0] + stops, stops):
            if parts:
                np.concatenate(parts, axis=1, out=z[:n_obs, start:stop])
                parts.clear()
        m = np.arange(1, z.shape[0] + 1)[:, None]
        t_obs = entries + m * self.obs_dt
        counted = ((m <= m_last) & (t_obs >= -1e-9)
                   & (t_obs <= self.horizon + 1e-9))
        # full-shape operands: every ufunc of the step loop runs contiguously
        coeffs = np.repeat(self.coeffs[:, None], lane.size, axis=1)
        counted = np.repeat(counted[:, :, None], n_axes, axis=2)
        bounds = self.bounds[lane]
        x, hits = np.zeros(bounds.shape), np.zeros(bounds.shape, np.int64)
        _observe_and_reset(x, z, coeffs, bounds, hits, counted)
        counts = np.zeros((n_runs, n_lanes, n_axes), dtype=np.int64)
        cell = (run * n_lanes + lane) * n_axes
        counts.flat = np.bincount((cell[:, None] + np.arange(n_axes)).ravel(),
                                  hits.ravel(), counts.size)
        return counts, occupancy


def run_single_lane(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate the lane taskload PMF (per axis and all axes combined)
    over cfg.resolved_runs() runs, the first drawn from substream
    run_offset."""
    if cfg.kind != "single_lane":
        raise ValueError("config kind must be single_lane")
    n_runs = cfg.resolved_runs()
    per_run, n_aircraft, _ = _lane_counts(cfg, cfg.flows, n_runs, run_offset)
    per_run = per_run[:, 0]
    comps: dict[str, EmpiricalPmf] = {}
    for i, axis in enumerate(AXES):
        comps[axis] = EmpiricalPmf(_bincount(per_run[:, i]), n_runs,
                                   n_aircraft, cfg.horizon_min)
    comps["total"] = EmpiricalPmf(_bincount(per_run.sum(axis=1)), n_runs,
                                  n_aircraft * len(AXES), cfg.horizon_min)
    return McEstimate(comps, n_runs, n_aircraft, cfg.seed,
                      cfg.stream_id, cfg.kind, run_offset)


def run_multilane(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate multilane taskload with cumulative lane-prefix PMFs.

    All lanes of a run share the run substream, so prefix PMFs are
    nested views of the same realizations: adding a lane changes a
    prefix only through that lane's own interventions.
    """
    if cfg.kind != "multilane":
        raise ValueError("config kind must be multilane")
    n_lanes, n_runs = len(cfg.flows), cfg.resolved_runs()
    per_run, n_aircraft, _ = _lane_counts(cfg, cfg.flows, n_runs, run_offset)
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
                      cfg.stream_id, cfg.kind, run_offset)


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
    geom = solve_safe_zone(cfg.geometry)
    n_runs = cfg.resolved_runs()
    # a zone transit is a lane whose residency is the safe-zone time
    transits = [replace(f, t_cross_min=geom.t_safe_min) for f in cfg.flows]
    per_run, n_aircraft, occupancy = _lane_counts(
        cfg, transits, n_runs, run_offset, snapshot=cfg.horizon_min / 2.0)
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
                      cfg.stream_id, cfg.kind, run_offset)


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
    common_horizon(analytic.horizon, mc.horizon)  # raises on a mismatch
    law = mc.pmf
    size = max(analytic.probs.size, law.probs.size)
    pa, pm = analytic.padded(size), law.padded(size)
    tv = tv_distance(analytic, law)
    se = np.sqrt(np.maximum(pa * (1.0 - pa), 1e-30) / mc.n_runs)
    z = (pm - pa) / se
    return CompareReport(tv, z, tv_threshold, bool(tv < tv_threshold))


def compare_empirical(a: EmpiricalPmf, b: EmpiricalPmf,
                      z_max: float = 3.5) -> CompareReport:
    """Joint per-bin z comparison of two independent MC estimates."""
    law_a, law_b = a.pmf, b.pmf
    size = max(law_a.probs.size, law_b.probs.size)
    pa, pb = law_a.padded(size), law_b.padded(size)
    se = np.sqrt(pa * (1 - pa) / a.n_runs + pb * (1 - pb) / b.n_runs)
    se = np.maximum(se, 1e-30)
    z = (pa - pb) / se
    tv = tv_distance(law_a, law_b)
    return CompareReport(tv, z, z_max, bool(np.max(np.abs(z)) <= z_max))
