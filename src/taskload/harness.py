"""Monte Carlo estimation of corridor taskload PMFs.

Each runner takes the scenario's config.ConfigFile, the same object the
analytic pipeline reads, and makes cfg.resolved_runs() runs. A run is
one horizon-long realization of the scenario. Arrivals are seeded one
residency before the window opens so the sector starts in occupancy
steady state. Each aircraft's three deviation axes start on the nominal
trajectory at entry and evolve independently through exact
mean-reverting transitions; the controller observes deviations at a
fixed surveillance cadence (obs_dt_min, 1 minute by default) while the
aircraft is in the sector, and every observation beyond an axis bound
counts one intervention and returns that axis to the nominal
trajectory. Only observations inside the horizon are counted. An axis
thins where U_n < 1 and s > 0 (see ou._Lane) and is stepped otherwise.

Runs are drawn in aligned chunks of _CHUNK_RUNS = 32: runs 32 c ..
32 c + 31 form chunk c, which draws from substream c of the stream
keyed by (seed, stream). A run's draws therefore depend only on its
index, not on the range that asks for it, so the estimates of two
adjacent run ranges merge by count addition into exactly the estimate
of their union. Each estimate records its run_offset, and a merge of
ranges that overlap or leave a gap, like one of two streams or
horizons, raises ValueError (L'Ecuyer, Munger, Oreshkin & Simard 2017,
Math. Comput. Simul. 135, on partitioning runs among substreams).

A chunk draws, in this order: the arrival counts of its 32 runs, one
Poisson (runs, lanes) array; then lane by lane in config order, the
lane's arrival uniforms of all its runs, k of them in run order, and if
the lane is observed, one gate uniform per aircraft-axis of its thinned
axes, a (k, thinned axes) array, and the noise of its stepped axes, an
(n, stepped axes, k) normal array. Last come the candidates of all 32
runs, in (run, lane, aircraft, axis) order, as one batch sampled in
rounds. A round takes every candidate stretch of two or more
observations and draws, each as one array in stretch order: a uniform
per stretch for its event; the truncated normals, in rejection rounds
of a (2, stretches left) uniform array, proposals first; L normals per
stretch for its path; and a uniform per stretch for its acceptance.
Then each accepted stretch with L' observations left draws a uniform,
and is a candidate stretch of the next round if it lies below U_L'.
Under the stringent standard about one aircraft-axis in a hundred is a
candidate, so a lane draws about one uniform per aircraft-axis and few
normals.

A range of runs draws every chunk it touches, the runs before
run_offset in its first chunk and those after its end in its last
chunk included: a chunk's candidates share the batch's arrays, so each
run's draws depend on the other runs of its chunk. Those runs are not
scored or counted in n_aircraft. The rest is scored in blocks of whole
chunks, each block by a fixed number of array calls however many runs
and lanes it holds: entry times, occupancy, the stepped axes, which
observations fall in the horizon, and the counts. A block is laid
out lane-major, lanes in config order, the rows of one lane its
aircraft of every run in run order. A lane that is never observed
(residency below one surveillance step) draws only its arrivals, and
its rows are never counted. Neither the layout nor the block boundaries
change an output. A block closes once it holds _BLOCK_ROWS aircraft,
which bounds the arrival uniforms and stepped noise it holds to that
plus one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigFile
from .distributions import AXES
from .flow import FlowSpec, solve_safe_zone
from .ou import (_Batch, _Lane, _truncated_normals,  # noqa: F401
                 lattice_steps, transition_coeffs)
from .pmf import TaskloadPmf, common_horizon, tv_distance, wilson_interval
from .rng import RandomSource

#: Aircraft per scored block; a block closes with the chunk that brings it
#: to this many. It bounds the memory a block holds: lane_dense Monte Carlo
#: throughput was flat within noise from 2 048 rows to one block per call,
#: and a 1 024-row block was about 10% slower.
_BLOCK_ROWS = 2048
#: Runs per chunk: chunk c holds runs 32 c .. 32 c + 31 and draws from
#: substream c of the run stream, so the constant fixes every Monte Carlo
#: table. Chunks of 16 ran slower on all three benchmark scenarios; chunks
#: of 64 ran no faster within noise and draw more runs that a range does
#: not score.
_CHUNK_RUNS = 32


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
    run_offset: int               # index of the first run

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

    Runs run_offset .. run_offset + n_runs - 1 are drawn chunk by chunk
    in the order the module docstring gives, and only they are scored
    and counted in the aircraft total. A lane's residency is its flow's
    t_cross_min, and each aircraft is observed floor(t_cross_min /
    obs_dt_min) times. Chunks are scored in blocks of about _BLOCK_ROWS
    aircraft, so block boundaries change no count. An aircraft occupies
    its lane at the snapshot if snapshot lies in [entry, entry +
    t_cross_min); without a snapshot every occupancy is zero.
    """
    src = RandomSource(cfg.seed, cfg.stream_id)
    block = _Block(cfg, flows, snapshot)
    per_run = np.zeros((n_runs, len(flows), len(AXES)), dtype=np.int64)
    occupancy = np.zeros(n_runs, dtype=np.int64)
    stop = run_offset + n_runs
    n_aircraft, rows, first, chunks = 0, 0, 0, []
    c0 = run_offset // _CHUNK_RUNS
    n_chunks = -(-stop // _CHUNK_RUNS) - c0
    for c, chunk_src in enumerate(src.substreams(c0, n_chunks), c0):
        base = c * _CHUNK_RUNS
        lo, hi = max(run_offset - base, 0), min(stop - base, _CHUNK_RUNS)
        chunks.append(block.draw(chunk_src, lo, hi))
        rows += int(chunks[-1][0].sum())
        done = base + hi - run_offset   # runs of the range drawn so far
        if rows >= _BLOCK_ROWS or done == n_runs:
            n_aircraft += rows
            if rows:
                per_run[first:done], occupancy[first:done] = block.score(
                    chunks)
            rows, first, chunks = 0, done, []
    return per_run, n_aircraft, occupancy


class _Block:
    """Draws chunks of runs and scores blocks of them with a fixed number
    of array calls, whatever the number of runs and lanes in a block.
    Rows are laid out lane-major, lanes in config order, each lane's
    aircraft in run order (see the module docstring)."""

    def __init__(self, cfg: ConfigFile, flows: list[FlowSpec],
                 snapshot: float | None):
        self.obs_dt, self.horizon = cfg.obs_dt_min, cfg.horizon_min
        self.snapshot = snapshot
        self.t_cross = np.array([f.t_cross_min for f in flows])
        self.window = cfg.horizon_min + self.t_cross
        self.mean = self.window * [f.intensity_per_min for f in flows]
        # lanes of one mean draw the same counts from a scalar, faster
        self.arrival_mean = (self.mean[0] if (self.mean == self.mean[0]).all()
                             else self.mean)
        self.n_obs = lattice_steps(self.t_cross, cfg.obs_dt_min)
        self.bounds = np.array([[f.tolerance.for_axis(a) for a in AXES]
                                for f in flows])
        coeffs = [transition_coeffs(cfg.ou[a], cfg.obs_dt_min) for a in AXES]
        # the samplers of the observed lanes: they hold only tables, so
        # lanes with equal observations and bounds share one
        keys = [(n, tuple(bounds)) for n, bounds in
                zip(self.n_obs.tolist(), self.bounds.tolist())]
        samplers = {(n, bounds): _Lane(coeffs, list(bounds), n)
                    for n, bounds in dict.fromkeys(keys) if n >= 1}
        self.lanes = [samplers.get(key) for key in keys]
        # the batch stacks the thinned axes of the samplers in order, so
        # lane li's are its rows first[li], first[li] + 1, ...
        distinct = [lane for lane in samplers.values() if lane.thinned]
        self.batch = _Batch(distinct) if distinct else None
        rows = np.cumsum([0] + [len(lane.thinned) for lane in distinct])
        first = dict(zip(map(id, distinct), rows.tolist()))
        self.first = [first.get(id(lane)) for lane in self.lanes]

    def draw(self, rs: RandomSource, lo: int, hi: int) -> tuple:
        """The draws of one chunk of _CHUNK_RUNS runs from its stream rs,
        in the order the module docstring gives, kept for runs lo .. hi -
        1 only: their (run, lane) arrival counts, per lane their arrival
        uniforms and stepped axes' (observations, axes, aircraft) noise
        (None without stepped axes), and the (lane, lane row, axis,
        observation) hits of the thinned axes."""
        k = rs.poisson(self.arrival_mean, (_CHUNK_RUNS, len(self.lanes)))
        ends = np.cumsum(k, axis=0)     # per lane, the rows of runs 0 .. r
        starts = (ends - k)[lo]
        cuts = [slice(start, stop) for start, stop in
                zip(starts.tolist(), ends[hi - 1].tolist())]
        us, steps, gated = [], [], []
        for li, (lane, first, size, cut) in enumerate(zip(
                self.lanes, self.first, ends[-1].tolist(), cuts)):
            us.append(rs.uniform(size)[cut])
            if lane is not None and lane.thinned:
                row, col = np.nonzero(
                    rs.uniform((size, len(lane.thinned))) < lane.gates)
                if row.size:
                    run = np.searchsorted(ends[:, li], row, side="right")
                    gated.append(np.stack([run, np.full_like(row, li), row,
                                           first + col]))
            steps.append(rs.standard_normal(
                (lane.n, len(lane.stepped), size))[:, :, cut]
                if lane is not None and lane.stepped else None)
        hits = np.zeros((4, 0), dtype=np.int64)
        if gated:
            # the candidates in (run, lane, aircraft, axis) order
            gated = np.concatenate(gated, axis=1)
            gated = gated[:, np.argsort(gated[0], kind="stable")]
            cand, m = self.batch.hits(rs, gated[3])
            run, lane, row, table = gated[:, cand]
            hits = np.stack([lane, row - starts[lane],
                             self.batch.axis[table], m])
            hits = hits[:, (lo <= run) & (run < hi)]
        return k[lo:hi], us, steps, hits

    def score(self, chunks: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Counts per (run, lane, axis) and occupancy per run of a block
        of runs, from the draws of its chunks in run order. A hit counts
        if its observation (1..n_obs of its lane) lies inside the
        horizon; those of the pre-window warm-up only reset their axis."""
        ks, us, steps, hits = zip(*chunks)
        n_lanes, n_axes = len(self.lanes), len(AXES)
        k = np.concatenate(ks).T
        n_runs, lane_rows = k.shape[1], k.sum(axis=1)
        run = np.repeat(np.tile(np.arange(n_runs), n_lanes), k.ravel())
        lane = np.repeat(np.arange(n_lanes), lane_rows)
        u = np.concatenate([u[li] for li in range(n_lanes) for u in us])
        entries = -self.t_cross[lane] + u * self.window[lane]
        occupancy = np.zeros(n_runs, dtype=np.int64)
        if self.snapshot is not None:
            t = self.snapshot
            inside = (entries <= t) & (t < entries + self.t_cross[lane])
            occupancy = np.bincount(run[inside], minlength=n_runs)
        # a row's counted hits on an axis add to cell + axis
        cell, size = (run * n_lanes + lane) * n_axes, n_runs * n_lanes * n_axes
        counts = np.zeros(size, dtype=np.int64)
        ends = np.cumsum(lane_rows)
        # the block row of each chunk's first row of each lane
        sizes = np.array([[u.size for u in chunk] for chunk in us])
        offsets = np.cumsum(sizes, axis=0) - sizes + ends - lane_rows
        row, axis, m = np.concatenate(
            [[off[h[0]] + h[1], h[2], h[3]] for off, h in zip(offsets, hits)],
            axis=1)
        for li, (start, stop, sampler) in enumerate(zip(
                (ends - lane_rows).tolist(), ends.tolist(), self.lanes)):
            if steps[0][li] is not None:
                flags = sampler.step(np.concatenate([s[li] for s in steps],
                                                    axis=2))
                m_all = np.arange(1, sampler.n + 1)[:, None, None]
                counted = flags & self._counted(entries[start:stop], m_all)
                axes = np.array(sampler.stepped)[:, None]
                counts += np.bincount((cell[start:stop] + axes).ravel(),
                                      counted.sum(axis=0).ravel(),
                                      size).astype(np.int64)
        hit_cells = (cell[row] + axis)[self._counted(entries[row], m)]
        counts += np.bincount(hit_cells, minlength=size)
        return counts.reshape(n_runs, n_lanes, n_axes), occupancy

    def _counted(self, entries: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Whether observation m (1-based) of an aircraft entering at
        entries lies inside the horizon."""
        t_obs = entries + m * self.obs_dt
        return (t_obs >= -1e-9) & (t_obs <= self.horizon + 1e-9)


def run_single_lane(cfg: ConfigFile, run_offset: int = 0) -> McEstimate:
    """Estimate the lane taskload PMF (per axis and all axes combined)
    over cfg.resolved_runs() runs, from run run_offset on."""
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

    All lanes of a run draw from its chunk's substream, so prefix PMFs are
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
