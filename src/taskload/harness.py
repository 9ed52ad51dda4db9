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
trajectory. Only observations inside the horizon are counted.

An axis observed n times from the nominal path needs only the index of
its first hit, or none: after a hit it restarts from the nominal path
over the observations left, so its hits form a renewal chain on the
observation lattice (Feller 1968, An Introduction to Probability
Theory, vol. 1, ch. XIII). hitting.first_hit_law gives f, the exact law
of that index, and the first L + 1 terms of f are the law over L
observations to rounding, not bit for bit: the law computed at L
observations takes other block products. With F = cumsum(f) the
harness samples each axis by the inverse of F: an aircraft-axis hits at
all with probability F[n], at the smallest m with F[m] > u for u
uniform on [0, F[n]), and then hits again over the L = n - m
observations left in the same way. No path is
drawn, so comparing the harness with the analytic route, which reads
the same f, tests the flow layer (arrivals, windows, warm-up,
superposition, crossings), not the kernel; TestThinnedLaw in
tests/test_harness.py holds the harness to a per-step simulation. A
lane whose kernel needs more than hitting.MAX_NODES nodes raises
ValueError.

Runs are drawn in aligned chunks of _CHUNK_RUNS = 256: runs 256 c ..
256 c + 255 form chunk c, which draws from substream c of the stream
keyed by (seed, stream). A run's draws depend only on its index, so the
estimates of two adjacent run ranges merge by count addition into
exactly the estimate of their union. Each estimate records its
run_offset, and a merge of ranges that overlap or leave a gap, like one
of two streams or horizons, raises ValueError (L'Ecuyer, Munger,
Oreshkin & Simard 2017, Math. Comput. Simul. 135).

A chunk draws the arrival counts of all its runs, one Poisson (runs,
lanes) array, then one uniform (rows, w) array with a row per aircraft
of its runs up to the range's last, in (run, lane, aircraft) order; it
draws no later run. A row holds the arrival time, then if any lane is
observed a gate per axis, then if any lane is observed twice or more s
restart slots. An aircraft-axis of a lane observed n >= 1 times is a
candidate when its gate u < F[n], and its first hit is the smallest m
with F[m] > u. A run's candidates then restart in rounds, in (lane,
aircraft, axis) order: each with L = n - m > 0 observations left takes
the run's next slot, its rows' slots read in row order, and one below
F[L] hits again at m plus the inverse of F there. A run that uses up
its slots goes on with substream r of its chunk's stream, r its index
in the chunk; s = ceil(1.25 H + 0.5), H the expected hits per aircraft
over the lanes' arrivals, keeps that rare. So no run's draws depend on
another's, and the runs of the first chunk before the range are drawn
but not processed or counted in n_aircraft. Each chunk is scored as it
is drawn, by a fixed number of array calls. A lane never observed has
rows but no candidates; an aircraft-axis of a 20-minute stringent lane
observed each minute is one with probability 0.0002-0.0055.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigFile
from .distributions import AXES
from .flow import FlowSpec, solve_safe_zone
from .hitting import first_hit_law, intervention_pmf
from .ou import lattice_steps
from .pmf import TaskloadPmf, common_horizon, tv_distance, wilson_interval
from .rng import RandomSource

#: Runs per chunk: chunk c holds runs 256 c .. 256 c + 255 and draws from
#: substream c of the run stream, so the constant fixes every Monte Carlo
#: table. Chunks of 128 and 512 ran no faster (see ROADMAP, "Chunk size").
_CHUNK_RUNS = 256
#: Restart slots per row per expected hit of an aircraft (_slot_count)
_SLOTS_PER_HIT = 1.25


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
    in the order the module docstring gives, each chunk up to the last
    run of the range, and each chunk is scored as it is drawn; only
    these runs are counted in the aircraft total. A lane's residency is
    its flow's t_cross_min, and each aircraft is observed floor(
    t_cross_min / obs_dt_min) times. An aircraft occupies its lane at
    the snapshot if snapshot lies in [entry, entry + t_cross_min);
    without a snapshot every occupancy is zero.
    """
    src = RandomSource(cfg.seed, cfg.stream_id)
    chunks = _Chunks(cfg, flows, snapshot)
    per_run = np.zeros((n_runs, len(flows), len(AXES)), dtype=np.int64)
    occupancy = np.zeros(n_runs, dtype=np.int64)
    n_aircraft, stop = 0, run_offset + n_runs
    c0, c1 = run_offset // _CHUNK_RUNS, -(-stop // _CHUNK_RUNS)
    for c in range(c0, c1):
        base = c * _CHUNK_RUNS
        lo, hi = max(run_offset - base, 0), min(stop - base, _CHUNK_RUNS)
        runs = slice(base + lo - run_offset, base + hi - run_offset)
        per_run[runs], occupancy[runs], aircraft = chunks.score(
            src.substream(c), lo, hi)
        n_aircraft += aircraft
    return per_run, n_aircraft, occupancy


class _Chunks:
    """Draws the runs of a chunk and scores them with a fixed number of
    array calls, whatever the number of runs and lanes. Rows are laid
    out run by run, each run's in lane order (see the module
    docstring)."""

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
        # one table F = cumsum(first_hit_law) per (axis, bound) of the
        # observed lanes, at the most observations of the lanes that read
        # it: the law of n observations is its first n + 1 terms, equal
        # to the law computed at n to rounding
        keys = [list(enumerate(f.tolerance.for_axis(a) for a in AXES))
                if n >= 1 else [] for n, f in zip(self.n_obs.tolist(), flows)]
        most: dict[tuple[int, float], int] = {}
        for n, lane_keys in zip(self.n_obs.tolist(), keys):
            for key in lane_keys:
                most[key] = max(n, most.get(key, 0))
        laws = [first_hit_law(cfg.ou[AXES[j]], bound, cfg.obs_dt_min, n)
                for (j, bound), n in most.items()]
        tables = [np.cumsum(f) for f in laws]
        # F_t[m] is cum[start[t] + m]; numpy orders complex numbers by real
        # part, then imaginary part, so the pairs t + i F_t[m] are sorted
        # and one search inverts every table (_inverse)
        self.cum = np.concatenate([np.zeros(0)] + tables)
        self.start = np.cumsum([0] + [f.size for f in tables])
        self.pairs = np.concatenate([np.zeros(0, complex)] + [
            t + 1j * f for t, f in enumerate(tables)])
        # per lane, its axes' tables and hit probabilities F[n] (0 for a
        # lane never observed): an aircraft-axis is a candidate when its
        # gate uniform lies below
        index = {key: t for t, key in enumerate(most)}
        self.table = np.zeros((len(flows), len(AXES)), dtype=np.int64)
        self.gates = np.zeros((len(flows), len(AXES)))
        for li, (n, lane_keys) in enumerate(zip(self.n_obs.tolist(), keys)):
            if lane_keys:
                self.table[li] = [index[key] for key in lane_keys]
                self.gates[li] = self.cum[self.start[self.table[li]] + n]
        self.gate_max = self.gates.max(axis=0)
        self.slots = self._slot_count(laws) if self.n_obs.max() >= 2 else 0
        self.width = 1 + len(AXES) * bool(most) + self.slots

    def _slot_count(self, laws: list[np.ndarray]) -> int:
        """s = ceil(_SLOTS_PER_HIT H + 0.5), H the expected hits per
        aircraft over the lanes' arrivals, each axis's the mean of its
        renewal count (hitting.intervention_pmf). An axis hits k times
        with probability at most F[n]^k, so gates all below 0.1 give
        H < 1/3 and, for _SLOTS_PER_HIT <= 1.5, s = 1 without renewal
        sums."""
        if (self.gates < 0.1).all() or not self.mean.any():
            return 1
        hits = [sum(intervention_pmf(laws[t], n).mean()  # 0 if never observed
                    for t in lane)
                for lane, n in zip(self.table.tolist(), self.n_obs.tolist())]
        per_row = np.dot(hits, self.mean) / self.mean.sum()
        return math.ceil(_SLOTS_PER_HIT * per_row + 0.5)

    def score(self, rs: RandomSource, lo: int, hi: int
              ) -> tuple[np.ndarray, np.ndarray, int]:
        """Counts per (run, lane, axis), occupancy per run and the
        aircraft total of runs lo .. hi - 1 of the chunk drawn from rs.
        A hit counts if its observation (1..n_obs of its lane) lies
        inside the horizon; those of the pre-window warm-up only reset
        their axis."""
        n_lanes, n_axes = len(self.n_obs), len(AXES)
        k = rs.poisson(self.arrival_mean, (_CHUNK_RUNS, n_lanes))[:hi]
        first = int(k[:lo].sum())       # the range's first row
        u = rs.uniform((int(k.sum()), self.width))
        occupancy = np.zeros(hi - lo, dtype=np.int64)
        if self.snapshot is not None:
            cell = np.repeat(np.arange(lo * n_lanes, hi * n_lanes),
                             k[lo:].ravel())
            # lanes of one residency index it as a scalar, faster
            lane = cell % n_lanes if np.ptp(self.t_cross) else 0
            entries = -self.t_cross[lane] + u[first:, 0] * self.window[lane]
            t = self.snapshot
            inside = (entries <= t) & (t < entries + self.t_cross[lane])
            occupancy = np.bincount(cell[inside] // n_lanes - lo,
                                    minlength=hi - lo)
        counts = np.zeros((hi - lo) * n_lanes * n_axes, dtype=np.int64)
        if self.gate_max.any():
            row, cell, axis, cand, m = self._hits(rs, u, k, first)
            lane = cell % n_lanes
            entries = -self.t_cross[lane] + u[row, 0] * self.window[lane]
            cell = (cell - lo * n_lanes) * n_axes + axis
            counted = self._counted(entries[cand], m)
            counts += np.bincount(cell[cand[counted]], minlength=counts.size)
        return (counts.reshape(hi - lo, n_lanes, n_axes), occupancy,
                len(u) - first)

    def _hits(self, rs: RandomSource, u: np.ndarray, k: np.ndarray,
              first: int) -> tuple[np.ndarray, ...]:
        """The row, (run, lane) cell and axis of each candidate among the
        rows from first on of the chunk's uniforms u, k[run, lane] rows
        per cell, then the candidate and observation 1..n of every hit.
        Given u < F[n], a gate u is uniform on [0, F[n]), so the first
        hit is the smallest m with F[m] > u; a slot below F[L] hits
        again, at most L observations on, by the same inverse."""
        n_lanes, n_axes = len(self.n_obs), len(AXES)
        ends = np.cumsum(k.ravel())     # per (run, lane), its rows' end
        # the candidates in (row, axis) order: each column below the
        # highest gate of its axis, then below its own lane's
        key = np.sort(np.concatenate([
            np.flatnonzero(u[first:, 1 + j] < gate) * n_axes + j
            for j, gate in enumerate(self.gate_max.tolist())]), kind="stable")
        row, axis = np.divmod(key + first * n_axes, n_axes)
        cell = np.searchsorted(ends, row, side="right")
        gate = u[row, 1 + axis]
        cand = gate < self.gates[cell % n_lanes, axis]
        row, cell, axis, gate = row[cand], cell[cand], axis[cand], gate[cand]
        run, lane = np.divmod(cell, n_lanes)
        table, n = self.table[lane, axis], self.n_obs[lane]
        cand, m = np.arange(row.size), self._inverse(table, gate)
        found = [(cand, m)]
        # per run: its slots, their start in the flat u, those used, and
        # past them its overflow stream
        rows = k.sum(axis=1)
        slots, used = self.slots * rows, np.zeros(rows.size, dtype=np.int64)
        start = (ends[n_lanes - 1::n_lanes] - rows) * self.width + 1 + n_axes
        overflow: dict[int, RandomSource] = {}
        while True:
            left = n[cand] - m
            cand, m, left = cand[left > 0], m[left > 0], left[left > 0]
            if not cand.size:
                break
            # the q-th slot of each run, counted over its rounds so far
            r = run[cand]
            per_run = np.bincount(r, minlength=used.size)
            q = np.arange(r.size) + (used + per_run - np.cumsum(per_run))[r]
            used += per_run
            short = q >= slots[r]
            q = np.minimum(q, slots[r] - 1)
            x = u.ravel()[start[r] + q // self.slots * self.width
                          + q % self.slots]
            for out in np.unique(r[short]).tolist() if short.any() else ():
                if out not in overflow:
                    overflow[out] = rs.substream(out)
                mine = short & (r == out)
                x[mine] = overflow[out].uniform(int(mine.sum()))
            again = x < self.cum[self.start[table[cand]] + left]
            cand, m = cand[again], m[again]
            m = m + self._inverse(table[cand], x[again])
            found.append((cand, m))
        return (row, cell, axis, *map(np.concatenate, zip(*found)))

    def _inverse(self, table: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The smallest m with F[m] > u of each u in [0, 1) on its
        table."""
        pos = np.searchsorted(self.pairs, table + 1j * u, side="right")
        return pos - self.start[table]

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
