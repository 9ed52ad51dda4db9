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

Runs are drawn in aligned chunks of _CHUNK_RUNS = 32: runs 32 c ..
32 c + 31 form chunk c, which draws from substream c of the stream
keyed by (seed, stream). A run's draws therefore depend only on its
index, not on the range that asks for it, so the estimates of two
adjacent run ranges merge by count addition into exactly the estimate
of their union. Each estimate records its run_offset, and a merge of
ranges that overlap or leave a gap, like one of two streams or
horizons, raises ValueError (L'Ecuyer, Munger, Oreshkin & Simard 2017,
Math. Comput. Simul. 135, on partitioning runs among substreams).

An axis is sampled by exact thinning, not step by step. Observed n
times from the nominal path, the chain X_j = a X_{j-1} + b + s Z_j
needs only its first hit index, or none: after a hit it restarts from
0 over the remaining observations. Its tails p_j = P[X_j >= bound] +
P[X_j <= -bound] are exact Gaussian tails, and their sum U_L over the
first L observations bounds the probability of a hit among them. Where
U_n < 1 a stretch of L observations is a candidate with probability
U_L; a candidate picks one exceedance event with probability
proportional to its tail, draws X_j from its truncated normal,
completes the path by shifting an unconditional path along its
regression on X_j (Cov(X_i, X_j) = a^|i - j| Var(X_min(i, j)); after j
that is the chain continued from X_j), and with N the path's
exceedances is accepted with probability 1 / N. So P[hit] = U_L E[1 /
N] = P[some |X_j| >= bound], an accepted path has the law of a path
given a hit, and its first exceedance is the first hit
(Adler, Blanchet & Liu 2012, Ann. Appl. Probab. 22(3); the
retrospective idea of Beskos & Roberts 2005, Ann. Appl. Probab. 15(4)).
A stretch of one observation hits with probability U_1 exactly. An
axis with U_n >= 1 or s = 0 (tight bounds, slow reversion) is stepped
instead, once per observation and reset at each hit. A lane observed
once decides each hit directly: |b + s Z| >= bound, in that order.

A chunk draws, in this order: the arrival counts of its 32 runs, one
Poisson (runs, lanes) array; then lane by lane in config order, the
lane's arrival uniforms of all its runs, k of them in run order; if the
lane is observed, one standard normal Z per aircraft-axis, a (k, axes)
array; and if it has stepped axes, their other noise, an (n - 1,
stepped axes, k) array. A lane observed once takes Z as its
observation's noise. A lane observed n >= 2 times takes Z as the gate
of a thinned axis, a candidate if Z < Phi^-1(U_n), and as the first
step's noise of a stepped axis. Last come the candidates, in (run,
lane, aircraft, axis) order, each drawing what its stretches need
before the next one starts: per candidate stretch of L observations a
uniform for the event, the truncated normal's rejection draws, L
normals for the path and a uniform for the acceptance; after a hit
with observations left, one uniform, a candidate if below U_L for the L
left. Under the stringent standard about one aircraft-axis in a
hundred is a candidate, so a lane draws about one normal per
aircraft-axis instead of one per observation.

A range of runs draws every chunk it touches. Of its first chunk it
draws the runs before run_offset in full, candidates included, and of
its last chunk the arrivals and normals of the runs after its end but
not their candidates; neither is scored or counted in n_aircraft.
The rest is scored in blocks of whole chunks, each block by a fixed
number of array calls however many runs and lanes it holds: entry
times, occupancy, the one-observation lanes' hits, the stepped axes,
which observations fall in the horizon, and the counts. A block is laid
out lane-major, lanes in config order, the rows of one lane its
aircraft of every run in run order. A lane that is never observed
(residency below one surveillance step) draws no normals, and its rows
are never counted. Neither the layout nor the block boundaries change
an output. A block closes once it holds _BLOCK_ROWS aircraft, which
bounds the arrival uniforms and the one-observation and stepped noise
it holds to that plus one chunk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigFile
from .distributions import AXES, normal_cdf
from .flow import FlowSpec, solve_safe_zone
from .ou import _observe_and_reset, lattice_steps, transition_coeffs
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
_SQRT_HALF = math.sqrt(0.5)


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
        self.n_obs = lattice_steps(self.t_cross, cfg.obs_dt_min)
        self.bounds = np.array([[f.tolerance.for_axis(a) for a in AXES]
                                for f in flows])
        coeffs = [transition_coeffs(cfg.ou[a], cfg.obs_dt_min) for a in AXES]
        _, self.b, self.s = (np.array(c) for c in zip(*coeffs))
        # the samplers of the lanes observed twice or more: they hold
        # only tables, so lanes with equal observations and bounds share one
        keys = [(n, tuple(bounds)) for n, bounds in
                zip(self.n_obs.tolist(), self.bounds.tolist())]
        samplers = {(n, bounds): _Lane(coeffs, list(bounds), n)
                    for n, bounds in dict.fromkeys(keys) if n >= 2}
        self.lanes = [samplers.get(key) for key in keys]

    def draw(self, rs: RandomSource, lo: int, hi: int) -> tuple:
        """The draws of one chunk of _CHUNK_RUNS runs from its stream rs,
        in the order the module docstring gives, kept for runs lo .. hi -
        1 only: their (run, lane) arrival counts and, per lane, their
        arrival uniforms, one-observation normals (None unless the lane
        is observed once), stepped axes' (observations, axes, aircraft)
        noise (None without stepped axes) and (lane row, axis,
        observation) hits of the thinned axes. The candidates of runs
        from hi on are not drawn."""
        k = rs.poisson(self.mean, (_CHUNK_RUNS, len(self.lanes)))
        ends = np.cumsum(k, axis=0)     # per lane, the rows of runs 0 .. r
        cuts = [slice(start, stop) for start, stop in
                zip((ends - k)[lo].tolist(), ends[hi - 1].tolist())]
        us, zs, steps, gated = [], [], [], []
        for li, (n, lane, size, cut) in enumerate(zip(
                self.n_obs.tolist(), self.lanes, ends[-1].tolist(), cuts)):
            us.append(rs.uniform(size)[cut])
            z = rs.standard_normal((size, len(AXES))) if n else None
            zs.append(z[cut] if n == 1 else None)
            steps.append(lane.noise(z, rs)[:, :, cut]
                         if lane is not None and lane.stepped else None)
            if lane is not None:
                row, axis = np.nonzero(z < lane.gates)
                run = np.searchsorted(ends[:, li], row, side="right")
                gated.append(np.stack([run, np.full_like(row, li), row,
                                       axis])[:, run < hi])
        # the candidates in (run, lane, aircraft, axis) order
        hits = [[] for _ in cuts]
        if gated:
            gated = np.concatenate(gated, axis=1)
            gated = gated[:, np.argsort(gated[0], kind="stable")]
            for run, li, row, axis in gated.T.tolist():
                found = self.lanes[li].axes[axis].hits(rs)
                if run >= lo:
                    row -= cuts[li].start
                    hits[li] += [(row, axis, m) for m in found]
        hits = [np.array(h, dtype=np.int64).reshape(-1, 3) for h in hits]
        return k[lo:hi], us, zs, steps, hits

    def score(self, chunks: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Counts per (run, lane, axis) and occupancy per run of a block
        of runs, from the draws of its chunks in run order. A hit counts
        if its observation (1..n_obs of its lane) lies inside the
        horizon; those of the pre-window warm-up only reset their axis."""
        ks, us, zs, steps, hits = zip(*chunks)
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
        found, stepped = [np.zeros((0, 3), dtype=np.int64)], []
        for li, (start, stop, bounds, sampler) in enumerate(zip(
                (np.cumsum(lane_rows) - lane_rows).tolist(),
                np.cumsum(lane_rows).tolist(), self.bounds, self.lanes)):
            if zs[0][li] is not None:
                # b + s Z in that order, as a first transition from 0
                z = np.concatenate([z[li] for z in zs])
                row, axis = np.nonzero(np.abs(self.b + self.s * z) >= bounds)
                found.append(np.stack([start + row, axis,
                                       np.ones_like(row)], axis=1))
            if steps[0][li] is not None:
                flags = sampler.step(np.concatenate([s[li] for s in steps],
                                                    axis=2))
                m = np.arange(1, sampler.n + 1)[:, None, None]
                counted = flags & self._counted(entries[start:stop], m)
                axes = np.array(sampler.stepped)[:, None]
                stepped.append(np.bincount(
                    (cell[start:stop] + axes).ravel(),
                    counted.sum(axis=0).ravel(), size))
            offset = start     # of each chunk's rows of the lane
            for u, hit in zip(us, hits):
                found.append(hit[li] + [offset, 0, 0])
                offset += u[li].size
        row, axis, m = np.concatenate(found).T
        hit_cells = (cell[row] + axis)[self._counted(entries[row], m)]
        counts = np.bincount(hit_cells, minlength=size)
        for weights in stepped:
            counts += weights.astype(np.int64)
        return counts.reshape(n_runs, n_lanes, n_axes), occupancy

    def _counted(self, entries: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Whether observation m (1-based) of an aircraft entering at
        entries lies inside the horizon."""
        t_obs = entries + m * self.obs_dt
        return (t_obs >= -1e-9) & (t_obs <= self.horizon + 1e-9)


class _Lane:
    """The samplers of the axes of a lane observed n >= 2 times from the
    nominal path (see the module docstring). A thinned axis (U_n < 1)
    takes each aircraft whose normal lies below its gate, Phi^-1(U_n),
    through its candidate branch. Every other axis is stepped: the
    scorer walks it once per observation over all the lane's aircraft of
    a block, with the aircraft's normal as the first step's noise."""

    def __init__(self, coeffs: list[tuple[float, float, float]],
                 bounds: list[float], n: int):
        self.n = n
        self.axes = [_Axis(c, bound, n) for c, bound in zip(coeffs, bounds)]
        self.stepped = [j for j, ax in enumerate(self.axes) if not ax.thin]
        # (stepped axes, 1) operands: each ufunc runs along the aircraft
        self.coeffs = tuple(np.array(c)[self.stepped, None]
                            for c in zip(*coeffs))
        self.bounds = np.array(bounds)[self.stepped, None]
        self.gates = np.array([_normal_quantile(ax.union[-1]) if ax.thin
                               else -math.inf for ax in self.axes])

    def noise(self, z: np.ndarray, rs: RandomSource) -> np.ndarray:
        """The stepped axes' (observations, axes, aircraft) noise of a
        chunk's aircraft, their normals z first."""
        noise = np.empty((self.n, len(self.stepped), z.shape[0]))
        noise[0] = z[:, self.stepped].T
        noise[1:] = rs.standard_normal(noise[1:].shape)
        return noise

    def step(self, noise: np.ndarray) -> np.ndarray:
        """The (observations, stepped axes, aircraft) hit flags of the
        stepped axes, each started at 0 and reset at each hit, over their
        noise; one _observe_and_reset call per observation."""
        x, flags = np.zeros(noise.shape[1:]), np.zeros(noise.shape, bool)
        for m in range(self.n):
            _observe_and_reset(x, noise[m:m + 1], self.coeffs, self.bounds,
                               flags[m])
        return flags


class _Axis:
    """The thinned sampler of one axis of a lane observed n times, with
    its tables indexed by observation j = 0..n - 1 or stretch length
    L - 1, each of length n. It thins (thin) where U_n < 1 and s > 0;
    U_L <= U_n, so every stretch left after a hit thins too."""

    def __init__(self, coeffs: tuple[float, float, float], bound: float,
                 n: int):
        self.a, self.b, self.s = coeffs
        self.bound, self.n = bound, n
        powers = self.a ** np.arange(n)
        mean = self.b * np.cumsum(powers)                # E X_j
        var = self.s ** 2 * np.cumsum(powers * powers)   # Var X_j
        self.thin = False
        if self.s > 0.0:
            sd = np.sqrt(var)
            tails = np.stack([normal_cdf((mean - bound) / sd),
                              normal_cdf((-bound - mean) / sd)], axis=1)
            # cum[2 j + side] sums the tails of the events up to (j,
            # side), side 0 above the bound and 1 below; union[L - 1] is U_L
            self.cum = np.cumsum(tails).tolist()
            self.union = self.cum[1::2]
            self.thin = self.union[-1] < 1.0
        if self.thin:
            self.powers, self.var = powers.tolist(), var.tolist()
            self.mean, self.sd = mean.tolist(), sd.tolist()

    def hits(self, rs: RandomSource) -> list[int]:
        """The observations (1..n) at which a candidate aircraft-axis
        hits."""
        found, j = [], self._candidate(self.n, rs)
        while j:
            found.append(found[-1] + j if found else j)
            left = self.n - found[-1]
            if not left or rs.uniform() >= self.union[left - 1]:
                break
            j = 1 if left == 1 else self._candidate(left, rs)
        return found

    def _candidate(self, length: int, rs: RandomSource) -> int:
        """The mixture branch on a candidate stretch of length
        observations: its first hit (1-based), or 0 if rejected. Given
        X_j, the path before j is an unconditional path shifted along
        its regression on X_j, Cov(X_i, X_j) = a^(j - i) Var(X_i) for i
        < j, and the path after j continues the chain from X_j."""
        a, b, s, bound = self.a, self.b, self.s, self.bound
        event = bisect_right(self.cum, rs.uniform() * self.union[length - 1],
                             0, 2 * length - 1)
        j = event // 2
        x_j = _truncated_normal(rs, self.mean[j], self.sd[j], bound,
                                1.0 - 2.0 * (event % 2))
        noise, x, path = rs.standard_normal(length).tolist(), 0.0, []
        for z in noise[:j + 1]:
            x = a * x + b + s * z
            path.append(x)
        shift = (x_j - x) / self.var[j]
        powers, var = self.powers, self.var
        beyond = [i for i, y in enumerate(path[:j])
                  if abs(y + powers[j - i] * var[i] * shift) >= bound]
        beyond.append(j)
        x = x_j
        for i, z in enumerate(noise[j + 1:], j + 1):
            x = a * x + b + s * z
            if abs(x) >= bound:
                beyond.append(i)
        return beyond[0] + 1 if rs.uniform() * len(beyond) < 1.0 else 0


def _truncated_normal(rs: RandomSource, mean: float, sd: float,
                      bound: float, sign: float) -> float:
    """X ~ Normal(mean, sd^2) given sign X >= bound, exactly, for sign +1
    or -1: X = mean + sign sd T with T a standard normal given T >= alpha
    = (bound - sign mean) / sd. T is drawn by plain rejection up to alpha
    0.5, and above it by Robert's (1995, Stat. Comput. 5) exponential
    proposal alpha + E / lam, lam = (alpha + sqrt(alpha^2 + 4)) / 2,
    accepted with probability exp(-(T - lam)^2 / 2), which neither
    underflows nor slows as alpha grows. X is clamped to the bound, so
    that rounding never puts it inside."""
    alpha = (bound - sign * mean) / sd
    if alpha <= 0.5:
        t = rs.standard_normal()
        while t < alpha:
            t = rs.standard_normal()
    else:
        lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
        t = alpha - math.log1p(-rs.uniform()) / lam
        while rs.uniform() > math.exp(-0.5 * (t - lam) ** 2):
            t = alpha - math.log1p(-rs.uniform()) / lam
    return sign * max(sign * mean + sd * t, bound)


def _normal_quantile(p: float) -> float:
    """Phi^-1(p) for p in [0, 1), by bisection to adjacent doubles on
    normal_cdf's formula Phi(x) = erfc(-x / sqrt 2) / 2: the smallest x
    found with Phi(x) >= p, and -inf for p = 0. Scalar erfc calls keep
    it near 10 us, a tenth of what normal_cdf's array calls take."""
    if p <= 0.0:
        return -math.inf
    lo, hi = -40.0, 9.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if 0.5 * math.erfc(mid * -_SQRT_HALF) < p:
            lo = mid
        else:
            hi = mid


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
