"""Ornstein-Uhlenbeck deviation engine.

The per-axis deviation of an aircraft from its nominal 4-D trajectory is
modeled as the mean-reverting diffusion

    dX = kappa (mu - X) dt + sigma dW.

Everything here uses the exact Gaussian transition law

    X(t+dt) | X(t) ~ Normal(X e^{-kappa dt} + mu (1 - e^{-kappa dt}),
                            sigma^2 (1 - e^{-2 kappa dt}) / (2 kappa)),

so path statistics carry no Euler discretization bias at any step size.
First-passage estimates remain grid-monitored: a barrier contact is the
first *grid time* at which the state lies beyond the barrier, and
excursions between grid points are invisible by construction.

Two exact engines sample the chain: _observe_and_reset steps it one
observation at a time (_walk and the harness's stepped axes call it),
and the thinned sampler (_Lane, _Batch) draws first hits only. Observed
n times from the nominal path, the chain X_j = a X_{j-1} + b + s Z_j
needs only its first hit index, or none: after a hit it restarts from 0
over the remaining observations. Its tails p_j = P[X_j >= bound] +
P[X_j <= -bound] are exact Gaussian tails, and their sum U_L over the
first L observations bounds the probability of a hit among them. Where
U_n < 1 a stretch of L observations is a candidate with probability
U_L: an aircraft-axis is one if its gate uniform lies below U_n. A
candidate stretch of one observation hits, which has probability U_1
exactly. A longer one picks one exceedance event with probability
proportional to its tail, draws X_j from its truncated normal,
completes the path by shifting an unconditional path along its
regression on X_j (Cov(X_i, X_j) = a^|i - j| Var(X_min(i, j))), and
with N the path's exceedances is accepted with probability 1 / N. So
P[hit] = U_L E[1 / N] = P[some |X_j| >= bound], an accepted path has
the law of a path given a hit, and its first exceedance is the first
hit (Adler, Blanchet & Liu 2012, Ann. Appl. Probab. 22(3); the
retrospective idea of Beskos & Roberts 2005, Ann. Appl. Probab.
15(4)). One route rule picks the engine of first_passage_mc: paths
from 0 under a two-sided barrier with s > 0 and U_n < THIN_BELOW thin;
all else walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import normal_cdf
from .pmf import TaskloadPmf, wilson_interval
from .rng import RandomSource


@dataclass(frozen=True)
class OuParams:
    """Elasticity (1/min), reversion mean (spatial), volatility (spatial/sqrt(min))."""

    kappa: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.kappa, self.mu, self.sigma)):
            raise ValueError("non-finite OU parameter")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def stationary_sd(self) -> float:
        """sigma / sqrt(2 kappa); inf for a driftless diffusing process."""
        if self.sigma == 0.0:
            return 0.0
        if self.kappa == 0.0:
            return math.inf
        return self.sigma / math.sqrt(2.0 * self.kappa)


#: Per-axis parameters fitted to the Johnson FTE generator sampled at
#: 1-minute steps (NM and ft; kappa per minute). The reversion means are
#: artifacts of the generator's skew offset.
OU_FTE_FIT = {
    "lateral": OuParams(kappa=3.492, mu=2.79e-2, sigma=7.27e-2),
    "vertical": OuParams(kappa=1.841, mu=8.034, sigma=8.683),
    "longitudinal": OuParams(kappa=2.1662, mu=9.965e-2, sigma=0.2774),
}

#: The same dynamics centered on the nominal trajectory (mu = 0). Corridor
#: scenarios use these: tolerance bounds are symmetric about the nominal
#: path, and the fitted means above are generator offsets, not a physical
#: steady-state displacement of the aircraft.
OU_FTE_CENTERED = {axis: replace(p, mu=0.0) for axis, p in OU_FTE_FIT.items()}


@dataclass(frozen=True)
class Barrier:
    """Intervention boundary for one axis.

    two_sided: contact when |x - nominal| >= level (level > 0); the
    nominal trajectory sits at deviation 0. one_sided: contact when
    x >= level. origin is the path start used by first-passage runs.
    """

    kind: str
    level: float
    origin: float = 0.0

    def __post_init__(self):
        if self.kind not in ("one_sided", "two_sided"):
            raise ValueError(f"unknown barrier kind {self.kind!r}")
        if not (math.isfinite(self.level) and math.isfinite(self.origin)):
            raise ValueError("non-finite barrier")
        if self.kind == "two_sided" and self.level <= 0.0:
            raise ValueError(f"two-sided level must be > 0, got {self.level}")

    def crossed(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "two_sided":
            return np.abs(x) >= self.level
        return x >= self.level

    @property
    def origin_inside(self) -> bool:
        return not bool(self.crossed(self.origin))


def transition_coeffs(p: OuParams, dt: float) -> tuple[float, float, float]:
    """(a, b, s) with X' = a X + b + s Z, Z standard normal.

    Exact for any dt; the kappa -> 0 limit (a = 1, variance sigma^2 dt)
    is taken analytically.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if p.kappa == 0.0:
        return 1.0, 0.0, p.sigma * math.sqrt(dt)
    a = math.exp(-p.kappa * dt)
    b = p.mu * (1.0 - a)
    # (1 - e^{-2 kappa dt}) / (2 kappa), stable for small kappa*dt
    var = p.sigma ** 2 * (-math.expm1(-2.0 * p.kappa * dt)) / (2.0 * p.kappa)
    return a, b, math.sqrt(var)


def lattice_steps(window, dt):
    """How many of dt, 2 dt, ... lie in window (1e-9 slack); elementwise."""
    return np.floor(np.divide(window, dt) + 1e-9).astype(int)


@dataclass
class FirstPassageResult:
    """Grid-monitored first-passage summary over a batch of paths."""

    hit_times: np.ndarray
    n_paths: int
    n_hits: int
    n_censored: int
    horizon: float
    dt: float
    probability: float
    ci_low: float
    ci_high: float
    degenerate: bool = False


#: first_passage_mc thins below this U_n: thinning took about 5-6 U_n
#: times the walk's time at 30, 150 and 1 200 steps.
THIN_BELOW = 0.2


def first_passage_mc(p: OuParams, b: Barrier, horizon: float, dt: float,
                     n_paths: int, src: RandomSource) -> FirstPassageResult:
    """Estimate P[tau <= horizon] with a 95% CI from n_paths paths.

    Paths start at b.origin; the hitting time is the first grid time
    with the state beyond the barrier. Paths that never hit within the
    horizon are censored. A degenerate barrier (origin already beyond)
    reports hitting time 0 for every path, flagged. The module's route
    rule picks the engine; both draw from src.generator in one thread.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not b.origin_inside:
        lo, hi = map(float, wilson_interval(n_paths, n_paths))
        return FirstPassageResult(np.zeros(n_paths), n_paths, n_paths, 0,
                                  horizon, dt, 1.0, lo, hi, degenerate=True)

    n_steps, coeffs = lattice_steps(horizon, dt), transition_coeffs(p, dt)
    lane = (_Lane([coeffs], [b.level], n_steps) if b.kind == "two_sided"
            and b.origin == 0.0 and n_steps >= 1 else None)
    if lane is not None and lane.thinned and lane.gates[0] < THIN_BELOW:
        # 1 marks a candidate, a hit if n_steps = 1; longer horizons go
        # once through the branch, in slices of about 2^20 path-observations
        hit_step = (src.uniform(n_paths) < lane.gates[0]).astype(np.int64)
        cand, batch = np.flatnonzero(hit_step), _Batch([lane])
        per = max(2 ** 20 // n_steps, 1)
        for k in range(0, cand.size if n_steps > 1 else 0, per):
            c = cand[k:k + per]
            hit_step[c] = batch._first_hits(src, np.zeros_like(c),
                                            np.full(c.size, n_steps))
    else:
        hit_step = _walk(coeffs, b, n_steps, n_paths, src.generator,
                         math.nan)[0]
    hit_times = hit_step[hit_step > 0].astype(float) * dt
    n_hits = int(hit_times.size)
    lo, hi = map(float, wilson_interval(n_hits, n_paths))
    return FirstPassageResult(hit_times, n_paths, n_hits, n_paths - n_hits,
                              horizon, dt, n_hits / n_paths, lo, hi)


def intervention_count_mc(p: OuParams, b: Barrier, horizon: float, dt: float,
                          reset: float, n_paths: int, src: RandomSource,
                          n_max: int = 64) -> TaskloadPmf:
    """Empirical PMF of barrier contacts per path over the horizon.

    At every grid time beyond the barrier the count increments and the
    state teleports to `reset` (the controller returning the aircraft to
    its trajectory). Counts above n_max collapse into truncation mass.
    Each grid step draws one normal per path, in step order.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if b.crossed(reset):
        raise ValueError(f"reset point {reset} is not inside the barrier")
    if not b.origin_inside:
        raise ValueError(f"origin {b.origin} is not inside the barrier")
    counts = _walk(transition_coeffs(p, dt), b, lattice_steps(horizon, dt),
                   n_paths, src.generator, reset)[1]
    return pmf_from_counts(counts, n_max=n_max, horizon=horizon)


def _walk(coeffs, b: Barrier, n_steps: int, size: int,
          gen: np.random.Generator, reset: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """(first hit step, 0 = none; hit count) of `size` paths from b.origin.
    Each grid step fills `size` normals from gen and makes one
    _observe_and_reset call into a one-byte hit flag, read only when it
    shows a hit (an int64 count there runs about 8% slower). A NaN reset
    retires a path at its first hit: NaN never compares beyond a bound."""
    x, z = np.full(size, float(b.origin)), np.empty((1, size))
    flag = np.zeros(size, dtype=bool)
    first, count = np.zeros(size, dtype=np.int32), np.zeros(size, np.int64)
    for step in range(1, n_steps + 1):
        gen.standard_normal(out=z)
        _observe_and_reset(x, z, coeffs, b.level, flag, reset=reset,
                           two_sided=b.kind == "two_sided")
        if flag.any():
            first[flag & (count == 0)] = step
            count += flag
            flag[:] = False
    return first, count


def _observe_and_reset(x: np.ndarray, z: np.ndarray, coeffs, bounds,
                       counts: np.ndarray, reset: float = 0.0,
                       two_sided: bool = True) -> None:
    """Step x through one exact transition (coeffs = (a, b, s) at the
    observation step) per slice of the noise block z (observations,
    *x.shape) and observe it; x, counts and z (scaled by s) are updated
    in place. A state at or beyond its bound is a hit, resets to `reset`
    and adds one to counts. Each element computes ((a x) + b) + s z;
    coefficients and bounds broadcast to x. Callers: _walk, one call per
    step into a one-byte flag array (bool + is or), and _Lane.step, one
    call per observation into that observation's flags."""
    a, b, s = coeffs
    z *= s
    hits, tmp = np.empty(x.shape, dtype=bool), np.empty_like(x)
    for m in range(z.shape[0]):
        x *= a
        x += b
        x += z[m]
        np.greater_equal(np.abs(x, out=tmp) if two_sided else x, bounds,
                         out=hits)
        np.copyto(x, reset, where=hits)
        counts += hits


class _Lane:
    """The samplers of the axes of a lane observed n >= 1 times from the
    nominal path (see the module docstring). An axis thins where U_n < 1
    and s > 0: each aircraft whose gate uniform lies below U_n goes
    through the candidate batch, and tables holds what the batch reads
    of the thinned axes, row q for axis thinned[q], indexed by
    observation j = 0..n - 1 or stretch length L - 1. U_L <= U_n, so
    every stretch left after a hit thins too. Every other axis is
    stepped: the scorer walks it once per observation over all the
    lane's aircraft of a block."""

    def __init__(self, coeffs: list[tuple[float, float, float]],
                 bounds: list[float], n: int):
        self.n = n
        a, b, s = (np.array(c)[:, None] for c in zip(*coeffs))
        bound = np.array(bounds)[:, None]
        powers = a ** np.arange(n)
        mean = b * np.cumsum(powers, axis=1)                 # E X_j
        var = s * s * np.cumsum(powers * powers, axis=1)     # Var X_j
        sd = np.sqrt(var) + (s == 0.0)    # 1 where s = 0, which never thins
        # cum[:, 2 j + side] sums the tails of the events up to (j, side),
        # side 0 above the bound and 1 below; cum[:, 2 L - 1] is U_L
        cum = np.cumsum(normal_cdf(np.stack(
            [(mean - bound) / sd, (-bound - mean) / sd], axis=2)).reshape(
                len(bounds), 2 * n), axis=1)
        thin = (s[:, 0] > 0.0) & (cum[:, -1] < 1.0)
        self.thinned = np.flatnonzero(thin).tolist()
        self.stepped = np.flatnonzero(~thin).tolist()
        self.gates = cum[thin, -1]
        self.tables = {
            "a": a[thin, 0], "b": b[thin, 0], "s": s[thin, 0],
            "bound": bound[thin, 0], "cum": cum[thin],
            "union": cum[thin, 1::2], "mean": mean[thin], "sd": sd[thin],
            "powers": powers[thin], "var": var[thin]}
        # (stepped axes, 1) operands: each ufunc runs along the aircraft
        self.step_coeffs = tuple(c[self.stepped] for c in (a, b, s))
        self.step_bounds = bound[self.stepped]

    def step(self, noise: np.ndarray) -> np.ndarray:
        """The (observations, stepped axes, aircraft) hit flags of the
        stepped axes, each started at 0 and reset at each hit, over their
        noise; one _observe_and_reset call per observation."""
        x, flags = np.zeros(noise.shape[1:]), np.zeros(noise.shape, bool)
        for m in range(self.n):
            _observe_and_reset(x, noise[m:m + 1], self.step_coeffs,
                               self.step_bounds, flags[m])
        return flags


class _Batch:
    """The mixture branch over arrays of candidate stretches, whatever
    their lanes and axes. Its tables stack the lanes' tables of their
    thinned axes in lane order, padded to the most observations; row g
    is axis axis[g] of a lane observed n[g] times, and stretch c of a
    round reads row g[c]."""

    def __init__(self, lanes: list[_Lane]):
        self.n = np.repeat([lane.n for lane in lanes],
                           [len(lane.thinned) for lane in lanes])
        self.axis = np.concatenate([lane.thinned for lane in lanes])
        for name in lanes[0].tables:
            parts = [lane.tables[name] for lane in lanes]
            if parts[0].ndim == 2 and len(parts) > 1:
                # padded with 1, above every event's u U_L < U_n < 1
                size = max(part.shape[1] for part in parts)
                parts = [np.pad(part, ((0, 0), (0, size - part.shape[1])),
                                constant_values=1.0) for part in parts]
            setattr(self, name, np.concatenate(parts))

    def hits(self, rs: RandomSource, g: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """The (candidate, observation 1..n) pairs of every hit of
        candidates on table rows g, each a stretch of its axis's n
        observations, sampled in the rounds the harness docstring gives."""
        cand, start, length = np.arange(g.size), np.zeros_like(g), self.n[g]
        found = []
        while cand.size:
            first = np.ones_like(length)   # a stretch of one observation hits
            long = np.flatnonzero(length > 1)
            if long.size:
                first[long] = self._first_hits(rs, g[cand[long]],
                                               length[long])
            hit = first > 0
            cand, start = cand[hit], start[hit] + first[hit]
            found.append((cand, start))
            left = (length - first)[hit]
            cand, start, left = cand[left > 0], start[left > 0], left[left > 0]
            again = rs.uniform(cand.size) < self.union[g[cand], left - 1]
            cand, start, length = cand[again], start[again], left[again]
        return tuple(map(np.concatenate, zip(*found)))

    def _first_hits(self, rs: RandomSource, g: np.ndarray,
                    length: np.ndarray) -> np.ndarray:
        """One round of the mixture branch on candidate stretches of
        length >= 2 observations of rows g: each one's first hit
        (1-based), or 0 if rejected. Given X_j, a path from 0 shifted by
        Cov(X_i, X_j) / Var(X_j) (X_j - x_j) along its regression has the
        law of a path given X_j; after j that is the chain continued from
        X_j."""
        m, rows = g.size, np.arange(g.size)
        x = rs.uniform(m) * self.union[g, length - 1]
        event = np.minimum((self.cum[g] <= x[:, None]).sum(axis=1),
                           2 * length - 1)
        j, sign = event // 2, 1.0 - 2.0 * (event % 2)
        bound = self.bound[g]
        x_j = _truncated_normals(rs, self.mean[g, j], self.sd[g, j], bound,
                                 sign)
        # (observation, stretch) arrays, each stretch's path a column
        live = np.arange(length.max())[:, None] < length
        path = np.zeros(live.shape)
        path.T[live.T] = rs.standard_normal(int(length.sum()))
        # path_i = sum_k a^(i - k) (b + s Z_k), by a scan whose pass with
        # reach r adds a^r times the partial sum r observations back
        path = self.s[g] * path + self.b[g]
        power, reach = self.a[g], 1
        while reach < len(path):
            path[reach:] += power * path[:-reach]
            power, reach = power * power, 2 * reach
        # Cov(X_i, X_j) / Var(X_j) = a^|i - j| Var(X_min(i, j)) / Var(X_j)
        obs = np.arange(len(path))[:, None]
        coef = (self.powers[g, np.abs(obs - j)]
                * self.var[g, np.minimum(obs, j)] / self.var[g, j])
        shift = coef * (x_j - path[j, rows])
        beyond = live & (np.abs(path + shift) >= bound)
        beyond[j, rows] = True
        first = beyond.argmax(axis=0) + 1
        return np.where(rs.uniform(m) * beyond.sum(axis=0) < 1.0, first, 0)


def _truncated_normals(rs: RandomSource, mean: np.ndarray, sd: np.ndarray,
                       bound: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """X ~ Normal(mean, sd^2) given sign X >= bound, exactly, for sign +1
    or -1, over arrays: X = mean + sign sd T with T a standard normal
    given T >= alpha = (bound - sign mean) / sd, by Robert's (1995, Stat.
    Comput. 5) proposal alpha + E / lam, lam = (alpha + sqrt(alpha^2 +
    4)) / 2, accepted with probability exp(-(T - lam)^2 / 2). It is exact
    for any alpha, accepts over half its proposals from alpha = -1 up, and
    neither underflows nor slows as alpha grows. Each round draws a (2,
    left) uniform array, proposals first. X is clamped to the bound."""
    alpha = (bound - sign * mean) / sd
    lam = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0))
    t, left = np.empty_like(alpha), np.arange(alpha.size)
    while left.size:
        u = rs.uniform((2, left.size))
        proposal = alpha[left] - np.log1p(-u[0]) / lam[left]
        ok = u[1] <= np.exp(-0.5 * (proposal - lam[left]) ** 2)
        t[left[ok]] = proposal[ok]
        left = left[~ok]
    return sign * np.maximum(sign * mean + sd * t, bound)


def pmf_from_counts(counts: np.ndarray, n_max: int | None = None,
                    horizon: float | None = None) -> TaskloadPmf:
    """Normalized empirical PMF from integer per-path counts."""
    counts = np.asarray(counts)
    n = counts.size
    top = int(counts.max(initial=0))
    if n_max is not None and top > n_max:
        freq = np.bincount(np.minimum(counts, n_max + 1),
                           minlength=n_max + 2).astype(float)
        trunc = freq[n_max + 1] / n
        return TaskloadPmf(freq[:n_max + 1] / n, trunc, horizon)
    freq = np.bincount(counts, minlength=top + 1).astype(float)
    return TaskloadPmf(freq / n, 0.0, horizon)
